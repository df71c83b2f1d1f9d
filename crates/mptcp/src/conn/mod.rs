//! The Multipath TCP connection (meta socket).
//!
//! A [`Connection`] owns the data-sequence space, the subflows, the packet
//! scheduler and the application. This module holds that state, the
//! MPTCP-or-fallback mode and the one place a segment is built
//! (`Connection::emit`); the state machines live in its children:
//!
//! * `handshake` — the `MP_CAPABLE` and `MP_JOIN` handshakes (with real
//!   HMAC material),
//! * `send` — data transmission with DSS mappings, chosen per segment by
//!   the scheduler (lowest-RTT by default), and **reinjection**: when a
//!   subflow times out or dies, its unacknowledged meta ranges become
//!   eligible for transmission on the other subflows — while the original
//!   subflow keeps retransmitting, which is exactly the §4.3 pathology the
//!   smart-streaming controller works around,
//! * `recv` — subflow and connection-level acknowledgments (DATA_ACK),
//!   DSS mappings, fallback inference, delivery to the application,
//! * `close` — DATA_FIN / subflow FIN teardown, RST and ICMP error handling.
//!
//! All of them raise the path-manager event stream (`PmEvent`) the SMAPP
//! architecture builds on.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use smapp_sim::{spare, Addr, Frame, Recycle, SimTime, TimerHandle};
use smapp_tcp::{
    lia_alpha, Cc, CongestionControl, Lia, OptionWriter, ReassemblyRings, Reno, RtoState,
    StreamTap, TcpFixed, TcpFlags, TcpInfo, TcpView, MAX_WINDOW_SCALE, OPT_KIND_MPTCP,
    OPT_KIND_MSS, OPT_KIND_WINDOW_SCALE,
};

use crate::app::{App, AppCtx};
use crate::config::{CcAlgo, StackConfig};
use crate::env::StackEnv;
use crate::options::{Dss, DssMapping, MpOption, CAPABLE_FLAG_HMAC_SHA1, MPTCP_VERSION};
use crate::pm::{ConnToken, FourTuple, PmEvent, SubflowError, SubflowId};
use crate::scheduler::{by_name, SchedCandidate, Scheduler};
use crate::stack::{timer_token, Retired, TimerKind};
use crate::subflow::{MetaRange, RecvMap, SegTag, SfState, Subflow};
use crate::token::{idsn_from_key, join_hmac_a, join_hmac_b, token_from_key, Key};

mod close;
mod handshake;
mod recv;
mod send;

/// Connection role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// This host sent the initial `MP_CAPABLE` SYN.
    Client,
    /// This host accepted it.
    Server,
}

/// Coarse connection state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConnState {
    /// Initial handshake in progress.
    #[default]
    Establishing,
    /// Data may flow.
    Established,
    /// Fully closed (or aborted).
    Closed,
}

/// Lifetime counters.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// When the connection object was created.
    pub created_at: SimTime,
    /// When the three-way handshake completed.
    pub established_at: Option<SimTime>,
    /// When it fully closed.
    pub closed_at: Option<SimTime>,
    /// Meta-level payload bytes sent (first transmissions, not retx).
    pub bytes_sent: u64,
    /// Meta-level payload bytes delivered to the application.
    pub bytes_received: u64,
    /// Segments reinjected onto a different subflow.
    pub reinjections: u64,
    /// MPTCP was negotiated but the peer's first data arrived without any
    /// DSS option — a middlebox stripped the options mid-path and the
    /// connection inferred a plain-TCP fallback (RFC 6824 §3.7).
    pub fallback_inferred: bool,
    /// Oracle tap: rolling digest over every byte the application wrote,
    /// in stream order (see `smapp_tcp::check`).
    pub tap_sent: StreamTap,
    /// Oracle tap: rolling digest over every byte delivered to the
    /// application, in stream order.
    pub tap_recvd: StreamTap,
    /// In-order subflow bytes that arrived without a DSS mapping and were
    /// discarded (RFC 6824 protocol violation by the peer — or a stripped
    /// path the fallback inference failed to catch). Oracle-clean runs
    /// have zero.
    pub unmapped_rx_bytes: u64,
    /// End-host invariant violations recorded by the connection's own
    /// taps (capped; the count is what gates).
    pub integrity_violations: Vec<String>,
    /// Coverage hook: one-hot mask of every subflow close reason this
    /// connection observed (`SubflowError::coverage_bit`), graceful FIN
    /// closes included. The fuzzer folds this into its feature bitmap.
    pub sf_close_reasons: u8,
}

/// Connection-level info exposed to path managers and controllers.
#[derive(Clone, Debug)]
pub struct ConnInfo {
    /// Local token.
    pub token: ConnToken,
    /// Coarse state.
    pub state: ConnState,
    /// First un-data-acked meta offset (the paper's `snd_una` signal used
    /// by the smart-streaming controller).
    pub meta_una: u64,
    /// Next meta offset to be sent.
    pub meta_snd_nxt: u64,
    /// Bytes delivered to the application.
    pub bytes_received: u64,
    /// Peer's advertised receive window, bytes.
    pub peer_window: u64,
}

/// Whether the connection speaks Multipath TCP or has given it up. Written
/// by the constructor and by [`Connection::fall_back`], nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// MPTCP is negotiated, or still being negotiated.
    Mptcp {
        /// A DSS option has arrived from the peer. Gates the sender-side
        /// §3.7 fallback inference: a plain ACK proves stripping only
        /// while the peer has never spoken DSS.
        peer_dss_seen: bool,
    },
    /// Plain TCP: the peer did not negotiate MPTCP, or a middlebox strips
    /// it. Single subflow, no MPTCP option sent, identity mapping between
    /// subflow and meta stream, close via the subflow FIN, no reinjection,
    /// no joins.
    Fallback,
}

/// How a connection came to fall back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FallbackCause {
    /// The `MP_CAPABLE` handshake did not complete: a peer without MPTCP,
    /// or options stripped from the first SYN on.
    Handshake,
    /// RFC 6824 §3.7: MPTCP was negotiated, then a middlebox began
    /// stripping its options mid-connection.
    Inferred,
}

/// The storage a closed connection gives up, emptied: its send buffer,
/// reassembly rings and reinjection ring. The thread keeps it for the
/// next connection of the same role: a client's rings grew for the
/// traffic a client carries (a request out, a response in) and a
/// server's for the other direction, so a connection that starts on a
/// spare of its own role finds its rings already the size its job takes.
#[derive(Default)]
pub(crate) struct ConnSpare {
    send: VecDeque<(u64, Bytes)>,
    recv: ReassemblyRings,
    reinject: VecDeque<(u64, u64)>,
}

impl Recycle for ConnSpare {
    fn reset(&mut self) {
        self.send.clear();
        self.recv.reset();
        self.reinject.clear();
    }
    fn is_empty(&self) -> bool {
        self.send.is_empty() && self.recv.is_empty() && self.reinject.is_empty()
    }
}

/// The meta socket.
pub struct Connection {
    /// Slot index within the stack (stable; slots are never reused).
    pub idx: usize,
    /// Our token (identifies the connection toward path managers).
    pub token: ConnToken,
    /// Role.
    pub role: Role,
    /// State.
    pub state: ConnState,
    /// Stats.
    pub stats: ConnStats,

    /// The host's configuration when the connection was created.
    cfg: StackConfig,
    mode: Mode,
    local_key: Key,
    remote_key: Option<Key>,
    remote_token: Option<ConnToken>,
    /// Wire IDSN bases (our outgoing data, peer's incoming data).
    idsn_local: u64,
    idsn_remote: u64,

    app: Option<Box<dyn App>>,
    app_closed: bool,

    // --- meta send state (offsets are 0-based stream offsets) ---
    meta_send: smapp_tcp::SendBuffer,
    meta_snd_nxt: u64,
    meta_una: u64,
    fin_sent_off: Option<u64>,
    fin_acked: bool,
    meta_fin_gen: u64,
    meta_fin_backoff: u32,
    /// The host's handle on the simulator timer behind the DATA_FIN
    /// retransmission timer.
    meta_fin_timer: Option<TimerHandle>,

    // --- meta receive state ---
    meta_recv: smapp_tcp::Reassembly,
    peer_fin_off: Option<u64>,
    eof_delivered: bool,

    // --- subflows & scheduling ---
    subflows: Vec<Subflow>,
    /// The box the subflow table and the taps' storage go back to the
    /// thread in when the stack drops (see `Retired`), emptied while the
    /// connection holds them.
    retired: Box<Retired>,
    scheduler: Box<dyn Scheduler>,
    reinject: ReinjectQueue,
    peer_window: u64,

    // --- addresses ---
    /// Remote addresses learned from ADD_ADDR: (id, addr, port).
    pub remote_addrs: Vec<(u8, Addr, u16)>,
    /// The original destination (address id 0 in PM terms).
    pub initial_remote: (Addr, u16),
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Connection(token={:08x} {:?} {:?} subflows={})",
            self.token,
            self.role,
            self.state,
            self.subflows.len()
        )
    }
}

impl Connection {
    /// A connection object with no subflow yet, on a spare when the thread
    /// has one, announced to the path manager.
    fn common(
        idx: usize,
        cfg: &StackConfig,
        role: Role,
        tuple: FourTuple,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let ConnSpare {
            send,
            recv,
            reinject,
        } = spare::take(role as u8);
        let mut retired: Box<Retired> = spare::take(role as u8);
        let [sent, recvd] = std::mem::take(&mut retired.taps);
        let subflows = std::mem::take(&mut retired.subflows);
        let local_key = env.rng.range_u64(1, u64::MAX);
        let token = token_from_key(local_key);
        events.push(PmEvent::ConnCreated {
            token,
            tuple,
            initial_subflow: 0,
            is_client: role == Role::Client,
        });
        Connection {
            idx,
            token,
            role,
            state: ConnState::Establishing,
            stats: ConnStats {
                created_at: env.now,
                tap_sent: StreamTap::reusing(sent),
                tap_recvd: StreamTap::reusing(recvd),
                ..Default::default()
            },
            cfg: cfg.clone(),
            mode: if cfg.mptcp_enabled {
                Mode::Mptcp {
                    peer_dss_seen: false,
                }
            } else {
                Mode::Fallback
            },
            local_key,
            remote_key: None,
            remote_token: None,
            idsn_local: idsn_from_key(local_key),
            idsn_remote: 0,
            app: Some(app),
            app_closed: false,
            meta_send: smapp_tcp::SendBuffer::reusing(cfg.send_buf, send),
            meta_snd_nxt: 0,
            meta_una: 0,
            fin_sent_off: None,
            fin_acked: false,
            meta_fin_gen: 0,
            meta_fin_backoff: 0,
            meta_fin_timer: None,
            meta_recv: smapp_tcp::Reassembly::reusing(0, recv),
            peer_fin_off: None,
            eof_delivered: false,
            subflows,
            retired,
            scheduler: by_name(cfg.scheduler).expect("unknown scheduler in config"),
            reinject: ReinjectQueue(reinject),
            peer_window: 64 * 1024,
            remote_addrs: Vec::new(),
            initial_remote: (tuple.dst, tuple.dst_port),
        }
    }

    /// True when the connection fell back to plain TCP.
    pub fn is_fallback(&self) -> bool {
        self.mode == Mode::Fallback
    }

    /// The one way out of MPTCP mode. Forget the keys — no further joins,
    /// in either direction — and drop any queued connection-level
    /// reinjections: the peer reads the subflow as plain TCP, so reinjected
    /// bytes at fresh subflow offsets would be misread as new stream data.
    fn fall_back(&mut self, cause: FallbackCause) {
        self.mode = Mode::Fallback;
        self.remote_key = None;
        self.remote_token = None;
        self.stats.fallback_inferred = cause == FallbackCause::Inferred;
        self.reinject.0.clear();
    }

    /// Record an end-host oracle violation (capped; see
    /// [`ConnStats::integrity_violations`]).
    fn integrity_violation(&mut self, detail: String) {
        if self.stats.integrity_violations.len() < 16 {
            self.stats.integrity_violations.push(detail);
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The subflows currently alive (not closed), in id order.
    pub fn live_subflows(&self) -> impl Iterator<Item = &Subflow> {
        self.subflows.iter().filter(|s| s.state != SfState::Closed)
    }

    /// Subflow ids currently alive (not closed).
    pub fn live_subflow_ids(&self) -> Vec<SubflowId> {
        self.live_subflows().map(|s| s.id).collect()
    }

    /// Total subflows ever created on this connection (live and closed) —
    /// 1 for the lifetime of a fallback connection.
    pub fn subflow_count(&self) -> usize {
        self.subflows.len()
    }

    /// A subflow by id.
    pub fn subflow(&self, id: SubflowId) -> Option<&Subflow> {
        self.subflows.get(id as usize)
    }

    /// `TCP_INFO` of a subflow.
    pub fn subflow_info(&self, id: SubflowId) -> Option<TcpInfo> {
        self.subflows.get(id as usize).map(|s| s.info())
    }

    /// Connection-level info.
    pub fn info(&self) -> ConnInfo {
        ConnInfo {
            token: self.token,
            state: self.state,
            meta_una: self.meta_una,
            meta_snd_nxt: self.meta_snd_nxt,
            bytes_received: self.stats.bytes_received,
            peer_window: self.peer_window,
        }
    }

    /// First un-data-acked meta offset.
    pub fn meta_una(&self) -> u64 {
        self.meta_una
    }

    /// Bytes delivered to the app.
    pub fn bytes_delivered(&self) -> u64 {
        self.stats.bytes_received
    }

    /// Free send-buffer space.
    pub fn send_space(&self) -> u64 {
        self.meta_send.free()
    }

    /// The app attached to this connection (for post-run inspection).
    pub fn app(&self) -> Option<&dyn App> {
        self.app.as_deref()
    }

    /// Local token of the peer (known after the handshake).
    pub fn remote_token(&self) -> Option<ConnToken> {
        self.remote_token
    }

    // ------------------------------------------------------------------
    // Application interface (via AppCtx)
    // ------------------------------------------------------------------

    pub(crate) fn app_write(&mut self, data: Bytes) -> usize {
        if self.app_closed || self.state == ConnState::Closed {
            return 0;
        }
        let n = self.meta_send.write(data.clone());
        self.stats.tap_sent.update(&data[..n]);
        n
    }

    pub(crate) fn app_close(&mut self) {
        self.app_closed = true;
    }

    /// Run one application callback. The app is taken out for the call so
    /// the callback can reach the connection through its [`AppCtx`].
    fn with_app(
        &mut self,
        env: &mut StackEnv<'_>,
        f: impl FnOnce(&mut dyn App, &mut AppCtx<'_, '_>),
    ) {
        if let Some(mut app) = self.app.take() {
            f(app.as_mut(), &mut AppCtx { conn: self, env });
            self.app = Some(app);
        }
    }

    /// Dispatch an application timer.
    pub fn on_app_timer(&mut self, token: u64, env: &mut StackEnv<'_>) {
        self.with_app(env, |app, ctx| app.on_app_timer(ctx, token));
        self.pump(env);
    }

    // ------------------------------------------------------------------
    // Window bookkeeping
    // ------------------------------------------------------------------

    fn recv_free(&self) -> u64 {
        self.cfg
            .recv_buf
            .saturating_sub(self.meta_recv.buffered_bytes())
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let idx = self.idx;
        let sf = &mut self.subflows[id as usize];
        sf.rto_gen = sf.rto_gen.wrapping_add(1) & 0x0FFF_FFFF;
        sf.rto_armed = true;
        let t = timer_token(TimerKind::Rto, idx, id, sf.rto_gen);
        env.timers.push((sf.current_rto(), t));
    }

    /// Where the host keeps the simulator handle of a timer that each arm
    /// restarts: subflow `id`'s RTO or the DATA_FIN timer. Application
    /// timers have none — an app may keep any number outstanding.
    pub(crate) fn timer_handle_mut(
        &mut self,
        kind: TimerKind,
        id: SubflowId,
    ) -> Option<&mut Option<TimerHandle>> {
        match kind {
            TimerKind::Rto => self
                .subflows
                .get_mut(id as usize)
                .map(|sf| &mut sf.rto_timer),
            TimerKind::MetaFin => Some(&mut self.meta_fin_timer),
            TimerKind::App => None,
        }
    }

    /// Handle a retransmission-timer firing for subflow `id`.
    pub fn on_rto_timer(
        &mut self,
        id: SubflowId,
        gen: u64,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get(id as usize) else {
            return;
        };
        if !sf.rto_armed || sf.rto_gen != gen {
            return;
        }
        match sf.state {
            SfState::SynSent | SfState::SynReceived => self.handshake_rto(id, env, events),
            SfState::Established => self.established_rto(id, env, events),
            SfState::Closed => {}
        }
    }

    // ------------------------------------------------------------------
    // Data sequence plumbing
    // ------------------------------------------------------------------

    fn wire_dsn(&self, meta_off: u64) -> u64 {
        self.idsn_local.wrapping_add(1).wrapping_add(meta_off)
    }

    fn meta_off_from_wire_dsn(&self, dsn: u64) -> u64 {
        dsn.wrapping_sub(self.idsn_remote.wrapping_add(1))
    }

    /// A DATA_ACK acknowledges *our* stream, so it is decoded against our
    /// own IDSN (unlike DSNs, which live in the peer's space).
    fn meta_off_from_wire_data_ack(&self, dack: u64) -> u64 {
        dack.wrapping_sub(self.idsn_local.wrapping_add(1))
    }

    fn current_data_ack(&self) -> u64 {
        let mut off = self.meta_recv.next_expected();
        if self.eof_delivered {
            off += 1;
        }
        self.idsn_remote.wrapping_add(1).wrapping_add(off)
    }
}

/// What differs between the segments a connection sends. Ports, the ACK
/// number, the window, the SYN options and the DATA_ACK are
/// [`Connection::emit`]'s business.
#[derive(Default)]
struct Seg {
    flags: TcpFlags,
    /// Subflow stream offset the segment starts at; `None` is the next
    /// unsent one (a segment that occupies no sequence space). Unused with
    /// SYN set: a SYN sits at the ISS.
    off: Option<u64>,
    /// Ask for a DSS option with this mapping and DATA_FIN bit; the
    /// DATA_ACK is filled in on the way out.
    dss: Option<Dss>,
    /// MPTCP signalling besides the DSS: the handshake option, `MP_PRIO`,
    /// `ADD_ADDR` or `REMOVE_ADDR`.
    mp: Option<MpOption>,
    payload: Bytes,
}

/// Meta ranges awaiting reinjection on another subflow: disjoint and
/// coalesced `(start, end)` pairs in a ring sorted by start, so the lowest
/// is taken from the front. The ring comes from the thread's spares and
/// goes back with the connection's other buffers.
#[derive(Default)]
struct ReinjectQueue(VecDeque<(u64, u64)>);

impl ReinjectQueue {
    /// Queue the part of `r` at or above `una`, merging with neighbours.
    fn add(&mut self, r: MetaRange, una: u64) {
        let mut start = r.off.max(una);
        let mut end = r.end();
        if start >= end {
            return;
        }
        let q = &mut self.0;
        // The first range starting above `start`; the one before it is
        // merged when it overlaps or touches.
        let mut first = q.partition_point(|&(s, _)| s <= start);
        if first > 0 && q[first - 1].1 >= start {
            first -= 1;
            start = q[first].0;
        }
        // Every range from there that starts at or before `end` is covered.
        let mut last = first;
        while let Some(&(_, e)) = q.get(last).filter(|&&(s, _)| s <= end) {
            end = end.max(e);
            last += 1;
        }
        if first == last {
            q.insert(first, (start, end));
        } else {
            q[first] = (start, end);
            q.drain(first + 1..last);
        }
    }

    /// Forget everything below `una`.
    fn gc(&mut self, una: u64) {
        while let Some((_, e)) = self.0.front().copied().filter(|&(s, _)| s < una) {
            self.0.pop_front();
            if e > una {
                self.0.push_front((una, e));
            }
        }
    }

    /// Take the lowest chunk at or above `una`, at most `max_len` bytes.
    fn take_chunk(&mut self, max_len: u32, una: u64) -> Option<MetaRange> {
        loop {
            let (start, end) = self.0.pop_front()?;
            let start = start.max(una);
            if start >= end {
                continue;
            }
            let len = ((end - start) as u32).min(max_len);
            if start + (len as u64) < end {
                self.0.push_front((start + len as u64, end));
            }
            return Some(MetaRange { off: start, len });
        }
    }

    /// The emptied ring, for the thread's spares.
    fn take_storage(&mut self) -> VecDeque<(u64, u64)> {
        let mut ring = std::mem::take(&mut self.0);
        ring.clear();
        ring
    }
}

impl Connection {
    /// Put one segment on the wire from subflow `id`. Every segment the
    /// connection sends is built here and nowhere else, and only here is it
    /// decided whether MPTCP options may ride on it.
    fn emit(&self, id: SubflowId, what: Seg, env: &mut StackEnv<'_>) {
        let sf = &self.subflows[id as usize];
        let flags = what.flags;
        let mut opts = OptionWriter::new();
        if flags.syn {
            opts.push(OPT_KIND_MSS, &(self.cfg.mss as u16).to_be_bytes());
            opts.push(OPT_KIND_WINDOW_SCALE, &[self.cfg.window_scale]);
        }
        // In fallback the peer is plain TCP, or something on the path
        // removes what it does not know: no kind-30 option of any sort.
        if !self.is_fallback() {
            if let Some(dss) = what.dss {
                let dss = MpOption::Dss(Dss {
                    data_ack: Some(self.current_data_ack()),
                    ..dss
                });
                opts.push(OPT_KIND_MPTCP, &dss.encode());
            }
            if let Some(mp) = what.mp {
                opts.push(OPT_KIND_MPTCP, &mp.encode());
            }
        }
        let seq = if flags.syn {
            sf.iss
        } else {
            sf.wire_seq(what.off.unwrap_or(sf.snd_off()))
        };
        // SYN windows are never scaled (RFC 7323 §2.2); a RST offers none.
        let window = if flags.rst {
            0
        } else if flags.syn {
            self.recv_free()
        } else {
            self.recv_free() >> self.cfg.window_scale
        };
        let hdr = TcpFixed {
            src_port: sf.tuple.src_port,
            dst_port: sf.tuple.dst_port,
            seq: seq.into(),
            // A first SYN acknowledges nothing.
            ack: if flags.ack { sf.wire_ack() } else { 0 }.into(),
            flags,
            window: window.min(u16::MAX as u64) as u16,
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &hdr, &opts, what.payload);
    }
}

#[cfg(test)]
impl Connection {
    /// The connection-level send buffer, for tests of what it retains.
    pub(crate) fn send_buffer(&self) -> &smapp_tcp::SendBuffer {
        &self.meta_send
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use smapp_sim::SimRng;

    /// Run `check` on a client connection that has just sent its SYN, the
    /// env it sent it into and the events it raised.
    fn with_client(
        seed: u64,
        cfg: StackConfig,
        check: impl FnOnce(Connection, &StackEnv<'_>, &[PmEvent]),
    ) {
        let tuple = FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 40_000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let app = Box::new(NullApp);
        let conn = Connection::client(0, &cfg, tuple, app, &mut env, &mut events);
        check(conn, &env, &events);
    }

    #[test]
    fn client_emits_capable_syn() {
        with_client(1, StackConfig::default(), |conn, env, events| {
            assert_eq!(conn.state, ConnState::Establishing);
            assert_eq!(env.out.len(), 1);
            let seg = TcpView::parse(&env.out[0].seg).unwrap();
            assert!(seg.hdr.flags.syn && !seg.hdr.flags.ack);
            let mp = MpOption::decode(seg.mptcp_opts().next().unwrap()).unwrap();
            assert!(matches!(
                mp,
                MpOption::Capable {
                    receiver_key: None,
                    ..
                }
            ));
            assert!(matches!(
                events[0],
                PmEvent::ConnCreated {
                    is_client: true,
                    ..
                }
            ));
            // One RTO timer armed for the SYN.
            assert_eq!(env.timers.len(), 1);
        });
    }

    #[test]
    fn plain_tcp_client_emits_bare_syn() {
        let cfg = StackConfig {
            mptcp_enabled: false,
            ..Default::default()
        };
        with_client(1, cfg, |_conn, env, _events| {
            let seg = TcpView::parse(&env.out[0].seg).unwrap();
            assert!(seg.mptcp_opts().next().is_none());
        });
    }

    #[test]
    fn peer_window_scale_is_clamped_to_14() {
        let tuple = FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 40_000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
        };
        // A segment from the server: ports swapped, a 1000-unit window.
        let from_peer = |flags, seq: u32, ack: u32, opts: &OptionWriter| {
            let hdr = TcpFixed {
                src_port: tuple.dst_port,
                dst_port: tuple.src_port,
                seq: seq.into(),
                ack: ack.into(),
                flags,
                window: 1000,
            };
            smapp_tcp::encode_parts(&hdr, opts, Bytes::new()).unwrap()
        };
        for announced in [15u8, 200] {
            let mut rng = SimRng::seed_from_u64(5);
            let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
            let mut events = Vec::new();
            let cfg = StackConfig::default();
            let app = Box::new(NullApp);
            let mut conn = Connection::client(0, &cfg, tuple, app, &mut env, &mut events);
            let acked = conn.subflows[0].iss.wrapping_add(1);
            let mut syn_opts = OptionWriter::new();
            syn_opts.push(OPT_KIND_WINDOW_SCALE, &[announced]);
            let capable = MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: 0x1234,
                receiver_key: None,
            };
            syn_opts.push(OPT_KIND_MPTCP, &capable.encode());
            let syn_ack = from_peer(TcpFlags::SYN_ACK, 5_000, acked, &syn_opts);
            let view = TcpView::parse(&syn_ack).unwrap();
            conn.on_segment(0, &view, &syn_ack, &mut env, &mut events);
            assert_eq!(conn.state, ConnState::Established);
            let ack = from_peer(TcpFlags::ACK, 5_001, acked, &OptionWriter::new());
            let view = TcpView::parse(&ack).unwrap();
            conn.on_segment(0, &view, &ack, &mut env, &mut events);
            assert_eq!(conn.peer_window, 1000 << 14, "announced shift {announced}");
        }
    }

    #[test]
    fn reinject_ranges_coalesce() {
        with_client(2, StackConfig::default(), |mut conn, _env, _events| {
            let una = conn.meta_una;
            conn.reinject.add(MetaRange { off: 0, len: 100 }, una);
            conn.reinject.add(MetaRange { off: 100, len: 100 }, una);
            conn.reinject.add(MetaRange { off: 50, len: 20 }, una);
            assert_eq!(conn.reinject.0, [(0, 200)]);
            conn.reinject.add(MetaRange { off: 500, len: 10 }, una);
            assert_eq!(conn.reinject.0.len(), 2);
            // Chunks come out in offset order, clipped to max_len.
            let c1 = conn.reinject.take_chunk(150, una).unwrap();
            assert_eq!((c1.off, c1.len), (0, 150));
            let c2 = conn.reinject.take_chunk(150, una).unwrap();
            assert_eq!((c2.off, c2.len), (150, 50));
            let c3 = conn.reinject.take_chunk(150, una).unwrap();
            assert_eq!((c3.off, c3.len), (500, 10));
            assert!(conn.reinject.take_chunk(10, una).is_none());
        });
    }

    #[test]
    fn reinject_respects_meta_una() {
        with_client(3, StackConfig::default(), |mut conn, _env, _events| {
            conn.reinject.add(MetaRange { off: 0, len: 100 }, 80);
            let c = conn.reinject.take_chunk(1000, 80).unwrap();
            assert_eq!((c.off, c.len), (80, 20));
            // Acknowledged ranges are forgotten, straddling ones trimmed.
            conn.reinject.add(MetaRange { off: 0, len: 50 }, 0);
            conn.reinject.add(MetaRange { off: 90, len: 20 }, 0);
            conn.reinject.gc(100);
            assert_eq!(conn.reinject.0, [(100, 110)]);
        });
    }

    /// The reinjection queue as a sorted map, the way it was kept before
    /// it became a ring: the reference the ring is run against.
    #[derive(Default)]
    struct MapQueue(std::collections::BTreeMap<u64, u64>);

    impl MapQueue {
        fn add(&mut self, r: MetaRange, una: u64) {
            let mut start = r.off.max(una);
            let mut end = r.end();
            if start >= end {
                return;
            }
            if let Some((&ps, &pe)) = self.0.range(..=start).next_back() {
                if pe >= start {
                    start = ps;
                    end = end.max(pe);
                    self.0.remove(&ps);
                }
            }
            while let Some((&ns, &ne)) = self.0.range(start..).next() {
                if ns > end {
                    break;
                }
                end = end.max(ne);
                self.0.remove(&ns);
            }
            self.0.insert(start, end);
        }

        fn gc(&mut self, una: u64) {
            while let Some((&s, &e)) = self.0.first_key_value().filter(|(&s, _)| s < una) {
                self.0.remove(&s);
                if e > una {
                    self.0.insert(una, e);
                }
            }
        }

        fn take_chunk(&mut self, max_len: u32, una: u64) -> Option<MetaRange> {
            loop {
                let (&start, &end) = self.0.iter().next()?;
                self.0.remove(&start);
                let start = start.max(una);
                if start >= end {
                    continue;
                }
                let len = ((end - start) as u32).min(max_len);
                if start + (len as u64) < end {
                    self.0.insert(start + len as u64, end);
                }
                return Some(MetaRange { off: start, len });
            }
        }
    }

    proptest::proptest! {
        /// The ring and the map, run through the same random history of
        /// adds, collections and takes over a small offset space (so that
        /// ranges overlap, touch and swallow each other), hold the same
        /// ranges in the same order after every step and hand out the
        /// same chunks.
        #[test]
        fn reinjection_ring_matches_the_map(
            steps in proptest::collection::vec((0u8..4, 0u64..300, 0u32..80, 0u64..300), 1..150),
        ) {
            let (mut ring, mut map) = (ReinjectQueue::default(), MapQueue::default());
            for (kind, off, len, una) in steps {
                match kind {
                    0 | 1 => {
                        ring.add(MetaRange { off, len }, una / 4);
                        map.add(MetaRange { off, len }, una / 4);
                    }
                    2 => {
                        ring.gc(una);
                        map.gc(una);
                    }
                    _ => proptest::prop_assert_eq!(
                        ring.take_chunk(len + 1, una / 2),
                        map.take_chunk(len + 1, una / 2)
                    ),
                }
                let held: Vec<(u64, u64)> = map.0.iter().map(|(&s, &e)| (s, e)).collect();
                proptest::prop_assert_eq!(&ring.0, &held);
            }
        }
    }

    /// A subflow retransmits its own unacked bytes, whatever the data ACK
    /// says: after a partial subflow ACK, and after the connection let the
    /// bytes go because they were data-acked (through another subflow),
    /// the head it resends is the unacked tail of the original segment,
    /// still a slice of the sender's static block, with its mapping
    /// advanced past the acked prefix.
    #[test]
    fn retransmitted_head_is_a_slice_of_the_senders_block() {
        static BLOCK: [u8; 4096] = [0x3C; 4096];
        with_client(6, StackConfig::default(), |mut conn, _env, _events| {
            let mut rng = SimRng::seed_from_u64(6);
            let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
            conn.state = ConnState::Established;
            let tuple = conn.subflows[0].tuple;
            let other = FourTuple {
                src_port: tuple.src_port + 1,
                ..tuple
            };
            conn.start_subflow(other, false, None, &mut env);
            conn.subflows
                .iter_mut()
                .for_each(|sf| sf.state = SfState::Established);
            conn.meta_send.write(Bytes::from_static(&BLOCK));
            conn.send_data_on(0, MetaRange { off: 0, len: 1400 }, false, &mut env);
            conn.send_data_on(
                0,
                MetaRange {
                    off: 1400,
                    len: 1400,
                },
                false,
                &mut env,
            );
            assert_eq!(conn.subflows[0].unacked.len(), 2800);
            conn.meta_snd_nxt = 2800;
            conn.on_data_ack(2800, &mut env);
            assert_eq!(conn.meta_send.head_offset(), 2800);
            // Subflow 0's peer acknowledges half of the first segment.
            let sf = &conn.subflows[0];
            let ack = TcpFixed {
                src_port: tuple.dst_port,
                dst_port: tuple.src_port,
                seq: sf.irs.wrapping_add(1).into(),
                ack: sf.wire_seq(700).into(),
                flags: TcpFlags::ACK,
                window: 1000,
            };
            let ack = smapp_tcp::encode_parts(&ack, &OptionWriter::new(), Bytes::new()).unwrap();
            conn.process_subflow_ack(0, &TcpView::parse(&ack).unwrap(), &mut env);
            assert_eq!(conn.subflows[0].unacked.head_offset(), 700);
            env.out.clear();
            conn.retransmit_head(0, &mut env);
            let body = env.out[0].seg.body();
            assert_eq!((body.as_ptr(), body.len()), (BLOCK[700..].as_ptr(), 700));
            let seg = TcpView::parse(&env.out[0].seg).unwrap();
            let dss = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
                Ok(MpOption::Dss(dss)) => dss.mapping,
                _ => None,
            });
            assert_eq!(dss.map(|m| (m.dsn, m.len)), Some((conn.wire_dsn(700), 700)));
        });
    }

    #[test]
    fn dsn_conversions_roundtrip() {
        with_client(4, StackConfig::default(), |mut conn, _env, _events| {
            conn.idsn_remote = conn.idsn_local; // pretend symmetric for the test
            let off = 123_456u64;
            let wire = conn.wire_dsn(off);
            assert_eq!(conn.meta_off_from_wire_dsn(wire), off);
        });
    }
}
