//! The Multipath TCP connection (meta socket).
//!
//! A [`Connection`] owns the data-sequence space, the subflows, the packet
//! scheduler and the application. It implements:
//!
//! * the `MP_CAPABLE` and `MP_JOIN` handshakes (with real HMAC material),
//! * data transmission with DSS mappings, chosen per segment by the
//!   scheduler (lowest-RTT by default),
//! * connection-level acknowledgments (DATA_ACK) and **reinjection**: when
//!   a subflow times out or dies, its unacknowledged meta ranges become
//!   eligible for transmission on the other subflows — while the original
//!   subflow keeps retransmitting, which is exactly the §4.3 pathology the
//!   smart-streaming controller works around,
//! * DATA_FIN / subflow FIN teardown, RST and ICMP error handling,
//! * the path-manager event stream (`PmEvent`) the SMAPP architecture
//!   builds on.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use smapp_sim::{Addr, SimTime};
use smapp_tcp::{
    lia_alpha, Lia, Reno, RtoState, StreamTap, TcpFlags, TcpHeader, TcpInfo, TcpOption, TcpOptions,
    TcpSegment,
};

use crate::app::{App, AppCtx};
use crate::config::{CcAlgo, StackConfig};
use crate::env::StackEnv;
use crate::options::{Dss, DssMapping, MpOption, CAPABLE_FLAG_HMAC_SHA1, MPTCP_VERSION};
use crate::pm::{ConnToken, FourTuple, PmEvent, SubflowError, SubflowId};
use crate::scheduler::{by_name, SchedCandidate, Scheduler};
use crate::stack::{timer_token, TimerKind};
use crate::subflow::{MetaRange, RecvMap, SegTag, SfState, Subflow};
use crate::token::{idsn_from_key, join_hmac_a, join_hmac_b, token_from_key, Key};

/// Connection role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// This host sent the initial `MP_CAPABLE` SYN.
    Client,
    /// This host accepted it.
    Server,
}

/// Coarse connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Initial handshake in progress.
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
    /// Live subflow ids.
    pub subflows: Vec<SubflowId>,
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

    // --- meta receive state ---
    meta_recv: smapp_tcp::Reassembly,
    peer_fin_off: Option<u64>,
    eof_delivered: bool,

    // --- subflows & scheduling ---
    subflows: Vec<Subflow>,
    scheduler: Box<dyn Scheduler>,
    reinject: ReinjectQueue,
    peer_window: u64,
    /// Scratch for [`Connection::pump`]'s candidate list; capacity is
    /// retained across events so the pump loop does not allocate.
    sched_scratch: Vec<SchedCandidate>,
    /// Scratch for [`Connection::update_coupling`]'s per-subflow inputs.
    coupling_scratch: Vec<(u64, u64)>,

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
    /// A connection object with no subflow yet, announced to the path
    /// manager.
    fn common(
        idx: usize,
        cfg: &StackConfig,
        role: Role,
        tuple: FourTuple,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
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
            meta_send: smapp_tcp::SendBuffer::with_capacity(cfg.send_buf),
            meta_snd_nxt: 0,
            meta_una: 0,
            fin_sent_off: None,
            fin_acked: false,
            meta_fin_gen: 0,
            meta_fin_backoff: 0,
            meta_recv: smapp_tcp::Reassembly::new(),
            peer_fin_off: None,
            eof_delivered: false,
            subflows: Vec::new(),
            scheduler: by_name(cfg.scheduler).expect("unknown scheduler in config"),
            reinject: ReinjectQueue::default(),
            peer_window: 64 * 1024,
            sched_scratch: Vec::new(),
            coupling_scratch: Vec::new(),
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

    /// Subflow ids currently alive (not closed).
    pub fn live_subflow_ids(&self) -> Vec<SubflowId> {
        self.subflows
            .iter()
            .filter(|s| s.state != SfState::Closed)
            .map(|s| s.id)
            .collect()
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

    /// Every subflow ever created, closed ones included, by id.
    pub(crate) fn subflows(&self) -> &[Subflow] {
        &self.subflows
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
            subflows: self.live_subflow_ids(),
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

    pub(crate) fn app_write(&mut self, data: &[u8]) -> usize {
        if self.app_closed || self.state == ConnState::Closed {
            return 0;
        }
        let n = self.meta_send.write(data);
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

// ----------------------------------------------------------------------
// Handshakes: MP_CAPABLE (subflow 0) and MP_JOIN, both directions
// ----------------------------------------------------------------------

/// A fresh 32-bit draw (ISS, nonce).
fn draw32(env: &mut StackEnv<'_>) -> u32 {
    env.rng.range_u64(0, 1 << 32) as u32
}

/// The window-scale shift a SYN or SYN/ACK announces (0 when absent).
fn peer_wscale(syn: &TcpSegment) -> u8 {
    let scale = |o: &TcpOption| match o {
        TcpOption::WindowScale(s) => Some(*s),
        _ => None,
    };
    syn.hdr.options.iter().find_map(scale).unwrap_or(0)
}

impl Connection {
    /// Create the client side and emit the initial `MP_CAPABLE` SYN.
    pub fn client(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let mut conn = Connection::common(idx, cfg, Role::Client, tuple, app, env, events);
        conn.start_subflow(tuple, false, None, env);
        conn
    }

    /// Create the server side from a received `MP_CAPABLE` (or plain) SYN
    /// and emit the SYN/ACK.
    pub fn server_from_syn(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        syn: &TcpSegment,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let mut conn = Connection::common(idx, cfg, Role::Server, tuple, app, env, events);
        conn.learn_peer_key(syn);
        conn.start_subflow(tuple, false, Some((syn, 0)), env);
        conn
    }

    /// Open an additional subflow via `MP_JOIN`. Fails (returns `None`)
    /// when the connection is not established or the remote key is unknown.
    pub fn open_subflow(
        &mut self,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        backup: bool,
    ) -> Option<SubflowId> {
        if self.state != ConnState::Established || self.remote_token.is_none() {
            return None;
        }
        Some(self.start_subflow(tuple, backup, None, env))
    }

    /// Accept an `MP_JOIN` SYN for this connection; emits the SYN/ACK.
    /// Refused (`None`) in fallback: there are no keys to authenticate with.
    pub fn accept_join_syn(
        &mut self,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        syn: &TcpSegment,
    ) -> Option<SubflowId> {
        if self.is_fallback() {
            return None;
        }
        let (backup, nonce_remote) = syn.mptcp_opts().find_map(|o| match MpOption::decode(o) {
            Ok(MpOption::JoinSyn { backup, nonce, .. }) => Some((backup, nonce)),
            _ => None,
        })?;
        Some(self.start_subflow(tuple, backup, Some((syn, nonce_remote)), env))
    }

    /// Adopt the key on the peer's `MP_CAPABLE` SYN or SYN/ACK. Without one
    /// — or if this host does not speak MPTCP itself — the connection is
    /// plain TCP from here on.
    fn learn_peer_key(&mut self, seg: &TcpSegment) {
        let key = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
            Ok(MpOption::Capable {
                sender_key,
                receiver_key: None,
                ..
            }) => Some(sender_key),
            _ => None,
        });
        match key.filter(|_| !self.is_fallback()) {
            Some(key) => {
                self.remote_key = Some(key);
                self.remote_token = Some(token_from_key(key));
                self.idsn_remote = idsn_from_key(key);
            }
            None => self.fall_back(FallbackCause::Handshake),
        }
    }

    /// Add a subflow and start its handshake: answer `peer`'s SYN (with
    /// the nonce it carried) when there is one, else send ours. Either is
    /// guarded by the retransmission timer.
    fn start_subflow(
        &mut self,
        tuple: FourTuple,
        backup: bool,
        peer: Option<(&TcpSegment, u32)>,
        env: &mut StackEnv<'_>,
    ) -> SubflowId {
        let id = self.subflows.len() as SubflowId;
        let iss = draw32(env);
        // MP_JOIN exchanges nonces. So, for nothing, does the initiator of
        // subflow 0: per-seed trajectories depend on that draw by now.
        let nonce = if id == 0 && peer.is_some() {
            0
        } else {
            draw32(env)
        };
        let mut sf = Subflow::new(
            id,
            tuple,
            if peer.is_some() {
                SfState::SynReceived
            } else {
                SfState::SynSent
            },
            peer.is_none(),
            iss,
            nonce,
            backup,
            match self.cfg.cc {
                CcAlgo::Reno => Box::new(Reno::new(self.cfg.mss as u64)),
                CcAlgo::Lia => Box::new(Lia::new(self.cfg.mss as u64)),
            },
            RtoState::new(self.cfg.rto.clone()),
            self.cfg.syn_retries,
            env.now,
        );
        if let Some((syn, nonce_remote)) = peer {
            sf.irs = syn.hdr.seq.0;
            sf.nonce_remote = nonce_remote;
            sf.peer_wscale = peer_wscale(syn);
        }
        self.subflows.push(sf);
        self.send_handshake(id, env);
        self.arm_rto(id, env);
        id
    }

    /// Send the handshake segment subflow `id` owes in its current state —
    /// the SYN, the SYN/ACK or, once established, the third ACK — with the
    /// `MP_CAPABLE` (subflow 0) or `MP_JOIN` option that belongs on it.
    /// Retransmissions come through here too. Whether the option goes out
    /// is [`Connection::emit`]'s call: a connection that does not speak
    /// MPTCP, or gave it up, sends the bare segment.
    fn send_handshake(&self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &self.subflows[id as usize];
        let flags = match sf.state {
            SfState::SynSent => TcpFlags::SYN,
            SfState::SynReceived => TcpFlags::SYN_ACK,
            _ => TcpFlags::ACK,
        };
        let mp = if id == 0 {
            Some(MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: self.local_key,
                // SYN and SYN/ACK carry one key; the third ACK echoes the
                // peer's.
                receiver_key: self.remote_key.filter(|_| !flags.syn),
            })
        } else {
            let keys = self.remote_key.zip(self.remote_token);
            keys.map(|(remote_key, token)| match sf.state {
                SfState::SynSent => MpOption::JoinSyn {
                    backup: sf.backup,
                    addr_id: sf.id,
                    token,
                    nonce: sf.nonce_local,
                },
                // Responder HMAC: we are B on this subflow.
                SfState::SynReceived => MpOption::JoinSynAck {
                    backup: sf.backup,
                    addr_id: sf.id,
                    hmac: join_hmac_b(remote_key, self.local_key, sf.nonce_remote, sf.nonce_local),
                    nonce: sf.nonce_local,
                },
                _ => MpOption::JoinAck {
                    hmac: join_hmac_a(self.local_key, remote_key, sf.nonce_local, sf.nonce_remote),
                },
            })
        };
        let what = Seg {
            flags,
            mp,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    fn handshake_rto(&mut self, id: SubflowId, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        let sf = &mut self.subflows[id as usize];
        if sf.syn_retries_left == 0 {
            self.subflow_failed(id, SubflowError::Timeout, env, events);
            return;
        }
        sf.syn_retries_left -= 1;
        sf.rto.on_expiry();
        self.send_handshake(id, env);
        self.arm_rto(id, env);
    }

    fn on_segment_synsent(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        if !(seg.hdr.flags.syn && seg.hdr.flags.ack) {
            return;
        }
        // Validate the ACK covers our SYN.
        let sf = &self.subflows[id as usize];
        if seg.hdr.ack.0 != sf.iss.wrapping_add(1) {
            return;
        }
        if id == 0 {
            self.learn_peer_key(seg);
        } else {
            // MP_JOIN: verify the responder HMAC. No valid JOIN response
            // counts as a refusal.
            let nonce_local = sf.nonce_local;
            let join = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
                Ok(MpOption::JoinSynAck { hmac, nonce, .. }) => Some((hmac, nonce)),
                _ => None,
            });
            let authentic = join.filter(|&(hmac, nonce_b)| {
                let remote_key = self.remote_key.expect("join without keys");
                hmac == join_hmac_b(self.local_key, remote_key, nonce_local, nonce_b)
            });
            let Some((_, nonce_b)) = authentic else {
                self.kill_subflow(id, SubflowError::Refused, events);
                return;
            };
            self.subflows[id as usize].nonce_remote = nonce_b;
        }
        let sf = &mut self.subflows[id as usize];
        sf.irs = seg.hdr.seq.0;
        sf.peer_wscale = peer_wscale(seg);
        self.subflow_established(id, seg, env, events);
    }

    fn on_segment_synreceived(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &self.subflows[id as usize];
        // Duplicate SYN (our SYN/ACK was lost): resend it.
        if seg.hdr.flags.syn && !seg.hdr.flags.ack {
            self.send_handshake(id, env);
            return;
        }
        if !seg.hdr.flags.ack || seg.hdr.ack.0 != sf.iss.wrapping_add(1) {
            return;
        }
        // For joins, the third ACK must carry a valid HMAC-A.
        if id != 0 {
            let hmac_ok = seg.mptcp_opts().any(|o| {
                matches!(
                    MpOption::decode(o),
                    Ok(MpOption::JoinAck { hmac })
                        if hmac == join_hmac_a(
                            self.remote_key.expect("join without keys"),
                            self.local_key,
                            sf.nonce_remote,
                            sf.nonce_local,
                        )
                )
            });
            if !hmac_ok {
                // Not the authenticated third ACK; wait for it (the
                // SYN/ACK RTO will retransmit if it never comes).
                return;
            }
        }
        self.subflow_established(id, seg, env, events);
    }

    /// The handshake of subflow `id` completed with `seg`: the SYN/ACK on
    /// the side that initiated it, the third ACK on the other.
    fn subflow_established(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        sf.state = SfState::Established;
        sf.stats.established_at = Some(now);
        if let Some(d) = now.checked_since(sf.stats.created_at) {
            sf.rtt.on_sample(d);
        }
        sf.rto.on_ack_progress();
        sf.rto_armed = false;
        // A SYN/ACK's window is unscaled; the third ACK's is not.
        let shift = if seg.hdr.flags.syn { 0 } else { sf.peer_wscale };
        self.peer_window = (seg.hdr.window as u64) << shift;
        let (tuple, backup, initiated_here) = (sf.tuple, sf.backup, sf.initiated_here);
        if initiated_here {
            self.send_handshake(id, env);
        }
        if id == 0 {
            self.state = ConnState::Established;
            self.stats.established_at = Some(now);
            events.push(PmEvent::ConnEstablished {
                token: self.token,
                tuple,
                is_client: self.role == Role::Client,
            });
        }
        events.push(PmEvent::SubflowEstablished {
            token: self.token,
            id,
            tuple,
            backup,
            initiated_here,
        });
        if id == 0 {
            self.with_app(env, |app, ctx| app.on_established(ctx));
        }
        // The third ACK may carry data; process it in the established path.
        if !initiated_here && (!seg.payload.is_empty() || seg.hdr.flags.fin) {
            self.on_segment_established(id, seg, env, events);
        } else {
            self.pump(env);
        }
    }
}

// ----------------------------------------------------------------------
// Send side: the emitter, the transmission pump, retransmission and
// connection-level reinjection
// ----------------------------------------------------------------------

const PSH_ACK: TcpFlags = TcpFlags {
    psh: true,
    ..TcpFlags::ACK
};

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

/// Meta ranges awaiting reinjection on another subflow: disjoint, coalesced,
/// start -> end.
#[derive(Default)]
struct ReinjectQueue(BTreeMap<u64, u64>);

impl ReinjectQueue {
    /// Queue the part of `r` at or above `una`, merging with neighbours.
    fn add(&mut self, r: MetaRange, una: u64) {
        let mut start = r.off.max(una);
        let mut end = r.end();
        if start >= end {
            return;
        }
        // Predecessor overlapping or touching.
        if let Some((&ps, &pe)) = self.0.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.0.remove(&ps);
            }
        }
        // Successors covered.
        while let Some((&ns, &ne)) = self.0.range(start..).next() {
            if ns > end {
                break;
            }
            end = end.max(ne);
            self.0.remove(&ns);
        }
        self.0.insert(start, end);
    }

    /// Forget everything below `una`.
    fn gc(&mut self, una: u64) {
        while let Some((&s, &e)) = self.0.first_key_value().filter(|(&s, _)| s < una) {
            self.0.remove(&s);
            if e > una {
                self.0.insert(una, e);
            }
        }
    }

    /// Take the lowest chunk at or above `una`, at most `max_len` bytes.
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

impl Connection {
    /// Put one segment on the wire from subflow `id`. Every segment the
    /// connection sends is built here and nowhere else, and only here is it
    /// decided whether MPTCP options may ride on it.
    fn emit(&self, id: SubflowId, what: Seg, env: &mut StackEnv<'_>) {
        let sf = &self.subflows[id as usize];
        let flags = what.flags;
        let mut options = TcpOptions::new();
        if flags.syn {
            options.push(TcpOption::Mss(self.cfg.mss as u16));
            options.push(TcpOption::WindowScale(self.cfg.window_scale));
        }
        // In fallback the peer is plain TCP, or something on the path
        // removes what it does not know: no kind-30 option of any sort.
        if !self.is_fallback() {
            if let Some(dss) = what.dss {
                let dss = MpOption::Dss(Dss {
                    data_ack: Some(self.current_data_ack()),
                    ..dss
                });
                options.push(TcpOption::Mptcp(dss.encode()));
            }
            if let Some(mp) = what.mp {
                options.push(TcpOption::Mptcp(mp.encode()));
            }
        }
        let seq = if flags.syn {
            sf.iss
        } else {
            sf.wire_seq(what.off.unwrap_or(sf.snd_off))
        };
        // SYN windows are never scaled (RFC 7323 §2.2); a RST offers none.
        let window = if flags.rst {
            0
        } else if flags.syn {
            self.recv_free()
        } else {
            self.recv_free() >> self.cfg.window_scale
        };
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: seq.into(),
                // A first SYN acknowledges nothing.
                ack: if flags.ack { sf.wire_ack() } else { 0 }.into(),
                flags,
                window: window.min(u16::MAX as u64) as u16,
                options,
            },
            payload: what.payload,
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
    }

    /// Send a pure ACK (subflow + data ack) on `id`, optionally carrying
    /// one more MPTCP option (ADD_ADDR, MP_PRIO, ...).
    fn send_ack(&self, id: SubflowId, extra: Option<MpOption>, env: &mut StackEnv<'_>) {
        let what = Seg {
            flags: TcpFlags::ACK,
            dss: Some(Dss::default()),
            mp: extra,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Send the FIN of subflow `id`, which sits at stream offset `fin_off`.
    fn send_fin(&self, id: SubflowId, fin_off: u64, env: &mut StackEnv<'_>) {
        let what = Seg {
            flags: TcpFlags {
                fin: true,
                ..TcpFlags::ACK
            },
            off: Some(fin_off),
            dss: Some(Dss::default()),
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Signal the end of the meta stream (at `fin_off`) on its own, with a
    /// zero-length mapping.
    fn send_standalone_datafin(&self, id: SubflowId, fin_off: u64, env: &mut StackEnv<'_>) {
        let mapping = DssMapping {
            dsn: self.wire_dsn(fin_off),
            ssn: 0,
            len: 0,
        };
        let what = Seg {
            flags: TcpFlags::ACK,
            dss: Some(Dss {
                mapping: Some(mapping),
                data_fin: true,
                ..Default::default()
            }),
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    /// Transmit `range` of the meta stream on subflow `id`.
    fn send_data_on(
        &mut self,
        id: SubflowId,
        range: MetaRange,
        data_fin: bool,
        env: &mut StackEnv<'_>,
    ) {
        let payload = self.meta_send.slice(range.off, range.len);
        let sf = &mut self.subflows[id as usize];
        let ssn_off = sf.snd_off;
        let tag = SegTag {
            map: Some(range),
            payload: payload.clone(),
            data_fin,
        };
        sf.flight.on_send(ssn_off, range.len, env.now, tag);
        sf.snd_off += range.len as u64;
        let need_arm = !sf.rto_armed;
        let mapping = DssMapping {
            dsn: self.wire_dsn(range.off),
            ssn: (ssn_off as u32).wrapping_add(1),
            len: range.len as u16,
        };
        let what = Seg {
            flags: PSH_ACK,
            off: Some(ssn_off),
            dss: Some(Dss {
                mapping: Some(mapping),
                data_fin,
                ..Default::default()
            }),
            payload,
            ..Default::default()
        };
        self.emit(id, what, env);
        if need_arm {
            self.arm_rto(id, env);
        }
    }

    /// Retransmit the oldest outstanding segment (or the FIN) on `id`.
    fn retransmit_head(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &mut self.subflows[id as usize];
        sf.stats.retrans += 1;
        let Some((off, len)) = sf.flight.mark_head_retransmitted(env.now) else {
            if let Some(fin_off) = sf.fin_sent_off.filter(|_| !sf.fin_acked) {
                self.send_fin(id, fin_off, env);
            }
            return;
        };
        let tag = &sf.flight.oldest().expect("head exists").tag;
        // A partial ACK may have trimmed the head inside the original
        // segment (a middlebox that re-segments the stream makes
        // mid-segment cumulative ACKs routine): the tag still holds the
        // payload as originally sent, so skip the acked prefix and
        // advance the mapping to match. Replaying the full payload at
        // the trimmed offset would shift the byte stream and write past
        // its end.
        let skip = tag.payload.len() - len as usize;
        let (payload, map, data_fin) = (tag.payload.slice(skip..), tag.map, tag.data_fin);
        let mapping = map.map(|m| DssMapping {
            dsn: self.wire_dsn(m.off + skip as u64),
            ssn: (off as u32).wrapping_add(1),
            len: (m.len - skip as u32) as u16,
        });
        let what = Seg {
            flags: PSH_ACK,
            off: Some(off),
            dss: Some(Dss {
                mapping,
                data_fin,
                ..Default::default()
            }),
            payload,
            ..Default::default()
        };
        self.emit(id, what, env);
    }

    fn established_rto(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &mut self.subflows[id as usize];
        if !sf.has_retransmittable() {
            sf.rto_armed = false;
            return;
        }
        sf.rto.on_expiry();
        if sf.rto.exhausted() {
            self.subflow_failed(id, SubflowError::Timeout, env, events);
            return;
        }
        let flight_bytes = sf.flight.bytes_in_flight();
        sf.cc.on_retransmit_timeout(flight_bytes);
        sf.recovery = None;
        sf.dupacks = 0;
        self.reinject_flight(id);
        self.retransmit_head(id, env);
        let sf = &self.subflows[id as usize];
        events.push(PmEvent::RtoExpired {
            token: self.token,
            id,
            current_rto: sf.current_rto(),
            backoffs: sf.rto.backoffs(),
        });
        self.arm_rto(id, env);
        self.pump(env);
    }

    /// Connection-level reinjection: everything subflow `id` has in flight
    /// becomes eligible on the other subflows.
    fn reinject_flight(&mut self, id: SubflowId) {
        // Plain-TCP fallback must never reinject: there is one subflow and
        // no DSS mapping to re-anchor the bytes, so `send_data_on` would
        // append the payload at a fresh subflow offset and the receiver's
        // identity mapping would deliver it as duplicate stream bytes past
        // the end of the stream. Subflow-level retransmission
        // (`retransmit_head`) is the only recovery path here. (Found by
        // the scenario fuzzer: split-rewriter cases RTO under queue
        // pressure and tripped the stream-duplication oracle.)
        if self.is_fallback() {
            return;
        }
        let flight = &self.subflows[id as usize].flight;
        for r in flight.iter().filter_map(|s| s.tag.map) {
            self.reinject.add(r, self.meta_una);
        }
    }

    /// Candidates for the scheduler: established, able to carry data, with
    /// congestion window space; backups filtered per RFC 6824. Fills the
    /// caller's buffer so the per-segment pump loop reuses one allocation.
    fn fill_sched_candidates(&self, out: &mut Vec<SchedCandidate>) {
        out.clear();
        let any_regular_alive = self
            .subflows
            .iter()
            .any(|s| s.state == SfState::Established && !s.backup && s.can_carry_data());
        out.extend(
            self.subflows
                .iter()
                .filter(|s| s.can_carry_data() && s.cwnd_space() > 0)
                .filter(|s| !s.backup || !any_regular_alive)
                .map(|s| SchedCandidate {
                    id: s.id,
                    srtt: s.rtt.srtt(),
                    cwnd_space: s.cwnd_space(),
                    in_flight: s.flight.bytes_in_flight(),
                    backup: s.backup,
                }),
        );
    }

    /// Drive transmission: reinjections first, then new data, then the
    /// DATA_FIN. Runs until no scheduler candidate or nothing to send.
    fn pump(&mut self, env: &mut StackEnv<'_>) {
        if self.state != ConnState::Established {
            return;
        }
        let mss = self.cfg.mss as u32;
        let mut cands = std::mem::take(&mut self.sched_scratch);
        loop {
            self.fill_sched_candidates(&mut cands);
            if cands.is_empty() {
                break;
            }
            // 1. Reinjection has priority.
            if let Some(r) = self.reinject.take_chunk(mss, self.meta_una) {
                let Some(chosen) = self.scheduler.select(&cands) else {
                    // Put it back; nothing can carry it now.
                    self.reinject.add(r, self.meta_una);
                    break;
                };
                let space = self.subflows[chosen as usize].cwnd_space() as u32;
                let len = r.len.min(space.max(1));
                let sent = MetaRange { off: r.off, len };
                self.send_data_on(chosen, sent, false, env);
                self.stats.reinjections += 1;
                if len < r.len {
                    let rest = MetaRange {
                        off: r.off + len as u64,
                        len: r.len - len,
                    };
                    self.reinject.add(rest, self.meta_una);
                }
                continue;
            }
            // 2. New data, subject to the peer's receive window.
            let unsent = self.meta_send.tail_offset() - self.meta_snd_nxt;
            let window_budget = self
                .peer_window
                .saturating_sub(self.meta_snd_nxt - self.meta_una);
            let can_new = unsent.min(window_budget);
            if can_new > 0 {
                let Some(chosen) = self.scheduler.select(&cands) else {
                    break;
                };
                let space = self.subflows[chosen as usize].cwnd_space() as u32;
                let len = (can_new as u32).min(mss).min(space.max(1));
                let range = MetaRange {
                    off: self.meta_snd_nxt,
                    len,
                };
                // Piggyback the DATA_FIN on the final data segment
                // (MPTCP only; fallback closes with a plain FIN below).
                let is_last = !self.is_fallback()
                    && self.app_closed
                    && range.end() == self.meta_send.tail_offset()
                    && self.fin_sent_off.is_none();
                self.send_data_on(chosen, range, is_last, env);
                if is_last {
                    self.data_fin_sent(range.end(), env);
                }
                self.meta_snd_nxt += len as u64;
                self.stats.bytes_sent += len as u64;
                if self.scheduler.duplicates() {
                    for c in &cands {
                        if c.id != chosen {
                            self.send_data_on(c.id, range, false, env);
                            self.stats.reinjections += 1;
                        }
                    }
                }
                continue;
            }
            // 3. Finish sending: standalone DATA_FIN (MPTCP) or plain FIN
            // on the lone subflow (fallback).
            if self.app_closed
                && self.fin_sent_off.is_none()
                && self.meta_snd_nxt == self.meta_send.tail_offset()
            {
                let fin_off = self.meta_send.tail_offset();
                if self.is_fallback() {
                    self.fin_sent_off = Some(fin_off);
                    self.subflows[0].fin_wanted = true;
                    self.try_send_subflow_fin(0, env);
                } else {
                    let Some(chosen) = self.scheduler.select(&cands) else {
                        break;
                    };
                    self.send_standalone_datafin(chosen, fin_off, env);
                    self.data_fin_sent(fin_off, env);
                }
            }
            break;
        }
        self.sched_scratch = cands;
        self.update_coupling();
        self.maybe_close_subflows(env);
    }

    /// LIA coupling: recompute alpha across subflows and push it down.
    fn update_coupling(&mut self) {
        if self.cfg.cc != CcAlgo::Lia {
            return;
        }
        let mut inputs = std::mem::take(&mut self.coupling_scratch);
        inputs.clear();
        inputs.extend(
            self.subflows
                .iter()
                .filter(|s| s.state == SfState::Established)
                .map(|s| {
                    (
                        s.cc.cwnd(),
                        s.rtt.srtt().map_or(100_000, |d| d.as_micros() as u64),
                    )
                }),
        );
        if inputs.len() >= 2 {
            let alpha = lia_alpha(&inputs);
            let total: u64 = inputs.iter().map(|(c, _)| c).sum();
            for s in &mut self.subflows {
                if s.state == SfState::Established {
                    s.cc.set_coupling(alpha, total);
                }
            }
        }
        self.coupling_scratch = inputs;
    }

    fn best_live_subflow(&self) -> Option<SubflowId> {
        self.subflows
            .iter()
            .filter(|s| s.state == SfState::Established)
            .min_by_key(|s| (s.rtt.srtt().unwrap_or(Duration::MAX), s.id))
            .map(|s| s.id)
    }

    /// PM-requested backup-priority change; signals MP_PRIO to the peer.
    pub fn pm_set_backup(&mut self, id: SubflowId, backup: bool, env: &mut StackEnv<'_>) {
        if let Some(sf) = self.subflows.get_mut(id as usize) {
            if sf.state == SfState::Established {
                sf.backup = backup;
                let prio = MpOption::Prio {
                    backup,
                    addr_id: None,
                };
                self.send_ack(id, Some(prio), env);
            }
        }
    }

    /// PM-requested address announcement (ADD_ADDR to the peer).
    pub fn pm_announce_addr(&self, addr_id: u8, addr: Addr, env: &mut StackEnv<'_>) {
        if let Some(id) = self.best_live_subflow() {
            let add_addr = MpOption::AddAddr {
                addr_id,
                addr,
                port: None,
            };
            self.send_ack(id, Some(add_addr), env);
        }
    }

    /// PM-requested address withdrawal (REMOVE_ADDR to the peer).
    pub fn pm_withdraw_addr(&self, addr_id: u8, env: &mut StackEnv<'_>) {
        if let Some(id) = self.best_live_subflow() {
            let remove_addr = MpOption::RemoveAddr {
                addr_ids: vec![addr_id],
            };
            self.send_ack(id, Some(remove_addr), env);
        }
    }
}

// ----------------------------------------------------------------------
// Receive side: demultiplexed segments, ACK processing, DSS mappings,
// fallback inference, delivery to the application
// ----------------------------------------------------------------------

impl Connection {
    /// Process an incoming segment for subflow `id`.
    pub fn on_segment(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(state) = self.subflows.get(id as usize).map(|s| s.state) else {
            return;
        };
        if seg.hdr.flags.rst {
            let err = if state == SfState::SynSent {
                SubflowError::Refused
            } else {
                SubflowError::Reset
            };
            self.subflow_failed(id, err, env, events);
            return;
        }
        match state {
            SfState::SynSent => self.on_segment_synsent(id, seg, env, events),
            SfState::SynReceived => self.on_segment_synreceived(id, seg, env, events),
            SfState::Established => self.on_segment_established(id, seg, env, events),
            SfState::Closed => { /* stale segment for a dead subflow */ }
        }
    }

    fn on_segment_established(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        // Duplicate SYN/ACK: our handshake ACK was lost — resend it.
        if seg.hdr.flags.syn && seg.hdr.flags.ack {
            let sf = &self.subflows[id as usize];
            if seg.hdr.seq.0 == sf.irs {
                self.send_handshake(id, env);
            }
            return;
        }

        // ---- parse MPTCP options ----
        let mut dss: Option<Dss> = None;
        let mut prio_change: Option<(Option<u8>, bool)> = None;
        let mut fastclose = false;
        let mut any_mp_opt = false;
        for o in seg.mptcp_opts() {
            any_mp_opt = true;
            match MpOption::decode(o) {
                Ok(MpOption::Dss(d)) => dss = Some(d),
                Ok(MpOption::AddAddr {
                    addr_id,
                    addr,
                    port,
                }) if !self.remote_addrs.iter().any(|(i, _, _)| *i == addr_id) => {
                    let p = port.unwrap_or(self.subflows[id as usize].tuple.dst_port);
                    self.remote_addrs.push((addr_id, addr, p));
                    events.push(PmEvent::AddAddrReceived {
                        token: self.token,
                        addr_id,
                        addr,
                        port,
                    });
                }
                Ok(MpOption::RemoveAddr { addr_ids }) => {
                    for aid in addr_ids {
                        self.remote_addrs.retain(|(i, _, _)| *i != aid);
                        events.push(PmEvent::RemAddrReceived {
                            token: self.token,
                            addr_id: aid,
                        });
                    }
                }
                Ok(MpOption::Prio { backup, addr_id }) => prio_change = Some((addr_id, backup)),
                Ok(MpOption::FastClose { .. }) => fastclose = true,
                _ => {}
            }
        }
        if let (Some(_), Mode::Mptcp { peer_dss_seen }) = (&dss, &mut self.mode) {
            *peer_dss_seen = true;
        }
        if fastclose {
            self.abort(env, events);
            return;
        }
        if let Some((addr_id, backup)) = prio_change {
            let target = addr_id.unwrap_or(id);
            if let Some(sf) = self.subflows.get_mut(target as usize) {
                sf.backup = backup;
            }
        }

        // ---- fallback inference (RFC 6824 §3.7; `cfg.fallback_inference`
        // exists so the oracle's broken-build detection test can switch the
        // mechanism off and prove the invariant checker catches it). Only
        // ever on the sole, initial subflow. ----
        let may_infer = self.cfg.fallback_inference && id == 0 && self.subflows.len() == 1;
        // MPTCP was negotiated, yet the very first data-bearing segment on
        // the (sole) initial subflow carries no DSS option: a middlebox on
        // the path is stripping MPTCP options — possibly in one direction
        // only, so the handshake looked fine to us. The peer cannot signal
        // mappings; staying in MPTCP mode would discard its bytes as
        // unmapped forever. Fall back to plain TCP on this subflow and
        // refuse further joins, exactly as if the handshake had fallen
        // back.
        if may_infer
            && !self.is_fallback()
            && dss.is_none()
            && !seg.payload.is_empty()
            && self.meta_recv.next_expected() == 0
            && self.peer_fin_off.is_none()
        {
            self.fall_back(FallbackCause::Inferred);
        }

        // ---- subflow-level ACK processing ----
        let pre_ack_una = self.subflows[id as usize].una_off;
        if seg.hdr.flags.ack {
            self.process_subflow_ack(id, seg, env);
        }
        // Sender-side §3.7 inference, the mirror image of the receiver-side
        // check above: we sent DSS-mapped data, and the (sole) subflow's
        // cumulative ACK is advancing over it via segments carrying no
        // MPTCP options at all, from a peer that has never sent a DSS —
        // a middlebox is stripping our options, so the peer is reading the
        // subflow as plain TCP. Fall back before any connection-level
        // reinjection can place bytes at fresh subflow offsets the peer
        // would misread as new data (identity mapping past the stream end).
        if may_infer
            && matches!(
                self.mode,
                Mode::Mptcp {
                    peer_dss_seen: false
                }
            )
            && !any_mp_opt
            && seg.payload.is_empty()
            && self.subflows[id as usize].una_off > pre_ack_una
        {
            self.fall_back(FallbackCause::Inferred);
        }
        // Peer window (conn-level; any subflow updates it).
        {
            let sf = &self.subflows[id as usize];
            if sf.state == SfState::Closed {
                return; // killed during ack processing
            }
            self.peer_window = (seg.hdr.window as u64) << sf.peer_wscale;
        }

        // ---- DSS: data ack (fallback: the subflow ACK is the data ack) ----
        if self.is_fallback() {
            let sf0 = &self.subflows[0];
            let acked = sf0.una_off.min(sf0.snd_off);
            let fin_acked = sf0.fin_acked;
            self.on_data_ack(acked, env);
            if fin_acked {
                self.fin_acked = true;
            }
        } else if let Some(wire_ack) = dss.and_then(|d| d.data_ack) {
            let acked = self.meta_off_from_wire_data_ack(wire_ack);
            self.on_data_ack(acked, env);
        }

        // ---- payload ----
        let mut should_ack = false;
        if !seg.payload.is_empty() {
            should_ack = true;
            let sf = &mut self.subflows[id as usize];
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            // Record the DSS mapping for these bytes (fallback: identity;
            // `add_recv_map` ignores the empty mapping of a bare DATA_FIN).
            let len = seg.payload.len() as u32;
            let mapped = if self.is_fallback() {
                Some((off, len))
            } else {
                let m = dss.and_then(|d| d.mapping);
                m.map(|m| (self.meta_off_from_wire_dsn(m.dsn), len.min(m.len as u32)))
            };
            let sf = &mut self.subflows[id as usize];
            if let Some((meta, len)) = mapped {
                sf.add_recv_map(RecvMap {
                    ssn: off,
                    meta,
                    len,
                });
            }
            sf.reasm.insert(off, seg.payload.clone());
            // Pop in-order subflow bytes and lift them to the meta level;
            // each popped chunk carries the subflow offset of its first
            // byte.
            while let Some((ssn, chunk)) = self.subflows[id as usize].reasm.pop_next() {
                let mut inner_off = 0usize;
                while inner_off < chunk.len() {
                    let at = ssn + inner_off as u64;
                    let sf = &self.subflows[id as usize];
                    match sf.meta_offset_of(at) {
                        Some((meta, mapped)) => {
                            let take = (mapped as usize).min(chunk.len() - inner_off);
                            let piece = chunk.slice(inner_off..inner_off + take);
                            self.meta_recv.insert(meta, piece);
                            inner_off += take;
                        }
                        None => {
                            // Unmapped bytes: protocol violation; drop the
                            // rest of the chunk (and let the oracle see it).
                            let dropped = (chunk.len() - inner_off) as u64;
                            self.stats.unmapped_rx_bytes += dropped;
                            self.integrity_violation(format!(
                                "{dropped} in-order subflow bytes at ssn {at} carry no \
                                 DSS mapping (discarded)"
                            ));
                            inner_off = chunk.len();
                        }
                    }
                }
            }
            let sf = &mut self.subflows[id as usize];
            sf.gc_recv_maps();
            // Window-bound tap: everything buffered above the meta socket
            // must fit the advertised receive buffer — the sender can only
            // have sent into windows we opened.
            let buffered = self.meta_recv.buffered_bytes();
            if buffered > self.cfg.recv_buf {
                let cap = self.cfg.recv_buf;
                self.integrity_violation(format!(
                    "receive reassembly holds {buffered} bytes > receive buffer {cap}"
                ));
            }
        }

        // ---- DATA_FIN ----
        if let Some(d) = &dss {
            if d.data_fin {
                let fin_meta = match d.mapping {
                    Some(m) if m.len > 0 => self.meta_off_from_wire_dsn(m.dsn) + m.len as u64,
                    Some(m) => self.meta_off_from_wire_dsn(m.dsn),
                    None => self.meta_recv.next_expected(),
                };
                if self.peer_fin_off.is_none() {
                    self.peer_fin_off = Some(fin_meta);
                }
                should_ack = true;
            }
        }

        // ---- deliver meta data to the app ----
        self.deliver_meta(env);

        // ---- subflow FIN ----
        let sf = &mut self.subflows[id as usize];
        if seg.hdr.flags.fin {
            should_ack = true;
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            sf.peer_fin_off = Some(off + seg.payload.len() as u64);
        }
        if let Some(f) = sf.peer_fin_off {
            if sf.reasm.next_expected() >= f {
                sf.peer_fin_consumed = true;
            }
        }
        // Fallback: the subflow FIN is the end of the stream.
        if self.is_fallback() && self.peer_fin_off.is_none() && self.subflows[0].peer_fin_consumed {
            self.peer_fin_off = Some(self.meta_recv.next_expected());
            self.deliver_meta(env);
        }

        // ---- acknowledge ----
        if should_ack {
            self.send_ack(id, None, env);
        }

        // ---- progress: close bookkeeping, new transmissions ----
        self.finish_subflow_close(id, env, events);
        self.pump(env);
        self.maybe_conn_closed(env, events);
    }

    /// Cumulative/duplicate ACK handling for one subflow.
    fn process_subflow_ack(&mut self, id: SubflowId, seg: &TcpSegment, env: &mut StackEnv<'_>) {
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        let acked_off = sf.offset_from_wire_ack(seg.hdr.ack.0);
        let fin_limit = sf.fin_sent_off.map(|f| f + 1);
        let max_valid = fin_limit.unwrap_or(sf.snd_off).max(sf.snd_off);
        if acked_off > max_valid {
            return; // nonsense ACK
        }
        if acked_off > sf.una_off {
            let data_limit = acked_off.min(sf.snd_off);
            let res = sf.flight.on_cum_ack(data_limit, now);
            if let Some(s) = res.rtt_sample {
                sf.rtt.on_sample(s);
                // HyStart-style delay-based slow-start exit: once the RTT
                // has inflated well past the minimum, the pipe is full and
                // further doubling only builds queues (Linux does the same
                // through CUBIC's HyStart).
                if sf.cc.in_slow_start() {
                    if let Some(min) = sf.rtt.min_rtt() {
                        let thresh = min + (min / 4).max(Duration::from_millis(4));
                        if s > thresh {
                            sf.cc.hystart_exit();
                        }
                    }
                }
            }
            if res.acked_bytes > 0 {
                sf.cc.on_ack(res.acked_bytes);
                sf.stats.bytes_acked += res.acked_bytes;
            }
            sf.rto.on_ack_progress();
            sf.una_off = acked_off;
            sf.dupacks = 0;
            let mut retransmit_hole = false;
            if let Some(rec) = sf.recovery {
                if sf.una_off >= rec {
                    sf.cc.on_exit_recovery();
                    sf.recovery = None;
                } else {
                    // RFC 6582 NewReno partial ACK: the next hole starts at
                    // the new una — retransmit it immediately instead of
                    // waiting for the RTO.
                    retransmit_hole = !sf.flight.is_empty();
                }
            }
            if let Some(f) = sf.fin_sent_off {
                if acked_off > f {
                    sf.fin_acked = true;
                }
            }
            // Restart or stop the retransmission timer.
            if sf.has_retransmittable() {
                self.arm_rto(id, env);
            } else {
                sf.rto_armed = false;
            }
            if retransmit_hole {
                self.retransmit_head(id, env);
            }
        } else if acked_off == sf.una_off
            && seg.payload.is_empty()
            && !seg.hdr.flags.syn
            && !seg.hdr.flags.fin
            && !sf.flight.is_empty()
        {
            sf.dupacks += 1;
            if sf.dupacks == 3 && sf.recovery.is_none() {
                let flight = sf.flight.bytes_in_flight();
                sf.cc.on_enter_recovery(flight);
                sf.recovery = Some(sf.snd_off);
                self.retransmit_head(id, env);
            }
        }
    }

    /// Meta-level cumulative data ACK.
    fn on_data_ack(&mut self, acked_off: u64, env: &mut StackEnv<'_>) {
        let fin_plus = self.fin_sent_off.map(|f| f + 1);
        let limit = fin_plus.unwrap_or(self.meta_snd_nxt).max(self.meta_snd_nxt);
        let acked = acked_off.min(limit);
        if acked <= self.meta_una {
            return;
        }
        if let Some(f) = self.fin_sent_off {
            if acked > f {
                self.fin_acked = true;
            }
        }
        let release_to = acked.min(self.meta_send.tail_offset());
        let had_free = self.meta_send.free();
        self.meta_send.release_until(release_to);
        self.meta_una = acked.min(self.fin_sent_off.unwrap_or(acked));
        self.reinject.gc(self.meta_una);
        // Send-side sequence-space bounds: una never passes snd_nxt, and
        // snd_nxt never passes the bytes the application actually wrote.
        if self.meta_una > self.meta_snd_nxt || self.meta_snd_nxt > self.meta_send.tail_offset() {
            let (una, nxt, tail) = (
                self.meta_una,
                self.meta_snd_nxt,
                self.meta_send.tail_offset(),
            );
            self.integrity_violation(format!(
                "meta sequence bounds broken: una={una} snd_nxt={nxt} tail={tail}"
            ));
        }
        if self.meta_send.free() > had_free && !self.app_closed {
            self.with_app(env, |app, ctx| app.on_send_space(ctx));
        }
    }

    /// Insert-order delivery to the application.
    fn deliver_meta(&mut self, env: &mut StackEnv<'_>) {
        while let Some((_, c)) = self.meta_recv.pop_next() {
            self.stats.bytes_received += c.len() as u64;
            self.stats.tap_recvd.update(&c);
            self.with_app(env, |app, ctx| app.on_data(ctx, c));
        }
        if let Some(f) = self.peer_fin_off {
            if !self.eof_delivered && self.meta_recv.next_expected() >= f {
                self.eof_delivered = true;
                self.with_app(env, |app, ctx| app.on_eof(ctx));
            }
        }
    }
}

// ----------------------------------------------------------------------
// Close side: DATA_FIN, subflow FIN exchanges, subflow death, abort
// ----------------------------------------------------------------------

impl Connection {
    /// A DATA_FIN for meta offset `fin_off` just went out: remember it and
    /// start its retransmission timer.
    fn data_fin_sent(&mut self, fin_off: u64, env: &mut StackEnv<'_>) {
        self.fin_sent_off = Some(fin_off);
        self.meta_fin_backoff = 0;
        self.arm_meta_fin_timer(env);
    }

    fn arm_meta_fin_timer(&mut self, env: &mut StackEnv<'_>) {
        self.meta_fin_gen = self.meta_fin_gen.wrapping_add(1) & 0x0FFF_FFFF;
        let backoff = Duration::from_secs(1 << self.meta_fin_backoff.min(5));
        let t = timer_token(TimerKind::MetaFin, self.idx, 0, self.meta_fin_gen);
        env.timers.push((backoff, t));
    }

    /// Meta-level DATA_FIN retransmission timer.
    pub fn on_meta_fin_timer(
        &mut self,
        gen: u64,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        if gen != self.meta_fin_gen || self.fin_acked || self.state == ConnState::Closed {
            return;
        }
        let Some(fin_off) = self.fin_sent_off else {
            return;
        };
        self.meta_fin_backoff += 1;
        if self.meta_fin_backoff > 10 {
            // Peer is unreachable at the data level; abort.
            self.abort(env, events);
            return;
        }
        // Re-send a standalone DATA_FIN on every live subflow: one of them
        // may be a zombie (the peer's side died behind a NAT and its RST
        // never reached us), and the data level deduplicates the signal.
        for sf in &self.subflows {
            if sf.state == SfState::Established {
                self.send_standalone_datafin(sf.id, fin_off, env);
            }
        }
        self.arm_meta_fin_timer(env);
    }

    /// When the meta close handshake is done in both directions, wind down
    /// the subflows with FIN exchanges.
    fn maybe_close_subflows(&mut self, env: &mut StackEnv<'_>) {
        if !(self.fin_acked && self.eof_delivered) {
            return;
        }
        for id in 0..self.subflows.len() {
            let sf = &mut self.subflows[id];
            if sf.state == SfState::Established && sf.fin_sent_off.is_none() {
                sf.fin_wanted = true;
                self.try_send_subflow_fin(id as SubflowId, env);
            }
        }
    }

    fn try_send_subflow_fin(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &mut self.subflows[id as usize];
        if sf.state != SfState::Established || sf.fin_sent_off.is_some() || !sf.flight.is_empty() {
            return;
        }
        let fin_off = sf.snd_off;
        sf.fin_sent_off = Some(fin_off);
        self.send_fin(id, fin_off, env);
        self.arm_rto(id, env);
    }

    /// After ACK processing, progress subflow FIN state machines.
    fn finish_subflow_close(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        // Peer closed toward us and we're done too? Reciprocate the FIN.
        let meta_done = self.fin_acked && self.eof_delivered;
        let sf = &mut self.subflows[id as usize];
        if meta_done
            && sf.state == SfState::Established
            && sf.peer_fin_consumed
            && sf.fin_sent_off.is_none()
        {
            sf.fin_wanted = true;
        }
        // FIN wanted and flight drained? send it.
        if sf.fin_wanted {
            self.try_send_subflow_fin(id, env);
        }
        // Both directions done? Subflow is closed.
        let sf = &self.subflows[id as usize];
        if sf.state == SfState::Established && sf.close_complete() {
            self.kill_subflow(id, SubflowError::None, events);
        }
    }

    /// Did every subflow close after a completed meta close? Then the
    /// connection is done.
    fn maybe_conn_closed(&mut self, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state != ConnState::Established {
            return;
        }
        let meta_done = self.fin_acked && self.eof_delivered;
        let all_closed = self.subflows.iter().all(|s| s.state == SfState::Closed);
        if meta_done && all_closed {
            self.closed(env.now, events);
        }
    }

    /// Hard-abort the connection (handshake failure, FASTCLOSE, meta
    /// timeout): every subflow dies, the app learns immediately.
    fn abort(&mut self, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state == ConnState::Closed {
            return;
        }
        for id in self.live_subflow_ids() {
            self.kill_subflow(id, SubflowError::Timeout, events);
        }
        self.closed(env.now, events);
    }

    /// The connection is over: tell the path manager and the application.
    fn closed(&mut self, now: SimTime, events: &mut Vec<PmEvent>) {
        self.state = ConnState::Closed;
        self.stats.closed_at = Some(now);
        events.push(PmEvent::ConnClosed { token: self.token });
        if let Some(app) = self.app.as_mut() {
            app.on_closed(now);
        }
    }

    /// Close one subflow for the given reason (`SubflowError::None` after a
    /// complete FIN exchange); unacked meta data it carried becomes
    /// eligible for reinjection elsewhere.
    pub fn kill_subflow(&mut self, id: SubflowId, error: SubflowError, events: &mut Vec<PmEvent>) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        sf.state = SfState::Closed;
        sf.rto_armed = false;
        let tuple = sf.tuple;
        self.stats.sf_close_reasons |= error.coverage_bit();
        self.reinject_flight(id);
        self.subflows[id as usize].flight.clear();
        events.push(PmEvent::SubflowClosed {
            token: self.token,
            id,
            tuple,
            error,
        });
    }

    /// Subflow `id` died under us (RST, handshake or data timeout, ICMP
    /// error). If it was carrying the connection's own handshake the
    /// connection dies with it; otherwise the other subflows take over.
    fn subflow_failed(
        &mut self,
        id: SubflowId,
        error: SubflowError,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        self.kill_subflow(id, error, events);
        if id == 0 && self.state == ConnState::Establishing {
            self.abort(env, events);
        } else {
            self.pump(env);
        }
    }

    /// PM-requested graceful or hard close of a subflow.
    pub fn pm_close_subflow(
        &mut self,
        id: SubflowId,
        reset: bool,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        if reset || sf.state != SfState::Established {
            // Send an RST so the peer tears down too.
            let rst = Seg {
                flags: TcpFlags::RST,
                ..Default::default()
            };
            self.emit(id, rst, env);
            self.kill_subflow(id, SubflowError::PmRequested, events);
            self.pump(env);
        } else {
            // Graceful: stop scheduling data on it, FIN when drained.
            sf.fin_wanted = true;
            self.try_send_subflow_fin(id, env);
        }
    }

    /// ICMP unreachable observed for subflow `id`.
    pub fn on_icmp_unreachable(
        &mut self,
        id: SubflowId,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        match sf.state {
            SfState::SynSent | SfState::SynReceived => {
                self.subflow_failed(id, SubflowError::NetUnreachable, env, events)
            }
            _ => sf.soft_errors += 1,
        }
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
        let conn = Connection::client(0, &cfg, tuple, Box::new(NullApp), &mut env, &mut events);
        check(conn, &env, &events);
    }

    #[test]
    fn client_emits_capable_syn() {
        with_client(1, StackConfig::default(), |conn, env, events| {
            assert_eq!(conn.state, ConnState::Establishing);
            assert_eq!(env.out.len(), 1);
            let seg = TcpSegment::decode(&env.out[0].seg).unwrap();
            assert!(seg.hdr.flags.syn && !seg.hdr.flags.ack);
            let mp = MpOption::decode(seg.mptcp_opt().unwrap()).unwrap();
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
            let seg = TcpSegment::decode(&env.out[0].seg).unwrap();
            assert!(seg.mptcp_opt().is_none());
        });
    }

    #[test]
    fn reinject_ranges_coalesce() {
        with_client(2, StackConfig::default(), |mut conn, _env, _events| {
            let una = conn.meta_una;
            conn.reinject.add(MetaRange { off: 0, len: 100 }, una);
            conn.reinject.add(MetaRange { off: 100, len: 100 }, una);
            conn.reinject.add(MetaRange { off: 50, len: 20 }, una);
            assert_eq!(conn.reinject.0, BTreeMap::from([(0, 200)]));
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
            assert_eq!(
                conn.reinject.0.into_iter().collect::<Vec<_>>(),
                [(100, 110)]
            );
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
