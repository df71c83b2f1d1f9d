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
    lia_alpha, CongestionControl, Lia, Reno, RtoState, StreamTap, TcpFlags, TcpHeader, TcpInfo,
    TcpOption, TcpOptions, TcpSegment,
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
    recv_buf: u64,

    // --- subflows & scheduling ---
    subflows: Vec<Subflow>,
    scheduler: Box<dyn Scheduler>,
    /// Pending reinjection ranges: start -> end (meta offsets).
    reinject: BTreeMap<u64, u64>,
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
    next_local_addr_id: u8,

    coupled_cc: bool,
    cfg_mss: usize,
    wscale: u8,
    /// Plain-TCP fallback: the peer did not negotiate MPTCP. Single
    /// subflow, no DSS options, identity mapping between subflow and meta
    /// stream, close via the subflow FIN.
    fallback: bool,
    /// True once any DSS option has been received from the peer. Gates the
    /// sender-side §3.7 fallback inference: a plain ACK proves stripping
    /// only while the peer has never spoken DSS.
    peer_dss_seen: bool,
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

/// Internal helper bundling what segment emission needs.
struct SegBuild {
    tuple: FourTuple,
    seg: TcpSegment,
}

impl Connection {
    // ------------------------------------------------------------------
    // Construction & handshakes
    // ------------------------------------------------------------------

    /// Create the client side and emit the initial `MP_CAPABLE` SYN.
    #[allow(clippy::too_many_arguments)]
    pub fn client(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let local_key = env.rng.range_u64(1, u64::MAX);
        let iss = env.rng.range_u64(0, 1 << 32) as u32;
        let nonce = env.rng.range_u64(0, 1 << 32) as u32;
        let mut conn = Connection::common(idx, cfg, Role::Client, local_key, app, env.now);
        conn.initial_remote = (tuple.dst, tuple.dst_port);
        let mut sf = conn.new_subflow_obj(
            cfg,
            tuple,
            SfState::SynSent,
            true,
            iss,
            nonce,
            false,
            env.now,
        );
        sf.id = 0;
        conn.subflows.push(sf);
        events.push(PmEvent::ConnCreated {
            token: conn.token,
            tuple,
            initial_subflow: 0,
            is_client: true,
        });
        conn.send_syn(0, cfg, env);
        conn.arm_rto(0, env);
        conn
    }

    /// Create the server side from a received `MP_CAPABLE` (or plain) SYN
    /// and emit the SYN/ACK.
    #[allow(clippy::too_many_arguments)]
    pub fn server_from_syn(
        idx: usize,
        cfg: &StackConfig,
        tuple: FourTuple,
        syn: &TcpSegment,
        app: Box<dyn App>,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) -> Connection {
        let local_key = env.rng.range_u64(1, u64::MAX);
        let iss = env.rng.range_u64(0, 1 << 32) as u32;
        let mut conn = Connection::common(idx, cfg, Role::Server, local_key, app, env.now);
        // Parse the client's key (if we speak MPTCP at all).
        if cfg.mptcp_enabled {
            for opt in syn.mptcp_opts() {
                if let Ok(MpOption::Capable {
                    sender_key,
                    receiver_key: None,
                    ..
                }) = MpOption::decode(opt)
                {
                    conn.set_remote_key(sender_key);
                }
            }
        }
        if conn.remote_key.is_none() {
            conn.fallback = true;
        }
        conn.initial_remote = (tuple.dst, tuple.dst_port);
        let mut sf = conn.new_subflow_obj(
            cfg,
            tuple,
            SfState::SynReceived,
            false,
            iss,
            0,
            false,
            env.now,
        );
        sf.id = 0;
        sf.irs = syn.hdr.seq.0;
        sf.peer_wscale = syn
            .hdr
            .options
            .iter()
            .find_map(|o| match o {
                TcpOption::WindowScale(s) => Some(*s),
                _ => None,
            })
            .unwrap_or(0);
        sf.peer_window = syn.hdr.window as u64; // SYN windows are unscaled
        conn.subflows.push(sf);
        events.push(PmEvent::ConnCreated {
            token: conn.token,
            tuple,
            initial_subflow: 0,
            is_client: false,
        });
        conn.send_synack(0, cfg, env);
        conn.arm_rto(0, env);
        conn
    }

    fn common(
        idx: usize,
        cfg: &StackConfig,
        role: Role,
        local_key: Key,
        app: Box<dyn App>,
        now: SimTime,
    ) -> Connection {
        Connection {
            idx,
            token: token_from_key(local_key),
            role,
            state: ConnState::Establishing,
            stats: ConnStats {
                created_at: now,
                ..Default::default()
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
            recv_buf: cfg.recv_buf,
            subflows: Vec::new(),
            scheduler: by_name(cfg.scheduler).expect("unknown scheduler in config"),
            reinject: BTreeMap::new(),
            peer_window: 64 * 1024,
            sched_scratch: Vec::new(),
            coupling_scratch: Vec::new(),
            remote_addrs: Vec::new(),
            initial_remote: (Addr::UNSPECIFIED, 0),
            next_local_addr_id: 1,
            coupled_cc: cfg.cc == CcAlgo::Lia,
            cfg_mss: cfg.mss,
            wscale: cfg.window_scale,
            fallback: !cfg.mptcp_enabled,
            peer_dss_seen: false,
        }
    }

    /// True when the connection fell back to plain TCP.
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Enter inferred plain-TCP fallback (RFC 6824 §3.7): a middlebox is
    /// stripping MPTCP options mid-connection. Refuse further joins and
    /// drop any queued connection-level reinjections — the peer reads the
    /// subflow as plain TCP, so reinjected bytes at fresh subflow offsets
    /// would be misread as new stream data.
    fn infer_fallback(&mut self) {
        self.fallback = true;
        self.remote_key = None;
        self.remote_token = None;
        self.stats.fallback_inferred = true;
        self.reinject.clear();
    }

    /// Record an end-host oracle violation (capped; see
    /// [`ConnStats::integrity_violations`]).
    fn integrity_violation(&mut self, detail: String) {
        if self.stats.integrity_violations.len() < 16 {
            self.stats.integrity_violations.push(detail);
        }
    }

    fn set_remote_key(&mut self, key: Key) {
        self.remote_key = Some(key);
        self.remote_token = Some(token_from_key(key));
        self.idsn_remote = idsn_from_key(key);
    }

    fn new_cc(&self, cfg: &StackConfig) -> Box<dyn CongestionControl> {
        match cfg.cc {
            CcAlgo::Reno => Box::new(Reno::new(cfg.mss as u64)),
            CcAlgo::Lia => Box::new(Lia::new(cfg.mss as u64)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn new_subflow_obj(
        &self,
        cfg: &StackConfig,
        tuple: FourTuple,
        state: SfState,
        initiated_here: bool,
        iss: u32,
        nonce: u32,
        backup: bool,
        now: SimTime,
    ) -> Subflow {
        Subflow::new(
            self.subflows.len() as SubflowId,
            tuple,
            state,
            initiated_here,
            iss,
            nonce,
            backup,
            self.new_cc(cfg),
            RtoState::new(cfg.rto.clone()),
            cfg.syn_retries,
            now,
        )
    }

    /// Open an additional subflow via `MP_JOIN`. Fails (returns `None`)
    /// when the connection is not established or the remote key is unknown.
    #[allow(clippy::too_many_arguments)]
    pub fn open_subflow(
        &mut self,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        backup: bool,
    ) -> Option<SubflowId> {
        if self.state != ConnState::Established || self.remote_token.is_none() {
            return None;
        }
        let iss = env.rng.range_u64(0, 1 << 32) as u32;
        let nonce = env.rng.range_u64(0, 1 << 32) as u32;
        let sf = self.new_subflow_obj(
            cfg,
            tuple,
            SfState::SynSent,
            true,
            iss,
            nonce,
            backup,
            env.now,
        );
        let id = sf.id;
        self.subflows.push(sf);
        self.send_syn(id, cfg, env);
        self.arm_rto(id, env);
        Some(id)
    }

    /// Accept an `MP_JOIN` SYN for this connection; emits the SYN/ACK.
    /// Refused (`None`) in fallback: there are no keys to authenticate with.
    pub fn accept_join_syn(
        &mut self,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        tuple: FourTuple,
        syn: &TcpSegment,
    ) -> Option<SubflowId> {
        if self.fallback {
            return None;
        }
        let (backup, nonce_remote) = syn.mptcp_opts().find_map(|o| match MpOption::decode(o) {
            Ok(MpOption::JoinSyn { backup, nonce, .. }) => Some((backup, nonce)),
            _ => None,
        })?;
        let iss = env.rng.range_u64(0, 1 << 32) as u32;
        let nonce_local = env.rng.range_u64(0, 1 << 32) as u32;
        let mut sf = self.new_subflow_obj(
            cfg,
            tuple,
            SfState::SynReceived,
            false,
            iss,
            nonce_local,
            backup,
            env.now,
        );
        let id = sf.id;
        sf.irs = syn.hdr.seq.0;
        sf.nonce_remote = nonce_remote;
        sf.peer_wscale = syn
            .hdr
            .options
            .iter()
            .find_map(|o| match o {
                TcpOption::WindowScale(s) => Some(*s),
                _ => None,
            })
            .unwrap_or(0);
        self.subflows.push(sf);
        self.send_synack(id, cfg, env);
        self.arm_rto(id, env);
        Some(id)
    }

    fn send_syn(&mut self, id: SubflowId, cfg: &StackConfig, env: &mut StackEnv<'_>) {
        let window = self.advertised_window_unscaled();
        let sf = &self.subflows[id as usize];
        let mp = if !cfg.mptcp_enabled {
            None
        } else if sf.id == 0 {
            Some(MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: self.local_key,
                receiver_key: None,
            })
        } else {
            Some(MpOption::JoinSyn {
                backup: sf.backup,
                addr_id: sf.id,
                token: self.remote_token.expect("join without remote token"),
                nonce: sf.nonce_local,
            })
        };
        let mut options = TcpOptions::from([
            TcpOption::Mss(cfg.mss as u16),
            TcpOption::WindowScale(self.wscale),
        ]);
        if let Some(mp) = mp {
            options.push(TcpOption::Mptcp(mp.encode()));
        }
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.iss.into(),
                ack: 0.into(),
                flags: TcpFlags::SYN,
                window,
                options,
            },
            payload: Bytes::new(),
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
    }

    fn send_synack(&mut self, id: SubflowId, cfg: &StackConfig, env: &mut StackEnv<'_>) {
        let window = self.advertised_window_unscaled();
        let sf = &self.subflows[id as usize];
        let mp = if !cfg.mptcp_enabled || (self.remote_key.is_none() && sf.id == 0) {
            None
        } else if sf.id == 0 {
            Some(MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: self.local_key,
                receiver_key: None,
            })
        } else {
            // Responder HMAC: we are B on this subflow.
            let hmac = join_hmac_b(
                self.remote_key.expect("join accept without keys"),
                self.local_key,
                sf.nonce_remote,
                sf.nonce_local,
            );
            Some(MpOption::JoinSynAck {
                backup: sf.backup,
                addr_id: sf.id,
                hmac,
                nonce: sf.nonce_local,
            })
        };
        let mut options = TcpOptions::from([
            TcpOption::Mss(cfg.mss as u16),
            TcpOption::WindowScale(self.wscale),
        ]);
        if let Some(mp) = mp {
            options.push(TcpOption::Mptcp(mp.encode()));
        }
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.iss.into(),
                ack: sf.irs.wrapping_add(1).into(),
                flags: TcpFlags::SYN_ACK,
                window,
                options,
            },
            payload: Bytes::new(),
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
    }

    /// The third ACK of a handshake (initial or join).
    fn send_handshake_ack(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let window = self.advertised_window_scaled();
        let sf = &self.subflows[id as usize];
        let mp = if sf.id == 0 {
            self.remote_key.map(|rk| MpOption::Capable {
                version: MPTCP_VERSION,
                flags: CAPABLE_FLAG_HMAC_SHA1,
                sender_key: self.local_key,
                receiver_key: Some(rk),
            })
        } else {
            self.remote_key.map(|rk| MpOption::JoinAck {
                hmac: join_hmac_a(self.local_key, rk, sf.nonce_local, sf.nonce_remote),
            })
        };
        let mut options = TcpOptions::new();
        if let Some(mp) = mp {
            options.push(TcpOption::Mptcp(mp.encode()));
        }
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.wire_seq(sf.snd_off).into(),
                ack: sf.wire_ack().into(),
                flags: TcpFlags::ACK,
                window,
                options,
            },
            payload: Bytes::new(),
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
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

    /// Mutable app access.
    pub fn app_mut(&mut self) -> Option<&mut (dyn App + 'static)> {
        match self.app.as_mut() {
            Some(b) => Some(b.as_mut()),
            None => None,
        }
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

    // ------------------------------------------------------------------
    // Window bookkeeping
    // ------------------------------------------------------------------

    fn advertised_window_unscaled(&self) -> u16 {
        self.recv_free().min(u16::MAX as u64) as u16
    }

    fn advertised_window_scaled(&self) -> u16 {
        (self.recv_free() >> self.wscale).min(u16::MAX as u64) as u16
    }

    fn recv_free(&self) -> u64 {
        self.recv_buf
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

    fn disarm_rto(&mut self, id: SubflowId) {
        self.subflows[id as usize].rto_armed = false;
    }

    fn arm_meta_fin_timer(&mut self, env: &mut StackEnv<'_>) {
        self.meta_fin_gen = self.meta_fin_gen.wrapping_add(1) & 0x0FFF_FFFF;
        let backoff = std::time::Duration::from_secs(1 << self.meta_fin_backoff.min(5));
        let t = timer_token(TimerKind::MetaFin, self.idx, 0, self.meta_fin_gen);
        env.timers.push((backoff, t));
    }

    /// Handle a retransmission-timer firing for subflow `id`.
    pub fn on_rto_timer(
        &mut self,
        id: SubflowId,
        gen: u64,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get(id as usize) else {
            return;
        };
        if !sf.rto_armed || sf.rto_gen != gen || sf.state == SfState::Closed {
            return;
        }
        match sf.state {
            SfState::SynSent | SfState::SynReceived => self.handshake_rto(id, cfg, env, events),
            SfState::Established => self.established_rto(id, cfg, env, events),
            SfState::Closed => {}
        }
    }

    fn handshake_rto(
        &mut self,
        id: SubflowId,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &mut self.subflows[id as usize];
        if sf.syn_retries_left == 0 {
            let err = SubflowError::Timeout;
            self.kill_subflow(id, err, env, events);
            if id == 0 && self.state == ConnState::Establishing {
                self.abort(env, events);
            }
            return;
        }
        sf.syn_retries_left -= 1;
        sf.rto.on_expiry();
        let state = sf.state;
        match state {
            SfState::SynSent => self.send_syn(id, cfg, env),
            SfState::SynReceived => self.send_synack(id, cfg, env),
            _ => unreachable!(),
        }
        self.arm_rto(id, env);
    }

    fn established_rto(
        &mut self,
        id: SubflowId,
        cfg: &StackConfig,
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
            self.kill_subflow(id, SubflowError::Timeout, env, events);
            self.pump(cfg, env, events);
            return;
        }
        let flight_bytes = sf.flight.bytes_in_flight();
        sf.cc.on_retransmit_timeout(flight_bytes);
        sf.recovery = None;
        sf.dupacks = 0;
        // Connection-level reinjection: everything this subflow has in
        // flight becomes eligible on the other subflows.
        let ranges: Vec<MetaRange> = sf.flight.iter().filter_map(|s| s.tag.map).collect();
        for r in ranges {
            self.add_reinject(r);
        }
        self.retransmit_head(id, env);
        let (current_rto, backoffs) = {
            let sf = &self.subflows[id as usize];
            (sf.current_rto(), sf.rto.backoffs())
        };
        events.push(PmEvent::RtoExpired {
            token: self.token,
            id,
            current_rto,
            backoffs,
        });
        self.arm_rto(id, env);
        self.pump(cfg, env, events);
    }

    /// Retransmit the oldest outstanding segment (or the FIN) on `id`.
    fn retransmit_head(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let data_ack = self.current_data_ack();
        let window = self.advertised_window_scaled();
        let head = {
            let sf = &mut self.subflows[id as usize];
            sf.stats.retrans += 1;
            sf.flight
                .mark_head_retransmitted(env.now)
                .map(|(off, len)| {
                    (
                        off,
                        len,
                        sf.flight.oldest().expect("head exists").tag.clone(),
                    )
                })
        };
        if let Some((off, len, tag)) = head {
            // A partial ACK may have trimmed the head inside the original
            // segment (a middlebox that re-segments the stream makes
            // mid-segment cumulative ACKs routine): the tag still holds the
            // payload as originally sent, so skip the acked prefix and
            // advance the mapping to match. Replaying the full payload at
            // the trimmed offset would shift the byte stream and write past
            // its end.
            let skip = tag.payload.len() - len as usize;
            let payload = tag.payload.slice(skip..);
            let mapping = tag.map.map(|m| DssMapping {
                dsn: self.wire_dsn(m.off + skip as u64),
                ssn: (off as u32).wrapping_add(1),
                len: (m.len - skip as u32) as u16,
            });
            let sf = &self.subflows[id as usize];
            let seg = TcpSegment {
                hdr: TcpHeader {
                    src_port: sf.tuple.src_port,
                    dst_port: sf.tuple.dst_port,
                    seq: sf.wire_seq(off).into(),
                    ack: sf.wire_ack().into(),
                    flags: TcpFlags {
                        psh: true,
                        ..TcpFlags::ACK
                    },
                    window,
                    options: if self.fallback {
                        TcpOptions::new()
                    } else {
                        TcpOptions::from([TcpOption::Mptcp(
                            MpOption::Dss(Dss {
                                data_ack: Some(data_ack),
                                mapping,
                                data_fin: tag.data_fin,
                            })
                            .encode(),
                        )])
                    },
                },
                payload,
            };
            env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
        } else {
            let fin = {
                let sf = &self.subflows[id as usize];
                sf.fin_sent_off.filter(|_| !sf.fin_acked)
            };
            if let Some(fin_off) = fin {
                let built = self.build_fin_segment(id, fin_off, data_ack, window);
                env.send_segment(built.tuple.src, built.tuple.dst, &built.seg);
            }
        }
    }

    /// Meta-level DATA_FIN retransmission timer.
    pub fn on_meta_fin_timer(
        &mut self,
        gen: u64,
        cfg: &StackConfig,
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
        let ids: Vec<SubflowId> = self
            .subflows
            .iter()
            .filter(|s| s.state == SfState::Established)
            .map(|s| s.id)
            .collect();
        for id in ids {
            self.send_standalone_datafin(id, fin_off, env);
        }
        self.arm_meta_fin_timer(env);
        let _ = cfg;
    }

    fn best_live_subflow(&self) -> Option<SubflowId> {
        self.subflows
            .iter()
            .filter(|s| s.state == SfState::Established)
            .min_by_key(|s| (s.rtt.srtt().unwrap_or(std::time::Duration::MAX), s.id))
            .map(|s| s.id)
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

    // ------------------------------------------------------------------
    // Reinjection bookkeeping
    // ------------------------------------------------------------------

    fn add_reinject(&mut self, r: MetaRange) {
        // Plain-TCP fallback must never reinject: there is one subflow and
        // no DSS mapping to re-anchor the bytes, so `send_data_on` would
        // append the payload at a fresh subflow offset and the receiver's
        // identity mapping would deliver it as duplicate stream bytes past
        // the end of the stream. Subflow-level retransmission
        // (`retransmit_head`) is the only recovery path here. (Found by
        // the scenario fuzzer: split-rewriter cases RTO under queue
        // pressure and tripped the stream-duplication oracle.)
        if self.fallback {
            return;
        }
        let start = r.off.max(self.meta_una);
        let end = r.end();
        if start >= end {
            return;
        }
        // Coalesce with neighbours.
        let mut start = start;
        let mut end = end;
        // Predecessor overlapping or touching.
        if let Some((&ps, &pe)) = self.reinject.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.reinject.remove(&ps);
            }
        }
        // Successors covered.
        while let Some((&ns, &ne)) = self.reinject.range(start..).next() {
            if ns > end {
                break;
            }
            end = end.max(ne);
            self.reinject.remove(&ns);
        }
        self.reinject.insert(start, end);
    }

    fn gc_reinject(&mut self) {
        let una = self.meta_una;
        let to_fix: Vec<(u64, u64)> = self.reinject.range(..una).map(|(&s, &e)| (s, e)).collect();
        for (s, e) in to_fix {
            self.reinject.remove(&s);
            if e > una {
                self.reinject.insert(una, e);
            }
        }
    }

    fn take_reinject_chunk(&mut self, max_len: u32) -> Option<MetaRange> {
        loop {
            let (&start, &end) = self.reinject.iter().next()?;
            self.reinject.remove(&start);
            let start = start.max(self.meta_una);
            if start >= end {
                continue;
            }
            let len = ((end - start) as u32).min(max_len);
            if start + (len as u64) < end {
                self.reinject.insert(start + len as u64, end);
            }
            return Some(MetaRange { off: start, len });
        }
    }

    /// Bytes currently pending reinjection (diagnostics).
    pub fn reinject_pending(&self) -> u64 {
        self.reinject.iter().map(|(s, e)| e - s).sum()
    }

    // ------------------------------------------------------------------
    // Transmission pump
    // ------------------------------------------------------------------

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
    #[allow(clippy::ptr_arg)]
    pub fn pump(&mut self, cfg: &StackConfig, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state != ConnState::Established {
            return;
        }
        let mss = self.cfg_mss as u32;
        let mut cands = std::mem::take(&mut self.sched_scratch);
        loop {
            self.fill_sched_candidates(&mut cands);
            if cands.is_empty() {
                break;
            }
            // 1. Reinjection has priority.
            if let Some(r) = self.take_reinject_chunk(mss) {
                let Some(chosen) = self.scheduler.select(&cands) else {
                    // Put it back; nothing can carry it now.
                    self.add_reinject(r);
                    break;
                };
                let space = self.subflows[chosen as usize].cwnd_space() as u32;
                let len = r.len.min(space.max(1));
                let sent = MetaRange { off: r.off, len };
                self.send_data_on(chosen, sent, false, env);
                self.stats.reinjections += 1;
                if len < r.len {
                    self.add_reinject(MetaRange {
                        off: r.off + len as u64,
                        len: r.len - len,
                    });
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
                let is_last = !self.fallback
                    && self.app_closed
                    && range.end() == self.meta_send.tail_offset()
                    && self.fin_sent_off.is_none();
                self.send_data_on(chosen, range, is_last, env);
                if is_last {
                    self.fin_sent_off = Some(range.end());
                    self.meta_fin_backoff = 0;
                    self.arm_meta_fin_timer(env);
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
                if self.fallback {
                    self.fin_sent_off = Some(fin_off);
                    self.subflows[0].fin_wanted = true;
                    self.try_send_subflow_fin(0, env);
                } else {
                    let Some(chosen) = self.scheduler.select(&cands) else {
                        break;
                    };
                    self.send_standalone_datafin(chosen, fin_off, env);
                    self.fin_sent_off = Some(fin_off);
                    self.meta_fin_backoff = 0;
                    self.arm_meta_fin_timer(env);
                }
            }
            break;
        }
        self.sched_scratch = cands;
        self.update_coupling();
        self.maybe_close_subflows(env, events);
        let _ = cfg;
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
        let data_ack = self.current_data_ack();
        let window = self.advertised_window_scaled();
        let dsn = self.wire_dsn(range.off);
        let sf = &mut self.subflows[id as usize];
        let ssn_off = sf.snd_off;
        sf.flight.on_send(
            ssn_off,
            range.len,
            env.now,
            SegTag {
                map: Some(range),
                payload: payload.clone(),
                data_fin,
            },
        );
        sf.snd_off += range.len as u64;
        let options = if self.fallback {
            TcpOptions::new()
        } else {
            TcpOptions::from([TcpOption::Mptcp(
                MpOption::Dss(Dss {
                    data_ack: Some(data_ack),
                    mapping: Some(DssMapping {
                        dsn,
                        ssn: (ssn_off as u32).wrapping_add(1),
                        len: range.len as u16,
                    }),
                    data_fin,
                })
                .encode(),
            )])
        };
        let sf = &self.subflows[id as usize];
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.wire_seq(ssn_off).into(),
                ack: sf.wire_ack().into(),
                flags: TcpFlags {
                    psh: true,
                    ..TcpFlags::ACK
                },
                window,
                options,
            },
            payload,
        };
        let (src, dst) = (sf.tuple.src, sf.tuple.dst);
        let need_arm = !sf.rto_armed;
        env.send_segment(src, dst, &seg);
        if need_arm {
            self.arm_rto(id, env);
        }
    }

    fn send_standalone_datafin(&mut self, id: SubflowId, fin_off: u64, env: &mut StackEnv<'_>) {
        let data_ack = self.current_data_ack();
        let window = self.advertised_window_scaled();
        let dsn = self.wire_dsn(fin_off);
        let sf = &self.subflows[id as usize];
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.wire_seq(sf.snd_off).into(),
                ack: sf.wire_ack().into(),
                flags: TcpFlags::ACK,
                window,
                options: if self.fallback {
                    TcpOptions::new()
                } else {
                    TcpOptions::from([TcpOption::Mptcp(
                        MpOption::Dss(Dss {
                            data_ack: Some(data_ack),
                            mapping: Some(DssMapping {
                                dsn,
                                ssn: 0,
                                len: 0,
                            }),
                            data_fin: true,
                        })
                        .encode(),
                    )])
                },
            },
            payload: Bytes::new(),
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
    }

    /// Send a pure ACK (subflow + data ack) on `id`, optionally carrying
    /// extra MPTCP options (ADD_ADDR, MP_PRIO, ...).
    fn send_ack(&mut self, id: SubflowId, extra: Vec<MpOption>, env: &mut StackEnv<'_>) {
        let data_ack = self.current_data_ack();
        let window = self.advertised_window_scaled();
        let sf = &self.subflows[id as usize];
        let mut options = TcpOptions::new();
        if !self.fallback {
            options.push(TcpOption::Mptcp(
                MpOption::Dss(Dss {
                    data_ack: Some(data_ack),
                    mapping: None,
                    data_fin: false,
                })
                .encode(),
            ));
            for e in extra {
                options.push(TcpOption::Mptcp(e.encode()));
            }
        }
        let seg = TcpSegment {
            hdr: TcpHeader {
                src_port: sf.tuple.src_port,
                dst_port: sf.tuple.dst_port,
                seq: sf.wire_seq(sf.snd_off).into(),
                ack: sf.wire_ack().into(),
                flags: TcpFlags::ACK,
                window,
                options,
            },
            payload: Bytes::new(),
        };
        env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
    }

    fn build_fin_segment(
        &self,
        id: SubflowId,
        fin_off: u64,
        data_ack: u64,
        window: u16,
    ) -> SegBuild {
        let sf = &self.subflows[id as usize];
        SegBuild {
            tuple: sf.tuple,
            seg: TcpSegment {
                hdr: TcpHeader {
                    src_port: sf.tuple.src_port,
                    dst_port: sf.tuple.dst_port,
                    seq: sf.wire_seq(fin_off).into(),
                    ack: sf.wire_ack().into(),
                    flags: TcpFlags {
                        fin: true,
                        ..TcpFlags::ACK
                    },
                    window,
                    options: if self.fallback {
                        TcpOptions::new()
                    } else {
                        TcpOptions::from([TcpOption::Mptcp(
                            MpOption::Dss(Dss {
                                data_ack: Some(data_ack),
                                mapping: None,
                                data_fin: false,
                            })
                            .encode(),
                        )])
                    },
                },
                payload: Bytes::new(),
            },
        }
    }

    /// LIA coupling: recompute alpha across subflows and push it down.
    fn update_coupling(&mut self) {
        if !self.coupled_cc {
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

    // ------------------------------------------------------------------
    // Segment receive path
    // ------------------------------------------------------------------

    /// Process an incoming segment for subflow `id`.
    pub fn on_segment(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let state = match self.subflows.get(id as usize) {
            Some(s) => s.state,
            None => return,
        };
        if seg.hdr.flags.rst {
            let err = if state == SfState::SynSent {
                SubflowError::Refused
            } else {
                SubflowError::Reset
            };
            self.kill_subflow(id, err, env, events);
            if self.state == ConnState::Establishing && id == 0 {
                self.abort(env, events);
            } else {
                self.pump(cfg, env, events);
            }
            return;
        }
        match state {
            SfState::SynSent => self.on_segment_synsent(id, seg, cfg, env, events),
            SfState::SynReceived => self.on_segment_synreceived(id, seg, cfg, env, events),
            SfState::Established => self.on_segment_established(id, seg, cfg, env, events),
            SfState::Closed => { /* stale segment for a dead subflow */ }
        }
    }

    fn on_segment_synsent(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        cfg: &StackConfig,
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
        // Parse MPTCP side.
        let mut capable_key = None;
        let mut join = None;
        for o in seg.mptcp_opts() {
            match MpOption::decode(o) {
                Ok(MpOption::Capable {
                    sender_key,
                    receiver_key: None,
                    ..
                }) => capable_key = Some(sender_key),
                Ok(MpOption::JoinSynAck {
                    backup,
                    hmac,
                    nonce,
                    ..
                }) => join = Some((backup, hmac, nonce)),
                _ => {}
            }
        }
        if id == 0 {
            match capable_key {
                Some(k) => self.set_remote_key(k),
                None => {
                    // Peer fell back to plain TCP: single-subflow mode.
                    self.remote_key = None;
                    self.remote_token = None;
                    self.fallback = true;
                }
            }
        } else {
            // MP_JOIN: verify the responder HMAC.
            let Some((_backup, hmac, nonce_b)) = join else {
                // No valid JOIN response: treat as refusal.
                self.kill_subflow(id, SubflowError::Refused, env, events);
                return;
            };
            let sf = &mut self.subflows[id as usize];
            sf.nonce_remote = nonce_b;
            let expect = join_hmac_b(
                self.local_key,
                self.remote_key.expect("join without keys"),
                self.subflows[id as usize].nonce_local,
                nonce_b,
            );
            if expect != hmac {
                self.kill_subflow(id, SubflowError::Refused, env, events);
                return;
            }
        }
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        sf.irs = seg.hdr.seq.0;
        sf.reasm = smapp_tcp::Reassembly::new();
        sf.peer_wscale = seg
            .hdr
            .options
            .iter()
            .find_map(|o| match o {
                TcpOption::WindowScale(s) => Some(*s),
                _ => None,
            })
            .unwrap_or(0);
        sf.peer_window = seg.hdr.window as u64; // SYN/ACK window unscaled
        sf.state = SfState::Established;
        sf.stats.established_at = Some(now);
        if let Some(d) = now.checked_since(sf.stats.created_at) {
            sf.rtt.on_sample(d);
        }
        sf.rto.on_ack_progress();
        sf.rto_armed = false;
        let tuple = sf.tuple;
        let backup = sf.backup;
        self.peer_window = seg.hdr.window as u64; // SYN/ACK window is unscaled
        self.send_handshake_ack(id, env);
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
            initiated_here: true,
        });
        if id == 0 {
            self.app_event_established(env);
        }
        self.pump(cfg, env, events);
    }

    fn on_segment_synreceived(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let sf = &self.subflows[id as usize];
        // Duplicate SYN (our SYN/ACK was lost): resend it.
        if seg.hdr.flags.syn && !seg.hdr.flags.ack {
            self.send_synack(id, cfg, env);
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
                            self.subflows[id as usize].nonce_remote,
                            self.subflows[id as usize].nonce_local,
                        )
                )
            });
            if !hmac_ok {
                // Not the authenticated third ACK; wait for it (the
                // SYN/ACK RTO will retransmit if it never comes).
                return;
            }
        }
        let now = env.now;
        let sf = &mut self.subflows[id as usize];
        sf.state = SfState::Established;
        sf.stats.established_at = Some(now);
        if let Some(d) = now.checked_since(sf.stats.created_at) {
            sf.rtt.on_sample(d);
        }
        sf.rto.on_ack_progress();
        sf.rto_armed = false;
        sf.peer_window = (seg.hdr.window as u64) << sf.peer_wscale;
        let tuple = sf.tuple;
        let backup = sf.backup;
        self.peer_window = (seg.hdr.window as u64) << sf.peer_wscale;
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
            initiated_here: false,
        });
        if id == 0 {
            self.app_event_established(env);
        }
        // The third ACK may carry data; process it in the established path.
        if !seg.payload.is_empty() || seg.hdr.flags.fin {
            self.on_segment_established(id, seg, cfg, env, events);
        } else {
            self.pump(cfg, env, events);
        }
    }

    #[allow(clippy::cognitive_complexity)]
    fn on_segment_established(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        // Duplicate SYN/ACK: our handshake ACK was lost — resend it.
        if seg.hdr.flags.syn && seg.hdr.flags.ack {
            let sf = &self.subflows[id as usize];
            if seg.hdr.seq.0 == sf.irs {
                self.send_handshake_ack(id, env);
            }
            return;
        }

        // ---- parse MPTCP options ----
        let mut dss: Option<Dss> = None;
        let mut extra_events: Vec<PmEvent> = Vec::new();
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
                    extra_events.push(PmEvent::AddAddrReceived {
                        token: self.token,
                        addr_id,
                        addr,
                        port,
                    });
                }
                Ok(MpOption::RemoveAddr { addr_ids }) => {
                    for aid in addr_ids {
                        self.remote_addrs.retain(|(i, _, _)| *i != aid);
                        extra_events.push(PmEvent::RemAddrReceived {
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
        events.append(&mut extra_events);
        if dss.is_some() {
            self.peer_dss_seen = true;
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
        // mechanism off and prove the invariant checker catches it) ----
        // MPTCP was negotiated, yet the very first data-bearing segment on
        // the (sole) initial subflow carries no DSS option: a middlebox on
        // the path is stripping MPTCP options — possibly in one direction
        // only, so the handshake looked fine to us. The peer cannot signal
        // mappings; staying in MPTCP mode would discard its bytes as
        // unmapped forever. Fall back to plain TCP on this subflow and
        // refuse further joins, exactly as if the handshake had fallen
        // back.
        if cfg.fallback_inference
            && !self.fallback
            && id == 0
            && self.subflows.len() == 1
            && dss.is_none()
            && !seg.payload.is_empty()
            && self.meta_recv.next_expected() == 0
            && self.peer_fin_off.is_none()
        {
            self.infer_fallback();
        }

        // ---- subflow-level ACK processing ----
        let pre_ack_una = self.subflows[id as usize].una_off;
        let mut data_acked_progress = false;
        if seg.hdr.flags.ack {
            self.process_subflow_ack(id, seg, env, events);
        }
        // Sender-side §3.7 inference, the mirror image of the receiver-side
        // check above: we sent DSS-mapped data, and the (sole) subflow's
        // cumulative ACK is advancing over it via segments carrying no
        // MPTCP options at all, from a peer that has never sent a DSS —
        // a middlebox is stripping our options, so the peer is reading the
        // subflow as plain TCP. Fall back before any connection-level
        // reinjection can place bytes at fresh subflow offsets the peer
        // would misread as new data (identity mapping past the stream end).
        if cfg.fallback_inference
            && !self.fallback
            && id == 0
            && self.subflows.len() == 1
            && !any_mp_opt
            && seg.payload.is_empty()
            && !self.peer_dss_seen
            && self.subflows[id as usize].una_off > pre_ack_una
        {
            self.infer_fallback();
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
        if self.fallback {
            let sf0 = &self.subflows[0];
            let acked = sf0.una_off.min(sf0.snd_off);
            let fin_acked = sf0.fin_acked;
            data_acked_progress = self.on_data_ack(acked, env, events);
            if fin_acked {
                self.fin_acked = true;
            }
        } else if let Some(d) = &dss {
            if let Some(wire_ack) = d.data_ack {
                let acked = self.meta_off_from_wire_data_ack(wire_ack);
                data_acked_progress = self.on_data_ack(acked, env, events);
            }
        }

        // ---- payload ----
        let mut should_ack = false;
        if !seg.payload.is_empty() {
            should_ack = true;
            let sf = &mut self.subflows[id as usize];
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            // Record the DSS mapping for these bytes (fallback: identity).
            if self.fallback {
                let sf = &mut self.subflows[id as usize];
                sf.add_recv_map(RecvMap {
                    ssn: off,
                    meta: off,
                    len: seg.payload.len() as u32,
                });
            } else if let Some(d) = &dss {
                if let Some(m) = d.mapping {
                    if m.len > 0 {
                        let meta = self.meta_off_from_wire_dsn(m.dsn);
                        let sf = &mut self.subflows[id as usize];
                        sf.add_recv_map(RecvMap {
                            ssn: off,
                            meta,
                            len: m.len.min(seg.payload.len() as u16) as u32,
                        });
                    }
                }
            }
            let sf = &mut self.subflows[id as usize];
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
                        Some(meta) => {
                            // Extent of this mapping from `at`.
                            let map = sf
                                .recv_maps
                                .iter()
                                .find(|m| m.ssn <= at && at < m.ssn + m.len as u64)
                                .copied()
                                .expect("mapping exists");
                            let take = ((map.ssn + map.len as u64 - at) as usize)
                                .min(chunk.len() - inner_off);
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
            if buffered > self.recv_buf {
                let cap = self.recv_buf;
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
        if seg.hdr.flags.fin {
            should_ack = true;
            let sf = &mut self.subflows[id as usize];
            let off = sf.offset_from_wire_seq(seg.hdr.seq.0);
            let fin_off = off + seg.payload.len() as u64;
            sf.peer_fin_off = Some(fin_off);
        }
        {
            let sf = &mut self.subflows[id as usize];
            if let Some(f) = sf.peer_fin_off {
                if !sf.peer_fin_consumed && sf.reasm.next_expected() >= f {
                    sf.peer_fin_consumed = true;
                }
            }
        }
        if self.fallback && self.peer_fin_off.is_none() {
            let consumed = self.subflows[0].peer_fin_consumed;
            if consumed {
                self.peer_fin_off = Some(self.meta_recv.next_expected());
                self.deliver_meta(env);
            }
        }

        // ---- acknowledge ----
        if should_ack {
            self.send_ack(id, Vec::new(), env);
        }

        // ---- progress: close bookkeeping, new transmissions ----
        let _ = data_acked_progress;
        self.finish_subflow_close(id, env, events);
        self.pump(cfg, env, events);
        self.maybe_conn_closed(env, events);
    }

    /// Cumulative/duplicate ACK handling for one subflow.
    fn process_subflow_ack(
        &mut self,
        id: SubflowId,
        seg: &TcpSegment,
        env: &mut StackEnv<'_>,
        _events: &mut [PmEvent],
    ) {
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
                self.disarm_rto(id);
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

    /// Meta-level cumulative data ACK. Returns true when it advanced.
    fn on_data_ack(
        &mut self,
        acked_off: u64,
        env: &mut StackEnv<'_>,
        _events: &mut [PmEvent],
    ) -> bool {
        let fin_plus = self.fin_sent_off.map(|f| f + 1);
        let limit = fin_plus.unwrap_or(self.meta_snd_nxt).max(self.meta_snd_nxt);
        let acked = acked_off.min(limit);
        if acked <= self.meta_una {
            return false;
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
        self.gc_reinject();
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
            self.app_event_send_space(env);
        }
        true
    }

    /// Insert-order delivery to the application.
    fn deliver_meta(&mut self, env: &mut StackEnv<'_>) {
        while let Some((_, c)) = self.meta_recv.pop_next() {
            self.stats.bytes_received += c.len() as u64;
            self.stats.tap_recvd.update(&c);
            self.app_event_data(env, c);
        }
        if let Some(f) = self.peer_fin_off {
            if !self.eof_delivered && self.meta_recv.next_expected() >= f {
                self.eof_delivered = true;
                self.app_event_eof(env);
            }
        }
    }

    // ------------------------------------------------------------------
    // Close / abort / kill
    // ------------------------------------------------------------------

    /// When the meta close handshake is done in both directions, wind down
    /// the subflows with FIN exchanges.
    fn maybe_close_subflows(&mut self, env: &mut StackEnv<'_>, _events: &mut [PmEvent]) {
        if !(self.fin_acked && self.eof_delivered) {
            return;
        }
        let ids: Vec<SubflowId> = self
            .subflows
            .iter()
            .filter(|s| s.state == SfState::Established && s.fin_sent_off.is_none())
            .map(|s| s.id)
            .collect();
        for id in ids {
            self.subflows[id as usize].fin_wanted = true;
            self.try_send_subflow_fin(id, env);
        }
    }

    fn try_send_subflow_fin(&mut self, id: SubflowId, env: &mut StackEnv<'_>) {
        let sf = &mut self.subflows[id as usize];
        if sf.state != SfState::Established || sf.fin_sent_off.is_some() || !sf.flight.is_empty() {
            return;
        }
        let fin_off = sf.snd_off;
        sf.fin_sent_off = Some(fin_off);
        let data_ack = self.current_data_ack();
        let window = self.advertised_window_scaled();
        let built = self.build_fin_segment(id, fin_off, data_ack, window);
        env.send_segment(built.tuple.src, built.tuple.dst, &built.seg);
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
        let reciprocate = {
            let sf = &self.subflows[id as usize];
            sf.state == SfState::Established
                && sf.peer_fin_consumed
                && sf.fin_sent_off.is_none()
                && self.fin_acked
                && self.eof_delivered
        };
        if reciprocate {
            self.subflows[id as usize].fin_wanted = true;
        }
        // FIN wanted and flight drained? send it.
        if self.subflows[id as usize].fin_wanted {
            self.try_send_subflow_fin(id, env);
        }
        // Both directions done? Subflow is closed.
        let done = {
            let sf = &self.subflows[id as usize];
            sf.state == SfState::Established && sf.close_complete()
        };
        if done {
            let sf = &mut self.subflows[id as usize];
            sf.state = SfState::Closed;
            sf.rto_armed = false;
            let tuple = sf.tuple;
            self.stats.sf_close_reasons |= SubflowError::None.coverage_bit();
            events.push(PmEvent::SubflowClosed {
                token: self.token,
                id,
                tuple,
                error: SubflowError::None,
            });
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
            self.state = ConnState::Closed;
            self.stats.closed_at = Some(env.now);
            events.push(PmEvent::ConnClosed { token: self.token });
            self.app_event_closed(env.now);
        }
    }

    /// Hard-abort the connection (handshake failure, FASTCLOSE, meta
    /// timeout): every subflow dies, the app learns immediately.
    pub fn abort(&mut self, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        if self.state == ConnState::Closed {
            return;
        }
        let ids: Vec<SubflowId> = self.live_subflow_ids();
        for id in ids {
            self.kill_subflow(id, SubflowError::Timeout, env, events);
        }
        self.state = ConnState::Closed;
        self.stats.closed_at = Some(env.now);
        events.push(PmEvent::ConnClosed { token: self.token });
        self.app_event_closed(env.now);
    }

    /// Kill one subflow with an error; unacked meta data it carried becomes
    /// eligible for reinjection elsewhere.
    pub fn kill_subflow(
        &mut self,
        id: SubflowId,
        error: SubflowError,
        _env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        sf.state = SfState::Closed;
        sf.rto_armed = false;
        self.stats.sf_close_reasons |= error.coverage_bit();
        let tuple = sf.tuple;
        let ranges: Vec<MetaRange> = sf.flight.iter().filter_map(|s| s.tag.map).collect();
        sf.flight.clear();
        for r in ranges {
            self.add_reinject(r);
        }
        events.push(PmEvent::SubflowClosed {
            token: self.token,
            id,
            tuple,
            error,
        });
    }

    /// PM-requested graceful or hard close of a subflow.
    pub fn pm_close_subflow(
        &mut self,
        id: SubflowId,
        reset: bool,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get(id as usize) else {
            return;
        };
        if sf.state == SfState::Closed {
            return;
        }
        if reset || sf.state != SfState::Established {
            // Send an RST so the peer tears down too.
            let sf = &self.subflows[id as usize];
            let seg = TcpSegment {
                hdr: TcpHeader {
                    src_port: sf.tuple.src_port,
                    dst_port: sf.tuple.dst_port,
                    seq: sf.wire_seq(sf.snd_off).into(),
                    ack: sf.wire_ack().into(),
                    flags: TcpFlags::RST,
                    window: 0,
                    options: TcpOptions::new(),
                },
                payload: Bytes::new(),
            };
            env.send_segment(sf.tuple.src, sf.tuple.dst, &seg);
            self.kill_subflow(id, SubflowError::PmRequested, env, events);
            self.pump(cfg, env, events);
        } else {
            // Graceful: stop scheduling data on it, FIN when drained.
            self.subflows[id as usize].fin_wanted = true;
            self.try_send_subflow_fin(id, env);
        }
    }

    /// PM-requested backup-priority change; signals MP_PRIO to the peer.
    pub fn pm_set_backup(&mut self, id: SubflowId, backup: bool, env: &mut StackEnv<'_>) {
        if let Some(sf) = self.subflows.get_mut(id as usize) {
            if sf.state == SfState::Established {
                sf.backup = backup;
                self.send_ack(
                    id,
                    vec![MpOption::Prio {
                        backup,
                        addr_id: None,
                    }],
                    env,
                );
            }
        }
    }

    /// PM-requested address announcement (ADD_ADDR to the peer).
    pub fn pm_announce_addr(&mut self, addr_id: u8, addr: Addr, env: &mut StackEnv<'_>) {
        self.next_local_addr_id = self.next_local_addr_id.max(addr_id + 1);
        if let Some(id) = self.best_live_subflow() {
            self.send_ack(
                id,
                vec![MpOption::AddAddr {
                    addr_id,
                    addr,
                    port: None,
                }],
                env,
            );
        }
    }

    /// PM-requested address withdrawal (REMOVE_ADDR to the peer).
    pub fn pm_withdraw_addr(&mut self, addr_id: u8, env: &mut StackEnv<'_>) {
        if let Some(id) = self.best_live_subflow() {
            self.send_ack(
                id,
                vec![MpOption::RemoveAddr {
                    addr_ids: vec![addr_id],
                }],
                env,
            );
        }
    }

    /// ICMP unreachable observed for subflow `id`.
    pub fn on_icmp_unreachable(
        &mut self,
        id: SubflowId,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        let Some(sf) = self.subflows.get_mut(id as usize) else {
            return;
        };
        match sf.state {
            SfState::SynSent | SfState::SynReceived => {
                self.kill_subflow(id, SubflowError::NetUnreachable, env, events);
                if id == 0 && self.state == ConnState::Establishing {
                    self.abort(env, events);
                } else {
                    self.pump(cfg, env, events);
                }
            }
            _ => sf.soft_errors += 1,
        }
    }

    // ------------------------------------------------------------------
    // App event helpers (take/put dance around the borrow checker)
    // ------------------------------------------------------------------

    fn app_event_established(&mut self, env: &mut StackEnv<'_>) {
        if let Some(mut app) = self.app.take() {
            app.on_established(&mut AppCtx { conn: self, env });
            self.app = Some(app);
        }
    }

    fn app_event_data(&mut self, env: &mut StackEnv<'_>, data: Bytes) {
        if let Some(mut app) = self.app.take() {
            app.on_data(&mut AppCtx { conn: self, env }, data);
            self.app = Some(app);
        }
    }

    fn app_event_send_space(&mut self, env: &mut StackEnv<'_>) {
        if let Some(mut app) = self.app.take() {
            app.on_send_space(&mut AppCtx { conn: self, env });
            self.app = Some(app);
        }
    }

    fn app_event_eof(&mut self, env: &mut StackEnv<'_>) {
        if let Some(mut app) = self.app.take() {
            app.on_eof(&mut AppCtx { conn: self, env });
            self.app = Some(app);
        }
    }

    fn app_event_closed(&mut self, now: SimTime) {
        if let Some(app) = self.app.as_mut() {
            app.on_closed(now);
        }
    }

    /// Dispatch an application timer.
    pub fn on_app_timer(
        &mut self,
        token: u64,
        cfg: &StackConfig,
        env: &mut StackEnv<'_>,
        events: &mut Vec<PmEvent>,
    ) {
        if let Some(mut app) = self.app.take() {
            app.on_app_timer(&mut AppCtx { conn: self, env }, token);
            self.app = Some(app);
        }
        self.pump(cfg, env, events);
    }

    /// Let the app push more data / react, then pump (host calls this after
    /// out-of-band app interactions).
    pub fn kick(&mut self, cfg: &StackConfig, env: &mut StackEnv<'_>, events: &mut Vec<PmEvent>) {
        self.pump(cfg, env, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use smapp_sim::SimRng;

    fn tuple() -> FourTuple {
        FourTuple {
            src: Addr::new(10, 0, 0, 1),
            src_port: 40_000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
        }
    }

    #[test]
    fn client_emits_capable_syn() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let cfg = StackConfig::default();
        let conn = Connection::client(0, &cfg, tuple(), Box::new(NullApp), &mut env, &mut events);
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
    }

    #[test]
    fn plain_tcp_client_emits_bare_syn() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let cfg = StackConfig {
            mptcp_enabled: false,
            ..Default::default()
        };
        let _conn = Connection::client(0, &cfg, tuple(), Box::new(NullApp), &mut env, &mut events);
        let seg = TcpSegment::decode(&env.out[0].seg).unwrap();
        assert!(seg.mptcp_opt().is_none());
    }

    #[test]
    fn reinject_ranges_coalesce() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let cfg = StackConfig::default();
        let mut conn =
            Connection::client(0, &cfg, tuple(), Box::new(NullApp), &mut env, &mut events);
        conn.add_reinject(MetaRange { off: 0, len: 100 });
        conn.add_reinject(MetaRange { off: 100, len: 100 });
        conn.add_reinject(MetaRange { off: 50, len: 20 });
        assert_eq!(conn.reinject_pending(), 200);
        assert_eq!(conn.reinject.len(), 1);
        conn.add_reinject(MetaRange { off: 500, len: 10 });
        assert_eq!(conn.reinject.len(), 2);
        // Chunks come out in offset order, clipped to max_len.
        let c1 = conn.take_reinject_chunk(150).unwrap();
        assert_eq!((c1.off, c1.len), (0, 150));
        let c2 = conn.take_reinject_chunk(150).unwrap();
        assert_eq!((c2.off, c2.len), (150, 50));
        let c3 = conn.take_reinject_chunk(150).unwrap();
        assert_eq!((c3.off, c3.len), (500, 10));
        assert!(conn.take_reinject_chunk(10).is_none());
    }

    #[test]
    fn reinject_respects_meta_una() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let cfg = StackConfig::default();
        let mut conn =
            Connection::client(0, &cfg, tuple(), Box::new(NullApp), &mut env, &mut events);
        conn.meta_una = 80;
        conn.add_reinject(MetaRange { off: 0, len: 100 });
        let c = conn.take_reinject_chunk(1000).unwrap();
        assert_eq!((c.off, c.len), (80, 20));
    }

    #[test]
    fn dsn_conversions_roundtrip() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut env = StackEnv::new(SimTime::ZERO, &mut rng);
        let mut events = Vec::new();
        let cfg = StackConfig::default();
        let mut conn =
            Connection::client(0, &cfg, tuple(), Box::new(NullApp), &mut env, &mut events);
        conn.idsn_remote = conn.idsn_local; // pretend symmetric for the test
        let off = 123_456u64;
        let wire = conn.wire_dsn(off);
        assert_eq!(conn.meta_off_from_wire_dsn(wire), off);
    }
}
