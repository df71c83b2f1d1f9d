//! The host stack: connection table, demultiplexing, listeners, timers and
//! the path-manager boundary.
//!
//! One [`HostStack`] is the "kernel" of one simulated host. It owns every
//! connection, demultiplexes incoming packets to subflows (including
//! `MP_JOIN` SYNs routed by token), applies path-manager actions, and
//! surfaces [`PmEvent`]s for whatever path manager the host plugged in.

use bytes::Bytes;
use smapp_sim::{
    Addr, FxHashMap, FxHashSet, IcmpMsg, Packet, Recycle, Spare, TimerHandle, PROTO_ICMP, PROTO_TCP,
};
use smapp_tcp::{OptionWriter, SeqNum, TcpFixed, TcpFlags, TcpView};

use crate::app::App;
use crate::config::StackConfig;
use crate::conn::{ConnState, Connection};
use crate::env::StackEnv;
use crate::options::MpOption;
use crate::pm::{ConnToken, FourTuple, PmAction, PmEvent, StackView, SubflowError, SubflowId};
use crate::subflow::Subflow;

/// Timer classes multiplexed into the stack's `u64` timer tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// Subflow retransmission timer.
    Rto,
    /// Application timer.
    App,
    /// Connection-level DATA_FIN retransmission timer.
    MetaFin,
}

/// Pack a stack timer token: `kind(4) | conn_idx(24) | subflow(8) | gen(28)`.
pub fn timer_token(kind: TimerKind, conn_idx: usize, sub: SubflowId, gen: u64) -> u64 {
    let k = match kind {
        TimerKind::Rto => 1u64,
        TimerKind::App => 2,
        TimerKind::MetaFin => 3,
    };
    debug_assert!(conn_idx < (1 << 24), "connection index overflow");
    debug_assert!(gen < (1 << 28), "timer generation overflow");
    (k << 60) | ((conn_idx as u64 & 0xFF_FFFF) << 36) | ((sub as u64) << 28) | (gen & 0x0FFF_FFFF)
}

/// Unpack a stack timer token.
pub fn parse_timer_token(t: u64) -> Option<(TimerKind, usize, SubflowId, u64)> {
    let kind = match t >> 60 {
        1 => TimerKind::Rto,
        2 => TimerKind::App,
        3 => TimerKind::MetaFin,
        _ => return None,
    };
    Some((
        kind,
        ((t >> 36) & 0xFF_FFFF) as usize,
        ((t >> 28) & 0xFF) as SubflowId,
        t & 0x0FFF_FFFF,
    ))
}

/// Application factory used by listeners: one app instance per accepted
/// connection.
///
/// Factories are `Send` — they are part of a scenario's *builder* surface,
/// which the sweep engine may move to a worker thread before the world is
/// constructed. The [`App`]s a factory returns need not be `Send`: apps
/// live and die on the world's one thread.
pub type AppFactory = Box<dyn FnMut() -> Box<dyn App> + Send>;

/// What a connection keeps past its close for post-run inspection, given
/// back emptied when its stack drops: the snapshot storage of its two
/// stream taps (sent, received) and its subflow table, in one box that
/// the thread recycles whole, so a spare costs its list one pointer. A
/// live connection holds the box beside its subflow table and moves the
/// table back in when it retires. Kept by [`Role`](crate::Role), like
/// a connection's rings, so each tap slot comes back sized for its
/// direction.
pub(crate) struct Retired {
    pub(crate) taps: [Vec<u64>; 2],
    pub(crate) subflows: Vec<Subflow>,
}

impl Default for Retired {
    /// Nothing to reuse: a subflow table with two slots, where `Vec`
    /// would reserve four on the first push, as most connections run two
    /// subflows, one per path.
    fn default() -> Self {
        Retired {
            taps: Default::default(),
            subflows: Vec::with_capacity(2),
        }
    }
}

impl Recycle for Retired {
    fn reset(&mut self) {
        self.taps.iter_mut().for_each(Vec::clear);
        self.subflows.clear();
    }
    fn is_empty(&self) -> bool {
        self.taps.iter().all(Vec::is_empty) && self.subflows.is_empty()
    }
}

/// A stack's tables, in one box that the thread recycles whole. The hash
/// tables are only probed, never iterated, so their capacity reaches no
/// trajectory.
#[derive(Default)]
struct Tables {
    conns: Vec<Option<Connection>>,
    /// Demux: four-tuple (local perspective) -> (conn slot, subflow id).
    /// Fx-hashed: hit once per received packet.
    flows: FxHashMap<FourTuple, (usize, SubflowId)>,
    /// Demux: our token -> conn slot (for MP_JOIN and PM commands).
    by_token: FxHashMap<ConnToken, usize>,
    listeners: FxHashMap<u16, AppFactory>,
    /// Local addresses and their up/down state (host keeps this current).
    local_addrs: Vec<(Addr, bool)>,
    used_ports: FxHashSet<(Addr, u16)>,
    /// Events awaiting pickup by the host's path manager.
    events: Vec<PmEvent>,
}

impl Recycle for Tables {
    /// World teardown: every connection still open gives its storage, and
    /// its open subflows', to the thread as closing would have; then the
    /// connections' stream taps and subflow tables follow, so the next
    /// world's stacks start on all of it.
    fn reset(&mut self) {
        let open = self.conns.iter_mut().flatten();
        for conn in open.filter(|c| c.state != ConnState::Closed) {
            conn.release_buffers();
        }
        self.conns.drain(..).flatten().for_each(Connection::retire);
        self.flows.clear();
        self.by_token.clear();
        self.listeners.clear();
        self.local_addrs.clear();
        self.used_ports.clear();
        self.events.clear();
    }

    fn is_empty(&self) -> bool {
        self.conns.is_empty()
            && self.flows.is_empty()
            && self.by_token.is_empty()
            && self.listeners.is_empty()
            && self.local_addrs.is_empty()
            && self.used_ports.is_empty()
            && self.events.is_empty()
    }
}

/// The per-host TCP/MPTCP stack.
pub struct HostStack {
    /// Configuration shared by all connections.
    pub cfg: StackConfig,
    t: Spare<Box<Tables>>,
    /// Count of RSTs sent to unknown flows (diagnostics).
    pub rst_sent: u64,
}

impl HostStack {
    /// A stack with the given configuration, on the tables the last stack
    /// dropped on this thread gave back.
    pub fn new(cfg: StackConfig) -> Self {
        HostStack {
            cfg,
            t: Spare::default(),
            rst_sent: 0,
        }
    }

    // ------------------------------------------------------------------
    // Host plumbing
    // ------------------------------------------------------------------

    /// Register the host's local addresses (call at start and on change).
    pub fn set_local_addr(&mut self, addr: Addr, up: bool) {
        match self.t.local_addrs.iter_mut().find(|(a, _)| *a == addr) {
            Some(slot) => slot.1 = up,
            None => self.t.local_addrs.push((addr, up)),
        }
    }

    /// Local addresses currently up, in the order they were first seen.
    pub fn local_addrs_up(&self) -> impl Iterator<Item = Addr> + '_ {
        let up = self.t.local_addrs.iter().filter(|(_, up)| *up);
        up.map(|&(a, _)| a)
    }

    /// Move pending path-manager events into `into` (cleared first). The
    /// two vectors trade places, so both keep their capacity.
    pub fn swap_events(&mut self, into: &mut Vec<PmEvent>) {
        into.clear();
        std::mem::swap(&mut self.t.events, into);
    }

    /// Listen on a port; `factory` builds the per-connection server app.
    pub fn listen(&mut self, port: u16, factory: AppFactory) {
        self.t.listeners.insert(port, factory);
    }

    /// Open a client connection toward `dst:dst_port`. Returns the token.
    pub fn connect(
        &mut self,
        env: &mut StackEnv<'_>,
        src: Option<Addr>,
        dst: Addr,
        dst_port: u16,
        app: Box<dyn App>,
    ) -> Option<ConnToken> {
        let first_up = self.t.local_addrs.iter().find(|(_, up)| *up);
        let src = src.or(first_up.map(|&(a, _)| a))?;
        let src_port = self.alloc_port(env, src)?;
        let tuple = FourTuple {
            src,
            src_port,
            dst,
            dst_port,
        };
        let t = &mut *self.t;
        let conn = Connection::client(t.conns.len(), &self.cfg, tuple, app, env, &mut t.events);
        Some(self.add_conn(tuple, conn))
    }

    /// Enter a new connection in the demux tables and a slot. Slots start
    /// at one, not `Vec`'s four: most hosts hold one connection.
    fn add_conn(&mut self, tuple: FourTuple, conn: Connection) -> ConnToken {
        if self.t.conns.capacity() == 0 {
            self.t.conns.reserve_exact(1);
        }
        let (idx, token) = (self.t.conns.len(), conn.token);
        self.t.flows.insert(tuple, (idx, 0));
        self.t.by_token.insert(token, idx);
        self.t.conns.push(Some(conn));
        token
    }

    fn alloc_port(&mut self, env: &mut StackEnv<'_>, addr: Addr) -> Option<u16> {
        for _ in 0..64 {
            let p = env.rng.ephemeral_port();
            if self.t.used_ports.insert((addr, p)) {
                return Some(p);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Packet input
    // ------------------------------------------------------------------

    /// Process an incoming packet addressed to this host.
    pub fn on_packet(&mut self, env: &mut StackEnv<'_>, pkt: &Packet) {
        match pkt.proto {
            PROTO_TCP => self.on_tcp(env, pkt),
            PROTO_ICMP => self.on_icmp(env, pkt),
            _ => {}
        }
    }

    fn on_tcp(&mut self, env: &mut StackEnv<'_>, pkt: &Packet) {
        let Ok(seg) = TcpView::parse(&pkt.payload) else {
            return; // malformed: drop
        };
        let tuple = FourTuple {
            src: pkt.dst,
            src_port: seg.hdr.dst_port,
            dst: pkt.src,
            dst_port: seg.hdr.src_port,
        };
        // 1. Existing subflow?
        if let Some(&(idx, sub)) = self.t.flows.get(&tuple) {
            let t = &mut *self.t;
            if let Some(conn) = t.conns[idx].as_mut() {
                conn.on_segment(sub, &seg, &pkt.payload, env, &mut t.events);
                self.post_process(idx, env);
                return;
            }
        }
        // 2. New SYN?
        if seg.hdr.flags.syn && !seg.hdr.flags.ack {
            // MP_JOIN: route by token.
            let join_token = seg.mptcp_opts().find_map(|o| match MpOption::decode(o) {
                Ok(MpOption::JoinSyn { token, .. }) => Some(token),
                _ => None,
            });
            if let Some(token) = join_token {
                if let Some(&idx) = self.t.by_token.get(&token) {
                    if let Some(conn) = self.t.conns[idx].as_mut() {
                        if let Some(sub) = conn.accept_join_syn(env, tuple, &seg) {
                            self.t.flows.insert(tuple, (idx, sub));
                            self.t.used_ports.insert((tuple.src, tuple.src_port));
                            return;
                        }
                    }
                }
                // Unknown token: refuse.
                self.send_rst(env, &tuple, &seg);
                return;
            }
            // MP_CAPABLE or plain SYN: needs a listener.
            if self.t.listeners.contains_key(&tuple.src_port) {
                let app = (self.t.listeners.get_mut(&tuple.src_port).unwrap())();
                let idx = self.t.conns.len();
                let conn = Connection::server_from_syn(
                    idx,
                    &self.cfg,
                    tuple,
                    &seg,
                    app,
                    env,
                    &mut self.t.events,
                );
                self.t.used_ports.insert((tuple.src, tuple.src_port));
                self.add_conn(tuple, conn);
                return;
            }
            self.send_rst(env, &tuple, &seg);
            return;
        }
        // 3. Anything else for an unknown flow: RST (unless it is an RST).
        if !seg.hdr.flags.rst {
            self.send_rst(env, &tuple, &seg);
        }
    }

    fn send_rst(&mut self, env: &mut StackEnv<'_>, tuple: &FourTuple, offending: &TcpView<'_>) {
        self.rst_sent += 1;
        let hdr = TcpFixed {
            src_port: tuple.src_port,
            dst_port: tuple.dst_port,
            seq: offending.hdr.ack,
            ack: SeqNum(
                offending
                    .hdr
                    .seq
                    .0
                    .wrapping_add(offending.payload.len() as u32)
                    .wrapping_add(offending.hdr.flags.syn as u32),
            ),
            flags: TcpFlags::RST,
            window: 0,
        };
        env.send_segment(
            tuple.src,
            tuple.dst,
            &hdr,
            &OptionWriter::new(),
            Bytes::new(),
        );
    }

    fn on_icmp(&mut self, env: &mut StackEnv<'_>, pkt: &Packet) {
        let Some(IcmpMsg::DestUnreachable {
            orig_src_port,
            orig_dst_port,
            ..
        }) = IcmpMsg::decode(pkt.payload.head())
        else {
            return;
        };
        // Find the subflow whose local port matches the original sender's
        // source port (we sent the packet the ICMP complains about). Should
        // two flows match, the oldest wins: a pick that followed the map's
        // hash order would change whenever the hasher does.
        let found = self
            .t
            .flows
            .iter()
            .filter(|(t, _)| t.src_port == orig_src_port && t.dst_port == orig_dst_port)
            .map(|(_, &flow)| flow)
            .min();
        if let Some((idx, sub)) = found {
            let t = &mut *self.t;
            if let Some(conn) = t.conns[idx].as_mut() {
                conn.on_icmp_unreachable(sub, env, &mut t.events);
            }
            self.post_process(idx, env);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Dispatch a stack timer token.
    pub fn on_timer(&mut self, env: &mut StackEnv<'_>, token: u64) {
        let Some((kind, idx, sub, gen)) = parse_timer_token(token) else {
            return;
        };
        let t = &mut *self.t;
        let Some(Some(conn)) = t.conns.get_mut(idx) else {
            return;
        };
        match kind {
            TimerKind::Rto => conn.on_rto_timer(sub, gen, env, &mut t.events),
            TimerKind::App => conn.on_app_timer(gen, env),
            TimerKind::MetaFin => conn.on_meta_fin_timer(gen, env, &mut t.events),
        }
        self.post_process(idx, env);
    }

    /// The slot holding the simulator handle of the timer `token` arms, for
    /// a host that re-arms it in place: a subflow's RTO or a connection's
    /// DATA_FIN timer, found by the token's own indices. `None` for
    /// application timers, which nothing supersedes.
    pub fn timer_handle_mut(&mut self, token: u64) -> Option<&mut Option<TimerHandle>> {
        let (kind, idx, sub, _) = parse_timer_token(token)?;
        self.t
            .conns
            .get_mut(idx)?
            .as_mut()?
            .timer_handle_mut(kind, sub)
    }

    // ------------------------------------------------------------------
    // Local address changes
    // ------------------------------------------------------------------

    /// An interface changed state. Emits the paper's `new_local_addr` /
    /// `del_local_addr` events; on down, kills subflows bound to the
    /// address (the NIC is gone — Linux errors them out the same way).
    pub fn on_local_addr(&mut self, env: &mut StackEnv<'_>, addr: Addr, up: bool) {
        self.set_local_addr(addr, up);
        self.t.events.push(if up {
            PmEvent::LocalAddrUp { addr }
        } else {
            PmEvent::LocalAddrDown { addr }
        });
        if !up {
            for idx in 0..self.t.conns.len() {
                let t = &mut *self.t;
                let Some(conn) = t.conns[idx].as_mut() else {
                    continue;
                };
                let victims: Vec<SubflowId> = conn
                    .live_subflow_ids()
                    .into_iter()
                    .filter(|&id| conn.subflow(id).is_some_and(|s| s.tuple.src == addr))
                    .collect();
                for id in victims {
                    conn.kill_subflow(id, SubflowError::IfaceDown, &mut t.events);
                }
                self.post_process(idx, env);
            }
        }
    }

    // ------------------------------------------------------------------
    // Path-manager actions
    // ------------------------------------------------------------------

    /// Apply one path-manager action. Returns false when the target
    /// connection/subflow no longer exists.
    pub fn apply_action(&mut self, env: &mut StackEnv<'_>, action: &PmAction) -> bool {
        let token = match action {
            PmAction::OpenSubflow { token, .. }
            | PmAction::CloseSubflow { token, .. }
            | PmAction::SetBackup { token, .. }
            | PmAction::AnnounceAddr { token, .. }
            | PmAction::WithdrawAddr { token, .. } => *token,
        };
        let Some(&idx) = self.t.by_token.get(&token) else {
            return false;
        };
        let t = &mut *self.t;
        let Some(conn) = t.conns[idx].as_mut() else {
            return false;
        };
        let ok = match action {
            PmAction::OpenSubflow {
                src,
                src_port,
                dst,
                dst_port,
                backup,
                ..
            } => {
                // The address must be local and up.
                if !self.t.local_addrs.iter().any(|(a, up)| a == src && *up) {
                    false
                } else {
                    let src_port = if *src_port == 0 {
                        match self.alloc_port(env, *src) {
                            Some(p) => p,
                            None => return false,
                        }
                    } else {
                        *src_port
                    };
                    let tuple = FourTuple {
                        src: *src,
                        src_port,
                        dst: *dst,
                        dst_port: *dst_port,
                    };
                    let conn = self.t.conns[idx].as_mut().unwrap();
                    match conn.open_subflow(env, tuple, *backup) {
                        Some(sub) => {
                            self.t.flows.insert(tuple, (idx, sub));
                            true
                        }
                        None => false,
                    }
                }
            }
            PmAction::CloseSubflow { id, reset, .. } => {
                conn.pm_close_subflow(*id, *reset, env, &mut t.events);
                true
            }
            PmAction::SetBackup { id, backup, .. } => {
                conn.pm_set_backup(*id, *backup, env);
                true
            }
            PmAction::AnnounceAddr { addr_id, addr, .. } => {
                conn.pm_announce_addr(*addr_id, *addr, env);
                true
            }
            PmAction::WithdrawAddr { addr_id, .. } => {
                conn.pm_withdraw_addr(*addr_id, env);
                true
            }
        };
        self.post_process(idx, env);
        ok
    }

    /// House-keeping after any connection activity: drop newly closed
    /// flows and fully closed connections from the demux tables. Their
    /// storage went to the thread's store as they closed.
    fn post_process(&mut self, idx: usize, _env: &mut StackEnv<'_>) {
        let t = &mut *self.t;
        let Some(conn) = t.conns[idx].as_mut() else {
            return;
        };
        // Only this connection's own subflows are walked, and each closed
        // one is looked up once: the table holds every flow of the host.
        for (id, tuple) in conn.reap_closed() {
            if t.flows.get(&tuple) == Some(&(idx, id)) {
                t.flows.remove(&tuple);
            }
        }
        if conn.state == ConnState::Closed {
            t.by_token.remove(&conn.token);
            // Keep the connection object for post-run inspection, but it no
            // longer participates in demux.
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Tokens of all connections (including closed ones, for reporting).
    pub fn tokens(&self) -> Vec<ConnToken> {
        self.t.conns.iter().flatten().map(|c| c.token).collect()
    }

    /// A connection by token (live) or by scanning (closed).
    pub fn conn_by_token(&self, token: ConnToken) -> Option<&Connection> {
        if let Some(&idx) = self.t.by_token.get(&token) {
            return self.t.conns[idx].as_ref();
        }
        self.t.conns.iter().flatten().find(|c| c.token == token)
    }

    /// All connections, in creation order.
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.t.conns.iter().flatten()
    }

    /// The connection in slot `idx` ([`Connection::idx`]), open or closed.
    pub fn connection(&self, idx: usize) -> Option<&Connection> {
        self.t.conns.get(idx)?.as_ref()
    }
}

impl StackView for HostStack {
    fn local_addrs(&self) -> Vec<Addr> {
        self.local_addrs_up().collect()
    }
    fn remote_addrs(&self, token: ConnToken) -> Vec<(u8, Addr, u16)> {
        self.conn_by_token(token)
            .map(|c| {
                let mut v = vec![(0u8, c.initial_remote.0, c.initial_remote.1)];
                v.extend(c.remote_addrs.iter().copied());
                v
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::apps::{BulkSender, GetClient, GetServer, Sink};
    use crate::conn::{ConnSpare, Role};
    use crate::subflow::SfState;
    use crate::subflow::SubflowSpare;
    use crate::world::{Side, World};
    use smapp_sim::{spare, SimTime};
    use std::time::Duration;

    #[test]
    fn post_process_reaps_exactly_the_closed_subflows_of_its_connection() {
        let (a0, a1, b0) = (
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 2, 1),
            Addr::new(10, 0, 1, 1),
        );
        let mut h = World::new(11, Duration::from_millis(5), &[a0, a1], &[b0]);
        h.listen(Side::B, 80, Box::new(|| Box::new(NullApp)));
        h.listen(
            Side::B,
            81,
            Box::new(|| {
                Box::new(Sink {
                    close_on_eof: true,
                    ..Default::default()
                })
            }),
        );
        let tuples = |s: &HostStack| s.t.flows.keys().copied().collect::<FxHashSet<FourTuple>>();

        // Three established connections with two subflows each.
        let tokens: Vec<ConnToken> = (0..3)
            .map(|_| h.connect(Side::A, 80, Box::new(NullApp)).unwrap())
            .collect();
        h.run_until(SimTime::from_secs(1));
        for &token in &tokens {
            assert!(h.apply(
                Side::A,
                &PmAction::OpenSubflow {
                    token,
                    src: a1,
                    src_port: 0,
                    dst: b0,
                    dst_port: 80,
                    backup: false,
                },
            ));
        }
        h.run_until(SimTime::from_secs(2));
        assert_eq!(h.a().t.flows.len(), 6);
        assert_eq!(h.b().t.flows.len(), 6);

        // Reset one subflow of the middle connection: exactly its tuple
        // leaves the demux table, on both hosts.
        let victim = h
            .a()
            .conn_by_token(tokens[1])
            .unwrap()
            .subflow(1)
            .unwrap()
            .tuple;
        let mut expect = tuples(h.a());
        h.apply(
            Side::A,
            &PmAction::CloseSubflow {
                token: tokens[1],
                id: 1,
                reset: true,
            },
        );
        h.run_until(SimTime::from_secs(3));
        assert!(expect.remove(&victim));
        assert_eq!(tuples(h.a()), expect);
        assert_eq!(h.b().t.flows.len(), 5);
        assert_eq!(h.a().t.by_token.len(), 3, "no connection closed yet");
        assert_eq!(h.b().t.by_token.len(), 3);

        // A fourth connection that closes completely takes its own flow
        // and token with it and nothing else.
        let short = h
            .connect(
                Side::A,
                81,
                Box::new(BulkSender::new(10_000).close_when_done()),
            )
            .unwrap();
        assert_eq!(h.a().t.by_token.len(), 4);
        h.run_until(SimTime::from_secs(10));
        assert_eq!(h.a().conn_by_token(short).unwrap().state, ConnState::Closed);
        assert!(!h.a().t.by_token.contains_key(&short));
        assert_eq!(h.a().t.by_token.len(), 3);
        assert_eq!(h.b().t.by_token.len(), 3);
        assert_eq!(tuples(h.a()), expect);
        assert_eq!(h.b().t.flows.len(), 5);
    }

    /// A dropped stack gives its emptied tables, and the snapshot storage
    /// of its connections' taps, to the thread; stacks built on them run
    /// exactly as stacks built on nothing.
    #[test]
    fn dropped_stacks_give_back_tables_and_taps() {
        let run = || {
            let (a0, b0) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
            let mut h = World::new(5, Duration::from_millis(5), &[a0], &[b0]);
            h.set_loss(Side::A, 0.02);
            h.listen(Side::B, 80, Box::new(|| Box::new(Sink::default())));
            let app = Box::new(BulkSender::new(300_000).close_when_done());
            let token = h.connect(Side::A, 80, app).unwrap();
            h.run_until(SimTime::from_secs(30));
            let conn = h.a().conn_by_token(token).unwrap();
            let tap = |t: &smapp_tcp::StreamTap| (t.count(), t.digest());
            let tuple = conn.subflow(0).unwrap().tuple;
            (token, tuple, tap(&conn.stats.tap_sent), h.now())
        };
        std::thread::spawn(move || {
            let fresh = run();
            let stacks = on_hand(0, |s: &[Box<Tables>]| {
                (s.len(), s.iter().all(|t| t.is_empty()))
            });
            assert_eq!(stacks, (2, true));
            // One spare per connection, by role, emptied. The client sent
            // the 300 kB and the server received them: each kept the one
            // tap that grew, in its own slot, and the subflow table too.
            let retired = |role: Role| {
                on_hand(role as u8, |s: &[Box<Retired>]| {
                    let grown = |r: &Retired| r.taps.each_ref().map(|t| t.capacity() > 0);
                    let seen = s
                        .iter()
                        .map(|r| (r.is_empty(), grown(r), r.subflows.capacity() > 0));
                    seen.collect::<Vec<_>>()
                })
            };
            let want = [[true, false], [false, true]].map(|taps| vec![(true, taps, true)]);
            assert_eq!(ROLES.map(retired), want);
            assert_eq!(run(), fresh);
        })
        .join()
        .unwrap();
    }

    /// Run `h` in 1 ms slices, calling `check` after each, until `done`.
    fn advance(
        h: &mut World,
        clock: &mut SimTime,
        check: &mut impl FnMut(&World),
        done: impl Fn(&World) -> bool,
    ) {
        for _ in 0..100_000 {
            if done(h) {
                return;
            }
            *clock += Duration::from_millis(1);
            h.run_until(*clock);
            check(h);
        }
        panic!("world stalled at {:?}", h.now());
    }

    const ROLES: [Role; 2] = [Role::Client, Role::Server];

    /// Live subflows and open connections of `role` on `h`: the world's
    /// side A opens every connection, so its stack holds the clients and
    /// side B's the servers.
    fn live(h: &World, role: Role) -> (usize, usize) {
        let stack = match role {
            Role::Client => h.a(),
            Role::Server => h.b(),
        };
        let subflows = stack.connections().map(|c| c.live_subflows().count());
        let open = stack.connections().filter(|c| c.state != ConnState::Closed);
        (subflows.sum(), open.count())
    }

    /// A connection that has just started: nothing in flight, reassembly
    /// or mappings, nothing tapped, the whole send buffer free.
    fn assert_fresh(conn: &Connection, send_buf: u64) {
        let sf = conn.subflow(0).unwrap();
        assert!(sf.flight.is_empty() && sf.recv_maps.is_empty());
        assert!(sf.reasm.next_expected() == 0 && !sf.reasm.has_hole());
        assert_eq!((conn.send_space(), conn.bytes_delivered()), (send_buf, 0));
        assert_eq!(conn.stats.tap_recvd.count(), 0);
        assert_eq!(conn.stats.tap_sent.count(), 0);
    }

    /// Both directions' stream taps agree: every byte sent arrived intact.
    fn assert_taps_match(client: &Connection, server: &Connection) {
        let tap = |t: &smapp_tcp::StreamTap| (t.count(), t.digest());
        assert_eq!(tap(&client.stats.tap_sent), tap(&server.stats.tap_recvd));
        assert_eq!(tap(&server.stats.tap_sent), tap(&client.stats.tap_recvd));
    }

    /// Read the spares of kind `T` the thread holds under `key`, in the
    /// order they were given back: they are taken out of the store for
    /// `f` and given back in the same order.
    fn on_hand<T: Recycle, R>(key: u8, f: impl FnOnce(&[T]) -> R) -> R {
        let kind = std::any::type_name::<T>();
        let mut stock = spare::stock().into_iter();
        let n = stock.find(|s| s.kind == kind && s.key == key);
        let n = n.map_or(0, |s| s.on_hand);
        let mut spares: Vec<T> = (0..n).map(|_| spare::take(key)).collect();
        spares.reverse();
        let read = f(&spares);
        spares.into_iter().for_each(|s| spare::give(key, s));
        read
    }

    /// How many subflow and connection spares the thread holds for `role`
    /// connections, after checking that none of them still holds
    /// anything.
    fn on_thread(role: Role) -> (usize, usize) {
        fn count<T: Recycle>(role: Role) -> usize {
            on_hand(role as u8, |s: &[T]| {
                assert!(s.iter().all(T::is_empty));
                s.len()
            })
        }
        (count::<SubflowSpare>(role), count::<ConnSpare>(role))
    }

    /// The flight and mapping ring capacities of each subflow spare the
    /// thread holds for `role` connections.
    fn subflow_rings(role: Role) -> Vec<(usize, usize)> {
        on_hand(role as u8, |s: &[SubflowSpare]| {
            s.iter().map(SubflowSpare::ring_capacities).collect()
        })
    }

    /// The thread's spares after taking one connection and one subflow.
    fn one_taken((subflows, conns): (usize, usize)) -> (usize, usize) {
        (subflows - 1, conns - 1)
    }

    #[test]
    fn chained_connections_reuse_spares_without_carrying_anything_over() {
        let (a0, a1, b0) = (
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 2, 1),
            Addr::new(10, 0, 1, 1),
        );
        let mut h = World::new(23, Duration::from_millis(5), &[a0, a1], &[b0]);
        h.set_loss(Side::A, 0.02);
        h.set_loss(Side::B, 0.02);
        // Both ends send, so the spares carry flight, reassembly and
        // mapping state from both stacks; every connection moves its own
        // byte counts.
        let server_size = |i: u64| 30_000 + 1_009 * i;
        let mut accepted = 0;
        h.listen(
            Side::B,
            80,
            Box::new(move || {
                accepted += 1;
                Box::new(BulkSender::new(server_size(accepted - 1)).close_when_done())
            }),
        );
        let send_buf = h.a().cfg.send_buf;
        // The most subflows and connections of each role ever live on the
        // thread, from what it held before. A spare comes from a live
        // object of its role and is taken first, so spares plus live
        // objects never pass that peak.
        let mut peak = ROLES.map(on_thread);
        let mut check = |h: &World| {
            for (role, peak) in ROLES.into_iter().zip(&mut peak) {
                let (live_sf, live_conns) = live(h, role);
                *peak = (peak.0.max(live_sf), peak.1.max(live_conns));
                let (spare_sf, spare_conns) = on_thread(role);
                assert!(spare_sf + live_sf <= peak.0);
                assert!(spare_conns + live_conns <= peak.1);
            }
        };
        let mut clock = SimTime::ZERO;
        let mut reused = [0; 2];
        let mut resets = 0;
        for i in 0..10u64 {
            let size = 60_000 + 7_919 * i;
            let before = on_thread(Role::Client);
            let app = Box::new(BulkSender::new(size).close_when_done());
            let token = h.connect(Side::A, 80, app).unwrap();
            if before.1 > 0 {
                // Built on the storage of an earlier client connection and
                // subflow, and none of their state came along.
                reused[0] += 1;
                assert_eq!(on_thread(Role::Client), one_taken(before));
            }
            assert_fresh(h.a().conn_by_token(token).unwrap(), send_buf);

            let before = on_thread(Role::Server);
            let established =
                |h: &World| h.a().conn_by_token(token).unwrap().state != ConnState::Establishing;
            advance(&mut h, &mut clock, &mut check, established);
            if before.1 > 0 {
                reused[1] += 1;
                assert_eq!(on_thread(Role::Server), one_taken(before));
            }
            if i % 2 == 0 {
                let open = PmAction::OpenSubflow {
                    token,
                    src: a1,
                    src_port: 0,
                    dst: b0,
                    dst_port: 80,
                    backup: false,
                };
                h.apply(Side::A, &open);
                if i % 4 == 0 {
                    // Kill the second subflow mid-transfer, flight and all,
                    // unless it ends before carrying anything.
                    let carrying_or_done = |h: &World| {
                        let sf = h.a().conn_by_token(token).unwrap().subflow(1).unwrap();
                        sf.state == SfState::Closed || !sf.flight.is_empty()
                    };
                    advance(&mut h, &mut clock, &mut check, carrying_or_done);
                    let conn = h.a().conn_by_token(token).unwrap();
                    if conn.subflow(1).unwrap().state == SfState::Established {
                        resets += 1;
                        let reset = PmAction::CloseSubflow {
                            token,
                            id: 1,
                            reset: true,
                        };
                        h.apply(Side::A, &reset);
                    }
                }
            }
            let both_closed = |h: &World| {
                h.a().conn_by_token(token).unwrap().state == ConnState::Closed
                    && h.b().connections().all(|c| c.state == ConnState::Closed)
            };
            advance(&mut h, &mut clock, &mut check, both_closed);

            let client = h.a().conn_by_token(token).unwrap();
            let server = h.b().connections().last().unwrap();
            let delivered = (server.bytes_delivered(), client.bytes_delivered());
            assert_eq!(delivered, (size, server_size(i)), "connection {i}");
            assert_taps_match(client, server);
        }
        assert_eq!(reused, [9, 9], "every connection after the first");
        assert!(resets > 0, "no subflow died mid-transfer");
        assert!(
            peak.iter().all(|p| p.0 >= 2 && p.1 >= 1),
            "both ends of two subflows live"
        );
    }

    #[test]
    fn a_dropped_stack_gives_its_open_connections_storage_to_the_thread() {
        let (a0, a1, b0) = (
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 2, 1),
            Addr::new(10, 0, 1, 1),
        );
        let world = || {
            let mut h = World::new(31, Duration::from_millis(5), &[a0, a1], &[b0]);
            h.set_loss(Side::A, 0.05);
            h.set_loss(Side::B, 0.05);
            h.listen(
                Side::B,
                80,
                Box::new(|| Box::new(BulkSender::new(200_000).close_when_done())),
            );
            h
        };
        let client_app = || Box::new(BulkSender::new(300_000).close_when_done());
        let mut clock = SimTime::ZERO;
        let mut h = world();
        let send_buf = h.a().cfg.send_buf;
        let token = h.connect(Side::A, 80, client_app()).unwrap();
        let established =
            |h: &World| h.a().conn_by_token(token).unwrap().state == ConnState::Established;
        advance(&mut h, &mut clock, &mut |_: &World| {}, established);
        let open = PmAction::OpenSubflow {
            token,
            src: a1,
            src_port: 0,
            dst: b0,
            dst_port: 80,
            backup: false,
        };
        assert!(h.apply(Side::A, &open));
        // Mid-transfer on both ends: data in flight and a hole in some
        // subflow's reassembly, so what the drop gives back held data.
        let busy = |s: &HostStack| {
            let conn = s.connections().next().unwrap();
            let sfs = || (0..conn.subflow_count() as u8).filter_map(|id| conn.subflow(id));
            sfs().any(|sf| !sf.flight.is_empty()) && sfs().any(|sf| sf.reasm.has_hole())
        };
        let both_busy = |h: &World| {
            h.a().conn_by_token(token).unwrap().subflow_count() == 2 && busy(h.a()) && busy(h.b())
        };
        advance(&mut h, &mut clock, &mut |_: &World| {}, both_busy);
        let open = ROLES.map(|role| live(&h, role));
        assert_eq!(
            open,
            [(2, 1); 2],
            "two subflows a side, both connections open"
        );

        let before = ROLES.map(on_thread);
        drop(h);
        for (i, role) in ROLES.into_iter().enumerate() {
            let (before, open) = (before[i], open[i]);
            assert_eq!(on_thread(role), (before.0 + open.0, before.1 + open.1));
        }

        // The next world on this thread starts on that storage, fresh.
        let mut h = world();
        let before = ROLES.map(on_thread);
        let token = h.connect(Side::A, 80, client_app()).unwrap();
        assert_eq!(on_thread(Role::Client), one_taken(before[0]));
        assert_fresh(h.a().conn_by_token(token).unwrap(), send_buf);
        let mut clock = SimTime::ZERO;
        let accepted = |h: &World| h.b().connections().next().is_some();
        advance(&mut h, &mut clock, &mut |_: &World| {}, accepted);
        assert_eq!(on_thread(Role::Server), one_taken(before[1]));
        assert_fresh(h.b().connections().next().unwrap(), send_buf);
        let both_closed = |h: &World| {
            h.a().conn_by_token(token).unwrap().state == ConnState::Closed
                && h.b().connections().all(|c| c.state == ConnState::Closed)
        };
        advance(&mut h, &mut clock, &mut |_: &World| {}, both_closed);
        let client = h.a().conn_by_token(token).unwrap();
        let server = h.b().connections().next().unwrap();
        assert_eq!(
            (server.bytes_delivered(), client.bytes_delivered()),
            (300_000, 200_000)
        );
        assert_taps_match(client, server);
    }

    /// A GET's client receives and its server sends, so each grows
    /// different rings. Once both have closed, the next client connection
    /// on the thread starts on the client's rings, and the server's stay
    /// for the next server connection.
    #[test]
    fn a_new_client_connection_starts_on_the_rings_a_client_grew() {
        std::thread::spawn(|| {
            let (a0, b0) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
            let mut h = World::new(7, Duration::from_millis(5), &[a0], &[b0]);
            h.listen(Side::B, 80, Box::new(|| Box::new(GetServer::new(200_000))));
            let get = || {
                Box::new(GetClient {
                    remaining: 0,
                    request_size: 100,
                    dst: b0,
                    dst_port: 80,
                    progress: Default::default(),
                    stop_when_done: false,
                })
            };
            let token = h.connect(Side::A, 80, get()).unwrap();
            let mut clock = SimTime::ZERO;
            let both_closed = |h: &World| {
                h.a().conn_by_token(token).unwrap().state == ConnState::Closed
                    && h.b().connections().all(|c| c.state == ConnState::Closed)
            };
            advance(&mut h, &mut clock, &mut |_: &World| {}, both_closed);
            assert_eq!(
                h.a().conn_by_token(token).unwrap().bytes_delivered(),
                200_000
            );

            // One subflow spare per role; the server's flight ring grew with
            // the response, the client's held one request.
            let rings = ROLES.map(subflow_rings);
            let [[client], [server]] = rings.map(|r| <[_; 1]>::try_from(r).unwrap());
            assert!(server.0 > client.0, "flight rings {client:?} {server:?}");

            h.connect(Side::A, 80, get()).unwrap();
            assert_eq!(on_thread(Role::Client), (0, 0), "the client's rings");
            assert_eq!(subflow_rings(Role::Server), [server]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn timer_token_roundtrip() {
        for kind in [TimerKind::Rto, TimerKind::App, TimerKind::MetaFin] {
            let t = timer_token(kind, 123, 7, 99_999);
            assert_eq!(parse_timer_token(t), Some((kind, 123, 7, 99_999)));
        }
        assert_eq!(parse_timer_token(0), None);
    }

    #[test]
    fn timer_token_max_fields() {
        let t = timer_token(TimerKind::Rto, (1 << 24) - 1, 255, (1 << 28) - 1);
        assert_eq!(
            parse_timer_token(t),
            Some((TimerKind::Rto, (1 << 24) - 1, 255, (1 << 28) - 1))
        );
    }
}
