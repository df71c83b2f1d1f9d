//! The host stack: connection table, demultiplexing, listeners, timers and
//! the path-manager boundary.
//!
//! One [`HostStack`] is the "kernel" of one simulated host. It owns every
//! connection, demultiplexes incoming packets to subflows (including
//! `MP_JOIN` SYNs routed by token), applies path-manager actions, and
//! surfaces [`PmEvent`]s for whatever path manager the host plugged in.

use std::cell::RefCell;

use smapp_sim::{
    Addr, FxHashMap, FxHashSet, IcmpMsg, Packet, SpareList, TimerHandle, PROTO_ICMP, PROTO_TCP,
};
use smapp_tcp::{OptionWriter, SeqNum, StreamTap, TcpFixed, TcpFlags, TcpView};

use crate::app::App;
use crate::config::StackConfig;
use crate::conn::{ConnSpare, ConnState, Connection};
use crate::env::StackEnv;
use crate::options::MpOption;
use crate::pm::{ConnToken, FourTuple, PmAction, PmEvent, StackView, SubflowError, SubflowId};
use crate::subflow::{SfState, SubflowSpare};

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

/// The thread's object cache, after the per-CPU magazines Linux keeps in
/// front of its slab caches (Bonwick & Adams, USENIX ATC 2001): the
/// emptied storage of the dead subflows and closed connections of every
/// stack on the thread, each handed to the next one of its kind, on any
/// stack, before that one allocates anything. A spare comes from an
/// object that was live, and spares are taken first, so the spares and
/// live objects of a kind never outnumber the most that were live at once
/// on the thread: no cap is needed. The price is that the thread keeps
/// that much storage after the stacks are gone, for the next world it
/// builds. Capacity is not observable, so reuse moves no trajectory.
///
/// Two kinds outlive a connection's close and are given back when its
/// stack is dropped instead: the snapshot storage of its stream taps,
/// which post-run checks read, and the stack's own tables.
pub(crate) struct Spares {
    subflows: Vec<SubflowSpare>,
    conns: Vec<ConnSpare>,
    taps: SpareList<Vec<u64>>,
    stacks: SpareList<StackSpare>,
}

/// The tables of a dropped [`HostStack`], emptied. The hash tables are
/// only probed, never iterated, so their capacity reaches no trajectory.
#[derive(Default)]
struct StackSpare {
    conns: Vec<Option<Connection>>,
    flows: FxHashMap<FourTuple, (usize, SubflowId)>,
    by_token: FxHashMap<ConnToken, usize>,
    listeners: FxHashMap<u16, AppFactory>,
    local_addrs: Vec<(Addr, bool)>,
    used_ports: FxHashSet<(Addr, u16)>,
    events: Vec<PmEvent>,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            subflows: Vec::new(),
            conns: Vec::new(),
            taps: SpareList::new(),
            stacks: SpareList::new(),
        })
    };
}

impl Spares {
    /// The storage the thread last got back from a subflow, or none.
    pub(crate) fn take_subflow() -> SubflowSpare {
        SPARES
            .with(|s| s.borrow_mut().subflows.pop())
            .unwrap_or_default()
    }

    /// The storage the thread last got back from a connection, or none.
    pub(crate) fn take_conn() -> ConnSpare {
        SPARES
            .with(|s| s.borrow_mut().conns.pop())
            .unwrap_or_default()
    }

    /// The snapshot storage the thread last got back from a stream tap,
    /// or none.
    pub(crate) fn take_snaps() -> Vec<u64> {
        SPARES
            .with(|s| s.borrow_mut().taps.take())
            .unwrap_or_default()
    }

    /// The tables the thread last got back from a stack, or none.
    fn take_stack() -> StackSpare {
        SPARES
            .with(|s| s.borrow_mut().stacks.take())
            .unwrap_or_default()
    }

    /// Give the thread a dead subflow's emptied storage. `try_with`: a
    /// stack dropped while its thread exits gives back what it held, and
    /// the set may already be gone; the storage is then simply freed.
    pub(crate) fn give_subflow(spare: SubflowSpare) {
        let _ = SPARES.try_with(|s| s.borrow_mut().subflows.push(spare));
    }

    /// Give the thread a closed connection's emptied storage (see
    /// [`Spares::give_subflow`]).
    pub(crate) fn give_conn(spare: ConnSpare) {
        let _ = SPARES.try_with(|s| s.borrow_mut().conns.push(spare));
    }

    /// Give the thread a dropped connection's tap snapshot storage, emptied
    /// (see [`Spares::give_subflow`]).
    fn give_taps(snaps: [Vec<u64>; 2]) {
        let _ = SPARES.try_with(|s| {
            let taps = &mut s.borrow_mut().taps;
            snaps.into_iter().for_each(|t| taps.give(t));
        });
    }

    /// Give the thread a dropped stack's emptied tables (see
    /// [`Spares::give_subflow`]).
    fn give_stack(stack: StackSpare) {
        let _ = SPARES.try_with(|s| s.borrow_mut().stacks.give(stack));
    }

    /// How many subflow and connection spares the thread holds, after
    /// checking that none of them still holds anything.
    #[cfg(test)]
    pub(crate) fn on_thread() -> (usize, usize) {
        SPARES.with(|s| {
            let s = s.borrow();
            assert!(s.subflows.iter().all(SubflowSpare::holds_nothing));
            assert!(s.conns.iter().all(ConnSpare::holds_nothing));
            (s.subflows.len(), s.conns.len())
        })
    }
}

/// The per-host TCP/MPTCP stack.
pub struct HostStack {
    /// Configuration shared by all connections.
    pub cfg: StackConfig,
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
    /// Count of RSTs sent to unknown flows (diagnostics).
    pub rst_sent: u64,
}

impl HostStack {
    /// A stack with the given configuration, on the tables the last stack
    /// dropped on this thread gave back.
    pub fn new(cfg: StackConfig) -> Self {
        let StackSpare {
            conns,
            flows,
            by_token,
            listeners,
            local_addrs,
            used_ports,
            events,
        } = Spares::take_stack();
        HostStack {
            cfg,
            conns,
            flows,
            by_token,
            listeners,
            local_addrs,
            used_ports,
            events,
            rst_sent: 0,
        }
    }

    // ------------------------------------------------------------------
    // Host plumbing
    // ------------------------------------------------------------------

    /// Register the host's local addresses (call at start and on change).
    pub fn set_local_addr(&mut self, addr: Addr, up: bool) {
        match self.local_addrs.iter_mut().find(|(a, _)| *a == addr) {
            Some(slot) => slot.1 = up,
            None => self.local_addrs.push((addr, up)),
        }
    }

    /// Local addresses currently up.
    pub fn local_addrs_up(&self) -> Vec<Addr> {
        self.local_addrs
            .iter()
            .filter(|(_, up)| *up)
            .map(|(a, _)| *a)
            .collect()
    }

    /// Move pending path-manager events into `into` (cleared first). The
    /// two vectors trade places, so both keep their capacity.
    pub fn swap_events(&mut self, into: &mut Vec<PmEvent>) {
        into.clear();
        std::mem::swap(&mut self.events, into);
    }

    /// Listen on a port; `factory` builds the per-connection server app.
    pub fn listen(&mut self, port: u16, factory: AppFactory) {
        self.listeners.insert(port, factory);
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
        let first_up = self.local_addrs.iter().find(|(_, up)| *up);
        let src = src.or(first_up.map(|&(a, _)| a))?;
        let src_port = self.alloc_port(env, src)?;
        let tuple = FourTuple {
            src,
            src_port,
            dst,
            dst_port,
        };
        let events = &mut self.events;
        let conn = Connection::client(self.conns.len(), &self.cfg, tuple, app, env, events);
        Some(self.add_conn(tuple, conn))
    }

    /// Enter a new connection in the demux tables and a slot. Slots start
    /// at one, not `Vec`'s four: most hosts hold one connection.
    fn add_conn(&mut self, tuple: FourTuple, conn: Connection) -> ConnToken {
        if self.conns.capacity() == 0 {
            self.conns.reserve_exact(1);
        }
        let (idx, token) = (self.conns.len(), conn.token);
        self.flows.insert(tuple, (idx, 0));
        self.by_token.insert(token, idx);
        self.conns.push(Some(conn));
        token
    }

    fn alloc_port(&mut self, env: &mut StackEnv<'_>, addr: Addr) -> Option<u16> {
        for _ in 0..64 {
            let p = env.rng.ephemeral_port();
            if self.used_ports.insert((addr, p)) {
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
        if let Some(&(idx, sub)) = self.flows.get(&tuple) {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.on_segment(sub, &seg, &pkt.payload, env, &mut self.events);
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
                if let Some(&idx) = self.by_token.get(&token) {
                    if let Some(conn) = self.conns[idx].as_mut() {
                        if let Some(sub) = conn.accept_join_syn(env, tuple, &seg) {
                            self.flows.insert(tuple, (idx, sub));
                            self.used_ports.insert((tuple.src, tuple.src_port));
                            return;
                        }
                    }
                }
                // Unknown token: refuse.
                self.send_rst(env, &tuple, &seg);
                return;
            }
            // MP_CAPABLE or plain SYN: needs a listener.
            if self.listeners.contains_key(&tuple.src_port) {
                let app = (self.listeners.get_mut(&tuple.src_port).unwrap())();
                let idx = self.conns.len();
                let conn = Connection::server_from_syn(
                    idx,
                    &self.cfg,
                    tuple,
                    &seg,
                    app,
                    env,
                    &mut self.events,
                );
                self.used_ports.insert((tuple.src, tuple.src_port));
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
        env.send_segment(tuple.src, tuple.dst, &hdr, &OptionWriter::new(), &[]);
    }

    fn on_icmp(&mut self, env: &mut StackEnv<'_>, pkt: &Packet) {
        let Some(IcmpMsg::DestUnreachable {
            orig_src_port,
            orig_dst_port,
            ..
        }) = IcmpMsg::decode(&pkt.payload)
        else {
            return;
        };
        // Find the subflow whose local port matches the original sender's
        // source port (we sent the packet the ICMP complains about). Should
        // two flows match, the oldest wins: a pick that followed the map's
        // hash order would change whenever the hasher does.
        let found = self
            .flows
            .iter()
            .filter(|(t, _)| t.src_port == orig_src_port && t.dst_port == orig_dst_port)
            .map(|(_, &flow)| flow)
            .min();
        if let Some((idx, sub)) = found {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.on_icmp_unreachable(sub, env, &mut self.events);
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
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return;
        };
        match kind {
            TimerKind::Rto => conn.on_rto_timer(sub, gen, env, &mut self.events),
            TimerKind::App => conn.on_app_timer(gen, env),
            TimerKind::MetaFin => conn.on_meta_fin_timer(gen, env, &mut self.events),
        }
        self.post_process(idx, env);
    }

    /// The slot holding the simulator handle of the timer `token` arms, for
    /// a host that re-arms it in place: a subflow's RTO or a connection's
    /// DATA_FIN timer, found by the token's own indices. `None` for
    /// application timers, which nothing supersedes.
    pub fn timer_handle_mut(&mut self, token: u64) -> Option<&mut Option<TimerHandle>> {
        let (kind, idx, sub, _) = parse_timer_token(token)?;
        self.conns
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
        self.events.push(if up {
            PmEvent::LocalAddrUp { addr }
        } else {
            PmEvent::LocalAddrDown { addr }
        });
        if !up {
            for idx in 0..self.conns.len() {
                let Some(conn) = self.conns[idx].as_mut() else {
                    continue;
                };
                let victims: Vec<SubflowId> = conn
                    .live_subflow_ids()
                    .into_iter()
                    .filter(|&id| conn.subflow(id).is_some_and(|s| s.tuple.src == addr))
                    .collect();
                for id in victims {
                    conn.kill_subflow(id, SubflowError::IfaceDown, &mut self.events);
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
        let Some(&idx) = self.by_token.get(&token) else {
            return false;
        };
        let Some(conn) = self.conns[idx].as_mut() else {
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
                if !self.local_addrs.iter().any(|(a, up)| a == src && *up) {
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
                    let conn = self.conns[idx].as_mut().unwrap();
                    match conn.open_subflow(env, tuple, *backup) {
                        Some(sub) => {
                            self.flows.insert(tuple, (idx, sub));
                            true
                        }
                        None => false,
                    }
                }
            }
            PmAction::CloseSubflow { id, reset, .. } => {
                conn.pm_close_subflow(*id, *reset, env, &mut self.events);
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

    /// House-keeping after any connection activity: drop closed flows and
    /// fully closed connections from the demux tables. Their storage went
    /// to the thread's [`Spares`] as they closed.
    fn post_process(&mut self, idx: usize, _env: &mut StackEnv<'_>) {
        let Some(conn) = self.conns[idx].as_ref() else {
            return;
        };
        // Only this connection's own subflows are walked: the table holds
        // every flow of the host.
        for sf in conn.subflows() {
            if sf.state == SfState::Closed && self.flows.get(&sf.tuple) == Some(&(idx, sf.id)) {
                self.flows.remove(&sf.tuple);
            }
        }
        if conn.state == ConnState::Closed {
            self.by_token.remove(&conn.token);
            // Keep the connection object for post-run inspection, but it no
            // longer participates in demux.
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Tokens of all connections (including closed ones, for reporting).
    pub fn tokens(&self) -> Vec<ConnToken> {
        self.conns.iter().flatten().map(|c| c.token).collect()
    }

    /// A connection by token (live) or by scanning (closed).
    pub fn conn_by_token(&self, token: ConnToken) -> Option<&Connection> {
        if let Some(&idx) = self.by_token.get(&token) {
            return self.conns[idx].as_ref();
        }
        self.conns.iter().flatten().find(|c| c.token == token)
    }

    /// All connections, in creation order.
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter().flatten()
    }

    /// The connection in slot `idx` ([`Connection::idx`]), open or closed.
    pub fn connection(&self, idx: usize) -> Option<&Connection> {
        self.conns.get(idx)?.as_ref()
    }
}

impl Drop for HostStack {
    /// World teardown: every connection still open gives its storage, and
    /// its open subflows', to the thread as closing would have; then the
    /// connections' stream taps and the stack's emptied tables follow, so
    /// the next world's stacks start on all of it.
    fn drop(&mut self) {
        let open = self.conns.iter_mut().flatten();
        for conn in open.filter(|c| c.state != ConnState::Closed) {
            conn.release_buffers();
        }
        for conn in self.conns.drain(..).flatten() {
            let taps = [conn.stats.tap_sent, conn.stats.tap_recvd];
            Spares::give_taps(taps.map(StreamTap::into_spare));
        }
        self.flows.clear();
        self.by_token.clear();
        self.listeners.clear();
        self.local_addrs.clear();
        self.used_ports.clear();
        self.events.clear();
        let stack = StackSpare {
            conns: std::mem::take(&mut self.conns),
            flows: std::mem::take(&mut self.flows),
            by_token: std::mem::take(&mut self.by_token),
            listeners: std::mem::take(&mut self.listeners),
            local_addrs: std::mem::take(&mut self.local_addrs),
            used_ports: std::mem::take(&mut self.used_ports),
            events: std::mem::take(&mut self.events),
        };
        Spares::give_stack(stack);
    }
}

impl StackView for HostStack {
    fn local_addrs(&self) -> Vec<Addr> {
        self.local_addrs_up()
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
    use crate::apps::{BulkSender, Sink};
    use crate::harness::{Harness, Side};
    use smapp_sim::SimTime;
    use std::time::Duration;

    #[test]
    fn post_process_reaps_exactly_the_closed_subflows_of_its_connection() {
        let (a0, a1, b0) = (
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 2, 1),
            Addr::new(10, 0, 1, 1),
        );
        let mut h = Harness::new(11, Duration::from_millis(5), vec![a0, a1], vec![b0]);
        h.b.listen(80, Box::new(|| Box::new(NullApp)));
        h.b.listen(
            81,
            Box::new(|| {
                Box::new(Sink {
                    close_on_eof: true,
                    ..Default::default()
                })
            }),
        );
        let tuples = |s: &HostStack| s.flows.keys().copied().collect::<FxHashSet<FourTuple>>();

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
        assert_eq!(h.a.flows.len(), 6);
        assert_eq!(h.b.flows.len(), 6);

        // Reset one subflow of the middle connection: exactly its tuple
        // leaves the demux table, on both hosts.
        let victim =
            h.a.conn_by_token(tokens[1])
                .unwrap()
                .subflow(1)
                .unwrap()
                .tuple;
        let mut expect = tuples(&h.a);
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
        assert_eq!(tuples(&h.a), expect);
        assert_eq!(h.b.flows.len(), 5);
        assert_eq!(h.a.by_token.len(), 3, "no connection closed yet");
        assert_eq!(h.b.by_token.len(), 3);

        // A fourth connection that closes completely takes its own flow
        // and token with it and nothing else.
        let short = h
            .connect(
                Side::A,
                81,
                Box::new(BulkSender::new(10_000).close_when_done()),
            )
            .unwrap();
        assert_eq!(h.a.by_token.len(), 4);
        h.run_until(SimTime::from_secs(10));
        assert_eq!(h.a.conn_by_token(short).unwrap().state, ConnState::Closed);
        assert!(!h.a.by_token.contains_key(&short));
        assert_eq!(h.a.by_token.len(), 3);
        assert_eq!(h.b.by_token.len(), 3);
        assert_eq!(tuples(&h.a), expect);
        assert_eq!(h.b.flows.len(), 5);
    }

    /// A dropped stack gives its emptied tables, and the snapshot storage
    /// of its connections' taps, to the thread; stacks built on them run
    /// exactly as stacks built on nothing.
    #[test]
    fn dropped_stacks_give_back_tables_and_taps() {
        let run = || {
            let (a0, b0) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
            let mut h = Harness::new(5, Duration::from_millis(5), vec![a0], vec![b0]);
            h.loss_a2b = 0.02;
            h.b.listen(80, Box::new(|| Box::new(Sink::default())));
            let app = Box::new(BulkSender::new(300_000).close_when_done());
            let token = h.connect(Side::A, 80, app).unwrap();
            h.run_until(SimTime::from_secs(30));
            let conn = h.a.conn_by_token(token).unwrap();
            let tap = |t: &smapp_tcp::StreamTap| (t.count(), t.digest());
            let tuple = conn.subflow(0).unwrap().tuple;
            (token, tuple, tap(&conn.stats.tap_sent), h.now())
        };
        std::thread::spawn(move || {
            let fresh = run();
            fn on_thread<R>(f: impl FnOnce(&Spares) -> R) -> R {
                SPARES.with(|s| f(&s.borrow()))
            }
            assert_eq!(on_thread(|s| s.stacks.len()), 2);
            assert_eq!(on_thread(|s| s.taps.len()), 4, "two taps per connection");
            let grown = on_thread(|s| s.taps.iter().filter(|t| t.capacity() > 0).count());
            assert_eq!(grown, 2, "the two taps that saw 300 kB");
            let emptied = |t: &StackSpare| {
                t.conns.is_empty()
                    && t.flows.is_empty()
                    && t.by_token.is_empty()
                    && t.listeners.is_empty()
                    && t.local_addrs.is_empty()
                    && t.used_ports.is_empty()
                    && t.events.is_empty()
            };
            assert!(on_thread(|s| s.stacks.iter().all(emptied)));
            assert!(on_thread(|s| s.taps.iter().all(Vec::is_empty)));
            assert_eq!(run(), fresh);
        })
        .join()
        .unwrap();
    }

    /// Run `h` in 1 ms slices, calling `check` after each, until `done`.
    fn advance(
        h: &mut Harness,
        clock: &mut SimTime,
        check: &mut impl FnMut(&Harness),
        done: impl Fn(&Harness) -> bool,
    ) {
        for _ in 0..100_000 {
            if done(h) {
                return;
            }
            *clock += Duration::from_millis(1);
            h.run_until(*clock);
            check(h);
        }
        panic!("harness stalled at {:?}", h.now());
    }

    /// Live subflows and connections on both of `h`'s stacks.
    fn live(h: &Harness) -> (usize, usize) {
        let conns = || h.a.connections().chain(h.b.connections());
        let subflows = conns().map(|c| c.live_subflows().count()).sum();
        let open = conns().filter(|c| c.state != ConnState::Closed).count();
        (subflows, open)
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
        let mut h = Harness::new(23, Duration::from_millis(5), vec![a0, a1], vec![b0]);
        h.loss_a2b = 0.02;
        h.loss_b2a = 0.02;
        // Both ends send, so the spares carry flight, reassembly and
        // mapping state from both stacks; every connection moves its own
        // byte counts.
        let server_size = |i: u64| 30_000 + 1_009 * i;
        let mut accepted = 0;
        h.b.listen(
            80,
            Box::new(move || {
                accepted += 1;
                Box::new(BulkSender::new(server_size(accepted - 1)).close_when_done())
            }),
        );
        let send_buf = h.a.cfg.send_buf;
        // The most subflows and connections ever live on the thread, from
        // what it held before. A spare comes from a live object and is
        // taken first, so spares plus live objects never pass that peak.
        let mut peak = Spares::on_thread();
        let mut check = |h: &Harness| {
            let (live_sf, live_conns) = live(h);
            peak = (peak.0.max(live_sf), peak.1.max(live_conns));
            let (spare_sf, spare_conns) = Spares::on_thread();
            assert!(spare_sf + live_sf <= peak.0);
            assert!(spare_conns + live_conns <= peak.1);
        };
        let mut clock = SimTime::ZERO;
        let mut reused = [0; 2];
        let mut resets = 0;
        for i in 0..10u64 {
            let size = 60_000 + 7_919 * i;
            let before = Spares::on_thread();
            let app = Box::new(BulkSender::new(size).close_when_done());
            let token = h.connect(Side::A, 80, app).unwrap();
            let after_client = Spares::on_thread();
            if before.1 > 0 {
                // Built on the storage of an earlier connection and
                // subflow, and none of their state came along.
                reused[0] += 1;
                assert_eq!(after_client, one_taken(before));
            }
            assert_fresh(h.a.conn_by_token(token).unwrap(), send_buf);

            let established =
                |h: &Harness| h.a.conn_by_token(token).unwrap().state != ConnState::Establishing;
            advance(&mut h, &mut clock, &mut check, established);
            if after_client.1 > 0 {
                reused[1] += 1;
                assert_eq!(Spares::on_thread(), one_taken(after_client));
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
                    let carrying_or_done = |h: &Harness| {
                        let sf = h.a.conn_by_token(token).unwrap().subflow(1).unwrap();
                        sf.state == SfState::Closed || !sf.flight.is_empty()
                    };
                    advance(&mut h, &mut clock, &mut check, carrying_or_done);
                    let conn = h.a.conn_by_token(token).unwrap();
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
            let both_closed = |h: &Harness| {
                h.a.conn_by_token(token).unwrap().state == ConnState::Closed
                    && h.b.connections().all(|c| c.state == ConnState::Closed)
            };
            advance(&mut h, &mut clock, &mut check, both_closed);

            let client = h.a.conn_by_token(token).unwrap();
            let server = h.b.connections().last().unwrap();
            let delivered = (server.bytes_delivered(), client.bytes_delivered());
            assert_eq!(delivered, (size, server_size(i)), "connection {i}");
            assert_taps_match(client, server);
        }
        assert_eq!(reused, [9, 9], "every connection after the first");
        assert!(resets > 0, "no subflow died mid-transfer");
        assert!(peak.0 >= 4 && peak.1 >= 2, "both ends of two subflows live");
    }

    #[test]
    fn a_dropped_stack_gives_its_open_connections_storage_to_the_thread() {
        let (a0, a1, b0) = (
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 2, 1),
            Addr::new(10, 0, 1, 1),
        );
        let harness = || {
            let mut h = Harness::new(31, Duration::from_millis(5), vec![a0, a1], vec![b0]);
            h.loss_a2b = 0.05;
            h.loss_b2a = 0.05;
            h.b.listen(
                80,
                Box::new(|| Box::new(BulkSender::new(200_000).close_when_done())),
            );
            h
        };
        let client_app = || Box::new(BulkSender::new(300_000).close_when_done());
        let mut clock = SimTime::ZERO;
        let mut h = harness();
        let send_buf = h.a.cfg.send_buf;
        let token = h.connect(Side::A, 80, client_app()).unwrap();
        let established =
            |h: &Harness| h.a.conn_by_token(token).unwrap().state == ConnState::Established;
        advance(&mut h, &mut clock, &mut |_: &Harness| {}, established);
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
        let both_busy = |h: &Harness| {
            h.a.conn_by_token(token).unwrap().subflow_count() == 2 && busy(&h.a) && busy(&h.b)
        };
        advance(&mut h, &mut clock, &mut |_: &Harness| {}, both_busy);
        let open = live(&h);
        assert_eq!(open, (4, 2), "two subflows a side, both connections open");

        let before = Spares::on_thread();
        drop(h);
        assert_eq!(Spares::on_thread(), (before.0 + open.0, before.1 + open.1));

        // The next world on this thread starts on that storage, fresh.
        let mut h = harness();
        let before = Spares::on_thread();
        let token = h.connect(Side::A, 80, client_app()).unwrap();
        let after_client = Spares::on_thread();
        assert_eq!(after_client, one_taken(before));
        assert_fresh(h.a.conn_by_token(token).unwrap(), send_buf);
        let mut clock = SimTime::ZERO;
        let accepted = |h: &Harness| h.b.connections().next().is_some();
        advance(&mut h, &mut clock, &mut |_: &Harness| {}, accepted);
        assert_eq!(Spares::on_thread(), one_taken(after_client));
        assert_fresh(h.b.connections().next().unwrap(), send_buf);
        let both_closed = |h: &Harness| {
            h.a.conn_by_token(token).unwrap().state == ConnState::Closed
                && h.b.connections().all(|c| c.state == ConnState::Closed)
        };
        advance(&mut h, &mut clock, &mut |_: &Harness| {}, both_closed);
        let client = h.a.conn_by_token(token).unwrap();
        let server = h.b.connections().next().unwrap();
        assert_eq!(
            (server.bytes_delivered(), client.bytes_delivered()),
            (300_000, 200_000)
        );
        assert_taps_match(client, server);
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
