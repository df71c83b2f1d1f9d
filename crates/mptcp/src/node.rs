//! The stack and its kernel path manager as one simulator node.
//!
//! [`StackNode`] is the one drive loop of every simulated endpoint. It
//! feeds each packet, timer, connect, path-manager action and interface
//! change through the [`HostStack`], runs the kernel path manager over the
//! events the call raised, and hands the sends and timer arms to the
//! simulator, and offers each event to the node's [`Subscription`].
//! `smapp_pm::Host` adds the netlink process on top; the protocol tests
//! run two of these on either side of a router.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Duration;

use smapp_sim::{Addr, Ctx, IfaceId, Node, Packet, SimTime, Spare};

use crate::app::App;
use crate::config::StackConfig;
use crate::env::{ConnectRequest, OutPacket, StackEnv};
use crate::pm::{NoopPm, PathManagerHook, PmActions, PmEvent};
use crate::scheduler::SchedCandidate;
use crate::stack::HostStack;

/// Timer-token domain of scheduled connects (top nibble). Domains 1–3
/// belong to the stack; 4–6 are left to the node's owner.
const D_CONNECT: u64 = 7 << 60;

/// A client connection scheduled for a future simulated time:
/// `(when, source address, destination, port, app)`.
type ScheduledConnect = (SimTime, Option<Addr>, Addr, u16, Option<Box<dyn App>>);

/// Reusable buffers for [`StackNode::drive`], so the per-event hot path
/// does not re-allocate its scratch vectors for every packet or timer.
/// One set per thread, shared by every node on it: a drive borrows it in
/// place and leaves it emptied, with its capacity. Capacity is not
/// observable, so sharing moves no trajectory.
#[derive(Default)]
struct DriveScratch {
    /// Connects raised by applications, run one after another.
    work: VecDeque<ConnectRequest>,
    packets: Vec<OutPacket>,
    timers: Vec<(Duration, u64)>,
    connects: Vec<ConnectRequest>,
    /// Path-manager events of the current stack call, swapped out of the
    /// stack by [`HostStack::swap_events`].
    events: Vec<PmEvent>,
    /// The kernel path manager's answers to `events`.
    actions: PmActions,
    /// The scheduler's candidate list, lent to every pump of the drive.
    cands: Vec<SchedCandidate>,
}

thread_local! {
    /// The thread's set, borrowed in place by each drive. Drives do not
    /// nest, so it is always free when one borrows it; a nested borrow
    /// would panic.
    static SCRATCH: RefCell<DriveScratch> = RefCell::default();
}

/// The events a userspace subflow controller registered for: "the
/// subflow controller receives only notifications for events it
/// registered to" (§3). It is offered every event the kernel path
/// manager sees, in the same order.
#[derive(Debug, Default)]
pub struct Subscription {
    /// Bits of [`PmEvent::mask_bit`]; 0 until someone subscribes.
    mask: u32,
    /// Events kept and not taken yet, on a vector taken from the thread's
    /// spares at the first subscribe: a node nobody subscribes to has none.
    events: Option<Spare<Vec<PmEvent>>>,
    /// Events withheld, by the mask or for want of a subscriber.
    pub suppressed: u64,
}

impl Subscription {
    /// Keep from now on the events whose mask bit is in `mask`.
    pub fn subscribe(&mut self, mask: u32) {
        self.mask = mask;
        self.events.get_or_insert_with(Spare::default);
    }

    fn offer(&mut self, ev: &PmEvent) {
        match &mut self.events {
            Some(kept) if ev.mask_bit() & self.mask != 0 => kept.push(ev.clone()),
            _ => self.suppressed += 1,
        }
    }

    /// The events kept and not taken yet, oldest first.
    pub fn events(&self) -> &[PmEvent] {
        self.events.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Move the kept events into `into` (cleared first). The two vectors
    /// trade places, so both keep their capacity.
    pub fn swap_events(&mut self, into: &mut Vec<PmEvent>) {
        into.clear();
        if let Some(kept) = &mut self.events {
            std::mem::swap(&mut **kept, into);
        }
    }
}

/// A host's MPTCP stack and the kernel path manager plugged into it.
pub struct StackNode {
    /// The in-kernel stack.
    pub stack: HostStack,
    /// The kernel path manager plugged into the stack.
    pub pm: Box<dyn PathManagerHook>,
    /// The events a userspace subflow controller registered for.
    pub subscription: Subscription,
    /// Connects queued by [`StackNode::connect_at`], indexed by their
    /// timer tokens.
    connects: Spare<Vec<ScheduledConnect>>,
}

impl StackNode {
    /// A node with the given stack config and no path manager (`NoopPm`),
    /// on the connect queue the last node dropped on this thread gave
    /// back.
    pub fn new(cfg: StackConfig) -> Self {
        StackNode {
            stack: HostStack::new(cfg),
            pm: Box::new(NoopPm),
            subscription: Subscription::default(),
            connects: Spare::default(),
        }
    }

    /// Schedule a client connection at simulated time `at`.
    pub fn connect_at(
        &mut self,
        at: SimTime,
        src: Option<Addr>,
        dst: Addr,
        dst_port: u16,
        app: Box<dyn App>,
    ) {
        self.connects.push((at, src, dst, dst_port, Some(app)));
    }

    /// Run `first` against the stack, then every connect the applications
    /// raise, each followed by the kernel path manager's rounds; then send
    /// the packets and arm the timers they produced, in order. The one
    /// entry point for work, the simulator's and a test's alike.
    pub fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        first: impl FnOnce(&mut HostStack, &mut StackEnv<'_>) -> R,
    ) -> R {
        SCRATCH.with_borrow_mut(|s| {
            let (r, mut stop) = self.run_stack(ctx, s, first);
            loop {
                for c in s.connects.drain(..) {
                    s.work.push_back(c);
                }
                let Some(c) = s.work.pop_front() else {
                    break;
                };
                let connect = |stack: &mut HostStack, env: &mut StackEnv<'_>| {
                    stack.connect(env, c.src, c.dst, c.dst_port, c.app);
                };
                stop |= self.run_stack(ctx, s, connect).1;
            }
            for p in s.packets.drain(..) {
                if let Some(iface) = ctx.my_iface_by_addr(p.src) {
                    ctx.send(iface, Packet::tcp(p.src, p.dst, p.seg));
                }
            }
            for (d, t) in s.timers.drain(..) {
                // A timer the stack restarts on every arm (RTO, DATA_FIN) is
                // re-armed through the handle it keeps, in place when later.
                match self.stack.timer_handle_mut(t) {
                    Some(held) => {
                        *held = Some(match *held {
                            Some(h) => ctx.rearm_timer_after(h, d, t),
                            None => ctx.set_timer_after(d, t),
                        })
                    }
                    None => {
                        ctx.set_timer_after(d, t);
                    }
                }
            }
            if stop {
                ctx.stop();
            }
            // A run of eight path-manager rounds may leave its last events.
            s.events.clear();
            r
        })
    }

    /// Run one stack call, then the kernel path-manager loop. Outputs are
    /// *appended* to the scratch buffers (which become the stack env's),
    /// preserving emission order across the calls of one drive. Returns
    /// the call's result and whether an application asked to stop.
    fn run_stack<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        s: &mut DriveScratch,
        call: impl FnOnce(&mut HostStack, &mut StackEnv<'_>) -> R,
    ) -> (R, bool) {
        let mut env = StackEnv {
            now: ctx.now(),
            rng: ctx.rng(),
            out: std::mem::take(&mut s.packets),
            timers: std::mem::take(&mut s.timers),
            connects: std::mem::take(&mut s.connects),
            stop: false,
            cands: std::mem::take(&mut s.cands),
        };
        let r = call(&mut self.stack, &mut env);
        // Kernel path-manager loop: events -> actions -> (more events) ...
        for _ in 0..8 {
            self.stack.swap_events(&mut s.events);
            if s.events.is_empty() {
                break;
            }
            for ev in &s.events {
                self.pm.on_event(ev, &self.stack, &mut s.actions);
                self.subscription.offer(ev);
            }
            for a in s.actions.drain() {
                self.stack.apply_action(&mut env, &a);
            }
        }
        s.packets = env.out;
        s.timers = env.timers;
        s.connects = env.connects;
        s.cands = env.cands;
        (r, env.stop)
    }
}

impl Node for StackNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (_, iface) in ctx.my_ifaces() {
            self.stack.set_local_addr(iface.addr, iface.up);
        }
        for (i, (at, ..)) in self.connects.iter().enumerate() {
            ctx.set_timer_at(*at, D_CONNECT | i as u64);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.drive(ctx, |stack, env| stack.on_packet(env, &pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token >> 60 {
            1..=3 => self.drive(ctx, |stack, env| stack.on_timer(env, token)),
            7 => {
                let idx = (token & ((1 << 60) - 1)) as usize;
                let Some((_, src, dst, port, app)) = self.connects.get_mut(idx) else {
                    return;
                };
                let (src, dst, port) = (*src, *dst, *port);
                if let Some(app) = app.take() {
                    self.drive(ctx, |stack, env| {
                        stack.connect(env, src, dst, port, app);
                    });
                }
            }
            _ => {}
        }
    }

    fn on_iface_admin(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, up: bool) {
        let addr = ctx.iface(iface).addr;
        self.drive(ctx, |stack, env| stack.on_local_addr(env, addr, up));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NullApp;
    use crate::apps::{BulkSender, Sink};
    use crate::conn::ConnState;
    use crate::pm::{ConnToken, EVENT_MASK_ALL};
    use crate::world::{Side, World};

    fn world(seed: u64) -> World {
        let (a, b) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
        let mut h = World::new(seed, Duration::from_millis(10), &[a], &[b]);
        let sink = || Sink {
            close_on_eof: true,
            ..Default::default()
        };
        h.listen(Side::B, 80, Box::new(move || Box::new(sink())));
        h
    }

    /// The sink of B's first connection.
    fn sink(h: &World) -> &Sink {
        let app = h.b().connections().next().and_then(|c| c.app());
        app.and_then(|a| a.as_any().downcast_ref()).unwrap()
    }

    #[test]
    fn three_way_handshake_establishes() {
        let mut h = world(1);
        let token = h.connect(Side::A, 80, Box::new(NullApp)).unwrap();
        h.run_until(SimTime::from_secs(2));
        let conn = h.a().conn_by_token(token).unwrap();
        assert_eq!(conn.state, ConnState::Established);
        // Server side established too, with a different (its own) token.
        let server_conn = h.b().connections().next().unwrap();
        assert_eq!(server_conn.state, ConnState::Established);
        assert_eq!(conn.remote_token(), Some(server_conn.token));
        // Handshake RTT sample: one-way 10 ms -> RTT 20 ms.
        let info = conn.subflow_info(0).unwrap();
        assert_eq!(info.srtt_us, 20_000);
    }

    #[test]
    fn bulk_transfer_delivers_every_byte() {
        let mut h = world(2);
        let total = 300_000u64;
        let app = Box::new(BulkSender::new(total).close_when_done());
        h.connect(Side::A, 80, app).unwrap();
        h.run_until(SimTime::from_secs(30));
        assert_eq!(sink(&h).received, total);
        assert!(sink(&h).eof_at.is_some(), "DATA_FIN must reach the sink");
        // Full close on both sides.
        let closed = |s: &HostStack| s.connections().all(|c| c.state == ConnState::Closed);
        assert!(closed(h.a()) && closed(h.b()));
    }

    #[test]
    fn transfer_survives_moderate_loss() {
        let mut h = world(3);
        h.set_loss(Side::A, 0.05);
        h.set_loss(Side::B, 0.05);
        let total = 100_000u64;
        let app = Box::new(BulkSender::new(total).close_when_done());
        h.connect(Side::A, 80, app).unwrap();
        h.run_until(SimTime::from_secs(120));
        assert_eq!(sink(&h).received, total, "reliable delivery under loss");
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let mut h = world(4);
        let token = h.connect(Side::A, 9999, Box::new(NullApp)).unwrap();
        h.run_until(SimTime::from_secs(5));
        let conn = h.a().conn_by_token(token).unwrap();
        assert_eq!(conn.state, ConnState::Closed);
        assert!(h.b().rst_sent >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut h = world(seed);
            h.set_loss(Side::A, 0.1);
            let app = Box::new(BulkSender::new(50_000).close_when_done());
            h.connect(Side::A, 80, app);
            (h.run_until(SimTime::from_secs(60)), h.sent())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A dropped node gives its connect queue, emptied, to the thread; the
    /// next node starts on it.
    #[test]
    fn a_new_node_starts_on_the_connect_queue_a_dropped_one_gave_back() {
        std::thread::spawn(|| {
            let mut node = StackNode::new(StackConfig::default());
            let dst = Addr::new(10, 0, 0, 2);
            for ms in 0..3 {
                let at = SimTime::from_millis(ms);
                node.connect_at(at, None, dst, 80, Box::new(NullApp));
            }
            let held = node.connects.capacity();
            drop(node);
            let node = StackNode::new(StackConfig::default());
            assert_eq!((node.connects.len(), node.connects.capacity()), (0, held));
        })
        .join()
        .unwrap();
    }

    fn closed(token: ConnToken) -> PmEvent {
        PmEvent::ConnClosed { token }
    }

    /// The length and capacity of the vector `sub` keeps events on.
    fn held(sub: &Subscription) -> Option<(usize, usize)> {
        sub.events.as_deref().map(|v| (v.len(), v.capacity()))
    }

    #[test]
    fn events_outside_the_mask_are_suppressed() {
        let mut sub = Subscription::default();
        sub.offer(&closed(1));
        assert_eq!((sub.events(), sub.suppressed), (&[][..], 1));
        sub.subscribe(EVENT_MASK_ALL & !closed(1).mask_bit());
        sub.offer(&closed(2));
        assert_eq!((sub.events(), sub.suppressed), (&[][..], 2));
    }

    #[test]
    fn a_partial_mask_filters() {
        let mut sub = Subscription::default();
        sub.subscribe(closed(1).mask_bit());
        sub.offer(&closed(1));
        sub.offer(&PmEvent::LocalAddrUp {
            addr: Addr::new(1, 1, 1, 1),
        });
        sub.offer(&closed(2));
        assert_eq!(sub.events(), [closed(1), closed(2)]);
        assert_eq!(sub.suppressed, 1);
    }

    /// The kept events move out whole and the vectors trade places with
    /// their capacity, so nothing is taken twice.
    #[test]
    fn swap_events_trades_vectors_and_keeps_capacity() {
        let mut sub = Subscription::default();
        let mut into = vec![closed(9)];
        sub.swap_events(&mut into);
        assert!(into.is_empty(), "no subscriber: the target is only cleared");
        sub.subscribe(EVENT_MASK_ALL);
        for token in 0..3 {
            sub.offer(&closed(token));
        }
        let kept = sub.events().as_ptr();
        let mut into = Vec::with_capacity(64);
        into.push(closed(9));
        sub.swap_events(&mut into);
        assert_eq!(
            (into.as_slice(), into.as_ptr()),
            (&[closed(0), closed(1), closed(2)][..], kept)
        );
        assert!(matches!(held(&sub), Some((0, cap)) if cap >= 64));
        sub.swap_events(&mut into);
        assert!(into.is_empty());
    }

    /// A node nobody subscribes to takes no event vector from the thread; a
    /// dropped subscriber gives its vector, emptied, back, and the next
    /// subscriber keeps events on it.
    #[test]
    fn only_a_subscriber_holds_an_event_vector_and_gives_it_back() {
        // A thread of its own, so the store starts empty; the scope
        // re-raises its panic.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut node = StackNode::new(StackConfig::default());
                node.subscription.subscribe(EVENT_MASK_ALL);
                for token in 0..3 {
                    node.subscription.offer(&closed(token));
                }
                let (_, cap) = held(&node.subscription).unwrap_or_default();
                assert!(cap >= 3);
                drop(node);
                let idle = StackNode::new(StackConfig::default());
                assert_eq!(held(&idle.subscription), None);
                let mut next = StackNode::new(StackConfig::default());
                next.subscription.subscribe(EVENT_MASK_ALL);
                assert_eq!(held(&next.subscription), Some((0, cap)));
            });
        });
    }
}
