//! The simulation world: event queue, links, interfaces, and the run loop.
//!
//! [`Simulator`] owns every [`Node`] plus a [`SimCore`] holding everything
//! else (clock, event queue, RNG, links, interfaces, trace sink). Node
//! callbacks receive a [`Ctx`] — a view over the core scoped to that node —
//! through which they send packets and arm timers. This split keeps borrows
//! disjoint without interior mutability and keeps the whole simulation
//! single-threaded and deterministic.
//!
//! # Event ordering and timers
//!
//! Events execute in strict `(time, insertion order)` order via a timing
//! wheel (`crate::equeue`); every scheduled item draws its insertion `seq`
//! from one counter when it is scheduled. Timers armed through
//! [`Ctx::set_timer_after`] return a [`TimerHandle`], which
//! [`Ctx::cancel_timer`] and [`Ctx::rearm_timer_after`] take.
//!
//! * **Cancellation is lazy.** The queue entry stays until its instant and
//!   then pops *stale*: the node is not called, and the handle's slot was
//!   recycled at cancel time.
//! * **Re-arming happens in place** when the handle is live and the new
//!   deadline is not earlier than the instant its queue entry waits for —
//!   the RTO restarted on every ACK. The timer's slot takes the new
//!   deadline, a freshly drawn `seq` and the new token, and nothing is
//!   pushed. When the entry pops at its old instant it is *requeued* under
//!   the stored `(at, seq)`, which is exactly the key a fresh entry armed
//!   at re-arm time would have had, so every dispatch happens at the same
//!   place in the order as with cancel-and-arm. An earlier deadline or a
//!   stale handle cancels (if live) and arms afresh. A timer cancelled
//!   after an in-place re-arm pops stale at the instant its entry waited
//!   for, so an idle run may end earlier than with cancel-and-arm.
//!
//! Accounting: [`RunSummary::events`] counts *dispatches* — pops that
//! reached a node, a link or a script. Stale pops and requeues are counted
//! apart, in [`RunSummary::stale`] and [`RunSummary::requeued`], and
//! [`RunSummary::peak_queue`] counts queue entries of either kind.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::time::Duration;

use crate::addr::Addr;
use crate::dynamics::DynAction;
use crate::equeue::{EventQueue, Scheduled};
use crate::link::{
    Dir, DropReason, Eviction, LinkCfg, LinkDirState, LinkDirStats, LinkId, LossModel, ReorderModel,
};
use crate::netem::NetemScript;
use crate::node::{Iface, IfaceId, Node, NodeId};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::spare::{Recycle, Spare};
use crate::time::{tx_time, SimTime};
use crate::trace::{TraceEvent, TraceKind, TraceSink};

/// Internal events the simulator processes.
#[derive(Debug)]
pub(crate) enum SimEvent {
    /// Deliver `on_start` to a node.
    Start(NodeId),
    /// A node timer's queue entry; its token lives in the timer's slot.
    Timer { node: NodeId, handle: TimerHandle },
    /// A packet finished serializing on a link direction.
    TxDone { link: LinkId, dir: Dir, pkt: Packet },
    /// A packet finished propagating and arrives at the far end.
    Deliver { link: LinkId, dir: Dir, pkt: Packet },
    /// Run a scheduled change: an installed script action or an
    /// [`Simulator::at`] hook.
    Change(usize),
}

/// One link: two interfaces and two directional states.
#[derive(Debug)]
struct LinkState {
    /// Interface at the A end.
    a: IfaceId,
    /// Interface at the B end.
    b: IfaceId,
    /// `dirs[0]` carries A→B traffic, `dirs[1]` B→A.
    dirs: [LinkDirState; 2],
}

impl LinkState {
    fn dir_mut(&mut self, dir: Dir) -> &mut LinkDirState {
        match dir {
            Dir::AtoB => &mut self.dirs[0],
            Dir::BtoA => &mut self.dirs[1],
        }
    }
    fn dir_ref(&self, dir: Dir) -> &LinkDirState {
        match dir {
            Dir::AtoB => &self.dirs[0],
            Dir::BtoA => &self.dirs[1],
        }
    }
    /// Receiving interface for traffic flowing in `dir`.
    fn sink_iface(&self, dir: Dir) -> IfaceId {
        match dir {
            Dir::AtoB => self.b,
            Dir::BtoA => self.a,
        }
    }
}

/// Why [`Simulator::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    Idle,
    /// The configured time horizon was reached.
    Horizon,
    /// A node or script called [`Ctx::stop`] / [`SimCore::request_stop`].
    Requested,
    /// The safety event limit was hit (almost certainly a bug).
    EventLimit,
}

/// Summary returned by [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Why the run ended.
    pub reason: StopReason,
    /// Simulated time at the end of the run.
    pub ended_at: SimTime,
    /// Events dispatched (queue entries that were not stale or requeued).
    pub events: u64,
    /// Queue entries of cancelled or re-armed-earlier timers that popped
    /// without reaching their node.
    pub stale: u64,
    /// Queue entries of timers re-armed in place that popped at their old
    /// instant and moved to the re-armed one.
    pub requeued: u64,
    /// High-water mark of the event queue over the whole simulation.
    pub peak_queue: usize,
}

/// A handle to an armed timer, returned by [`Ctx::set_timer_after`] /
/// [`Ctx::set_timer_at`] / [`Ctx::rearm_timer_after`] and accepted by
/// [`Ctx::cancel_timer`] and [`Ctx::rearm_timer_after`].
///
/// Handles are generation-tagged: once the timer has fired or been
/// cancelled, the handle goes stale and cancelling it again is a safe
/// no-op — even after the underlying slot has been recycled for a newer
/// timer. An in-place re-arm keeps the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// State of one timer slot (recycled through a free list).
#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    gen: u32,
    armed: bool,
    /// Queue key of the timer's firing and the token it delivers.
    at: SimTime,
    seq: u64,
    token: u64,
    /// Instant the timer's one queue entry waits for: `at`, or earlier
    /// after an in-place re-arm.
    queued_at: SimTime,
}

/// Everything in the simulation except the nodes.
pub struct SimCore {
    now: SimTime,
    queue: EventQueue<SimEvent>,
    next_seq: u64,
    rng: SimRng,
    links: Vec<LinkState>,
    /// Emptied queue rings no link of this world has taken yet.
    rings: Vec<VecDeque<Packet>>,
    ifaces: Vec<Iface>,
    /// Per-node interface lists, threaded through `iface_next` so that a
    /// node costs no list of its own: node `n`'s interfaces, in creation
    /// order, start at `node_ifaces[n].0` and follow `iface_next` to
    /// `NO_IFACE`; `.1` is the last, where the next one is appended.
    node_ifaces: Vec<(u32, u32)>,
    iface_next: Vec<u32>,
    timer_slots: Vec<TimerSlot>,
    /// Free timer slots. Its capacity is kept at least the slot table's,
    /// so retiring a timer never grows it.
    timer_free: Vec<u32>,
    live_timers: usize,
    /// Stale and requeued pops since construction; a run reports the
    /// difference over its own span.
    stale: u64,
    requeued: u64,
    trace: Option<Box<dyn TraceSink>>,
    /// Cached `trace.is_some()` so the hot path skips sink dispatch with a
    /// single branch when tracing is off.
    tracing_on: bool,
    stop_requested: bool,
    /// Hard cap on processed events; a safety net against runaway loops.
    pub event_limit: u64,
}

/// "No interface": the end of a node's interface list.
const NO_IFACE: u32 = u32::MAX;

impl Default for SimCore {
    /// A core at time zero with empty tables, no bucket table and no
    /// trace sink.
    fn default() -> Self {
        SimCore {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            next_seq: 0,
            rng: SimRng::seed_from_u64(0),
            links: Vec::new(),
            rings: Vec::new(),
            ifaces: Vec::new(),
            node_ifaces: Vec::new(),
            iface_next: Vec::new(),
            timer_slots: Vec::new(),
            timer_free: Vec::new(),
            live_timers: 0,
            stale: 0,
            requeued: 0,
            trace: None,
            tracing_on: false,
            stop_requested: false,
            event_limit: 500_000_000,
        }
    }
}

impl Recycle for SimCore {
    /// Drop everything the world still holds — queued events, links,
    /// interfaces, timers, the trace sink — and go back to time zero on
    /// the same storage. The queue rings of the links join the spare ones.
    fn reset(&mut self) {
        let mut rings = std::mem::take(&mut self.rings);
        for link in self.links.drain(..) {
            for mut dir in link.dirs {
                dir.queue.clear();
                rings.push(dir.queue);
            }
        }
        self.queue.clear();
        self.ifaces.clear();
        self.node_ifaces.clear();
        self.iface_next.clear();
        self.timer_slots.clear();
        self.timer_free.clear();
        *self = SimCore {
            queue: std::mem::take(&mut self.queue),
            links: std::mem::take(&mut self.links),
            rings,
            ifaces: std::mem::take(&mut self.ifaces),
            node_ifaces: std::mem::take(&mut self.node_ifaces),
            iface_next: std::mem::take(&mut self.iface_next),
            timer_slots: std::mem::take(&mut self.timer_slots),
            timer_free: std::mem::take(&mut self.timer_free),
            ..SimCore::default()
        };
    }

    fn is_empty(&self) -> bool {
        self.queue.len() == 0
            && self.links.is_empty()
            && self.rings.iter().all(VecDeque::is_empty)
            && self.ifaces.is_empty()
            && self.node_ifaces.is_empty()
            && self.iface_next.is_empty()
            && self.timer_slots.is_empty()
            && self.timer_free.is_empty()
            && self.trace.is_none()
    }
}

impl SimCore {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Ask the run loop to stop after the current event.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Install (or replace) the trace sink. Returns the previous one.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.tracing_on = true;
        self.trace.replace(sink)
    }

    /// Remove and return the trace sink (typically after a run, to read
    /// collected data back out).
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracing_on = false;
        self.trace.take()
    }

    /// Interface metadata.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.0]
    }

    /// All interfaces belonging to `node`, in creation order.
    pub fn ifaces_of(&self, node: NodeId) -> impl Iterator<Item = (IfaceId, &Iface)> {
        let mut at = self.node_ifaces.get(node.0).map_or(NO_IFACE, |&(f, _)| f);
        std::iter::from_fn(move || {
            let i = (at != NO_IFACE).then_some(at as usize)?;
            at = self.iface_next[i];
            Some((IfaceId(i), &self.ifaces[i]))
        })
    }

    /// Find the interface of `node` carrying address `addr`.
    pub fn iface_by_addr(&self, node: NodeId, addr: Addr) -> Option<IfaceId> {
        self.ifaces_of(node)
            .find(|(_, i)| i.addr == addr)
            .map(|(id, _)| id)
    }

    /// Counters for one direction of a link.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> &LinkDirStats {
        &self.links[link.0].dir_ref(dir).stats
    }

    /// Replace the loss model of one direction of a link, effective
    /// immediately.
    pub fn set_loss(&mut self, link: LinkId, dir: Dir, loss: LossModel) {
        self.links[link.0].dir_mut(dir).cfg.loss = loss;
    }

    /// Replace the loss model of both directions of a link.
    pub fn set_loss_both(&mut self, link: LinkId, loss: LossModel) {
        self.set_loss(link, Dir::AtoB, loss.clone());
        self.set_loss(link, Dir::BtoA, loss);
    }

    /// Set the serialization rate of one direction of a link, effective
    /// for subsequently started transmissions (a packet already on the
    /// serializer keeps the rate it started with).
    pub fn set_rate(&mut self, link: LinkId, dir: Dir, rate_bps: u64) {
        self.links[link.0].dir_mut(dir).cfg.rate_bps = rate_bps;
    }

    /// Set the one-way propagation delay of one direction of a link,
    /// effective for packets finishing serialization afterwards.
    pub fn set_delay(&mut self, link: LinkId, dir: Dir, delay: Duration) {
        self.links[link.0].dir_mut(dir).cfg.delay = delay;
    }

    /// Set the drop-tail queue capacity of one direction of a link.
    /// Shrinking does not evict queued packets; the bound applies to
    /// subsequent admissions (equivalent to
    /// [`SimCore::set_queue_policy`] with [`Eviction::Keep`]).
    pub fn set_queue(&mut self, link: LinkId, dir: Dir, pkts: usize) {
        self.set_queue_policy(link, dir, pkts, Eviction::Keep);
    }

    /// Set the drop-tail queue capacity of one direction of a link with an
    /// explicit shrink policy: [`Eviction::Keep`] leaves already-queued
    /// packets alone, [`Eviction::DropNewest`] evicts from the queue tail
    /// until occupancy fits the new bound (each eviction is traced as a
    /// [`DropReason::Evicted`] drop).
    pub fn set_queue_policy(&mut self, link: LinkId, dir: Dir, pkts: usize, evict: Eviction) {
        self.links[link.0].dir_mut(dir).cfg.queue_pkts = pkts;
        if evict == Eviction::DropNewest {
            while self.links[link.0].dir_ref(dir).queue.len() > pkts {
                let pkt = self.links[link.0]
                    .dir_mut(dir)
                    .queue
                    .pop_back()
                    .expect("len > pkts implies non-empty");
                self.links[link.0].dir_mut(dir).stats.dropped_evicted += 1;
                self.trace_event(
                    TraceKind::Drop {
                        link: Some(link),
                        reason: DropReason::Evicted,
                    },
                    &pkt,
                );
            }
        }
    }

    /// Set netem-style reordering of one direction of a link, effective
    /// for packets finishing serialization afterwards.
    pub fn set_reorder(&mut self, link: LinkId, dir: Dir, pct: f64, hold: Duration) {
        self.links[link.0].dir_mut(dir).cfg.reorder = ReorderModel { pct, hold };
    }

    /// Set the netem-style duplication probability of one direction of a
    /// link, effective for packets finishing serialization afterwards.
    pub fn set_duplicate(&mut self, link: LinkId, dir: Dir, pct: f64) {
        self.links[link.0].dir_mut(dir).cfg.duplicate_pct = pct;
    }

    /// The two endpoint interfaces of a link (A end, B end).
    pub fn link_ifaces(&self, link: LinkId) -> (IfaceId, IfaceId) {
        let l = &self.links[link.0];
        (l.a, l.b)
    }

    /// Entries currently in the event queue (live work plus
    /// lazily-cancelled timers awaiting expiry).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of [`SimCore::queue_depth`] since construction.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_len()
    }

    /// Timers armed and not yet fired or cancelled.
    pub fn live_timer_count(&self) -> usize {
        self.live_timers
    }

    /// Cancel a timer. Returns true if the timer was still pending; stale
    /// handles (fired, already cancelled, or recycled slots) are a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.release_timer(handle)
    }

    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn push(&mut self, at: SimTime, ev: SimEvent) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.draw_seq();
        self.queue.push(at, seq, ev);
    }

    /// Arm a timer for `node` at `at`, allocating a generation-tagged slot.
    fn arm_timer(&mut self, at: SimTime, node: NodeId, token: u64) -> TimerHandle {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.draw_seq();
        let armed = |gen| TimerSlot {
            gen,
            armed: true,
            at,
            seq,
            token,
            queued_at: at,
        };
        let handle = match self.timer_free.pop() {
            Some(slot) => {
                let st = &mut self.timer_slots[slot as usize];
                *st = armed(st.gen);
                TimerHandle { slot, gen: st.gen }
            }
            None => {
                if self.timer_slots.len() == self.timer_slots.capacity() {
                    self.timer_slots.reserve(1);
                    let room = self.timer_slots.capacity() - self.timer_free.len();
                    self.timer_free.reserve_exact(room);
                }
                self.timer_slots.push(armed(0));
                TimerHandle {
                    slot: (self.timer_slots.len() - 1) as u32,
                    gen: 0,
                }
            }
        };
        self.live_timers += 1;
        self.queue.push(at, seq, SimEvent::Timer { node, handle });
        handle
    }

    /// Move a live timer to `at` with `token`: in place when its queue
    /// entry is not later than `at`, else by cancelling and arming afresh
    /// (also the path for a stale handle). Draws one `seq` either way.
    fn rearm_timer(
        &mut self,
        handle: TimerHandle,
        at: SimTime,
        node: NodeId,
        token: u64,
    ) -> TimerHandle {
        if self
            .live_timer_mut(handle)
            .is_none_or(|st| at < st.queued_at)
        {
            self.release_timer(handle);
            return self.arm_timer(at, node, token);
        }
        let seq = self.draw_seq();
        let st = &mut self.timer_slots[handle.slot as usize];
        (st.at, st.seq, st.token) = (at, seq, token);
        handle
    }

    /// A timer's queue entry `(_, seq)` popped. Returns the token to
    /// deliver and retires the timer when this is its firing; counts the
    /// pop as stale (cancelled, or re-armed to an earlier deadline) or
    /// requeues the entry (re-armed in place) and returns `None` otherwise.
    #[inline]
    fn pop_timer(&mut self, node: NodeId, handle: TimerHandle, seq: u64) -> Option<u64> {
        let Some(st) = self.live_timer_mut(handle) else {
            self.stale += 1;
            return None;
        };
        if st.seq != seq {
            self.requeue_timer(node, handle);
            return None;
        }
        st.armed = false;
        st.gen = st.gen.wrapping_add(1);
        let token = st.token;
        self.timer_free.push(handle.slot);
        self.live_timers -= 1;
        Some(token)
    }

    /// The entry of a timer re-armed in place popped at its old instant:
    /// queue it again under the stored deadline. Out of line and cold: a
    /// queue push inlined into the timer path of `Simulator::dispatch`
    /// made a loop of timer events 40-50 % slower.
    #[cold]
    #[inline(never)]
    fn requeue_timer(&mut self, node: NodeId, handle: TimerHandle) {
        let st = &mut self.timer_slots[handle.slot as usize];
        st.queued_at = st.at;
        let (at, seq) = (st.at, st.seq);
        self.queue.push(at, seq, SimEvent::Timer { node, handle });
        self.requeued += 1;
    }

    /// The slot behind `handle` while the timer is pending.
    fn live_timer_mut(&mut self, handle: TimerHandle) -> Option<&mut TimerSlot> {
        self.timer_slots
            .get_mut(handle.slot as usize)
            .filter(|st| st.armed && st.gen == handle.gen)
    }

    /// Retire a timer slot if `handle` is current. Returns whether the
    /// timer was live.
    fn release_timer(&mut self, handle: TimerHandle) -> bool {
        let Some(st) = self.live_timer_mut(handle) else {
            return false;
        };
        st.armed = false;
        st.gen = st.gen.wrapping_add(1);
        self.timer_free.push(handle.slot);
        self.live_timers -= 1;
        true
    }

    #[inline]
    fn trace_event(&mut self, kind: TraceKind, pkt: &Packet) {
        if !self.tracing_on {
            return;
        }
        self.record_trace(kind, pkt);
    }

    /// Hand one event to the sink. Not `#[cold]`: every run that installs
    /// the oracle (the benchmark's timed mode, checked runs, the fuzzer)
    /// comes here for every packet event.
    fn record_trace(&mut self, kind: TraceKind, pkt: &Packet) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(&TraceEvent {
                at: self.now,
                kind,
                pkt,
            });
        }
    }

    /// Send `pkt` out of `iface`. Shared by `Ctx::send` and script hooks.
    /// Silently drops (with a trace record) when the interface is down or
    /// unplugged — matching a NIC with no carrier.
    pub fn send_from(&mut self, iface_id: IfaceId, pkt: Packet) {
        let iface = &self.ifaces[iface_id.0];
        let node = iface.node;
        if !iface.up {
            self.trace_event(
                TraceKind::Drop {
                    link: None,
                    reason: DropReason::IfaceDown,
                },
                &pkt,
            );
            return;
        }
        let Some((link_id, dir)) = iface.link else {
            self.trace_event(
                TraceKind::Drop {
                    link: None,
                    reason: DropReason::NoRoute,
                },
                &pkt,
            );
            return;
        };
        self.trace_event(
            TraceKind::Send {
                node,
                iface: iface_id,
            },
            &pkt,
        );
        // Drop-tail check up front so the packet can be traced before being
        // moved into the queue — no clone on the accept path. The admission
        // policy itself stays in `LinkDirState`.
        let state = self.links[link_id.0].dir_ref(dir);
        let room = state.room();
        if room == 0 {
            return self.queue_full(link_id, dir, &pkt);
        }
        let dup_p = state.cfg.duplicate_pct;
        self.trace_event(TraceKind::Enqueue { link: link_id, dir }, &pkt);
        // netem-style duplication happens at admission (like tc-netem's
        // enqueue-side duplicate): the copy enters the tail of the same
        // queue and lives a full enqueue → serialize → deliver life of its
        // own, so link conservation holds for it like any other packet —
        // and a copy is never re-trialed. The guard keeps disabled
        // duplication free of RNG draws.
        let dup = dup_p > 0.0 && self.rng.chance(dup_p);
        let copy = dup.then(|| pkt.clone());
        let idle = self.links[link_id.0].dir_mut(dir).admit(pkt);
        if let Some(copy) = copy {
            // The copy queues behind its original, in the slot after the
            // one the original took (even when that one went straight to
            // the serializer).
            if room > 1 {
                self.trace_event(TraceKind::Enqueue { link: link_id, dir }, &copy);
                let st = self.links[link_id.0].dir_mut(dir);
                let queued = st.admit(copy);
                debug_assert!(queued.is_none(), "the original holds the line");
                st.stats.duplicated += 1;
            } else {
                self.queue_full(link_id, dir, &copy);
            }
        }
        if let Some(pkt) = idle {
            self.start_tx(link_id, dir, pkt);
        }
    }

    /// Count and trace a drop-tail rejection of `pkt`.
    fn queue_full(&mut self, link: LinkId, dir: Dir, pkt: &Packet) {
        self.links[link.0].dir_mut(dir).count_queue_drop();
        self.trace_event(
            TraceKind::Drop {
                link: Some(link),
                reason: DropReason::QueueFull,
            },
            pkt,
        );
    }

    /// Serialize `pkt` on a line that [`LinkDirState::admit`] has marked
    /// busy: the packet an idle line admitted, or the head of its queue
    /// when the one before it is done.
    fn start_tx(&mut self, link: LinkId, dir: Dir, pkt: Packet) {
        let state = self.links[link.0].dir_ref(dir);
        debug_assert!(state.busy, "start_tx on an idle line");
        let dt = tx_time(pkt.wire_bits(), state.cfg.rate_bps);
        self.trace_event(TraceKind::TxStart { link, dir }, &pkt);
        self.push(self.now + dt, SimEvent::TxDone { link, dir, pkt });
    }
}

/// A node-scoped view of the simulation core, handed to node callbacks.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    node: NodeId,
}

impl<'a> Ctx<'a> {
    /// The node this context is scoped to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.core.rng()
    }

    /// Send a packet out of one of this node's interfaces.
    ///
    /// # Panics
    /// Panics if `iface` does not belong to this node — that is always a
    /// wiring bug in the scenario.
    pub fn send(&mut self, iface: IfaceId, pkt: Packet) {
        assert_eq!(
            self.core.ifaces[iface.0].node, self.node,
            "node {:?} tried to send from foreign iface {:?}",
            self.node, iface
        );
        self.core.send_from(iface, pkt);
    }

    /// Arm a timer that fires `after` from now, delivering `token` to
    /// [`Node::on_timer`]. The returned handle can cancel the timer; a
    /// dropped handle leaves the timer to fire normally.
    pub fn set_timer_after(&mut self, after: Duration, token: u64) -> TimerHandle {
        let at = self.core.now + after;
        self.core.arm_timer(at, self.node, token)
    }

    /// Arm a timer for an absolute instant (clamped to now if in the past).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerHandle {
        self.core.arm_timer(at.max(self.core.now), self.node, token)
    }

    /// Cancel a timer armed earlier. Returns true when the timer was still
    /// pending; stale handles are a safe no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.core.cancel_timer(handle)
    }

    /// Restart the timer behind `handle` to fire `after` from now with
    /// `token` — [`Ctx::cancel_timer`] then [`Ctx::set_timer_after`] in one
    /// step, dispatching identically. A later (or equal) deadline is
    /// written into the pending timer, which keeps its handle and queue
    /// entry; an earlier one, or a stale `handle`, arms a new timer and
    /// returns its handle. `handle` must come from this node.
    pub fn rearm_timer_after(
        &mut self,
        handle: TimerHandle,
        after: Duration,
        token: u64,
    ) -> TimerHandle {
        let at = self.core.now + after;
        self.core.rearm_timer(handle, at, self.node, token)
    }

    /// Metadata for any interface (commonly this node's own).
    pub fn iface(&self, id: IfaceId) -> &Iface {
        self.core.iface(id)
    }

    /// This node's interfaces, in creation order (borrowed — copy out what
    /// you need before sending).
    pub fn my_ifaces(&self) -> impl Iterator<Item = (IfaceId, &Iface)> {
        self.core.ifaces_of(self.node)
    }

    /// Find this node's interface with the given address.
    pub fn my_iface_by_addr(&self, addr: Addr) -> Option<IfaceId> {
        self.core.iface_by_addr(self.node, addr)
    }

    /// Ask the simulation to stop after the current event.
    pub fn stop(&mut self) {
        self.core.request_stop();
    }
}

/// One scheduled change of the world: a script action, or a hook that
/// reads what a script cannot.
enum Change {
    Action(DynAction),
    Hook(Box<dyn FnOnce(&mut SimCore)>),
}

/// How [`Simulator::install`] orders a script: its one policy stably
/// sorts the entries by time (ties keep insertion order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallPolicy {
    /// Stably sort entries by time.
    Sort,
}

/// The complete simulation. Its core and its node and change lists come
/// from the thread's store and go back to it when it drops.
pub struct Simulator {
    /// The shared core (public so scenario code can inspect links/stats
    /// between runs).
    pub core: Spare<SimCore>,
    nodes: Spare<Vec<Box<dyn Node>>>,
    /// Scheduled changes, indexed by [`SimEvent::Change`]. Each runs once,
    /// so dispatch *takes* it out of its slot.
    changes: Spare<Vec<Option<Change>>>,
    started: bool,
}

impl Simulator {
    /// Create an empty simulation with the given RNG seed, on the storage
    /// the last world dropped on this thread gave back.
    pub fn new(seed: u64) -> Self {
        let mut core: Spare<SimCore> = Spare::default();
        core.rng = SimRng::seed_from_u64(seed);
        core.queue.ensure_wheel();
        Simulator {
            core,
            nodes: Spare::default(),
            changes: Spare::default(),
            started: false,
        }
    }

    /// Add a node; returns its id. Nodes receive `on_start` in id order.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.core.node_ifaces.push((NO_IFACE, NO_IFACE));
        id
    }

    /// Add an interface to `node` with address `addr`. The interface starts
    /// up but unplugged; connect it with [`Simulator::connect`].
    pub fn add_iface(
        &mut self,
        node: NodeId,
        addr: Addr,
        name: impl Into<Cow<'static, str>>,
    ) -> IfaceId {
        assert!(node.0 < self.nodes.len(), "no such node");
        let core = &mut *self.core;
        let id = u32::try_from(core.ifaces.len())
            .ok()
            .filter(|&i| i != NO_IFACE)
            .expect("fewer than 2^32 - 1 interfaces");
        core.ifaces.push(Iface {
            node,
            addr,
            link: None,
            up: true,
            name: name.into(),
        });
        core.iface_next.push(NO_IFACE);
        let (first, last) = &mut core.node_ifaces[node.0];
        if *first == NO_IFACE {
            *first = id;
        } else {
            core.iface_next[*last as usize] = id;
        }
        *last = id;
        IfaceId(id as usize)
    }

    /// Create a link between two interfaces with symmetric configuration.
    pub fn connect(&mut self, a: IfaceId, b: IfaceId, cfg: LinkCfg) -> LinkId {
        self.connect_asym(a, b, cfg.clone(), cfg)
    }

    /// Create a link with per-direction configuration (`ab` carries A→B).
    pub fn connect_asym(&mut self, a: IfaceId, b: IfaceId, ab: LinkCfg, ba: LinkCfg) -> LinkId {
        assert!(
            self.core.ifaces[a.0].link.is_none() && self.core.ifaces[b.0].link.is_none(),
            "interface already connected"
        );
        let id = LinkId(self.core.links.len());
        // Room for every link's two rings to come back at teardown.
        let rings = &mut self.core.rings;
        rings.reserve((2 * id.0 + 2).saturating_sub(rings.len()));
        let mut ring = || self.core.rings.pop().unwrap_or_default();
        let dirs = [
            LinkDirState::reusing(ab, ring()),
            LinkDirState::reusing(ba, ring()),
        ];
        self.core.links.push(LinkState { a, b, dirs });
        self.core.ifaces[a.0].link = Some((id, Dir::AtoB));
        self.core.ifaces[b.0].link = Some((id, Dir::BtoA));
        id
    }

    /// Run `hook` once at `at`, for a change that must read world state
    /// (a watchdog that stops the run once its transfers are done); a
    /// change a [`NetemScript`] can say goes through
    /// [`Simulator::install`]. The hook receives the core and may change
    /// links, send, or schedule more work.
    pub fn at(&mut self, at: SimTime, hook: impl FnOnce(&mut SimCore) + 'static) {
        self.schedule(at, Change::Hook(Box::new(hook)));
    }

    /// Install a script: every entry becomes an event-queue entry at its
    /// instant, the entries stably sorted by time (entries sharing an
    /// instant run in the order they were added). Call before running; an
    /// entry scheduled in the simulated past is a scenario bug (debug
    /// assert, same rule as any other event).
    pub fn install(
        &mut self,
        script: NetemScript,
        _policy: InstallPolicy,
    ) -> Result<(), Infallible> {
        let mut entries = script.entries;
        entries.sort_by_key(|&(at, _)| at);
        for (at, action) in entries {
            self.schedule(at, Change::Action(action));
        }
        Ok(())
    }

    fn schedule(&mut self, at: SimTime, change: Change) {
        let idx = self.changes.len();
        self.changes.push(Some(change));
        self.core.push(at, SimEvent::Change(idx));
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids, in creation order (for post-run sweeps over every
    /// node, e.g. the oracle's host-level integrity collection).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Immutable access to a node (for downcasting after a run).
    pub fn node(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.0].as_ref()
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.nodes[id.0].as_mut()
    }

    /// Node `id` as its concrete type `N`; `None` when it is not one.
    pub fn node_as<N: Node + 'static>(&self, id: NodeId) -> Option<&N> {
        self.node(id).as_any().downcast_ref()
    }

    /// Call `f` with node `id`, as its concrete type `N`, and the node's
    /// context: how code outside a run hands a node work between two
    /// [`Simulator::run_until`] calls, at the time the last one ended.
    /// `None` when the node is not an `N`.
    pub fn with_node<N: Node + 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let node = self.nodes[id.0].as_any_mut().downcast_mut()?;
        let mut ctx = Ctx {
            core: &mut self.core,
            node: id,
        };
        Some(f(node, &mut ctx))
    }

    /// Run until the queue drains or `horizon` is reached.
    pub fn run_until(&mut self, horizon: SimTime) -> RunSummary {
        self.run_inner(Some(horizon))
    }

    /// Run until the queue drains (or a stop is requested).
    pub fn run(&mut self) -> RunSummary {
        self.run_inner(None)
    }

    fn run_inner(&mut self, horizon: Option<SimTime>) -> RunSummary {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.core.push(SimTime::ZERO, SimEvent::Start(NodeId(i)));
            }
        }
        // Pops are counted here; the timer arm of `dispatch` counts the
        // ones that were not dispatches.
        let mut popped = 0u64;
        let start = (self.core.stale, self.core.requeued);
        let reason = loop {
            // The core is read through its spare once per event here and
            // once in `dispatch`, not once per field.
            let core = &mut *self.core;
            if core.stop_requested {
                break StopReason::Requested;
            }
            if popped >= core.event_limit {
                break StopReason::EventLimit;
            }
            let Some(head_at) = core.queue.peek_time() else {
                break StopReason::Idle;
            };
            if let Some(h) = horizon {
                if head_at > h {
                    core.now = h;
                    break StopReason::Horizon;
                }
            }
            let Scheduled { at, seq, ev } = core.queue.pop().unwrap();
            debug_assert!(at >= core.now, "time went backwards");
            core.now = at;
            popped += 1;
            self.dispatch(seq, ev);
        };
        let stale = self.core.stale - start.0;
        let requeued = self.core.requeued - start.1;
        RunSummary {
            reason,
            ended_at: self.core.now,
            events: popped - stale - requeued,
            stale,
            requeued,
            peak_queue: self.core.peak_queue_depth(),
        }
    }

    fn dispatch(&mut self, seq: u64, ev: SimEvent) {
        match ev {
            SimEvent::Start(node) => {
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node.0].on_start(&mut ctx);
            }
            SimEvent::Timer { node, handle } => {
                let core = &mut *self.core;
                let Some(token) = core.pop_timer(node, handle, seq) else {
                    return;
                };
                let mut ctx = Ctx { core, node };
                self.nodes[node.0].on_timer(&mut ctx, token);
            }
            SimEvent::TxDone { link, dir, pkt } => {
                let core = &mut *self.core;
                // The packet has left the serializer; decide its fate.
                let now = core.now;
                let (p, delay, reorder) = {
                    let st = core.links[link.0].dir_ref(dir);
                    (st.cfg.loss.ratio(), st.cfg.delay, st.cfg.reorder)
                };
                // Impairment trials run loss → reorder; each is guarded so
                // a disabled impairment performs no RNG draw (existing
                // per-seed trajectories stay bit-identical).
                let lost = p > 0.0 && core.rng.chance(p);
                if lost {
                    core.links[link.0].dir_mut(dir).stats.dropped_random += 1;
                    core.trace_event(
                        TraceKind::Drop {
                            link: Some(link),
                            reason: DropReason::Random,
                        },
                        &pkt,
                    );
                } else {
                    let held = reorder.pct > 0.0 && core.rng.chance(reorder.pct);
                    let prop = if held {
                        core.links[link.0].dir_mut(dir).stats.reordered += 1;
                        delay + reorder.hold
                    } else {
                        delay
                    };
                    core.push(now + prop, SimEvent::Deliver { link, dir, pkt });
                }
                let st = core.links[link.0].dir_mut(dir);
                match st.queue.pop_front() {
                    Some(next) => core.start_tx(link, dir, next),
                    None => st.busy = false,
                }
            }
            SimEvent::Deliver { link, dir, pkt } => {
                let core = &mut *self.core;
                let iface_id = core.links[link.0].sink_iface(dir);
                let iface = &core.ifaces[iface_id.0];
                let node = iface.node;
                if !iface.up {
                    core.trace_event(
                        TraceKind::Drop {
                            link: Some(link),
                            reason: DropReason::IfaceDown,
                        },
                        &pkt,
                    );
                    return;
                }
                {
                    let st = core.links[link.0].dir_mut(dir);
                    st.stats.delivered += 1;
                    st.stats.bytes_delivered += pkt.wire_len() as u64;
                }
                core.trace_event(
                    TraceKind::Deliver {
                        link,
                        iface: iface_id,
                        node,
                    },
                    &pkt,
                );
                let mut ctx = Ctx { core, node };
                self.nodes[node.0].on_packet(&mut ctx, iface_id, pkt);
            }
            SimEvent::Change(idx) => match self.changes[idx].take().expect("a change runs once") {
                Change::Action(action) => self.apply_dyn(action),
                Change::Hook(hook) => hook(&mut self.core),
            },
        }
    }

    /// Flip an interface's administrative state and notify its owner.
    fn apply_iface_admin(&mut self, iface: IfaceId, up: bool) {
        let node = self.core.ifaces[iface.0].node;
        self.core.ifaces[iface.0].up = up;
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        self.nodes[node.0].on_iface_admin(&mut ctx, iface, up);
    }

    /// Execute one dynamics action.
    fn apply_dyn(&mut self, action: DynAction) {
        let both = [Dir::AtoB, Dir::BtoA];
        let dirs = |dir: Option<Dir>| {
            both.into_iter()
                .filter(move |&d| dir.is_none_or(|x| x == d))
        };
        match action {
            DynAction::SetRate {
                link,
                dir,
                rate_bps,
            } => {
                for d in dirs(dir) {
                    self.core.set_rate(link, d, rate_bps);
                }
            }
            DynAction::SetDelay { link, dir, delay } => {
                for d in dirs(dir) {
                    self.core.set_delay(link, d, delay);
                }
            }
            DynAction::SetQueue {
                link,
                dir,
                pkts,
                evict,
            } => {
                for d in dirs(dir) {
                    self.core.set_queue_policy(link, d, pkts, evict);
                }
            }
            DynAction::SetLoss { link, dir, loss } => match dir {
                Some(d) => self.core.set_loss(link, d, loss),
                None => self.core.set_loss_both(link, loss),
            },
            DynAction::SetReorder {
                link,
                dir,
                pct,
                hold,
            } => {
                for d in dirs(dir) {
                    self.core.set_reorder(link, d, pct, hold);
                }
            }
            DynAction::SetDuplicate { link, dir, pct } => {
                for d in dirs(dir) {
                    self.core.set_duplicate(link, d, pct);
                }
            }
            DynAction::LinkAdmin { link, up } => {
                let (a, b) = self.core.link_ifaces(link);
                self.apply_iface_admin(a, up);
                self.apply_iface_admin(b, up);
            }
            DynAction::IfaceAdmin { iface, up } => {
                self.apply_iface_admin(iface, up);
            }
            DynAction::Command { node, cmd } => {
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node.0].on_command(&mut ctx, &cmd);
            }
            DynAction::Stop => self.core.request_stop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netem::{LossPct, Netem, RateBps};
    use crate::packet::Packet;
    use crate::trace::CollectorSink;
    use bytes::Bytes;
    use std::any::Any;

    /// Echoes every packet back out the interface it arrived on, and counts.
    struct Echo {
        seen: usize,
    }
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
            self.seen += 1;
            if self.seen < 3 {
                let back = Packet::tcp(pkt.dst, pkt.src, pkt.payload.clone());
                ctx.send(iface, back);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one packet at start, counts echoes.
    struct Pinger {
        iface: Option<IfaceId>,
        peer: Addr,
        got: usize,
        timer_fired: Vec<u64>,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let (id, iface) = ctx.my_ifaces().next().unwrap();
            let addr = iface.addr;
            self.iface = Some(id);
            let pkt = Packet::tcp(addr, self.peer, Bytes::from_static(&[0, 1, 0, 2]));
            ctx.send(id, pkt);
            ctx.set_timer_after(Duration::from_millis(500), 7);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
            self.got += 1;
            let back = Packet::tcp(pkt.dst, pkt.src, pkt.payload.clone());
            ctx.send(iface, back);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.timer_fired.push(token);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_hosts(seed: u64, cfg: LinkCfg) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node(Box::new(Pinger {
            iface: None,
            peer: Addr::new(10, 0, 0, 2),
            got: 0,
            timer_fired: vec![],
        }));
        let b = sim.add_node(Box::new(Echo { seen: 0 }));
        let ia = sim.add_iface(a, Addr::new(10, 0, 0, 1), "eth0");
        let ib = sim.add_iface(b, Addr::new(10, 0, 0, 2), "eth0");
        sim.connect(ia, ib, cfg);
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut sim, a, b) = two_hosts(1, LinkCfg::mbps_ms(10, 5));
        let summary = sim.run();
        assert_eq!(summary.reason, StopReason::Idle);
        let echo = sim.node(b).as_any().downcast_ref::<Echo>().unwrap();
        let ping = sim.node(a).as_any().downcast_ref::<Pinger>().unwrap();
        // Echo replies twice (seen 1,2 reply; 3rd stops), pinger bounces each.
        assert_eq!(echo.seen, 3);
        assert_eq!(ping.got, 2);
        assert_eq!(ping.timer_fired, vec![7]);
        assert!(summary.peak_queue >= 2, "start events queued together");
    }

    #[test]
    fn delivery_takes_delay_plus_serialization() {
        let (mut sim, _a, _b) = two_hosts(1, LinkCfg::mbps_ms(1, 10));
        // Packet: 20B IP + 4B payload = 24B = 192 bits at 1 Mb/s = 192 us.
        // One-way = 192us + 10ms.
        let summary = sim.run_until(SimTime::from_secs(10));
        // Last event: echo's third receipt (no reply): 3 one-way trips.
        // Ping at 0 -> deliver t1 = 10.192ms; reply -> 20.384; reply -> 30.576.
        assert!(summary.ended_at >= SimTime::from_millis(30));
    }

    #[test]
    fn full_loss_blocks_delivery() {
        let (mut sim, a, _b) =
            two_hosts(2, LinkCfg::mbps_ms(10, 5).loss(LossModel::Bernoulli(1.0)));
        sim.run();
        let ping = sim.node(a).as_any().downcast_ref::<Pinger>().unwrap();
        assert_eq!(ping.got, 0);
    }

    #[test]
    fn iface_down_drops_delivery() {
        let (mut sim, a, _b) = two_hosts(3, LinkCfg::mbps_ms(10, 5));
        // Take B's interface down immediately; A's ping must vanish.
        let down = NetemScript::new().at(SimTime::ZERO, Netem::iface(IfaceId(1)).down());
        sim.install(down, InstallPolicy::Sort).unwrap();
        sim.run();
        assert_eq!(sim.node_as::<Pinger>(a).map(|p| p.got), Some(0));
    }

    #[test]
    fn scripts_run_and_can_change_loss() {
        let (mut sim, a, _b) = two_hosts(4, LinkCfg::mbps_ms(10, 5));
        let ran = std::rc::Rc::new(std::cell::Cell::new(None));
        let seen = std::rc::Rc::clone(&ran);
        sim.at(SimTime::from_millis(1), move |core| {
            seen.set(Some(core.now()));
            core.set_loss_both(LinkId(0), LossModel::Bernoulli(1.0));
        });
        let summary = sim.run();
        assert_eq!(summary.reason, StopReason::Idle);
        assert_eq!(
            ran.get(),
            Some(SimTime::from_millis(1)),
            "runs once, on time"
        );
        // The ping left before the hook ran; the echo is lost.
        assert_eq!(sim.node_as::<Pinger>(a).map(|p| p.got), Some(0));
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let run = |seed| {
            let (mut sim, a, _b) = two_hosts(
                seed,
                LinkCfg::mbps_ms(10, 5).loss(LossModel::Bernoulli(0.5)),
            );
            let s = sim.run();
            let ping = sim.node(a).as_any().downcast_ref::<Pinger>().unwrap();
            (s.events, ping.got)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn horizon_stops_run() {
        let (mut sim, _a, _b) = two_hosts(5, LinkCfg::mbps_ms(1, 500));
        let s = sim.run_until(SimTime::from_millis(1));
        assert_eq!(s.reason, StopReason::Horizon);
        assert_eq!(s.ended_at, SimTime::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "foreign iface")]
    fn sending_from_foreign_iface_panics() {
        struct Bad;
        impl Node for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Interface 0 belongs to someone else.
                ctx.send(
                    IfaceId(0),
                    Packet::tcp(Addr::UNSPECIFIED, Addr::UNSPECIFIED, Bytes::new()),
                );
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(0);
        let other = sim.add_node(Box::new(Echo { seen: 0 }));
        let _iface_of_other = sim.add_iface(other, Addr::new(1, 1, 1, 1), "eth0");
        sim.add_node(Box::new(Bad));
        sim.run();
    }

    /// A node that arms a timer, rearms (cancelling the old one) on each
    /// firing, and records what actually fires.
    struct Rearm {
        pending: Option<TimerHandle>,
        rearms_left: u32,
        fired: Vec<u64>,
        cancel_results: Vec<bool>,
    }
    impl Node for Rearm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.pending = Some(ctx.set_timer_after(Duration::from_millis(100), 0));
            // Immediately rearm a few times, like an RTO restarted per ACK.
            for i in 1..=self.rearms_left as u64 {
                let old = self.pending.take().unwrap();
                self.cancel_results.push(ctx.cancel_timer(old));
                self.pending = Some(ctx.set_timer_after(Duration::from_millis(100 + i), i));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push(token);
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cancelled_timers_never_fire_and_pop_as_stale() {
        let mut sim = Simulator::new(9);
        let n = sim.add_node(Box::new(Rearm {
            pending: None,
            rearms_left: 5,
            fired: vec![],
            cancel_results: vec![],
        }));
        let summary = sim.run();
        let node = sim.node(n).as_any().downcast_ref::<Rearm>().unwrap();
        assert_eq!(node.fired, vec![5], "only the live timer fires");
        assert_eq!(node.cancel_results, vec![true; 5]);
        // Start + the live timer are dispatched; the 5 cancelled entries
        // pop stale (7 events under the old count-every-pop contract).
        assert_eq!((summary.events, summary.stale, summary.requeued), (2, 5, 0));
        assert_eq!(sim.core.live_timer_count(), 0);
    }

    #[test]
    fn cancelling_twice_and_after_fire_is_noop() {
        struct TwoCancels {
            results: Vec<bool>,
        }
        impl Node for TwoCancels {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let h = ctx.set_timer_after(Duration::from_millis(1), 0);
                self.results.push(ctx.cancel_timer(h));
                self.results.push(ctx.cancel_timer(h));
                // A fresh timer re-uses the slot; the stale handle must not
                // be able to cancel it.
                let h2 = ctx.set_timer_after(Duration::from_millis(2), 1);
                assert_ne!(h2, h);
                self.results.push(ctx.cancel_timer(h));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 1, "only the second timer is live");
                // Cancelling after firing is a no-op too.
                self.results
                    .push(ctx.cancel_timer(TimerHandle { slot: 0, gen: 0 }));
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(TwoCancels { results: vec![] }));
        sim.run();
        let node = sim.node(n).as_any().downcast_ref::<TwoCancels>().unwrap();
        assert_eq!(node.results, vec![true, false, false, false]);
    }

    /// Rearm-heavy workload spread over simulated time: the queue must
    /// track the live window, not the total number of rearms. `in_place`
    /// restarts the RTO with [`Ctx::rearm_timer_after`] instead of
    /// cancel-and-arm.
    struct HeavyRearm {
        pending: Option<TimerHandle>,
        rearms: u64,
        in_place: bool,
    }
    impl HeavyRearm {
        const RTO: Duration = Duration::from_millis(200);
        const TICK: Duration = Duration::from_millis(1);
    }
    impl Node for HeavyRearm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Self::TICK, 1);
            self.pending = Some(ctx.set_timer_after(Self::RTO, 0));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            if token != 1 {
                return; // the "RTO" fired (end of workload)
            }
            // Rearm the RTO, as a new ACK would.
            let old = self.pending.take().expect("the RTO is always pending");
            self.pending = Some(if self.in_place {
                let h = ctx.rearm_timer_after(old, Self::RTO, 0);
                assert_eq!(h, old, "a later deadline keeps the handle");
                h
            } else {
                ctx.cancel_timer(old);
                ctx.set_timer_after(Self::RTO, 0)
            });
            self.rearms += 1;
            if self.rearms < 5_000 {
                ctx.set_timer_after(Self::TICK, 1);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn dynamics_set_loss_blocks_delivery_like_inline_scripts() {
        let (mut sim, a, _b) = two_hosts(4, LinkCfg::mbps_ms(10, 5));
        let loss = Netem::on(LinkId(0)).loss(LossPct::ratio(1.0));
        sim.install(
            NetemScript::new().at(SimTime::ZERO, loss),
            InstallPolicy::Sort,
        )
        .unwrap();
        sim.run();
        let got = sim.node_as::<Pinger>(a).map(|p| p.got);
        assert_eq!(got, Some(0), "full loss installed at t=0 blocks echoes");
    }

    #[test]
    fn dynamics_rate_change_applies_to_later_transmissions() {
        // Baseline at 1 kb/s (192 ms serialization per 24-byte packet,
        // dominating the run) vs a script that jumps to 100 Mb/s at t=0:
        // serialization shrinks, so the whole exchange ends earlier.
        let run = |script: Option<NetemScript>| {
            let (mut sim, _a, _b) = two_hosts(1, LinkCfg::new(1_000, Duration::from_millis(10)));
            if let Some(s) = script {
                sim.install(s, InstallPolicy::Sort).unwrap();
            }
            sim.run().ended_at
        };
        let slow = run(None);
        let fast = run(Some(
            NetemScript::new().at(SimTime::ZERO, Netem::on(LinkId(0)).rate(RateBps::mbps(100))),
        ));
        assert!(
            fast < slow,
            "rate bump must shorten the run: {fast} vs {slow}"
        );
    }

    #[test]
    fn dynamics_link_admin_downs_both_ends_and_notifies() {
        let (mut sim, a, _b) = two_hosts(3, LinkCfg::mbps_ms(10, 5));
        let down = NetemScript::new().at(SimTime::ZERO, Netem::on(LinkId(0)).down());
        sim.install(down, InstallPolicy::Sort).unwrap();
        sim.run();
        let got = sim.node_as::<Pinger>(a).map(|p| p.got);
        assert_eq!(got, Some(0), "downed link carries nothing");
        assert!(!sim.core.iface(IfaceId(0)).up);
        assert!(!sim.core.iface(IfaceId(1)).up);
    }

    #[test]
    fn dynamics_stop_action_requests_stop() {
        let (mut sim, _a, _b) = two_hosts(5, LinkCfg::mbps_ms(1, 500));
        let stop = NetemScript::new().at(SimTime::from_millis(1), Netem::world().stop());
        sim.install(stop, InstallPolicy::Sort).unwrap();
        let s = sim.run();
        assert_eq!(s.reason, StopReason::Requested);
        assert_eq!(s.ended_at, SimTime::from_millis(1));
    }

    #[test]
    fn dynamics_out_of_order_scripts_sort_deterministically() {
        // Added out of order: the 1 ms entries run before the 2 ms stop,
        // and the two flips sharing 1 ms run in the order they were added.
        let ms = SimTime::from_millis;
        let script = || {
            NetemScript::new()
                .at(ms(2), Netem::world().stop())
                .at(ms(1), Netem::on(LinkId(0)).loss(LossPct::ratio(1.0)))
                .at(ms(1), Netem::iface(IfaceId(1)).down())
                .at(ms(1), Netem::iface(IfaceId(1)).up())
        };
        let run = |seed| {
            let (mut sim, ..) = two_hosts(seed, LinkCfg::mbps_ms(10, 5));
            sim.install(script(), InstallPolicy::Sort).unwrap();
            let s = sim.run();
            assert_eq!(
                sim.core.links[0].dirs[0].cfg.loss,
                LossModel::Bernoulli(1.0)
            );
            assert!(sim.core.iface(IfaceId(1)).up, "down, then up");
            (s.reason, s.ended_at, s.events)
        };
        assert_eq!(run(7).0, StopReason::Requested);
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn install_is_a_stable_sort() {
        // Two entries at the same instant keep the order they were added
        // in even when a later-added earlier entry is scheduled before them.
        let ms = SimTime::from_millis;
        let (mut sim, ..) = two_hosts(3, LinkCfg::mbps_ms(10, 5));
        let script = NetemScript::new()
            .at(ms(10), Netem::iface(IfaceId(0)).down())
            .at(ms(10), Netem::iface(IfaceId(0)).up())
            .at(ms(2), Netem::world().stop());
        let Ok(()) = sim.install(script, InstallPolicy::Sort);
        let scheduled: Vec<&DynAction> = sim
            .changes
            .iter()
            .map(|c| match c {
                Some(Change::Action(a)) => a,
                _ => panic!("install schedules only actions"),
            })
            .collect();
        assert_eq!(
            scheduled,
            [
                &DynAction::Stop,
                &DynAction::IfaceAdmin {
                    iface: IfaceId(0),
                    up: false
                },
                &DynAction::IfaceAdmin {
                    iface: IfaceId(0),
                    up: true
                },
            ]
        );
    }

    #[test]
    fn queue_shrink_keep_does_not_evict_dropnewest_does() {
        use crate::addr::Addr;
        use bytes::Bytes;
        // Build a core with one link and stuff its queue directly.
        let (mut sim, ..) = two_hosts(9, LinkCfg::mbps_ms(10, 5).queue(10));
        let mk = || Packet::tcp(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2), Bytes::new());
        let st = sim.core.links[0].dir_mut(Dir::AtoB);
        // A busy line queues what it admits.
        st.busy = true;
        for _ in 0..6 {
            assert!(st.admit(mk()).is_none());
        }
        // Default policy: shrinking below occupancy keeps queued packets.
        sim.core.set_queue(LinkId(0), Dir::AtoB, 2);
        {
            let st = sim.core.links[0].dir_ref(Dir::AtoB);
            assert_eq!(st.queue.len(), 6, "Keep never evicts");
            assert_eq!(st.stats.dropped_evicted, 0);
            assert_eq!(st.room(), 0, "new bound applies to admissions");
        }
        // Explicit DropNewest evicts from the tail down to the new bound.
        sim.core
            .set_queue_policy(LinkId(0), Dir::AtoB, 3, Eviction::DropNewest);
        let st = sim.core.links[0].dir_ref(Dir::AtoB);
        assert_eq!(st.queue.len(), 3);
        assert_eq!(st.stats.dropped_evicted, 3);
    }

    #[test]
    fn duplicate_reenqueues_and_reorder_holds_back() {
        // 100 % duplication: the single ping is serialized twice and the
        // far end sees two copies; link stats stay conserved.
        let (mut sim, _a, b) = two_hosts(12, LinkCfg::mbps_ms(10, 5).duplicate(1.0));
        sim.run();
        let st = sim.core.link_stats(LinkId(0), Dir::AtoB);
        assert!(st.duplicated > 0, "every tx duplicated once");
        assert_eq!(st.enqueued, st.delivered, "copy re-enqueues, so conserved");
        let echo = sim.node(b).as_any().downcast_ref::<Echo>().unwrap();
        assert!(echo.seen >= 2, "far end saw the duplicate");

        // 100 % reorder with a hold long enough to outlast the Pinger's
        // 500 ms watchdog timer: delivery shifts by the hold, so the run
        // ends later and the reordered counter ticks.
        let base = {
            let (mut sim, ..) = two_hosts(13, LinkCfg::mbps_ms(10, 5));
            sim.run().ended_at
        };
        let (mut sim, ..) = two_hosts(
            13,
            LinkCfg::mbps_ms(10, 5).reorder(1.0, Duration::from_millis(600)),
        );
        let held = sim.run().ended_at;
        assert!(
            held > base,
            "hold-back delays the exchange: {held} vs {base}"
        );
        assert!(sim.core.link_stats(LinkId(0), Dir::AtoB).reordered > 0);
    }

    #[test]
    fn disabled_impairments_draw_no_randomness() {
        // A run with reorder/duplicate configured at probability zero is
        // bit-identical to one without the fields touched at all — the
        // guards must not consume RNG draws.
        let run = |cfg: LinkCfg| {
            let (mut sim, a, _b) = two_hosts(14, cfg);
            let s = sim.run();
            let ping = sim.node(a).as_any().downcast_ref::<Pinger>().unwrap();
            (s.events, s.ended_at, ping.got)
        };
        let plain = run(LinkCfg::mbps_ms(10, 5).loss(LossModel::Bernoulli(0.2)));
        let zeroed = run(LinkCfg::mbps_ms(10, 5)
            .loss(LossModel::Bernoulli(0.2))
            .reorder(0.0, Duration::from_millis(30))
            .duplicate(0.0));
        assert_eq!(plain, zeroed);
    }

    /// Sends `burst` packets back to back at start, the `i`-th carrying
    /// `i + 1` payload bytes; records the payload length of each arrival.
    struct Burst {
        burst: usize,
        got: Vec<usize>,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let (id, iface) = ctx.my_ifaces().next().unwrap();
            let (src, dst) = (iface.addr, Addr::new(10, 0, 0, 2));
            for i in 0..self.burst {
                ctx.send(id, Packet::tcp(src, dst, Bytes::from(vec![0; i + 1])));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
            self.got.push(pkt.payload.len());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// What a burst of `burst` packets over one `cfg` line leaves behind:
    /// the trace as `kind letter + payload length` (`S1 E1 T1 D1`), the
    /// far end's arrivals, the sending direction's counters and queue
    /// capacity. The run ends `Idle` and the oracle watching it finds the
    /// link-conservation ledger closed.
    fn burst(burst: usize, cfg: LinkCfg) -> (Vec<String>, Vec<usize>, LinkDirStats, usize) {
        let mut sim = Simulator::new(5);
        let a = sim.add_node(Box::new(Burst { burst, got: vec![] }));
        let b = sim.add_node(Box::new(Burst {
            burst: 0,
            got: vec![],
        }));
        let ia = sim.add_iface(a, Addr::new(10, 0, 0, 1), "eth0");
        let ib = sim.add_iface(b, Addr::new(10, 0, 0, 2), "eth0");
        let link = sim.connect(ia, ib, cfg);
        sim.core
            .set_trace(crate::Oracle::wrapping(Box::new(CollectorSink::default())));
        let summary = sim.run();
        assert_eq!(summary.reason, StopReason::Idle);
        let mut sink = sim.core.take_trace().unwrap();
        let oracle = sink.as_any_mut().downcast_mut::<crate::Oracle>().unwrap();
        oracle.finish(&summary);
        let violations = oracle.violations();
        assert!(violations
            .iter()
            .all(|v| v.invariant != "link-conservation"));
        let inner = oracle.take_inner().unwrap();
        let rows = &inner
            .as_any()
            .downcast_ref::<CollectorSink>()
            .unwrap()
            .events;
        let trace = rows
            .iter()
            .map(|(_, kind, pkt)| {
                let letter = match kind {
                    TraceKind::Send { .. } => 'S',
                    TraceKind::Enqueue { .. } => 'E',
                    TraceKind::TxStart { .. } => 'T',
                    TraceKind::Drop { .. } => 'X',
                    TraceKind::Deliver { .. } => 'D',
                };
                format!("{letter}{}", pkt.wire_len - 20)
            })
            .collect();
        let got = sim.node(b).as_any().downcast_ref::<Burst>().unwrap();
        let st = sim.core.links[link.0].dir_ref(Dir::AtoB);
        (
            trace,
            got.got.clone(),
            st.stats.clone(),
            st.queue.capacity(),
        )
    }

    #[test]
    fn a_packet_for_an_idle_line_skips_the_queue() {
        let (trace, got, stats, ring) = burst(1, LinkCfg::mbps_ms(10, 5));
        assert_eq!(trace, ["S1", "E1", "T1", "D1"]);
        assert_eq!(got, [1]);
        assert_eq!((stats.enqueued, stats.delivered), (1, 1));
        assert_eq!(ring, 0, "a line that never queues has no ring");
    }

    #[test]
    fn a_busy_line_queues_in_fifo_order() {
        let (trace, got, stats, ring) = burst(3, LinkCfg::mbps_ms(10, 5));
        let sent = ["S1", "E1", "T1", "S2", "E2", "S3", "E3"];
        let rest = ["T2", "T3", "D1", "D2", "D3"];
        assert_eq!(trace[..7], sent);
        assert_eq!(trace[7..], rest);
        assert_eq!(got, [1, 2, 3]);
        assert_eq!((stats.enqueued, stats.delivered), (3, 3));
        assert!(ring > 0);
    }

    #[test]
    fn a_duplicate_queues_behind_its_original() {
        let cfg = LinkCfg::mbps_ms(10, 5).duplicate(1.0);
        let (trace, got, stats, ring) = burst(1, cfg.clone());
        assert_eq!(trace, ["S1", "E1", "E1", "T1", "T1", "D1", "D1"]);
        assert_eq!(got, [1, 1]);
        assert_eq!(
            (stats.enqueued, stats.duplicated, stats.delivered),
            (2, 1, 2)
        );
        assert!(ring > 0, "the copy waits in the ring");
        // The original takes the only slot of a one-packet queue, even
        // though it went straight to the serializer: the copy is dropped.
        let (trace, got, stats, ring) = burst(1, cfg.queue(1));
        assert_eq!(trace, ["S1", "E1", "X1", "T1", "D1"]);
        assert_eq!(got, [1]);
        assert_eq!((stats.enqueued, stats.dropped_queue), (1, 1));
        assert_eq!(ring, 0);
    }

    fn run_heavy_rearm(in_place: bool) -> (Simulator, RunSummary) {
        let mut sim = Simulator::new(11);
        sim.add_node(Box::new(HeavyRearm {
            pending: None,
            rearms: 0,
            in_place,
        }));
        let summary = sim.run();
        (sim, summary)
    }

    #[test]
    fn rearm_heavy_workload_keeps_queue_bounded() {
        let (sim, summary) = run_heavy_rearm(false);
        // 5000 rearms happened, but the queue never holds more than the
        // ~200 ms window of not-yet-expired cancelled entries plus the two
        // live timers.
        let window = (HeavyRearm::RTO.as_millis() / HeavyRearm::TICK.as_millis()) as usize;
        assert!(summary.reason == StopReason::Idle);
        assert!(
            summary.peak_queue <= window + 8,
            "peak queue {} must track the live window (~{window}), not \
             the 5000-rearm history",
            summary.peak_queue
        );
        assert_eq!(sim.core.live_timer_count(), 0);
    }

    /// The same 5 000 restarts re-armed in place: the queue holds the two
    /// live timers' entries and nothing else, and the run dispatches the
    /// same events.
    #[test]
    fn rearm_in_place_heavy_workload_queues_only_live_timers() {
        let (_, lazy) = run_heavy_rearm(false);
        let (sim, summary) = run_heavy_rearm(true);
        assert_eq!(summary.reason, StopReason::Idle);
        assert!(summary.peak_queue <= 4, "peak queue {}", summary.peak_queue);
        assert_eq!(summary.events, lazy.events);
        assert_eq!(summary.ended_at, lazy.ended_at);
        assert_eq!(summary.stale, 0);
        // Each pop moves the entry to the deadline the tick before it set,
        // 199 ms on: 26 moves over the 5 s run.
        assert_eq!(summary.requeued, 26);
        assert_eq!(lazy.stale, 5_000);
        assert_eq!(sim.core.live_timer_count(), 0);
    }

    /// Lazy cancellation as the event queue sees it: a cancelled timer —
    /// in the wheel or a revolution away — stays queued, pops exactly once
    /// at its expiry without reaching the node, and its slot is reused.
    #[test]
    fn cancelled_timers_pop_once_at_expiry_and_slots_recycle() {
        struct Churn {
            ticks: u64,
        }
        impl Churn {
            const TICKS: u64 = 100;
        }
        impl Node for Churn {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for after in [Duration::from_millis(300), Duration::from_secs(2)] {
                    let h = ctx.set_timer_after(after, 0);
                    assert!(ctx.cancel_timer(h));
                }
                ctx.set_timer_after(Duration::from_millis(1), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 1, "a cancelled timer reached the node");
                self.ticks += 1;
                let h = ctx.set_timer_after(Duration::from_millis(50), 0);
                assert!(ctx.cancel_timer(h));
                if self.ticks < Self::TICKS {
                    ctx.set_timer_after(Duration::from_millis(1), 1);
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(5);
        sim.add_node(Box::new(Churn { ticks: 0 }));
        let summary = sim.run();
        assert_eq!(summary.reason, StopReason::Idle);
        // Start + 100 ticks dispatched; the 100 + 2 cancelled entries pop
        // stale, each once.
        assert_eq!(summary.events, 1 + Churn::TICKS);
        assert_eq!(summary.stale, Churn::TICKS + 2);
        // The queue drains when its last entry — cancelled at t = 0 — expires.
        assert_eq!(summary.ended_at, SimTime::from_secs(2));
        // Inside a tick handler: 49 earlier cancelled 50 ms entries not yet
        // expired, the new one, the next tick and the two long ones.
        assert_eq!(summary.peak_queue, 53);
        assert_eq!(sim.core.queue.slab_len(), summary.peak_queue);
        assert_eq!(sim.core.queue_depth(), 0);
    }

    /// How [`Schedule`] restarts a pending timer.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Restart {
        InPlace,
        CancelAndArm,
    }

    /// The kinds of restart the random schedule must have exercised.
    #[derive(Clone, Copy)]
    enum Edge {
        Earlier,
        Equal,
        Later,
        AfterCancel,
        AfterFire,
        PastTheWheel,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Lane {
        Pending,
        Cancelled,
        Fired,
    }

    /// A seeded random schedule of arms, restarts and cancels over a few
    /// timer lanes, driven by a tick timer. It records every dispatch; the
    /// decisions depend only on state both restart styles share, so two
    /// runs must agree dispatch for dispatch.
    struct Schedule {
        how: Restart,
        rng: SimRng,
        /// Per lane: the last handle, the deadline it was set for and where
        /// the timer is; kept after it fires or is cancelled, when the handle
        /// is stale.
        lanes: [Option<(TimerHandle, SimTime, Lane)>; 6],
        ticks_left: u32,
        serial: u64,
        fired: Vec<(SimTime, u64)>,
        edges: [u32; 6],
    }

    impl Schedule {
        const TICK: u64 = u64::MAX;

        fn new(how: Restart, seed: u64) -> Self {
            Schedule {
                how,
                rng: SimRng::seed_from_u64(seed),
                lanes: [None; 6],
                ticks_left: 3_000,
                serial: 0,
                fired: Vec::new(),
                edges: [0; 6],
            }
        }

        fn ms(&mut self, below: u64) -> Duration {
            Duration::from_nanos(self.rng.next_u64() % (below * 1_000_000))
        }

        fn step(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            let lane = (self.rng.next_u64() % self.lanes.len() as u64) as usize;
            let state = self.lanes[lane];
            if let Some((h, at, Lane::Pending)) = state {
                if self.rng.next_u64() % 6 == 0 {
                    assert!(ctx.cancel_timer(h));
                    self.lanes[lane] = Some((h, at, Lane::Cancelled));
                    return;
                }
            }
            let pending = state.filter(|&(_, at, lane)| lane == Lane::Pending && at > now);
            let after = match (pending, self.rng.next_u64() % 5) {
                (_, 0) => {
                    self.edges[Edge::PastTheWheel as usize] += 1;
                    Duration::from_millis(1_000) + self.ms(1_500)
                }
                (Some((_, at, _)), 1) => {
                    self.edges[Edge::Earlier as usize] += 1;
                    let ahead = at.as_nanos() - now.as_nanos();
                    Duration::from_nanos(self.rng.next_u64() % ahead)
                }
                (Some((_, at, _)), 2) => {
                    self.edges[Edge::Equal as usize] += 1;
                    Duration::from_nanos(at.as_nanos() - now.as_nanos())
                }
                (Some((_, at, _)), _) => {
                    self.edges[Edge::Later as usize] += 1;
                    Duration::from_nanos(at.as_nanos() - now.as_nanos()) + self.ms(50)
                }
                (None, _) => {
                    match state.map(|(.., lane)| lane) {
                        Some(Lane::Cancelled) => self.edges[Edge::AfterCancel as usize] += 1,
                        Some(Lane::Fired) => self.edges[Edge::AfterFire as usize] += 1,
                        _ => {}
                    }
                    self.ms(300)
                }
            };
            self.serial += 1;
            let token = (lane as u64) << 32 | self.serial;
            let h = match (self.how, state) {
                (Restart::InPlace, Some((h, ..))) => ctx.rearm_timer_after(h, after, token),
                (Restart::CancelAndArm, Some((h, ..))) => {
                    ctx.cancel_timer(h);
                    ctx.set_timer_after(after, token)
                }
                (_, None) => ctx.set_timer_after(after, token),
            };
            self.lanes[lane] = Some((h, now + after, Lane::Pending));
        }
    }

    impl Node for Schedule {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_after(Duration::ZERO, Self::TICK);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.fired.push((ctx.now(), token));
            if token != Self::TICK {
                let lane = self.lanes[(token >> 32) as usize].as_mut().unwrap();
                assert_eq!(lane.2, Lane::Pending, "only the pending timer fires");
                lane.2 = Lane::Fired;
                return;
            }
            for _ in 0..1 + self.rng.next_u64() % 3 {
                self.step(ctx);
            }
            if self.ticks_left > 0 {
                self.ticks_left -= 1;
                let gap = self.ms(20);
                ctx.set_timer_after(gap, Self::TICK);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Run a schedule in 37 ms `run_until` slices (so horizons keep falling
    /// between a timer's old and re-armed deadlines) and sum the slices.
    /// Returns the dispatches, the restart kinds exercised and the summed
    /// summary.
    fn run_schedule(how: Restart, seed: u64) -> (Vec<(SimTime, u64)>, [u32; 6], RunSummary) {
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(Schedule::new(how, seed)));
        let mut total = RunSummary {
            reason: StopReason::Horizon,
            ended_at: SimTime::ZERO,
            events: 0,
            stale: 0,
            requeued: 0,
            peak_queue: 0,
        };
        let mut horizon = SimTime::ZERO;
        while total.reason != StopReason::Idle {
            horizon += Duration::from_millis(37);
            let s = sim.run_until(horizon);
            total = RunSummary {
                events: total.events + s.events,
                stale: total.stale + s.stale,
                requeued: total.requeued + s.requeued,
                ..s
            };
        }
        assert_eq!(sim.core.live_timer_count(), 0);
        let node = sim.node(n).as_any().downcast_ref::<Schedule>().unwrap();
        (node.fired.clone(), node.edges, total)
    }

    /// In-place re-arming is cancel-and-arm without the superseded queue
    /// entries: the same `(time, token)` dispatches and event count on
    /// random schedules, with no more queue entries or pops.
    #[test]
    fn rearm_matches_cancel_and_arm_on_random_schedules() {
        for seed in 0..6 {
            let (lazy, _, lazy_sum) = run_schedule(Restart::CancelAndArm, seed);
            let (fast, edges, fast_sum) = run_schedule(Restart::InPlace, seed);
            assert_eq!(fast, lazy, "seed {seed}");
            assert_eq!(fast_sum.events, lazy_sum.events, "seed {seed}");
            assert_eq!(fast_sum.events, fast.len() as u64 + 1);
            assert!(fast_sum.peak_queue <= lazy_sum.peak_queue, "seed {seed}");
            // A timer cancelled after an in-place re-arm pops stale at the
            // instant its entry waited for, not at the later deadline, so
            // an idle end can come earlier, never later.
            assert!(fast_sum.ended_at <= lazy_sum.ended_at, "seed {seed}");
            assert!(
                fast_sum.stale + fast_sum.requeued <= lazy_sum.stale,
                "seed {seed}: {fast_sum:?} vs {lazy_sum:?}"
            );
            assert_eq!(lazy_sum.requeued, 0);
            assert!(fast_sum.requeued > 0, "seed {seed} re-armed in place");
            assert!(
                edges.iter().all(|&n| n > 0),
                "seed {seed} missed a restart kind: {edges:?}"
            );
        }
    }

    /// The edges one by one: an equal deadline keeps insertion order behind
    /// a timer armed in between, a horizon between the old and the new
    /// deadline moves the entry without dispatching it, and a stale handle
    /// arms afresh.
    #[test]
    fn rearm_in_place_edges() {
        #[derive(Default)]
        struct Edges {
            fired: Vec<(SimTime, u64)>,
            handles: Vec<TimerHandle>,
        }
        impl Node for Edges {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let a = ctx.set_timer_after(Duration::from_millis(10), 1);
                ctx.set_timer_after(Duration::from_millis(10), 2);
                // Equal deadline, later seq: fires after timer 2.
                let a2 = ctx.rearm_timer_after(a, Duration::from_millis(10), 3);
                let c = ctx.set_timer_after(Duration::from_millis(20), 4);
                let c2 = ctx.rearm_timer_after(c, Duration::from_millis(50), 5);
                self.handles = vec![a, a2, c, c2];
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push((ctx.now(), token));
                if token == 3 {
                    // Timer 1/3 has fired: its handle is stale.
                    let h = ctx.rearm_timer_after(self.handles[0], Duration::from_millis(5), 6);
                    self.handles.push(h);
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: Packet) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::<Edges>::default());
        let s = sim.run_until(SimTime::from_millis(30));
        // Start, timers 2 and 3 at 10 ms and 6 at 15 ms; the entry of
        // timer 4 popped at 20 ms and moved to 50 ms.
        assert_eq!((s.events, s.stale, s.requeued), (4, 0, 2));
        let s = sim.run();
        assert_eq!(
            (s.events, s.stale, s.requeued, s.ended_at),
            (1, 0, 0, SimTime::from_millis(50))
        );
        let node = sim.node(n).as_any().downcast_ref::<Edges>().unwrap();
        let ms = SimTime::from_millis;
        assert_eq!(
            node.fired,
            [(ms(10), 2), (ms(10), 3), (ms(15), 6), (ms(50), 5)]
        );
        let h = &node.handles;
        assert_eq!(
            (h[1], h[3]),
            (h[0], h[2]),
            "later or equal keeps the handle"
        );
        assert_ne!(h[4], h[0], "a stale handle arms a new timer");
        // The three timers' entries; the re-arms pushed none.
        assert_eq!(sim.core.peak_queue_depth(), 3);
    }

    /// A dropped world's storage goes to the thread and the next world
    /// takes it: two worlds alive at once leave two sets, and a world
    /// built on one follows the trajectory of a world built on none.
    #[test]
    fn worlds_start_on_what_dropped_worlds_gave_back() {
        let run = |seed| {
            let cfg = LinkCfg::mbps_ms(10, 5).loss(LossModel::Bernoulli(0.3));
            let (mut sim, a, _b) = two_hosts(seed, cfg);
            let s = sim.run();
            let ping = sim.node(a).as_any().downcast_ref::<Pinger>().unwrap();
            (s, ping.got, ping.timer_fired.clone())
        };
        let cores = || {
            let stock = crate::spare::stock().into_iter();
            let mut cores = stock.filter(|s| s.kind == std::any::type_name::<SimCore>());
            cores.next().map_or(0, |s| s.on_hand)
        };
        let (fresh, warm, spares) = std::thread::spawn(move || {
            let fresh = run(7);
            assert_eq!(cores(), 1);
            let both = (Simulator::new(1), Simulator::new(2));
            assert_eq!(cores(), 0);
            drop(both);
            (fresh, run(7), cores())
        })
        .join()
        .unwrap();
        assert_eq!(warm, fresh);
        assert_eq!(spares, 2, "one set per world that was alive at once");
    }

    /// Interfaces added to nodes in turn are listed per node in creation
    /// order, and a node without any lists none.
    #[test]
    fn interfaces_list_per_node_in_creation_order() {
        let mut sim = Simulator::new(0);
        let [a, b, c] = [(); 3].map(|_| sim.add_node(Box::new(Echo { seen: 0 })));
        let mut want = [vec![], vec![], vec![]];
        for i in 0..7u8 {
            let node = if i % 3 == 1 { b } else { a };
            let id = sim.add_iface(node, Addr::new(10, 0, 0, i), "eth");
            want[node.0].push((id, Addr::new(10, 0, 0, i)));
        }
        for n in [a, b, c] {
            let got: Vec<_> = sim.core.ifaces_of(n).map(|(id, i)| (id, i.addr)).collect();
            assert_eq!(got, want[n.0]);
        }
        assert_eq!(
            sim.core.iface_by_addr(b, Addr::new(10, 0, 0, 4)),
            Some(IfaceId(4))
        );
        assert_eq!(sim.core.iface_by_addr(a, Addr::new(10, 0, 0, 4)), None);
        assert_eq!(sim.core.ifaces_of(NodeId(9)).count(), 0);
    }

    /// Retiring timers never grows the free list: it is reserved to the
    /// slot table's capacity whenever the table grows.
    #[test]
    fn timer_free_list_is_reserved_with_the_slot_table() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(Echo { seen: 0 }));
        let mut ctx = Ctx {
            core: &mut sim.core,
            node: n,
        };
        let handles: Vec<_> = (0..100)
            .map(|i| ctx.set_timer_after(Duration::from_millis(i), i))
            .collect();
        let core = &mut sim.core;
        assert!(core.timer_free.capacity() >= core.timer_slots.capacity());
        let cap = core.timer_free.capacity();
        for h in handles {
            assert!(core.cancel_timer(h));
        }
        assert_eq!(
            (core.timer_free.len(), core.timer_free.capacity()),
            (100, cap)
        );
    }
}
