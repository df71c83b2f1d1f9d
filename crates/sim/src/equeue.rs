//! The simulator's event queue: a hashed timing wheel over the event slab.
//!
//! The run loop's innermost operations are "schedule an event a short time
//! from now" and "pop the earliest event", and every workload spends more
//! host time here than in any other layer. A binary heap pays an
//! `O(log n)` sift on each of them; [`EventQueue`] pays a list link on
//! push and an array read on pop:
//!
//! * time is cut into ticks of 2^16 ns (≈ 65 µs); the wheel has 2^14
//!   buckets, one per tick of the next ≈ 1.07 s, so link events *and*
//!   RTO-scale timers land in it;
//! * a bucket is an intrusive singly-linked list threaded through the
//!   event slab (`Slot::next`), `heads[tick % N]` is its first slot and one
//!   bit per bucket in `occupied` says whether it has any — a push is two
//!   stores and an `or`, the next non-empty bucket is a `trailing_zeros`
//!   scan;
//! * when the earliest non-empty bucket *opens* its keys are copied into
//!   `current` and sorted once; pops then read `current` front to back.
//!   An event scheduled inside the already-open tick is placed into
//!   `current` by insertion from the back (it is almost always the latest);
//! * only entries more than a wheel revolution ahead (scripted scenario
//!   changes, give-up timers) wait in a binary heap, `far`, and move into
//!   the wheel as it turns.
//!
//! The slab's free slots are chained through the same `next` field, so the
//! queue's only growable storage is the slab, `current` and (rarely) `far`;
//! its fixed tables are 66 KiB (`heads` 64 KiB, the bitmap 2 KiB). A
//! dropped world hands the queue to the next one on its thread
//! ([`EventQueue::clear`]: emptied, with `heads` all `NIL` again), so a
//! warm queue allocates nothing until it outgrows the one before it.
//!
//! What it costs instead: a bucket is sorted when it opens and an insertion
//! into the open one moves the keys behind it, so the price per event grows
//! with the number of events *in one tick* — a handful in every scenario
//! of the tree, where the old heap's grew with the whole queue. A world
//! with hundreds of events per 65 µs would be better served by a heap (the
//! `event_queue/hold_1k_same_bucket` micro-benchmark is that world).
//!
//! Ordering is **exactly** the `(at, seq)` order a single heap would
//! produce: the structures partition time (`current` < wheel < `far`) and a
//! bucket is sorted before it is drained. Determinism is the simulator's
//! core contract; the tests check this against a plain-heap reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the tick (bucket) width in nanoseconds: 2^16 ns ≈ 65.5 µs,
/// about five full-size packets on a 1 Gb/s link and well under one on the
/// paper's 8 Mb/s paths, so an open bucket holds a handful of events.
const TICK_SHIFT: u32 = 16;
/// Number of wheel buckets: 2^14 ticks ≈ 1.07 s of future, past the RTO
/// floor and the one-second timers of every scenario in the tree.
const WHEEL_SLOTS: usize = 1 << 14;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Words in the occupancy bitmap.
const WORDS: usize = WHEEL_SLOTS / 64;
/// "No slot": list terminator and empty-bucket marker.
const NIL: u32 = u32::MAX;

/// An entry popped from the event queue. Ties are broken by insertion
/// order (`seq`) so the simulation is fully deterministic.
pub(crate) struct Scheduled<E> {
    pub at: SimTime,
    /// Insertion-order tie-breaker; the run loop tells a timer's current
    /// entry from one it re-armed in place by it.
    pub seq: u64,
    pub ev: E,
}

/// One slab entry. A queued slot is on exactly one list: a wheel bucket's
/// (then `next` is the bucket's next slot), or none while its key sits in
/// `current` or `far`. A free slot has `ev == None` and `next` continues
/// the free list.
struct Slot<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    ev: Option<E>,
}

/// What `current` and `far` hold: the ordering fields plus the slab slot.
/// The event payload never moves while it is queued.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

const fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// Timing wheel over slab-backed events; see the module docs.
pub(crate) struct EventQueue<E> {
    /// Event payloads and the links between them, addressed by slot.
    slab: Vec<Slot<E>>,
    /// First free slab slot, or `NIL`.
    free: u32,
    /// `heads[t % N]` is the first slot of the bucket for tick `t` in
    /// `[next_tick, next_tick + N)`, or `NIL`. Always `N` long; a slice
    /// rather than an array so that it can be moved out without putting
    /// another 64 KiB in its place.
    heads: Box<[u32]>,
    /// Bit `b` is set iff `heads[b] != NIL`.
    occupied: [u64; WORDS],
    /// First tick that has not been opened; everything before it is in
    /// `current`.
    next_tick: u64,
    /// Keys of the open window (`tick < next_tick`), ascending; those
    /// before `cursor` have been popped.
    current: Vec<Key>,
    cursor: usize,
    /// Entries at `next_tick + N` ticks or later.
    far: BinaryHeap<Reverse<Key>>,
    len: usize,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    /// An empty queue without its bucket table: [`EventQueue::ensure_wheel`]
    /// allocates that before the first push.
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            heads: Box::default(),
            occupied: [0; WORDS],
            next_tick: 0,
            current: Vec::new(),
            cursor: 0,
            far: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Allocate the bucket table unless the queue has one.
    pub(crate) fn ensure_wheel(&mut self) {
        if self.heads.is_empty() {
            self.heads = vec![NIL; WHEEL_SLOTS].into_boxed_slice();
        }
        debug_assert!(self.heads.iter().all(|&h| h == NIL));
    }

    /// Drop every queued event and start again at time zero on the same
    /// storage. Only the buckets the bitmap marks are reset, so this costs
    /// the events still queued, not the table.
    pub(crate) fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.heads[w * 64 + bits.trailing_zeros() as usize] = NIL;
                bits &= bits - 1;
            }
        }
        self.slab.clear();
        self.current.clear();
        self.far.clear();
        self.free = NIL;
        self.next_tick = 0;
        self.cursor = 0;
        self.len = 0;
        self.peak_len = 0;
    }

    /// Entries currently queued (live and lazily-cancelled alike).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of [`EventQueue::len`] since construction.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, ev: E) {
        let entry = Slot {
            at,
            seq,
            next: NIL,
            ev: Some(ev),
        };
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = std::mem::replace(&mut self.slab[s as usize], entry).next;
            s
        } else {
            let s = u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("fewer than 2^32 - 1 events queued at once");
            self.slab.push(entry);
            s
        };
        let tick = tick_of(at);
        if tick < self.next_tick {
            self.insert_current(Key { at, seq, slot });
        } else if tick - self.next_tick < WHEEL_SLOTS as u64 {
            self.link(tick, slot);
        } else {
            self.far.push(Reverse(Key { at, seq, slot }));
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Time of the earliest entry, advancing the wheel as needed.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.cursor == self.current.len() {
            self.advance();
        }
        self.current.get(self.cursor).map(|k| k.at)
    }

    /// Remove and return the earliest entry (exact `(at, seq)` order).
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.cursor == self.current.len() {
            self.advance();
        }
        let key = *self.current.get(self.cursor)?;
        self.cursor += 1;
        let slot = &mut self.slab[key.slot as usize];
        let ev = slot
            .ev
            .take()
            .expect("queued key points at an occupied slab slot");
        slot.next = self.free;
        self.free = key.slot;
        self.len -= 1;
        Some(Scheduled {
            at: key.at,
            seq: key.seq,
            ev,
        })
    }

    /// Place a key that belongs to the open window. A newly scheduled
    /// event is later than most of what the window still holds, so the
    /// search runs from the back; it stops at `cursor`, which makes an
    /// entry earlier than everything unpopped the next one out.
    fn insert_current(&mut self, key: Key) {
        if self.cursor == self.current.len() {
            self.current.clear();
            self.cursor = 0;
        }
        let mut i = self.current.len();
        while i > self.cursor && key < self.current[i - 1] {
            i -= 1;
        }
        self.current.insert(i, key);
    }

    /// Put `slot` on the list of the bucket for `tick`, which must lie
    /// inside the wheel's horizon.
    fn link(&mut self, tick: u64, slot: u32) {
        debug_assert!(tick >= self.next_tick && tick - self.next_tick < WHEEL_SLOTS as u64);
        let b = (tick & WHEEL_MASK) as usize;
        self.slab[slot as usize].next = std::mem::replace(&mut self.heads[b], slot);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// `current` is used up: open the earliest non-empty bucket. Leaves
    /// `current` empty only when the whole queue is.
    fn advance(&mut self) {
        self.current.clear();
        self.cursor = 0;
        let tick = match self.first_occupied_tick() {
            Some(tick) => tick,
            None => {
                // Everything left is a revolution or more away: turn the
                // wheel straight to the earliest of it instead of stepping
                // through empty time.
                let Some(Reverse(head)) = self.far.peek() else {
                    return;
                };
                self.next_tick = tick_of(head.at);
                self.refill_from_far();
                self.next_tick
            }
        };
        let b = (tick & WHEEL_MASK) as usize;
        self.occupied[b / 64] &= !(1 << (b % 64));
        let mut s = std::mem::replace(&mut self.heads[b], NIL);
        while s != NIL {
            let slot = &self.slab[s as usize];
            self.current.push(Key {
                at: slot.at,
                seq: slot.seq,
                slot: s,
            });
            s = slot.next;
        }
        self.current.sort_unstable();
        // The horizon moves with `next_tick`; whatever of `far` it now
        // covers must be in the wheel before the next bucket is chosen.
        // Those entries are at `tick + N` or later, so none belongs to the
        // window that just opened.
        self.next_tick = tick + 1;
        self.refill_from_far();
    }

    /// Tick of the earliest non-empty bucket: the first set bit at or
    /// after `next_tick`'s position, wrapping once around the wheel.
    fn first_occupied_tick(&self) -> Option<u64> {
        let start = (self.next_tick & WHEEL_MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let below_start = !(!0u64 << b0);
        for i in 0..=WORDS {
            let mut word = self.occupied[(w0 + i) % WORDS];
            if i == 0 {
                word &= !below_start;
            } else if i == WORDS {
                word &= below_start;
            }
            if word != 0 {
                let dist = i * 64 + word.trailing_zeros() as usize - b0;
                return Some(self.next_tick + dist as u64);
            }
        }
        None
    }

    /// Move `far` entries that the horizon now covers into the wheel.
    fn refill_from_far(&mut self) {
        while let Some(Reverse(key)) = self.far.peek() {
            let tick = tick_of(key.at);
            debug_assert!(tick >= self.next_tick, "far entry behind the wheel");
            if tick - self.next_tick >= WHEEL_SLOTS as u64 {
                break;
            }
            let slot = key.slot;
            self.far.pop();
            self.link(tick, slot);
        }
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        let mut q = Self::default();
        q.ensure_wheel();
        q
    }

    /// Slab slots ever created; equals [`EventQueue::peak_len`] as long as
    /// freed slots are reused before the slab grows.
    pub(crate) fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Reference model: one binary heap over whole entries.
    struct RefEntry {
        at: SimTime,
        seq: u64,
        ev: u32,
    }
    impl PartialEq for RefEntry {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl Eq for RefEntry {}
    impl PartialOrd for RefEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }
    struct Reference {
        heap: BinaryHeap<Reverse<RefEntry>>,
    }
    impl Reference {
        fn push(&mut self, at: SimTime, seq: u64, ev: u32) {
            self.heap.push(Reverse(RefEntry { at, seq, ev }));
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap.pop().map(|Reverse(s)| (s.at, s.seq, s.ev))
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 1, "b");
        q.push(SimTime::from_millis(5), 0, "a");
        q.push(SimTime::from_millis(1), 2, "first");
        q.push(SimTime::from_secs(10), 3, "far");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.ev)).collect();
        assert_eq!(order, ["first", "a", "b", "far"]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 0, ());
        q.push(SimTime::from_micros(10), 1, ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        assert_eq!(q.pop().unwrap().at, SimTime::from_micros(10));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn slab_slots_recycle() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(SimTime::from_nanos(round), round, round);
            assert_eq!(q.pop().unwrap().ev, round);
        }
        // Push/pop cycles reuse the single freed slot instead of growing.
        assert!(q.slab.len() <= 2, "slab grew to {}", q.slab.len());
    }

    /// Randomized interleaving of pushes (including pushes at the time of
    /// the last pop, as zero-delay events do) must match a plain heap.
    #[test]
    fn queue_orders_like_reference() {
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut r = Reference {
                heap: BinaryHeap::new(),
            };
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut ev = 0u32;
            for _round in 0..200 {
                // A burst of pushes at `now + delta` for mixed deltas:
                // sub-bucket, intra-ring, and far-future.
                for _ in 0..(rng.next_u64() % 8) {
                    let delta = match rng.next_u64() % 4 {
                        0 => rng.next_u64() % 1_000,                    // same bucket
                        1 => rng.next_u64() % 3_000_000,                // near ring
                        2 => rng.next_u64() % 60_000_000,               // across ring
                        _ => 100_000_000 + rng.next_u64() % 2e9 as u64, // overflow
                    };
                    let at = SimTime::from_nanos(now + delta);
                    q.push(at, seq, ev);
                    r.push(at, seq, ev);
                    seq += 1;
                    ev += 1;
                }
                // Pop a few and compare.
                for _ in 0..(rng.next_u64() % 6) {
                    let got = q.pop().map(|s| (s.at, s.seq, s.ev));
                    let want = r.pop();
                    assert_eq!(got, want, "seed {seed}");
                    if let Some((at, ..)) = got {
                        now = at.as_nanos();
                    }
                }
            }
            // Drain.
            loop {
                let got = q.pop().map(|s| (s.at, s.seq, s.ev));
                let want = r.pop();
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// A queue cleared with entries in every structure — the open
    /// window, wheel buckets and `far` — comes back empty, every bucket
    /// head reset, and orders the next run's events like a fresh queue.
    #[test]
    fn recycled_queue_orders_like_a_fresh_one() {
        let mut q = EventQueue::new();
        for (seq, ms) in [1u64, 1, 5, 700, 3_000, 9_000].into_iter().enumerate() {
            q.push(SimTime::from_millis(ms), seq as u64, seq as u32);
        }
        assert_eq!(q.pop().map(|s| s.ev), Some(0), "the first bucket is open");
        q.clear();
        assert!(q.heads.iter().all(|&h| h == NIL));
        assert!(q.slab.is_empty() && q.current.is_empty() && q.far.is_empty());
        q.ensure_wheel();
        assert_eq!((q.len(), q.peak_len(), q.peek_time()), (0, 0, None));
        let mut r = Reference {
            heap: BinaryHeap::new(),
        };
        let mut rng = SimRng::seed_from_u64(3);
        for seq in 0..500u64 {
            let at = SimTime::from_nanos(rng.next_u64() % 3_000_000_000);
            q.push(at, seq, seq as u32);
            r.push(at, seq, seq as u32);
        }
        for _ in 0..=500 {
            assert_eq!(q.pop().map(|s| (s.at, s.seq, s.ev)), r.pop());
        }
    }

    /// One wheel revolution in nanoseconds.
    const HORIZON: u64 = (WHEEL_SLOTS as u64) << TICK_SHIFT;
    const TICK: u64 = 1 << TICK_SHIFT;

    /// The queue under test and the reference heap, fed the same entries
    /// and popped in lockstep.
    struct Pair {
        q: EventQueue<u32>,
        r: Reference,
        seq: u64,
        /// Time of the last pop, as the run loop's `now`.
        now: u64,
    }
    impl Pair {
        fn starting_at(now: u64) -> Self {
            Pair {
                q: EventQueue::new(),
                r: Reference {
                    heap: BinaryHeap::new(),
                },
                seq: 0,
                now,
            }
        }
        fn push_at(&mut self, ns: u64) {
            let at = SimTime::from_nanos(ns);
            self.q.push(at, self.seq, self.seq as u32);
            self.r.push(at, self.seq, self.seq as u32);
            self.seq += 1;
        }
        fn push(&mut self, delta: u64) {
            self.push_at(self.now + delta);
        }
        /// Pop both and compare; false once both are empty.
        fn pop(&mut self) -> bool {
            let got = self.q.pop().map(|s| (s.at, s.seq, s.ev));
            assert_eq!(got, self.r.pop(), "after {} pushes", self.seq);
            assert_eq!(self.q.len(), self.r.heap.len());
            if let Some((at, ..)) = got {
                self.now = at.as_nanos();
            }
            got.is_some()
        }
        fn drain(&mut self) {
            while self.pop() {}
        }
    }

    /// Deltas on both sides of the horizon (wheel vs `far`), kept up until
    /// the wheel has gone round several times.
    #[test]
    fn horizon_straddling_deltas_over_full_revolutions() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut p = Pair::starting_at(0);
            p.push(0);
            while p.now < 4 * HORIZON {
                for _ in 0..(1 + rng.next_u64() % 4) {
                    let delta = match rng.next_u64() % 4 {
                        0 => rng.next_u64() % (2 * TICK),
                        1 => HORIZON / 3 + rng.next_u64() % HORIZON,
                        // The last in-wheel ticks and the first `far` ones.
                        _ => HORIZON - 3 * TICK + rng.next_u64() % (6 * TICK),
                    };
                    p.push(delta);
                }
                for _ in 0..(1 + rng.next_u64() % 4) {
                    p.pop();
                }
            }
            assert!(p.q.next_tick > 4 * WHEEL_SLOTS as u64, "the wheel wrapped");
            p.drain();
        }
    }

    /// Zero-delay events: bursts scheduled at the time of the last pop (and
    /// a little after it), while that tick's bucket is the open one.
    #[test]
    fn equal_time_bursts_into_the_open_bucket() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut p = Pair::starting_at(0);
        p.push_at(5 * TICK + 17);
        p.push_at(5 * TICK + 900);
        for _round in 0..40 {
            assert!(p.pop());
            for _ in 0..(rng.next_u64() % 24) {
                p.push([0, 0, 0, 1, 40][(rng.next_u64() % 5) as usize]);
            }
            // One for the next tick keeps the rounds going once the burst
            // has been eaten.
            p.push(TICK);
            for _ in 0..(rng.next_u64() % 12) {
                p.pop();
            }
        }
        p.drain();
    }

    /// The run loop never schedules into the past, but the queue's answer
    /// is defined anyway (and is the reference heap's): such an entry is
    /// the next one out.
    #[test]
    fn entry_earlier_than_the_last_pop_is_next_out() {
        let mut p = Pair::starting_at(0);
        p.push_at(7 * TICK + 500);
        p.push_at(7 * TICK + 600);
        assert!(p.pop());
        p.push_at(7 * TICK + 100);
        p.push_at(2 * TICK);
        p.drain();
        assert_eq!(p.now, 7 * TICK + 600);
    }

    /// Hour-scale times: an empty wheel jumps straight to a `far` entry,
    /// the last representable instant included, and keeps ordering near
    /// events scheduled from there.
    #[test]
    fn hour_scale_times_and_a_jump_from_an_empty_wheel() {
        const HOUR: u64 = 3_600_000_000_000;
        let mut p = Pair::starting_at(3 * HOUR);
        p.push(2 * HOUR);
        p.push(2 * HOUR + 7);
        p.push_at(u64::MAX);
        assert!(p.pop());
        assert_eq!(p.now, 5 * HOUR);
        assert_eq!(p.q.next_tick, tick_of(SimTime::from_nanos(5 * HOUR)) + 1);
        // From here, near events around the jumped-to instant.
        for delta in [3 * TICK, 0, HORIZON - 1, 12, HORIZON + TICK, TICK - 1] {
            p.push(delta);
        }
        p.drain();
        assert_eq!(p.now, u64::MAX);
        // A drained queue starts again from wherever the next entry is.
        p.push_at(u64::MAX);
        p.drain();
    }

    /// Skipping empty buckets by bitmap must not overtake `far`: an entry
    /// that was beyond the horizon when pushed is in the wheel before a
    /// later-pushed, later-timed wheel entry can be chosen — also when its
    /// bucket is the one that has just been drained, and when the wheel's
    /// last in-horizon bucket sits below the start position in the bitmap.
    #[test]
    fn bitmap_skip_never_passes_a_far_entry() {
        let mut p = Pair::starting_at(0);
        let x = 100 * TICK + 5;
        p.push_at(x);
        p.push_at(x + HORIZON); // `far`; same bucket index as `x`
        p.push_at(x + HORIZON + 3 * TICK); // `far`
        assert_eq!(p.q.far.len(), 2);
        assert!(p.pop());
        // `x`'s bucket opened: the horizon moved one tick and covers the
        // first `far` entry only.
        assert_eq!(p.q.far.len(), 1);
        p.push_at(x + HORIZON - TICK); // last in-horizon tick, bit 36 < 37
        p.push_at(x + HORIZON + 1); // shares the re-used bucket
        p.push_at(x + HORIZON / 2);
        assert!(p.pop());
        assert_eq!(p.now, x + HORIZON / 2);
        assert_eq!(p.q.far.len(), 0, "the skip pulled the rest of `far` in");
        p.push_at(x + HORIZON + 4 * TICK); // wheel, later than the old `far`
        p.push_at(x + HORIZON + 2 * TICK);
        p.drain();
        assert_eq!(p.now, x + HORIZON + 4 * TICK);
    }
}
