//! Stream buffers: the send buffer and the out-of-order reassembly queue.
//!
//! Both work in flat 64-bit stream offsets (bytes since the start of the
//! stream). They are used at two levels: per subflow (subflow sequence
//! space) and once per connection (MPTCP data-sequence space).

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// A bounded byte-stream send buffer.
///
/// Holds data the application has written but the receiver has not yet
/// acknowledged. Data is retained until released so any range can be
/// (re)transmitted, including reinjection on another subflow.
#[derive(Debug, Default)]
pub struct SendBuffer {
    /// Stream offset of the first byte in `chunks`.
    head: u64,
    /// The buffered chunks in stream order, each with the offset of its
    /// first byte, so a slice finds its chunk by binary search.
    chunks: VecDeque<(u64, Bytes)>,
    /// Total buffered bytes.
    len: u64,
    /// Capacity in bytes; `write` accepts at most the free space.
    cap: u64,
}

impl SendBuffer {
    /// A buffer with the given capacity in bytes.
    pub fn with_capacity(cap: u64) -> Self {
        Self::reusing(cap, VecDeque::new())
    }

    /// [`SendBuffer::with_capacity`] on the chunk ring another buffer gave
    /// up with [`SendBuffer::clear`]: whatever `ring` still holds is
    /// dropped first, its capacity is kept.
    pub fn reusing(cap: u64, mut ring: VecDeque<(u64, Bytes)>) -> Self {
        ring.clear();
        SendBuffer {
            head: 0,
            chunks: ring,
            len: 0,
            cap,
        }
    }

    /// Offset of the first retained (unacknowledged) byte.
    pub fn head_offset(&self) -> u64 {
        self.head
    }

    /// Offset one past the last buffered byte — where the next write lands.
    pub fn tail_offset(&self) -> u64 {
        self.head + self.len
    }

    /// Buffered bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space in bytes.
    pub fn free(&self) -> u64 {
        self.cap - self.len
    }

    /// Append as much of `data` as fits; returns the number of bytes
    /// accepted (an application would retry the rest when space frees up).
    ///
    /// The buffer keeps `data` itself, cut to the accepted prefix: nothing
    /// is copied, and everything downstream (slice/retransmit/encode input)
    /// shares the caller's storage. A write that continues the last chunk
    /// in memory extends it ([`Bytes::try_join`]) instead of adding one.
    pub fn write(&mut self, data: Bytes) -> usize {
        let take = (self.free().min(data.len() as u64)) as usize;
        if take > 0 {
            let tail = self.tail_offset();
            let data = data.slice(..take);
            let data = match self.chunks.back_mut() {
                Some((_, last)) => last.try_join(data).err(),
                None => Some(data),
            };
            if let Some(data) = data {
                self.chunks.push_back((tail, data));
            }
            self.len += take as u64;
        }
        take
    }

    /// The range `[off, off+len)` of the stream. The range must be
    /// entirely inside the buffer.
    ///
    /// Zero-copy in the common case: when the range falls inside a single
    /// buffered chunk (applications write in chunks much larger than one
    /// MSS), the result is an Arc-backed sub-slice of that chunk. Only a
    /// range spanning a chunk boundary is assembled into a fresh buffer.
    ///
    /// # Panics
    /// Panics when the range is outside `[head_offset, tail_offset)` —
    /// callers derive ranges from the same bookkeeping, so a violation is
    /// an engine bug.
    pub fn slice(&self, off: u64, len: u32) -> Bytes {
        assert!(
            off >= self.head && off + len as u64 <= self.tail_offset(),
            "slice [{off}, {}) outside buffered [{}, {})",
            off + len as u64,
            self.head,
            self.tail_offset()
        );
        if len == 0 {
            return Bytes::new();
        }
        // The chunk containing `off`: the last one that starts at or
        // before it (the first starts at the head, at or before `off`).
        let idx = self.chunks.partition_point(|&(start, _)| start <= off) - 1;
        let (mut pos, first) = (self.chunks[idx].0, &self.chunks[idx].1);
        let start = (off - pos) as usize;
        if start + len as usize <= first.len() {
            // Fast path: one chunk covers the whole range.
            return first.slice(start..start + len as usize);
        }
        // Slow path: stitch the spanning range together.
        let mut out = BytesMut::with_capacity(len as usize);
        let want_end = off + len as u64;
        let mut want_from = off;
        for (_, chunk) in self.chunks.range(idx..) {
            let chunk_end = pos + chunk.len() as u64;
            let s = (want_from - pos) as usize;
            let e = (want_end.min(chunk_end) - pos) as usize;
            out.extend_from_slice(&chunk[s..e]);
            want_from = chunk_end.min(want_end);
            pos = chunk_end;
            if pos >= want_end {
                break;
            }
        }
        debug_assert_eq!(out.len(), len as usize);
        out.freeze()
    }

    /// Drop everything buffered and give up the storage behind it
    /// (connection close). Offsets stay where they were: the head moves up
    /// to the tail. The emptied ring comes back, capacity kept, for a new
    /// buffer to start on ([`SendBuffer::reusing`]); dropping it frees it.
    pub fn clear(&mut self) -> VecDeque<(u64, Bytes)> {
        self.head += self.len;
        self.len = 0;
        let mut ring = std::mem::take(&mut self.chunks);
        ring.clear();
        ring
    }

    /// Release all bytes below `upto` (they were cumulatively acknowledged).
    /// Offsets at or below the current head are ignored.
    pub fn release_until(&mut self, upto: u64) {
        while self.head < upto {
            let Some((start, first)) = self.chunks.front_mut() else {
                break;
            };
            let flen = first.len() as u64;
            if self.head + flen <= upto {
                self.head += flen;
                self.len -= flen;
                self.chunks.pop_front();
            } else {
                let cut = (upto - self.head) as usize;
                *first = first.slice(cut..);
                *start = upto;
                self.head = upto;
                self.len -= cut as u64;
            }
        }
    }
}

/// Out-of-order reassembly queue for one direction of a stream.
///
/// Segments arrive keyed by stream offset, possibly duplicated, overlapping
/// or out of order; [`Reassembly::pop_next`] yields the in-order byte
/// stream exactly once.
///
/// One ring holds every buffered byte as `(offset, bytes)` runs sorted by
/// offset: first the in-order prefix awaiting [`Reassembly::pop_next`],
/// then the out-of-order runs. A run is as long as its bytes are
/// contiguous both in the stream and in memory: a segment that continues
/// its neighbour's slice of one sender block joins it
/// ([`Bytes::try_join`]), so a queue holds one entry per run of adjacent
/// bytes, not one per segment. With several subflows over unequal paths
/// the connection-level queue goes empty and non-empty again constantly,
/// and the ring keeps its capacity across that, so no path allocates per
/// segment.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Next offset the consumer expects (end of the in-order prefix).
    next: u64,
    /// The buffered runs, sorted by offset and disjoint. The first `ready`
    /// are contiguous and end at `next`; every later one starts after it.
    runs: VecDeque<(u64, Bytes)>,
    /// How many runs at the front are in order.
    ready: usize,
    /// Bytes currently buffered out of order.
    buffered: u64,
}

/// The ring a [`Reassembly`] gives up with [`Reassembly::clear`], emptied
/// and with its capacity kept, for a new queue to start on.
#[derive(Debug, Default)]
pub struct ReassemblyRings {
    runs: VecDeque<(u64, Bytes)>,
}

impl smapp_sim::Recycle for ReassemblyRings {
    fn reset(&mut self) {
        self.runs.clear();
    }
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

impl Reassembly {
    /// A reassembly queue expecting offset 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue expecting `next` as the first offset (e.g. after a handshake
    /// consumed one sequence number).
    pub fn starting_at(next: u64) -> Self {
        Self::reusing(next, ReassemblyRings::default())
    }

    /// [`Reassembly::starting_at`] on the ring another queue gave up:
    /// whatever it still holds is dropped first, its capacity is kept.
    pub fn reusing(next: u64, rings: ReassemblyRings) -> Self {
        let ReassemblyRings { mut runs } = rings;
        runs.clear();
        Reassembly {
            next,
            runs,
            ready: 0,
            buffered: 0,
        }
    }

    /// The next in-order offset the consumer is waiting for.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Bytes held in out-of-order segments.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered
    }

    /// True when out-of-order data is pending (a hole exists).
    pub fn has_hole(&self) -> bool {
        self.runs.len() > self.ready
    }

    /// Drop everything buffered, in order or not, and give up the storage
    /// behind it (subflow death, connection close). The expected offset
    /// stays. The emptied ring comes back for a new queue to start on
    /// ([`Reassembly::reusing`]); dropping it frees it.
    pub fn clear(&mut self) -> ReassemblyRings {
        let Reassembly { mut runs, .. } = std::mem::replace(self, Self::starting_at(self.next));
        runs.clear();
        ReassemblyRings { runs }
    }

    /// Offer a segment at `off`. Duplicate and overlapping bytes are
    /// discarded; new bytes are retained, joined to the run before or
    /// after them when they continue it in memory.
    pub fn insert(&mut self, off: u64, data: Bytes) {
        let end_of = |(off, data): &(u64, Bytes)| off + data.len() as u64;
        let (mut off, mut data) = (off, data);
        // Trim anything already consumed.
        if off < self.next {
            let skip = self.next - off;
            if skip >= data.len() as u64 {
                return;
            }
            data = data.slice(skip as usize..);
            off = self.next;
        }
        if data.is_empty() {
            return;
        }
        // In order with nothing out of order, the no-loss steady state:
        // the bytes extend the in-order prefix.
        if off == self.next && !self.has_hole() {
            self.next += data.len() as u64;
            let data = match self.runs.back_mut() {
                Some((_, last)) => last.try_join(data).err(),
                None => Some(data),
            };
            if let Some(data) = data {
                self.runs.push_back((off, data));
                self.ready += 1;
            }
            return;
        }
        // Where the segment goes: after every run starting at or below
        // `off`, in-order ones included (they all end at or below it).
        let i = self.runs.partition_point(|s| s.0 <= off);
        // Trim against the predecessor run.
        if let Some(p_end) = i.checked_sub(1).map(|p| end_of(&self.runs[p])) {
            if p_end > off {
                let skip = p_end - off;
                if skip >= data.len() as u64 {
                    return;
                }
                data = data.slice(skip as usize..);
                off = p_end;
            }
        }
        // Swallow the successor runs that we now cover entirely, and keep
        // the tail of one we cover in part.
        let end = off + data.len() as u64;
        let mut covered = i;
        while self.runs.get(covered).is_some_and(|s| end_of(s) <= end) {
            self.buffered -= self.runs[covered].1.len() as u64;
            covered += 1;
        }
        self.runs.drain(i..covered);
        if let Some((s_off, s_data)) = self.runs.get_mut(i).filter(|s| s.0 < end) {
            let cut = end - *s_off;
            *s_data = s_data.slice(cut as usize..);
            *s_off = end;
            self.buffered -= cut;
        }
        let in_order = off == self.next;
        if in_order {
            self.next = end;
        } else {
            self.buffered += data.len() as u64;
        }
        // Join the predecessor when the bytes continue it in memory, or
        // take a run of their own (an in-order one lands right after the
        // in-order prefix: every later run starts past `next`).
        let pred = i.checked_sub(1).filter(|&p| end_of(&self.runs[p]) == off);
        let joined = match pred {
            Some(p) => self.runs[p].1.try_join(data).map(|()| p),
            None => Err(data),
        };
        let at = joined.unwrap_or_else(|data| {
            self.runs.insert(i, (off, data));
            self.ready += usize::from(in_order);
            i
        });
        // Join the successor the same way. Joined to an in-order run, its
        // bytes are in order now.
        if self.runs.get(at + 1).is_some_and(|s| s.0 == end) {
            let next = std::mem::take(&mut self.runs[at + 1].1);
            match self.runs[at].1.try_join(next) {
                Ok(()) => {
                    self.runs.remove(at + 1);
                    if at < self.ready {
                        let end = end_of(&self.runs[at]);
                        self.buffered -= end - self.next;
                        self.next = end;
                    }
                }
                Err(back) => self.runs[at + 1].1 = back,
            }
        }
        // Whatever became contiguous joins the in-order prefix.
        while self.runs.get(self.ready).is_some_and(|s| s.0 == self.next) {
            let len = self.runs[self.ready].1.len() as u64;
            self.next += len;
            self.buffered -= len;
            self.ready += 1;
        }
    }

    /// Pop the next in-order run, with the stream offset of its first
    /// byte, or `None` when the stream has a hole (or no data) at the
    /// consumption point.
    pub fn pop_next(&mut self) -> Option<(u64, Bytes)> {
        self.ready = self.ready.checked_sub(1)?;
        self.runs.pop_front()
    }

    /// Remove and return the whole in-order prefix now available.
    ///
    /// Convenience for tests and benchmarks; the engine's hot path uses
    /// the allocation-free [`Reassembly::pop_next`] loop instead.
    pub fn pop_ready(&mut self) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(self.ready);
        while let Some((_, data)) = self.pop_next() {
            out.push(data);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::from(s.to_owned())
    }

    #[test]
    fn send_buffer_write_and_cap() {
        let mut sb = SendBuffer::with_capacity(10);
        assert_eq!(sb.write(b(b"hello")), 5);
        assert_eq!(sb.write(b(b"world!!")), 5); // only 5 fit
        assert_eq!(sb.len(), 10);
        assert_eq!(sb.free(), 0);
        assert_eq!(sb.write(b(b"x")), 0);
        assert_eq!(&sb.slice(0, 10)[..], b"helloworld");
    }

    #[test]
    fn send_buffer_single_chunk_slice_is_zero_copy() {
        let mut sb = SendBuffer::with_capacity(100);
        let data = b(b"0123456789");
        let data_ptr = data.as_ptr() as usize;
        assert_eq!(sb.write(data), 10);
        // The buffered chunk is the buffer that was written, not a copy...
        assert_eq!(sb.slice(0, 10).as_ptr() as usize, data_ptr);
        // ...and a sub-range aliases it too.
        let sub = sb.slice(3, 4);
        assert_eq!(&sub[..], b"3456");
        assert_eq!(sub.as_ptr() as usize, data_ptr + 3);
    }

    #[test]
    fn send_buffer_partial_acceptance_retains_exactly_the_prefix() {
        static BLOCK: [u8; 16] = *b"abcdefghijklmnop";
        let mut sb = SendBuffer::with_capacity(12);
        assert_eq!(sb.write(b(b"01234")), 5);
        assert_eq!(sb.write(Bytes::from_static(&BLOCK)), 7);
        assert_eq!((sb.len(), sb.free(), sb.tail_offset()), (12, 0, 12));
        let kept = sb.slice(5, 7);
        assert_eq!(&kept[..], b"abcdefg");
        assert_eq!(kept.as_ptr(), BLOCK.as_ptr());
        // Room for the rest appears once the head is released.
        sb.release_until(9);
        assert_eq!(sb.write(Bytes::from_static(&BLOCK[7..])), 9);
        assert_eq!(&sb.slice(9, 12)[..], b"efghijklmnop");
    }

    #[test]
    fn send_buffer_slice_spans_chunks() {
        let mut sb = SendBuffer::with_capacity(100);
        sb.write(b(b"hello"));
        sb.write(b(b" "));
        sb.write(b(b"world"));
        assert_eq!(&sb.slice(0, 11)[..], b"hello world");
        assert_eq!(&sb.slice(3, 5)[..], b"lo wo");
        assert_eq!(&sb.slice(6, 5)[..], b"world");
    }

    #[test]
    fn send_buffer_release_partial_chunk() {
        let mut sb = SendBuffer::with_capacity(100);
        sb.write(b(b"abcdef"));
        sb.release_until(2);
        assert_eq!(sb.head_offset(), 2);
        assert_eq!(&sb.slice(2, 4)[..], b"cdef");
        sb.release_until(6);
        assert!(sb.is_empty());
        assert_eq!(sb.tail_offset(), 6);
        // Stale release is a no-op.
        sb.release_until(3);
        assert_eq!(sb.head_offset(), 6);
    }

    #[test]
    fn send_buffer_clear_drops_data_and_storage_but_not_offsets() {
        let mut sb = SendBuffer::with_capacity(100);
        sb.write(b(b"abcdef"));
        sb.release_until(2);
        sb.clear();
        assert!(sb.is_empty());
        assert_eq!((sb.head_offset(), sb.tail_offset(), sb.free()), (6, 6, 100));
        assert_eq!(sb.chunks.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "outside buffered")]
    fn send_buffer_slice_released_panics() {
        let mut sb = SendBuffer::with_capacity(100);
        sb.write(b(b"abcdef"));
        sb.release_until(3);
        sb.slice(0, 2);
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembly::new();
        r.insert(0, b(b"ab"));
        r.insert(2, b(b"cd"));
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"abcd");
        assert_eq!(r.next_expected(), 4);
        assert!(!r.has_hole());
    }

    #[test]
    fn reassembly_out_of_order_hole_fill() {
        let mut r = Reassembly::new();
        r.insert(2, b(b"cd"));
        assert!(r.pop_ready().is_empty());
        assert!(r.has_hole());
        assert_eq!(r.buffered_bytes(), 2);
        r.insert(0, b(b"ab"));
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"abcd");
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn reassembly_duplicate_discarded() {
        let mut r = Reassembly::new();
        r.insert(0, b(b"abcd"));
        r.pop_ready();
        r.insert(0, b(b"abcd")); // full duplicate
        assert!(r.pop_ready().is_empty());
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn reassembly_overlap_trims() {
        let mut r = Reassembly::new();
        r.insert(0, b(b"abc"));
        r.insert(2, b(b"cde")); // overlaps one byte
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"abcde");
    }

    #[test]
    fn reassembly_covering_insert_swallows() {
        let mut r = Reassembly::new();
        r.insert(2, b(b"c"));
        r.insert(5, b(b"fg"));
        r.insert(0, b(b"abcdefgh")); // covers both
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"abcdefgh");
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn reassembly_partial_cover_keeps_tail() {
        let mut r = Reassembly::new();
        r.insert(3, b(b"defg"));
        r.insert(0, b(b"abcd")); // covers "d", keeps "efg"
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"abcdefg");
    }

    #[test]
    fn reassembly_hole_queue_keeps_its_storage() {
        // Pairs arriving swapped: the out-of-order queue goes non-empty and
        // empty again on every pair and must not give its ring back.
        let mut r = Reassembly::new();
        let mut cap = 0;
        for pair in 0..100u64 {
            r.insert(pair * 4 + 2, b(b"cd"));
            assert!(r.has_hole());
            if pair == 0 {
                cap = r.runs.capacity();
            }
            r.insert(pair * 4, b(b"ab"));
            assert!(!r.has_hole());
            assert_eq!(r.pop_ready().concat(), b"abcd");
        }
        assert!(cap > 0);
        assert_eq!(r.runs.capacity(), cap);
    }

    #[test]
    fn reassembly_clear_drops_data_and_storage_but_not_the_offset() {
        let mut r = Reassembly::new();
        r.insert(0, b(b"ab"));
        r.insert(4, b(b"ef"));
        r.clear();
        assert_eq!((r.next_expected(), r.buffered_bytes()), (2, 0));
        assert!(!r.has_hole() && r.pop_next().is_none());
        assert_eq!(r.runs.capacity(), 0);
        r.insert(2, b(b"cd"));
        assert_eq!(r.pop_next(), Some((2, b(b"cd"))));
    }

    /// A 64 KiB static block, as an application writes it.
    static BLOCK: [u8; 65_536] = [0xA5; 65_536];

    #[test]
    fn in_order_slices_of_one_block_pop_as_one_run() {
        let block = Bytes::from_static(&BLOCK);
        let mut r = Reassembly::new();
        for i in 0..46 {
            r.insert(
                i * 1400,
                block.slice(i as usize * 1400..(i as usize + 1) * 1400),
            );
        }
        assert_eq!(r.runs.len(), 1);
        let run = r
            .pop_next()
            .map(|(off, run)| (off, run.len(), run.as_ptr()));
        assert_eq!(run, Some((0, 46 * 1400, BLOCK.as_ptr())));
        assert_eq!(r.pop_next(), None);
    }

    #[test]
    fn out_of_order_slices_join_their_neighbours_both_ways() {
        let block = Bytes::from_static(&BLOCK);
        let seg = |i: usize| block.slice(i * 100..(i + 1) * 100);
        let mut r = Reassembly::new();
        // 3 and 5 wait apart; 4 joins both into one run; 1 then 2 fill
        // the front, 2 joining 1 and then the waiting run.
        for i in [3, 5, 4, 1] {
            r.insert(i as u64 * 100, seg(i));
        }
        assert_eq!((r.runs.len(), r.buffered_bytes()), (2, 400));
        r.insert(200, seg(2));
        assert_eq!(
            (r.runs.len(), r.buffered_bytes(), r.next_expected()),
            (1, 500, 0)
        );
        r.insert(0, seg(0));
        let run = r
            .pop_next()
            .map(|(off, run)| (off, run.len(), run.as_ptr()));
        assert_eq!(run, Some((0, 600, BLOCK.as_ptr())));
        assert_eq!((r.buffered_bytes(), r.pop_next()), (0, None));
    }

    #[test]
    fn send_buffer_write_joins_a_continuing_chunk() {
        let block = Bytes::from_static(&BLOCK);
        let mut sb = SendBuffer::with_capacity(1 << 20);
        sb.write(block.slice(..1000));
        sb.write(block.slice(1000..3000));
        sb.write(b(b"elsewhere"));
        assert_eq!(sb.chunks.len(), 2);
        let all = sb.slice(500, 2000);
        assert_eq!(all.as_ptr(), BLOCK[500..].as_ptr());
        assert_eq!(&sb.slice(2999, 4)[..], b"\xA5els");
    }

    #[test]
    fn reassembly_starting_offset() {
        let mut r = Reassembly::starting_at(100);
        r.insert(50, b(b"old")); // entirely stale
        assert!(r.pop_ready().is_empty());
        r.insert(98, b(b"xxab")); // first two stale
        let got: Vec<u8> = r.pop_ready().concat();
        assert_eq!(got, b"ab");
        assert_eq!(r.next_expected(), 102);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever order segments arrive in — duplicated, overlapping,
        /// fragmented — the reassembled stream equals the original.
        #[test]
        fn reassembly_reconstructs_stream(
            stream in proptest::collection::vec(any::<u8>(), 1..300),
            cuts in proptest::collection::vec((0usize..300, 1usize..50), 1..40),
            order in proptest::collection::vec(any::<usize>(), 1..40),
        ) {
            let n = stream.len();
            // Build segment list covering the stream: first the forced
            // full cover (so delivery is guaranteed), then noise cuts.
            let mut segs: Vec<(usize, usize)> = Vec::new();
            let mut pos = 0;
            let mut i = 0;
            while pos < n {
                let (_, len) = cuts[i % cuts.len()];
                let end = (pos + len).min(n);
                segs.push((pos, end));
                pos = end;
                i += 1;
            }
            // Noise: arbitrary extra (possibly overlapping) slices.
            for &(start, len) in &cuts {
                let s = start.min(n.saturating_sub(1));
                let e = (s + len).min(n);
                if s < e {
                    segs.push((s, e));
                }
            }
            // Shuffle deterministically using `order`.
            let mut shuffled: Vec<(usize, usize)> = Vec::with_capacity(segs.len());
            let mut remaining = segs;
            let mut j = 0;
            while !remaining.is_empty() {
                let k = order[j % order.len()] % remaining.len();
                shuffled.push(remaining.swap_remove(k));
                j += 1;
            }

            let mut r = Reassembly::new();
            let mut out: Vec<u8> = Vec::new();
            // Model: which bytes have been offered so far.
            let mut seen = vec![false; n];
            for (s, e) in shuffled {
                r.insert(s as u64, Bytes::from(stream[s..e].to_owned()));
                for chunk in r.pop_ready() {
                    out.extend_from_slice(&chunk);
                }
                // After every insert the queue has delivered exactly the
                // gap-free prefix and holds each later byte once.
                seen[s..e].fill(true);
                let prefix = seen.iter().position(|&b| !b).unwrap_or(n);
                let held = seen[prefix..].iter().filter(|&&b| b).count();
                prop_assert_eq!(r.next_expected(), prefix as u64);
                prop_assert_eq!(out.len(), prefix);
                prop_assert_eq!(r.buffered_bytes(), held as u64);
                prop_assert_eq!(r.has_hole(), held > 0);
            }
            prop_assert_eq!(out, stream);
            prop_assert_eq!(r.buffered_bytes(), 0);
        }

        /// Sliced ranges from the send buffer always equal the bytes
        /// written: under a small capacity (writes are cut short and the
        /// writer carries on with the remainder), releases interleaved with
        /// the writes, hundreds of small chunks buffered at once, and
        /// ranges that start and end anywhere — inside a chunk or across
        /// several.
        #[test]
        fn send_buffer_slice_correct(
            cap in prop_oneof![1u64..120, 200u64..2_000],
            writes in prop_oneof![
                proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..50), 1..10),
                // Hundreds of one- to three-byte writes, as a sender that
                // refills one ACK's worth at a time leaves its buffer.
                proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..4), 100..600),
            ],
            // Often nothing or a sliver, so chunks pile up and releases
            // cut into them.
            release_fracs in proptest::collection::vec(
                prop_oneof![0.0f64..1.0, Just(0.0), 0.0f64..0.02],
                1..10,
            ),
            ranges in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..5),
        ) {
            let mut sb = SendBuffer::with_capacity(cap);
            // Every byte accepted so far, by stream offset.
            let mut mirror: Vec<u8> = Vec::new();
            let mut release_fracs = release_fracs.iter().cycle();
            for w in &writes {
                let mut rest = Bytes::from(w.clone());
                while !rest.is_empty() {
                    let free = sb.free();
                    let n = sb.write(rest.clone());
                    prop_assert_eq!(n as u64, free.min(rest.len() as u64));
                    mirror.extend_from_slice(&rest[..n]);
                    rest = rest.slice(n..);
                    prop_assert_eq!(sb.tail_offset(), mirror.len() as u64);

                    let (head, tail) = (sb.head_offset(), sb.tail_offset());
                    for &(a, b) in &ranges {
                        let off = head + ((tail - head) as f64 * a) as u64;
                        let len = ((tail - off) as f64 * b) as u32;
                        let got = sb.slice(off, len);
                        prop_assert_eq!(&got[..], &mirror[off as usize..][..len as usize]);
                    }
                    // A full buffer must drain for the writer to make
                    // progress; otherwise release some fraction, or nothing.
                    let release_frac = release_fracs.next().unwrap();
                    let release = if sb.free() == 0 {
                        head + 1 + ((tail - head - 1) as f64 * release_frac) as u64
                    } else {
                        head + ((tail - head) as f64 * release_frac) as u64
                    };
                    sb.release_until(release);
                    prop_assert_eq!(sb.head_offset(), release);
                    prop_assert_eq!(sb.len(), tail - release);
                }
            }
            let (head, tail) = (sb.head_offset(), sb.tail_offset());
            let got = sb.slice(head, (tail - head) as u32);
            prop_assert_eq!(&got[..], &mirror[head as usize..]);
        }
    }
}
