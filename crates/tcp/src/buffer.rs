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
    chunks: VecDeque<Bytes>,
    /// Total buffered bytes.
    len: u64,
    /// Capacity in bytes; `write` accepts at most the free space.
    cap: u64,
}

impl SendBuffer {
    /// A buffer with the given capacity in bytes.
    pub fn with_capacity(cap: u64) -> Self {
        SendBuffer {
            head: 0,
            chunks: VecDeque::new(),
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
    /// shares the caller's storage.
    pub fn write(&mut self, data: Bytes) -> usize {
        let take = (self.free().min(data.len() as u64)) as usize;
        if take > 0 {
            self.chunks.push_back(data.slice(..take));
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
        // Find the chunk containing `off`.
        let mut pos = self.head;
        let mut idx = 0usize;
        while idx < self.chunks.len() {
            let clen = self.chunks[idx].len() as u64;
            if off < pos + clen {
                break;
            }
            pos += clen;
            idx += 1;
        }
        let first = &self.chunks[idx];
        let start = (off - pos) as usize;
        if start + len as usize <= first.len() {
            // Fast path: one chunk covers the whole range.
            return first.slice(start..start + len as usize);
        }
        // Slow path: stitch the spanning range together.
        let mut out = BytesMut::with_capacity(len as usize);
        let want_end = off + len as u64;
        let mut want_from = off;
        for chunk in self.chunks.range(idx..) {
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

    /// Drop everything buffered and the storage behind it (connection
    /// close). Offsets stay where they were: the head moves up to the tail.
    pub fn clear(&mut self) {
        self.head += self.len;
        self.len = 0;
        self.chunks = VecDeque::new();
    }

    /// Release all bytes below `upto` (they were cumulatively acknowledged).
    /// Offsets at or below the current head are ignored.
    pub fn release_until(&mut self, upto: u64) {
        while self.head < upto {
            let Some(first) = self.chunks.front_mut() else {
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
                self.head += cut as u64;
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
/// In-order arrivals (the no-loss steady state, i.e. almost every data
/// segment of a simulation) go straight into a ring-buffered ready queue;
/// out-of-order ones wait in a second ring kept sorted by offset. With
/// several subflows over unequal paths the connection-level queue goes
/// empty and non-empty again constantly, and both rings keep their capacity
/// across that, so neither path allocates per segment.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Next offset the consumer expects (end of the ready queue).
    next: u64,
    /// Stream offset of the first byte in `ready`. Invariant:
    /// `ready_off + Σ ready lengths == next`.
    ready_off: u64,
    /// Contiguous in-order chunks awaiting [`Reassembly::pop_next`].
    ready: VecDeque<Bytes>,
    /// Pending out-of-order segments as `(start offset, bytes)`, sorted by
    /// start. Invariant: entries are disjoint and all start after `next`.
    segs: VecDeque<(u64, Bytes)>,
    /// Bytes currently buffered out of order.
    buffered: u64,
}

impl Reassembly {
    /// A reassembly queue expecting offset 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue expecting `next` as the first offset (e.g. after a handshake
    /// consumed one sequence number).
    pub fn starting_at(next: u64) -> Self {
        Reassembly {
            next,
            ready_off: next,
            ready: VecDeque::new(),
            segs: VecDeque::new(),
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
        !self.segs.is_empty()
    }

    /// Drop everything buffered, in order or not, and the storage behind it
    /// (subflow death, connection close). The expected offset stays.
    pub fn clear(&mut self) {
        *self = Self::starting_at(self.next);
    }

    /// Offer a segment at `off`. Duplicate and overlapping bytes are
    /// discarded; new bytes are retained.
    pub fn insert(&mut self, off: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let mut off = off;
        let mut data = data;
        // Trim anything already consumed.
        if off < self.next {
            let skip = self.next - off;
            if skip >= data.len() as u64 {
                return;
            }
            data = data.slice(skip as usize..);
            off = self.next;
        }
        // In-order fast path: exactly the expected offset with nothing
        // buffered out of order — straight into the ready queue.
        if off == self.next && self.segs.is_empty() {
            self.next = off + data.len() as u64;
            self.ready.push_back(data);
            return;
        }
        // Where the segment goes: after every entry starting at or below
        // `off`.
        let i = self.segs.partition_point(|s| s.0 <= off);
        // Trim against the predecessor segment.
        if let Some((p_off, p_data)) = i.checked_sub(1).map(|p| &self.segs[p]) {
            let p_end = p_off + p_data.len() as u64;
            if p_end > off {
                let skip = p_end - off;
                if skip >= data.len() as u64 {
                    return;
                }
                data = data.slice(skip as usize..);
                off = p_end;
            }
        }
        // Swallow the successor segments that we now cover entirely, and
        // keep the tail of one we cover in part.
        let end = off + data.len() as u64;
        let seg_end = |(s_off, s_data): &(u64, Bytes)| s_off + s_data.len() as u64;
        let mut covered = i;
        while self.segs.get(covered).is_some_and(|s| seg_end(s) <= end) {
            self.buffered -= self.segs[covered].1.len() as u64;
            covered += 1;
        }
        self.segs.drain(i..covered);
        if let Some((s_off, s_data)) = self.segs.get_mut(i).filter(|s| s.0 < end) {
            let cut = end - *s_off;
            *s_data = s_data.slice(cut as usize..);
            *s_off = end;
            self.buffered -= cut;
        }
        self.buffered += data.len() as u64;
        self.segs.insert(i, (off, data));
        // Lift whatever became contiguous into the ready queue.
        while self.segs.front().is_some_and(|s| s.0 == self.next) {
            let (_, d) = self.segs.pop_front().expect("front was just seen");
            self.next += d.len() as u64;
            self.buffered -= d.len() as u64;
            self.ready.push_back(d);
        }
    }

    /// Pop the next in-order chunk, with the stream offset of its first
    /// byte, or `None` when the stream has a hole (or no data) at the
    /// consumption point.
    pub fn pop_next(&mut self) -> Option<(u64, Bytes)> {
        let data = self.ready.pop_front()?;
        let off = self.ready_off;
        self.ready_off += data.len() as u64;
        Some((off, data))
    }

    /// Remove and return the whole in-order prefix now available.
    ///
    /// Convenience for tests and benchmarks; the engine's hot path uses
    /// the allocation-free [`Reassembly::pop_next`] loop instead.
    pub fn pop_ready(&mut self) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(self.ready.len());
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
                cap = r.segs.capacity();
            }
            r.insert(pair * 4, b(b"ab"));
            assert!(!r.has_hole());
            assert_eq!(r.pop_ready().concat(), b"abcd");
        }
        assert!(cap > 0);
        assert_eq!(r.segs.capacity(), cap);
    }

    #[test]
    fn reassembly_clear_drops_data_and_storage_but_not_the_offset() {
        let mut r = Reassembly::new();
        r.insert(0, b(b"ab"));
        r.insert(4, b(b"ef"));
        r.clear();
        assert_eq!((r.next_expected(), r.buffered_bytes()), (2, 0));
        assert!(!r.has_hole() && r.pop_next().is_none());
        assert_eq!((r.ready.capacity(), r.segs.capacity()), (0, 0));
        r.insert(2, b(b"cd"));
        assert_eq!(r.pop_next(), Some((2, b(b"cd"))));
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
        /// the writes, and ranges that start and end anywhere — inside a
        /// chunk or across several.
        #[test]
        fn send_buffer_slice_correct(
            cap in 1u64..120,
            writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..50), 1..10),
            release_fracs in proptest::collection::vec(0.0f64..1.0, 1..10),
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
