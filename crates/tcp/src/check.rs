//! End-host stream taps for the protocol-invariant oracle.
//!
//! A [`StreamTap`] observes one direction of a byte stream *above* the
//! (meta-)socket: the sender feeds it every byte accepted from the
//! application, the receiver every byte delivered to the application, both
//! in stream order. Comparing the two taps afterwards checks the core
//! reliable-transport invariant — the delivered bytes are exactly a prefix
//! of the sent bytes, with no loss, duplication, reordering or corruption
//! visible to the application.
//!
//! Because a transfer may still be in flight when a run ends, the tap also
//! records a digest *snapshot* at every [`SNAP_EVERY`]-byte boundary.
//! Two taps can then be compared over their common snapshot prefix even
//! when their byte counts differ — an incomplete transfer still gets its
//! delivered prefix checked in 64 KiB steps.
//!
//! # The digest
//!
//! Every application byte crosses two taps, so the digest has to run at
//! the speed of a memory pass. The stream is cut into 32-byte blocks, each
//! read as four little-endian `u64` words; word `i` goes to lane `i`:
//!
//! ```text
//! lane[i] = ((lane[i] ^ word[i]) * MUL[i]).rotate_left(31)
//! ```
//!
//! The four lanes never read each other, so their multiplies overlap in
//! the pipeline — a byte-serial hash pays one full multiply latency per
//! byte, this pays one per 32. The (fewer than 32) bytes after the last
//! whole block wait in a carry buffer until later `update`s complete the
//! block; block edges therefore sit at fixed *stream* offsets and the
//! result does not depend on how the stream was chunked (the sender writes
//! 64 KiB at a time, the receiver sees MSS-sized and middlebox-resegmented
//! pieces). [`StreamTap::digest`] folds the lanes, the zero-padded carry
//! and the byte count — the count makes the padding unambiguous.
//!
//! Each step is a bijection of the lane (xor, multiply by an odd constant,
//! rotate), so any change confined to one 8-byte word — a flipped bit, a
//! corrupted byte, bytes swapped within the word — *always* changes the
//! digest. Changes that touch several words or the count (swapped words or
//! blocks, dropped or duplicated ranges) are caught unless two 64-bit
//! values collide by chance. The rotate matters: a multiply only
//! carries differences upwards, so without it two flips of bit 63 in the
//! same lane would cancel. The digest is not keyed and not cryptographic;
//! nothing in a simulated world searches for collisions.

/// Snapshot interval in bytes (64 KiB): bounded memory (a 100 MB transfer
/// keeps ~1600 snapshots) while catching corruption early in the stream.
/// A multiple of the 32-byte digest block, so a snapshot always lands on a
/// block edge.
pub const SNAP_EVERY: u64 = 64 * 1024;

/// Bytes per digest block: four `u64` lanes.
const BLOCK: usize = 32;
const LANES: usize = BLOCK / 8;
const _: () = assert!(SNAP_EVERY % BLOCK as u64 == 0);

/// Per-lane odd multipliers (the xxHash64 primes); also the lane seeds.
const MUL: [u64; LANES] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];
const ROT: u32 = 31;

#[inline(always)]
fn mix(lane: u64, word: u64, mul: u64) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(ROT)
}

#[inline(always)]
fn absorb_block(lanes: &mut [u64; LANES], block: &[u8]) {
    for ((lane, word), mul) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(MUL) {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        *lane = mix(*lane, word, mul);
    }
}

/// An order-sensitive rolling digest over one direction of a byte stream.
#[derive(Clone, Debug)]
pub struct StreamTap {
    count: u64,
    lanes: [u64; LANES],
    /// The `count % BLOCK` bytes after the last whole block.
    carry: [u8; BLOCK],
    /// Digest value at each [`SNAP_EVERY`]-byte boundary, in order.
    snaps: Vec<u64>,
}

impl Default for StreamTap {
    fn default() -> Self {
        StreamTap {
            count: 0,
            lanes: MUL,
            carry: [0; BLOCK],
            snaps: Vec::new(),
        }
    }
}

impl StreamTap {
    /// A fresh tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh tap that records its snapshots into `snaps`, the emptied
    /// storage of a tap that is gone ([`StreamTap::into_spare`]).
    pub fn reusing(mut snaps: Vec<u64>) -> Self {
        snaps.clear();
        StreamTap {
            snaps,
            ..Self::default()
        }
    }

    /// The tap's snapshot storage, emptied, for [`StreamTap::reusing`].
    pub fn into_spare(self) -> Vec<u64> {
        let mut snaps = self.snaps;
        snaps.clear();
        snaps
    }

    /// Bytes observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Digest of every byte observed so far, in order.
    pub fn digest(&self) -> u64 {
        let mut lanes = self.lanes;
        let carried = (self.count % BLOCK as u64) as usize;
        if carried > 0 {
            let mut last = [0u8; BLOCK];
            last[..carried].copy_from_slice(&self.carry[..carried]);
            absorb_block(&mut lanes, &last);
        }
        lanes
            .iter()
            .zip(MUL)
            .fold(self.count, |h, (&lane, mul)| mix(h, lane, mul))
    }

    /// Feed the next in-order chunk of the stream.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let until_snap = SNAP_EVERY - self.count % SNAP_EVERY;
            let take = (until_snap as usize).min(data.len());
            self.absorb(&data[..take]);
            if self.count % SNAP_EVERY == 0 {
                self.snaps.push(self.digest());
            }
            data = &data[take..];
        }
    }

    fn absorb(&mut self, mut data: &[u8]) {
        let carried = (self.count % BLOCK as u64) as usize;
        self.count += data.len() as u64;
        if carried > 0 {
            let fill = (BLOCK - carried).min(data.len());
            self.carry[carried..carried + fill].copy_from_slice(&data[..fill]);
            if carried + fill < BLOCK {
                return;
            }
            absorb_block(&mut self.lanes, &self.carry);
            data = &data[fill..];
        }
        let mut blocks = data.chunks_exact(BLOCK);
        // A local copy keeps the lanes in registers across the loop.
        let mut lanes = self.lanes;
        for block in &mut blocks {
            absorb_block(&mut lanes, block);
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
    }

    /// Compare a sender tap (`self`) against a receiver tap, returning a
    /// human-readable description of the first divergence, or `None` when
    /// the receiver's stream is a consistent prefix of the sender's.
    pub fn check_against_receiver(&self, rx: &StreamTap) -> Option<String> {
        if rx.count > self.count {
            return Some(format!(
                "receiver delivered {} bytes but sender only wrote {} (duplication)",
                rx.count, self.count
            ));
        }
        let common = self.snaps.len().min(rx.snaps.len());
        for i in 0..common {
            if self.snaps[i] != rx.snaps[i] {
                return Some(format!(
                    "stream digest diverges within bytes [{}, {}): sent {:016x} != received {:016x}",
                    i as u64 * SNAP_EVERY,
                    (i + 1) as u64 * SNAP_EVERY,
                    self.snaps[i],
                    rx.snaps[i]
                ));
            }
        }
        let (sent, received) = (self.digest(), rx.digest());
        if rx.count == self.count && sent != received {
            return Some(format!(
                "full-stream digest mismatch over {} bytes: sent {sent:016x} != received {received:016x}",
                self.count
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SNAP: usize = SNAP_EVERY as usize;

    fn tap_of(data: &[u8]) -> StreamTap {
        let mut t = StreamTap::new();
        t.update(data);
        t
    }

    /// A tap on another tap's storage digests and snapshots like a fresh
    /// one.
    #[test]
    fn a_tap_on_spare_storage_is_a_fresh_tap() {
        let data = stream(9, 3 * SNAP + 17);
        let spare = tap_of(&stream(8, 5 * SNAP)).into_spare();
        assert!(spare.is_empty() && spare.capacity() >= 5);
        let mut reused = StreamTap::reusing(spare);
        reused.update(&data);
        let fresh = tap_of(&data);
        assert_eq!(
            (reused.count(), reused.digest()),
            (fresh.count(), fresh.digest())
        );
        assert_eq!(reused.snaps, fresh.snaps);
    }

    /// `len` pseudo-random bytes, cheap enough to draw several snapshot
    /// intervals per proptest case.
    fn stream(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = smapp_sim::SimRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Lengths that end mid-block, on a block edge and exactly on a
    /// snapshot edge, across zero to three snapshot intervals.
    fn arb_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..3 * SNAP + 100,
            (0usize..4).prop_map(|k| k * SNAP),
            (0usize..4, 1usize..BLOCK).prop_map(|(k, r)| k * SNAP + r),
            (0usize..4, 1usize..BLOCK).prop_map(|(k, r)| (k + 1) * SNAP - r),
            (0usize..6000).prop_map(|b| b * BLOCK),
        ]
    }

    /// What `check_against_receiver` concluded, without the digest values.
    #[derive(Debug, PartialEq, Eq)]
    enum Verdict {
        Clean,
        Duplication,
        /// First diverging snapshot window, by its start offset.
        DivergesAt(u64),
        FullMismatch,
    }

    fn verdict(tx: &StreamTap, rx: &StreamTap) -> Verdict {
        let Some(msg) = tx.check_against_receiver(rx) else {
            return Verdict::Clean;
        };
        if msg.contains("(duplication)") {
            Verdict::Duplication
        } else if let Some(rest) = msg.strip_prefix("stream digest diverges within bytes [") {
            let start = rest.split(',').next().unwrap().parse().unwrap();
            Verdict::DivergesAt(start)
        } else if msg.starts_with("full-stream digest mismatch") {
            Verdict::FullMismatch
        } else {
            panic!("unclassified verdict: {msg}");
        }
    }

    /// The byte-serial FNV-1a tap this digest replaced, kept as the
    /// reference model: one xor and one multiply per byte, same snapshot
    /// rule, same comparison.
    struct FnvTap {
        count: u64,
        fnv: u64,
        snaps: Vec<u64>,
    }

    impl FnvTap {
        fn of(data: &[u8]) -> Self {
            let mut t = FnvTap {
                count: 0,
                fnv: 0xcbf2_9ce4_8422_2325,
                snaps: Vec::new(),
            };
            for &b in data {
                t.fnv = (t.fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                t.count += 1;
                if t.count % SNAP_EVERY == 0 {
                    t.snaps.push(t.fnv);
                }
            }
            t
        }

        fn verdict(&self, rx: &FnvTap) -> Verdict {
            if rx.count > self.count {
                return Verdict::Duplication;
            }
            if let Some(i) = (self.snaps.iter().zip(&rx.snaps)).position(|(a, b)| a != b) {
                return Verdict::DivergesAt(i as u64 * SNAP_EVERY);
            }
            if rx.count == self.count && rx.fnv != self.fnv {
                return Verdict::FullMismatch;
            }
            Verdict::Clean
        }
    }

    #[test]
    fn identical_streams_agree() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 + 7) as u8).collect();
        let a = tap_of(&data);
        // Receiver sees the same bytes in different chunk sizes.
        let mut b = StreamTap::new();
        for chunk in data.chunks(777) {
            b.update(chunk);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.snaps, b.snaps);
        assert_eq!(a.snaps.len(), (200_000 / SNAP_EVERY) as usize);
        assert!(a.check_against_receiver(&b).is_none());
    }

    #[test]
    fn prefix_receiver_is_consistent() {
        let data: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        let tx = tap_of(&data);
        let rx = tap_of(&data[..150_000]);
        assert!(tx.check_against_receiver(&rx).is_none());
    }

    #[test]
    fn corruption_in_early_prefix_is_caught_despite_incomplete_transfer() {
        let data: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        let tx = tap_of(&data);
        let mut bad = data[..150_000].to_vec();
        bad[10] ^= 0xFF;
        let err = tx.check_against_receiver(&tap_of(&bad)).expect("diverges");
        assert!(err.contains("diverges within bytes [0"), "{err}");
    }

    #[test]
    fn over_delivery_is_caught() {
        let err = tap_of(&[1, 2, 3])
            .check_against_receiver(&tap_of(&[1, 2, 3, 3]))
            .expect("duplication");
        assert!(err.contains("duplication"), "{err}");
    }

    #[test]
    fn same_count_different_bytes_is_caught() {
        let err = tap_of(b"abcd").check_against_receiver(&tap_of(b"abcx"));
        assert!(err.unwrap().contains("full-stream digest mismatch"));
    }

    #[test]
    fn trailing_zeros_change_the_digest() {
        // The carry is zero-padded before it is folded; the count keeps
        // "n bytes" and "n bytes then a zero" apart.
        let data = stream(1, 2 * BLOCK);
        for n in BLOCK..2 * BLOCK {
            let mut padded = data[..n].to_vec();
            padded.push(0);
            assert_ne!(tap_of(&data[..n]).digest(), tap_of(&padded).digest());
        }
    }

    #[test]
    fn paired_top_bit_flips_in_one_lane_do_not_cancel() {
        // Multiplication only carries differences upwards: without the
        // rotate, bit 63 of a lane would never reach another bit and two
        // flips of it would cancel.
        let data = stream(2, 8 * BLOCK);
        let clean = tap_of(&data).digest();
        for lane in 0..LANES {
            for (first, second) in [(0, 1), (0, 5), (2, 3)] {
                let mut bad = data.clone();
                bad[first * BLOCK + lane * 8 + 7] ^= 0x80;
                bad[second * BLOCK + lane * 8 + 7] ^= 0x80;
                assert_ne!(tap_of(&bad).digest(), clean, "lane {lane}");
            }
        }
    }

    /// One way a stream can be damaged between two applications.
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        FlipBit,
        SwapBytes,
        SwapWordsSameLane,
        SwapWordsAcrossLanes,
        SwapBlocks,
        DropBlock,
        DuplicateBlock,
    }

    /// Apply `damage` around positions derived from `a` and `b`; returns
    /// the damaged stream and the first offset that may differ.
    fn damaged(data: &[u8], damage: Damage, a: usize, b: usize) -> (Vec<u8>, usize) {
        let mut out = data.to_vec();
        let blocks = data.len() / BLOCK;
        let (blk_a, blk_b) = (a % blocks, b % blocks);
        let first = match damage {
            Damage::FlipBit => {
                let at = a % data.len();
                out[at] ^= 1 << (b % 8);
                at
            }
            Damage::SwapBytes => {
                let (x, y) = (a % data.len(), b % data.len());
                out.swap(x, y);
                x.min(y)
            }
            Damage::SwapWordsSameLane | Damage::SwapWordsAcrossLanes => {
                let lane_a = a % LANES;
                let lane_b = match damage {
                    Damage::SwapWordsSameLane => lane_a,
                    _ => (lane_a + 1 + b % (LANES - 1)) % LANES,
                };
                let (x, y) = (blk_a * BLOCK + lane_a * 8, blk_b * BLOCK + lane_b * 8);
                for i in 0..8 {
                    out.swap(x + i, y + i);
                }
                x.min(y)
            }
            Damage::SwapBlocks => {
                for i in 0..BLOCK {
                    out.swap(blk_a * BLOCK + i, blk_b * BLOCK + i);
                }
                blk_a.min(blk_b) * BLOCK
            }
            Damage::DropBlock => {
                out.drain(blk_a * BLOCK..(blk_a + 1) * BLOCK);
                blk_a * BLOCK
            }
            Damage::DuplicateBlock => {
                let block = data[blk_a * BLOCK..(blk_a + 1) * BLOCK].to_vec();
                out.splice(blk_a * BLOCK..blk_a * BLOCK, block);
                blk_a * BLOCK
            }
        };
        (out, first)
    }

    fn arb_damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::FlipBit),
            Just(Damage::SwapBytes),
            Just(Damage::SwapWordsSameLane),
            Just(Damage::SwapWordsAcrossLanes),
            Just(Damage::SwapBlocks),
            Just(Damage::DropBlock),
            Just(Damage::DuplicateBlock),
        ]
    }

    proptest! {
        /// Any two chunkings of one byte string give the same tap.
        #[test]
        fn chunking_does_not_matter(
            seed in any::<u64>(),
            len in arb_len(),
            cuts in proptest::collection::vec(1usize..70_000, 1..12),
            small in proptest::collection::vec(1usize..100, 1..12),
        ) {
            let data = stream(seed, len);
            let whole = tap_of(&data);
            for sizes in [&cuts, &small] {
                let mut pieces = StreamTap::new();
                let mut rest = &data[..];
                for &n in sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(n.min(rest.len()));
                    pieces.update(head);
                    rest = tail;
                }
                prop_assert_eq!(pieces.count(), whole.count());
                prop_assert_eq!(pieces.digest(), whole.digest());
                prop_assert_eq!(&pieces.snaps, &whole.snaps);
            }
            prop_assert_eq!(whole.count(), len as u64);
            prop_assert_eq!(whole.snaps.len(), len / SNAP);
        }

        /// Every kind of damage changes the digest and the snapshot that
        /// covers it.
        #[test]
        fn damage_changes_digest_and_covering_snapshot(
            seed in any::<u64>(),
            len in (2 * BLOCK)..(2 * SNAP + 5000),
            damage in arb_damage(),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let data = stream(seed, len);
            let (bad, first) = damaged(&data, damage, a, b);
            prop_assume!(bad != data);
            let (clean, dirty) = (tap_of(&data), tap_of(&bad));
            prop_assert!(clean.digest() != dirty.digest(), "{:?} at {} undetected", damage, first);
            let window = first / SNAP;
            if let (Some(x), Some(y)) = (clean.snaps.get(window), dirty.snaps.get(window)) {
                prop_assert!(x != y, "{:?} at {} not in snapshot {}", damage, first, window);
            }
            for i in 0..window.min(dirty.snaps.len()) {
                prop_assert_eq!(clean.snaps[i], dirty.snaps[i]);
            }
        }

        /// Same verdict class as the byte-wise FNV reference on prefix,
        /// corrupted and over-delivered receivers.
        #[test]
        fn verdicts_match_the_fnv_reference(
            seed in any::<u64>(),
            len in arb_len(),
            rx_len in arb_len(),
            corrupt_at in proptest::option::of(any::<usize>()),
            extra in 0usize..3,
        ) {
            let sent = stream(seed, len);
            // Prefix receiver, optionally corrupted, optionally over-delivered.
            let mut recvd = sent[..rx_len.min(len)].to_vec();
            if let (Some(at), false) = (corrupt_at, recvd.is_empty()) {
                let at = at % recvd.len();
                recvd[at] ^= 0xFF;
            }
            if rx_len >= len {
                recvd.extend_from_slice(&stream(!seed, extra));
            }
            let got = verdict(&tap_of(&sent), &tap_of(&recvd));
            let want = FnvTap::of(&sent).verdict(&FnvTap::of(&recvd));
            prop_assert_eq!(got, want);
        }
    }
}
