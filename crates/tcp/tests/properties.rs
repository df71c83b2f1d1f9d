//! Cross-module property tests for the TCP mechanics.

use bytes::Bytes;
use proptest::prelude::*;
use smapp_sim::SimTime;
use smapp_tcp::{unwrap_u32, Flight, Reassembly, RtoPolicy, RtoState, RttEstimator, SendBuffer};
use std::time::Duration;

/// One operation of a random sequence: `(kind, a, b)`, read by each
/// `*_transcript` function in its own way.
type Op = (u8, u64, u32);

/// Byte `i` of the stream every buffer test writes: any two copies of a
/// range agree, so overlapping and repeated inserts stay consistent.
fn stream(off: u64, len: usize) -> Bytes {
    (off..off + len as u64)
        .map(|i| (i * 31 % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Everything `f` answers while `ops` run on it (sends at increasing
/// offsets, cumulative ACKs, head retransmissions), one line per answer.
fn flight_transcript(f: &mut Flight<u64>, ops: &[Op]) -> Vec<String> {
    let mut out = Vec::new();
    let mut next = 0u64;
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        match kind {
            0 => {
                let len = b % 2_000 + 1;
                f.on_send(next, len, now, a);
                next += len as u64;
            }
            1 => out.push(format!("{:?}", f.on_cum_ack(a % (next + 1), now))),
            _ => out.push(format!("{:?}", f.mark_head_retransmitted(now))),
        }
        let segs: Vec<_> = f
            .iter()
            .map(|s| (s.off, s.len, s.sent_at, s.retx, s.tag))
            .collect();
        out.push(format!(
            "{} {:?} {segs:?}",
            f.bytes_in_flight(),
            f.oldest_offset()
        ));
    }
    out
}

/// The same for a reassembly queue: inserts of [`stream`] bytes within
/// 300 bytes either side of the expected offset (stale, in order or
/// ahead), and pops.
fn reassembly_transcript(r: &mut Reassembly, ops: &[Op]) -> Vec<String> {
    let mut out = Vec::new();
    for &(kind, a, b) in ops {
        if kind < 2 {
            let off = (r.next_expected() + a % 600).saturating_sub(300);
            r.insert(off, stream(off, (b % 300 + 1) as usize));
        } else {
            out.push(format!("{:?}", r.pop_next()));
        }
        out.push(format!(
            "{} {} {}",
            r.next_expected(),
            r.buffered_bytes(),
            r.has_hole()
        ));
    }
    out
}

/// The same for a send buffer: writes of the next stream bytes, releases
/// and slices inside what is buffered.
fn send_buffer_transcript(sb: &mut SendBuffer, ops: &[Op]) -> Vec<String> {
    let mut out = Vec::new();
    for &(kind, a, b) in ops {
        let (head, tail) = (sb.head_offset(), sb.tail_offset());
        match kind {
            0 => {
                let n = sb.write(stream(tail, (b % 500 + 1) as usize));
                out.push(n.to_string());
            }
            1 => sb.release_until(head + a % (tail - head + 1)),
            _ => {
                let off = head + a % (tail - head + 1);
                let len = (b as u64).min(tail - off) as u32;
                out.push(format!("{:?}", &sb.slice(off, len)[..]));
            }
        }
        out.push(format!(
            "{} {} {} {}",
            sb.head_offset(),
            sb.tail_offset(),
            sb.len(),
            sb.free()
        ));
    }
    out
}

/// Byte `i` of [`stream`], as one static block.
static STREAM: [u8; 4096] = {
    let mut block = [0; 4096];
    let mut i = 0;
    while i < block.len() {
        block[i] = (i * 31 % 251) as u8;
        i += 1;
    }
    block
};

/// Where the first `n` bytes of [`STREAM`] lie in memory, by stream
/// offset: `[0, a)` in the static block itself, `[a, b)` and `[b, n)` in
/// two owned buffers, adjacent in the stream but not in memory.
fn backings(n: usize, a: usize, b: usize) -> [(usize, Bytes); 3] {
    [
        (0, Bytes::from_static(&STREAM[..a])),
        (a, Bytes::copy_from_slice(&STREAM[a..b])),
        (b, Bytes::copy_from_slice(&STREAM[b..n])),
    ]
}

proptest! {
    /// Whatever order segments arrive in, and whatever memory they lie in,
    /// a reassembly queue pops the bytes of the stream at their offsets,
    /// each exactly once, as soon as the model says they are in order. A
    /// segment is a slice of the backing that holds its range, or a copy
    /// of its own (always, when it spans two backings); runs join only
    /// within one backing, so a popped run that lies in a backing lies at
    /// its own offset there and does not run past the backing's end.
    #[test]
    fn reassembly_pops_the_stream_over_mixed_backings(
        n in 3usize..4096,
        cut_fracs in (0.0f64..1.0, 0.0f64..1.0),
        segs in proptest::collection::vec((0.0f64..1.0, 1usize..1500, any::<bool>()), 1..40),
        order in proptest::collection::vec(any::<usize>(), 1..40),
    ) {
        let a = 1 + ((n - 2) as f64 * cut_fracs.0) as usize;
        let b = a + 1 + ((n - a - 2) as f64 * cut_fracs.1) as usize;
        let parts = backings(n, a, b);
        let part_of = |off: usize| parts.iter().rposition(|p| p.0 <= off).expect("0 is covered");
        // A cover of the stream in in-order pieces, then noise.
        let mut ranges: Vec<(usize, usize, bool)> = Vec::new();
        let mut pos = 0;
        for &(_, len, copy) in segs.iter().cycle() {
            if pos == n {
                break;
            }
            ranges.push((pos, (pos + len).min(n), copy));
            pos = (pos + len).min(n);
        }
        for &(frac, len, copy) in &segs {
            let s = (n as f64 * frac) as usize;
            ranges.push((s, (s + len).min(n), copy));
        }
        let mut shuffled = Vec::with_capacity(ranges.len());
        for (j, k) in order.iter().cycle().enumerate() {
            if ranges.is_empty() {
                break;
            }
            shuffled.push(ranges.swap_remove(k.wrapping_add(j) % ranges.len()));
        }

        let mut r = Reassembly::new();
        let mut seen = vec![false; n];
        let mut popped = 0usize;
        for (s, e, copy) in shuffled {
            let p = part_of(s);
            let (p_off, p_bytes) = &parts[p];
            let data = if copy || e > p_off + p_bytes.len() {
                Bytes::copy_from_slice(&STREAM[s..e])
            } else {
                p_bytes.slice(s - p_off..e - p_off)
            };
            r.insert(s as u64, data);
            seen[s..e].fill(true);
            let prefix = seen.iter().position(|&b| !b).unwrap_or(n);
            while let Some((off, run)) = r.pop_next() {
                prop_assert_eq!(off, popped as u64);
                prop_assert_eq!(&run[..], &STREAM[popped..popped + run.len()]);
                let (p_off, p_bytes) = &parts[part_of(popped)];
                let p_at = p_bytes.as_ptr() as usize;
                let at = run.as_ptr() as usize;
                if (p_at..p_at + p_bytes.len()).contains(&at) {
                    prop_assert_eq!(at - p_at, popped - p_off);
                    prop_assert!(popped + run.len() <= p_off + p_bytes.len());
                }
                popped += run.len();
            }
            let held = seen[prefix..].iter().filter(|&&b| b).count();
            prop_assert_eq!(popped, prefix);
            prop_assert_eq!(r.next_expected(), prefix as u64);
            prop_assert_eq!(r.buffered_bytes(), held as u64);
            prop_assert_eq!(r.has_hole(), held > 0);
        }
        prop_assert_eq!(popped, n);
    }

    /// The RTO is always within the policy clamps, and never decreases as
    /// backoffs accumulate.
    #[test]
    fn rto_monotone_and_clamped(
        rtt_ms in 1u64..5_000,
        expiries in 0u32..40,
    ) {
        let policy = RtoPolicy::default();
        let mut rtt = RttEstimator::new();
        rtt.on_sample(Duration::from_millis(rtt_ms));
        let mut st = RtoState::new(policy.clone());
        let mut prev = Duration::ZERO;
        for _ in 0..expiries {
            let cur = st.current_rto(&rtt);
            prop_assert!(cur >= policy.min_rto);
            prop_assert!(cur <= policy.max_rto);
            prop_assert!(cur >= prev, "RTO never shrinks under backoff");
            prev = cur;
            st.on_expiry();
        }
        // Progress resets to the un-backoffed base value.
        st.on_ack_progress();
        let reset = st.current_rto(&rtt);
        let fresh = RtoState::new(policy.clone()).current_rto(&rtt);
        prop_assert_eq!(reset, fresh);
        prop_assert_eq!(st.backoffs(), 0);
    }

    /// Unwrapping a wire value produced from a true offset recovers the
    /// true offset whenever the receiver's expectation is within 2^31.
    #[test]
    fn unwrap_inverts_wrap(
        true_off in 0u64..(1u64 << 40),
        err in -100_000i64..100_000,
    ) {
        let expected = true_off.saturating_add_signed(err);
        let wire = true_off as u32;
        prop_assert_eq!(unwrap_u32(expected, wire), true_off);
    }

    /// The flight tracker conserves bytes: sent = acked + in-flight, and
    /// cumulative ACKs never increase the in-flight count.
    #[test]
    fn flight_conserves_bytes(
        segs in proptest::collection::vec(1u32..2000, 1..40),
        ack_points in proptest::collection::vec(0u64..100_000, 1..20),
    ) {
        let mut f: Flight<()> = Flight::new();
        let mut off = 0u64;
        for (i, len) in segs.iter().enumerate() {
            f.on_send(off, *len, SimTime::from_millis(i as u64), ());
            off += *len as u64;
        }
        let total = off;
        prop_assert_eq!(f.bytes_in_flight(), total);
        let mut acked = 0u64;
        let mut sorted = ack_points.clone();
        sorted.sort_unstable();
        for (i, upto) in sorted.into_iter().enumerate() {
            let before = f.bytes_in_flight();
            let res = f.on_cum_ack(upto.min(total), SimTime::from_secs(1 + i as u64));
            acked += res.acked_bytes;
            prop_assert!(f.bytes_in_flight() <= before);
            prop_assert_eq!(acked + f.bytes_in_flight(), total);
        }
    }

    /// Storage given up by a used instance carries nothing over: a flight,
    /// reassembly queue or send buffer started on it answers every
    /// operation of a random sequence exactly as a fresh one does. Giving
    /// the storage up keeps the offsets the diag dump reads.
    #[test]
    fn recycled_storage_behaves_like_fresh(
        donor_ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<u32>()), 0..60),
        ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<u32>()), 1..60),
        cap in 1u64..3_000,
    ) {
        let mut donor = Flight::new();
        flight_transcript(&mut donor, &donor_ops);
        let mut recycled = Flight::reusing(donor.clear());
        prop_assert!(donor.is_empty() && donor.bytes_in_flight() == 0);
        prop_assert_eq!(
            flight_transcript(&mut recycled, &ops),
            flight_transcript(&mut Flight::new(), &ops)
        );

        let mut donor = Reassembly::new();
        reassembly_transcript(&mut donor, &donor_ops);
        let next = donor.next_expected();
        let mut recycled = Reassembly::reusing(0, donor.clear());
        prop_assert_eq!(donor.next_expected(), next);
        prop_assert!(donor.buffered_bytes() == 0 && donor.pop_next().is_none());
        prop_assert_eq!(
            reassembly_transcript(&mut recycled, &ops),
            reassembly_transcript(&mut Reassembly::new(), &ops)
        );

        let mut donor = SendBuffer::with_capacity(cap);
        send_buffer_transcript(&mut donor, &donor_ops);
        let tail = donor.tail_offset();
        let mut recycled = SendBuffer::reusing(cap, donor.clear());
        // The head moves up to the tail: nothing below it is held any more.
        prop_assert_eq!((donor.head_offset(), donor.tail_offset()), (tail, tail));
        prop_assert_eq!(
            send_buffer_transcript(&mut recycled, &ops),
            send_buffer_transcript(&mut SendBuffer::with_capacity(cap), &ops)
        );
    }
}

/// Worst-case give-up time grows with max_retries and stays in the band
/// the paper's narrative relies on.
#[test]
fn give_up_time_grows_with_retries() {
    let mut rtt = RttEstimator::new();
    rtt.on_sample(Duration::from_millis(20));
    let mut prev = Duration::ZERO;
    for retries in [3u32, 6, 10, 15] {
        let st = RtoState::new(RtoPolicy {
            max_retries: retries,
            ..Default::default()
        });
        let t = st.worst_case_give_up_time(&rtt);
        assert!(t > prev);
        prev = t;
    }
    // 15 retries ≈ the paper's ~12-13 minutes.
    assert!((600.0..900.0).contains(&prev.as_secs_f64()));
}
