//! 32-bit wrapping sequence-number arithmetic.
//!
//! TCP sequence numbers live in a 32-bit circular space. [`SeqNum`], defined
//! beside the header codec in `smapp_sim::wire` because the fixed header
//! holds it, provides the classic serial-number comparisons. This module
//! adds an *unwrapper* that lifts wire sequence numbers into the flat
//! 64-bit stream-offset space the rest of the engine works in. Internally
//! everything is a `u64` byte offset; only the wire codec deals in wrapped
//! 32-bit values.

pub use smapp_sim::wire::SeqNum;

/// Lift a wrapped 32-bit wire value into 64-bit space, choosing the value
/// congruent to `wire` (mod 2^32) closest to `expected`.
///
/// This is how the engine reconstructs absolute stream offsets from
/// received headers: the receiver knows roughly where the stream is
/// (`expected` = next expected offset) and the true offset is always within
/// ±2^31 of it on any sane connection.
pub fn unwrap_u32(expected: u64, wire: u32) -> u64 {
    const M: u64 = 1 << 32;
    let base = expected & !(M - 1);
    let candidates = [
        base.checked_sub(M).map(|b| b + wire as u64),
        Some(base + wire as u64),
        base.checked_add(M).map(|b| b + wire as u64),
    ];
    candidates
        .into_iter()
        .flatten()
        .min_by_key(|&c| c.abs_diff(expected))
        .expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_across_wrap() {
        let a = SeqNum(u32::MAX - 5);
        let b = a.add(10); // wrapped
        assert!(a.lt(b));
        assert!(!b.lt(a));
        assert!(a.leq(b));
        assert!(a.leq(a));
        assert_eq!(a.distance_to(b), 10);
        assert_eq!(b.0, 4);
    }

    #[test]
    fn add_sub_inverse() {
        let a = SeqNum(1234);
        assert_eq!(a.add(77).sub(77), a);
        let b = SeqNum(3).sub(10);
        assert_eq!(b.add(10), SeqNum(3));
    }

    #[test]
    fn unwrap_near_zero() {
        assert_eq!(unwrap_u32(0, 0), 0);
        assert_eq!(unwrap_u32(0, 100), 100);
        assert_eq!(unwrap_u32(10, u32::MAX), u32::MAX as u64);
    }

    #[test]
    fn unwrap_mid_stream() {
        let expected = 5_000_000_000; // past one wrap (2^32 ≈ 4.29e9)
        let wire = (expected % (1u64 << 32)) as u32;
        assert_eq!(unwrap_u32(expected, wire), expected);
        // A value slightly behind expected.
        let behind = expected - 1000;
        assert_eq!(unwrap_u32(expected, behind as u32), behind);
        // A value ahead of expected.
        let ahead = expected + 100_000;
        assert_eq!(unwrap_u32(expected, ahead as u32), ahead);
    }

    #[test]
    fn unwrap_prefers_closest() {
        // expected exactly at a wrap boundary: both sides reachable.
        let expected = 1u64 << 32;
        assert_eq!(unwrap_u32(expected, 5), (1u64 << 32) + 5);
        assert_eq!(unwrap_u32(expected, u32::MAX - 5), (1u64 << 32) - 6);
    }

    #[test]
    fn unwrap_handles_huge_offsets() {
        let expected = 123 * (1u64 << 32) + 9876;
        assert_eq!(unwrap_u32(expected, 9876), expected);
    }
}
