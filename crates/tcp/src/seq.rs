//! 32-bit wrapping sequence-number arithmetic.
//!
//! TCP sequence numbers live in a 32-bit circular space. This module
//! provides the classic serial-number comparisons plus an *unwrapper* that
//! lifts wire sequence numbers into the flat 64-bit stream-offset space the
//! rest of the engine works in. Internally everything is a `u64` byte
//! offset; only the wire codec deals in wrapped 32-bit values.

use std::fmt;

/// A raw 32-bit TCP sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// `self + n` with wraparound.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(n))
    }

    /// `self - n` with wraparound.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, n: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(n))
    }

    /// Serial-number "less than": true if `self` precedes `other` in the
    /// circular space (distance < 2^31).
    pub fn lt(self, other: SeqNum) -> bool {
        (self.0.wrapping_sub(other.0) as i32) < 0
    }

    /// Serial-number "less than or equal".
    pub fn leq(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// Bytes from `self` forward to `other` (wrapping).
    pub fn distance_to(self, other: SeqNum) -> u32 {
        other.0.wrapping_sub(self.0)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq({})", self.0)
    }
}

impl From<u32> for SeqNum {
    fn from(v: u32) -> Self {
        SeqNum(v)
    }
}

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
