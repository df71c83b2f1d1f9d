//! Simulated time.
//!
//! The simulator uses a single monotonically increasing clock expressed in
//! integer nanoseconds. Durations are plain [`std::time::Duration`] values so
//! callers can write `SimTime::ZERO + Duration::from_millis(10)` and compare
//! instants with ordinary operators.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation clock, in nanoseconds since the start of the
/// run.
///
/// `SimTime` is a thin wrapper over `u64`; arithmetic with
/// [`Duration`] saturates on overflow (a simulation that runs for 580 years
/// has other problems).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinitely far" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, or `Duration::ZERO` if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of two instants.
    pub fn checked_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration::from_nanos)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{}us", ns as f64 / 1e3)
        }
    }
}

/// Convert a transmission size and rate into serialization time.
///
/// `bits` are put on a wire running at `bits_per_sec`; the result is rounded
/// up to the next nanosecond so back-to-back packets never occupy zero time.
///
/// Computed in `u64` whenever `bits × 10⁹` fits, which is any packet (up to
/// ≈ 2.3 GB); a 128-bit division per packet per hop showed in profiles.
pub fn tx_time(bits: u64, bits_per_sec: u64) -> Duration {
    assert!(bits_per_sec > 0, "link rate must be positive");
    let ns = match bits.checked_mul(1_000_000_000) {
        Some(scaled) => scaled.div_ceil(bits_per_sec),
        None => tx_time_ns_wide(bits, bits_per_sec),
    };
    Duration::from_nanos(ns)
}

/// `tx_time` in nanoseconds through 128-bit arithmetic, for sizes whose
/// `bits × 10⁹` overflows `u64`.
fn tx_time_ns_wide(bits: u64, bits_per_sec: u64) -> u64 {
    (bits as u128 * 1_000_000_000u128).div_ceil(bits_per_sec as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn add_and_sub() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
    }

    #[test]
    fn saturating_since_handles_future() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
    }

    #[test]
    fn checked_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.checked_since(b), None);
        assert_eq!(b.checked_since(a), Some(Duration::from_secs(1)));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1500 bytes at 1 Gb/s = 12 microseconds exactly.
        assert_eq!(tx_time(12_000, 1_000_000_000), Duration::from_micros(12));
        // 1 bit at 3 bit/s: 333333333.33 ns rounds up to ...34.
        assert_eq!(tx_time(1, 3), Duration::from_nanos(333_333_334));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.5us");
        assert_eq!(format!("{}", SimTime::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000000s");
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    /// The largest size whose `bits × 10⁹` fits a `u64`.
    const NARROW_MAX: u64 = u64::MAX / 1_000_000_000;

    proptest! {
        /// The `u64` fast path gives exactly the 128-bit formula's result,
        /// for packet sizes, on both sides of the overflow boundary and
        /// anywhere else.
        #[test]
        fn tx_time_matches_the_128_bit_formula(
            bits in prop_oneof![
                0u64..200_000,
                NARROW_MAX - 1_000..NARROW_MAX + 1_000,
                any::<u64>(),
            ],
            rate in prop_oneof![1_000u64..100_000_000_000, 1u64..=u64::MAX],
        ) {
            let wide = tx_time_ns_wide(bits, rate);
            prop_assert_eq!(tx_time(bits, rate), Duration::from_nanos(wide));
        }
    }

    #[test]
    fn the_boundary_is_where_the_property_looks() {
        assert!(NARROW_MAX.checked_mul(1_000_000_000).is_some());
        assert!((NARROW_MAX + 1).checked_mul(1_000_000_000).is_none());
    }
}
