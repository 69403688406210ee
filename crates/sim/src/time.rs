//! Integer time base for the simulator.
//!
//! All component models agree on **picoseconds** as the base unit. This is
//! fine enough to express both the 0.5 ns GDDR6 command clock (`tCK`) and the
//! 700 MHz NPU clock (1428.57 ps, rounded per cycle count conversion) without
//! floating-point drift in the hot scheduling loops.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation timestamp in picoseconds since reset.
///
/// `Time` is an opaque newtype so timestamps and durations cannot be mixed
/// up: `Time + Duration = Time`, `Time - Time = Duration`, and adding two
/// `Time` values is a compile error.
///
/// # Examples
///
/// ```
/// use ianus_sim::{Duration, Time};
/// let t = Time::from_ns(3) + Duration::from_ps(500);
/// assert_eq!(t.as_ps(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time in picoseconds.
///
/// # Examples
///
/// ```
/// use ianus_sim::Duration;
/// assert_eq!(Duration::from_ns(2) * 3, Duration::from_ns(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The zero timestamp (simulation reset).
    pub const ZERO: Time = Time(0);

    /// Creates a timestamp from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a timestamp from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in (fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Later of two timestamps.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Earlier of two timestamps.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Duration since an earlier timestamp.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier.0 <= self.0, "since() with later timestamp");
        Duration(self.0 - earlier.0)
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        Duration(round_to_u64(ns * 1e3))
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0, "negative duration");
        Duration(round_to_u64(secs * 1e12))
    }

    /// Raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in (fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Longer of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Shorter of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Difference clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

/// `x.round() as u64` without the libm call: `x` rounded to the nearest
/// integer, halves away from zero, saturating at 0 (negative values and
/// NaN) and `u64::MAX`. From 2⁵² on every `f64` is an integer already;
/// below, `x - ⌊x⌋` is exact, so comparing it with one half rounds
/// exactly.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const INTEGRAL: f64 = (1u64 << 52) as f64;
    if x >= INTEGRAL {
        return x as u64;
    }
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Duration(self.0).fmt(f)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

/// A clock frequency, used to convert cycle counts to durations.
///
/// # Examples
///
/// ```
/// use ianus_sim::Frequency;
/// let npu = Frequency::from_mhz(700);
/// // 700 cycles at 700 MHz is exactly 1 us.
/// assert_eq!(npu.cycles(700).as_ns_f64(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        Frequency {
            hz: mhz as f64 * 1e6,
        }
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        Frequency { hz: ghz * 1e9 }
    }

    /// Frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// Duration of `n` clock cycles, rounded to the nearest picosecond.
    pub fn cycles(self, n: u64) -> Duration {
        Duration::from_ps(round_to_u64(n as f64 * 1e12 / self.hz))
    }

    /// Period of one clock cycle.
    pub fn period(self) -> Duration {
        self.cycles(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_duration_arithmetic() {
        let t0 = Time::from_ns(10);
        let t1 = t0 + Duration::from_ns(5);
        assert_eq!(t1, Time::from_ns(15));
        assert_eq!(t1 - t0, Duration::from_ns(5));
        assert_eq!(t1.since(t0).as_ns_f64(), 5.0);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_ns(3);
        assert_eq!(d * 4, Duration::from_ns(12));
        assert_eq!(Duration::from_ns(12) / 4, d);
        let total: Duration = (0..4).map(|_| d).sum();
        assert_eq!(total, Duration::from_ns(12));
    }

    #[test]
    fn frequency_cycle_conversion() {
        let f = Frequency::from_ghz(1.0);
        assert_eq!(f.cycles(64), Duration::from_ns(64));
        let npu = Frequency::from_mhz(700);
        // One NPU cycle is 1/0.7 ns = 1428.57 ps, rounded to 1429.
        assert_eq!(npu.cycles(1).as_ps(), 1429);
        // Bulk conversion rounds once, not per cycle.
        assert_eq!(npu.cycles(7_000_000).as_ps(), 10_000_000_000_000 / 1_000);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_ps(12)), "12 ps");
        assert_eq!(format!("{}", Duration::from_ns(12)), "12.000 ns");
        assert_eq!(format!("{}", Duration::from_us(12)), "12.000 us");
        assert_eq!(format!("{}", Duration::from_us(12_000)), "12.000 ms");
    }

    #[test]
    fn rounding_matches_libm_round() {
        let check = |x: f64| {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "{x:e} ({:#x})",
                x.to_bits()
            );
        };
        let around = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        for x in [
            0.0,
            0.49999999999999994,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -1.5,
        ] {
            check(x);
        }
        for k in 0..1u64 << 20 {
            around(k as f64 + 0.5).into_iter().for_each(check);
        }
        for p in [52, 53, 64] {
            let x = (p as f64).exp2();
            for y in [x - 1.5, x - 1.0, x - 0.5, x, x + 1.0, x + 2.0] {
                around(y).into_iter().for_each(check);
            }
        }
        // Seeded random values: magnitudes across the whole range, and
        // values below 2²⁰ with random fractions.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        };
        for _ in 0..5_000_000 {
            check(f64::from_bits(next() >> 1));
            check((next() >> 11) as f64 / (1u64 << 33) as f64);
        }
    }

    #[test]
    fn from_fractional_constructors() {
        assert_eq!(Duration::from_ns_f64(0.5).as_ps(), 500);
        assert_eq!(Duration::from_secs_f64(1e-9).as_ps(), 1_000);
    }
}
