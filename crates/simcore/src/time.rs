//! Simulated time.
//!
//! The kernel measures time in whole nanoseconds since the start of the
//! simulation. Using an integer representation keeps event ordering exact and
//! replayable across platforms — there is no floating-point drift between two
//! runs with the same seed.
//!
//! [`SimTime`] is an absolute instant; [`SimDuration`] is a span between two
//! instants. The two are distinct types so that adding two instants (a bug)
//! fails to compile, per the newtype guidance (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::round::round_u64;

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// An absolute instant on the simulation clock.
///
/// `SimTime::ZERO` is the start of the simulation. Instants are totally
/// ordered and cheap to copy.
///
/// # Examples
///
/// ```
/// use elc_simcore::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(5);
/// assert_eq!(t.as_secs_f64(), 5.0);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, always non-negative.
///
/// # Examples
///
/// ```
/// use elc_simcore::time::SimDuration;
///
/// let d = SimDuration::from_millis(1_500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Nanoseconds since the simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start, as a float (lossy for very large
    /// values; fine for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration of `millis` milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration of `mins` minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration::from_secs(mins * 60)
    }

    /// Creates a duration of `hours` hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3_600)
    }

    /// Creates a duration of `days` (24-hour) days.
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        SimDuration::from_secs(days * 86_400)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration of {secs} seconds overflows"
        );
        SimDuration(round_u64(nanos))
    }

    /// The span in whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// The span in whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// The span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span in fractional hours.
    #[must_use]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// True if the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN, or the result overflows.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let nanos = self.0 as f64 * factor;
        assert!(nanos <= u64::MAX as f64, "duration multiply overflows");
        SimDuration(round_u64(nanos))
    }

    /// Ratio of this span to `other`, as a float.
    ///
    /// Returns 0.0 when `other` is zero.
    #[must_use]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.is_zero() {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

/// Renders a nanosecond count with a human-readable unit.
fn fmt_nanos(nanos: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if nanos == 0 {
        return write!(f, "0s");
    }
    if nanos < NANOS_PER_MICRO {
        write!(f, "{nanos}ns")
    } else if nanos < NANOS_PER_MILLI {
        write!(f, "{:.3}us", nanos as f64 / NANOS_PER_MICRO as f64)
    } else if nanos < NANOS_PER_SEC {
        write!(f, "{:.3}ms", nanos as f64 / NANOS_PER_MILLI as f64)
    } else if nanos < 3_600 * NANOS_PER_SEC {
        write!(f, "{:.3}s", nanos as f64 / NANOS_PER_SEC as f64)
    } else {
        write!(f, "{:.3}h", nanos as f64 / (3_600.0 * NANOS_PER_SEC as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 10_500 * NANOS_PER_MILLI);
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(8);
        assert_eq!(b - a, SimDuration::from_secs(5));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(8);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(5));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn max_round_trips_through_seconds() {
        // 2^64 nanoseconds saturate, so MAX still round-trips.
        assert_eq!(
            SimDuration::from_secs_f64(SimDuration::MAX.as_secs_f64()),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::MAX.mul_f64(1.0), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_nan() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn mul_and_div() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2_500));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
    }

    #[test]
    fn ratio_handles_zero() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
        assert!((d.ratio(SimDuration::from_secs(4)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.000h");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", SimDuration::ZERO).is_empty());
    }

    #[test]
    fn hours_as_f64() {
        assert!((SimDuration::from_mins(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }
}
