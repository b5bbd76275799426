//! Time-indexed measurements.
//!
//! [`TimeWeighted`] tracks a piecewise-constant signal (VM count, queue
//! depth, utilization) and integrates it over virtual time, which is the
//! correct way to average such signals — sampling them at event times would
//! over-weight busy periods.

use crate::time::SimTime;

/// A piecewise-constant signal integrated over virtual time.
///
/// # Examples
///
/// ```
/// use elc_simcore::series::TimeWeighted;
/// use elc_simcore::time::SimTime;
///
/// let mut vms = TimeWeighted::new(SimTime::ZERO, 2.0);
/// vms.set(SimTime::from_secs(10), 4.0); // scale up at t=10
/// let vm_seconds = vms.integral(SimTime::from_secs(20));
/// assert_eq!(vm_seconds, 60.0); // 2 for 10s, 4 for 10s
/// assert_eq!(vms.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    max: f64,
}

impl TimeWeighted {
    /// Starts tracking a signal with the given initial value.
    #[must_use]
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            integral: 0.0,
            max: initial,
        }
    }

    /// Updates the signal to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous update — the signal is recorded
    /// in event order.
    pub fn set(&mut self, t: SimTime, value: f64) {
        assert!(
            t >= self.last_time,
            "time-weighted updates must be monotone: last={}, got={}",
            self.last_time,
            t
        );
        self.integral += self.last_value * (t - self.last_time).as_secs_f64();
        self.last_time = t;
        self.last_value = value;
        self.max = self.max.max(value);
    }

    /// The largest value the signal has taken.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Integral of the signal from the start through time `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last update.
    #[must_use]
    pub fn integral(&self, end: SimTime) -> f64 {
        assert!(end >= self.last_time, "integral end precedes last update");
        self.integral + self.last_value * (end - self.last_time).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_integral() {
        let mut s = TimeWeighted::new(SimTime::ZERO, 1.0);
        s.set(SimTime::from_secs(5), 3.0);
        s.set(SimTime::from_secs(10), 0.0);
        // 1*5 + 3*5 + 0*10 over 20s.
        assert_eq!(s.integral(SimTime::from_secs(20)), 20.0);
    }

    #[test]
    fn time_weighted_tracks_the_maximum() {
        let mut s = TimeWeighted::new(SimTime::ZERO, 2.0);
        s.set(SimTime::from_secs(1), 7.0);
        s.set(SimTime::from_secs(2), -1.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let s = TimeWeighted::new(SimTime::from_secs(5), 4.0);
        assert_eq!(s.integral(SimTime::from_secs(5)), 0.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_backwards_time() {
        let mut s = TimeWeighted::new(SimTime::from_secs(10), 0.0);
        s.set(SimTime::from_secs(5), 1.0);
    }

    #[test]
    fn integral_extends_to_end() {
        let mut s = TimeWeighted::new(SimTime::ZERO, 2.0);
        s.set(SimTime::from_secs(10), 4.0);
        assert_eq!(s.integral(SimTime::from_secs(15)), 2.0 * 10.0 + 4.0 * 5.0);
    }
}
