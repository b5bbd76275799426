//! Connectivity outage model.
//!
//! The paper's first risk for cloud e-learning is the network: *"Internet
//! connections are required, and stable ones are often essential. Also, if a
//! Cloud connection gets terminated during a session, users may lose time,
//! work, or even unsaved data."* (§III)
//!
//! [`OutageModel`] is an alternating renewal process: up-times are
//! exponential with mean `mtbf`, down-times exponential with mean `mttr`.
//! [`OutageSchedule`] materializes the process over a horizon so models can
//! query it without re-sampling.

use elc_simcore::dist::{Distribution, Exp};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// Parameters of an alternating up/down connectivity process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageModel {
    mtbf: SimDuration,
    mttr: SimDuration,
}

impl OutageModel {
    /// Creates a model with mean time between failures `mtbf` and mean time
    /// to repair `mttr`.
    ///
    /// # Panics
    ///
    /// Panics on a zero `mtbf` or `mttr` — the exponential sampler needs
    /// positive means.
    #[must_use]
    pub fn new(mtbf: SimDuration, mttr: SimDuration) -> Self {
        assert!(!mtbf.is_zero(), "mtbf must be positive");
        assert!(!mttr.is_zero(), "mttr must be positive");
        OutageModel { mtbf, mttr }
    }

    /// Long-run availability: `mtbf / (mtbf + mttr)`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let up = self.mtbf.as_secs_f64();
        let down = self.mttr.as_secs_f64();
        up / (up + down)
    }

    /// Materializes the outage windows over `[0, horizon)`.
    #[must_use]
    pub fn schedule(&self, rng: &mut SimRng, horizon: SimTime) -> OutageSchedule {
        let up = Exp::new(1.0 / self.mtbf.as_secs_f64()).expect("mtbf validated");
        let down = Exp::new(1.0 / self.mttr.as_secs_f64()).expect("mttr validated");
        let mut windows = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let up_span = SimDuration::from_secs_f64(up.sample(rng));
            let Some(fail_at) = t.checked_add(up_span) else {
                break;
            };
            if fail_at >= horizon {
                break;
            }
            let down_span = SimDuration::from_secs_f64(
                down.sample(rng).max(1e-9 /* avoid zero-length outages */),
            );
            let restore_at = fail_at
                .checked_add(down_span)
                .unwrap_or(horizon)
                .min(horizon);
            windows.push((fail_at, restore_at));
            t = restore_at;
            if t >= horizon {
                break;
            }
        }
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            for &(fail_at, restore_at) in &windows {
                let span = elc_trace::span_begin(
                    fail_at.as_nanos(),
                    TRACE_TARGET,
                    "outage",
                    Level::Info,
                    &[Field::duration_ns(
                        "down",
                        (restore_at - fail_at).as_nanos(),
                    )],
                );
                elc_trace::span_end(
                    restore_at.as_nanos(),
                    TRACE_TARGET,
                    "outage",
                    Level::Info,
                    span,
                    &[],
                );
            }
        }
        OutageSchedule { windows, horizon }
    }
}

/// A concrete, queryable list of outage windows over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSchedule {
    /// Sorted, non-overlapping `(start, end)` windows.
    windows: Vec<(SimTime, SimTime)>,
    horizon: SimTime,
}

impl OutageSchedule {
    /// A schedule with no outages.
    #[cfg(test)]
    pub(crate) fn none(horizon: SimTime) -> Self {
        OutageSchedule {
            windows: Vec::new(),
            horizon,
        }
    }

    /// Builds a schedule from explicit windows.
    ///
    /// # Panics
    ///
    /// Panics if windows are unsorted, overlapping, or inverted.
    #[cfg(test)]
    pub(crate) fn from_windows(windows: Vec<(SimTime, SimTime)>, horizon: SimTime) -> Self {
        let mut prev_end = SimTime::ZERO;
        for &(s, e) in &windows {
            assert!(s < e, "outage window inverted: {s} >= {e}");
            assert!(s >= prev_end, "outage windows overlap or are unsorted");
            prev_end = e;
        }
        OutageSchedule { windows, horizon }
    }

    /// The outage windows.
    #[must_use]
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }

    /// The schedule horizon.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of outages.
    #[must_use]
    pub fn count(&self) -> usize {
        self.windows.len()
    }

    /// The outage window covering `t`, if any.
    #[must_use]
    pub fn window_covering(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        // Binary search over window starts.
        let idx = self.windows.partition_point(|&(s, _)| s <= t);
        if idx == 0 {
            return None;
        }
        let w = self.windows[idx - 1];
        (t < w.1).then_some(w)
    }

    /// The first outage that begins at or after `t`, if any.
    #[must_use]
    pub fn next_outage_after(&self, t: SimTime) -> Option<(SimTime, SimTime)> {
        let idx = self.windows.partition_point(|&(s, _)| s < t);
        self.windows.get(idx).copied()
    }

    /// Total downtime within `[from, to)`.
    #[must_use]
    pub fn downtime_within(&self, from: SimTime, to: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &(s, e) in &self.windows {
            if e <= from {
                continue;
            }
            if s >= to {
                break;
            }
            let lo = s.max(from);
            let hi = e.min(to);
            total += hi - lo;
        }
        total
    }

    /// Measured availability over the whole horizon.
    #[must_use]
    pub fn measured_availability(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            return 1.0;
        }
        let down = self.downtime_within(SimTime::ZERO, self.horizon);
        1.0 - down.ratio(self.horizon - SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn is_up(sched: &OutageSchedule, t: SimTime) -> bool {
        sched.window_covering(t).is_none()
    }

    #[test]
    #[should_panic(expected = "mtbf must be positive")]
    fn new_rejects_zero_mtbf() {
        let _ = OutageModel::new(SimDuration::ZERO, SimDuration::from_hours(1));
    }

    #[test]
    #[should_panic(expected = "mttr must be positive")]
    fn new_rejects_zero_mttr() {
        let _ = OutageModel::new(SimDuration::from_hours(1), SimDuration::ZERO);
    }

    #[test]
    fn availability_formula() {
        let m = OutageModel::new(SimDuration::from_hours(99), SimDuration::from_hours(1));
        assert!((m.availability() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn schedule_windows_are_sorted_disjoint() {
        let m = OutageModel::new(SimDuration::from_hours(2), SimDuration::from_mins(10));
        let mut rng = SimRng::seed(2);
        let sched = m.schedule(&mut rng, SimTime::from_secs(86_400 * 7));
        let mut prev_end = SimTime::ZERO;
        for &(s, e) in sched.windows() {
            assert!(s < e);
            assert!(s >= prev_end);
            prev_end = e;
        }
        assert!(sched.count() > 10, "expected many outages in a week");
    }

    #[test]
    fn measured_availability_tracks_model() {
        let m = OutageModel::new(SimDuration::from_hours(9), SimDuration::from_hours(1));
        let mut rng = SimRng::seed(3);
        let sched = m.schedule(&mut rng, SimTime::from_secs(86_400 * 365));
        let a = sched.measured_availability();
        assert!((a - 0.9).abs() < 0.02, "availability {a}");
    }

    #[test]
    fn is_up_and_covering() {
        let sched = OutageSchedule::from_windows(
            vec![(secs(10), secs(20)), (secs(50), secs(60))],
            secs(100),
        );
        assert!(is_up(&sched, secs(5)));
        assert!(!is_up(&sched, secs(15)));
        assert!(is_up(&sched, secs(20))); // end is exclusive
        assert_eq!(sched.window_covering(secs(15)), Some((secs(10), secs(20))));
        assert_eq!(sched.window_covering(secs(30)), None);
    }

    #[test]
    fn is_up_boundary_semantics_at_window_edges() {
        let sched = OutageSchedule::from_windows(
            vec![(secs(10), secs(20)), (secs(50), secs(60))],
            secs(100),
        );
        let ns = SimDuration::from_nanos(1);

        // A window's start instant is down (inclusive lower edge): the
        // failure has happened by the time anyone observes t = start.
        assert!(is_up(&sched, secs(10) - ns));
        assert!(!is_up(&sched, secs(10)));
        assert!(!is_up(&sched, secs(10) + ns));
        assert_eq!(sched.window_covering(secs(10)), Some((secs(10), secs(20))));

        // A window's end instant is up (exclusive upper edge): repair
        // completes *at* t = end, so service is restored there.
        assert!(!is_up(&sched, secs(20) - ns));
        assert!(is_up(&sched, secs(20)));
        assert_eq!(sched.window_covering(secs(20)), None);

        // The same contract holds for a later window (binary search must
        // land on the right neighbour on both sides).
        assert!(!is_up(&sched, secs(50)));
        assert!(is_up(&sched, secs(60)));

        // Boundary instants agree with the interval queries built on them.
        assert_eq!(
            sched.downtime_within(secs(10), secs(20)),
            SimDuration::from_secs(10)
        );
        assert_eq!(sched.downtime_within(secs(20), secs(50)), SimDuration::ZERO);
        assert_eq!(
            sched.next_outage_after(secs(20)),
            Some((secs(50), secs(60)))
        );
    }

    #[test]
    fn next_outage_lookup() {
        let sched = OutageSchedule::from_windows(
            vec![(secs(10), secs(20)), (secs(50), secs(60))],
            secs(100),
        );
        assert_eq!(sched.next_outage_after(secs(0)), Some((secs(10), secs(20))));
        assert_eq!(
            sched.next_outage_after(secs(10)),
            Some((secs(10), secs(20)))
        );
        assert_eq!(
            sched.next_outage_after(secs(11)),
            Some((secs(50), secs(60)))
        );
        assert_eq!(sched.next_outage_after(secs(61)), None);
    }

    #[test]
    fn downtime_within_clips_to_range() {
        let sched = OutageSchedule::from_windows(
            vec![(secs(10), secs(20)), (secs(50), secs(60))],
            secs(100),
        );
        assert_eq!(
            sched.downtime_within(secs(0), secs(100)),
            SimDuration::from_secs(20)
        );
        assert_eq!(
            sched.downtime_within(secs(15), secs(55)),
            SimDuration::from_secs(10)
        );
        assert_eq!(sched.downtime_within(secs(25), secs(45)), SimDuration::ZERO);
    }

    #[test]
    fn empty_schedule_is_always_up() {
        let sched = OutageSchedule::none(secs(100));
        assert!(is_up(&sched, secs(42)));
        assert_eq!(sched.measured_availability(), 1.0);
        assert_eq!(sched.next_outage_after(secs(0)), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn from_windows_rejects_overlap() {
        let _ = OutageSchedule::from_windows(
            vec![(secs(10), secs(30)), (secs(20), secs(40))],
            secs(50),
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn from_windows_rejects_inverted() {
        let _ = OutageSchedule::from_windows(vec![(secs(30), secs(10))], secs(50));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = OutageModel::new(SimDuration::from_hours(4), SimDuration::from_mins(15));
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        let h = SimTime::from_secs(86_400);
        assert_eq!(m.schedule(&mut a, h), m.schedule(&mut b, h));
    }
}
