//! Elastic capacity control.
//!
//! The paper's abstract motivates clouds for e-learning by "dynamically
//! allocation of computation and storage resources". [`AutoScaler`] is a
//! reactive target-tracking controller: it sizes the fleet so that offered
//! load sits at a target fraction of capacity, with a cooldown to prevent
//! flapping.

use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// A capacity decision at one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add this many instances.
    ScaleUp(u32),
    /// Remove this many instances.
    ScaleDown(u32),
    /// Do nothing.
    Hold,
}

/// Sizes a fleet from offered load. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoScaler {
    min_instances: u32,
    max_instances: u32,
    target_utilization: f64,
    cooldown: SimDuration,
    last_action_at: Option<SimTime>,
}

impl AutoScaler {
    /// Creates a target-tracking scaler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_utilization <= 1`, `min_instances >= 1`
    /// and `min_instances <= max_instances`.
    #[must_use]
    pub fn new(
        min_instances: u32,
        max_instances: u32,
        target_utilization: f64,
        cooldown: SimDuration,
    ) -> Self {
        assert!(
            target_utilization.is_finite() && target_utilization > 0.0 && target_utilization <= 1.0,
            "target utilization must be in (0, 1], got {target_utilization}"
        );
        assert!(min_instances >= 1, "need at least one instance");
        assert!(
            min_instances <= max_instances,
            "min {min_instances} > max {max_instances}"
        );
        AutoScaler {
            min_instances,
            max_instances,
            target_utilization,
            cooldown,
            last_action_at: None,
        }
    }

    /// The fleet size this scaler would choose for `load_rps` given each
    /// instance serves `unit_rps`.
    #[must_use]
    pub fn desired_count(&self, load_rps: f64, unit_rps: f64) -> u32 {
        assert!(unit_rps > 0.0, "unit capacity must be positive");
        let needed = (load_rps / (unit_rps * self.target_utilization)).ceil();
        (needed.max(0.0) as u32).clamp(self.min_instances, self.max_instances)
    }

    /// Decides a scaling action at `now`.
    ///
    /// Returns [`ScaleDecision::Hold`] while in cooldown from the previous
    /// action or when the fleet is already right-sized.
    pub fn decide(
        &mut self,
        now: SimTime,
        current: u32,
        load_rps: f64,
        unit_rps: f64,
    ) -> ScaleDecision {
        if let Some(last) = self.last_action_at {
            if now.saturating_since(last) < self.cooldown {
                return ScaleDecision::Hold;
            }
        }
        let desired = self.desired_count(load_rps, unit_rps);
        let decision = if desired > current {
            ScaleDecision::ScaleUp(desired - current)
        } else if desired < current {
            ScaleDecision::ScaleDown(current - desired)
        } else {
            ScaleDecision::Hold
        };
        if decision != ScaleDecision::Hold {
            self.last_action_at = Some(now);
        }
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            let action = match decision {
                ScaleDecision::ScaleUp(_) => "up",
                ScaleDecision::ScaleDown(_) => "down",
                ScaleDecision::Hold => "hold",
            };
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "autoscale.decide",
                Level::Info,
                &[
                    Field::f64("load_rps", load_rps),
                    Field::u64("current", u64::from(current)),
                    Field::u64("target", u64::from(desired)),
                    Field::str("action", action),
                ],
            );
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic payload")
    }

    fn scaler() -> AutoScaler {
        AutoScaler::new(1, 20, 0.6, SimDuration::from_mins(5))
    }

    #[test]
    fn desired_count_tracks_target() {
        let s = scaler();
        // 300 rps at 100 rps/unit and 60% target → ceil(300/60) = 5.
        assert_eq!(s.desired_count(300.0, 100.0), 5);
        assert_eq!(s.desired_count(0.0, 100.0), 1); // floor
        assert_eq!(s.desired_count(1e9, 100.0), 20); // ceiling
    }

    #[test]
    fn scale_up_when_under_provisioned() {
        let mut s = scaler();
        let d = s.decide(SimTime::ZERO, 2, 300.0, 100.0);
        assert_eq!(d, ScaleDecision::ScaleUp(3));
    }

    #[test]
    fn scale_down_when_over_provisioned() {
        let mut s = scaler();
        let d = s.decide(SimTime::ZERO, 10, 100.0, 100.0);
        assert_eq!(d, ScaleDecision::ScaleDown(8));
    }

    #[test]
    fn hold_when_right_sized() {
        let mut s = scaler();
        let d = s.decide(SimTime::ZERO, 5, 300.0, 100.0);
        assert_eq!(d, ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_suppresses_consecutive_actions() {
        let mut s = scaler();
        assert_ne!(
            s.decide(SimTime::ZERO, 1, 1_000.0, 100.0),
            ScaleDecision::Hold
        );
        // One minute later the scaler is still cooling down.
        assert_eq!(
            s.decide(SimTime::from_secs(60), 1, 10_000.0, 100.0),
            ScaleDecision::Hold
        );
        // After the cooldown it acts again.
        assert_ne!(
            s.decide(SimTime::from_secs(301), 1, 10_000.0, 100.0),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn hold_does_not_start_cooldown() {
        let mut s = scaler();
        assert_eq!(
            s.decide(SimTime::ZERO, 5, 300.0, 100.0),
            ScaleDecision::Hold
        );
        // An immediate overload must still trigger a scale-up.
        assert_eq!(
            s.decide(SimTime::from_secs(1), 5, 600.0, 100.0),
            ScaleDecision::ScaleUp(5)
        );
    }

    #[test]
    fn new_rejects_each_bad_knob() {
        let cases: [(u32, u32, f64, &str); 5] = [
            (1, 10, 0.0, "target utilization must be in (0, 1], got 0"),
            (1, 10, 1.5, "target utilization must be in (0, 1], got 1.5"),
            (
                1,
                10,
                f64::NAN,
                "target utilization must be in (0, 1], got NaN",
            ),
            (0, 10, 0.5, "need at least one instance"),
            (5, 2, 0.5, "min 5 > max 2"),
        ];
        for (min, max, util, want) in cases {
            let msg = panic_message(|| {
                let _ = AutoScaler::new(min, max, util, SimDuration::ZERO);
            });
            assert_eq!(msg, want);
        }
    }
}
