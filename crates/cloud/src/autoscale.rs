//! Elastic capacity control.
//!
//! The paper's abstract motivates clouds for e-learning by "dynamically
//! allocation of computation and storage resources". [`AutoScaler`] is a
//! reactive target-tracking controller: it sizes the fleet so that offered
//! load sits at a target fraction of capacity, with a cooldown to prevent
//! flapping.

use elc_simcore::round::ceil_u32;
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

/// Fewest instances the scaler keeps.
const MIN_INSTANCES: u32 = 2;

/// Most instances the scaler asks for.
const MAX_INSTANCES: u32 = 600;

/// Utilization the scaler sizes the fleet for.
const TARGET_UTILIZATION: f64 = 0.6;

/// Quiet period after an action before the next one.
const COOLDOWN: SimDuration = SimDuration::from_secs(240);

/// Sizes a fleet from offered load. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoScaler {
    last_action_at: Option<SimTime>,
}

impl AutoScaler {
    /// The standard scaler: 2 to 600 instances at a 60% utilization
    /// target, with a 4-minute cooldown.
    #[must_use]
    pub fn standard() -> Self {
        AutoScaler {
            last_action_at: None,
        }
    }

    /// The fleet size this scaler would choose for `load_rps` given each
    /// instance serves `unit_rps`.
    #[must_use]
    pub fn desired_count(&self, load_rps: f64, unit_rps: f64) -> u32 {
        assert!(unit_rps > 0.0, "unit capacity must be positive");
        ceil_u32(load_rps / (unit_rps * TARGET_UTILIZATION)).clamp(MIN_INSTANCES, MAX_INSTANCES)
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
            if now.saturating_since(last) < COOLDOWN {
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

    #[test]
    fn desired_count_tracks_target() {
        let s = AutoScaler::standard();
        // 300 rps at 100 rps/unit and 60% target → ceil(300/60) = 5.
        assert_eq!(s.desired_count(300.0, 100.0), 5);
        assert_eq!(s.desired_count(0.0, 100.0), 2); // floor
        assert_eq!(s.desired_count(1e9, 100.0), 600); // ceiling
        assert_eq!(s.desired_count(f64::NAN, 100.0), 2);
        assert_eq!(s.desired_count(f64::INFINITY, 100.0), 600);
    }

    #[test]
    fn scale_up_when_under_provisioned() {
        let mut s = AutoScaler::standard();
        let d = s.decide(SimTime::ZERO, 2, 300.0, 100.0);
        assert_eq!(d, ScaleDecision::ScaleUp(3));
    }

    #[test]
    fn scale_down_when_over_provisioned() {
        let mut s = AutoScaler::standard();
        let d = s.decide(SimTime::ZERO, 10, 100.0, 100.0);
        assert_eq!(d, ScaleDecision::ScaleDown(8));
    }

    #[test]
    fn hold_when_right_sized() {
        let mut s = AutoScaler::standard();
        let d = s.decide(SimTime::ZERO, 5, 300.0, 100.0);
        assert_eq!(d, ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_suppresses_consecutive_actions() {
        let mut s = AutoScaler::standard();
        assert_ne!(
            s.decide(SimTime::ZERO, 2, 1_000.0, 100.0),
            ScaleDecision::Hold
        );
        // Three minutes later the scaler is still cooling down.
        assert_eq!(
            s.decide(SimTime::from_secs(180), 2, 10_000.0, 100.0),
            ScaleDecision::Hold
        );
        // After the cooldown it acts again.
        assert_ne!(
            s.decide(SimTime::from_secs(240), 2, 10_000.0, 100.0),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn hold_does_not_start_cooldown() {
        let mut s = AutoScaler::standard();
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
}
