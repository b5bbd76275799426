//! Breaker-driven hybrid failover.
//!
//! §IV.C's reliability argument for the hybrid model: when the private
//! site goes down, traffic *re-routes* into public burst capacity instead
//! of being lost. [`HybridFailover`] wires a
//! [`CircuitBreaker`] over the primary
//! site to a [`FailoverPlan`]: each
//! tick the model probes the primary's health, and the route follows the
//! breaker — `Primary` while it is closed, `Backup` while it is open or
//! probing. Every route change is traced as `failover.switch` and
//! counted.

use elc_deploy::hybrid::FailoverPlan;
use elc_simcore::time::SimTime;
use elc_trace::{Field, Level};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::TRACE_TARGET;

/// Which leg of the plan traffic currently takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The plan's primary site.
    Primary,
    /// The plan's backup (burst) site.
    Backup,
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Route::Primary => "primary",
            Route::Backup => "backup",
        })
    }
}

/// A failover switch: breaker over the primary, routing per the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridFailover {
    breaker: CircuitBreaker,
    plan: FailoverPlan,
    route: Route,
    switches: u32,
}

impl HybridFailover {
    /// Creates a failover switch: `breaker` guards `plan.primary()`,
    /// traffic starts on the primary route.
    #[must_use]
    pub fn new(breaker: CircuitBreaker, plan: FailoverPlan) -> Self {
        HybridFailover {
            breaker,
            plan,
            route: Route::Primary,
            switches: 0,
        }
    }

    /// The routing plan.
    #[must_use]
    pub fn plan(&self) -> &FailoverPlan {
        &self.plan
    }

    /// The breaker guarding the primary site.
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Feeds one primary health probe into the breaker at `now`. A
    /// healthy probe clears the breaker; an unhealthy one counts toward a
    /// trip (or re-trips a half-open breaker). While the breaker is open
    /// the failure is not re-counted — the cooldown clock keeps running.
    pub fn probe(&mut self, now: SimTime, primary_healthy: bool) {
        // Apply any cooldown expiry first so a healthy probe can close a
        // freshly half-open breaker.
        let state = self.breaker.state_at(now);
        if primary_healthy {
            self.breaker.on_success(now);
        } else if state != BreakerState::Open {
            self.breaker.on_failure(now);
        }
    }

    /// The route at `now`: primary iff the breaker is closed. Call after
    /// [`HybridFailover::probe`]; traces `failover.switch` on changes.
    pub fn route(&mut self, now: SimTime) -> Route {
        let next = if self.breaker.state_at(now) == BreakerState::Closed {
            Route::Primary
        } else {
            Route::Backup
        };
        if next != self.route {
            self.switches += 1;
            if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                let to_site = match next {
                    Route::Primary => self.plan.primary(),
                    Route::Backup => self.plan.backup(),
                };
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    "failover.switch",
                    Level::Warn,
                    &[
                        Field::str("to", to_site.to_string()),
                        Field::u64("switches", u64::from(self.switches)),
                    ],
                );
            }
            self.route = next;
        }
        self.route
    }

    /// How many times the route has changed (each direction counts).
    #[must_use]
    pub fn switches(&self) -> u32 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_simcore::time::SimDuration;

    fn failover() -> HybridFailover {
        HybridFailover::new(
            CircuitBreaker::new("private-site", 1, SimDuration::from_mins(5)),
            FailoverPlan::private_to_public(0.6),
        )
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn healthy_primary_stays_primary() {
        let mut f = failover();
        for s in 0..10 {
            f.probe(secs(s), true);
            assert_eq!(f.route(secs(s)), Route::Primary);
        }
        assert_eq!(f.switches(), 0);
    }

    #[test]
    fn unhealthy_probe_fails_over_same_tick() {
        let mut f = failover();
        f.probe(secs(60), false);
        assert_eq!(f.route(secs(60)), Route::Backup);
        assert_eq!(f.switches(), 1);
        assert_eq!(f.breaker().trips(), 1);
    }

    #[test]
    fn recovery_switches_back_after_cooldown_probe() {
        let mut f = failover();
        f.probe(secs(0), false);
        assert_eq!(f.route(secs(0)), Route::Backup);
        // Still in cooldown: a healthy site cannot win the route back yet.
        f.probe(secs(60), true);
        assert_eq!(f.route(secs(60)), Route::Backup);
        // Past the 5-min cooldown the healthy probe closes the breaker.
        f.probe(secs(360), true);
        assert_eq!(f.route(secs(360)), Route::Primary);
        assert_eq!(f.switches(), 2);
    }

    #[test]
    fn half_open_probe_failure_keeps_backup_route() {
        let mut f = failover();
        f.probe(secs(0), false);
        let _ = f.route(secs(0));
        f.probe(secs(360), false);
        assert_eq!(f.route(secs(360)), Route::Backup);
        assert_eq!(f.breaker().trips(), 2);
        assert_eq!(f.switches(), 1, "route never left backup");
    }

    #[test]
    fn switch_is_traced_with_destination_site() {
        use elc_trace::{TraceFilter, Tracer};
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Warn)), || {
                let mut f = failover();
                f.probe(secs(42), false);
                let _ = f.route(secs(42));
            });
        // breaker.trip + failover.switch.
        assert_eq!(tracer.len(), 2);
        let names: Vec<_> = tracer
            .events()
            .map(|e| tracer.resolve(e.name).to_string())
            .collect();
        assert!(names.contains(&"failover.switch".to_string()));
        let json = elc_trace::export::jsonl_string(&tracer, &[]);
        assert!(json.contains("\"to\":\"public-cloud\""));
    }
}
