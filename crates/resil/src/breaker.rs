//! Circuit breaker: fail fast against a target that keeps failing.
//!
//! Retrying into a dead site wastes the client's time (§III: "users may
//! lose time, work, or even unsaved data") and the site's recovery
//! headroom. The breaker watches consecutive failures per target; past a
//! threshold it *opens* and callers fail fast, after a sim-time cooldown
//! it goes *half-open* and admits a probe, and a probe success closes it
//! again. Every closed/half-open → open transition is a **trip**,
//! counted per target and traced as `breaker.trip` — the signal
//! [`HybridFailover`](crate::failover::HybridFailover) reroutes on.

use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls fail fast until the cooldown elapses.
    Open,
    /// Cooled down: one probe call is admitted.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// A per-target circuit breaker. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    target: String,
    failure_threshold: u32,
    cooldown: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    trips: u32,
}

impl CircuitBreaker {
    /// Creates a breaker guarding `target` (a label for traces and trip
    /// accounting): `failure_threshold` consecutive failures trip it,
    /// `cooldown` sim time later it admits a probe.
    ///
    /// # Panics
    ///
    /// Panics on a zero threshold or a zero cooldown.
    #[must_use]
    pub fn new(target: impl Into<String>, failure_threshold: u32, cooldown: SimDuration) -> Self {
        assert!(failure_threshold != 0, "failure threshold must be >= 1");
        assert!(!cooldown.is_zero(), "cooldown must be positive");
        CircuitBreaker {
            target: target.into(),
            failure_threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
        }
    }

    /// The guarded target's label.
    #[must_use]
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Current state, after applying any cooldown expiry at `now`.
    pub fn state_at(&mut self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now.saturating_since(self.opened_at) >= self.cooldown
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// True if a call may proceed at `now` (closed, or half-open probe).
    pub fn allow(&mut self, now: SimTime) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// Records a successful call: clears the failure streak, and closes a
    /// half-open breaker.
    pub fn on_success(&mut self, now: SimTime) {
        let _ = now;
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Records a failed call at `now`. A half-open probe failure re-trips
    /// immediately; a closed breaker trips once the streak reaches the
    /// threshold.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state_at(now) {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.trips += 1;
        if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "breaker.trip",
                Level::Warn,
                &[
                    Field::str("target", self.target.clone()),
                    Field::u64("trips", u64::from(self.trips)),
                ],
            );
        }
    }

    /// How many times this breaker has tripped.
    #[must_use]
    pub fn trips(&self) -> u32 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32) -> CircuitBreaker {
        CircuitBreaker::new("private-site", threshold, SimDuration::from_mins(5))
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "failure threshold must be >= 1")]
    fn new_rejects_zero_threshold() {
        let _ = CircuitBreaker::new("x", 0, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cooldown must be positive")]
    fn new_rejects_zero_cooldown() {
        let _ = CircuitBreaker::new("x", 1, SimDuration::ZERO);
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker(3);
        b.on_failure(secs(1));
        b.on_failure(secs(2));
        assert!(b.allow(secs(3)), "two failures must not trip a 3-breaker");
        b.on_failure(secs(3));
        assert!(!b.allow(secs(4)));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = breaker(2);
        b.on_failure(secs(1));
        b.on_success(secs(2));
        b.on_failure(secs(3));
        assert!(b.allow(secs(4)), "streak was broken by the success");
    }

    #[test]
    fn cooldown_admits_a_probe_then_success_closes() {
        let mut b = breaker(1);
        b.on_failure(secs(0));
        assert!(!b.allow(secs(10)));
        // 5-minute cooldown: at 300 s the breaker goes half-open.
        assert!(b.allow(secs(300)));
        assert_eq!(b.state_at(secs(300)), BreakerState::HalfOpen);
        b.on_success(secs(301));
        assert_eq!(b.state_at(secs(301)), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn probe_failure_retrips_and_counts() {
        let mut b = breaker(1);
        b.on_failure(secs(0));
        assert!(b.allow(secs(300)));
        b.on_failure(secs(300));
        assert!(!b.allow(secs(301)), "probe failure must re-open");
        assert_eq!(b.trips(), 2);
        // The new cooldown starts from the re-trip.
        assert!(b.allow(secs(600)));
    }

    #[test]
    fn failures_while_open_are_ignored() {
        let mut b = breaker(1);
        b.on_failure(secs(0));
        b.on_failure(secs(1));
        b.on_failure(secs(2));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn trip_is_traced_with_target() {
        use elc_trace::{TraceFilter, Tracer};
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Warn)), || {
                let mut b = breaker(1);
                b.on_failure(secs(42));
            });
        assert_eq!(tracer.len(), 1);
        let e = tracer.events().next().unwrap();
        assert_eq!(tracer.resolve(e.name), "breaker.trip");
        assert_eq!(e.time_ns, secs(42).as_nanos());
        let json = elc_trace::export::jsonl_string(&tracer, &[]);
        assert!(json.contains("\"target\":\"private-site\""));
    }
}
