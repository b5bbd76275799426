//! Retry policy: exponential backoff with decorrelated jitter, bounded
//! attempt budgets, and idempotency gating.
//!
//! §III's network risk is a *transient* failure mode — a dropped
//! connection usually comes back — so the right client response is to try
//! again, but carefully: synchronized retries amplify an outage into a
//! storm, and replaying a non-idempotent write (a quiz submission, an
//! assignment upload) risks duplicating the one thing that must not be
//! corrupted. [`RetryPolicy`] encodes both concerns: *when* to retry
//! (attempt budget + idempotency gate) and *how long* to wait
//! (decorrelated jitter, the AWS-style `min(cap, uniform(base, 3·prev))`
//! scheme).

use elc_elearn::request::RequestKind;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// When and how a failed request is retried. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    base: SimDuration,
    cap: SimDuration,
    max_attempts: u32,
}

impl RetryPolicy {
    /// Creates a policy: first backoff `base`, backoffs capped at `cap`,
    /// at most `max_attempts` total attempts (first try included).
    ///
    /// # Panics
    ///
    /// Panics on a zero base, a cap below the base, or a zero attempt
    /// budget.
    #[must_use]
    pub fn new(base: SimDuration, cap: SimDuration, max_attempts: u32) -> Self {
        assert!(!base.is_zero(), "base backoff must be positive");
        assert!(cap >= base, "backoff cap must be >= base");
        assert!(max_attempts != 0, "attempt budget must be >= 1");
        RetryPolicy {
            base,
            cap,
            max_attempts,
        }
    }

    /// The standard client policy: 500 ms base, 30 s cap, 4 attempts.
    #[must_use]
    pub fn standard() -> Self {
        RetryPolicy::new(SimDuration::from_millis(500), SimDuration::from_secs(30), 4)
    }

    /// First backoff.
    #[must_use]
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// Backoff ceiling.
    #[must_use]
    pub fn cap(&self) -> SimDuration {
        self.cap
    }

    /// Total attempt budget, first try included.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// True if `kind` may be replayed at all (the idempotency gate): a
    /// blind replay of a write (`QuizSubmit`, `Upload`) risks duplicating
    /// it.
    #[must_use]
    pub fn allows(&self, kind: RequestKind) -> bool {
        !kind.is_write()
    }

    /// True if a request of `kind` that has already consumed `attempts`
    /// attempts should be tried again.
    #[must_use]
    pub fn should_retry(&self, kind: RequestKind, attempts: u32) -> bool {
        self.allows(kind) && attempts < self.max_attempts
    }

    /// Draws the next backoff at sim time `now`: decorrelated jitter,
    /// `min(cap, uniform(base, 3·prev))`. Pass [`RetryPolicy::base`] as
    /// `prev` for the first retry and the returned value thereafter.
    ///
    /// Traced as a `retry.attempt` instant (`attempt` is 1-based over the
    /// *retries*, i.e. attempt 1 is the first replay).
    pub fn backoff(
        &self,
        now: SimTime,
        rng: &mut SimRng,
        prev: SimDuration,
        attempt: u32,
    ) -> SimDuration {
        let hi = SimDuration::from_nanos(prev.as_nanos().saturating_mul(3)).max(self.base);
        let span = (hi - self.base).as_nanos();
        let jittered = self.base + SimDuration::from_nanos(rng.range_u64(0, span));
        let next = jittered.min(self.cap);
        if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "retry.attempt",
                Level::Debug,
                &[
                    Field::u64("attempt", u64::from(attempt)),
                    Field::duration_ns("backoff", next.as_nanos()),
                ],
            );
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::standard()
    }

    #[test]
    #[should_panic(expected = "base backoff must be positive")]
    fn new_rejects_zero_base() {
        let _ = RetryPolicy::new(SimDuration::ZERO, SimDuration::from_secs(1), 3);
    }

    #[test]
    #[should_panic(expected = "backoff cap must be >= base")]
    fn new_rejects_cap_below_base() {
        let _ = RetryPolicy::new(SimDuration::from_secs(1), SimDuration::from_millis(10), 3);
    }

    #[test]
    #[should_panic(expected = "attempt budget must be >= 1")]
    fn new_rejects_zero_attempts() {
        let s = SimDuration::from_secs(1);
        let _ = RetryPolicy::new(s, s, 0);
    }

    #[test]
    fn idempotency_gate_blocks_writes() {
        let p = policy();
        assert!(p.allows(RequestKind::CoursePage));
        assert!(p.allows(RequestKind::QuizFetch));
        assert!(!p.allows(RequestKind::QuizSubmit));
        assert!(!p.allows(RequestKind::Upload));
        assert!(!p.allows(RequestKind::ForumPost));
    }

    #[test]
    fn should_retry_respects_attempt_budget() {
        let p = policy();
        assert!(p.should_retry(RequestKind::Login, 1));
        assert!(p.should_retry(RequestKind::Login, 3));
        assert!(!p.should_retry(RequestKind::Login, 4));
        assert!(!p.should_retry(RequestKind::QuizSubmit, 1));
    }

    #[test]
    fn backoff_is_bounded_by_base_and_cap() {
        let p = policy();
        let mut rng = SimRng::seed(1).derive("retry");
        let mut prev = p.base();
        for attempt in 1..200 {
            let b = p.backoff(SimTime::ZERO, &mut rng, prev, attempt);
            assert!(b >= p.base(), "backoff {b} below base");
            assert!(b <= p.cap(), "backoff {b} above cap");
            prev = b;
        }
    }

    #[test]
    fn backoff_traced_as_retry_attempt() {
        use elc_trace::{TraceFilter, Tracer};
        let p = policy();
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Debug)), || {
                let mut rng = SimRng::seed(3).derive("retry");
                let mut prev = p.base();
                for attempt in 1..p.max_attempts() {
                    prev = p.backoff(SimTime::from_secs(5), &mut rng, prev, attempt);
                }
            });
        assert_eq!(tracer.len(), 3);
        let e = tracer.events().next().unwrap();
        assert_eq!(tracer.resolve(e.name), "retry.attempt");
    }
}
