//! Per-request-kind client deadlines.
//!
//! A timeout converts an open-ended wait into a bounded one, which is what
//! makes retries and failover *possible*: a client that waits forever
//! never reaches the retry loop. Deadlines are per
//! [`RequestKind`] because the
//! tolerable wait differs by an order of magnitude between an interactive
//! quiz fetch and a bulk upload.

use elc_elearn::request::RequestKind;
use elc_simcore::time::SimDuration;

/// Per-kind deadlines. Interactive kinds get tight deadlines, bulk
/// transfers loose ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutPolicy {
    deadlines: [(RequestKind, SimDuration); RequestKind::ALL.len()],
}

impl TimeoutPolicy {
    /// The standard deadlines: 5 s for interactive page/quiz traffic,
    /// 10 s for login and video chunks, 30 s for forum writes, 120 s for
    /// bulk transfers.
    #[must_use]
    pub fn standard() -> Self {
        use RequestKind::*;
        let d = |kind| match kind {
            CoursePage | QuizFetch | QuizSubmit | ForumRead => SimDuration::from_secs(5),
            Login | VideoChunk => SimDuration::from_secs(10),
            ForumPost => SimDuration::from_secs(30),
            Upload | Download => SimDuration::from_secs(120),
        };
        let mut deadlines = [(Login, SimDuration::ZERO); RequestKind::ALL.len()];
        for (slot, &kind) in deadlines.iter_mut().zip(RequestKind::ALL.iter()) {
            *slot = (kind, d(kind));
        }
        TimeoutPolicy { deadlines }
    }

    /// The deadline for `kind`.
    #[must_use]
    pub fn deadline(&self, kind: RequestKind) -> SimDuration {
        self.deadlines
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, d)| *d)
            .expect("every RequestKind has a deadline")
    }

    /// True if a request of `kind` that took `latency` blew its deadline.
    #[must_use]
    pub fn is_breach(&self, kind: RequestKind, latency: SimDuration) -> bool {
        latency > self.deadline(kind)
    }
}

impl Default for TimeoutPolicy {
    fn default() -> Self {
        TimeoutPolicy::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_every_kind_positively() {
        let p = TimeoutPolicy::standard();
        for &kind in RequestKind::ALL.iter() {
            assert!(!p.deadline(kind).is_zero(), "{kind} has a zero deadline");
        }
    }

    #[test]
    fn interactive_deadlines_are_tighter_than_bulk() {
        let p = TimeoutPolicy::standard();
        assert!(p.deadline(RequestKind::QuizFetch) < p.deadline(RequestKind::Upload));
        assert!(p.deadline(RequestKind::CoursePage) < p.deadline(RequestKind::Download));
    }

    #[test]
    fn breach_is_strictly_after_the_deadline() {
        let p = TimeoutPolicy::standard();
        let d = p.deadline(RequestKind::QuizSubmit);
        assert!(!p.is_breach(RequestKind::QuizSubmit, d));
        assert!(p.is_breach(RequestKind::QuizSubmit, d + SimDuration::from_nanos(1)));
    }
}
