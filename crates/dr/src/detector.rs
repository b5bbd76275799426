//! Heartbeat failure detection with deterministic suspicion timeouts.
//!
//! A [`FailureDetector`] watches a primary that is supposed to heartbeat
//! every `heartbeat_every`. Silence is graded, not binary: after
//! `suspect_after_missed` whole beats of silence the primary is
//! **suspected** (the orchestrator arms but does not act), after
//! `confirm_after_missed` beats it is **confirmed** dead and promotion
//! may begin. Both edges are pure functions of the last-heard instant
//! and `now` — no randomized timeouts — so detection latency is
//! byte-identical on every run. Rising edges trace `dr.suspect` and
//! `dr.confirm` on the `"dr"` target.

use std::fmt;

use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// The detector's graded opinion of the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Heartbeats arriving on schedule.
    Healthy,
    /// Enough beats missed to arm recovery.
    Suspected,
    /// Enough beats missed to declare the primary dead.
    Confirmed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Healthy => "healthy",
            Verdict::Suspected => "suspected",
            Verdict::Confirmed => "confirmed",
        })
    }
}

/// A heartbeat suspicion detector. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDetector {
    heartbeat_every: SimDuration,
    suspect_after_missed: u32,
    confirm_after_missed: u32,
    last_heartbeat: SimTime,
    last_verdict: Verdict,
}

impl FailureDetector {
    /// Creates a detector expecting a beat every `heartbeat_every`,
    /// suspecting after `suspect_after_missed` missed beats and
    /// confirming after `confirm_after_missed`. The primary counts as
    /// heard at `SimTime::ZERO`.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat period, a zero suspicion threshold, and
    /// a confirmation threshold not strictly past suspicion.
    #[must_use]
    pub fn new(
        heartbeat_every: SimDuration,
        suspect_after_missed: u32,
        confirm_after_missed: u32,
    ) -> Self {
        assert!(
            !heartbeat_every.is_zero(),
            "heartbeat period must be positive"
        );
        assert!(
            suspect_after_missed != 0,
            "suspect threshold must be >= 1 missed beat"
        );
        assert!(
            confirm_after_missed > suspect_after_missed,
            "confirm threshold must exceed the suspect threshold"
        );
        FailureDetector {
            heartbeat_every,
            suspect_after_missed,
            confirm_after_missed,
            last_heartbeat: SimTime::ZERO,
            last_verdict: Verdict::Healthy,
        }
    }

    /// Records a heartbeat heard at `now` (later beats only — an
    /// out-of-order beat is ignored).
    pub fn on_heartbeat(&mut self, now: SimTime) {
        if now > self.last_heartbeat {
            self.last_heartbeat = now;
        }
    }

    /// Grades the silence at `now`, tracing `dr.suspect` / `dr.confirm`
    /// on rising edges.
    pub fn poll(&mut self, now: SimTime) -> Verdict {
        let silent = now.saturating_since(self.last_heartbeat);
        let missed = (silent.as_nanos() / self.heartbeat_every.as_nanos()) as u32;
        let verdict = if missed >= self.confirm_after_missed {
            Verdict::Confirmed
        } else if missed >= self.suspect_after_missed {
            Verdict::Suspected
        } else {
            Verdict::Healthy
        };
        if verdict > self.last_verdict {
            let name = match verdict {
                Verdict::Suspected => "dr.suspect",
                Verdict::Confirmed => "dr.confirm",
                Verdict::Healthy => unreachable!("healthy is the minimum"),
            };
            if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    name,
                    Level::Warn,
                    &[
                        Field::u64("missed_beats", u64::from(missed)),
                        Field::u64("silent_ms", silent.as_millis()),
                    ],
                );
            }
        }
        self.last_verdict = verdict;
        verdict
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

    fn detector() -> FailureDetector {
        // 10 s beats, suspected at 2 missed, confirmed at 4.
        FailureDetector::new(SimDuration::from_secs(10), 2, 4)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn new_rejects_bad_knobs() {
        let cases = [
            (0, 2, 4, "heartbeat period must be positive"),
            (10, 0, 4, "suspect threshold must be >= 1 missed beat"),
            (
                10,
                4,
                4,
                "confirm threshold must exceed the suspect threshold",
            ),
        ];
        for (beat_s, suspect, confirm, want) in cases {
            let msg = panic_message(|| {
                let _ = FailureDetector::new(SimDuration::from_secs(beat_s), suspect, confirm);
            });
            assert_eq!(msg, want);
        }
    }

    #[test]
    fn verdict_escalates_deterministically_with_silence() {
        let mut d = detector();
        d.on_heartbeat(secs(100));
        assert_eq!(d.poll(secs(110)), Verdict::Healthy, "one beat late is ok");
        assert_eq!(d.poll(secs(119)), Verdict::Healthy);
        assert_eq!(d.poll(secs(120)), Verdict::Suspected, "2 whole beats");
        assert_eq!(d.poll(secs(139)), Verdict::Suspected);
        assert_eq!(d.poll(secs(140)), Verdict::Confirmed, "4 whole beats");
    }

    #[test]
    fn heartbeat_heals_the_verdict() {
        let mut d = detector();
        assert_eq!(d.poll(secs(25)), Verdict::Suspected);
        d.on_heartbeat(secs(26));
        assert_eq!(d.poll(secs(27)), Verdict::Healthy);
        // Stale (out-of-order) beats cannot rewind the clock.
        let mut late = detector();
        late.on_heartbeat(secs(100));
        late.on_heartbeat(secs(50));
        assert_eq!(late.poll(secs(141)), Verdict::Confirmed);
    }

    #[test]
    fn rising_edges_trace_suspect_and_confirm_once() {
        use elc_trace::{TraceFilter, Tracer};
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Warn)), || {
                let mut d = detector();
                for s in [10u64, 20, 25, 30, 40, 45, 50] {
                    let _ = d.poll(secs(s));
                }
            });
        let names: Vec<_> = tracer
            .events()
            .map(|e| tracer.resolve(e.name).to_string())
            .collect();
        assert_eq!(names, ["dr.suspect", "dr.confirm"]);
    }
}
