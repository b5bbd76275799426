//! Admission control: shed cheap traffic before it starves writes.
//!
//! When demand exceeds capacity, *something* is not served; admission
//! control chooses what. Each request kind gets a utilization threshold —
//! once offered load divided by capacity (ρ) exceeds a kind's threshold,
//! new requests of that kind are refused at the door. Thresholds are
//! ordered by pedagogical harm: `VideoChunk` replays and `ForumRead`
//! refreshes shed first, interactive quiz traffic much later, and
//! `QuizSubmit` never (its threshold is infinite) — losing a submitted
//! exam answer is the §III worst case the whole stack exists to avoid.

use elc_elearn::request::RequestKind;
use elc_simcore::time::SimTime;
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// Utilization-ordered load shedding. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionController {
    thresholds: [(RequestKind, f64); RequestKind::ALL.len()],
    shed: u64,
}

impl AdmissionController {
    /// The standard shed ladder, cheapest traffic first.
    #[must_use]
    pub fn standard() -> Self {
        use RequestKind::*;
        let t = |kind| match kind {
            VideoChunk => 0.70,
            ForumRead => 0.80,
            Download => 0.85,
            CoursePage => 0.90,
            Login => 0.95,
            QuizFetch => 1.00,
            ForumPost => 1.05,
            Upload => 1.10,
            QuizSubmit => f64::INFINITY,
        };
        let mut thresholds = [(Login, 0.0); RequestKind::ALL.len()];
        for (slot, &kind) in thresholds.iter_mut().zip(RequestKind::ALL.iter()) {
            *slot = (kind, t(kind));
        }
        AdmissionController {
            thresholds,
            shed: 0,
        }
    }

    /// The ρ threshold above which `kind` is shed.
    #[must_use]
    pub fn threshold(&self, kind: RequestKind) -> f64 {
        self.thresholds
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .expect("every RequestKind has a threshold")
    }

    /// True if a request of `kind` is admitted at utilization `rho`.
    #[must_use]
    pub fn admits(&self, kind: RequestKind, rho: f64) -> bool {
        rho <= self.threshold(kind)
    }

    /// Kinds in shed order: lowest threshold first, `ALL` order breaking
    /// ties. Models shed along this ladder, recomputing ρ as load drops.
    #[must_use]
    pub fn shed_order(&self) -> Vec<RequestKind> {
        let mut kinds = self.thresholds;
        kinds.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("thresholds are never NaN"));
        kinds.iter().map(|(k, _)| *k).collect()
    }

    /// Records `count` shed requests of `kind` at `now`, tracing a
    /// `shed.request` instant.
    pub fn record_shed(&mut self, now: SimTime, kind: RequestKind, count: u64) {
        if count == 0 {
            return;
        }
        self.shed = self.shed.saturating_add(count);
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "shed.request",
                Level::Info,
                &[
                    Field::str("kind", kind.to_string()),
                    Field::u64("count", count),
                ],
            );
        }
    }

    /// Total requests shed so far.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed
    }
}

impl Default for AdmissionController {
    fn default() -> Self {
        AdmissionController::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiz_submit_is_never_shed() {
        let c = AdmissionController::standard();
        assert!(c.admits(RequestKind::QuizSubmit, 10.0));
        assert!(c.admits(RequestKind::QuizSubmit, 1e9));
    }

    #[test]
    fn video_sheds_before_any_write() {
        let c = AdmissionController::standard();
        // At moderate overload video is gone but every write still admits.
        let rho = 0.75;
        assert!(!c.admits(RequestKind::VideoChunk, rho));
        assert!(c.admits(RequestKind::QuizSubmit, rho));
        assert!(c.admits(RequestKind::Upload, rho));
        assert!(c.admits(RequestKind::ForumPost, rho));
    }

    #[test]
    fn shed_order_starts_cheap_and_ends_with_quiz_submit() {
        let order = AdmissionController::standard().shed_order();
        assert_eq!(order.first(), Some(&RequestKind::VideoChunk));
        assert_eq!(order.get(1), Some(&RequestKind::ForumRead));
        assert_eq!(order.last(), Some(&RequestKind::QuizSubmit));
    }

    #[test]
    fn record_shed_counts_and_traces() {
        use elc_trace::{TraceFilter, Tracer};
        let (total, tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Info)), || {
                let mut c = AdmissionController::standard();
                c.record_shed(SimTime::from_secs(7), RequestKind::VideoChunk, 12);
                c.record_shed(SimTime::from_secs(8), RequestKind::ForumRead, 0);
                c.shed_total()
            });
        assert_eq!(total, 12);
        assert_eq!(tracer.len(), 1, "zero-count sheds must not trace");
        let e = tracer.events().next().unwrap();
        assert_eq!(tracer.resolve(e.name), "shed.request");
        let json = elc_trace::export::jsonl_string(&tracer, &[]);
        assert!(json.contains("\"kind\":\"video-chunk\""));
    }
}
