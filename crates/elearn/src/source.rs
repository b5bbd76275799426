//! The demand-source abstraction behind every experiment.
//!
//! [`WorkloadSource`] is the trait through which deployment experiments see
//! demand: an offered rate curve, a phase-appropriate request mix, and
//! Poisson-or-replayed arrival samples. Two families implement it:
//!
//! * [`WorkloadModel`](crate::workload::WorkloadModel) — the synthetic
//!   generator combining the academic calendar, diurnal curve and cohort
//!   size,
//! * `TraceReplayer` (in `elc-wltrace`) — replays a recorded trace so the
//!   *same exact* request stream can drive several deployment models.
//!
//! The trait is object safe; experiments hold a `Box<dyn WorkloadSource>`
//! and cannot tell a generator from a replay. Determinism contract: given
//! the same `SimRng` state and the same call sequence, every implementation
//! must consume the same number of RNG draws for the same outcome, so that
//! shard/thread byte-identity is preserved (see DESIGN.md §4g).

use std::fmt;

use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::request::RequestMix;

/// A source of offered demand: rate curve, request mix and arrival samples.
///
/// Implementations must be deterministic: all randomness comes from the
/// caller-supplied [`SimRng`], never from ambient state, and two sources
/// built from the same inputs must answer every query identically.
pub trait WorkloadSource: fmt::Debug + Send + Sync {
    /// Enrolled students behind this demand stream (used for analytic
    /// fleet sizing; replayers report the recorded cohort).
    fn students(&self) -> u32;

    /// Offered request rate at instant `t`, in requests/second.
    fn rate_at(&self, t: SimTime) -> f64;

    /// The request mix appropriate at instant `t`.
    fn mix_at(&self, t: SimTime) -> RequestMix;

    /// Peak offered rate over the whole horizon (analytic for generators,
    /// recorded for replays). Deployments size fixed fleets from this.
    fn peak_rate(&self) -> f64;

    /// Samples the number of requests arriving in `[t, t + slot)`.
    ///
    /// Generators draw Poisson(`rate_at(t) × slot`) from `rng`; replayers
    /// return the recorded count without touching `rng` so the caller's
    /// stream stays aligned with the recording run.
    fn sample_arrivals(&self, rng: &mut SimRng, t: SimTime, slot: SimDuration) -> u64;

    /// Clones into a boxed trait object (`Box<dyn WorkloadSource>` is
    /// `Clone` through this).
    fn clone_source(&self) -> Box<dyn WorkloadSource>;

    /// Samples one slot's arrivals as sorted offsets from `t`, appended to
    /// `out` (cleared first, so callers reuse one buffer across slots).
    /// Conditioned on the count from [`sample_arrivals`], arrival instants
    /// are i.i.d. uniform over the slot — replayed counts are re-jittered
    /// through the caller's `rng` by the same rule, which is what keeps a
    /// replay byte-identical at any shard count.
    ///
    /// [`sample_arrivals`]: WorkloadSource::sample_arrivals
    fn sample_arrival_offsets(
        &self,
        rng: &mut SimRng,
        t: SimTime,
        slot: SimDuration,
        out: &mut Vec<SimDuration>,
    ) {
        let n = self.sample_arrivals(rng, t, slot);
        jitter_offsets(rng, n, t, slot, out);
    }

    /// Mean offered rate over `[from, to)`, sampled at `step` resolution
    /// and duration-weighted, so a trailing partial step counts only for
    /// the span it actually covers.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the interval is empty.
    fn mean_rate(&self, from: SimTime, to: SimTime, step: SimDuration) -> f64 {
        assert!(!step.is_zero(), "step must be positive");
        assert!(to > from, "empty interval");
        let mut t = from;
        let mut weighted = 0.0;
        let mut total = 0.0;
        while t < to {
            let span = if to - t < step { to - t } else { step };
            let w = span.as_secs_f64();
            weighted += self.rate_at(t) * w;
            total += w;
            t += step;
        }
        weighted / total
    }
}

impl Clone for Box<dyn WorkloadSource> {
    fn clone(&self) -> Self {
        self.clone_source()
    }
}

/// Turns a sampled arrival count into sorted uniform offsets within the
/// slot, replacing `out`'s contents. Shared by the generator's inherent
/// path and the trait's default so both consume `rng` identically.
pub(crate) fn jitter_offsets(
    rng: &mut SimRng,
    n: u64,
    t: SimTime,
    slot: SimDuration,
    out: &mut Vec<SimDuration>,
) {
    out.clear();
    out.reserve(usize::try_from(n).unwrap_or(usize::MAX));
    let span = slot.as_secs_f64();
    for _ in 0..n {
        out.push(SimDuration::from_secs_f64(rng.range_f64(0.0, span)));
    }
    out.sort_unstable();
    if elc_trace::enabled(crate::TRACE_TARGET, Level::Debug) {
        elc_trace::instant(
            t.as_nanos(),
            crate::TRACE_TARGET,
            "arrivals",
            Level::Debug,
            &[
                Field::u64("count", n),
                Field::duration_ns("slot", slot.as_nanos()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::AcademicCalendar;
    use crate::workload::WorkloadModel;

    fn model() -> WorkloadModel {
        WorkloadModel::builder(10_000, AcademicCalendar::standard_semester(SimTime::ZERO))
            .build()
            .unwrap()
    }

    fn source() -> Box<dyn WorkloadSource> {
        Box::new(model())
    }

    fn at(week: u64, day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(week * 7 * 86_400 + day * 86_400 + hour * 3_600)
    }

    #[test]
    fn boxed_source_answers_like_the_model() {
        let s = source();
        let m = model();
        let t = at(5, 2, 20);
        assert_eq!(s.rate_at(t).to_bits(), m.rate_at(t).to_bits());
        assert_eq!(s.peak_rate().to_bits(), m.peak_rate().to_bits());
        assert_eq!(s.students(), m.students());
        assert_eq!(s.mix_at(t), m.mix_at(t));
    }

    #[test]
    fn boxed_clone_preserves_answers() {
        let s = source();
        let c = s.clone();
        let t = at(15, 2, 12);
        assert_eq!(s.rate_at(t).to_bits(), c.rate_at(t).to_bits());
        assert_eq!(s.mix_at(t), c.mix_at(t));
    }

    #[test]
    fn trait_sampling_matches_inherent_sampling() {
        let s = source();
        let m = model();
        let t = at(5, 2, 20);
        let slot = SimDuration::from_secs(10);
        let mut a = SimRng::seed(11);
        let mut b = SimRng::seed(11);
        for _ in 0..20 {
            assert_eq!(
                s.sample_arrivals(&mut a, t, slot),
                m.sample_arrivals(&mut b, t, slot)
            );
        }
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        s.sample_arrival_offsets(&mut a, t, slot, &mut out_a);
        m.sample_arrival_offsets(&mut b, t, slot, &mut out_b);
        assert_eq!(out_a, out_b);
    }
}
