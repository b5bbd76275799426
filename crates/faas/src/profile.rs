//! Per-function start-time and sizing profiles.
//!
//! Each [`RequestKind`] maps to one deployed function. A [`StartProfile`]
//! carries its cold-start distribution (mean, sampled uniformly in
//! `[0.5, 1.5)× mean` — heavier runtimes boot slower but with bounded
//! spread), warm-start overhead, per-invocation service time and memory
//! sizing; [`ColdStartProfile`] is the per-platform table over all nine
//! kinds.

use elc_elearn::request::RequestKind;
use elc_simcore::rng::SimRng;
use elc_simcore::time::SimDuration;

/// Start-time and sizing profile of one deployed function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartProfile {
    cold_start_mean: SimDuration,
    warm_start: SimDuration,
    service_time: SimDuration,
    memory_gb: f64,
}

impl StartProfile {
    /// A profile with the given start times, service time and memory.
    ///
    /// # Panics
    ///
    /// Panics on non-positive durations and non-positive or non-finite
    /// memory.
    #[must_use]
    pub fn new(
        cold_start_mean: SimDuration,
        warm_start: SimDuration,
        service_time: SimDuration,
        memory_gb: f64,
    ) -> Self {
        assert!(
            cold_start_mean.as_nanos() != 0,
            "invalid StartProfile: cold-start mean must be a positive duration"
        );
        assert!(
            warm_start.as_nanos() != 0,
            "invalid StartProfile: warm-start overhead must be a positive duration"
        );
        assert!(
            service_time.as_nanos() != 0,
            "invalid StartProfile: service time must be a positive duration"
        );
        assert!(
            memory_gb.is_finite() && memory_gb > 0.0,
            "invalid StartProfile: function memory must be positive and finite GB"
        );
        StartProfile {
            cold_start_mean,
            warm_start,
            service_time,
            memory_gb,
        }
    }

    /// Returns the profile with its memory sizing replaced — how the
    /// deployment layer overlays component-derived sizing on the platform
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics unless `memory_gb` is positive and finite.
    #[must_use]
    pub fn with_memory_gb(self, memory_gb: f64) -> Self {
        Self::new(
            self.cold_start_mean,
            self.warm_start,
            self.service_time,
            memory_gb,
        )
    }

    /// Mean cold-start duration.
    #[must_use]
    pub fn cold_start_mean(&self) -> SimDuration {
        self.cold_start_mean
    }

    /// Warm-start overhead added to every invocation on a warm sandbox.
    #[must_use]
    pub fn warm_start(&self) -> SimDuration {
        self.warm_start
    }

    /// Per-invocation execution time.
    #[must_use]
    pub fn service_time(&self) -> SimDuration {
        self.service_time
    }

    /// Configured function memory, in GB (the billing unit).
    #[must_use]
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Draws one cold-start duration: uniform in `[0.5, 1.5) ×` the mean.
    pub fn sample_cold_start(&self, rng: &mut SimRng) -> SimDuration {
        self.cold_start_mean.mul_f64(rng.range_f64(0.5, 1.5))
    }
}

/// The per-platform table of [`StartProfile`]s, one per [`RequestKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartProfile {
    profiles: [StartProfile; RequestKind::ALL.len()],
}

/// Per-invocation execution time of the lightest function, in seconds;
/// kinds scale by their [`RequestKind::service_weight`].
const SERVICE_BASE_S: f64 = 0.08;

impl ColdStartProfile {
    /// The standard 2013-era platform table: cold starts around a second
    /// (heavier runtimes slower), millisecond warm starts, service time
    /// proportional to each kind's service weight, and memory sized to the
    /// function's working set.
    #[must_use]
    pub fn standard() -> Self {
        let profiles = RequestKind::ALL.map(|kind| {
            let weight = kind.service_weight();
            let memory_gb = match kind {
                RequestKind::Upload => 1.0,
                RequestKind::QuizSubmit | RequestKind::CoursePage => 0.512,
                RequestKind::VideoChunk | RequestKind::Download => 0.128,
                _ => 0.256,
            };
            StartProfile::new(
                SimDuration::from_secs_f64(0.9 + 0.12 * weight),
                SimDuration::from_secs_f64(0.003),
                SimDuration::from_secs_f64(SERVICE_BASE_S * weight),
                memory_gb,
            )
        });
        ColdStartProfile { profiles }
    }

    /// The profile for `kind`.
    #[must_use]
    pub fn get(&self, kind: RequestKind) -> &StartProfile {
        let idx = RequestKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is profiled");
        &self.profiles[idx]
    }

    /// Replaces the profile for `kind`.
    pub fn set(&mut self, kind: RequestKind, profile: StartProfile) {
        let idx = RequestKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is profiled");
        self.profiles[idx] = profile;
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

    fn base() -> StartProfile {
        StartProfile::new(
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_secs_f64(0.003),
            SimDuration::from_secs_f64(0.1),
            0.256,
        )
    }

    #[test]
    #[should_panic(expected = "invalid StartProfile: cold-start mean must be a positive duration")]
    fn new_rejects_zero_cold_start() {
        let _ = StartProfile::new(
            SimDuration::from_secs(0),
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            0.5,
        );
    }

    #[test]
    #[should_panic(
        expected = "invalid StartProfile: warm-start overhead must be a positive duration"
    )]
    fn new_rejects_zero_warm_start() {
        let _ = StartProfile::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(0),
            SimDuration::from_secs(1),
            0.5,
        );
    }

    #[test]
    #[should_panic(expected = "invalid StartProfile: service time must be a positive duration")]
    fn new_rejects_zero_service_time() {
        let _ = StartProfile::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            SimDuration::from_secs(0),
            0.5,
        );
    }

    #[test]
    fn new_rejects_bad_memory() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let msg = panic_message(|| {
                let _ = StartProfile::new(
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(1),
                    bad,
                );
            });
            assert_eq!(
                msg,
                "invalid StartProfile: function memory must be positive and finite GB"
            );
        }
    }

    #[test]
    fn sample_cold_start_stays_within_half_to_three_halves() {
        let p = base();
        let mut rng = SimRng::seed(7).derive("cold");
        for _ in 0..1_000 {
            let d = p.sample_cold_start(&mut rng).as_secs_f64();
            assert!((0.5..1.5).contains(&d), "cold start {d}s out of range");
        }
    }

    #[test]
    fn standard_covers_every_kind_and_scales_with_weight() {
        let table = ColdStartProfile::standard();
        for kind in RequestKind::ALL {
            let p = table.get(kind);
            assert!(p.service_time().as_secs_f64() > 0.0);
            assert!(p.memory_gb() > 0.0);
        }
        let video = table.get(RequestKind::VideoChunk);
        let upload = table.get(RequestKind::Upload);
        assert!(upload.service_time() > video.service_time());
        assert!(upload.cold_start_mean() > video.cold_start_mean());
    }

    #[test]
    fn with_memory_overrides_only_memory() {
        let p = base().with_memory_gb(2.0);
        assert_eq!(p.memory_gb(), 2.0);
        assert_eq!(p.service_time(), base().service_time());
    }

    #[test]
    fn set_replaces_one_entry() {
        let mut table = ColdStartProfile::standard();
        let custom = base().with_memory_gb(4.0);
        table.set(RequestKind::Login, custom);
        assert_eq!(table.get(RequestKind::Login).memory_gb(), 4.0);
        assert_ne!(table.get(RequestKind::CoursePage).memory_gb(), 4.0);
    }
}
