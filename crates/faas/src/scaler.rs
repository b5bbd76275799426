//! Scale-from-zero with an account-level burst concurrency cap.
//!
//! Providers never offer unbounded concurrency: an account gets a burst
//! pool shared by all of its functions. The [`FaasScaler`] sizes each
//! function from its offered load (Little's law over the per-invocation
//! service time, padded to a target utilisation) and grants cold starts
//! only while the shared pool has headroom. Functions are scaled in a
//! fixed order, so at an exam-day peak the pool can run dry before the
//! last functions are reached — exactly the starvation E17 measures.

use elc_simcore::round::ceil_u32;

/// Account-level scaling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasScaler {
    target_util: f64,
    burst_limit: u32,
}

impl FaasScaler {
    /// A scaler padding demand to `target_util` under a shared pool of
    /// `burst_limit` sandboxes.
    ///
    /// # Panics
    ///
    /// Panics on a target utilisation outside `(0, 1]` and a zero burst
    /// cap.
    #[must_use]
    pub fn new(target_util: f64, burst_limit: u32) -> Self {
        assert!(
            target_util.is_finite() && target_util > 0.0 && target_util <= 1.0,
            "invalid FaasScaler: scaler target utilisation must be in (0, 1]"
        );
        assert!(
            burst_limit != 0,
            "invalid FaasScaler: burst concurrency limit must be >= 1"
        );
        FaasScaler {
            target_util,
            burst_limit,
        }
    }

    /// The shared burst concurrency cap.
    #[must_use]
    pub fn burst_limit(&self) -> u32 {
        self.burst_limit
    }

    /// Sandboxes one function wants for an offered load of `rate` requests
    /// per second at `service_s` seconds each: Little's law padded to the
    /// target utilisation. Zero rate wants zero sandboxes — that is the
    /// scale-*to*-zero half of the bargain.
    #[must_use]
    pub fn desired_containers(&self, rate: f64, service_s: f64) -> u32 {
        if rate <= 0.0 {
            return 0;
        }
        let in_flight = rate * service_s / self.target_util;
        // Capped before rounding, so a NaN load wants `u32::MAX`.
        ceil_u32(in_flight.min(f64::from(u32::MAX)))
    }

    /// Cold starts granted this tick: enough to close the gap between
    /// `desired` and `live`, bounded by what the shared pool has left once
    /// `pool_in_use` sandboxes (all functions, this one included) are
    /// accounted for.
    #[must_use]
    pub fn grant(&self, desired: u32, live: u32, pool_in_use: u32) -> u32 {
        let wanted = desired.saturating_sub(live);
        let headroom = self.burst_limit.saturating_sub(pool_in_use);
        wanted.min(headroom)
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

    #[test]
    fn new_rejects_bad_util() {
        for bad in [0.0, -0.2, 1.2, f64::NAN] {
            let msg = panic_message(|| {
                let _ = FaasScaler::new(bad, 100);
            });
            assert_eq!(
                msg,
                "invalid FaasScaler: scaler target utilisation must be in (0, 1]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid FaasScaler: burst concurrency limit must be >= 1")]
    fn new_rejects_zero_burst() {
        let _ = FaasScaler::new(0.7, 0);
    }

    #[test]
    fn desired_follows_littles_law() {
        let s = FaasScaler::new(0.5, 1_000);
        // 10 rps x 0.2 s = 2 in flight; at 50% target util -> 4 sandboxes.
        assert_eq!(s.desired_containers(10.0, 0.2), 4);
        assert_eq!(s.desired_containers(0.0, 0.2), 0);
    }

    #[test]
    fn desired_saturates_on_a_nan_or_infinite_load() {
        let s = FaasScaler::new(0.5, 1_000);
        assert_eq!(s.desired_containers(f64::NAN, 0.2), u32::MAX);
        assert_eq!(s.desired_containers(f64::INFINITY, 0.2), u32::MAX);
        assert_eq!(s.desired_containers(f64::NEG_INFINITY, 0.2), 0);
    }

    #[test]
    fn grant_respects_the_shared_pool() {
        let s = FaasScaler::new(0.7, 10);
        assert_eq!(s.grant(8, 2, 2), 6);
        // Pool nearly exhausted by other functions.
        assert_eq!(s.grant(8, 2, 9), 1);
        assert_eq!(s.grant(8, 2, 10), 0);
        // Already at desired: nothing to start.
        assert_eq!(s.grant(3, 3, 3), 0);
    }
}
