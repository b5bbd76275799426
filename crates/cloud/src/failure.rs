//! Disk and site failure hazards.
//!
//! Private clouds carry their own iron, so the paper's §IV.B risk ("data
//! loss due to physical damage of the unit") needs concrete hazard rates:
//! disk losses and rare whole-site disasters (fire, flood, power
//! incident). Both are Poisson — adequate for steady-state hazard
//! modelling, and analytically checkable.

/// Annualized hazard rates for one site's hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    disk_afr: f64,
    site_disasters_per_year: f64,
}

impl FailureModel {
    /// Creates a failure model.
    ///
    /// * `disk_afr` — annualized failure rate of a disk (fraction, e.g.
    ///   0.04),
    /// * `site_disasters_per_year` — rate of events destroying the whole
    ///   site's storage.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or non-finite, or `disk_afr > 1`.
    #[must_use]
    pub fn new(disk_afr: f64, site_disasters_per_year: f64) -> Self {
        for (name, v) in [
            ("disk afr", disk_afr),
            ("disaster rate", site_disasters_per_year),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        }
        assert!(disk_afr <= 1.0, "disk AFR is a fraction, got {disk_afr}");
        FailureModel {
            disk_afr,
            site_disasters_per_year,
        }
    }

    /// A professionally run datacenter: 2% disk AFR, disaster every ~200
    /// years.
    #[must_use]
    pub fn datacenter_grade() -> Self {
        FailureModel::new(0.02, 0.005)
    }

    /// A campus server room: 5% disk AFR, disaster every ~50 years (burst
    /// pipe, power surge — the paper's "physical damage").
    #[must_use]
    pub fn server_room_grade() -> Self {
        FailureModel::new(0.05, 0.02)
    }

    /// Probability of at least one site disaster within `years`
    /// (`1 - e^{-rate·t}`).
    #[must_use]
    pub fn disaster_probability(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "years must be >= 0");
        1.0 - (-self.site_disasters_per_year * years).exp()
    }

    /// Probability a given disk dies within `years`.
    #[must_use]
    pub fn disk_loss_probability(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "years must be >= 0");
        // AFR is itself an annual probability; convert to a rate first so
        // multi-year horizons compose correctly.
        if self.disk_afr >= 1.0 {
            return 1.0;
        }
        let rate = -(1.0 - self.disk_afr).ln();
        1.0 - (-rate * years).exp()
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
    fn new_rejects_each_bad_rate() {
        let cases: [(f64, f64, &str); 3] = [
            (-0.02, 0.005, "disk afr must be >= 0, got -0.02"),
            (0.02, f64::INFINITY, "disaster rate must be >= 0, got inf"),
            (1.2, 0.005, "disk AFR is a fraction, got 1.2"),
        ];
        for (afr, disaster, want) in cases {
            let msg = panic_message(|| {
                let _ = FailureModel::new(afr, disaster);
            });
            assert_eq!(msg, want);
        }
    }

    #[test]
    fn disaster_probability_formula() {
        let m = FailureModel::new(0.0, 0.02);
        assert!((m.disaster_probability(1.0) - (1.0 - (-0.02f64).exp())).abs() < 1e-12);
        assert_eq!(m.disaster_probability(0.0), 0.0);
        assert!(m.disaster_probability(1_000.0) > 0.99);
    }

    #[test]
    fn disk_loss_probability_composes_over_years() {
        let m = FailureModel::new(0.05, 0.0);
        let one = m.disk_loss_probability(1.0);
        assert!((one - 0.05).abs() < 1e-12, "1-year loss should equal AFR");
        let three = m.disk_loss_probability(3.0);
        assert!((three - (1.0 - 0.95f64.powi(3))).abs() < 1e-12);
    }

    #[test]
    fn grades_are_ordered() {
        let (dc, sr) = (
            FailureModel::datacenter_grade(),
            FailureModel::server_room_grade(),
        );
        assert!(dc.disaster_probability(1.0) < sr.disaster_probability(1.0));
        assert!(dc.disk_loss_probability(1.0) < sr.disk_loss_probability(1.0));
    }
}
