//! Hybrid unit-distribution sweep (E10).
//!
//! §IV.C: "distribution of units between these models is significant to
//! address the requirements of the organization." This module enumerates
//! every assignment of the six LMS components to the two sites (64
//! placements), scores each on the three axes the paper weighs — cost,
//! security, portability — and extracts the Pareto-efficient set.

use std::collections::BTreeMap;

use elc_cloud::billing::{PriceSheet, Usd};
use elc_net::link::{Link, LinkProfile};
use elc_net::units::Bytes;

use crate::cost::{half_year_rates, tco_sampled, CostInputs};
use crate::migration::exit_plan;
use crate::model::{Component, Deployment, Site};
use crate::security::ThreatModel;

/// One scored placement in the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPoint {
    /// The placement.
    pub deployment: Deployment,
    /// Load-weighted fraction served from the public cloud.
    pub public_fraction: f64,
    /// TCO over the input horizon.
    pub total_cost: Usd,
    /// Expected confidential breaches per year.
    pub confidential_incident_rate: f64,
    /// Cost to exit to another provider / back in-house.
    pub exit_cost: Usd,
}

/// Sweeps all `2^6` component placements.
///
/// `data` is the stored-content volume used for exit pricing. Each
/// placement is priced as [`tco`](crate::cost::tco) prices it, over one
/// hourly sampling of the workload's half-year shared by the whole sweep.
#[must_use]
pub fn sweep(inputs: &CostInputs, threat: &ThreatModel, data: Bytes) -> Vec<SplitPoint> {
    let rates = half_year_rates(&inputs.workload);
    let prices = PriceSheet::public_2013();
    let egress_link = Link::from_profile(LinkProfile::InterDatacenter);
    let n = Component::ALL.len();
    let mut points = Vec::with_capacity(1 << n);
    for mask in 0u32..(1 << n) {
        let placement: BTreeMap<Component, Site> = Component::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let site = if mask & (1 << i) != 0 {
                    Site::PublicCloud
                } else {
                    Site::PrivateCloud
                };
                (c, site)
            })
            .collect();
        let deployment = Deployment::with_placement(placement);
        let cost = tco_sampled(&deployment, inputs, &rates);
        let exit = exit_plan(&deployment, data, &prices, &egress_link);
        points.push(SplitPoint {
            public_fraction: deployment.public_load_fraction(),
            total_cost: cost.total(),
            confidential_incident_rate: threat.annual_confidential_incident_rate(&deployment),
            exit_cost: exit.total_cost,
            deployment,
        });
    }
    points
}

/// Where a hybrid deployment sends traffic when its primary site is
/// unreachable (§IV.C: the hybrid's reliability story — burst into the
/// other model's capacity instead of going dark).
///
/// `burst_fraction` is the share of the primary's unit count the backup
/// site can absorb on short notice: standby capacity is provisioned (and
/// paid for) ahead of the disaster, so it is a deliberate knob, not free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverPlan {
    primary: Site,
    backup: Site,
    burst_fraction: f64,
}

impl FailoverPlan {
    /// Creates a plan routing from `primary` to `backup` with
    /// `burst_fraction` of the primary's capacity available there.
    ///
    /// # Panics
    ///
    /// Panics on identical sites and burst fractions outside `(0, 1]`.
    #[must_use]
    pub fn new(primary: Site, backup: Site, burst_fraction: f64) -> Self {
        assert!(
            primary != backup,
            "failover needs two sites, got {primary} twice"
        );
        assert!(
            burst_fraction.is_finite() && burst_fraction > 0.0 && burst_fraction <= 1.0,
            "burst fraction must be in (0, 1], got {burst_fraction}"
        );
        FailoverPlan {
            primary,
            backup,
            burst_fraction,
        }
    }

    /// The common hybrid plan: private primary bursting into public cloud.
    #[must_use]
    pub fn private_to_public(burst_fraction: f64) -> Self {
        FailoverPlan::new(Site::PrivateCloud, Site::PublicCloud, burst_fraction)
    }

    /// The site traffic normally runs on.
    #[must_use]
    pub fn primary(&self) -> Site {
        self.primary
    }

    /// The site traffic fails over to.
    #[must_use]
    pub fn backup(&self) -> Site {
        self.backup
    }

    /// Share of primary capacity the backup can absorb.
    #[must_use]
    pub fn burst_fraction(&self) -> f64 {
        self.burst_fraction
    }

    /// Units available at the backup when the primary runs
    /// `primary_units`. At least one, so failing over is never a no-op.
    #[must_use]
    pub fn burst_capacity(&self, primary_units: u32) -> u32 {
        ((f64::from(primary_units) * self.burst_fraction).floor() as u32).max(1)
    }
}

/// True if `a` dominates `b`: no worse on every axis, strictly better on
/// at least one (all axes are minimized).
#[must_use]
pub fn dominates(a: &SplitPoint, b: &SplitPoint) -> bool {
    let le = a.total_cost <= b.total_cost
        && a.confidential_incident_rate <= b.confidential_incident_rate
        && a.exit_cost <= b.exit_cost;
    let lt = a.total_cost < b.total_cost
        || a.confidential_incident_rate < b.confidential_incident_rate
        || a.exit_cost < b.exit_cost;
    le && lt
}

/// Extracts the Pareto-efficient placements (none dominated by another).
#[must_use]
pub fn pareto(points: &[SplitPoint]) -> Vec<SplitPoint> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .cloned()
        .collect()
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
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;
    use elc_simcore::SimTime;

    fn sweep_points() -> Vec<SplitPoint> {
        // Large enough that cloudbursting the exam surge pays for the
        // hybrid's overhead (see E10 in EXPERIMENTS.md for the full sweep
        // over scale).
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let inputs = CostInputs::standard(WorkloadModel::builder(150_000, cal).build().unwrap());
        sweep(&inputs, &ThreatModel::standard(), Bytes::from_gib(30_000))
    }

    #[test]
    fn sweep_covers_all_placements() {
        let points = sweep_points();
        assert_eq!(points.len(), 64);
        // Fractions span [0, 1].
        let min = points.iter().map(|p| p.public_fraction).fold(1.0, f64::min);
        let max = points.iter().map(|p| p.public_fraction).fold(0.0, f64::max);
        assert_eq!(min, 0.0);
        assert_eq!(max, 1.0);
    }

    #[test]
    fn extremes_match_pure_models() {
        let points = sweep_points();
        let all_private = points
            .iter()
            .find(|p| p.public_fraction == 0.0)
            .expect("private placement present");
        assert_eq!(all_private.exit_cost, Usd::ZERO);
        let all_public = points
            .iter()
            .find(|p| p.public_fraction == 1.0)
            .expect("public placement present");
        assert!(all_public.exit_cost > Usd::ZERO);
        assert!(all_public.confidential_incident_rate > all_private.confidential_incident_rate);
    }

    #[test]
    fn pareto_front_is_nonempty_and_undominated() {
        let points = sweep_points();
        let front = pareto(&points);
        assert!(!front.is_empty());
        assert!(front.len() < points.len());
        for p in &front {
            assert!(!points.iter().any(|q| dominates(q, p)));
        }
    }

    #[test]
    fn front_contains_an_interior_hybrid() {
        // §IV.C's point: a split can be worth it — some hybrid placement
        // survives the Pareto filter.
        let front = pareto(&sweep_points());
        assert!(
            front
                .iter()
                .any(|p| p.public_fraction > 0.0 && p.public_fraction < 1.0),
            "no interior hybrid on the frontier"
        );
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let points = sweep_points();
        for p in points.iter().take(8) {
            assert!(!dominates(p, p));
        }
        for a in points.iter().take(8) {
            for b in points.iter().take(8) {
                assert!(!(dominates(a, b) && dominates(b, a)));
            }
        }
    }

    #[test]
    fn failover_plan_validates_sites_and_fraction() {
        let cases = [
            (
                Site::PrivateCloud,
                0.5,
                "failover needs two sites, got private-cloud twice",
            ),
            (
                Site::PublicCloud,
                0.0,
                "burst fraction must be in (0, 1], got 0",
            ),
            (
                Site::PublicCloud,
                1.5,
                "burst fraction must be in (0, 1], got 1.5",
            ),
        ];
        for (backup, fraction, want) in cases {
            let msg = panic_message(|| {
                let _ = FailoverPlan::new(Site::PrivateCloud, backup, fraction);
            });
            assert_eq!(msg, want);
        }
        let _ = FailoverPlan::new(Site::PrivateCloud, Site::PublicCloud, 1.0);
    }

    #[test]
    fn burst_capacity_floors_but_never_hits_zero() {
        let plan = FailoverPlan::private_to_public(0.6);
        assert_eq!(plan.primary(), Site::PrivateCloud);
        assert_eq!(plan.backup(), Site::PublicCloud);
        assert_eq!(plan.burst_capacity(10), 6);
        assert_eq!(plan.burst_capacity(5), 3);
        assert_eq!(plan.burst_capacity(1), 1, "a burst site is never empty");
    }

    #[test]
    fn security_improves_monotonically_with_private_confidential() {
        let points = sweep_points();
        // Any placement with all confidential components private has the
        // minimum confidential incident rate.
        let min_rate = points
            .iter()
            .map(|p| p.confidential_incident_rate)
            .fold(f64::INFINITY, f64::min);
        for p in &points {
            if !p.deployment.confidential_exposed() {
                assert!((p.confidential_incident_rate - min_rate).abs() < 1e-12);
            } else {
                assert!(p.confidential_incident_rate > min_rate);
            }
        }
    }
}
