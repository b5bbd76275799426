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

/// Why a [`FailoverPlan`] configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailoverPlanError {
    /// Primary and backup were the same site — nowhere to fail over to.
    SameSite(Site),
    /// The burst fraction was outside `(0, 1]` (or not finite).
    BadBurstFraction(f64),
}

impl std::fmt::Display for FailoverPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailoverPlanError::SameSite(site) => {
                write!(f, "failover needs two sites, got {site} twice")
            }
            FailoverPlanError::BadBurstFraction(frac) => {
                write!(f, "burst fraction must be in (0, 1], got {frac}")
            }
        }
    }
}

impl std::error::Error for FailoverPlanError {}

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
    /// # Errors
    ///
    /// Rejects identical sites and burst fractions outside `(0, 1]`.
    pub fn try_new(
        primary: Site,
        backup: Site,
        burst_fraction: f64,
    ) -> Result<Self, FailoverPlanError> {
        if primary == backup {
            return Err(FailoverPlanError::SameSite(primary));
        }
        if !burst_fraction.is_finite() || burst_fraction <= 0.0 || burst_fraction > 1.0 {
            return Err(FailoverPlanError::BadBurstFraction(burst_fraction));
        }
        Ok(FailoverPlan {
            primary,
            backup,
            burst_fraction,
        })
    }

    /// Panicking counterpart of [`FailoverPlan::try_new`].
    ///
    /// # Panics
    ///
    /// Panics when `try_new` would reject the configuration.
    #[must_use]
    pub fn new(primary: Site, backup: Site, burst_fraction: f64) -> Self {
        FailoverPlan::try_new(primary, backup, burst_fraction).unwrap_or_else(|e| panic!("{e}"))
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
        assert_eq!(
            FailoverPlan::try_new(Site::PrivateCloud, Site::PrivateCloud, 0.5),
            Err(FailoverPlanError::SameSite(Site::PrivateCloud))
        );
        assert_eq!(
            FailoverPlan::try_new(Site::PrivateCloud, Site::PublicCloud, 0.0),
            Err(FailoverPlanError::BadBurstFraction(0.0))
        );
        assert_eq!(
            FailoverPlan::try_new(Site::PrivateCloud, Site::PublicCloud, 1.5),
            Err(FailoverPlanError::BadBurstFraction(1.5))
        );
        assert!(FailoverPlan::try_new(Site::PrivateCloud, Site::PublicCloud, 1.0).is_ok());
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
