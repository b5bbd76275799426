//! The fourth deployment model: functions as a service.
//!
//! The paper's axis stops at public / private / hybrid; this module wires
//! the `elc-faas` platform model into the same deployment vocabulary. A
//! [`FaasDeployment`] bundles the platform knobs (cold-start profile with
//! memory overlaid from [`Component::faas_memory_gb`], keepalive, burst
//! cap, prices); [`faas_tco`] prices the model over the same horizon and
//! workload as [`crate::cost::tco`] so the four models line up in one
//! table; and [`crate::provisioning::faas_schedule`] supplies the
//! time-to-service column.

use elc_cloud::billing::{UsageMeter, Usd};
use elc_elearn::request::RequestKind;
use elc_faas::{ColdStartProfile, FaasPriceSheet, InvocationBilling};
use elc_net::units::Bytes;
use elc_simcore::time::{SimDuration, SimTime};

use crate::calib;
use crate::cost::{CostInputs, EGRESS_BILLED_FRACTION};
use crate::model::Component;

/// Teaching-mix fraction of total traffic per request kind, aligned with
/// [`elc_elearn::request::RequestMix::teaching`] (weights / 100).
pub const TEACHING_FRACTIONS: [(RequestKind, f64); 9] = [
    (RequestKind::Login, 0.05),
    (RequestKind::CoursePage, 0.22),
    (RequestKind::VideoChunk, 0.45),
    (RequestKind::QuizFetch, 0.04),
    (RequestKind::QuizSubmit, 0.04),
    (RequestKind::Upload, 0.04),
    (RequestKind::Download, 0.09),
    (RequestKind::ForumRead, 0.05),
    (RequestKind::ForumPost, 0.02),
];

/// Platform knobs of the serverless estate, one value object so every
/// experiment prices and simulates the same deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasDeployment {
    /// Per-function start/sizing profiles (component memory overlaid).
    pub profile: ColdStartProfile,
    /// Invocation prices and free tier.
    pub prices: FaasPriceSheet,
    /// Scaler target utilisation.
    pub target_util: f64,
    /// Account-level burst concurrency cap, shared by all functions.
    pub burst_limit: u32,
    /// Per-function live-sandbox cap.
    pub per_function_concurrency: u32,
    /// Fixed keepalive window idle sandboxes survive.
    pub keepalive: SimDuration,
    /// Bounded invocation buffer per function.
    pub buffer_capacity: i64,
}

impl FaasDeployment {
    /// The standard account: launch-era prices, a 5-minute keepalive, and
    /// a burst pool sized like an unnegotiated institutional account —
    /// generous for a teaching day, starved on exam day.
    #[must_use]
    pub fn standard() -> Self {
        FaasDeployment {
            profile: standard_profile(),
            prices: FaasPriceSheet::public_2014(),
            target_util: 0.7,
            burst_limit: 400,
            per_function_concurrency: 200,
            keepalive: SimDuration::from_mins(5),
            buffer_capacity: 2_000,
        }
    }
}

/// The platform cold-start table with each function's memory overlaid
/// from the component that serves it ([`Component::serving`] /
/// [`Component::faas_memory_gb`]).
#[must_use]
pub fn standard_profile() -> ColdStartProfile {
    let mut profile = ColdStartProfile::standard();
    for kind in RequestKind::ALL {
        let memory = Component::serving(kind).faas_memory_gb();
        let spec = profile.get(kind).with_memory_gb(memory);
        profile.set(kind, spec);
    }
    profile
}

/// FaaS cost over the horizon, broken into the categories that differ
/// from VM deployments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasCostBreakdown {
    /// Metered GB-seconds + per-request fees.
    pub invocations: Usd,
    /// Object storage and billed egress (same sheet as the public model).
    pub storage_egress: Usd,
    /// Ops + governance staffing over the horizon.
    pub staff: Usd,
    /// One-time setup consultancy.
    pub consultancy: Usd,
}

impl FaasCostBreakdown {
    /// Grand total over the horizon.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.invocations + self.storage_egress + self.staff + self.consultancy
    }
}

/// Prices the FaaS model over the same workload, storage and horizon as
/// [`crate::cost::tco`]: invocation metering integrated hourly over a
/// simulated year (two terms), storage and egress on the public price
/// sheet, serverless ops staffing and one platform's consultancy.
///
/// # Panics
///
/// Panics if `inputs.years` is not positive.
#[must_use]
pub fn faas_tco(inputs: &CostInputs, faas: &FaasDeployment) -> FaasCostBreakdown {
    assert!(inputs.years > 0.0, "horizon must be positive");

    // Free tier is granted monthly; scale it to the whole horizon.
    let months = inputs.years * 12.0;
    let sheet = faas.prices.with_free_tier(
        faas.prices.free_gb_s() * months,
        (faas.prices.free_requests() as f64 * months) as u64,
    );
    let mut meter = InvocationBilling::new(sheet);

    let mix = elc_elearn::request::RequestMix::teaching();
    let mean_response = mix.mean_response_size().as_u64() as f64;
    let half_year = SimDuration::from_days(26 * 7);
    let step = SimDuration::from_hours(1);
    let mut egress_bytes = 0.0;
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + half_year {
        let rate = inputs.workload.rate_at(t);
        for (kind, frac) in TEACHING_FRACTIONS {
            let spec = faas.profile.get(kind);
            let invocations = (rate * frac * 3_600.0) as u64;
            meter.record(invocations, spec.service_time(), spec.memory_gb());
        }
        egress_bytes += rate * 3_600.0 * mean_response * EGRESS_BILLED_FRACTION;
        t += step;
    }
    // Two identical terms per year, over the horizon. The meter is linear
    // in usage (free tier already scaled), so scale the recorded half-year.
    let scale = 2.0 * inputs.years;
    let mut scaled = InvocationBilling::new(sheet);
    scaled.record(
        (meter.requests() as f64 * scale) as u64,
        SimDuration::from_secs(1),
        (meter.gb_s() * scale / (meter.requests() as f64 * scale).max(1.0)).max(1e-12),
    );
    let invocations = scaled.total();

    let mut usage = UsageMeter::new();
    usage.record_egress(Bytes::new((egress_bytes * scale) as u64));
    usage.record_storage(inputs.stored_bytes, 12.0 * inputs.years);
    let storage_egress = usage.invoice(&inputs.prices).total();

    let staff_fte = calib::FAAS_OPS_FTE + calib::GOVERNANCE_FTE_PER_PLATFORM;
    let staff = calib::SYSADMIN_FTE_PER_YEAR * (staff_fte * inputs.years);
    let consultancy = calib::CONSULTANCY_PER_PLATFORM;

    FaasCostBreakdown {
        invocations,
        storage_egress,
        staff,
        consultancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::tco;
    use crate::model::Deployment;
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;

    fn inputs(students: u32) -> CostInputs {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        CostInputs::standard(WorkloadModel::builder(students, cal).build().unwrap())
    }

    #[test]
    fn fractions_sum_to_one() {
        let total: f64 = TEACHING_FRACTIONS.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn standard_profile_takes_component_memory() {
        let p = standard_profile();
        assert_eq!(
            p.get(RequestKind::QuizSubmit).memory_gb(),
            Component::AssessmentEngine.faas_memory_gb()
        );
        assert_eq!(
            p.get(RequestKind::VideoChunk).memory_gb(),
            Component::VideoStreaming.faas_memory_gb()
        );
    }

    #[test]
    fn faas_undercuts_public_vms_for_small_institutions() {
        // The pay-per-use pitch: no idle floor through nights and breaks.
        let i = inputs(1_000);
        let faas = faas_tco(&i, &FaasDeployment::standard()).total();
        let public = tco(&Deployment::public(), &i).total();
        assert!(
            faas < public,
            "faas {faas} should undercut public VMs {public} at 1k students"
        );
    }

    #[test]
    fn faas_loses_its_edge_at_sustained_scale() {
        // Per-invocation premiums grow linearly; fleets amortize.
        let at = |n: u32| {
            let i = inputs(n);
            faas_tco(&i, &FaasDeployment::standard())
                .total()
                .ratio(tco(&Deployment::public(), &i).total())
        };
        assert!(
            at(60_000) > at(1_000),
            "the faas/public ratio should grow with scale"
        );
    }

    #[test]
    fn breakdown_sums_and_is_positive() {
        let b = faas_tco(&inputs(5_000), &FaasDeployment::standard());
        assert!(b.invocations > Usd::ZERO);
        assert!(b.storage_egress > Usd::ZERO);
        assert!(b.staff > Usd::ZERO);
        assert_eq!(
            b.total(),
            b.invocations + b.storage_egress + b.staff + b.consultancy
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let mut i = inputs(1_000);
        i.years = 0.0;
        let _ = faas_tco(&i, &FaasDeployment::standard());
    }
}
