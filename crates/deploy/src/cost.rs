//! Total cost of ownership (E1).
//!
//! §III.1 claims "lower costs" for cloud e-learning; §IV.B counters that a
//! private cloud carries "relatively higher costs … adequate power, cooling,
//! and general maintenance". This module prices both sides over a planning
//! horizon:
//!
//! * the **public share** of a deployment pays usage: autoscaled VM-hours,
//!   object storage, metered egress — integrated over a simulated year of
//!   calendar-shaped load;
//! * the **private share** pays ownership: amortized server capex,
//!   power/cooling/facilities, and admin staffing sized to the fleet —
//!   provisioned for the *peak*, because iron cannot be returned;
//! * both pay the governance overhead of `elc-deploy::governance`.

use elc_cloud::billing::{PriceSheet, ReservedTerms, UsageMeter, Usd};
use elc_cloud::resources::VmSize;
use elc_net::units::Bytes;
use elc_simcore::time::{SimDuration, SimTime};

use elc_elearn::workload::WorkloadModel;

use crate::calib;
use crate::governance;
use crate::model::{Deployment, Site};

/// Fraction of raw response bytes actually billed as egress. Campus
/// proxies, CDN peering (universities rode research networks with free or
/// near-free peering in 2013) and provider free tiers absorb the rest.
pub const EGRESS_BILLED_FRACTION: f64 = 0.05;

/// Target utilization the autoscaler tracks for the public share.
const PUBLIC_TARGET_UTIL: f64 = 0.6;

/// Headroom factor for the private fleet (provisioned above observed peak).
const PRIVATE_HEADROOM: f64 = 1.0 / 0.7;

/// Minimum instances kept up for availability on any public share.
const PUBLIC_MIN_INSTANCES: u32 = 2;

/// Minimum servers for any private footprint (one plus a failover).
const PRIVATE_MIN_SERVERS: u32 = 2;

/// Cost assessment inputs.
#[derive(Debug, Clone)]
pub struct CostInputs {
    /// The institutional workload.
    pub workload: WorkloadModel,
    /// Total stored content.
    pub stored_bytes: Bytes,
    /// Planning horizon in years.
    pub years: f64,
    /// Public-cloud prices.
    pub prices: PriceSheet,
    /// Reserve the always-on baseline instances at these terms; `None`
    /// bills everything on-demand.
    pub reserved: Option<ReservedTerms>,
}

impl CostInputs {
    /// Standard inputs: the given workload, storage scaled to the
    /// population (≈ 200 GiB per 1000 students), a 3-year horizon, 2013
    /// prices.
    #[must_use]
    pub fn standard(workload: WorkloadModel) -> Self {
        let stored = Bytes::from_gib(u64::from(workload.students()) * 200 / 1_000 + 50);
        CostInputs {
            workload,
            stored_bytes: stored,
            years: 3.0,
            prices: PriceSheet::public_2013(),
            reserved: None,
        }
    }

    /// The same inputs with the always-on baseline covered by 2013-style
    /// reserved instances.
    #[must_use]
    pub fn with_reserved(mut self) -> Self {
        self.reserved = Some(ReservedTerms::standard_2013());
        self
    }
}

/// A TCO broken into the categories the paper argues about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Amortized private-server hardware over the horizon.
    pub capex: Usd,
    /// Private power, cooling, space, maintenance over the horizon.
    pub facilities: Usd,
    /// Admin + governance staffing over the horizon.
    pub staff: Usd,
    /// Metered public-cloud usage over the horizon.
    pub cloud_usage: Usd,
    /// One-time setup consultancy.
    pub consultancy: Usd,
    /// Private servers the fleet was sized to.
    pub private_servers: u32,
    /// Mean public instances over the simulated year.
    pub mean_public_instances: f64,
}

impl CostBreakdown {
    /// Grand total over the horizon.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.capex + self.facilities + self.staff + self.cloud_usage + self.consultancy
    }
}

/// Daily ownership cost of private capacity equal to one `unit` VM:
/// amortized capex plus power/cooling/facilities, scaled from the
/// calibrated server (≈ an XLarge's worth of capacity) by throughput.
/// The building block the day-granular experiments use to price an
/// always-on private fleet without re-running the full TCO horizon.
#[must_use]
pub fn private_unit_day_cost(unit: VmSize) -> Usd {
    let per_server_year = calib::SERVER_CAPEX * (1.0 / calib::SERVER_AMORTIZATION_YEARS)
        + calib::SERVER_POWER_COOLING_PER_YEAR
        + calib::SERVER_FACILITIES_PER_YEAR;
    let scale = unit.requests_per_sec() / VmSize::XLarge.requests_per_sec();
    per_server_year * (scale / 365.0)
}

/// Two identical terms per year: public usage is sampled hourly over one
/// 26-week half-year and doubled.
const HALF_YEAR: SimDuration = SimDuration::from_days(26 * 7);

/// The workload's offered rate at every hour of the half-year [`tco`]
/// integrates public usage over.
pub(crate) fn half_year_rates(workload: &WorkloadModel) -> Vec<f64> {
    (0..HALF_YEAR.as_secs() / 3_600)
        .map(|hour| workload.rate_at(SimTime::ZERO + SimDuration::from_hours(hour)))
        .collect()
}

/// Prices a deployment over the horizon. A deployment with a public share
/// samples the workload's half-year hour by hour; one without skips it.
///
/// # Panics
///
/// Panics if `inputs.years` is not positive.
#[must_use]
pub fn tco(deployment: &Deployment, inputs: &CostInputs) -> CostBreakdown {
    let rates = if deployment.components_on(Site::PublicCloud).is_empty() {
        Vec::new()
    } else {
        half_year_rates(&inputs.workload)
    };
    tco_sampled(deployment, inputs, &rates)
}

/// [`tco`] over the half-year's hourly rates, sampled by the caller with
/// [`half_year_rates`] so that pricing many placements of one workload
/// samples it once. `rates` is read only when the deployment has a public
/// share.
pub(crate) fn tco_sampled(
    deployment: &Deployment,
    inputs: &CostInputs,
    rates: &[f64],
) -> CostBreakdown {
    assert!(inputs.years > 0.0, "horizon must be positive");
    let public_frac = deployment.public_load_fraction();
    let has_public = !deployment.components_on(Site::PublicCloud).is_empty();
    let has_private = !deployment.components_on(Site::PrivateCloud).is_empty();

    // ---- Public share: integrate usage over one simulated year. ----
    let mut meter = UsageMeter::new();
    let mut instance_samples = 0.0;
    let mut samples = 0u64;
    let mut reserved_instances = 0u32;
    if has_public {
        let unit_rps = VmSize::Medium.requests_per_sec();
        let mix = elc_elearn::request::RequestMix::teaching();
        let mean_response = mix.mean_response_size().as_u64() as f64;
        let public_egress_share: f64 = deployment
            .components_on(Site::PublicCloud)
            .iter()
            .map(|c| c.egress_share())
            .sum();
        let mut vm_hours = 0.0;
        let mut egress_bytes = 0.0;
        let mut min_instances = u32::MAX;
        for &total_rate in rates {
            let rate = total_rate * public_frac;
            let instances =
                ((rate / (unit_rps * PUBLIC_TARGET_UTIL)).ceil() as u32).max(PUBLIC_MIN_INSTANCES);
            vm_hours += f64::from(instances);
            instance_samples += f64::from(instances);
            min_instances = min_instances.min(instances);
            samples += 1;
            egress_bytes +=
                total_rate * public_egress_share * 3_600.0 * mean_response * EGRESS_BILLED_FRACTION;
        }
        // The always-on baseline can be covered by reserved instances:
        // those hours leave the metered on-demand bill and come back as
        // the reserved annual cost after invoicing.
        reserved_instances = match inputs.reserved {
            Some(_) if min_instances != u32::MAX => min_instances,
            _ => 0,
        };
        let reserved_hours = f64::from(reserved_instances) * 8_760.0 * inputs.years;
        meter.record_vm_hours(
            VmSize::Medium,
            (vm_hours * 2.0 * inputs.years - reserved_hours).max(0.0),
        );
        meter.record_egress(Bytes::new((egress_bytes * 2.0 * inputs.years) as u64));
        let public_storage_frac: f64 = deployment
            .components_on(Site::PublicCloud)
            .iter()
            .map(|c| c.storage_share())
            .sum();
        meter.record_storage(
            inputs.stored_bytes.mul_f64(public_storage_frac),
            12.0 * inputs.years,
        );
    }
    let mut cloud_usage = meter.invoice(&inputs.prices).total();
    if let Some(terms) = inputs.reserved {
        let per_year = terms.annual_cost(inputs.prices.vm_hour(VmSize::Medium));
        cloud_usage += per_year * (f64::from(reserved_instances) * inputs.years);
    }

    // ---- Private share: size the fleet for the peak it must carry. ----
    // The peak is weighted per component: keeping the assessment engine
    // on-premise means provisioning for exam day; offloading it
    // ("cloudbursting") shrinks the fleet disproportionately.
    let private_servers = if has_private {
        let peak = inputs.workload.peak_rate() * deployment.peak_share(Site::PrivateCloud);
        let server_rps = VmSize::XLarge.requests_per_sec();
        (((peak * PRIVATE_HEADROOM) / server_rps).ceil() as u32).max(PRIVATE_MIN_SERVERS)
    } else {
        0
    };
    let capex = calib::SERVER_CAPEX
        * (f64::from(private_servers) * inputs.years / calib::SERVER_AMORTIZATION_YEARS);
    let facilities = (calib::SERVER_POWER_COOLING_PER_YEAR + calib::SERVER_FACILITIES_PER_YEAR)
        * (f64::from(private_servers) * inputs.years);

    // ---- Overheads. ----
    let overhead = governance::overhead(deployment, private_servers);
    let staff = overhead.annual_staff_cost() * inputs.years;

    let mean_public_instances = if samples == 0 {
        0.0
    } else {
        instance_samples / samples as f64
    };

    CostBreakdown {
        capex,
        facilities,
        staff,
        cloud_usage,
        consultancy: overhead.setup_consultancy,
        private_servers,
        mean_public_instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_elearn::calendar::AcademicCalendar;

    fn inputs(students: u32) -> CostInputs {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        CostInputs::standard(WorkloadModel::builder(students, cal).build().unwrap())
    }

    #[test]
    fn private_unit_day_cost_scales_with_throughput() {
        let medium = private_unit_day_cost(VmSize::Medium);
        let xlarge = private_unit_day_cost(VmSize::XLarge);
        assert!(medium > Usd::ZERO);
        assert!(xlarge > medium);
        // A full server-year at day granularity reassembles the calibrated
        // annual ownership cost.
        let year = xlarge * 365.0;
        let expected = calib::SERVER_CAPEX * (1.0 / calib::SERVER_AMORTIZATION_YEARS)
            + calib::SERVER_POWER_COOLING_PER_YEAR
            + calib::SERVER_FACILITIES_PER_YEAR;
        assert!((year.amount() - expected.amount()).abs() < 1e-6);
    }

    #[test]
    fn public_has_no_capex() {
        let c = tco(&Deployment::public(), &inputs(5_000));
        assert_eq!(c.capex, Usd::ZERO);
        assert_eq!(c.facilities, Usd::ZERO);
        assert_eq!(c.private_servers, 0);
        assert!(c.cloud_usage > Usd::ZERO);
    }

    #[test]
    fn private_has_no_cloud_usage() {
        let c = tco(&Deployment::private(), &inputs(5_000));
        assert_eq!(c.cloud_usage, Usd::ZERO);
        assert!(c.capex > Usd::ZERO);
        assert!(c.facilities > Usd::ZERO);
        assert!(c.private_servers >= PRIVATE_MIN_SERVERS);
    }

    #[test]
    fn hybrid_pays_both() {
        let c = tco(&Deployment::hybrid_default(), &inputs(5_000));
        assert!(c.cloud_usage > Usd::ZERO);
        assert!(c.capex > Usd::ZERO);
    }

    #[test]
    fn public_wins_for_small_institutions() {
        // §IV.A: "quickest and lowest cost" for a modest population.
        let i = inputs(1_000);
        let public = tco(&Deployment::public(), &i).total();
        let private = tco(&Deployment::private(), &i).total();
        assert!(
            public < private,
            "public {public} should undercut private {private} at 1k students"
        );
    }

    #[test]
    fn private_wins_at_sustained_scale() {
        // Egress-heavy sustained load makes ownership cheaper at scale.
        let i = inputs(60_000);
        let public = tco(&Deployment::public(), &i).total();
        let private = tco(&Deployment::private(), &i).total();
        assert!(
            private < public,
            "private {private} should undercut public {public} at 60k students"
        );
    }

    #[test]
    fn crossover_exists_and_is_monotone() {
        let sizes = [500u32, 2_000, 8_000, 32_000, 96_000];
        let ratio: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                let i = inputs(n);
                tco(&Deployment::public(), &i)
                    .total()
                    .ratio(tco(&Deployment::private(), &i).total())
            })
            .collect();
        // Public/private ratio grows with scale: public loses its edge.
        for w in ratio.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "ratio not increasing: {ratio:?}");
        }
        assert!(ratio[0] < 1.0, "public should win small: {ratio:?}");
        assert!(
            ratio[ratio.len() - 1] > 1.0,
            "private should win big: {ratio:?}"
        );
    }

    #[test]
    fn hybrid_consultancy_exceeds_pure_models() {
        let i = inputs(5_000);
        let hy = tco(&Deployment::hybrid_default(), &i).consultancy;
        let pb = tco(&Deployment::public(), &i).consultancy;
        let pv = tco(&Deployment::private(), &i).consultancy;
        assert!(hy > pb && hy > pv);
    }

    #[test]
    fn costs_scale_with_horizon() {
        let mut i = inputs(5_000);
        let three = tco(&Deployment::public(), &i).total();
        i.years = 6.0;
        let six = tco(&Deployment::public(), &i).total();
        // Doubling the horizon roughly doubles usage but not the one-time
        // consultancy.
        assert!(
            six > three * 1.7 && six < three * 2.1,
            "3y={three} 6y={six}"
        );
    }

    #[test]
    fn mean_instances_reported_for_public() {
        let c = tco(&Deployment::public(), &inputs(20_000));
        assert!(c.mean_public_instances >= f64::from(PUBLIC_MIN_INSTANCES));
        let p = tco(&Deployment::private(), &inputs(20_000));
        assert_eq!(p.mean_public_instances, 0.0);
    }

    #[test]
    fn reserving_the_baseline_cuts_the_public_bill() {
        let on_demand = inputs(20_000);
        let reserved = inputs(20_000).with_reserved();
        let od = tco(&Deployment::public(), &on_demand);
        let rv = tco(&Deployment::public(), &reserved);
        assert!(
            rv.cloud_usage < od.cloud_usage,
            "reserved {} should beat on-demand {}",
            rv.cloud_usage,
            od.cloud_usage
        );
        // Everything else is untouched.
        assert_eq!(rv.capex, od.capex);
        assert_eq!(rv.staff, od.staff);
    }

    #[test]
    fn reserving_moves_the_e1_crossover_upwards() {
        // Cheaper public baseline ⇒ ownership needs more scale to win.
        let at = |students: u32, reserved: bool| {
            let mut i = inputs(students);
            if reserved {
                i = i.with_reserved();
            }
            tco(&Deployment::public(), &i)
                .total()
                .ratio(tco(&Deployment::private(), &i).total())
        };
        for n in [5_000u32, 20_000, 60_000] {
            assert!(
                at(n, true) <= at(n, false) + 1e-9,
                "reserved should never worsen the public/private ratio at {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let mut i = inputs(1_000);
        i.years = 0.0;
        let _ = tco(&Deployment::public(), &i);
    }
}
