//! The fleet model E12, E16 and E17 share.
//!
//! Each of the three serves one simulated exam-period day ([`HORIZON`],
//! in [`TICK`] steps) from fleets of [`UNIT`] VMs, and each decides the
//! same things the same way: which day it simulates, how a fleet is
//! sized, how an elastic fleet follows the standard autoscaler, how many
//! private VMs survive a fault campaign, what share of the traffic each
//! request kind is, and what minute latency a utilization costs. Those
//! decisions live here, once.
//!
//! Two differences stay with the experiments, because their outputs
//! depend on them. E16 rounds the hybrid's burst fleet down
//! (`FailoverPlan::burst_capacity`) and E17 rounds it up. E12 scales a
//! `Datacenter` of booting VMs every two minutes; E16 and E17 resize a
//! count of VMs that serve at once, every tick.

use elc_cloud::autoscale::{AutoScaler, ScaleDecision};
use elc_cloud::resources::VmSize;
use elc_elearn::request::RequestKind;
use elc_resil::chaos::FaultTimeline;
use elc_simcore::time::{SimDuration, SimTime};

use crate::scenario::Scenario;

/// The instance size every fleet is built from.
pub(super) const UNIT: VmSize = VmSize::Medium;

/// Control-loop tick.
pub(super) const TICK: SimDuration = SimDuration::from_secs(60);

/// The simulated day.
pub(super) const HORIZON: SimDuration = SimDuration::from_hours(24);

/// Share of the private fleet the hybrid can burst into public capacity.
pub(super) const BURST_FRACTION: f64 = 0.6;

/// Base service latency of an unloaded fleet, seconds.
const BASE_LATENCY_S: f64 = 0.12;

/// Latency cap when saturated, seconds.
pub(super) const MAX_LATENCY_S: f64 = 10.0;

/// The utilization [`AutoScaler::standard`] sizes for, which keeps its
/// own private copy; an elastic fleet starts the day right-sized at it.
/// A test below holds the two to the same sizing.
const TARGET_UTILIZATION: f64 = 0.6;

/// Headroom a fixed fleet is bought with over the peak it must carry.
const FIXED_HEADROOM: f64 = 1.2;

/// Midnight of the simulated exam day: day 2 of the exam period, a
/// weekday under the standard calendar.
pub(super) fn exam_day(scenario: &Scenario) -> SimTime {
    scenario.calendar().exams_start() + SimDuration::from_days(1)
}

/// Minute-level latency of a fleet at utilization `rho`, seconds: an
/// M/M/1-style load curve, capped when saturated. E12, E16 and E17 read
/// it; the crate exports it as `experiments::fleet_latency_s`.
#[inline]
pub fn latency_s(rho: f64) -> f64 {
    if rho < 0.95 {
        (BASE_LATENCY_S / (1.0 - rho)).min(MAX_LATENCY_S)
    } else {
        MAX_LATENCY_S
    }
}

/// The VMs an elastic fleet starts with at `rate` req/s.
pub(super) fn elastic_start(rate: f64) -> u32 {
    at_least_two(rate / (UNIT.requests_per_sec() * TARGET_UTILIZATION))
}

/// The VMs a fixed fleet is bought with to carry a peak of `peak` req/s.
pub(super) fn fixed_fleet(peak: f64) -> u32 {
    at_least_two(peak * FIXED_HEADROOM / UNIT.requests_per_sec())
}

/// `vms` rounded up, and never fewer than two.
fn at_least_two(vms: f64) -> u32 {
    (vms.ceil() as u32).max(2)
}

/// The VMs of a private fleet of `units` still up at `now` under
/// `faults`: none once the site disaster struck, otherwise one fewer per
/// crashed cascade host.
pub(super) fn private_survivors(units: u32, faults: &FaultTimeline, now: SimTime) -> u32 {
    if faults.disaster_by(now) {
        0
    } else {
        units.saturating_sub(faults.crashed_hosts_by(now))
    }
}

/// `kind`'s share of the traffic under a per-kind fraction table such as
/// [`elc_elearn::request::EXAM_FRACTIONS`]; 0 for a kind it lacks.
#[inline]
pub(super) fn share(mix: &[(RequestKind, f64)], kind: RequestKind) -> f64 {
    mix.iter()
        .find(|(k, _)| *k == kind)
        .map_or(0.0, |&(_, f)| f)
}

/// The standard autoscaler, sizing fleets of [`UNIT`] VMs.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Scaler(AutoScaler);

impl Scaler {
    pub(super) fn new() -> Self {
        Scaler(AutoScaler::standard())
    }

    /// The decision at `now` for `current` VMs offered `rate` req/s.
    pub(super) fn decide(&mut self, now: SimTime, current: u32, rate: f64) -> ScaleDecision {
        self.0.decide(now, current, rate, UNIT.requests_per_sec())
    }

    /// A fleet of `units` VMs that serve at once, after the decision at
    /// `now`.
    pub(super) fn resize(&mut self, now: SimTime, units: u32, rate: f64) -> u32 {
        match self.decide(now, units, rate) {
            ScaleDecision::ScaleUp(n) => units + n,
            ScaleDecision::ScaleDown(n) => units - n,
            ScaleDecision::Hold => units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_elastic_fleet_starts_where_the_scaler_would_size_it() {
        // Below the scaler's 600-VM ceiling, the start is the scaler's
        // own answer, so the two target utilizations agree.
        let scaler = AutoScaler::standard();
        let unit = UNIT.requests_per_sec();
        // Up to 300 VMs' worth of traffic, a 500-VM fleet.
        for i in 0..=3_000 {
            let rate = f64::from(i) * unit / 10.0;
            assert_eq!(
                elastic_start(rate),
                scaler.desired_count(rate, unit),
                "at {rate} req/s"
            );
        }
    }

    #[test]
    fn a_resized_fleet_follows_the_scaler_and_its_cooldown() {
        let mut scaler = Scaler::new();
        // 10 VMs carrying nothing shrink to the scaler's floor of two...
        assert_eq!(scaler.resize(SimTime::ZERO, 10, 0.0), 2);
        // ...and a surge a minute later waits out the cooldown.
        let surge = UNIT.requests_per_sec() * 6.0;
        assert_eq!(scaler.resize(SimTime::from_secs(60), 2, surge), 2);
        assert_eq!(scaler.resize(SimTime::from_secs(240), 2, surge), 10);
    }
}
