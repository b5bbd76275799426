//! E12 — Elasticity under the exam-day surge.
//!
//! Paper claim under test: the abstract motivates clouds for e-learning by
//! the "dynamically allocation of computation and storage resources";
//! §IV.A's counterpart is the fixed on-premise fleet. A discrete-event
//! simulation drives one exam day (the workload's 4× surge) against five
//! capacity strategies:
//!
//! * **elastic** — target-tracking autoscaler, 2-minute boot delay,
//! * **fixed-teaching** — fleet sized for an ordinary teaching peak (the
//!   §IV.B budget reality): saturates during exams,
//! * **fixed-exam** — fleet sized for the exam peak: never saturates but
//!   idles the rest of the year,
//! * **elastic + host failure** / **fixed-exam + host failure** — the
//!   failure-injection arms: the busiest host dies at the 19:00 peak; the
//!   autoscaler re-provisions, the fixed fleet cannot.
//!
//! Expected shape: from `rural-learners` up, fixed-teaching rejects a
//! large share of exam-day requests (a small college's two-VM floor
//! carries its exam day); elastic tracks the surge with a small
//! transient; fixed-exam matches elastic on service quality at more
//! machine-hours even on this, its busiest day — until a host dies,
//! after which only the elastic fleet recovers.
//!
//! At fluid/auto fidelity (`scenario.fidelity()`) the per-tick Poisson
//! draw is replaced by the deterministic mean flow `rate × tick`; the
//! autoscaler is rate-driven either way, so the fleet trajectory is
//! identical and only the demand-side counters change. The event path
//! keeps its exact integer arithmetic, so default-fidelity output is
//! bit-identical to what it was before the fluid path existed.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_analysis::table::fmt_f64;
use elc_cloud::autoscale::ScaleDecision;
use elc_cloud::datacenter::Datacenter;
use elc_cloud::placement::FirstFit;
use elc_cloud::resources::Resources;
use elc_elearn::source::WorkloadSource;
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::series::TimeWeighted;
use elc_simcore::sim::Simulation;
use elc_simcore::time::{SimDuration, SimTime};

use super::fleet::{self, Scaler, HORIZON, TICK, UNIT};
use crate::scenario::Scenario;

/// Autoscaler probe interval.
const SCALE_EVERY: SimDuration = SimDuration::from_secs(120);

/// Hosts in the datacenter every strategy provisions from.
const POOL_HOSTS: usize = 40;

/// Medium VMs the host pool holds: 40 hosts × 16.
pub const POOL_VMS: u32 = 640;

/// The datacenter every strategy provisions from: [`POOL_HOSTS`] hosts,
/// each with room for 16 [`UNIT`] VMs.
fn pool() -> Datacenter {
    let mut dc = Datacenter::new("e12", FirstFit, SimDuration::from_secs(120));
    dc.add_hosts(POOL_HOSTS, Resources::new(32, 128.0, 2_000.0));
    dc
}

/// How a fleet is sized (and whether a host failure is injected at the
/// evening peak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Target-tracking autoscaler.
    Elastic,
    /// Fixed fleet sized for the teaching-week peak.
    FixedTeaching,
    /// Fixed fleet sized for the exam peak.
    FixedExam,
    /// Autoscaler, with the busiest host killed at 19:00 — the scaler
    /// re-provisions the lost capacity.
    ElasticHostFailure,
    /// Exam-sized fixed fleet, same failure — the lost capacity stays
    /// lost (spare parts are weeks away, §IV.B).
    FixedExamHostFailure,
}

impl Strategy {
    /// All strategies, baseline trio first.
    pub const ALL: [Strategy; 5] = [
        Strategy::Elastic,
        Strategy::FixedTeaching,
        Strategy::FixedExam,
        Strategy::ElasticHostFailure,
        Strategy::FixedExamHostFailure,
    ];

    fn injects_failure(self) -> bool {
        matches!(
            self,
            Strategy::ElasticHostFailure | Strategy::FixedExamHostFailure
        )
    }

    fn is_elastic(self) -> bool {
        matches!(self, Strategy::Elastic | Strategy::ElasticHostFailure)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Elastic => "elastic",
            Strategy::FixedTeaching => "fixed-teaching",
            Strategy::FixedExam => "fixed-exam",
            Strategy::ElasticHostFailure => "elastic+host-failure",
            Strategy::FixedExamHostFailure => "fixed-exam+host-failure",
        };
        f.write_str(s)
    }
}

/// Measured behaviour of one strategy over the exam day.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeRow {
    /// The capacity strategy.
    pub strategy: Strategy,
    /// Fraction of requests rejected for lack of capacity.
    pub rejected_fraction: f64,
    /// 95th-percentile minute-level latency, seconds.
    pub p95_latency_s: f64,
    /// Machine-hours consumed over the day.
    pub vm_hours: f64,
    /// Largest fleet observed.
    pub peak_vms: f64,
}

/// E12 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One row per strategy.
    pub rows: Vec<SurgeRow>,
}

struct World {
    dc: Datacenter,
    scaler: Option<Scaler>,
    workload: Box<dyn WorkloadSource>,
    /// Offset of the simulated day within the calendar.
    day_start: SimTime,
    rng: SimRng,
    /// Fluid fidelity: demand is the deterministic mean flow
    /// `rate × tick` instead of a Poisson draw per tick.
    fluid: bool,
    /// Requests offered / rejected. Event fidelity only ever adds exact
    /// integers (so the totals are bit-identical to the old `u64`
    /// counters); fluid fidelity accumulates fractional flow.
    offered: f64,
    rejected: f64,
    latency: Histogram,
    fleet: TimeWeighted,
}

impl World {
    fn cal_time(&self, now: SimTime) -> SimTime {
        self.day_start + (now - SimTime::ZERO)
    }
}

fn tick(sim: &mut Simulation<World>) {
    let now = sim.now();
    let w = sim.state_mut();
    let cal_now = w.cal_time(now);
    // Demand comes through the WorkloadSource trait: generator-backed
    // sources draw the same Poisson the inline code used to, replayed
    // traces return their recorded counts. At fluid fidelity the draw
    // is replaced by the mean flow — the tick-level mean-field limit of
    // the same arrival process.
    let arrivals = if w.fluid {
        w.workload.rate_at(cal_now) * TICK.as_secs_f64()
    } else {
        w.workload.sample_arrivals(&mut w.rng, cal_now, TICK) as f64
    };
    let capacity = w.dc.serving_capacity_rps(now) * TICK.as_secs_f64();
    let served = arrivals.min(capacity);
    w.offered += arrivals;
    w.rejected += if w.fluid {
        arrivals - served
    } else {
        // Keep the event path's exact truncation semantics.
        (arrivals - served) as u64 as f64
    };
    // The load-latency curve on the utilization of the serving fleet.
    let rho = if capacity > 0.0 {
        arrivals / capacity
    } else {
        1.0
    };
    w.latency.record(fleet::latency_s(rho));
    let fleet_now = w.dc.active_vm_count() as f64;
    w.fleet.set(now, fleet_now);
}

fn autoscale(sim: &mut Simulation<World>) {
    let now = sim.now();
    let w = sim.state_mut();
    let Some(scaler) = w.scaler.as_mut() else {
        return;
    };
    let cal_now = w.day_start + (now - SimTime::ZERO);
    let rate = w.workload.rate_at(cal_now);
    let current = w.dc.active_vm_count() as u32;
    match scaler.decide(now, current, rate) {
        ScaleDecision::ScaleUp(n) => {
            for _ in 0..n {
                // Capacity errors only happen if the host pool is
                // undersized; the experiment provisions a generous pool.
                let _ = w.dc.provision(UNIT, now);
            }
        }
        ScaleDecision::ScaleDown(n) => {
            // The newest live VMs go first.
            let victims: Vec<_> = w.dc.live_vms().rev().take(n as usize).collect();
            for vm in victims {
                w.dc.decommission(vm, now);
            }
        }
        ScaleDecision::Hold => {}
    }
}

/// The fleet `strategy` starts the exam day with, in [`UNIT`] VMs,
/// against the demand of `workload`.
fn initial_fleet(workload: &dyn WorkloadSource, day_start: SimTime, strategy: Strategy) -> u32 {
    match strategy {
        // Start right-sized for the midnight load.
        Strategy::Elastic | Strategy::ElasticHostFailure => {
            fleet::elastic_start(workload.rate_at(day_start))
        }
        // Teaching-week evening peak (no exam multiplier): phase factor
        // 1.0, diurnal max 1.3.
        Strategy::FixedTeaching => {
            fleet::fixed_fleet(f64::from(workload.students()) / 1_000.0 * 20.0 * 1.3)
        }
        Strategy::FixedExam | Strategy::FixedExamHostFailure => {
            fleet::fixed_fleet(workload.peak_rate())
        }
    }
}

/// Checks that every strategy's initial fleet fits the host pool.
///
/// Reads the workload the way [`run`] does: one source per strategy, in
/// [`Strategy::ALL`] order, each bound to its replay stream at the day's
/// start. The sources come from a clone of `scenario`, so the run's own
/// stream claims stay untouched.
///
/// # Errors
///
/// Names the largest fleet the scenario's workload asks for when it
/// exceeds the [`POOL_VMS`]-VM pool.
pub fn check_fleets(scenario: &Scenario) -> Result<(), String> {
    let probe = scenario.clone();
    let day = fleet::exam_day(&probe);
    let largest = Strategy::ALL
        .iter()
        .map(|&s| {
            let workload = probe.workload();
            // `simulate` binds every source at the day's start: elastic
            // ones when sizing their fleet, fixed ones at the first tick.
            let _ = workload.rate_at(day);
            initial_fleet(workload.as_ref(), day, s)
        })
        .max()
        .unwrap_or(0);
    if largest > POOL_VMS {
        return Err(format!(
            "e12 on {} needs an initial fleet of {largest} {UNIT} VMs, beyond its \
             {POOL_VMS}-VM host pool ({POOL_HOSTS} hosts)",
            scenario.name()
        ));
    }
    Ok(())
}

/// Simulates one strategy over 24 hours of the exam day.
fn simulate(scenario: &Scenario, strategy: Strategy) -> SurgeRow {
    let workload = scenario.workload();
    let day_start = fleet::exam_day(scenario);
    let horizon = SimTime::ZERO + HORIZON;

    let mut dc = pool();
    let initial = initial_fleet(workload.as_ref(), day_start, strategy);
    for _ in 0..initial {
        dc.provision(UNIT, SimTime::ZERO)
            .expect("initial fleets fit the pool (see check_fleets)");
    }

    let scaler = strategy.is_elastic().then(Scaler::new);

    let world = World {
        fleet: TimeWeighted::new(SimTime::ZERO, f64::from(initial)),
        dc,
        scaler,
        workload,
        day_start,
        rng: SimRng::seed(scenario.seed())
            .derive("e12")
            .derive(&strategy.to_string()),
        fluid: scenario.fidelity().uses_fluid(),
        offered: 0.0,
        rejected: 0.0,
        latency: Histogram::new(),
    };

    let mut sim = Simulation::new(scenario.seed(), world);
    sim.schedule_every(SimDuration::ZERO, TICK, move |sim| {
        tick(sim);
        sim.now() < horizon
    });
    sim.schedule_every(SimDuration::from_secs(30), SCALE_EVERY, move |sim| {
        autoscale(sim);
        sim.now() < horizon
    });
    if strategy.injects_failure() {
        // Kill the most loaded host at the evening peak; its VMs die with
        // it (failure-injection arm of the experiment).
        sim.schedule_in(SimDuration::from_hours(19), |sim| {
            let now = sim.now();
            let w = sim.state_mut();
            let victim =
                w.dc.hosts()
                    .filter(|h| h.is_alive())
                    .max_by_key(|h| h.vms().len())
                    .map(elc_cloud::host::Host::id);
            if let Some(host) = victim {
                w.dc.fail_host(host, now);
            }
        });
    }
    sim.run_until(horizon);

    let w = sim.into_state();
    SurgeRow {
        strategy,
        rejected_fraction: if w.offered == 0.0 {
            0.0
        } else {
            w.rejected / w.offered
        },
        p95_latency_s: w.latency.p95(),
        vm_hours: w.fleet.integral(horizon) / 3_600.0,
        peak_vms: w.fleet.max(),
    }
}

/// Runs all five strategies.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let rows = Strategy::ALL
        .iter()
        .map(|&s| simulate(scenario, s))
        .collect();
    Output { rows }
}

impl Output {
    /// The row for a strategy.
    #[must_use]
    pub fn row(&self, strategy: Strategy) -> &SurgeRow {
        self.rows
            .iter()
            .find(|r| r.strategy == strategy)
            .expect("all strategies simulated")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "strategy",
            "rejected (%)",
            "p95 latency (s)",
            "vm-hours (day)",
            "peak fleet",
        ]);
        for r in &self.rows {
            t.row(
                r.strategy.to_string(),
                vec![
                    Cell::num(r.rejected_fraction * 100.0),
                    Cell::num(r.p95_latency_s),
                    Cell::num(r.vm_hours),
                    Cell::num(r.peak_vms),
                ],
            );
        }
        t
    }

    /// The typed metrics, without rendering the table.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metric_table().metrics()
    }

    /// Renders the E12 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E12",
            "Exam-day surge: elastic vs fixed capacity",
            self.metric_table().to_table(),
        );
        s.note("paper abstract: e-learning needs \"dynamically allocation of computation and storage resources\"");
        let teaching = self.row(Strategy::FixedTeaching);
        let elastic = self.row(Strategy::Elastic);
        let exam = self.row(Strategy::FixedExam);
        s.note(format!(
            "measured: on the exam day a teaching-sized fixed fleet rejects {}% of requests and \
             the autoscaler {}%; an exam-sized fixed fleet rejects {}% on {:.2}x the \
             autoscaler's vm-hours",
            fmt_f64(teaching.rejected_fraction * 100.0),
            fmt_f64(elastic.rejected_fraction * 100.0),
            fmt_f64(exam.rejected_fraction * 100.0),
            exam.vm_hours / elastic.vm_hours
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Output {
        run(&Scenario::university(41))
    }

    #[test]
    fn the_pool_holds_exactly_pool_vms() {
        let mut dc = pool();
        for _ in 0..POOL_VMS {
            dc.provision(UNIT, SimTime::ZERO).expect("within the pool");
        }
        assert!(dc.provision(UNIT, SimTime::ZERO).is_err());
    }

    #[test]
    fn every_preset_fits_the_pool_and_a_larger_fleet_is_refused() {
        for name in crate::scenario::PRESETS {
            let scenario = Scenario::preset(name, 42).expect("preset exists");
            let fits = check_fleets(&scenario);
            if name == "national-5m" {
                let msg = fits.expect_err("5M students outgrow the pool");
                assert!(msg.contains("640-VM host pool"), "{msg}");
            } else {
                assert_eq!(fits, Ok(()), "{name}");
            }
        }
    }

    #[test]
    fn fixed_teaching_saturates_on_exam_day() {
        let out = output();
        let fixed = out.row(Strategy::FixedTeaching);
        assert!(
            fixed.rejected_fraction > 0.2,
            "rejected {}",
            fixed.rejected_fraction
        );
        assert!(fixed.p95_latency_s >= fleet::MAX_LATENCY_S * 0.9);
    }

    #[test]
    fn elastic_serves_almost_everything() {
        let out = output();
        let elastic = out.row(Strategy::Elastic);
        assert!(
            elastic.rejected_fraction < 0.05,
            "rejected {}",
            elastic.rejected_fraction
        );
    }

    #[test]
    fn fixed_exam_serves_everything_but_idles() {
        let out = output();
        let exam = out.row(Strategy::FixedExam);
        let elastic = out.row(Strategy::Elastic);
        assert!(exam.rejected_fraction < 0.01);
        // Even on the exam day itself — its busiest day of the year — the
        // exam-sized fixed fleet burns ~40% more machine-hours than the
        // autoscaler; on every other day the gap is far larger (E1 prices
        // that waste).
        assert!(
            exam.vm_hours > 1.25 * elastic.vm_hours,
            "exam-sized {} vs elastic {} vm-hours",
            exam.vm_hours,
            elastic.vm_hours
        );
    }

    #[test]
    fn elastic_fleet_moves() {
        let out = output();
        let elastic = out.row(Strategy::Elastic);
        // Fleet grows well beyond its initial size during the surge.
        assert!(elastic.peak_vms > 10.0, "peak {}", elastic.peak_vms);
    }

    #[test]
    fn fixed_fleets_do_not_move() {
        let out = output();
        for s in [Strategy::FixedTeaching, Strategy::FixedExam] {
            let r = out.row(s);
            assert!(
                (r.vm_hours / 24.0 - r.peak_vms).abs() < 1.0,
                "{s}: fleet moved"
            );
        }
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E12");
        assert_eq!(s.table().len(), Strategy::ALL.len());
    }

    #[test]
    fn elastic_recovers_from_host_failure() {
        let out = output();
        let healthy = out.row(Strategy::Elastic);
        let failed = out.row(Strategy::ElasticHostFailure);
        // The autoscaler re-provisions within minutes: the day-level
        // rejected fraction stays small.
        assert!(
            failed.rejected_fraction < 0.05,
            "elastic did not recover: {}",
            failed.rejected_fraction
        );
        assert!(failed.rejected_fraction >= healthy.rejected_fraction);
    }

    #[test]
    fn fixed_fleet_cannot_replace_a_dead_host() {
        let out = output();
        let healthy = out.row(Strategy::FixedExam);
        let failed = out.row(Strategy::FixedExamHostFailure);
        // Losing the busiest host at the peak costs the fixed fleet real
        // traffic (no replacement hardware for weeks).
        assert!(
            failed.rejected_fraction > healthy.rejected_fraction + 0.01,
            "failure had no effect: {} vs {}",
            failed.rejected_fraction,
            healthy.rejected_fraction
        );
        // ... and far more than the self-healing elastic fleet loses.
        let elastic_failed = out.row(Strategy::ElasticHostFailure);
        assert!(failed.rejected_fraction > 3.0 * elastic_failed.rejected_fraction);
    }

    #[test]
    fn deterministic() {
        let a = run(&Scenario::university(8));
        let b = run(&Scenario::university(8));
        assert_eq!(a, b);
    }

    #[test]
    fn fluid_fidelity_tracks_the_event_path() {
        use elc_fluid::Fidelity;
        let event = run(&Scenario::university(42));
        let fluid = run(&Scenario::university(42).with_fidelity(Fidelity::Fluid));
        for s in Strategy::ALL {
            let e = event.row(s);
            let f = fluid.row(s);
            // Demand-side counters see only Poisson noise at this scale.
            assert!(
                (e.rejected_fraction - f.rejected_fraction).abs() < 0.02,
                "{s}: rejected event {} vs fluid {}",
                e.rejected_fraction,
                f.rejected_fraction
            );
            // The autoscaler is rate-driven, so the fleet is identical.
            assert!((e.vm_hours - f.vm_hours).abs() < 1e-9, "{s}: fleet moved");
            assert!((e.peak_vms - f.peak_vms).abs() < 1e-9);
        }
    }
}
