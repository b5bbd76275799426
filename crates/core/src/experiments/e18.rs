//! E18 — National exam federation at hybrid fidelity.
//!
//! Paper claim under test: the review pitches cloud deployment as the
//! way e-learning platforms reach national scale ("dynamically
//! allocation of computation and storage resources" for populations no
//! campus datacenter could host). The suite's other experiments top out
//! at `national-platform` (150k students) because per-request
//! discrete-event simulation is linear in request count; a 5M-student
//! federation offers billions of requests on an exam evening, which no
//! event-level run can turn around.
//!
//! E18 is the scale experiment the fluid fast path exists for: each
//! region of the federation is one pooled serving station run through
//! the [`elc_fluid`] engine at the scenario's fidelity —
//!
//! * **event** — exact per-request simulation; refused by `elc` at
//!   national scale (its event budget, see [`event_count_estimate`]),
//! * **fluid** — per-tick flow integration, cost independent of the
//!   request volume,
//! * **auto** — fluid in steady state, materialized to event level
//!   around utilization spikes and surge boundaries.
//!
//! The simulated window is the evening of the second exam day
//! (16:00–22:00, bracketing the 19:00–20:00 diurnal peak under the 4×
//! exam multiplier): the six hours a national platform is provisioned
//! for. Regions split the national rate curve evenly and run as
//! independent shard jobs with per-region RNG lineages, so the output
//! is deterministic at any worker count.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_fluid::{EngineConfig, EngineReport, Fidelity};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use crate::scenario::Scenario;

/// Window start within the exam day (16:00).
const WINDOW_START: SimDuration = SimDuration::from_hours(16);

/// Simulated span: the provisioned evening window. Public so the
/// `a5_hotpath` bench can convert a wall-clock measurement into
/// simulated student-seconds per second.
pub const WINDOW: SimDuration = SimDuration::from_hours(6);

/// Stations are sized for the regional peak at this utilization.
const TARGET_UTIL: f64 = 0.6;

/// One region's station, measured over the window.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRow {
    /// Region index (0-based).
    pub region: u32,
    /// The engine's measurements for this region.
    pub report: EngineReport,
}

/// E18 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Fidelity the run used (from the scenario).
    pub fidelity: Fidelity,
    /// One row per region, region order.
    pub rows: Vec<RegionRow>,
}

/// Where the exam-evening window sits on the workload's clock.
fn window_start(scenario: &Scenario) -> SimTime {
    // Day 2 of the exam period — the same day E12 surges on.
    scenario.calendar().exams_start() + SimDuration::from_days(1) + WINDOW_START
}

/// Regions in the federation: one per configured shard.
fn regions(scenario: &Scenario) -> u32 {
    scenario.shards().max(1)
}

/// Estimated discrete events an event-fidelity run would execute
/// (arrival + completion per request, mean rate over the window). The
/// CLI's feasibility guard compares this against its event budget
/// before letting `--fidelity event` loose on a national scenario.
#[must_use]
pub fn event_count_estimate(scenario: &Scenario) -> f64 {
    let workload = scenario.workload();
    let start = window_start(scenario);
    let mean = workload.mean_rate(start, start + WINDOW, SimDuration::from_mins(10));
    mean * WINDOW.as_secs_f64() * 2.0
}

/// Simulates one region's station at the given fidelity.
fn simulate_region(scenario: &Scenario, region: u32, fidelity: Fidelity) -> RegionRow {
    let workload = scenario.workload();
    let share = f64::from(regions(scenario));
    let start = window_start(scenario);
    let cfg = EngineConfig {
        start,
        horizon: WINDOW,
        ..EngineConfig::sized_for(workload.peak_rate() / share, TARGET_UTIL, fidelity)
    };
    let mut rng = SimRng::seed(scenario.seed())
        .derive("e18")
        .derive_u64(u64::from(region));
    let rate_at = move |t: SimTime| workload.rate_at(t) / share;
    let report = elc_fluid::engine::run(&cfg, &rate_at, &mut rng);
    RegionRow { region, report }
}

/// Runs every region at the scenario's fidelity.
///
/// Regions have independent RNG lineages, so with `scenario.shards() > 1`
/// they run as parallel shard jobs; collection stays in region order at
/// any worker count.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let fidelity = scenario.fidelity();
    let n = regions(scenario);
    let jobs: Vec<_> = (0..n)
        .map(|region| move || simulate_region(scenario, region, fidelity))
        .collect();
    let rows = elc_simcore::shard::run_jobs(scenario.shards(), jobs);
    Output { fidelity, rows }
}

impl Output {
    /// Requests offered across the federation.
    #[must_use]
    pub fn offered(&self) -> f64 {
        self.rows.iter().map(|r| r.report.offered).sum()
    }

    /// Requests served across the federation.
    #[must_use]
    pub fn served(&self) -> f64 {
        self.rows.iter().map(|r| r.report.served).sum()
    }

    /// Requests shed across the federation.
    #[must_use]
    pub fn shed(&self) -> f64 {
        self.rows.iter().map(|r| r.report.shed).sum()
    }

    /// Discrete events executed across the federation (0 when every
    /// region stayed fluid).
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.rows.iter().map(|r| r.report.events_executed).sum()
    }

    /// Worst regional p95 latency, seconds.
    #[must_use]
    pub fn worst_p95_s(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.report.p95_latency_s)
            .fold(0.0, f64::max)
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "region",
            "offered (req)",
            "served (req)",
            "shed (%)",
            "p95 latency (s)",
            "util (%)",
            "events",
            "fluid ticks",
            "switches",
        ]);
        for r in &self.rows {
            let rep = &r.report;
            t.row(
                format!("region-{}", r.region),
                vec![
                    Cell::num(rep.offered),
                    Cell::num(rep.served),
                    Cell::num(rep.shed_fraction() * 100.0),
                    Cell::num(rep.p95_latency_s),
                    Cell::num(rep.mean_utilization * 100.0),
                    Cell::num(rep.events_executed as f64),
                    Cell::num(rep.fluid_ticks as f64),
                    Cell::num(f64::from(rep.switches)),
                ],
            );
        }
        let offered = self.offered();
        let shed_pct = if offered > 0.0 {
            self.shed() / offered * 100.0
        } else {
            0.0
        };
        let util = self
            .rows
            .iter()
            .map(|r| r.report.mean_utilization)
            .sum::<f64>()
            / self.rows.len().max(1) as f64;
        t.row(
            "total".to_string(),
            vec![
                Cell::num(offered),
                Cell::num(self.served()),
                Cell::num(shed_pct),
                Cell::num(self.worst_p95_s()),
                Cell::num(util * 100.0),
                Cell::num(self.events_executed() as f64),
                Cell::num(self.rows.iter().map(|r| r.report.fluid_ticks).sum::<u64>() as f64),
                Cell::num(f64::from(
                    self.rows.iter().map(|r| r.report.switches).sum::<u32>(),
                )),
            ],
        );
        t
    }

    /// The typed metrics, without rendering the table.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metric_table().metrics()
    }

    /// Renders the E18 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E18",
            "National exam federation: hybrid-fidelity scale-out",
            self.metric_table().to_table(),
        );
        s.note(format!(
            "fidelity: {} — fluid integration makes the evening window tractable at national scale",
            self.fidelity
        ));
        s.note("paper abstract: clouds give e-learning \"dynamically allocation of computation and storage resources\" beyond campus scale");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_tracks_event_totals_at_college_scale() {
        let scenario = Scenario::small_college(42);
        let event = run(&scenario.clone().with_fidelity(Fidelity::Event));
        let fluid = run(&scenario.with_fidelity(Fidelity::Fluid));
        assert!(event.events_executed() > 0);
        assert_eq!(fluid.events_executed(), 0);
        let rel = (event.served() - fluid.served()).abs() / event.served();
        assert!(
            rel < 0.02,
            "served: event {} vs fluid {} ({rel})",
            event.served(),
            fluid.served()
        );
        let shed_gap = (event.shed() / event.offered() - fluid.shed() / fluid.offered()).abs();
        assert!(shed_gap < 0.02, "shed fractions diverge by {shed_gap}");
    }

    #[test]
    fn national_5m_completes_in_auto_and_stays_fluid() {
        let out = run(&Scenario::national_5m(42));
        assert_eq!(out.fidelity, Fidelity::Auto);
        assert_eq!(out.rows.len(), 4, "one station per region");
        // A provisioned national station never leaves steady state, so
        // auto fidelity integrates the whole window as fluid — that is
        // what makes 5M students tractable at all.
        assert_eq!(out.events_executed(), 0);
        assert!(
            out.offered() > 1.0e9,
            "a 5M-student exam evening offers billions of requests, got {}",
            out.offered()
        );
        assert!(out.shed() / out.offered() < 0.01);
    }

    #[test]
    fn event_estimate_separates_campus_from_national_scale() {
        let campus = event_count_estimate(&Scenario::university(1));
        let national = event_count_estimate(&Scenario::national_5m(1));
        assert!(
            campus < 2.0e9,
            "a university evening must fit the event budget: {campus}"
        );
        assert!(
            national > 2.0e9,
            "a 5M-student evening must blow the event budget: {national}"
        );
    }

    #[test]
    fn deterministic_across_runs_and_worker_counts() {
        let a = run(&Scenario::national_5m(7));
        let b = run(&Scenario::national_5m(7));
        assert_eq!(a, b);
        let serial = elc_simcore::shard::with_worker_budget(1, || run(&Scenario::national_5m(7)));
        assert_eq!(a, serial);
    }

    #[test]
    fn section_shape() {
        let out = run(&Scenario::national_5m(3));
        let s = out.section();
        assert_eq!(s.id(), "E18");
        // One row per region plus the totals row.
        assert_eq!(s.table().len(), out.rows.len() + 1);
    }
}
