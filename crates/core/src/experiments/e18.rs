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
use elc_elearn::source::WorkloadSource;
use elc_fluid::{EngineConfig, EngineReport, Fidelity};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use super::fleet;
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

/// Where the exam-evening window sits on the workload's clock: on the
/// day E12 surges on.
fn window_start(scenario: &Scenario) -> SimTime {
    fleet::exam_day(scenario) + WINDOW_START
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

/// The most arrivals one tick may materialize at event or auto fidelity.
/// The engine holds a tick's arrivals in memory at once, 24 bytes each
/// (an offset and a pending event), so this caps a tick at 1.5 GiB. A
/// region of `national-5m` offers under 8M a tick at its peak.
const MAX_TICK_ARRIVALS: f64 = (1u64 << 26) as f64;

/// The station each region of `scenario` runs at `fidelity`, sized for
/// the region's share of `workload`'s declared peak.
///
/// An offered rate above the station's capacity is not refused: the
/// station sheds the excess, as it does in any overload.
///
/// # Errors
///
/// When the station cannot run: the declared peak is not a positive
/// number whose server count fits a `u64`, or — at the fidelities that
/// materialize requests — one tick of the window offers more than
/// [`MAX_TICK_ARRIVALS`] arrivals.
fn region_station(
    scenario: &Scenario,
    workload: &dyn WorkloadSource,
    fidelity: Fidelity,
) -> Result<EngineConfig, String> {
    let share = f64::from(regions(scenario));
    let peak = workload.peak_rate() / share;
    let refuse = |why: String| Err(format!("e18 on {}: {why}", scenario.name()));
    if !(peak.is_finite() && peak > 0.0) {
        return refuse(format!("cannot size a station for a peak of {peak} req/s"));
    }
    let cfg = EngineConfig {
        start: window_start(scenario),
        horizon: WINDOW,
        ..EngineConfig::sized_for(peak, TARGET_UTIL, fidelity)
    };
    // `sized_for` saturates a server count past `u64::MAX`.
    if cfg.servers == u64::MAX {
        return refuse(format!(
            "a peak of {peak:e} req/s per region needs more servers than a station counts"
        ));
    }
    if fidelity != Fidelity::Fluid {
        // The instants the event and auto engines read the rate at.
        let ticks = cfg.horizon.as_nanos() / cfg.tick.as_nanos();
        let busiest = (0..=ticks)
            .map(|i| workload.rate_at(cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i)))
            .fold(0.0, f64::max)
            / share;
        let arrivals = busiest * cfg.tick.as_secs_f64();
        if arrivals > MAX_TICK_ARRIVALS {
            return refuse(format!(
                "one tick of the window offers {arrivals:.1e} arrivals per region, beyond the \
                 {MAX_TICK_ARRIVALS} an event-level tick materializes; rerun with \
                 --fidelity fluid"
            ));
        }
    }
    Ok(cfg)
}

/// Checks that every region's station can run, building them the way
/// [`run`] does: one workload source per region, each claiming its
/// replay stream from a clone of `scenario`, so the run's own stream
/// claims stay untouched.
///
/// # Errors
///
/// Names the first station that cannot run: its declared peak is not a
/// positive number whose server count fits a `u64`, or, at event and
/// auto fidelity, one tick of the window offers more arrivals than an
/// event-level tick materializes (2^26).
pub fn check_stations(scenario: &Scenario) -> Result<(), String> {
    let probe = scenario.clone();
    for _ in 0..regions(&probe) {
        region_station(&probe, probe.workload().as_ref(), probe.fidelity())?;
    }
    Ok(())
}

/// Simulates one region's station at the given fidelity.
fn simulate_region(scenario: &Scenario, region: u32, fidelity: Fidelity) -> RegionRow {
    let workload = scenario.workload();
    let share = f64::from(regions(scenario));
    let cfg = region_station(scenario, workload.as_ref(), fidelity)
        .expect("elc refuses stations that cannot run (see check_stations)");
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

    /// Runs `preset` at `fidelity` over 1, 2 and 4 regions and seeds
    /// 1..=8, and checks that every region's station accounts for its
    /// offered requests at the horizon: what was neither served nor shed
    /// is still waiting or in service, so it is non-negative and fits the
    /// servers plus the waiting room. The slack covers auto fidelity's mix
    /// of integer event tallies and fluid volumes.
    fn assert_regions_conserve(preset: fn(u64) -> Scenario, fidelity: Fidelity) {
        for regions in [1, 2, 4] {
            for seed in 1..=8 {
                let scenario = preset(seed).with_fidelity(fidelity).with_shards(regions);
                let cfg = region_station(&scenario, scenario.workload().as_ref(), fidelity)
                    .expect("report presets run");
                let room = (cfg.servers + cfg.queue_limit) as f64;
                for row in run(&scenario).rows {
                    let rep = &row.report;
                    let ctx = format!(
                        "{} {fidelity} seed {seed}, region {} of {regions}",
                        scenario.name(),
                        row.region
                    );
                    let slack = 1e-6 * rep.offered;
                    let left = rep.offered - rep.served - rep.shed;
                    assert!(
                        left >= -slack,
                        "{ctx}: served {} + shed {} exceeds offered {}",
                        rep.served,
                        rep.shed,
                        rep.offered
                    );
                    assert!(
                        left <= room + slack,
                        "{ctx}: {left} requests unaccounted for, more than {room} servers + \
                         waiting room"
                    );
                }
            }
        }
    }

    #[test]
    fn every_region_conserves_requests_at_the_horizon() {
        for preset in [Scenario::small_college, Scenario::university] {
            for fidelity in [Fidelity::Fluid, Fidelity::Auto] {
                assert_regions_conserve(preset, fidelity);
            }
        }
    }

    #[test]
    #[ignore = "24 event-level runs, ~2 min in debug: run in release with --include-ignored"]
    fn every_region_conserves_requests_at_event_fidelity() {
        assert_regions_conserve(Scenario::small_college, Fidelity::Event);
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
