//! The two workloads on E18's serving station, and the traced run's
//! replay of their arrival streams. One operation is one
//! `elc_fluid::engine::run` of the station E18 builds for a region —
//! sized for the scenario's peak at 60% utilization, seeded from E18's
//! region-0 lineage — over part of E18's 16:00–22:00 exam evening:
//!
//! * [`EXAM_EVENING`] — `university` at event fidelity over 19:59–20:02,
//!   into the evening's peak hour: every request is an arrival event plus
//!   a completion event, with ~156k events pending per 60 s tick. Three
//!   ticks (~0.2 s) rather than E18's whole six hours (~18 s) keep a
//!   hundred identical operations in one run, so the fastest of them
//!   filters out other tenants of the host.
//! * [`EXAM_OVERLOAD`] — `small_college` at auto fidelity under 2× the
//!   scenario's demand, over the part of the window where the station
//!   switches from fluid to event fidelity and its waiting room fills:
//!   per-tick batches ~7× smaller, shedding.
//!
//! The engine runs its event loop internally, so the traced run replays
//! each operation's tick structure through the same public calls —
//! `rate_at`, `Poisson::sample` + `range_f64`, the offset sort,
//! `schedule_batch`, `run_for` with a handler that records the latency
//! and schedules the completion, and at auto fidelity
//! `FidelityController::decide` / `FluidQueue::step` — with arrivals
//! drawn from a `seed → "bench-replay"` lineage. The replay is a proxy:
//! it makes the engine's calls in the engine's numbers, but not from
//! inside the engine, and at the event station it costs about what the
//! engine does. So the engine's wall time is split among the replayed
//! calls in the proportions the replay measured, and the replay's cost
//! over the engine's is printed; a ratio outside
//! [`REPLAY_RATIO_LIMIT`] fails the traced run. Its copy of the engine's
//! surge rule must match the engine's, or every traced operation fails
//! its tick-path check.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use elc_analysis::stats::median;
use elc_core::scenario::Scenario;
use elc_elearn::source::WorkloadSource;
use elc_fluid::{
    EngineConfig, EngineReport, Fidelity, FidelityController, FluidQueue, Mode, Signals,
};
use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

use crate::span::Recorder;
use crate::{drive, oracle, Metric, Outcome, Plan};

/// E18 sizes each station for its peak at this utilization.
const E18_TARGET_UTIL: f64 = 0.6;

/// A station workload.
#[derive(Debug, Clone, Copy)]
pub struct Station {
    /// Prefix of the workload's readable figures.
    pub label: &'static str,
    /// The scenario preset, by seed.
    pub scenario: fn(u64) -> Scenario,
    /// Engine fidelity.
    pub fidelity: Fidelity,
    /// Start after E18's 16:00 window start.
    pub offset: SimDuration,
    /// Simulated span.
    pub horizon: SimDuration,
    /// Offered demand over the scenario's rate curve.
    pub demand: f64,
}

/// `exam_evening`: 19:59–20:02 at event fidelity, into the evening's
/// peak hour. The rate step at 20:00 always outgrows the pending-event
/// set reserved for 19:59, so the set's growth, and with it peak memory,
/// does not depend on the seed; within a flat hour it would grow or not
/// with the Poisson draws.
pub const EXAM_EVENING: Station = Station {
    label: "evening",
    scenario: Scenario::university,
    fidelity: Fidelity::Event,
    offset: SimDuration::from_mins(239),
    horizon: SimDuration::from_mins(3),
    demand: 1.0,
};

/// `exam_overload`: 16:55–19:15 at auto fidelity, 2× demand. The station
/// integrates fluid until the 17:00 rate step, switches to event
/// fidelity, and sheds once demand passes capacity after 19:00.
pub const EXAM_OVERLOAD: Station = Station {
    label: "overload",
    scenario: Scenario::small_college,
    fidelity: Fidelity::Auto,
    offset: SimDuration::from_mins(55),
    horizon: SimDuration::from_mins(140),
    demand: 2.0,
};

/// The engine's surge trigger, mirrored so the replay takes the same
/// fluid/event path at auto fidelity: a rate step above 5% of capacity
/// while utilization is above 70%.
const SURGE_STEP: f64 = 0.05;
const SURGE_UTIL_FLOOR: f64 = 0.70;

/// The replay's cost over the engine's, summed over a traced run, must
/// lie within `[1 / limit, limit]`. One operation's ratio moves by up to
/// 25% with other tenants of the host; a run's, by a few percent.
pub const REPLAY_RATIO_LIMIT: f64 = 1.25;

/// E18's exam-evening window start: 16:00 on the second exam day.
fn window_start(scenario: &Scenario) -> SimTime {
    scenario.calendar().exams_start() + SimDuration::from_days(1) + SimDuration::from_hours(16)
}

/// One replayed call: its span name and wall time.
type Call = (&'static str, Duration);

fn timed<R>(calls: &mut Vec<Call>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    calls.push((name, start.elapsed()));
    r
}

/// What the replays of a run executed, summed over operations
/// (`pending_peak` is the maximum).
#[derive(Debug, Clone, Default, PartialEq)]
struct Replay {
    /// Arrivals drawn.
    arrivals: u64,
    /// Events dispatched (an arrival and a completion per request).
    executed: u64,
    /// Largest pending-event set right after a tick's batch.
    pending_peak: usize,
    /// Ticks replayed per request.
    event_ticks: u64,
    /// Ticks replayed as fluid.
    fluid_ticks: u64,
    /// Unscaled wall time and count of the replayed calls, by span name.
    calls: BTreeMap<&'static str, (Duration, u64)>,
    /// Wall time of the engine runs replayed.
    engine: Duration,
}

impl Replay {
    fn add(&mut self, one: &Replay, calls: &[Call]) {
        self.arrivals += one.arrivals;
        self.executed += one.executed;
        self.pending_peak = self.pending_peak.max(one.pending_peak);
        self.event_ticks += one.event_ticks;
        self.fluid_ticks += one.fluid_ticks;
        for &(name, wall) in calls {
            let c = self.calls.entry(name).or_default();
            c.0 += wall;
            c.1 += 1;
        }
    }

    fn replayed(&self) -> Duration {
        self.calls.values().map(|c| c.0).sum()
    }
}

/// Replays one engine run's tick structure; returns what it executed and
/// its calls in order.
fn replay(cfg: &EngineConfig, rate_at: &dyn Fn(SimTime) -> f64, seed: u64) -> (Replay, Vec<Call>) {
    let mut rng = SimRng::seed(seed).derive("bench-replay");
    let served = Served {
        service: cfg.service_time,
        latency: Histogram::new(),
    };
    let mut sim = Simulation::new(rng.derive("sim").next_u64(), served);
    let mut controller = FidelityController::standard();
    let capacity = cfg.capacity_rps();
    let mut fluid = FluidQueue::new(1, capacity, cfg.queue_limit as f64);
    let mut offsets: Vec<SimDuration> = Vec::new();
    let tick_s = cfg.tick.as_secs_f64();
    let ticks = cfg.horizon.as_nanos() / cfg.tick.as_nanos();
    let mut out = Replay::default();
    let mut calls = Vec::new();
    for i in 0..ticks {
        let t = cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i);
        if cfg.fidelity == Fidelity::Auto {
            let (rate, next) = timed(&mut calls, "elearn.rate_at", || {
                (rate_at(t), rate_at(t + cfg.tick))
            });
            let utilization = rate / capacity;
            let signals = Signals {
                scale_boundary: (next - rate).abs() / capacity > SURGE_STEP
                    && utilization.max(next / capacity) > SURGE_UTIL_FLOOR,
                ..Signals::steady(utilization)
            };
            let mode = timed(&mut calls, "fluid.control.decide", || {
                controller.decide(t.as_nanos(), &signals)
            });
            if mode == Mode::Fluid {
                timed(&mut calls, "fluid.queue.step", || {
                    fluid.step(cfg.tick, &[rate], cfg.substeps)
                });
                out.fluid_ticks += 1;
                continue;
            }
        }
        let rate = timed(&mut calls, "elearn.rate_at", || rate_at(t));
        out.event_ticks += 1;
        let n = timed(&mut calls, "simcore.dist.sample", || {
            let n = Poisson::new((rate * tick_s).max(0.0))
                .expect("rate is finite and non-negative")
                .sample(&mut rng);
            offsets.clear();
            for _ in 0..n {
                offsets.push(SimDuration::from_secs_f64(rng.range_f64(0.0, tick_s)));
            }
            n
        });
        timed(&mut calls, "fluid.engine.sort", || offsets.sort_unstable());
        timed(&mut calls, "simcore.sim.schedule_batch", || {
            sim.schedule_batch(&offsets, arrive);
        });
        out.pending_peak = out.pending_peak.max(sim.pending());
        timed(&mut calls, "simcore.sim.dispatch", || sim.run_for(cfg.tick));
        out.arrivals += n;
    }
    timed(&mut calls, "simcore.sim.dispatch", || sim.run());
    out.executed = sim.executed();
    // Nothing reads the replayed state; keep its updates from being elided.
    std::hint::black_box((sim.state(), &fluid));
    (out, calls)
}

/// The replay's station state: what its arrival handler reads and
/// records.
struct Served {
    service: SimDuration,
    latency: Histogram,
}

/// An arrival as the engine handles one that finds a free server (the
/// common path at both stations): record its latency, schedule its
/// completion. `Histogram::record` therefore counts in the dispatch span,
/// as in the engine.
fn arrive(sim: &mut Simulation<Served>) {
    let st = sim.state_mut();
    let service = st.service;
    st.latency.record(service.as_secs_f64());
    sim.schedule_in(service, |_| {});
}

/// Replays the operation just run (traced runs only), splits the engine
/// span's wall time among the replayed calls in their measured
/// proportions, and checks that the replay took the engine's fluid/event
/// path.
fn replay_op(
    rec: &mut Recorder,
    total: &mut Replay,
    cfg: &EngineConfig,
    rate_at: &dyn Fn(SimTime) -> f64,
    seed: u64,
    engine: &EngineReport,
) -> Result<(), String> {
    if !rec.enabled() {
        return Ok(());
    }
    let parent = rec
        .last_named("fluid.engine")
        .expect("every operation runs in a fluid.engine span");
    let (one, calls) = replay(cfg, rate_at, seed);
    let wall = rec.spans()[parent].capacity_ns();
    let replayed: Duration = calls.iter().map(|c| c.1).sum();
    let scale = wall as f64 / (replayed.as_nanos() as f64).max(1.0);
    for &(name, d) in &calls {
        // Rounded down, so the children never outgrow the engine span.
        let ns = (d.as_nanos() as f64 * scale) as u64;
        rec.add(name, Some(parent), Duration::from_nanos(ns));
    }
    total.engine += Duration::from_nanos(wall);
    total.add(&one, &calls);
    if (one.event_ticks, one.fluid_ticks) == (engine.event_ticks, engine.fluid_ticks) {
        Ok(())
    } else {
        Err(format!(
            "replay ran {}/{} event/fluid ticks, the engine {}/{}",
            one.event_ticks, one.fluid_ticks, engine.event_ticks, engine.fluid_ticks
        ))
    }
}

/// The engine's counts for one operation.
fn counts(r: &EngineReport) -> Vec<Metric> {
    vec![
        Metric::new("simcore.sim.executed", r.events_executed as f64, "count"),
        Metric::new("fluid.engine.offered", r.offered, "count"),
        Metric::new("fluid.engine.served", r.served, "count"),
        Metric::new("fluid.engine.shed", r.shed, "count"),
        Metric::new("fluid.engine.fluid_ticks", r.fluid_ticks as f64, "count"),
        Metric::new("fluid.engine.event_ticks", r.event_ticks as f64, "count"),
        Metric::new("fluid.engine.switches", f64::from(r.switches), "count"),
        Metric::new("fluid.engine.materialized", r.materialized as f64, "count"),
    ]
}

/// Readable figures: wall time and events/s of the run's operations, and
/// in the traced run the replayed calls' own cost per arrival, event or
/// call, and the replay's cost over the engine's.
fn notes(label: &str, runs_s: &[f64], events: u64, replayed: &Replay) -> Vec<Metric> {
    let wall = median(runs_s);
    let mut out = vec![
        Metric::new(format!("{label}_s"), wall, "s"),
        Metric::new("sim_events_per_s", events as f64 / wall, "events/s"),
    ];
    if replayed.calls.is_empty() {
        return out;
    }
    let ns = |name: &str| {
        replayed
            .calls
            .get(name)
            .map_or(0.0, |c| c.0.as_nanos() as f64)
    };
    let calls = |name: &str| replayed.calls.get(name).map_or(0, |c| c.1).max(1) as f64;
    let arrivals = replayed.arrivals.max(1) as f64;
    out.extend([
        Metric::new(
            "elearn.rate_at_ns",
            ns("elearn.rate_at") / calls("elearn.rate_at"),
            "ns",
        ),
        Metric::new(
            "simcore.dist.sample_ns_per_arrival",
            ns("simcore.dist.sample") / arrivals,
            "ns",
        ),
        Metric::new(
            "fluid.engine.sort_ns_per_arrival",
            ns("fluid.engine.sort") / arrivals,
            "ns",
        ),
        Metric::new(
            "simcore.sim.schedule_batch_ns_per_event",
            ns("simcore.sim.schedule_batch") / arrivals,
            "ns",
        ),
        Metric::new(
            "simcore.sim.dispatch_ns_per_event",
            ns("simcore.sim.dispatch") / replayed.executed.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "fluid.queue.step_ns_per_tick",
            ns("fluid.queue.step") / calls("fluid.queue.step"),
            "ns",
        ),
        Metric::new(
            "fluid.control.decide_ns",
            ns("fluid.control.decide") / calls("fluid.control.decide"),
            "ns",
        ),
        Metric::new(
            "fluid.engine.replay_ratio",
            replay_ratio(replayed),
            "fraction",
        ),
    ]);
    out
}

/// The replay's cost over the engine's, over the whole run.
fn replay_ratio(replayed: &Replay) -> f64 {
    replayed.replayed().as_secs_f64() / replayed.engine.as_secs_f64().max(1e-9)
}

fn replay_counts(replayed: &Replay, ops: usize) -> Vec<Metric> {
    vec![
        Metric::new(
            "simcore.sim.pending_peak",
            replayed.pending_peak as f64,
            "count",
        ),
        Metric::new(
            "simcore.dist.arrivals",
            replayed.arrivals as f64 / ops.max(1) as f64,
            "count",
        ),
    ]
}

/// What a set-up builds: the scenario's demand, the station, and the
/// fluid-fidelity run of the same station the oracle compares against.
struct Inputs {
    workload: Box<dyn WorkloadSource>,
    cfg: EngineConfig,
    fluid: EngineReport,
}

/// The station's offered-rate curve.
fn demand<'a>(station: &'a Station, inputs: &'a Inputs) -> impl Fn(SimTime) -> f64 + 'a {
    move |t| station.demand * inputs.workload.rate_at(t)
}

/// How to read a station workload's traced figures.
const PROXY_REMARK: &str = "the simcore, elearn, fluid.engine.sort, fluid.queue and \
     fluid.control shares split the engine's wall time in the proportions a proxy replay \
     of each operation measured through the layers' public calls, not the engine's own \
     calls; fluid.engine.replay_ratio is the replay's cost over the engine's";

/// Runs a station workload. Every operation must report exactly what the
/// first one did, conserve requests, and agree with the fluid reference
/// within E18's tolerances. A traced run fails a check of its own when
/// the proxy replay's cost strays from the engine's by more than
/// [`REPLAY_RATIO_LIMIT`].
pub fn run(seed: u64, station: &Station, plan: &Plan) -> Result<Outcome, String> {
    let mut rec = Recorder::new(plan.trace, 1);
    let mut replayed = Replay::default();
    let mut first: Option<EngineReport> = None;
    let mut runs = drive(
        plan,
        &mut rec,
        || {
            let scenario = (station.scenario)(seed);
            let workload = scenario.workload();
            let cfg = EngineConfig {
                start: window_start(&scenario) + station.offset,
                horizon: station.horizon,
                ..EngineConfig::sized_for(workload.peak_rate(), E18_TARGET_UTIL, station.fidelity)
            };
            let fluid_cfg = EngineConfig {
                fidelity: Fidelity::Fluid,
                ..cfg.clone()
            };
            let rate_at = |t: SimTime| station.demand * workload.rate_at(t);
            let fluid = elc_fluid::engine::run(&fluid_cfg, &rate_at, &mut engine_rng(seed));
            Ok(Inputs {
                workload,
                cfg,
                fluid,
            })
        },
        |rec, inputs, _| {
            rec.span("fluid.engine", |_| {
                elc_fluid::engine::run(&inputs.cfg, &demand(station, inputs), &mut engine_rng(seed))
            })
        },
        |rec, inputs, out| {
            let reference = first.get_or_insert_with(|| out.clone());
            if out != *reference {
                return Err("engine report differs from the first run's".to_string());
            }
            oracle::conservation(&out, &inputs.cfg)?;
            oracle::fluid_agreement(&out, &inputs.fluid)?;
            let rate_at = demand(station, inputs);
            replay_op(rec, &mut replayed, &inputs.cfg, &rate_at, seed, &out)
        },
    )?;
    let first = first.expect("one operation always runs");
    let mut layer = counts(&first);
    let mut remarks = Vec::new();
    if rec.enabled() {
        layer.extend(replay_counts(&replayed, runs.attempted as usize));
        remarks.push(PROXY_REMARK);
        let ratio = replay_ratio(&replayed);
        if !(1.0 / REPLAY_RATIO_LIMIT..=REPLAY_RATIO_LIMIT).contains(&ratio) {
            runs.fail(format!(
                "the proxy replay cost {ratio:.3} of the engine runs it attributes"
            ));
        }
    }
    Ok(Outcome {
        notes: notes(station.label, &runs.op_s, first.events_executed, &replayed),
        runs,
        layer,
        remarks,
        recorder: rec,
    })
}

/// E18's lineage for region 0's station.
fn engine_rng(seed: u64) -> SimRng {
    SimRng::seed(seed).derive("e18").derive_u64(0)
}
