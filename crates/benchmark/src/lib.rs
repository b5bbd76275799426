//! # elc-benchmark — end-to-end benchmark with per-layer attribution
//!
//! Four closed-loop workloads, each run in its own process:
//!
//! * [`report`] — the `paper-tables` deliverable: every experiment of the
//!   report over the four harness scenarios, rendered;
//! * [`replicate`] — `elc-run`'s replication engine over E12/E16/E17/E19;
//! * [`station::EXAM_EVENING`] — E18's `university` station at event
//!   fidelity over three minutes of the exam evening's peak hour;
//! * [`station::EXAM_OVERLOAD`] — E18's station at auto fidelity under 2×
//!   demand, across the switch to event fidelity, shedding.
//!
//! Each workload sets up (builds its inputs from a seed, computes what
//! its [`oracle`]s compare against, runs a checked warm-up operation)
//! several times, runs operations until its time budget is spent, checks
//! every operation's output, and reports the end-to-end metrics in
//! [`END_TO_END`]. A separate traced run records [`span`]s around every
//! layer call and reports the per-layer metrics of [`per_layer_names`].
//! End-to-end numbers only ever come from untraced runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod json;
pub mod oracle;
pub mod replicate;
pub mod report;
pub mod span;
pub mod station;
pub mod stats;

use std::time::Instant;

use elc_analysis::stats::median;
use span::{layer_of, Recorder};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "report",
        "the paper-tables report over four scenarios: core experiments and analysis rendering, single-threaded",
    ),
    (
        "replicate",
        "elc-run replications of e12/e16/e17/e19 at one worker: runner overhead on small tasks, FaaS DES on large",
    ),
    (
        "exam_evening",
        "E18's university station at event fidelity in the exam evening's peak hour: ~150k pending events per tick, beyond L2",
    ),
    (
        "exam_overload",
        "fluid engine at auto fidelity under 2x demand: same station, 6x shallower pending set, a fluid-to-event switch, shedding",
    ),
];

/// End-to-end metrics every untraced run prints: name and unit.
///
/// `op_min_ms` is the run's fastest operation. Other tenants of a small
/// cloud host slow memory-bound code by up to 1.6× for seconds at a
/// time, so a run's median moves with how much of it they overlapped;
/// its fastest operation moves far less. The workloads' medians and
/// tails are printed as readable figures.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_min_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Spans whose self-time share of the operations the traced run reports,
/// as `<span>_pct`.
pub const SPANS: [&str; 34] = [
    "bench.op",
    "core.e01",
    "core.e02",
    "core.e03",
    "core.e04",
    "core.e05",
    "core.e06",
    "core.e07",
    "core.e08",
    "core.e09",
    "core.e10",
    "core.e11",
    "core.e12",
    "core.e13",
    "core.e14",
    "core.e15",
    "core.e16",
    "core.e17",
    "core.e19",
    "core.t1",
    "core.advise",
    "analysis.render",
    "analysis.csv",
    "runner.pool",
    "runner.aggregate",
    "runner.manifest",
    "runner.render",
    "elearn.rate_at",
    "simcore.dist.sample",
    "fluid.engine.sort",
    "simcore.sim.schedule_batch",
    "simcore.sim.dispatch",
    "fluid.queue.step",
    "fluid.control.decide",
];

/// Layers whose summed self-time share the traced run reports, as
/// `<layer>_pct`; with `bench.op_pct`, the benchmark's own share, they
/// add up to 100.
pub const LAYERS: [&str; 6] = ["core", "analysis", "runner", "fluid", "elearn", "simcore"];

/// Counts the traced run reports (per operation).
pub const COUNTS: [&str; 11] = [
    "simcore.sim.executed",
    "simcore.sim.pending_peak",
    "simcore.dist.arrivals",
    "fluid.engine.offered",
    "fluid.engine.served",
    "fluid.engine.shed",
    "fluid.engine.fluid_ticks",
    "fluid.engine.event_ticks",
    "fluid.engine.switches",
    "fluid.engine.materialized",
    "runner.tasks",
];

/// Every per-layer metric a traced run prints: name and unit. A workload
/// that never calls a layer reports 0 for it.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        SPANS.iter().map(|s| (format!("{s}_pct"), "%")).collect();
    out.extend(LAYERS.iter().map(|l| (format!("{l}_pct"), "%")));
    out.extend(COUNTS.iter().map(|c| ((*c).to_string(), "count")));
    out.extend(
        replicate::EXPERIMENTS
            .iter()
            .map(|(id, _)| (format!("runner.efficiency.{id}"), "fraction")),
    );
    out.push(("trace_overhead_pct".to_string(), "%"));
    out
}

/// Share of the measuring budget the set-ups after the first may take.
pub const SETUP_SHARE: f64 = 0.25;

/// How a workload sets up and measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Fewest times the set-up runs; `setup_s` is the median of their
    /// times. The first runs before any timed operation, the others at
    /// even steps through the measuring budget, so that a few seconds of
    /// contention from other tenants of the host slow a few of them
    /// rather than all. A set-up is one sample of a noisy operation, so
    /// as many run as fit in [`SETUP_SHARE`] of the budget, judged by the
    /// first, up to `max_setups`.
    pub setups: u32,
    /// Most times the set-up runs.
    pub max_setups: u32,
    /// Operations each set-up runs (and checks) as its last step.
    pub warmup: u32,
    /// Upper bound on timed operations.
    pub max_ops: u32,
    /// Measuring budget, seconds, counted from the end of the first
    /// set-up and including the later ones: no timed operation starts
    /// once the time spent plus the slowest operation so far would pass
    /// it. One always runs.
    pub seconds: f64,
    /// Record spans (the traced run).
    pub trace: bool,
    /// Where the first set-up's time counts from: the start of the
    /// process for a command-line run.
    pub started: Instant,
}

impl Plan {
    /// The command line's plan: 5 to 15 set-ups, each ending in one
    /// warm-up operation, among timed operations for `seconds`.
    #[must_use]
    pub fn new(seconds: f64, trace: bool, started: Instant) -> Self {
        Plan {
            setups: 5,
            max_setups: 15,
            warmup: 1,
            max_ops: u32::MAX,
            seconds,
            trace,
            started,
        }
    }

    /// One set-up without warm-up, then a single timed operation.
    #[must_use]
    pub fn once(trace: bool) -> Self {
        Plan {
            setups: 1,
            max_setups: 1,
            warmup: 0,
            max_ops: 1,
            ..Plan::new(60.0, trace, Instant::now())
        }
    }
}

/// What the set-ups and the operation loop measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Runs {
    /// Operations run, warm-ups included.
    pub attempted: u64,
    /// Operations whose output failed a check, plus failed checks of the
    /// run as a whole.
    pub failed: u64,
    /// The first few check failures.
    pub errors: Vec<String>,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed operation, seconds.
    pub op_s: Vec<f64>,
}

impl Runs {
    /// Counts a failed check.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// One workload run's measurements.
#[derive(Debug)]
pub struct Outcome {
    /// The set-ups and the operation loop.
    pub runs: Runs,
    /// Workload-specific figures, printed for reading only.
    pub notes: Vec<Metric>,
    /// Per-layer counts and fractions the workload measured itself.
    pub layer: Vec<Metric>,
    /// How to read the traced run's figures, printed with them.
    pub remarks: Vec<&'static str>,
    /// Spans of the traced run (empty when untraced).
    pub recorder: Recorder,
}

/// Sets up and runs a workload. Each of the plan's set-ups calls
/// `setup` — which builds the inputs from the seed and computes the
/// references the checks compare against — then runs the warm-up
/// operations, and is timed from its start (the first from
/// `plan.started`) to the end of its last warm-up. The latest set-up's
/// inputs feed the timed operations until the budget is spent.
///
/// `op` runs one operation (in a `bench.op` span; its flag says whether
/// it is a warm-up); `check` gets every output outside the timed window
/// and may record spans of its own (the station replay).
///
/// # Errors
///
/// Returns the error `setup` returns.
pub fn drive<S, T>(
    plan: &Plan,
    rec: &mut Recorder,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&mut Recorder, &S, bool) -> T,
    mut check: impl FnMut(&mut Recorder, &S, T) -> Result<(), String>,
) -> Result<Runs, String> {
    let mut runs = Runs::default();
    let mut one = |rec: &mut Recorder, inputs: &S, warm: bool, runs: &mut Runs| {
        rec.set_op(u32::try_from(runs.attempted).unwrap_or(u32::MAX));
        let t0 = Instant::now();
        let id = rec.begin("bench.op");
        let out = op(rec, inputs, warm);
        rec.end(id);
        let wall = t0.elapsed().as_secs_f64();
        runs.attempted += 1;
        if let Err(e) = check(rec, inputs, out) {
            runs.fail(e);
        }
        wall
    };
    let mut setups = plan.setups.max(1);
    let mut inputs = None;
    let mut start = plan.started;
    let mut slowest = 0.0f64;
    loop {
        let spent = start.elapsed().as_secs_f64();
        let made = u32::try_from(runs.setup_s.len()).unwrap_or(u32::MAX);
        let ended = runs.op_s.len() >= plan.max_ops as usize
            || (!runs.op_s.is_empty() && spent + slowest > plan.seconds);
        // Set-ups still owed when the operations end run then.
        let due = made == 0
            || (made < setups
                && (ended || spent >= plan.seconds * f64::from(made) / f64::from(setups)));
        if due {
            let t0 = if made == 0 {
                plan.started
            } else {
                Instant::now()
            };
            let built = setup()?;
            for _ in 0..plan.warmup {
                one(rec, &built, true, &mut runs);
            }
            let took = t0.elapsed().as_secs_f64();
            runs.setup_s.push(took);
            inputs = Some(built);
            if made == 0 {
                start = Instant::now();
                let fit = ((SETUP_SHARE * plan.seconds / took) as u32).saturating_add(1);
                setups = fit.clamp(setups, plan.max_setups.max(setups));
            }
        } else if ended {
            return Ok(runs);
        } else {
            let inputs = inputs.as_ref().expect("the first set-up runs first");
            let wall = one(rec, inputs, false, &mut runs);
            slowest = slowest.max(wall);
            runs.op_s.push(wall);
        }
    }
}

impl Outcome {
    /// Every metric of [`END_TO_END`], in order.
    ///
    /// # Errors
    ///
    /// Returns an error when peak memory cannot be read.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let fastest = self.runs.op_s.iter().copied().fold(f64::INFINITY, f64::min);
        let values = [median(&self.runs.setup_s), fastest * 1e3, peak_rss_mib()?];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect())
    }

    /// Every metric of [`per_layer_names`], in order: self-time shares of
    /// the operations' wall time (× lanes), the workload's own counts and
    /// fractions, and the estimated tracing overhead, given the cost of
    /// recording one span.
    #[must_use]
    pub fn per_layer(&self, span_cost_ns: f64) -> Vec<Metric> {
        let rec = &self.recorder;
        let ops = rec.capacity_of("bench.op") as f64;
        let share = |self_ns: i64| {
            if ops > 0.0 {
                self_ns as f64 / ops * 100.0
            } else {
                0.0
            }
        };
        let totals = rec.totals();
        let mut values: Vec<(String, f64)> = totals
            .iter()
            .map(|(name, t)| (format!("{name}_pct"), share(t.self_ns)))
            .collect();
        for layer in LAYERS {
            let own: i64 = totals
                .iter()
                .filter(|(name, _)| layer_of(name) == layer)
                .map(|(_, t)| t.self_ns)
                .sum();
            values.push((format!("{layer}_pct"), share(own)));
        }
        values.extend(self.layer.iter().map(|m| (m.name.clone(), m.value)));
        values.push((
            "trace_overhead_pct".to_string(),
            share((spans_inside_ops(rec) as f64 * span_cost_ns) as i64),
        ));
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                Metric::new(name, v, unit)
            })
            .collect()
    }

    /// Each recorded span name's self time per operation (ms) and calls
    /// per operation — the traced run's readable breakdown.
    #[must_use]
    pub fn span_notes(&self) -> Vec<Metric> {
        let ops = self.runs.attempted.max(1) as f64;
        self.recorder
            .totals()
            .iter()
            .flat_map(|(name, t)| {
                [
                    Metric::new(
                        format!("{name}.self_ms_per_op"),
                        t.self_ns as f64 / ops / 1e6,
                        "ms",
                    ),
                    Metric::new(
                        format!("{name}.calls_per_op"),
                        t.calls as f64 / ops,
                        "count",
                    ),
                ]
            })
            .collect()
    }
}

/// Spans opened while an operation ran: the ones whose recording cost
/// lands inside the timed work.
fn spans_inside_ops(rec: &Recorder) -> usize {
    let ops: Vec<(u64, u64)> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "bench.op")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    rec.spans()
        .iter()
        .filter(|s| ops.iter().any(|&(a, b)| a <= s.start_ns && s.start_ns <= b))
        .count()
}

/// The result object the run prints as its last line.
///
/// # Panics
///
/// Panics on a non-finite metric value, which JSON cannot carry.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Runs one workload by name with the command line's settings (see
/// [`Plan::new`]).
///
/// # Errors
///
/// Unknown workload or missing inputs.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    started: Instant,
) -> Result<Outcome, String> {
    let plan = Plan::new(seconds, trace, started);
    match name {
        "report" => report::run(seed, &plan),
        "replicate" => replicate::run(seed, &replicate::EXPERIMENTS, replicate::THREADS, &plan),
        "exam_evening" => station::run(seed, &station::EXAM_EVENING, &plan),
        "exam_overload" => station::run(seed, &station::EXAM_OVERLOAD, &plan),
        other => Err(format!(
            "unknown workload {other:?} (expected one of: {})",
            WORKLOADS.map(|(w, _)| w).join(", ")
        )),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns an error when `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer_names();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty());
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(3, 1, &[Metric::new("op_min_ms", 1.5, "ms")]);
        let v = json::Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(false)));
    }

    #[test]
    fn drive_sets_up_warms_caps_and_counts_failed_checks() {
        let plan = Plan {
            setups: 2,
            max_setups: 2,
            warmup: 1,
            max_ops: 3,
            seconds: 60.0,
            trace: true,
            started: Instant::now(),
        };
        let mut rec = Recorder::new(true, 1);
        let mut builds = 0;
        let mut n = 0;
        let runs = drive(
            &plan,
            &mut rec,
            || {
                builds += 1;
                Ok(vec![1u8; 16])
            },
            |r, inputs, warm| {
                n += inputs.len() / 16;
                r.span("core.e01", |_| (warm, n))
            },
            |_, _, (warm, out)| {
                if out == 4 {
                    assert!(!warm);
                    Err("four".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap();
        assert_eq!(builds, 2);
        assert_eq!(runs.setup_s.len(), 2);
        // A warm-up, three timed operations, then the owed set-up's warm-up.
        assert_eq!(runs.attempted, 5);
        assert_eq!(runs.op_s.len(), 3);
        assert_eq!((runs.failed, runs.errors.len()), (1, 1));
        assert_eq!(rec.spans().len(), 10);
        assert_eq!(rec.spans().last().unwrap().op, 4);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
