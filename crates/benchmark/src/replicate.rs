//! `replicate`: one operation is one round of `elc-run` — a replicated
//! run of each experiment in [`EXPERIMENTS`] on `university`, through the
//! runner's pool, aggregation, manifest and section render.

use std::time::{Duration, Instant};

use elc_analysis::metrics::MetricSet;
use elc_analysis::stats::median;
use elc_core::experiments::find;
use elc_core::scenario::Scenario;
use elc_runner::aggregate::aggregate;
use elc_runner::pool::run_tasks;
use elc_runner::progress::Silent;
use elc_runner::{RunManifest, RunOutcome, RunSpec};

use crate::span::Recorder;
use crate::{drive, oracle, Metric, Outcome, Plan};

/// Experiments and replication counts per round (~0.5 s at one worker).
/// E19's ~0.3 ms tasks expose the runner's per-task overhead; E17's
/// ~25 ms FaaS simulations hide it.
pub const EXPERIMENTS: [(&str, u32); 4] = [("e12", 64), ("e16", 128), ("e17", 8), ("e19", 512)];

/// Replication workers of the command line's runs, as `elc-run
/// --threads 1` (experiments still fan their own jobs out over the
/// machine). A round on two workers lasts as long as its slower vCPU, and
/// on a 2-vCPU host shared with other tenants its fastest round moved by
/// 8–29% (interquartile range over median) from run to run, against 7–10%
/// at one worker.
pub const THREADS: usize = 1;

/// The span a replication of experiment `id` is recorded under: the same
/// `core.<id>` span as the experiment's run in `report`.
fn task_span(id: &str) -> &'static str {
    crate::SPANS
        .into_iter()
        .find(|s| s.strip_prefix("core.") == Some(id))
        .unwrap_or("core.other")
}

/// One experiment's replicated run inside a round.
#[derive(Debug, Clone)]
struct Part {
    /// Rendered aggregate section (thread-count invariant).
    section: String,
    /// Pooled metrics of the replications the oracle recomputes.
    picked: Vec<(u32, MetricSet)>,
    /// Wall time of the pool.
    pool: Duration,
    /// Summed task wall time.
    busy: Duration,
    /// Median task wall time.
    task_p50: Duration,
    aggregate: Duration,
    render: Duration,
}

/// Replications the oracle recomputes serially: first, middle and last.
fn picks(replications: u32) -> Vec<u32> {
    let mut p = vec![0, replications / 2, replications - 1];
    p.dedup();
    p
}

fn timed<R>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    rec.span(name, |_| {
        let start = Instant::now();
        let r = f();
        (r, start.elapsed())
    })
}

fn replicate(rec: &mut Recorder, spec: &RunSpec) -> Part {
    let pool = rec.begin("runner.pool");
    let start = Instant::now();
    let results = run_tasks(spec, &mut Silent);
    let pool_wall = start.elapsed();
    let name = task_span(spec.experiment().id());
    for r in &results {
        rec.add(name, pool, r.wall);
    }
    rec.end(pool);
    let ((summaries, dropped), aggregate_wall) =
        timed(rec, "runner.aggregate", || aggregate(&results));
    let (manifest, _) = timed(rec, "runner.manifest", || {
        RunManifest::new(spec, &results, pool_wall)
    });
    let outcome = RunOutcome {
        summaries,
        dropped,
        traces: Vec::new(),
        manifest,
    };
    let (section, render_wall) = timed(rec, "runner.render", || {
        outcome.aggregate_section().to_string()
    });
    let walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    Part {
        section,
        picked: picks(spec.replications())
            .into_iter()
            .map(|i| (i, results[i as usize].metrics.clone()))
            .collect(),
        pool: pool_wall,
        busy: results.iter().map(|r| r.wall).sum(),
        task_p50: Duration::from_secs_f64(median(&walls)),
        aggregate: aggregate_wall,
        render: render_wall,
    }
}

/// What a set-up builds: the run specs, and the replications the oracle
/// compares against, recomputed serially with `Experiment::run`.
struct Inputs {
    specs: Vec<RunSpec>,
    serial: Vec<Vec<(u32, MetricSet)>>,
}

/// Runs the workload: `reps` lists experiment ids with their replication
/// counts.
///
/// # Errors
///
/// An unknown experiment id.
pub fn run(
    seed: u64,
    reps: &[(&str, u32)],
    threads: usize,
    plan: &Plan,
) -> Result<Outcome, String> {
    let lanes = u32::try_from(threads).unwrap_or(u32::MAX);
    let mut rec = Recorder::new(plan.trace, lanes);
    let mut first: Option<Vec<String>> = None;
    let mut timed: Vec<Vec<Part>> = Vec::new();
    let runs = drive(
        plan,
        &mut rec,
        || {
            let specs = reps
                .iter()
                .map(|&(id, n)| {
                    let exp = find(id).ok_or_else(|| format!("unknown experiment {id}"))?;
                    Ok(RunSpec::new(exp, Scenario::university(seed), n).threads(threads))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let serial = specs
                .iter()
                .map(|spec| {
                    picks(spec.replications())
                        .into_iter()
                        .map(|i| (i, spec.experiment().run(&spec.scenario_for(i)).metrics))
                        .collect()
                })
                .collect();
            Ok(Inputs { specs, serial })
        },
        |rec, inputs, warm| {
            let parts: Vec<Part> = inputs
                .specs
                .iter()
                .map(|spec| replicate(rec, spec))
                .collect();
            (warm, parts)
        },
        |_, inputs, (warm, parts)| {
            let sections: Vec<String> = parts.iter().map(|p| p.section.clone()).collect();
            let reference = first.get_or_insert_with(|| sections.clone());
            let mut verdict = if *reference == sections {
                Ok(())
            } else {
                Err("aggregate sections differ between rounds".to_string())
            };
            for ((part, spec), serial) in parts.iter().zip(&inputs.specs).zip(&inputs.serial) {
                for ((i, pooled), (_, alone)) in part.picked.iter().zip(serial) {
                    let id = spec.experiment().id();
                    verdict = verdict.and(oracle::replication(id, *i, pooled, alone));
                }
            }
            if !warm {
                timed.push(parts);
            }
            verdict
        },
    )?;
    let capacity = |p: &Part| p.pool.as_secs_f64() * threads as f64;
    let median_of = |f: &dyn Fn(&Part) -> f64, k: usize| {
        median(&timed.iter().map(|r| f(&r[k])).collect::<Vec<_>>())
    };
    let mut notes = vec![Metric::new("threads", threads as f64, "count")];
    let mut layer = vec![Metric::new(
        "runner.tasks",
        reps.iter().map(|&(_, n)| f64::from(n)).sum(),
        "count",
    )];
    for (k, &(id, n)) in reps.iter().enumerate() {
        notes.extend([
            Metric::new(
                format!("reps_per_s.{id}"),
                median_of(&|p| f64::from(n) / p.pool.as_secs_f64(), k),
                "1/s",
            ),
            Metric::new(
                format!("runner.task_p50_ms.{id}"),
                median_of(&|p| p.task_p50.as_secs_f64() * 1e3, k),
                "ms",
            ),
            Metric::new(
                format!("runner.aggregate_ms.{id}"),
                median_of(&|p| p.aggregate.as_secs_f64() * 1e3, k),
                "ms",
            ),
            Metric::new(
                format!("runner.render_ms.{id}"),
                median_of(&|p| p.render.as_secs_f64() * 1e3, k),
                "ms",
            ),
        ]);
        layer.push(Metric::new(
            format!("runner.efficiency.{id}"),
            median_of(&|p| p.busy.as_secs_f64() / capacity(p), k),
            "fraction",
        ));
    }
    for (r, round) in timed.iter().enumerate() {
        let busy: f64 = round.iter().map(|p| p.busy.as_secs_f64()).sum();
        let cap: f64 = round.iter().map(capacity).sum();
        notes.push(Metric::new(
            format!("round{}.efficiency", r + 1),
            busy / cap,
            "fraction",
        ));
    }
    Ok(Outcome {
        runs,
        notes,
        layer,
        remarks: Vec::new(),
        recorder: rec,
    })
}
