//! The subsystem's headline property: a replicated run's output does not
//! depend on how the run is scheduled.
//!
//! Each replication is a pure function of `(scenario, derived seed)`,
//! the pool aggregates in replication-index order and shard jobs are
//! collected in job order. So the aggregate section and the
//! per-replication trace must render byte-identically at any worker-thread
//! count and any shard count. The matrix below runs every registry
//! experiment, plus the configurations where an ordering bug is likeliest,
//! under every setting of those two parameters — a combinations queue
//! applied to the simulator's own verification.

use elc_core::experiments::{find, registry};
use elc_core::scenario::Scenario;
use elc_fluid::Fidelity;
use elc_resil::chaos::ChaosSpec;
use elc_runner::progress::Silent;
use elc_runner::{run, RunSpec};
use elc_simcore::shard::with_worker_budget;
use elc_trace::export::jsonl_string;
use elc_trace::TraceFilter;

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [u32; 2] = [1, 4];

/// One matrix row: an experiment under one scenario and replication
/// count, and the trace targets its run must reach.
struct Row {
    experiment: &'static str,
    scenario: Scenario,
    replications: u32,
    targets: &'static [&'static str],
}

fn row(
    experiment: &'static str,
    scenario: Scenario,
    replications: u32,
    targets: &'static [&'static str],
) -> Row {
    Row {
        experiment,
        scenario,
        replications,
        targets,
    }
}

/// Every registry experiment at small-college, seed 42.
fn registry_rows() -> Vec<Row> {
    let small = Scenario::small_college(42);
    registry()
        .iter()
        .map(|e| match e.id() {
            // E18's event path takes seconds per replication in a debug
            // build; its fluid path covers the same station and fan-out.
            "e18" => row("e18", small.with_fidelity(Fidelity::Fluid), 2, &[]),
            "e09" => row(
                "e09",
                small.clone(),
                2,
                &["simcore", "cloud", "net", "elearn"],
            ),
            id => row(id, small.clone(), 2, &[]),
        })
        .collect()
}

/// The fault-injection experiments at university scale, each under the
/// campaign that drives its layer.
fn chaos_rows() -> Vec<Row> {
    let chaos = |spec: &str| -> ChaosSpec { spec.parse().expect("valid campaign") };
    let storm = chaos("storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79");
    let drill = chaos("regionloss@0.5:region=0,mins=45");
    let university = Scenario::university(42);
    vec![
        row("e16", university.with_chaos(storm.clone()), 6, &["resil"]),
        row("e17", university.with_chaos(storm), 6, &["faas"]),
        row("e19", university.with_chaos(drill), 6, &["dr"]),
    ]
}

/// Larger runs without chaos: E17's serverless arms at university scale
/// and the most RNG-hungry experiments at more replications.
fn replicated_rows() -> Vec<Row> {
    let small = Scenario::small_college(42);
    vec![
        row("e17", Scenario::university(42), 6, &[]),
        row("e06", small.clone(), 6, &[]),
        row("e07", small, 6, &[]),
        row("e09", Scenario::rural_learners(2013), 8, &[]),
    ]
}

/// The scheduling-invariant artifacts of `row` at one matrix point: the
/// untraced aggregate section and the traced per-replication JSONL.
///
/// The worker budget of 8 lets shard jobs fan out onto real threads on
/// any host, however few cores it has.
fn artifacts(row: &Row, threads: usize, shards: u32) -> (String, String) {
    let spec = || {
        let experiment = find(row.experiment).expect("registry id");
        RunSpec::new(
            experiment,
            row.scenario.with_shards(shards),
            row.replications,
        )
        .threads(threads)
    };
    with_worker_budget(8, || {
        let aggregate = run(&spec(), &mut Silent).aggregate_section().to_string();
        let traced = run(&spec().trace(TraceFilter::default()), &mut Silent);
        assert_eq!(traced.traces.len(), row.replications as usize);
        let trace = traced
            .traces
            .iter()
            .enumerate()
            .map(|(rep, tracer)| jsonl_string(tracer, &[("rep", &rep.to_string())]))
            .collect();
        (aggregate, trace)
    })
}

/// The points of [`THREADS`] that schedule `replications` differently.
///
/// The pool runs `min(threads, replications)` workers, each with a shard
/// budget of 8 / workers, so a thread count above the replication count
/// repeats the schedule of threads = replications.
fn thread_counts(replications: u32) -> Vec<usize> {
    let mut counts: Vec<usize> = THREADS
        .iter()
        .map(|&t| t.min(replications as usize))
        .collect();
    counts.dedup();
    counts
}

/// Checks every row at every matrix point against its (1 thread,
/// 1 shard) run.
fn assert_schedule_invariant(rows: Vec<Row>) {
    for row in rows {
        // E18's shard count is its region count, so only threads vary.
        let shards: &[u32] = if row.experiment == "e18" {
            &[1]
        } else {
            &SHARDS
        };
        let (aggregate, trace) = artifacts(&row, 1, 1);
        for target in row.targets {
            assert!(
                trace.contains(&format!("\"target\":\"{target}\"")),
                "{} trace never reached target {target:?}",
                row.experiment
            );
        }
        for threads in thread_counts(row.replications) {
            for &shard_count in shards {
                if (threads, shard_count) == (1, 1) {
                    continue;
                }
                let (a, t) = artifacts(&row, threads, shard_count);
                let at = format!(
                    "{} on {} at {threads} threads × {shard_count} shards",
                    row.experiment,
                    row.scenario.name()
                );
                assert!(a == aggregate, "aggregates diverged: {at}");
                assert!(t == trace, "traces diverged: {at}");
            }
        }
    }
}

// Three tests rather than one, so the harness runs them side by side.

#[test]
fn every_registry_experiment_is_byte_identical_at_any_thread_and_shard_count() {
    assert_schedule_invariant(registry_rows());
}

#[test]
fn chaos_runs_are_byte_identical_at_any_thread_and_shard_count() {
    assert_schedule_invariant(chaos_rows());
}

#[test]
fn replicated_runs_are_byte_identical_at_any_thread_and_shard_count() {
    assert_schedule_invariant(replicated_rows());
}

/// Renders one untraced run's aggregate section.
fn aggregate_bytes(
    experiment: &str,
    scenario: Scenario,
    replications: u32,
    threads: usize,
) -> String {
    let spec = RunSpec::new(find(experiment).unwrap(), scenario, replications).threads(threads);
    run(&spec, &mut Silent).aggregate_section().to_string()
}

#[test]
fn different_base_seeds_change_the_aggregates() {
    // Sanity check that the property above is not vacuous: the pipeline
    // must actually respond to the base seed.
    let a = aggregate_bytes("e07", Scenario::small_college(1), 4, 2);
    let b = aggregate_bytes("e07", Scenario::small_college(2), 4, 2);
    assert_ne!(a, b, "aggregates ignored the base seed");
}

#[test]
fn replication_count_is_reported_in_the_section() {
    let text = aggregate_bytes("e09", Scenario::small_college(42), 5, 2);
    assert!(text.contains("5 replications"), "{text}");
    assert!(text.contains("ci95"));
}

#[test]
fn untraced_runs_carry_no_tracers() {
    let spec = RunSpec::new(find("e09").unwrap(), Scenario::small_college(42), 2);
    assert!(run(&spec, &mut Silent).traces.is_empty());
}
