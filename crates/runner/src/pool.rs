//! The worker pool: a channel-fed queue of replication tasks.
//!
//! Tasks are `(replication index, derived seed)` pairs pulled from an MPSC
//! channel by `std::thread` workers; each task is a pure function of its
//! scenario (experiments draw all randomness from the scenario seed), so
//! which worker executes it — and in what order — cannot change its
//! result. The coordinator reassembles results **by replication index**
//! before anyone aggregates them, which is the second half of the
//! parallel/serial-equivalence guarantee.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use elc_analysis::metrics::MetricSet;
use elc_trace::Tracer;

use crate::plan::RunSpec;
use crate::progress::Progress;
use crate::scratch::Scratch;

/// One completed replication.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// Replication index, `0..spec.replications()`.
    pub index: u32,
    /// The derived seed this replication ran under.
    pub seed: u64,
    /// Typed metrics emitted by the experiment, in table order.
    pub metrics: MetricSet,
    /// The replication's trace, when the spec requested tracing. A pure
    /// function of `(scenario, seed, filter)` — worker identity never
    /// leaks in.
    pub trace: Option<Tracer>,
    /// Wall-clock execution time of this task (non-deterministic; never
    /// feeds the aggregates).
    pub wall: Duration,
}

/// Executes every replication in `spec`, returning results sorted by
/// replication index regardless of completion order.
pub fn run_tasks(spec: &RunSpec, progress: &mut dyn Progress) -> Vec<TaskResult> {
    let total = spec.replications();
    progress.started(total);
    let workers = spec.thread_count().min(total as usize);
    let mut results = if workers <= 1 {
        run_serial(spec, progress)
    } else {
        run_parallel(spec, progress, workers)
    };
    results.sort_by_key(|r| r.index);
    results
}

fn run_serial(spec: &RunSpec, progress: &mut dyn Progress) -> Vec<TaskResult> {
    let total = spec.replications();
    // The serial path is one worker: one scratch covers the whole run.
    let mut scratch = Scratch::new();
    (0..total)
        .map(|index| {
            let result = execute(spec, index, &mut scratch);
            progress.task_done(index + 1, total, result.wall);
            result
        })
        .collect()
}

fn run_parallel(spec: &RunSpec, progress: &mut dyn Progress, workers: usize) -> Vec<TaskResult> {
    let total = spec.replications();
    let (task_tx, task_rx) = mpsc::channel::<u32>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let (result_tx, result_rx) = mpsc::channel::<TaskResult>();
    for index in 0..total {
        task_tx.send(index).expect("queue is open");
    }
    drop(task_tx); // workers see a closed queue once it drains

    // Replication workers already saturate `workers` cores, so any sharded
    // experiment inside a task gets only the leftover share of the machine:
    // shards × replications must never oversubscribe the pool.
    let shard_budget = std::cmp::max(1, elc_simcore::shard::worker_budget() / workers);

    thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = Arc::clone(&task_rx);
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                elc_simcore::shard::with_worker_budget(shard_budget, || {
                    // Each worker owns its scratch for its whole lifetime;
                    // tasks reuse the previous task's scenario clone.
                    let mut scratch = Scratch::new();
                    loop {
                        // Hold the lock only to dequeue, not while running.
                        let task = task_rx.lock().expect("queue lock poisoned").recv();
                        let Ok(index) = task else { break };
                        if result_tx.send(execute(spec, index, &mut scratch)).is_err() {
                            break;
                        }
                    }
                });
            });
        }
        drop(result_tx);

        let mut results = Vec::with_capacity(total as usize);
        let mut done = 0;
        while let Ok(result) = result_rx.recv() {
            done += 1;
            progress.task_done(done, total, result.wall);
            results.push(result);
        }
        results
    })
}

fn execute(spec: &RunSpec, index: u32, scratch: &mut Scratch) -> TaskResult {
    let scenario = scratch.scenario(spec, index);
    let seed = scenario.seed();
    let start = Instant::now();
    // The metrics-only entry point: the section render (title strings,
    // notes, row formatting) would be thrown away here, so skip it.
    let (metrics, trace) = match spec.trace_filter() {
        None => (spec.experiment().run_metrics(scenario), None),
        Some(filter) => {
            // One tracer per task, installed only for this replication:
            // the trace depends on (scenario, seed, filter), never on
            // which worker thread ran it.
            let (metrics, tracer) = elc_trace::with_tracer(Tracer::new(filter.clone()), || {
                spec.experiment().run_metrics(scenario)
            });
            (metrics, Some(tracer))
        }
    };
    TaskResult {
        index,
        seed,
        metrics,
        trace,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::replication_seed;
    use crate::progress::{Recording, Silent};
    use elc_core::experiments::find;
    use elc_core::scenario::Scenario;

    fn spec(threads: usize, replications: u32) -> RunSpec {
        RunSpec::new(
            find("e09").unwrap(),
            Scenario::small_college(42),
            replications,
        )
        .threads(threads)
    }

    #[allow(clippy::type_complexity)]
    fn strip_wall(results: Vec<TaskResult>) -> Vec<(u32, u64, MetricSet)> {
        results
            .into_iter()
            .map(|r| (r.index, r.seed, r.metrics))
            .collect()
    }

    #[test]
    fn results_arrive_sorted_by_index() {
        let results = run_tasks(&spec(4, 8), &mut Silent);
        let indices: Vec<u32> = results.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..8).collect::<Vec<_>>());
        for r in &results {
            assert_eq!(r.seed, replication_seed(42, r.index));
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = strip_wall(run_tasks(&spec(1, 6), &mut Silent));
        for threads in [2, 3, 8] {
            let parallel = strip_wall(run_tasks(&spec(threads, 6), &mut Silent));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn progress_sees_every_completion() {
        let mut rec = Recording::default();
        let _ = run_tasks(&spec(4, 5), &mut rec);
        assert_eq!(rec.started_total, Some(5));
        assert_eq!(rec.completions.len(), 5);
        let dones: Vec<u32> = rec.completions.iter().map(|&(d, _)| d).collect();
        assert_eq!(dones, vec![1, 2, 3, 4, 5], "done counter must be ordered");
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let results = run_tasks(&spec(16, 2), &mut Silent);
        assert_eq!(results.len(), 2);
    }
}
