//! Fan-out of an experiment's independent arms over worker threads.
//!
//! `--shards N` spreads the arms of one experiment (E16's deployments,
//! E17's day × model grid, E19's postures, E18's regions) over up to `N`
//! contiguous groups, one thread per group, and never more groups than
//! the [`worker_budget`] ([`run_jobs`]). Each arm's RNG lineage is derived
//! before the split and results come back in arm order, so the output
//! does not depend on the shard count. Worker budgets compose:
//! `elc-runner`'s pool divides the machine between its replication
//! workers with [`with_worker_budget`], and a budget of 1 runs the arms
//! serially.

use std::cell::Cell;
use std::thread;

thread_local! {
    /// `0` means "unset": fall back to the machine's parallelism.
    static WORKER_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// How many OS threads this call site may occupy. Defaults to the
/// machine's available parallelism; [`with_worker_budget`] narrows it so
/// nested fan-out (replications × shards) does not oversubscribe.
pub fn worker_budget() -> usize {
    let budget = WORKER_BUDGET.get();
    if budget == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        budget
    }
}

/// Runs `f` with the current thread's worker budget set to `budget`
/// (minimum 1), restoring the previous budget afterwards.
pub fn with_worker_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_BUDGET.set(self.0);
        }
    }
    let _restore = Restore(WORKER_BUDGET.replace(budget.max(1)));
    f()
}

/// Runs independent `jobs` partitioned over up to `min(shards, jobs,
/// worker_budget())` contiguous groups, one thread per group, and returns
/// the results in job order. Jobs must not communicate — this is the
/// fan-out used by experiments whose arms have independent RNG lineages.
///
/// The jobs run in order on the calling thread instead when that bound is
/// 1 (in particular under a [`worker_budget`] of 1), or when a tracer is
/// installed on the calling thread: the tracer is thread-local, so a
/// spawned worker would drop every event its jobs emit.
pub fn run_jobs<T, F>(shards: u32, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    let groups = (shards as usize).min(total).min(worker_budget());
    if groups <= 1 || elc_trace::installed() {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let chunk = total.div_ceil(groups);
    let mut out: Vec<Option<T>> = Vec::with_capacity(total);
    out.resize_with(total, || None);
    thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let mut slots = out.as_mut_slice();
        while !slots.is_empty() {
            let take = chunk.min(slots.len());
            let group: Vec<F> = jobs.by_ref().take(take).collect();
            let (head, tail) = slots.split_at_mut(take);
            slots = tail;
            s.spawn(move || {
                for (slot, job) in head.iter_mut().zip(group) {
                    *slot = Some(job());
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let expected: Vec<i32> = (0..17).map(|i| i * i).collect();
        assert_eq!(run_jobs(4, jobs), expected);
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        assert_eq!(run_jobs(1, jobs), expected);
    }

    #[test]
    fn run_jobs_runs_no_more_jobs_at_once_than_the_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..16)
            .map(|i| {
                let (running, peak) = (&running, &peak);
                move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Holding each job open gives groups that outnumber the
                    // budget time to overlap; the bound itself is structural.
                    thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let out = with_worker_budget(2, || run_jobs(8, jobs));
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "{peak} jobs ran at once under a budget of 2");
    }

    #[test]
    fn worker_budget_nests_and_restores() {
        let outer = worker_budget();
        with_worker_budget(3, || {
            assert_eq!(worker_budget(), 3);
            with_worker_budget(1, || assert_eq!(worker_budget(), 1));
            assert_eq!(worker_budget(), 3);
        });
        assert_eq!(worker_budget(), outer);
    }
}
