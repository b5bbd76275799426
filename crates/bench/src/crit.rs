//! Minimal, dependency-free micro-benchmark harness.
//!
//! Drop-in stand-in for the subset of the Criterion API the benches use
//! (`Criterion`, `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`, the
//! `criterion_group!`/`criterion_main!` macros). The container this repo
//! builds in has no crates.io access, so the harness ships its own timing
//! loop instead of depending on the `criterion` crate: per benchmark it
//! warms up, calibrates a batch size, takes `sample_size` wall-clock
//! samples per repetition and reports the minimum over `repetitions` of
//! the per-repetition median ns/iter, with the global min–max spread
//! (min-of-N medians filters transient machine load out of regression
//! comparisons — see [`Criterion::repetitions`]).
//!
//! It intentionally does *not* reproduce Criterion's statistics (outlier
//! classification, regression to baseline); the numbers are for
//! order-of-magnitude comparisons like the A1 heap-vs-naive ablation.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness handle; mirrors `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    repetitions: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            repetitions: 1,
        }
    }
}

/// The timing result of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median ns/iter over the samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

impl Criterion {
    /// Number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Total wall-clock budget for the timed samples of one benchmark.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Wall-clock spent running the closure untimed before sampling.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Number of independent measurement repetitions per benchmark; the
    /// reported median is the **minimum of the per-repetition medians**.
    ///
    /// One repetition's median still carries the machine's transient load
    /// (a background task landing on the sampled core shifts every sample
    /// the same way), so back-to-back runs of an unchanged benchmark can
    /// disagree by a few percent — enough to read as a fake regression.
    /// The minimum over N repetitions is a robust estimate of the
    /// undisturbed cost: noise only ever slows a repetition down.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn repetitions(mut self, n: usize) -> Self {
        assert!(n > 0, "repetitions must be positive");
        self.repetitions = n;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) {
        run_one(self, &id.to_string(), f);
    }

    /// Runs a single benchmark and returns its timing, for harnesses that
    /// post-process results (e.g. `a5_hotpath`'s JSON emitter). `None` if
    /// the closure never called [`Bencher::iter`].
    pub fn bench_measured(
        &mut self,
        id: impl Display,
        f: impl FnMut(&mut Bencher),
    ) -> Option<Measurement> {
        run_one(self, &id.to_string(), f)
    }
}

/// A named set of benchmarks sharing the group prefix in their output.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark under this group.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, f);
    }

    /// Runs one parameterised benchmark; the closure also receives `input`.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let label = format!("{}/{}", self.name, id.label);
        run_one(self.criterion, &label, |b| f(b, input));
    }

    /// Ends the group (kept for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `name/parameter`.
    #[must_use]
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

/// Passed to the benchmark closure; `iter` runs the timing loop.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    repetitions: usize,
    /// Median / min / max ns-per-iteration, filled by [`Bencher::iter`].
    result: Option<(f64, f64, f64)>,
}

impl Bencher {
    /// Times `f`, storing median and extreme ns/iter over the samples.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warm-up: run untimed so caches, allocators and branch predictors
        // settle before sampling starts.
        let warm_end = Instant::now() + self.warm_up_time;
        let mut batch: u64 = 1;
        while Instant::now() < warm_end {
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            batch = (batch * 2).min(1 << 16);
        }

        // Calibrate a batch size so one sample fills its share of the
        // measurement budget (cheap closures need large batches for the
        // clock to resolve them).
        let target = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= target.min(0.05) || iters >= 1 << 30 {
                if elapsed < target {
                    let scale = (target / elapsed.max(1e-9)).min(1024.0);
                    iters = ((iters as f64 * scale) as u64).max(1);
                }
                break;
            }
            iters *= 2;
        }

        // One warm-up and calibration serve all repetitions; each
        // repetition is an independent sample set, and the reported median
        // is the minimum of the per-repetition medians (see
        // [`Criterion::repetitions`]).
        let mut best_median = f64::INFINITY;
        let mut global_min = f64::INFINITY;
        let mut global_max = f64::NEG_INFINITY;
        for _ in 0..self.repetitions {
            let mut samples: Vec<f64> = (0..self.sample_size)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(f());
                    }
                    start.elapsed().as_secs_f64() * 1e9 / iters as f64
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
            best_median = best_median.min(samples[samples.len() / 2]);
            global_min = global_min.min(samples[0]);
            global_max = global_max.max(samples[samples.len() - 1]);
        }
        self.result = Some((best_median, global_min, global_max));
    }
}

fn run_one(
    criterion: &Criterion,
    label: &str,
    mut f: impl FnMut(&mut Bencher),
) -> Option<Measurement> {
    let mut b = Bencher {
        sample_size: criterion.sample_size,
        measurement_time: criterion.measurement_time,
        warm_up_time: criterion.warm_up_time,
        repetitions: criterion.repetitions,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((median, min, max)) => {
            println!(
                "bench: {label:<48} {:>14} ns/iter (min {}, max {}, {} samples x {} reps)",
                fmt_ns(median),
                fmt_ns(min),
                fmt_ns(max),
                criterion.sample_size,
                criterion.repetitions
            );
            Some(Measurement {
                median_ns: median,
                min_ns: min,
                max_ns: max,
            })
        }
        None => {
            println!("bench: {label:<48} (closure never called Bencher::iter)");
            None
        }
    }
}

/// Renders nanoseconds with thousands separators for scanability.
fn fmt_ns(ns: f64) -> String {
    let whole = ns.round() as u64;
    let digits = whole.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Declares the benchmark entry function, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::crit::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench binary, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn bencher_records_samples() {
        let mut c = fast_config();
        let mut g = c.benchmark_group("shim");
        let mut ran = false;
        g.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = fast_config();
        let mut g = c.benchmark_group("shim");
        g.bench_with_input(BenchmarkId::new("sum", 4), &vec![1u64, 2, 3], |b, xs| {
            b.iter(|| xs.iter().sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn repetitions_report_the_best_median() {
        let mut c = fast_config().repetitions(3);
        let m = c
            .bench_measured("noop", |b| b.iter(|| std::hint::black_box(1 + 1)))
            .expect("iter was called");
        // The reported median is one of the repetition medians, so it must
        // sit inside the global spread.
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.median_ns > 0.0);
    }

    #[test]
    #[should_panic(expected = "repetitions must be positive")]
    fn zero_repetitions_rejected() {
        let _ = Criterion::default().repetitions(0);
    }

    #[test]
    fn benchmark_id_renders_name_and_parameter() {
        assert_eq!(BenchmarkId::new("heap", 1000).label, "heap/1000");
    }

    #[test]
    fn fmt_ns_groups_digits() {
        assert_eq!(fmt_ns(1234567.0), "1_234_567");
        assert_eq!(fmt_ns(999.0), "999");
    }
}
