//! Cross-replication aggregation.
//!
//! Folds each metric's samples — ordered by replication index — into
//! mean / p50 / p95 and a 95% confidence interval via
//! `elc_analysis::stats`. Metrics are identified by interned
//! [`MetricKey`]s, so grouping hashes a `u32` instead of a `String` and
//! the per-replication metric names are never re-allocated here.
//! Everything in this module is a pure function of the sorted task
//! results, so two runs that executed the same replications (on any
//! thread counts) aggregate byte-identically.

use elc_analysis::metrics::{slot_index, MetricKey};
use elc_analysis::report::Section;
use elc_analysis::stats::{ci95, mean, sorted_percentile, Ci95};
use elc_analysis::table::{fmt_f64, Table};

use crate::pool::TaskResult;

/// One metric's distribution over the replications.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Interned metric key (`column[row-key]` from the experiment table).
    pub key: MetricKey,
    /// Per-replication samples, ordered by replication index.
    pub samples: Vec<f64>,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 95% confidence interval for the mean.
    pub ci95: Ci95,
}

impl MetricSummary {
    /// The metric's resolved name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.key.name()
    }

    fn from_samples(key: MetricKey, samples: Vec<f64>) -> Self {
        // Sort once; both percentiles read the same sorted view. The
        // stored samples stay in replication order.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        MetricSummary {
            mean: mean(&samples),
            p50: sorted_percentile(&sorted, 0.5),
            p95: sorted_percentile(&sorted, 0.95),
            ci95: ci95(&samples),
            key,
            samples,
        }
    }
}

/// Aggregates sorted task results into per-metric summaries.
///
/// Metric order follows the first replication's table order. A metric is
/// summarised only if *every* replication reported it — seed-dependent
/// table rows (e.g. a sweep row that only appears under some seeds) would
/// otherwise make the sample count, and thus the confidence interval,
/// misleading. Dropped keys are returned separately so callers can warn.
#[must_use]
pub fn aggregate(results: &[TaskResult]) -> (Vec<MetricSummary>, Vec<MetricKey>) {
    let Some(first) = results.first() else {
        return (Vec::new(), Vec::new());
    };
    // Accumulate per-key sample vectors. An experiment emits on the order
    // of a dozen metrics, so the position-hinted linear scan of
    // `slot_index` outruns a HashMap here — every replication emits keys
    // in the same order, so the hint almost always hits.
    let mut acc: Vec<(MetricKey, Vec<f64>)> = Vec::new();
    for result in results {
        for (hint, &(key, value)) in result.metrics.entries().iter().enumerate() {
            let slot = slot_index(&mut acc, hint, key, || Vec::with_capacity(results.len()));
            acc[slot].1.push(value);
        }
    }
    let mut summaries = Vec::new();
    let mut dropped = Vec::new();
    let mut consumed = vec![false; acc.len()];
    for &(key, _) in first.metrics.entries() {
        let Some(pos) = acc.iter().position(|(k, _)| *k == key) else {
            unreachable!("first replication's keys were all accumulated");
        };
        if std::mem::replace(&mut consumed[pos], true) {
            continue; // duplicate key already consumed
        }
        let values = std::mem::take(&mut acc[pos].1);
        if values.len() == results.len() {
            summaries.push(MetricSummary::from_samples(key, values));
        } else {
            dropped.push(key);
        }
    }
    // Keys that never appeared in replication 0 are incomplete by
    // construction; record them too (sorted by name for determinism —
    // intern order depends on which experiment ran first in the process).
    let mut stragglers: Vec<MetricKey> = acc
        .iter()
        .zip(&consumed)
        .filter(|&(_, &c)| !c)
        .map(|((k, _), _)| *k)
        .collect();
    stragglers.sort_unstable_by_key(|k| k.name());
    dropped.extend(stragglers);
    (summaries, dropped)
}

/// Renders summaries as a report section.
///
/// The section depends only on the aggregated values — never on thread
/// count or wall-clock — so its rendering is the byte-identical artifact
/// the determinism tests compare.
#[must_use]
pub fn section(
    id: &str,
    title: &str,
    summaries: &[MetricSummary],
    dropped: &[MetricKey],
) -> Section {
    let mut t = Table::new([
        "metric", "mean", "p50", "p95", "ci95 ±", "ci95 lo", "ci95 hi",
    ]);
    for s in summaries {
        t.row([
            s.name().to_string(),
            fmt_f64(s.mean),
            fmt_f64(s.p50),
            fmt_f64(s.p95),
            fmt_f64(s.ci95.half_width),
            fmt_f64(s.ci95.lo()),
            fmt_f64(s.ci95.hi()),
        ]);
    }
    let mut section = Section::new(id, title, t);
    if let Some(first) = summaries.first() {
        section.note(format!(
            "aggregated over {} replications; ci95 is the normal-approximation interval for the mean",
            first.samples.len()
        ));
    }
    if !dropped.is_empty() {
        let names: Vec<&str> = dropped.iter().map(|k| k.name()).collect();
        section.note(format!(
            "dropped {} metric(s) not reported by every replication: {}",
            dropped.len(),
            names.join(", ")
        ));
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_analysis::metrics::intern;
    use std::time::Duration;

    fn result(index: u32, metrics: &[(&str, f64)]) -> TaskResult {
        TaskResult {
            index,
            seed: u64::from(index),
            metrics: metrics.iter().map(|&(n, v)| (intern(n), v)).collect(),
            trace: None,
            wall: Duration::from_millis(1),
        }
    }

    #[test]
    fn aggregates_mean_and_percentiles() {
        let results: Vec<TaskResult> = (0..5)
            .map(|i| result(i, &[("lat[public]", f64::from(i) + 1.0)]))
            .collect();
        let (summaries, dropped) = aggregate(&results);
        assert!(dropped.is_empty());
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.name(), "lat[public]");
        assert_eq!(s.samples, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert!(s.p95 > 4.0 && s.p95 <= 5.0);
        assert!(s.ci95.contains(3.0));
    }

    #[test]
    fn percentiles_match_the_unsorted_helper() {
        // `sorted_percentile` over the pre-sorted samples must agree with
        // the sort-per-call `percentile` the summary used to call twice.
        let results: Vec<TaskResult> = [4.0, 1.0, 3.0, 5.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| result(u32::try_from(i).unwrap(), &[("m", v)]))
            .collect();
        let (summaries, _) = aggregate(&results);
        let s = &summaries[0];
        assert_eq!(s.p50, elc_analysis::stats::percentile(&s.samples, 0.5));
        assert_eq!(s.p95, elc_analysis::stats::percentile(&s.samples, 0.95));
    }

    #[test]
    fn incomplete_metrics_are_dropped_not_mis_summarised() {
        let results = vec![
            result(0, &[("a", 1.0), ("b", 9.0)]),
            result(1, &[("a", 2.0)]),
        ];
        let (summaries, dropped) = aggregate(&results);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name(), "a");
        assert_eq!(dropped, vec![intern("b")]);
    }

    #[test]
    fn metrics_absent_from_first_replication_are_reported() {
        let results = vec![
            result(0, &[("a", 1.0)]),
            result(1, &[("a", 2.0), ("late", 3.0)]),
        ];
        let (summaries, dropped) = aggregate(&results);
        assert_eq!(summaries.len(), 1);
        assert_eq!(dropped, vec![intern("late")]);
    }

    #[test]
    fn empty_input_aggregates_to_nothing() {
        let (summaries, dropped) = aggregate(&[]);
        assert!(summaries.is_empty());
        assert!(dropped.is_empty());
    }

    #[test]
    fn section_renders_ci_bounds() {
        let results: Vec<TaskResult> = (0..4).map(|i| result(i, &[("m", f64::from(i))])).collect();
        let (summaries, dropped) = aggregate(&results);
        let s = section("R:e01", "replicated e01", &summaries, &dropped);
        let text = s.to_string();
        assert!(text.contains("ci95"));
        assert!(text.contains('m'));
        assert!(s.notes().iter().any(|n| n.contains("4 replications")));
    }

    #[test]
    fn order_follows_first_replication_table_order() {
        let results = vec![
            result(0, &[("z", 1.0), ("a", 2.0)]),
            result(1, &[("z", 3.0), ("a", 4.0)]),
        ];
        let (summaries, _) = aggregate(&results);
        let names: Vec<&str> = summaries.iter().map(MetricSummary::name).collect();
        assert_eq!(names, vec!["z", "a"], "must preserve table order, not sort");
    }
}
