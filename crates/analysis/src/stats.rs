//! Descriptive statistics over experiment outputs.
//!
//! Complements `elc_simcore::metrics::Summary` (online, O(1) memory) with
//! slice-based exact statistics for the analysis layer, where sample sets
//! are small and exactness beats streaming.

/// Arithmetic mean; 0.0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator); 0.0 with fewer than two
/// samples.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Exact quantile by linear interpolation on the sorted copy.
///
/// Clones and sorts per call; callers reading several quantiles of one
/// sample set should sort once and use [`sorted_percentile`].
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        // Preserve the range check even for empty input.
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    sorted_percentile(&sorted, q)
}

/// Exact quantile of an **already sorted** (ascending) slice, by linear
/// interpolation — the sort-once companion to [`percentile`] for call sites
/// that read several quantiles of the same samples.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`. An unsorted slice gives meaningless
/// results (checked only in debug builds).
#[must_use]
pub fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sorted_percentile needs ascending input"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The median.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// A 95% confidence interval for the mean (normal approximation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci95 {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl Ci95 {
    /// Lower bound.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// True if `value` falls inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

impl std::fmt::Display for Ci95 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

/// Computes a 95% CI for the mean of `xs`.
#[must_use]
pub fn ci95(xs: &[f64]) -> Ci95 {
    let m = mean(xs);
    if xs.len() < 2 {
        return Ci95 {
            mean: m,
            half_width: 0.0,
        };
    }
    let se = std_dev(xs) / (xs.len() as f64).sqrt();
    Ci95 {
        mean: m,
        half_width: 1.96 * se,
    }
}

/// Speedup of `baseline` over `new` (how many times faster `new` is).
///
/// Returns `f64::INFINITY` when `new` is zero and `baseline` is not.
#[must_use]
pub fn speedup(baseline: f64, new: f64) -> f64 {
    if new == 0.0 {
        if baseline == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        baseline / new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((std_dev(&xs) - 2.138).abs() < 0.001);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), 5.0);
    }

    #[test]
    fn sorted_percentile_matches_percentile() {
        let xs = [9.0, 1.0, 5.0, 2.0, 8.0, 8.0];
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            assert_eq!(sorted_percentile(&sorted, q), percentile(&xs, q), "q={q}");
        }
        assert_eq!(sorted_percentile(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn sorted_percentile_rejects_bad_q() {
        let _ = sorted_percentile(&[1.0], -0.1);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_q() {
        let _ = percentile(&[1.0], 2.0);
    }

    #[test]
    fn ci95_behaviour() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let ci = ci95(&xs);
        assert!(ci.contains(mean(&xs)));
        assert!(ci.lo() < ci.hi());
        assert!(!ci.contains(100.0));
        assert!(ci.to_string().contains('±'));
    }

    #[test]
    fn ci95_single_sample_is_degenerate() {
        let ci = ci95(&[3.0]);
        assert_eq!(ci.mean, 3.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn speedup_edge_cases() {
        assert_eq!(speedup(10.0, 2.0), 5.0);
        assert_eq!(speedup(0.0, 0.0), 1.0);
        assert!(speedup(1.0, 0.0).is_infinite());
    }
}
