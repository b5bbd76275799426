//! Probability distributions over the kernel RNG.
//!
//! Workload generators and failure models draw inter-arrival times, service
//! times and sizes from these distributions. All of them are pure value
//! types; sampling takes `&mut SimRng` so a distribution can be shared.
//!
//! Construction validates parameters eagerly ([`DistError`]) so that a typo'd
//! configuration fails at build time rather than producing NaNs mid-run.

use std::error::Error;
use std::fmt;

use crate::rng::SimRng;

/// Error returned when distribution parameters are invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    what: String,
}

impl DistError {
    fn new(what: impl Into<String>) -> Self {
        DistError { what: what.into() }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl Error for DistError {}

/// A distribution producing values of type `T`.
///
/// # Examples
///
/// ```
/// use elc_simcore::dist::{Distribution, Exp};
/// use elc_simcore::rng::SimRng;
///
/// # fn main() -> Result<(), elc_simcore::dist::DistError> {
/// let arrivals = Exp::new(2.0)?; // rate 2 per unit time
/// let mut rng = SimRng::seed(1);
/// let gap = arrivals.sample(&mut rng);
/// assert!(gap >= 0.0);
/// # Ok(())
/// # }
/// ```
pub trait Distribution<T> {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> T;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    rate: f64,
}

impl Exp {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns an error unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DistError::new(format!("exp rate must be > 0, got {rate}")));
        }
        Ok(Exp { rate })
    }

    /// The configured rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution<f64> for Exp {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.rate
    }
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless `std_dev` is finite and non-negative and
    /// `mean` is finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistError> {
        if !mean.is_finite() {
            return Err(DistError::new("normal mean must be finite"));
        }
        if !(std_dev.is_finite() && std_dev >= 0.0) {
            return Err(DistError::new(format!(
                "normal std dev must be >= 0, got {std_dev}"
            )));
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller transform (stateless variant: we use one of the pair).
        let u1 = 1.0 - rng.next_f64(); // (0, 1]
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Poisson distribution with mean `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and non-negative.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(DistError::new(format!(
                "poisson lambda must be >= 0, got {lambda}"
            )));
        }
        Ok(Poisson { lambda })
    }
}

impl Distribution<u64> for Poisson {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth's product-of-uniforms method.
            let limit = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction — adequate for
            // the workload-intensity use cases in this project.
            let n = Normal::new(self.lambda, self.lambda.sqrt())
                .expect("lambda validated at construction");
            n.sample(rng).round().max(0.0) as u64
        }
    }
}

/// Discrete distribution over arbitrary items with given weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Weighted<T> {
    items: Vec<T>,
    cdf: Vec<f64>,
}

impl<T> Weighted<T> {
    /// Creates a weighted distribution from `(item, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(pairs: impl IntoIterator<Item = (T, f64)>) -> Result<Self, DistError> {
        let mut items = Vec::new();
        let mut cdf = Vec::new();
        let mut acc = 0.0;
        for (item, w) in pairs {
            if !(w.is_finite() && w >= 0.0) {
                return Err(DistError::new(format!("weight must be >= 0, got {w}")));
            }
            acc += w;
            items.push(item);
            cdf.push(acc);
        }
        if items.is_empty() {
            return Err(DistError::new("weighted distribution needs items"));
        }
        if acc <= 0.0 {
            return Err(DistError::new("weights sum to zero"));
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Ok(Weighted { items, cdf })
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if there are no items (cannot occur after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Draws the index of a weighted item without touching the item itself.
    ///
    /// This is the clone-free primitive behind [`Distribution::sample`]; use
    /// it (or [`Weighted::sample_ref`]) on the hot path when the item is
    /// `Copy` or cheap to dereference.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.items.len() - 1),
        }
    }

    /// Draws a weighted item by reference, without cloning.
    pub fn sample_ref(&self, rng: &mut SimRng) -> &T {
        &self.items[self.sample_index(rng)]
    }
}

impl<T: Clone> Distribution<T> for Weighted<T> {
    fn sample(&self, rng: &mut SimRng) -> T {
        self.items[self.sample_index(rng)].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution<f64>, rng: &mut SimRng, n: usize) -> f64 {
        (0..n).map(|_| d.sample(rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut rng = SimRng::seed(2);
        let d = Exp::new(4.0).unwrap();
        let m = mean_of(&d, &mut rng, 100_000);
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn exp_rejects_bad_rate() {
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-1.0).is_err());
        assert!(Exp::new(f64::NAN).is_err());
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(3);
        let d = Normal::new(10.0, 2.0).unwrap();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = SimRng::seed(4);
        let d = Normal::new(3.0, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.0);
        }
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = SimRng::seed(10);
        let d = Poisson::new(3.5).unwrap();
        let n = 100_000;
        let m = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut rng = SimRng::seed(11);
        let d = Poisson::new(200.0).unwrap();
        let n = 50_000;
        let m = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((m - 200.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = SimRng::seed(12);
        let d = Poisson::new(0.0).unwrap();
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = SimRng::seed(15);
        let d = Weighted::new([("a", 3.0), ("b", 1.0)]).unwrap();
        let hits_a = (0..40_000).filter(|_| d.sample(&mut rng) == "a").count();
        let freq = hits_a as f64 / 40_000.0;
        assert!((freq - 0.75).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn weighted_zero_weight_item_never_drawn() {
        let mut rng = SimRng::seed(16);
        let d = Weighted::new([("never", 0.0), ("always", 1.0)]).unwrap();
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut rng), "always");
        }
    }

    #[test]
    fn weighted_sample_ref_matches_sample() {
        // The clone-free path consumes the same randomness and picks the
        // same item as the cloning `Distribution::sample`.
        let d = Weighted::new([("a", 3.0), ("b", 1.0), ("c", 2.0)]).unwrap();
        let mut by_clone = SimRng::seed(18);
        let mut by_ref = SimRng::seed(18);
        for _ in 0..1_000 {
            let cloned: &str = d.sample(&mut by_clone);
            assert_eq!(*d.sample_ref(&mut by_ref), cloned);
        }
    }

    #[test]
    fn weighted_works_without_clone() {
        // `sample_index`/`sample_ref` are available for non-`Clone` items.
        struct NotClone(u8);
        let d = Weighted::new([(NotClone(1), 1.0), (NotClone(2), 1.0)]).unwrap();
        let mut rng = SimRng::seed(19);
        assert_eq!(d.len(), 2);
        let i = d.sample_index(&mut rng);
        assert!(i < 2);
        assert!(matches!(d.sample_ref(&mut rng), NotClone(1 | 2)));
    }

    #[test]
    fn weighted_rejects_degenerate() {
        assert!(Weighted::<&str>::new([]).is_err());
        assert!(Weighted::new([("a", 0.0)]).is_err());
        assert!(Weighted::new([("a", -1.0)]).is_err());
    }

    #[test]
    fn dist_error_displays() {
        let err = Exp::new(0.0).unwrap_err();
        assert!(err.to_string().contains("invalid distribution parameter"));
    }
}
