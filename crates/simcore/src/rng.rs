//! Deterministic, splittable pseudo-random number generation.
//!
//! Reproducibility is a core requirement of the kernel: a simulation run is a
//! pure function of its configuration and a single `u64` seed. To keep that
//! property as models grow, the generator is *splittable*: every entity
//! derives its own independent stream ([`SimRng::derive`]), so adding a new
//! consumer of randomness does not perturb the draws seen by existing ones.
//!
//! The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA'14) — a
//! small, fast generator with 64-bit state whose output passes BigCrush when
//! used as intended. It is *not* cryptographically secure, which is fine: the
//! threat-model code in higher layers models attacker success statistically,
//! not adversarially against the RNG.

/// Golden-ratio increment used by SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, splittable random number generator.
///
/// # Examples
///
/// ```
/// use elc_simcore::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Derived streams are independent of the parent's position.
/// let mut s1 = a.derive("students");
/// let mut s2 = a.derive("students");
/// assert_eq!(s1.next_u64(), s2.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    /// Identifies the stream; never changes after construction/derivation.
    stream: u64,
    /// Position within the stream; advances on every draw.
    counter: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    ///
    /// Equal seeds yield identical streams on every platform.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        // Scramble the seed once so that small consecutive seeds (0, 1, 2…)
        // do not produce visibly correlated first draws.
        SimRng {
            stream: mix(seed ^ GOLDEN_GAMMA),
            counter: 0,
        }
    }

    /// Derives an independent stream identified by `label`.
    ///
    /// Derivation depends only on the *seed lineage* and the label, not on
    /// how many numbers the parent has produced, so instrumentation that
    /// draws extra randomness never shifts sibling streams.
    #[must_use]
    pub fn derive(&self, label: &str) -> SimRng {
        SimRng {
            stream: mix(self.stream ^ fnv1a(label.as_bytes())),
            counter: 0,
        }
    }

    /// Derives an independent stream identified by an integer, e.g. an
    /// entity index.
    #[must_use]
    pub fn derive_u64(&self, index: u64) -> SimRng {
        SimRng {
            stream: mix(self.stream ^ mix(index.wrapping_add(GOLDEN_GAMMA))),
            counter: 0,
        }
    }

    /// Produces the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        mix(self
            .stream
            .wrapping_add(self.counter.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Produces a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Produces a uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires n > 0");
        // Lemire (2019): unbiased bounded integers without division in the
        // common case.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n || low >= low.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Produces a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi, got {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Produces a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "range_f64 requires lo <= hi, got {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// Returns `None` when `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.next_below(items.len() as u64) as usize])
        }
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix of the state.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string, used to turn stream labels into seeds.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_position_independent() {
        let mut parent = SimRng::seed(1);
        let before = parent.derive("x");
        let _ = parent.next_u64(); // advance the parent
        let after = parent.derive("x");
        assert_eq!(before, after);
    }

    #[test]
    fn derived_labels_are_independent() {
        let parent = SimRng::seed(1);
        let mut a = parent.derive("a");
        let mut b = parent.derive("b");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_u64_distinct_indices() {
        let parent = SimRng::seed(1);
        let mut a = parent.derive_u64(0);
        let mut b = parent.derive_u64(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut rng = SimRng::seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_covers_all_values() {
        let mut rng = SimRng::seed(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.next_below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn next_below_zero_panics() {
        SimRng::seed(0).next_below(0);
    }

    #[test]
    fn range_u64_inclusive_bounds() {
        let mut rng = SimRng::seed(13);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..2_000 {
            let x = rng.range_u64(5, 8);
            assert!((5..=8).contains(&x));
            hit_lo |= x == 5;
            hit_hi |= x == 8;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn range_u64_degenerate() {
        let mut rng = SimRng::seed(13);
        assert_eq!(rng.range_u64(4, 4), 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::seed(19);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn pick_and_empty_pick() {
        let mut rng = SimRng::seed(23);
        let items = [1, 2, 3];
        assert!(items.contains(rng.pick(&items).unwrap()));
        let empty: [i32; 0] = [];
        assert!(rng.pick(&empty).is_none());
    }

    #[test]
    fn mix_avalanches() {
        // mix is bijective with a fixed point at 0; check that nearby inputs
        // land far apart.
        assert_ne!(mix(1), 1);
        assert_ne!(mix(1), mix(2));
        assert!((mix(1) ^ mix(2)).count_ones() > 16);
    }

    #[test]
    fn fnv_distinguishes_labels() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
