//! # elc-bench — benchmark harness for the elearn-cloud experiments
//!
//! `benches/` holds one micro-benchmark per experiment plus the kernel
//! ablation `a1_kernel` (binary-heap event queue vs the naive baseline)
//! and the hot-path throughput bench `a5_hotpath`, all on the
//! dependency-free [`crit`] harness. `elc tables` regenerates the paper's
//! tables themselves; the `sensitivity` binary sweeps the calibration
//! behind E1's cost crossover.
//!
//! The benches share their scenarios and seed with `elc tables`, through
//! the re-exports below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crit;

use std::time::Duration;

use crit::Criterion;

/// A harness configuration tuned so the full bench suite completes in
/// a couple of minutes while still producing stable estimates.
#[must_use]
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

/// The scenarios the harness reports on, smallest first.
pub use elc_core::scenario::report_presets as harness_scenarios;
/// The default seed used by `elc tables` and the benches.
pub use elc_core::scenario::DEFAULT_SEED as HARNESS_SEED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_ordered_by_size() {
        let s = harness_scenarios(1);
        assert_eq!(s.len(), 4);
        for w in s.windows(2) {
            assert!(w[0].students() < w[1].students());
        }
    }
}
