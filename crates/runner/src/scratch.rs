//! Per-worker scratch: the reusable working set of a pool worker.
//!
//! Each worker owns one [`Scratch`] for its whole lifetime and threads it
//! through every replication it executes. It caches one clone of the
//! spec's base scenario and reseeds it in place per task
//! ([`elc_core::scenario::Scenario::reseed`]), where
//! `RunSpec::scenario_for` would clone the base scenario per task.
//!
//! Scratch is storage, never state: results must be byte-identical with
//! or without it (pinned by the runner determinism tests). Tracer rings
//! need no slot here — `elc_trace::Tracer` grows its ring lazily and each
//! traced replication must return its own `Tracer` by value anyway.

use elc_core::scenario::Scenario;

use crate::plan::{replication_seed, RunSpec};

/// The reusable working set of one worker, passed through `execute` for
/// every task the worker picks up.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Cached clone of the spec's base scenario, reseeded per task.
    scenario: Option<Scenario>,
}

impl Scratch {
    /// A fresh, empty scratch (the scenario is cloned on first use).
    #[must_use]
    pub fn new() -> Self {
        Scratch::default()
    }

    /// The scenario for replication `index`.
    ///
    /// Equivalent to `spec.scenario_for(index)` minus the per-task clone.
    pub(crate) fn scenario(&mut self, spec: &RunSpec, index: u32) -> &Scenario {
        let scenario = self.scenario.get_or_insert_with(|| spec.scenario().clone());
        scenario.reseed(replication_seed(spec.base_seed(), index));
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_core::experiments::find;

    #[test]
    fn scenario_matches_scenario_for() {
        let spec = RunSpec::new(find("e09").unwrap(), Scenario::university(42), 4);
        let mut scratch = Scratch::new();
        for index in [0, 3, 1, 1] {
            let scenario = scratch.scenario(&spec, index);
            assert_eq!(scenario, &spec.scenario_for(index), "index {index}");
        }
    }
}
