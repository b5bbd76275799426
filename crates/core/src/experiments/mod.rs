//! The experiment suite.
//!
//! One module per experiment in the DESIGN.md index (E1–E12), the
//! extension experiments (E13 community cloud, E14 service models, E15
//! growth planning, E16 chaos resilience, E17 serverless economics, E18
//! national-scale hybrid fidelity, E19 disaster recovery) and the
//! measured comparison matrix (T1). Every module exposes `run(&Scenario)`
//! returning a typed output with a `section()` renderer; [`run_all`]
//! executes the whole suite and assembles the report, and [`registry()`]
//! exposes every experiment behind the uniform [`Experiment`] interface
//! (one trait object per id) for consumers like the CLI and the
//! `elc-runner` replication engine.

pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
mod fleet;
pub mod registry;
pub mod t1;

pub use fleet::latency_s as fleet_latency_s;
pub use registry::{find, registry, Experiment, ExperimentRun};

use elc_analysis::report::Report;

use crate::scenario::Scenario;

/// Typed outputs of the full suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOutputs {
    /// E1 — TCO sweep.
    pub e01: e01::Output,
    /// E2 — client performance.
    pub e02: e02::Output,
    /// E3 — update propagation.
    pub e03: e03::Output,
    /// E4 — data reliability.
    pub e04: e04::Output,
    /// E5 — device independence.
    pub e05: e05::Output,
    /// E6 — security incidents.
    pub e06: e06::Output,
    /// E7 — network risk.
    pub e07: e07::Output,
    /// E8 — portability / exit.
    pub e08: e08::Output,
    /// E9 — time to service.
    pub e09: e09::Output,
    /// E10 — hybrid distribution sweep.
    pub e10: e10::Output,
    /// E11 — governance overhead.
    pub e11: e11::Output,
    /// E12 — elasticity under surge.
    pub e12: e12::Output,
    /// E13 — community cloud (extension).
    pub e13: e13::Output,
    /// E14 — service models (extension).
    pub e14: e14::Output,
    /// E15 — growth capacity planning (extension).
    pub e15: e15::Output,
}

impl SuiteOutputs {
    /// The cross-experiment metric table.
    #[must_use]
    pub fn metrics(&self) -> t1::ModelMetrics {
        t1::ModelMetrics::from_outputs(
            &self.e01, &self.e03, &self.e04, &self.e06, &self.e08, &self.e09, &self.e11, &self.e12,
        )
    }

    /// Assembles the full report: E1–E12 sections plus the T1 matrix.
    #[must_use]
    pub fn report(&self) -> Report {
        let mut r = Report::new();
        r.push(self.e01.section());
        r.push(self.e02.section());
        r.push(self.e03.section());
        r.push(self.e04.section());
        r.push(self.e05.section());
        r.push(self.e06.section());
        r.push(self.e07.section());
        r.push(self.e08.section());
        r.push(self.e09.section());
        r.push(self.e10.section());
        r.push(self.e11.section());
        r.push(self.e12.section());
        r.push(self.e13.section());
        r.push(self.e14.section());
        r.push(self.e15.section());
        r.push(self.metrics().section());
        r
    }
}

/// Runs the whole report suite against one scenario.
///
/// E16–E18 are registry-only extensions: they run through
/// [`registry()`]/[`find`] (the CLI's `--experiment` path) but stay out
/// of the assembled report, whose section set and goldens predate them.
/// E18 in particular defaults to national scale, where only the fluid
/// fast path is tractable.
#[must_use]
pub fn run_all(scenario: &Scenario) -> SuiteOutputs {
    SuiteOutputs {
        e01: e01::run(scenario),
        e02: e02::run(scenario),
        e03: e03::run(scenario),
        e04: e04::run(scenario),
        e05: e05::run(scenario),
        e06: e06::run(scenario),
        e07: e07::run(scenario),
        e08: e08::run(scenario),
        e09: e09::run(scenario),
        e10: e10::run(scenario),
        e11: e11::run(scenario),
        e12: e12::run(scenario),
        e13: e13::run(scenario),
        e14: e14::run(scenario),
        e15: e15::run(scenario),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_produces_sixteen_sections() {
        let out = run_all(&Scenario::small_college(99));
        let report = out.report();
        assert_eq!(report.sections().len(), 16);
        for id in [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
            "E14", "E15", "T1",
        ] {
            assert!(report.section(id).is_some(), "missing section {id}");
        }
    }

    #[test]
    fn report_renders_nonempty() {
        let out = run_all(&Scenario::small_college(99));
        let text = out.report().to_string();
        assert!(text.len() > 2_000);
        assert!(text.contains("== T1"));
    }
}
