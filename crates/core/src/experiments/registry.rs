//! Uniform experiment registry.
//!
//! Every experiment in the suite is reachable through one interface: the
//! [`Experiment`] trait object maps an id and a human-readable name to a
//! `fn(&Scenario) -> ExperimentRun` runner. Consumers that used to hardcode
//! the E1–E15 module list (the CLI, the replication engine in `elc-runner`)
//! iterate [`registry`] or look an entry up with [`find`] instead.
//!
//! An [`ExperimentRun`] pairs the rendered [`Section`] with a typed
//! [`MetricSet`] of `(MetricKey, f64)` pairs emitted directly by the
//! experiment — no string scraping on the hot path. The interned metric
//! names are `column[row-key]`, so `E9`'s `days` column for the `public`
//! row becomes `days[public]` — stable across seeds, which is what lets a
//! replication engine aggregate the same metric over many runs. The typed
//! path is the *only* metric source; the golden tests below pin its names
//! and values directly instead of cross-checking a table scrape.

use elc_analysis::metrics::MetricSet;
use elc_analysis::report::Section;

pub use elc_analysis::metrics::parse_numeric_cell;

use crate::scenario::Scenario;

/// One replication's worth of output from a single experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRun {
    /// The rendered report section (table + notes).
    pub section: Section,
    /// Typed numeric metrics, in table order.
    pub metrics: MetricSet,
}

/// A uniformly invokable experiment.
pub trait Experiment: Send + Sync {
    /// Stable lowercase id (`"e01"`, `"t1"`).
    fn id(&self) -> &'static str;
    /// Human-readable title, matching the report section.
    fn name(&self) -> &'static str;
    /// Runs one replication. Pure in `(scenario, scenario.seed())`: equal
    /// inputs produce equal output on any thread at any time.
    fn run(&self, scenario: &Scenario) -> ExperimentRun;
    /// Runs one replication for its metrics only, skipping the section
    /// render — the replication engine's hot path. Must equal
    /// `self.run(scenario).metrics`.
    fn run_metrics(&self, scenario: &Scenario) -> MetricSet {
        self.run(scenario).metrics
    }
}

macro_rules! experiments {
    ($( $adapter:ident: $module:ident, $id:literal, $name:literal; )+) => {
        $(
            struct $adapter;

            impl Experiment for $adapter {
                fn id(&self) -> &'static str {
                    $id
                }

                fn name(&self) -> &'static str {
                    $name
                }

                fn run(&self, scenario: &Scenario) -> ExperimentRun {
                    let out = super::$module::run(scenario);
                    ExperimentRun {
                        section: out.section(),
                        metrics: out.metrics(),
                    }
                }

                fn run_metrics(&self, scenario: &Scenario) -> MetricSet {
                    super::$module::run(scenario).metrics()
                }
            }
        )+
    };
}

experiments! {
    E01: e01, "e01", "TCO vs institution size (3-year horizon)";
    E02: e02, "e02", "Client startup and footprint";
    E03: e03, "e03", "Update propagation latency";
    E04: e04, "e04", "Digital-asset survival";
    E05: e05, "e05", "Device-switch continuity";
    E06: e06, "e06", "Unauthorized-access incidents";
    E07: e07, "e07", "Connection loss: time, work, unsaved data";
    E08: e08, "e08", "Exit cost (vendor lock-in)";
    E09: e09, "e09", "Time to first service";
    E10: e10, "e10", "Hybrid unit-distribution sweep (Pareto frontier)";
    E11: e11, "e11", "Governance overhead vs platform count";
    E12: e12, "e12", "Exam-day surge: elastic vs fixed capacity";
    E13: e13, "e13", "Community cloud: per-member economics vs consortium size";
    E14: e14, "e14", "Service models on the public cloud: IaaS / PaaS / SaaS";
    E15: e15, "e15", "Capacity planning under enrollment growth";
    E16: e16, "e16", "Resilience under injected faults: deployment models compared";
    E17: e17, "e17", "Serverless cold-start economics: FaaS vs provisioned models";
    E18: e18, "e18", "National exam federation: hybrid-fidelity scale-out";
    E19: e19, "e19", "Disaster recovery: region-loss drill, RTO / RPO / cost by model";
}

/// T1 folds every other experiment's metrics into the comparison matrix,
/// so its runner executes the full suite.
struct T1;

impl Experiment for T1 {
    fn id(&self) -> &'static str {
        "t1"
    }

    fn name(&self) -> &'static str {
        "Deployment-model comparison matrix (measured)"
    }

    fn run(&self, scenario: &Scenario) -> ExperimentRun {
        let m = super::run_all(scenario).metrics();
        ExperimentRun {
            section: m.section(),
            metrics: m.metric_set(),
        }
    }

    fn run_metrics(&self, scenario: &Scenario) -> MetricSet {
        super::run_all(scenario).metrics().metric_set()
    }
}

static REGISTRY: [&dyn Experiment; 20] = [
    &E01, &E02, &E03, &E04, &E05, &E06, &E07, &E08, &E09, &E10, &E11, &E12, &E13, &E14, &E15, &E16,
    &E17, &E18, &E19, &T1,
];

/// Every experiment, suite order (E1–E19 then T1).
#[must_use]
pub fn registry() -> &'static [&'static dyn Experiment] {
    &REGISTRY
}

/// Looks an experiment up by id, tolerantly: `e1`, `e01`, `E1` and `t1`
/// all resolve.
#[must_use]
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    let lower = id.to_ascii_lowercase();
    let canonical = match lower.strip_prefix('e').and_then(|n| n.parse::<u32>().ok()) {
        Some(n) => format!("e{n:02}"),
        None => lower,
    };
    registry().iter().find(|e| e.id() == canonical).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_suite() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 20);
        assert_eq!(ids[0], "e01");
        assert_eq!(ids[14], "e15");
        assert_eq!(ids[15], "e16");
        assert_eq!(ids[16], "e17");
        assert_eq!(ids[17], "e18");
        assert_eq!(ids[18], "e19");
        assert_eq!(ids[19], "t1");
        // Ids are unique.
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn find_is_tolerant_about_id_spelling() {
        for spelling in ["e1", "e01", "E1", "E01"] {
            assert_eq!(find(spelling).expect(spelling).id(), "e01");
        }
        assert_eq!(find("t1").unwrap().id(), "t1");
        assert_eq!(find("T1").unwrap().id(), "t1");
        assert!(find("e99").is_none());
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn every_entry_runs_and_yields_metrics() {
        let scenario = Scenario::small_college(7);
        for e in registry() {
            let run = e.run(&scenario);
            assert!(
                !run.metrics.is_empty(),
                "{} produced no numeric metrics",
                e.id()
            );
            assert!(!run.section.table().is_empty(), "{} empty table", e.id());
            for (name, value) in run.metrics.named() {
                assert!(value.is_finite(), "{}: {name} not finite", e.id());
            }
        }
    }

    /// The non-negotiable invariant of the typed pipeline: the
    /// metrics-only fast path equals the full run, for every experiment.
    #[test]
    fn run_metrics_fast_path_agrees_with_run_everywhere() {
        let scenario = Scenario::small_college(42);
        for e in registry() {
            let run = e.run(&scenario);
            assert_eq!(
                e.run_metrics(&scenario),
                run.metrics,
                "{}: run_metrics fast path diverges from run",
                e.id()
            );
        }
    }

    /// Golden pin of the typed path itself: E9's metric names follow the
    /// `column[row-key]` convention and its values at seed 42 are exactly
    /// the committed ones. If this moves, the paper tables move.
    #[test]
    fn e09_typed_metrics_are_pinned_at_seed_42() {
        let run = find("e09").unwrap().run(&Scenario::small_college(42));
        let expected = vec![
            ("acquisition (days)[public]".to_string(), 0.167),
            ("installation (days)[public]".to_string(), 2.0),
            ("integration (days)[public]".to_string(), 0.0),
            ("time to service (days)[public]".to_string(), 2.167),
            ("acquisition (days)[private]".to_string(), 45.0),
            ("installation (days)[private]".to_string(), 10.0),
            ("integration (days)[private]".to_string(), 0.0),
            ("time to service (days)[private]".to_string(), 55.0),
            ("acquisition (days)[hybrid]".to_string(), 45.0),
            ("installation (days)[hybrid]".to_string(), 10.0),
            ("integration (days)[hybrid]".to_string(), 15.0),
            ("time to service (days)[hybrid]".to_string(), 70.0),
        ];
        assert_eq!(run.metrics.to_named_vec(), expected);
    }

    #[test]
    fn metrics_are_pure_in_scenario_and_seed() {
        let e = find("e09").unwrap();
        let a = e.run(&Scenario::small_college(42));
        let b = e.run(&Scenario::small_college(42));
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.section, b.section);
    }

    #[test]
    fn numeric_cell_parsing() {
        assert_eq!(parse_numeric_cell("42.5"), Some(42.5));
        assert_eq!(parse_numeric_cell("$1234.00"), Some(1234.0));
        assert_eq!(parse_numeric_cell("-$5.50"), Some(-5.5));
        assert_eq!(parse_numeric_cell("12.5%"), Some(12.5));
        assert_eq!(parse_numeric_cell("1.00e-4"), Some(1e-4));
        assert_eq!(parse_numeric_cell("4.2 d"), Some(4.2));
        assert_eq!(parse_numeric_cell("public"), None);
        assert_eq!(parse_numeric_cell(""), None);
        assert_eq!(parse_numeric_cell("  "), None);
    }

    #[test]
    fn metric_names_follow_column_row_convention() {
        let run = find("e01").unwrap().run(&Scenario::small_college(1));
        assert!(
            run.metrics.named().any(|(n, _)| n == "public ($)[1000]"),
            "expected column[row] metric names, got {:?}",
            run.metrics.named().take(4).collect::<Vec<_>>()
        );
    }
}
