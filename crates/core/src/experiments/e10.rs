//! E10 — Hybrid unit distribution: the cost/security/portability frontier.
//!
//! Paper claim under test: §IV.C "distribution of units between these
//! models is significant to address the requirements of the organization".
//! Expected shape: the Pareto frontier over all 64 placements contains
//! interior hybrids (at scale, cloudbursting the exam surge pays), so the
//! split genuinely matters — no single placement dominates.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_analysis::table::fmt_f64;
use elc_deploy::cost::CostInputs;
use elc_deploy::hybrid::{pareto, sweep, SplitPoint};
use elc_deploy::security::ThreatModel;

use crate::scenario::Scenario;

/// E10 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// All 64 scored placements.
    pub points: Vec<SplitPoint>,
    /// The Pareto-efficient subset, sorted by public fraction.
    pub frontier: Vec<SplitPoint>,
}

/// Runs the sweep at the scenario's scale.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let mut inputs = CostInputs::standard(scenario.workload_model());
    inputs.years = scenario.years();
    let data = inputs.stored_bytes;
    let points = sweep(&inputs, &ThreatModel::standard(), data);
    let mut frontier = pareto(&points);
    frontier.sort_by(|a, b| {
        a.public_fraction
            .partial_cmp(&b.public_fraction)
            .expect("fractions are finite")
    });
    Output { points, frontier }
}

impl Output {
    /// True if the frontier contains a genuine split (neither pure model).
    #[must_use]
    pub fn has_interior_optimum(&self) -> bool {
        self.frontier
            .iter()
            .any(|p| p.public_fraction > 0.0 && p.public_fraction < 1.0)
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "public load (%)",
            "public components",
            "TCO ($)",
            "confidential incidents/yr",
            "exit cost ($)",
        ]);
        for p in &self.frontier {
            let comps: Vec<String> = p
                .deployment
                .components_on(elc_deploy::model::Site::PublicCloud)
                .iter()
                .map(ToString::to_string)
                .collect();
            t.row(
                fmt_f64(p.public_fraction * 100.0),
                vec![
                    Cell::text(if comps.is_empty() {
                        "(none)".to_string()
                    } else {
                        comps.join("+")
                    }),
                    Cell::num(p.total_cost.amount()),
                    Cell::num(p.confidential_incident_rate),
                    Cell::num(p.exit_cost.amount()),
                ],
            );
        }
        t
    }

    /// The typed metrics, without rendering the table.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metric_table().metrics()
    }

    /// Renders the E10 section (frontier points only; the full 64-point
    /// sweep goes to CSV via the harness).
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E10",
            "Hybrid unit-distribution sweep (Pareto frontier of 64 placements)",
            self.metric_table().to_table(),
        );
        s.note("paper §IV.C: the distribution of units between models \"is significant\"");
        s.note(format!(
            "measured: {} of 64 placements are Pareto-efficient; interior hybrid present: {}",
            self.frontier.len(),
            self.has_interior_optimum()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_deploy::cost::tco;

    fn output() -> Output {
        run(&Scenario::national_platform(31))
    }

    #[test]
    fn full_sweep_and_frontier() {
        let out = output();
        assert_eq!(out.points.len(), 64);
        assert!(!out.frontier.is_empty());
        assert!(out.frontier.len() < out.points.len());
    }

    #[test]
    fn interior_optimum_at_national_scale() {
        assert!(output().has_interior_optimum());
    }

    #[test]
    fn frontier_sorted_by_fraction() {
        let out = output();
        for w in out.frontier.windows(2) {
            assert!(w[0].public_fraction <= w[1].public_fraction);
        }
    }

    #[test]
    fn pure_private_always_on_frontier() {
        // It is the unique minimum of both security and exit axes.
        let out = output();
        assert!(out.frontier.iter().any(|p| p.public_fraction == 0.0));
    }

    #[test]
    fn sweep_prices_every_placement_as_a_lone_tco() {
        // The sweep samples the half-year once for all 64 placements; each
        // total must keep the exact bits `tco` computes on its own.
        for scenario in [Scenario::small_college(42), Scenario::national_platform(42)] {
            let mut inputs = CostInputs::standard(scenario.workload_model());
            inputs.years = scenario.years();
            let out = run(&scenario);
            assert_eq!(out.points.len(), 64);
            for p in &out.points {
                assert_eq!(
                    p.total_cost.amount().to_bits(),
                    tco(&p.deployment, &inputs).total().amount().to_bits(),
                    "{}: {:?}",
                    scenario.name(),
                    p.deployment
                );
            }
        }
    }

    #[test]
    fn section_shape() {
        let out = output();
        let s = out.section();
        assert_eq!(s.id(), "E10");
        assert_eq!(s.table().len(), out.frontier.len());
    }
}
