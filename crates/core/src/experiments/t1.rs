//! T1 — The measured deployment-model comparison matrix.
//!
//! The paper's §V claims the comparison of deployment models "is
//! articulated exhaustively"; T1 *is* that articulation, rebuilt from
//! measurements: one row per criterion, one column per model, ratings
//! derived from the numbers the experiments produced.

use elc_analysis::matrix::{Direction, WideMatrix};
use elc_analysis::metrics::MetricSet;
use elc_analysis::report::Section;
use elc_deploy::model::{Deployment, DeploymentKind};

use super::{e01, e03, e04, e06, e08, e09, e11, e12};

/// Metric values for every criterion the advisor weighs. The default
/// `[f64; 3]` holds one value per model (order: public, private, hybrid);
/// the T1 appendix's FaaS column ([`FaasColumn`](super::e17::FaasColumn))
/// holds a single `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelMetrics<V = [f64; 3]> {
    /// TCO over the horizon, USD.
    pub tco: V,
    /// Mean update staleness, days.
    pub staleness_days: V,
    /// Asset loss probability over 3 years.
    pub loss_probability: V,
    /// Confidential incidents per year.
    pub confidential_incidents: V,
    /// Exit cost, USD.
    pub exit_cost: V,
    /// Time to first service, days.
    pub time_to_service_days: V,
    /// Ongoing operations staffing, FTE.
    pub ops_fte: V,
    /// Exam-day rejected fraction.
    pub surge_rejected: V,
}

impl<V: Copy> ModelMetrics<V> {
    /// The comparison criteria in matrix row order: name, source
    /// experiment and value. Every one is lower-is-better.
    #[must_use]
    pub fn criteria(&self) -> [(&'static str, &'static str, V); 8] {
        [
            ("3-year TCO ($)", "E1", self.tco),
            ("update staleness (days)", "E3", self.staleness_days),
            ("asset loss probability (3y)", "E4", self.loss_probability),
            (
                "confidential incidents (/yr)",
                "E6",
                self.confidential_incidents,
            ),
            ("exit cost ($)", "E8", self.exit_cost),
            ("time to service (days)", "E9", self.time_to_service_days),
            ("operations (FTE)", "E11", self.ops_fte),
            ("exam-day rejected (frac)", "E12", self.surge_rejected),
        ]
    }
}

impl ModelMetrics {
    /// Assembles the metric table from experiment outputs.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one argument per source experiment
    pub fn from_outputs(
        e01: &e01::Output,
        e03: &e03::Output,
        e04: &e04::Output,
        e06: &e06::Output,
        e08: &e08::Output,
        e09: &e09::Output,
        e11: &e11::Output,
        e12: &e12::Output,
    ) -> Self {
        let day = 86_400.0;
        let saas = e03.saas.mean_staleness.as_secs_f64() / day;
        let onprem = e03.onprem.mean_staleness.as_secs_f64() / day;
        // A hybrid updates its public share on the SaaS channel and its
        // private share through admin windows; weight by load share.
        let pub_frac = Deployment::hybrid_default().public_load_fraction();
        let hybrid_staleness = saas * pub_frac + onprem * (1.0 - pub_frac);

        let per_model = |f: &dyn Fn(DeploymentKind) -> f64| -> [f64; 3] {
            [
                f(DeploymentKind::Public),
                f(DeploymentKind::Private),
                f(DeploymentKind::Hybrid),
            ]
        };

        ModelMetrics {
            tco: [
                e01.at_scenario[0].amount(),
                e01.at_scenario[1].amount(),
                e01.at_scenario[2].amount(),
            ],
            staleness_days: [saas, onprem, hybrid_staleness],
            loss_probability: per_model(&|k| e04.row(k).loss_probability[1]),
            confidential_incidents: per_model(&|k| e06.row(k).confidential_rate),
            exit_cost: per_model(&|k| e08.row(k).plan.total_cost.amount()),
            time_to_service_days: per_model(&|k| {
                e09.row(k).schedule.time_to_service().as_secs_f64() / day
            }),
            ops_fte: e11.model_fte,
            // Strategy mapping: the public model autoscale-tracks the
            // surge; so does the hybrid (its assessment tier bursts to the
            // cloud); the budget-sized private fleet is fixed at the
            // teaching peak.
            surge_rejected: [
                e12.row(e12::Strategy::Elastic).rejected_fraction,
                e12.row(e12::Strategy::FixedTeaching).rejected_fraction,
                e12.row(e12::Strategy::Elastic).rejected_fraction,
            ],
        }
    }

    /// Builds the comparison matrix.
    #[must_use]
    pub fn matrix(&self) -> WideMatrix {
        let mut m = WideMatrix::new(["public", "private", "hybrid"]);
        for (name, experiment, values) in self.criteria() {
            m.add(name, experiment, values.to_vec(), Direction::LowerIsBetter);
        }
        m
    }

    /// The typed metrics of the matrix view, without rendering the
    /// table: one metric per model per criterion (the numeric half of the
    /// `"42.2 (good)"` cells).
    #[must_use]
    pub fn metric_set(&self) -> MetricSet {
        self.matrix().to_metric_table().metrics()
    }

    /// Renders the T1 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let m = self.matrix();
        let wins = m.win_counts();
        let mut s = Section::new(
            "T1",
            "Deployment-model comparison matrix (measured)",
            m.to_table(),
        );
        s.note("paper §V: \"the comparison of deployment models … is articulated exhaustively\"");
        s.note(format!(
            "criteria won (public/private/hybrid): {}/{}/{} — no model dominates; the choice depends on requirements (§II)",
            wins[0], wins[1], wins[2]
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn metrics() -> ModelMetrics {
        let s = Scenario::university(47);
        ModelMetrics::from_outputs(
            &e01::run(&s),
            &e03::run(&s),
            &e04::run(&s),
            &e06::run(&s),
            &e08::run(&s),
            &e09::run(&s),
            &e11::run(&s),
            &e12::run(&s),
        )
    }

    #[test]
    fn no_model_dominates() {
        let m = metrics().matrix();
        let wins = m.win_counts();
        // The paper's whole point: every model wins something.
        assert!(wins.iter().all(|&w| w > 0), "win counts {wins:?}");
    }

    #[test]
    fn public_wins_speed_private_wins_security() {
        let met = metrics();
        // Time to service: public best.
        assert!(met.time_to_service_days[0] < met.time_to_service_days[1]);
        assert!(met.time_to_service_days[0] < met.time_to_service_days[2]);
        // Confidential incidents: private best (hybrid ties).
        assert!(met.confidential_incidents[1] <= met.confidential_incidents[2]);
        assert!(met.confidential_incidents[1] < met.confidential_incidents[0]);
    }

    #[test]
    fn hybrid_staleness_between_extremes() {
        let met = metrics();
        assert!(met.staleness_days[2] > met.staleness_days[0]);
        assert!(met.staleness_days[2] < met.staleness_days[1]);
    }

    #[test]
    fn section_covers_all_criteria() {
        let met = metrics();
        let s = met.section();
        assert_eq!(s.id(), "T1");
        assert_eq!(s.table().len(), 8);
        assert!(s.notes().iter().any(|n| n.contains("criteria won")));
    }
}
