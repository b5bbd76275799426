//! E4 — Data reliability: asset survival under crashes and disasters.
//!
//! Paper claims under test: §III.4 "even if the personal computer crashes,
//! all data is still intact in the cloud" and §IV.B the private cloud
//! "runs the risk of data loss due to physical damage of the unit".
//! Expected shape: public < hybrid < private on loss probability; the
//! private model's loss tracks its site-disaster rate; everything
//! server-side survives client crashes.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_deploy::model::DeploymentKind;
use elc_deploy::reliability::StorageProfile;
use elc_simcore::rng::SimRng;

use crate::scenario::Scenario;

/// Horizons (years) for the analytic loss columns.
pub const HORIZONS: [f64; 3] = [1.0, 3.0, 10.0];

/// Monte-Carlo repetitions.
const MC_RUNS: u64 = 3_000;

/// One model's reliability measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityRow {
    /// The deployment model.
    pub kind: DeploymentKind,
    /// Analytic loss probability at each of [`HORIZONS`].
    pub loss_probability: [f64; 3],
    /// Monte-Carlo asset survival rate at the 10-year horizon.
    pub mc_survival_10y: f64,
}

/// E4 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One row per model.
    pub rows: Vec<ReliabilityRow>,
}

/// Runs analytics plus Monte-Carlo cross-check.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let rng = SimRng::seed(scenario.seed()).derive("e04");
    let rows = DeploymentKind::ALL
        .iter()
        .map(|&kind| {
            let profile = StorageProfile::for_model(kind);
            let mut loss = [0.0; 3];
            for (i, &y) in HORIZONS.iter().enumerate() {
                loss[i] = profile.asset_loss_probability(y);
            }
            let model_rng = rng.derive(&kind.to_string());
            let mc: f64 = (0..MC_RUNS)
                .map(|i| {
                    let mut r = model_rng.derive_u64(i);
                    profile.simulate_survival(&mut r, 20, 10.0)
                })
                .sum::<f64>()
                / MC_RUNS as f64;
            ReliabilityRow {
                kind,
                loss_probability: loss,
                mc_survival_10y: mc,
            }
        })
        .collect();
    Output { rows }
}

impl Output {
    /// The row for a model.
    #[must_use]
    pub fn row(&self, kind: DeploymentKind) -> &ReliabilityRow {
        self.rows
            .iter()
            .find(|r| r.kind == kind)
            .expect("all models measured")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "model",
            "loss p (1y)",
            "loss p (3y)",
            "loss p (10y)",
            "MC survival 10y (%)",
            "survives client crash",
        ]);
        for r in &self.rows {
            t.row(
                r.kind.to_string(),
                vec![
                    Cell::num(r.loss_probability[0]),
                    Cell::num(r.loss_probability[1]),
                    Cell::num(r.loss_probability[2]),
                    Cell::num(r.mc_survival_10y * 100.0),
                    Cell::text("yes"), // all three are server-side deployments
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

    /// Renders the E4 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E4",
            "Digital-asset survival",
            self.metric_table().to_table(),
        );
        s.note("paper §III.4: cloud data survives client crashes; §IV.B: single-site private storage risks total loss");
        s.note(
            "measured: public (3 sites) < hybrid (2 sites) < private (1 site) on loss probability",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Output {
        run(&Scenario::university(11))
    }

    #[test]
    fn ordering_matches_paper() {
        let out = output();
        for i in 0..HORIZONS.len() {
            let public = out.row(DeploymentKind::Public).loss_probability[i];
            let hybrid = out.row(DeploymentKind::Hybrid).loss_probability[i];
            let private = out.row(DeploymentKind::Private).loss_probability[i];
            assert!(public < hybrid, "h{i}: public {public} < hybrid {hybrid}");
            assert!(
                hybrid < private,
                "h{i}: hybrid {hybrid} < private {private}"
            );
        }
    }

    #[test]
    fn loss_grows_with_horizon() {
        for r in &output().rows {
            assert!(r.loss_probability[0] <= r.loss_probability[1]);
            assert!(r.loss_probability[1] <= r.loss_probability[2]);
        }
    }

    #[test]
    fn mc_agrees_with_analytic_disaster_path() {
        // The MC covers the disaster path only: an object is lost when
        // every site it spans burns, so it survives with probability
        // 1 - p_site^spread. All three profiles spread each object over
        // every site, so each run survives all or nothing and the mean of
        // MC_RUNS runs is binomial: the bound is 4 standard errors.
        for seed in [1, 7, 42, 2013, 9001] {
            let out = run(&Scenario::university(seed));
            for kind in DeploymentKind::ALL {
                let profile = StorageProfile::for_model(kind);
                assert_eq!(profile.replication.spread(), profile.replication.sites);
                let p_loss = profile
                    .failures
                    .disaster_probability(10.0)
                    .powi(profile.replication.spread() as i32);
                let se = (p_loss * (1.0 - p_loss) / MC_RUNS as f64).sqrt();
                let mc = out.row(kind).mc_survival_10y;
                assert!(
                    (mc - (1.0 - p_loss)).abs() <= 4.0 * se,
                    "seed {seed} {kind}: mc {mc} vs analytic {} ± 4 × {se}",
                    1.0 - p_loss
                );
            }
        }
    }

    #[test]
    fn public_mc_survival_is_near_one() {
        let out = output();
        assert!(out.row(DeploymentKind::Public).mc_survival_10y > 0.999);
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E4");
        assert_eq!(s.table().len(), 3);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&Scenario::university(5)), run(&Scenario::university(5)));
    }
}
