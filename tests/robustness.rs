//! Seed robustness: the qualitative verdicts of every experiment must not
//! depend on the random seed. The stochastic digits move; the shapes the
//! paper asserts do not.

use elearn_cloud::core::experiments::{e12, e16, run_all};
use elearn_cloud::core::Scenario;
use elearn_cloud::deploy::model::DeploymentKind;

const SEEDS: [u64; 3] = [11, 222, 3_333];

#[test]
fn verdicts_are_seed_independent() {
    for seed in SEEDS {
        let out = run_all(&Scenario::small_college(seed));

        // E1: public cheapest at the smallest size, not at the largest.
        assert_eq!(
            out.e01.rows[0].winner(),
            DeploymentKind::Public,
            "seed {seed}: E1 small-scale winner moved"
        );
        assert_ne!(
            out.e01.rows.last().unwrap().winner(),
            DeploymentKind::Public,
            "seed {seed}: E1 large-scale winner moved"
        );

        // E3: SaaS fresher than admin-managed.
        assert!(
            out.e03.saas.mean_staleness < out.e03.onprem.mean_staleness,
            "seed {seed}: E3 ordering moved"
        );

        // E4: loss ordering public < hybrid < private at the 3y horizon.
        let loss = |k: DeploymentKind| out.e04.row(k).loss_probability[1];
        assert!(
            loss(DeploymentKind::Public) < loss(DeploymentKind::Hybrid)
                && loss(DeploymentKind::Hybrid) < loss(DeploymentKind::Private),
            "seed {seed}: E4 ordering moved"
        );

        // E6: private strictly more private than public on every seed's
        // simulated campaign (analytic rates are seed-free; check the MC).
        assert!(
            out.e06.row(DeploymentKind::Private).campaign.breaches
                <= out.e06.row(DeploymentKind::Public).campaign.breaches,
            "seed {seed}: E6 campaign ordering moved"
        );

        // E12: the teaching-sized fixed fleet always saturates badly
        // relative to elastic on exam day (at university scale this is
        // ~50% vs <1%; at college scale both can be near zero, so compare
        // with a tolerance).
        let fixed = out.e12.row(e12::Strategy::FixedTeaching).rejected_fraction;
        let elastic = out.e12.row(e12::Strategy::Elastic).rejected_fraction;
        // At college scale both can sit at noise level (~0.05%), so allow
        // a percentage-point of sampling slack between independent runs.
        assert!(
            fixed >= elastic - 0.01,
            "seed {seed}: elastic rejected materially more than a fixed fleet ({elastic} vs {fixed})"
        );

        // T1: no model dominates.
        let wins = out.metrics().matrix().win_counts();
        assert!(
            wins.iter().all(|&w| w > 0),
            "seed {seed}: a model dominated: {wins:?}"
        );
    }
}

#[test]
fn university_scale_surge_verdict_is_stable() {
    for seed in SEEDS {
        let out = e12::run(&Scenario::university(seed));
        let fixed = out.row(e12::Strategy::FixedTeaching).rejected_fraction;
        let elastic = out.row(e12::Strategy::Elastic).rejected_fraction;
        assert!(
            fixed > 0.3 && elastic < 0.05,
            "seed {seed}: surge verdict moved (fixed {fixed}, elastic {elastic})"
        );
    }
}

/// E16's claim over 32 seeds fixed in advance, at two scales: under the
/// default exam-day crisis the hybrid loses no quiz submission, while the
/// public model (through the uplink storm) and the private one (after the
/// site disaster) each lose some.
#[test]
fn hybrid_alone_keeps_every_quiz_submission_over_32_seeds() {
    use e16::DeployModel::{Hybrid, Private, Public};

    for preset in [Scenario::small_college, Scenario::university] {
        for seed in 1..=32 {
            let scenario = preset(seed);
            let out = e16::run(&scenario);
            let lost = |m| out.row(m).quiz_submits_lost;
            let name = scenario.name();
            assert_eq!(
                lost(Hybrid),
                0.0,
                "{name} seed {seed}: hybrid lost quiz submissions"
            );
            assert!(lost(Public) > 0.0, "{name} seed {seed}: public lost none");
            assert!(lost(Private) > 0.0, "{name} seed {seed}: private lost none");
        }
    }
}
