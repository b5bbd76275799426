//! Seed robustness: the qualitative verdicts of every experiment must not
//! depend on the random seed. The stochastic digits move; the shapes the
//! paper asserts do not.

use elearn_cloud::core::experiments::{e02, e04, e12, e16, e17, e19, run_all};
use elearn_cloud::core::scenario::report_presets;
use elearn_cloud::core::Scenario;
use elearn_cloud::deploy::model::DeploymentKind;
use elearn_cloud::elearn::client::ClientKind;
use elearn_cloud::simcore::time::SimDuration;

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

/// E17's verdicts at every report preset over seeds 1..=32, fixed in
/// advance. On the diurnal day FaaS undercuts the owned hybrid fleet; on
/// the exam day the hybrid loses no quiz submission, while FaaS's shared
/// burst pool loses some from `university` up. (Smaller institutions fit
/// the pool, and public VMs undercut FaaS above `small-college`, so
/// neither is claimed here.)
#[test]
fn faas_undercuts_the_hybrid_and_starves_at_scale_over_32_seeds() {
    use e17::{Day, Model};

    for seed in 1..=32 {
        for scenario in report_presets(seed) {
            let out = e17::run(&scenario);
            let name = scenario.name();
            let cost = |m| out.row(Day::Diurnal, m).cost_per_day;
            assert!(
                cost(Model::Faas) < cost(Model::Hybrid),
                "{name} seed {seed}: faas {} vs hybrid {} on the diurnal day",
                cost(Model::Faas),
                cost(Model::Hybrid)
            );
            let lost = |m| out.row(Day::Exam, m).quiz_submits_lost;
            assert_eq!(
                lost(Model::Hybrid),
                0.0,
                "{name} seed {seed}: the hybrid lost quiz submissions"
            );
            if matches!(name, "university" | "national-platform") {
                assert!(
                    lost(Model::Faas) > 0.0,
                    "{name} seed {seed}: faas lost no quiz submission"
                );
            }
        }
    }
}

/// E12's verdict from `rural-learners` up over seeds 1..=32, fixed in
/// advance: the teaching-sized fixed fleet rejects more than 30% of the
/// exam day and the autoscaler less than 1%. (At `small-college` the
/// two-VM floor carries the exam day, so nothing is claimed there.)
#[test]
fn the_surge_verdict_holds_from_rural_learners_up_over_32_seeds() {
    for seed in 1..=32 {
        for scenario in report_presets(seed).into_iter().skip(1) {
            let out = e12::run(&scenario);
            let fixed = out.row(e12::Strategy::FixedTeaching).rejected_fraction;
            let elastic = out.row(e12::Strategy::Elastic).rejected_fraction;
            assert!(
                fixed > 0.3 && elastic < 0.01,
                "{} seed {seed}: surge verdict moved (fixed {fixed}, elastic {elastic})",
                scenario.name()
            );
        }
    }
}

/// E19's verdicts at every report preset over seeds 1..=32, fixed in
/// advance: through the default region-loss drill, the synchronous
/// replicas (public, FaaS) lose no committed write, while the private
/// model's nightly tape loses the day: an RPO past 12 hours, and quiz
/// submissions with it.
#[test]
fn sync_replicas_lose_nothing_and_the_tape_loses_the_day_over_32_seeds() {
    use e19::DeployModel::{Faas, Private, Public};

    for seed in 1..=32 {
        for scenario in report_presets(seed) {
            let out = e19::run(&scenario);
            let name = scenario.name();
            for model in [Public, Faas] {
                let r = out.row(model);
                assert_eq!(r.rpo, SimDuration::ZERO, "{name} seed {seed}: {model} rpo");
                assert_eq!(
                    r.quiz_submits_lost, 0.0,
                    "{name} seed {seed}: {model} lost quiz submissions"
                );
            }
            let tape = out.row(Private);
            assert!(
                tape.rpo > SimDuration::from_hours(12),
                "{name} seed {seed}: the tape's rpo is only {}",
                tape.rpo
            );
            assert!(
                tape.quiz_submits_lost > 0.0,
                "{name} seed {seed}: the tape lost no quiz submission"
            );
        }
    }
}

/// E2's measured note at every report preset over seeds 1..=32, fixed in
/// advance: on each of the three links the thin client starts faster and
/// uses less memory than the desktop install, and the desktop's page action
/// is faster, the cached reads the note says it wins.
#[test]
fn thin_clients_start_faster_and_desktops_win_cached_reads_over_32_seeds() {
    for seed in 1..=32 {
        for scenario in report_presets(seed) {
            let out = e02::run(&scenario);
            let name = scenario.name();
            for thin in out
                .rows
                .iter()
                .filter(|r| r.client == ClientKind::ThinCloud)
            {
                let link = thin.link;
                let desktop = out
                    .rows
                    .iter()
                    .find(|r| r.client == ClientKind::DesktopInstall && r.link == link)
                    .expect("both clients measured on every link");
                assert!(
                    thin.startup_mean_s < desktop.startup_mean_s,
                    "{name} seed {seed} {link}: thin starts in {} s, desktop in {} s",
                    thin.startup_mean_s,
                    desktop.startup_mean_s
                );
                assert!(
                    thin.memory_mib < desktop.memory_mib,
                    "{name} seed {seed} {link}: thin uses {} MiB, desktop {} MiB",
                    thin.memory_mib,
                    desktop.memory_mib
                );
                assert!(
                    desktop.action_mean_s < thin.action_mean_s,
                    "{name} seed {seed} {link}: desktop acts in {} s, thin in {} s",
                    desktop.action_mean_s,
                    thin.action_mean_s
                );
            }
            assert_eq!(
                out.rows.len(),
                9,
                "{name} seed {seed}: three links x three clients"
            );
        }
    }
}

/// E4's measured note at every report preset over seeds 1..=32, fixed in
/// advance: loss probability orders public (3 sites) < hybrid (2 sites) <
/// private (1 site) at every horizon.
#[test]
fn loss_orders_public_below_hybrid_below_private_over_32_seeds() {
    for seed in 1..=32 {
        for scenario in report_presets(seed) {
            let out = e04::run(&scenario);
            let loss = |k: DeploymentKind| out.row(k).loss_probability;
            let (public, hybrid, private) = (
                loss(DeploymentKind::Public),
                loss(DeploymentKind::Hybrid),
                loss(DeploymentKind::Private),
            );
            for h in 0..3 {
                assert!(
                    public[h] < hybrid[h] && hybrid[h] < private[h],
                    "{} seed {seed} horizon {h}: public {} hybrid {} private {}",
                    scenario.name(),
                    public[h],
                    hybrid[h],
                    private[h]
                );
            }
        }
    }
}
