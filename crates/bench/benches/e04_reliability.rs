//! E4 bench — analytic loss probabilities and Monte-Carlo survival.

use elc_bench::crit::{criterion_group, criterion_main, Criterion};
use elc_bench::{quick_criterion, HARNESS_SEED};
use elc_core::experiments::e04;
use elc_core::scenario::Scenario;
use elc_deploy::model::DeploymentKind;
use elc_deploy::reliability::StorageProfile;
use elc_simcore::SimRng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_reliability");
    for kind in DeploymentKind::ALL {
        let profile = StorageProfile::for_model(kind);
        g.bench_function(format!("analytic_{kind}"), |b| {
            b.iter(|| profile.asset_loss_probability(black_box(3.0)))
        });
        // One E04 Monte-Carlo run: 20 objects, each run on a fresh stream
        // derived from its index.
        g.bench_function(format!("mc_survival_{kind}"), |b| {
            let rng = SimRng::seed(HARNESS_SEED).derive(&kind.to_string());
            let mut run = 0u64;
            b.iter(|| {
                let mut r = rng.derive_u64(run);
                run += 1;
                profile.simulate_survival(&mut r, black_box(20), 10.0)
            })
        });
    }
    g.finish();

    println!(
        "\n{}",
        e04::run(&Scenario::university(HARNESS_SEED)).section()
    );
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
