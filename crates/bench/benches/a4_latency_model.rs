//! A4 ablation — E12's closed-form load-latency curve vs an explicit
//! M/D/c queueing station.
//!
//! E12 converts per-minute utilization into latency with an M/M/1-style
//! formula. This ablation drives Poisson arrivals at the same offered load
//! through `elc_simcore::queueing::Station` (the station E18 runs, with a
//! deterministic service time) and compares the mean sojourn times, so
//! the approximation's error is on the record.

use elc_bench::crit::{criterion_group, criterion_main, Criterion};
use elc_bench::{quick_criterion, HARNESS_SEED};
use elc_simcore::dist::{Distribution, Exp};
use elc_simcore::queueing::Station;
use elc_simcore::{SimDuration, SimRng, Simulation};
use std::hint::black_box;

/// Service time per request, seconds (matches E12's base latency).
const SERVICE_S: f64 = 0.12;

/// Simulates `servers` at utilization `rho` and returns the mean sojourn.
fn station_sojourn(servers: u64, rho: f64, rng: &mut SimRng) -> f64 {
    let lambda = rho * servers as f64 / SERVICE_S;
    let arrivals = Exp::new(lambda).expect("positive rate");
    let mut t = 0.0;
    let offsets: Vec<SimDuration> = (0..60_000)
        .map(|_| {
            t += arrivals.sample(rng);
            SimDuration::from_secs_f64(t)
        })
        .collect();
    let service = SimDuration::from_secs_f64(SERVICE_S);
    let mut sim = Simulation::new(HARNESS_SEED, Station::new(servers, service, u64::MAX));
    sim.schedule_batch(&offsets, Station::arrive);
    sim.run();
    sim.state().latency().mean()
}

/// E12's closed-form approximation.
fn formula_latency(rho: f64) -> f64 {
    if rho < 0.95 {
        (SERVICE_S / (1.0 - rho)).min(10.0)
    } else {
        10.0
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("a4_latency_model");
    g.bench_function("station_60k_jobs_rho07", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed(HARNESS_SEED);
            station_sojourn(black_box(8), 0.7, &mut rng)
        })
    });
    g.bench_function("formula", |b| b.iter(|| formula_latency(black_box(0.7))));
    g.finish();

    println!("\nA4 ablation — mean latency: M/D/c station vs E12's formula (8 servers):");
    println!("  rho   station(s)  formula(s)  ratio");
    let mut rng = SimRng::seed(HARNESS_SEED);
    for rho in [0.3, 0.5, 0.7, 0.85, 0.93] {
        let st = station_sojourn(8, rho, &mut rng);
        let f = formula_latency(rho);
        println!("  {rho:.2}  {st:>9.4}  {f:>9.4}  {:>5.2}", f / st);
    }
    println!("  (the formula is conservative: an M/M/1 curve over-estimates a pooled M/D/c)");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
