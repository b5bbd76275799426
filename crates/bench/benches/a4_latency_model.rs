//! A4 ablation — E12's closed-form load-latency curve vs an explicit
//! M/D/c queueing station.
//!
//! E12, E16 and E17 convert per-minute utilization into latency with one
//! M/M/1-style formula (`fleet_latency_s`). This ablation drives Poisson
//! arrivals at the same offered load through
//! `elc_simcore::queueing::Station` (the station E18 runs, with a
//! deterministic service time) and compares the mean sojourn times, so
//! the approximation's error is on the record.

use elc_bench::crit::{criterion_group, criterion_main, Criterion};
use elc_bench::{quick_criterion, HARNESS_SEED};
use elc_core::experiments::fleet_latency_s;
use elc_simcore::dist::{Distribution, Exp};
use elc_simcore::queueing::Station;
use elc_simcore::{SimDuration, SimRng, Simulation};
use std::hint::black_box;

/// Simulates `servers` at utilization `rho` and returns the mean sojourn.
/// Each request takes the curve's unloaded latency to serve.
fn station_sojourn(servers: u64, rho: f64, rng: &mut SimRng) -> f64 {
    let service_s = fleet_latency_s(0.0);
    let lambda = rho * servers as f64 / service_s;
    let arrivals = Exp::new(lambda).expect("positive rate");
    let mut t = 0.0;
    let offsets: Vec<SimDuration> = (0..60_000)
        .map(|_| {
            t += arrivals.sample(rng);
            SimDuration::from_secs_f64(t)
        })
        .collect();
    let service = SimDuration::from_secs_f64(service_s);
    let mut sim = Simulation::new(HARNESS_SEED, Station::new(servers, service, u64::MAX));
    sim.schedule_batch(&offsets, Station::arrive);
    sim.run();
    sim.state().latency().mean()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("a4_latency_model");
    g.bench_function("station_60k_jobs_rho07", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed(HARNESS_SEED);
            station_sojourn(black_box(8), 0.7, &mut rng)
        })
    });
    g.bench_function("formula", |b| b.iter(|| fleet_latency_s(black_box(0.7))));
    g.finish();

    println!("\nA4 ablation — mean latency: M/D/c station vs E12's formula (8 servers):");
    println!("  rho   station(s)  formula(s)  ratio");
    let mut rng = SimRng::seed(HARNESS_SEED);
    for rho in [0.3, 0.5, 0.7, 0.85, 0.93] {
        let st = station_sojourn(8, rho, &mut rng);
        let f = fleet_latency_s(rho);
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
