//! Exam-day surge, hour by hour: drive the simulation substrate directly.
//!
//! Builds a datacenter, wires a target-tracking autoscaler to the exam-week
//! workload and prints an hourly log of offered load, fleet size and
//! rejected traffic — the mechanics behind experiment E12.
//!
//! ```sh
//! cargo run --release --example exam_surge
//! ```

use elearn_cloud::cloud::autoscale::{AutoScaler, ScaleDecision};
use elearn_cloud::cloud::datacenter::Datacenter;
use elearn_cloud::cloud::placement::BestFit;
use elearn_cloud::cloud::resources::{Resources, VmSize};
use elearn_cloud::core::Scenario;
use elearn_cloud::simcore::dist::{Distribution, Poisson};
use elearn_cloud::simcore::sim::Simulation;
use elearn_cloud::simcore::time::{SimDuration, SimTime};
use elearn_cloud::simcore::SimRng;

const UNIT: VmSize = VmSize::Medium;

struct World {
    dc: Datacenter,
    scaler: AutoScaler,
    scenario: Scenario,
    day_start: SimTime,
    rng: SimRng,
    hourly_offered: u64,
    hourly_rejected: u64,
}

fn minute_tick(sim: &mut Simulation<World>) {
    let now = sim.now();
    let w = sim.state_mut();
    let rate = w
        .scenario
        .workload()
        .rate_at(w.day_start + (now - SimTime::ZERO));
    let arrivals = Poisson::new(rate * 60.0)
        .expect("finite rate")
        .sample(&mut w.rng);
    let capacity = w.dc.serving_capacity_rps(now) * 60.0;
    w.hourly_offered += arrivals;
    w.hourly_rejected += (arrivals as f64 - capacity).max(0.0) as u64;
}

fn scale_tick(sim: &mut Simulation<World>) {
    let now = sim.now();
    let w = sim.state_mut();
    let rate = w
        .scenario
        .workload()
        .rate_at(w.day_start + (now - SimTime::ZERO));
    let current = w.dc.active_vm_count() as u32;
    match w.scaler.decide(now, current, rate, UNIT.requests_per_sec()) {
        ScaleDecision::ScaleUp(n) => {
            for _ in 0..n {
                w.dc.provision(UNIT, now).expect("host pool is generous");
            }
        }
        ScaleDecision::ScaleDown(n) => {
            let victims: Vec<_> = w.dc.live_vms().rev().take(n as usize).collect();
            for vm in victims {
                w.dc.decommission(vm, now);
            }
        }
        ScaleDecision::Hold => {}
    }
}

fn hourly_report(sim: &mut Simulation<World>) {
    let hour = sim.now().as_secs_f64() / 3_600.0;
    let w = sim.state_mut();
    let fleet = w.dc.active_vm_count();
    let offered = w.hourly_offered;
    let rejected = w.hourly_rejected;
    w.hourly_offered = 0;
    w.hourly_rejected = 0;
    println!(
        "hour {hour:>4.0} | fleet {fleet:>3} VMs | offered {offered:>8} req | rejected {rejected:>6}",
    );
}

fn main() {
    let scenario = Scenario::university(7);
    let cal = scenario.calendar();
    let day_start = cal.exams_start() + SimDuration::from_days(1);

    let mut dc = Datacenter::new("exam-region", BestFit, SimDuration::from_secs(120));
    dc.add_hosts(40, Resources::new(32, 128.0, 2_000.0));
    for _ in 0..2 {
        dc.provision(UNIT, SimTime::ZERO).expect("empty datacenter");
    }

    let world = World {
        dc,
        scaler: AutoScaler::standard(),
        rng: SimRng::seed(scenario.seed()).derive("exam-surge"),
        scenario,
        day_start,
        hourly_offered: 0,
        hourly_rejected: 0,
    };

    println!("exam-day autoscaling, 25k-student university, Medium instances\n");
    let mut sim = Simulation::new(7, world);
    sim.schedule_every(SimDuration::ZERO, SimDuration::from_secs(60), |sim| {
        minute_tick(sim);
        true
    });
    sim.schedule_every(
        SimDuration::from_secs(30),
        SimDuration::from_secs(120),
        |sim| {
            scale_tick(sim);
            true
        },
    );
    sim.schedule_every(
        SimDuration::from_hours(1),
        SimDuration::from_hours(1),
        |sim| {
            hourly_report(sim);
            true
        },
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_hours(24));

    let stats = sim.state();
    println!(
        "\nfinal fleet: {} VMs; events executed: {}",
        stats.dc.active_vm_count(),
        sim.executed()
    );
}
