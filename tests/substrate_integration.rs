//! Cross-crate substrate integration: net × cloud × elearn × simcore flows
//! composed the way the experiments compose them.

use elearn_cloud::cloud::autoscale::{AutoScaler, ScaleDecision};
use elearn_cloud::cloud::datacenter::Datacenter;
use elearn_cloud::cloud::placement::FirstFit;
use elearn_cloud::cloud::resources::{Resources, VmSize};
use elearn_cloud::elearn::calendar::AcademicCalendar;
use elearn_cloud::elearn::workload::WorkloadModel;
use elearn_cloud::net::link::{Link, LinkProfile};
use elearn_cloud::net::outage::OutageModel;
use elearn_cloud::net::transfer::{plan_transfer, ResumePolicy};
use elearn_cloud::net::units::Bytes;
use elearn_cloud::simcore::sim::Simulation;
use elearn_cloud::simcore::time::{SimDuration, SimTime};
use elearn_cloud::simcore::SimRng;

#[test]
fn campus_to_cloud_sync_across_outages() {
    // Nightly content sync from the private datacenter to the cloud backup
    // (the hybrid's reliability story) across a realistic outage schedule.
    let link = &Link::from_profile(LinkProfile::InterDatacenter);

    let mut rng = SimRng::seed(9).derive("sync");
    let outages = OutageModel::new(SimDuration::from_hours(24), SimDuration::from_mins(10))
        .schedule(&mut rng, SimTime::from_secs(7 * 86_400));

    let nightly = Bytes::from_gib(40);
    let mut completed = 0;
    for night in 0..6u64 {
        let start = SimTime::from_secs(night * 86_400 + 2 * 3_600);
        if let Some(out) = plan_transfer(start, nightly, link, &outages, ResumePolicy::Resumable) {
            completed += 1;
            // A 40 GiB sync at 10 Gbps is minutes of active transfer; even
            // with stalls it must finish the same night.
            assert!(
                out.completed_at < start + SimDuration::from_hours(8),
                "night {night} sync ran past the window: {out:?}"
            );
        }
    }
    assert!(completed >= 5, "only {completed}/6 syncs completed");
}

#[test]
fn autoscaled_datacenter_tracks_workload_in_des() {
    // A small closed loop: workload → autoscaler → datacenter, inside the
    // simulation executive.
    struct World {
        dc: Datacenter,
        scaler: AutoScaler,
        load: WorkloadModel,
        offset: SimTime,
        max_fleet: u32,
    }

    let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
    let load = WorkloadModel::builder(30_000, cal).build().unwrap();
    let offset = cal.exams_start() + SimDuration::from_days(1);

    let mut dc = Datacenter::new("loop", FirstFit, SimDuration::from_secs(60));
    dc.add_hosts(30, Resources::new(32, 128.0, 2_000.0));
    dc.provision(VmSize::Medium, SimTime::ZERO).expect("room");

    let mut sim = Simulation::new(
        17,
        World {
            dc,
            scaler: AutoScaler::standard(),
            load,
            offset,
            max_fleet: 1,
        },
    );
    sim.schedule_every(SimDuration::ZERO, SimDuration::from_secs(120), |sim| {
        let now = sim.now();
        let w = sim.state_mut();
        let rate = w.load.rate_at(w.offset + (now - SimTime::ZERO));
        let current = w.dc.active_vm_count() as u32;
        match w
            .scaler
            .decide(now, current, rate, VmSize::Medium.requests_per_sec())
        {
            ScaleDecision::ScaleUp(n) => {
                for _ in 0..n {
                    w.dc.provision(VmSize::Medium, now).expect("pool sized");
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
        w.max_fleet = w.max_fleet.max(w.dc.active_vm_count() as u32);
        sim.now() < SimTime::ZERO + SimDuration::from_hours(24)
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_hours(24));

    let w = sim.into_state();
    // The exam-evening surge forces a real fleet (tens of Mediums for 30k
    // students), and the overnight trough shrinks it back down.
    assert!(w.max_fleet > 15, "fleet never scaled: max {}", w.max_fleet);
    assert!(
        w.dc.active_vm_count() < w.max_fleet as usize / 2,
        "fleet did not scale back down: {} vs max {}",
        w.dc.active_vm_count(),
        w.max_fleet
    );
}

#[test]
fn workload_mix_shifts_during_exams() {
    // elearn calendar drives the request mix that deploy's cost model and
    // the E12 surge both consume.
    let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
    let load = WorkloadModel::builder(5_000, cal).build().unwrap();
    let teaching_instant = cal.term_start() + SimDuration::from_days(40);
    let exam_instant = cal.exams_start() + SimDuration::from_days(1);
    assert!(
        load.mix_at(exam_instant).mean_service_weight()
            > load.mix_at(teaching_instant).mean_service_weight(),
        "exam mix should be heavier per request"
    );
    assert!(load.rate_at(exam_instant.max(teaching_instant)) > 0.0);
}
