//! Cross-crate substrate integration: net × cloud × elearn × simcore flows
//! composed the way the experiments compose them.

use elearn_cloud::cloud::autoscale::{AutoScaler, ScaleDecision};
use elearn_cloud::cloud::billing::{PriceSheet, UsageMeter};
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
            scaler: AutoScaler::new(1, 300, 0.6, SimDuration::from_secs(120)),
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
fn vm_usage_flows_into_billing() {
    // Provision VMs, run them for simulated hours, stop them, and invoice
    // the recorded usage.
    let mut dc = Datacenter::new("billing", FirstFit, SimDuration::ZERO);
    dc.add_hosts(4, Resources::new(32, 128.0, 2_000.0));

    let (a, _) = dc.provision(VmSize::Medium, SimTime::ZERO).expect("room");
    let (b, _) = dc.provision(VmSize::Large, SimTime::ZERO).expect("room");
    dc.decommission(a, SimTime::from_secs(10 * 3_600));
    dc.decommission(b, SimTime::from_secs(3 * 3_600 + 60)); // rounds to 4h

    let now = SimTime::from_secs(24 * 3_600);
    let mut meter = UsageMeter::new();
    for vm in dc.vms() {
        meter.record_vm_hours(vm.size(), vm.billable_hours(now));
    }
    let invoice = meter.invoice(&PriceSheet::public_2013());
    let expected = 10.0 * 0.12 + 4.0 * 0.24;
    assert!(
        (invoice.total().amount() - expected).abs() < 1e-9,
        "invoice {} != expected {expected}",
        invoice.total()
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

#[test]
fn drain_keeps_serving_through_maintenance() {
    use elearn_cloud::cloud::vm::VmState;

    // A maintenance drain under load: every VM survives (re-provisioning
    // through the brownout), the drained host empties, and capacity
    // accounting stays exact.
    let mut dc = Datacenter::new("maint", FirstFit, SimDuration::from_secs(45));
    let h0 = {
        let id = dc.add_host(Resources::new(16, 64.0, 500.0));
        dc.add_host(Resources::new(16, 64.0, 500.0));
        dc.add_host(Resources::new(16, 64.0, 500.0));
        id
    };
    for _ in 0..6 {
        dc.provision(VmSize::Medium, SimTime::ZERO).expect("room");
    }
    let before = dc.active_vm_count();
    let moved = dc
        .drain_host(h0, SimTime::from_secs(1_000))
        .expect("other hosts have room");
    assert!(!moved.is_empty());
    assert_eq!(dc.active_vm_count(), before, "drain lost a VM");
    // Brownout: the moved VMs serve again after the boot delay.
    let after_brownout = SimTime::from_secs(1_000 + 46);
    for vm in dc.vms() {
        if matches!(vm.state(), VmState::Provisioning { .. }) {
            assert!(vm.is_serving(after_brownout));
        }
    }
    // The drained host is empty and immediately maintainable.
    let drained = dc.hosts().find(|h| h.id() == h0).expect("host exists");
    assert!(drained.vms().is_empty());
    assert_eq!(drained.utilization(), 0.0);
}
