//! Property-based tests over the core data structures and invariants.
//!
//! Previously written against the `proptest` crate; the build container has
//! no crates.io access, so the file now drives the same properties from a
//! tiny in-file case generator seeded by [`SimRng`]. Inputs are random but
//! fully deterministic: every case derives its generator from the property's
//! fixed seed and the case index, so a failure reproduces exactly.

use elearn_cloud::analysis::stats;
use elearn_cloud::cloud::storage::{ObjectStore, ReplicationPolicy};
use elearn_cloud::net::outage::OutageModel;
use elearn_cloud::net::units::{Bandwidth, Bytes};
use elearn_cloud::simcore::metrics::{Histogram, Summary};
use elearn_cloud::simcore::queue::EventQueue;
use elearn_cloud::simcore::time::{SimDuration, SimTime};
use elearn_cloud::simcore::SimRng;

/// Runs `f` against `n` independently seeded generators.
fn cases(n: u64, seed: u64, mut f: impl FnMut(&mut SimRng)) {
    let root = SimRng::seed(seed).derive("proptest-cases");
    for i in 0..n {
        f(&mut root.derive_u64(i));
    }
}

/// A vector of uniform draws from `[lo, hi]`, with a length in `len`.
fn vec_u64(rng: &mut SimRng, lo: u64, hi: u64, len: std::ops::Range<usize>) -> Vec<u64> {
    let n = rng.range_u64(len.start as u64, len.end as u64 - 1) as usize;
    (0..n).map(|_| rng.range_u64(lo, hi)).collect()
}

/// A vector of uniform draws from `[lo, hi)`, with a length in `len`.
fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, len: std::ops::Range<usize>) -> Vec<f64> {
    let n = rng.range_u64(len.start as u64, len.end as u64 - 1) as usize;
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

/// The event queue is a stable priority queue: output is sorted by time,
/// FIFO among equal times.
#[test]
fn event_queue_pops_sorted_stable() {
    cases(64, 0xE0_01, |rng| {
        let times = vec_u64(rng, 0, 49, 1..200);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated for ties");
            }
        }
    });
}

/// Cancelling any subset never disturbs the order of the survivors.
#[test]
fn event_queue_cancellation_preserves_survivors() {
    cases(64, 0xE0_02, |rng| {
        let times = vec_u64(rng, 0, 19, 1..100);
        let cancel_mask: Vec<bool> = (0..times.len()).map(|_| rng.chance(0.5)).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (q.push(SimTime::from_nanos(t), i), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((id, i), &c) in ids.iter().zip(&cancel_mask) {
            if c {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut survivors = Vec::new();
        while let Some((_, i)) = q.pop() {
            assert!(!cancelled.contains(&i), "cancelled event fired");
            survivors.push(i);
        }
        assert_eq!(survivors.len(), times.len() - cancelled.len());
    });
}

/// SimRng stream derivation is position-independent and deterministic.
#[test]
fn rng_derivation_is_stable() {
    cases(64, 0xE0_03, |rng| {
        let seed = rng.next_u64();
        let len = rng.range_u64(1, 12) as usize;
        let label: String = (0..len)
            .map(|_| char::from(b'a' + rng.next_below(26) as u8))
            .collect();
        let skips = rng.next_below(64);
        let mut parent = SimRng::seed(seed);
        let early = parent.derive(&label);
        for _ in 0..skips {
            let _ = parent.next_u64();
        }
        let late = parent.derive(&label);
        assert_eq!(early, late);
    });
}

/// Bounded integers are in range for arbitrary bounds.
#[test]
fn rng_range_respects_bounds() {
    cases(64, 0xE0_04, |rng| {
        let seed = rng.next_u64();
        let lo = rng.next_below(1_000);
        let hi = lo + rng.next_below(1_000);
        let mut inner = SimRng::seed(seed);
        for _ in 0..32 {
            let x = inner.range_u64(lo, hi);
            assert!((lo..=hi).contains(&x));
        }
    });
}

/// Summary::merge equals recording everything into one summary.
#[test]
fn summary_merge_is_concat() {
    cases(64, 0xE0_05, |rng| {
        let xs = vec_f64(rng, -1e6, 1e6, 0..50);
        let ys = vec_f64(rng, -1e6, 1e6, 0..50);
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut all = Summary::new();
        for &x in &xs {
            a.record(x);
            all.record(x);
        }
        for &y in &ys {
            b.record(y);
            all.record(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-6);
        assert!((a.variance() - all.variance()).abs() < 1e-3);
    });
}

/// Histogram quantiles are monotone in q and bounded by observed extrema.
#[test]
fn histogram_quantiles_monotone() {
    cases(64, 0xE0_06, |rng| {
        let xs = vec_f64(rng, 0.0, 1e9, 1..200);
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let (lo, hi) = h.min_max().unwrap();
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone");
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "quantile out of range");
            prev = v;
        }
    });
}

/// Outage schedules are sorted, disjoint, inside the horizon, and the
/// measured availability is consistent with total downtime.
#[test]
fn outage_schedule_invariants() {
    cases(48, 0xE0_07, |rng| {
        let mtbf_h = rng.range_u64(1, 199);
        let mttr_m = rng.range_u64(1, 119);
        let model = OutageModel::new(
            SimDuration::from_hours(mtbf_h),
            SimDuration::from_mins(mttr_m),
        );
        let mut sched_rng = SimRng::seed(rng.next_u64());
        let horizon = SimTime::from_secs(30 * 86_400);
        let sched = model.schedule(&mut sched_rng, horizon);
        let mut prev_end = SimTime::ZERO;
        for &(s, e) in sched.windows() {
            assert!(s < e);
            assert!(s >= prev_end);
            assert!(e <= horizon);
            prev_end = e;
        }
        let down = sched.downtime_within(SimTime::ZERO, horizon);
        let avail = sched.measured_availability();
        let expect = 1.0 - down.as_secs_f64() / horizon.as_secs_f64();
        assert!((avail - expect).abs() < 1e-9);
    });
}

/// Replicated stores never lose data while at least one replica site
/// survives, and always lose everything when all sites burn.
#[test]
fn replication_survival_boundary() {
    cases(64, 0xE0_08, |rng| {
        let replicas = rng.range_u64(1, 4) as u32;
        let sites = rng.range_u64(1, 4) as u32;
        let objects = rng.range_u64(1, 39);
        let policy = ReplicationPolicy::new(replicas, sites);
        let mut store = ObjectStore::new(policy);
        for _ in 0..objects {
            store.put(Bytes::from_kib(64));
        }
        let spread = replicas.min(sites);
        // Destroy all but one of the sites replicas actually occupy.
        for site in 0..spread.saturating_sub(1) {
            store.destroy_site(site);
        }
        assert_eq!(
            store.survival_rate(),
            1.0,
            "lost data with a live replica site"
        );
        // Destroying every site kills everything.
        for site in 0..sites {
            store.destroy_site(site);
        }
        assert_eq!(store.survival_rate(), 0.0);
    });
}

/// Bandwidth transfer times scale linearly with size.
#[test]
fn bandwidth_linearity() {
    cases(64, 0xE0_09, |rng| {
        let mbps = rng.range_f64(1.0, 10_000.0);
        let kib = rng.range_u64(1, 999_999);
        let bw = Bandwidth::from_mbps(mbps);
        let one = bw.seconds_for(Bytes::from_kib(kib));
        let two = bw.seconds_for(Bytes::from_kib(kib * 2));
        assert!((two - 2.0 * one).abs() < 1e-6 * two.max(1e-12));
    });
}

/// percentile() of an exact list brackets every element between the 0th
/// and 100th percentile.
#[test]
fn percentile_brackets() {
    cases(64, 0xE0_10, |rng| {
        let xs = vec_f64(rng, -1e9, 1e9, 1..100);
        let lo = stats::percentile(&xs, 0.0);
        let hi = stats::percentile(&xs, 1.0);
        for &x in &xs {
            assert!(x >= lo && x <= hi);
        }
        let med = stats::median(&xs);
        assert!(med >= lo && med <= hi);
    });
}

/// SimTime/SimDuration arithmetic round-trips.
#[test]
fn time_arithmetic_round_trip() {
    cases(64, 0xE0_11, |rng| {
        let base = rng.next_below(1_000_000_000);
        let delta = rng.next_below(1_000_000_000);
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).saturating_since(t), d);
    });
}

/// Datacenter invariant: under any sequence of provision / decommission /
/// fail / repair operations, no host is ever over-allocated and the
/// active-VM count matches the hosts' VM lists.
#[test]
fn datacenter_allocation_invariants() {
    use elearn_cloud::cloud::datacenter::Datacenter;
    use elearn_cloud::cloud::placement::BestFit;
    use elearn_cloud::cloud::resources::{Resources, VmSize};
    use elearn_cloud::cloud::vm::VmState;

    cases(32, 0xE0_12, |rng| {
        let ops = vec_u64(rng, 0, 3, 1..120);
        let mut dc = Datacenter::new("prop", BestFit, SimDuration::from_secs(30));
        dc.add_hosts(3, Resources::new(8, 32.0, 200.0));
        let mut t = SimTime::ZERO;
        let mut live: Vec<elearn_cloud::cloud::vm::VmId> = Vec::new();

        for op in ops {
            t += SimDuration::from_secs(60);
            match op {
                0 => {
                    let size = *rng.pick(&VmSize::ALL).unwrap();
                    if let Ok((vm, _)) = dc.provision(size, t) {
                        live.push(vm);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let idx = rng.next_below(live.len() as u64) as usize;
                        let vm = live.swap_remove(idx);
                        dc.decommission(vm, t);
                    }
                }
                2 => {
                    let host = elearn_cloud::cloud::vm::HostId::new(rng.next_below(3));
                    let victims = dc.fail_host(host, t);
                    live.retain(|v| !victims.contains(v));
                }
                _ => {
                    let host = elearn_cloud::cloud::vm::HostId::new(rng.next_below(3));
                    dc.repair_host(host);
                }
            }
            // Invariants.
            for host in dc.hosts() {
                assert!(
                    host.capacity().fits(&host.allocated()),
                    "host over-allocated"
                );
            }
            let listed: usize = dc.hosts().map(|h| h.vms().len()).sum();
            let active = dc
                .vms()
                .filter(|vm| matches!(vm.state(), VmState::Provisioning { .. } | VmState::Running))
                .count();
            assert_eq!(listed, active, "host lists disagree with VM states");
            assert_eq!(active, live.len(), "tracker disagrees with datacenter");
        }
    });
}

/// The autoscaler's desired count is monotone in load and always within
/// its configured bounds.
#[test]
fn autoscaler_desired_is_monotone_and_bounded() {
    use elearn_cloud::cloud::autoscale::AutoScaler;

    cases(64, 0xE0_13, |rng| {
        let min = rng.range_u64(1, 4) as u32;
        let max = min + rng.next_below(50) as u32;
        let util = rng.range_f64(0.05, 1.0);
        let mut loads = vec_f64(rng, 0.0, 100_000.0, 2..40);
        let s = AutoScaler::new(min, max, util, SimDuration::from_secs(60));
        loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0;
        for (i, &load) in loads.iter().enumerate() {
            let d = s.desired_count(load, 120.0);
            assert!((min..=max).contains(&d));
            if i > 0 {
                assert!(d >= prev, "desired count not monotone in load");
            }
            prev = d;
        }
    });
}

/// Exit cost is monotone in the data volume for every deployment model.
#[test]
fn exit_cost_monotone_in_data() {
    use elearn_cloud::cloud::billing::PriceSheet;
    use elearn_cloud::deploy::migration::exit_plan;
    use elearn_cloud::deploy::model::{Deployment, DeploymentKind};
    use elearn_cloud::net::link::{Link, LinkProfile};

    cases(48, 0xE0_14, |rng| {
        let gib_a = rng.range_u64(1, 4_999);
        let gib_b = rng.range_u64(1, 4_999);
        let (lo, hi) = if gib_a <= gib_b {
            (gib_a, gib_b)
        } else {
            (gib_b, gib_a)
        };
        let prices = PriceSheet::public_2013();
        let link = Link::from_profile(LinkProfile::InterDatacenter);
        for kind in DeploymentKind::ALL {
            let d = Deployment::canonical(kind);
            let small = exit_plan(&d, Bytes::from_gib(lo), &prices, &link);
            let large = exit_plan(&d, Bytes::from_gib(hi), &prices, &link);
            assert!(large.total_cost >= small.total_cost);
            assert!(large.duration >= small.duration);
        }
    });
}

/// The workload rate is non-negative and never exceeds the analytic peak,
/// at any instant over two years.
#[test]
fn workload_rate_bounded_by_peak() {
    use elearn_cloud::elearn::calendar::AcademicCalendar;
    use elearn_cloud::elearn::workload::WorkloadModel;

    cases(64, 0xE0_15, |rng| {
        let students = rng.range_u64(1, 199_999) as u32;
        let t_secs = rng.next_below(63_072_000);
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let load = WorkloadModel::builder(students, cal).build().unwrap();
        let rate = load.rate_at(SimTime::from_secs(t_secs));
        assert!(rate >= 0.0);
        assert!(
            rate <= load.peak_rate() + 1e-9,
            "rate {} > peak {}",
            rate,
            load.peak_rate()
        );
    });
}

/// Queueing station conservation: after every tick, offered + seeded =
/// served + shed + waiting + in service, for any arrival pattern, waiting
/// room and seeded backlog; run empty, the station has served or shed
/// every request.
#[test]
fn station_conserves_jobs() {
    use elearn_cloud::simcore::queueing::Station;
    use elearn_cloud::simcore::Simulation;

    cases(48, 0xE016, |rng| {
        let servers = rng.range_u64(1, 5);
        let queue_limit = if rng.chance(0.5) {
            rng.next_below(8)
        } else {
            u64::MAX
        };
        let service = SimDuration::from_millis(rng.range_u64(1, 9_999));
        let station = Station::new(servers, service, queue_limit);
        let mut sim = Simulation::new(rng.next_u64(), station);
        let seeded = rng.next_below(12);
        Station::seed_backlog(&mut sim, seeded);
        let tick_ms = rng.range_u64(1, 20_000);
        for _ in 0..rng.range_u64(1, 12) {
            let mut offsets = vec_u64(rng, 0, tick_ms - 1, 0..40);
            offsets.sort_unstable();
            let offsets: Vec<SimDuration> =
                offsets.into_iter().map(SimDuration::from_millis).collect();
            sim.schedule_batch(&offsets, Station::arrive);
            sim.run_for(SimDuration::from_millis(tick_ms));
            let st = sim.state();
            assert_eq!(
                st.offered() + seeded,
                st.served() + st.shed() + st.waiting() as u64 + st.in_service()
            );
            assert!(st.in_service() <= servers);
        }
        sim.run();
        let st = sim.state();
        assert_eq!((st.waiting(), st.in_service()), (0, 0));
        assert_eq!(st.offered() + seeded, st.served() + st.shed());
    });
}

/// The fluid queue's backlog is never negative and its mass balance
/// closes after every step: offered = served + shed + backlog.
#[test]
fn fluid_backlog_never_negative_and_mass_is_conserved() {
    use elearn_cloud::fluid::FluidQueue;

    cases(64, 0xE0_18, |rng| {
        let classes = rng.range_u64(1, 3) as usize;
        let capacity = rng.range_f64(10.0, 500.0);
        let limit = rng.range_f64(0.0, 2_000.0);
        let mut q = FluidQueue::new(classes, capacity, limit);
        for _ in 0..40 {
            let rates: Vec<f64> = (0..classes).map(|_| rng.range_f64(0.0, 400.0)).collect();
            let dt = SimDuration::from_secs(rng.range_u64(1, 120));
            let substeps = rng.range_u64(1, 8) as u32;
            let flow = q.step(dt, &rates, substeps);
            assert!(flow.backlog >= 0.0, "tick backlog {}", flow.backlog);
            for c in 0..classes {
                assert!(q.class_backlog(c) >= 0.0, "class {c} went negative");
            }
            let balance = q.served_total() + q.shed_total() + q.backlog();
            let tol = 1e-6 * q.offered_total().max(1.0);
            assert!(
                (q.offered_total() - balance).abs() <= tol,
                "offered {} vs served+shed+backlog {balance}",
                q.offered_total()
            );
        }
    });
}

/// Request mass survives a fluid→event→fluid fidelity round-trip: after
/// materializing the backlog, settling what the event layer handled and
/// absorbing the rest, the balance closes to within the integer rounding
/// materialization is allowed (at most one request per class).
#[test]
fn materialization_boundary_conserves_request_mass() {
    use elearn_cloud::fluid::FluidQueue;

    cases(64, 0xE0_19, |rng| {
        let classes = rng.range_u64(1, 3) as usize;
        let mut q = FluidQueue::new(classes, rng.range_f64(5.0, 50.0), 1e9);
        for _ in 0..10 {
            let rates: Vec<f64> = (0..classes).map(|_| rng.range_f64(0.0, 200.0)).collect();
            q.step(SimDuration::from_secs(rng.range_u64(1, 60)), &rates, 4);
        }
        let counts = q.materialize(rng, 0);
        assert_eq!(q.backlog(), 0.0, "materialize must zero the backlog");
        // The event layer serves and sheds random shares of the
        // materialized requests and hands the rest back.
        let total: u64 = counts.iter().sum();
        let served = rng.range_u64(0, total);
        let shed = rng.range_u64(0, total - served);
        let mut back = vec![0u64; classes];
        back[0] = total - served - shed;
        q.settle_materialized(served, shed);
        q.absorb(&back);
        let balance =
            q.served_total() + q.shed_total() + q.backlog() + q.materialized_outstanding();
        let tol = classes as f64 + 1e-6 * q.offered_total();
        assert!(
            (q.offered_total() - balance).abs() <= tol,
            "offered {} vs balance {balance} (tol {tol})",
            q.offered_total()
        );
        assert!(q.backlog() >= 0.0);
    });
}
