//! E9 — Time to first service.
//!
//! Paper claim under test: §IV.A the public cloud is "the most practical
//! approach to get the quickest solution … in a quickest and lowest cost".
//! Expected shape: public in days, private in weeks (procurement-gated),
//! hybrid slowest (procurement plus integration).

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_cloud::placement::FirstFit;
use elc_cloud::resources::VmSize;
use elc_cloud::Datacenter;
use elc_deploy::model::{Deployment, DeploymentKind};
use elc_deploy::provisioning::{schedule, ProvisioningSchedule};
use elc_elearn::request::{RequestKind, RequestLifecycle};
use elc_net::transfer::{plan_transfer, ResumePolicy};
use elc_net::units::Bytes;
use elc_net::Link;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

use crate::scenario::Scenario;

/// One model's provisioning timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvisionRow {
    /// The deployment model.
    pub kind: DeploymentKind,
    /// Phase-by-phase schedule.
    pub schedule: ProvisioningSchedule,
}

/// E9 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One row per model.
    pub rows: Vec<ProvisionRow>,
}

/// Computes the three schedules (closed-form; the scenario names the
/// report and seeds the trace rehearsal).
///
/// When a tracer is installed the first day of service is additionally
/// re-enacted inside a small simulation so the trace shows the kernel,
/// cloud, network and e-learning layers end to end; the metrics are
/// closed-form and identical with tracing on or off.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let out = Output {
        rows: DeploymentKind::ALL
            .iter()
            .map(|&kind| ProvisionRow {
                kind,
                schedule: schedule(&Deployment::canonical(kind)),
            })
            .collect(),
    };
    if elc_trace::installed() {
        trace_rehearsal(scenario, &out);
    }
    out
}

/// Replays each model's go-live moment for the installed tracer: boot two
/// web VMs the instant the platform is ready, sync the course-content seed
/// over the campus link through that week's outage windows, then serve one
/// request of every class. Trace-only — touches no metric.
fn trace_rehearsal(scenario: &Scenario, out: &Output) {
    let root = SimRng::seed(scenario.seed()).derive("e09-trace");
    let link = Link::from_profile(scenario.link());
    for row in &out.rows {
        let label = row.kind.to_string();
        let rng = root.derive(&label);
        let go_live = SimTime::ZERO + row.schedule.time_to_service();

        // simcore + cloud: a provisioning event at go-live on a two-host
        // datacenter.
        let mut dc = Datacenter::new(format!("{label}-dc"), FirstFit, SimDuration::from_secs(90));
        dc.add_hosts(2, VmSize::XLarge.resources());
        let mut sim_rng = rng.derive("sim");
        let mut sim = Simulation::new(sim_rng.next_u64(), dc);
        sim.schedule_at(go_live, |sim| {
            let now = sim.now();
            for _ in 0..2 {
                let _ = sim.state_mut().provision(VmSize::Medium, now);
            }
        });
        sim.run();

        // net: that week's outage windows, then the content-seed sync.
        let mut net_rng = rng.derive("outages");
        let horizon = go_live + SimDuration::from_hours(24 * 7);
        let outages = scenario.outages().schedule(&mut net_rng, horizon);
        let _ = plan_transfer(
            go_live,
            Bytes::from_mib(512),
            &link,
            &outages,
            ResumePolicy::Resumable,
        );

        // elearn: one request of each class once the platform serves.
        let mut req_rng = rng.derive("requests");
        let mut arrival = go_live;
        for kind in RequestKind::ALL {
            let queue_wait = SimDuration::from_nanos(req_rng.range_u64(0, 5_000_000));
            let service =
                SimDuration::from_nanos((kind.service_weight() * 2_000_000.0).round() as u64);
            RequestLifecycle {
                kind,
                arrival,
                queue_wait,
                service,
            }
            .emit();
            arrival += SimDuration::from_secs(1);
        }
    }
}

impl Output {
    /// The row for a model.
    #[must_use]
    pub fn row(&self, kind: DeploymentKind) -> &ProvisionRow {
        self.rows
            .iter()
            .find(|r| r.kind == kind)
            .expect("all models measured")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let days = |d: elc_simcore::SimDuration| Cell::num(d.as_secs_f64() / 86_400.0);
        let mut t = MetricTable::new([
            "model",
            "acquisition (days)",
            "installation (days)",
            "integration (days)",
            "time to service (days)",
        ]);
        for r in &self.rows {
            t.row(
                r.kind.to_string(),
                vec![
                    days(r.schedule.acquisition),
                    days(r.schedule.installation),
                    days(r.schedule.integration),
                    days(r.schedule.time_to_service()),
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

    /// Renders the E9 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E9",
            "Time to first service",
            self.metric_table().to_table(),
        );
        s.note("paper §IV.A: public cloud is the \"quickest solution\"");
        s.note("measured: public serves in ~2 days; private waits ~8 weeks on procurement; hybrid adds integration on top");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Output {
        run(&Scenario::university(1))
    }

    #[test]
    fn public_is_order_of_magnitude_faster() {
        let out = output();
        let public = out.row(DeploymentKind::Public).schedule.time_to_service();
        let private = out.row(DeploymentKind::Private).schedule.time_to_service();
        assert!(public.as_secs() * 10 < private.as_secs());
    }

    #[test]
    fn hybrid_is_slowest() {
        let out = output();
        let hybrid = out.row(DeploymentKind::Hybrid).schedule.time_to_service();
        for kind in [DeploymentKind::Public, DeploymentKind::Private] {
            assert!(hybrid > out.row(kind).schedule.time_to_service());
        }
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E9");
        assert_eq!(s.table().len(), 3);
    }

    #[test]
    fn rehearsal_traces_all_four_layers_without_moving_metrics() {
        let scenario = Scenario::small_college(42);
        let baseline = run(&scenario);
        let (traced, tracer) = elc_trace::with_tracer(
            elc_trace::Tracer::new(elc_trace::TraceFilter::default()),
            || run(&scenario),
        );
        assert_eq!(traced, baseline, "tracing must not move the output");
        assert_eq!(traced.metrics(), baseline.metrics());
        let targets: Vec<&str> = tracer.summary().iter().map(|s| s.target).collect();
        for want in ["cloud", "elearn", "net", "simcore"] {
            assert!(
                targets.contains(&want),
                "missing target {want:?} in {targets:?}"
            );
        }
    }

    #[test]
    fn rehearsal_is_deterministic_in_the_seed() {
        let scenario = Scenario::small_college(42);
        let trace_of = |s: &Scenario| {
            let (_, tracer) = elc_trace::with_tracer(
                elc_trace::Tracer::new(elc_trace::TraceFilter::default()),
                || run(s),
            );
            elc_trace::export::jsonl_string(&tracer, &[])
        };
        assert_eq!(trace_of(&scenario), trace_of(&scenario));
        assert_ne!(trace_of(&scenario), trace_of(&Scenario::small_college(43)));
    }
}
