//! E16 — Resilience under injected faults.
//!
//! Paper claim under test: §III warns that a terminated cloud connection
//! costs users "time, work, or even unsaved data", §IV.B charges the
//! private model with physical-damage risk, and §IV.C argues the hybrid
//! "addresses the requirements" by distributing units across both models.
//! This experiment makes those reliability claims measurable: one exam
//! day, one correlated fault campaign (`elc-resil`'s chaos harness —
//! default [`ChaosSpec::exam_day_crisis`]: an uplink storm mid-morning, a
//! host cascade into the exam window, a site disaster at its peak), three
//! deployment models serving the same traffic through the same resilience
//! policies:
//!
//! * **public** — autoscaled public-cloud fleet; the uplink storm cuts
//!   every learner off from it,
//! * **private** — exam-sized on-premise fleet; immune to the uplink
//!   storm but the host cascade erodes it and the site disaster ends it,
//! * **hybrid** — the private fleet as primary plus public burst capacity
//!   behind a circuit breaker ([`HybridFailover`]): when the private site
//!   dies the breaker trips and traffic re-routes the same control tick.
//!
//! Every request flows through the full policy stack: per-kind timeouts
//! classify slow ticks as degraded, admission control sheds cheap reads
//! before any write, reads retry with decorrelated-jitter backoff, and
//! writes — `QuizSubmit` above all — are never blindly replayed and never
//! shed. Expected shape: the hybrid finishes the day with **zero**
//! quiz-submit loss while the private model forfeits every submission
//! after the disaster and the public model loses the storm window's.
//!
//! [`ChaosSpec::exam_day_crisis`]: elc_resil::chaos::ChaosSpec::exam_day_crisis
//! [`HybridFailover`]: elc_resil::failover::HybridFailover

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_deploy::hybrid::FailoverPlan;
use elc_elearn::request::{RequestKind, RequestOutcome, EXAM_FRACTIONS};
use elc_elearn::source::WorkloadSource;
use elc_resil::admission::AdmissionController;
use elc_resil::breaker::CircuitBreaker;
use elc_resil::chaos::{ChaosSpec, FaultTimeline};
use elc_resil::failover::{HybridFailover, Route};
use elc_resil::retry::RetryPolicy;
use elc_resil::timeout::TimeoutPolicy;
use elc_simcore::rng::SimRng;
use elc_simcore::sim::Simulation;
use elc_simcore::time::{SimDuration, SimTime};

use super::fleet::{self, Scaler, BURST_FRACTION, HORIZON, TICK, UNIT};
use crate::scenario::Scenario;

/// One deployment model under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployModel {
    /// Autoscaled public cloud, reached over the learners' uplink.
    Public,
    /// Exam-sized on-premise fleet.
    Private,
    /// Private primary with breaker-guarded public burst capacity.
    Hybrid,
}

impl DeployModel {
    /// All models, in report order.
    pub const ALL: [DeployModel; 3] = [
        DeployModel::Public,
        DeployModel::Private,
        DeployModel::Hybrid,
    ];
}

impl std::fmt::Display for DeployModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeployModel::Public => "public",
            DeployModel::Private => "private",
            DeployModel::Hybrid => "hybrid",
        })
    }
}

/// Measured behaviour of one deployment model over the chaos day.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// The deployment model.
    pub model: DeployModel,
    /// Fraction of requests served within their deadline.
    pub served_fraction: f64,
    /// Fraction served late or only after retries.
    pub degraded_fraction: f64,
    /// Fraction deliberately shed by admission control.
    pub shed_fraction: f64,
    /// Fraction lost outright (no capacity, retries exhausted).
    pub gave_up_fraction: f64,
    /// Quiz submissions lost — the §III "unsaved data" number.
    pub quiz_submits_lost: f64,
    /// Circuit-breaker trips (hybrid only; 0 elsewhere).
    pub breaker_trips: u32,
    /// Failover route changes (hybrid only; 0 elsewhere).
    pub failover_switches: u32,
    /// Retry attempts scheduled across the day.
    pub retry_attempts: f64,
}

/// E16 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The campaign the day ran under.
    pub chaos: ChaosSpec,
    /// One row per deployment model.
    pub rows: Vec<ResilienceRow>,
}

/// A cohort of identical retries waiting out a backoff.
struct Cohort {
    due_tick: u64,
    kind: RequestKind,
    /// Attempts already consumed (the first try included).
    attempts: u32,
    /// Previous backoff, threaded into the decorrelated-jitter draw.
    prev: SimDuration,
    count: f64,
}

struct World {
    model: DeployModel,
    workload: Box<dyn WorkloadSource>,
    day_start: SimTime,
    timeline: FaultTimeline,
    rng: SimRng,
    retry: RetryPolicy,
    timeout: TimeoutPolicy,
    admission: AdmissionController,
    failover: Option<HybridFailover>,
    scaler: Scaler,
    public_units: u32,
    private_units: u32,
    burst_units: u32,
    /// Unserved writes queued at the server (never dropped while any
    /// capacity is reachable; served as degraded).
    write_backlog: f64,
    cohorts: Vec<Cohort>,
    /// Counts per [`RequestOutcome::ALL`] position.
    outcomes: [f64; 4],
    quiz_lost: f64,
    retry_attempts: f64,
    tick_index: u64,
}

impl World {
    fn record(&mut self, outcome: RequestOutcome, kind: RequestKind, count: f64) {
        if count <= 0.0 {
            return;
        }
        let slot = RequestOutcome::ALL
            .iter()
            .position(|&o| o == outcome)
            .expect("outcome is in ALL");
        self.outcomes[slot] += count;
        if kind == RequestKind::QuizSubmit && outcome.is_loss() {
            self.quiz_lost += count;
        }
    }

    /// Reachable capacity this tick, in requests per second.
    fn capacity_rps(&mut self, now: SimTime, rate: f64) -> f64 {
        let storm = self.timeline.storm_at(now);
        let private_alive = fleet::private_survivors(self.private_units, &self.timeline, now);
        match self.model {
            DeployModel::Public => {
                self.public_units = self.scaler.resize(now, self.public_units, rate);
                if storm {
                    0.0
                } else {
                    f64::from(self.public_units) * UNIT.requests_per_sec()
                }
            }
            DeployModel::Private => f64::from(private_alive) * UNIT.requests_per_sec(),
            DeployModel::Hybrid => {
                let failover = self.failover.as_mut().expect("hybrid carries a failover");
                failover.probe(now, private_alive > 0);
                match failover.route(now) {
                    Route::Primary => f64::from(private_alive) * UNIT.requests_per_sec(),
                    Route::Backup => {
                        if storm {
                            0.0
                        } else {
                            f64::from(self.burst_units) * UNIT.requests_per_sec()
                        }
                    }
                }
            }
        }
    }

    /// Books `count` unserved requests of `kind`: schedules a retry cohort
    /// when the policy allows another attempt, records the loss otherwise.
    fn fail(
        &mut self,
        now: SimTime,
        kind: RequestKind,
        attempts: u32,
        prev: SimDuration,
        count: f64,
    ) {
        if count <= 0.0 {
            return;
        }
        if self.retry.should_retry(kind, attempts) {
            let backoff = self.retry.backoff(now, &mut self.rng, prev, attempts);
            let due = now + backoff;
            let due_tick = (due - SimTime::ZERO).as_nanos().div_ceil(TICK.as_nanos());
            self.retry_attempts += count;
            self.cohorts.push(Cohort {
                due_tick,
                kind,
                attempts: attempts + 1,
                prev: backoff,
                count,
            });
        } else {
            self.record(RequestOutcome::GaveUp, kind, count);
        }
    }
}

fn tick(sim: &mut Simulation<World>) {
    let now = sim.now();
    let w = sim.state_mut();
    let cal_now = w.day_start + (now - SimTime::ZERO);
    let rate = w.workload.rate_at(cal_now);
    let cap = w.capacity_rps(now, rate) * TICK.as_secs_f64();
    let tick_index = w.tick_index;
    w.tick_index += 1;

    // Fresh demand, split by the exam mix: deterministic, rate × mix, so
    // the resilience comparison isn't clouded by sampling noise.
    let fresh_total = rate * TICK.as_secs_f64();
    let mut fresh: Vec<(RequestKind, f64)> = EXAM_FRACTIONS
        .iter()
        .map(|&(kind, frac)| (kind, fresh_total * frac))
        .collect();

    // Retry cohorts that are due this tick.
    let due: Vec<Cohort> = {
        let mut kept = Vec::with_capacity(w.cohorts.len());
        let mut due = Vec::new();
        for c in w.cohorts.drain(..) {
            if c.due_tick <= tick_index {
                due.push(c);
            } else {
                kept.push(c);
            }
        }
        w.cohorts = kept;
        due
    };

    if cap <= 0.0 {
        // Nothing reachable: retries reschedule, writes are lost — the
        // §III scenario verbatim.
        for c in due {
            w.fail(now, c.kind, c.attempts, c.prev, c.count);
        }
        for (kind, count) in fresh {
            w.fail(now, kind, 1, w.retry.base(), count);
        }
        return;
    }

    // Admission control on fresh demand: walk the shed ladder, cheapest
    // kind first, re-measuring utilization as each kind drops out.
    let due_total: f64 = due.iter().map(|c| c.count).sum();
    let mut demand: f64 = w.write_backlog + due_total + fresh_total;
    for kind in w.admission.shed_order() {
        if demand <= cap {
            break;
        }
        let rho = demand / cap;
        if w.admission.admits(kind, rho) {
            continue;
        }
        let entry = fresh
            .iter_mut()
            .find(|(k, _)| *k == kind)
            .expect("mix kind");
        let count = entry.1;
        if count > 0.0 {
            entry.1 = 0.0;
            demand -= count;
            w.admission.record_shed(now, kind, count as u64);
            w.record(RequestOutcome::Shed, kind, count);
        }
    }

    // Serve in priority order: queued writes, then due retries, then
    // fresh writes, then fresh reads (pro-rata under saturation).
    let mut cap_left = cap;

    let backlog_served = w.write_backlog.min(cap_left);
    cap_left -= backlog_served;
    w.write_backlog -= backlog_served;
    w.record(
        RequestOutcome::ServedDegraded,
        RequestKind::QuizSubmit,
        backlog_served,
    );

    for c in due {
        let served = c.count.min(cap_left);
        cap_left -= served;
        w.record(RequestOutcome::ServedDegraded, c.kind, served);
        w.fail(now, c.kind, c.attempts, c.prev, c.count - served);
    }

    let writes_demand: f64 = fresh
        .iter()
        .filter(|(k, _)| k.is_write())
        .map(|(_, c)| c)
        .sum();
    let writes_served = writes_demand.min(cap_left);
    cap_left -= writes_served;
    // Write overflow queues at the server rather than risking a replay.
    w.write_backlog += writes_demand - writes_served;

    let reads_demand: f64 = fresh
        .iter()
        .filter(|(k, _)| !k.is_write())
        .map(|(_, c)| c)
        .sum();
    let reads_served_frac = if reads_demand > 0.0 {
        (cap_left / reads_demand).min(1.0)
    } else {
        1.0
    };

    // Minute-level latency from the utilization actually served; the
    // per-kind deadline decides served-vs-degraded.
    let served_total = (cap - cap_left) + reads_demand * reads_served_frac;
    let latency = SimDuration::from_secs_f64(fleet::latency_s(served_total / cap));

    let writes_scale = if writes_demand > 0.0 {
        writes_served / writes_demand
    } else {
        1.0
    };
    for (kind, count) in fresh {
        if count <= 0.0 {
            continue;
        }
        let served = count
            * if kind.is_write() {
                writes_scale
            } else {
                reads_served_frac
            };
        let outcome = if w.timeout.is_breach(kind, latency) {
            RequestOutcome::ServedDegraded
        } else {
            RequestOutcome::Served
        };
        w.record(outcome, kind, served);
        if !kind.is_write() {
            // Unserved reads go to the retry loop; unserved writes are
            // already queued in the backlog above.
            w.fail(now, kind, 1, w.retry.base(), count - served);
        }
    }
}

/// Simulates one deployment model over the chaos day.
fn simulate(scenario: &Scenario, chaos: &ChaosSpec, model: DeployModel) -> ResilienceRow {
    let workload = scenario.workload();
    // The exam day, as in E12 — the day the faults hurt most.
    let day_start = fleet::exam_day(scenario);
    let horizon = SimTime::ZERO + HORIZON;

    let rng_root = SimRng::seed(scenario.seed()).derive("e16");
    let timeline = FaultTimeline::generate(chaos, &rng_root.derive("chaos"), HORIZON);

    let private_units = fleet::fixed_fleet(workload.peak_rate());
    let plan = FailoverPlan::private_to_public(BURST_FRACTION);
    // Rounded down, where E17 rounds up.
    let burst_units = plan.burst_capacity(private_units);
    let public_initial = fleet::elastic_start(workload.rate_at(day_start));

    let failover = (model == DeployModel::Hybrid).then(|| {
        // Threshold 1 + per-tick probes: the breaker trips on the first
        // failed probe, so failover happens within the same control tick.
        HybridFailover::new(
            CircuitBreaker::new("private-site", 1, SimDuration::from_mins(5)),
            plan,
        )
    });
    let world = World {
        model,
        workload,
        day_start,
        timeline,
        rng: rng_root.derive(&model.to_string()),
        retry: RetryPolicy::standard(),
        timeout: TimeoutPolicy::standard(),
        admission: AdmissionController::standard(),
        failover,
        scaler: Scaler::new(),
        public_units: public_initial,
        private_units,
        burst_units,
        write_backlog: 0.0,
        cohorts: Vec::new(),
        outcomes: [0.0; 4],
        quiz_lost: 0.0,
        retry_attempts: 0.0,
        tick_index: 0,
    };

    let mut sim = Simulation::new(scenario.seed(), world);
    sim.schedule_every(SimDuration::ZERO, TICK, move |sim| {
        tick(sim);
        sim.now() < SimTime::ZERO + HORIZON - TICK
    });
    sim.run_until(horizon);

    let w = sim.into_state();
    // Whatever is still queued or waiting out a backoff at midnight never
    // made it: count it as lost.
    let mut w = w;
    let leftover_backlog = w.write_backlog;
    w.record(
        RequestOutcome::GaveUp,
        RequestKind::QuizSubmit,
        leftover_backlog,
    );
    let leftovers: Vec<(RequestKind, f64)> = w.cohorts.iter().map(|c| (c.kind, c.count)).collect();
    for (kind, count) in leftovers {
        w.record(RequestOutcome::GaveUp, kind, count);
    }

    let total: f64 = w.outcomes.iter().sum();
    let frac = |i: usize| {
        if total > 0.0 {
            w.outcomes[i] / total
        } else {
            0.0
        }
    };
    ResilienceRow {
        model,
        served_fraction: frac(0),
        degraded_fraction: frac(1),
        shed_fraction: frac(2),
        gave_up_fraction: frac(3),
        quiz_submits_lost: w.quiz_lost,
        breaker_trips: w.failover.as_ref().map_or(0, |f| f.breaker().trips()),
        failover_switches: w.failover.as_ref().map_or(0, HybridFailover::switches),
        retry_attempts: w.retry_attempts,
    }
}

/// Runs all three deployment models under the scenario's chaos campaign
/// (or the default exam-day crisis when none is configured).
///
/// The three arms draw from independent RNG lineages, so with
/// `scenario.shards() > 1` they run as parallel shard jobs
/// ([`elc_simcore::shard::run_jobs`]) — results are collected in model
/// order and the output is byte-identical at any shard count.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let chaos = scenario
        .chaos()
        .cloned()
        .unwrap_or_else(ChaosSpec::exam_day_crisis);
    let jobs: Vec<_> = DeployModel::ALL
        .iter()
        .map(|&m| {
            let chaos = &chaos;
            move || simulate(scenario, chaos, m)
        })
        .collect();
    let rows = elc_simcore::shard::run_jobs(scenario.shards(), jobs);
    Output { chaos, rows }
}

impl Output {
    /// The row for a model.
    #[must_use]
    pub fn row(&self, model: DeployModel) -> &ResilienceRow {
        self.rows
            .iter()
            .find(|r| r.model == model)
            .expect("all models simulated")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "model",
            "served (%)",
            "degraded (%)",
            "shed (%)",
            "gave-up (%)",
            "quiz-submits lost",
            "breaker trips",
            "failovers",
            "retries",
        ]);
        for r in &self.rows {
            t.row(
                r.model.to_string(),
                vec![
                    Cell::num(r.served_fraction * 100.0),
                    Cell::num(r.degraded_fraction * 100.0),
                    Cell::num(r.shed_fraction * 100.0),
                    Cell::num(r.gave_up_fraction * 100.0),
                    Cell::int(r.quiz_submits_lost.round() as i128),
                    Cell::int(i128::from(r.breaker_trips)),
                    Cell::int(i128::from(r.failover_switches)),
                    Cell::int(r.retry_attempts.round() as i128),
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

    /// Renders the E16 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E16",
            "Resilience under injected faults: deployment models compared",
            self.metric_table().to_table(),
        );
        s.note(format!("chaos campaign: {}", self.chaos));
        s.note("paper §III: a dropped cloud connection loses \"time, work, or even unsaved data\" — quiz submissions are the data that must not be lost");
        s.note("measured: the hybrid's breaker-plus-burst failover keeps quiz-submit loss at zero through the site disaster; the pure models cannot");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Output {
        run(&Scenario::university(41))
    }

    #[test]
    fn hybrid_loses_no_quiz_submits() {
        let out = output();
        let hybrid = out.row(DeployModel::Hybrid);
        assert_eq!(
            hybrid.quiz_submits_lost, 0.0,
            "failover must protect every submission"
        );
        assert!(
            hybrid.breaker_trips >= 1,
            "the disaster must trip the breaker"
        );
        assert!(hybrid.failover_switches >= 1);
    }

    #[test]
    fn private_forfeits_submissions_after_the_disaster() {
        let out = output();
        let private = out.row(DeployModel::Private);
        assert!(
            private.quiz_submits_lost > 1_000.0,
            "lost {}",
            private.quiz_submits_lost
        );
        assert!(private.gave_up_fraction > out.row(DeployModel::Hybrid).gave_up_fraction);
    }

    #[test]
    fn public_loses_the_storm_window() {
        let out = output();
        let public = out.row(DeployModel::Public);
        assert!(
            public.quiz_submits_lost > 0.0,
            "the uplink storm must cost the public model writes"
        );
        assert!(public.quiz_submits_lost < out.row(DeployModel::Private).quiz_submits_lost);
        assert!(
            public.retry_attempts > 0.0,
            "reads must retry through the storm"
        );
    }

    #[test]
    fn hybrid_sheds_reads_to_protect_writes() {
        let out = output();
        let hybrid = out.row(DeployModel::Hybrid);
        // Burst capacity is a fraction of the primary: admission control
        // must be shedding something while failed over.
        assert!(hybrid.shed_fraction > 0.0);
        assert!(hybrid.served_fraction > 0.5);
    }

    #[test]
    fn fractions_sum_to_one() {
        for r in &output().rows {
            let sum =
                r.served_fraction + r.degraded_fraction + r.shed_fraction + r.gave_up_fraction;
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", r.model);
        }
    }

    #[test]
    fn chaos_off_is_a_quiet_day() {
        let scenario = Scenario::university(41).with_chaos(ChaosSpec::off());
        let out = run(&scenario);
        for r in &out.rows {
            assert_eq!(r.quiz_submits_lost, 0.0, "{}", r.model);
            assert_eq!(r.gave_up_fraction, 0.0, "{}", r.model);
            assert_eq!(r.breaker_trips, 0, "{}", r.model);
        }
    }

    #[test]
    fn custom_campaign_is_honoured() {
        let spec: ChaosSpec = "disaster@0.5".parse().unwrap();
        let out = run(&Scenario::university(41).with_chaos(spec.clone()));
        assert_eq!(out.chaos, spec);
        // No storm: the public model has a clean day.
        assert_eq!(out.row(DeployModel::Public).quiz_submits_lost, 0.0);
        assert!(out.row(DeployModel::Private).quiz_submits_lost > 0.0);
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E16");
        assert_eq!(s.table().len(), DeployModel::ALL.len());
    }

    #[test]
    fn deterministic() {
        let a = run(&Scenario::university(8));
        let b = run(&Scenario::university(8));
        assert_eq!(a, b);
    }
}
