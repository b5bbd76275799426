//! E17 — Serverless cold-start economics.
//!
//! The paper's deployment axis (§IV) stops at public / private / hybrid;
//! this extension experiment adds the model that did not exist when the
//! survey was written: functions as a service. Three simulated days —
//! an ordinary **diurnal** teaching day, the **exam**-day surge of E12,
//! and a **chaos** replay of the exam day under the E16 fault campaign —
//! are each served by three deployments:
//!
//! * **public** — autoscaled public-cloud VM fleet (the E16 comparator),
//! * **hybrid** — exam-sized private fleet with public burst capacity,
//! * **faas** — the `elc-faas` platform model: per-function sandboxes
//!   with cold starts, a fixed keepalive window, a shared burst
//!   concurrency pool and per-invocation billing.
//!
//! The economics cross over exactly where serverless folklore says they
//! should: the meter that sleeps through the night makes FaaS the
//! cheapest way to own the diurnal day, while the exam surge exhausts the
//! account's burst pool — functions early in the allocation order grab
//! the sandboxes, `QuizSubmit` starves behind them, and the lost
//! submissions are the price of not owning capacity. Under chaos the
//! uplink storms cut learners off from both public-side models, the
//! keepalive reaper empties the idle fleet (`container.reap`), and
//! recovery is a traced scale-from-zero cold-start burst.

use elc_analysis::matrix::{Direction, WideMatrix};
use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_cloud::autoscale::{AutoScaler, ScaleDecision};
use elc_cloud::billing::{PriceSheet, UsageMeter, Usd};
use elc_cloud::resources::VmSize;
use elc_deploy::calib;
use elc_deploy::cost::{private_unit_day_cost, CostInputs};
use elc_deploy::faas::{faas_tco, FaasDeployment, TEACHING_FRACTIONS};
use elc_deploy::provisioning::faas_schedule;
use elc_elearn::calendar::Phase;
use elc_elearn::request::RequestKind;
use elc_faas::{FaasScaler, FixedWindow, InvocationBilling, Invoker, InvokerConfig};
use elc_resil::chaos::{ChaosSpec, FaultTimeline};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use super::t1;
use crate::scenario::Scenario;

/// The instance size every VM fleet is built from.
const UNIT: VmSize = VmSize::Medium;

/// Base service latency of an unloaded VM fleet, seconds.
const BASE_LATENCY_S: f64 = 0.12;

/// Latency cap when saturated, seconds.
const MAX_LATENCY_S: f64 = 10.0;

/// Control-loop tick.
const TICK: SimDuration = SimDuration::from_secs(60);

/// The simulated day.
const HORIZON: SimDuration = SimDuration::from_hours(24);

/// Share of the private fleet the hybrid can burst into public capacity.
const BURST_FRACTION: f64 = 0.6;

/// Sandboxes co-located on one crashed host during a cascade.
const SANDBOXES_PER_HOST: u32 = 25;

/// The exam-day request mix as per-kind fractions (E16's table).
const EXAM_MIX: [(RequestKind, f64); 9] = [
    (RequestKind::Login, 0.10),
    (RequestKind::CoursePage, 0.09),
    (RequestKind::VideoChunk, 0.02),
    (RequestKind::QuizFetch, 0.40),
    (RequestKind::QuizSubmit, 0.35),
    (RequestKind::Upload, 0.01),
    (RequestKind::Download, 0.01),
    (RequestKind::ForumRead, 0.015),
    (RequestKind::ForumPost, 0.005),
];

/// One simulated day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Day {
    /// A mid-term teaching weekday: the diurnal curve, nothing else.
    Diurnal,
    /// Day 2 of the exam period — the E12 surge.
    Exam,
    /// The exam day replayed under the chaos campaign.
    Chaos,
}

impl Day {
    /// All days, report order.
    pub const ALL: [Day; 3] = [Day::Diurnal, Day::Exam, Day::Chaos];
}

impl std::fmt::Display for Day {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Day::Diurnal => "diurnal",
            Day::Exam => "exam",
            Day::Chaos => "chaos",
        })
    }
}

/// One deployment model under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Autoscaled public-cloud VM fleet.
    Public,
    /// Exam-sized private fleet with public burst capacity.
    Hybrid,
    /// The serverless platform model.
    Faas,
}

impl Model {
    /// All models, report order.
    pub const ALL: [Model; 3] = [Model::Public, Model::Hybrid, Model::Faas];
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Model::Public => "public",
            Model::Hybrid => "hybrid",
            Model::Faas => "faas",
        })
    }
}

/// Measured behaviour of one model over one day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayRow {
    /// The simulated day.
    pub day: Day,
    /// The deployment model.
    pub model: Model,
    /// Infrastructure cost of the day (compute only — storage and egress
    /// are identical across models and excluded).
    pub cost_per_day: Usd,
    /// p95 latency of the warm path, seconds.
    pub p95_warm_s: f64,
    /// p95 latency of the cold/queued path, seconds (0 for VM fleets).
    pub p95_cold_s: f64,
    /// Fraction of served requests that paid the cold/queued path.
    pub cold_start_fraction: f64,
    /// Fraction of offered requests lost (shed or given up).
    pub lost_fraction: f64,
    /// Quiz submissions lost — the §III "unsaved data" number.
    pub quiz_submits_lost: f64,
    /// Sandboxes cold-started over the day (FaaS only).
    pub cold_starts: u64,
    /// Sandboxes reaped by the keepalive or killed by faults (FaaS only).
    pub reaped: u64,
}

/// E17 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The campaign the chaos day ran under.
    pub chaos: ChaosSpec,
    /// One row per (day, model), day-major.
    pub rows: Vec<DayRow>,
}

fn frac_of(mix: &[(RequestKind, f64); 9], kind: RequestKind) -> f64 {
    mix.iter()
        .find(|(k, _)| *k == kind)
        .map_or(0.0, |&(_, f)| f)
}

fn mix_for(day: Day) -> &'static [(RequestKind, f64); 9] {
    match day {
        Day::Diurnal => &TEACHING_FRACTIONS,
        Day::Exam | Day::Chaos => &EXAM_MIX,
    }
}

/// First instant of the simulated day on the scenario calendar.
fn day_start(scenario: &Scenario, day: Day) -> SimTime {
    let cal = scenario.calendar();
    match day {
        // Day 2 of the exam period, as in E12/E16.
        Day::Exam | Day::Chaos => cal.exams_start() + SimDuration::from_days(1),
        // Step back whole weeks from the exams until an ordinary teaching
        // weekday: same weekday, mid-term load.
        Day::Diurnal => {
            let mut t = cal.exams_start();
            loop {
                t = t - SimDuration::from_days(7);
                if cal.phase_at(t) == Phase::Teaching && !cal.is_weekend(t) {
                    return t;
                }
            }
        }
    }
}

/// Shared per-day accounting: offered/served/lost totals and the lost
/// quiz submissions.
#[derive(Default)]
struct Ledger {
    served_warm: f64,
    served_cold: f64,
    shed: f64,
    gave_up: f64,
    quiz_lost: f64,
}

impl Ledger {
    fn lose(&mut self, mix: &[(RequestKind, f64); 9], count: f64) {
        self.gave_up += count;
        self.quiz_lost += count * frac_of(mix, RequestKind::QuizSubmit);
    }

    fn total(&self) -> f64 {
        self.served_warm + self.served_cold + self.shed + self.gave_up
    }

    fn row(&self, day: Day, model: Model, cost: Usd, warm: &Histogram, cold: &Histogram) -> DayRow {
        let total = self.total();
        let served = self.served_warm + self.served_cold;
        DayRow {
            day,
            model,
            cost_per_day: cost,
            p95_warm_s: warm.p95(),
            p95_cold_s: cold.p95(),
            cold_start_fraction: if served > 0.0 {
                self.served_cold / served
            } else {
                0.0
            },
            lost_fraction: if total > 0.0 {
                (self.shed + self.gave_up) / total
            } else {
                0.0
            },
            quiz_submits_lost: self.quiz_lost,
            cold_starts: 0,
            reaped: 0,
        }
    }
}

/// Simulates a VM deployment (public or hybrid) over one day as a fluid
/// M/M/1 fleet with write-priority allocation: writes — `QuizSubmit`
/// above all — are only shed once reads already are.
fn simulate_vm(
    scenario: &Scenario,
    day: Day,
    model: Model,
    timeline: Option<&FaultTimeline>,
) -> DayRow {
    let workload = scenario.workload();
    let start = day_start(scenario, day);
    let mix = mix_for(day);
    let write_frac: f64 = mix
        .iter()
        .filter(|(k, _)| k.is_write())
        .map(|(_, f)| f)
        .sum();
    let quiz_frac = frac_of(mix, RequestKind::QuizSubmit);

    let exam_peak = workload.peak_rate();
    let private_units = ((exam_peak * 1.2 / UNIT.requests_per_sec()).ceil() as u32).max(2);
    let burst_units = ((f64::from(private_units) * BURST_FRACTION).ceil() as u32).max(1);
    let rate0 = workload.rate_at(start);
    let mut public_units = ((rate0 / (UNIT.requests_per_sec() * 0.6)).ceil() as u32).max(2);
    let mut scaler =
        (model == Model::Public).then(|| AutoScaler::new(2, 600, 0.6, SimDuration::from_secs(240)));

    let mut ledger = Ledger::default();
    let mut warm = Histogram::new();
    let cold = Histogram::new();
    let mut vm_hours = 0.0;
    let tick_h = TICK.as_secs_f64() / 3_600.0;

    let ticks = HORIZON.as_nanos() / TICK.as_nanos();
    for i in 0..ticks {
        let now = SimTime::ZERO + TICK * i;
        let rate = workload.rate_at(start + (now - SimTime::ZERO));
        let demand = rate * TICK.as_secs_f64();

        let storm = timeline.is_some_and(|t| t.storm_at(now));
        let disaster = timeline.is_some_and(|t| t.disaster_by(now));
        let crashed = timeline.map_or(0, |t| t.crashed_hosts_by(now));

        let cap_rps = match model {
            Model::Public => {
                if let Some(s) = scaler.as_mut() {
                    match s.decide(now, public_units, rate, UNIT.requests_per_sec()) {
                        ScaleDecision::ScaleUp(n) => public_units += n,
                        ScaleDecision::ScaleDown(n) => {
                            public_units = public_units.saturating_sub(n).max(1);
                        }
                        ScaleDecision::Hold => {}
                    }
                }
                // Instances bill whether or not the uplink storm lets
                // learners reach them.
                vm_hours += f64::from(public_units) * tick_h;
                if storm {
                    0.0
                } else {
                    f64::from(public_units) * UNIT.requests_per_sec()
                }
            }
            Model::Hybrid => {
                let alive = if disaster {
                    0
                } else {
                    private_units.saturating_sub(crashed)
                };
                let private_cap = f64::from(alive) * UNIT.requests_per_sec();
                if private_cap >= rate || storm {
                    // The storm cuts the public burst path; the private
                    // site carries whatever it can alone.
                    private_cap
                } else {
                    let shortfall = rate - private_cap;
                    let engaged = ((shortfall / UNIT.requests_per_sec()).ceil() as u32)
                        .min(burst_units)
                        .max(1);
                    vm_hours += f64::from(engaged) * tick_h;
                    private_cap + f64::from(engaged) * UNIT.requests_per_sec()
                }
            }
            Model::Faas => unreachable!("FaaS has its own simulator"),
        };

        let cap = cap_rps * TICK.as_secs_f64();
        if cap <= 0.0 {
            ledger.lose(mix, demand);
            continue;
        }

        let served = demand.min(cap);
        let rho = served / cap;
        let latency = if rho < 0.95 {
            (BASE_LATENCY_S / (1.0 - rho)).min(MAX_LATENCY_S)
        } else {
            MAX_LATENCY_S
        };
        warm.record_n(latency, served.round() as u64);
        ledger.served_warm += served;

        // Overflow sheds reads first; writes only once reads are gone.
        let overflow = demand - served;
        if overflow > 0.0 {
            let write_demand = demand * write_frac;
            let write_shed = (overflow - (demand - write_demand)).max(0.0);
            ledger.shed += overflow;
            if write_shed > 0.0 && write_frac > 0.0 {
                ledger.quiz_lost += write_shed * quiz_frac / write_frac;
            }
        }
    }

    let mut meter = UsageMeter::new();
    meter.record_vm_hours(UNIT, vm_hours);
    let mut cost = meter.invoice(&PriceSheet::public_2013()).total();
    if model == Model::Hybrid {
        // The private fleet is owned: amortized capex + power + facilities
        // per unit-day, burning whether busy or idle.
        cost += private_unit_day_cost(UNIT) * f64::from(private_units);
    }

    ledger.row(day, model, cost, &warm, &cold)
}

/// Simulates the FaaS platform over one day: one [`Invoker`] per request
/// kind competing for the account's shared burst pool in
/// [`RequestKind::ALL`] order.
fn simulate_faas(
    scenario: &Scenario,
    day: Day,
    timeline: Option<&FaultTimeline>,
    deploy: &FaasDeployment,
) -> DayRow {
    let scaler = FaasScaler::new(deploy.target_util, deploy.burst_limit);
    let workload = scenario.workload();
    let start = day_start(scenario, day);
    let mix = mix_for(day);

    // The chaos day replays the exam day's request stream — same RNG
    // lineage, so with faults off the two days are byte-identical.
    let stream = match day {
        Day::Diurnal => "diurnal",
        Day::Exam | Day::Chaos => "exam",
    };
    let mut rng = SimRng::seed(scenario.seed())
        .derive("e17")
        .derive(&format!("{stream}/faas"));
    let mut invokers: Vec<Invoker> = RequestKind::ALL
        .iter()
        .map(|&k| {
            Invoker::new(
                k,
                InvokerConfig::new(
                    FixedWindow::new(deploy.keepalive),
                    deploy.per_function_concurrency,
                    deploy.buffer_capacity,
                ),
            )
        })
        .collect();

    // The monthly free tier, pro-rated to the single simulated day.
    let mut billing = InvocationBilling::new(deploy.prices.with_free_tier(
        deploy.prices.free_gb_s() / 30.0,
        deploy.prices.free_requests() / 30,
    ));

    let mut ledger = Ledger::default();
    let mut warm = Histogram::new();
    let mut cold = Histogram::new();
    let mut cold_starts = 0u64;
    let mut reaped = 0u64;
    let mut last_crashed = 0u32;

    let ticks = HORIZON.as_nanos() / TICK.as_nanos();
    for i in 0..ticks {
        let now = SimTime::ZERO + TICK * i;
        let rate = workload.rate_at(start + (now - SimTime::ZERO));
        let storm = timeline.is_some_and(|t| t.storm_at(now));

        // A host cascade takes co-located sandboxes down with it.
        let crashed = timeline.map_or(0, |t| t.crashed_hosts_by(now));
        if crashed > last_crashed {
            let mut kills = (crashed - last_crashed) * SANDBOXES_PER_HOST;
            for inv in &mut invokers {
                if kills == 0 {
                    break;
                }
                let killed = inv.kill(kills);
                kills -= killed;
                reaped += u64::from(killed);
            }
            last_crashed = crashed;
        }

        let mut pool_in_use: u32 = invokers.iter().map(Invoker::live).sum();
        for inv in &mut invokers {
            let kind = inv.kind();
            let kind_rate = rate * frac_of(mix, kind);
            let spec = deploy.profile.get(kind);
            let (demand, grant) = if storm {
                // The provider is unreachable: fresh demand dies at the
                // learner's uplink; idle sandboxes age toward the reaper.
                ledger.gave_up += kind_rate * TICK.as_secs_f64();
                if kind == RequestKind::QuizSubmit {
                    ledger.quiz_lost += kind_rate * TICK.as_secs_f64();
                }
                (0, 0)
            } else {
                let demand = (kind_rate * TICK.as_secs_f64()).round() as u64;
                let desired = scaler.desired_containers(kind_rate, spec.service_time());
                (demand, scaler.grant(desired, inv.live(), pool_in_use))
            };
            let out = inv.tick(
                now, TICK, demand, grant, spec, &mut rng, &mut warm, &mut cold,
            );
            pool_in_use += out.cold_starts as u32;
            ledger.served_warm += out.served_warm as f64;
            ledger.served_cold += out.served_cold as f64;
            ledger.shed += out.shed as f64;
            if kind == RequestKind::QuizSubmit {
                ledger.quiz_lost += out.shed as f64;
            }
            billing.record(
                out.served_warm + out.served_cold,
                spec.service_time(),
                spec.memory_gb(),
            );
            cold_starts += out.cold_starts;
            reaped += out.reaped;
        }
    }

    // Whatever is still buffered at midnight never made it.
    for inv in &mut invokers {
        let abandoned = inv.abandon_buffer();
        ledger.gave_up += abandoned as f64;
        if inv.kind() == RequestKind::QuizSubmit {
            ledger.quiz_lost += abandoned as f64;
        }
    }

    let mut row = ledger.row(day, Model::Faas, billing.total(), &warm, &cold);
    row.cold_starts = cold_starts;
    row.reaped = reaped;
    row
}

/// Runs the three deployment models through the three days. The chaos day
/// uses the scenario's campaign, or [`ChaosSpec::exam_day_crisis`] when
/// none is configured.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let deploy = &FaasDeployment::standard();
    let chaos = scenario
        .chaos()
        .cloned()
        .unwrap_or_else(ChaosSpec::exam_day_crisis);
    let rng_root = SimRng::seed(scenario.seed()).derive("e17");
    let timeline = FaultTimeline::generate(&chaos, &rng_root.derive("chaos"), HORIZON);

    // Every (day, model) arm draws from its own RNG lineage, so with
    // `scenario.shards() > 1` the arms run as parallel shard jobs;
    // collection stays in (day, model) order at any shard count.
    let mut jobs = Vec::with_capacity(Day::ALL.len() * Model::ALL.len());
    for day in Day::ALL {
        let tl = (day == Day::Chaos).then_some(&timeline);
        for model in Model::ALL {
            jobs.push(move || match model {
                Model::Faas => simulate_faas(scenario, day, tl, deploy),
                _ => simulate_vm(scenario, day, model, tl),
            });
        }
    }
    let rows = elc_simcore::shard::run_jobs(scenario.shards(), jobs);
    Output { chaos, rows }
}

impl Output {
    /// The row for a (day, model) pair.
    #[must_use]
    pub fn row(&self, day: Day, model: Model) -> &DayRow {
        self.rows
            .iter()
            .find(|r| r.day == day && r.model == model)
            .expect("all day/model pairs simulated")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "day/model",
            "cost/day ($)",
            "p95 warm (s)",
            "p95 cold (s)",
            "cold-start (%)",
            "lost (%)",
            "quiz-submits lost",
            "cold starts",
            "reaps",
        ]);
        for r in &self.rows {
            t.row(
                format!("{}/{}", r.day, r.model),
                vec![
                    Cell::num(r.cost_per_day.amount()),
                    Cell::num(r.p95_warm_s),
                    Cell::num(r.p95_cold_s),
                    Cell::num(r.cold_start_fraction * 100.0),
                    Cell::num(r.lost_fraction * 100.0),
                    Cell::int(r.quiz_submits_lost.round() as i128),
                    Cell::int(i128::from(r.cold_starts)),
                    Cell::int(i128::from(r.reaped)),
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

    /// Renders the E17 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E17",
            "Serverless cold-start economics: FaaS vs VM deployments",
            self.metric_table().to_table(),
        );
        s.note(format!("chaos campaign: {}", self.chaos));
        s.note("cost/day is compute only; storage and egress are identical across models");
        s.note("measured: the per-invocation meter wins the diurnal day, but the exam surge exhausts the burst concurrency pool — QuizSubmit starves behind earlier functions and the hybrid's owned fleet keeps every submission");
        s
    }
}

/// The FaaS column of the T1 appendix: one value per T1 criterion, derived
/// from the same experiment outputs that fill the three VM columns.
pub type FaasColumn = t1::ModelMetrics<f64>;

impl FaasColumn {
    /// Derives the column: measured E17 surge behaviour, the invocation
    /// TCO, and the public column's provider-side values where the FaaS
    /// platform shares the public cloud's properties — provider-pushed
    /// updates (the SaaS channel), provider-replicated storage and a shared
    /// multi-tenant platform. Its exit cost is the public exit amplified by
    /// the proprietary function runtime ([`calib::FAAS_LOCKIN_FACTOR`]).
    #[must_use]
    pub fn derive(scenario: &Scenario, base: &t1::ModelMetrics, e17: &Output) -> Self {
        let mut inputs = CostInputs::standard(scenario.workload_model());
        inputs.years = scenario.years();
        let day = 86_400.0;
        FaasColumn {
            tco: faas_tco(&inputs, &FaasDeployment::standard())
                .total()
                .amount(),
            staleness_days: base.staleness_days[0],
            loss_probability: base.loss_probability[0],
            confidential_incidents: base.confidential_incidents[0],
            exit_cost: base.exit_cost[0] * calib::FAAS_LOCKIN_FACTOR,
            time_to_service_days: faas_schedule().time_to_service().as_secs_f64() / day,
            ops_fte: calib::FAAS_OPS_FTE,
            surge_rejected: e17.row(Day::Exam, Model::Faas).lost_fraction,
        }
    }

    /// The four-column comparison matrix: T1's three models plus FaaS.
    #[must_use]
    pub fn wide_matrix(&self, base: &t1::ModelMetrics) -> WideMatrix {
        let mut m = WideMatrix::new(["public", "private", "hybrid", "faas"]);
        for ((name, experiment, three), (_, _, faas)) in
            base.criteria().into_iter().zip(self.criteria())
        {
            // FaaS's exam-day loss is E17's measurement.
            let experiment = if experiment == "E12" {
                "E12/E17"
            } else {
                experiment
            };
            let mut values = three.to_vec();
            values.push(faas);
            m.add(name, experiment, values, Direction::LowerIsBetter);
        }
        m
    }

    /// Renders the appendix section. Kept out of the main report so the
    /// pinned three-column T1 stays byte-identical.
    #[must_use]
    pub fn section(&self, base: &t1::ModelMetrics) -> Section {
        let m = self.wide_matrix(base);
        let wins = m.win_counts();
        let mut s = Section::new(
            "T1F",
            "Deployment-model comparison matrix with FaaS (appendix)",
            m.to_table(),
        );
        s.note(format!(
            "criteria won (public/private/hybrid/faas): {}/{}/{}/{} — FaaS buys speed and ops leanness with deeper lock-in and a starved surge",
            wins[0], wins[1], wins[2], wins[3]
        ));
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
    fn faas_owns_the_diurnal_day_cheaper_than_the_hybrid() {
        let out = output();
        let faas = out.row(Day::Diurnal, Model::Faas).cost_per_day;
        let hybrid = out.row(Day::Diurnal, Model::Hybrid).cost_per_day;
        assert!(
            faas < hybrid,
            "faas {faas} should undercut the owned fleet {hybrid} on an ordinary day"
        );
    }

    #[test]
    fn hybrid_wins_the_exam_surge() {
        let out = output();
        let hybrid = out.row(Day::Exam, Model::Hybrid);
        let faas = out.row(Day::Exam, Model::Faas);
        assert_eq!(
            hybrid.quiz_submits_lost, 0.0,
            "the owned fleet is exam-sized"
        );
        assert!(
            faas.quiz_submits_lost > 1_000.0,
            "burst-pool starvation must cost submissions, lost {}",
            faas.quiz_submits_lost
        );
        assert!(faas.lost_fraction > hybrid.lost_fraction);
    }

    #[test]
    fn cold_path_is_slower_than_warm() {
        let out = output();
        let faas = out.row(Day::Exam, Model::Faas);
        assert!(faas.cold_start_fraction > 0.0);
        assert!(
            faas.p95_cold_s > faas.p95_warm_s,
            "cold {} vs warm {}",
            faas.p95_cold_s,
            faas.p95_warm_s
        );
    }

    #[test]
    fn morning_scale_up_pays_cold_starts_even_on_a_quiet_day() {
        let out = output();
        let faas = out.row(Day::Diurnal, Model::Faas);
        assert!(faas.cold_starts > 0, "scale-from-zero must cold-start");
        assert!(faas.cold_start_fraction > 0.0);
        assert!(
            faas.reaped > 0,
            "the overnight trough must reap idle sandboxes"
        );
    }

    #[test]
    fn vm_fleets_have_no_cold_path() {
        let out = output();
        for day in Day::ALL {
            for model in [Model::Public, Model::Hybrid] {
                let r = out.row(day, model);
                assert_eq!(r.cold_start_fraction, 0.0, "{day}/{model}");
                assert_eq!(r.p95_cold_s, 0.0, "{day}/{model}");
                assert_eq!(r.cold_starts, 0, "{day}/{model}");
            }
        }
    }

    #[test]
    fn storms_reap_sandboxes_and_recovery_cold_starts() {
        let out = output();
        let chaos = out.row(Day::Chaos, Model::Faas);
        let exam = out.row(Day::Exam, Model::Faas);
        assert!(
            chaos.reaped > exam.reaped,
            "storm idling must reap more ({} vs {})",
            chaos.reaped,
            exam.reaped
        );
        assert!(
            chaos.cold_starts > exam.cold_starts,
            "scale-from-zero recovery must cold-start more ({} vs {})",
            chaos.cold_starts,
            exam.cold_starts
        );
        // The storm also costs the public VM model its window.
        assert!(out.row(Day::Chaos, Model::Public).quiz_submits_lost > 0.0);
    }

    #[test]
    fn chaos_off_replays_the_exam_day() {
        let out = run(&Scenario::university(41).with_chaos(ChaosSpec::off()));
        for model in Model::ALL {
            let exam = out.row(Day::Exam, model);
            let chaos = out.row(Day::Chaos, model);
            assert_eq!(exam.cost_per_day, chaos.cost_per_day, "{model}");
            assert_eq!(exam.quiz_submits_lost, chaos.quiz_submits_lost, "{model}");
            assert_eq!(exam.lost_fraction, chaos.lost_fraction, "{model}");
        }
    }

    #[test]
    fn custom_campaign_is_honoured() {
        let spec: ChaosSpec = "disaster@0.5".parse().unwrap();
        let out = run(&Scenario::university(41).with_chaos(spec.clone()));
        assert_eq!(out.chaos, spec);
        // No storm: the public model's chaos day is clean.
        assert_eq!(out.row(Day::Chaos, Model::Public).quiz_submits_lost, 0.0);
        // The disaster ends the private site: the hybrid bursts.
        let hybrid = out.row(Day::Chaos, Model::Hybrid);
        assert!(hybrid.cost_per_day > out.row(Day::Exam, Model::Hybrid).cost_per_day);
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E17");
        assert_eq!(s.table().len(), Day::ALL.len() * Model::ALL.len());
    }

    #[test]
    fn deterministic() {
        let a = run(&Scenario::university(8));
        let b = run(&Scenario::university(8));
        assert_eq!(a, b);
    }

    #[test]
    fn faas_column_extends_the_matrix() {
        let s = Scenario::university(41);
        let out = run(&s);
        let base = super::super::run_all(&s).metrics();
        let col = FaasColumn::derive(&s, &base, &out);
        assert!(col.time_to_service_days < base.time_to_service_days[0]);
        assert!(
            col.exit_cost > base.exit_cost[0],
            "lock-in must amplify exit"
        );
        assert!(col.surge_rejected > 0.0);
        let section = col.section(&base);
        assert_eq!(section.id(), "T1F");
        assert_eq!(section.table().len(), 8);
        let wins = col.wide_matrix(&base).win_counts();
        assert!(
            wins[3] > 0,
            "faas must win at least one criterion, wins {wins:?}"
        );
    }
}
