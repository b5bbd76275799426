//! E19 — Disaster recovery: a region-loss drill across deployment models.
//!
//! Paper claim under test: §IV.B credits the public cloud with managed
//! redundancy while charging the private model with physical-damage risk
//! borne by the institution itself, and arXiv:1305.2616 lists
//! backup/recovery among the core motives for cloud adoption. This
//! experiment prices those claims in the currency that matters during an
//! exam: **RTO** (how long nobody serves), **RPO** (how many committed
//! quiz submissions are unrecoverable), and the annual cost of the
//! posture that bought those numbers.
//!
//! One exam evening, one drill — the primary region drops mid-evening
//! (default [`ChaosSpec::region_loss_drill`]: region 0 lost for 45
//! minutes at the 6-hour window's midpoint) — five deployment models,
//! each running the DR posture it realistically deploys
//! ([`DrPosture`]):
//!
//! * **private** — nightly tape: almost a day of writes on the floor,
//!   hours of restore at tape speed,
//! * **public** — multi-AZ synchronous replica: zero loss, promotion in
//!   about a minute,
//! * **hybrid** — warm standby on async log shipping sized at 90% of the
//!   peak write rate: seconds-to-minutes of loss, exactly at the peak,
//! * **community** — hourly snapshots at a mutual-aid partner: bounded
//!   loss, human-speed promotion,
//! * **faas** — stateless functions over a managed replicated store:
//!   zero loss, recovery is a cold scale-from-zero burst.
//!
//! Every arm drives the same machinery: a [`FailureDetector`] grades the
//! silence, the [`RecoveryOrchestrator`] walks healthy → suspected →
//! promoting → catching-up → restored with epoch fencing (a returning
//! primary is refused until failback — the split-brain that never
//! happens is counted in `fenced ticks`), and the [`ReplicationLink`]
//! decides what was already safe when the region died. Replication state
//! is warmed up from the last snapshot boundary before the window, so
//! the nightly tape walks into the drill carrying the day's writes.
//!
//! [`ChaosSpec::region_loss_drill`]: elc_resil::chaos::ChaosSpec::region_loss_drill
//! [`DrPosture`]: elc_deploy::dr::DrPosture
//! [`FailureDetector`]: elc_dr::FailureDetector
//! [`RecoveryOrchestrator`]: elc_dr::RecoveryOrchestrator
//! [`ReplicationLink`]: elc_dr::ReplicationLink

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_cloud::billing::Usd;
use elc_deploy::calib::DR_HOT_DATA_FRACTION;
use elc_deploy::dr::{DrPosture, ReplicationSpec};
use elc_dr::{Node, RecoveryOrchestrator};
use elc_elearn::request::{RequestKind, EXAM_FRACTIONS};
use elc_resil::chaos::{ChaosSpec, FaultTimeline};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use super::fleet;
use crate::scenario::Scenario;

/// The drill watches the primary's region.
const PRIMARY_REGION: u32 = 0;

/// Orchestrator control-loop tick.
const TICK: SimDuration = SimDuration::from_secs(10);

/// The exam evening under drill: 17:00–23:00.
const HORIZON: SimDuration = SimDuration::from_hours(6);

/// Evening offset into the exam day.
const EVENING_START: SimDuration = SimDuration::from_hours(17);

/// Warm-up step for replaying the day's writes into the link.
const WARMUP_STEP: SimDuration = SimDuration::from_mins(5);

/// One deployment model under drill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployModel {
    /// On-premise fleet, nightly tape offsite.
    Private,
    /// Public cloud, multi-AZ synchronous replica.
    Public,
    /// Private primary with a warm public standby on async shipping.
    Hybrid,
    /// Consortium cloud, hourly snapshots at a mutual-aid partner.
    Community,
    /// Serverless functions over a managed replicated store.
    Faas,
}

impl DeployModel {
    /// All models, in report order.
    pub const ALL: [DeployModel; 5] = [
        DeployModel::Private,
        DeployModel::Public,
        DeployModel::Hybrid,
        DeployModel::Community,
        DeployModel::Faas,
    ];

    /// The DR posture this model realistically deploys.
    #[must_use]
    pub fn posture(self) -> DrPosture {
        match self {
            DeployModel::Private => DrPosture::nightly_tape(),
            DeployModel::Public => DrPosture::multi_az_sync(),
            DeployModel::Hybrid => DrPosture::warm_standby(),
            DeployModel::Community => DrPosture::mutual_aid(),
            DeployModel::Faas => DrPosture::managed_store(),
        }
    }
}

impl std::fmt::Display for DeployModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeployModel::Private => "private",
            DeployModel::Public => "public",
            DeployModel::Hybrid => "hybrid",
            DeployModel::Community => "community",
            DeployModel::Faas => "faas",
        })
    }
}

/// Measured recovery of one deployment model through the drill.
#[derive(Debug, Clone, PartialEq)]
pub struct DrRow {
    /// The deployment model.
    pub model: DeployModel,
    /// The posture's display name.
    pub posture: &'static str,
    /// Region loss → confirmed by the detector.
    pub detect: SimDuration,
    /// Region loss → somebody serves again. Projected from the posture
    /// when recovery outruns the evening (see [`DrRow::rto_projected`]).
    pub rto: SimDuration,
    /// True when `rto` is the posture's projection rather than an
    /// observed restore inside the window.
    pub rto_projected: bool,
    /// Committed-then-lost data, as the span of writes it covers.
    pub rpo: SimDuration,
    /// Committed quiz submissions unrecoverable after the loss — the RPO
    /// in the unit students care about.
    pub quiz_submits_lost: f64,
    /// Ticks a returned-but-fenced primary was refused service: each one
    /// is a split-brain that did not happen.
    pub fenced_ticks: u64,
    /// Promotions started.
    pub failovers: u32,
    /// Primaries that re-earned the epoch.
    pub failbacks: u32,
    /// The posture's annual carrying cost for this scenario's fleet.
    pub dr_cost_per_year: Usd,
}

/// E19 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The campaign the evening ran under.
    pub chaos: ChaosSpec,
    /// One row per deployment model.
    pub rows: Vec<DrRow>,
}

/// Floors `t` to the latest multiple of `interval` (the snapshot
/// boundary the link last shipped at).
fn floor_to(t: SimTime, interval: SimDuration) -> SimTime {
    let step = interval.as_nanos();
    SimTime::from_nanos((t.as_nanos() / step) * step)
}

/// Runs one model's posture through the drill.
fn simulate(scenario: &Scenario, chaos: &ChaosSpec, model: DeployModel) -> DrRow {
    let workload = scenario.workload();
    let posture = model.posture();

    // The exam day's evening block — as in E16, the hours where a loss
    // hurts most.
    let evening_start = fleet::exam_day(scenario) + EVENING_START;

    let rng_root = SimRng::seed(scenario.seed()).derive("e19");
    let timeline = FaultTimeline::generate(chaos, &rng_root.derive("chaos"), HORIZON);

    // Quiz submissions: the write stream the replication link must not
    // lose.
    let quiz_share = fleet::share(&EXAM_FRACTIONS, RequestKind::QuizSubmit);
    let peak_write_rate = workload.peak_rate() * quiz_share;

    // The hot dataset a media restore must bring back before service:
    // sized as CostInputs::standard sizes storage (≈ 200 GiB per 1000
    // students), cut to the transactional fraction.
    let stored_gib = f64::from(scenario.students()) * 200.0 / 1_000.0 + 50.0;
    let hot_gib = stored_gib * DR_HOT_DATA_FRACTION;
    let catch_up = posture.catch_up(hot_gib);

    // Fleet the posture protects: sized for the exam peak, as in E16.
    // FaaS protects no servers — its posture bills a flat premium.
    let protected = if model == DeployModel::Faas {
        0
    } else {
        fleet::fixed_fleet(workload.peak_rate())
    };

    // Warm the link up from the last nightly boundary: fast-forward to
    // midnight with no writes, then replay the day's write rates so the
    // link carries exactly what it would on a real exam day.
    let mut link = posture.make_link(peak_write_rate);
    let midnight = floor_to(evening_start, SimDuration::from_hours(24));
    link.advance(midnight, 0.0);
    let mut warm = midnight;
    while warm < evening_start {
        let next = (warm + WARMUP_STEP).min(evening_start);
        link.advance(next, workload.rate_at(warm) * quiz_share);
        warm = next;
    }

    let mut o = RecoveryOrchestrator::new(
        posture.make_detector(),
        posture.promotion_time(),
        posture.failback_hold(),
    );

    let mut rpo = elc_dr::RpoRto::default();
    let mut was_down = false;
    let mut failovers_seen = 0u32;
    let mut failbacks_seen = 0u32;
    let mut t_fail: Option<SimTime> = None;
    let mut detect_at: Option<SimTime> = None;
    let mut restored_at: Option<SimTime> = None;

    let mut now = SimTime::ZERO;
    while now < SimTime::ZERO + HORIZON {
        let cal_now = evening_start + (now - SimTime::ZERO);
        let write_rate = workload.rate_at(cal_now) * quiz_share;
        let down = timeline.region_lost_at(PRIMARY_REGION, now) || timeline.disaster_by(now);

        if down && !was_down && o.may_serve(Node::Primary) {
            // The serving head just went dark — the RTO clock starts
            // here, at the physical loss, not at its detection.
            t_fail.get_or_insert(now);
        } else if !down && o.may_serve(Node::Primary) {
            // While down nothing was written; a blip the detector
            // forgave resumes shipping with an empty gap.
            link.advance(cal_now, if was_down { 0.0 } else { write_rate });
        }
        was_down = down;

        o.tick(now, !down, catch_up);
        assert!(
            !(o.may_serve(Node::Primary) && o.may_serve(Node::Standby)),
            "fencing must forbid double-serving at {now}"
        );

        if o.failovers() > failovers_seen {
            // Promotion is the point of no return: whatever the link had
            // not shipped when the primary died is now unrecoverable.
            // This — not the downtime demand — is the RPO.
            failovers_seen = o.failovers();
            let safe_until = link.advanced_to();
            let lost = link.fail_over();
            let window = match posture.replication() {
                ReplicationSpec::Sync => SimDuration::ZERO,
                // The lost writes were committed no earlier than the
                // link's first instant.
                ReplicationSpec::AsyncAtPeakFraction(_) => SimDuration::from_secs_f64(
                    (lost / write_rate.max(1.0))
                        .min(safe_until.saturating_since(SimTime::ZERO).as_secs_f64()),
                ),
                ReplicationSpec::Snapshot(interval) => {
                    safe_until.saturating_since(floor_to(safe_until, interval))
                }
            };
            rpo.record_loss(lost, window);
            detect_at.get_or_insert(now);
        }
        if restored_at.is_none() && o.may_serve(Node::Standby) {
            restored_at = Some(now);
            if let Some(fail) = t_fail {
                rpo.record_restored(now.saturating_since(fail));
            }
        }
        if t_fail.is_some() && o.service_down() {
            rpo.add_downtime(TICK);
        }
        if o.failbacks() > failbacks_seen {
            // The primary re-earned the epoch: replication restarts from
            // a fresh full sync of the new head's state.
            failbacks_seen = o.failbacks();
            link = posture.make_link(peak_write_rate);
            link.advance(cal_now, 0.0);
        }

        now += TICK;
    }

    let detect = match (t_fail, detect_at) {
        (Some(fail), Some(at)) => at.saturating_since(fail),
        _ => SimDuration::ZERO,
    };
    // An arm that outruns the evening still owes an RTO number: the
    // posture's own detect + promote + restore sum.
    let (rto, rto_projected) = match rpo.rto() {
        Some(observed) => (observed, false),
        None if t_fail.is_some() => (
            posture.detection_latency() + posture.promotion_time() + catch_up,
            true,
        ),
        None => (SimDuration::ZERO, false),
    };

    DrRow {
        model,
        posture: posture.name(),
        detect,
        rto,
        rto_projected,
        rpo: rpo.data_lost(),
        quiz_submits_lost: rpo.writes_lost(),
        fenced_ticks: o.fenced_ticks(),
        failovers: o.failovers(),
        failbacks: o.failbacks(),
        dr_cost_per_year: posture.annual_cost(protected),
    }
}

/// Runs all five deployment models' postures through the scenario's
/// chaos campaign (default: [`ChaosSpec::region_loss_drill`]).
///
/// The five arms draw from independent RNG lineages, so with
/// `scenario.shards() > 1` they run as parallel shard jobs
/// ([`elc_simcore::shard::run_jobs`]) — results are collected in model
/// order and the output is byte-identical at any shard count.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let chaos = scenario
        .chaos()
        .cloned()
        .unwrap_or_else(ChaosSpec::region_loss_drill);
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
    pub fn row(&self, model: DeployModel) -> &DrRow {
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
            "detect (s)",
            "rto (min)",
            "rpo (data-min)",
            "quiz submits lost",
            "fenced ticks",
            "failovers",
            "failbacks",
            "dr cost ($/yr)",
        ]);
        for r in &self.rows {
            t.row(
                r.model.to_string(),
                vec![
                    Cell::num(r.detect.as_secs_f64()),
                    Cell::num(r.rto.as_secs_f64() / 60.0),
                    Cell::num(r.rpo.as_secs_f64() / 60.0),
                    Cell::int(r.quiz_submits_lost.round() as i128),
                    Cell::int(i128::from(r.fenced_ticks)),
                    Cell::int(i128::from(r.failovers)),
                    Cell::int(i128::from(r.failbacks)),
                    Cell::num(r.dr_cost_per_year.amount()),
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

    /// Renders the E19 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E19",
            "Disaster recovery: region-loss drill, RTO / RPO / cost by model",
            self.metric_table().to_table(),
        );
        s.note(format!("chaos campaign: {}", self.chaos));
        if let Some(projected) = self.rows.iter().find(|r| r.rto_projected) {
            s.note(format!(
                "{}: restore outruns the evening — rto is the posture's projected detect + promote + restore sum",
                projected.model
            ));
        }
        s.note("rpo counts committed-then-lost writes only; demand arriving while nobody serves is unserved, not lost");
        s.note("paper §IV.B: managed redundancy is the public model's case, physical-damage risk the private model's charge — here both are priced in minutes and dollars");
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
    fn nightly_floor_is_the_last_midnight() {
        let nightly = SimDuration::from_hours(24);
        let evening = SimTime::ZERO + SimDuration::from_days(10) + SimDuration::from_hours(19);
        assert_eq!(
            floor_to(evening, nightly),
            SimTime::ZERO + SimDuration::from_days(10)
        );
        // Exactly on the boundary the floor is that instant.
        let midnight = SimTime::ZERO + SimDuration::from_days(3);
        assert_eq!(floor_to(midnight, nightly), midnight);
    }

    #[test]
    fn sync_replicas_lose_nothing() {
        let out = output();
        for model in [DeployModel::Public, DeployModel::Faas] {
            let r = out.row(model);
            assert_eq!(r.quiz_submits_lost, 0.0, "{model}: sync RPO must be 0");
            assert_eq!(r.rpo, SimDuration::ZERO, "{model}");
            assert_eq!(r.failovers, 1, "{model}: the drill must fail over");
        }
    }

    #[test]
    fn nightly_tape_loses_the_day_and_restores_slowest() {
        let out = output();
        let tape = out.row(DeployModel::Private);
        assert!(
            tape.quiz_submits_lost > 1_000.0,
            "a day of exam writes must be on the floor, got {}",
            tape.quiz_submits_lost
        );
        // Committed-then-lost spans back to the last nightly boundary.
        assert!(tape.rpo > SimDuration::from_hours(12), "rpo {}", tape.rpo);
        for other in [DeployModel::Public, DeployModel::Hybrid, DeployModel::Faas] {
            assert!(
                tape.rto > out.row(other).rto,
                "tape must restore slower than {other}"
            );
        }
    }

    #[test]
    fn rpo_orders_by_replication_freshness() {
        let out = output();
        let tape = out.row(DeployModel::Private);
        let aid = out.row(DeployModel::Community);
        let warm = out.row(DeployModel::Hybrid);
        // Hourly snapshots beat nightly tape; async shipping beats both.
        assert!(aid.quiz_submits_lost > 0.0, "hourly snapshots still lose");
        assert!(aid.quiz_submits_lost < tape.quiz_submits_lost);
        assert!(warm.quiz_submits_lost < aid.quiz_submits_lost);
        assert!(aid.rpo <= SimDuration::from_hours(1));
    }

    #[test]
    fn returning_primary_is_fenced_until_failback() {
        let out = output();
        // The region returns 45 minutes in; every arm still mid-recovery
        // must refuse it.
        let public = out.row(DeployModel::Public);
        assert!(
            public.fenced_ticks > 0,
            "the returned primary must hit the fence"
        );
        assert_eq!(
            public.failbacks, 1,
            "the fast posture must also hand the epoch home"
        );
    }

    #[test]
    fn flap_campaign_never_double_serves() {
        // Two short losses in quick succession: the second hits while the
        // first recovery is still in flight. The inline invariant assert
        // in `simulate` proves no tick double-serves; the counters prove
        // the flap actually exercised the fence.
        let spec: ChaosSpec = "regionloss@0.3:region=0,mins=10;regionloss@0.34:region=0,mins=30"
            .parse()
            .unwrap();
        let out = run(&Scenario::university(41).with_chaos(spec));
        let public = out.row(DeployModel::Public);
        assert_eq!(public.failovers, 1, "mid-recovery flap must not re-promote");
        assert!(public.fenced_ticks > 0);
    }

    #[test]
    fn chaos_off_is_a_quiet_evening() {
        let out = run(&Scenario::university(41).with_chaos(ChaosSpec::off()));
        for r in &out.rows {
            assert_eq!(r.quiz_submits_lost, 0.0, "{}", r.model);
            assert_eq!(r.failovers, 0, "{}", r.model);
            assert_eq!(r.rto, SimDuration::ZERO, "{}", r.model);
            assert!(
                r.dr_cost_per_year > Usd::ZERO,
                "{}: carrying cost remains",
                r.model
            );
        }
    }

    #[test]
    fn detection_precedes_restore_everywhere() {
        for r in &output().rows {
            assert!(r.detect > SimDuration::ZERO, "{}", r.model);
            assert!(r.rto > r.detect, "{}", r.model);
            assert_eq!(r.failovers, 1, "{}", r.model);
        }
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E19");
        assert_eq!(s.table().len(), DeployModel::ALL.len());
    }

    #[test]
    fn deterministic() {
        let a = run(&Scenario::university(8));
        let b = run(&Scenario::university(8));
        assert_eq!(a, b);
    }
}
