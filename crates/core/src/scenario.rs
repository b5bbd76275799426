//! Evaluation scenarios.
//!
//! A [`Scenario`] bundles everything an experiment needs: the institution's
//! size, its semester calendar, the learners' connectivity, a seed and a
//! planning horizon. Presets cover the populations the paper's introduction
//! motivates, from a small college to a national platform reaching rural
//! learners.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use elc_elearn::calendar::AcademicCalendar;
use elc_elearn::source::WorkloadSource;
use elc_elearn::workload::WorkloadModel;
use elc_fluid::Fidelity;
use elc_net::link::LinkProfile;
use elc_net::outage::OutageModel;
use elc_resil::chaos::ChaosSpec;
use elc_simcore::time::{SimDuration, SimTime};
use elc_wltrace::{TraceError, TraceHandout, TraceRecorder, WorkloadTrace};

/// Why a [`ScenarioBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The population was zero.
    NoStudents,
    /// The planning horizon was not a positive, finite number of years.
    BadHorizon(f64),
    /// The shard count was zero.
    NoShards,
    /// The replay trace was empty or failed validation, for this reason.
    BadTrace(TraceError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoStudents => write!(f, "scenario needs at least one student"),
            ScenarioError::BadHorizon(y) => {
                write!(f, "scenario horizon must be positive and finite, got {y}")
            }
            ScenarioError::NoShards => write!(f, "scenario needs at least one shard"),
            ScenarioError::BadTrace(e) => {
                write!(
                    f,
                    "scenario workload trace is empty or failed validation: {e}"
                )
            }
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::BadTrace(e) => Some(e),
            _ => None,
        }
    }
}

/// Where a scenario's demand comes from.
///
/// The default is [`Generated`](WorkloadSpec::Generated): the synthetic
/// [`WorkloadModel`] calibrated to the scenario's population and calendar.
/// [`Trace`](WorkloadSpec::Trace) replays a recorded [`WorkloadTrace`]
/// instead, handing each requested source its own recorded stream through
/// a shared [`TraceHandout`].
#[derive(Debug)]
enum WorkloadSpec {
    /// Synthesise demand from the standard model (population + calendar).
    Generated,
    /// Replay a recorded trace; the handout assigns streams to sources.
    Trace(TraceHandout),
}

impl Clone for WorkloadSpec {
    fn clone(&self) -> Self {
        match self {
            WorkloadSpec::Generated => WorkloadSpec::Generated,
            // A cloned scenario starts its own replay: stream claims are
            // per scenario instance, so parallel replication workers
            // (which clone, then reseed) never race on a shared handout.
            WorkloadSpec::Trace(handout) => WorkloadSpec::Trace(
                TraceHandout::new(Arc::clone(handout.trace()))
                    .expect("an existing handout's trace has streams"),
            ),
        }
    }
}

impl WorkloadSpec {
    /// Structural equality: handout claim state and recorded content both
    /// compare by the trace's value, never by allocation identity.
    fn matches(&self, other: &WorkloadSpec) -> bool {
        match (self, other) {
            (WorkloadSpec::Generated, WorkloadSpec::Generated) => true,
            (WorkloadSpec::Trace(a), WorkloadSpec::Trace(b)) => {
                a.trace().as_ref() == b.trace().as_ref()
            }
            _ => false,
        }
    }
}

/// Builds a [`Scenario`] field by field, validating on [`build`].
///
/// Only the name and population are mandatory; everything else defaults
/// to the standard preset configuration (seed 0, three academic years,
/// metro broadband with rare short outages, standard semester calendar).
///
/// ```
/// use elc_core::scenario::Scenario;
/// use elc_net::link::LinkProfile;
///
/// let s = Scenario::builder("evening-school", 800)
///     .seed(42)
///     .years(1.5)
///     .link(LinkProfile::RuralInternet)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(s.students(), 800);
/// assert_eq!(s.years(), 1.5);
/// ```
///
/// [`build`]: ScenarioBuilder::build
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    students: u32,
    seed: u64,
    years: f64,
    link: LinkProfile,
    outages: OutageModel,
    calendar: AcademicCalendar,
    chaos: Option<ChaosSpec>,
    shards: u32,
    fidelity: Fidelity,
}

impl ScenarioBuilder {
    /// The outage process shared by the wired presets.
    fn standard_outages() -> OutageModel {
        OutageModel::new(SimDuration::from_hours(400), SimDuration::from_mins(8))
    }

    fn new(name: impl Into<String>, students: u32) -> Self {
        ScenarioBuilder {
            name: name.into(),
            students,
            seed: 0,
            years: 3.0,
            link: LinkProfile::MetroInternet,
            outages: Self::standard_outages(),
            calendar: AcademicCalendar::standard_semester(SimTime::ZERO),
            chaos: None,
            shards: 1,
            fidelity: Fidelity::Event,
        }
    }

    /// Sets the root seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the planning horizon in years (default 3.0).
    #[must_use]
    pub fn years(mut self, years: f64) -> Self {
        self.years = years;
        self
    }

    /// Sets the learner access-link profile (default metro broadband).
    #[must_use]
    pub fn link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Sets the connectivity outage process (default: rare, short).
    #[must_use]
    pub fn outages(mut self, outages: OutageModel) -> Self {
        self.outages = outages;
        self
    }

    /// Sets the academic calendar (default: standard semester from t=0).
    #[must_use]
    pub fn calendar(mut self, calendar: AcademicCalendar) -> Self {
        self.calendar = calendar;
        self
    }

    /// Sets the chaos-injection campaign for fault experiments (default:
    /// none — experiments that inject faults fall back to their own
    /// default campaign; see E16).
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the shard count for intra-replication parallelism (default
    /// 1). Output is byte-identical at any shard count — shards only
    /// change how a run is scheduled onto cores — except in E18, which
    /// simulates one region per shard.
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the simulation fidelity (default [`Fidelity::Event`], the
    /// exact per-request path). `Fluid` integrates rate flows on coarse
    /// ticks; `Auto` switches per component. Experiments that support
    /// fluid mode read this; the rest ignore it (see EXPERIMENTS.md).
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the population is zero, the horizon
    /// is not a positive, finite number of years, or the shard count is
    /// zero.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        if self.students == 0 {
            return Err(ScenarioError::NoStudents);
        }
        if !(self.years.is_finite() && self.years > 0.0) {
            return Err(ScenarioError::BadHorizon(self.years));
        }
        if self.shards == 0 {
            return Err(ScenarioError::NoShards);
        }
        Ok(Scenario {
            name: self.name,
            students: self.students,
            seed: self.seed,
            years: self.years,
            link: self.link,
            outages: self.outages,
            calendar: self.calendar,
            chaos: self.chaos,
            shards: self.shards,
            fidelity: self.fidelity,
            workload: WorkloadSpec::Generated,
            recorder: None,
        })
    }
}

/// The preset names [`Scenario::preset`] resolves, in listing order: the
/// four report scenarios, smallest first, then E18's 5M-student scale
/// preset.
pub const PRESETS: [&str; 5] = [
    "small-college",
    "rural-learners",
    "university",
    "national-platform",
    "national-5m",
];

/// The seed every front end and bench uses unless told otherwise: the
/// paper's year.
pub const DEFAULT_SEED: u64 = 2013;

/// The [`PRESETS`] the paper-table report covers, smallest first.
pub const REPORT_PRESETS: &[&str] = PRESETS.split_at(4).0;

/// The [`REPORT_PRESETS`] scenarios under `seed`.
#[must_use]
pub fn report_presets(seed: u64) -> Vec<Scenario> {
    REPORT_PRESETS
        .iter()
        .map(|name| Scenario::preset(name, seed).expect("report presets resolve"))
        .collect()
}

/// A named evaluation context.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    students: u32,
    seed: u64,
    years: f64,
    link: LinkProfile,
    outages: OutageModel,
    calendar: AcademicCalendar,
    chaos: Option<ChaosSpec>,
    shards: u32,
    fidelity: Fidelity,
    workload: WorkloadSpec,
    recorder: Option<TraceRecorder>,
}

/// Equality is structural configuration, not runtime bookkeeping: replay
/// traces compare by content (never by which handout allocation assigns
/// their streams) and an attached recorder — a pure observation tee — is
/// ignored.
impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.students == other.students
            && self.seed == other.seed
            && self.years == other.years
            && self.link == other.link
            && self.outages == other.outages
            && self.calendar == other.calendar
            && self.chaos == other.chaos
            && self.shards == other.shards
            && self.fidelity == other.fidelity
            && self.workload.matches(&other.workload)
    }
}

impl Scenario {
    /// Starts building a scenario for `students` learners named `name`.
    ///
    /// See [`ScenarioBuilder`] for the optional knobs and defaults.
    #[must_use]
    pub fn builder(name: impl Into<String>, students: u32) -> ScenarioBuilder {
        ScenarioBuilder::new(name, students)
    }

    /// Resolves a preset by its [`PRESETS`] name, under `seed`.
    #[must_use]
    pub fn preset(name: &str, seed: u64) -> Option<Scenario> {
        Some(match name {
            "small-college" => Scenario::small_college(seed),
            "rural-learners" => Scenario::rural_learners(seed),
            "university" => Scenario::university(seed),
            "national-platform" => Scenario::national_platform(seed),
            "national-5m" => Scenario::national_5m(seed),
            _ => return None,
        })
    }

    /// A 2 000-student college on metro broadband.
    #[must_use]
    pub fn small_college(seed: u64) -> Self {
        Scenario::builder("small-college", 2_000)
            .seed(seed)
            .build()
            .expect("preset is valid")
    }

    /// A 25 000-student university on metro broadband.
    #[must_use]
    pub fn university(seed: u64) -> Self {
        Scenario::builder("university", 25_000)
            .seed(seed)
            .build()
            .expect("preset is valid")
    }

    /// A 150 000-learner national platform.
    #[must_use]
    pub fn national_platform(seed: u64) -> Self {
        Scenario::builder("national-platform", 150_000)
            .seed(seed)
            .build()
            .expect("preset is valid")
    }

    /// A 5 000 000-student national exam-day platform spread over four
    /// regions — the MOOC-scale regime. Event-level simulation of a day
    /// at this size needs tens of billions of events; the preset
    /// therefore defaults to [`Fidelity::Auto`], and the event path is
    /// refused by the `elc` front end's event budget.
    #[must_use]
    pub fn national_5m(seed: u64) -> Self {
        Scenario::builder("national-5m", 5_000_000)
            .seed(seed)
            .shards(4)
            .fidelity(Fidelity::Auto)
            .build()
            .expect("preset is valid")
    }

    /// Rural learners (the paper's closing motivation): degraded links,
    /// frequent outages.
    #[must_use]
    pub fn rural_learners(seed: u64) -> Self {
        Scenario::builder("rural-learners", 10_000)
            .seed(seed)
            .link(LinkProfile::RuralInternet)
            .outages(OutageModel::new(
                SimDuration::from_hours(30),
                SimDuration::from_mins(12),
            ))
            .build()
            .expect("preset is valid")
    }

    /// The scenario name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enrolled students.
    #[must_use]
    pub fn students(&self) -> u32 {
        self.students
    }

    /// Root seed; experiments derive their own streams from it.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Planning horizon in years.
    #[must_use]
    pub fn years(&self) -> f64 {
        self.years
    }

    /// Learner access-link profile.
    #[must_use]
    pub fn link(&self) -> LinkProfile {
        self.link
    }

    /// Learner connectivity outage process.
    #[must_use]
    pub fn outages(&self) -> OutageModel {
        self.outages
    }

    /// The semester calendar.
    #[must_use]
    pub fn calendar(&self) -> AcademicCalendar {
        self.calendar
    }

    /// The chaos campaign, if one was configured (`None` lets fault
    /// experiments pick their default).
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosSpec> {
        self.chaos.as_ref()
    }

    /// A copy with the given chaos campaign.
    #[must_use]
    pub fn with_chaos(&self, chaos: ChaosSpec) -> Scenario {
        let mut s = self.clone();
        s.chaos = Some(chaos);
        s
    }

    /// Shard count for intra-replication parallelism (default 1).
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// A copy with the given shard count. Sharding never changes what a
    /// run computes — only how it is spread over cores — so reports stay
    /// byte-identical at any value. The exception is E18, whose shard
    /// count is its region count: more shards print more region rows.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    #[must_use]
    pub fn with_shards(&self, shards: u32) -> Scenario {
        assert!(shards > 0, "need at least one shard");
        let mut s = self.clone();
        s.shards = shards;
        s
    }

    /// The simulation fidelity (default [`Fidelity::Event`]).
    #[must_use]
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// A copy with the given simulation fidelity. In the default
    /// `Event` fidelity every output is byte-identical to the pre-fluid
    /// simulator; `Fluid`/`Auto` trade per-request exactness for ~100×
    /// cheaper ticks in the experiments that support them.
    #[must_use]
    pub fn with_fidelity(&self, fidelity: Fidelity) -> Scenario {
        let mut s = self.clone();
        s.fidelity = fidelity;
        s
    }

    /// The institutional demand source.
    ///
    /// Generated scenarios return the standard [`WorkloadModel`]; a
    /// scenario configured with [`Scenario::with_workload_trace`] returns a
    /// [`TraceReplayer`](elc_wltrace::TraceReplayer) bound lazily to the
    /// next recorded stream. When a recorder is
    /// [attached](Scenario::attach_recorder), the source is wrapped in a
    /// recording tee that observes every query without perturbing it.
    #[must_use]
    pub fn workload(&self) -> Box<dyn WorkloadSource> {
        let base: Box<dyn WorkloadSource> = match &self.workload {
            WorkloadSpec::Generated => Box::new(
                WorkloadModel::builder(self.students, self.calendar)
                    .build()
                    .expect("population validated at scenario build"),
            ),
            WorkloadSpec::Trace(handout) => Box::new(handout.source()),
        };
        match &self.recorder {
            Some(recorder) => recorder.wrap(base),
            None => base,
        }
    }

    /// The concrete analytic workload model, for closed-form consumers
    /// (capacity planning, cost models) that need more than the
    /// [`WorkloadSource`] sampling surface.
    ///
    /// Trace-driven scenarios fall back to the standard model calibrated
    /// to the trace's recorded population, so cost columns stay
    /// comparable across generated and replayed runs of the same cohort.
    #[must_use]
    pub fn workload_model(&self) -> WorkloadModel {
        WorkloadModel::builder(self.students, self.calendar)
            .build()
            .expect("population validated at scenario build")
    }

    /// A copy that replays `trace` instead of synthesising demand. The
    /// trace's recorded population replaces the scenario's student count
    /// so capacity and cost planning match the replayed demand.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BadTrace`] when the trace is empty or
    /// fails validation.
    pub fn with_workload_trace(
        &self,
        trace: Arc<WorkloadTrace>,
    ) -> Result<Scenario, ScenarioError> {
        trace.validate().map_err(ScenarioError::BadTrace)?;
        let mut s = self.clone();
        s.students = trace.students.max(1);
        s.workload =
            WorkloadSpec::Trace(TraceHandout::new(trace).map_err(ScenarioError::BadTrace)?);
        Ok(s)
    }

    /// Tees every workload source this scenario hands out into
    /// `recorder`, so a generator-driven run can be captured with
    /// [`TraceRecorder::finish`] afterwards. Recording is a pure
    /// observation: the wrapped sources consume RNG exactly as the
    /// unwrapped ones would, so the run itself is byte-identical.
    pub fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// A copy with a different root seed (for replicated runs).
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Scenario {
        let mut s = self.clone();
        s.reseed(seed);
        s
    }

    /// Changes the root seed in place.
    ///
    /// The clone-free counterpart of [`Scenario::with_seed`] for
    /// replication loops that keep one scenario and re-aim it at each
    /// derived seed. For trace-driven scenarios this also reopens the
    /// stream handout, so each replication replays the full trace from
    /// its first stream again.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        if let WorkloadSpec::Trace(handout) = &self.workload {
            handout.reset();
        }
    }

    /// A copy with a different population (for sweeps).
    #[must_use]
    pub fn with_students(&self, students: u32) -> Scenario {
        let mut s = self.clone();
        assert!(students > 0, "need students");
        s.students = students;
        s.name = format!("{}@{}", self.name, students);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let small = Scenario::small_college(1);
        let uni = Scenario::university(1);
        let national = Scenario::national_platform(1);
        assert!(small.students() < uni.students());
        assert!(uni.students() < national.students());
    }

    #[test]
    fn rural_is_harsher() {
        let rural = Scenario::rural_learners(1);
        let uni = Scenario::university(1);
        assert_eq!(rural.link(), LinkProfile::RuralInternet);
        assert!(rural.outages().availability() < uni.outages().availability());
    }

    #[test]
    fn workload_matches_population() {
        let s = Scenario::university(1);
        assert_eq!(s.workload().students(), 25_000);
    }

    #[test]
    fn chaos_defaults_off_and_threads_through() {
        let plain = Scenario::university(1);
        assert!(plain.chaos().is_none(), "presets carry no campaign");
        let spec = ChaosSpec::exam_day_crisis();
        let chaotic = plain.with_chaos(spec.clone());
        assert_eq!(chaotic.chaos(), Some(&spec));
        // Everything else is untouched — and equality still holds for
        // same-built scenarios (golden stability).
        assert_eq!(chaotic.with_seed(1).students(), plain.students());
        let built = Scenario::builder("c", 10)
            .chaos(spec.clone())
            .build()
            .unwrap();
        assert_eq!(built.chaos(), Some(&spec));
        assert_eq!(plain, Scenario::university(1));
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let s = Scenario::university(1).with_seed(99);
        assert_eq!(s.seed(), 99);
        assert_eq!(s.name(), "university");
        assert_eq!(s.students(), 25_000);
    }

    #[test]
    fn with_students_renames() {
        let s = Scenario::university(1).with_students(5_000);
        assert_eq!(s.students(), 5_000);
        assert!(s.name().contains("5000"));
        assert_eq!(s.seed(), 1);
    }

    #[test]
    #[should_panic(expected = "need students")]
    fn zero_students_rejected() {
        let _ = Scenario::university(1).with_students(0);
    }

    #[test]
    fn fidelity_defaults_to_event_and_threads_through() {
        let plain = Scenario::university(1);
        assert_eq!(plain.fidelity(), Fidelity::Event);
        let fluid = plain.with_fidelity(Fidelity::Fluid);
        assert_eq!(fluid.fidelity(), Fidelity::Fluid);
        assert_eq!(fluid.students(), plain.students());
        assert_ne!(fluid, plain, "fidelity is part of the configuration");
        let built = Scenario::builder("f", 10)
            .fidelity(Fidelity::Auto)
            .build()
            .unwrap();
        assert_eq!(built.fidelity(), Fidelity::Auto);
    }

    #[test]
    fn national_5m_is_auto_fidelity_multi_region() {
        let s = Scenario::national_5m(42);
        assert_eq!(s.students(), 5_000_000);
        assert_eq!(s.shards(), 4);
        assert_eq!(s.fidelity(), Fidelity::Auto);
        assert_eq!(s.name(), "national-5m");
    }

    #[test]
    fn shards_default_to_one_and_thread_through() {
        let plain = Scenario::university(1);
        assert_eq!(plain.shards(), 1);
        let sharded = plain.with_shards(4);
        assert_eq!(sharded.shards(), 4);
        assert_eq!(sharded.students(), plain.students());
        let built = Scenario::builder("s", 10).shards(2).build().unwrap();
        assert_eq!(built.shards(), 2);
        let err = Scenario::builder("s", 10).shards(0).build().unwrap_err();
        assert_eq!(err, ScenarioError::NoShards);
        assert!(err.to_string().contains("shard"));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Scenario::university(1).with_shards(0);
    }

    #[test]
    fn accessors() {
        let s = Scenario::small_college(7);
        assert_eq!(s.seed(), 7);
        assert_eq!(s.years(), 3.0);
        assert_eq!(s.name(), "small-college");
        assert_eq!(s.calendar().term_start(), SimTime::ZERO);
    }

    #[test]
    fn builder_defaults_match_the_wired_presets() {
        let built = Scenario::builder("small-college", 2_000)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(built, Scenario::small_college(7));
    }

    #[test]
    fn builder_rejects_zero_students() {
        let err = Scenario::builder("ghost-town", 0).build().unwrap_err();
        assert_eq!(err, ScenarioError::NoStudents);
        assert!(err.to_string().contains("student"));
    }

    #[test]
    fn builder_rejects_bad_horizons() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Scenario::builder("x", 10).years(bad).build().unwrap_err();
            assert!(matches!(err, ScenarioError::BadHorizon(_)), "{bad}");
        }
    }

    #[test]
    fn builder_sets_every_knob() {
        let outages = OutageModel::new(SimDuration::from_hours(1), SimDuration::from_mins(30));
        let s = Scenario::builder("harsh", 123)
            .seed(9)
            .years(0.5)
            .link(LinkProfile::RuralInternet)
            .outages(outages)
            .calendar(AcademicCalendar::standard_semester(SimTime::from_secs(60)))
            .build()
            .unwrap();
        assert_eq!(s.name(), "harsh");
        assert_eq!(s.students(), 123);
        assert_eq!(s.seed(), 9);
        assert_eq!(s.years(), 0.5);
        assert_eq!(s.link(), LinkProfile::RuralInternet);
        assert_eq!(s.outages(), outages);
        assert_eq!(s.calendar().term_start(), SimTime::from_secs(60));
    }

    fn tiny_trace() -> Arc<WorkloadTrace> {
        let mut trace = WorkloadTrace::empty(4_000, 120.0);
        let mut stream = elc_wltrace::Stream::default();
        for i in 0..4u64 {
            stream.rates.push(elc_wltrace::RateSample {
                t_ns: i * 60_000_000_000,
                rate_bits: (40.0 + i as f64).to_bits(),
            });
            stream.slots.push(elc_wltrace::SlotSample {
                t_ns: i * 60_000_000_000,
                slot_ns: 60_000_000_000,
                count: 10 + i,
            });
        }
        trace.streams.push(stream);
        trace.into_shared()
    }

    #[test]
    fn trace_scenarios_adopt_the_recorded_population() {
        let s = Scenario::university(1)
            .with_workload_trace(tiny_trace())
            .unwrap();
        assert_eq!(s.students(), 4_000, "population follows the trace header");
        assert_eq!(s.workload().students(), 4_000);
        assert!(
            (s.workload().peak_rate() - 120.0).abs() < 1e-12,
            "replayed peak comes from the header"
        );
        // Cost consumers still get an analytic model, sized to the trace.
        assert_eq!(s.workload_model().students(), 4_000);
    }

    #[test]
    fn trace_scenarios_replay_recorded_counts() {
        use elc_simcore::rng::SimRng;
        let s = Scenario::university(1)
            .with_workload_trace(tiny_trace())
            .unwrap();
        let source = s.workload();
        let mut rng = SimRng::seed(9);
        let minute = SimDuration::from_mins(1);
        for i in 0..4u64 {
            let t = SimTime::ZERO + SimDuration::from_mins(i);
            assert_eq!(source.sample_arrivals(&mut rng, t, minute), 10 + i);
        }
    }

    #[test]
    fn empty_traces_are_rejected() {
        let empty = WorkloadTrace::empty(100, 1.0).into_shared();
        let err = Scenario::university(1)
            .with_workload_trace(empty)
            .unwrap_err();
        assert_eq!(err, ScenarioError::BadTrace(TraceError::Empty));
        assert_eq!(
            err.to_string(),
            "scenario workload trace is empty or failed validation: trace has no streams"
        );
        let source = err.source().expect("the trace error is kept");
        assert_eq!(source.to_string(), TraceError::Empty.to_string());
    }

    #[test]
    fn equality_ignores_handout_claims_and_recorders() {
        let a = Scenario::university(1)
            .with_workload_trace(tiny_trace())
            .unwrap();
        let b = Scenario::university(1)
            .with_workload_trace(tiny_trace())
            .unwrap();
        assert_eq!(a, b, "distinct allocations of the same trace compare equal");
        // Claiming a stream on one side must not break equality.
        let _source = a.workload();
        assert_eq!(a, b);
        let mut recorded = Scenario::university(1);
        recorded.attach_recorder(TraceRecorder::new());
        assert_eq!(recorded, Scenario::university(1));
        assert_ne!(a, Scenario::university(1), "trace vs generated differ");
    }

    #[test]
    fn reseed_reopens_the_stream_handout() {
        use elc_simcore::rng::SimRng;
        let mut s = Scenario::university(1)
            .with_workload_trace(tiny_trace())
            .unwrap();
        let minute = SimDuration::from_mins(1);
        let mut rng = SimRng::seed(9);
        let first = s
            .workload()
            .sample_arrivals(&mut rng, SimTime::ZERO, minute);
        s.reseed(2);
        let again = s
            .workload()
            .sample_arrivals(&mut rng, SimTime::ZERO, minute);
        assert_eq!(first, again, "replication replays the trace from its start");
        assert_eq!(s.seed(), 2);
    }

    #[test]
    fn attached_recorder_captures_generated_runs() {
        use elc_simcore::rng::SimRng;
        let mut s = Scenario::small_college(3);
        let recorder = TraceRecorder::new();
        s.attach_recorder(recorder.clone());
        let source = s.workload();
        let mut rng = SimRng::seed(3);
        let mut plain_rng = SimRng::seed(3);
        let plain = Scenario::small_college(3).workload();
        let minute = SimDuration::from_mins(1);
        for i in 0..8u64 {
            let t = SimTime::ZERO + SimDuration::from_mins(i);
            assert_eq!(
                source.sample_arrivals(&mut rng, t, minute),
                plain.sample_arrivals(&mut plain_rng, t, minute),
                "recording must not perturb the run"
            );
        }
        let trace = recorder.finish().expect("eight slots were recorded");
        assert_eq!(trace.students, 2_000);
        assert_eq!(trace.streams[0].slots.len(), 8);
    }
}
