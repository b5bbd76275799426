//! Institution-level workload generation.
//!
//! Combines the calendar phase, a diurnal curve and the student population
//! into an offered request rate, and samples Poisson arrivals per time slot.
//! This is the demand signal the deployment models must serve in E12
//! (elasticity) and the usage input for E1 (cost).

use std::fmt;

use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use crate::calendar::{AcademicCalendar, Phase};
use crate::request::RequestMix;
use crate::source::WorkloadSource;

/// Hour-of-day activity multipliers (0 = midnight). Peak at 20:00 — evening
/// study — with a secondary mid-day plateau; near-quiet at 04:00.
const DIURNAL: [f64; 24] = [
    0.25, 0.15, 0.08, 0.05, 0.05, 0.08, 0.15, 0.35, 0.60, 0.80, 0.90, 0.95, 0.90, 0.85, 0.85, 0.90,
    0.95, 1.00, 1.10, 1.25, 1.30, 1.10, 0.75, 0.45,
];

/// Workload parameters for one institution.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    students: u32,
    /// `students / 1000 × peak_rps_per_kstudent`: the first two factors of
    /// every rate, multiplied once.
    base_rate: f64,
    calendar: AcademicCalendar,
    weekend_factor: f64,
    phase_factors: PhaseFactors,
}

/// Traffic multipliers per calendar phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFactors {
    /// Multiplier during breaks.
    pub break_f: f64,
    /// Multiplier during registration (burst of short sessions).
    pub registration: f64,
    /// Multiplier during teaching weeks (baseline 1.0).
    pub teaching: f64,
    /// Multiplier during exams — the paper-motivating surge.
    pub exams: f64,
}

impl Default for PhaseFactors {
    fn default() -> Self {
        PhaseFactors {
            break_f: 0.08,
            registration: 2.5,
            teaching: 1.0,
            exams: 4.0,
        }
    }
}

/// Why a [`WorkloadModelBuilder`] refused to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadError {
    /// `students` was zero.
    NoStudents,
    /// `peak_rps_per_kstudent` was not a positive finite number.
    BadRate(f64),
    /// A multiplier (weekend or phase factor) was negative or non-finite.
    BadFactor {
        /// Which knob was out of range.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NoStudents => write!(f, "need at least one student"),
            WorkloadError::BadRate(r) => {
                write!(
                    f,
                    "peak rps per kstudent must be positive and finite, got {r}"
                )
            }
            WorkloadError::BadFactor { name, value } => {
                write!(
                    f,
                    "{name} factor must be non-negative and finite, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Validating builder for [`WorkloadModel`], following the
/// `Scenario::builder` convention: knobs default to the calibrated
/// standard, `build` checks every invariant and returns a
/// [`WorkloadError`] instead of panicking.
///
/// # Examples
///
/// ```
/// use elc_elearn::calendar::AcademicCalendar;
/// use elc_elearn::workload::WorkloadModel;
/// use elc_simcore::SimTime;
///
/// let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
/// let load = WorkloadModel::builder(5_000, cal)
///     .peak_rps_per_kstudent(35.0)
///     .build()
///     .unwrap();
/// assert_eq!(load.students(), 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadModelBuilder {
    students: u32,
    peak_rps_per_kstudent: f64,
    calendar: AcademicCalendar,
    weekend_factor: f64,
    phase_factors: PhaseFactors,
}

impl WorkloadModelBuilder {
    /// The request rate per 1000 enrolled students at the diurnal peak of
    /// an ordinary teaching day (default 20.0).
    #[must_use]
    pub fn peak_rps_per_kstudent(mut self, rate: f64) -> Self {
        self.peak_rps_per_kstudent = rate;
        self
    }

    /// Weekend activity multiplier (default 0.45).
    #[must_use]
    pub fn weekend_factor(mut self, factor: f64) -> Self {
        self.weekend_factor = factor;
        self
    }

    /// Traffic multipliers per calendar phase.
    #[must_use]
    pub fn phase_factors(mut self, factors: PhaseFactors) -> Self {
        self.phase_factors = factors;
        self
    }

    /// Validates every knob and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when the population is empty, the rate is
    /// not positive and finite, or any multiplier is negative/non-finite.
    pub fn build(self) -> Result<WorkloadModel, WorkloadError> {
        if self.students == 0 {
            return Err(WorkloadError::NoStudents);
        }
        if !self.peak_rps_per_kstudent.is_finite() || self.peak_rps_per_kstudent <= 0.0 {
            return Err(WorkloadError::BadRate(self.peak_rps_per_kstudent));
        }
        let factors = [
            ("weekend", self.weekend_factor),
            ("break", self.phase_factors.break_f),
            ("registration", self.phase_factors.registration),
            ("teaching", self.phase_factors.teaching),
            ("exams", self.phase_factors.exams),
        ];
        for (name, value) in factors {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::BadFactor { name, value });
            }
        }
        Ok(WorkloadModel {
            students: self.students,
            base_rate: self.students as f64 / 1_000.0 * self.peak_rps_per_kstudent,
            calendar: self.calendar,
            weekend_factor: self.weekend_factor,
            phase_factors: self.phase_factors,
        })
    }
}

impl WorkloadModel {
    /// Starts a validating builder with the calibrated defaults (20 rps
    /// per 1000 students, standard weekend and phase factors).
    ///
    /// LMS "requests" here are heavyweight (a 2 MiB video chunk is ~10 s
    /// of playback), so the default peak corresponds to roughly 15–20% of
    /// students active at a teaching-day peak, each taking an action every
    /// 8–10 s — and to an annual content volume in the tens of TiB per
    /// 1000 students, consistent with video-centric course delivery.
    #[must_use]
    pub fn builder(students: u32, calendar: AcademicCalendar) -> WorkloadModelBuilder {
        WorkloadModelBuilder {
            students,
            peak_rps_per_kstudent: 20.0,
            calendar,
            weekend_factor: 0.45,
            phase_factors: PhaseFactors::default(),
        }
    }

    /// Enrolled students.
    #[must_use]
    pub fn students(&self) -> u32 {
        self.students
    }

    /// The calendar driving phase multipliers.
    #[must_use]
    pub fn calendar(&self) -> &AcademicCalendar {
        &self.calendar
    }

    /// Offered request rate at instant `t`, in requests/second.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let moment = self.calendar.moment(t);
        let phase_f = match moment.phase {
            Phase::Break => self.phase_factors.break_f,
            Phase::Registration => self.phase_factors.registration,
            Phase::Teaching => self.phase_factors.teaching,
            Phase::Exams => self.phase_factors.exams,
        };
        let diurnal = DIURNAL[moment.hour as usize];
        let weekend = if moment.weekend {
            self.weekend_factor
        } else {
            1.0
        };
        self.base_rate * phase_f * diurnal * weekend
    }

    /// The request mix appropriate for the phase at `t`.
    #[must_use]
    pub fn mix_at(&self, t: SimTime) -> RequestMix {
        match self.calendar.phase_at(t) {
            Phase::Exams => RequestMix::exam(),
            _ => RequestMix::teaching(),
        }
    }

    /// Peak offered rate across a whole term (analytic: peak diurnal ×
    /// exams factor × population).
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        let peak_diurnal = DIURNAL.iter().cloned().fold(0.0, f64::max);
        self.base_rate * self.phase_factors.exams * peak_diurnal
    }

    /// Mean offered rate over `[from, to)`, sampled at `step` resolution.
    ///
    /// Duration-weighted: when `(to - from)` is not a multiple of `step`,
    /// the trailing partial step contributes only the span it actually
    /// covers, not a full step's weight.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the interval is empty.
    #[must_use]
    pub fn mean_rate(&self, from: SimTime, to: SimTime, step: SimDuration) -> f64 {
        assert!(!step.is_zero(), "step must be positive");
        assert!(to > from, "empty interval");
        let mut t = from;
        let mut weighted = 0.0;
        let mut total = 0.0;
        while t < to {
            let span = if to - t < step { to - t } else { step };
            let w = span.as_secs_f64();
            weighted += self.rate_at(t) * w;
            total += w;
            t += step;
        }
        weighted / total
    }

    /// Samples the number of requests arriving in the slot `[t, t + slot)`.
    pub fn sample_arrivals(&self, rng: &mut SimRng, t: SimTime, slot: SimDuration) -> u64 {
        let lambda = self.rate_at(t) * slot.as_secs_f64();
        Poisson::new(lambda.max(0.0))
            .expect("rate is finite and non-negative")
            .sample(rng)
    }

    /// Samples one slot's arrivals as sorted offsets from `t`, appended to
    /// `out` (which is cleared first, so callers can reuse one buffer
    /// across slots). Conditioned on the Poisson count, arrival instants
    /// are i.i.d. uniform over the slot; the sorted offsets feed
    /// `Simulation::schedule_batch` directly, which appends them to the
    /// pending-event set's batch lane with the handler stored once.
    pub fn sample_arrival_offsets(
        &self,
        rng: &mut SimRng,
        t: SimTime,
        slot: SimDuration,
        out: &mut Vec<SimDuration>,
    ) {
        let n = self.sample_arrivals(rng, t, slot);
        crate::source::jitter_offsets(rng, n, t, slot, out);
    }
}

impl WorkloadSource for WorkloadModel {
    fn students(&self) -> u32 {
        WorkloadModel::students(self)
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        WorkloadModel::rate_at(self, t)
    }

    fn mix_at(&self, t: SimTime) -> RequestMix {
        WorkloadModel::mix_at(self, t)
    }

    fn peak_rate(&self) -> f64 {
        WorkloadModel::peak_rate(self)
    }

    fn sample_arrivals(&self, rng: &mut SimRng, t: SimTime, slot: SimDuration) -> u64 {
        WorkloadModel::sample_arrivals(self, rng, t, slot)
    }

    fn sample_arrival_offsets(
        &self,
        rng: &mut SimRng,
        t: SimTime,
        slot: SimDuration,
        out: &mut Vec<SimDuration>,
    ) {
        WorkloadModel::sample_arrival_offsets(self, rng, t, slot, out);
    }

    fn mean_rate(&self, from: SimTime, to: SimTime, step: SimDuration) -> f64 {
        WorkloadModel::mean_rate(self, from, to, step)
    }

    fn clone_source(&self) -> Box<dyn WorkloadSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::AcademicCalendar;

    fn model() -> WorkloadModel {
        WorkloadModel::builder(10_000, AcademicCalendar::standard_semester(SimTime::ZERO))
            .build()
            .unwrap()
    }

    fn at(week: u64, day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(week * 7 * 86_400 + day * 86_400 + hour * 3_600)
    }

    #[test]
    fn exam_rate_exceeds_teaching_rate() {
        let m = model();
        let teaching = m.rate_at(at(5, 2, 20)); // week 5, Wednesday 20:00
        let exams = m.rate_at(at(15, 2, 20)); // exam week, same hour
        assert!(
            exams > 3.0 * teaching,
            "exams {exams} vs teaching {teaching}"
        );
    }

    #[test]
    fn break_is_quiet() {
        let m = model();
        let brk = m.rate_at(at(30, 2, 20));
        let teaching = m.rate_at(at(5, 2, 20));
        assert!(brk < 0.15 * teaching);
    }

    #[test]
    fn night_is_quieter_than_evening() {
        let m = model();
        assert!(m.rate_at(at(5, 2, 4)) < 0.1 * m.rate_at(at(5, 2, 20)));
    }

    #[test]
    fn weekends_are_quieter() {
        let m = model();
        assert!(m.rate_at(at(5, 5, 20)) < m.rate_at(at(5, 2, 20)));
    }

    #[test]
    fn rate_scales_with_population() {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let small = WorkloadModel::builder(1_000, cal).build().unwrap();
        let large = WorkloadModel::builder(50_000, cal).build().unwrap();
        let t = at(5, 2, 20);
        assert!((large.rate_at(t) / small.rate_at(t) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rate_bounds_samples() {
        let m = model();
        let peak = m.peak_rate();
        for w in 0..17 {
            for h in 0..24 {
                assert!(m.rate_at(at(w, 2, h)) <= peak + 1e-9);
            }
        }
    }

    #[test]
    fn mean_rate_is_between_extremes() {
        let m = model();
        let mean = m.mean_rate(at(5, 0, 0), at(6, 0, 0), SimDuration::from_hours(1));
        assert!(mean > m.rate_at(at(5, 2, 4)));
        assert!(mean < m.peak_rate());
    }

    #[test]
    fn mean_rate_weights_a_trailing_partial_step_by_its_span() {
        let m = model();
        let from = at(5, 2, 10);
        // 2.5 steps of 1 h: samples at 10:00, 11:00 (full) and 12:00 (half).
        let to = from + SimDuration::from_mins(150);
        let step = SimDuration::from_hours(1);
        let expect = (m.rate_at(from)
            + m.rate_at(from + SimDuration::from_hours(1))
            + 0.5 * m.rate_at(from + SimDuration::from_hours(2)))
            / 2.5;
        let got = m.mean_rate(from, to, step);
        assert!(
            (got - expect).abs() < 1e-12 * expect,
            "trailing half step must carry half weight: got {got}, expect {expect}"
        );
        // An exact multiple of `step` keeps the plain average.
        let flat = m.mean_rate(from, from + SimDuration::from_hours(2), step);
        let plain = (m.rate_at(from) + m.rate_at(from + SimDuration::from_hours(1))) / 2.0;
        assert!((flat - plain).abs() < 1e-12 * plain);
    }

    #[test]
    fn builder_validates_every_knob() {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        assert_eq!(
            WorkloadModel::builder(0, cal).build(),
            Err(WorkloadError::NoStudents)
        );
        assert_eq!(
            WorkloadModel::builder(100, cal)
                .peak_rps_per_kstudent(-3.0)
                .build(),
            Err(WorkloadError::BadRate(-3.0))
        );
        assert!(WorkloadModel::builder(100, cal)
            .peak_rps_per_kstudent(f64::NAN)
            .build()
            .is_err());
        assert_eq!(
            WorkloadModel::builder(100, cal)
                .weekend_factor(-0.1)
                .build(),
            Err(WorkloadError::BadFactor {
                name: "weekend",
                value: -0.1
            })
        );
        let bad_phase = PhaseFactors {
            exams: f64::INFINITY,
            ..PhaseFactors::default()
        };
        assert!(matches!(
            WorkloadModel::builder(100, cal)
                .phase_factors(bad_phase)
                .build(),
            Err(WorkloadError::BadFactor { name: "exams", .. })
        ));
        assert!(!WorkloadError::NoStudents.to_string().is_empty());
    }

    #[test]
    fn exam_phase_uses_exam_mix() {
        let m = model();
        let mix = m.mix_at(at(15, 2, 12));
        assert_eq!(mix, RequestMix::exam());
        assert_eq!(m.mix_at(at(5, 2, 12)), RequestMix::teaching());
    }

    #[test]
    fn arrivals_track_rate() {
        let m = model();
        let mut rng = SimRng::seed(1);
        let t = at(5, 2, 20);
        let slot = SimDuration::from_secs(10);
        let n = 2_000;
        let total: u64 = (0..n).map(|_| m.sample_arrivals(&mut rng, t, slot)).sum();
        let mean = total as f64 / n as f64;
        let expect = m.rate_at(t) * 10.0;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean}, expect {expect}"
        );
    }

    #[test]
    fn arrival_offsets_are_sorted_and_inside_the_slot() {
        let m = model();
        let mut rng = SimRng::seed(9);
        let slot = SimDuration::from_secs(10);
        let mut out = Vec::new();
        m.sample_arrival_offsets(&mut rng, at(5, 2, 20), slot, &mut out);
        assert!(!out.is_empty(), "teaching peak should see arrivals");
        assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be sorted"
        );
        assert!(out.iter().all(|&d| d < slot));
    }

    #[test]
    fn arrival_offsets_reuse_the_buffer() {
        let m = model();
        let mut rng = SimRng::seed(9);
        let slot = SimDuration::from_secs(10);
        let mut out = vec![SimDuration::from_secs(999)]; // stale content
        m.sample_arrival_offsets(&mut rng, at(30, 2, 4), slot, &mut out);
        // Quiet break night: whatever was sampled, the stale entry is gone.
        assert!(out.iter().all(|&d| d < slot));
    }

    #[test]
    fn arrival_offset_count_matches_sample_arrivals() {
        let m = model();
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        let t = at(5, 2, 20);
        let slot = SimDuration::from_secs(10);
        let n = m.sample_arrivals(&mut a, t, slot);
        let mut out = Vec::new();
        m.sample_arrival_offsets(&mut b, t, slot, &mut out);
        assert_eq!(
            out.len() as u64,
            n,
            "count must come from the same Poisson draw"
        );
    }

    /// `rate_at` as three calendar queries gave it: the phase from the
    /// instant's whole seconds since the term start over a week, the hour
    /// and the weekday from the same seconds over an hour and a day, and
    /// the population scaled on every query. The test built the calendar
    /// and the model, so it passes the calendar's registration and
    /// teaching weeks and the model's peak rate per 1000 students.
    fn three_query_rate(m: &WorkloadModel, reg: u64, teach: u64, peak: f64, t: SimTime) -> f64 {
        let cal = m.calendar();
        let start = cal.term_start();
        let phase = if t < start || t >= cal.term_end() {
            Phase::Break
        } else {
            let week = (t - start).as_secs() / (7 * 86_400);
            if week < reg {
                Phase::Registration
            } else if week < reg + teach {
                Phase::Teaching
            } else {
                Phase::Exams
            }
        };
        let phase_f = match phase {
            Phase::Break => m.phase_factors.break_f,
            Phase::Registration => m.phase_factors.registration,
            Phase::Teaching => m.phase_factors.teaching,
            Phase::Exams => m.phase_factors.exams,
        };
        let secs = t.saturating_since(start).as_secs();
        let diurnal = DIURNAL[((secs / 3_600) % 24) as usize];
        let weekend = if (secs / 86_400) % 7 >= 5 {
            m.weekend_factor
        } else {
            1.0
        };
        m.students as f64 / 1_000.0 * peak * phase_f * diurnal * weekend
    }

    #[test]
    fn rate_at_is_bit_equal_to_three_calendar_queries() {
        const HOUR: u64 = 3_600 * 1_000_000_000;
        const YEARS_3: u64 = 3 * 365 * 24 * HOUR;
        // Term starts at 0, and three weeks in at an instant on no hour.
        let unaligned = SimTime::from_nanos(3 * 7 * 24 * HOUR + 5 * HOUR + 1_037_123_456_789);
        let calendars = [
            (SimTime::ZERO, 1, 14, 2),
            (unaligned, 1, 14, 2),
            (unaligned, 0, 10, 1),
        ];
        let mut rng = SimRng::seed(28).derive("rate-at");
        // Populations and peak rates: the default, an odd pair, and random
        // ones, so the product's rounding differs between them.
        let mut sizes = vec![(2_000, 20.0), (12_345, 23.7)];
        for _ in 0..6 {
            sizes.push((
                rng.range_u64(1, 5_000_000) as u32,
                rng.range_f64(0.1, 100.0),
            ));
        }
        for (start, reg, teach, exams) in calendars {
            let cal = AcademicCalendar::new(start, reg, teach, exams);
            let models: Vec<(WorkloadModel, f64)> = sizes
                .iter()
                .map(|&(students, peak)| {
                    let m = WorkloadModel::builder(students, cal)
                        .peak_rps_per_kstudent(peak)
                        .weekend_factor(0.37)
                        .build()
                        .unwrap();
                    (m, peak)
                })
                .collect();
            let mut instants = Vec::new();
            // Every hour of three years, from the epoch and from the term
            // start, and the nanosecond before each term-relative hour.
            for h in 1..YEARS_3 / HOUR {
                let from_start = start + SimDuration::from_nanos(h * HOUR);
                instants.extend([
                    SimTime::from_nanos(h * HOUR),
                    from_start,
                    from_start - SimDuration::from_nanos(1),
                ]);
            }
            instants.extend([SimTime::ZERO, start]);
            for _ in 0..20_000 {
                instants.push(SimTime::from_nanos(rng.range_u64(0, YEARS_3)));
            }
            let mut before_start = 0;
            for t in instants {
                before_start += u32::from(t < start);
                for (m, peak) in &models {
                    let (got, want) = (
                        m.rate_at(t),
                        three_query_rate(m, u64::from(reg), u64::from(teach), *peak, t),
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{t:?}: {got} vs {want}");
                }
            }
            assert_eq!(before_start > 0, start > SimTime::ZERO);
        }
    }

    #[test]
    fn deterministic_sampling() {
        let m = model();
        let mut a = SimRng::seed(4);
        let mut b = SimRng::seed(4);
        let t = at(5, 2, 20);
        for _ in 0..50 {
            assert_eq!(
                m.sample_arrivals(&mut a, t, SimDuration::from_secs(5)),
                m.sample_arrivals(&mut b, t, SimDuration::from_secs(5))
            );
        }
    }
}
