//! The academic calendar.
//!
//! E-learning load is calendar-shaped: quiet breaks, steady teaching weeks,
//! a registration spike, and exam periods that concentrate the whole
//! institution onto the quiz engine. [`AcademicCalendar`] maps a simulation
//! instant to a [`Phase`] and the workload model scales traffic accordingly.

use elc_simcore::time::{SimDuration, SimTime};

/// Seconds in a week.
const WEEK: u64 = 7 * 86_400;

/// What part of the term an instant falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Before/after the term, or between terms.
    Break,
    /// Course registration window (enrollment churn spike).
    Registration,
    /// Ordinary teaching weeks.
    Teaching,
    /// Exam period.
    Exams,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Break => "break",
            Phase::Registration => "registration",
            Phase::Teaching => "teaching",
            Phase::Exams => "exams",
        };
        f.write_str(s)
    }
}

/// One term's calendar, laid out in whole weeks:
///
/// ```text
/// [registration: 1 week][teaching: N weeks][exams: M weeks][break …]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcademicCalendar {
    term_start: SimTime,
    registration_weeks: u32,
    teaching_weeks: u32,
    exam_weeks: u32,
}

impl AcademicCalendar {
    /// Creates a calendar.
    ///
    /// # Panics
    ///
    /// Panics if the teaching period is empty.
    #[must_use]
    pub fn new(
        term_start: SimTime,
        registration_weeks: u32,
        teaching_weeks: u32,
        exam_weeks: u32,
    ) -> Self {
        assert!(teaching_weeks > 0, "a term needs teaching weeks");
        AcademicCalendar {
            term_start,
            registration_weeks,
            teaching_weeks,
            exam_weeks,
        }
    }

    /// A standard 14-week semester: 1 registration week, 14 teaching weeks,
    /// 2 exam weeks.
    #[must_use]
    pub fn standard_semester(term_start: SimTime) -> Self {
        AcademicCalendar::new(term_start, 1, 14, 2)
    }

    /// Start of the term (registration opens).
    #[must_use]
    pub fn term_start(&self) -> SimTime {
        self.term_start
    }

    /// Total term length including registration and exams.
    #[must_use]
    pub fn term_length(&self) -> SimDuration {
        SimDuration::from_secs(
            u64::from(self.registration_weeks + self.teaching_weeks + self.exam_weeks) * WEEK,
        )
    }

    /// End of the exam period.
    #[must_use]
    pub fn term_end(&self) -> SimTime {
        self.term_start + self.term_length()
    }

    /// The phase at instant `t`.
    #[must_use]
    pub fn phase_at(&self, t: SimTime) -> Phase {
        if t < self.term_start || t >= self.term_end() {
            return Phase::Break;
        }
        let week = (t - self.term_start).as_secs() / WEEK;
        let reg = u64::from(self.registration_weeks);
        let teach = u64::from(self.teaching_weeks);
        if week < reg {
            Phase::Registration
        } else if week < reg + teach {
            Phase::Teaching
        } else {
            Phase::Exams
        }
    }

    /// True on Saturday/Sunday (term starts on a Monday by convention).
    #[must_use]
    pub fn is_weekend(&self, t: SimTime) -> bool {
        let day = (t.saturating_since(self.term_start).as_secs() / 86_400) % 7;
        day >= 5
    }

    /// Hour of day in `[0, 24)`.
    #[must_use]
    pub fn hour_of_day(&self, t: SimTime) -> u32 {
        ((t.saturating_since(self.term_start).as_secs() / 3_600) % 24) as u32
    }

    /// Start instant of the exam period.
    #[must_use]
    pub fn exams_start(&self) -> SimTime {
        self.term_start
            + SimDuration::from_secs(
                u64::from(self.registration_weeks + self.teaching_weeks) * WEEK,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> AcademicCalendar {
        AcademicCalendar::standard_semester(SimTime::from_secs(WEEK)) // starts week 1
    }

    fn weeks(n: u64) -> SimDuration {
        SimDuration::from_secs(n * WEEK)
    }

    #[test]
    fn phases_in_order() {
        let c = cal();
        let t0 = c.term_start();
        assert_eq!(c.phase_at(SimTime::ZERO), Phase::Break);
        assert_eq!(c.phase_at(t0), Phase::Registration);
        assert_eq!(c.phase_at(t0 + weeks(1)), Phase::Teaching);
        assert_eq!(c.phase_at(t0 + weeks(14)), Phase::Teaching);
        assert_eq!(c.phase_at(t0 + weeks(15)), Phase::Exams);
        assert_eq!(c.phase_at(t0 + weeks(16)), Phase::Exams);
        assert_eq!(c.phase_at(t0 + weeks(17)), Phase::Break);
    }

    #[test]
    fn term_boundaries() {
        let c = cal();
        assert_eq!(c.term_length(), weeks(17));
        assert_eq!(c.term_end(), c.term_start() + weeks(17));
        assert_eq!(c.exams_start(), c.term_start() + weeks(15));
    }

    #[test]
    fn weekends_cycle() {
        let c = AcademicCalendar::standard_semester(SimTime::ZERO);
        // Days 0-4 weekdays, 5-6 weekend.
        assert!(!c.is_weekend(SimTime::from_secs(0)));
        assert!(!c.is_weekend(SimTime::from_secs(4 * 86_400)));
        assert!(c.is_weekend(SimTime::from_secs(5 * 86_400)));
        assert!(c.is_weekend(SimTime::from_secs(6 * 86_400)));
        assert!(!c.is_weekend(SimTime::from_secs(7 * 86_400)));
    }

    #[test]
    fn hour_of_day_cycles() {
        let c = AcademicCalendar::standard_semester(SimTime::ZERO);
        assert_eq!(c.hour_of_day(SimTime::from_secs(0)), 0);
        assert_eq!(c.hour_of_day(SimTime::from_secs(3_600 * 13)), 13);
        assert_eq!(c.hour_of_day(SimTime::from_secs(86_400 + 3_600)), 1);
    }

    #[test]
    fn no_registration_weeks_is_allowed() {
        let c = AcademicCalendar::new(SimTime::ZERO, 0, 10, 1);
        assert_eq!(c.phase_at(SimTime::ZERO), Phase::Teaching);
    }

    #[test]
    #[should_panic(expected = "teaching weeks")]
    fn zero_teaching_rejected() {
        let _ = AcademicCalendar::new(SimTime::ZERO, 1, 0, 1);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Exams.to_string(), "exams");
    }
}
