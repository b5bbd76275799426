//! # elc-elearn — the e-learning system model
//!
//! Models the application whose deployment the paper debates, a
//! Moodle-class learning-management system, as the traffic its users
//! generate: experiments see the LMS only as [`RequestKind`]s arriving
//! through a [`WorkloadSource`].
//!
//! * [`content`] — the confidentiality classes of the paper's critical
//!   "digital assets",
//! * [`session`] — autosave, lost work on disconnect, device continuity,
//! * [`request`] — the LMS request taxonomy and phase-specific mixes,
//! * [`calendar`] — semester phases (registration, teaching, exams),
//! * [`workload`] — calendar- and diurnal-shaped offered load,
//! * [`source`] — the [`WorkloadSource`] trait experiments consume demand
//!   through (generator or trace replay),
//! * [`client`] — thin cloud client vs desktop install.
//!
//! # Examples
//!
//! ```
//! use elc_elearn::calendar::AcademicCalendar;
//! use elc_elearn::workload::WorkloadModel;
//! use elc_simcore::SimTime;
//!
//! let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
//! let load = WorkloadModel::builder(20_000, cal).build().unwrap();
//! // Exam-week evening traffic dwarfs a teaching-week night.
//! let exam_peak = load.rate_at(cal.exams_start() + elc_simcore::SimDuration::from_hours(20));
//! assert!(exam_peak > 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target every `elc-elearn` event is recorded under.
pub(crate) const TRACE_TARGET: &str = "elearn";

pub mod calendar;
pub mod client;
pub mod content;
pub mod request;
pub mod session;
pub mod source;
pub mod workload;

pub use calendar::{AcademicCalendar, Phase};
pub use client::{ClientKind, ClientModel};
pub use content::Sensitivity;
pub use request::{RequestKind, RequestLifecycle, RequestMix};
pub use session::{LossLedger, SessionPolicy, StateLocation, WorkSession};
pub use source::WorkloadSource;
pub use workload::{PhaseFactors, WorkloadError, WorkloadModel, WorkloadModelBuilder};
