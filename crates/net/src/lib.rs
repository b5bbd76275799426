//! # elc-net — network substrate for the e-learning cloud environment
//!
//! Models the connectivity that the paper's deployment comparison hinges on:
//!
//! * [`units`] — `Bytes` / `Bandwidth` newtypes,
//! * [`link`] — stochastic point-to-point links with profiles for campus
//!   LAN, metro and rural Internet, and inter-datacenter paths,
//! * [`outage`] — alternating up/down connectivity process (the paper's
//!   "network risk"),
//! * [`transfer`] — bulk transfers that pause or restart across outages.
//!
//! # Examples
//!
//! How long does a 100 MiB lecture video take to reach a rural learner, and
//! how much of that is stalling in outages?
//!
//! ```
//! use elc_net::link::{Link, LinkProfile};
//! use elc_net::outage::OutageModel;
//! use elc_net::transfer::{plan_transfer, ResumePolicy};
//! use elc_net::units::Bytes;
//! use elc_simcore::{SimDuration, SimRng, SimTime};
//!
//! let link = Link::from_profile(LinkProfile::RuralInternet);
//! let outages = OutageModel::new(
//!     SimDuration::from_mins(45),
//!     SimDuration::from_mins(3),
//! );
//! let mut rng = SimRng::seed(7);
//! let schedule = outages.schedule(&mut rng, SimTime::from_secs(86_400));
//! let outcome = plan_transfer(
//!     SimTime::ZERO,
//!     Bytes::from_mib(100),
//!     &link,
//!     &schedule,
//!     ResumePolicy::Resumable,
//! )
//! .expect("finishes within a day");
//! assert!(outcome.elapsed >= SimDuration::from_secs(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target every `elc-net` event is recorded under.
pub(crate) const TRACE_TARGET: &str = "net";

pub mod link;
pub mod outage;
pub mod transfer;
pub mod units;

pub use link::{Link, LinkProfile};
pub use outage::{OutageModel, OutageSchedule};
pub use transfer::{plan_transfer, ResumePolicy, TransferOutcome};
pub use units::{Bandwidth, Bytes};
