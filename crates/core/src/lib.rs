//! # elc-core — the evaluation framework (primary contribution)
//!
//! The experimental environment that Leloğlu, Ayav & Aslan's survey calls
//! for in its conclusion: every qualitative claim the paper makes about
//! public, private and hybrid cloud deployment for e-learning is turned
//! into a measurable experiment, and the §IV decision guidance is codified
//! as an advisor.
//!
//! * [`scenario`] — evaluation contexts (small college → national
//!   platform → rural learners),
//! * [`requirements`] — weighted institutional priorities (§II),
//! * [`experiments`] — E1–E12 plus the measured comparison matrix T1
//!   (see the workspace `DESIGN.md` for the claim-to-experiment index),
//! * [`advisor`] — requirements × measurements → ranked recommendation.
//!
//! # Examples
//!
//! Run one experiment and print its table:
//!
//! ```
//! use elc_core::experiments::e09;
//! use elc_core::scenario::Scenario;
//!
//! let out = e09::run(&Scenario::small_college(42));
//! println!("{}", out.section());
//! ```
//!
//! Get a recommendation for a requirements profile (the full suite takes
//! a few seconds; see `examples/quickstart.rs`):
//!
//! ```no_run
//! use elc_core::advisor::advise;
//! use elc_core::experiments::run_all;
//! use elc_core::requirements::Requirements;
//! use elc_core::scenario::Scenario;
//!
//! let outputs = run_all(&Scenario::university(42));
//! let rec = advise(&Requirements::exam_authority(), &outputs.metrics());
//! println!("{rec}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod experiments;
pub mod requirements;
pub mod scenario;

pub use advisor::{advise, Recommendation};
pub use experiments::{find, registry, run_all, Experiment, ExperimentRun, SuiteOutputs};
pub use requirements::Requirements;
pub use scenario::Scenario;
