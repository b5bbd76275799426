//! # elearn-cloud — an experimental environment for cloud deployment models
//! in e-learning systems
//!
//! This umbrella crate re-exports the whole workspace (see `DESIGN.md` for
//! the architecture and the paper-claim → experiment index):
//!
//! * [`trace`] — deterministic sim-time structured event tracing,
//! * [`simcore`] — deterministic discrete-event simulation kernel,
//! * [`net`] — links, outages, transfers,
//! * [`cloud`] — datacenters, VMs, autoscaling, storage, failures, billing,
//! * [`elearn`] — the LMS as the traffic it serves: request kinds, the
//!   workload generator and the [`WorkloadSource`](elc_elearn::source::WorkloadSource) trait,
//! * [`wltrace`] — workload trace record, replay and morphing behind the
//!   [`WorkloadSource`](elc_elearn::source::WorkloadSource) API,
//! * [`faas`] — the serverless platform model: container lifecycle,
//!   fixed-window keepalive, invocation buffering and GB-s billing,
//! * [`fluid`] — the fluid/mean-field fast path: per-class flow
//!   integration, fidelity switching and backlog materialization for
//!   million-student scale,
//! * [`deploy`] — public / private / hybrid / FaaS deployment models and
//!   their cost, security, portability, update, reliability and governance
//!   behaviour,
//! * [`analysis`] — statistics, tables, the comparison matrix,
//! * [`core`] — the experiment suite (E1–E19, T1), the uniform experiment
//!   registry and the deployment advisor,
//! * [`runner`] — the deterministic parallel multi-seed execution engine
//!   (replications, worker pool, aggregate statistics, run manifests).
//!
//! # Quickstart
//!
//! ```no_run
//! use elearn_cloud::core::{advise, run_all, Requirements, Scenario};
//!
//! let scenario = Scenario::university(42);
//! let outputs = run_all(&scenario);
//! println!("{}", outputs.report());
//! let rec = advise(&Requirements::balanced_university(), &outputs.metrics());
//! println!("{rec}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use elc_analysis as analysis;
pub use elc_cloud as cloud;
pub use elc_core as core;
pub use elc_deploy as deploy;
pub use elc_elearn as elearn;
pub use elc_faas as faas;
pub use elc_fluid as fluid;
pub use elc_net as net;
pub use elc_runner as runner;
pub use elc_simcore as simcore;
pub use elc_trace as trace;
pub use elc_wltrace as wltrace;
