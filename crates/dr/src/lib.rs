//! # elc-dr — deterministic disaster recovery
//!
//! `elc-cloud` models the *loss* of a site and `elc-resil` reacts to it
//! tick by tick, but nothing in the stack ever brought data or service
//! *back* — the paper's deployment-model comparison (and arXiv:1305.2616's
//! "backup and recovery" motive for cloud adoption) hinges on exactly
//! that. This crate is the recovery layer: how much committed data a
//! failure destroys (**RPO**) and how long until students can submit
//! again (**RTO**).
//!
//! The pieces, each a pure function of `(configuration, sim time,
//! caller-supplied rates)`:
//!
//! * [`replication::ReplicationLink`] — sync, async-with-lag, or
//!   snapshot-shipping; un-replicated writes are *integrated* from the
//!   write rates the caller reads off its `WorkloadSource`, so the lag at
//!   any instant is the exact RPO a failure there would cost,
//! * [`backup::MediaRestore`] — a restore-from-media clock that scales
//!   with data volume,
//! * [`detector::FailureDetector`] — heartbeat suspicion with
//!   deterministic missed-beat timeouts, traced `dr.suspect` /
//!   `dr.confirm`,
//! * [`orchestrator::RecoveryOrchestrator`] — the failover state machine
//!   (healthy → suspected → promoting → catching-up → restored, then
//!   failback), with an epoch fencing guard so a flapping primary can
//!   never double-serve,
//! * [`rpo::RpoRto`] — the drill scorecard: data-minutes lost, writes
//!   lost, seconds to restored service.
//!
//! Nothing here reads a wall clock or an OS entropy source; every
//! decision replays byte-identically at any `--threads`/`--shards`,
//! which is what lets E19 pin its goldens. Recovery activity is traced
//! on the `"dr"` target, sim-time stamped and guarded by
//! [`elc_trace::enabled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target for every event this crate records.
pub const TRACE_TARGET: &str = "dr";

pub mod backup;
pub mod detector;
pub mod orchestrator;
pub mod replication;
pub mod rpo;

pub use backup::MediaRestore;
pub use detector::{FailureDetector, Verdict};
pub use orchestrator::{DrState, Node, RecoveryOrchestrator};
pub use replication::{ReplicationLink, ReplicationMode};
pub use rpo::RpoRto;
