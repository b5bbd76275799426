//! # elc-resil — deterministic resilience policies and chaos injection
//!
//! The rest of the stack *produces* faults — `elc-cloud`'s host/site
//! hazards, `elc-net`'s outage schedules and interrupted transfers — but
//! until this crate nothing *reacted* to them, so the paper's reliability
//! comparison (§III network risk, §IV.B physical-damage risk, §IV.C hybrid
//! failover) stopped at raw hazard exposure. `elc-resil` is the fault
//! *response* layer: small, composable policy objects a model threads its
//! traffic through, plus a chaos harness that schedules the correlated
//! fault campaigns the policies are supposed to survive.
//!
//! The policies:
//!
//! * [`retry::RetryPolicy`] — exponential backoff with decorrelated
//!   jitter, a bounded attempt budget, and per-[`RequestKind`] idempotency
//!   gating (`QuizSubmit`/`Upload` are never blindly replayed),
//! * [`timeout::TimeoutPolicy`] — per-kind client deadlines,
//! * [`breaker::CircuitBreaker`] — closed/open/half-open with sim-time
//!   cooldowns and a per-target trip counter,
//! * [`admission::AdmissionController`] — utilization-ordered load
//!   shedding that drops `VideoChunk`/`ForumRead` long before any write,
//! * [`failover::HybridFailover`] — breaker-driven re-routing from a
//!   private site to public burst capacity
//!   ([`elc_deploy::hybrid::FailoverPlan`]).
//!
//! Everything is seeded from [`SimRng`](elc_simcore::rng::SimRng) streams
//! and free of wall-clock or platform state, so a policy decision is a
//! pure function of `(configuration, seed lineage, sim time)` — the same
//! property the kernel guarantees, which is what lets chaos campaigns stay
//! byte-identical across any `--threads` in `elc run`.
//!
//! Policy activity is traced on the `"resil"` target: `retry.attempt`,
//! `breaker.trip`, `shed.request` and `failover.switch`, all sim-time
//! stamped and guarded by [`elc_trace::enabled`].
//!
//! [`RequestKind`]: elc_elearn::request::RequestKind

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target for every event this crate records.
pub const TRACE_TARGET: &str = "resil";

pub mod admission;
pub mod breaker;
pub mod chaos;
pub mod failover;
pub mod retry;
pub mod timeout;
