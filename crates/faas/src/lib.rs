//! # elc-faas — a deterministic serverless platform model
//!
//! The paper's deployment axis stops at public / private / hybrid; this
//! crate models the fourth answer a university IT department hears today:
//! *functions as a service*. Capacity is not provisioned — it materialises
//! per invocation, billed by the GB-second, and disappears when idle. The
//! economics are seductive (zero idle cost through the diurnal trough) and
//! the failure mode is specific (cold-start latency exactly when the whole
//! cohort presses *submit*).
//!
//! The model is a fluid, tick-driven abstraction of a FaaS control plane:
//!
//! * [`StartProfile`] / [`ColdStartProfile`] — per-[`RequestKind`]
//!   cold/warm start times and memory sizing.
//! * [`FixedWindow`] — when idle sandboxes are reclaimed: the provider
//!   default, a fixed idle window.
//! * [`Invoker`] — per-function admission over the function's sandboxes,
//!   each initializing (paying a sampled cold start), then idle between
//!   invocations until the keepalive reaper takes it: warm sandboxes serve
//!   first, a bounded buffer absorbs overflow, the rest is shed
//!   ([`elc_elearn::request::RequestOutcome`] semantics). Sandboxes that
//!   share their state and clock are held as one run, so a tick costs one
//!   step per run, not per sandbox.
//! * [`FaasScaler`] — scale-from-zero with an account-level burst
//!   concurrency cap shared across functions.
//! * [`InvocationBilling`] — GB-second + per-request metering with a
//!   free-tier knob, priced into an [`elc_cloud::billing::Invoice`].
//!
//! Everything is a pure function of the caller's [`SimRng`] lineage: no
//! wall clock, no global state, byte-identical across thread counts.
//!
//! Tracing lands under the `faas` target ([`TRACE_TARGET`]):
//! `container.cold_start`, `container.reap`, `invoke.buffered`,
//! `invoke.shed`.
//!
//! [`SimRng`]: elc_simcore::rng::SimRng
//! [`RequestKind`]: elc_elearn::request::RequestKind
//!
//! # Examples
//!
//! ```
//! use elc_faas::{ColdStartProfile, FaasScaler, FixedWindow, Invoker, InvokerConfig};
//! use elc_simcore::metrics::Histogram;
//! use elc_simcore::rng::SimRng;
//! use elc_simcore::time::{SimDuration, SimTime};
//! use elc_elearn::request::RequestKind;
//!
//! let config = InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(5)), 1_000, 2_000);
//! let spec = *ColdStartProfile::standard().get(RequestKind::QuizSubmit);
//! let tick = SimDuration::from_secs(60);
//! let mut invoker = Invoker::new(RequestKind::QuizSubmit, config, spec, tick);
//! let scaler = FaasScaler::new(0.7, 400);
//! let mut rng = SimRng::seed(42).derive("faas");
//! let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
//!
//! let desired = scaler.desired_containers(3.0, spec.service_time().as_secs_f64());
//! let grant = scaler.grant(desired, invoker.live(), 0);
//! let out = invoker.tick(SimTime::ZERO, 180, grant, &mut rng, &mut cold);
//! invoker.record_warm(&mut warm);
//! assert_eq!(out.cold_starts, u64::from(grant));
//! assert_eq!(out.served_warm + out.served_cold + out.buffered + out.shed, 180);
//! assert_eq!(warm.count(), out.served_warm);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod invoker;
pub mod keepalive;
pub mod profile;
pub mod scaler;

pub use billing::{FaasPriceSheet, InvocationBilling};
pub use invoker::{Invoker, InvokerConfig, TickOutcome};
pub use keepalive::FixedWindow;
pub use profile::{ColdStartProfile, StartProfile};
pub use scaler::FaasScaler;

/// Trace target for every event this crate records.
pub const TRACE_TARGET: &str = "faas";
