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
//! * [`Container`] — one sandbox with the lifecycle
//!   cold → initializing → warm → idle → reaped ([`ContainerState`]).
//! * [`StartProfile`] / [`ColdStartProfile`] — per-[`RequestKind`]
//!   cold/warm start times and memory sizing.
//! * [`FixedWindow`] — when idle sandboxes are reclaimed: the provider
//!   default, a fixed idle window.
//! * [`Invoker`] — per-function admission: warm containers serve first, a
//!   bounded buffer absorbs overflow, the rest is shed
//!   ([`elc_elearn::request::RequestOutcome`] semantics).
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
//! let profile = ColdStartProfile::standard();
//! let config = InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(5)), 1_000, 2_000);
//! let mut invoker = Invoker::new(RequestKind::QuizSubmit, config);
//! let scaler = FaasScaler::new(0.7, 400);
//! let mut rng = SimRng::seed(42).derive("faas");
//! let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
//!
//! let now = SimTime::ZERO;
//! let tick = SimDuration::from_secs(60);
//! let spec = profile.get(RequestKind::QuizSubmit);
//! let desired = scaler.desired_containers(3.0, spec.service_time());
//! let grant = scaler.grant(desired, invoker.live(), 0);
//! let out = invoker.tick(now, tick, 180, grant, spec, &mut rng, &mut warm, &mut cold);
//! assert_eq!(out.cold_starts, u64::from(grant));
//! assert_eq!(out.served_warm + out.served_cold + out.buffered + out.shed, 180);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod container;
pub mod invoker;
pub mod keepalive;
pub mod profile;
pub mod scaler;

pub use billing::{FaasPriceSheet, InvocationBilling};
pub use container::{Container, ContainerState};
pub use invoker::{Invoker, InvokerConfig, TickOutcome};
pub use keepalive::FixedWindow;
pub use profile::{ColdStartProfile, StartProfile};
pub use scaler::FaasScaler;

/// Trace target for every event this crate records.
pub const TRACE_TARGET: &str = "faas";
