//! # elc-simcore — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `elearn-cloud` experimental
//! environment (see the workspace `DESIGN.md`). It provides:
//!
//! * a virtual clock with integer-nanosecond precision ([`time`]),
//! * a pending-event set with deterministic tie-breaking ([`queue`]) plus
//!   a naive baseline for ablation ([`baseline`]); an event scheduled one
//!   at a time can be cancelled by handle, in O(log n) from the heap and
//!   O(1) from the push run, while batch-scheduled events cannot be,
//! * the c-server FIFO queueing station E18's engine runs, checked against
//!   the M/D/1 and Erlang-B closed forms ([`queueing`]),
//! * the simulation executive ([`sim::Simulation`]),
//! * a splittable, platform-independent PRNG ([`rng::SimRng`]) and a set of
//!   validated probability distributions ([`dist`]),
//! * measurement primitives ([`metrics`], [`series`]) and typed entity ids
//!   ([`id`]),
//! * a conservative time-window executor that partitions one scenario
//!   across site shards without changing its output ([`shard`]).
//!
//! Each simulation executive is single-threaded and allocation-light; a
//! run is a pure function of `(configuration, seed)`, byte-identical at
//! any shard or worker count.
//!
//! # Examples
//!
//! A Poisson arrival process:
//!
//! ```
//! use elc_simcore::dist::{Distribution, Exp};
//! use elc_simcore::metrics::Counter;
//! use elc_simcore::sim::Simulation;
//! use elc_simcore::time::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), elc_simcore::dist::DistError> {
//! struct World {
//!     arrivals: Counter,
//!     inter: Exp,
//!     rng: elc_simcore::SimRng,
//! }
//!
//! fn arrive(sim: &mut Simulation<World>) {
//!     sim.state_mut().arrivals.incr();
//!     let gap = {
//!         let w = sim.state_mut();
//!         let inter = w.inter;
//!         inter.sample(&mut w.rng)
//!     };
//!     if sim.now() < SimTime::from_secs(60) {
//!         sim.schedule_in(SimDuration::from_secs_f64(gap), arrive);
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, World {
//!     arrivals: Counter::new(),
//!     inter: Exp::new(1.0)?,
//!     rng: elc_simcore::SimRng::seed(42).derive("arrivals"),
//! });
//! sim.schedule_in(SimDuration::ZERO, arrive);
//! sim.run();
//! assert!(sim.state().arrivals.value() > 0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)] // `event` opts in locally for the inline-payload buffer
#![warn(missing_docs)]

pub mod baseline;
pub mod dist;
pub mod event;
pub mod id;
pub mod metrics;
pub mod queue;
pub mod queueing;
pub mod rng;
pub mod series;
pub mod shard;
pub mod sim;
pub mod time;

pub use dist::Distribution;
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
