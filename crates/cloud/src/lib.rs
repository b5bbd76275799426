//! # elc-cloud — infrastructure substrate
//!
//! Datacenters, hosts, VMs, placement, autoscaling, replicated storage,
//! hardware failures and usage billing. Both the public-cloud region and the
//! on-premise private cloud in `elc-deploy` are assembled from these pieces;
//! they differ in scale, provisioning latency, failure grade and who pays.
//!
//! * [`resources`] / [`vm`] / [`host`] — capacity units and lifecycles,
//! * [`placement`] — first-fit / best-fit policies,
//! * [`datacenter`] — hosts + VMs under one policy,
//! * [`autoscale`] — target-tracking elasticity,
//! * [`storage`] — replica placement and survival under site loss,
//! * [`failure`] — disk and site hazard rates,
//! * [`billing`] — usage meters, price sheets, invoices.
//!
//! # Examples
//!
//! ```
//! use elc_cloud::datacenter::Datacenter;
//! use elc_cloud::placement::BestFit;
//! use elc_cloud::resources::{Resources, VmSize};
//! use elc_simcore::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), elc_cloud::datacenter::CapacityError> {
//! let mut region = Datacenter::new("region-1", BestFit, SimDuration::from_secs(120));
//! region.add_hosts(4, Resources::new(32, 128.0, 2_000.0));
//! let (_vm, ready) = region.provision(VmSize::Large, SimTime::ZERO)?;
//! assert_eq!(ready, SimTime::from_secs(120));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Trace target every `elc-cloud` event is recorded under.
pub(crate) const TRACE_TARGET: &str = "cloud";

pub mod autoscale;
pub mod billing;
pub mod datacenter;
pub mod failure;
pub mod host;
pub mod placement;
pub mod resources;
pub mod storage;
pub mod vm;

pub use autoscale::{AutoScaler, ScaleDecision};
pub use billing::{Invoice, PriceSheet, ReservedTerms, UsageMeter, Usd};
pub use datacenter::{CapacityError, Datacenter};
pub use failure::FailureModel;
pub use host::Host;
pub use placement::{BestFit, FirstFit, PlacementPolicy};
pub use resources::{Resources, VmSize};
pub use storage::{ObjectId, ObjectStore, ReplicationPolicy};
pub use vm::{HostId, Vm, VmId, VmState};
