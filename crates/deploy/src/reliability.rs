//! Data reliability (E4).
//!
//! Two of the paper's claims meet here:
//!
//! * §III.4 — "Even, if the personal computer crashes, all data is still
//!   intact in the cloud, still accessible": server-side state survives
//!   client loss;
//! * §IV.B — a private cloud "runs the risk of data loss due to physical
//!   damage of the unit", losing "crucial digital assets such as tests,
//!   exam questions, results".
//!
//! Each deployment model maps to a storage profile (replication × sites ×
//! failure grade); loss probabilities are computed analytically and checked
//! by Monte-Carlo in the experiment layer.

use elc_cloud::failure::FailureModel;
use elc_cloud::storage::{ObjectStore, ReplicationPolicy};
use elc_net::units::Bytes;
use elc_simcore::rng::SimRng;

use crate::model::DeploymentKind;

/// The storage posture of a deployment model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageProfile {
    /// Replica spread.
    pub replication: ReplicationPolicy,
    /// Hardware hazard rates of the hosting site(s).
    pub failures: FailureModel,
}

impl StorageProfile {
    /// The profile a deployment model ships with by default.
    ///
    /// * Public: provider triplication over three zones, datacenter-grade
    ///   hardware.
    /// * Private: RAID-style two copies in **one** room, server-room-grade
    ///   hardware — §IV.B's exposure.
    /// * Hybrid: primary on-premise plus a cloud backup (two sites).
    #[must_use]
    pub fn for_model(kind: DeploymentKind) -> Self {
        match kind {
            DeploymentKind::Public => StorageProfile {
                replication: ReplicationPolicy::cloud_triplicate(),
                failures: FailureModel::datacenter_grade(),
            },
            DeploymentKind::Private => StorageProfile {
                replication: ReplicationPolicy::new(2, 1),
                failures: FailureModel::server_room_grade(),
            },
            DeploymentKind::Hybrid => StorageProfile {
                replication: ReplicationPolicy::new(2, 2),
                failures: FailureModel::server_room_grade(),
            },
        }
    }

    /// Probability that one asset is lost within `years`, combining
    /// independent disk losses with whole-site disasters.
    #[must_use]
    pub fn asset_loss_probability(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "years must be >= 0");
        // Disk path: every replica's disk dies independently.
        let p_disk = self
            .replication
            .loss_probability(self.failures.disk_loss_probability(years));
        // Disaster path: a site disaster wipes every replica in that site.
        // With replicas spread over `sites` domains, the asset dies only if
        // *all* its sites are destroyed.
        let sites = self.replication.spread() as i32;
        let p_site = self.failures.disaster_probability(years).powi(sites);
        // Union of (approximately) independent loss paths.
        1.0 - (1.0 - p_disk) * (1.0 - p_site)
    }

    /// Builds a populated object store with this profile's replication, for
    /// Monte-Carlo disaster experiments.
    #[must_use]
    pub fn build_store(&self, objects: usize, object_size: Bytes) -> ObjectStore {
        let mut store = ObjectStore::with_capacity(self.replication, objects);
        for _ in 0..objects {
            store.put(object_size);
        }
        store
    }

    /// Simulates `years` of site disasters against a store of `objects`
    /// assets; returns the fraction that survive.
    #[must_use]
    pub fn simulate_survival(&self, rng: &mut SimRng, objects: usize, years: f64) -> f64 {
        let mut store = self.build_store(objects, Bytes::from_mib(1));
        let p = self.failures.disaster_probability(years);
        for site in 0..self.replication.sites {
            let mut site_rng = rng.derive_u64(u64::from(site));
            if site_rng.chance(p) {
                store.destroy_site(site);
            }
        }
        store.survival_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_profile_is_most_durable() {
        let years = 3.0;
        let public =
            StorageProfile::for_model(DeploymentKind::Public).asset_loss_probability(years);
        let hybrid =
            StorageProfile::for_model(DeploymentKind::Hybrid).asset_loss_probability(years);
        let private =
            StorageProfile::for_model(DeploymentKind::Private).asset_loss_probability(years);
        assert!(public < hybrid, "public {public} < hybrid {hybrid}");
        assert!(hybrid < private, "hybrid {hybrid} < private {private}");
    }

    #[test]
    fn private_loss_is_dominated_by_site_disaster() {
        let p = StorageProfile::for_model(DeploymentKind::Private);
        let years = 3.0;
        let disaster = p.failures.disaster_probability(years);
        let loss = p.asset_loss_probability(years);
        // Both replicas share the room: the disaster path passes through
        // almost unattenuated.
        assert!(
            loss >= disaster * 0.99,
            "loss {loss} vs disaster {disaster}"
        );
    }

    #[test]
    fn hybrid_offsite_copy_squares_the_disaster_risk() {
        // Isolate the disaster path by zeroing disk failures: with two
        // sites, losing the asset requires both disasters.
        let p = StorageProfile {
            replication: ReplicationPolicy::new(2, 2),
            failures: FailureModel::new(0.0, 0.02),
        };
        let years = 3.0;
        let disaster = p.failures.disaster_probability(years);
        let loss = p.asset_loss_probability(years);
        assert!(
            (loss - disaster * disaster).abs() < 1e-12,
            "loss {loss} vs d^2 {}",
            disaster * disaster
        );
    }

    #[test]
    fn loss_probability_grows_with_horizon() {
        let p = StorageProfile::for_model(DeploymentKind::Private);
        assert!(p.asset_loss_probability(1.0) < p.asset_loss_probability(5.0));
        assert_eq!(p.asset_loss_probability(0.0), 0.0);
    }

    #[test]
    fn monte_carlo_matches_analytic_for_private() {
        let p = StorageProfile::for_model(DeploymentKind::Private);
        let years = 10.0;
        let rng = SimRng::seed(1);
        let runs = 2_000;
        let mean_survival: f64 = (0..runs)
            .map(|i| {
                let mut r = rng.derive_u64(i);
                p.simulate_survival(&mut r, 5, years)
            })
            .sum::<f64>()
            / runs as f64;
        // Analytic survival considering only the disaster path (the MC
        // simulates disasters, not disk wear).
        let expected = 1.0 - p.failures.disaster_probability(years);
        assert!(
            (mean_survival - expected).abs() < 0.03,
            "mc {mean_survival} vs analytic {expected}"
        );
    }

    #[test]
    fn store_builder_populates() {
        let p = StorageProfile::for_model(DeploymentKind::Public);
        let store = p.build_store(42, Bytes::from_kib(100));
        assert_eq!(store.len(), 42);
        assert_eq!(store.survival_rate(), 1.0);
    }

    #[test]
    fn deterministic_simulation() {
        let p = StorageProfile::for_model(DeploymentKind::Hybrid);
        let mut a = SimRng::seed(3);
        let mut b = SimRng::seed(3);
        assert_eq!(
            p.simulate_survival(&mut a, 100, 20.0),
            p.simulate_survival(&mut b, 100, 20.0)
        );
    }
}
