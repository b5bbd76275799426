//! Replicated object storage and durability.
//!
//! The paper argues two sides of data reliability: cloud storage keeps data
//! "still intact … still accessible" when a client crashes (§III.4), while a
//! single-site private cloud "runs the risk of data loss due to physical
//! damage of the unit" (§IV.B). Both reduce to one mechanism: how many
//! replicas exist and how they are spread over failure domains (*sites*).
//!
//! [`ObjectStore`] tracks objects and their replica placement;
//! [`ReplicationPolicy`] describes the spread; analytic helpers give loss
//! probabilities that experiments cross-check by sampling.
//!
//! The store is dense: objects live in one `Vec` indexed by [`ObjectId`],
//! and each records only its first site and how many replicas are still
//! live. Its sites are implied by the round-robin placement, and a per-site
//! record of when the site was last destroyed tells which of them still
//! hold a replica, so storing an object allocates nothing of its own.

use std::fmt;

use elc_net::units::Bytes;
use elc_simcore::define_id;

define_id!(
    /// Identifies a stored object (a digital asset).
    pub struct ObjectId("obj")
);

/// How replicas are spread over failure domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPolicy {
    /// Total copies of each object.
    pub replicas: u32,
    /// Independent failure domains (sites) available for placement.
    pub sites: u32,
}

impl ReplicationPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `sites` is zero.
    #[must_use]
    pub fn new(replicas: u32, sites: u32) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        assert!(sites >= 1, "need at least one site");
        ReplicationPolicy { replicas, sites }
    }

    /// Three replicas across three sites — public-cloud object storage.
    #[must_use]
    pub fn cloud_triplicate() -> Self {
        ReplicationPolicy::new(3, 3)
    }

    /// Sites each object's replicas occupy: one replica per site, so
    /// replicas beyond the site count add no spread.
    #[must_use]
    pub fn spread(&self) -> u32 {
        self.replicas.min(self.sites)
    }

    /// Sites that hold at least one replica of an object, given round-robin
    /// placement starting at `first_site`.
    #[must_use]
    pub fn placement(&self, first_site: u32) -> Vec<u32> {
        let mut sites: Vec<u32> = (0..self.spread())
            .map(|i| (first_site + i) % self.sites)
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// True if placement from `first_site` puts a replica on `site`, i.e.
    /// `site` is fewer than [`spread`](Self::spread) sites on from it,
    /// round-robin. Both sites must be below `sites`, so the distance
    /// before wrapping is below `2 · sites` and one subtraction wraps it.
    fn places_on(&self, first_site: u32, site: u32) -> bool {
        let sites = u64::from(self.sites);
        let mut ahead = u64::from(site) + sites - u64::from(first_site);
        if ahead >= sites {
            ahead -= sites;
        }
        ahead < u64::from(self.spread())
    }

    /// Probability an object is lost if each *replica* independently fails
    /// with probability `p_replica` (e.g. disk loss over a horizon).
    #[must_use]
    pub fn loss_probability(&self, p_replica: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p_replica),
            "probability out of range: {p_replica}"
        );
        p_replica.powi(self.replicas as i32)
    }
}

/// An object's record in the store: its size, the first site of its
/// round-robin placement and how many of its replicas are still live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    size: Bytes,
    first_site: u32,
    live: u32,
}

impl StoredObject {
    /// The object size.
    #[must_use]
    pub fn size(&self) -> Bytes {
        self.size
    }

    /// True if every replica has been destroyed.
    #[must_use]
    pub fn is_lost(&self) -> bool {
        self.live == 0
    }
}

/// A replicated object store spread over failure domains.
///
/// Objects are kept densely, in id order. A destroyed site still takes
/// replicas from later [`put`](ObjectStore::put)s, and destroying it again
/// destroys those.
///
/// # Examples
///
/// ```
/// use elc_cloud::storage::{ObjectStore, ReplicationPolicy};
/// use elc_net::units::Bytes;
///
/// let mut store = ObjectStore::new(ReplicationPolicy::cloud_triplicate());
/// let exam = store.put(Bytes::from_mib(2));
/// let lost = store.destroy_site(0);
/// assert!(lost.is_empty(), "triplicated data survives one site");
/// assert!(!store.object(exam).unwrap().is_lost());
/// ```
#[derive(Debug)]
pub struct ObjectStore {
    policy: ReplicationPolicy,
    /// Indexed by [`ObjectId`].
    objects: Vec<StoredObject>,
    next_site: u32,
    lost: usize,
    /// `(site, objects stored when it was last destroyed)` for every site
    /// destroyed so far: of the objects placed there, only those stored
    /// since still hold a replica on it.
    destroyed: Vec<(u32, usize)>,
}

impl ObjectStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new(policy: ReplicationPolicy) -> Self {
        ObjectStore::with_capacity(policy, 0)
    }

    /// Creates an empty store with room for `objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if the policy has no site, which its public fields allow.
    #[must_use]
    pub fn with_capacity(policy: ReplicationPolicy, objects: usize) -> Self {
        assert!(policy.sites >= 1, "need at least one site");
        ObjectStore {
            policy,
            objects: Vec::with_capacity(objects),
            next_site: 0,
            lost: 0,
            destroyed: Vec::new(),
        }
    }

    /// Stores an object, spreading replicas round-robin over sites.
    pub fn put(&mut self, size: Bytes) -> ObjectId {
        let id = ObjectId::new(self.objects.len() as u64);
        self.objects.push(StoredObject {
            size,
            first_site: self.next_site,
            live: self.policy.spread(),
        });
        // `next_site < sites` always holds, so wrapping is a reset.
        self.next_site += 1;
        if self.next_site == self.policy.sites {
            self.next_site = 0;
        }
        id
    }

    /// Looks up an object.
    #[must_use]
    pub fn object(&self, id: ObjectId) -> Option<&StoredObject> {
        self.objects.get(id.index())
    }

    /// Number of objects (lost ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Destroys a failure domain. Every replica on `site` disappears;
    /// objects whose last replica lived there are lost.
    ///
    /// Returns the ids of newly lost objects, in id order.
    pub fn destroy_site(&mut self, site: u32) -> Vec<ObjectId> {
        if site >= self.policy.sites {
            return Vec::new();
        }
        let stored = self.objects.len();
        // Objects stored before the site's previous destruction lost
        // their replica on it then.
        let since = match self.destroyed.iter_mut().find(|(s, _)| *s == site) {
            Some((_, at)) => std::mem::replace(at, stored),
            None => {
                self.destroyed.push((site, stored));
                0
            }
        };
        let mut newly_lost = Vec::new();
        for (i, obj) in self.objects.iter_mut().enumerate().skip(since) {
            if self.policy.places_on(obj.first_site, site) {
                obj.live -= 1;
                if obj.live == 0 {
                    self.lost += 1;
                    newly_lost.push(ObjectId::new(i as u64));
                }
            }
        }
        newly_lost
    }

    /// Fraction of objects surviving, in `[0, 1]`; 1.0 for an empty store.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        if self.objects.is_empty() {
            return 1.0;
        }
        1.0 - self.lost as f64 / self.objects.len() as f64
    }
}

impl fmt::Display for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} objects, {} lost, policy r={} sites={}",
            self.objects.len(),
            self.lost,
            self.policy.replicas,
            self.policy.sites
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_spreads_over_sites() {
        let p = ReplicationPolicy::new(3, 3);
        assert_eq!(p.placement(0), vec![0, 1, 2]);
        assert_eq!(p.placement(2), vec![0, 1, 2]);
    }

    #[test]
    fn placement_with_fewer_sites_than_replicas() {
        let p = ReplicationPolicy::new(3, 1);
        assert_eq!(p.placement(0), vec![0]);
    }

    #[test]
    fn loss_probability_is_independent_product() {
        let p = ReplicationPolicy::new(3, 3);
        assert!((p.loss_probability(0.1) - 0.001).abs() < 1e-12);
        assert_eq!(ReplicationPolicy::new(1, 1).loss_probability(0.1), 0.1);
        assert_eq!(p.loss_probability(0.0), 0.0);
        assert_eq!(p.loss_probability(1.0), 1.0);
    }

    #[test]
    fn single_site_store_loses_everything() {
        let mut store = ObjectStore::new(ReplicationPolicy::new(1, 1));
        for _ in 0..10 {
            store.put(Bytes::from_mib(1));
        }
        let lost = store.destroy_site(0);
        assert_eq!(lost.len(), 10);
        assert_eq!(store.survival_rate(), 0.0);
    }

    #[test]
    fn triplicated_store_survives_two_site_losses() {
        let mut store = ObjectStore::new(ReplicationPolicy::cloud_triplicate());
        for _ in 0..10 {
            store.put(Bytes::from_mib(1));
        }
        assert!(store.destroy_site(0).is_empty());
        assert!(store.destroy_site(1).is_empty());
        assert_eq!(store.survival_rate(), 1.0);
        // Third site loss kills everything.
        assert_eq!(store.destroy_site(2).len(), 10);
        assert_eq!(store.survival_rate(), 0.0);
    }

    #[test]
    fn destroying_unknown_site_is_harmless() {
        let mut store = ObjectStore::new(ReplicationPolicy::new(2, 2));
        store.put(Bytes::from_kib(4));
        assert!(store.destroy_site(99).is_empty());
        assert_eq!(store.survival_rate(), 1.0);
    }

    #[test]
    fn empty_store_metrics() {
        let store = ObjectStore::new(ReplicationPolicy::new(1, 1));
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.survival_rate(), 1.0);
    }

    #[test]
    fn lost_objects_stay_lost() {
        let mut store = ObjectStore::new(ReplicationPolicy::new(1, 1));
        let id = store.put(Bytes::from_kib(1));
        store.destroy_site(0);
        // Second disaster reports nothing new.
        assert!(store.destroy_site(0).is_empty());
        assert!(store.object(id).unwrap().is_lost());
        assert_eq!(store.survival_rate(), 0.0);
    }

    /// The store as it was before it went dense: a `BTreeMap` of objects,
    /// each owning the sorted list of sites that still hold a replica.
    mod btree_store {
        use std::collections::BTreeMap;

        use elc_net::units::Bytes;
        use elc_simcore::id::IdGen;

        use super::super::{ObjectId, ReplicationPolicy};

        pub struct Store {
            policy: ReplicationPolicy,
            objects: BTreeMap<ObjectId, (Bytes, Vec<u32>, bool)>,
            ids: IdGen<ObjectId>,
            next_site: u32,
        }

        impl Store {
            pub fn new(policy: ReplicationPolicy) -> Self {
                Store {
                    policy,
                    objects: BTreeMap::new(),
                    ids: IdGen::new(),
                    next_site: 0,
                }
            }

            pub fn put(&mut self, size: Bytes) -> ObjectId {
                let id = self.ids.next_id();
                let sites = self.policy.placement(self.next_site);
                self.next_site = (self.next_site + 1) % self.policy.sites;
                self.objects.insert(id, (size, sites, false));
                id
            }

            pub fn is_lost(&self, id: ObjectId) -> Option<bool> {
                self.objects.get(&id).map(|o| o.2)
            }

            pub fn len(&self) -> usize {
                self.objects.len()
            }

            pub fn lost_count(&self) -> usize {
                self.objects.values().filter(|o| o.2).count()
            }

            pub fn destroy_site(&mut self, site: u32) -> Vec<ObjectId> {
                let mut newly_lost = Vec::new();
                for (&id, (_, sites, lost)) in &mut self.objects {
                    if *lost {
                        continue;
                    }
                    sites.retain(|&s| s != site);
                    if sites.is_empty() {
                        *lost = true;
                        newly_lost.push(id);
                    }
                }
                newly_lost
            }

            pub fn survival_rate(&self) -> f64 {
                if self.objects.is_empty() {
                    return 1.0;
                }
                1.0 - self.lost_count() as f64 / self.objects.len() as f64
            }
        }
    }

    /// The dense store answers exactly as the `BTreeMap` store did over
    /// random interleavings of puts and site losses, including sites
    /// destroyed again after later puts and sites the policy does not have.
    #[test]
    fn dense_store_matches_the_btree_store() {
        use elc_simcore::rng::SimRng;

        let mut repeated_losses = 0;
        for case in 0..2_000u64 {
            let mut rng = SimRng::seed(0xE04_5708).derive_u64(case);
            let replicas = rng.range_u64(1, 5) as u32;
            let sites = rng.range_u64(1, 5) as u32;
            let policy = ReplicationPolicy::new(replicas, sites);
            let mut dense = ObjectStore::new(policy);
            let mut btree = btree_store::Store::new(policy);
            let mut destroyed = Vec::new();
            for step in 0..rng.range_u64(1, 40) {
                let at = format!("case {case} step {step} r={replicas} sites={sites}");
                if rng.chance(0.6) {
                    let size = Bytes::from_kib(rng.range_u64(1, 1_024));
                    assert_eq!(dense.put(size), btree.put(size), "{at}");
                } else {
                    // Up to two sites past the policy's last one.
                    let site = rng.range_u64(0, 6) as u32;
                    let lost = btree.destroy_site(site);
                    if destroyed.contains(&site) && !lost.is_empty() {
                        repeated_losses += 1;
                    }
                    destroyed.push(site);
                    assert_eq!(dense.destroy_site(site), lost, "{at}: destroy {site}");
                }
                assert_eq!(dense.len(), btree.len(), "{at}");
                assert_eq!(
                    dense.survival_rate().to_bits(),
                    btree.survival_rate().to_bits(),
                    "{at}"
                );
                for id in (0..=dense.len() as u64).map(ObjectId::new) {
                    assert_eq!(
                        dense.object(id).map(StoredObject::is_lost),
                        btree.is_lost(id),
                        "{at}: {id}"
                    );
                }
            }
        }
        // Re-destroying a site that took replicas after it first burned
        // must happen often enough to exercise the per-site record.
        assert!(
            repeated_losses >= 100,
            "only {repeated_losses} repeat losses"
        );
    }

    /// `put`'s compare-and-reset and `places_on`'s conditional subtract
    /// answer as their `%` forms did, for every policy up to 8 × 8.
    #[test]
    fn wrapping_matches_the_remainder() {
        for sites in 1..=8u32 {
            for replicas in 1..=8u32 {
                let policy = ReplicationPolicy::new(replicas, sites);
                let mut store = ObjectStore::new(policy);
                for i in 0..3 * sites {
                    let id = store.put(Bytes::from_kib(1));
                    assert_eq!(store.objects[id.index()].first_site, i % sites);
                }
                let (n, spread) = (u64::from(sites), u64::from(policy.spread()));
                for first in 0..sites {
                    for site in 0..sites {
                        let want = (u64::from(site) + n - u64::from(first)) % n < spread;
                        assert_eq!(
                            policy.places_on(first, site),
                            want,
                            "r={replicas} sites={sites} first={first} site={site}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn store_rejects_a_policy_without_sites() {
        let _ = ObjectStore::new(ReplicationPolicy {
            replicas: 1,
            sites: 0,
        });
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn policy_rejects_zero_replicas() {
        let _ = ReplicationPolicy::new(0, 1);
    }

    #[test]
    fn display_renders() {
        let store = ObjectStore::new(ReplicationPolicy::cloud_triplicate());
        assert!(store.to_string().contains("policy r=3"));
    }
}
