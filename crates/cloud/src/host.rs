//! Physical hosts.

use std::fmt;

use crate::resources::Resources;
use crate::vm::{HostId, VmId};

/// A physical machine that VMs are packed onto.
///
/// Tracks capacity, current allocation and which VMs live here, so a host
/// failure can be translated into the set of affected VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    id: HostId,
    capacity: Resources,
    allocated: Resources,
    vms: Vec<VmId>,
    alive: bool,
}

impl Host {
    /// Creates a healthy, empty host.
    #[must_use]
    pub fn new(id: HostId, capacity: Resources) -> Self {
        Host {
            id,
            capacity,
            allocated: Resources::ZERO,
            vms: Vec::new(),
            alive: true,
        }
    }

    /// The host id.
    #[must_use]
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Currently allocated resources.
    #[must_use]
    pub fn allocated(&self) -> Resources {
        self.allocated
    }

    /// Free headroom.
    #[must_use]
    pub fn free(&self) -> Resources {
        self.capacity - self.allocated
    }

    /// Binding-constraint utilization in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.capacity.utilization(&self.allocated)
    }

    /// True if the host is powered and healthy.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// VMs currently placed here.
    #[must_use]
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// True if `demand` fits in the free headroom of a live host.
    #[must_use]
    pub fn can_place(&self, demand: &Resources) -> bool {
        self.alive && self.free().fits(demand)
    }

    /// Places a VM.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not fit or the host is dead — callers must
    /// check [`Host::can_place`] first; placement decisions are the
    /// scheduler's job, not the host's.
    pub fn place(&mut self, vm: VmId, demand: Resources) {
        assert!(self.can_place(&demand), "place() on unfit host {}", self.id);
        self.allocated += demand;
        self.vms.push(vm);
    }

    /// Removes a VM, releasing its resources.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not on this host.
    pub fn release(&mut self, vm: VmId, demand: Resources) {
        let idx = self
            .vms
            .iter()
            .position(|&v| v == vm)
            .unwrap_or_else(|| panic!("{vm} is not on host {}", self.id));
        self.vms.swap_remove(idx);
        self.allocated -= demand;
    }

    /// Kills the host, returning the VMs that were running on it.
    ///
    /// The host keeps its allocation record (the debris of the failure)
    /// and never takes a VM again.
    pub fn fail(&mut self) -> Vec<VmId> {
        self.alive = false;
        std::mem::take(&mut self.vms)
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {:.0}% used{}",
            self.id,
            self.capacity,
            self.utilization() * 100.0,
            if self.alive { "" } else { " (FAILED)" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(HostId::new(0), Resources::new(8, 32.0, 200.0))
    }

    #[test]
    fn place_and_release() {
        let mut h = host();
        let demand = Resources::new(2, 8.0, 50.0);
        assert!(h.can_place(&demand));
        h.place(VmId::new(1), demand);
        assert_eq!(h.allocated(), demand);
        assert_eq!(h.vms(), &[VmId::new(1)]);
        h.release(VmId::new(1), demand);
        assert_eq!(h.allocated(), Resources::ZERO);
        assert!(h.vms().is_empty());
    }

    #[test]
    fn cannot_overpack() {
        let mut h = host();
        let demand = Resources::new(8, 32.0, 200.0);
        h.place(VmId::new(1), demand);
        assert!(!h.can_place(&Resources::new(1, 1.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "unfit host")]
    fn place_without_room_panics() {
        let mut h = host();
        h.place(VmId::new(1), Resources::new(100, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "is not on host")]
    fn release_unknown_vm_panics() {
        let mut h = host();
        h.release(VmId::new(9), Resources::ZERO);
    }

    #[test]
    fn failure_returns_victims_and_blocks_placement() {
        let mut h = host();
        let d = Resources::new(1, 2.0, 10.0);
        h.place(VmId::new(1), d);
        h.place(VmId::new(2), d);
        let victims = h.fail();
        assert_eq!(victims.len(), 2);
        assert!(!h.is_alive());
        assert!(!h.can_place(&d));
        assert!(h.vms().is_empty());
    }

    #[test]
    fn utilization_reflects_binding_dimension() {
        let mut h = host();
        h.place(VmId::new(1), Resources::new(4, 8.0, 10.0));
        assert!((h.utilization() - 0.5).abs() < 1e-12); // vcpus bind: 4/8
    }

    #[test]
    fn display_marks_failed() {
        let mut h = host();
        assert!(!h.to_string().contains("FAILED"));
        h.fail();
        assert!(h.to_string().contains("FAILED"));
    }
}
