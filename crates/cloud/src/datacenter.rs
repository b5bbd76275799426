//! A datacenter: hosts + VMs + a placement policy.
//!
//! This is the substrate both the public-cloud region and the on-premise
//! private cloud are built from; they differ in scale, provisioning latency
//! and who pays for the hardware (see `elc-deploy`).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use elc_simcore::id::IdGen;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

use crate::host::Host;
use crate::placement::PlacementPolicy;
use crate::resources::{Resources, VmSize};
use crate::vm::{HostId, Vm, VmId, VmState};

/// Error returned when a VM cannot be provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// The size that could not be placed.
    pub requested: VmSize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no host can fit a {} instance", self.requested)
    }
}

impl Error for CapacityError {}

/// A collection of hosts managed under one placement policy.
///
/// # Examples
///
/// ```
/// use elc_cloud::datacenter::Datacenter;
/// use elc_cloud::placement::FirstFit;
/// use elc_cloud::resources::{Resources, VmSize};
/// use elc_simcore::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), elc_cloud::datacenter::CapacityError> {
/// let mut dc = Datacenter::new("campus", FirstFit, SimDuration::from_secs(90));
/// dc.add_host(Resources::new(16, 64.0, 500.0));
///
/// let (vm, ready_at) = dc.provision(VmSize::Medium, SimTime::ZERO)?;
/// assert_eq!(ready_at, SimTime::from_secs(90));
/// assert!(dc.vm(vm).is_some());
/// # Ok(())
/// # }
/// ```
pub struct Datacenter {
    name: String,
    hosts: Vec<Host>,
    host_ids: IdGen<HostId>,
    vms: BTreeMap<VmId, Vm>,
    vm_ids: IdGen<VmId>,
    policy: Box<dyn PlacementPolicy>,
    boot_delay: SimDuration,
}

impl Datacenter {
    /// Creates an empty datacenter.
    ///
    /// `boot_delay` is how long a newly placed VM takes to become ready —
    /// seconds to minutes for IaaS, effectively the image-boot time.
    pub fn new(
        name: impl Into<String>,
        policy: impl PlacementPolicy + 'static,
        boot_delay: SimDuration,
    ) -> Self {
        Datacenter {
            name: name.into(),
            hosts: Vec::new(),
            host_ids: IdGen::new(),
            vms: BTreeMap::new(),
            vm_ids: IdGen::new(),
            policy: Box::new(policy),
            boot_delay,
        }
    }

    /// Adds a physical host and returns its id.
    pub fn add_host(&mut self, capacity: Resources) -> HostId {
        let id = self.host_ids.next_id();
        self.hosts.push(Host::new(id, capacity));
        id
    }

    /// Adds `n` identical hosts.
    pub fn add_hosts(&mut self, n: usize, capacity: Resources) {
        for _ in 0..n {
            self.add_host(capacity);
        }
    }

    /// Provisions a VM of `size` at time `now`.
    ///
    /// Returns the VM id and the instant it becomes ready.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if no live host has room.
    pub fn provision(
        &mut self,
        size: VmSize,
        now: SimTime,
    ) -> Result<(VmId, SimTime), CapacityError> {
        let demand = size.resources();
        let host_id = self
            .policy
            .choose(&self.hosts, &demand)
            .ok_or(CapacityError { requested: size })?;
        let vm_id = self.vm_ids.next_id();
        let ready_at = now + self.boot_delay;
        self.hosts[host_id.index()].place(vm_id, demand);
        self.vms
            .insert(vm_id, Vm::new(vm_id, size, host_id, now, ready_at));
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            let span = elc_trace::span_begin(
                now.as_nanos(),
                TRACE_TARGET,
                "vm.boot",
                Level::Info,
                &[
                    Field::u64("vm", vm_id.index() as u64),
                    Field::u64("host", host_id.index() as u64),
                    Field::str("size", size.to_string()),
                ],
            );
            elc_trace::span_end(
                ready_at.as_nanos(),
                TRACE_TARGET,
                "vm.boot",
                Level::Info,
                span,
                &[Field::duration_ns("boot", self.boot_delay.as_nanos())],
            );
        }
        Ok((vm_id, ready_at))
    }

    /// Stops a VM and releases its resources.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist or is already stopped/failed.
    pub fn decommission(&mut self, vm_id: VmId, now: SimTime) {
        let vm = self
            .vms
            .get_mut(&vm_id)
            .unwrap_or_else(|| panic!("unknown VM {vm_id}"));
        vm.stop(now);
        let host = vm.host();
        let demand = vm.size().resources();
        self.hosts[host.index()].release(vm_id, demand);
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "vm.stop",
                Level::Info,
                &[
                    Field::u64("vm", vm_id.index() as u64),
                    Field::u64("host", host.index() as u64),
                ],
            );
        }
    }

    /// Kills a host; every VM on it transitions to `Failed`.
    ///
    /// Returns the ids of the victims.
    ///
    /// # Panics
    ///
    /// Panics if the host id is foreign.
    pub fn fail_host(&mut self, host_id: HostId, now: SimTime) -> Vec<VmId> {
        let victims = self.hosts[host_id.index()].fail();
        for &v in &victims {
            self.vms
                .get_mut(&v)
                .expect("host referenced a tracked VM")
                .fail(now);
        }
        if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "host.fail",
                Level::Warn,
                &[
                    Field::u64("host", host_id.index() as u64),
                    Field::u64("victims", victims.len() as u64),
                ],
            );
        }
        victims
    }

    /// Repairs a failed host (it returns empty).
    ///
    /// # Panics
    ///
    /// Panics if the host id is foreign.
    pub fn repair_host(&mut self, host_id: HostId) {
        self.hosts[host_id.index()].repair();
    }

    /// Drains a host for maintenance: live-migrates every VM on it to
    /// other hosts (chosen by the placement policy) and returns the moved
    /// VM ids. Migrated VMs briefly re-provision (they become ready after
    /// the boot delay — the live-migration brownout).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if some VM cannot be placed elsewhere; in
    /// that case *no* VM has been moved (the drain is all-or-nothing).
    ///
    /// # Panics
    ///
    /// Panics if the host id is foreign.
    pub fn drain_host(
        &mut self,
        host_id: HostId,
        now: SimTime,
    ) -> Result<Vec<VmId>, CapacityError> {
        let victims: Vec<VmId> = self.hosts[host_id.index()].vms().to_vec();
        // Feasibility check against a scratch copy of the other hosts.
        let mut scratch: Vec<Host> = self
            .hosts
            .iter()
            .filter(|h| h.id() != host_id)
            .cloned()
            .collect();
        for &vm_id in &victims {
            let size = self.vms[&vm_id].size();
            let demand = size.resources();
            match self.policy.choose(&scratch, &demand) {
                Some(target) => {
                    let slot = scratch
                        .iter_mut()
                        .find(|h| h.id() == target)
                        .expect("policy chose a listed host");
                    slot.place(vm_id, demand);
                }
                None => return Err(CapacityError { requested: size }),
            }
        }
        // Commit: move each VM for real.
        for &vm_id in &victims {
            let size = self.vms[&vm_id].size();
            let demand = size.resources();
            self.hosts[host_id.index()].release(vm_id, demand);
            let others: Vec<Host> = self
                .hosts
                .iter()
                .filter(|h| h.id() != host_id)
                .cloned()
                .collect();
            let target = self
                .policy
                .choose(&others, &demand)
                .expect("feasibility was just checked");
            self.hosts[target.index()].place(vm_id, demand);
            let ready_at = now + self.boot_delay;
            let vm = self.vms.get_mut(&vm_id).expect("victim is tracked");
            *vm = Vm::new(vm_id, size, target, vm.launched_at(), ready_at);
        }
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "host.drain",
                Level::Info,
                &[
                    Field::u64("host", host_id.index() as u64),
                    Field::u64("moved", victims.len() as u64),
                ],
            );
        }
        Ok(victims)
    }

    /// Looks up a VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// Iterates over all VMs ever created (including stopped/failed ones,
    /// which billing still needs).
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Iterates over the hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// VMs serving traffic at `t`.
    #[must_use]
    pub fn serving_vms(&self, t: SimTime) -> Vec<VmId> {
        self.vms
            .values()
            .filter(|vm| vm.is_serving(t))
            .map(Vm::id)
            .collect()
    }

    /// Aggregate request throughput the serving VMs sustain at `t`
    /// (requests/second).
    #[must_use]
    pub fn serving_capacity_rps(&self, t: SimTime) -> f64 {
        self.vms
            .values()
            .filter(|vm| vm.is_serving(t))
            .map(|vm| vm.size().requests_per_sec())
            .sum()
    }

    /// VMs not yet stopped or failed (provisioning or running).
    #[must_use]
    pub fn active_vm_count(&self) -> usize {
        self.vms
            .values()
            .filter(|vm| matches!(vm.state(), VmState::Provisioning { .. } | VmState::Running))
            .count()
    }
}

impl fmt::Debug for Datacenter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Datacenter")
            .field("name", &self.name)
            .field("hosts", &self.hosts.len())
            .field("vms", &self.vms.len())
            .field("policy", &self.policy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{BestFit, FirstFit};

    fn dc() -> Datacenter {
        let mut dc = Datacenter::new("test", FirstFit, SimDuration::from_secs(60));
        dc.add_hosts(2, Resources::new(8, 32.0, 200.0));
        dc
    }

    #[test]
    fn provision_and_serve() {
        let mut d = dc();
        let (vm, ready) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_secs(60));
        assert!(!d.vm(vm).unwrap().is_serving(SimTime::from_secs(30)));
        assert!(d.vm(vm).unwrap().is_serving(ready));
        assert_eq!(d.serving_vms(ready), vec![vm]);
        assert_eq!(d.active_vm_count(), 1);
    }

    #[test]
    fn capacity_error_when_full() {
        let mut d = Datacenter::new("tiny", FirstFit, SimDuration::ZERO);
        d.add_host(Resources::new(1, 2.0, 20.0));
        d.provision(VmSize::Small, SimTime::ZERO).unwrap();
        let err = d.provision(VmSize::Small, SimTime::ZERO).unwrap_err();
        assert_eq!(err.requested, VmSize::Small);
        assert!(err.to_string().contains("no host"));
    }

    #[test]
    fn decommission_frees_capacity() {
        let mut d = Datacenter::new("tiny", FirstFit, SimDuration::ZERO);
        d.add_host(Resources::new(1, 2.0, 20.0));
        let (vm, _) = d.provision(VmSize::Small, SimTime::ZERO).unwrap();
        d.decommission(vm, SimTime::from_secs(100));
        assert_eq!(d.active_vm_count(), 0);
        assert!(d.provision(VmSize::Small, SimTime::from_secs(100)).is_ok());
    }

    #[test]
    fn host_failure_kills_vms() {
        let mut d = dc();
        let (vm1, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        let (vm2, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        // FirstFit packs both on host 0.
        let host = d.vm(vm1).unwrap().host();
        assert_eq!(d.vm(vm2).unwrap().host(), host);
        let victims = d.fail_host(host, SimTime::from_secs(10));
        assert_eq!(victims.len(), 2);
        assert_eq!(d.active_vm_count(), 0);
        assert!(d.serving_vms(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn repair_restores_capacity() {
        let mut d = Datacenter::new("one", FirstFit, SimDuration::ZERO);
        let h = d.add_host(Resources::new(2, 8.0, 50.0));
        d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        d.fail_host(h, SimTime::from_secs(1));
        assert!(d.provision(VmSize::Medium, SimTime::from_secs(2)).is_err());
        d.repair_host(h);
        assert!(d.provision(VmSize::Medium, SimTime::from_secs(3)).is_ok());
    }

    #[test]
    fn serving_capacity_sums_sizes() {
        let mut d = dc();
        d.provision(VmSize::Small, SimTime::ZERO).unwrap();
        d.provision(VmSize::Large, SimTime::ZERO).unwrap();
        let t = SimTime::from_secs(60);
        let rps = d.serving_capacity_rps(t);
        assert_eq!(
            rps,
            VmSize::Small.requests_per_sec() + VmSize::Large.requests_per_sec()
        );
    }

    #[test]
    fn best_fit_policy_is_honoured() {
        let mut d = Datacenter::new("bf", BestFit, SimDuration::ZERO);
        d.add_host(Resources::new(8, 32.0, 200.0));
        d.add_host(Resources::new(2, 8.0, 50.0));
        // BestFit should choose the small host for a Medium VM.
        let (vm, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        assert_eq!(d.vm(vm).unwrap().host(), HostId::new(1));
    }

    #[test]
    #[should_panic(expected = "unknown VM")]
    fn decommission_unknown_vm_panics() {
        let mut d = dc();
        d.decommission(VmId::new(42), SimTime::ZERO);
    }

    #[test]
    fn drain_moves_every_vm_and_preserves_capacity_accounting() {
        let mut d = Datacenter::new("drain", FirstFit, SimDuration::from_secs(30));
        let h0 = d.add_host(Resources::new(8, 32.0, 200.0));
        d.add_host(Resources::new(8, 32.0, 200.0));
        let (a, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        let (b, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        // FirstFit packed both onto host 0.
        assert_eq!(d.vm(a).unwrap().host(), h0);
        let moved = d.drain_host(h0, SimTime::from_secs(100)).unwrap();
        assert_eq!(moved.len(), 2);
        for vm in [a, b] {
            assert_ne!(d.vm(vm).unwrap().host(), h0, "{vm} still on drained host");
            // Live-migration brownout: ready after the boot delay.
            assert!(!d.vm(vm).unwrap().is_serving(SimTime::from_secs(100)));
            assert!(d.vm(vm).unwrap().is_serving(SimTime::from_secs(130)));
        }
        assert!(d.hosts().nth(h0.index()).unwrap().vms().is_empty());
        assert_eq!(d.active_vm_count(), 2);
    }

    #[test]
    fn drain_is_all_or_nothing_when_capacity_is_short() {
        let mut d = Datacenter::new("drain", FirstFit, SimDuration::ZERO);
        let h0 = d.add_host(Resources::new(8, 32.0, 200.0));
        d.add_host(Resources::new(2, 8.0, 50.0)); // room for one Medium only
        let (a, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        let (b, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        let err = d.drain_host(h0, SimTime::from_secs(1)).unwrap_err();
        assert_eq!(err.requested, VmSize::Medium);
        // Nothing moved.
        assert_eq!(d.vm(a).unwrap().host(), h0);
        assert_eq!(d.vm(b).unwrap().host(), h0);
    }

    #[test]
    fn drain_of_empty_host_is_trivial() {
        let mut d = dc();
        let moved = d.drain_host(HostId::new(0), SimTime::ZERO).unwrap();
        assert!(moved.is_empty());
    }

    #[test]
    fn debug_shows_policy() {
        let d = dc();
        assert!(format!("{d:?}").contains("first-fit"));
    }
}
