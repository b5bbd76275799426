//! A datacenter: hosts + VMs + a placement policy.
//!
//! This is the substrate both the public-cloud region and the on-premise
//! private cloud are built from; they differ in scale, provisioning latency
//! and who pays for the hardware (see `elc-deploy`).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

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
    /// Every VM ever created, stopped and failed ones included; a VM's id
    /// is its index.
    vms: Vec<Vm>,
    /// The VMs not yet stopped or failed.
    live: LiveIndex,
    policy: Box<dyn PlacementPolicy>,
    boot_delay: SimDuration,
}

/// The live VMs (booting or serving), keyed by `(ready_at, id)`, with the
/// request rate each sustains and the rates' total. Every [`VmSize`] rate
/// is a whole number, so the total stays exact however VMs come and go.
#[derive(Debug, Default)]
struct LiveIndex {
    by_ready: BTreeMap<(SimTime, VmId), f64>,
    total_rps: f64,
}

impl LiveIndex {
    fn insert(&mut self, vm: &Vm) {
        let key = live_key(vm).expect("only a live VM is indexed");
        let rps = vm.size().requests_per_sec();
        self.by_ready.insert(key, rps);
        self.total_rps += rps;
    }

    fn remove(&mut self, key: (SimTime, VmId)) {
        let rps = self
            .by_ready
            .remove(&key)
            .expect("a live VM is in the index");
        self.total_rps -= rps;
    }

    /// The summed rate of the VMs ready at `t`: the total less the VMs
    /// that become ready after `t`.
    fn serving_rps(&self, t: SimTime) -> f64 {
        let booting: f64 = self
            .by_ready
            .range((Excluded((t, VmId::new(u64::MAX))), Unbounded))
            .map(|(_, rps)| rps)
            .sum();
        if booting == self.total_rps {
            // Nothing serves. A sum over no VMs is `Iterator::sum`'s -0.0,
            // which keeps this bit-equal to summing the serving VMs.
            -0.0
        } else {
            self.total_rps - booting
        }
    }
}

/// A VM's key in the [`LiveIndex`], or `None` once it stopped or failed.
fn live_key(vm: &Vm) -> Option<(SimTime, VmId)> {
    match vm.state() {
        VmState::Provisioning { ready_at } => Some((ready_at, vm.id())),
        VmState::Stopped { .. } | VmState::Failed { .. } => None,
    }
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
            vms: Vec::new(),
            live: LiveIndex::default(),
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
        let vm_id = VmId::new(self.vms.len() as u64);
        let ready_at = now + self.boot_delay;
        self.hosts[host_id.index()].place(vm_id, demand);
        let vm = Vm::new(vm_id, size, host_id, ready_at);
        self.live.insert(&vm);
        self.vms.push(vm);
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
            .get_mut(vm_id.index())
            .unwrap_or_else(|| panic!("unknown VM {vm_id}"));
        let key = live_key(vm);
        vm.stop(now);
        self.live
            .remove(key.expect("stop() accepts only a live VM"));
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
            let vm = &mut self.vms[v.index()];
            self.live
                .remove(live_key(vm).expect("a host lists only live VMs"));
            vm.fail(now);
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

    /// Looks up a VM.
    #[must_use]
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(id.index())
    }

    /// Iterates over all VMs ever created, stopped and failed ones
    /// included, in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter()
    }

    /// Iterates over the hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// The VMs not yet stopped or failed (booting or serving), in the
    /// order they become ready: by ready time, then id. The last are the
    /// newest, the natural victims of a scale-down.
    pub fn live_vms(&self) -> impl DoubleEndedIterator<Item = VmId> + '_ {
        self.live.by_ready.keys().map(|&(_, id)| id)
    }

    /// Aggregate request throughput the serving VMs sustain at `t`
    /// (requests/second), at any `t`, earlier instants included. Costs
    /// O(log n) plus the VMs still booting at `t`, and equals the sum
    /// over the serving VMs in id order to the bit.
    #[must_use]
    pub fn serving_capacity_rps(&self, t: SimTime) -> f64 {
        self.live.serving_rps(t)
    }

    /// VMs not yet stopped or failed (booting or serving).
    #[must_use]
    pub fn active_vm_count(&self) -> usize {
        self.live.by_ready.len()
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
        assert_eq!(d.live_vms().collect::<Vec<_>>(), vec![vm]);
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
        assert_eq!(d.serving_capacity_rps(SimTime::from_secs(100)), 0.0);
    }

    /// The sum over the serving VMs that the live index replaces.
    fn scanned_rps(d: &Datacenter, t: SimTime) -> f64 {
        d.vms()
            .filter(|vm| vm.is_serving(t))
            .map(|vm| vm.size().requests_per_sec())
            .sum()
    }

    #[test]
    fn a_vm_stopped_while_booting_never_serves() {
        let mut d = dc();
        let (a, _) = d.provision(VmSize::Small, SimTime::ZERO).unwrap();
        let (b, _) = d.provision(VmSize::Large, SimTime::from_secs(30)).unwrap();
        // `b` boots until 90 s; stop it at 45 s, before it ever serves.
        d.decommission(b, SimTime::from_secs(45));
        assert_eq!(d.active_vm_count(), 1);
        assert_eq!(d.live_vms().collect::<Vec<_>>(), vec![a]);
        for secs in [0, 45, 60, 89, 90, 1_000] {
            let t = SimTime::from_secs(secs);
            assert_eq!(
                d.serving_capacity_rps(t).to_bits(),
                scanned_rps(&d, t).to_bits(),
                "at {t}"
            );
        }
        assert_eq!(
            d.serving_capacity_rps(SimTime::from_secs(90)),
            VmSize::Small.requests_per_sec()
        );
        // Nothing serves before `a` is ready: the empty sum, sign and all.
        assert!(d.serving_capacity_rps(SimTime::ZERO).is_sign_negative());
    }

    #[test]
    fn a_host_failing_under_booting_vms_takes_only_its_own() {
        let mut d = Datacenter::new("boot", FirstFit, SimDuration::from_secs(60));
        let h0 = d.add_host(Resources::new(2, 8.0, 50.0));
        d.add_host(Resources::new(8, 32.0, 200.0));
        let (serving, _) = d.provision(VmSize::Medium, SimTime::ZERO).unwrap();
        // Host 0 holds one Medium, so the two VMs booting from 100 s to
        // 160 s land on host 1, which fails at 130 s.
        let (x, _) = d
            .provision(VmSize::Medium, SimTime::from_secs(100))
            .unwrap();
        let (y, _) = d.provision(VmSize::Small, SimTime::from_secs(100)).unwrap();
        assert_eq!(d.vm(serving).unwrap().host(), h0);
        let h1 = d.vm(x).unwrap().host();
        assert_eq!(d.vm(y).unwrap().host(), h1);
        let victims = d.fail_host(h1, SimTime::from_secs(130));
        assert_eq!(victims.len(), 2);
        assert_eq!(d.active_vm_count(), 1);
        assert_eq!(d.live_vms().collect::<Vec<_>>(), vec![serving]);
        for secs in [0, 59, 60, 130, 159, 160, 10_000] {
            let t = SimTime::from_secs(secs);
            assert_eq!(
                d.serving_capacity_rps(t).to_bits(),
                scanned_rps(&d, t).to_bits(),
                "at {t}"
            );
        }
        assert_eq!(
            d.serving_capacity_rps(SimTime::from_secs(160)),
            VmSize::Medium.requests_per_sec()
        );
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
    fn debug_shows_policy() {
        let d = dc();
        assert!(format!("{d:?}").contains("first-fit"));
    }
}
