//! Virtual machine lifecycle.

use std::fmt;

use elc_simcore::define_id;
use elc_simcore::time::SimTime;

use crate::resources::VmSize;

define_id!(
    /// Identifies a virtual machine within a datacenter.
    pub struct VmId("vm")
);

define_id!(
    /// Identifies a physical host within a datacenter.
    pub struct HostId("host")
);

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Requested; becomes `Running` at `ready_at`.
    Provisioning {
        /// When the VM finishes booting.
        ready_at: SimTime,
    },
    /// Serving traffic.
    Running,
    /// Terminated (kept for accounting).
    Stopped {
        /// When it stopped.
        at: SimTime,
    },
    /// Lost to a host failure.
    Failed {
        /// When the host died.
        at: SimTime,
    },
}

/// A virtual machine placed on a host.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    id: VmId,
    size: VmSize,
    host: HostId,
    state: VmState,
    launched_at: SimTime,
}

impl Vm {
    /// Creates a VM in the `Provisioning` state.
    #[must_use]
    pub fn new(
        id: VmId,
        size: VmSize,
        host: HostId,
        launched_at: SimTime,
        ready_at: SimTime,
    ) -> Self {
        Vm {
            id,
            size,
            host,
            state: VmState::Provisioning { ready_at },
            launched_at,
        }
    }

    /// The VM id.
    #[must_use]
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The instance size.
    #[must_use]
    pub fn size(&self) -> VmSize {
        self.size
    }

    /// The hosting physical machine.
    #[must_use]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> VmState {
        self.state
    }

    /// When the VM was requested.
    #[must_use]
    pub fn launched_at(&self) -> SimTime {
        self.launched_at
    }

    /// True if the VM serves traffic at instant `t`.
    #[must_use]
    pub fn is_serving(&self, t: SimTime) -> bool {
        match self.state {
            VmState::Provisioning { ready_at } => t >= ready_at,
            VmState::Running => true,
            VmState::Stopped { .. } | VmState::Failed { .. } => false,
        }
    }

    /// Stops the VM at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the VM already stopped or failed.
    pub fn stop(&mut self, t: SimTime) {
        match self.state {
            VmState::Provisioning { .. } | VmState::Running => {
                self.state = VmState::Stopped { at: t };
            }
            other => panic!("cannot stop {other:?} VM"),
        }
    }

    /// Records a host failure at `t`. Idempotent for already-dead VMs.
    pub fn fail(&mut self, t: SimTime) {
        if matches!(self.state, VmState::Provisioning { .. } | VmState::Running) {
            self.state = VmState::Failed { at: t };
        }
    }

    /// Billable span: from launch until stop/failure, or until `now` if
    /// still up. Cloud billing rounds up to the next whole hour — that
    /// matches how public IaaS charged in the paper's era (per-hour
    /// granularity).
    #[must_use]
    pub fn billable_hours(&self, now: SimTime) -> f64 {
        let end = match self.state {
            VmState::Stopped { at } | VmState::Failed { at } => at,
            _ => now,
        };
        let span = end.saturating_since(self.launched_at);
        (span.as_secs_f64() / 3_600.0).ceil().max(0.0)
    }
}

impl fmt::Display for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {:?})", self.id, self.size, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_vm() -> Vm {
        Vm::new(
            VmId::new(1),
            VmSize::Medium,
            HostId::new(0),
            secs(0),
            secs(120),
        )
    }

    #[test]
    fn provisioning_vm_serves_after_ready() {
        let vm = sample_vm();
        assert!(!vm.is_serving(secs(60)));
        assert!(vm.is_serving(secs(120)));
        assert!(vm.is_serving(secs(500)));
    }

    #[test]
    fn stopping_ends_service() {
        let mut vm = sample_vm();
        vm.stop(secs(1_000));
        assert!(!vm.is_serving(secs(2_000)));
        assert_eq!(vm.state(), VmState::Stopped { at: secs(1_000) });
    }

    #[test]
    #[should_panic(expected = "cannot stop")]
    fn double_stop_panics() {
        let mut vm = sample_vm();
        vm.stop(secs(10));
        vm.stop(secs(20));
    }

    #[test]
    fn fail_is_idempotent() {
        let mut vm = sample_vm();
        vm.fail(secs(10));
        vm.fail(secs(20));
        assert_eq!(vm.state(), VmState::Failed { at: secs(10) });
    }

    #[test]
    fn stopped_vm_does_not_fail() {
        let mut vm = sample_vm();
        vm.stop(secs(10));
        vm.fail(secs(20));
        assert_eq!(vm.state(), VmState::Stopped { at: secs(10) });
    }

    #[test]
    fn billable_hours_round_up() {
        let mut vm = sample_vm();
        assert_eq!(vm.billable_hours(secs(60)), 1.0); // 1 minute → 1 hour
        assert_eq!(vm.billable_hours(secs(3_600)), 1.0);
        assert_eq!(vm.billable_hours(secs(3_601)), 2.0);
        vm.stop(secs(7_200));
        // Stopped: billing freezes at stop time regardless of `now`.
        assert_eq!(vm.billable_hours(secs(86_400)), 2.0);
    }

    #[test]
    fn zero_length_life_bills_zero() {
        let vm = Vm::new(
            VmId::new(2),
            VmSize::Small,
            HostId::new(0),
            secs(5),
            secs(5),
        );
        assert_eq!(vm.billable_hours(secs(5)), 0.0);
    }

    #[test]
    fn accessors() {
        let vm = sample_vm();
        assert_eq!(vm.id(), VmId::new(1));
        assert_eq!(vm.size(), VmSize::Medium);
        assert_eq!(vm.host(), HostId::new(0));
        assert_eq!(vm.launched_at(), secs(0));
        assert!(vm.to_string().contains("vm-1"));
    }
}
