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
    /// Requested; serves traffic from `ready_at` until it stops or fails.
    Provisioning {
        /// When the VM finishes booting.
        ready_at: SimTime,
    },
    /// Terminated.
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
}

impl Vm {
    /// Creates a VM in the `Provisioning` state, serving from `ready_at`.
    #[must_use]
    pub fn new(id: VmId, size: VmSize, host: HostId, ready_at: SimTime) -> Self {
        Vm {
            id,
            size,
            host,
            state: VmState::Provisioning { ready_at },
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

    /// True if the VM serves traffic at instant `t`.
    #[must_use]
    pub fn is_serving(&self, t: SimTime) -> bool {
        match self.state {
            VmState::Provisioning { ready_at } => t >= ready_at,
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
            VmState::Provisioning { .. } => {
                self.state = VmState::Stopped { at: t };
            }
            other => panic!("cannot stop {other:?} VM"),
        }
    }

    /// Records a host failure at `t`. Idempotent for already-dead VMs.
    pub fn fail(&mut self, t: SimTime) {
        if matches!(self.state, VmState::Provisioning { .. }) {
            self.state = VmState::Failed { at: t };
        }
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
        Vm::new(VmId::new(1), VmSize::Medium, HostId::new(0), secs(120))
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
    fn accessors() {
        let vm = sample_vm();
        assert_eq!(vm.id(), VmId::new(1));
        assert_eq!(vm.size(), VmSize::Medium);
        assert_eq!(vm.host(), HostId::new(0));
        assert!(vm.to_string().contains("vm-1"));
    }
}
