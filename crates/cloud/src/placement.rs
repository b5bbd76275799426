//! VM-to-host placement policies.
//!
//! The datacenter asks a [`PlacementPolicy`] which live host should receive
//! a new VM. Policies are deterministic given the host list, so runs replay
//! exactly.

use crate::host::Host;
use crate::resources::Resources;
use crate::vm::HostId;

/// Chooses a host for a resource demand.
///
/// Implementations must be deterministic: same hosts, same answer.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Returns the chosen host id, or `None` if nothing fits.
    fn choose(&self, hosts: &[Host], demand: &Resources) -> Option<HostId>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// First host (in id order) with room. Fast, fragments capacity.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn choose(&self, hosts: &[Host], demand: &Resources) -> Option<HostId> {
        hosts.iter().find(|h| h.can_place(demand)).map(Host::id)
    }

    fn name(&self) -> &'static str {
        "first-fit"
    }
}

/// Host that would be left with the least headroom — packs tightly, keeps
/// whole hosts free for large VMs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn choose(&self, hosts: &[Host], demand: &Resources) -> Option<HostId> {
        hosts
            .iter()
            .filter(|h| h.can_place(demand))
            .min_by(|a, b| {
                let ua = a.capacity().utilization(&(a.allocated() + *demand));
                let ub = b.capacity().utilization(&(b.allocated() + *demand));
                ub.partial_cmp(&ua)
                    .expect("utilization is never NaN")
                    .then(a.id().cmp(&b.id()))
            })
            .map(Host::id)
    }

    fn name(&self) -> &'static str {
        "best-fit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts() -> Vec<Host> {
        let cap = Resources::new(8, 32.0, 200.0);
        let mut hs = vec![
            Host::new(HostId::new(0), cap),
            Host::new(HostId::new(1), cap),
            Host::new(HostId::new(2), cap),
        ];
        // Host 0: half full; host 1: nearly full; host 2: empty.
        hs[0].place(crate::vm::VmId::new(10), Resources::new(4, 16.0, 100.0));
        hs[1].place(crate::vm::VmId::new(11), Resources::new(7, 28.0, 180.0));
        hs
    }

    #[test]
    fn first_fit_takes_lowest_id_with_room() {
        let hs = hosts();
        let got = FirstFit.choose(&hs, &Resources::new(2, 4.0, 10.0));
        assert_eq!(got, Some(HostId::new(0)));
    }

    #[test]
    fn best_fit_packs_tightest() {
        let hs = hosts();
        // Demand of 1 vcpu fits everywhere; host 1 ends up most utilized.
        let got = BestFit.choose(&hs, &Resources::new(1, 1.0, 1.0));
        assert_eq!(got, Some(HostId::new(1)));
    }

    #[test]
    fn none_when_nothing_fits() {
        let hs = hosts();
        let demand = Resources::new(16, 1.0, 1.0);
        assert_eq!(FirstFit.choose(&hs, &demand), None);
        assert_eq!(BestFit.choose(&hs, &demand), None);
    }

    #[test]
    fn dead_hosts_are_skipped() {
        let mut hs = hosts();
        hs[0].fail();
        hs[2].fail();
        let got = FirstFit.choose(&hs, &Resources::new(1, 1.0, 1.0));
        assert_eq!(got, Some(HostId::new(1)));
    }

    #[test]
    fn policies_have_names() {
        assert_eq!(FirstFit.name(), "first-fit");
        assert_eq!(BestFit.name(), "best-fit");
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let cap = Resources::new(4, 8.0, 50.0);
        let hs = vec![
            Host::new(HostId::new(0), cap),
            Host::new(HostId::new(1), cap),
        ];
        let d = Resources::new(1, 1.0, 1.0);
        assert_eq!(BestFit.choose(&hs, &d), Some(HostId::new(0)));
    }
}
