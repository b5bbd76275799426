//! Site-level network topology.
//!
//! The deployment models connect a handful of *sites*: the campus, one or
//! more public-cloud regions, and the private datacenter. [`Topology`] keeps
//! the directed links between sites and composes multi-hop paths. Scale is
//! tens of sites, so a dense map plus linear-time path search (BFS over
//! fewest hops, then lowest latency) is appropriate — no need for a full
//! routing protocol.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

use elc_simcore::define_id;
use elc_simcore::id::IdGen;
use elc_simcore::time::SimDuration;

use crate::link::Link;
use crate::units::Bytes;

define_id!(
    /// Identifies a site (campus, cloud region, datacenter) in a topology.
    pub struct SiteId("site")
);

/// Error returned when a route cannot be found or an endpoint is unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// An endpoint id does not belong to this topology.
    UnknownSite(SiteId),
    /// No sequence of links joins the endpoints.
    NoRoute {
        /// Origin site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownSite(id) => write!(f, "unknown site {id}"),
            RouteError::NoRoute { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
        }
    }
}

impl Error for RouteError {}

/// A named site in the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Site {
    name: String,
}

/// A directed multi-site network.
///
/// # Examples
///
/// ```
/// use elc_net::link::{Link, LinkProfile};
/// use elc_net::topology::Topology;
///
/// # fn main() -> Result<(), elc_net::topology::RouteError> {
/// let mut net = Topology::new();
/// let campus = net.add_site("campus");
/// let cloud = net.add_site("cloud-region");
/// net.connect_both(campus, cloud, Link::from_profile(LinkProfile::MetroInternet));
///
/// let path = net.route(campus, cloud)?;
/// assert_eq!(path.hops(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Topology {
    sites: Vec<Site>,
    ids: IdGen<SiteId>,
    links: HashMap<(SiteId, SiteId), Link>,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a site and returns its id.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        self.sites.push(Site { name: name.into() });
        self.ids.next_id()
    }

    /// The display name of a site.
    ///
    /// Returns `None` for ids from another topology.
    #[must_use]
    pub fn site_name(&self, id: SiteId) -> Option<&str> {
        self.sites.get(id.index()).map(|s| s.name.as_str())
    }

    /// Installs a one-way link. Replaces any existing link on that pair.
    pub fn connect(&mut self, from: SiteId, to: SiteId, link: Link) {
        assert!(
            from.index() < self.sites.len() && to.index() < self.sites.len(),
            "connect called with a site from another topology"
        );
        assert_ne!(from, to, "self-links are not allowed");
        self.links.insert((from, to), link);
    }

    /// Installs the same link in both directions.
    pub fn connect_both(&mut self, a: SiteId, b: SiteId, link: Link) {
        self.connect(a, b, link.clone());
        self.connect(b, a, link);
    }

    /// The direct link between two sites, if one exists.
    #[must_use]
    pub fn link(&self, from: SiteId, to: SiteId) -> Option<&Link> {
        self.links.get(&(from, to))
    }

    /// The conservative lookahead for a sharded run: the minimum one-way
    /// latency over links whose endpoints live on *different* shards
    /// (per `site_shard`, indexed by site). Messages between shards can
    /// never arrive sooner than this, so it bounds the synchronization
    /// window of `elc_simcore::shard::TimeWindows`.
    ///
    /// Returns `None` when no link crosses a shard boundary (a
    /// single-shard partition, or fully disconnected shards). A returned
    /// `SimDuration::ZERO` means a zero-latency link crosses shards —
    /// the window protocol cannot run and callers must fall back to
    /// single-shard execution.
    ///
    /// # Panics
    ///
    /// Panics when `site_shard` is shorter than the site count.
    #[must_use]
    pub fn cross_shard_lookahead(&self, site_shard: &[u32]) -> Option<SimDuration> {
        assert!(
            site_shard.len() >= self.sites.len(),
            "site_shard maps {} sites, topology has {}",
            site_shard.len(),
            self.sites.len()
        );
        self.links
            .iter()
            .filter(|((from, to), _)| site_shard[from.index()] != site_shard[to.index()])
            .map(|(_, link)| link.latency())
            .min()
    }

    /// Finds a path from `from` to `to` with the fewest hops (BFS).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::UnknownSite`] for foreign ids and
    /// [`RouteError::NoRoute`] when the sites are not connected.
    pub fn route(&self, from: SiteId, to: SiteId) -> Result<Path<'_>, RouteError> {
        if from.index() >= self.sites.len() {
            return Err(RouteError::UnknownSite(from));
        }
        if to.index() >= self.sites.len() {
            return Err(RouteError::UnknownSite(to));
        }
        if from == to {
            return Ok(Path { links: Vec::new() });
        }
        // BFS over fewest hops.
        let mut prev: HashMap<SiteId, SiteId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            // Deterministic neighbour order: by raw id.
            let mut neighbours: Vec<SiteId> = self
                .links
                .keys()
                .filter(|(s, _)| *s == cur)
                .map(|&(_, d)| d)
                .collect();
            neighbours.sort_unstable();
            for n in neighbours {
                if n != from && !prev.contains_key(&n) {
                    prev.insert(n, cur);
                    queue.push_back(n);
                }
            }
        }
        if !prev.contains_key(&to) {
            return Err(RouteError::NoRoute { from, to });
        }
        let mut order = vec![to];
        let mut cur = to;
        while let Some(&p) = prev.get(&cur) {
            order.push(p);
            cur = p;
            if cur == from {
                break;
            }
        }
        order.reverse();
        let links = order
            .windows(2)
            .map(|w| self.links.get(&(w[0], w[1])).expect("BFS followed links"))
            .collect();
        Ok(Path { links })
    }
}

/// A route through the topology: an ordered list of links.
#[derive(Debug)]
pub struct Path<'a> {
    links: Vec<&'a Link>,
}

impl Path<'_> {
    /// Number of links traversed (0 when source equals destination).
    #[must_use]
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Sum of one-way propagation latencies along the path.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.links.iter().map(|l| l.latency()).sum()
    }

    /// End-to-end time for a bulk transfer of `size`: the bottleneck link's
    /// serialization time plus path latency both ways.
    ///
    /// Returns [`SimDuration::ZERO`] for a zero-hop path.
    #[must_use]
    pub fn transfer_time(&self, size: Bytes) -> SimDuration {
        if self.links.is_empty() {
            return SimDuration::ZERO;
        }
        let bottleneck = self
            .links
            .iter()
            .map(|l| l.bandwidth())
            .fold(None, |acc: Option<crate::units::Bandwidth>, bw| {
                Some(match acc {
                    Some(a) if a.bits_per_sec() <= bw.bits_per_sec() => a,
                    _ => bw,
                })
            })
            .expect("non-empty path");
        let serialize = bottleneck.seconds_for(size);
        assert!(serialize.is_finite(), "zero-bandwidth link on path");
        self.latency() * 2 + SimDuration::from_secs_f64(serialize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::units::Bandwidth;

    fn three_site_net() -> (Topology, SiteId, SiteId, SiteId) {
        let mut net = Topology::new();
        let campus = net.add_site("campus");
        let dc = net.add_site("private-dc");
        let cloud = net.add_site("public-cloud");
        net.connect_both(campus, dc, Link::from_profile(LinkProfile::CampusLan));
        net.connect_both(
            campus,
            cloud,
            Link::from_profile(LinkProfile::MetroInternet),
        );
        net.connect_both(dc, cloud, Link::from_profile(LinkProfile::InterDatacenter));
        (net, campus, dc, cloud)
    }

    #[test]
    fn sites_have_names() {
        let (net, campus, dc, cloud) = three_site_net();
        assert_eq!(net.site_name(campus), Some("campus"));
        assert_eq!(net.site_name(dc), Some("private-dc"));
        assert_eq!(net.site_name(cloud), Some("public-cloud"));
        assert_eq!(net.site_name(SiteId::new(99)), None);
    }

    #[test]
    fn direct_route_single_hop() {
        let (net, campus, _, cloud) = three_site_net();
        let path = net.route(campus, cloud).unwrap();
        assert_eq!(path.hops(), 1);
    }

    #[test]
    fn route_to_self_is_empty() {
        let (net, campus, _, _) = three_site_net();
        let path = net.route(campus, campus).unwrap();
        assert_eq!(path.hops(), 0);
        assert_eq!(path.latency(), SimDuration::ZERO);
        assert_eq!(path.transfer_time(Bytes::from_mib(1)), SimDuration::ZERO);
    }

    #[test]
    fn multi_hop_route_found() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        let c = net.add_site("c");
        net.connect(a, b, Link::from_profile(LinkProfile::CampusLan));
        net.connect(b, c, Link::from_profile(LinkProfile::CampusLan));
        let path = net.route(a, c).unwrap();
        assert_eq!(path.hops(), 2);
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let (net, campus, _, cloud) = three_site_net();
        // Direct link exists, so the 2-hop route via dc must not be chosen.
        assert_eq!(net.route(campus, cloud).unwrap().hops(), 1);
    }

    #[test]
    fn no_route_error() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("island");
        let err = net.route(a, b).unwrap_err();
        assert_eq!(err, RouteError::NoRoute { from: a, to: b });
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn unknown_site_error() {
        let net = Topology::new();
        let err = net.route(SiteId::new(0), SiteId::new(1)).unwrap_err();
        assert!(matches!(err, RouteError::UnknownSite(_)));
    }

    #[test]
    fn directed_links_are_one_way() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        net.connect(a, b, Link::from_profile(LinkProfile::CampusLan));
        assert!(net.route(a, b).is_ok());
        assert!(net.route(b, a).is_err());
    }

    #[test]
    fn path_latency_sums_links() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        let c = net.add_site("c");
        let mk = |ms| {
            Link::new(
                SimDuration::from_millis(ms),
                SimDuration::ZERO,
                Bandwidth::from_mbps(100.0),
                0.0,
            )
        };
        net.connect(a, b, mk(10));
        net.connect(b, c, mk(5));
        let path = net.route(a, c).unwrap();
        assert_eq!(path.latency(), SimDuration::from_millis(15));
    }

    #[test]
    fn transfer_uses_bottleneck_bandwidth() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        let c = net.add_site("c");
        let fast = Link::new(
            SimDuration::ZERO,
            SimDuration::ZERO,
            Bandwidth::from_bps(8e6), // 1 MB/s
            0.0,
        );
        let slow = Link::new(
            SimDuration::ZERO,
            SimDuration::ZERO,
            Bandwidth::from_bps(8e5), // 0.1 MB/s
            0.0,
        );
        net.connect(a, b, fast);
        net.connect(b, c, slow);
        let path = net.route(a, c).unwrap();
        let t = path.transfer_time(Bytes::new(1_000_000));
        assert!((t.as_secs_f64() - 10.0).abs() < 0.01, "got {t}");
    }

    #[test]
    fn lookahead_is_the_min_cross_shard_latency() {
        let (net, _, _, _) = three_site_net();
        // campus=0 shard 0; dc=1, cloud=2 shard 1 → cross links are
        // campus–dc (CampusLan, 500µs) and campus–cloud (Metro, 25ms).
        let la = net.cross_shard_lookahead(&[0, 1, 1]).unwrap();
        assert_eq!(la, Link::from_profile(LinkProfile::CampusLan).latency());
        // Splitting dc|cloud instead: cheapest cross link is now the
        // dc–cloud InterDatacenter pair.
        let la = net.cross_shard_lookahead(&[0, 0, 1]).unwrap();
        assert_eq!(
            la,
            Link::from_profile(LinkProfile::InterDatacenter).latency()
        );
    }

    #[test]
    fn lookahead_is_none_without_cross_shard_links() {
        let (net, _, _, _) = three_site_net();
        assert_eq!(net.cross_shard_lookahead(&[0, 0, 0]), None);
        let mut islands = Topology::new();
        islands.add_site("a");
        islands.add_site("b");
        assert_eq!(islands.cross_shard_lookahead(&[0, 1]), None);
    }

    #[test]
    fn lookahead_reports_zero_latency_cross_links() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        net.connect_both(
            a,
            b,
            Link::new(
                SimDuration::ZERO,
                SimDuration::ZERO,
                Bandwidth::from_mbps(100.0),
                0.0,
            ),
        );
        assert_eq!(net.cross_shard_lookahead(&[0, 1]), Some(SimDuration::ZERO));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        net.connect(a, a, Link::from_profile(LinkProfile::CampusLan));
    }

    #[test]
    fn connect_replaces_existing_link() {
        let mut net = Topology::new();
        let a = net.add_site("a");
        let b = net.add_site("b");
        net.connect(a, b, Link::from_profile(LinkProfile::RuralInternet));
        net.connect(a, b, Link::from_profile(LinkProfile::CampusLan));
        let l = net.link(a, b).unwrap();
        assert_eq!(l, &Link::from_profile(LinkProfile::CampusLan));
    }
}
