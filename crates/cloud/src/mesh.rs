//! Multi-region LMS mesh: the shard-parallel workload.
//!
//! A national e-learning platform is inherently multi-region (campus
//! clusters, cloud regions, a private datacenter); this module models it
//! as a *mesh* of regions, each holding its own student and course state,
//! exchanging periodic cross-region synchronization messages over the
//! inter-region links. Regions are the shard key: every region's state,
//! events and RNG lineage (`root.derive("shard").derive_u64(region)`)
//! are independent of which shard executes it, so the mesh runs under
//! `elc_simcore::shard::TimeWindows` with **byte-identical output at any
//! shard count** — the property `MeshReport: PartialEq` pins in tests.
//!
//! The synchronization window width is the minimum inter-region link
//! latency, extracted from the mesh's [`Topology`] via
//! [`Topology::cross_shard_lookahead`]. A mesh whose topology has a
//! zero-latency cross-region link has no usable lookahead: requesting
//! multiple shards then falls back to single-shard execution with a
//! traced warning (`mesh.shard_fallback`) instead of deadlocking the
//! window protocol.

use elc_analysis::metrics::{intern, MetricSet};
use elc_net::link::Link;
use elc_net::topology::Topology;
use elc_simcore::shard::{
    advance_simulation, assign_blocks, worker_budget, Delivery, Outbox, ShardWorld, TimeWindows,
};
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::{SimRng, Simulation};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// One student's packed activity record: 16 bytes, so a region's whole
/// roster is a flat cache-dense array — the working set the shard split
/// actually partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
struct Student {
    hash: u64,
    progress: u32,
    flags: u32,
}

/// A cross-region synchronization message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshMsg {
    /// Global index of the destination region.
    pub dest: u32,
    /// Opaque payload folded into the destination's state.
    pub payload: u64,
}

/// Parameters shared by every event handler, copied out of the state to
/// keep borrows short.
#[derive(Debug, Clone, Copy)]
struct Params {
    regions: u32,
    budget: u64,
    touches: u32,
    cross_period: u64,
    latency: SimDuration,
    tick_floor: SimDuration,
    tick_jitter_ns: u64,
}

/// One region of the mesh: roster, course counters, RNG lineage and
/// activity counters. Handlers only ever touch their own region, which is
/// what makes cross-region event order commute.
#[derive(Debug)]
struct Region {
    global: u32,
    rng: SimRng,
    students: Vec<Student>,
    courses: Vec<u64>,
    events: u64,
    sent: u64,
    received: u64,
}

impl Region {
    fn new(spec: &MeshSpec, root: &SimRng, global: u32) -> Self {
        Region {
            global,
            rng: root.derive("shard").derive_u64(u64::from(global)),
            students: vec![Student::default(); spec.students_per_region as usize],
            courses: vec![0; spec.courses_per_region as usize],
            events: 0,
            sent: 0,
            received: 0,
        }
    }

    fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.push(intern("mesh.events"), self.events as f64);
        set.push(intern("mesh.msgs_sent"), self.sent as f64);
        set.push(intern("mesh.msgs_received"), self.received as f64);
        set
    }

    fn checksum(&self, mut acc: u64) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        for s in &self.students {
            acc = (acc ^ s.hash).wrapping_mul(FNV_PRIME);
            acc = (acc ^ u64::from(s.progress)).wrapping_mul(FNV_PRIME);
        }
        for &c in &self.courses {
            acc = (acc ^ c).wrapping_mul(FNV_PRIME);
        }
        acc
    }
}

/// Simulation state of one shard: its regions plus a buffer of outbound
/// sends the window driver drains into the [`Outbox`].
struct MeshState {
    regions: Vec<Region>,
    /// Global region index → local index in `regions` (`u32::MAX` when
    /// the region lives on another shard).
    local_of: Vec<u32>,
    sends: Vec<(u32, MeshMsg, SimTime)>,
    params: Params,
}

struct MeshWorld {
    sim: Simulation<MeshState>,
}

#[inline]
fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: full-period, cheap, and independent of the
    // region RNG stream.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a full-width draw onto `0..n` without a division: the Lemire
/// multiply-shift reduction. The roster pick sits on every event's
/// serially dependent touch chain, where a 64-bit `%` would cost more
/// than the L2 hit it guards.
#[inline]
fn reduce(draw: u64, n: u64) -> u64 {
    ((u128::from(draw) * u128::from(n)) >> 64) as u64
}

/// One student-activity event: a handful of random roster touches, one
/// course-counter touch, an occasional cross-region sync, then the next
/// tick of this chain.
fn tick(sim: &mut Simulation<MeshState>, local: u32) {
    let now = sim.now();
    let p = sim.state().params;
    let (draw, events, global) = {
        let region = &mut sim.state_mut().regions[local as usize];
        let draw = region.rng.next_u64();
        let roster = region.students.len() as u64;
        let mut h = draw;
        for _ in 0..p.touches {
            h = mix(h);
            let student = &mut region.students[reduce(h, roster) as usize];
            student.hash = student.hash.wrapping_add(h) ^ now.as_nanos();
            student.progress = student.progress.wrapping_add(1);
            // Fold the record back into the chain: the next roster pick
            // depends on the value just loaded, so each touch observes
            // the full memory latency instead of overlapping with its
            // neighbours — activity cascades, like real study sessions.
            h ^= student.hash;
        }
        let courses = region.courses.len() as u64;
        let course = &mut region.courses[reduce(draw.rotate_left(32), courses) as usize];
        *course = course.wrapping_add(1).rotate_left(1) ^ draw;
        region.events += 1;
        (draw, region.events, region.global)
    };
    if p.regions > 1 && events.is_multiple_of(p.cross_period) {
        sim.state_mut().regions[local as usize].sent += 1;
        let dest = (global + 1 + (draw % u64::from(p.regions - 1)) as u32) % p.regions;
        let at = now + p.latency;
        sim.state_mut().sends.push((
            global,
            MeshMsg {
                dest,
                payload: draw,
            },
            at,
        ));
    }
    if events < p.budget {
        let delay =
            p.tick_floor + SimDuration::from_nanos(reduce(mix(draw ^ events), p.tick_jitter_ns));
        sim.schedule_in(delay, move |sim| tick(sim, local));
    }
}

/// Folds one delivered sync message into the destination region.
fn apply_msg(sim: &mut Simulation<MeshState>, delivery: Delivery<MeshMsg>) {
    let local = sim.state().local_of[delivery.msg.dest as usize];
    debug_assert_ne!(local, u32::MAX, "delivery routed to the owning shard");
    let at = delivery.at;
    let region = &mut sim.state_mut().regions[local as usize];
    region.received += 1;
    let roster = region.students.len() as u64;
    let student = &mut region.students[reduce(delivery.msg.payload, roster) as usize];
    student.hash ^= mix(delivery.msg.payload ^ at.as_nanos());
    student.progress = student.progress.wrapping_add(1);
}

impl ShardWorld for MeshWorld {
    type Msg = MeshMsg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Delivery<MeshMsg>>,
        outbox: &mut Outbox<MeshMsg>,
    ) {
        advance_simulation(&mut self.sim, horizon, inbox, apply_msg);
        let sends = std::mem::take(&mut self.sim.state_mut().sends);
        for (src, msg, at) in sends {
            outbox.send(src, msg.dest, at, msg);
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.sim.next_event_time()
    }
}

/// Configuration of a multi-region mesh run.
#[derive(Debug, Clone)]
pub struct MeshSpec {
    /// Number of regions (the shard key domain).
    pub regions: u32,
    /// Students per region; the roster array is the dominant working set.
    pub students_per_region: u32,
    /// Course counters per region.
    pub courses_per_region: u32,
    /// Independent activity chains per region.
    pub actors_per_region: u32,
    /// Events each region executes before its chains stop.
    pub events_per_region: u64,
    /// Random roster touches per event.
    pub touches_per_event: u32,
    /// Every `cross_period`-th event of a region sends a sync message.
    pub cross_period: u64,
    /// Minimum delay between an actor's consecutive events.
    pub tick_floor_ns: u64,
    /// Width of the uniform jitter added on top of the floor.
    pub tick_jitter_ns: u64,
    /// The inter-region link installed on every region pair.
    pub link: Link,
    /// Base seed; region lineages derive from it.
    pub seed: u64,
}

impl MeshSpec {
    /// The national-platform mesh: 4 regions × 36k students with
    /// inter-datacenter links. The roster state (~2.7 MB of 16-byte
    /// records plus course counters) spills a 2 MB per-core L2, while
    /// the 2-shard halves fit it — exactly the regime where the shard
    /// split doubles as a working-set split. Ticks are dense relative to
    /// the 12 ms lookahead window (128 chains ticking every ~30 µs per
    /// region), so each shard re-touches its own roster thousands of
    /// times per window, and each event walks a serially dependent chain
    /// of touches whose miss latency cannot be overlapped.
    #[must_use]
    pub fn national_platform(seed: u64) -> Self {
        MeshSpec {
            regions: 4,
            students_per_region: 36_000,
            courses_per_region: 12_000,
            actors_per_region: 128,
            events_per_region: 100_000,
            touches_per_event: 20,
            cross_period: 64,
            tick_floor_ns: 15_000,
            tick_jitter_ns: 30_000,
            link: Link::from_profile(elc_net::link::LinkProfile::InterDatacenter),
            seed,
        }
    }

    /// Builds the full-mesh topology: one site per region, `self.link`
    /// installed both ways on every pair.
    #[must_use]
    pub fn topology(&self) -> Topology {
        let mut topo = Topology::new();
        let sites: Vec<_> = (0..self.regions)
            .map(|r| topo.add_site(format!("region-{r}")))
            .collect();
        for (i, &a) in sites.iter().enumerate() {
            for &b in &sites[i + 1..] {
                topo.connect_both(a, b, self.link.clone());
            }
        }
        topo
    }

    fn params(&self, latency: SimDuration) -> Params {
        Params {
            regions: self.regions,
            budget: self.events_per_region,
            touches: self.touches_per_event,
            cross_period: self.cross_period,
            latency,
            tick_floor: SimDuration::from_nanos(self.tick_floor_ns),
            tick_jitter_ns: self.tick_jitter_ns,
        }
    }

    fn seed_regions(&self, globals: impl Iterator<Item = u32>) -> Vec<Region> {
        let root = SimRng::seed(self.seed).derive("mesh");
        globals.map(|g| Region::new(self, &root, g)).collect()
    }

    fn schedule_actors(&self, sim: &mut Simulation<MeshState>) {
        for local in 0..sim.state().regions.len() as u32 {
            let global = sim.state().regions[local as usize].global;
            for actor in 0..self.actors_per_region {
                // Stagger by global region and actor so starts are
                // partition-independent and not all tied at t=0.
                let offset = SimDuration::from_micros(u64::from(global * 131 + actor * 17));
                sim.schedule_at(SimTime::ZERO + offset, move |sim| tick(sim, local));
            }
        }
    }

    /// Runs the mesh on `shards` shards (worker threads capped by
    /// [`worker_budget`]). The report is byte-identical for every shard
    /// and worker count; a zero-lookahead topology falls back to one
    /// shard with a traced warning.
    ///
    /// # Panics
    ///
    /// Panics when the spec has no regions or `shards` is zero.
    #[must_use]
    pub fn run(&self, shards: u32) -> MeshReport {
        assert!(self.regions > 0, "a mesh needs at least one region");
        assert!(shards > 0, "at least one shard is required");
        let identity: Vec<u32> = (0..self.regions).collect();
        let lookahead = self.topology().cross_shard_lookahead(&identity);
        let window = match lookahead {
            Some(l) if !l.is_zero() => l,
            _ => {
                // No usable lookahead: single region, or a zero-latency
                // cross-region link. The window protocol cannot run.
                if shards > 1 && elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                    elc_trace::instant(
                        0,
                        TRACE_TARGET,
                        "mesh.shard_fallback",
                        Level::Warn,
                        &[
                            Field::u64("requested_shards", u64::from(shards)),
                            Field::u64(
                                "lookahead_ns",
                                lookahead.unwrap_or(SimDuration::ZERO).as_nanos(),
                            ),
                        ],
                    );
                }
                return self.run_plain();
            }
        };
        let shards = shards.min(self.regions);
        let site_shard = assign_blocks(self.regions as usize, shards);
        let worlds: Vec<MeshWorld> = (0..shards)
            .map(|shard| {
                let globals: Vec<u32> = (0..self.regions)
                    .filter(|&g| site_shard[g as usize] == shard)
                    .collect();
                let mut local_of = vec![u32::MAX; self.regions as usize];
                for (local, &g) in globals.iter().enumerate() {
                    local_of[g as usize] = local as u32;
                }
                let state = MeshState {
                    regions: self.seed_regions(globals.into_iter()),
                    local_of,
                    sends: Vec::new(),
                    params: self.params(window),
                };
                let mut sim = Simulation::new(self.seed ^ u64::from(shard), state);
                self.schedule_actors(&mut sim);
                MeshWorld { sim }
            })
            .collect();
        let mut windows = TimeWindows::new(worlds, site_shard, window);
        let workers = worker_budget().min(shards as usize);
        let stats = windows.run(workers);
        let (worlds, _) = windows.into_worlds();
        let mut report = MeshReport {
            shards,
            metrics: MetricSet::new(),
            checksum: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            executed: 0,
            windows: stats.windows,
            messages: stats.messages,
        };
        for world in &worlds {
            report.executed += world.sim.executed();
            for region in &world.sim.state().regions {
                report.metrics.merge_from(&region.metrics());
                report.checksum = region.checksum(report.checksum);
            }
        }
        report
    }

    /// Single-shard fallback: one merged simulation, sync messages
    /// scheduled directly into the heap. Used when the topology offers no
    /// positive lookahead, where the window protocol is impossible.
    fn run_plain(&self) -> MeshReport {
        let latency = self
            .topology()
            .cross_shard_lookahead(&(0..self.regions).collect::<Vec<_>>())
            .unwrap_or(SimDuration::ZERO);
        let state = MeshState {
            regions: self.seed_regions(0..self.regions),
            local_of: (0..self.regions).collect(),
            sends: Vec::new(),
            params: self.params(latency),
        };
        let mut sim = Simulation::new(self.seed, state);
        self.schedule_actors(&mut sim);
        let mut messages = 0u64;
        loop {
            let progressed = sim.step();
            // Drain sends after every step: a plain run needs no window
            // batching, and `schedule_at` keeps arrival order on the heap.
            let sends = std::mem::take(&mut sim.state_mut().sends);
            for (_src, msg, at) in sends {
                messages += 1;
                let local = sim.state().local_of[msg.dest as usize];
                sim.schedule_at(at, move |sim| {
                    let region = &mut sim.state_mut().regions[local as usize];
                    region.received += 1;
                    let roster = region.students.len() as u64;
                    let student = &mut region.students[(msg.payload % roster) as usize];
                    student.hash ^= mix(msg.payload ^ at.as_nanos());
                    student.progress = student.progress.wrapping_add(1);
                });
            }
            if !progressed {
                break;
            }
        }
        let mut report = MeshReport {
            shards: 1,
            metrics: MetricSet::new(),
            checksum: 0xCBF2_9CE4_8422_2325,
            executed: sim.executed(),
            windows: 0,
            messages,
        };
        for region in &sim.state().regions {
            report.metrics.merge_from(&region.metrics());
            report.checksum = region.checksum(report.checksum);
        }
        report
    }
}

/// The partition-independent result of a mesh run: equal across shard
/// and worker counts whenever the window protocol ran.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshReport {
    /// Shards actually used (1 after a zero-lookahead fallback).
    pub shards: u32,
    /// Totals over all regions, merged via `MetricSet::merge_from`.
    pub metrics: MetricSet,
    /// FNV-1a digest of every region's roster and course state, in
    /// global region order.
    pub checksum: u64,
    /// Events executed across all shards (deliveries excluded — they
    /// never enter an event heap).
    pub executed: u64,
    /// Synchronization windows driven (0 in the plain fallback).
    pub windows: u64,
    /// Cross-region messages exchanged.
    pub messages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_net::units::Bandwidth;
    use elc_trace::{TraceFilter, Tracer};

    /// A small mesh: fast, but still multi-region and chatty.
    fn smoke(seed: u64) -> MeshSpec {
        MeshSpec {
            regions: 4,
            students_per_region: 500,
            courses_per_region: 64,
            actors_per_region: 2,
            events_per_region: 2_000,
            touches_per_event: 2,
            cross_period: 16,
            tick_floor_ns: 500_000,
            tick_jitter_ns: 1_500_000,
            link: Link::from_profile(elc_net::link::LinkProfile::InterDatacenter),
            seed,
        }
    }

    #[test]
    fn report_is_identical_at_any_shard_count() {
        let spec = smoke(42);
        let base = spec.run(1);
        assert!(base.messages > 0, "smoke mesh must exchange messages");
        assert!(base.windows > 0, "single shard still runs windowed");
        assert_eq!(
            base.metrics.named().find(|(n, _)| *n == "mesh.events"),
            Some(("mesh.events", base.executed as f64)),
            "every executed event is an activity tick"
        );
        for shards in [2, 3, 4] {
            let report = spec.run(shards);
            assert_eq!(report.shards, shards.min(spec.regions));
            let mut expect = base.clone();
            expect.shards = report.shards;
            assert_eq!(report, expect, "shards={shards}");
        }
    }

    #[test]
    fn shard_count_is_capped_by_region_count() {
        let spec = smoke(7);
        let report = spec.run(16);
        assert_eq!(report.shards, spec.regions);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = smoke(1).run(2);
        let b = smoke(2).run(2);
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn zero_latency_link_falls_back_to_one_shard_with_a_warning() {
        let mut spec = smoke(42);
        spec.link = Link::new(
            SimDuration::ZERO,
            SimDuration::ZERO,
            Bandwidth::from_mbps(100.0),
            0.0,
        );
        let (report, tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Warn)), || spec.run(4));
        assert_eq!(
            report.shards, 1,
            "zero lookahead must collapse to one shard"
        );
        assert!(report.messages > 0, "fallback still delivers messages");
        assert!(
            tracer
                .events()
                .any(|e| tracer.resolve(e.name) == "mesh.shard_fallback"),
            "fallback must be traced"
        );
    }

    #[test]
    fn single_region_mesh_runs_plain() {
        let mut spec = smoke(42);
        spec.regions = 1;
        let report = spec.run(4);
        assert_eq!(report.shards, 1);
        assert_eq!(report.messages, 0);
        assert_eq!(report.windows, 0);
    }
}
