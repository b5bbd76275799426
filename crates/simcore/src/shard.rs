//! Conservative time-window parallel execution across site shards.
//!
//! One scenario's state is partitioned by *site* onto shards, each shard
//! owning an independent [`Simulation`] (and therefore its own event queue
//! and RNG lineages). Shards advance in lockstep through grid-aligned time
//! windows `[kL, (k+1)L)` where the lookahead `L` is the minimum
//! cross-shard network latency: any message sent during a window arrives
//! no earlier than the *next* window, so every shard can execute a whole
//! window without hearing from its peers.
//!
//! # Determinism
//!
//! Output is byte-identical at any shard count because nothing observable
//! depends on the partition:
//!
//! - Cross-site messages never enter a shard's event heap. They are held
//!   in per-shard staging calendars sorted by `(arrival, src_site, seq)`,
//!   where `seq` is a per-source-site send counter. Each site is owned by
//!   exactly one shard, so the relative send order per source — and hence
//!   the merge order — is independent of how sites map to shards.
//! - Deliveries interleave with local events by simulated time, with
//!   deliveries applied *first* on ties ([`advance_simulation`]).
//! - Windows are aligned to the global grid `k * L`, never to a shard's
//!   local clock.
//!
//! Models give each site its own RNG lineage
//! (`root.derive("shard").derive_u64(site_index)`) so draws do not depend
//! on which shard executes the site.
//!
//! A topology with a zero-latency cross-shard link has no usable
//! lookahead; [`TimeWindows::new`] rejects it, and model layers are
//! expected to fall back to plain single-shard execution with a traced
//! warning instead.

use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::thread;

/// A cross-shard message due at `at`, sent by site `src` as its `seq`-th
/// send. `(at, src, seq)` totally orders deliveries, independently of the
/// site-to-shard partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Simulated arrival time (send time + link latency).
    pub at: SimTime,
    /// Global index of the sending site.
    pub src: u32,
    /// Per-source-site send counter, assigned by [`Outbox::send`].
    pub seq: u64,
    /// Model-defined payload.
    pub msg: M,
}

impl<M> Delivery<M> {
    #[inline]
    fn key(&self) -> (SimTime, u32, u64) {
        (self.at, self.src, self.seq)
    }
}

/// Per-shard buffer of outbound cross-site messages for the current
/// window. Owns the per-source send counters, which persist across
/// windows so `seq` reflects the site's lifetime send order.
#[derive(Debug)]
pub struct Outbox<M> {
    staged: Vec<(u32, Delivery<M>)>,
    seq: Vec<u64>,
}

impl<M> Outbox<M> {
    /// Creates an outbox with send counters for `site_count` global sites.
    pub fn new(site_count: usize) -> Self {
        Outbox {
            staged: Vec::new(),
            seq: vec![0; site_count],
        }
    }

    /// Stages a message from global site `src` to global site `dest`,
    /// arriving at `at`. The executor routes it to the destination shard
    /// at the end of the current window.
    #[inline]
    pub fn send(&mut self, src: u32, dest: u32, at: SimTime, msg: M) {
        let counter = &mut self.seq[src as usize];
        let seq = *counter;
        *counter += 1;
        self.staged.push((dest, Delivery { at, src, seq, msg }));
    }

    /// Number of messages staged in the current window.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

/// One shard's slice of the model, driven window-by-window.
pub trait ShardWorld: Send {
    /// Payload type of cross-site messages.
    type Msg: Send;

    /// Executes everything strictly before `horizon`: the sorted `inbox`
    /// of due deliveries interleaved with local events (use
    /// [`advance_simulation`] for [`Simulation`]-backed worlds), staging
    /// outbound messages on `outbox`. Must drain `inbox` completely.
    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Delivery<Self::Msg>>,
        outbox: &mut Outbox<Self::Msg>,
    );

    /// Time of the earliest pending local event, if any.
    fn next_event_time(&self) -> Option<SimTime>;
}

/// Counters reported by [`TimeWindows::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Cross-shard messages routed between shards.
    pub messages: u64,
}

struct Lane<W: ShardWorld> {
    world: W,
    /// Future deliveries for this shard, sorted by `(at, src, seq)`.
    staging: Vec<Delivery<W::Msg>>,
    /// Scratch buffer of deliveries due in the current window.
    inbox: Vec<Delivery<W::Msg>>,
    outbox: Outbox<W::Msg>,
}

impl<W: ShardWorld> Lane<W> {
    /// Earliest time at which anything can happen on this lane.
    fn next_time(&self) -> Option<SimTime> {
        let local = self.world.next_event_time();
        let staged = self.staging.first().map(|d| d.at);
        match (local, staged) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Conservative time-window executor over a set of [`ShardWorld`]s.
pub struct TimeWindows<W: ShardWorld> {
    lanes: Vec<Lane<W>>,
    site_shard: Vec<u32>,
    lookahead: SimDuration,
    stats: WindowStats,
}

impl<W: ShardWorld> TimeWindows<W> {
    /// Builds an executor over `worlds`, one lane per shard. `site_shard`
    /// maps every global site index to its owning shard; `lookahead` is
    /// the window width (minimum cross-shard latency).
    ///
    /// # Panics
    ///
    /// Panics when `worlds` is empty, when `lookahead` is zero (the
    /// window protocol cannot make progress — callers must fall back to
    /// plain single-shard execution), or when `site_shard` names a shard
    /// that does not exist.
    pub fn new(worlds: Vec<W>, site_shard: Vec<u32>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard world is required");
        assert!(
            !lookahead.is_zero(),
            "conservative window protocol requires positive lookahead; \
             fall back to single-shard execution for zero-latency links"
        );
        let shards = worlds.len() as u32;
        for (site, &shard) in site_shard.iter().enumerate() {
            assert!(
                shard < shards,
                "site {site} assigned to shard {shard}, but only {shards} shards exist"
            );
        }
        let site_count = site_shard.len();
        TimeWindows {
            lanes: worlds
                .into_iter()
                .map(|world| Lane {
                    world,
                    staging: Vec::new(),
                    inbox: Vec::new(),
                    outbox: Outbox::new(site_count),
                })
                .collect(),
            site_shard,
            lookahead,
            stats: WindowStats::default(),
        }
    }

    /// Earliest pending time across all lanes (local events and staged
    /// deliveries). `None` means the whole simulation has drained.
    fn next_time(&self) -> Option<SimTime> {
        self.lanes.iter().filter_map(Lane::next_time).min()
    }

    /// Runs every window until all lanes drain, using up to `workers`
    /// threads per window (clamped to the shard count; `1` runs inline).
    pub fn run(&mut self, workers: usize) -> WindowStats {
        let workers = workers.clamp(1, self.lanes.len());
        let lookahead = self.lookahead.as_nanos();
        while let Some(t) = self.next_time() {
            // Grid-aligned horizon: the end of the window containing `t`.
            let window = t.as_nanos() / lookahead;
            let horizon = SimTime::from_nanos((window + 1).saturating_mul(lookahead));
            self.stats.windows += 1;

            for lane in &mut self.lanes {
                let due = lane.staging.partition_point(|d| d.at < horizon);
                debug_assert!(lane.inbox.is_empty());
                lane.inbox.extend(lane.staging.drain(..due));
            }

            if workers > 1 {
                let chunk = self.lanes.len().div_ceil(workers);
                thread::scope(|s| {
                    for lanes in self.lanes.chunks_mut(chunk) {
                        s.spawn(move || {
                            for lane in lanes {
                                advance_lane(lane, horizon);
                            }
                        });
                    }
                });
            } else {
                for lane in &mut self.lanes {
                    advance_lane(lane, horizon);
                }
            }

            self.route(horizon);
        }
        self.stats
    }

    /// Moves every staged outbound message to its destination shard's
    /// staging calendar and restores the `(at, src, seq)` sort order.
    fn route(&mut self, horizon: SimTime) {
        let before: Vec<usize> = self.lanes.iter().map(|l| l.staging.len()).collect();
        for src_lane in 0..self.lanes.len() {
            let mut staged = std::mem::take(&mut self.lanes[src_lane].outbox.staged);
            for (dest, delivery) in staged.drain(..) {
                assert!(
                    delivery.at >= horizon,
                    "message from site {} violates the lookahead: arrives at {} inside \
                     the window ending at {horizon}",
                    delivery.src,
                    delivery.at,
                );
                let dest_shard = self.site_shard[dest as usize] as usize;
                self.lanes[dest_shard].staging.push(delivery);
                self.stats.messages += 1;
            }
            self.lanes[src_lane].outbox.staged = staged;
        }
        for (lane, &len) in self.lanes.iter_mut().zip(&before) {
            if lane.staging.len() > len {
                lane.staging.sort_unstable_by_key(Delivery::key);
            }
        }
    }

    /// Consumes the executor, returning the final shard worlds in shard
    /// order together with the run counters.
    pub fn into_worlds(self) -> (Vec<W>, WindowStats) {
        let stats = self.stats;
        (self.lanes.into_iter().map(|l| l.world).collect(), stats)
    }
}

fn advance_lane<W: ShardWorld>(lane: &mut Lane<W>, horizon: SimTime) {
    lane.world
        .advance(horizon, &mut lane.inbox, &mut lane.outbox);
    debug_assert!(
        lane.inbox.is_empty(),
        "ShardWorld::advance must drain its inbox"
    );
}

/// Drives a [`Simulation`]-backed shard through one window: executes
/// every local event strictly before `horizon`, interleaved with the
/// sorted `inbox` deliveries by simulated time — deliveries are applied
/// *before* local events on ties, which is what makes the interleave
/// independent of the shard count. `apply` materializes one delivery
/// against the simulation (and may schedule further local events).
pub fn advance_simulation<S, M>(
    sim: &mut Simulation<S>,
    horizon: SimTime,
    inbox: &mut Vec<Delivery<M>>,
    mut apply: impl FnMut(&mut Simulation<S>, Delivery<M>),
) {
    let mut pending = inbox.drain(..);
    let mut next_delivery = pending.next();
    loop {
        let next_local = sim.next_event_time().filter(|&t| t < horizon);
        let deliver_now = match (next_delivery.as_ref(), next_local) {
            (Some(d), Some(t)) => d.at <= t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if deliver_now {
            let delivery = next_delivery.take().expect("delivery present");
            debug_assert!(delivery.at < horizon, "delivery handed over too early");
            sim.advance_to(delivery.at);
            apply(sim, delivery);
            next_delivery = pending.next();
        } else {
            let stepped = sim.step_before(horizon);
            debug_assert!(stepped, "peeked event must pop");
        }
    }
}

/// Assigns `items` consecutive indices to `shards` contiguous,
/// near-equal blocks: the canonical site-to-shard partition. Earlier
/// blocks get the remainder, so sizes differ by at most one.
pub fn assign_blocks(items: usize, shards: u32) -> Vec<u32> {
    let shards = (shards as usize).clamp(1, items.max(1));
    let base = items / shards;
    let extra = items % shards;
    let mut out = Vec::with_capacity(items);
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        out.extend(std::iter::repeat_n(shard as u32, len));
    }
    out
}

thread_local! {
    /// `0` means "unset": fall back to the machine's parallelism.
    static WORKER_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// How many OS threads this call site may occupy. Defaults to the
/// machine's available parallelism; [`with_worker_budget`] narrows it so
/// nested fan-out (replications × shards) does not oversubscribe.
pub fn worker_budget() -> usize {
    let budget = WORKER_BUDGET.get();
    if budget == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        budget
    }
}

/// Runs `f` with the current thread's worker budget set to `budget`
/// (minimum 1), restoring the previous budget afterwards.
pub fn with_worker_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_BUDGET.set(self.0);
        }
    }
    let _restore = Restore(WORKER_BUDGET.replace(budget.max(1)));
    f()
}

/// Runs independent `jobs` partitioned over up to `shards` contiguous
/// groups, on up to [`worker_budget`] threads, and returns the results
/// in job order. Jobs must not communicate — this is the fan-out used by
/// experiments whose arms have independent RNG lineages.
///
/// When a tracer is installed on the calling thread the jobs run in order
/// on that thread instead: the tracer is thread-local, so a spawned worker
/// would drop every event its jobs emit.
pub fn run_jobs<T, F>(shards: u32, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    let groups = (shards as usize).clamp(1, total.max(1));
    if groups <= 1 || worker_budget() <= 1 || elc_trace::installed() {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let chunk = total.div_ceil(groups);
    let mut out: Vec<Option<T>> = Vec::with_capacity(total);
    out.resize_with(total, || None);
    thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let mut slots = out.as_mut_slice();
        while !slots.is_empty() {
            let take = chunk.min(slots.len());
            let group: Vec<F> = jobs.by_ref().take(take).collect();
            let (head, tail) = slots.split_at_mut(take);
            slots = tail;
            s.spawn(move || {
                for (slot, job) in head.iter_mut().zip(group) {
                    *slot = Some(job());
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn mix(hash: u64, value: u64) -> u64 {
        (hash ^ value)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(27)
    }

    const LOOKAHEAD: SimDuration = SimDuration::from_millis(10);
    const SITES: u32 = 8;
    const EVENTS_PER_SITE: u64 = 200;

    struct ToySite {
        global: u32,
        rng: SimRng,
        hash: u64,
        count: u64,
    }

    struct ToyState {
        sites: Vec<ToySite>,
        local_of: Vec<Option<u32>>,
        sends: Vec<(u32, u32, SimTime, u64)>,
    }

    struct ToyWorld {
        sim: Simulation<ToyState>,
    }

    fn tick(sim: &mut Simulation<ToyState>, local: u32) {
        let now = sim.now();
        let site = &mut sim.state_mut().sites[local as usize];
        let draw = site.rng.next_u64();
        site.hash = mix(site.hash, draw ^ now.as_nanos());
        site.count += 1;
        let count = site.count;
        let global = site.global;
        if count.is_multiple_of(3) {
            // Latency between 1x and 3x the lookahead, never below it.
            let latency = SimDuration::from_nanos(LOOKAHEAD.as_nanos() * (1 + draw % 3));
            let dest = (global + 1) % SITES;
            let at = SimTime::from_nanos(now.as_nanos() + latency.as_nanos());
            sim.state_mut().sends.push((global, dest, at, draw));
        }
        if count < EVENTS_PER_SITE {
            let delay = SimDuration::from_micros(500 + draw % 7_000);
            sim.schedule_in(delay, move |sim| tick(sim, local));
        }
    }

    fn apply_msg(sim: &mut Simulation<ToyState>, delivery: Delivery<u64>) {
        let dest_global = (delivery.src + 1) % SITES;
        let dest_local =
            sim.state().local_of[dest_global as usize].expect("delivery routed to owning shard");
        let at = delivery.at;
        let site = &mut sim.state_mut().sites[dest_local as usize];
        site.hash = mix(site.hash, delivery.msg ^ at.as_nanos());
        if delivery.msg % 2 == 1 {
            sim.schedule_in(SimDuration::from_micros(250), move |sim| {
                let site = &mut sim.state_mut().sites[dest_local as usize];
                site.hash = mix(site.hash, 0xDEAD_BEEF);
            });
        }
    }

    impl ShardWorld for ToyWorld {
        type Msg = u64;

        fn advance(
            &mut self,
            horizon: SimTime,
            inbox: &mut Vec<Delivery<u64>>,
            outbox: &mut Outbox<u64>,
        ) {
            advance_simulation(&mut self.sim, horizon, inbox, apply_msg);
            let sends = std::mem::take(&mut self.sim.state_mut().sends);
            for (src, dest, at, msg) in sends {
                outbox.send(src, dest, at, msg);
            }
        }

        fn next_event_time(&self) -> Option<SimTime> {
            self.sim.next_event_time()
        }
    }

    fn build(shards: u32) -> TimeWindows<ToyWorld> {
        let site_shard = assign_blocks(SITES as usize, shards);
        let root = SimRng::seed(42).derive("toy");
        let mut worlds = Vec::new();
        for shard in 0..site_shard.iter().copied().max().unwrap() + 1 {
            let locals: Vec<u32> = (0..SITES)
                .filter(|&g| site_shard[g as usize] == shard)
                .collect();
            let mut local_of = vec![None; SITES as usize];
            let sites: Vec<ToySite> = locals
                .iter()
                .enumerate()
                .map(|(i, &global)| {
                    local_of[global as usize] = Some(i as u32);
                    ToySite {
                        global,
                        rng: root.derive("shard").derive_u64(u64::from(global)),
                        hash: u64::from(global),
                        count: 0,
                    }
                })
                .collect();
            let state = ToyState {
                sites,
                local_of,
                sends: Vec::new(),
            };
            let mut sim = Simulation::new(42 ^ u64::from(shard), state);
            for local in 0..sim.state().sites.len() as u32 {
                let offset = SimDuration::from_micros(
                    100 * u64::from(sim.state().sites[local as usize].global),
                );
                sim.schedule_in(offset, move |sim| tick(sim, local));
            }
            worlds.push(ToyWorld { sim });
        }
        TimeWindows::new(worlds, site_shard, LOOKAHEAD)
    }

    fn fingerprint(shards: u32, workers: usize) -> Vec<(u32, u64, u64)> {
        let mut windows = build(shards);
        windows.run(workers);
        let (worlds, stats) = windows.into_worlds();
        assert!(stats.windows > 0);
        let mut out: Vec<(u32, u64, u64)> = worlds
            .iter()
            .flat_map(|w| w.sim.state().sites.iter())
            .map(|s| (s.global, s.hash, s.count))
            .collect();
        out.sort_unstable_by_key(|&(g, _, _)| g);
        out
    }

    #[test]
    fn output_is_byte_identical_at_any_shard_count() {
        let baseline = fingerprint(1, 1);
        assert_eq!(baseline.len(), SITES as usize);
        for shards in [2, 3, 4, 8] {
            assert_eq!(fingerprint(shards, 1), baseline, "shards={shards}");
        }
    }

    #[test]
    fn worker_threads_do_not_change_the_output() {
        let baseline = fingerprint(4, 1);
        assert_eq!(fingerprint(4, 2), baseline);
        assert_eq!(fingerprint(4, 4), baseline);
    }

    #[test]
    fn messages_actually_cross_shards() {
        let mut windows = build(4);
        let stats = windows.run(1);
        assert!(stats.messages > 0, "toy model must exercise the outboxes");
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let windows = build(2);
        let (worlds, _) = windows.into_worlds();
        let site_shard = assign_blocks(SITES as usize, 2);
        let _ = TimeWindows::new(worlds, site_shard, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "only 2 shards exist")]
    fn out_of_range_site_assignment_is_rejected() {
        let windows = build(2);
        let (worlds, _) = windows.into_worlds();
        let _ = TimeWindows::new(worlds, vec![0, 1, 2], LOOKAHEAD);
    }

    #[test]
    fn assign_blocks_is_contiguous_and_balanced() {
        assert_eq!(assign_blocks(5, 2), vec![0, 0, 0, 1, 1]);
        assert_eq!(assign_blocks(4, 4), vec![0, 1, 2, 3]);
        assert_eq!(assign_blocks(3, 8), vec![0, 1, 2]);
        assert_eq!(assign_blocks(0, 3), Vec::<u32>::new());
        assert_eq!(assign_blocks(6, 1), vec![0; 6]);
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let expected: Vec<i32> = (0..17).map(|i| i * i).collect();
        assert_eq!(run_jobs(4, jobs), expected);
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        assert_eq!(run_jobs(1, jobs), expected);
    }

    #[test]
    fn worker_budget_nests_and_restores() {
        let outer = worker_budget();
        with_worker_budget(3, || {
            assert_eq!(worker_budget(), 3);
            with_worker_budget(1, || assert_eq!(worker_budget(), 1));
            assert_eq!(worker_budget(), 3);
        });
        assert_eq!(worker_budget(), outer);
    }

    #[test]
    fn outbox_sequences_per_source_site() {
        let mut outbox: Outbox<u64> = Outbox::new(3);
        outbox.send(0, 1, SimTime::from_secs(1), 10);
        outbox.send(2, 1, SimTime::from_secs(1), 20);
        outbox.send(0, 2, SimTime::from_secs(2), 30);
        let seqs: Vec<(u32, u64)> = outbox.staged.iter().map(|(_, d)| (d.src, d.seq)).collect();
        assert_eq!(seqs, vec![(0, 0), (2, 0), (0, 1)]);
    }
}
