//! Per-function admission: warm serving, bounded buffering, shedding,
//! cold-start grants and keepalive reaping — one tick at a time.
//!
//! The [`Invoker`] owns every sandbox of one function ([`RequestKind`]) and
//! advances in fluid ticks of a fixed length: a tick carries `demand`
//! invocations, and the invoker reports where each went ([`TickOutcome`])
//! while latency is split by path — *warm* (an idle sandbox picked the
//! request up immediately) versus *cold* (the request paid a cold start or
//! waited in the buffer). The split is exactly the cold/warm p95
//! decomposition experiment E17 reports. Cold latencies go into a
//! caller-owned histogram as each tick runs. Every warm serve has the same
//! latency, the function's warm start plus its service time, so the
//! invoker only counts them, and [`Invoker::record_warm`] records the count
//! at once.
//!
//! A sandbox is *initializing* while it pays its cold start and *idle*
//! (ready to serve) once it has; between ticks no sandbox is mid-invocation.
//! Its clock is when it becomes ready or, once idle, when it last went
//! idle: the keepalive clock. The invoker holds its sandboxes as *runs*,
//! neighbours in creation order that share their state and their clock,
//! because such sandboxes act alike on every tick. A tick therefore costs
//! one step per run, not per sandbox: a busy function's hundreds of
//! sandboxes fall into a few runs, split by their last serve or their
//! cold start.
//!
//! Tick order matters and is fixed: ready promotions, keepalive reaping,
//! warm serving (buffer drains before fresh arrivals), granted cold
//! starts (a sandbox whose cold start completes intra-tick serves a
//! prorated share), then buffer/shed of the remainder. Reaping runs
//! *before* serving so a gap longer than the keepalive window is a real
//! cold start — the reaper beat the request, which is the whole
//! scale-from-zero story.

use std::collections::VecDeque;

use elc_elearn::request::RequestKind;
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::keepalive::FixedWindow;
use crate::profile::StartProfile;
use crate::TRACE_TARGET;

/// Configuration of one function's invoker.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokerConfig {
    keepalive: FixedWindow,
    concurrency_limit: u32,
    buffer_capacity: u64,
}

impl InvokerConfig {
    /// A configuration admitting `concurrency_limit` live sandboxes and
    /// `buffer_capacity` buffered invocations.
    ///
    /// # Panics
    ///
    /// Panics on a zero concurrency limit and a negative buffer capacity.
    #[must_use]
    pub fn new(keepalive: FixedWindow, concurrency_limit: u32, buffer_capacity: i64) -> Self {
        assert!(
            concurrency_limit != 0,
            "invalid InvokerConfig: per-function concurrency limit must be >= 1"
        );
        assert!(
            buffer_capacity >= 0,
            "invalid InvokerConfig: invocation buffer capacity must be >= 0"
        );
        InvokerConfig {
            keepalive,
            concurrency_limit,
            buffer_capacity: buffer_capacity as u64,
        }
    }

    /// The keepalive window.
    #[must_use]
    pub fn keepalive(&self) -> FixedWindow {
        self.keepalive
    }

    /// Max live sandboxes for this function.
    #[must_use]
    pub fn concurrency_limit(&self) -> u32 {
        self.concurrency_limit
    }

    /// Max buffered invocations.
    #[must_use]
    pub fn buffer_capacity(&self) -> u64 {
        self.buffer_capacity
    }
}

/// Where one tick's invocations went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickOutcome {
    /// Served immediately by an already-warm sandbox.
    pub served_warm: u64,
    /// Served on the cold path: behind a fresh cold start, or drained
    /// from the buffer after waiting.
    pub served_cold: u64,
    /// Parked in the bounded buffer.
    pub buffered: u64,
    /// Rejected: no capacity, no buffer space.
    pub shed: u64,
    /// Sandboxes that began a cold start this tick.
    pub cold_starts: u64,
    /// Idle sandboxes reclaimed by keepalive this tick.
    pub reaped: u64,
}

/// One buffered batch: arrival time and how many invocations it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Buffered {
    since: SimTime,
    count: u64,
}

/// Sandboxes adjacent in creation order that share their state and clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Sandboxes in the run, at least one.
    len: u32,
    /// Still paying the cold start; otherwise idle.
    initializing: bool,
    /// When an initializing run becomes ready, or when an idle run last
    /// went idle.
    since: SimTime,
}

/// The per-function admission engine. See the module docs for tick order.
///
/// The runs are kept merged: no two neighbours are alike, so two invokers
/// of one function compare equal exactly when their fleets and their
/// unrecorded warm serves do.
#[derive(Debug, Clone, PartialEq)]
pub struct Invoker {
    kind: RequestKind,
    config: InvokerConfig,
    profile: StartProfile,
    tick_len: SimDuration,
    /// `tick_len` in seconds.
    tick_s: f64,
    /// Invocations one sandbox serves back to back in a tick, at least one.
    slots_per: u64,
    /// Warm start plus service time, in seconds.
    warm_latency: f64,
    /// Warm serves since the last [`Invoker::record_warm`].
    unrecorded_warm: u64,
    /// The live sandboxes, in creation order.
    runs: Vec<Run>,
    /// Live sandbox ids in creation order, partitioned by `runs`.
    ids: Vec<u64>,
    live: u32,
    buffer: VecDeque<Buffered>,
    buffered_count: u64,
    next_id: u64,
    started_total: u64,
    reaped_total: u64,
}

impl Invoker {
    /// Creates the invoker for one function with start profile `profile`,
    /// advancing `tick_len` per [`tick`](Self::tick).
    #[must_use]
    pub fn new(
        kind: RequestKind,
        config: InvokerConfig,
        profile: StartProfile,
        tick_len: SimDuration,
    ) -> Self {
        // Each serving sandbox runs back-to-back invocations for the whole
        // tick.
        let per_invocation = profile.warm_start() + profile.service_time();
        Invoker {
            kind,
            config,
            profile,
            tick_len,
            tick_s: tick_len.as_secs_f64(),
            slots_per: (tick_len.as_nanos() / per_invocation.as_nanos()).max(1),
            warm_latency: per_invocation.as_secs_f64(),
            unrecorded_warm: 0,
            runs: Vec::new(),
            ids: Vec::new(),
            live: 0,
            buffer: VecDeque::new(),
            buffered_count: 0,
            next_id: 0,
            started_total: 0,
            reaped_total: 0,
        }
    }

    /// The function this invoker serves.
    #[must_use]
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Live sandboxes (initializing or idle).
    #[must_use]
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Sandboxes currently idle and ready to serve.
    #[must_use]
    pub fn idle(&self) -> u32 {
        self.runs
            .iter()
            .filter(|r| !r.initializing)
            .map(|r| r.len)
            .sum()
    }

    /// Invocations currently parked in the buffer.
    #[must_use]
    pub fn buffered(&self) -> u64 {
        self.buffered_count
    }

    /// Sandboxes ever cold-started.
    #[must_use]
    pub fn started_total(&self) -> u64 {
        self.started_total
    }

    /// Sandboxes ever reaped.
    #[must_use]
    pub fn reaped_total(&self) -> u64 {
        self.reaped_total
    }

    /// Records the warm serves since the last call into `warm_hist`, all at
    /// the warm latency, in seconds. Its count, min/max and quantiles are
    /// those of one record per invocation, while its running mean and
    /// variance may differ in the last bits.
    pub fn record_warm(&mut self, warm_hist: &mut Histogram) {
        warm_hist.record_n(self.warm_latency, self.unrecorded_warm);
        self.unrecorded_warm = 0;
    }

    /// Empties the buffer (end-of-run accounting: the abandoned
    /// invocations become `GaveUp` in the caller's books) and returns how
    /// many were waiting.
    pub fn abandon_buffer(&mut self) -> u64 {
        let n = self.buffered_count;
        self.buffer.clear();
        self.buffered_count = 0;
        n
    }

    /// Kills `count` live sandboxes (chaos: host crashes under a cascade).
    /// Initializing sandboxes die first, then idle ones, each oldest
    /// first; returns how many actually died. Sandboxes mid-invocation are
    /// not interrupted — at tick granularity they are between invocations
    /// by the time chaos is applied.
    pub fn kill(&mut self, count: u32) -> u32 {
        let mut left = count;
        for initializing in [true, false] {
            let mut at = 0;
            for run in &mut self.runs {
                if left == 0 {
                    break;
                }
                if run.initializing == initializing {
                    let k = run.len.min(left);
                    self.ids.drain(at..at + k as usize);
                    run.len -= k;
                    left -= k;
                }
                at += run.len as usize;
            }
        }
        let killed = count - left;
        self.runs.retain(|r| r.len > 0);
        self.merge_runs();
        self.live -= killed;
        self.reaped_total += u64::from(killed);
        killed
    }

    /// Advances one tick from `now`. `demand` invocations arrive uniformly
    /// across the tick, and `grant` is the scaler's cold-start allowance.
    /// Cold-path latency is recorded into `cold_hist` in seconds, and warm
    /// serves are counted for [`record_warm`](Self::record_warm) (see the
    /// module docs for the path split). Invocations that share a latency
    /// are recorded together, a buffered batch at once per path; the
    /// histogram's count, min/max and quantiles are those of one record
    /// per invocation, while its running mean and variance may differ in
    /// the last bits.
    pub fn tick(
        &mut self,
        now: SimTime,
        demand: u64,
        grant: u32,
        rng: &mut SimRng,
        cold_hist: &mut Histogram,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();

        // 1–2. Ready promotions, then keepalive reaping before serving: if
        //      the idle gap outlived the window, the reaper beat this
        //      tick's demand.
        self.promote_and_reap(now, &mut out);

        // 3. Warm serving: each serving sandbox runs back-to-back
        //    invocations for the whole tick; buffered work drains before
        //    fresh, and every fresh warm serve has the same latency.
        let (slots_per, warm_latency) = (self.slots_per, self.warm_latency);
        let mut fresh = demand;
        let waiting = u128::from(self.buffered_count) + u128::from(fresh);
        let taken = self.occupy_idle(now, waiting, slots_per);
        let drained = self.drain(
            now,
            u64::try_from(taken).unwrap_or(u64::MAX),
            warm_latency,
            cold_hist,
            &mut out,
        );
        // `taken` covers the buffer first, so what is left of it is fresh.
        out.served_warm = (taken - u128::from(drained)) as u64;
        fresh -= out.served_warm;
        self.unrecorded_warm += out.served_warm;

        // 4. Granted cold starts. A sandbox whose cold start completes
        //    within the tick serves a prorated share of the leftovers on
        //    the cold path.
        let starts = grant.min(self.config.concurrency_limit.saturating_sub(self.live));
        for _ in 0..starts {
            let cold = self.profile.sample_cold_start(rng);
            let id = self.next_id;
            self.next_id += 1;
            self.started_total += 1;
            out.cold_starts += 1;
            if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    "container.cold_start",
                    Level::Debug,
                    &[
                        Field::str("kind", self.kind.to_string()),
                        Field::u64("container", id),
                        Field::duration_ns("cold_start", cold.as_nanos()),
                    ],
                );
            }
            if cold < self.tick_len {
                let share = 1.0 - cold.as_secs_f64() / self.tick_s;
                let slots = (slots_per as f64 * share) as u64;
                let cold_latency = cold.as_secs_f64() + warm_latency;
                let drained = self.drain(now, slots, cold_latency, cold_hist, &mut out);
                let n = fresh.min(slots - drained);
                cold_hist.record_n(cold_latency, n);
                out.served_cold += n;
                fresh -= n;
            }
            // Served or not, it is ready, and idle, from `now + cold` on.
            self.runs.push(Run {
                len: 1,
                initializing: cold >= self.tick_len,
                since: now + cold,
            });
            self.ids.push(id);
            self.live += 1;
        }
        self.merge_runs();

        // 5. Leftover fresh demand: buffer what fits, shed the rest.
        let space = self.config.buffer_capacity - self.buffered_count;
        let to_buffer = fresh.min(space);
        if to_buffer > 0 {
            self.buffer.push_back(Buffered {
                since: now,
                count: to_buffer,
            });
            self.buffered_count += to_buffer;
            out.buffered = to_buffer;
            fresh -= to_buffer;
            if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    "invoke.buffered",
                    Level::Debug,
                    &[
                        Field::str("kind", self.kind.to_string()),
                        Field::u64("count", to_buffer),
                        Field::u64("depth", self.buffered_count),
                    ],
                );
            }
        }
        if fresh > 0 {
            out.shed = fresh;
            if elc_trace::enabled(TRACE_TARGET, Level::Info) {
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    "invoke.shed",
                    Level::Info,
                    &[
                        Field::str("kind", self.kind.to_string()),
                        Field::u64("count", fresh),
                    ],
                );
            }
        }
        out
    }

    /// Promotes the initializing runs that are ready by `now`, then reaps
    /// the idle runs whose keepalive window has run out, tracing one
    /// `container.reap` per sandbox in creation order.
    fn promote_and_reap(&mut self, now: SimTime, out: &mut TickOutcome) {
        let window = self.config.keepalive.window();
        let (mut kept, mut at, mut ids_kept) = (0, 0, 0);
        for i in 0..self.runs.len() {
            let mut run = self.runs[i];
            let n = run.len as usize;
            if run.initializing && now >= run.since {
                run.initializing = false;
            }
            if !run.initializing && run.since <= now && now - run.since >= window {
                self.live -= run.len;
                self.reaped_total += u64::from(run.len);
                out.reaped += u64::from(run.len);
                if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
                    let idle_for = now - run.since;
                    for &id in &self.ids[at..at + n] {
                        elc_trace::instant(
                            now.as_nanos(),
                            TRACE_TARGET,
                            "container.reap",
                            Level::Debug,
                            &[
                                Field::str("kind", self.kind.to_string()),
                                Field::u64("container", id),
                                Field::duration_ns("idle", idle_for.as_nanos()),
                            ],
                        );
                    }
                }
            } else {
                if ids_kept != at {
                    self.ids.copy_within(at..at + n, ids_kept);
                }
                ids_kept += n;
                self.runs[kept] = run;
                kept += 1;
            }
            at += n;
        }
        self.runs.truncate(kept);
        self.ids.truncate(ids_kept);
    }

    /// Puts the first idle sandboxes in creation order to work on
    /// `waiting` invocations, `slots_per` each, and returns how many of
    /// them they take. A sandbox serves when work is still waiting for
    /// it, so the serving sandboxes are a prefix of the idle ones; their
    /// clock restarts at `now`, and at most the last serving run splits.
    fn occupy_idle(&mut self, now: SimTime, waiting: u128, slots_per: u64) -> u128 {
        let slots_per = u128::from(slots_per);
        let mut left = waiting;
        let mut i = 0;
        while left > 0 && i < self.runs.len() {
            let run = &mut self.runs[i];
            i += 1;
            if run.initializing {
                continue;
            }
            let capacity = u128::from(run.len) * slots_per;
            if capacity - slots_per < left {
                // Work waits for every sandbox in the run, the last one too.
                run.since = now;
                left = left.saturating_sub(capacity);
            } else {
                let serving = left.div_ceil(slots_per) as u32;
                run.len -= serving;
                self.runs.insert(
                    i - 1,
                    Run {
                        len: serving,
                        initializing: false,
                        since: now,
                    },
                );
                left = 0;
            }
        }
        waiting - left
    }

    /// Serves buffered batches, oldest first, into up to `slots` slots and
    /// returns how many it served. Each batch is recorded at once: it
    /// waited since its arrival on top of `latency`.
    fn drain(
        &mut self,
        now: SimTime,
        mut slots: u64,
        latency: f64,
        cold_hist: &mut Histogram,
        out: &mut TickOutcome,
    ) -> u64 {
        let mut drained = 0;
        while slots > 0 && self.buffered_count > 0 {
            let head = self.buffer.front_mut().expect("buffered_count > 0");
            let n = head.count.min(slots);
            cold_hist.record_n((now - head.since).as_secs_f64() + latency, n);
            out.served_cold += n;
            self.buffered_count -= n;
            head.count -= n;
            slots -= n;
            drained += n;
            if head.count == 0 {
                self.buffer.pop_front();
            }
        }
        drained
    }

    /// Merges alike neighbouring runs.
    fn merge_runs(&mut self) {
        self.runs.dedup_by(|later, earlier| {
            let alike = later.initializing == earlier.initializing && later.since == earlier.since;
            if alike {
                earlier.len += later.len;
            }
            alike
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_secs(60);

    fn config(buffer: i64) -> InvokerConfig {
        InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(5)), 1_000, buffer)
    }

    fn spec() -> StartProfile {
        StartProfile::new(
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_secs_f64(0.003),
            SimDuration::from_secs_f64(0.2),
            0.256,
        )
    }

    fn invoker(kind: RequestKind, config: InvokerConfig) -> Invoker {
        Invoker::new(kind, config, spec(), TICK)
    }

    fn rng() -> SimRng {
        SimRng::seed(42).derive("invoker-test")
    }

    #[test]
    #[should_panic(expected = "invalid InvokerConfig: per-function concurrency limit must be >= 1")]
    fn new_rejects_zero_concurrency() {
        let _ = InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(5)), 0, 10);
    }

    #[test]
    #[should_panic(expected = "invalid InvokerConfig: invocation buffer capacity must be >= 0")]
    fn new_rejects_negative_buffer() {
        let _ = InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(5)), 4, -1);
    }

    #[test]
    fn scale_from_zero_serves_on_the_cold_path() {
        let mut inv = invoker(RequestKind::QuizSubmit, config(1_000));
        let mut cold = Histogram::new();
        let out = inv.tick(SimTime::ZERO, 100, 2, &mut rng(), &mut cold);
        assert_eq!(out.cold_starts, 2);
        assert_eq!(out.served_warm, 0, "nothing was warm at t=0");
        assert!(out.served_cold > 0);
        assert_eq!(
            out.served_warm + out.served_cold + out.buffered + out.shed,
            100
        );
        assert!(cold.min_max().unwrap().0 > spec().service_time().as_secs_f64());
    }

    #[test]
    fn warm_sandboxes_serve_next_tick_cheaply() {
        let mut inv = invoker(RequestKind::CoursePage, config(1_000));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let mut r = rng();
        inv.tick(SimTime::ZERO, 50, 1, &mut r, &mut cold);
        let out = inv.tick(SimTime::ZERO + TICK, 50, 0, &mut r, &mut cold);
        assert_eq!(out.cold_starts, 0);
        assert_eq!(out.served_warm, 50);
        inv.record_warm(&mut warm);
        assert_eq!(warm.count(), 50);
        let warm_p95 = warm.p95();
        assert!(
            warm_p95 < 0.5,
            "warm path should be sub-second, got {warm_p95}"
        );
        // Recorded once: the count starts again from zero.
        inv.record_warm(&mut warm);
        assert_eq!(warm.count(), 50);
    }

    #[test]
    fn overflow_buffers_then_sheds() {
        let mut inv = invoker(RequestKind::Login, config(30));
        let mut cold = Histogram::new();
        // No grant: nothing can serve, so demand splits buffer/shed.
        let out = inv.tick(SimTime::ZERO, 100, 0, &mut rng(), &mut cold);
        assert_eq!(out.buffered, 30);
        assert_eq!(out.shed, 70);
        assert_eq!(inv.buffered(), 30);
        assert_eq!(inv.abandon_buffer(), 30);
        assert_eq!(inv.buffered(), 0);
    }

    #[test]
    fn buffered_work_drains_with_queueing_delay() {
        let mut inv = invoker(RequestKind::QuizFetch, config(500));
        let mut cold = Histogram::new();
        let mut r = rng();
        inv.tick(SimTime::ZERO, 40, 0, &mut r, &mut cold);
        assert_eq!(inv.buffered(), 40);
        let out = inv.tick(SimTime::ZERO + TICK, 0, 1, &mut r, &mut cold);
        assert_eq!(out.served_cold, 40, "buffer drains through the new sandbox");
        assert_eq!(inv.buffered(), 0);
        // Waited a full tick: latency must exceed 60 s.
        assert!(cold.min_max().unwrap().0 > TICK.as_secs_f64());
    }

    #[test]
    fn idle_sandboxes_are_reaped_after_the_window() {
        let mut inv = invoker(RequestKind::ForumRead, config(100));
        let mut cold = Histogram::new();
        let mut r = rng();
        inv.tick(SimTime::ZERO, 10, 1, &mut r, &mut cold);
        assert_eq!(inv.live(), 1);
        // Six quiet minutes later the 5-minute window has expired.
        let later = SimTime::ZERO + SimDuration::from_mins(6);
        let out = inv.tick(later, 0, 0, &mut r, &mut cold);
        assert_eq!(out.reaped, 1);
        assert_eq!(inv.live(), 0);
        assert_eq!(inv.started_total(), 1);
        assert_eq!(inv.reaped_total(), 1);
    }

    #[test]
    fn kill_takes_down_live_sandboxes() {
        let mut inv = invoker(RequestKind::VideoChunk, config(100));
        let mut cold = Histogram::new();
        inv.tick(SimTime::ZERO, 500, 4, &mut rng(), &mut cold);
        let live = inv.live();
        assert!(live >= 2);
        let killed = inv.kill(2);
        assert_eq!(killed, 2);
        assert_eq!(inv.live(), live - 2);
        assert_eq!(inv.reaped_total(), 2);
    }

    #[test]
    fn concurrency_limit_caps_grants() {
        let cfg = InvokerConfig::new(FixedWindow::new(SimDuration::from_mins(30)), 3, 10_000);
        let mut inv = invoker(RequestKind::Upload, cfg);
        let mut cold = Histogram::new();
        let out = inv.tick(SimTime::ZERO, 10_000, 50, &mut rng(), &mut cold);
        assert_eq!(out.cold_starts, 3);
        assert_eq!(inv.live(), 3);
    }

    #[test]
    fn outcome_always_conserves_demand() {
        let mut inv = invoker(RequestKind::ForumPost, config(200));
        let mut cold = Histogram::new();
        let mut r = rng();
        let mut now = SimTime::ZERO;
        for step in 0..50u64 {
            let demand = (step * 37) % 400;
            let before = inv.buffered();
            let out = inv.tick(now, demand, 1, &mut r, &mut cold);
            let drained = before - (inv.buffered() - out.buffered);
            assert_eq!(
                out.served_warm + out.served_cold + out.buffered + out.shed,
                demand + drained,
                "tick {step}: flow must balance"
            );
            now += TICK;
        }
    }
}
