//! Per-function admission: warm serving, bounded buffering, shedding,
//! cold-start grants and keepalive reaping — one tick at a time.
//!
//! The [`Invoker`] owns every sandbox of one function ([`RequestKind`]) and
//! advances in fluid ticks: a tick carries `demand` invocations, and the
//! invoker reports where each went ([`TickOutcome`]) while recording
//! latency into caller-owned histograms split by path — *warm* (an idle
//! sandbox picked the request up immediately) versus *cold* (the request
//! paid a cold start or waited in the buffer). The split is exactly the
//! cold/warm p95 decomposition experiment E17 reports.
//!
//! Tick order matters and is fixed: ready promotions, keepalive reaping,
//! warm serving (buffer drains before fresh arrivals), granted cold
//! starts (a sandbox whose cold start completes intra-tick serves a
//! prorated share), then buffer/shed of the remainder. Reaping runs
//! *before* serving so a gap longer than the keepalive window is a real
//! cold start — the reaper beat the request, which is the whole
//! scale-from-zero story.

use std::collections::VecDeque;
use std::fmt;

use elc_elearn::request::RequestKind;
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::keepalive::{FixedWindow, KeepalivePolicy};
use crate::profile::StartProfile;
use crate::TRACE_TARGET;

/// Construction errors for [`InvokerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokerError {
    /// The per-function concurrency limit must admit at least one sandbox.
    ZeroConcurrency,
    /// The invocation buffer capacity must not be negative.
    NegativeBuffer,
}

impl fmt::Display for InvokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokerError::ZeroConcurrency => {
                write!(f, "per-function concurrency limit must be >= 1")
            }
            InvokerError::NegativeBuffer => {
                write!(f, "invocation buffer capacity must be >= 0")
            }
        }
    }
}

/// Configuration of one function's invoker.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokerConfig {
    keepalive: KeepalivePolicy,
    concurrency_limit: u32,
    buffer_capacity: u64,
}

impl InvokerConfig {
    /// Validating constructor.
    ///
    /// # Errors
    ///
    /// Rejects a zero concurrency limit and a negative buffer capacity.
    pub fn try_new(
        keepalive: KeepalivePolicy,
        concurrency_limit: u32,
        buffer_capacity: i64,
    ) -> Result<Self, InvokerError> {
        if concurrency_limit == 0 {
            return Err(InvokerError::ZeroConcurrency);
        }
        if buffer_capacity < 0 {
            return Err(InvokerError::NegativeBuffer);
        }
        Ok(InvokerConfig {
            keepalive,
            concurrency_limit,
            buffer_capacity: buffer_capacity as u64,
        })
    }

    /// Panicking constructor; see [`InvokerConfig::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on the conditions `try_new` rejects.
    #[must_use]
    pub fn new(keepalive: KeepalivePolicy, concurrency_limit: u32, buffer_capacity: i64) -> Self {
        match Self::try_new(keepalive, concurrency_limit, buffer_capacity) {
            Ok(c) => c,
            Err(e) => panic!("invalid InvokerConfig: {e}"),
        }
    }

    /// Convenience: a fixed-window keepalive configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero window or the conditions `try_new` rejects.
    #[must_use]
    pub fn fixed_window(window: SimDuration, concurrency_limit: u32, buffer_capacity: i64) -> Self {
        Self::new(
            KeepalivePolicy::Fixed(FixedWindow::new(window)),
            concurrency_limit,
            buffer_capacity,
        )
    }

    /// The keepalive policy.
    #[must_use]
    pub fn keepalive(&self) -> &KeepalivePolicy {
        &self.keepalive
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

/// The per-function admission engine. See the module docs for tick order.
#[derive(Debug, Clone, PartialEq)]
pub struct Invoker {
    kind: RequestKind,
    config: InvokerConfig,
    containers: Vec<crate::Container>,
    buffer: VecDeque<Buffered>,
    buffered_count: u64,
    next_id: u64,
    started_total: u64,
    reaped_total: u64,
}

impl Invoker {
    /// Creates the invoker for one function.
    #[must_use]
    pub fn new(kind: RequestKind, config: InvokerConfig) -> Self {
        Invoker {
            kind,
            config,
            containers: Vec::new(),
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

    /// Live sandboxes (initializing, warm or idle).
    #[must_use]
    pub fn live(&self) -> u32 {
        self.containers.iter().filter(|c| c.is_live()).count() as u32
    }

    /// Sandboxes currently idle and ready to serve.
    #[must_use]
    pub fn idle(&self) -> u32 {
        self.containers
            .iter()
            .filter(|c| c.state() == crate::ContainerState::Idle)
            .count() as u32
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
    /// Initializing sandboxes die first, then idle ones; returns how many
    /// actually died. Sandboxes mid-invocation are not interrupted — at
    /// tick granularity they are between invocations by the time chaos is
    /// applied.
    pub fn kill(&mut self, count: u32) -> u32 {
        let mut killed = 0u32;
        for pass in [
            crate::ContainerState::Initializing,
            crate::ContainerState::Idle,
        ] {
            for c in &mut self.containers {
                if killed >= count {
                    break;
                }
                if c.state() == pass {
                    c.kill();
                    killed += 1;
                    self.reaped_total += 1;
                }
            }
        }
        self.containers.retain(crate::Container::is_live);
        killed
    }

    /// Advances one tick. `demand` invocations arrive uniformly across the
    /// tick, `grant` is the scaler's cold-start allowance, and latency is
    /// recorded into `warm_hist` / `cold_hist` in seconds (see the module
    /// docs for the path split). The tick's warm serves share one latency
    /// and are recorded together; the histograms' count, min/max and
    /// quantiles are those of one record per invocation, while their
    /// running mean and variance may differ in the last bits.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: SimTime,
        tick_len: SimDuration,
        demand: u64,
        grant: u32,
        spec: &StartProfile,
        rng: &mut SimRng,
        warm_hist: &mut Histogram,
        cold_hist: &mut Histogram,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();

        // 1. Cold starts from earlier ticks that have finished initializing.
        for c in &mut self.containers {
            c.poll_ready(now);
        }

        // 2. Keepalive reaping, before serving: if the idle gap outlived
        //    the window, the reaper beat this tick's demand.
        let window = self.config.keepalive.window();
        for c in &mut self.containers {
            if c.state() == crate::ContainerState::Idle
                && c.idle_since() <= now
                && now - c.idle_since() >= window
            {
                let idle_for = now - c.idle_since();
                c.reap();
                self.reaped_total += 1;
                out.reaped += 1;
                if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
                    elc_trace::instant(
                        now.as_nanos(),
                        TRACE_TARGET,
                        "container.reap",
                        Level::Debug,
                        &[
                            Field::str("kind", self.kind.to_string()),
                            Field::u64("container", c.id()),
                            Field::duration_ns("idle", idle_for.as_nanos()),
                        ],
                    );
                }
            }
        }
        self.containers.retain(crate::Container::is_live);

        // 3. Warm serving: each idle sandbox runs back-to-back invocations
        //    for the whole tick; buffered work drains before fresh. Every
        //    fresh warm serve has the same latency, so they are recorded
        //    once, after the loop.
        let per_invocation = spec.warm_start() + spec.service_time();
        let slots_per = (tick_len.as_nanos() / per_invocation.as_nanos()).max(1);
        let warm_latency = per_invocation.as_secs_f64();
        let mut fresh = demand;
        for i in 0..self.containers.len() {
            if self.buffered_count == 0 && fresh == 0 {
                break;
            }
            if self.containers[i].state() != crate::ContainerState::Idle {
                continue;
            }
            let gap = self.containers[i].begin_invocation(now);
            self.config.keepalive.observe_gap(gap);
            let mut slots = slots_per;
            // Buffered invocations: latency = wait + warm path.
            while slots > 0 && self.buffered_count > 0 {
                let head = self.buffer.front_mut().expect("buffered_count > 0");
                let n = head.count.min(slots);
                cold_hist.record_n((now - head.since).as_secs_f64() + warm_latency, n);
                out.served_cold += n;
                self.buffered_count -= n;
                head.count -= n;
                slots -= n;
                if head.count == 0 {
                    self.buffer.pop_front();
                }
            }
            let n = fresh.min(slots);
            out.served_warm += n;
            fresh -= n;
            self.containers[i].finish_invocation(now);
        }
        warm_hist.record_n(warm_latency, out.served_warm);

        // 4. Granted cold starts. A sandbox whose cold start completes
        //    within the tick serves a prorated share of the leftovers on
        //    the cold path.
        let headroom = self.config.concurrency_limit.saturating_sub(self.live());
        let starts = grant.min(headroom);
        for _ in 0..starts {
            let cold = spec.sample_cold_start(rng);
            let mut c = crate::Container::new(self.next_id);
            self.next_id += 1;
            c.start(now, cold);
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
                        Field::u64("container", c.id()),
                        Field::duration_ns("cold_start", cold.as_nanos()),
                    ],
                );
            }
            if cold < tick_len {
                let ready = now + cold;
                c.poll_ready(ready);
                let share = 1.0 - cold.as_secs_f64() / tick_len.as_secs_f64();
                let mut slots = (slots_per as f64 * share) as u64;
                if slots > 0 && (self.buffered_count > 0 || fresh > 0) {
                    c.begin_invocation(ready);
                    let cold_latency = cold.as_secs_f64() + warm_latency;
                    while slots > 0 && self.buffered_count > 0 {
                        let head = self.buffer.front_mut().expect("buffered_count > 0");
                        let n = head.count.min(slots);
                        cold_hist.record_n((now - head.since).as_secs_f64() + cold_latency, n);
                        out.served_cold += n;
                        self.buffered_count -= n;
                        head.count -= n;
                        slots -= n;
                        if head.count == 0 {
                            self.buffer.pop_front();
                        }
                    }
                    let n = fresh.min(slots);
                    if n > 0 {
                        cold_hist.record_n(cold_latency, n);
                        out.served_cold += n;
                        fresh -= n;
                    }
                    c.finish_invocation(ready);
                }
            }
            self.containers.push(c);
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_secs(60);

    fn config(buffer: i64) -> InvokerConfig {
        InvokerConfig::fixed_window(SimDuration::from_mins(5), 1_000, buffer)
    }

    fn spec() -> StartProfile {
        StartProfile::new(
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_secs_f64(0.003),
            SimDuration::from_secs_f64(0.2),
            0.256,
        )
    }

    fn rng() -> SimRng {
        SimRng::seed(42).derive("invoker-test")
    }

    #[test]
    fn try_new_rejects_zero_concurrency() {
        let keepalive = KeepalivePolicy::Fixed(FixedWindow::new(SimDuration::from_mins(5)));
        let err = InvokerConfig::try_new(keepalive, 0, 10).unwrap_err();
        assert_eq!(
            err.to_string(),
            "per-function concurrency limit must be >= 1"
        );
    }

    #[test]
    fn try_new_rejects_negative_buffer() {
        let keepalive = KeepalivePolicy::Fixed(FixedWindow::new(SimDuration::from_mins(5)));
        let err = InvokerConfig::try_new(keepalive, 4, -1).unwrap_err();
        assert_eq!(err.to_string(), "invocation buffer capacity must be >= 0");
    }

    #[test]
    fn scale_from_zero_serves_on_the_cold_path() {
        let mut inv = Invoker::new(RequestKind::QuizSubmit, config(1_000));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let out = inv.tick(
            SimTime::ZERO,
            TICK,
            100,
            2,
            &spec(),
            &mut rng(),
            &mut warm,
            &mut cold,
        );
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
        let mut inv = Invoker::new(RequestKind::CoursePage, config(1_000));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let s = spec();
        let mut r = rng();
        inv.tick(SimTime::ZERO, TICK, 50, 1, &s, &mut r, &mut warm, &mut cold);
        let out = inv.tick(
            SimTime::ZERO + TICK,
            TICK,
            50,
            0,
            &s,
            &mut r,
            &mut warm,
            &mut cold,
        );
        assert_eq!(out.cold_starts, 0);
        assert_eq!(out.served_warm, 50);
        let warm_p95 = warm.p95();
        assert!(
            warm_p95 < 0.5,
            "warm path should be sub-second, got {warm_p95}"
        );
    }

    #[test]
    fn overflow_buffers_then_sheds() {
        let mut inv = Invoker::new(RequestKind::Login, config(30));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        // No grant: nothing can serve, so demand splits buffer/shed.
        let out = inv.tick(
            SimTime::ZERO,
            TICK,
            100,
            0,
            &spec(),
            &mut rng(),
            &mut warm,
            &mut cold,
        );
        assert_eq!(out.buffered, 30);
        assert_eq!(out.shed, 70);
        assert_eq!(inv.buffered(), 30);
        assert_eq!(inv.abandon_buffer(), 30);
        assert_eq!(inv.buffered(), 0);
    }

    #[test]
    fn buffered_work_drains_with_queueing_delay() {
        let mut inv = Invoker::new(RequestKind::QuizFetch, config(500));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let s = spec();
        let mut r = rng();
        inv.tick(SimTime::ZERO, TICK, 40, 0, &s, &mut r, &mut warm, &mut cold);
        assert_eq!(inv.buffered(), 40);
        let out = inv.tick(
            SimTime::ZERO + TICK,
            TICK,
            0,
            1,
            &s,
            &mut r,
            &mut warm,
            &mut cold,
        );
        assert_eq!(out.served_cold, 40, "buffer drains through the new sandbox");
        assert_eq!(inv.buffered(), 0);
        // Waited a full tick: latency must exceed 60 s.
        assert!(cold.min_max().unwrap().0 > TICK.as_secs_f64());
    }

    #[test]
    fn idle_sandboxes_are_reaped_after_the_window() {
        let mut inv = Invoker::new(RequestKind::ForumRead, config(100));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let s = spec();
        let mut r = rng();
        inv.tick(SimTime::ZERO, TICK, 10, 1, &s, &mut r, &mut warm, &mut cold);
        assert_eq!(inv.live(), 1);
        // Six quiet minutes later the 5-minute window has expired.
        let later = SimTime::ZERO + SimDuration::from_mins(6);
        let out = inv.tick(later, TICK, 0, 0, &s, &mut r, &mut warm, &mut cold);
        assert_eq!(out.reaped, 1);
        assert_eq!(inv.live(), 0);
        assert_eq!(inv.started_total(), 1);
        assert_eq!(inv.reaped_total(), 1);
    }

    #[test]
    fn adaptive_keepalive_reaps_on_a_learned_clock() {
        use crate::keepalive::AdaptiveKeepalive;
        // An adaptive policy that has learned ~30 s reuse gaps sits at
        // its 1-minute floor; the classic window is five minutes.
        let fixed_cfg = InvokerConfig::fixed_window(SimDuration::from_mins(5), 10, 100);
        let mut learned =
            AdaptiveKeepalive::new(0.95, SimDuration::from_mins(1), SimDuration::from_mins(20));
        for _ in 0..100 {
            learned.observe_gap(SimDuration::from_secs(30));
        }
        let adaptive_cfg = InvokerConfig::new(KeepalivePolicy::Adaptive(learned), 10, 100);
        let s = spec();
        for (cfg, expect_reaped) in [(fixed_cfg, 0), (adaptive_cfg, 1)] {
            let mut inv = Invoker::new(RequestKind::ForumRead, cfg);
            let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
            let mut r = rng();
            inv.tick(SimTime::ZERO, TICK, 10, 1, &s, &mut r, &mut warm, &mut cold);
            assert_eq!(inv.live(), 1);
            // Two quiet minutes: inside the fixed window, beyond the
            // learned one — only the adaptive reaper fires.
            let later = SimTime::ZERO + SimDuration::from_mins(2);
            let out = inv.tick(later, TICK, 0, 0, &s, &mut r, &mut warm, &mut cold);
            assert_eq!(
                out.reaped, expect_reaped,
                "reap timing must follow the policy"
            );
        }
    }

    #[test]
    fn kill_takes_down_live_sandboxes() {
        let mut inv = Invoker::new(RequestKind::VideoChunk, config(100));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let s = spec();
        let mut r = rng();
        inv.tick(
            SimTime::ZERO,
            TICK,
            500,
            4,
            &s,
            &mut r,
            &mut warm,
            &mut cold,
        );
        let live = inv.live();
        assert!(live >= 2);
        let killed = inv.kill(2);
        assert_eq!(killed, 2);
        assert_eq!(inv.live(), live - 2);
        assert_eq!(inv.reaped_total(), 2);
    }

    #[test]
    fn concurrency_limit_caps_grants() {
        let keepalive = KeepalivePolicy::Fixed(FixedWindow::new(SimDuration::from_mins(30)));
        let cfg = InvokerConfig::new(keepalive, 3, 10_000);
        let mut inv = Invoker::new(RequestKind::Upload, cfg);
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let out = inv.tick(
            SimTime::ZERO,
            TICK,
            10_000,
            50,
            &spec(),
            &mut rng(),
            &mut warm,
            &mut cold,
        );
        assert_eq!(out.cold_starts, 3);
        assert_eq!(inv.live(), 3);
    }

    #[test]
    fn outcome_always_conserves_demand() {
        let mut inv = Invoker::new(RequestKind::ForumPost, config(200));
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let s = spec();
        let mut r = rng();
        let mut now = SimTime::ZERO;
        for step in 0..50u64 {
            let demand = (step * 37) % 400;
            let before = inv.buffered();
            let out = inv.tick(now, TICK, demand, 1, &s, &mut r, &mut warm, &mut cold);
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
