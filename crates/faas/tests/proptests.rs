//! Seed-derived property tests: container-count invariants under random
//! invoke/reap interleavings.
//!
//! Each case derives its own [`SimRng`] stream from the case index, draws
//! a random invoker configuration and a random demand/grant/chaos walk,
//! and checks the bookkeeping that the fluid model leans on:
//!
//! * warm hits never exceed what the live warm sandboxes could serve,
//! * sandboxes are conserved (`started == live + reaped`),
//! * the per-function concurrency cap and buffer capacity hold,
//! * per-tick flow balances (`demand + drained == served + buffered +
//!   shed`),
//! * and — via the `Container::reap` state assertion — a keepalive
//!   window shorter than a tick never reaps a sandbox mid-invocation:
//!   any violation panics the walk.
//!
//! A third walk checks the invoker's one-record-per-tick warm path
//! against [`PerSandbox`], a reference that records each serving
//! sandbox's warm invocations on its own.

use std::collections::VecDeque;

use elc_elearn::request::RequestKind;
use elc_faas::{
    ColdStartProfile, Container, ContainerState, FixedWindow, Invoker, InvokerConfig, StartProfile,
    TickOutcome,
};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

const TICK: SimDuration = SimDuration::from_secs(60);
const CASES: u64 = 150;
const TICKS_PER_CASE: u64 = 120;

/// A random invoker configuration: half the keepalive windows are
/// shorter than a tick, half a tick or longer.
fn random_config(rng: &mut SimRng) -> InvokerConfig {
    let window = if rng.chance(0.5) {
        rng.range_u64(1, 59)
    } else {
        rng.range_u64(60, 900)
    };
    let keepalive = FixedWindow::new(SimDuration::from_secs(window));
    let concurrency = rng.range_u64(1, 40) as u32;
    let buffer = rng.range_u64(0, 500) as i64;
    InvokerConfig::new(keepalive, concurrency, buffer)
}

#[test]
fn random_interleavings_preserve_container_invariants() {
    let root = SimRng::seed(0xFAA5).derive("proptests");
    for case in 0..CASES {
        let mut rng = root.derive_u64(case);
        let kind = *rng.pick(&RequestKind::ALL).expect("non-empty");
        let config = random_config(&mut rng);
        let cap = u64::from(config.concurrency_limit());
        let buffer_cap = config.buffer_capacity();
        let spec = *ColdStartProfile::standard().get(kind);
        let slots_per =
            (TICK.as_nanos() / (spec.warm_start() + spec.service_time()).as_nanos()).max(1);

        let mut invoker = Invoker::new(kind, config);
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let mut now = SimTime::ZERO;
        for tick in 0..TICKS_PER_CASE {
            // Bursty demand: quiet stretches force reaps, spikes force
            // cold starts and buffering.
            let demand = if rng.chance(0.3) {
                0
            } else {
                rng.range_u64(0, 40 * slots_per)
            };
            let grant = rng.range_u64(0, 10) as u32;
            // Warm serving only ever uses sandboxes that were live at
            // tick start (fresh cold starts serve on the cold path), so
            // live-at-entry bounds the warm capacity.
            let live_before = u64::from(invoker.live());
            let buffered_before = invoker.buffered();

            let out = invoker.tick(
                now, TICK, demand, grant, &spec, &mut rng, &mut warm, &mut cold,
            );

            assert!(
                out.served_warm <= live_before * slots_per,
                "case {case} tick {tick}: {} warm hits from {live_before} live sandboxes",
                out.served_warm
            );
            // Concurrency cap and buffer capacity hold.
            assert!(
                u64::from(invoker.live()) <= cap,
                "case {case} tick {tick}: live {} over cap {cap}",
                invoker.live()
            );
            assert!(
                invoker.buffered() <= buffer_cap,
                "case {case} tick {tick}: buffer {} over cap {buffer_cap}",
                invoker.buffered()
            );
            // Sandbox conservation.
            assert_eq!(
                invoker.started_total(),
                u64::from(invoker.live()) + invoker.reaped_total(),
                "case {case} tick {tick}: sandboxes leaked"
            );
            // Flow balance: everything that arrived or drained is
            // accounted for.
            let drained = buffered_before + out.buffered - invoker.buffered();
            assert_eq!(
                out.served_warm + out.served_cold + out.buffered + out.shed,
                demand + drained,
                "case {case} tick {tick}: flow imbalance"
            );

            // Occasional chaos: kill a few sandboxes between ticks. The
            // Container state machine panics if a kill or reap ever hits
            // a sandbox mid-invocation.
            if rng.chance(0.1) {
                invoker.kill(rng.range_u64(1, 5) as u32);
                assert_eq!(
                    invoker.started_total(),
                    u64::from(invoker.live()) + invoker.reaped_total(),
                    "case {case} tick {tick}: kill broke conservation"
                );
            }
            now += TICK;
        }
    }
}

#[test]
fn short_keepalive_walks_never_reap_inflight_work() {
    // A focused walk with windows shorter than a tick — the regime where
    // an over-eager reaper would fire mid-invocation if the tick ordering
    // were wrong. Survival (no panic from the Container state assertions)
    // is the property.
    let root = SimRng::seed(0xADA7).derive("short-keepalive");
    for case in 0..CASES {
        let mut rng = root.derive_u64(case);
        let keepalive = FixedWindow::new(SimDuration::from_secs(rng.range_u64(1, 59)));
        let config = InvokerConfig::new(keepalive, 20, 200);
        let spec = *ColdStartProfile::standard().get(RequestKind::QuizSubmit);
        let mut invoker = Invoker::new(RequestKind::QuizSubmit, config);
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let mut now = SimTime::ZERO;
        let mut served = 0u64;
        for _ in 0..TICKS_PER_CASE {
            let demand = if rng.chance(0.4) {
                0
            } else {
                rng.range_u64(1, 600)
            };
            let out = invoker.tick(now, TICK, demand, 3, &spec, &mut rng, &mut warm, &mut cold);
            served += out.served_warm + out.served_cold;
            now += TICK;
        }
        assert!(served > 0, "case {case}: walk never served anything");
    }
}

/// The invoker's tick order with one warm `record_n` per serving sandbox:
/// the reference for [`Invoker::tick`], which records a tick's warm serves
/// at once. Same containers, same buffer, same RNG draws; no tracing.
struct PerSandbox {
    keepalive: FixedWindow,
    concurrency_limit: u32,
    buffer_capacity: u64,
    containers: Vec<Container>,
    buffer: VecDeque<(SimTime, u64)>,
    buffered: u64,
    next_id: u64,
}

impl PerSandbox {
    fn new(config: &InvokerConfig) -> Self {
        PerSandbox {
            keepalive: config.keepalive(),
            concurrency_limit: config.concurrency_limit(),
            buffer_capacity: config.buffer_capacity(),
            containers: Vec::new(),
            buffer: VecDeque::new(),
            buffered: 0,
            next_id: 0,
        }
    }

    fn live(&self) -> u32 {
        self.containers.iter().filter(|c| c.is_live()).count() as u32
    }

    fn kill(&mut self, count: u32) -> u32 {
        let mut killed = 0;
        for pass in [ContainerState::Initializing, ContainerState::Idle] {
            for c in &mut self.containers {
                if killed < count && c.state() == pass {
                    c.kill();
                    killed += 1;
                }
            }
        }
        self.containers.retain(Container::is_live);
        killed
    }

    /// Serves buffered batches, oldest first, into `slots`; each waited
    /// since its arrival on top of `latency`.
    fn drain(
        &mut self,
        now: SimTime,
        slots: &mut u64,
        latency: f64,
        cold: &mut Histogram,
        out: &mut TickOutcome,
    ) {
        while *slots > 0 && self.buffered > 0 {
            let head = self.buffer.front_mut().expect("buffered > 0");
            let n = head.1.min(*slots);
            cold.record_n((now - head.0).as_secs_f64() + latency, n);
            out.served_cold += n;
            self.buffered -= n;
            head.1 -= n;
            *slots -= n;
            if head.1 == 0 {
                self.buffer.pop_front();
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn tick(
        &mut self,
        now: SimTime,
        demand: u64,
        grant: u32,
        spec: &StartProfile,
        rng: &mut SimRng,
        warm: &mut Histogram,
        cold: &mut Histogram,
    ) -> TickOutcome {
        let mut out = TickOutcome::default();
        for c in &mut self.containers {
            c.poll_ready(now);
        }
        let window = self.keepalive.window();
        for c in &mut self.containers {
            if c.state() == ContainerState::Idle
                && c.idle_since() <= now
                && now - c.idle_since() >= window
            {
                c.reap();
                out.reaped += 1;
            }
        }
        self.containers.retain(Container::is_live);

        let per_invocation = spec.warm_start() + spec.service_time();
        let slots_per = (TICK.as_nanos() / per_invocation.as_nanos()).max(1);
        let warm_latency = per_invocation.as_secs_f64();
        let mut fresh = demand;
        for i in 0..self.containers.len() {
            if self.buffered == 0 && fresh == 0 {
                break;
            }
            if self.containers[i].state() != ContainerState::Idle {
                continue;
            }
            self.containers[i].begin_invocation();
            let mut slots = slots_per;
            self.drain(now, &mut slots, warm_latency, cold, &mut out);
            let n = fresh.min(slots);
            if n > 0 {
                warm.record_n(warm_latency, n);
                out.served_warm += n;
                fresh -= n;
            }
            self.containers[i].finish_invocation(now);
        }

        let headroom = self.concurrency_limit.saturating_sub(self.live());
        for _ in 0..grant.min(headroom) {
            let cold_start = spec.sample_cold_start(rng);
            let mut c = Container::new(self.next_id);
            self.next_id += 1;
            c.start(now, cold_start);
            out.cold_starts += 1;
            if cold_start < TICK {
                let ready = now + cold_start;
                c.poll_ready(ready);
                let share = 1.0 - cold_start.as_secs_f64() / TICK.as_secs_f64();
                let mut slots = (slots_per as f64 * share) as u64;
                if slots > 0 && (self.buffered > 0 || fresh > 0) {
                    c.begin_invocation();
                    let cold_latency = cold_start.as_secs_f64() + warm_latency;
                    self.drain(now, &mut slots, cold_latency, cold, &mut out);
                    let n = fresh.min(slots);
                    if n > 0 {
                        cold.record_n(cold_latency, n);
                        out.served_cold += n;
                        fresh -= n;
                    }
                    c.finish_invocation(ready);
                }
            }
            self.containers.push(c);
        }

        let to_buffer = fresh.min(self.buffer_capacity - self.buffered);
        if to_buffer > 0 {
            self.buffer.push_back((now, to_buffer));
            self.buffered += to_buffer;
            out.buffered = to_buffer;
        }
        out.shed = fresh - to_buffer;
        out
    }
}

/// Asserts two histograms agree on everything a quantile reads.
fn assert_same_quantiles(got: &Histogram, want: &Histogram, what: &str) {
    const QS: [f64; 8] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
    assert_eq!(got.count(), want.count(), "{what}: count");
    assert_eq!(got.min_max(), want.min_max(), "{what}: min/max");
    assert_eq!(got.quantiles(&QS), want.quantiles(&QS), "{what}: quantiles");
}

#[test]
fn one_warm_record_per_tick_equals_one_per_sandbox() {
    let root = SimRng::seed(0x5A4D).derive("per-sandbox");
    let (mut reaped, mut buffered, mut killed, mut late_starts) = (0, 0, 0, 0);
    let mut short_windows = 0;
    for case in 0..CASES {
        let mut rng = root.derive_u64(case);
        let kind = *rng.pick(&RequestKind::ALL).expect("non-empty");
        let config = random_config(&mut rng);
        short_windows += u64::from(config.keepalive().window() < TICK);
        // Cold starts from sub-second to past the tick, so both the
        // intra-tick share and the next-tick promotion run.
        let spec = StartProfile::new(
            SimDuration::from_millis(rng.range_u64(100, 90_000)),
            SimDuration::from_millis(rng.range_u64(1, 20)),
            SimDuration::from_millis(rng.range_u64(5, 2_000)),
            0.256,
        );
        let slots_per =
            (TICK.as_nanos() / (spec.warm_start() + spec.service_time()).as_nanos()).max(1);

        let mut reference = PerSandbox::new(&config);
        let mut invoker = Invoker::new(kind, config);
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let (mut ref_warm, mut ref_cold) = (Histogram::new(), Histogram::new());
        let mut cold_rng = rng.derive("cold-starts");
        let mut ref_cold_rng = cold_rng.clone();
        let mut now = SimTime::ZERO;
        for tick in 0..TICKS_PER_CASE {
            let demand = if rng.chance(0.3) {
                0
            } else {
                rng.range_u64(0, 20 * slots_per)
            };
            let grant = rng.range_u64(0, 6) as u32;
            let out = invoker.tick(
                now,
                TICK,
                demand,
                grant,
                &spec,
                &mut cold_rng,
                &mut warm,
                &mut cold,
            );
            let want = reference.tick(
                now,
                demand,
                grant,
                &spec,
                &mut ref_cold_rng,
                &mut ref_warm,
                &mut ref_cold,
            );
            let at = format!("case {case} tick {tick}");
            assert_eq!(out, want, "{at}: outcome");
            assert_eq!(invoker.live(), reference.live(), "{at}: live");
            assert_eq!(invoker.buffered(), reference.buffered, "{at}: buffer");
            assert_same_quantiles(&warm, &ref_warm, &format!("{at}: warm"));
            assert_same_quantiles(&cold, &ref_cold, &format!("{at}: cold"));
            reaped += u32::from(out.reaped > 0);
            buffered += u32::from(invoker.buffered() > 0);
            late_starts += u32::from(out.cold_starts > 0 && invoker.idle() < invoker.live());

            if rng.chance(0.1) {
                let count = rng.range_u64(1, 5) as u32;
                let n = invoker.kill(count);
                assert_eq!(n, reference.kill(count), "{at}: kill");
                killed += n;
            }
            now += TICK;
        }
    }
    // The walks reach every path the reference mirrors, with keepalive
    // windows on both sides of a tick.
    assert!(reaped > 0 && buffered > 0 && killed > 0 && late_starts > 0);
    assert!(
        0 < short_windows && short_windows < CASES,
        "{short_windows}"
    );
}
