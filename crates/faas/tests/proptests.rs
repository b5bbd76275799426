//! Seed-derived property tests of the invoker under random invoke/reap
//! interleavings.
//!
//! Each case derives its own [`SimRng`] stream from the case index, draws
//! a random invoker configuration and a random demand/grant/chaos walk,
//! and checks the bookkeeping that the fluid model leans on:
//!
//! * warm hits never exceed what the live warm sandboxes could serve,
//! * sandboxes are conserved (`started == live + reaped`),
//! * the per-function concurrency cap and buffer capacity hold,
//! * per-tick flow balances (`demand + drained == served + buffered +
//!   shed`).
//!
//! The other walks drive the run-based [`Invoker`] beside [`PerSandbox`],
//! a reference that visits one sandbox state machine at a time and
//! records each serving sandbox's warm invocations on its own. Outcomes,
//! live and idle counts, buffer depth, both histograms' quantiles (the
//! invoker's warm count recorded first) and the trace lines must agree
//! after every tick. The reference's state
//! assertions also panic the walk if a keepalive window shorter than a
//! tick ever reaps a sandbox mid-invocation.

mod reference;

use elc_elearn::request::RequestKind;
use elc_faas::{ColdStartProfile, FixedWindow, Invoker, InvokerConfig, StartProfile};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::export::jsonl_string;
use elc_trace::filter::TraceFilter;
use elc_trace::{Level, Tracer};

use reference::PerSandbox;

const TICK: SimDuration = SimDuration::from_secs(60);
const CASES: u64 = 150;
const TICKS_PER_CASE: u64 = 120;

/// A random invoker configuration. Its keepalive window is, in equal
/// shares, shorter than a tick, exactly a tick, a whole number of ticks,
/// or anything from one tick to fifteen.
fn random_config(rng: &mut SimRng, tick_len: SimDuration) -> InvokerConfig {
    let tick_ms = tick_len.as_nanos() / 1_000_000;
    let window = match rng.range_u64(0, 3) {
        0 => SimDuration::from_millis(rng.range_u64(1, tick_ms - 1)),
        1 => tick_len,
        2 => tick_len * rng.range_u64(2, 6),
        _ => SimDuration::from_millis(rng.range_u64(tick_ms, 15 * tick_ms)),
    };
    let concurrency = rng.range_u64(1, 40) as u32;
    let buffer = rng.range_u64(0, 500) as i64;
    InvokerConfig::new(FixedWindow::new(window), concurrency, buffer)
}

#[test]
fn random_interleavings_preserve_container_invariants() {
    let root = SimRng::seed(0xFAA5).derive("proptests");
    for case in 0..CASES {
        let mut rng = root.derive_u64(case);
        let kind = *rng.pick(&RequestKind::ALL).expect("non-empty");
        let config = random_config(&mut rng, TICK);
        let cap = u64::from(config.concurrency_limit());
        let buffer_cap = config.buffer_capacity();
        let spec = *ColdStartProfile::standard().get(kind);
        let slots_per =
            (TICK.as_nanos() / (spec.warm_start() + spec.service_time()).as_nanos()).max(1);

        let mut invoker = Invoker::new(kind, config, spec, TICK);
        let mut cold = Histogram::new();
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

            let out = invoker.tick(now, demand, grant, &mut rng, &mut cold);

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

            // Occasional chaos: kill a few sandboxes between ticks.
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
    // were wrong. The per-sandbox reference walks beside the invoker: its
    // `Container::reap` assertion panics on such a reap, and the invoker
    // must match its outcome every tick.
    let root = SimRng::seed(0xADA7).derive("short-keepalive");
    for case in 0..CASES {
        let mut rng = root.derive_u64(case);
        let keepalive = FixedWindow::new(SimDuration::from_secs(rng.range_u64(1, 59)));
        let config = InvokerConfig::new(keepalive, 20, 200);
        let kind = RequestKind::QuizSubmit;
        let spec = *ColdStartProfile::standard().get(kind);
        let mut invoker = Invoker::new(kind, config.clone(), spec, TICK);
        let mut reference = PerSandbox::new(kind, &config);
        let mut cold = Histogram::new();
        let (mut ref_warm, mut ref_cold) = (Histogram::new(), Histogram::new());
        let mut cold_rng = rng.derive("cold-starts");
        let mut ref_cold_rng = cold_rng.clone();
        let mut now = SimTime::ZERO;
        let mut served = 0u64;
        for tick in 0..TICKS_PER_CASE {
            let demand = if rng.chance(0.4) {
                0
            } else {
                rng.range_u64(1, 600)
            };
            let out = invoker.tick(now, demand, 3, &mut cold_rng, &mut cold);
            let want = reference.tick(
                now,
                TICK,
                demand,
                3,
                &spec,
                &mut ref_cold_rng,
                &mut ref_warm,
                &mut ref_cold,
            );
            assert_eq!(out, want, "case {case} tick {tick}");
            served += out.served_warm + out.served_cold;
            now += TICK;
        }
        assert!(served > 0, "case {case}: walk never served anything");
    }
}

/// One differential case: a function, its configuration and start
/// profile, and the tick length.
struct Case {
    kind: RequestKind,
    config: InvokerConfig,
    spec: StartProfile,
    tick_len: SimDuration,
    /// Invocations one sandbox serves per tick.
    slots_per: u64,
}

impl Case {
    fn random(rng: &mut SimRng) -> Case {
        let kind = *rng.pick(&RequestKind::ALL).expect("non-empty");
        // Half the cases tick at E17's minute, half at 1 s to 10 min.
        let tick_len = if rng.chance(0.5) {
            TICK
        } else {
            SimDuration::from_secs(rng.range_u64(1, 600))
        };
        let config = random_config(rng, tick_len);
        // Cold starts from far inside the tick to past it, so both the
        // intra-tick share and the next-tick promotion run.
        let tick_ms = tick_len.as_nanos() / 1_000_000;
        let spec = StartProfile::new(
            SimDuration::from_millis(rng.range_u64(tick_ms / 600 + 1, tick_ms * 3 / 2)),
            SimDuration::from_millis(rng.range_u64(1, 20)),
            SimDuration::from_millis(rng.range_u64(5, 2_000)),
            0.256,
        );
        let per_invocation = spec.warm_start() + spec.service_time();
        Case {
            kind,
            config,
            spec,
            tick_len,
            slots_per: (tick_len.as_nanos() / per_invocation.as_nanos()).max(1),
        }
    }

    /// A tick's demand: often none; sometimes a whole number of
    /// sandboxes' worth, give or take one, where serving stops exactly at
    /// a sandbox boundary; rarely nearly all of `u64`; otherwise up to 20
    /// sandboxes' worth, which mostly runs out inside a run.
    fn demand(&self, rng: &mut SimRng) -> u64 {
        if rng.chance(0.3) {
            0
        } else if rng.chance(0.2) {
            (rng.range_u64(1, 20) * self.slots_per + 1).saturating_sub(rng.range_u64(0, 2))
        } else if rng.chance(0.02) {
            u64::MAX - rng.range_u64(0, 2)
        } else {
            rng.range_u64(0, 20 * self.slots_per)
        }
    }

    /// A tick's grant: mostly a few starts, sometimes past the cap.
    fn grant(&self, rng: &mut SimRng) -> u32 {
        let cap = u64::from(self.config.concurrency_limit());
        if rng.chance(0.1) {
            rng.range_u64(cap + 1, cap + 10) as u32
        } else {
            rng.range_u64(0, 6) as u32
        }
    }

    /// The kill after a tick, if any: up to twice the cap, so it often
    /// asks for more sandboxes than are live.
    fn kill(&self, rng: &mut SimRng) -> Option<u32> {
        let cap = u64::from(self.config.concurrency_limit());
        rng.chance(0.15).then(|| rng.range_u64(1, 2 * cap) as u32)
    }
}

/// Asserts two histograms agree on everything a quantile reads.
fn assert_same_quantiles(got: &Histogram, want: &Histogram, what: &str) {
    const QS: [f64; 8] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
    assert_eq!(got.count(), want.count(), "{what}: count");
    assert_eq!(got.min_max(), want.min_max(), "{what}: min/max");
    assert_eq!(got.quantiles(&QS), want.quantiles(&QS), "{what}: quantiles");
}

/// Asserts the invoker and the reference hold the same fleet and buffer.
fn assert_same_fleet(invoker: &Invoker, reference: &PerSandbox, at: &str) {
    assert_eq!(invoker.live(), reference.live(), "{at}: live");
    assert_eq!(invoker.idle(), reference.idle(), "{at}: idle");
    assert_eq!(invoker.buffered(), reference.buffered(), "{at}: buffer");
}

/// Runs `f` under `tracer`, if there is one, and keeps what it recorded.
fn under<R>(tracer: &mut Option<Tracer>, f: impl FnOnce() -> R) -> R {
    match tracer.take() {
        None => f(),
        Some(t) => {
            let (r, t) = elc_trace::with_tracer(t, f);
            *tracer = Some(t);
            r
        }
    }
}

/// How often the walks reached each path the reference mirrors.
#[derive(Debug, Default)]
struct Reached {
    reaps: u64,
    buffered: u64,
    kills: u64,
    kills_past_live: u64,
    late_starts: u64,
    grants_past_cap: u64,
    split_serves: u64,
    split_kills: u64,
    short_windows: u64,
    tick_windows: u64,
    multiple_windows: u64,
    other_ticks: u64,
    reap_events: u64,
    cold_start_events: u64,
    buffered_events: u64,
    shed_events: u64,
}

/// Walks the first `cases` differential cases, the invoker beside
/// [`PerSandbox`], comparing them after every tick and every kill. When
/// `traced`, each walk records under its own Debug tracer and their JSONL
/// exports must match line for line.
fn differential_walks(cases: u64, traced: bool) -> Reached {
    let root = SimRng::seed(0x5A4D).derive("per-sandbox");
    let mut reached = Reached::default();
    for case in 0..cases {
        let mut rng = root.derive_u64(case);
        let c = Case::random(&mut rng);
        let window = c.config.keepalive().window();
        reached.short_windows += u64::from(window < c.tick_len);
        reached.tick_windows += u64::from(window == c.tick_len);
        reached.multiple_windows += u64::from(
            window > c.tick_len && window.as_nanos().is_multiple_of(c.tick_len.as_nanos()),
        );
        reached.other_ticks += u64::from(c.tick_len != TICK);

        let mut reference = PerSandbox::new(c.kind, &c.config);
        let mut invoker = Invoker::new(c.kind, c.config.clone(), c.spec, c.tick_len);
        let (mut warm, mut cold) = (Histogram::new(), Histogram::new());
        let (mut ref_warm, mut ref_cold) = (Histogram::new(), Histogram::new());
        let mut cold_rng = rng.derive("cold-starts");
        let mut ref_cold_rng = cold_rng.clone();
        let debug = || traced.then(|| Tracer::new(TraceFilter::all(Level::Debug)));
        let (mut trace, mut ref_trace) = (debug(), debug());
        let mut now = SimTime::ZERO;
        for tick in 0..TICKS_PER_CASE {
            let (demand, grant) = (c.demand(&mut rng), c.grant(&mut rng));
            let out = under(&mut trace, || {
                invoker.tick(now, demand, grant, &mut cold_rng, &mut cold)
            });
            invoker.record_warm(&mut warm);
            let want = under(&mut ref_trace, || {
                reference.tick(
                    now,
                    c.tick_len,
                    demand,
                    grant,
                    &c.spec,
                    &mut ref_cold_rng,
                    &mut ref_warm,
                    &mut ref_cold,
                )
            });
            let at = format!("case {case} tick {tick}");
            assert_eq!(out, want, "{at}: outcome");
            assert_same_fleet(&invoker, &reference, &at);
            assert_same_quantiles(&warm, &ref_warm, &format!("{at}: warm"));
            assert_same_quantiles(&cold, &ref_cold, &format!("{at}: cold"));
            reached.reaps += u64::from(out.reaped > 0);
            reached.buffered += u64::from(invoker.buffered() > 0);
            reached.late_starts +=
                u64::from(out.cold_starts > 0 && invoker.idle() < invoker.live());
            reached.grants_past_cap += u64::from(grant > c.config.concurrency_limit());

            if let Some(count) = c.kill(&mut rng) {
                reached.kills_past_live += u64::from(count > invoker.live());
                let killed = invoker.kill(count);
                assert_eq!(killed, reference.kill(count), "{at}: kill");
                assert_same_fleet(&invoker, &reference, &format!("{at}: kill"));
                reached.kills += u64::from(killed);
            }
            now += c.tick_len;
        }
        reached.split_serves += u64::from(reference.split_serves);
        reached.split_kills += u64::from(reference.split_kills);

        if let (Some(trace), Some(ref_trace)) = (&trace, &ref_trace) {
            assert_eq!(trace.dropped() + ref_trace.dropped(), 0, "case {case}");
            let (got, want) = (jsonl_string(trace, &[]), jsonl_string(ref_trace, &[]));
            for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
                assert_eq!(g, w, "case {case}: trace line {i}");
            }
            assert_eq!(got.lines().count(), want.lines().count(), "case {case}");
            let count = |name: &str| got.matches(&format!("\"name\":\"{name}\"")).count() as u64;
            reached.reap_events += count("container.reap");
            reached.cold_start_events += count("container.cold_start");
            reached.buffered_events += count("invoke.buffered");
            reached.shed_events += count("invoke.shed");
        }
    }
    reached
}

/// Asserts the walks reached every path the reference mirrors, with
/// keepalive windows on both sides of a tick and on its multiples.
fn assert_reached_everything(r: &Reached, traced: bool) {
    let paths = [
        r.reaps,
        r.buffered,
        r.kills,
        r.kills_past_live,
        r.late_starts,
        r.grants_past_cap,
        r.split_serves,
        r.split_kills,
        r.short_windows,
        r.tick_windows,
        r.multiple_windows,
        r.other_ticks,
    ];
    assert!(paths.iter().all(|&n| n > 0), "{r:?}");
    if traced {
        let events = [
            r.reap_events,
            r.cold_start_events,
            r.buffered_events,
            r.shed_events,
        ];
        assert!(events.iter().all(|&n| n > 0), "{r:?}");
    }
}

#[test]
fn runs_match_the_per_sandbox_reference() {
    assert_reached_everything(&differential_walks(CASES, false), false);
}

#[test]
fn runs_trace_what_the_per_sandbox_reference_traces() {
    assert_reached_everything(&differential_walks(40, true), true);
}

#[test]
#[ignore = "2,000 cases: run in release with --include-ignored"]
fn runs_match_the_per_sandbox_reference_wide() {
    assert_reached_everything(&differential_walks(2_000, true), true);
}
