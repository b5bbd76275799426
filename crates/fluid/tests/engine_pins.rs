//! Exact pins of the event-level station's output.
//!
//! The goldens cover only the paper tables, and E18's default auto run
//! stays fluid, so nothing else fixes what the engine's event path
//! prints. These two runs — one at event fidelity, one at auto fidelity
//! that switches to event and back — pin every field of the
//! [`EngineReport`], floats by bit pattern. Any change to the pending-event
//! set, the station or the arrival sampling that moves one request shows
//! here. Both stay small enough for a debug `cargo test`.

use elc_fluid::{EngineConfig, EngineReport, Fidelity};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

/// A four-server station (80 rps capacity, 2,400-request waiting room)
/// over `minutes` from 17:00.
fn station(fidelity: Fidelity, minutes: u64) -> EngineConfig {
    EngineConfig {
        start: SimTime::from_secs(17 * 3_600),
        horizon: SimDuration::from_secs(minutes * 60),
        ..EngineConfig::sized_for(50.0, 0.7, fidelity)
    }
}

/// 50 rps until 17:10, 100 rps (125% of capacity, so the waiting room
/// fills and sheds) until 17:30, then 40 rps.
fn evening(t: SimTime) -> f64 {
    let minute = t.as_secs_f64() / 60.0 - 17.0 * 60.0;
    if minute < 10.0 {
        50.0
    } else if minute < 30.0 {
        100.0
    } else {
        40.0
    }
}

fn run(cfg: &EngineConfig) -> EngineReport {
    let mut rng = SimRng::seed(42).derive("engine-pin");
    elc_fluid::engine::run(cfg, &evening, &mut rng)
}

/// Compares every field of `got` against `want`, floats by bits. The
/// exhaustive destructuring makes a new report field a compile error
/// here until it is pinned too.
fn assert_pinned(got: &EngineReport, want: &EngineReport) {
    let EngineReport {
        fidelity,
        offered,
        served,
        shed,
        p95_latency_s,
        mean_utilization,
        peak_backlog,
        events_executed,
        fluid_ticks,
        event_ticks,
        switches,
        materialized,
    } = want;
    assert_eq!(got.fidelity, *fidelity, "fidelity");
    assert_eq!(
        got.offered.to_bits(),
        offered.to_bits(),
        "offered {}",
        got.offered
    );
    assert_eq!(
        got.served.to_bits(),
        served.to_bits(),
        "served {}",
        got.served
    );
    assert_eq!(got.shed.to_bits(), shed.to_bits(), "shed {}", got.shed);
    assert_eq!(
        got.p95_latency_s.to_bits(),
        p95_latency_s.to_bits(),
        "p95_latency_s {}",
        got.p95_latency_s
    );
    assert_eq!(
        got.mean_utilization.to_bits(),
        mean_utilization.to_bits(),
        "mean_utilization {}",
        got.mean_utilization
    );
    assert_eq!(
        got.peak_backlog.to_bits(),
        peak_backlog.to_bits(),
        "peak_backlog {}",
        got.peak_backlog
    );
    assert_eq!(got.events_executed, *events_executed, "events_executed");
    assert_eq!(got.fluid_ticks, *fluid_ticks, "fluid_ticks");
    assert_eq!(got.event_ticks, *event_ticks, "event_ticks");
    assert_eq!(got.switches, *switches, "switches");
    assert_eq!(got.materialized, *materialized, "materialized");
}

#[test]
fn event_fidelity_report_is_pinned() {
    let want = EngineReport {
        fidelity: Fidelity::Event,
        offered: f64::from_bits(0x40f6_1a30_0000_0000), // 90,531
        served: f64::from_bits(0x40f3_2290_0000_0000),  // 78,377
        shed: f64::from_bits(0x40c3_0c00_0000_0000),    // 9,752
        p95_latency_s: f64::from_bits(0x403d_fc97_337b_9b5f), // 29.98668…
        mean_utilization: f64::from_bits(0x3fee_0000_0000_0000), // 0.9375
        peak_backlog: f64::from_bits(0x40a2_c000_0000_0000), // 2,400
        events_executed: 168_908,
        fluid_ticks: 0,
        event_ticks: 20,
        switches: 0,
        materialized: 0,
    };
    assert_pinned(&run(&station(Fidelity::Event, 20)), &want);
}

#[test]
fn auto_fidelity_switching_to_event_report_is_pinned() {
    let want = EngineReport {
        fidelity: Fidelity::Auto,
        offered: f64::from_bits(0x4106_c428_0000_0000), // 186,501
        served: f64::from_bits(0x4104_0d78_0000_0000),  // 164,271
        shed: f64::from_bits(0x40d5_b580_0000_0000),    // 22,230
        p95_latency_s: f64::from_bits(0x403d_fc97_337b_9b5f), // 29.98668…
        mean_utilization: f64::from_bits(0x3feb_8e38_e38e_38e4), // 0.86111…
        peak_backlog: f64::from_bits(0x40a2_c000_0000_0000), // 2,400
        events_executed: 248_772,
        fluid_ticks: 19,
        event_ticks: 26,
        switches: 2,
        materialized: 0,
    };
    assert_pinned(&run(&station(Fidelity::Auto, 45)), &want);
}
