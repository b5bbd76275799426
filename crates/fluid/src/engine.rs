//! The hybrid-fidelity serving engine: one pooled queueing station
//! driven by a rate curve, simulated at event, fluid or auto fidelity.
//!
//! This is the execution core behind the national-scale experiment
//! (E18) and the `a5_hotpath` fluid benches. The same station — `c`
//! servers with deterministic service time and a bounded waiting room —
//! is simulated three ways:
//!
//! * **event**: every request is an individual arrival event at a
//!   [`Station`] run by [`Simulation`] (Poisson arrivals per tick,
//!   uniform jitter, FIFO queue, completion events). Exact, and linear in
//!   request count.
//! * **fluid**: a [`FluidQueue`] integrates arrival/service flows per
//!   tick; cost is per tick, independent of request volume.
//! * **auto**: a [`FidelityController`] keeps the station fluid in
//!   steady state and materializes the backlog into a real event-level
//!   [`Station`] (via the station's RNG lineage) around utilization spikes
//!   and surge boundaries, absorbing the station back into fluid when
//!   the crisis passes.
//!
//! Determinism: all randomness flows from the caller's [`SimRng`]
//! through fixed `derive` labels (`arrivals`, `materialize`,
//! `segment`/index), so a seed fully determines the run at any
//! fidelity.

use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::queueing::Station;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

use crate::control::{FidelityController, Mode, Signals};
use crate::fidelity::Fidelity;
use crate::queue::FluidQueue;

/// Station and solver parameters for one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Which fidelity to run at.
    pub fidelity: Fidelity,
    /// Where on the workload's clock the run starts (rates are read at
    /// `start + elapsed`).
    pub start: SimTime,
    /// Simulated span.
    pub horizon: SimDuration,
    /// Coarse tick: arrival-sampling slot in event mode, integration
    /// step in fluid mode.
    pub tick: SimDuration,
    /// Pooled identical servers.
    pub servers: u64,
    /// Deterministic per-request service time.
    pub service_time: SimDuration,
    /// Waiting-room size in requests; arrivals beyond it are shed.
    pub queue_limit: u64,
    /// Fixed integration substeps per tick in fluid mode.
    pub substeps: u32,
}

impl EngineConfig {
    /// A station sized for `peak_rps` at `target_util` utilization, with
    /// a 50 ms service time, 60 s ticks over a 24 h horizon and a
    /// waiting room of 30 s × capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `peak_rps` and `target_util` are positive and finite.
    #[must_use]
    pub fn sized_for(peak_rps: f64, target_util: f64, fidelity: Fidelity) -> Self {
        assert!(
            peak_rps.is_finite() && peak_rps > 0.0,
            "bad peak {peak_rps}"
        );
        assert!(
            target_util.is_finite() && target_util > 0.0,
            "bad target utilization {target_util}"
        );
        let service_time = SimDuration::from_millis(50);
        let per_server = 1.0 / service_time.as_secs_f64();
        let servers = (peak_rps / target_util / per_server).ceil().max(1.0) as u64;
        let capacity = servers as f64 * per_server;
        EngineConfig {
            fidelity,
            start: SimTime::ZERO,
            horizon: SimDuration::from_hours(24),
            tick: SimDuration::from_secs(60),
            servers,
            service_time,
            queue_limit: (capacity * 30.0).ceil() as u64,
            substeps: 4,
        }
    }

    /// Pooled capacity in requests/second.
    #[must_use]
    pub fn capacity_rps(&self) -> f64 {
        self.servers as f64 / self.service_time.as_secs_f64()
    }

    fn ticks(&self) -> u64 {
        let n = self.horizon.as_nanos() / self.tick.as_nanos();
        assert!(n > 0, "horizon must cover at least one tick");
        n
    }
}

/// What one engine run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Fidelity the run used.
    pub fidelity: Fidelity,
    /// Requests offered (sampled in event mode, integrated in fluid).
    pub offered: f64,
    /// Requests served to completion.
    pub served: f64,
    /// Requests shed at a full waiting room.
    pub shed: f64,
    /// 95th-percentile request latency (wait + service), seconds.
    pub p95_latency_s: f64,
    /// Mean offered-rate utilization across ticks.
    pub mean_utilization: f64,
    /// Peak backlog (waiting requests or fluid equivalent).
    pub peak_backlog: f64,
    /// Discrete events executed (0 in pure fluid mode).
    pub events_executed: u64,
    /// Ticks integrated as fluid.
    pub fluid_ticks: u64,
    /// Ticks simulated per-request.
    pub event_ticks: u64,
    /// Fluid↔event transitions (auto mode).
    pub switches: u32,
    /// Requests created by backlog materialization (auto mode).
    pub materialized: u64,
}

impl EngineReport {
    /// Shed requests over offered requests (0 when nothing was offered).
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.offered > 0.0 {
            self.shed / self.offered
        } else {
            0.0
        }
    }
}

/// Schedules one tick's Poisson arrivals (uniformly jittered over the
/// slot) and runs the station to the end of the tick.
fn event_tick(
    sim: &mut Simulation<Station>,
    rng: &mut SimRng,
    lambda: f64,
    tick: SimDuration,
    offsets: &mut Vec<SimDuration>,
) {
    let n = Poisson::new(lambda.max(0.0))
        .expect("rate is finite and non-negative")
        .sample(rng);
    offsets.clear();
    offsets.reserve(usize::try_from(n).unwrap_or(usize::MAX));
    let span = tick.as_secs_f64();
    for _ in 0..n {
        offsets.push(SimDuration::from_secs_f64(rng.range_f64(0.0, span)));
    }
    offsets.sort_unstable();
    sim.schedule_batch(offsets, Station::arrive);
    sim.run_for(tick);
}

/// Runs the station at the configured fidelity over the horizon.
///
/// `rate_at` is the offered-rate curve (requests/second) on the
/// workload's own clock; the engine reads it at
/// `cfg.start + elapsed`. All randomness derives from `rng`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero servers, zero tick,
/// or a horizon shorter than one tick).
pub fn run(cfg: &EngineConfig, rate_at: &dyn Fn(SimTime) -> f64, rng: &mut SimRng) -> EngineReport {
    assert!(cfg.servers > 0, "need at least one server");
    assert!(!cfg.tick.is_zero(), "tick must be positive");
    match cfg.fidelity {
        Fidelity::Event => run_event(cfg, rate_at, rng),
        Fidelity::Fluid => run_fluid(cfg, rate_at, rng),
        Fidelity::Auto => run_auto(cfg, rate_at, rng),
    }
}

fn run_event(
    cfg: &EngineConfig,
    rate_at: &dyn Fn(SimTime) -> f64,
    rng: &mut SimRng,
) -> EngineReport {
    let mut arr_rng = rng.derive("arrivals");
    let station = Station::new(cfg.servers, cfg.service_time, cfg.queue_limit);
    let mut sim = Simulation::new(rng.derive("engine-event").next_u64(), station);
    let mut offsets = Vec::new();
    let tick_s = cfg.tick.as_secs_f64();
    let capacity = cfg.capacity_rps();
    let mut util_sum = 0.0;
    let ticks = cfg.ticks();
    for i in 0..ticks {
        let t = cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i);
        let rate = rate_at(t);
        util_sum += rate / capacity;
        event_tick(
            &mut sim,
            &mut arr_rng,
            rate * tick_s,
            cfg.tick,
            &mut offsets,
        );
    }
    let events = sim.executed();
    let st = sim.into_state();
    EngineReport {
        fidelity: Fidelity::Event,
        offered: st.offered() as f64,
        served: st.served() as f64,
        shed: st.shed() as f64,
        p95_latency_s: st.latency().p95(),
        mean_utilization: util_sum / ticks as f64,
        peak_backlog: st.peak_queue() as f64,
        events_executed: events,
        fluid_ticks: 0,
        event_ticks: ticks,
        switches: 0,
        materialized: 0,
    }
}

fn run_fluid(
    cfg: &EngineConfig,
    rate_at: &dyn Fn(SimTime) -> f64,
    _rng: &mut SimRng,
) -> EngineReport {
    let capacity = cfg.capacity_rps();
    let mut fq = FluidQueue::new(1, capacity, cfg.queue_limit as f64);
    let mut latency = Histogram::new();
    let mut util_sum = 0.0;
    let mut peak_backlog = 0.0f64;
    let service_s = cfg.service_time.as_secs_f64();
    let ticks = cfg.ticks();
    for i in 0..ticks {
        let t = cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i);
        let flow = fq.step(cfg.tick, &[rate_at(t)], cfg.substeps);
        util_sum += flow.utilization;
        peak_backlog = peak_backlog.max(flow.backlog);
        let served = flow.served.round() as u64;
        if served > 0 {
            latency.record_n(service_s + fq.wait_estimate_s(), served);
        }
    }
    EngineReport {
        fidelity: Fidelity::Fluid,
        offered: fq.offered_total(),
        served: fq.served_total(),
        shed: fq.shed_total(),
        p95_latency_s: latency.p95(),
        mean_utilization: util_sum / ticks as f64,
        peak_backlog,
        events_executed: 0,
        fluid_ticks: ticks,
        event_ticks: 0,
        switches: 0,
        materialized: 0,
    }
}

/// Utilization floor under which a rate swing is not a surge trigger:
/// below it the waiting room is empty on both sides of the step, so the
/// fluid integration absorbs it exactly. A provisioned station (E18
/// sizes for 60% peak utilization) must not burn event ticks on every
/// hourly step of the diurnal table. Matches the controller's exit
/// threshold so a surge-entered segment can always drain back to fluid.
const SURGE_UTIL_FLOOR: f64 = 0.70;

fn run_auto(
    cfg: &EngineConfig,
    rate_at: &dyn Fn(SimTime) -> f64,
    rng: &mut SimRng,
) -> EngineReport {
    let capacity = cfg.capacity_rps();
    let mut fq = FluidQueue::new(1, capacity, cfg.queue_limit as f64);
    let mut controller = FidelityController::standard();
    let mut arr_rng = rng.derive("arrivals");
    let mut mat_rng = rng.derive("materialize");
    let segment_seeds = rng.derive("segment");
    let mut latency = Histogram::new();
    let mut util_sum = 0.0;
    let mut peak_backlog = 0.0f64;
    let mut offered = 0.0;
    let mut served = 0.0;
    let mut shed = 0.0;
    let mut events_executed = 0u64;
    let mut fluid_ticks = 0u64;
    let mut event_ticks = 0u64;
    let mut materialized = 0u64;
    let mut segment: Option<Simulation<Station>> = None;
    let mut segments_started = 0u64;
    let mut offsets = Vec::new();
    let service_s = cfg.service_time.as_secs_f64();
    let tick_s = cfg.tick.as_secs_f64();
    let ticks = cfg.ticks();
    for i in 0..ticks {
        let t = cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i);
        let rate = rate_at(t);
        let utilization = rate / capacity;
        util_sum += utilization;
        // A fast rate swing is a surge boundary — but only when the
        // station is running hot (see SURGE_UTIL_FLOOR).
        let next_rate = rate_at(t + cfg.tick);
        let next_util = next_rate / capacity;
        let surge = (next_rate - rate).abs() / capacity > 0.05
            && utilization.max(next_util) > SURGE_UTIL_FLOOR;
        let signals = Signals {
            chaos: false,
            breaker: false,
            scale_boundary: surge,
            utilization,
        };
        let mode = controller.decide(t.as_nanos(), &signals);
        match mode {
            Mode::Fluid => {
                if let Some(sim) = segment.take() {
                    // Event→fluid: fold the segment's tallies in and
                    // absorb waiting + in-flight requests back as backlog.
                    events_executed += sim.executed();
                    let st = sim.into_state();
                    offered += st.offered() as f64;
                    served += st.served() as f64;
                    shed += st.shed() as f64;
                    latency.merge(st.latency());
                    fq.absorb(&[st.waiting() as u64 + st.in_service()]);
                }
                let flow = fq.step(cfg.tick, &[rate], cfg.substeps);
                peak_backlog = peak_backlog.max(flow.backlog);
                let flow_served = flow.served.round() as u64;
                if flow_served > 0 {
                    latency.record_n(service_s + fq.wait_estimate_s(), flow_served);
                }
                fluid_ticks += 1;
            }
            Mode::Event => {
                if segment.is_none() {
                    // Fluid→event: materialize the backlog into waiting
                    // requests through this component's RNG lineage.
                    // Their fluid inflow is already in `fq.offered_total`,
                    // so the station's `offered` counts fresh arrivals only.
                    let counts = fq.materialize(&mut mat_rng, t.as_nanos());
                    materialized += counts[0];
                    segments_started += 1;
                    let mut seed_rng = segment_seeds.derive_u64(segments_started);
                    let station = Station::new(cfg.servers, cfg.service_time, cfg.queue_limit);
                    let mut sim = Simulation::new(seed_rng.next_u64(), station);
                    Station::seed_backlog(&mut sim, counts[0]);
                    segment = Some(sim);
                }
                let sim = segment.as_mut().expect("segment just ensured");
                event_tick(sim, &mut arr_rng, rate * tick_s, cfg.tick, &mut offsets);
                peak_backlog = peak_backlog.max(sim.state().peak_queue() as f64);
                event_ticks += 1;
            }
        }
    }
    if let Some(sim) = segment.take() {
        events_executed += sim.executed();
        let st = sim.into_state();
        offered += st.offered() as f64;
        served += st.served() as f64;
        shed += st.shed() as f64;
        latency.merge(st.latency());
        fq.absorb(&[st.waiting() as u64 + st.in_service()]);
    }
    EngineReport {
        fidelity: Fidelity::Auto,
        offered: offered + fq.offered_total(),
        served: served + fq.served_total(),
        shed: shed + fq.shed_total(),
        p95_latency_s: latency.p95(),
        mean_utilization: util_sum / ticks as f64,
        peak_backlog,
        events_executed,
        fluid_ticks,
        event_ticks,
        switches: controller.switches(),
        materialized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diurnal-ish day: quiet night, evening peak at `peak` rps.
    fn day_rate(peak: f64) -> impl Fn(SimTime) -> f64 {
        move |t: SimTime| {
            let hour = (t.as_secs_f64() / 3_600.0) % 24.0;
            let shape = (1.0 - ((hour - 20.0) / 8.0).powi(2)).max(0.05);
            peak * shape
        }
    }

    fn cfg(fidelity: Fidelity, peak: f64) -> EngineConfig {
        EngineConfig::sized_for(peak, 0.7, fidelity)
    }

    #[test]
    fn fluid_matches_event_on_a_moderate_day() {
        let peak = 400.0;
        let mut rng_e = SimRng::seed(42).derive("engine-test");
        let event = run(&cfg(Fidelity::Event, peak), &day_rate(peak), &mut rng_e);
        let mut rng_f = SimRng::seed(42).derive("engine-test");
        let fluid = run(&cfg(Fidelity::Fluid, peak), &day_rate(peak), &mut rng_f);
        assert!(event.events_executed > 0);
        assert_eq!(fluid.events_executed, 0);
        let rel = (event.served - fluid.served).abs() / event.served;
        assert!(
            rel < 0.01,
            "served: event {} vs fluid {} ({rel})",
            event.served,
            fluid.served
        );
        assert!((event.shed_fraction() - fluid.shed_fraction()).abs() < 0.01);
    }

    #[test]
    fn auto_mode_switches_and_still_agrees() {
        // Saturating peak forces event segments around the evening surge.
        let peak = 900.0;
        let config = EngineConfig {
            fidelity: Fidelity::Auto,
            ..EngineConfig::sized_for(600.0, 0.7, Fidelity::Auto)
        };
        let mut rng_a = SimRng::seed(7).derive("engine-test");
        let auto = run(&config, &day_rate(peak), &mut rng_a);
        assert!(auto.switches > 0, "saturation must force event fidelity");
        assert!(auto.event_ticks > 0 && auto.fluid_ticks > 0);
        assert!(auto.events_executed > 0);
        let event_cfg = EngineConfig {
            fidelity: Fidelity::Event,
            ..config.clone()
        };
        let mut rng_e = SimRng::seed(7).derive("engine-test");
        let event = run(&event_cfg, &day_rate(peak), &mut rng_e);
        let rel = (event.served - auto.served).abs() / event.served;
        assert!(
            rel < 0.02,
            "served: event {} vs auto {} ({rel})",
            event.served,
            auto.served
        );
        assert!(
            (event.shed_fraction() - auto.shed_fraction()).abs() < 0.02,
            "shed: event {} vs auto {}",
            event.shed_fraction(),
            auto.shed_fraction()
        );
    }

    #[test]
    fn auto_is_deterministic_for_a_seed() {
        let peak = 900.0;
        let config = EngineConfig {
            fidelity: Fidelity::Auto,
            ..EngineConfig::sized_for(600.0, 0.7, Fidelity::Auto)
        };
        let mut a = SimRng::seed(11).derive("engine-test");
        let mut b = SimRng::seed(11).derive("engine-test");
        let ra = run(&config, &day_rate(peak), &mut a);
        let rb = run(&config, &day_rate(peak), &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn fluid_mode_cost_is_independent_of_scale() {
        // Not a wall-clock assertion (CI noise) — structural: fluid
        // executes zero events no matter the population.
        let peak = 2_000_000.0;
        let mut rng = SimRng::seed(5).derive("engine-test");
        let report = run(&cfg(Fidelity::Fluid, peak), &day_rate(peak), &mut rng);
        assert_eq!(report.events_executed, 0);
        assert!(report.offered > 1e10, "a 2M rps day offers >10B requests");
        assert!(report.served > 0.0);
    }

    #[test]
    fn saturated_station_sheds_in_both_fidelities() {
        // Peak 3× capacity: both paths must shed a similar fraction.
        let capacity_peak = 300.0;
        let day_peak = 900.0;
        let event_cfg = EngineConfig::sized_for(capacity_peak, 0.7, Fidelity::Event);
        let fluid_cfg = EngineConfig {
            fidelity: Fidelity::Fluid,
            ..event_cfg.clone()
        };
        let mut rng_e = SimRng::seed(3).derive("engine-test");
        let event = run(&event_cfg, &day_rate(day_peak), &mut rng_e);
        let mut rng_f = SimRng::seed(3).derive("engine-test");
        let fluid = run(&fluid_cfg, &day_rate(day_peak), &mut rng_f);
        assert!(event.shed_fraction() > 0.2);
        assert!(
            (event.shed_fraction() - fluid.shed_fraction()).abs() < 0.02,
            "event {} vs fluid {}",
            event.shed_fraction(),
            fluid.shed_fraction()
        );
    }
}
