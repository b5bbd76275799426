//! The c-server queueing station, simulated request by request.
//!
//! [`Station`] is `servers` identical servers in front of a bounded FIFO
//! waiting room, each serving one request in a fixed service time. It
//! runs inside a [`Simulation`]: [`Station::arrive`] is the arrival
//! handler callers schedule, one event per request (usually a whole slot
//! at once through [`Simulation::schedule_batch`]), and the station
//! schedules each service completion itself. An arrival that finds every
//! server busy and the waiting room full is shed.
//!
//! This is the station `elc-fluid`'s engine runs for E18, at event
//! fidelity throughout and at auto fidelity inside each event segment,
//! where [`Station::seed_backlog`] turns the fluid backlog into waiting
//! requests. The tests check it against results that are exact for
//! deterministic service: the Pollaczek–Khinchine mean sojourn of M/D/1,
//! Erlang-B blocking of an M/D/c loss system (Erlang-B does not depend on
//! the service-time distribution), and conservation of requests.

use std::collections::VecDeque;

use crate::metrics::Histogram;
use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};

/// `servers` identical servers over a bounded FIFO waiting room, with a
/// deterministic service time.
///
/// # Examples
///
/// ```
/// use elc_simcore::queueing::Station;
/// use elc_simcore::{SimDuration, Simulation};
///
/// // One server, 2 s per request, room for one waiting request.
/// let station = Station::new(1, SimDuration::from_secs(2), 1);
/// let mut sim = Simulation::new(7, station);
/// let at = [0, 1, 1].map(SimDuration::from_secs);
/// sim.schedule_batch(&at, Station::arrive);
/// sim.run();
/// let st = sim.state();
/// assert_eq!((st.offered(), st.served(), st.shed()), (3, 2, 1));
/// // The second request waited one second behind the first.
/// assert_eq!(st.latency().min_max(), Some((2.0, 3.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Station {
    servers: u64,
    busy: u64,
    service: SimDuration,
    /// Arrival instants of the waiting requests.
    queue: VecDeque<SimTime>,
    queue_limit: usize,
    offered: u64,
    served: u64,
    shed: u64,
    peak_queue: usize,
    latency: Histogram,
}

impl Station {
    /// A station of `servers` servers, each taking `service` per request,
    /// over a waiting room of `queue_limit` requests (0 makes it a loss
    /// system).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[must_use]
    pub fn new(servers: u64, service: SimDuration, queue_limit: u64) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        Station {
            servers,
            busy: 0,
            service,
            queue: VecDeque::new(),
            queue_limit: usize::try_from(queue_limit).unwrap_or(usize::MAX),
            offered: 0,
            served: 0,
            shed: 0,
            peak_queue: 0,
            latency: Histogram::new(),
        }
    }

    /// The arrival handler: one request arrives now. It starts service on
    /// a free server, waits if the waiting room has space, and is shed
    /// otherwise.
    #[inline]
    pub fn arrive(sim: &mut Simulation<Station>) {
        let now = sim.now();
        let st = sim.state_mut();
        st.offered += 1;
        if st.busy < st.servers {
            st.busy += 1;
            let service = st.service;
            st.latency.record(service.as_secs_f64());
            sim.schedule_in(service, Station::complete);
        } else if st.queue.len() < st.queue_limit {
            st.queue.push_back(now);
            st.peak_queue = st.peak_queue.max(st.queue.len());
        } else {
            st.shed += 1;
        }
    }

    /// A service completion: the freed server takes the longest-waiting
    /// request, or goes idle.
    #[inline]
    fn complete(sim: &mut Simulation<Station>) {
        let now = sim.now();
        let st = sim.state_mut();
        st.served += 1;
        if let Some(arrived) = st.queue.pop_front() {
            let service = st.service;
            let wait = now.saturating_since(arrived);
            st.latency.record((wait + service).as_secs_f64());
            sim.schedule_in(service, Station::complete);
        } else {
            st.busy -= 1;
        }
    }

    /// Seeds `backlog` requests that are already waiting at the current
    /// instant — a backlog materialized from fluid state — and starts as
    /// many of them as there are free servers. They count toward
    /// [`Station::peak_queue`] but not toward [`Station::offered`], and the
    /// waiting-room limit does not apply to them.
    pub fn seed_backlog(sim: &mut Simulation<Station>, backlog: u64) {
        let now = sim.now();
        let st = sim.state_mut();
        let backlog = usize::try_from(backlog).expect("backlog fits in memory");
        st.queue.extend(std::iter::repeat_n(now, backlog));
        st.peak_queue = st.peak_queue.max(st.queue.len());
        let starters = (st.servers - st.busy).min(st.queue.len() as u64);
        for _ in 0..starters {
            let st = sim.state_mut();
            st.queue.pop_front();
            st.busy += 1;
            let service = st.service;
            st.latency.record(service.as_secs_f64());
            sim.schedule_in(service, Station::complete);
        }
    }

    /// Requests that arrived through [`Station::arrive`].
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests served to completion.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests shed at a full waiting room.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests waiting for a server now.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    /// Requests in service now.
    #[must_use]
    pub fn in_service(&self) -> u64 {
        self.busy
    }

    /// The most requests ever waiting at once.
    #[must_use]
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Latency (wait + service, seconds) of every request that started
    /// service, recorded as it starts.
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Exp};
    use crate::rng::SimRng;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn station(servers: u64, service_s: u64, queue_limit: u64) -> Simulation<Station> {
        Simulation::new(
            1,
            Station::new(servers, SimDuration::from_secs(service_s), queue_limit),
        )
    }

    fn arrivals_at(sim: &mut Simulation<Station>, secs: &[u64]) {
        let offsets: Vec<SimDuration> = secs.iter().map(|&s| SimDuration::from_secs(s)).collect();
        sim.schedule_batch(&offsets, Station::arrive);
    }

    #[test]
    fn single_server_fifo_order() {
        let mut sim = station(1, 5, 10);
        arrivals_at(&mut sim, &[0, 1, 2]);
        sim.run_until(secs(4));
        let st = sim.state();
        assert_eq!((st.served(), st.in_service(), st.waiting()), (0, 1, 2));
        sim.run_until(secs(15));
        let st = sim.state();
        assert_eq!((st.served(), st.in_service(), st.waiting()), (3, 0, 0));
        // Served in arrival order: waits of 0, 4 and 8 seconds.
        assert_eq!(st.latency().min_max(), Some((5.0, 13.0)));
        assert_eq!(st.latency().mean(), 9.0);
    }

    #[test]
    fn parallel_servers_avoid_waits() {
        let mut sim = station(3, 5, 10);
        arrivals_at(&mut sim, &[0, 0, 0]);
        sim.run_until(secs(6));
        let st = sim.state();
        assert_eq!(st.served(), 3);
        assert_eq!(st.latency().min_max(), Some((5.0, 5.0)));
        assert_eq!(st.peak_queue(), 0);
    }

    #[test]
    fn loss_system_sheds_when_full() {
        let mut sim = station(1, 10, 0);
        arrivals_at(&mut sim, &[0, 1, 11]);
        sim.run();
        let st = sim.state();
        assert_eq!((st.offered(), st.served(), st.shed()), (3, 2, 1));
        assert_eq!(st.peak_queue(), 0);
    }

    #[test]
    fn bounded_waiting_room() {
        let mut sim = station(1, 100, 2);
        arrivals_at(&mut sim, &[0, 0, 0, 0]);
        sim.run_until(secs(1));
        let st = sim.state();
        assert_eq!((st.in_service(), st.waiting(), st.shed()), (1, 2, 1));
        assert_eq!(st.peak_queue(), 2);
    }

    #[test]
    fn a_seeded_backlog_starts_on_free_servers_and_counts_toward_the_peak() {
        let mut sim = station(2, 1, 1);
        Station::seed_backlog(&mut sim, 5);
        let st = sim.state();
        assert_eq!((st.in_service(), st.waiting(), st.peak_queue()), (2, 3, 5));
        assert_eq!(st.offered(), 0, "a seeded request was offered before");
        sim.run();
        let st = sim.state();
        assert_eq!((st.served(), st.in_service(), st.waiting()), (5, 0, 0));
        // Two at once per second: latencies 1, 1, 2, 2, 3.
        assert_eq!(st.latency().count(), 5);
        assert_eq!(st.latency().min_max(), Some((1.0, 3.0)));
        assert_eq!(st.latency().summary().sum(), 9.0);
    }

    #[test]
    fn counters_start_at_zero() {
        let st = Station::new(2, SimDuration::from_secs(1), 4);
        assert_eq!((st.offered(), st.served(), st.shed()), (0, 0, 0));
        assert_eq!((st.waiting(), st.in_service(), st.peak_queue()), (0, 0, 0));
        assert_eq!(st.latency().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn a_station_needs_a_server() {
        let _ = Station::new(0, SimDuration::from_secs(1), 4);
    }

    /// Service time of the oracle runs.
    const SERVICE_S: f64 = 1.0;

    /// Drives `arrivals` Poisson arrivals at `rate` per second through a
    /// `servers`-server station and runs it empty.
    fn poisson_run(servers: u64, queue_limit: u64, rate: f64, arrivals: usize) -> Station {
        let mut rng = SimRng::seed(2024).derive("station-oracle");
        let gaps = Exp::new(rate).expect("positive rate");
        let mut t = 0.0;
        let offsets: Vec<SimDuration> = (0..arrivals)
            .map(|_| {
                t += gaps.sample(&mut rng);
                SimDuration::from_secs_f64(t)
            })
            .collect();
        let service = SimDuration::from_secs_f64(SERVICE_S);
        let mut sim = Simulation::new(1, Station::new(servers, service, queue_limit));
        sim.schedule_batch(&offsets, Station::arrive);
        sim.run();
        sim.into_state()
    }

    /// Pollaczek–Khinchine for M/D/1: mean sojourn D + ρD / (2(1 − ρ)).
    fn pk_sojourn(rho: f64) -> f64 {
        SERVICE_S + rho * SERVICE_S / (2.0 * (1.0 - rho))
    }

    /// Erlang-B blocking of `c` servers under `load` erlangs, by the
    /// recursion B(k) = a·B(k−1) / (k + a·B(k−1)), B(0) = 1.
    fn erlang_b(c: u64, load: f64) -> f64 {
        (1..=c).fold(1.0, |b, k| load * b / (k as f64 + load * b))
    }

    /// Mean sojourn of an M/D/1 run at utilization `rho`, relative to P-K.
    fn pk_error(rho: f64, arrivals: usize) -> f64 {
        let st = poisson_run(1, u64::MAX, rho / SERVICE_S, arrivals);
        assert_eq!(st.served(), arrivals as u64);
        st.latency().mean() / pk_sojourn(rho) - 1.0
    }

    /// Shed fraction of an M/D/c loss run under `load` erlangs, minus
    /// Erlang-B.
    fn erlang_b_error(c: u64, load: f64, arrivals: usize) -> f64 {
        let st = poisson_run(c, 0, load / SERVICE_S, arrivals);
        assert_eq!(st.served() + st.shed(), arrivals as u64);
        st.shed() as f64 / st.offered() as f64 - erlang_b(c, load)
    }

    #[test]
    fn erlang_b_recursion_matches_the_closed_form() {
        // B(4, 3) = (3⁴/4!) / Σₖ₌₀⁴ 3ᵏ/k! = 3.375 / 16.375.
        assert!((erlang_b(4, 3.0) - 3.375 / 16.375).abs() < 1e-12);
        assert!((erlang_b(1, 0.5) - 0.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn md1_mean_sojourn_matches_pollaczek_khinchine() {
        for rho in [0.5, 0.8] {
            let err = pk_error(rho, 200_000);
            assert!(err.abs() < 0.05, "ρ = {rho}: sojourn off P-K by {err:+.4}");
        }
    }

    #[test]
    fn mdc_loss_system_matches_erlang_b() {
        for (c, load) in [(1, 0.5), (4, 3.0)] {
            let err = erlang_b_error(c, load, 200_000);
            assert!(
                err.abs() < 0.01,
                "B({c}, {load}): shed off Erlang-B by {err:+.4}"
            );
        }
    }

    #[test]
    #[ignore = "wide sweep, 14M arrivals: run in release with --include-ignored"]
    fn oracles_hold_across_a_wide_sweep() {
        for c in [1, 2, 4, 8, 16] {
            for rho in [0.5, 1.0] {
                let load = rho * c as f64;
                let err = erlang_b_error(c, load, 1_000_000);
                assert!(
                    err.abs() < 0.002,
                    "B({c}, {load}): shed off Erlang-B by {err:+.5}"
                );
            }
        }
        for rho in [0.3, 0.5, 0.7, 0.9] {
            let err = pk_error(rho, 1_000_000);
            assert!(err.abs() < 0.01, "ρ = {rho}: sojourn off P-K by {err:+.5}");
        }
    }
}
