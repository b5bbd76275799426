//! A multi-server FIFO queueing station.
//!
//! [`Station`] models an M/M/c-style service point in virtual time: jobs
//! arrive, wait in FIFO order for one of `c` servers, are served for a
//! sampled duration, and leave. The station is *clock-driven by its
//! caller* — it exposes `arrive` and `advance_to` so it composes with the
//! event executive or with slot-based loops alike — and records waiting
//! time, sojourn time and queue-length statistics.
//!
//! No experiment uses it yet: the `a4_latency_model` bench runs it as the
//! explicit M/M/c reference for E12's closed-form latency curve, and the
//! unit tests validate it against the closed-form M/M/1 and M/M/c
//! results.

use std::collections::VecDeque;

use crate::metrics::{Counter, Histogram};
use crate::series::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// One waiting job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    arrived_at: SimTime,
    service: SimDuration,
}

/// A busy server: when it frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Busy(SimTime);

/// A c-server FIFO station with unbounded (or bounded) waiting room.
///
/// # Examples
///
/// ```
/// use elc_simcore::queueing::Station;
/// use elc_simcore::time::{SimDuration, SimTime};
///
/// let mut st = Station::new(1, None);
/// st.arrive(SimTime::ZERO, SimDuration::from_secs(2));
/// st.arrive(SimTime::from_secs(1), SimDuration::from_secs(2));
/// st.advance_to(SimTime::from_secs(10));
/// assert_eq!(st.completed().value(), 2);
/// // Second job waited one second for the first to finish.
/// assert!(st.waiting_time().mean() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Station {
    servers: usize,
    waiting_cap: Option<usize>,
    queue: VecDeque<Job>,
    busy: Vec<Busy>,
    now: SimTime,
    completed: Counter,
    rejected: Counter,
    waiting: Histogram,
    sojourn: Histogram,
    queue_len: TimeWeighted,
}

impl Station {
    /// Creates a station with `servers` servers and an optional waiting-room
    /// bound (`None` = unbounded; `Some(0)` = loss system).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[must_use]
    pub fn new(servers: usize, waiting_cap: Option<usize>) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        Station {
            servers,
            waiting_cap,
            queue: VecDeque::new(),
            busy: Vec::new(),
            now: SimTime::ZERO,
            completed: Counter::new(),
            rejected: Counter::new(),
            waiting: Histogram::new(),
            sojourn: Histogram::new(),
            queue_len: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Resizes the server pool (elastic stations). Shrinking does not
    /// preempt jobs already in service; the pool drains down naturally.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn resize(&mut self, servers: usize) {
        assert!(servers > 0, "a station needs at least one server");
        self.servers = servers;
    }

    /// Advances the station clock to `t`, completing any service that
    /// finishes by then and starting queued jobs as servers free up.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current station clock.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "station clock cannot go backwards");
        loop {
            // Earliest completion within the pool.
            self.busy.sort_unstable();
            let next_free = self.busy.first().copied();
            match next_free {
                Some(Busy(done)) if done <= t => {
                    self.busy.remove(0);
                    self.completed.incr();
                    self.now = done;
                    self.try_start_queued();
                    // Record the queue transition at the instant it
                    // happened, so the time-weighted average is exact.
                    self.queue_len.set(done, self.queue.len() as f64);
                }
                _ => break,
            }
        }
        self.now = t;
        self.try_start_queued();
        self.queue_len.set(t, self.queue.len() as f64);
    }

    fn try_start_queued(&mut self) {
        while self.busy.len() < self.servers {
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            let wait = self.now.saturating_since(job.arrived_at);
            self.waiting.record_duration(wait);
            self.sojourn.record_duration(wait + job.service);
            self.busy.push(Busy(self.now + job.service));
        }
    }

    /// A job arrives at `t` needing `service` time.
    ///
    /// Returns `false` if the waiting room was full and the job was lost.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the station clock — call sites must feed
    /// arrivals in time order (the event executive guarantees this).
    pub fn arrive(&mut self, t: SimTime, service: SimDuration) -> bool {
        self.advance_to(t);
        if let Some(cap) = self.waiting_cap {
            if self.busy.len() >= self.servers && self.queue.len() >= cap {
                self.rejected.incr();
                return false;
            }
        }
        self.queue.push_back(Job {
            arrived_at: t,
            service,
        });
        self.try_start_queued();
        self.queue_len.set(t, self.queue.len() as f64);
        true
    }

    /// Jobs finished so far.
    #[must_use]
    pub fn completed(&self) -> Counter {
        self.completed
    }

    /// Jobs lost to a full waiting room.
    #[must_use]
    pub fn rejected(&self) -> Counter {
        self.rejected
    }

    /// Jobs currently waiting (not in service).
    #[must_use]
    pub fn queue_length(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently in service.
    #[must_use]
    pub fn in_service(&self) -> usize {
        self.busy.len()
    }

    /// Waiting-time distribution (seconds) of started jobs.
    #[must_use]
    pub fn waiting_time(&self) -> &Histogram {
        &self.waiting
    }

    /// Sojourn-time distribution (wait + service, seconds) of started jobs.
    #[must_use]
    pub fn sojourn_time(&self) -> &Histogram {
        &self.sojourn
    }

    /// Time-average queue length since the station was created.
    #[must_use]
    pub fn mean_queue_length(&self) -> f64 {
        self.queue_len.time_average(self.now)
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

    #[test]
    fn single_server_fifo_order() {
        let mut st = Station::new(1, None);
        st.arrive(secs(0), SimDuration::from_secs(5));
        st.arrive(secs(1), SimDuration::from_secs(5));
        st.arrive(secs(2), SimDuration::from_secs(5));
        st.advance_to(secs(4));
        assert_eq!(st.completed().value(), 0);
        assert_eq!(st.in_service(), 1);
        assert_eq!(st.queue_length(), 2);
        st.advance_to(secs(15));
        assert_eq!(st.completed().value(), 3);
        assert_eq!(st.queue_length(), 0);
    }

    #[test]
    fn waits_accumulate_behind_a_long_job() {
        let mut st = Station::new(1, None);
        st.arrive(secs(0), SimDuration::from_secs(10));
        st.arrive(secs(0), SimDuration::from_secs(1));
        st.advance_to(secs(20));
        // Second job waited exactly 10 seconds.
        let (lo, hi) = st.waiting_time().min_max().unwrap();
        assert_eq!(lo, 0.0);
        assert!((hi - 10.0).abs() < 0.5, "hi {hi}");
    }

    #[test]
    fn parallel_servers_avoid_waits() {
        let mut st = Station::new(3, None);
        for _ in 0..3 {
            st.arrive(secs(0), SimDuration::from_secs(5));
        }
        st.advance_to(secs(6));
        assert_eq!(st.completed().value(), 3);
        assert_eq!(st.waiting_time().mean(), 0.0);
    }

    #[test]
    fn loss_system_rejects_when_full() {
        let mut st = Station::new(1, Some(0));
        assert!(st.arrive(secs(0), SimDuration::from_secs(10)));
        assert!(!st.arrive(secs(1), SimDuration::from_secs(1)));
        assert_eq!(st.rejected().value(), 1);
        st.advance_to(secs(11));
        assert!(st.arrive(secs(11), SimDuration::from_secs(1)));
    }

    #[test]
    fn bounded_waiting_room() {
        let mut st = Station::new(1, Some(2));
        assert!(st.arrive(secs(0), SimDuration::from_secs(100)));
        assert!(st.arrive(secs(0), SimDuration::from_secs(1)));
        assert!(st.arrive(secs(0), SimDuration::from_secs(1)));
        assert!(!st.arrive(secs(0), SimDuration::from_secs(1)));
        assert_eq!(st.queue_length(), 2);
    }

    #[test]
    fn resize_grows_service_capacity() {
        let mut st = Station::new(1, None);
        for _ in 0..4 {
            st.arrive(secs(0), SimDuration::from_secs(10));
        }
        st.resize(4);
        st.advance_to(secs(0));
        assert_eq!(st.in_service(), 4);
        st.advance_to(secs(10));
        assert_eq!(st.completed().value(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn clock_is_monotone() {
        let mut st = Station::new(1, None);
        st.advance_to(secs(10));
        st.advance_to(secs(5));
    }

    /// M/M/1 sanity: with λ = 0.5, μ = 1 (ρ = 0.5), the mean waiting time
    /// in queue is ρ/(μ−λ) = 1.0 and mean sojourn 1/(μ−λ) = 2.0.
    #[test]
    fn mm1_matches_theory() {
        let mut rng = SimRng::seed(42);
        let arrivals = Exp::new(0.5).unwrap();
        let service = Exp::new(1.0).unwrap();
        let mut st = Station::new(1, None);
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += arrivals.sample(&mut rng);
            let s = service.sample(&mut rng);
            st.arrive(
                SimTime::from_nanos((t * 1e9) as u64),
                SimDuration::from_secs_f64(s),
            );
        }
        st.advance_to(SimTime::from_nanos((t * 1e9) as u64) + SimDuration::from_secs(10_000));
        let wq = st.waiting_time().mean();
        let w = st.sojourn_time().mean();
        assert!((wq - 1.0).abs() < 0.1, "Wq {wq} (theory 1.0)");
        assert!((w - 2.0).abs() < 0.1, "W {w} (theory 2.0)");
    }

    /// M/M/2 sanity: λ = 1.2, μ = 1 per server (ρ = 0.6). Erlang-C gives
    /// P(wait) = 0.45 and Wq = C/(cμ−λ) = 0.5625.
    #[test]
    fn mm2_matches_erlang_c() {
        let mut rng = SimRng::seed(7);
        let arrivals = Exp::new(1.2).unwrap();
        let service = Exp::new(1.0).unwrap();
        let mut st = Station::new(2, None);
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += arrivals.sample(&mut rng);
            let s = service.sample(&mut rng);
            st.arrive(
                SimTime::from_nanos((t * 1e9) as u64),
                SimDuration::from_secs_f64(s),
            );
        }
        st.advance_to(SimTime::from_nanos((t * 1e9) as u64) + SimDuration::from_secs(10_000));
        let wq = st.waiting_time().mean();
        assert!((wq - 0.5625).abs() < 0.05, "Wq {wq} (theory 0.5625)");
    }

    #[test]
    fn mean_queue_length_little_law() {
        // Little's law: Lq = λ · Wq. Reuse the M/M/1 setup (λ=0.5 ⇒ Lq=0.5).
        let mut rng = SimRng::seed(11);
        let arrivals = Exp::new(0.5).unwrap();
        let service = Exp::new(1.0).unwrap();
        let mut st = Station::new(1, None);
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += arrivals.sample(&mut rng);
            let s = service.sample(&mut rng);
            st.arrive(
                SimTime::from_nanos((t * 1e9) as u64),
                SimDuration::from_secs_f64(s),
            );
        }
        let lq = st.mean_queue_length();
        assert!((lq - 0.5).abs() < 0.06, "Lq {lq} (theory 0.5)");
    }

    #[test]
    fn counters_start_at_zero() {
        let st = Station::new(2, None);
        assert_eq!(st.completed().value(), 0);
        assert_eq!(st.rejected().value(), 0);
        assert_eq!(st.queue_length(), 0);
        assert_eq!(st.in_service(), 0);
        assert_eq!(st.servers(), 2);
    }
}
