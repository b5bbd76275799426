//! [`PerSandbox`]: the invoker visited one sandbox at a time, the
//! reference the run-based [`Invoker`](elc_faas::Invoker) is checked
//! against.

mod container;

use std::collections::VecDeque;

use elc_elearn::request::RequestKind;
use elc_faas::{FixedWindow, InvokerConfig, StartProfile, TickOutcome, TRACE_TARGET};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use container::{Container, ContainerState};

/// The invoker's tick order over a `Vec` of [`Container`] state machines,
/// each sandbox visited on its own and its warm serves recorded on their
/// own. Same RNG draws and the same trace events as the invoker, so every
/// outcome, count, quantile and trace line must agree.
pub struct PerSandbox {
    kind: RequestKind,
    keepalive: FixedWindow,
    concurrency_limit: u32,
    buffer_capacity: u64,
    containers: Vec<Container>,
    buffer: VecDeque<(SimTime, u64)>,
    buffered: u64,
    next_id: u64,
    /// Ticks whose warm serving stopped inside a group of alike idle
    /// sandboxes, one the invoker holds as a run.
    pub split_serves: u32,
    /// Kills that stopped inside a group of alike idle sandboxes.
    pub split_kills: u32,
}

impl PerSandbox {
    pub fn new(kind: RequestKind, config: &InvokerConfig) -> Self {
        PerSandbox {
            kind,
            keepalive: config.keepalive(),
            concurrency_limit: config.concurrency_limit(),
            buffer_capacity: config.buffer_capacity(),
            containers: Vec::new(),
            buffer: VecDeque::new(),
            buffered: 0,
            next_id: 0,
            split_serves: 0,
            split_kills: 0,
        }
    }

    pub fn live(&self) -> u32 {
        self.containers.iter().filter(|c| c.is_live()).count() as u32
    }

    pub fn idle(&self) -> u32 {
        self.containers
            .iter()
            .filter(|c| c.state() == ContainerState::Idle)
            .count() as u32
    }

    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Kills initializing sandboxes, then idle ones, each in creation
    /// order.
    pub fn kill(&mut self, count: u32) -> u32 {
        let mut killed = 0;
        let mut last = None;
        for pass in [ContainerState::Initializing, ContainerState::Idle] {
            for (i, c) in self.containers.iter_mut().enumerate() {
                if killed < count && c.state() == pass {
                    last = Some((i, c.state(), c.idle_since()));
                    c.kill();
                    killed += 1;
                }
            }
        }
        if let Some((i, ContainerState::Idle, since)) = last {
            self.split_kills += u32::from(
                self.containers
                    .get(i + 1)
                    .is_some_and(|c| c.state() == ContainerState::Idle && c.idle_since() == since),
            );
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
    pub fn tick(
        &mut self,
        now: SimTime,
        tick_len: SimDuration,
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
                let idle_for = now - c.idle_since();
                c.reap();
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
        self.containers.retain(Container::is_live);

        let per_invocation = spec.warm_start() + spec.service_time();
        let slots_per = (tick_len.as_nanos() / per_invocation.as_nanos()).max(1);
        let warm_latency = per_invocation.as_secs_f64();
        let mut fresh = demand;
        let mut last_served = None;
        for i in 0..self.containers.len() {
            if self.buffered == 0 && fresh == 0 {
                break;
            }
            if self.containers[i].state() != ContainerState::Idle {
                continue;
            }
            last_served = Some((i, self.containers[i].idle_since()));
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
        if let Some((i, since)) = last_served {
            self.split_serves += u32::from(
                self.containers
                    .get(i + 1)
                    .is_some_and(|c| c.state() == ContainerState::Idle && c.idle_since() == since),
            );
        }

        let headroom = self.concurrency_limit.saturating_sub(self.live());
        for _ in 0..grant.min(headroom) {
            let cold_start = spec.sample_cold_start(rng);
            let mut c = Container::new(self.next_id);
            self.next_id += 1;
            c.start(now, cold_start);
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
                        Field::duration_ns("cold_start", cold_start.as_nanos()),
                    ],
                );
            }
            if cold_start < tick_len {
                let ready = now + cold_start;
                c.poll_ready(ready);
                let share = 1.0 - cold_start.as_secs_f64() / tick_len.as_secs_f64();
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
            if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
                elc_trace::instant(
                    now.as_nanos(),
                    TRACE_TARGET,
                    "invoke.buffered",
                    Level::Debug,
                    &[
                        Field::str("kind", self.kind.to_string()),
                        Field::u64("count", to_buffer),
                        Field::u64("depth", self.buffered),
                    ],
                );
            }
        }
        out.shed = fresh - to_buffer;
        if out.shed > 0 && elc_trace::enabled(TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "invoke.shed",
                Level::Info,
                &[
                    Field::str("kind", self.kind.to_string()),
                    Field::u64("count", out.shed),
                ],
            );
        }
        out
    }
}
