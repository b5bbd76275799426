//! The simulation executive.
//!
//! [`Simulation<S>`] owns the model state `S`, the virtual clock, the
//! pending-event set (a slab-backed arena, see [`crate::queue`]) and the
//! root RNG. Events are `FnOnce` closures that receive
//! `&mut Simulation<S>`, so a handler can read the clock, mutate state, draw
//! randomness and schedule further events. Handlers are stored **inline**
//! in the arena slot (or once per batch, for [`Simulation::schedule_batch`])
//! whenever they fit [`crate::event::INLINE_EVENT_BYTES`] (the
//! small-closure optimization in [`crate::event`]); only oversized
//! captures spill to a heap allocation, and both cases are counted per run
//! ([`RunStats::inline_scheduled`] / [`RunStats::spilled_scheduled`]), so
//! with the arena reusing its slots the steady-state event loop performs
//! zero allocations per event — pinned by `tests/zero_alloc.rs`.
//!
//! One executive is single-threaded by design: determinism is a hard
//! requirement (see DESIGN.md §4), so the event loop is an ordinary
//! sequential pop-execute cycle. Parallelism lives one layer up, between
//! executives that share nothing: [`crate::shard::run_jobs`] runs an
//! experiment's independent arms, each with its own simulation, on
//! separate threads.

use std::fmt;

use elc_trace::{Field, Level};

use crate::event::EventFn;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Trace target for kernel events.
const TRACE_TARGET: &str = "simcore";

/// Queue-depth sample cadence (in executed events) when tracing at debug.
/// Power of two so the hot-path modulo folds to a mask.
const QUEUE_SAMPLE_EVERY: u64 = 1024;

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of events executed.
    pub executed: u64,
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// Events still pending when the run stopped (nonzero when a horizon cut
    /// the run short).
    pub pending: usize,
    /// Events whose handler was stored inline in the arena slot (no heap
    /// allocation on schedule).
    pub inline_scheduled: u64,
    /// Events whose handler exceeded the inline payload buffer and spilled
    /// to a heap allocation. A nonzero steady-state value here is a perf
    /// regression in whichever model grew its captures.
    pub spilled_scheduled: u64,
}

/// A discrete-event simulation over model state `S`.
///
/// # Examples
///
/// Count arrivals over ten seconds of virtual time:
///
/// ```
/// use elc_simcore::sim::Simulation;
/// use elc_simcore::time::{SimDuration, SimTime};
///
/// #[derive(Default)]
/// struct Counter {
///     arrivals: u32,
/// }
///
/// fn arrive(sim: &mut Simulation<Counter>) {
///     sim.state_mut().arrivals += 1;
///     if sim.now() < SimTime::from_secs(10) {
///         sim.schedule_in(SimDuration::from_secs(1), arrive);
///     }
/// }
///
/// let mut sim = Simulation::new(7, Counter::default());
/// sim.schedule_in(SimDuration::from_secs(1), arrive);
/// sim.run();
/// assert_eq!(sim.state().arrivals, 10);
/// ```
pub struct Simulation<S> {
    now: SimTime,
    queue: EventQueue<EventFn<S>>,
    state: S,
    rng: SimRng,
    executed: u64,
    inline_scheduled: u64,
    spilled_scheduled: u64,
}

impl<S> Simulation<S> {
    /// Creates a simulation at time zero with the given seed and state.
    pub fn new(seed: u64, state: S) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            state,
            rng: SimRng::seed(seed),
            executed: 0,
            inline_scheduled: 0,
            spilled_scheduled: 0,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the model state.
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the model state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// The root random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events scheduled so far whose handler was stored inline (no heap
    /// allocation).
    #[must_use]
    pub fn inline_scheduled(&self) -> u64 {
        self.inline_scheduled
    }

    /// Events scheduled so far whose handler spilled to a `Box`.
    #[must_use]
    pub fn spilled_scheduled(&self) -> u64 {
        self.spilled_scheduled
    }

    /// Wraps `handler` for the arena, bumping the inline/spilled counter.
    /// Which counter is a property of the closure *type*, so the branch
    /// folds away at monomorphization time.
    #[inline]
    fn wrap<F>(&mut self, handler: F) -> EventFn<S>
    where
        F: FnOnce(&mut Simulation<S>) + 'static,
    {
        if const { EventFn::<S>::stores_inline::<F>() } {
            self.inline_scheduled += 1;
        } else {
            self.spilled_scheduled += 1;
        }
        EventFn::new(handler)
    }

    /// Schedules `handler` to run after `delay`.
    ///
    /// A fixed delay from the running clock — a service time, a timeout —
    /// never lands before the previous one, so such events join the
    /// queue's push run and are scheduled and popped in O(1) each. An
    /// event that fires before the push run's latest entry goes through
    /// the heap, at O(log n) (see [`EventQueue::push`]).
    #[inline]
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        handler: impl FnOnce(&mut Simulation<S>) + 'static,
    ) {
        let ev = self.wrap(handler);
        self.queue.push(self.now + delay, ev);
    }

    /// Schedules `handler` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — scheduling into the past would make
    /// the clock non-monotonic.
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        handler: impl FnOnce(&mut Simulation<S>) + 'static,
    ) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        let ev = self.wrap(handler);
        self.queue.push(time, ev);
    }

    /// Schedules one run of `handler` at each offset in `offsets`, relative
    /// to the current clock.
    ///
    /// The batch entry point for bursty arrival models (e.g.
    /// `elc-elearn`'s workload sampling a whole slot of Poisson arrivals at
    /// once): the handler is stored once per batch and copied as each
    /// entry fires, so a pending entry costs 16 bytes, and with a `handler`
    /// at or under the inline payload threshold each copy is
    /// allocation-free. Events fire in offset order; equal offsets keep the
    /// slice's FIFO order.
    ///
    /// Sort `offsets` ascending where possible: sorted offsets join the
    /// queue's batch lane and are scheduled and popped in O(1) each.
    /// Unsorted ones still work, through the heap, at O(log n) each and
    /// with a copy of the handler each (see [`EventQueue::push_batch`]).
    pub fn schedule_batch<F>(&mut self, offsets: &[SimDuration], handler: F)
    where
        F: Fn(&mut Simulation<S>) + Clone + 'static,
    {
        // Inline-vs-spill is a property of `F`, so one check covers the
        // whole batch.
        let n = offsets.len() as u64;
        if EventFn::<S>::stores_inline::<F>() {
            self.inline_scheduled += n;
        } else {
            self.spilled_scheduled += n;
        }
        let now = self.now;
        self.queue.push_batch(
            offsets.iter().map(|&delay| now + delay),
            EventFn::repeatable(handler),
            EventFn::repeat,
        );
    }

    /// Schedules `handler` to run every `interval`, starting after `start`.
    ///
    /// The handler returns `true` to keep ticking or `false` to stop.
    pub fn schedule_every(
        &mut self,
        start: SimDuration,
        interval: SimDuration,
        handler: impl FnMut(&mut Simulation<S>) -> bool + 'static,
    ) {
        fn tick<S, F>(sim: &mut Simulation<S>, mut f: F, interval: SimDuration)
        where
            F: FnMut(&mut Simulation<S>) -> bool + 'static,
        {
            if f(sim) {
                sim.schedule_in(interval, move |sim| tick(sim, f, interval));
            }
        }
        let f = handler;
        self.schedule_in(start, move |sim| tick(sim, f, interval));
    }

    /// Executes the next pending event, if any. Returns `false` when the
    /// queue is empty.
    #[inline]
    pub fn step(&mut self) -> bool {
        // Read the trace gate (a thread-local byte load + compare) *before*
        // taking the payload out of the arena, and keep the whole traced
        // variant out of line: on the untraced path there is then no call
        // site between the pop and the handler dispatch, so the popped
        // `EventFn` never needs to survive an unwind edge and the compiler
        // moves it slot → stack → call in a single copy.
        if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
            return self.step_traced();
        }
        match self.queue.pop() {
            Some((time, handler)) => {
                debug_assert!(time >= self.now, "event queue returned a past event");
                self.now = time;
                self.executed += 1;
                handler.call(self);
                true
            }
            None => false,
        }
    }

    /// [`Simulation::step`] with kernel-event emission; only reached when a
    /// tracer whose filter passes `Level::Debug` is installed.
    #[cold]
    fn step_traced(&mut self) -> bool {
        match self.queue.pop() {
            Some((time, handler)) => {
                debug_assert!(time >= self.now, "event queue returned a past event");
                self.now = time;
                self.executed += 1;
                self.trace_step(time);
                handler.call(self);
                true
            }
            None => false,
        }
    }

    /// Kernel-event emission, out of line to keep `step` lean.
    #[cold]
    fn trace_step(&self, time: SimTime) {
        if self.executed.is_multiple_of(QUEUE_SAMPLE_EVERY) {
            elc_trace::instant(
                time.as_nanos(),
                TRACE_TARGET,
                "queue.depth",
                Level::Debug,
                &[
                    Field::u64("executed", self.executed),
                    Field::u64("pending", self.queue.len() as u64),
                ],
            );
        }
        if elc_trace::enabled(TRACE_TARGET, Level::Trace) {
            elc_trace::instant(
                time.as_nanos(),
                TRACE_TARGET,
                "event.exec",
                Level::Trace,
                &[
                    Field::u64("seq", self.executed),
                    Field::u64("pending", self.queue.len() as u64),
                ],
            );
        }
    }

    /// Executes the next pending event if it fires strictly before
    /// `horizon`. Returns `false` — leaving the event pending — otherwise.
    /// The step of [`Simulation::run_until`].
    #[inline]
    fn step_before(&mut self, horizon: SimTime) -> bool {
        if elc_trace::enabled(TRACE_TARGET, Level::Debug) {
            return match self.queue.peek_time() {
                Some(t) if t < horizon => self.step_traced(),
                _ => false,
            };
        }
        match self.queue.pop_before(horizon) {
            Some((time, handler)) => {
                debug_assert!(time >= self.now, "event queue returned a past event");
                self.now = time;
                self.executed += 1;
                handler.call(self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self) -> RunStats {
        while self.step() {}
        self.stats()
    }

    /// Runs until the clock would pass `horizon` or no events remain.
    ///
    /// Events scheduled exactly at `horizon` are executed; later events stay
    /// pending and the clock is advanced to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunStats {
        // One lane comparison per event: `t < horizon + 1 ns` holds exactly
        // when `t <= horizon`, and the unbounded horizon admits everything.
        match horizon.as_nanos().checked_add(1) {
            Some(end) => while self.step_before(SimTime::from_nanos(end)) {},
            None => while self.step() {},
        }
        if self.now < horizon {
            self.now = horizon;
        }
        self.stats()
    }

    /// Runs for `span` of virtual time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> RunStats {
        let horizon = self.now + span;
        self.run_until(horizon)
    }

    /// Consumes the simulation and returns the final model state.
    #[must_use]
    pub fn into_state(self) -> S {
        self.state
    }

    fn stats(&self) -> RunStats {
        if elc_trace::enabled(TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                self.now.as_nanos(),
                TRACE_TARGET,
                "run.complete",
                Level::Info,
                &[
                    Field::u64("executed", self.executed),
                    Field::u64("pending", self.queue.len() as u64),
                    Field::u64("inline", self.inline_scheduled),
                    Field::u64("spilled", self.spilled_scheduled),
                ],
            );
        }
        RunStats {
            executed: self.executed,
            end_time: self.now,
            pending: self.queue.len(),
            inline_scheduled: self.inline_scheduled,
            spilled_scheduled: self.spilled_scheduled,
        }
    }
}

impl<S: fmt::Debug> fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("executed", &self.executed)
            .field("pending", &self.queue.len())
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_order_and_advance_clock() {
        let mut sim = Simulation::new(1, Vec::<(u64, &str)>::new());
        sim.schedule_in(SimDuration::from_secs(2), |s| {
            let t = s.now().as_nanos();
            s.state_mut().push((t, "b"));
        });
        sim.schedule_in(SimDuration::from_secs(1), |s| {
            let t = s.now().as_nanos();
            s.state_mut().push((t, "a"));
        });
        let stats = sim.run();
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.end_time, SimTime::from_secs(2));
        assert_eq!(
            *sim.state(),
            vec![
                (SimDuration::from_secs(1).as_nanos(), "a"),
                (SimDuration::from_secs(2).as_nanos(), "b"),
            ]
        );
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulation::new(1, 0u32);
        fn chain(sim: &mut Simulation<u32>) {
            *sim.state_mut() += 1;
            if *sim.state() < 5 {
                sim.schedule_in(SimDuration::from_secs(1), chain);
            }
        }
        sim.schedule_in(SimDuration::from_secs(1), chain);
        sim.run();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn step_before_stops_at_the_exclusive_horizon() {
        let mut sim = Simulation::new(1, 0u32);
        for i in 1..=4 {
            sim.schedule_at(SimTime::from_secs(i), |s| *s.state_mut() += 1);
        }
        while sim.step_before(SimTime::from_secs(3)) {}
        assert_eq!(*sim.state(), 2, "events at or past the horizon stay put");
        assert_eq!(sim.pending(), 2);
        assert_eq!(
            sim.now(),
            SimTime::from_secs(2),
            "clock stops at the last executed event"
        );
        while sim.step_before(SimTime::from_secs(100)) {}
        assert_eq!(*sim.state(), 4);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(1, 0u32);
        for i in 1..=10 {
            sim.schedule_at(SimTime::from_secs(i), |s| *s.state_mut() += 1);
        }
        let stats = sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.state(), 4);
        assert_eq!(stats.pending, 6);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        // Resume to completion.
        sim.run();
        assert_eq!(*sim.state(), 10);
    }

    #[test]
    fn run_until_includes_horizon_instant() {
        let mut sim = Simulation::new(1, false);
        sim.schedule_at(SimTime::from_secs(5), |s| *s.state_mut() = true);
        sim.run_until(SimTime::from_secs(5));
        assert!(*sim.state());
    }

    #[test]
    fn run_until_the_last_instant_runs_everything() {
        let mut sim = Simulation::new(1, 0u32);
        for t in [SimTime::from_secs(1), SimTime::MAX] {
            sim.schedule_at(t, |s| *s.state_mut() += 1);
        }
        let stats = sim.run_until(SimTime::from_nanos(u64::MAX - 1));
        assert_eq!((*sim.state(), stats.pending), (1, 1));
        let stats = sim.run_until(SimTime::MAX);
        assert_eq!((*sim.state(), stats.pending), (2, 0));
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Simulation::new(1, ());
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(1, ());
        sim.run_for(SimDuration::from_secs(10));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_at_past_panics() {
        let mut sim = Simulation::new(1, ());
        sim.schedule_at(SimTime::from_secs(5), |_| {});
        sim.run();
        sim.schedule_at(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn schedule_batch_fires_in_offset_order() {
        let mut sim = Simulation::new(1, Vec::<u64>::new());
        sim.run_for(SimDuration::from_secs(100)); // batch offsets are relative to "now"
        let offsets = [
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
        ];
        sim.schedule_batch(&offsets, |s| {
            let t = s.now().as_nanos() / 1_000_000_000;
            s.state_mut().push(t);
        });
        assert_eq!(sim.pending(), 3);
        sim.run();
        assert_eq!(*sim.state(), vec![101, 102, 103]);
    }

    #[test]
    fn schedule_every_ticks_until_stopped() {
        let mut sim = Simulation::new(1, 0u32);
        sim.schedule_every(SimDuration::from_secs(1), SimDuration::from_secs(2), |s| {
            *s.state_mut() += 1;
            *s.state() < 4
        });
        sim.run();
        assert_eq!(*sim.state(), 4);
        // Ticks at t = 1, 3, 5, 7.
        assert_eq!(sim.now(), SimTime::from_secs(7));
    }

    #[test]
    fn deterministic_given_seed() {
        fn run_once(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(seed, Vec::new());
            sim.schedule_every(SimDuration::from_secs(1), SimDuration::from_secs(1), |s| {
                let x = s.rng().next_u64();
                s.state_mut().push(x);
                s.state().len() < 20
            });
            sim.run();
            sim.into_state()
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }

    #[test]
    fn stats_report_counts() {
        let mut sim = Simulation::new(1, ());
        sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.schedule_in(SimDuration::from_secs(9), |_| {});
        let stats = sim.run_until(SimTime::from_secs(5));
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.pending, 1);
    }

    #[test]
    fn stats_count_inline_and_spilled_payloads() {
        use crate::event::INLINE_EVENT_BYTES;
        let mut sim = Simulation::new(1, 0u64);
        // Small capture: inline.
        let x = 7u64;
        sim.schedule_in(SimDuration::from_secs(1), move |s| *s.state_mut() += x);
        // Oversized capture: spills.
        let big = [0u8; INLINE_EVENT_BYTES + 1];
        sim.schedule_in(SimDuration::from_secs(2), move |s| {
            *s.state_mut() += u64::from(big[0]);
        });
        // Batch of ZST handlers: inline, counted once per offset.
        let offsets = [SimDuration::from_secs(3), SimDuration::from_secs(4)];
        sim.schedule_batch(&offsets, |s| *s.state_mut() += 1);
        assert_eq!(sim.inline_scheduled(), 3);
        assert_eq!(sim.spilled_scheduled(), 1);
        let stats = sim.run();
        assert_eq!(stats.inline_scheduled, 3);
        assert_eq!(stats.spilled_scheduled, 1);
        assert_eq!(*sim.state(), 9);
    }

    #[test]
    fn model_style_handlers_never_spill() {
        // The shapes the model crates schedule: fn items, capture-less
        // closures, and `schedule_every` ticks over small user closures.
        // If any of these spill, the allocation-free claim is gone.
        let mut sim = Simulation::new(1, 0u32);
        fn item(s: &mut Simulation<u32>) {
            *s.state_mut() += 1;
        }
        sim.schedule_in(SimDuration::from_secs(1), item);
        sim.schedule_every(SimDuration::from_secs(2), SimDuration::from_secs(1), |s| {
            *s.state_mut() += 1;
            *s.state() < 5
        });
        sim.run();
        assert_eq!(
            sim.spilled_scheduled(),
            0,
            "model event mix must stay inline"
        );
        assert_eq!(sim.inline_scheduled(), sim.executed());
    }

    #[test]
    fn into_state_returns_final_state() {
        let mut sim = Simulation::new(1, String::new());
        sim.schedule_in(SimDuration::from_secs(1), |s| {
            s.state_mut().push_str("done");
        });
        sim.run();
        assert_eq!(sim.into_state(), "done");
    }

    #[test]
    fn debug_impl_renders() {
        let sim = Simulation::new(1, 42u32);
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("Simulation") && dbg.contains("42"));
    }

    #[test]
    fn tracing_captures_kernel_events() {
        use elc_trace::{TraceFilter, Tracer};
        let (result, tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Trace)), || {
                let mut sim = Simulation::new(1, 0u32);
                sim.schedule_in(SimDuration::from_secs(2), |s| *s.state_mut() += 1);
                sim.run();
                *sim.state()
            });
        assert_eq!(result, 1);
        let names: Vec<&str> = tracer.events().map(|e| tracer.resolve(e.name)).collect();
        assert!(names.contains(&"event.exec"));
        assert!(names.contains(&"run.complete"));
        // Kernel events stamp sim time, not wall time.
        let exec = tracer
            .events()
            .find(|e| tracer.resolve(e.name) == "event.exec")
            .unwrap();
        assert_eq!(exec.time_ns, SimTime::from_secs(2).as_nanos());
    }

    #[test]
    fn tracing_disabled_leaves_run_unchanged() {
        // No tracer installed: the instrumented path must not observe one.
        assert!(!elc_trace::installed());
        let mut sim = Simulation::new(1, 0u32);
        sim.schedule_in(SimDuration::from_secs(1), |s| *s.state_mut() += 1);
        let stats = sim.run();
        assert_eq!(stats.executed, 1);
    }
}
