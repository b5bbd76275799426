//! Replay: drive any experiment from a recorded trace.
//!
//! [`TraceReplayer`] implements `WorkloadSource` over one [`Stream`] of a
//! [`WorkloadTrace`]:
//!
//! * `rate_at` returns the recorded bits on an exact hit and the last
//!   recorded rate before `t` otherwise (piecewise-constant), so replays
//!   are exact where the recording queried and sensible in between;
//! * `sample_arrivals` returns the recorded count on an exact
//!   `(t, slot)` hit **without touching the RNG** — the caller's stream
//!   stays aligned with the recording run — and falls back to a Poisson
//!   draw over the replayed rate off-trace (consuming the RNG exactly as
//!   the generator would have);
//! * `sample_arrival_offsets` (trait default) re-jitters replayed counts
//!   into uniform offsets through the *caller's* `SimRng`, which is what
//!   keeps shard/thread byte-identity: the count is data, the jitter is
//!   the caller's seed lineage.
//!
//! [`TraceHandout`] hands streams to consumers the way the recorder saw
//! sources get created: each `source()` call yields an unbound replayer
//! that binds to a concrete stream on its first time-keyed query —
//! preferring an unclaimed stream whose first recorded instant matches
//! the query (so parallel arms with distinct start days find their own
//! stream regardless of creation races), then falling back to creation
//! order.

use std::sync::{Arc, Mutex, OnceLock};

use elc_elearn::request::RequestMix;
use elc_elearn::source::WorkloadSource;
use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::trace::{RateSample, Stream, TraceError, WorkloadTrace};

#[derive(Debug, Default)]
struct HandoutState {
    claimed: Vec<bool>,
    cycle: usize,
}

/// Hands a trace's streams to replay consumers, one per
/// [`source`](TraceHandout::source) call. Clones share claim state; a
/// fresh handout (e.g. per runner replication) restarts the hand-out.
#[derive(Debug, Clone)]
pub struct TraceHandout {
    trace: Arc<WorkloadTrace>,
    state: Arc<Mutex<HandoutState>>,
}

impl TraceHandout {
    /// A handout over `trace`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when the trace has no streams.
    pub fn new(trace: Arc<WorkloadTrace>) -> Result<Self, TraceError> {
        if trace.streams.is_empty() {
            return Err(TraceError::Empty);
        }
        let state = HandoutState {
            claimed: vec![false; trace.streams.len()],
            cycle: 0,
        };
        Ok(TraceHandout {
            trace,
            state: Arc::new(Mutex::new(state)),
        })
    }

    /// The shared trace.
    #[must_use]
    pub fn trace(&self) -> &Arc<WorkloadTrace> {
        &self.trace
    }

    /// The next replay source (unbound until its first time-keyed query).
    #[must_use]
    pub fn source(&self) -> TraceReplayer {
        TraceReplayer {
            trace: self.trace.clone(),
            students: self.trace.students,
            peak_rate_bits: self.trace.peak_rate_bits,
            handout: Some(self.clone()),
            bound: Arc::new(OnceLock::new()),
        }
    }

    /// Forgets all claims, so the next consumers start from stream 0
    /// again (used when a scenario is reseeded for a new replication).
    pub fn reset(&self) {
        let mut state = self.state.lock().expect("handout lock");
        state.claimed.iter_mut().for_each(|c| *c = false);
        state.cycle = 0;
    }

    fn bind(&self, t_ns: u64) -> usize {
        let streams = &self.trace.streams;
        let mut state = self.state.lock().expect("handout lock");
        // 1. An unclaimed stream that starts exactly at the query instant
        //    — parallel arms find their own stream whatever the creation
        //    race did.
        if let Some(i) =
            (0..streams.len()).find(|&i| !state.claimed[i] && streams[i].first_t_ns() == Some(t_ns))
        {
            state.claimed[i] = true;
            return i;
        }
        // 2. A claimed stream with that exact start: repeated runs over
        //    one handout still bind by time.
        if let Some(i) = (0..streams.len()).find(|&i| streams[i].first_t_ns() == Some(t_ns)) {
            return i;
        }
        // 3. Creation order: the lowest unclaimed stream.
        if let Some(i) = (0..streams.len()).find(|&i| !state.claimed[i]) {
            state.claimed[i] = true;
            return i;
        }
        // 4. All claimed: cycle.
        let i = state.cycle % streams.len();
        state.cycle += 1;
        i
    }
}

/// Replays one recorded demand stream through the `WorkloadSource` trait.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    trace: Arc<WorkloadTrace>,
    students: u32,
    peak_rate_bits: u64,
    handout: Option<TraceHandout>,
    bound: Arc<OnceLock<usize>>,
}

impl TraceReplayer {
    /// A replayer bound to stream `index` (taken modulo the stream
    /// count).
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when the trace has no streams.
    pub fn stream(trace: Arc<WorkloadTrace>, index: usize) -> Result<Self, TraceError> {
        if trace.streams.is_empty() {
            return Err(TraceError::Empty);
        }
        let bound = OnceLock::new();
        let _ = bound.set(index % trace.streams.len());
        Ok(TraceReplayer {
            students: trace.students,
            peak_rate_bits: trace.peak_rate_bits,
            handout: None,
            bound: Arc::new(bound),
            trace,
        })
    }

    fn stream_for(&self, t_ns: u64) -> &Stream {
        let idx = *self.bound.get_or_init(|| {
            let idx = match &self.handout {
                Some(handout) => handout.bind(t_ns),
                None => 0,
            };
            if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
                elc_trace::instant(
                    t_ns,
                    crate::TRACE_TARGET,
                    "replay.bind",
                    Level::Info,
                    &[Field::u64("stream", idx as u64)],
                );
            }
            idx
        });
        &self.trace.streams[idx]
    }

    fn lookup_rate(stream: &Stream, t_ns: u64) -> f64 {
        let idx = stream.rates.partition_point(|r| r.t_ns <= t_ns);
        if idx == 0 {
            return 0.0;
        }
        let RateSample { rate_bits, .. } = stream.rates[idx - 1];
        f64::from_bits(rate_bits)
    }
}

impl WorkloadSource for TraceReplayer {
    fn students(&self) -> u32 {
        self.students
    }

    fn peak_rate(&self) -> f64 {
        f64::from_bits(self.peak_rate_bits)
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        Self::lookup_rate(self.stream_for(t.as_nanos()), t.as_nanos())
    }

    fn mix_at(&self, t: SimTime) -> RequestMix {
        let t_ns = t.as_nanos();
        let stream = self.stream_for(t_ns);
        let idx = stream.mixes.partition_point(|m| m.t_ns <= t_ns);
        let sample = if idx > 0 {
            Some(stream.mixes[idx - 1])
        } else {
            stream.mixes.first().copied()
        };
        sample
            .and_then(|m| self.trace.mix(m.mix).ok())
            .unwrap_or_else(RequestMix::teaching)
    }

    fn sample_arrivals(&self, rng: &mut SimRng, t: SimTime, slot: SimDuration) -> u64 {
        let t_ns = t.as_nanos();
        let slot_ns = slot.as_nanos();
        let stream = self.stream_for(t_ns);
        let idx = stream
            .slots
            .partition_point(|s| (s.t_ns, s.slot_ns) < (t_ns, slot_ns));
        if let Some(s) = stream.slots.get(idx) {
            if s.t_ns == t_ns && s.slot_ns == slot_ns {
                // Exact hit: the count is data, no RNG is consumed.
                if elc_trace::enabled(crate::TRACE_TARGET, Level::Debug) {
                    elc_trace::instant(
                        t_ns,
                        crate::TRACE_TARGET,
                        "replay.slot",
                        Level::Debug,
                        &[Field::u64("count", s.count)],
                    );
                }
                return s.count;
            }
        }
        // Off-trace query: fall back to the generator's sampling rule over
        // the replayed rate, consuming the RNG just like a generator.
        let lambda = Self::lookup_rate(stream, t_ns) * slot.as_secs_f64();
        Poisson::new(lambda.max(0.0))
            .expect("replayed rate is finite and non-negative")
            .sample(rng)
    }

    fn clone_source(&self) -> Box<dyn WorkloadSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;

    fn recorded_trace(students: u32, seed: u64) -> (WorkloadModel, Arc<WorkloadTrace>) {
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let model = WorkloadModel::builder(students, cal).build().unwrap();
        let recorder = TraceRecorder::new();
        let wrapped = recorder.wrap(Box::new(model.clone()));
        let mut rng = SimRng::seed(seed);
        let slot = SimDuration::from_secs(60);
        let start = SimTime::from_secs(15 * 7 * 86_400 + 12 * 3_600);
        for i in 0..240u64 {
            let t = start + SimDuration::from_secs(i * 60);
            wrapped.sample_arrivals(&mut rng, t, slot);
            if i % 30 == 0 {
                let _ = wrapped.mix_at(t);
            }
        }
        (model, Arc::new(recorder.finish().unwrap()))
    }

    #[test]
    fn replay_returns_recorded_counts_without_consuming_rng() {
        let (model, trace) = recorded_trace(10_000, 42);
        let replay = TraceReplayer::stream(trace, 0).unwrap();
        // Regenerate the recording run to know the expected counts.
        let mut gen_rng = SimRng::seed(42);
        let mut replay_rng = SimRng::seed(123); // deliberately different
        let slot = SimDuration::from_secs(60);
        let start = SimTime::from_secs(15 * 7 * 86_400 + 12 * 3_600);
        for i in 0..240u64 {
            let t = start + SimDuration::from_secs(i * 60);
            let expect = model.sample_arrivals(&mut gen_rng, t, slot);
            let got = replay.sample_arrivals(&mut replay_rng, t, slot);
            assert_eq!(got, expect, "tick {i}");
        }
        assert_eq!(
            replay_rng.next_u64(),
            SimRng::seed(123).next_u64(),
            "exact hits must not touch the caller's RNG"
        );
    }

    #[test]
    fn replayed_rates_and_header_are_bit_exact() {
        let (model, trace) = recorded_trace(10_000, 7);
        let replay = TraceReplayer::stream(trace, 0).unwrap();
        assert_eq!(replay.students(), model.students());
        assert_eq!(replay.peak_rate().to_bits(), model.peak_rate().to_bits());
        let t = SimTime::from_secs(15 * 7 * 86_400 + 12 * 3_600 + 50 * 60);
        assert_eq!(replay.rate_at(t).to_bits(), model.rate_at(t).to_bits());
        // Between recorded samples: piecewise-constant floor.
        let between = t + SimDuration::from_secs(30);
        assert_eq!(
            replay.rate_at(between).to_bits(),
            model.rate_at(t).to_bits()
        );
        // Before the first sample: quiet.
        assert_eq!(replay.rate_at(SimTime::ZERO), 0.0);
        // Exam-window mix replays as recorded.
        assert_eq!(replay.mix_at(t), model.mix_at(t));
    }

    #[test]
    fn off_trace_queries_fall_back_to_poisson_over_the_replayed_rate() {
        let (_, trace) = recorded_trace(10_000, 9);
        let replay = TraceReplayer::stream(trace, 0).unwrap();
        let t = SimTime::from_secs(15 * 7 * 86_400 + 12 * 3_600 + 10 * 60);
        // A slot width the recording never used misses the exact-hit path.
        let odd_slot = SimDuration::from_secs(17);
        let mut a = SimRng::seed(5);
        let mut b = SimRng::seed(5);
        let x = replay.sample_arrivals(&mut a, t, odd_slot);
        let y = replay.sample_arrivals(&mut b, t, odd_slot);
        assert_eq!(x, y, "fallback is deterministic in the caller's seed");
        assert_ne!(
            a.next_u64(),
            SimRng::seed(5).next_u64(),
            "fallback consumes the RNG like a generator"
        );
    }

    #[test]
    fn handout_binds_streams_by_first_query_time_then_creation_order() {
        // Record two sources with distinct start instants.
        let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
        let model = WorkloadModel::builder(4_000, cal).build().unwrap();
        let recorder = TraceRecorder::new();
        let early = recorder.wrap(Box::new(model.clone()));
        let late = recorder.wrap(Box::new(model));
        let mut rng = SimRng::seed(3);
        let slot = SimDuration::from_secs(60);
        let t_early = SimTime::from_secs(5 * 7 * 86_400);
        let t_late = SimTime::from_secs(6 * 7 * 86_400);
        let n_early = early.sample_arrivals(&mut rng, t_early, slot);
        let n_late = late.sample_arrivals(&mut rng, t_late, slot);
        let trace = Arc::new(recorder.finish().unwrap());

        let handout = TraceHandout::new(trace.clone()).unwrap();
        // Consumers created in the opposite order still find their stream
        // because first-query instants disambiguate.
        let b = handout.source();
        let a = handout.source();
        let mut replay_rng = SimRng::seed(99);
        assert_eq!(b.sample_arrivals(&mut replay_rng, t_late, slot), n_late);
        assert_eq!(a.sample_arrivals(&mut replay_rng, t_early, slot), n_early);

        // After reset the hand-out starts over.
        handout.reset();
        let c = handout.source();
        assert_eq!(c.sample_arrivals(&mut replay_rng, t_early, slot), n_early);

        // Exhausting the streams cycles in creation order.
        let more: Vec<_> = (0..3).map(|_| handout.source()).collect();
        let probe = SimTime::from_secs(86_400);
        for source in &more {
            let _ = source.rate_at(probe);
        }
        assert!(TraceHandout::new(Arc::new(WorkloadTrace::empty(1, 0.0).clone())).is_err());
    }
}
