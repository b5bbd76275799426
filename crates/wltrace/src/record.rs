//! Recording: tee a generator-driven run into a trace.
//!
//! [`TraceRecorder::wrap`] interposes a recording shim in front of any
//! `WorkloadSource`. The shim delegates every query to the inner source —
//! consuming the caller's RNG exactly as an unwrapped run would, so
//! recording never perturbs the run being recorded — and logs the answers:
//! rates as raw f64 bits, mixes interned, arrival slots as counts. Each
//! wrapped source gets its own [`Stream`], in creation order.
//!
//! Record with a single shard (`--shards 1`): parallel arms create their
//! sources in a racy order, and the stream order in the file is the
//! replayer's hand-out order. (The replayer also time-matches streams on
//! first query, which rescues arms whose demand starts at distinct
//! instants — but creation order is the contract.)

use std::sync::{Arc, Mutex};

use elc_elearn::request::RequestMix;
use elc_elearn::source::WorkloadSource;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::trace::{
    dedup_stream, MixSample, RateSample, SlotSample, Stream, TraceError, WorkloadTrace,
};

#[derive(Debug, Default)]
struct RecorderInner {
    header: Option<(u32, u64)>,
    conflict: Option<(u32, u32)>,
    mixes: Vec<Vec<(elc_elearn::request::RequestKind, u64)>>,
    streams: Vec<Stream>,
}

/// Collects the demand streams of one run; cheap to clone (all clones
/// share the same buffer).
///
/// # Examples
///
/// ```
/// use elc_elearn::calendar::AcademicCalendar;
/// use elc_elearn::source::WorkloadSource;
/// use elc_elearn::workload::WorkloadModel;
/// use elc_simcore::{SimDuration, SimRng, SimTime};
/// use elc_wltrace::TraceRecorder;
///
/// let cal = AcademicCalendar::standard_semester(SimTime::ZERO);
/// let model = WorkloadModel::builder(1_000, cal).build().unwrap();
/// let recorder = TraceRecorder::new();
/// let source = recorder.wrap(Box::new(model));
/// let mut rng = SimRng::seed(7);
/// let t = cal.exams_start() + SimDuration::from_hours(20);
/// let n = source.sample_arrivals(&mut rng, t, SimDuration::from_secs(60));
/// let trace = recorder.finish().unwrap();
/// assert_eq!(trace.streams[0].slots[0].count, n);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Wraps `source` in a recording shim that opens the next stream.
    #[must_use]
    pub fn wrap(&self, source: Box<dyn WorkloadSource>) -> Box<dyn WorkloadSource> {
        let students = source.students();
        let peak_bits = source.peak_rate().to_bits();
        let stream = {
            let mut inner = self.inner.lock().expect("recorder lock");
            match inner.header {
                None => inner.header = Some((students, peak_bits)),
                Some((s, p)) => {
                    if (s, p) != (students, peak_bits) && inner.conflict.is_none() {
                        inner.conflict = Some((s, students));
                    }
                }
            }
            inner.streams.push(Stream::default());
            inner.streams.len() - 1
        };
        if elc_trace::enabled(crate::TRACE_TARGET, Level::Info) {
            elc_trace::instant(
                0,
                crate::TRACE_TARGET,
                "record.stream",
                Level::Info,
                &[
                    Field::u64("stream", stream as u64),
                    Field::u64("students", u64::from(students)),
                ],
            );
        }
        Box::new(RecordingSource {
            recorder: self.clone(),
            stream,
            source,
        })
    }

    /// Snapshots the recording into a validated trace. The recorder stays
    /// usable; wrapped sources keep appending.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when nothing was recorded;
    /// [`TraceError::HeaderConflict`] when wrapped sources came from
    /// different institutions.
    pub fn finish(&self) -> Result<WorkloadTrace, TraceError> {
        let inner = self.inner.lock().expect("recorder lock");
        if let Some((first, other)) = inner.conflict {
            return Err(TraceError::HeaderConflict { first, other });
        }
        let Some((students, peak_rate_bits)) = inner.header else {
            return Err(TraceError::Empty);
        };
        let mut trace = WorkloadTrace {
            students,
            peak_rate_bits,
            mixes: inner.mixes.clone(),
            streams: inner.streams.clone(),
        };
        drop(inner);
        for stream in &mut trace.streams {
            stream.rates.sort_by_key(|r| r.t_ns);
            stream.mixes.sort_by_key(|m| m.t_ns);
            stream.slots.sort_by_key(|s| (s.t_ns, s.slot_ns));
            dedup_stream(stream);
        }
        // Empty streams (sources wrapped but never queried) are kept so
        // stream indices still mirror source-creation order on replay.
        if trace.streams.iter().all(|s| s.first_t_ns().is_none()) {
            return Err(TraceError::Empty);
        }
        trace.validate()?;
        Ok(trace)
    }
}

/// The shim: delegates to the wrapped source and logs every answer.
#[derive(Debug)]
struct RecordingSource {
    recorder: TraceRecorder,
    stream: usize,
    source: Box<dyn WorkloadSource>,
}

impl RecordingSource {
    fn with_stream(&self, f: impl FnOnce(&mut RecorderInner, usize)) {
        let mut inner = self.recorder.inner.lock().expect("recorder lock");
        let stream = self.stream;
        f(&mut inner, stream);
    }

    fn log_rate(&self, t: SimTime, rate: f64) {
        self.with_stream(|inner, stream| {
            inner.streams[stream].rates.push(RateSample {
                t_ns: t.as_nanos(),
                rate_bits: rate.to_bits(),
            });
        });
    }
}

impl WorkloadSource for RecordingSource {
    fn students(&self) -> u32 {
        self.source.students()
    }

    fn peak_rate(&self) -> f64 {
        self.source.peak_rate()
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        let rate = self.source.rate_at(t);
        self.log_rate(t, rate);
        rate
    }

    fn mix_at(&self, t: SimTime) -> RequestMix {
        let mix = self.source.mix_at(t);
        let pairs: Vec<_> = mix.pairs().iter().map(|&(k, w)| (k, w.to_bits())).collect();
        self.with_stream(|inner, stream| {
            let id = if let Some(i) = inner.mixes.iter().position(|m| *m == pairs) {
                i as u32
            } else {
                inner.mixes.push(pairs);
                (inner.mixes.len() - 1) as u32
            };
            inner.streams[stream].mixes.push(MixSample {
                t_ns: t.as_nanos(),
                mix: id,
            });
        });
        mix
    }

    fn sample_arrivals(&self, rng: &mut SimRng, t: SimTime, slot: SimDuration) -> u64 {
        let count = self.source.sample_arrivals(rng, t, slot);
        // Also log the rate in force, so a replay of this trace can answer
        // rate queries the recorded run never made (cross-experiment
        // replay, autoscalers probing between slots).
        let rate = self.source.rate_at(t);
        self.with_stream(|inner, stream| {
            let s = &mut inner.streams[stream];
            s.rates.push(RateSample {
                t_ns: t.as_nanos(),
                rate_bits: rate.to_bits(),
            });
            s.slots.push(SlotSample {
                t_ns: t.as_nanos(),
                slot_ns: slot.as_nanos(),
                count,
            });
        });
        if elc_trace::enabled(crate::TRACE_TARGET, Level::Debug) {
            elc_trace::instant(
                t.as_nanos(),
                crate::TRACE_TARGET,
                "record.slot",
                Level::Debug,
                &[
                    Field::u64("stream", self.stream as u64),
                    Field::u64("count", count),
                ],
            );
        }
        count
    }

    // `sample_arrival_offsets` and `mean_rate` intentionally use the trait
    // defaults: they route through `sample_arrivals`/`rate_at` above, so
    // their queries are recorded while consuming the RNG exactly like the
    // unwrapped generator.

    fn clone_source(&self) -> Box<dyn WorkloadSource> {
        // A cloned consumer is a new demand stream.
        self.recorder.wrap(self.source.clone_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_elearn::calendar::AcademicCalendar;
    use elc_elearn::workload::WorkloadModel;

    fn model(students: u32) -> WorkloadModel {
        WorkloadModel::builder(students, AcademicCalendar::standard_semester(SimTime::ZERO))
            .build()
            .unwrap()
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let recorder = TraceRecorder::new();
        let wrapped = recorder.wrap(Box::new(model(10_000)));
        let bare = model(10_000);
        let mut rng_a = SimRng::seed(42);
        let mut rng_b = SimRng::seed(42);
        let slot = SimDuration::from_secs(60);
        let mut offsets_a = Vec::new();
        let mut offsets_b = Vec::new();
        for i in 0..48u64 {
            let t = SimTime::from_secs(5 * 7 * 86_400 + i * 1_800);
            assert_eq!(
                wrapped.sample_arrivals(&mut rng_a, t, slot),
                bare.sample_arrivals(&mut rng_b, t, slot)
            );
            wrapped.sample_arrival_offsets(&mut rng_a, t, slot, &mut offsets_a);
            bare.sample_arrival_offsets(&mut rng_b, t, slot, &mut offsets_b);
            assert_eq!(offsets_a, offsets_b);
            assert_eq!(wrapped.rate_at(t).to_bits(), bare.rate_at(t).to_bits());
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same RNG consumption");
    }

    #[test]
    fn finish_snapshots_sorted_streams() {
        let recorder = TraceRecorder::new();
        // A source wrapped but never queried keeps its (empty) stream, so
        // stream indices still mirror source-creation order on replay.
        let _unqueried = recorder.wrap(Box::new(model(2_000)));
        let wrapped = recorder.wrap(Box::new(model(2_000)));
        let mut rng = SimRng::seed(1);
        let slot = SimDuration::from_secs(60);
        // Query out of order; finish() sorts.
        for t in [7_200u64, 3_600, 10_800] {
            wrapped.sample_arrivals(&mut rng, SimTime::from_secs(5 * 7 * 86_400 + t), slot);
        }
        let _ = wrapped.mix_at(SimTime::from_secs(5 * 7 * 86_400));
        let trace = recorder.finish().unwrap();
        assert_eq!(trace.students, 2_000);
        assert_eq!(trace.streams.len(), 2);
        assert!(trace.streams[0].first_t_ns().is_none());
        let s = &trace.streams[1];
        assert!(s.slots.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
        assert_eq!(s.mixes.len(), 1);
        assert_eq!(trace.mixes.len(), 1);
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn header_conflicts_and_empty_recorders_error() {
        let recorder = TraceRecorder::new();
        assert_eq!(recorder.finish(), Err(TraceError::Empty));
        let a = recorder.wrap(Box::new(model(1_000)));
        let mut rng = SimRng::seed(3);
        a.sample_arrivals(
            &mut rng,
            SimTime::from_secs(86_400 * 40),
            SimDuration::from_secs(60),
        );
        let _ = recorder.wrap(Box::new(model(2_000)));
        assert_eq!(
            recorder.finish(),
            Err(TraceError::HeaderConflict {
                first: 1_000,
                other: 2_000
            })
        );
    }

    #[test]
    fn unqueried_recorder_is_empty() {
        let recorder = TraceRecorder::new();
        let _source = recorder.wrap(Box::new(model(1_000)));
        assert_eq!(recorder.finish(), Err(TraceError::Empty));
    }
}
