//! In-memory workload trace model and morphing combinators.
//!
//! A [`WorkloadTrace`] is what a [`TraceRecorder`](crate::TraceRecorder)
//! produces and a [`TraceReplayer`](crate::TraceReplayer) consumes: a
//! header (cohort size, analytic peak rate) plus one [`Stream`] per demand
//! source the recorded run created, each holding the exact queries that
//! source answered — rate samples (as raw f64 bits, so replay reproduces
//! them bit-for-bit), request-mix changes (interned in a mix table), and
//! sampled arrival slots `(time, slot, count)`.
//!
//! Morphs ([`WorkloadTrace::time_stretch`], [`amplitude_scale`], [`clip`])
//! derive new traces from recorded ones — scale a recorded 1k-student day
//! to millions of students, or replay only the worst recorded minute.
//! [`MorphSpec`] parses the `--morph` CLI syntax into a morph pipeline.
//!
//! [`amplitude_scale`]: WorkloadTrace::amplitude_scale
//! [`clip`]: WorkloadTrace::clip

use std::fmt;
use std::sync::Arc;

use elc_elearn::request::{RequestKind, RequestMix};
use elc_simcore::time::{SimDuration, NANOS_PER_SEC};

/// Errors from trace validation, codecs, morphing or recording.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The byte stream did not start with the `ELCW` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    BadVersion(u8),
    /// The byte stream ended mid-record.
    Truncated,
    /// A structural invariant failed while decoding or validating.
    Malformed(String),
    /// The kind table named a request kind this build does not know.
    UnknownKind(String),
    /// A morph operation or `--morph` spec was invalid.
    BadMorph(String),
    /// A file operation failed (message includes the path).
    Io(String),
    /// Two recorded sources disagreed on the trace header — they came
    /// from different institutions and cannot share one trace file.
    HeaderConflict {
        /// Students reported by the first recorded source.
        first: u32,
        /// Students reported by the conflicting source.
        other: u32,
    },
    /// The trace has no streams (nothing was recorded).
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a workload trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "trace ends mid-record"),
            TraceError::Malformed(msg) => write!(f, "malformed trace: {msg}"),
            TraceError::UnknownKind(name) => write!(f, "unknown request kind {name:?}"),
            TraceError::BadMorph(msg) => write!(f, "bad morph: {msg}"),
            TraceError::Io(msg) => write!(f, "trace io: {msg}"),
            TraceError::HeaderConflict { first, other } => write!(
                f,
                "recorded sources disagree on the cohort ({first} vs {other} students)"
            ),
            TraceError::Empty => write!(f, "trace has no streams"),
        }
    }
}

impl std::error::Error for TraceError {}

/// How far, relative to the peak rate, a recorded rate sample may exceed
/// it: a generator's rate can round a hair above its analytic peak.
const PEAK_SLACK: f64 = 1e-9;

/// One recorded rate query: the instant and the returned rate's raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSample {
    /// Query instant, nanoseconds on the simulation clock.
    pub t_ns: u64,
    /// `f64::to_bits` of the returned requests/second — stored as bits so
    /// replay is exact, not merely close.
    pub rate_bits: u64,
}

impl RateSample {
    /// The recorded rate as a float.
    #[must_use]
    pub fn rate(self) -> f64 {
        f64::from_bits(self.rate_bits)
    }
}

/// One recorded mix query: the instant and an index into the trace's
/// interned mix table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSample {
    /// Query instant, nanoseconds on the simulation clock.
    pub t_ns: u64,
    /// Index into [`WorkloadTrace::mixes`].
    pub mix: u32,
}

/// One recorded arrival slot: how many requests the source reported for
/// `[t, t + slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSample {
    /// Slot start, nanoseconds on the simulation clock.
    pub t_ns: u64,
    /// Slot width in nanoseconds.
    pub slot_ns: u64,
    /// Sampled (or replayed) arrival count for the slot.
    pub count: u64,
}

/// An interned request mix: `(kind, weight-bits)` pairs in construction
/// order. Weights keep their raw f64 bits so a decoded mix equals the
/// recorded one exactly.
pub type MixEntry = Vec<(RequestKind, u64)>;

/// The recorded demand of one `WorkloadSource` instance: every rate, mix
/// and slot query it answered, sorted by time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stream {
    /// Rate samples, ascending by `t_ns`, unique instants.
    pub rates: Vec<RateSample>,
    /// Mix-change samples, ascending by `t_ns`, unique instants.
    pub mixes: Vec<MixSample>,
    /// Arrival slots, ascending by `(t_ns, slot_ns)`.
    pub slots: Vec<SlotSample>,
}

impl Stream {
    /// Earliest recorded instant across rates, mixes and slots.
    #[must_use]
    pub fn first_t_ns(&self) -> Option<u64> {
        let r = self.rates.first().map(|s| s.t_ns);
        let m = self.mixes.first().map(|s| s.t_ns);
        let s = self.slots.first().map(|s| s.t_ns);
        [r, m, s].into_iter().flatten().min()
    }

    /// Latest recorded instant (slot ends count as `t + slot`).
    #[must_use]
    pub fn last_t_ns(&self) -> Option<u64> {
        let r = self.rates.last().map(|s| s.t_ns);
        let m = self.mixes.last().map(|s| s.t_ns);
        let s = self.slots.last().map(|s| s.t_ns.saturating_add(s.slot_ns));
        [r, m, s].into_iter().flatten().max()
    }

    fn is_sorted(&self) -> bool {
        self.rates.windows(2).all(|w| w[0].t_ns < w[1].t_ns)
            && self.mixes.windows(2).all(|w| w[0].t_ns < w[1].t_ns)
            && self
                .slots
                .windows(2)
                .all(|w| (w[0].t_ns, w[0].slot_ns) <= (w[1].t_ns, w[1].slot_ns))
    }
}

/// A recorded workload: header plus per-source demand streams.
///
/// The on-disk forms live in [`codec`](crate::codec) (compact binary) and
/// [`csvio`](crate::csvio) (interchange CSV).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// Enrolled students behind the recorded demand (drives analytic
    /// fleet sizing on replay, exactly as it did when recording).
    pub students: u32,
    /// `f64::to_bits` of the recorded source's peak rate.
    pub peak_rate_bits: u64,
    /// Interned mix table; [`MixSample::mix`] indexes into this.
    pub mixes: Vec<MixEntry>,
    /// One stream per demand source the recorded run created, in source
    /// creation order.
    pub streams: Vec<Stream>,
}

impl WorkloadTrace {
    /// An empty trace shell for the given header.
    #[must_use]
    pub fn empty(students: u32, peak_rate: f64) -> Self {
        WorkloadTrace {
            students,
            peak_rate_bits: peak_rate.to_bits(),
            mixes: Vec::new(),
            streams: Vec::new(),
        }
    }

    /// The recorded peak rate as a float.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        f64::from_bits(self.peak_rate_bits)
    }

    /// Earliest recorded instant across all streams (ns).
    #[must_use]
    pub fn start_ns(&self) -> Option<u64> {
        self.streams.iter().filter_map(Stream::first_t_ns).min()
    }

    /// Latest recorded instant across all streams (ns).
    #[must_use]
    pub fn end_ns(&self) -> Option<u64> {
        self.streams.iter().filter_map(Stream::last_t_ns).max()
    }

    /// Interns `pairs`, returning the existing index when an identical
    /// mix is already in the table.
    pub fn intern_mix(&mut self, pairs: MixEntry) -> u32 {
        if let Some(i) = self.mixes.iter().position(|m| *m == pairs) {
            return u32::try_from(i).expect("mix table fits u32");
        }
        self.mixes.push(pairs);
        u32::try_from(self.mixes.len() - 1).expect("mix table fits u32")
    }

    /// Rebuilds the [`RequestMix`] interned at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] when the index is out of range
    /// or the recorded weights no longer form a valid mix.
    pub fn mix(&self, index: u32) -> Result<RequestMix, TraceError> {
        let entry = self
            .mixes
            .get(index as usize)
            .ok_or_else(|| TraceError::Malformed(format!("mix index {index} out of range")))?;
        let pairs: Vec<(RequestKind, f64)> = entry
            .iter()
            .map(|&(k, bits)| (k, f64::from_bits(bits)))
            .collect();
        RequestMix::new(&pairs)
            .map_err(|e| TraceError::Malformed(format!("interned mix {index} invalid: {e}")))
    }

    /// Checks structural invariants: non-empty cohort, sorted streams,
    /// mix indices in range, and every rate sample a number between 0
    /// and the peak rate, which replays size fleets and stations from.
    /// A sample may exceed the peak by a relative 1e-9, the rounding a
    /// generator's rate can carry above its analytic peak.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.students == 0 {
            return Err(TraceError::Malformed("zero students".into()));
        }
        let peak = self.peak_rate();
        if !peak.is_finite() || peak < 0.0 {
            return Err(TraceError::Malformed("peak rate not finite".into()));
        }
        let limit = peak * (1.0 + PEAK_SLACK);
        let n_mixes = self.mixes.len() as u32;
        for (i, stream) in self.streams.iter().enumerate() {
            if !stream.is_sorted() {
                return Err(TraceError::Malformed(format!("stream {i} not sorted")));
            }
            // Written to be false for NaN as well.
            if let Some(bad) = stream
                .rates
                .iter()
                .find(|r| !(r.rate() >= 0.0 && r.rate() <= limit))
            {
                return Err(TraceError::Malformed(format!(
                    "stream {i} rate {} at {} ns is outside [0, {peak}], the peak rate",
                    bad.rate(),
                    bad.t_ns
                )));
            }
            if let Some(bad) = stream.mixes.iter().find(|m| m.mix >= n_mixes) {
                return Err(TraceError::Malformed(format!(
                    "stream {i} references mix {} of {n_mixes}",
                    bad.mix
                )));
            }
        }
        Ok(())
    }

    /// Stretches time by `factor` around the trace start: a factor of 2
    /// plays the recorded day at half speed (twice the wall-span), so
    /// rates halve while every slot keeps its recorded arrival count.
    /// Times are scaled in fixed-point (ns ÷ 10⁹ resolution) to stay
    /// deterministic across platforms.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMorph`] unless `factor` is positive and
    /// finite.
    pub fn time_stretch(&self, factor: f64) -> Result<WorkloadTrace, TraceError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(TraceError::BadMorph(format!(
                "stretch factor must be positive, got {factor}"
            )));
        }
        let t0 = self.start_ns().unwrap_or(0);
        let num = (factor * 1e9).round() as u128;
        if num == 0 {
            return Err(TraceError::BadMorph(format!(
                "stretch factor {factor} underflows fixed-point"
            )));
        }
        let scale_t = |t: u64| -> u64 {
            let rel = u128::from(t.saturating_sub(t0));
            let scaled = rel.saturating_mul(num) / 1_000_000_000u128;
            t0.saturating_add(u64::try_from(scaled).unwrap_or(u64::MAX))
        };
        let scale_span = |d: u64| -> u64 {
            let scaled = u128::from(d).saturating_mul(num) / 1_000_000_000u128;
            u64::try_from(scaled).unwrap_or(u64::MAX).max(1)
        };
        let inv = 1.0 / factor;
        let mut out = self.clone();
        out.peak_rate_bits = (self.peak_rate() * inv).to_bits();
        for stream in &mut out.streams {
            for r in &mut stream.rates {
                r.t_ns = scale_t(r.t_ns);
                r.rate_bits = (r.rate() * inv).to_bits();
            }
            for m in &mut stream.mixes {
                m.t_ns = scale_t(m.t_ns);
            }
            for s in &mut stream.slots {
                s.t_ns = scale_t(s.t_ns);
                s.slot_ns = scale_span(s.slot_ns);
            }
            dedup_stream(stream);
        }
        Ok(out)
    }

    /// Scales demand amplitude by `factor`: slot counts round
    /// deterministically, rates and the peak scale exactly, and the
    /// cohort scales with a floor of one student — turning a recorded
    /// 1k-student day into a synthetic million-student one.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMorph`] unless `factor` is positive and
    /// finite.
    pub fn amplitude_scale(&self, factor: f64) -> Result<WorkloadTrace, TraceError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(TraceError::BadMorph(format!(
                "scale factor must be positive, got {factor}"
            )));
        }
        let mut out = self.clone();
        out.peak_rate_bits = (self.peak_rate() * factor).to_bits();
        let students = (f64::from(self.students) * factor).round();
        out.students = if students >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            (students as u32).max(1)
        };
        for stream in &mut out.streams {
            for r in &mut stream.rates {
                r.rate_bits = (r.rate() * factor).to_bits();
            }
            for s in &mut stream.slots {
                s.count = (s.count as f64 * factor).round() as u64;
            }
        }
        Ok(out)
    }

    /// Keeps only the window `[from, to)` measured from the trace start,
    /// re-anchoring each stream's rate and mix so a replay inside the
    /// window still sees the value that was in force when it opens.
    /// Absolute instants are preserved — a clipped trace replays against
    /// the same simulation calendar as the original.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMorph`] when the window is empty.
    pub fn clip(&self, from: SimDuration, to: SimDuration) -> Result<WorkloadTrace, TraceError> {
        if to <= from {
            return Err(TraceError::BadMorph(format!(
                "clip window is empty ({from} >= {to})"
            )));
        }
        let t0 = self.start_ns().unwrap_or(0);
        let lo = t0.saturating_add(from.as_nanos());
        let hi = t0.saturating_add(to.as_nanos());
        let mut out = self.clone();
        for stream in &mut out.streams {
            let anchor_rate = stream
                .rates
                .iter()
                .take_while(|r| r.t_ns <= lo)
                .last()
                .map(|r| RateSample {
                    t_ns: lo,
                    rate_bits: r.rate_bits,
                });
            let anchor_mix = stream
                .mixes
                .iter()
                .take_while(|m| m.t_ns <= lo)
                .last()
                .map(|m| MixSample {
                    t_ns: lo,
                    mix: m.mix,
                });
            stream.rates.retain(|r| r.t_ns > lo && r.t_ns < hi);
            stream.mixes.retain(|m| m.t_ns > lo && m.t_ns < hi);
            stream.slots.retain(|s| s.t_ns >= lo && s.t_ns < hi);
            // Anchor only when the window actually contains demand;
            // otherwise the stream is dropped below.
            if stream.first_t_ns().is_some() {
                if let Some(anchor) = anchor_rate {
                    stream.rates.insert(0, anchor);
                }
                if let Some(anchor) = anchor_mix {
                    stream.mixes.insert(0, anchor);
                }
            }
        }
        out.streams.retain(|s| s.first_t_ns().is_some());
        if out.streams.is_empty() {
            return Err(TraceError::BadMorph(
                "clip window contains no recorded demand".into(),
            ));
        }
        Ok(out)
    }

    /// Shares the trace for replay fan-out.
    #[must_use]
    pub fn into_shared(self) -> Arc<WorkloadTrace> {
        Arc::new(self)
    }
}

/// Collapses duplicate instants after a morph rounded distinct recorded
/// times onto one nanosecond: last-in-force wins for rates/mixes, slot
/// counts merge by addition.
pub(crate) fn dedup_stream(stream: &mut Stream) {
    stream.rates.dedup_by(|next, prev| {
        if next.t_ns == prev.t_ns {
            prev.rate_bits = next.rate_bits;
            true
        } else {
            false
        }
    });
    stream.mixes.dedup_by(|next, prev| {
        if next.t_ns == prev.t_ns {
            prev.mix = next.mix;
            true
        } else {
            false
        }
    });
    stream.slots.dedup_by(|next, prev| {
        if next.t_ns == prev.t_ns && next.slot_ns == prev.slot_ns {
            prev.count += next.count;
            true
        } else {
            false
        }
    });
}

/// One parsed morph operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Morph {
    /// `stretch=F` — [`WorkloadTrace::time_stretch`].
    TimeStretch(f64),
    /// `scale=F` — [`WorkloadTrace::amplitude_scale`].
    AmplitudeScale(f64),
    /// `clip=H1..H2` (hours from trace start) — [`WorkloadTrace::clip`].
    Clip {
        /// Window start, hours from the trace start.
        from_hours: f64,
        /// Window end, hours from the trace start.
        to_hours: f64,
    },
}

/// A `--morph` pipeline: comma-separated operations applied in order,
/// e.g. `clip=8..10,scale=40,stretch=0.5`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MorphSpec {
    /// Operations in application order.
    pub ops: Vec<Morph>,
}

impl MorphSpec {
    /// Parses a `--morph` argument.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMorph`] with the offending fragment.
    pub fn parse(spec: &str) -> Result<Self, TraceError> {
        let mut ops = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| TraceError::BadMorph(format!("expected key=value, got {part:?}")))?;
            let op = match key.trim() {
                "stretch" => Morph::TimeStretch(parse_factor(value)?),
                "scale" => Morph::AmplitudeScale(parse_factor(value)?),
                "clip" => {
                    let (lo, hi) = value.split_once("..").ok_or_else(|| {
                        TraceError::BadMorph(format!("clip wants H1..H2 hours, got {value:?}"))
                    })?;
                    Morph::Clip {
                        from_hours: parse_hours(lo)?,
                        to_hours: parse_hours(hi)?,
                    }
                }
                other => {
                    return Err(TraceError::BadMorph(format!(
                        "unknown morph {other:?} (try stretch=, scale=, clip=)"
                    )))
                }
            };
            ops.push(op);
        }
        if ops.is_empty() {
            return Err(TraceError::BadMorph("empty morph spec".into()));
        }
        Ok(MorphSpec { ops })
    }

    /// Applies the pipeline to `trace`, left to right.
    ///
    /// # Errors
    ///
    /// Propagates the first failing operation.
    pub fn apply(&self, trace: &WorkloadTrace) -> Result<WorkloadTrace, TraceError> {
        let mut out = trace.clone();
        for op in &self.ops {
            out = match *op {
                Morph::TimeStretch(f) => out.time_stretch(f)?,
                Morph::AmplitudeScale(f) => out.amplitude_scale(f)?,
                Morph::Clip {
                    from_hours,
                    to_hours,
                } => out.clip(hours_span(from_hours)?, hours_span(to_hours)?)?,
            };
        }
        Ok(out)
    }
}

fn parse_factor(s: &str) -> Result<f64, TraceError> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| TraceError::BadMorph(format!("not a number: {s:?}")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(TraceError::BadMorph(format!(
            "factor must be positive, got {s}"
        )));
    }
    Ok(v)
}

fn parse_hours(s: &str) -> Result<f64, TraceError> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| TraceError::BadMorph(format!("not a number: {s:?}")))?;
    hours_span(v)?;
    Ok(v)
}

/// `hours` as a span: non-negative and within the nanoseconds a
/// [`SimDuration`] holds (about 5.1M hours).
fn hours_span(hours: f64) -> Result<SimDuration, TraceError> {
    let secs = hours * 3_600.0;
    // `SimDuration::from_secs_f64`'s own bounds, in its own arithmetic
    // (and false for NaN).
    let fits = secs >= 0.0 && secs * NANOS_PER_SEC as f64 <= u64::MAX as f64;
    if !fits {
        return Err(TraceError::BadMorph(format!(
            "hours must be non-negative and at most ~5.1M, got {hours}"
        )));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> WorkloadTrace {
        let mut trace = WorkloadTrace::empty(1_000, 104.0);
        let mix = trace.intern_mix(vec![
            (RequestKind::VideoChunk, 45.0f64.to_bits()),
            (RequestKind::QuizSubmit, 4.0f64.to_bits()),
        ]);
        trace.streams.push(Stream {
            rates: vec![
                RateSample {
                    t_ns: 3_600_000_000_000,
                    rate_bits: 10.0f64.to_bits(),
                },
                RateSample {
                    t_ns: 7_200_000_000_000,
                    rate_bits: 20.0f64.to_bits(),
                },
            ],
            mixes: vec![MixSample {
                t_ns: 3_600_000_000_000,
                mix,
            }],
            slots: vec![
                SlotSample {
                    t_ns: 3_600_000_000_000,
                    slot_ns: 60_000_000_000,
                    count: 600,
                },
                SlotSample {
                    t_ns: 7_200_000_000_000,
                    slot_ns: 60_000_000_000,
                    count: 1_200,
                },
            ],
        });
        trace
    }

    #[test]
    fn validate_accepts_the_sample_and_rejects_breakage() {
        let trace = sample_trace();
        assert_eq!(trace.validate(), Ok(()));
        let mut bad = trace.clone();
        bad.streams[0].mixes[0].mix = 7;
        assert!(matches!(bad.validate(), Err(TraceError::Malformed(_))));
        let mut unsorted = trace.clone();
        unsorted.streams[0].rates.reverse();
        assert!(matches!(unsorted.validate(), Err(TraceError::Malformed(_))));
        let mut empty = trace;
        empty.students = 0;
        assert!(empty.validate().is_err());
    }

    #[test]
    fn validate_holds_every_rate_sample_to_the_peak() {
        let trace = sample_trace();
        let with_rate = |rate: f64| {
            let mut t = trace.clone();
            t.streams[0].rates[1].rate_bits = rate.to_bits();
            t.validate()
        };
        let peak = trace.peak_rate();
        assert_eq!(with_rate(peak), Ok(()));
        assert_eq!(with_rate(0.0), Ok(()));
        // Rounding above the peak passes; anything more is refused.
        assert_eq!(with_rate(peak * (1.0 + PEAK_SLACK / 2.0)), Ok(()));
        for bad in [
            peak * (1.0 + 2.0 * PEAK_SLACK),
            peak * 2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            let err = with_rate(bad).expect_err("sample outside [0, peak]");
            assert!(matches!(err, TraceError::Malformed(_)), "{bad}: {err:?}");
        }
        // A header that understates its own samples is refused too.
        let mut understated = trace.clone();
        understated.peak_rate_bits = 1.0f64.to_bits();
        assert!(matches!(
            understated.validate(),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn morphs_keep_every_sample_within_the_morphed_peak() {
        // Samples exactly at the peak stay at the (scaled) peak.
        let mut trace = sample_trace();
        trace.streams[0].rates[1].rate_bits = trace.peak_rate_bits;
        assert_eq!(trace.validate(), Ok(()));
        for morphed in [
            trace.time_stretch(3.0).unwrap(),
            trace.time_stretch(0.3).unwrap(),
            trace.amplitude_scale(7.0).unwrap(),
            trace.amplitude_scale(1e-3).unwrap(),
            trace
                .clip(SimDuration::from_mins(30), SimDuration::from_hours(2))
                .unwrap(),
        ] {
            assert_eq!(morphed.validate(), Ok(()));
            let peak = morphed.peak_rate();
            for r in &morphed.streams[0].rates {
                assert!(r.rate() <= peak, "{} above {peak}", r.rate());
            }
        }
    }

    #[test]
    fn intern_mix_dedups() {
        let mut trace = WorkloadTrace::empty(10, 1.0);
        let a = trace.intern_mix(vec![(RequestKind::Login, 1.0f64.to_bits())]);
        let b = trace.intern_mix(vec![(RequestKind::Login, 1.0f64.to_bits())]);
        let c = trace.intern_mix(vec![(RequestKind::Login, 2.0f64.to_bits())]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(trace.mixes.len(), 2);
    }

    #[test]
    fn stretch_slows_time_and_preserves_counts() {
        let trace = sample_trace();
        let slow = trace.time_stretch(2.0).unwrap();
        // Start anchored, the second sample lands twice as far out.
        assert_eq!(slow.streams[0].rates[0].t_ns, 3_600_000_000_000);
        assert_eq!(
            slow.streams[0].rates[1].t_ns,
            3_600_000_000_000 + 2 * 3_600_000_000_000
        );
        assert_eq!(slow.streams[0].rates[0].rate(), 5.0);
        assert_eq!(slow.streams[0].slots[0].count, 600);
        assert_eq!(slow.streams[0].slots[0].slot_ns, 120_000_000_000);
        assert_eq!(slow.peak_rate(), 52.0);
        assert!(trace.time_stretch(0.0).is_err());
        assert!(trace.time_stretch(f64::NAN).is_err());
    }

    #[test]
    fn scale_amplifies_counts_rates_and_cohort() {
        let trace = sample_trace();
        let big = trace.amplitude_scale(1_000.0).unwrap();
        assert_eq!(big.students, 1_000_000);
        assert_eq!(big.streams[0].slots[0].count, 600_000);
        assert_eq!(big.streams[0].rates[0].rate(), 10_000.0);
        assert_eq!(big.peak_rate(), 104_000.0);
        let tiny = trace.amplitude_scale(1e-9).unwrap();
        assert_eq!(tiny.students, 1, "cohort floors at one student");
        assert!(trace.amplitude_scale(-1.0).is_err());
    }

    #[test]
    fn clip_keeps_the_window_and_anchors_the_rate() {
        let trace = sample_trace();
        // Window [0.5h, 1.5h) from trace start (start is at 1h absolute).
        let clipped = trace
            .clip(SimDuration::from_mins(30), SimDuration::from_mins(90))
            .unwrap();
        let s = &clipped.streams[0];
        // The 2h-absolute sample is outside; the 1h one is in force at the
        // window start and re-anchored there.
        assert_eq!(s.rates.len(), 2);
        assert_eq!(s.rates[0].t_ns, 3_600_000_000_000 + 1_800_000_000_000);
        assert_eq!(s.rates[0].rate(), 10.0);
        assert_eq!(s.slots.len(), 1);
        assert!(trace
            .clip(SimDuration::from_hours(2), SimDuration::from_hours(1))
            .is_err());
        assert!(trace
            .clip(SimDuration::from_hours(90), SimDuration::from_hours(91))
            .is_err());
    }

    #[test]
    fn morph_spec_parses_and_applies_in_order() {
        let spec = MorphSpec::parse("scale=2, stretch=0.5").unwrap();
        assert_eq!(
            spec.ops,
            vec![Morph::AmplitudeScale(2.0), Morph::TimeStretch(0.5)]
        );
        let trace = sample_trace();
        let morphed = spec.apply(&trace).unwrap();
        assert_eq!(morphed.streams[0].slots[0].count, 1_200);
        // scale doubles the rate, stretch=0.5 doubles it again.
        assert_eq!(morphed.streams[0].rates[0].rate(), 40.0);

        let clip = MorphSpec::parse("clip=0.5..1.5").unwrap();
        assert_eq!(
            clip.ops,
            vec![Morph::Clip {
                from_hours: 0.5,
                to_hours: 1.5
            }]
        );
        assert!(MorphSpec::parse("").is_err());
        assert!(MorphSpec::parse("stretch").is_err());
        assert!(MorphSpec::parse("warp=2").is_err());
        assert!(MorphSpec::parse("clip=5").is_err());
        // Hours past what a `SimDuration` holds are refused, not a panic.
        assert!(MorphSpec::parse("clip=0..5000000").is_ok());
        assert!(matches!(
            MorphSpec::parse("clip=0..6000000"),
            Err(TraceError::BadMorph(msg)) if msg.contains("got 6000000")
        ));
        assert!(MorphSpec::parse("scale=zero").is_err());
    }

    #[test]
    fn error_display_is_informative() {
        for err in [
            TraceError::BadMagic,
            TraceError::BadVersion(9),
            TraceError::Truncated,
            TraceError::Malformed("x".into()),
            TraceError::UnknownKind("y".into()),
            TraceError::BadMorph("z".into()),
            TraceError::Io("p".into()),
            TraceError::HeaderConflict { first: 1, other: 2 },
            TraceError::Empty,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
