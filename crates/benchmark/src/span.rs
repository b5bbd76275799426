//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer, and kept in memory until the run ends. This recorder
//! belongs to the benchmark on purpose: `elc-trace` records sim time
//! only and must stay free of wall-clock readings.
//!
//! A span's *capacity* is its duration times the threads it occupies
//! (`lanes`); its *self time* is its capacity minus its children's
//! capacity. A span's layer is its name up to the first `.`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `simcore.sim.dispatch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (pass, round, run) the span belongs to.
    pub op: u32,
    /// Threads the span occupies.
    pub lanes: u32,
}

impl Span {
    /// Duration × lanes, in nanoseconds.
    #[must_use]
    pub fn capacity_ns(&self) -> u64 {
        (self.end_ns - self.start_ns) * u64::from(self.lanes)
    }
}

/// Self time and call count of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Summed self time, nanoseconds (negative only if children
    /// over-claim their parent, which points at a recording bug).
    pub self_ns: i64,
    /// Number of spans.
    pub calls: u64,
}

/// Records spans when enabled; a disabled recorder only runs the
/// closures it is handed, so traced and untraced runs share one path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    lanes: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Recorder {
    /// A recorder whose spans occupy `lanes` threads (the replication
    /// pool's width for `replicate`, 1 elsewhere).
    #[must_use]
    pub fn new(enabled: bool, lanes: u32) -> Self {
        Recorder {
            enabled,
            lanes: lanes.max(1),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        let parent = self.stack.last().copied();
        self.begin_under(parent, name)
    }

    /// Opens a span under an explicit parent. Spans opened before the
    /// matching [`Recorder::end`] nest under this one.
    fn begin_under(&mut self, parent: Option<usize>, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            lanes: self.lanes,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `id` returned by `begin`.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let parent = self.stack.last().copied();
        self.span_under(parent, name, f)
    }

    /// Runs `f` inside a span named `name` under an explicit parent.
    pub fn span_under<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.begin_under(parent, name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Index of the most recently opened span named `name`.
    #[must_use]
    pub fn last_named(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Adds a one-lane span whose duration was measured elsewhere (the
    /// runner's `TaskResult::wall`, a station replay's share of the
    /// engine). It is placed at its parent's start, so only its duration
    /// is meaningful.
    pub fn add(&mut self, name: &'static str, parent: Option<usize>, wall: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent,
            op: self.op,
            lanes: 1,
        });
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its capacity minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| i64::try_from(s.capacity_ns()).unwrap_or(i64::MAX))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i64::try_from(s.capacity_ns()).unwrap_or(i64::MAX);
            }
        }
        own
    }

    /// Self time and calls per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.self_ns += own;
            t.calls += 1;
        }
        out
    }

    /// Summed capacity of the spans named `name`.
    #[must_use]
    pub fn capacity_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::capacity_ns)
            .sum()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"lanes\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.lanes
            )?;
        }
        Ok(())
    }
}

/// The layer a span name belongs to: its first dotted segment.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Median cost of recording one empty span, in nanoseconds, measured on
/// this host; the traced run's overhead estimate multiplies it by the
/// spans recorded inside its operations.
#[must_use]
pub fn span_cost_ns() -> f64 {
    const N: u32 = 10_000;
    let per_batch: Vec<f64> = (0..5)
        .map(|_| {
            let mut rec = Recorder::new(true, 1);
            let start = Instant::now();
            for _ in 0..N {
                let id = rec.begin("bench.calibrate");
                rec.end(std::hint::black_box(id));
            }
            start.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    elc_analysis::stats::median(&per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, lanes: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            lanes,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            spans,
            ..Recorder::new(true, 1)
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100) ⊃ core.e01 [10,40) ⊃ analysis.render [20,30),
        //    op ⊃ core.e02 [50,90)
        let rec = recorder(vec![
            span("bench.op", 0, 100, None, 1),
            span("core.e01", 10, 40, Some(0), 1),
            span("analysis.render", 20, 30, Some(1), 1),
            span("core.e02", 50, 90, Some(0), 1),
        ]);
        assert_eq!(rec.self_ns(), vec![30, 20, 10, 40]);
        let totals = rec.totals();
        assert_eq!(totals["bench.op"].self_ns, 30);
        assert_eq!(totals["core.e01"].self_ns, 20);
        let mut layers: BTreeMap<&str, i64> = BTreeMap::new();
        for (name, t) in &totals {
            *layers.entry(layer_of(name)).or_default() += t.self_ns;
        }
        assert_eq!(layers["core"], 60);
        assert_eq!(layers["analysis"], 10);
        assert_eq!(layers["bench"], 30);
        // Self times partition the root's capacity.
        assert_eq!(layers.values().sum::<i64>(), 100);
    }

    #[test]
    fn lanes_scale_capacity_for_pooled_children() {
        // A 2-lane pool span of 100 ns holding two 1-lane tasks of 70 ns
        // each: 60 ns of the pool's 200 ns capacity sat idle.
        let rec = recorder(vec![
            span("runner.pool", 0, 100, None, 2),
            span("core.e19", 0, 70, Some(0), 1),
            span("core.e19", 0, 70, Some(0), 1),
        ]);
        let totals = rec.totals();
        assert_eq!(totals["runner.pool"].self_ns, 60);
        assert_eq!(totals["core.e19"].self_ns, 140);
        assert_eq!(totals["core.e19"].calls, 2);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_closure() {
        let mut rec = Recorder::new(false, 1);
        let v = rec.span("core.e01", |r| r.span("analysis.csv", |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_write_jsonl() {
        let mut rec = Recorder::new(true, 1);
        rec.set_op(3);
        rec.span("bench.op", |r| r.span("core.e01", |_| ()));
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"core.e01\""));
        assert!(text.contains("\"parent\":0"));
    }
}
