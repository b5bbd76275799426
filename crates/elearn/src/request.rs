//! LMS request taxonomy.
//!
//! Each request kind has a request/response payload and a server-side
//! service cost, expressed as a weight relative to the cheapest request.
//! Workload mixes ([`RequestMix`]) say how often each kind occurs; the exam
//! mix shifts sharply toward quiz traffic. [`TEACHING_FRACTIONS`] and
//! [`EXAM_FRACTIONS`] give the same two mixes as per-kind shares.

use elc_net::units::Bytes;
use elc_simcore::dist::{DistError, Weighted};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::TRACE_TARGET;

/// One kind of LMS request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Login + dashboard render.
    Login,
    /// Course landing page.
    CoursePage,
    /// One chunk of streamed lecture video.
    VideoChunk,
    /// Fetch quiz questions.
    QuizFetch,
    /// Submit quiz answers (the write that must not be lost).
    QuizSubmit,
    /// Upload an assignment file.
    Upload,
    /// Download a document.
    Download,
    /// Read a discussion thread (§I collaboration).
    ForumRead,
    /// Post to a discussion thread (a small write).
    ForumPost,
}

impl RequestKind {
    /// All kinds.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::Login,
        RequestKind::CoursePage,
        RequestKind::VideoChunk,
        RequestKind::QuizFetch,
        RequestKind::QuizSubmit,
        RequestKind::Upload,
        RequestKind::Download,
        RequestKind::ForumRead,
        RequestKind::ForumPost,
    ];

    /// Typical request payload sent by the client.
    #[must_use]
    pub fn request_size(self) -> Bytes {
        match self {
            RequestKind::Login => Bytes::new(2 * 1024),
            RequestKind::CoursePage => Bytes::new(1024),
            RequestKind::VideoChunk => Bytes::new(512),
            RequestKind::QuizFetch => Bytes::new(512),
            RequestKind::QuizSubmit => Bytes::new(16 * 1024),
            RequestKind::Upload => Bytes::from_mib(2),
            RequestKind::Download => Bytes::new(512),
            RequestKind::ForumRead => Bytes::new(512),
            RequestKind::ForumPost => Bytes::new(4 * 1024),
        }
    }

    /// Typical response payload returned by the server.
    #[must_use]
    pub fn response_size(self) -> Bytes {
        match self {
            RequestKind::Login => Bytes::new(60 * 1024),
            RequestKind::CoursePage => Bytes::new(180 * 1024),
            RequestKind::VideoChunk => Bytes::from_mib(2),
            RequestKind::QuizFetch => Bytes::new(40 * 1024),
            RequestKind::QuizSubmit => Bytes::new(2 * 1024),
            RequestKind::Upload => Bytes::new(1024),
            RequestKind::Download => Bytes::from_mib(3),
            RequestKind::ForumRead => Bytes::new(50 * 1024),
            RequestKind::ForumPost => Bytes::new(1024),
        }
    }

    /// Server-side cost relative to the cheapest request (1.0 = a video
    /// chunk served from cache).
    #[must_use]
    pub fn service_weight(self) -> f64 {
        match self {
            RequestKind::Login => 4.0,
            RequestKind::CoursePage => 3.0,
            RequestKind::VideoChunk => 1.0,
            RequestKind::QuizFetch => 2.0,
            RequestKind::QuizSubmit => 5.0,
            RequestKind::Upload => 6.0,
            RequestKind::Download => 1.5,
            RequestKind::ForumRead => 1.5,
            RequestKind::ForumPost => 2.5,
        }
    }

    /// True for requests whose loss destroys user work (writes).
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            RequestKind::QuizSubmit | RequestKind::Upload | RequestKind::ForumPost
        )
    }

    /// Parses the [`Display`](std::fmt::Display) name back into a kind —
    /// the inverse used by trace codecs whose on-disk kind table stores
    /// names, not discriminants, so the format survives enum reordering.
    #[must_use]
    pub fn from_name(name: &str) -> Option<RequestKind> {
        RequestKind::ALL.into_iter().find(|k| k.to_string() == name)
    }
}

impl std::fmt::Display for RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RequestKind::Login => "login",
            RequestKind::CoursePage => "course-page",
            RequestKind::VideoChunk => "video-chunk",
            RequestKind::QuizFetch => "quiz-fetch",
            RequestKind::QuizSubmit => "quiz-submit",
            RequestKind::Upload => "upload",
            RequestKind::Download => "download",
            RequestKind::ForumRead => "forum-read",
            RequestKind::ForumPost => "forum-post",
        };
        f.write_str(s)
    }
}

/// How a request ultimately fared once resilience policies (timeouts,
/// retries, load shedding — see `elc-resil`) are in the path. A plain
/// served/failed split hides the distinction the paper's reliability
/// comparison turns on: traffic a deployment *chose* to drop under
/// overload versus work the *user* lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// Served within its deadline.
    Served,
    /// Served, but late (deadline breached) or only after retries.
    ServedDegraded,
    /// Deliberately refused by admission control to protect writes.
    Shed,
    /// Never served: retries exhausted or no capacity reachable.
    GaveUp,
}

impl RequestOutcome {
    /// All outcomes, in severity order.
    pub const ALL: [RequestOutcome; 4] = [
        RequestOutcome::Served,
        RequestOutcome::ServedDegraded,
        RequestOutcome::Shed,
        RequestOutcome::GaveUp,
    ];

    /// True if the user's work or intent was lost (the §III failure the
    /// stack must avoid for writes).
    #[must_use]
    pub fn is_loss(self) -> bool {
        matches!(self, RequestOutcome::Shed | RequestOutcome::GaveUp)
    }
}

impl std::fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RequestOutcome::Served => "served",
            RequestOutcome::ServedDegraded => "served-degraded",
            RequestOutcome::Shed => "shed",
            RequestOutcome::GaveUp => "gave-up",
        };
        f.write_str(s)
    }
}

/// One request's timeline through the service: arrival → queue → service
/// → done.
///
/// Models (closed-form or event-driven) compute the queueing and service
/// phases however they like; [`RequestLifecycle::emit`] writes the result
/// to the installed tracer as a `request` span tagged with the request
/// class, with a `request.service` instant marking the queue → service
/// transition. Guarded internally, so callers on hot paths still pay one
/// branch when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLifecycle {
    /// The request class.
    pub kind: RequestKind,
    /// When the request reached the service.
    pub arrival: SimTime,
    /// Time spent queued before a worker picked it up.
    pub queue_wait: SimDuration,
    /// Service time once picked up.
    pub service: SimDuration,
}

impl RequestLifecycle {
    /// When service on this request began.
    #[must_use]
    pub fn service_start(&self) -> SimTime {
        self.arrival + self.queue_wait
    }

    /// When the response left the service.
    #[must_use]
    pub fn done_at(&self) -> SimTime {
        self.arrival + self.queue_wait + self.service
    }

    /// Records the lifecycle on the installed tracer (no-op when tracing
    /// is off or `elearn` is filtered below debug).
    pub fn emit(&self) {
        if !elc_trace::enabled(TRACE_TARGET, Level::Debug) {
            return;
        }
        let class = self.kind.to_string();
        let span = elc_trace::span_begin(
            self.arrival.as_nanos(),
            TRACE_TARGET,
            "request",
            Level::Debug,
            &[Field::str("class", class.clone())],
        );
        elc_trace::instant(
            self.service_start().as_nanos(),
            TRACE_TARGET,
            "request.service",
            Level::Debug,
            &[Field::str("class", class.clone())],
        );
        elc_trace::span_end(
            self.done_at().as_nanos(),
            TRACE_TARGET,
            "request",
            Level::Debug,
            span,
            &[
                Field::str("class", class),
                Field::duration_ns("queued", self.queue_wait.as_nanos()),
                Field::duration_ns("service", self.service.as_nanos()),
            ],
        );
    }
}

/// A mix's weight per request kind, in [`RequestKind::ALL`] order.
type Weights = [(RequestKind, f64); RequestKind::ALL.len()];

/// Weights of [`RequestMix::teaching`]; they sum to 100.
const TEACHING_WEIGHTS: Weights = [
    (RequestKind::Login, 5.0),
    (RequestKind::CoursePage, 22.0),
    (RequestKind::VideoChunk, 45.0),
    (RequestKind::QuizFetch, 4.0),
    (RequestKind::QuizSubmit, 4.0),
    (RequestKind::Upload, 4.0),
    (RequestKind::Download, 9.0),
    (RequestKind::ForumRead, 5.0),
    (RequestKind::ForumPost, 2.0),
];

/// Weights of [`RequestMix::exam`]; they sum to 100.
const EXAM_WEIGHTS: Weights = [
    (RequestKind::Login, 10.0),
    (RequestKind::CoursePage, 9.0),
    (RequestKind::VideoChunk, 2.0),
    (RequestKind::QuizFetch, 40.0),
    (RequestKind::QuizSubmit, 35.0),
    (RequestKind::Upload, 1.0),
    (RequestKind::Download, 1.0),
    (RequestKind::ForumRead, 1.5),
    (RequestKind::ForumPost, 0.5),
];

/// Each kind's share of the teaching mix: its weight over the weights'
/// sum, for models that split a rate by kind instead of sampling.
pub const TEACHING_FRACTIONS: Weights = fractions(TEACHING_WEIGHTS);

/// Each kind's share of the exam mix, as [`TEACHING_FRACTIONS`].
pub const EXAM_FRACTIONS: Weights = fractions(EXAM_WEIGHTS);

/// `weights`, each divided by their sum (summed in order).
const fn fractions(mut weights: Weights) -> Weights {
    let mut total = 0.0;
    let mut i = 0;
    while i < weights.len() {
        total += weights[i].1;
        i += 1;
    }
    let mut i = 0;
    while i < weights.len() {
        weights[i].1 /= total;
        i += 1;
    }
    weights
}

/// A probability mix over request kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    dist: Weighted<RequestKind>,
    pairs: Vec<(RequestKind, f64)>,
    mean_weight: f64,
    mean_response: f64,
}

impl RequestMix {
    /// Builds a mix from `(kind, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the pairs are empty or weights invalid.
    pub fn new(pairs: &[(RequestKind, f64)]) -> Result<Self, DistError> {
        let dist = Weighted::new(pairs.iter().copied())?;
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        let mean_weight = pairs
            .iter()
            .map(|(k, w)| k.service_weight() * w)
            .sum::<f64>()
            / total;
        let mean_response = pairs
            .iter()
            .map(|(k, w)| k.response_size().as_u64() as f64 * w)
            .sum::<f64>()
            / total;
        Ok(RequestMix {
            dist,
            pairs: pairs.to_vec(),
            mean_weight,
            mean_response,
        })
    }

    /// The `(kind, weight)` pairs this mix was built from, in
    /// construction order — what a trace recorder serializes so a replay
    /// can rebuild the identical mix.
    #[must_use]
    pub fn pairs(&self) -> &[(RequestKind, f64)] {
        &self.pairs
    }

    /// Ordinary teaching-week traffic: browsing and video dominate.
    #[must_use]
    pub fn teaching() -> Self {
        RequestMix::new(&TEACHING_WEIGHTS).expect("static weights are valid")
    }

    /// Exam-window traffic: quiz fetch/submit dominate.
    #[must_use]
    pub fn exam() -> Self {
        RequestMix::new(&EXAM_WEIGHTS).expect("static weights are valid")
    }

    /// Draws one request kind.
    pub fn sample(&self, rng: &mut SimRng) -> RequestKind {
        // `RequestKind` is `Copy`: sample by reference, no clone machinery.
        *self.dist.sample_ref(rng)
    }

    /// Mean service weight of the mix — converts request rates into
    /// capacity units.
    #[must_use]
    pub fn mean_service_weight(&self) -> f64 {
        self.mean_weight
    }

    /// Mean response size of the mix, for egress estimation.
    #[must_use]
    pub fn mean_response_size(&self) -> Bytes {
        Bytes::new(self.mean_response as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_weights_are_positive() {
        for k in RequestKind::ALL {
            assert!(k.response_size().as_u64() > 0);
            assert!(k.request_size().as_u64() > 0);
            assert!(k.service_weight() > 0.0);
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn writes_are_flagged() {
        assert!(RequestKind::QuizSubmit.is_write());
        assert!(RequestKind::Upload.is_write());
        assert!(RequestKind::ForumPost.is_write());
        assert!(!RequestKind::CoursePage.is_write());
        assert!(!RequestKind::ForumRead.is_write());
    }

    #[test]
    fn sheds_and_give_ups_are_losses() {
        for o in RequestOutcome::ALL {
            assert!(!o.to_string().is_empty());
        }
        assert!(!RequestOutcome::Served.is_loss());
        assert!(!RequestOutcome::ServedDegraded.is_loss());
        assert!(RequestOutcome::Shed.is_loss());
        assert!(RequestOutcome::GaveUp.is_loss());
        assert_eq!(
            RequestOutcome::ServedDegraded.to_string(),
            "served-degraded"
        );
    }

    #[test]
    fn fractions_are_the_weights_over_one_hundred_to_the_bit() {
        // Each weight over the sum must round to exactly the decimal
        // share: the fleet experiments' outputs depend on these bits.
        let teaching = [0.05, 0.22, 0.45, 0.04, 0.04, 0.04, 0.09, 0.05, 0.02];
        let exam = [0.10, 0.09, 0.02, 0.40, 0.35, 0.01, 0.01, 0.015, 0.005];
        for (table, literals) in [(TEACHING_FRACTIONS, teaching), (EXAM_FRACTIONS, exam)] {
            for (i, ((kind, frac), literal)) in table.into_iter().zip(literals).enumerate() {
                assert_eq!(kind, RequestKind::ALL[i]);
                assert_eq!(frac.to_bits(), f64::to_bits(literal), "{kind}");
            }
        }
        for (mix, table) in [
            (RequestMix::teaching(), TEACHING_FRACTIONS),
            (RequestMix::exam(), EXAM_FRACTIONS),
        ] {
            for (&(kind, weight), (k, frac)) in mix.pairs().iter().zip(table) {
                assert_eq!(kind, k);
                assert_eq!(frac, weight / 100.0, "{kind}");
            }
        }
    }

    #[test]
    fn teaching_mix_is_video_heavy() {
        let mix = RequestMix::teaching();
        let mut rng = SimRng::seed(1);
        let n = 50_000;
        let video = (0..n)
            .filter(|_| mix.sample(&mut rng) == RequestKind::VideoChunk)
            .count();
        let frac = video as f64 / n as f64;
        assert!((frac - 0.45).abs() < 0.02, "video fraction {frac}");
    }

    #[test]
    fn exam_mix_is_quiz_heavy() {
        let mix = RequestMix::exam();
        let mut rng = SimRng::seed(2);
        let n = 50_000;
        let quiz = (0..n)
            .filter(|_| {
                matches!(
                    mix.sample(&mut rng),
                    RequestKind::QuizFetch | RequestKind::QuizSubmit
                )
            })
            .count();
        let frac = quiz as f64 / n as f64;
        assert!(frac > 0.7, "quiz fraction {frac}");
    }

    #[test]
    fn exam_mix_costs_more_per_request() {
        // Quiz submits are expensive writes, so the exam mix has a higher
        // mean service weight than teaching browsing.
        assert!(
            RequestMix::exam().mean_service_weight() > RequestMix::teaching().mean_service_weight()
        );
    }

    #[test]
    fn teaching_mix_moves_more_bytes() {
        // Video dominates teaching traffic, so mean response is larger.
        assert!(
            RequestMix::teaching().mean_response_size() > RequestMix::exam().mean_response_size()
        );
    }

    #[test]
    fn lifecycle_emits_tagged_span() {
        use elc_trace::{EventKind, TraceFilter, Tracer};
        let lifecycle = RequestLifecycle {
            kind: RequestKind::QuizSubmit,
            arrival: SimTime::from_secs(100),
            queue_wait: SimDuration::from_secs(2),
            service: SimDuration::from_secs(3),
        };
        assert_eq!(lifecycle.service_start(), SimTime::from_secs(102));
        assert_eq!(lifecycle.done_at(), SimTime::from_secs(105));
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Debug)), || {
                lifecycle.emit();
            });
        let events: Vec<_> = tracer.events().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[2].kind, EventKind::End);
        assert_eq!(events[0].span, events[2].span);
        assert_eq!(tracer.resolve(events[1].name), "request.service");
        assert_eq!(events[2].time_ns, SimTime::from_secs(105).as_nanos());
        let json = elc_trace::export::jsonl_string(&tracer, &[]);
        assert!(json.contains("\"class\":\"quiz-submit\""));
    }

    #[test]
    fn lifecycle_emit_without_tracer_is_noop() {
        RequestLifecycle {
            kind: RequestKind::Login,
            arrival: SimTime::ZERO,
            queue_wait: SimDuration::ZERO,
            service: SimDuration::from_secs(1),
        }
        .emit();
    }

    #[test]
    fn custom_mix_validation() {
        assert!(RequestMix::new(&[]).is_err());
        assert!(RequestMix::new(&[(RequestKind::Login, -1.0)]).is_err());
        let single = RequestMix::new(&[(RequestKind::Login, 1.0)]).unwrap();
        let mut rng = SimRng::seed(3);
        assert_eq!(single.sample(&mut rng), RequestKind::Login);
        assert_eq!(
            single.mean_service_weight(),
            RequestKind::Login.service_weight()
        );
    }
}
