//! The failover orchestration state machine, with split-brain fencing.
//!
//! [`RecoveryOrchestrator`] drives one primary/standby pair through the
//! canonical recovery arc:
//!
//! ```text
//! healthy → suspected → promoting → catching-up → restored
//!     ↑                                               │
//!     └──────────────── failback ────────────────────┘
//! ```
//!
//! driven each tick by a [`FailureDetector`] verdict. The transitions
//! are deliberately one-way past `promoting`: once promotion starts the
//! old primary is **fenced** — it holds a stale epoch and
//! [`RecoveryOrchestrator::may_serve`] refuses it even if its
//! heartbeats come back mid-recovery. A flapping primary therefore
//! cannot double-serve: at every instant at most one node is servable,
//! and writes accepted by the promoted standby can never be shadowed by
//! a zombie primary. The primary only re-earns the epoch through an
//! explicit failback, after staying healthy for the configured hold.
//!
//! Traced on the `"dr"` target: `dr.promote`, `dr.fence` (the first
//! zombie heartbeat after fencing), `dr.restore`, `dr.failback`.

use std::fmt;

use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::detector::{FailureDetector, Verdict};
use crate::TRACE_TARGET;

/// The two ends of the replication link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The original serving site.
    Primary,
    /// The recovery site promotion turns into the serving head.
    Standby,
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Node::Primary => "primary",
            Node::Standby => "standby",
        })
    }
}

/// Where the recovery arc currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrState {
    /// The primary serves; heartbeats on schedule.
    Healthy,
    /// Beats are being missed; recovery is armed but the primary still
    /// serves (it may just be slow).
    Suspected,
    /// The primary is confirmed dead and fenced; the standby is being
    /// promoted. Nobody serves.
    Promoting,
    /// Promotion done; the standby is replaying backlog / restoring the
    /// snapshot. Nobody serves.
    CatchingUp,
    /// The standby serves as the new head. The fenced primary waits for
    /// failback.
    Restored,
}

impl fmt::Display for DrState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DrState::Healthy => "healthy",
            DrState::Suspected => "suspected",
            DrState::Promoting => "promoting",
            DrState::CatchingUp => "catching-up",
            DrState::Restored => "restored",
        })
    }
}

/// The failover state machine. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOrchestrator {
    detector: FailureDetector,
    promotion_time: SimDuration,
    failback_hold: SimDuration,
    state: DrState,
    /// The serving epoch; whoever holds it may serve.
    epoch: u64,
    /// The epoch the primary holds. Stale after fencing.
    primary_epoch: u64,
    promotion_done: SimTime,
    catch_up_until: SimTime,
    primary_healthy_since: Option<SimTime>,
    fence_traced: bool,
    failovers: u32,
    failbacks: u32,
    fenced_ticks: u64,
}

impl RecoveryOrchestrator {
    /// Creates an orchestrator in `Healthy`: `detector` grades the
    /// primary's silence, promotion takes `promotion_time`, and failback
    /// requires the returned primary to stay healthy for
    /// `failback_hold`.
    ///
    /// # Panics
    ///
    /// Panics on a zero failback hold — the pair would flap on the first
    /// returning heartbeat.
    #[must_use]
    pub fn new(
        detector: FailureDetector,
        promotion_time: SimDuration,
        failback_hold: SimDuration,
    ) -> Self {
        assert!(!failback_hold.is_zero(), "failback hold must be positive");
        RecoveryOrchestrator {
            detector,
            promotion_time,
            failback_hold,
            state: DrState::Healthy,
            epoch: 1,
            primary_epoch: 1,
            promotion_done: SimTime::ZERO,
            catch_up_until: SimTime::ZERO,
            primary_healthy_since: None,
            fence_traced: false,
            failovers: 0,
            failbacks: 0,
            fenced_ticks: 0,
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> DrState {
        self.state
    }

    /// The detector grading the primary.
    #[must_use]
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// True iff `node` may accept traffic right now. At most one node
    /// ever may — the fencing invariant E19's flap test pins.
    #[must_use]
    pub fn may_serve(&self, node: Node) -> bool {
        match node {
            Node::Primary => {
                matches!(self.state, DrState::Healthy | DrState::Suspected)
                    && self.primary_epoch == self.epoch
            }
            Node::Standby => self.state == DrState::Restored,
        }
    }

    /// True while nobody serves (the RTO window).
    #[must_use]
    pub fn service_down(&self) -> bool {
        !self.may_serve(Node::Primary) && !self.may_serve(Node::Standby)
    }

    /// Completed failovers (confirmed loss → promotion started).
    #[must_use]
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Completed failbacks (primary re-earned the epoch).
    #[must_use]
    pub fn failbacks(&self) -> u32 {
        self.failbacks
    }

    /// Ticks in which the fenced primary was alive but refused service —
    /// each one is a split-brain that did not happen.
    #[must_use]
    pub fn fenced_ticks(&self) -> u64 {
        self.fenced_ticks
    }

    /// Advances the machine one tick. `primary_alive` is the ground
    /// truth the heartbeats follow; `catch_up` is how long the standby
    /// would need to become the serving head if promotion finished now
    /// (the caller reads it off its `ReplicationLink`/`MediaRestore`;
    /// it is consumed at the promoting → catching-up edge).
    pub fn tick(&mut self, now: SimTime, primary_alive: bool, catch_up: SimDuration) -> DrState {
        if primary_alive {
            self.detector.on_heartbeat(now);
        }
        let verdict = self.detector.poll(now);
        // Fencing accounting: a primary heartbeating while it no longer
        // holds the epoch is exactly the split-brain the guard absorbs.
        if primary_alive && self.primary_epoch != self.epoch {
            self.fenced_ticks += 1;
            if !self.fence_traced {
                self.fence_traced = true;
                if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                    elc_trace::instant(
                        now.as_nanos(),
                        TRACE_TARGET,
                        "dr.fence",
                        Level::Warn,
                        &[
                            Field::u64("epoch", self.epoch),
                            Field::u64("stale_epoch", self.primary_epoch),
                        ],
                    );
                }
            }
        }
        match self.state {
            DrState::Healthy => match verdict {
                Verdict::Healthy => {}
                Verdict::Suspected => self.state = DrState::Suspected,
                Verdict::Confirmed => self.begin_promotion(now),
            },
            DrState::Suspected => match verdict {
                Verdict::Healthy => self.state = DrState::Healthy,
                Verdict::Suspected => {}
                Verdict::Confirmed => self.begin_promotion(now),
            },
            DrState::Promoting => {
                if now >= self.promotion_done {
                    self.catch_up_until = now + catch_up;
                    self.state = DrState::CatchingUp;
                }
            }
            DrState::CatchingUp => {
                if now >= self.catch_up_until {
                    self.state = DrState::Restored;
                    self.primary_healthy_since = None;
                    if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                        elc_trace::instant(
                            now.as_nanos(),
                            TRACE_TARGET,
                            "dr.restore",
                            Level::Warn,
                            &[
                                Field::u64("epoch", self.epoch),
                                Field::u64("failovers", u64::from(self.failovers)),
                            ],
                        );
                    }
                }
            }
            DrState::Restored => {
                if primary_alive {
                    let since = *self.primary_healthy_since.get_or_insert(now);
                    if now.saturating_since(since) >= self.failback_hold {
                        // Failback: the primary re-syncs from the new
                        // head and re-earns the serving epoch.
                        self.epoch += 1;
                        self.primary_epoch = self.epoch;
                        self.state = DrState::Healthy;
                        self.primary_healthy_since = None;
                        self.fence_traced = false;
                        self.failbacks += 1;
                        if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
                            elc_trace::instant(
                                now.as_nanos(),
                                TRACE_TARGET,
                                "dr.failback",
                                Level::Warn,
                                &[
                                    Field::u64("epoch", self.epoch),
                                    Field::u64("failbacks", u64::from(self.failbacks)),
                                ],
                            );
                        }
                    }
                } else {
                    self.primary_healthy_since = None;
                }
            }
        }
        self.state
    }

    fn begin_promotion(&mut self, now: SimTime) {
        // Fence first: from this instant the primary's epoch is stale,
        // whatever its heartbeats do.
        self.epoch += 1;
        self.promotion_done = now + self.promotion_time;
        self.state = DrState::Promoting;
        self.failovers += 1;
        if elc_trace::enabled(TRACE_TARGET, Level::Warn) {
            elc_trace::instant(
                now.as_nanos(),
                TRACE_TARGET,
                "dr.promote",
                Level::Warn,
                &[
                    Field::u64("epoch", self.epoch),
                    Field::u64("failovers", u64::from(self.failovers)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orchestrator() -> RecoveryOrchestrator {
        RecoveryOrchestrator::new(
            // 10 s beats, suspect at 2 missed, confirm at 4 (40 s).
            FailureDetector::new(SimDuration::from_secs(10), 2, 4),
            SimDuration::from_secs(60),
            SimDuration::from_mins(10),
        )
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Drives the machine at a 10 s tick with `alive(t_secs)` as ground
    /// truth, asserting the fencing invariant the whole way.
    fn drive(
        o: &mut RecoveryOrchestrator,
        from_s: u64,
        to_s: u64,
        catch_up: SimDuration,
        alive: impl Fn(u64) -> bool,
    ) {
        let mut s = from_s;
        while s <= to_s {
            o.tick(secs(s), alive(s), catch_up);
            assert!(
                !(o.may_serve(Node::Primary) && o.may_serve(Node::Standby)),
                "split brain at {s}s in state {}",
                o.state()
            );
            s += 10;
        }
    }

    #[test]
    #[should_panic(expected = "failback hold must be positive")]
    fn new_rejects_zero_failback_hold() {
        let _ = RecoveryOrchestrator::new(
            FailureDetector::new(SimDuration::from_secs(10), 2, 4),
            SimDuration::from_secs(60),
            SimDuration::ZERO,
        );
    }

    #[test]
    fn full_arc_heals_through_failback() {
        let mut o = orchestrator();
        // Healthy until 100 s, dead until 400 s, then back for good.
        let alive = |s: u64| !(100..400).contains(&s);
        drive(&mut o, 0, 2000, SimDuration::from_secs(30), alive);
        assert_eq!(o.state(), DrState::Healthy, "failback must complete");
        assert_eq!(o.failovers(), 1);
        assert_eq!(o.failbacks(), 1);
        assert!(o.may_serve(Node::Primary));
        assert!(!o.may_serve(Node::Standby));
    }

    #[test]
    fn suspected_heals_without_promotion() {
        let mut o = orchestrator();
        // Dead for 25 s: long enough to suspect (20 s), not to confirm
        // (40 s).
        let alive = |s: u64| !(100..125).contains(&s);
        drive(&mut o, 0, 300, SimDuration::ZERO, alive);
        assert_eq!(o.state(), DrState::Healthy);
        assert_eq!(o.failovers(), 0);
        assert_eq!(o.fenced_ticks(), 0);
    }

    #[test]
    fn flapping_primary_is_fenced_not_double_served() {
        let mut o = orchestrator();
        // The primary dies at 100 s, flaps back 60 s later — *after*
        // confirmation — flaps dead again, and finally returns at 600 s.
        let alive = |s: u64| !(100..200).contains(&s) && !(260..600).contains(&s);
        drive(&mut o, 0, 520, SimDuration::from_secs(30), alive);
        // The flap at 200..260 s landed mid-recovery: the primary was
        // alive, fenced, and refused — counted, not served.
        assert!(o.fenced_ticks() > 0, "the flap must hit the fence");
        assert_eq!(o.failovers(), 1, "the flap must not re-promote");
        // Recovery completed despite the flapping.
        assert_eq!(o.state(), DrState::Restored);
        assert!(o.may_serve(Node::Standby));
        assert!(!o.may_serve(Node::Primary), "stale epoch, still fenced");
        // And once back for good, failback hands the epoch home.
        drive(&mut o, 530, 1400, SimDuration::ZERO, |_| true);
        assert_eq!(o.state(), DrState::Healthy);
        assert_eq!(o.failbacks(), 1);
        assert!(o.may_serve(Node::Primary));
    }

    #[test]
    fn service_down_spans_promotion_and_catch_up_only() {
        let mut o = orchestrator();
        let alive = |s: u64| s < 100;
        let mut down_states = Vec::new();
        let mut s = 0;
        while s <= 400 {
            o.tick(secs(s), alive(s), SimDuration::from_secs(30));
            if o.service_down() {
                down_states.push(o.state());
            }
            s += 10;
        }
        assert!(down_states.contains(&DrState::Promoting));
        assert!(down_states.contains(&DrState::CatchingUp));
        assert!(!down_states.contains(&DrState::Restored));
        assert!(!down_states.contains(&DrState::Healthy));
    }

    #[test]
    fn recovery_arc_is_traced() {
        use elc_trace::{TraceFilter, Tracer};
        let ((), tracer) =
            elc_trace::with_tracer(Tracer::new(TraceFilter::all(Level::Warn)), || {
                let mut o = orchestrator();
                let alive = |s: u64| !(100..300).contains(&s);
                drive(&mut o, 0, 1300, SimDuration::from_secs(30), alive);
            });
        let names: Vec<_> = tracer
            .events()
            .map(|e| tracer.resolve(e.name).to_string())
            .collect();
        for needle in [
            "dr.suspect",
            "dr.confirm",
            "dr.promote",
            "dr.fence",
            "dr.restore",
            "dr.failback",
        ] {
            assert!(names.contains(&needle.to_string()), "missing {needle}");
        }
    }
}
