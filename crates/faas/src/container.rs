//! Sandbox lifecycle: cold → initializing → warm → idle → reaped.
//!
//! A [`Container`] is one function sandbox. It begins *cold* (allocated but
//! not started), spends a drawn cold-start interval *initializing*, is
//! *warm* while it executes invocations, parks *idle* between them, and is
//! *reaped* when its keepalive window expires. The struct is a pure state
//! machine — the [`Invoker`](crate::Invoker) drives the transitions and
//! owns every policy decision.

use elc_simcore::time::{SimDuration, SimTime};

/// Lifecycle states of a function sandbox.
///
/// Legal transitions (all driven by the invoker):
///
/// ```text
/// Cold --start--> Initializing --ready--> Idle <--finish/begin--> Warm
///                                          |
///                                          +--keepalive expiry--> Reaped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Allocated by the platform but not yet started.
    Cold,
    /// Running init code; cannot serve until the cold start completes.
    Initializing,
    /// Executing an invocation.
    Warm,
    /// Started and ready, waiting for the next invocation.
    Idle,
    /// Reclaimed by the keepalive reaper; terminal.
    Reaped,
}

/// One function sandbox.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    id: u64,
    state: ContainerState,
    /// When `start` was called; meaningful from `Initializing` on.
    started_at: SimTime,
    /// When initialization completes and the sandbox can first serve.
    ready_at: SimTime,
    /// When the sandbox last went idle; the keepalive clock.
    idle_since: SimTime,
    /// Completed invocations over the sandbox lifetime.
    invocations: u64,
}

impl Container {
    /// Allocates a cold sandbox.
    #[must_use]
    pub fn new(id: u64) -> Self {
        Container {
            id,
            state: ContainerState::Cold,
            started_at: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            idle_since: SimTime::ZERO,
            invocations: 0,
        }
    }

    /// Sandbox identifier (assigned by the invoker).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Completed invocations.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// When the sandbox last went idle.
    #[must_use]
    pub fn idle_since(&self) -> SimTime {
        self.idle_since
    }

    /// Begins the cold start: `Cold -> Initializing`, ready after
    /// `cold_start`.
    ///
    /// # Panics
    ///
    /// Panics unless the sandbox is `Cold`.
    pub fn start(&mut self, now: SimTime, cold_start: SimDuration) {
        assert_eq!(
            self.state,
            ContainerState::Cold,
            "start on a started sandbox"
        );
        self.state = ContainerState::Initializing;
        self.started_at = now;
        self.ready_at = now + cold_start;
    }

    /// Promotes `Initializing -> Idle` once the cold start has elapsed.
    /// Returns `true` when the promotion happened. Other states are left
    /// untouched.
    pub fn poll_ready(&mut self, now: SimTime) -> bool {
        if self.state == ContainerState::Initializing && now >= self.ready_at {
            self.state = ContainerState::Idle;
            self.idle_since = self.ready_at;
            return true;
        }
        false
    }

    /// Marks the sandbox busy for an invocation: `Idle -> Warm`.
    ///
    /// # Panics
    ///
    /// Panics unless the sandbox is `Idle`.
    pub fn begin_invocation(&mut self) {
        assert_eq!(
            self.state,
            ContainerState::Idle,
            "invoke on a non-idle sandbox"
        );
        self.state = ContainerState::Warm;
    }

    /// Completes the invocation: `Warm -> Idle`.
    ///
    /// # Panics
    ///
    /// Panics unless the sandbox is `Warm`.
    pub fn finish_invocation(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            ContainerState::Warm,
            "finish on a non-warm sandbox"
        );
        self.state = ContainerState::Idle;
        self.idle_since = now;
        self.invocations += 1;
    }

    /// Reclaims the sandbox: `Idle -> Reaped`.
    ///
    /// # Panics
    ///
    /// Panics unless the sandbox is `Idle` — reaping a sandbox mid-cold-start
    /// or mid-invocation is a platform bug, and the assertion is what the
    /// keepalive proptests lean on.
    pub fn reap(&mut self) {
        assert_eq!(
            self.state,
            ContainerState::Idle,
            "reap on a non-idle sandbox"
        );
        self.state = ContainerState::Reaped;
    }

    /// Chaos kill: `Initializing | Idle -> Reaped`. Unlike [`Container::reap`]
    /// this may interrupt a cold start — a crashing host takes initializing
    /// sandboxes with it.
    ///
    /// # Panics
    ///
    /// Panics if the sandbox is executing an invocation (`Warm`) or not
    /// live — chaos is applied between ticks, never mid-invocation.
    pub fn kill(&mut self) {
        assert!(
            matches!(
                self.state,
                ContainerState::Initializing | ContainerState::Idle
            ),
            "kill on a non-live or executing sandbox"
        );
        self.state = ContainerState::Reaped;
    }

    /// True while the sandbox counts against live concurrency
    /// (anything started and not yet reaped).
    #[must_use]
    pub fn is_live(&self) -> bool {
        matches!(
            self.state,
            ContainerState::Initializing | ContainerState::Warm | ContainerState::Idle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn full_lifecycle() {
        let mut c = Container::new(7);
        assert_eq!(c.state(), ContainerState::Cold);
        assert!(!c.is_live());

        let t0 = SimTime::ZERO + secs(100);
        c.start(t0, secs(2));
        assert_eq!(c.state(), ContainerState::Initializing);
        assert!(c.is_live());

        assert!(!c.poll_ready(t0 + secs(1)));
        assert!(c.poll_ready(t0 + secs(2)));
        assert_eq!(c.state(), ContainerState::Idle);

        assert_eq!(c.idle_since(), t0 + secs(2)); // ready_at
        c.begin_invocation();
        c.finish_invocation(t0 + secs(11));
        assert_eq!(c.invocations(), 1);
        assert_eq!(c.idle_since(), t0 + secs(11));

        c.reap();
        assert_eq!(c.state(), ContainerState::Reaped);
        assert!(!c.is_live());
    }

    #[test]
    #[should_panic(expected = "reap on a non-idle sandbox")]
    fn reap_mid_invocation_panics() {
        let mut c = Container::new(0);
        c.start(SimTime::ZERO, secs(1));
        c.poll_ready(SimTime::ZERO + secs(1));
        c.begin_invocation();
        c.reap();
    }

    #[test]
    #[should_panic(expected = "reap on a non-idle sandbox")]
    fn reap_mid_cold_start_panics() {
        let mut c = Container::new(0);
        c.start(SimTime::ZERO, secs(5));
        c.reap();
    }

    #[test]
    fn kill_interrupts_a_cold_start() {
        let mut c = Container::new(0);
        c.start(SimTime::ZERO, secs(5));
        c.kill();
        assert_eq!(c.state(), ContainerState::Reaped);
    }

    #[test]
    #[should_panic(expected = "kill on a non-live or executing sandbox")]
    fn kill_mid_invocation_panics() {
        let mut c = Container::new(0);
        c.start(SimTime::ZERO, secs(1));
        c.poll_ready(SimTime::ZERO + secs(1));
        c.begin_invocation();
        c.kill();
    }

    #[test]
    #[should_panic(expected = "start on a started sandbox")]
    fn double_start_panics() {
        let mut c = Container::new(0);
        c.start(SimTime::ZERO, secs(1));
        c.start(SimTime::ZERO, secs(1));
    }
}
