//! Replication links: how far behind the standby copy runs.
//!
//! A [`ReplicationLink`] tracks the writes the primary has committed
//! that the standby has *not* yet durably received — the exact data a
//! failure at that instant destroys. The caller integrates it forward
//! with the write rate its `WorkloadSource` implies
//! ([`ReplicationLink::advance`]); the link never samples randomness, so
//! the lag is a pure function of the rate history.

use std::fmt;

use elc_simcore::time::{SimDuration, SimTime};

/// How the standby copy is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationMode {
    /// Every write is acknowledged by the standby before it commits:
    /// zero lag, zero data loss — the multi-AZ posture.
    Sync,
    /// Writes stream to the standby at up to `ship_rate` writes/s;
    /// whenever the primary writes faster, lag accumulates and is lost
    /// on failure — the warm-standby posture.
    Async {
        /// Standby apply bandwidth in writes per second.
        ship_rate: f64,
    },
    /// The standby only ever has the last shipped snapshot; everything
    /// since the most recent `interval` boundary is lost on failure —
    /// the tape / mutual-aid posture.
    Snapshot {
        /// Time between shipped restore points.
        interval: SimDuration,
    },
}

impl fmt::Display for ReplicationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReplicationMode::Sync => f.write_str("sync"),
            ReplicationMode::Async { ship_rate } => write!(f, "async(ship={ship_rate}/s)"),
            ReplicationMode::Snapshot { interval } => {
                write!(f, "snapshot(every={}h)", interval.as_hours_f64())
            }
        }
    }
}

/// A primary → standby replication link. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationLink {
    mode: ReplicationMode,
    /// Writes committed on the primary but not durable on the standby.
    pending: f64,
    /// The instant the integration has reached.
    advanced_to: SimTime,
}

impl ReplicationLink {
    /// Creates a link in `mode` with nothing pending, integrated from
    /// `SimTime::ZERO`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite async ship rate and a zero
    /// snapshot interval.
    #[must_use]
    pub fn new(mode: ReplicationMode) -> Self {
        match mode {
            ReplicationMode::Async { ship_rate } => assert!(
                ship_rate > 0.0 && ship_rate.is_finite(),
                "async ship rate must be positive and finite, got {ship_rate}"
            ),
            ReplicationMode::Snapshot { interval } => {
                assert!(!interval.is_zero(), "snapshot interval must be positive");
            }
            ReplicationMode::Sync => {}
        }
        ReplicationLink {
            mode,
            pending: 0.0,
            advanced_to: SimTime::ZERO,
        }
    }

    /// The link's mode.
    #[must_use]
    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    /// The instant [`ReplicationLink::advance`] has integrated to.
    #[must_use]
    pub fn advanced_to(&self) -> SimTime {
        self.advanced_to
    }

    /// Integrates the link forward to `to`, assuming the primary commits
    /// `write_rate` writes/s over the whole span. Calls with `to` in the
    /// past are ignored (the integration clock never rewinds).
    pub fn advance(&mut self, to: SimTime, write_rate: f64) {
        if to <= self.advanced_to {
            return;
        }
        let write_rate = write_rate.max(0.0);
        match self.mode {
            ReplicationMode::Sync => {
                // The standby acknowledges before commit: never behind.
                self.pending = 0.0;
            }
            ReplicationMode::Async { ship_rate } => {
                let dt = to.saturating_since(self.advanced_to).as_secs_f64();
                self.pending = (self.pending + (write_rate - ship_rate) * dt).max(0.0);
            }
            ReplicationMode::Snapshot { interval } => {
                // Walk each snapshot boundary inside the span: pending
                // accumulates up to a boundary, then the shipped snapshot
                // zeroes it.
                let step = interval.as_nanos();
                let mut from = self.advanced_to;
                loop {
                    let next_boundary =
                        SimTime::from_nanos((from.as_nanos() / step + 1).saturating_mul(step));
                    if next_boundary > to {
                        break;
                    }
                    self.pending += write_rate * next_boundary.saturating_since(from).as_secs_f64();
                    self.pending = 0.0;
                    from = next_boundary;
                }
                self.pending += write_rate * to.saturating_since(from).as_secs_f64();
            }
        }
        self.advanced_to = to;
    }

    /// Writes committed on the primary that the standby does not have —
    /// the data a failure right now destroys (the instantaneous RPO, in
    /// writes).
    #[must_use]
    pub fn pending_writes(&self) -> f64 {
        self.pending
    }

    /// Declares the standby promoted: its copy becomes the new history
    /// head, so nothing is pending any more. Returns the writes that were
    /// lost with the old primary.
    pub fn fail_over(&mut self) -> f64 {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic payload")
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn new_rejects_bad_knobs() {
        let cases = [
            (
                ReplicationMode::Async { ship_rate: 0.0 },
                "async ship rate must be positive and finite, got 0",
            ),
            (
                ReplicationMode::Async {
                    ship_rate: f64::NAN,
                },
                "async ship rate must be positive and finite, got NaN",
            ),
            (
                ReplicationMode::Snapshot {
                    interval: SimDuration::ZERO,
                },
                "snapshot interval must be positive",
            ),
        ];
        for (mode, want) in cases {
            let msg = panic_message(|| {
                let _ = ReplicationLink::new(mode);
            });
            assert_eq!(msg, want);
        }
    }

    #[test]
    fn sync_link_never_accumulates() {
        let mut link = ReplicationLink::new(ReplicationMode::Sync);
        link.advance(secs(3600), 500.0);
        assert_eq!(link.pending_writes(), 0.0);
    }

    #[test]
    fn async_link_lags_by_the_rate_excess_and_drains_below_it() {
        let mut link = ReplicationLink::new(ReplicationMode::Async { ship_rate: 10.0 });
        // 60 s at 25 writes/s against a 10/s ship rate: 15/s excess.
        link.advance(secs(60), 25.0);
        assert!((link.pending_writes() - 900.0).abs() < 1e-9);
        // Under-rate writing shrinks the backlog, clamped at zero.
        link.advance(secs(1000), 0.0);
        assert_eq!(link.pending_writes(), 0.0);
    }

    #[test]
    fn snapshot_link_resets_at_each_boundary() {
        let mut link = ReplicationLink::new(ReplicationMode::Snapshot {
            interval: SimDuration::from_hours(1),
        });
        // Half an hour in: half an hour of writes pending.
        link.advance(secs(1800), 2.0);
        assert!((link.pending_writes() - 3600.0).abs() < 1e-9);
        // Crossing the boundary ships the snapshot; only the overhang
        // stays pending.
        link.advance(secs(3600 + 600), 2.0);
        assert!((link.pending_writes() - 1200.0).abs() < 1e-9);
        // A big jump across several boundaries keeps only the tail.
        link.advance(secs(5 * 3600 + 60), 2.0);
        assert!((link.pending_writes() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn advance_ignores_time_travel_and_fail_over_takes_the_loss() {
        let mut link = ReplicationLink::new(ReplicationMode::Async { ship_rate: 1.0 });
        link.advance(secs(100), 3.0);
        let before = link.pending_writes();
        link.advance(secs(50), 1000.0);
        assert_eq!(link.pending_writes(), before, "rewind must be a no-op");
        let lost = link.fail_over();
        assert!((lost - 200.0).abs() < 1e-9);
        assert_eq!(link.pending_writes(), 0.0);
    }
}
