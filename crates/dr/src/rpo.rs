//! RPO/RTO accounting: the drill scorecard.
//!
//! DR postures are bought in two currencies — how much committed data a
//! failure destroys (**RPO**, recovery point objective) and how long
//! service stays down (**RTO**, recovery time objective). [`RpoRto`]
//! accumulates both over a drill so E19 can put "data-minutes lost" and
//! "seconds to restored service" side by side with the posture's
//! carrying cost.

use elc_simcore::time::SimDuration;

/// Accumulated recovery metrics for one drill.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RpoRto {
    writes_lost: f64,
    data_lost: SimDuration,
    rto: Option<SimDuration>,
    downtime: SimDuration,
}

impl RpoRto {
    /// A clean scorecard.
    #[must_use]
    pub fn new() -> Self {
        RpoRto::default()
    }

    /// Records the data a failure destroyed: `writes` committed writes
    /// spanning `window` of history.
    pub fn record_loss(&mut self, writes: f64, window: SimDuration) {
        self.writes_lost += writes.max(0.0);
        self.data_lost += window;
    }

    /// Records the first restoration of service, `rto` after the loss.
    /// Later failovers keep the first RTO (the drill's headline number).
    pub fn record_restored(&mut self, rto: SimDuration) {
        self.rto.get_or_insert(rto);
    }

    /// Adds a span during which nobody served.
    pub fn add_downtime(&mut self, span: SimDuration) {
        self.downtime += span;
    }

    /// Committed writes destroyed across the drill.
    #[must_use]
    pub fn writes_lost(&self) -> f64 {
        self.writes_lost
    }

    /// History destroyed, as sim time (the "data-minutes lost" column is
    /// this in minutes).
    #[must_use]
    pub fn data_lost(&self) -> SimDuration {
        self.data_lost
    }

    /// Seconds from loss to restored service, if service was restored.
    #[must_use]
    pub fn rto(&self) -> Option<SimDuration> {
        self.rto
    }

    /// Total time nobody served.
    #[must_use]
    pub fn downtime(&self) -> SimDuration {
        self.downtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_keeps_the_first_rto() {
        let mut m = RpoRto::new();
        m.record_loss(120.0, SimDuration::from_mins(3));
        m.record_loss(30.0, SimDuration::from_mins(1));
        m.record_restored(SimDuration::from_secs(90));
        m.record_restored(SimDuration::from_secs(500));
        m.add_downtime(SimDuration::from_secs(60));
        m.add_downtime(SimDuration::from_secs(30));
        assert_eq!(m.writes_lost(), 150.0);
        assert_eq!(m.rto(), Some(SimDuration::from_secs(90)));
        assert_eq!(m.downtime(), SimDuration::from_secs(90));
    }

    #[test]
    fn negative_loss_is_clamped_and_default_is_clean() {
        let mut m = RpoRto::new();
        m.record_loss(-5.0, SimDuration::ZERO);
        assert_eq!(m.writes_lost(), 0.0);
        assert_eq!(m.rto(), None);
        assert_eq!(m.downtime(), SimDuration::ZERO);
    }
}
