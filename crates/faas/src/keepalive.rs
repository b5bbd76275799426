//! Keepalive: how long an idle sandbox survives before the reaper.
//!
//! [`FixedWindow`] is the classic provider default — every idle sandbox
//! lives exactly N minutes past its last invocation.

use elc_simcore::time::SimDuration;

/// Fixed-window keepalive: idle sandboxes are reaped after `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWindow {
    window: SimDuration,
}

impl FixedWindow {
    /// A window of `window`.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_nanos() != 0,
            "invalid FixedWindow: keepalive window must be a positive duration"
        );
        FixedWindow { window }
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid FixedWindow: keepalive window must be a positive duration")]
    fn new_rejects_zero_window() {
        let _ = FixedWindow::new(SimDuration::from_secs(0));
    }
}
