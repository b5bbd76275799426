//! Restoring from backup media.
//!
//! A [`MediaRestore`] is the restore clock of a posture whose standby is
//! a backup artifact: it streams the protected volume back at a finite
//! rate — the §IV.B story where recovering from physical damage is
//! bounded by how fast tapes read, not by intent. The cadence that cuts
//! the restore points is the posture's snapshot interval, which its
//! `ReplicationLink` ships at.

use elc_simcore::time::SimDuration;

/// A volume-scaled restore clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaRestore {
    restore_gib_per_hour: f64,
}

impl MediaRestore {
    /// Creates a restore clock streaming `restore_gib_per_hour`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite restore rate.
    #[must_use]
    pub fn new(restore_gib_per_hour: f64) -> Self {
        assert!(
            restore_gib_per_hour > 0.0 && restore_gib_per_hour.is_finite(),
            "restore rate must be positive and finite, got {restore_gib_per_hour} GiB/h"
        );
        MediaRestore {
            restore_gib_per_hour,
        }
    }

    /// How long restoring `data_gib` takes at this rate.
    #[must_use]
    pub fn restore_duration(&self, data_gib: f64) -> SimDuration {
        SimDuration::from_secs_f64(data_gib.max(0.0) / self.restore_gib_per_hour * 3600.0)
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

    #[test]
    fn new_rejects_bad_knobs() {
        let cases = [
            (
                -1.0,
                "restore rate must be positive and finite, got -1 GiB/h",
            ),
            (
                f64::INFINITY,
                "restore rate must be positive and finite, got inf GiB/h",
            ),
        ];
        for (rate, want) in cases {
            let msg = panic_message(|| {
                let _ = MediaRestore::new(rate);
            });
            assert_eq!(msg, want);
        }
    }

    #[test]
    fn restore_scales_linearly_with_volume() {
        let s = MediaRestore::new(200.0);
        assert_eq!(s.restore_duration(200.0), SimDuration::from_hours(1));
        assert_eq!(s.restore_duration(50.0), SimDuration::from_mins(15));
        assert_eq!(s.restore_duration(0.0), SimDuration::ZERO);
        assert_eq!(s.restore_duration(-5.0), SimDuration::ZERO);
    }
}
