//! Disaster-recovery postures, one per deployment model (E19).
//!
//! The paper's §IV risk comparison implies each deployment model buys a
//! different recovery story (arXiv:1305.2616 lists backup/recovery as a
//! core cloud-adoption motive). A [`DrPosture`] bundles the `elc-dr`
//! building blocks each model realistically deploys, plus its annual
//! carrying cost:
//!
//! | model     | posture                                     | RPO class     |
//! |-----------|---------------------------------------------|---------------|
//! | private   | nightly tape, offsite, restore from media   | hours         |
//! | public    | multi-AZ synchronous replica                | zero          |
//! | hybrid    | warm standby, async log shipping            | seconds–mins  |
//! | community | hourly snapshots shipped to a partner       | up to an hour |
//! | FaaS      | stateless compute over a managed replicated | zero          |
//! |           | store (recovery = cold scale-from-zero)     |               |
//!
//! A posture is pure configuration; E19 instantiates the detector, link
//! and orchestrator from it per run, so the posture itself carries no
//! sim state.

use elc_dr::backup::MediaRestore;
use elc_dr::detector::FailureDetector;
use elc_dr::replication::{ReplicationLink, ReplicationMode};
use elc_simcore::time::SimDuration;

use elc_cloud::billing::Usd;

use crate::calib;

/// How a posture keeps its standby copy; resolved to a concrete
/// [`ReplicationMode`] once the workload's peak write rate is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationSpec {
    /// Synchronous: every write durable on the standby before commit.
    Sync,
    /// Asynchronous shipping provisioned at this fraction of the peak
    /// write rate — under 1.0 the link falls behind exactly at the exam
    /// peak, which is the honest sizing mistake warm standbys make.
    AsyncAtPeakFraction(f64),
    /// Snapshot shipping every `interval`.
    Snapshot(SimDuration),
}

/// One deployment model's disaster-recovery stance. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrPosture {
    name: &'static str,
    replication: ReplicationSpec,
    /// Restore-from-media clock, for the postures whose standby is a
    /// backup artifact rather than a running replica.
    backup: Option<MediaRestore>,
    heartbeat_every: SimDuration,
    suspect_after_missed: u32,
    confirm_after_missed: u32,
    promotion_time: SimDuration,
    /// Fixed catch-up on top of any media restore: log replay,
    /// verification, DNS cutover.
    catch_up_fixed: SimDuration,
    failback_hold: SimDuration,
    annual_fixed: Usd,
    annual_per_server: Usd,
}

impl DrPosture {
    /// Private cloud: nightly tape, restored from media at tape speed.
    /// Cheap to carry, brutal to invoke.
    #[must_use]
    pub fn nightly_tape() -> Self {
        DrPosture {
            name: "nightly-tape",
            replication: ReplicationSpec::Snapshot(SimDuration::from_hours(24)),
            backup: Some(MediaRestore::new(calib::DR_TAPE_RESTORE_GIB_PER_HOUR)),
            heartbeat_every: SimDuration::from_secs(30),
            suspect_after_missed: 2,
            confirm_after_missed: 4,
            // Stand up replacement capacity before the restore can even
            // start — §IV.B's procurement reality in miniature.
            promotion_time: SimDuration::from_mins(30),
            catch_up_fixed: SimDuration::from_mins(10),
            failback_hold: SimDuration::from_mins(30),
            annual_fixed: calib::DR_TAPE_LIBRARY_PER_YEAR,
            annual_per_server: calib::DR_TAPE_MEDIA_PER_SERVER_PER_YEAR,
        }
    }

    /// Public cloud: a synchronous replica in a second availability
    /// zone. Zero data loss, promotion in about a minute.
    #[must_use]
    pub fn multi_az_sync() -> Self {
        DrPosture {
            name: "multi-az-sync",
            replication: ReplicationSpec::Sync,
            backup: None,
            heartbeat_every: SimDuration::from_secs(5),
            suspect_after_missed: 2,
            confirm_after_missed: 4,
            promotion_time: SimDuration::from_secs(40),
            catch_up_fixed: SimDuration::ZERO,
            failback_hold: SimDuration::from_mins(10),
            annual_fixed: Usd::ZERO,
            annual_per_server: calib::DR_SYNC_REPLICA_PER_SERVER_PER_YEAR,
        }
    }

    /// Hybrid: a warm standby in the public half fed by async log
    /// shipping sized at 90% of the peak write rate — promoted through
    /// the same breaker machinery as `HybridFailover`.
    #[must_use]
    pub fn warm_standby() -> Self {
        DrPosture {
            name: "warm-standby",
            replication: ReplicationSpec::AsyncAtPeakFraction(0.9),
            backup: None,
            heartbeat_every: SimDuration::from_secs(10),
            suspect_after_missed: 2,
            confirm_after_missed: 3,
            promotion_time: SimDuration::from_secs(90),
            // Replay the shipped-but-unapplied log tail.
            catch_up_fixed: SimDuration::from_mins(3),
            failback_hold: SimDuration::from_mins(10),
            annual_fixed: Usd::ZERO,
            annual_per_server: calib::DR_WARM_STANDBY_PER_SERVER_PER_YEAR,
        }
    }

    /// Community: hourly snapshots shipped to a partner institution
    /// under a mutual-aid agreement; promotion needs cross-institution
    /// coordination but the data is already on the partner's disks.
    #[must_use]
    pub fn mutual_aid() -> Self {
        DrPosture {
            name: "mutual-aid",
            replication: ReplicationSpec::Snapshot(SimDuration::from_hours(1)),
            backup: Some(MediaRestore::new(calib::DR_SNAPSHOT_IMPORT_GIB_PER_HOUR)),
            heartbeat_every: SimDuration::from_secs(30),
            suspect_after_missed: 2,
            confirm_after_missed: 4,
            // Phone calls, not APIs: the partner has to agree to take
            // the load.
            promotion_time: SimDuration::from_mins(20),
            catch_up_fixed: SimDuration::from_mins(5),
            failback_hold: SimDuration::from_mins(30),
            annual_fixed: calib::DR_MUTUAL_AID_PER_YEAR,
            annual_per_server: calib::DR_MUTUAL_AID_PER_SERVER_PER_YEAR,
        }
    }

    /// FaaS: the compute is stateless, the state lives in a managed
    /// multi-region store — recovery is a cold scale-from-zero burst in
    /// the surviving region.
    #[must_use]
    pub fn managed_store() -> Self {
        DrPosture {
            name: "managed-store",
            replication: ReplicationSpec::Sync,
            backup: None,
            heartbeat_every: SimDuration::from_secs(5),
            suspect_after_missed: 2,
            confirm_after_missed: 4,
            // The cold-start herd: platform scheduling plus runtime
            // bring-up across the whole fleet of functions.
            promotion_time: SimDuration::from_secs(120),
            catch_up_fixed: SimDuration::ZERO,
            failback_hold: SimDuration::from_mins(10),
            annual_fixed: calib::DR_MANAGED_STORE_PREMIUM_PER_YEAR,
            annual_per_server: Usd::ZERO,
        }
    }

    /// The posture's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The replication spec (resolved by [`DrPosture::make_link`]).
    #[must_use]
    pub fn replication(&self) -> ReplicationSpec {
        self.replication
    }

    /// How long promotion takes once the loss is confirmed.
    #[must_use]
    pub fn promotion_time(&self) -> SimDuration {
        self.promotion_time
    }

    /// How long a returned primary must stay healthy before failback.
    #[must_use]
    pub fn failback_hold(&self) -> SimDuration {
        self.failback_hold
    }

    /// A fresh failure detector configured for this posture.
    #[must_use]
    pub fn make_detector(&self) -> FailureDetector {
        FailureDetector::new(
            self.heartbeat_every,
            self.suspect_after_missed,
            self.confirm_after_missed,
        )
    }

    /// Worst-case time from silence to a confirmed loss.
    #[must_use]
    pub fn detection_latency(&self) -> SimDuration {
        self.heartbeat_every
            .mul_f64(f64::from(self.confirm_after_missed))
    }

    /// A fresh replication link, with async shipping sized against
    /// `peak_write_rate` (writes/s).
    #[must_use]
    pub fn make_link(&self, peak_write_rate: f64) -> ReplicationLink {
        let mode = match self.replication {
            ReplicationSpec::Sync => ReplicationMode::Sync,
            ReplicationSpec::AsyncAtPeakFraction(frac) => ReplicationMode::Async {
                // Guard the degenerate quiet-workload case: a link ships
                // at least one write per second.
                ship_rate: (peak_write_rate * frac).max(1.0),
            },
            ReplicationSpec::Snapshot(interval) => ReplicationMode::Snapshot { interval },
        };
        ReplicationLink::new(mode)
    }

    /// Total standby catch-up once promotion completes: any media
    /// restore of the hot dataset (`hot_data_gib`), plus the fixed log
    /// replay / cutover tail.
    #[must_use]
    pub fn catch_up(&self, hot_data_gib: f64) -> SimDuration {
        let restore = self
            .backup
            .map(|b| b.restore_duration(hot_data_gib))
            .unwrap_or(SimDuration::ZERO);
        restore + self.catch_up_fixed
    }

    /// The posture's annual carrying cost for a fleet of `servers`
    /// protected nodes (private servers, or the public serving fleet).
    #[must_use]
    pub fn annual_cost(&self, servers: u32) -> Usd {
        self.annual_fixed + self.annual_per_server * f64::from(servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [DrPosture; 5] {
        [
            DrPosture::nightly_tape(),
            DrPosture::multi_az_sync(),
            DrPosture::warm_standby(),
            DrPosture::mutual_aid(),
            DrPosture::managed_store(),
        ]
    }

    #[test]
    fn every_posture_builds_its_components() {
        for p in all() {
            let _ = p.make_detector();
            let link = p.make_link(100.0);
            assert_eq!(link.pending_writes(), 0.0, "{}", p.name());
            assert!(p.annual_cost(4) >= Usd::ZERO);
            assert!(!p.detection_latency().is_zero());
        }
    }

    #[test]
    fn tape_catch_up_scales_with_volume_and_sync_does_not() {
        let tape = DrPosture::nightly_tape();
        let small = tape.catch_up(100.0);
        let big = tape.catch_up(1_000.0);
        assert!(big > small);
        // 1000 GiB at 200 GiB/h = 5 h, plus the fixed 10 min.
        assert_eq!(big, SimDuration::from_hours(5) + SimDuration::from_mins(10));
        let sync = DrPosture::multi_az_sync();
        assert_eq!(sync.catch_up(100.0), sync.catch_up(10_000.0));
    }

    #[test]
    fn detection_is_fastest_where_the_platform_is_managed() {
        let tape = DrPosture::nightly_tape().detection_latency();
        let sync = DrPosture::multi_az_sync().detection_latency();
        assert!(sync < tape, "managed heartbeats beat campus monitoring");
    }

    #[test]
    fn carrying_costs_order_sensibly() {
        // Per-server, the sync replica is the priciest stance; tape
        // media the cheapest recurring line.
        let servers = 6;
        let tape = DrPosture::nightly_tape().annual_cost(servers);
        let sync = DrPosture::multi_az_sync().annual_cost(servers);
        assert!(sync > tape);
        // FaaS pays a flat premium regardless of fleet size.
        let faas = DrPosture::managed_store();
        assert_eq!(faas.annual_cost(1), faas.annual_cost(100));
    }

    #[test]
    fn async_link_ship_rate_tracks_the_peak() {
        let p = DrPosture::warm_standby();
        let link = p.make_link(200.0);
        match link.mode() {
            ReplicationMode::Async { ship_rate } => {
                assert!((ship_rate - 180.0).abs() < 1e-9);
            }
            other => panic!("expected async, got {other}"),
        }
    }
}
