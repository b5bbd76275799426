//! Bulk transfers across an unreliable link.
//!
//! Computes when a transfer that starts at `t` finishes, given the link's
//! bandwidth and the connection's outage schedule. An outage pauses the
//! transfer; progress made before the outage is kept (resumable transfer,
//! the common case for LMS content sync) or lost (non-resumable, modelling
//! naive clients that restart uploads).

use elc_simcore::time::{SimDuration, SimTime};
use elc_trace::{Field, Level};

use crate::link::Link;
use crate::outage::OutageSchedule;
use crate::units::Bytes;
use crate::TRACE_TARGET;

/// How a transfer reacts to a connection drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Progress survives the outage (ranged requests / rsync-style).
    Resumable,
    /// The transfer restarts from zero after each outage.
    RestartFromZero,
}

/// Outcome of a planned transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// When the last byte arrives.
    pub completed_at: SimTime,
    /// Wall-clock duration from start to completion.
    pub elapsed: SimDuration,
    /// Time spent stalled in outages.
    pub stalled: SimDuration,
    /// Number of outages that interrupted the transfer.
    pub interruptions: u32,
    /// Bytes re-sent due to restarts (zero for resumable transfers).
    pub wasted: Bytes,
}

/// Plans a transfer of `size` starting at `start` over `link`, pausing (or
/// restarting) across the outages in `outages`.
///
/// Returns `None` if the transfer cannot finish before the schedule horizon
/// (treat as "gave up").
///
/// # Panics
///
/// Panics if the link has zero bandwidth.
#[must_use]
pub fn plan_transfer(
    start: SimTime,
    size: Bytes,
    link: &Link,
    outages: &OutageSchedule,
    policy: ResumePolicy,
) -> Option<TransferOutcome> {
    if !elc_trace::enabled(TRACE_TARGET, Level::Debug) {
        return plan_transfer_inner(start, size, link, outages, policy);
    }
    let span = elc_trace::span_begin(
        start.as_nanos(),
        TRACE_TARGET,
        "transfer",
        Level::Debug,
        &[Field::u64("bytes", size.as_u64())],
    );
    let outcome = plan_transfer_inner(start, size, link, outages, policy);
    match &outcome {
        Some(o) => elc_trace::span_end(
            o.completed_at.as_nanos(),
            TRACE_TARGET,
            "transfer",
            Level::Debug,
            span,
            &[
                Field::duration_ns("stalled", o.stalled.as_nanos()),
                Field::u64("interruptions", u64::from(o.interruptions)),
                Field::u64("wasted_bytes", o.wasted.as_u64()),
            ],
        ),
        None => {
            elc_trace::span_end(
                outages.horizon().as_nanos(),
                TRACE_TARGET,
                "transfer",
                Level::Debug,
                span,
                &[Field::bool("gave_up", true)],
            );
            elc_trace::instant(
                outages.horizon().as_nanos(),
                TRACE_TARGET,
                "transfer.gave_up",
                Level::Warn,
                &[Field::u64("bytes", size.as_u64())],
            );
        }
    }
    outcome
}

fn plan_transfer_inner(
    start: SimTime,
    size: Bytes,
    link: &Link,
    outages: &OutageSchedule,
    policy: ResumePolicy,
) -> Option<TransferOutcome> {
    let total_active = link.transfer_time(size);
    let mut remaining = total_active;
    let mut now = start;
    let mut stalled = SimDuration::ZERO;
    let mut interruptions = 0u32;
    let mut wasted = Bytes::ZERO;

    // If we start inside an outage, wait for it to end first.
    if let Some((_, end)) = outages.window_covering(now) {
        stalled += end - now;
        now = end;
    }

    loop {
        let would_finish = now.checked_add(remaining)?;
        match outages.next_outage_after(now) {
            Some((o_start, o_end)) if o_start < would_finish => {
                // Active progress until the outage hits.
                let progressed = o_start - now;
                if progressed.is_zero() {
                    // The transfer resumed exactly where the next window
                    // starts — back-to-back outages are one contiguous
                    // stall, not a fresh interruption, and an attempt
                    // that never moved a byte has nothing to waste.
                    stalled += o_end - o_start;
                    now = o_end;
                    if now >= outages.horizon() {
                        return None;
                    }
                    continue;
                }
                match policy {
                    ResumePolicy::Resumable => {
                        remaining = remaining.saturating_sub(progressed);
                    }
                    ResumePolicy::RestartFromZero => {
                        // All progress on this attempt is wasted.
                        let frac = progressed.ratio(total_active);
                        wasted += size.mul_f64(frac.min(1.0));
                        remaining = total_active;
                    }
                }
                interruptions += 1;
                stalled += o_end - o_start;
                now = o_end;
                if now >= outages.horizon() {
                    return None;
                }
            }
            _ => {
                if would_finish > outages.horizon() {
                    return None;
                }
                return Some(TransferOutcome {
                    completed_at: would_finish,
                    elapsed: would_finish - start,
                    stalled,
                    interruptions,
                    wasted,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;
    use crate::units::Bandwidth;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// 1 MiB/s link with no latency, so times are easy to reason about.
    fn flat_link() -> Link {
        Link::new(
            SimDuration::ZERO,
            SimDuration::ZERO,
            Bandwidth::from_bps(8.0 * 1024.0 * 1024.0),
            0.0,
        )
    }

    #[test]
    fn clean_transfer_matches_link_time() {
        let link = flat_link();
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &OutageSchedule::none(secs(1_000)),
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.elapsed, SimDuration::from_secs(10));
        assert_eq!(out.interruptions, 0);
        assert_eq!(out.stalled, SimDuration::ZERO);
        assert_eq!(out.wasted, Bytes::ZERO);
    }

    #[test]
    fn resumable_transfer_pauses_across_outage() {
        let link = flat_link();
        // 10 MiB = 10s active. Outage at t=4 for 30s.
        let outages = OutageSchedule::from_windows(vec![(secs(4), secs(34))], secs(1_000));
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &outages,
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.completed_at, secs(40)); // 4 + 30 + 6
        assert_eq!(out.stalled, SimDuration::from_secs(30));
        assert_eq!(out.interruptions, 1);
        assert_eq!(out.wasted, Bytes::ZERO);
    }

    #[test]
    fn restart_policy_wastes_progress() {
        let link = flat_link();
        let outages = OutageSchedule::from_windows(vec![(secs(4), secs(34))], secs(1_000));
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &outages,
            ResumePolicy::RestartFromZero,
        )
        .unwrap();
        assert_eq!(out.completed_at, secs(44)); // 4 wasted + 30 outage + full 10
        assert_eq!(out.interruptions, 1);
        assert_eq!(out.wasted, Bytes::from_mib(4));
    }

    #[test]
    fn start_inside_outage_waits() {
        let link = flat_link();
        let outages = OutageSchedule::from_windows(vec![(secs(0), secs(20))], secs(1_000));
        let out = plan_transfer(
            secs(5),
            Bytes::from_mib(1),
            &link,
            &outages,
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.completed_at, secs(21));
        assert_eq!(out.stalled, SimDuration::from_secs(15));
    }

    #[test]
    fn multiple_outages_accumulate() {
        let link = flat_link();
        let outages = OutageSchedule::from_windows(
            vec![(secs(2), secs(3)), (secs(5), secs(7)), (secs(9), secs(10))],
            secs(1_000),
        );
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(8),
            &link,
            &outages,
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.interruptions, 3);
        assert_eq!(out.stalled, SimDuration::from_secs(4));
        assert_eq!(out.completed_at, secs(12));
    }

    #[test]
    fn back_to_back_outages_are_one_interruption() {
        // Regression: windows (4,10) and (10,20) are adjacent — the link
        // never comes up in between, so this is ONE contiguous stall. The
        // old loop re-entered the interruption arm at t=10 with zero
        // progress and counted a second interruption.
        let link = flat_link();
        let outages = OutageSchedule::from_windows(
            vec![(secs(4), secs(10)), (secs(10), secs(20))],
            secs(1_000),
        );
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &outages,
            ResumePolicy::RestartFromZero,
        )
        .unwrap();
        assert_eq!(out.interruptions, 1);
        assert_eq!(out.wasted, Bytes::from_mib(4));
        assert_eq!(out.stalled, SimDuration::from_secs(16));
        assert_eq!(out.completed_at, secs(30)); // 4 wasted + 16 stalled + full 10
                                                // Resumable sees the same single interruption and keeps progress.
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &outages,
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.interruptions, 1);
        assert_eq!(out.wasted, Bytes::ZERO);
        assert_eq!(out.completed_at, secs(26)); // 4 done + 16 stalled + 6 left
    }

    #[test]
    fn unfinishable_transfer_returns_none() {
        let link = flat_link();
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(100),
            &link,
            &OutageSchedule::none(secs(10)),
            ResumePolicy::Resumable,
        );
        assert!(out.is_none());
    }

    #[test]
    fn outage_ending_at_horizon_returns_none() {
        let link = flat_link();
        let outages = OutageSchedule::from_windows(vec![(secs(5), secs(10))], secs(10));
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(10),
            &link,
            &outages,
            ResumePolicy::Resumable,
        );
        assert!(out.is_none());
    }

    #[test]
    fn realistic_profile_transfer_completes() {
        let link = Link::from_profile(LinkProfile::MetroInternet);
        let out = plan_transfer(
            secs(0),
            Bytes::from_mib(50),
            &link,
            &OutageSchedule::none(secs(3_600)),
            ResumePolicy::Resumable,
        )
        .unwrap();
        // 50 MiB at 100 Mbps ≈ 4.2s + 50ms RTT
        assert!(out.elapsed > SimDuration::from_secs(4));
        assert!(out.elapsed < SimDuration::from_secs(5));
    }

    #[test]
    fn zero_byte_transfer_is_instant_plus_rtt() {
        let link = flat_link();
        let out = plan_transfer(
            secs(1),
            Bytes::ZERO,
            &link,
            &OutageSchedule::none(secs(10)),
            ResumePolicy::Resumable,
        )
        .unwrap();
        assert_eq!(out.completed_at, secs(1));
    }
}
