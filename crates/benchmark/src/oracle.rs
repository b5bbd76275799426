//! Correctness oracles. A failed check counts as a failed operation.

use elc_analysis::metrics::MetricSet;
use elc_fluid::{EngineConfig, EngineReport};

/// E18's fluid-vs-event tolerance on served requests (relative).
pub const SERVED_TOLERANCE: f64 = 0.02;
/// E18's fluid-vs-event tolerance on the shed fraction (absolute).
pub const SHED_TOLERANCE: f64 = 0.02;

/// `actual` must equal the golden capture byte for byte.
///
/// # Errors
///
/// Names the golden and the first differing byte.
pub fn golden(name: &str, actual: &str, expected: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let at = actual
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(actual.len().min(expected.len()));
    Err(format!(
        "{name}: differs from its golden at byte {at} ({} vs {} bytes)",
        actual.len(),
        expected.len()
    ))
}

/// Request conservation at one station: `served + shed ≤ offered`, and
/// what is left (queued or in service at the horizon) fits in the
/// servers plus the waiting room.
///
/// # Errors
///
/// Describes the violated bound.
pub fn conservation(report: &EngineReport, cfg: &EngineConfig) -> Result<(), String> {
    // Auto fidelity mixes integer event tallies with fluid volumes.
    let slack = 1e-6 * report.offered.max(1.0);
    let left = report.offered - report.served - report.shed;
    if left < -slack {
        return Err(format!(
            "served {} + shed {} exceeds offered {}",
            report.served, report.shed, report.offered
        ));
    }
    let room = (cfg.servers + cfg.queue_limit) as f64;
    if left > room + slack {
        return Err(format!(
            "{left} requests unaccounted for, more than {room} servers + waiting room"
        ));
    }
    Ok(())
}

/// An event or auto run agrees with the fluid run of the same station
/// within E18's tolerances.
///
/// # Errors
///
/// Describes the gap that is too wide.
pub fn fluid_agreement(run: &EngineReport, fluid: &EngineReport) -> Result<(), String> {
    let rel = (run.served - fluid.served).abs() / run.served.max(1.0);
    if rel >= SERVED_TOLERANCE {
        return Err(format!(
            "served {} vs fluid {} differ by {:.2}%",
            run.served,
            fluid.served,
            rel * 100.0
        ));
    }
    let gap = (run.shed_fraction() - fluid.shed_fraction()).abs();
    if gap >= SHED_TOLERANCE {
        return Err(format!(
            "shed fraction {} vs fluid {} differ by {:.2} pp",
            run.shed_fraction(),
            fluid.shed_fraction(),
            gap * 100.0
        ));
    }
    Ok(())
}

/// A pooled replication's metrics equal its serial recompute.
///
/// # Errors
///
/// Names the replication.
pub fn replication(
    id: &str,
    index: u32,
    pooled: &MetricSet,
    serial: &MetricSet,
) -> Result<(), String> {
    if pooled == serial {
        Ok(())
    } else {
        Err(format!(
            "{id} replication {index}: pooled metrics differ from the serial recompute"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_analysis::metrics::{intern, MetricSet};
    use elc_fluid::Fidelity;

    fn report(offered: f64, served: f64, shed: f64) -> EngineReport {
        EngineReport {
            fidelity: Fidelity::Event,
            offered,
            served,
            shed,
            p95_latency_s: 0.05,
            mean_utilization: 0.5,
            peak_backlog: 0.0,
            events_executed: 0,
            fluid_ticks: 0,
            event_ticks: 1,
            switches: 0,
            materialized: 0,
        }
    }

    #[test]
    fn a_one_byte_golden_mismatch_fails() {
        assert!(golden("e16", "abc", "abc").is_ok());
        let err = golden("e16", "abd", "abc").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
        assert!(golden("e16", "abc", "abc\n").is_err());
    }

    #[test]
    fn served_plus_shed_above_offered_fails() {
        let cfg = EngineConfig::sized_for(100.0, 0.6, Fidelity::Event);
        assert!(conservation(&report(1000.0, 900.0, 100.0), &cfg).is_ok());
        let err = conservation(&report(1000.0, 950.0, 100.0), &cfg).unwrap_err();
        assert!(err.contains("exceeds offered"), "{err}");
        // Far more left over than the station can hold.
        let room = (cfg.servers + cfg.queue_limit) as f64;
        assert!(conservation(&report(room + 1000.0, 0.0, 0.0), &cfg).is_err());
    }

    #[test]
    fn fluid_disagreement_fails() {
        let fluid = report(1000.0, 1000.0, 0.0);
        assert!(fluid_agreement(&report(1000.0, 990.0, 0.0), &fluid).is_ok());
        assert!(fluid_agreement(&report(1000.0, 900.0, 0.0), &fluid).is_err());
        assert!(fluid_agreement(&report(1000.0, 985.0, 30.0), &fluid).is_err());
    }

    #[test]
    fn a_replication_unlike_its_serial_recompute_fails() {
        let key = intern("days[public]");
        let pooled: MetricSet = [(key, 3.0)].into_iter().collect();
        let serial: MetricSet = [(key, 3.0)].into_iter().collect();
        assert!(replication("e19", 0, &pooled, &serial).is_ok());
        let other: MetricSet = [(key, 3.5)].into_iter().collect();
        assert!(replication("e19", 0, &pooled, &other).is_err());
    }
}
