//! Edge-case coverage for `HybridFailover::probe`/`route`: the exact
//! cooldown boundary, a primary recovering mid-cooldown, and switch
//! accounting under repeated flaps.

use elc_deploy::hybrid::FailoverPlan;
use elc_resil::breaker::CircuitBreaker;
use elc_resil::failover::{HybridFailover, Route};
use elc_simcore::time::{SimDuration, SimTime};

const COOLDOWN_S: u64 = 300;

fn failover() -> HybridFailover {
    HybridFailover::new(
        CircuitBreaker::new("private-site", 1, SimDuration::from_mins(5)),
        FailoverPlan::private_to_public(0.6),
    )
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn probe_exactly_at_the_cooldown_boundary_is_the_first_admitted_probe() {
    let mut f = failover();
    f.probe(secs(0), false);
    assert_eq!(f.route(secs(0)), Route::Backup);
    // One nanosecond short of the cooldown the breaker is still open: a
    // healthy probe is recorded but cannot close it.
    let almost = secs(COOLDOWN_S) - SimDuration::from_nanos(1);
    f.probe(almost, true);
    assert_eq!(f.route(almost), Route::Backup);
    // At exactly opened_at + cooldown the breaker is half-open and the
    // healthy probe wins the route back — the boundary is inclusive.
    f.probe(secs(COOLDOWN_S), true);
    assert_eq!(f.route(secs(COOLDOWN_S)), Route::Primary);
    assert_eq!(f.switches(), 2);
}

#[test]
fn primary_recovering_mid_cooldown_must_wait_out_the_window() {
    let mut f = failover();
    f.probe(secs(0), false);
    let _ = f.route(secs(0));
    // The primary is healthy again 30 s in, and stays healthy: every
    // probe until the cooldown elapses still routes to backup.
    for s in (30..COOLDOWN_S).step_by(30) {
        f.probe(secs(s), true);
        assert_eq!(f.route(secs(s)), Route::Backup, "at {s}s");
    }
    f.probe(secs(COOLDOWN_S), true);
    assert_eq!(f.route(secs(COOLDOWN_S)), Route::Primary);
    // Exactly one round trip: primary → backup → primary.
    assert_eq!(f.switches(), 2);
    assert_eq!(f.breaker().trips(), 1);
}

#[test]
fn repeated_flaps_count_every_direction_and_retrip() {
    let mut f = failover();
    let flaps = 4u64;
    for k in 0..flaps {
        // Each cycle: fail at t, recover at the cooldown boundary.
        let down_at = k * 2 * COOLDOWN_S;
        f.probe(secs(down_at), false);
        assert_eq!(f.route(secs(down_at)), Route::Backup);
        let up_at = down_at + COOLDOWN_S;
        f.probe(secs(up_at), true);
        assert_eq!(f.route(secs(up_at)), Route::Primary);
    }
    // Every flap is two switches (out and back) and one trip.
    assert_eq!(f.switches(), 2 * flaps as u32);
    assert_eq!(f.breaker().trips(), flaps as u32);
}

#[test]
fn flap_during_half_open_keeps_backup_and_restarts_the_cooldown() {
    let mut f = failover();
    f.probe(secs(0), false);
    let _ = f.route(secs(0));
    // The half-open probe fails: re-trip, route stays backup, and the
    // cooldown clock restarts from the re-trip instant.
    f.probe(secs(COOLDOWN_S), false);
    assert_eq!(f.route(secs(COOLDOWN_S)), Route::Backup);
    assert_eq!(f.breaker().trips(), 2);
    // A healthy probe one cooldown after the *first* trip would be too
    // early; only opened_at + cooldown from the re-trip admits it.
    f.probe(secs(2 * COOLDOWN_S) - SimDuration::from_nanos(1), true);
    assert_eq!(
        f.route(secs(2 * COOLDOWN_S) - SimDuration::from_nanos(1)),
        Route::Backup
    );
    f.probe(secs(2 * COOLDOWN_S), true);
    assert_eq!(f.route(secs(2 * COOLDOWN_S)), Route::Primary);
    assert_eq!(f.switches(), 2, "route changed exactly once each way");
}
