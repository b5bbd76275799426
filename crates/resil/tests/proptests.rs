//! Seed-derived property tests for the retry policy and the chaos
//! fault timeline.
//!
//! No external property-testing crate: cases are generated from
//! `SimRng` streams, so every "random" case is reproducible from the
//! printed seed and the suite itself is deterministic.

use elc_elearn::request::RequestKind;
use elc_resil::chaos::{Campaign, ChaosSpec, FaultTimeline};
use elc_resil::retry::{RetryBudget, RetryPolicy};
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

/// Draws a valid random policy from the case rng.
fn arbitrary_policy(rng: &mut SimRng) -> RetryPolicy {
    let base = SimDuration::from_millis(rng.range_u64(1, 5_000));
    let cap = base + SimDuration::from_millis(rng.range_u64(0, 120_000));
    let attempts = rng.range_u64(1, 12) as u32;
    RetryPolicy::new(base, cap, attempts)
}

#[test]
fn backoff_always_lands_between_base_and_cap() {
    for case in 0..200u64 {
        let mut case_rng = SimRng::seed(0xB0FF).derive_u64(case);
        let policy = arbitrary_policy(&mut case_rng);
        let mut draw_rng = case_rng.derive("retry");
        let mut prev = policy.base();
        for attempt in 1..40 {
            let b = policy.backoff(SimTime::ZERO, &mut draw_rng, prev, attempt);
            assert!(
                b >= policy.base() && b <= policy.cap(),
                "case {case}: backoff {b} outside [{}, {}]",
                policy.base(),
                policy.cap()
            );
            prev = b;
        }
    }
}

#[test]
fn backoff_schedule_length_tracks_the_attempt_budget() {
    for case in 0..100u64 {
        let mut case_rng = SimRng::seed(0x5CED).derive_u64(case);
        let policy = arbitrary_policy(&mut case_rng);
        let mut draw_rng = case_rng.derive("retry");
        let schedule = policy.backoff_schedule(SimTime::ZERO, &mut draw_rng);
        assert_eq!(
            schedule.len(),
            policy.max_attempts() as usize - 1,
            "case {case}: one delay per retry, none for the first try"
        );
    }
}

#[test]
fn identical_seed_lineage_gives_byte_identical_schedules() {
    let policy = RetryPolicy::standard();
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let a = policy.backoff_schedule(SimTime::ZERO, &mut SimRng::seed(seed).derive("retry"));
        let b = policy.backoff_schedule(SimTime::ZERO, &mut SimRng::seed(seed).derive("retry"));
        assert_eq!(a, b, "seed {seed}: same lineage must replay exactly");
        let nanos_a: Vec<u64> = a.iter().map(|d| d.as_nanos()).collect();
        let nanos_b: Vec<u64> = b.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(nanos_a, nanos_b);
    }
    // And distinct lineages diverge — the label is load-bearing.
    let a = policy.backoff_schedule(SimTime::ZERO, &mut SimRng::seed(7).derive("retry"));
    let c = policy.backoff_schedule(SimTime::ZERO, &mut SimRng::seed(7).derive("transfer"));
    assert_ne!(a, c);
}

#[test]
fn budget_tokens_decrease_monotonically_under_spend() {
    for case in 0..100u64 {
        let mut rng = SimRng::seed(0xB4D6).derive_u64(case);
        let max = rng.range_f64(1.0, 50.0);
        let mut budget = RetryBudget::new(max, 0.0);
        let mut last = budget.tokens();
        let mut spends = 0u32;
        while budget.try_spend() {
            assert!(
                budget.tokens() < last,
                "case {case}: spend must strictly drain"
            );
            last = budget.tokens();
            spends += 1;
            assert!(
                spends <= max.ceil() as u32 + 1,
                "case {case}: runaway spend"
            );
        }
        assert!(
            budget.tokens() < 1.0,
            "case {case}: refusal only when empty"
        );
    }
}

#[test]
fn budget_refill_never_exceeds_ceiling_under_any_interleaving() {
    for case in 0..100u64 {
        let mut rng = SimRng::seed(0xF111).derive_u64(case);
        let mut budget = RetryBudget::new(10.0, 0.5);
        for _ in 0..500 {
            if rng.chance(0.5) {
                let _ = budget.try_spend();
            } else {
                budget.on_success();
            }
            assert!(budget.tokens() <= 10.0, "case {case}: ceiling breached");
            assert!(budget.tokens() >= 0.0, "case {case}: tokens went negative");
        }
    }
}

/// Draws a random multi-campaign spec from the case rng. Every campaign
/// kind can appear, with anchors and knobs spread over their full
/// domains.
fn arbitrary_spec(rng: &mut SimRng) -> ChaosSpec {
    let n = rng.range_u64(1, 5) as usize;
    let campaigns = (0..n)
        .map(|_| match rng.range_u64(0, 4) {
            0 => Campaign::OutageStorm {
                at: rng.range_f64(0.0, 1.0),
                count: rng.range_u64(1, 8) as u32,
                mean_mins: rng.range_f64(0.5, 30.0),
            },
            1 => Campaign::HostCascade {
                at: rng.range_f64(0.0, 1.0),
                count: rng.range_u64(1, 6) as u32,
            },
            2 => Campaign::SiteDisaster {
                at: rng.range_f64(0.0, 1.0),
            },
            _ => Campaign::RegionLoss {
                at: rng.range_f64(0.0, 1.0),
                region: rng.range_u64(0, 3) as u32,
                mins: rng.range_f64(1.0, 120.0),
            },
        })
        .collect();
    ChaosSpec::from_campaigns(campaigns)
}

#[test]
fn timeline_windows_are_sorted_disjoint_and_clipped_to_the_horizon() {
    let horizon = SimDuration::from_hours(24);
    let end_of_time = SimTime::ZERO + horizon;
    for case in 0..150u64 {
        let mut case_rng = SimRng::seed(0xC4A0).derive_u64(case);
        let spec = arbitrary_spec(&mut case_rng);
        let tl = FaultTimeline::generate(&spec, &case_rng.derive("chaos"), horizon);
        let mut prev_end = SimTime::ZERO;
        for &(start, end) in tl.storm_windows() {
            assert!(start < end, "case {case}: empty storm window survived");
            assert!(
                start >= prev_end,
                "case {case}: storm windows overlap or are unsorted"
            );
            assert!(end <= end_of_time, "case {case}: storm past the horizon");
            prev_end = end;
        }
        for &(_, start, end) in tl.region_loss_windows() {
            assert!(start < end, "case {case}: empty region-loss window");
            assert!(
                end <= end_of_time,
                "case {case}: region loss past the horizon"
            );
        }
    }
}

#[test]
fn timeline_queries_are_monotone_and_agree_with_the_windows() {
    let horizon = SimDuration::from_hours(24);
    for case in 0..150u64 {
        let mut case_rng = SimRng::seed(0xC4A1).derive_u64(case);
        let spec = arbitrary_spec(&mut case_rng);
        let tl = FaultTimeline::generate(&spec, &case_rng.derive("chaos"), horizon);

        // Scan the whole horizon on a coarse grid plus every window edge.
        let mut probes: Vec<SimTime> = (0..=288)
            .map(|i| SimTime::ZERO + SimDuration::from_mins(5 * i))
            .collect();
        for &(s, e) in tl.storm_windows() {
            probes.extend([s, e]);
        }
        for &(_, s, e) in tl.region_loss_windows() {
            probes.extend([s, e]);
        }
        probes.sort();

        let mut prev_crashed = 0u32;
        let mut prev_disaster = false;
        for &t in &probes {
            let crashed = tl.crashed_hosts_by(t);
            assert!(
                crashed >= prev_crashed,
                "case {case}: crashed_hosts_by went backwards at {t}"
            );
            prev_crashed = crashed;
            let disaster = tl.disaster_by(t);
            assert!(
                disaster >= prev_disaster,
                "case {case}: disaster_by un-struck at {t}"
            );
            prev_disaster = disaster;
            // storm_at answers exactly per the merged windows.
            let in_window = tl.storm_windows().iter().any(|&(s, e)| s <= t && t < e);
            assert_eq!(tl.storm_at(t), in_window, "case {case}: storm_at({t})");
            // region_lost_at answers exactly per the region windows.
            for region in 0..3u32 {
                let lost = tl
                    .region_loss_windows()
                    .iter()
                    .any(|&(r, s, e)| r == region && s <= t && t < e);
                assert_eq!(
                    tl.region_lost_at(region, t),
                    lost,
                    "case {case}: region_lost_at({region}, {t})"
                );
            }
        }
    }
}

#[test]
fn timeline_is_identical_under_rng_re_derive() {
    let horizon = SimDuration::from_hours(24);
    for case in 0..150u64 {
        let spec = arbitrary_spec(&mut SimRng::seed(0xC4A2).derive_u64(case));
        let a = FaultTimeline::generate(&spec, &SimRng::seed(case).derive("chaos"), horizon);
        let b = FaultTimeline::generate(&spec, &SimRng::seed(case).derive("chaos"), horizon);
        assert_eq!(a, b, "case {case}: same lineage must replay exactly");
        // And the grammar round-trips every arbitrary spec exactly
        // (Rust's f64 Display is shortest-exact, so anchors survive).
        let reparsed: ChaosSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed, spec, "case {case}: display/parse round-trip");
    }
}

/// The chaos grammar never panics: seed-derived mutations of valid specs
/// (characters inserted, deleted or replaced, items spliced together)
/// either fail to parse or parse to a spec that round-trips through
/// `Display`.
#[test]
fn mutated_chaos_specs_are_rejected_or_round_trip() {
    const CORPUS: [&str; 5] = [
        "off",
        "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79",
        "regionloss@0.5:region=0,mins=45",
        "storm@0.5;cascade@0.6",
        "cascade@0.55:n=3;disaster@0.9",
    ];
    const ALPHABET: &[u8] = b"0123456789.-+e@:;,= nmisrgotcadlxINf";
    let mut parsed = 0;
    for case in 0..4_000u64 {
        let mut rng = SimRng::seed(0xC4A3).derive_u64(case);
        let mut text = rng.pick(&CORPUS).unwrap().to_string();
        if rng.chance(0.3) {
            text = format!("{text};{}", rng.pick(&CORPUS).unwrap());
        }
        let mut bytes = text.into_bytes();
        for _ in 0..rng.range_u64(1, 4) {
            let at = rng.range_u64(0, bytes.len() as u64) as usize;
            let byte = *rng.pick(ALPHABET).unwrap();
            match rng.next_below(3) {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = byte,
                _ => {}
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
        if let Ok(spec) = text.parse::<ChaosSpec>() {
            parsed += 1;
            let shown = spec.to_string();
            assert_eq!(
                shown.parse::<ChaosSpec>(),
                Ok(spec),
                "case {case}: {text:?} shows as {shown:?}"
            );
        }
    }
    assert!(parsed >= 100, "only {parsed} mutated specs parsed");
}

#[test]
fn idempotency_gate_is_total_over_all_kinds() {
    let default = RetryPolicy::standard();
    let relaxed = RetryPolicy::standard().retry_writes(true);
    for &kind in RequestKind::ALL.iter() {
        assert_eq!(
            default.allows(kind),
            !kind.is_write(),
            "{kind}: default gate must mirror is_write"
        );
        assert!(relaxed.allows(kind), "{kind}: relaxed gate admits all");
    }
}
