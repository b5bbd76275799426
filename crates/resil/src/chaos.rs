//! Chaos injection: correlated fault campaigns on a schedule.
//!
//! `elc-net`'s `OutageModel` and `elc-cloud`'s `FailureModel` draw
//! *independent* faults; real incidents cluster — a storm knocks the
//! campus uplink out four times in an hour, a thermal event takes hosts
//! down one after another, a §IV.B physical disaster lands mid-exam. A
//! [`ChaosSpec`] describes such a campaign as a tiny, `Display`/`FromStr`
//! round-trippable grammar (what `elc --chaos` accepts), and
//! [`FaultTimeline::generate`] expands it against a horizon using a
//! derived [`SimRng`] stream — so the same scenario seed always yields
//! the same faults, byte-identical at any `--threads`.
//!
//! Grammar, `;`-separated items, each anchored at a fraction of the
//! horizon:
//!
//! ```text
//! off                             no faults at all
//! storm@0.3:n=4,mins=6            4 uplink outages clustered around t=30%,
//!                                 mean 6 minutes each (defaults n=3, mins=5)
//! cascade@0.55:n=3                3 host crashes minutes apart from t=55%
//!                                 (default n=2)
//! disaster@0.79                   the primary site is lost at t=79%
//! regionloss@0.5:region=0,mins=45 region 0 goes dark at t=50% and returns
//!                                 45 minutes later (defaults region=0,
//!                                 mins=30) — E19's recoverable drill
//! ```
//!
//! A count `n` lies in `1..=100` ([`MAX_COUNT`]).

use std::fmt;
use std::str::FromStr;

use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

/// One fault campaign, anchored at a fraction `at` of the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Campaign {
    /// A cluster of `count` uplink outages around `at`, each lasting
    /// about `mean_mins` minutes — §III's network risk, correlated.
    OutageStorm {
        /// Anchor, as a fraction of the horizon in `[0, 1]`.
        at: f64,
        /// Number of outage windows in the cluster.
        count: u32,
        /// Mean window length in minutes.
        mean_mins: f64,
    },
    /// `count` private-site host crashes starting at `at`, minutes apart.
    HostCascade {
        /// Anchor, as a fraction of the horizon in `[0, 1]`.
        at: f64,
        /// Number of hosts lost.
        count: u32,
    },
    /// The whole primary site is lost at `at` and stays lost — §IV.B's
    /// "physical damage" scenario.
    SiteDisaster {
        /// Anchor, as a fraction of the horizon in `[0, 1]`.
        at: f64,
    },
    /// Region `region` goes dark at `at` and *returns* `mins` minutes
    /// later — the recoverable drill E19's disaster-recovery
    /// orchestration is measured against. Unlike [`Campaign::SiteDisaster`]
    /// the loss ends, so failback is observable.
    RegionLoss {
        /// Anchor, as a fraction of the horizon in `[0, 1]`.
        at: f64,
        /// Which region is lost (E19's primary lives in region 0).
        region: u32,
        /// Outage length in minutes.
        mins: f64,
    },
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Campaign::OutageStorm {
                at,
                count,
                mean_mins,
            } => write!(f, "storm@{at}:n={count},mins={mean_mins}"),
            Campaign::HostCascade { at, count } => write!(f, "cascade@{at}:n={count}"),
            Campaign::SiteDisaster { at } => write!(f, "disaster@{at}"),
            Campaign::RegionLoss { at, region, mins } => {
                write!(f, "regionloss@{at}:region={region},mins={mins}")
            }
        }
    }
}

/// Why a chaos spec string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError(String);

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosParseError {}

fn parse_err(msg: impl Into<String>) -> ChaosParseError {
    ChaosParseError(msg.into())
}

/// The largest fault count `n=` a campaign accepts. A campaign is a
/// handful of correlated faults, and [`FaultTimeline::generate`] expands
/// each one into a window, so an unbounded count would run for as long,
/// and allocate as much, as the caller asked.
pub const MAX_COUNT: u32 = 100;

/// A set of fault campaigns. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSpec {
    campaigns: Vec<Campaign>,
}

impl ChaosSpec {
    /// No faults at all (parses from and displays as `off`).
    #[must_use]
    pub fn off() -> Self {
        ChaosSpec {
            campaigns: Vec::new(),
        }
    }

    /// True if this spec injects nothing.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// A spec from explicit campaigns.
    #[must_use]
    pub fn from_campaigns(campaigns: Vec<Campaign>) -> Self {
        ChaosSpec { campaigns }
    }

    /// The campaigns in spec order.
    #[must_use]
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// E16's default campaign: an uplink storm mid-morning, a host
    /// cascade into the exam window, and a site disaster at its peak —
    /// `storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79`.
    #[must_use]
    pub fn exam_day_crisis() -> Self {
        ChaosSpec {
            campaigns: vec![
                Campaign::OutageStorm {
                    at: 0.3,
                    count: 4,
                    mean_mins: 6.0,
                },
                Campaign::HostCascade { at: 0.55, count: 3 },
                Campaign::SiteDisaster { at: 0.79 },
            ],
        }
    }

    /// E19's default drill: the primary region goes dark halfway through
    /// the exam evening and returns 45 minutes later —
    /// `regionloss@0.5:region=0,mins=45`.
    #[must_use]
    pub fn region_loss_drill() -> Self {
        ChaosSpec {
            campaigns: vec![Campaign::RegionLoss {
                at: 0.5,
                region: 0,
                mins: 45.0,
            }],
        }
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_off() {
            return f.write_str("off");
        }
        for (i, c) in self.campaigns.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

fn parse_fraction(s: &str) -> Result<f64, ChaosParseError> {
    let at: f64 = s
        .parse()
        .map_err(|_| parse_err(format!("anchor {s:?} is not a number")))?;
    if !(0.0..=1.0).contains(&at) {
        return Err(parse_err(format!(
            "anchor must be a fraction of the horizon in [0, 1], got {at}"
        )));
    }
    Ok(at)
}

fn parse_campaign(item: &str) -> Result<Campaign, ChaosParseError> {
    let (head, opts) = match item.split_once(':') {
        Some((head, opts)) => (head, Some(opts)),
        None => (item, None),
    };
    let (name, at) = head
        .split_once('@')
        .ok_or_else(|| parse_err(format!("{item:?} is missing its @anchor")))?;
    let at = parse_fraction(at)?;
    let mut count: Option<u32> = None;
    let mut mins: Option<f64> = None;
    let mut region: Option<u32> = None;
    if let Some(opts) = opts {
        for opt in opts.split(',') {
            let (key, value) = opt
                .split_once('=')
                .ok_or_else(|| parse_err(format!("option {opt:?} is not key=value")))?;
            match key {
                "n" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| parse_err(format!("n={value:?} is not an integer")))?;
                    if n == 0 {
                        return Err(parse_err("n must be >= 1"));
                    }
                    if n > MAX_COUNT {
                        return Err(parse_err(format!("n must be <= {MAX_COUNT}, got {n}")));
                    }
                    count = Some(n);
                }
                "mins" if name == "storm" || name == "regionloss" => {
                    let m: f64 = value
                        .parse()
                        .map_err(|_| parse_err(format!("mins={value:?} is not a number")))?;
                    if !m.is_finite() || m <= 0.0 {
                        return Err(parse_err(format!("mins must be positive, got {m}")));
                    }
                    mins = Some(m);
                }
                "region" if name == "regionloss" => {
                    let r: u32 = value
                        .parse()
                        .map_err(|_| parse_err(format!("region={value:?} is not an integer")))?;
                    region = Some(r);
                }
                _ => {
                    return Err(parse_err(format!("unknown option {key:?} for {name}")));
                }
            }
        }
    }
    match name {
        "storm" => Ok(Campaign::OutageStorm {
            at,
            count: count.unwrap_or(3),
            mean_mins: mins.unwrap_or(5.0),
        }),
        "cascade" => Ok(Campaign::HostCascade {
            at,
            count: count.unwrap_or(2),
        }),
        "disaster" => {
            if count.is_some() {
                return Err(parse_err("disaster takes no options"));
            }
            Ok(Campaign::SiteDisaster { at })
        }
        "regionloss" => {
            if count.is_some() {
                return Err(parse_err("regionloss takes region= and mins= only"));
            }
            Ok(Campaign::RegionLoss {
                at,
                region: region.unwrap_or(0),
                mins: mins.unwrap_or(30.0),
            })
        }
        _ => Err(parse_err(format!(
            "unknown campaign {name:?} (storm, cascade, disaster, regionloss)"
        ))),
    }
}

impl FromStr for ChaosSpec {
    type Err = ChaosParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(parse_err("empty spec (try \"off\" or \"storm@0.3\")"));
        }
        if s == "off" {
            return Ok(ChaosSpec::off());
        }
        let campaigns = s
            .split(';')
            .map(|item| parse_campaign(item.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChaosSpec { campaigns })
    }
}

/// A [`ChaosSpec`] expanded against a concrete horizon: the actual fault
/// instants a model consults each tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTimeline {
    storm_windows: Vec<(SimTime, SimTime)>,
    host_crashes: Vec<SimTime>,
    disasters: Vec<SimTime>,
    region_losses: Vec<(u32, SimTime, SimTime)>,
}

impl FaultTimeline {
    /// Expands `spec` over `[0, horizon)`. Campaign `i` draws from
    /// `rng.derive_u64(i)`, its own stream — campaigns never share
    /// randomness, so a later campaign's draws cannot perturb an earlier
    /// one's faults. Disaster instants are jitter-free: the anchor *is*
    /// the event.
    #[must_use]
    pub fn generate(spec: &ChaosSpec, rng: &SimRng, horizon: SimDuration) -> Self {
        assert!(!horizon.is_zero(), "horizon must be positive");
        let mut storm_windows: Vec<(SimTime, SimTime)> = Vec::new();
        let mut host_crashes: Vec<SimTime> = Vec::new();
        let mut disasters: Vec<SimTime> = Vec::new();
        let mut region_losses: Vec<(u32, SimTime, SimTime)> = Vec::new();
        let horizon_s = horizon.as_secs_f64();
        for (i, campaign) in spec.campaigns().iter().enumerate() {
            let mut rng = rng.derive_u64(i as u64);
            match *campaign {
                Campaign::OutageStorm {
                    at,
                    count,
                    mean_mins,
                } => {
                    let center_s = horizon_s * at;
                    for _ in 0..count {
                        // Windows scatter within ±3% of the horizon
                        // around the anchor and vary ±50% in length.
                        let start_s = (center_s + rng.range_f64(-0.03, 0.03) * horizon_s).max(0.0);
                        let len_s = 60.0 * mean_mins * rng.range_f64(0.5, 1.5);
                        let end_s = (start_s + len_s).min(horizon_s);
                        if end_s > start_s {
                            storm_windows.push((
                                SimTime::ZERO + SimDuration::from_secs_f64(start_s),
                                SimTime::ZERO + SimDuration::from_secs_f64(end_s),
                            ));
                        }
                    }
                }
                Campaign::HostCascade { at, count } => {
                    let mut t_s = horizon_s * at;
                    for _ in 0..count {
                        if t_s < horizon_s {
                            host_crashes.push(SimTime::ZERO + SimDuration::from_secs_f64(t_s));
                        }
                        t_s += 60.0 * rng.range_f64(1.0, 4.0);
                    }
                }
                Campaign::SiteDisaster { at } => {
                    disasters.push(SimTime::ZERO + SimDuration::from_secs_f64(horizon_s * at));
                }
                Campaign::RegionLoss { at, region, mins } => {
                    // A drill, not a scatter: the anchor *is* the loss
                    // instant and the window is exact, clipped to the
                    // horizon — so RTO/RPO numbers trace back to the spec.
                    let start_s = horizon_s * at;
                    let end_s = (start_s + 60.0 * mins).min(horizon_s);
                    if end_s > start_s {
                        region_losses.push((
                            region,
                            SimTime::ZERO + SimDuration::from_secs_f64(start_s),
                            SimTime::ZERO + SimDuration::from_secs_f64(end_s),
                        ));
                    }
                }
            }
        }
        storm_windows.sort();
        // Merge overlapping windows so `storm_at` is a clean interval scan
        // and the merged count means "distinct uplink incidents".
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(storm_windows.len());
        for (start, end) in storm_windows {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        host_crashes.sort();
        disasters.sort();
        region_losses.sort();
        FaultTimeline {
            storm_windows: merged,
            host_crashes,
            disasters,
            region_losses,
        }
    }

    /// Merged storm windows, sorted, start-inclusive / end-exclusive.
    #[must_use]
    pub fn storm_windows(&self) -> &[(SimTime, SimTime)] {
        &self.storm_windows
    }

    /// True if the uplink is storm-dead at `t`.
    #[must_use]
    pub fn storm_at(&self, t: SimTime) -> bool {
        self.storm_windows
            .iter()
            .any(|&(start, end)| start <= t && t < end)
    }

    /// How many cascade hosts have crashed by `t` (inclusive).
    #[must_use]
    pub fn crashed_hosts_by(&self, t: SimTime) -> u32 {
        self.host_crashes.iter().filter(|&&c| c <= t).count() as u32
    }

    /// True if the site disaster has struck by `t` (inclusive).
    #[must_use]
    pub fn disaster_by(&self, t: SimTime) -> bool {
        self.disasters.iter().any(|&d| d <= t)
    }

    /// Region-loss windows, sorted by `(region, start)`, start-inclusive /
    /// end-exclusive.
    #[must_use]
    pub fn region_loss_windows(&self) -> &[(u32, SimTime, SimTime)] {
        &self.region_losses
    }

    /// True if `region` is dark at `t`.
    #[must_use]
    pub fn region_lost_at(&self, region: u32, t: SimTime) -> bool {
        self.region_losses
            .iter()
            .any(|&(r, start, end)| r == region && start <= t && t < end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimDuration {
        SimDuration::from_hours(24)
    }

    #[test]
    fn off_round_trips_and_is_empty() {
        let spec: ChaosSpec = "off".parse().unwrap();
        assert!(spec.is_off());
        assert_eq!(spec.to_string(), "off");
        assert_eq!(spec, ChaosSpec::off());
    }

    #[test]
    fn exam_day_crisis_round_trips_through_the_grammar() {
        let spec = ChaosSpec::exam_day_crisis();
        let text = spec.to_string();
        assert_eq!(text, "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79");
        let reparsed: ChaosSpec = text.parse().unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn defaults_fill_omitted_options() {
        let spec: ChaosSpec = "storm@0.5;cascade@0.6".parse().unwrap();
        assert_eq!(
            spec.campaigns(),
            &[
                Campaign::OutageStorm {
                    at: 0.5,
                    count: 3,
                    mean_mins: 5.0
                },
                Campaign::HostCascade { at: 0.6, count: 2 },
            ]
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("", "empty spec"),
            ("storm", "missing its @anchor"),
            ("storm@1.5", "in [0, 1]"),
            ("storm@x", "not a number"),
            ("storm@0.5:n=0", "n must be >= 1"),
            ("cascade@0.5:n=101", "n must be <= 100"),
            // Expanding either of these would push ~4.3 billion windows.
            ("storm@0.3:n=4294967295", "n must be <= 100"),
            ("cascade@0.5:n=4294967295", "n must be <= 100"),
            ("storm@0.5:mins=0", "mins must be positive"),
            ("cascade@0.5:mins=3", "unknown option"),
            ("disaster@0.5:n=2", "disaster takes no options"),
            ("quake@0.5", "unknown campaign"),
            ("storm@0.5:n", "not key=value"),
            (
                "regionloss@0.5:n=2",
                "regionloss takes region= and mins= only",
            ),
            ("regionloss@0.5:region=x", "not an integer"),
            ("regionloss@0.5:mins=-3", "mins must be positive"),
            ("storm@0.5:region=1", "unknown option"),
        ] {
            let err = spec.parse::<ChaosSpec>().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{spec:?}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn the_largest_fault_count_parses_and_round_trips() {
        for spec in ["storm@0.5:n=100", "cascade@0.5:n=100"] {
            let parsed: ChaosSpec = spec.parse().unwrap();
            assert_eq!(parsed.to_string().parse::<ChaosSpec>(), Ok(parsed));
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let spec = ChaosSpec::exam_day_crisis();
        let a = FaultTimeline::generate(&spec, &SimRng::seed(42).derive("chaos"), horizon());
        let b = FaultTimeline::generate(&spec, &SimRng::seed(42).derive("chaos"), horizon());
        let c = FaultTimeline::generate(&spec, &SimRng::seed(43).derive("chaos"), horizon());
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must scatter differently");
    }

    #[test]
    fn storm_windows_cluster_near_the_anchor() {
        let spec: ChaosSpec = "storm@0.3:n=4,mins=6".parse().unwrap();
        let tl = FaultTimeline::generate(&spec, &SimRng::seed(7), horizon());
        assert!(!tl.storm_windows().is_empty());
        let h = horizon().as_secs_f64();
        for &(start, end) in tl.storm_windows() {
            assert!(end > start);
            let frac = start.as_nanos() as f64 / 1e9 / h;
            assert!(
                (0.25..=0.35).contains(&frac),
                "window at {frac} strayed from the 0.3 anchor"
            );
        }
        // Coverage query agrees with the windows.
        let (s0, e0) = tl.storm_windows()[0];
        assert!(tl.storm_at(s0));
        assert!(!tl.storm_at(e0));
    }

    #[test]
    fn cascade_counts_accumulate_and_disaster_is_exact() {
        let spec = ChaosSpec::exam_day_crisis();
        let tl = FaultTimeline::generate(&spec, &SimRng::seed(1), horizon());
        assert_eq!(tl.crashed_hosts_by(SimTime::ZERO), 0);
        assert_eq!(tl.crashed_hosts_by(SimTime::ZERO + horizon()), 3);
        let disaster_at = SimTime::ZERO + horizon().mul_f64(0.79);
        assert!(!tl.disaster_by(disaster_at - SimDuration::from_nanos(1)));
        assert!(tl.disaster_by(disaster_at));
    }

    #[test]
    fn region_loss_round_trips_and_defaults_fill_in() {
        let spec = ChaosSpec::region_loss_drill();
        let text = spec.to_string();
        assert_eq!(text, "regionloss@0.5:region=0,mins=45");
        let reparsed: ChaosSpec = text.parse().unwrap();
        assert_eq!(reparsed, spec);

        let bare: ChaosSpec = "regionloss@0.25".parse().unwrap();
        assert_eq!(
            bare.campaigns(),
            &[Campaign::RegionLoss {
                at: 0.25,
                region: 0,
                mins: 30.0
            }]
        );
    }

    #[test]
    fn region_loss_window_is_exact_and_clipped() {
        let spec = ChaosSpec::region_loss_drill();
        let tl = FaultTimeline::generate(&spec, &SimRng::seed(42).derive("chaos"), horizon());
        let start = SimTime::ZERO + horizon().mul_f64(0.5);
        let end = start + SimDuration::from_mins(45);
        assert_eq!(tl.region_loss_windows(), &[(0, start, end)]);
        assert!(!tl.region_lost_at(0, start - SimDuration::from_nanos(1)));
        assert!(tl.region_lost_at(0, start));
        assert!(tl.region_lost_at(0, end - SimDuration::from_nanos(1)));
        assert!(!tl.region_lost_at(0, end), "the region comes back");
        assert!(!tl.region_lost_at(1, start), "only region 0 is dark");

        // A loss anchored near the end clips to the horizon.
        let late: ChaosSpec = "regionloss@0.99:mins=120".parse().unwrap();
        let tl = FaultTimeline::generate(&late, &SimRng::seed(42), horizon());
        let (_, s, e) = tl.region_loss_windows()[0];
        assert_eq!(e, SimTime::ZERO + horizon());
        assert!(s < e);
    }

    #[test]
    fn region_loss_composes_with_the_other_anchors() {
        let spec: ChaosSpec =
            "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79;regionloss@0.5:region=1,mins=20"
                .parse()
                .unwrap();
        assert_eq!(
            spec.to_string(),
            "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79;regionloss@0.5:region=1,mins=20"
        );
        let rng = SimRng::seed(11);
        let tl = FaultTimeline::generate(&spec, &rng, horizon());
        assert_eq!(tl.region_loss_windows().len(), 1);
        // The region-loss campaign draws nothing, so the storm and
        // cascade streams are untouched by its presence.
        let without: ChaosSpec = "storm@0.3:n=4,mins=6;cascade@0.55:n=3;disaster@0.79"
            .parse()
            .unwrap();
        let base = FaultTimeline::generate(&without, &rng, horizon());
        assert_eq!(tl.storm_windows(), base.storm_windows());
        assert_eq!(tl.host_crashes, base.host_crashes);
        assert_eq!(tl.disasters, base.disasters);
    }

    #[test]
    fn adjacent_campaigns_do_not_perturb_each_other() {
        let rng = SimRng::seed(11);
        let solo: ChaosSpec = "cascade@0.55:n=3".parse().unwrap();
        let paired: ChaosSpec = "cascade@0.55:n=3;disaster@0.9".parse().unwrap();
        let a = FaultTimeline::generate(&solo, &rng, horizon());
        let b = FaultTimeline::generate(&paired, &rng, horizon());
        assert_eq!(
            a.crashed_hosts_by(SimTime::ZERO + horizon()),
            b.crashed_hosts_by(SimTime::ZERO + horizon())
        );
        assert_eq!(a.host_crashes, b.host_crashes);
    }
}
