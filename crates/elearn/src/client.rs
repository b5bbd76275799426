//! Client device models: thin cloud client vs desktop install.
//!
//! §III.1–2 of the paper claim the cloud client needs no "high-powered and
//! high-priced computer" and that cloud systems "boot and run faster because
//! they have fewer programs and processes loaded into device memory". The
//! two models here make those claims measurable: startup latency, page
//! actions, memory footprint and update behaviour.

use elc_net::link::Link;
use elc_net::units::Bytes;
use elc_simcore::rng::SimRng;
use elc_simcore::time::SimDuration;

use crate::request::RequestKind;

/// How the learner reaches the LMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKind {
    /// Browser hitting a cloud-hosted LMS.
    ThinCloud,
    /// Locally installed desktop application with a local content cache.
    DesktopInstall,
    /// Mobile browser/app on a cellular link (the paper's ref.\[5\]
    /// mobile-learning scenario).
    MobileBrowser,
}

impl std::fmt::Display for ClientKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ClientKind::ThinCloud => "thin-cloud",
            ClientKind::DesktopInstall => "desktop-install",
            ClientKind::MobileBrowser => "mobile-browser",
        };
        f.write_str(s)
    }
}

/// A parameterized client device model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientModel {
    kind: ClientKind,
    /// Local process start time (browser tab vs fat app cold start).
    local_start: SimDuration,
    /// Resident memory while running.
    memory: Bytes,
    /// One-time install/download size (zero for the thin client).
    install_size: Bytes,
    /// Fraction of page actions served from local cache without a network
    /// round trip.
    cache_hit: f64,
}

impl ClientModel {
    /// The thin cloud client: fast start, small footprint, no install,
    /// every action goes to the server.
    #[must_use]
    pub fn thin_cloud() -> Self {
        ClientModel {
            kind: ClientKind::ThinCloud,
            local_start: SimDuration::from_millis(1_200),
            memory: Bytes::from_mib(180),
            install_size: Bytes::ZERO,
            cache_hit: 0.10,
        }
    }

    /// The mobile browser: near-instant start, tiny footprint, a small
    /// offline cache for downloaded content.
    #[must_use]
    pub fn mobile_browser() -> Self {
        ClientModel {
            kind: ClientKind::MobileBrowser,
            local_start: SimDuration::from_millis(800),
            memory: Bytes::from_mib(90),
            install_size: Bytes::from_mib(15), // a small app, not a stack
            cache_hit: 0.25,
        }
    }

    /// The desktop install: slow cold start and a big install, but a local
    /// cache absorbs most reads.
    #[must_use]
    pub fn desktop_install() -> Self {
        ClientModel {
            kind: ClientKind::DesktopInstall,
            local_start: SimDuration::from_millis(9_000),
            memory: Bytes::from_mib(850),
            install_size: Bytes::from_mib(400),
            cache_hit: 0.70,
        }
    }

    /// Which model this is.
    #[must_use]
    pub fn kind(&self) -> ClientKind {
        self.kind
    }

    /// Resident memory while running.
    #[must_use]
    pub fn memory(&self) -> Bytes {
        self.memory
    }

    /// One-time install payload.
    #[must_use]
    pub fn install_size(&self) -> Bytes {
        self.install_size
    }

    /// Time until the learner sees a usable dashboard: local start plus the
    /// login exchange over `link`.
    pub fn startup_time(&self, link: &Link, rng: &mut SimRng) -> SimDuration {
        let login = link.sample_exchange(
            rng,
            RequestKind::Login.request_size(),
            RequestKind::Login.response_size(),
        );
        self.local_start + login
    }

    /// Time for one page action of `kind`. Cache hits skip the network.
    pub fn action_time(&self, kind: RequestKind, link: &Link, rng: &mut SimRng) -> SimDuration {
        // Writes always reach the server.
        if !kind.is_write() && rng.chance(self.cache_hit) {
            return SimDuration::from_millis(80); // local render only
        }
        let network = link.sample_exchange(rng, kind.request_size(), kind.response_size());
        SimDuration::from_millis(50) + network
    }

    /// One-time setup cost before first use: downloading and installing the
    /// app (zero for the thin client), at the link's bandwidth.
    #[must_use]
    pub fn install_time(&self, link: &Link) -> SimDuration {
        if self.install_size.is_zero() {
            SimDuration::ZERO
        } else {
            // Installation ≈ download + an equal local unpack/configure cost.
            link.transfer_time(self.install_size) * 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elc_net::link::LinkProfile;

    fn metro() -> Link {
        Link::from_profile(LinkProfile::MetroInternet)
    }

    #[test]
    fn thin_client_starts_faster() {
        let link = metro();
        let mut rng = SimRng::seed(1);
        let thin: SimDuration = ClientModel::thin_cloud().startup_time(&link, &mut rng);
        let fat: SimDuration = ClientModel::desktop_install().startup_time(&link, &mut rng);
        assert!(thin < fat, "thin {thin} vs fat {fat}");
    }

    #[test]
    fn thin_client_needs_less_memory() {
        let thin = ClientModel::thin_cloud();
        let fat = ClientModel::desktop_install();
        assert!(thin.memory() < fat.memory());
    }

    #[test]
    fn thin_client_installs_instantly() {
        let link = metro();
        assert_eq!(
            ClientModel::thin_cloud().install_time(&link),
            SimDuration::ZERO
        );
        assert!(ClientModel::desktop_install().install_time(&link) > SimDuration::from_secs(30));
    }

    #[test]
    fn desktop_cache_makes_reads_faster_on_average() {
        let link = Link::from_profile(LinkProfile::RuralInternet);
        let mut rng = SimRng::seed(2);
        let mean = |model: &ClientModel, rng: &mut SimRng| {
            let n = 2_000;
            (0..n)
                .map(|_| {
                    model
                        .action_time(RequestKind::CoursePage, &link, rng)
                        .as_secs_f64()
                })
                .sum::<f64>()
                / n as f64
        };
        let thin = mean(&ClientModel::thin_cloud(), &mut rng);
        let fat = mean(&ClientModel::desktop_install(), &mut rng);
        assert!(fat < thin, "cached desktop reads {fat} vs thin {thin}");
    }

    #[test]
    fn writes_never_hit_cache() {
        let link = metro();
        let mut rng = SimRng::seed(3);
        let fat = ClientModel::desktop_install();
        // Minimum possible network exchange takes at least 2×latency.
        let floor = link.latency() * 2;
        for _ in 0..500 {
            let t = fat.action_time(RequestKind::QuizSubmit, &link, &mut rng);
            assert!(t >= floor, "write bypassed the network: {t}");
        }
    }

    #[test]
    fn mobile_is_lightest() {
        let mobile = ClientModel::mobile_browser();
        let thin = ClientModel::thin_cloud();
        assert!(mobile.memory() < thin.memory());
        let link = Link::from_profile(LinkProfile::Mobile3g);
        let mut rng = SimRng::seed(8);
        // Startup is dominated by the 3G exchange but still beats the
        // desktop cold start.
        let m = mobile.startup_time(&link, &mut rng);
        let d = ClientModel::desktop_install().startup_time(&link, &mut rng);
        assert!(m < d);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(ClientKind::ThinCloud.to_string(), "thin-cloud");
        assert_eq!(ClientKind::DesktopInstall.to_string(), "desktop-install");
        assert_eq!(ClientKind::MobileBrowser.to_string(), "mobile-browser");
        assert_eq!(ClientModel::thin_cloud().kind(), ClientKind::ThinCloud);
    }

    #[test]
    fn deterministic_given_seed() {
        let link = metro();
        let model = ClientModel::thin_cloud();
        let mut a = SimRng::seed(5);
        let mut b = SimRng::seed(5);
        for _ in 0..20 {
            assert_eq!(
                model.action_time(RequestKind::CoursePage, &link, &mut a),
                model.action_time(RequestKind::CoursePage, &link, &mut b)
            );
        }
    }
}
