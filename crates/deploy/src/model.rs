//! Deployment model descriptors.
//!
//! The paper's three alternatives (§IV) are encoded as a placement of LMS
//! *components* onto *sites*:
//!
//! * **public** — every component in the provider's cloud,
//! * **private** — every component on-premise,
//! * **hybrid** — a split; the default split keeps confidential components
//!   (question banks, grades) private and pushes elastic, bandwidth-hungry
//!   ones (video, web) public, which is the split §IV.C gestures at.

use std::collections::BTreeMap;
use std::fmt;

use elc_elearn::content::Sensitivity;
use elc_elearn::request::RequestKind;

/// The three deployment models under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeploymentKind {
    /// Everything on the public provider.
    Public,
    /// Everything on-premise.
    Private,
    /// A component split across both.
    Hybrid,
}

impl DeploymentKind {
    /// All three models, in the paper's order.
    pub const ALL: [DeploymentKind; 3] = [
        DeploymentKind::Public,
        DeploymentKind::Private,
        DeploymentKind::Hybrid,
    ];
}

impl fmt::Display for DeploymentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeploymentKind::Public => "public",
            DeploymentKind::Private => "private",
            DeploymentKind::Hybrid => "hybrid",
        };
        f.write_str(s)
    }
}

/// Where a component runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// The public provider's region.
    PublicCloud,
    /// The institution's own datacenter.
    PrivateCloud,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Site::PublicCloud => "public-cloud",
            Site::PrivateCloud => "private-cloud",
        };
        f.write_str(s)
    }
}

/// The functional units of the LMS that can be placed independently —
/// the "units" whose distribution §IV.C calls significant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// Login, dashboards, course pages.
    WebPortal,
    /// The relational core (enrollment, state).
    Database,
    /// Documents and submissions.
    ContentStore,
    /// Lecture video storage + streaming.
    VideoStreaming,
    /// Quiz/exam delivery and the question bank.
    AssessmentEngine,
    /// Grade records and reporting.
    GradeBook,
}

impl Component {
    /// All components.
    pub const ALL: [Component; 6] = [
        Component::WebPortal,
        Component::Database,
        Component::ContentStore,
        Component::VideoStreaming,
        Component::AssessmentEngine,
        Component::GradeBook,
    ];

    /// The most sensitive data class this component touches.
    #[must_use]
    pub fn sensitivity(self) -> Sensitivity {
        match self {
            Component::WebPortal | Component::VideoStreaming | Component::ContentStore => {
                Sensitivity::CourseMembers
            }
            Component::Database => Sensitivity::Internal,
            Component::AssessmentEngine | Component::GradeBook => Sensitivity::Confidential,
        }
    }

    /// Share of total request load this component serves (sums to 1).
    #[must_use]
    pub fn load_share(self) -> f64 {
        match self {
            Component::WebPortal => 0.25,
            Component::Database => 0.15,
            Component::ContentStore => 0.10,
            Component::VideoStreaming => 0.35,
            Component::AssessmentEngine => 0.10,
            Component::GradeBook => 0.05,
        }
    }

    /// Share of total stored bytes this component holds (sums to 1);
    /// video dominates an LMS's footprint.
    #[must_use]
    pub fn storage_share(self) -> f64 {
        match self {
            Component::WebPortal => 0.0,
            Component::Database => 0.05,
            Component::ContentStore => 0.30,
            Component::VideoStreaming => 0.60,
            Component::AssessmentEngine => 0.02,
            Component::GradeBook => 0.03,
        }
    }

    /// Share of total egress bytes this component is responsible for
    /// (sums to 1). Video chunks and document downloads move almost all
    /// the bytes; quiz traffic is tiny.
    #[must_use]
    pub fn egress_share(self) -> f64 {
        match self {
            Component::WebPortal => 0.08,
            Component::Database => 0.01,
            Component::ContentStore => 0.18,
            Component::VideoStreaming => 0.70,
            Component::AssessmentEngine => 0.02,
            Component::GradeBook => 0.01,
        }
    }

    /// The component that serves a given request kind — how the FaaS
    /// model maps each deployed function back onto the LMS units whose
    /// placement the other deployment models argue about.
    #[must_use]
    pub fn serving(kind: RequestKind) -> Component {
        match kind {
            RequestKind::Login
            | RequestKind::CoursePage
            | RequestKind::ForumRead
            | RequestKind::ForumPost => Component::WebPortal,
            RequestKind::VideoChunk => Component::VideoStreaming,
            RequestKind::QuizFetch | RequestKind::QuizSubmit => Component::AssessmentEngine,
            RequestKind::Upload | RequestKind::Download => Component::ContentStore,
        }
    }

    /// Function memory sizing when this component is deployed as FaaS, in
    /// GB — the GB-second billing unit. Chunk relays run lean; stateful
    /// engines need a working set.
    #[must_use]
    pub fn faas_memory_gb(self) -> f64 {
        match self {
            Component::WebPortal => 0.256,
            Component::Database => 0.768,
            Component::ContentStore => 0.768,
            Component::VideoStreaming => 0.128,
            Component::AssessmentEngine => 0.512,
            Component::GradeBook => 0.256,
        }
    }

    /// Ratio of this component's exam-day peak load to its teaching-day
    /// average. The assessment engine spikes hardest (the whole cohort
    /// opens the quiz at once); video barely moves during exams.
    #[must_use]
    pub fn peak_factor(self) -> f64 {
        match self {
            Component::WebPortal => 4.0,
            Component::Database => 4.0,
            Component::ContentStore => 1.5,
            Component::VideoStreaming => 1.5,
            Component::AssessmentEngine => 12.0,
            Component::GradeBook => 2.0,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::WebPortal => "web-portal",
            Component::Database => "database",
            Component::ContentStore => "content-store",
            Component::VideoStreaming => "video-streaming",
            Component::AssessmentEngine => "assessment-engine",
            Component::GradeBook => "grade-book",
        };
        f.write_str(s)
    }
}

/// A concrete deployment: every component assigned to a site.
///
/// # Examples
///
/// ```
/// use elc_deploy::model::{Component, Deployment, DeploymentKind, Site};
///
/// let d = Deployment::hybrid_default();
/// assert_eq!(d.kind(), DeploymentKind::Hybrid);
/// // Confidential components stay on-premise in the default split.
/// assert_eq!(d.site_of(Component::GradeBook), Site::PrivateCloud);
/// assert_eq!(d.site_of(Component::VideoStreaming), Site::PublicCloud);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    kind: DeploymentKind,
    placement: BTreeMap<Component, Site>,
}

impl Deployment {
    /// The all-public deployment (§IV.A).
    #[must_use]
    pub fn public() -> Self {
        Deployment {
            kind: DeploymentKind::Public,
            placement: Component::ALL
                .iter()
                .map(|&c| (c, Site::PublicCloud))
                .collect(),
        }
    }

    /// The all-private deployment (§IV.B).
    #[must_use]
    pub fn private() -> Self {
        Deployment {
            kind: DeploymentKind::Private,
            placement: Component::ALL
                .iter()
                .map(|&c| (c, Site::PrivateCloud))
                .collect(),
        }
    }

    /// The default hybrid split (§IV.C): confidential components private,
    /// the rest public.
    #[must_use]
    pub fn hybrid_default() -> Self {
        let placement = Component::ALL
            .iter()
            .map(|&c| {
                let site = if c.sensitivity() >= Sensitivity::Confidential {
                    Site::PrivateCloud
                } else {
                    Site::PublicCloud
                };
                (c, site)
            })
            .collect();
        Deployment {
            kind: DeploymentKind::Hybrid,
            placement,
        }
    }

    /// A hybrid with an explicit placement.
    ///
    /// The kind is derived: all-public and all-private placements collapse
    /// to their pure models.
    ///
    /// # Panics
    ///
    /// Panics unless every component is placed.
    #[must_use]
    pub fn with_placement(placement: BTreeMap<Component, Site>) -> Self {
        assert_eq!(
            placement.len(),
            Component::ALL.len(),
            "every component must be placed"
        );
        let publics = placement
            .values()
            .filter(|&&s| s == Site::PublicCloud)
            .count();
        let kind = if publics == Component::ALL.len() {
            DeploymentKind::Public
        } else if publics == 0 {
            DeploymentKind::Private
        } else {
            DeploymentKind::Hybrid
        };
        Deployment { kind, placement }
    }

    /// The canonical deployment for each kind.
    #[must_use]
    pub fn canonical(kind: DeploymentKind) -> Self {
        match kind {
            DeploymentKind::Public => Deployment::public(),
            DeploymentKind::Private => Deployment::private(),
            DeploymentKind::Hybrid => Deployment::hybrid_default(),
        }
    }

    /// Which model this is.
    #[must_use]
    pub fn kind(&self) -> DeploymentKind {
        self.kind
    }

    /// Where a component runs.
    #[must_use]
    pub fn site_of(&self, c: Component) -> Site {
        self.placement[&c]
    }

    /// Components on a given site, in declaration order.
    #[must_use]
    pub fn components_on(&self, site: Site) -> Vec<Component> {
        Component::ALL
            .iter()
            .copied()
            .filter(|&c| self.site_of(c) == site)
            .collect()
    }

    /// Fraction of total load served from the public cloud, weighted by
    /// each component's load share.
    #[must_use]
    pub fn public_load_fraction(&self) -> f64 {
        Component::ALL
            .iter()
            .filter(|&&c| self.site_of(c) == Site::PublicCloud)
            .map(|&c| c.load_share())
            .sum()
    }

    /// Fraction of the institution's *peak* load carried by the components
    /// on `site`, weighted by each component's load share and peak factor.
    /// This is what the private fleet must be sized for — offloading the
    /// burstiest components (cloudbursting exams) shrinks it most.
    #[must_use]
    pub fn peak_share(&self, site: Site) -> f64 {
        let total: f64 = Component::ALL
            .iter()
            .map(|c| c.load_share() * c.peak_factor())
            .sum();
        let on_site: f64 = Component::ALL
            .iter()
            .filter(|&&c| self.site_of(c) == site)
            .map(|c| c.load_share() * c.peak_factor())
            .sum();
        on_site / total
    }

    /// Number of distinct platforms operated (1 for pure models, 2 for
    /// hybrid) — the governance driver of §IV.C.
    #[must_use]
    pub fn platform_count(&self) -> u32 {
        match self.kind {
            DeploymentKind::Hybrid => 2,
            _ => 1,
        }
    }

    /// True if any confidential component sits on the public cloud
    /// (the exposure §IV.A warns about).
    #[must_use]
    pub fn confidential_exposed(&self) -> bool {
        Component::ALL.iter().any(|&c| {
            c.sensitivity() >= Sensitivity::Confidential && self.site_of(c) == Site::PublicCloud
        })
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} deployment (", self.kind)?;
        let mut first = true;
        for c in Component::ALL {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}@{}", self.site_of(c))?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_shares_sum_to_one() {
        let total: f64 = Component::ALL.iter().map(|c| c.load_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn pure_models_place_everything_on_one_site() {
        let pb = Deployment::public();
        let pv = Deployment::private();
        for c in Component::ALL {
            assert_eq!(pb.site_of(c), Site::PublicCloud);
            assert_eq!(pv.site_of(c), Site::PrivateCloud);
        }
        assert_eq!(pb.public_load_fraction(), 1.0);
        assert_eq!(pv.public_load_fraction(), 0.0);
    }

    #[test]
    fn default_hybrid_protects_confidential() {
        let h = Deployment::hybrid_default();
        assert!(!h.confidential_exposed());
        assert_eq!(h.site_of(Component::AssessmentEngine), Site::PrivateCloud);
        assert_eq!(h.site_of(Component::GradeBook), Site::PrivateCloud);
        assert_eq!(h.site_of(Component::WebPortal), Site::PublicCloud);
        assert!(h.public_load_fraction() > 0.5);
    }

    #[test]
    fn public_model_exposes_confidential() {
        assert!(Deployment::public().confidential_exposed());
        assert!(!Deployment::private().confidential_exposed());
    }

    #[test]
    fn with_placement_derives_kind() {
        let all_public: BTreeMap<_, _> = Component::ALL
            .iter()
            .map(|&c| (c, Site::PublicCloud))
            .collect();
        assert_eq!(
            Deployment::with_placement(all_public).kind(),
            DeploymentKind::Public
        );

        let mut mixed: BTreeMap<_, _> = Component::ALL
            .iter()
            .map(|&c| (c, Site::PrivateCloud))
            .collect();
        mixed.insert(Component::WebPortal, Site::PublicCloud);
        let d = Deployment::with_placement(mixed);
        assert_eq!(d.kind(), DeploymentKind::Hybrid);
        assert_eq!(d.platform_count(), 2);
    }

    #[test]
    #[should_panic(expected = "every component")]
    fn partial_placement_rejected() {
        let partial: BTreeMap<_, _> = [(Component::WebPortal, Site::PublicCloud)]
            .into_iter()
            .collect();
        let _ = Deployment::with_placement(partial);
    }

    #[test]
    fn canonical_round_trip() {
        for kind in DeploymentKind::ALL {
            assert_eq!(Deployment::canonical(kind).kind(), kind);
        }
    }

    #[test]
    fn components_on_partitions() {
        let h = Deployment::hybrid_default();
        let pub_c = h.components_on(Site::PublicCloud);
        let priv_c = h.components_on(Site::PrivateCloud);
        assert_eq!(pub_c.len() + priv_c.len(), Component::ALL.len());
        assert!(priv_c.contains(&Component::GradeBook));
    }

    #[test]
    fn platform_counts() {
        assert_eq!(Deployment::public().platform_count(), 1);
        assert_eq!(Deployment::private().platform_count(), 1);
        assert_eq!(Deployment::hybrid_default().platform_count(), 2);
    }

    #[test]
    fn displays_render() {
        assert_eq!(DeploymentKind::Hybrid.to_string(), "hybrid");
        assert_eq!(Site::PublicCloud.to_string(), "public-cloud");
        assert!(Deployment::public()
            .to_string()
            .contains("web-portal@public-cloud"));
        for c in Component::ALL {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn assessment_engine_is_burstiest() {
        for c in Component::ALL {
            assert!(c.peak_factor() <= Component::AssessmentEngine.peak_factor());
        }
    }

    #[test]
    fn every_request_kind_maps_to_a_serving_component() {
        for kind in RequestKind::ALL {
            let c = Component::serving(kind);
            assert!(c.faas_memory_gb() > 0.0);
        }
        assert_eq!(
            Component::serving(RequestKind::QuizSubmit),
            Component::AssessmentEngine
        );
        assert_eq!(
            Component::serving(RequestKind::VideoChunk),
            Component::VideoStreaming
        );
    }

    #[test]
    fn egress_shares_sum_to_one() {
        let total: f64 = Component::ALL.iter().map(|c| c.egress_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "egress shares sum to {total}");
        let storage: f64 = Component::ALL.iter().map(|c| c.storage_share()).sum();
        assert!(
            (storage - 1.0).abs() < 1e-9,
            "storage shares sum to {storage}"
        );
    }

    #[test]
    fn peak_share_partitions() {
        for d in [
            Deployment::public(),
            Deployment::private(),
            Deployment::hybrid_default(),
        ] {
            let sum = d.peak_share(Site::PublicCloud) + d.peak_share(Site::PrivateCloud);
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert_eq!(Deployment::private().peak_share(Site::PrivateCloud), 1.0);
    }

    #[test]
    fn offloading_assessment_cuts_peak_most() {
        // Moving the assessment engine public removes more peak than moving
        // the (heavier by average load) video component.
        let mut assess_public: BTreeMap<_, _> = Component::ALL
            .iter()
            .map(|&c| (c, Site::PrivateCloud))
            .collect();
        assess_public.insert(Component::AssessmentEngine, Site::PublicCloud);
        let a = Deployment::with_placement(assess_public);

        let mut video_public: BTreeMap<_, _> = Component::ALL
            .iter()
            .map(|&c| (c, Site::PrivateCloud))
            .collect();
        video_public.insert(Component::VideoStreaming, Site::PublicCloud);
        let v = Deployment::with_placement(video_public);

        assert!(
            a.peak_share(Site::PrivateCloud) < v.peak_share(Site::PrivateCloud),
            "assessment offload should shrink the private peak more"
        );
    }
}
