//! Compute resource quantities and instance sizes.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A bundle of compute resources: virtual CPUs, memory and local storage.
///
/// # Examples
///
/// ```
/// use elc_cloud::resources::Resources;
///
/// let host = Resources::new(32, 128.0, 2_000.0);
/// let vm = Resources::new(4, 16.0, 100.0);
/// assert!(host.fits(&vm));
/// let left = host - vm;
/// assert_eq!(left.vcpus(), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    vcpus: u32,
    mem_gib: f64,
    disk_gib: f64,
}

impl Resources {
    /// No resources.
    pub const ZERO: Resources = Resources {
        vcpus: 0,
        mem_gib: 0.0,
        disk_gib: 0.0,
    };

    /// Creates a resource bundle.
    ///
    /// # Panics
    ///
    /// Panics if memory or disk is negative or NaN.
    #[must_use]
    pub fn new(vcpus: u32, mem_gib: f64, disk_gib: f64) -> Self {
        assert!(
            mem_gib.is_finite() && mem_gib >= 0.0,
            "memory must be finite and non-negative"
        );
        assert!(
            disk_gib.is_finite() && disk_gib >= 0.0,
            "disk must be finite and non-negative"
        );
        Resources {
            vcpus,
            mem_gib,
            disk_gib,
        }
    }

    /// Virtual CPU count.
    #[must_use]
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Memory in GiB.
    #[must_use]
    pub fn mem_gib(&self) -> f64 {
        self.mem_gib
    }

    /// Local disk in GiB.
    #[must_use]
    pub fn disk_gib(&self) -> f64 {
        self.disk_gib
    }

    /// True if `other` fits within this bundle.
    #[must_use]
    pub fn fits(&self, other: &Resources) -> bool {
        self.vcpus >= other.vcpus
            && self.mem_gib >= other.mem_gib
            && self.disk_gib >= other.disk_gib
    }

    /// Fraction of this bundle used by `used`, as the max over dimensions —
    /// the binding constraint. Returns 0.0 for an empty bundle.
    #[must_use]
    pub fn utilization(&self, used: &Resources) -> f64 {
        let mut u: f64 = 0.0;
        if self.vcpus > 0 {
            u = u.max(used.vcpus as f64 / self.vcpus as f64);
        }
        if self.mem_gib > 0.0 {
            u = u.max(used.mem_gib / self.mem_gib);
        }
        if self.disk_gib > 0.0 {
            u = u.max(used.disk_gib / self.disk_gib);
        }
        u
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            vcpus: self.vcpus + rhs.vcpus,
            mem_gib: self.mem_gib + rhs.mem_gib,
            disk_gib: self.disk_gib + rhs.disk_gib,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    /// # Panics
    ///
    /// Panics if any dimension of `rhs` exceeds `self` (debug-visible
    /// accounting bug).
    fn sub(self, rhs: Resources) -> Resources {
        assert!(self.fits(&rhs), "resource underflow: {self:?} - {rhs:?}");
        Resources {
            vcpus: self.vcpus - rhs.vcpus,
            mem_gib: self.mem_gib - rhs.mem_gib,
            disk_gib: self.disk_gib - rhs.disk_gib,
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}vcpu/{:.0}GiB/{:.0}GiB-disk",
            self.vcpus, self.mem_gib, self.disk_gib
        )
    }
}

/// Standard instance sizes, mirroring the T-shirt tiers public providers
/// sell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VmSize {
    /// 1 vCPU, 2 GiB — static content, cron jobs.
    Small,
    /// 2 vCPU, 8 GiB — LMS web/app tier unit.
    Medium,
    /// 4 vCPU, 16 GiB — database or video transcoding.
    Large,
    /// 8 vCPU, 32 GiB — consolidated single-box deployments.
    XLarge,
}

impl VmSize {
    /// All sizes, smallest first.
    pub const ALL: [VmSize; 4] = [VmSize::Small, VmSize::Medium, VmSize::Large, VmSize::XLarge];

    /// The resources this size provides.
    #[must_use]
    pub fn resources(self) -> Resources {
        match self {
            VmSize::Small => Resources::new(1, 2.0, 20.0),
            VmSize::Medium => Resources::new(2, 8.0, 50.0),
            VmSize::Large => Resources::new(4, 16.0, 100.0),
            VmSize::XLarge => Resources::new(8, 32.0, 200.0),
        }
    }

    /// Sustained request throughput one instance of this size can serve,
    /// in LMS requests per second. Calibrated so a Medium handles a
    /// ~500-student course page load comfortably (see `elc-deploy::calib`).
    #[must_use]
    pub fn requests_per_sec(self) -> f64 {
        match self {
            VmSize::Small => 40.0,
            VmSize::Medium => 120.0,
            VmSize::Large => 260.0,
            VmSize::XLarge => 550.0,
        }
    }
}

impl fmt::Display for VmSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmSize::Small => "small",
            VmSize::Medium => "medium",
            VmSize::Large => "large",
            VmSize::XLarge => "xlarge",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_per_dimension() {
        let host = Resources::new(8, 32.0, 100.0);
        assert!(host.fits(&Resources::new(8, 32.0, 100.0)));
        assert!(!host.fits(&Resources::new(9, 1.0, 1.0)));
        assert!(!host.fits(&Resources::new(1, 33.0, 1.0)));
        assert!(!host.fits(&Resources::new(1, 1.0, 101.0)));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Resources::new(4, 16.0, 50.0);
        let b = Resources::new(2, 8.0, 25.0);
        assert_eq!(a + b - b, a);
    }

    #[test]
    #[should_panic(expected = "resource underflow")]
    fn sub_underflow_panics() {
        let _ = Resources::new(1, 1.0, 1.0) - Resources::new(2, 0.0, 0.0);
    }

    #[test]
    fn utilization_is_binding_constraint() {
        let cap = Resources::new(10, 100.0, 100.0);
        let used = Resources::new(5, 90.0, 10.0);
        assert!((cap.utilization(&used) - 0.9).abs() < 1e-12);
        assert_eq!(Resources::ZERO.utilization(&Resources::ZERO), 0.0);
    }

    #[test]
    fn sizes_are_monotone() {
        for w in VmSize::ALL.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(b.resources().fits(&a.resources()), "{b} should contain {a}");
            assert!(b.requests_per_sec() > a.requests_per_sec());
        }
    }

    #[test]
    fn display_renders() {
        assert_eq!(VmSize::Medium.to_string(), "medium");
        assert_eq!(
            Resources::new(2, 8.0, 50.0).to_string(),
            "2vcpu/8GiB/50GiB-disk"
        );
    }

    #[test]
    #[should_panic(expected = "memory must be finite")]
    fn rejects_nan_memory() {
        let _ = Resources::new(1, f64::NAN, 0.0);
    }
}
