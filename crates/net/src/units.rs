//! Network quantity newtypes.
//!
//! Data sizes and link rates get their own types (C-NEWTYPE) so a byte count
//! is never silently used as a bit rate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A data size in bytes.
///
/// # Examples
///
/// ```
/// use elc_net::units::Bytes;
///
/// let page = Bytes::from_kib(64);
/// assert_eq!(page.as_u64(), 65_536);
/// assert_eq!((page + page).as_u64(), 131_072);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size of `n` bytes.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a size of `n` kibibytes.
    #[must_use]
    pub const fn from_kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a size of `n` mebibytes.
    #[must_use]
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a size of `n` gibibytes.
    #[must_use]
    pub const fn from_gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// The size in bytes.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The size in fractional mebibytes.
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// The size in fractional gibibytes.
    #[must_use]
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// True if the size is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// Scales the size by a non-negative factor, rounding.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "byte factor must be finite and non-negative, got {factor}"
        );
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl From<u64> for Bytes {
    fn from(n: u64) -> Self {
        Bytes(n)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({self})")
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b < 1024 {
            write!(f, "{b}B")
        } else if b < 1024 * 1024 {
            write!(f, "{:.1}KiB", b as f64 / 1024.0)
        } else if b < 1024 * 1024 * 1024 {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        }
    }
}

/// A link rate in bits per second.
///
/// # Examples
///
/// ```
/// use elc_net::units::Bandwidth;
///
/// let uplink = Bandwidth::from_mbps(100.0);
/// assert_eq!(uplink.bits_per_sec(), 100_000_000.0);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a rate from bits per second.
    ///
    /// # Panics
    ///
    /// Panics unless `bps` is finite and non-negative.
    #[must_use]
    pub fn from_bps(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "bandwidth must be finite and non-negative, got {bps}"
        );
        Bandwidth(bps)
    }

    /// Creates a rate from megabits per second.
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        Bandwidth::from_bps(mbps * 1e6)
    }

    /// Creates a rate from gigabits per second.
    #[must_use]
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth::from_bps(gbps * 1e9)
    }

    /// The rate in bits per second.
    #[must_use]
    pub fn bits_per_sec(self) -> f64 {
        self.0
    }

    /// True if the link carries no traffic.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Seconds needed to serialize `size` at this rate.
    ///
    /// Returns `f64::INFINITY` for a zero-rate link.
    #[must_use]
    pub fn seconds_for(self, size: Bytes) -> f64 {
        if self.is_zero() {
            f64::INFINITY
        } else {
            size.as_u64() as f64 * 8.0 / self.0
        }
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bandwidth({self})")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1), Bytes::from_kib(1024));
        assert_eq!(Bytes::from_gib(1), Bytes::from_mib(1024));
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(30);
        assert_eq!(a + b, Bytes::new(130));
        assert_eq!(a - b, Bytes::new(70));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.mul_f64(0.5), Bytes::new(50));
        let total: Bytes = [a, b].into_iter().sum();
        assert_eq!(total, Bytes::new(130));
    }

    #[test]
    fn byte_display_units() {
        assert_eq!(Bytes::new(100).to_string(), "100B");
        assert_eq!(Bytes::from_kib(2).to_string(), "2.0KiB");
        assert_eq!(Bytes::from_mib(3).to_string(), "3.0MiB");
        assert_eq!(Bytes::from_gib(4).to_string(), "4.00GiB");
    }

    #[test]
    fn bandwidth_serialization_time() {
        let bw = Bandwidth::from_mbps(8.0); // 1 MB/s
        let t = bw.seconds_for(Bytes::from_mib(1));
        assert!((t - 1.048_576).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn zero_bandwidth_is_infinite_time() {
        let bw = Bandwidth::from_bps(0.0);
        assert!(bw.is_zero());
        assert!(bw.seconds_for(Bytes::new(1)).is_infinite());
        assert_eq!(bw.seconds_for(Bytes::ZERO), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn bandwidth_rejects_negative() {
        let _ = Bandwidth::from_bps(-1.0);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_gbps(1.0).to_string(), "1.00Gbps");
        assert_eq!(Bandwidth::from_mbps(10.0).to_string(), "10.0Mbps");
        assert_eq!(Bandwidth::from_bps(500.0).to_string(), "500bps");
    }

    #[test]
    fn conversions() {
        let b = Bytes::from(42u64);
        assert_eq!(b.as_u64(), 42);
        assert!(Bytes::from_mib(1).as_mib_f64() - 1.0 < 1e-12);
        assert!((Bandwidth::from_mbps(5.0).bits_per_sec() - 5e6).abs() < 1e-6);
    }
}
