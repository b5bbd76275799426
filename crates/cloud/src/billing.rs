//! Usage metering and pay-as-you-go billing.
//!
//! Public clouds bill for what runs; private clouds pay up front. This
//! module provides the *usage* side (meters and invoices); the capex/opex
//! comparison lives in `elc-deploy::cost`.
//!
//! Price points are synthetic but order-of-magnitude faithful to 2013-era
//! IaaS list prices; experiments compare *ratios* between deployment models,
//! which are insensitive to the absolute calibration (DESIGN.md §4).

use std::collections::BTreeMap;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use elc_net::units::Bytes;

use crate::resources::VmSize;

/// An amount of money in US dollars.
///
/// # Examples
///
/// ```
/// use elc_cloud::billing::Usd;
///
/// let a = Usd::new(10.0) + Usd::new(2.5);
/// assert_eq!(a.to_string(), "$12.50");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Usd(f64);

impl Usd {
    /// Zero dollars.
    pub const ZERO: Usd = Usd(0.0);

    /// Creates an amount.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is NaN or infinite.
    #[must_use]
    pub fn new(amount: f64) -> Self {
        assert!(amount.is_finite(), "money must be finite, got {amount}");
        Usd(amount)
    }

    /// Creates an amount in `const` context.
    ///
    /// Unlike [`Usd::new`] this cannot validate; callers must pass a finite
    /// literal. Intended for calibration constants.
    #[must_use]
    pub const fn from_const(amount: f64) -> Self {
        Usd(amount)
    }

    /// The amount as a float.
    #[must_use]
    pub fn amount(self) -> f64 {
        self.0
    }

    /// Ratio of this amount to `other`; `f64::INFINITY` when `other` is
    /// zero and `self` is not.
    #[must_use]
    pub fn ratio(self, other: Usd) -> f64 {
        if other.0 == 0.0 {
            if self.0 == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Usd {
    type Output = Usd;
    fn add(self, rhs: Usd) -> Usd {
        Usd(self.0 + rhs.0)
    }
}

impl AddAssign for Usd {
    fn add_assign(&mut self, rhs: Usd) {
        self.0 += rhs.0;
    }
}

impl Sub for Usd {
    type Output = Usd;
    fn sub(self, rhs: Usd) -> Usd {
        Usd(self.0 - rhs.0)
    }
}

impl Mul<f64> for Usd {
    type Output = Usd;
    fn mul(self, rhs: f64) -> Usd {
        Usd::new(self.0 * rhs)
    }
}

impl Sum for Usd {
    fn sum<I: Iterator<Item = Usd>>(iter: I) -> Usd {
        iter.fold(Usd::ZERO, Add::add)
    }
}

impl fmt::Display for Usd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0.0 {
            write!(f, "-${:.2}", -self.0)
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

/// Reserved-instance terms: prepay per instance-year for a discounted
/// hourly rate, the way 2013 IaaS sold steady-state capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservedTerms {
    /// Upfront payment per reserved instance per year.
    pub upfront_per_instance_year: Usd,
    /// Hourly price as a fraction of the on-demand price.
    pub hourly_fraction: f64,
}

impl ReservedTerms {
    /// 2013-style one-year medium-utilization terms: ~30% of a Medium's
    /// annual on-demand bill upfront, 45% of on-demand per hour.
    #[must_use]
    pub fn standard_2013() -> Self {
        ReservedTerms {
            upfront_per_instance_year: Usd::new(320.0),
            hourly_fraction: 0.45,
        }
    }

    /// Annual cost of one reserved instance running 24×7 at the given
    /// on-demand hourly price.
    #[must_use]
    pub fn annual_cost(&self, on_demand_hour: Usd) -> Usd {
        self.upfront_per_instance_year + on_demand_hour * (self.hourly_fraction * 8_760.0)
    }
}

/// Unit prices for metered usage.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSheet {
    vm_hour: BTreeMap<VmSize, Usd>,
    storage_gib_month: Usd,
    egress_per_gib: Usd,
}

impl PriceSheet {
    /// Creates a price sheet.
    #[must_use]
    pub fn new(
        vm_hour: BTreeMap<VmSize, Usd>,
        storage_gib_month: Usd,
        egress_per_gib: Usd,
    ) -> Self {
        assert_eq!(
            vm_hour.len(),
            VmSize::ALL.len(),
            "price sheet must cover every VM size"
        );
        PriceSheet {
            vm_hour,
            storage_gib_month,
            egress_per_gib,
        }
    }

    /// 2013-era public IaaS list prices.
    #[must_use]
    pub fn public_2013() -> Self {
        let vm_hour = BTreeMap::from([
            (VmSize::Small, Usd::new(0.06)),
            (VmSize::Medium, Usd::new(0.12)),
            (VmSize::Large, Usd::new(0.24)),
            (VmSize::XLarge, Usd::new(0.48)),
        ]);
        PriceSheet::new(vm_hour, Usd::new(0.095), Usd::new(0.12))
    }

    /// Hourly price of a VM size.
    #[must_use]
    pub fn vm_hour(&self, size: VmSize) -> Usd {
        self.vm_hour[&size]
    }

    /// Monthly price of one GiB stored.
    #[must_use]
    pub fn storage_gib_month(&self) -> Usd {
        self.storage_gib_month
    }

    /// Price of one GiB of egress traffic.
    #[must_use]
    pub fn egress_per_gib(&self) -> Usd {
        self.egress_per_gib
    }
}

/// Accumulated usage over a billing period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UsageMeter {
    vm_hours: BTreeMap<VmSize, f64>,
    storage_gib_months: f64,
    egress: Bytes,
}

impl UsageMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        UsageMeter::default()
    }

    /// Records `hours` of a VM of `size`.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or NaN.
    pub fn record_vm_hours(&mut self, size: VmSize, hours: f64) {
        assert!(
            hours.is_finite() && hours >= 0.0,
            "vm hours must be >= 0, got {hours}"
        );
        *self.vm_hours.entry(size).or_insert(0.0) += hours;
    }

    /// Records storing `size` for `months`.
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative or NaN.
    pub fn record_storage(&mut self, size: Bytes, months: f64) {
        assert!(
            months.is_finite() && months >= 0.0,
            "storage months must be >= 0, got {months}"
        );
        self.storage_gib_months += size.as_gib_f64() * months;
    }

    /// Records outbound traffic.
    pub fn record_egress(&mut self, size: Bytes) {
        self.egress += size;
    }

    /// Total VM-hours of one size.
    #[must_use]
    pub fn vm_hours(&self, size: VmSize) -> f64 {
        self.vm_hours.get(&size).copied().unwrap_or(0.0)
    }

    /// Total egress bytes.
    #[must_use]
    pub fn egress(&self) -> Bytes {
        self.egress
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &UsageMeter) {
        for (&size, &h) in &other.vm_hours {
            *self.vm_hours.entry(size).or_insert(0.0) += h;
        }
        self.storage_gib_months += other.storage_gib_months;
        self.egress += other.egress;
    }

    /// Prices the usage against a sheet.
    #[must_use]
    pub fn invoice(&self, prices: &PriceSheet) -> Invoice {
        let mut lines = Vec::new();
        for (&size, &hours) in &self.vm_hours {
            if hours > 0.0 {
                lines.push(InvoiceLine {
                    item: format!("compute ({size})"),
                    quantity: hours,
                    unit: "vm-hour",
                    amount: prices.vm_hour(size) * hours,
                });
            }
        }
        if self.storage_gib_months > 0.0 {
            lines.push(InvoiceLine {
                item: "storage".to_string(),
                quantity: self.storage_gib_months,
                unit: "GiB-month",
                amount: prices.storage_gib_month() * self.storage_gib_months,
            });
        }
        if !self.egress.is_zero() {
            let gib = self.egress.as_gib_f64();
            lines.push(InvoiceLine {
                item: "egress".to_string(),
                quantity: gib,
                unit: "GiB",
                amount: prices.egress_per_gib() * gib,
            });
        }
        Invoice { lines }
    }
}

/// One priced line of an invoice.
#[derive(Debug, Clone, PartialEq)]
pub struct InvoiceLine {
    /// What was used.
    pub item: String,
    /// How much.
    pub quantity: f64,
    /// Unit of the quantity.
    pub unit: &'static str,
    /// Extended price.
    pub amount: Usd,
}

/// A priced bill.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Invoice {
    lines: Vec<InvoiceLine>,
}

impl Invoice {
    /// Builds an invoice from already-priced lines — the extension point
    /// for billing models priced outside the VM sheet (e.g. per-invocation
    /// FaaS metering in `elc-faas`).
    #[must_use]
    pub fn from_lines(lines: Vec<InvoiceLine>) -> Self {
        Invoice { lines }
    }

    /// The line items.
    #[must_use]
    pub fn lines(&self) -> &[InvoiceLine] {
        &self.lines
    }

    /// Grand total.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.lines.iter().map(|l| l.amount).sum()
    }
}

impl fmt::Display for Invoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.lines {
            writeln!(
                f,
                "{:<20} {:>12.2} {:<10} {:>12}",
                l.item,
                l.quantity,
                l.unit,
                l.amount.to_string()
            )?;
        }
        write!(f, "{:<20} {:>36}", "TOTAL", self.total().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn money_arithmetic_and_display() {
        let a = Usd::new(10.0);
        let b = Usd::new(4.0);
        assert_eq!(a + b, Usd::new(14.0));
        assert_eq!(a - b, Usd::new(6.0));
        assert_eq!(a * 2.0, Usd::new(20.0));
        assert_eq!(a.to_string(), "$10.00");
        assert_eq!((b - a).to_string(), "-$6.00");
        let total: Usd = [a, b].into_iter().sum();
        assert_eq!(total, Usd::new(14.0));
    }

    #[test]
    fn money_ratio_edge_cases() {
        assert_eq!(Usd::new(10.0).ratio(Usd::new(5.0)), 2.0);
        assert_eq!(Usd::ZERO.ratio(Usd::ZERO), 1.0);
        assert!(Usd::new(1.0).ratio(Usd::ZERO).is_infinite());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn money_rejects_nan() {
        let _ = Usd::new(f64::NAN);
    }

    #[test]
    fn price_sheet_covers_all_sizes() {
        let p = PriceSheet::public_2013();
        for size in VmSize::ALL {
            assert!(p.vm_hour(size) > Usd::ZERO);
        }
        // Prices are monotone in size.
        for w in VmSize::ALL.windows(2) {
            assert!(p.vm_hour(w[1]) > p.vm_hour(w[0]));
        }
    }

    #[test]
    #[should_panic(expected = "cover every VM size")]
    fn price_sheet_rejects_partial() {
        let _ = PriceSheet::new(
            BTreeMap::from([(VmSize::Small, Usd::new(0.1))]),
            Usd::ZERO,
            Usd::ZERO,
        );
    }

    #[test]
    fn invoice_prices_usage() {
        let p = PriceSheet::public_2013();
        let mut m = UsageMeter::new();
        m.record_vm_hours(VmSize::Medium, 100.0);
        m.record_storage(Bytes::from_gib(50), 1.0);
        m.record_egress(Bytes::from_gib(10));
        let inv = m.invoice(&p);
        assert_eq!(inv.lines().len(), 3);
        let expected = 0.12 * 100.0 + 0.095 * 50.0 + 0.12 * 10.0;
        assert!((inv.total().amount() - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_empty_invoice() {
        let inv = UsageMeter::new().invoice(&PriceSheet::public_2013());
        assert!(inv.lines().is_empty());
        assert_eq!(inv.total(), Usd::ZERO);
    }

    #[test]
    fn meter_accumulates_and_merges() {
        let mut a = UsageMeter::new();
        a.record_vm_hours(VmSize::Small, 10.0);
        a.record_vm_hours(VmSize::Small, 5.0);
        assert_eq!(a.vm_hours(VmSize::Small), 15.0);
        assert_eq!(a.vm_hours(VmSize::Large), 0.0);

        let mut b = UsageMeter::new();
        b.record_vm_hours(VmSize::Small, 1.0);
        b.record_egress(Bytes::from_gib(2));
        a.merge(&b);
        assert_eq!(a.vm_hours(VmSize::Small), 16.0);
        assert_eq!(a.egress(), Bytes::from_gib(2));
    }

    #[test]
    fn invoice_display_includes_total() {
        let p = PriceSheet::public_2013();
        let mut m = UsageMeter::new();
        m.record_vm_hours(VmSize::Small, 1.0);
        let text = m.invoice(&p).to_string();
        assert!(text.contains("compute (small)"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn meter_rejects_negative_hours() {
        UsageMeter::new().record_vm_hours(VmSize::Small, -1.0);
    }

    #[test]
    fn reserved_terms_beat_on_demand_for_steady_use() {
        let terms = ReservedTerms::standard_2013();
        let hourly = PriceSheet::public_2013().vm_hour(VmSize::Medium);
        // 24x7 for a year: reserving wins.
        assert!(terms.annual_cost(hourly) < hourly * 8_760.0);
    }
}
