//! Per-invocation billing: GB-seconds plus a per-request fee, with a
//! free-tier knob.
//!
//! The economic pitch of FaaS is that the meter only runs while code
//! runs. [`InvocationBilling`] accumulates exactly that — executed
//! GB-seconds and request counts — and prices them against a
//! [`FaasPriceSheet`] into a regular [`elc_cloud::billing::Invoice`], so
//! serverless bills line up next to VM bills in every report.

use elc_cloud::billing::{Invoice, InvoiceLine, Usd};

/// Serverless price sheet: GB-second rate, per-million-request fee and the
/// free tier granted per billing period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaasPriceSheet {
    per_gb_s: Usd,
    per_million_requests: Usd,
    free_gb_s: f64,
    free_requests: u64,
}

impl FaasPriceSheet {
    /// A price sheet.
    ///
    /// # Panics
    ///
    /// Panics on negative prices and non-finite or negative free-tier
    /// quantities.
    #[must_use]
    pub fn new(
        per_gb_s: Usd,
        per_million_requests: Usd,
        free_gb_s: f64,
        free_requests: u64,
    ) -> Self {
        let negative = per_gb_s.amount() < 0.0 || per_million_requests.amount() < 0.0;
        assert!(
            !negative,
            "invalid FaasPriceSheet: FaaS prices must be >= $0"
        );
        assert!(
            free_gb_s.is_finite() && free_gb_s >= 0.0,
            "invalid FaasPriceSheet: free-tier quantities must be finite and >= 0"
        );
        FaasPriceSheet {
            per_gb_s,
            per_million_requests,
            free_gb_s,
            free_requests,
        }
    }

    /// Launch-era public pricing: $0.0000166667 per GB-s, $0.20 per
    /// million requests, with a monthly free tier of 400 000 GB-s and one
    /// million requests.
    #[must_use]
    pub fn public_2014() -> Self {
        Self::new(
            Usd::new(0.000_016_666_7),
            Usd::new(0.20),
            400_000.0,
            1_000_000,
        )
    }

    /// The sheet with its free tier replaced — e.g. pro-rated to a single
    /// simulated day.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative `free_gb_s`.
    #[must_use]
    pub fn with_free_tier(self, free_gb_s: f64, free_requests: u64) -> Self {
        Self::new(
            self.per_gb_s,
            self.per_million_requests,
            free_gb_s,
            free_requests,
        )
    }

    /// Price per executed GB-second.
    #[must_use]
    pub fn per_gb_s(&self) -> Usd {
        self.per_gb_s
    }

    /// Price per million invocations.
    #[must_use]
    pub fn per_million_requests(&self) -> Usd {
        self.per_million_requests
    }

    /// Free GB-seconds per billing period.
    #[must_use]
    pub fn free_gb_s(&self) -> f64 {
        self.free_gb_s
    }

    /// Free requests per billing period.
    #[must_use]
    pub fn free_requests(&self) -> u64 {
        self.free_requests
    }
}

/// Accumulates executed GB-seconds and invocation counts, then prices
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationBilling {
    prices: FaasPriceSheet,
    gb_s: f64,
    requests: u64,
}

impl InvocationBilling {
    /// Creates an empty meter against `prices`.
    #[must_use]
    pub fn new(prices: FaasPriceSheet) -> Self {
        InvocationBilling {
            prices,
            gb_s: 0.0,
            requests: 0,
        }
    }

    /// Meters `invocations` executions of `service_s` seconds each on a
    /// function sized at `memory_gb`.
    ///
    /// # Panics
    ///
    /// Panics unless `memory_gb` is positive and finite.
    pub fn record(&mut self, invocations: u64, service_s: f64, memory_gb: f64) {
        assert!(
            memory_gb.is_finite() && memory_gb > 0.0,
            "memory must be positive GB, got {memory_gb}"
        );
        self.gb_s += invocations as f64 * service_s * memory_gb;
        self.requests += invocations;
    }

    /// Executed GB-seconds so far.
    #[must_use]
    pub fn gb_s(&self) -> f64 {
        self.gb_s
    }

    /// Invocations so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Prices the metered usage, free tier deducted first.
    #[must_use]
    pub fn invoice(&self) -> Invoice {
        let mut lines = Vec::new();
        let billable_gb_s = (self.gb_s - self.prices.free_gb_s).max(0.0);
        if billable_gb_s > 0.0 {
            lines.push(InvoiceLine {
                item: "compute (invocations)".to_string(),
                quantity: billable_gb_s,
                unit: "GB-s",
                amount: self.prices.per_gb_s * billable_gb_s,
            });
        }
        let billable_requests = self.requests.saturating_sub(self.prices.free_requests);
        if billable_requests > 0 {
            let millions = billable_requests as f64 / 1_000_000.0;
            lines.push(InvoiceLine {
                item: "requests".to_string(),
                quantity: millions,
                unit: "million",
                amount: self.prices.per_million_requests * millions,
            });
        }
        Invoice::from_lines(lines)
    }

    /// Grand total of [`InvocationBilling::invoice`].
    #[must_use]
    pub fn total(&self) -> Usd {
        self.invoice().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic payload")
    }

    #[test]
    fn new_rejects_negative_prices() {
        for (gb_s, million) in [(-0.01, 0.2), (0.01, -0.2)] {
            let msg = panic_message(|| {
                let _ = FaasPriceSheet::new(Usd::new(gb_s), Usd::new(million), 0.0, 0);
            });
            assert_eq!(msg, "invalid FaasPriceSheet: FaaS prices must be >= $0");
        }
    }

    #[test]
    fn new_rejects_bad_free_tier() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let msg = panic_message(|| {
                let _ = FaasPriceSheet::new(Usd::new(0.01), Usd::new(0.2), bad, 0);
            });
            assert_eq!(
                msg,
                "invalid FaasPriceSheet: free-tier quantities must be finite and >= 0"
            );
        }
    }

    #[test]
    fn meter_prices_gb_seconds_and_requests() {
        let prices = FaasPriceSheet::new(Usd::new(0.00002), Usd::new(0.20), 0.0, 0);
        let mut meter = InvocationBilling::new(prices);
        // 1M invocations x 0.1 s x 0.5 GB = 50k GB-s.
        meter.record(1_000_000, 0.1, 0.5);
        assert!((meter.gb_s() - 50_000.0).abs() < 1e-6);
        assert_eq!(meter.requests(), 1_000_000);
        let total = meter.total().amount();
        // 50k x $0.00002 = $1.00 compute + $0.20 requests.
        assert!((total - 1.20).abs() < 1e-9, "total {total}");
        assert_eq!(meter.invoice().lines().len(), 2);
    }

    #[test]
    fn free_tier_zeroes_a_small_bill() {
        let prices = FaasPriceSheet::public_2014();
        let mut meter = InvocationBilling::new(prices);
        meter.record(500_000, 0.1, 0.5);
        // 25k GB-s and 0.5M requests: both inside the free tier.
        assert_eq!(meter.total(), Usd::ZERO);
        assert!(meter.invoice().lines().is_empty());
    }

    #[test]
    fn with_free_tier_pro_rates() {
        let prices = FaasPriceSheet::public_2014().with_free_tier(0.0, 0);
        let mut meter = InvocationBilling::new(prices);
        meter.record(1, 0.1, 0.5);
        assert!(meter.total().amount() > 0.0);
    }
}
