//! # elc-analysis — statistics, tables and the comparison matrix
//!
//! Turns raw experiment measurements into the artifacts the harness prints:
//!
//! * [`stats`] — exact slice statistics, percentiles, confidence intervals,
//! * [`metrics`] — interned metric names and typed `(MetricKey, f64)` sets,
//!   the allocation-lean measurement path experiments feed the replication
//!   engine through,
//! * [`table`] — aligned text tables with CSV export,
//! * [`plot`] — ASCII line/bar figures for the sweep experiments,
//! * [`matrix`] — the deployment-model comparison matrix (the paper's
//!   "articulated exhaustively" conclusion, rebuilt from measurements),
//! * [`report`] — per-experiment sections assembled into a report.
//!
//! # Examples
//!
//! ```
//! use elc_analysis::matrix::{Direction, WideMatrix};
//!
//! let mut m = WideMatrix::new(["public", "private", "hybrid"]);
//! m.add("3-year TCO ($)", "E1", vec![120_000.0, 210_000.0, 260_000.0],
//!       Direction::LowerIsBetter);
//! assert_eq!(m.win_counts(), [1, 0, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod metrics;
pub mod plot;
pub mod report;
pub mod stats;
pub mod table;

pub use matrix::{Direction, Rating, WideCriterion, WideMatrix};
pub use metrics::{intern, MetricKey, MetricSet, MetricTable};
pub use report::{Report, Section};
pub use stats::{ci95, mean, median, percentile, sorted_percentile, std_dev, Ci95};
pub use table::Table;
