//! Typed metrics: interned names, `(MetricKey, f64)` pairs and the
//! measured-table builder.
//!
//! PR 1's replication engine extracted metrics by rendering each
//! experiment's table to strings and scraping the numbers back out with
//! [`parse_numeric_cell`] — dozens of `format!`/`parse` round-trips per
//! replication. This module inverts the flow: experiments build a
//! [`MetricTable`] of typed [`Cell`]s once, and from it derive *either* the
//! display [`Table`] *or* a [`MetricSet`] of `(MetricKey, f64)` pairs. The
//! rendered table is now a display-only view; aggregation never touches
//! strings.
//!
//! Two invariants hold the old and new pipelines together:
//!
//! * **Names** are interned once into a process-global pool and handled as
//!   copyable [`MetricKey`] ids afterwards. The vocabulary is the fixed set
//!   of `column[row-key]` names the experiment tables emit, so the pool is
//!   small and interning leaks each distinct name exactly once.
//! * **Values** are quantized through the display format: a metric's value
//!   is *defined* as `parse_numeric_cell(cell.display())`, exactly what the
//!   legacy scrape produced. Both paths therefore agree bit-for-bit on every
//!   metric — pinned by a test in `elc-core`'s registry.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::table::{write_f64, Table};

/// An interned metric name.
///
/// Keys are cheap to copy, compare and hash (one `u32`), stable for the
/// lifetime of the process, and resolve back to their name via
/// [`MetricKey::name`]. Equal names always intern to equal keys, across
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey(u32);

impl MetricKey {
    /// The interned name this key stands for.
    #[must_use]
    pub fn name(self) -> &'static str {
        with_pool(|p| p.names[self.0 as usize])
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-global intern pool. Names are leaked on first sight —
/// bounded, because the metric vocabulary is the fixed set of table
/// column/row labels.
struct Pool {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn with_pool<R>(f: impl FnOnce(&mut Pool) -> R) -> R {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    let mutex = POOL.get_or_init(|| {
        Mutex::new(Pool {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    });
    f(&mut mutex.lock().expect("metric intern pool poisoned"))
}

/// Interns `name`, returning its stable key. Idempotent.
#[must_use]
pub fn intern(name: &str) -> MetricKey {
    with_pool(|p| {
        if let Some(&id) = p.ids.get(name) {
            return MetricKey(id);
        }
        let id = u32::try_from(p.names.len()).expect("more than u32::MAX metric names");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        p.names.push(leaked);
        p.ids.insert(leaked, id);
        MetricKey(id)
    })
}

/// A flat, ordered set of typed metrics — one replication's measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSet {
    entries: Vec<(MetricKey, f64)>,
}

impl MetricSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a metric. Duplicate keys are allowed (callers that need
    /// uniqueness disambiguate names before interning, as the table
    /// builder does).
    pub fn push(&mut self, key: MetricKey, value: f64) {
        self.entries.push((key, value));
    }

    /// The metrics, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(MetricKey, f64)] {
        &self.entries
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no metrics were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(resolved name, value)` pairs — the string view, for
    /// display and tests.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.entries.iter().map(|&(k, v)| (k.name(), v))
    }

    /// Converts to the legacy `(String, f64)` shape.
    #[must_use]
    pub fn to_named_vec(&self) -> Vec<(String, f64)> {
        self.named().map(|(n, v)| (n.to_owned(), v)).collect()
    }
}

/// Find-or-insert into a `(MetricKey, T)` slot vector, returning the
/// slot's index. `hint` is checked first — callers walking two
/// same-shaped collections in lockstep (replication aggregation) hit it
/// every time, making the lookup O(1) without any hashing; otherwise a
/// linear scan finds the first match, and a miss appends `init()`.
pub fn slot_index<T>(
    slots: &mut Vec<(MetricKey, T)>,
    hint: usize,
    key: MetricKey,
    init: impl FnOnce() -> T,
) -> usize {
    if slots.get(hint).is_some_and(|(k, _)| *k == key) {
        return hint;
    }
    if let Some(found) = slots.iter().position(|(k, _)| *k == key) {
        return found;
    }
    slots.push((key, init()));
    slots.len() - 1
}

impl IntoIterator for MetricSet {
    type Item = (MetricKey, f64);
    type IntoIter = std::vec::IntoIter<(MetricKey, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a MetricSet {
    type Item = &'a (MetricKey, f64);
    type IntoIter = std::slice::Iter<'a, (MetricKey, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl FromIterator<(MetricKey, f64)> for MetricSet {
    fn from_iter<T: IntoIterator<Item = (MetricKey, f64)>>(iter: T) -> Self {
        MetricSet {
            entries: iter.into_iter().collect(),
        }
    }
}

/// One typed table cell. The display string and the metric value are both
/// derived from the same variant, so they can never disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text (row labels, verdicts, already-formatted composites).
    /// Still yields a metric when it parses numerically — e.g. the matrix's
    /// `"42.2 (good)"` cells.
    Text(String),
    /// A float, rendered with [`crate::table::fmt_f64`].
    Num(f64),
    /// An integer, rendered with `to_string`. Wide enough (`i128`) to hold
    /// any primitive integer the models use, signed or unsigned.
    Int(i128),
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Cell::Text(s.into())
    }

    /// A float cell (table rendering via `fmt_f64`).
    #[must_use]
    pub fn num(x: f64) -> Self {
        Cell::Num(x)
    }

    /// An integer cell (exact rendering).
    #[must_use]
    pub fn int(x: impl Into<i128>) -> Self {
        Cell::Int(x.into())
    }

    /// Writes the display form into `out` (cleared first).
    fn write_display(&self, out: &mut String) {
        out.clear();
        match self {
            Cell::Text(s) => out.push_str(s),
            Cell::Num(x) => write_f64(out, *x),
            Cell::Int(n) => {
                let _ = write!(out, "{n}");
            }
        }
    }
}

/// A table of typed cells: the single source from which experiments derive
/// both their display [`Table`] and their typed [`MetricSet`].
///
/// The first column is the row key; it never yields metrics (matching the
/// legacy scraper, which skipped column 0). Every other cell that parses
/// numerically becomes a metric named `column[row-key]`, with `#2`, `#3`…
/// suffixes on repeated names.
///
/// # Examples
///
/// ```
/// use elc_analysis::metrics::{Cell, MetricTable};
///
/// let mut t = MetricTable::new(["model", "cost ($)"]);
/// t.row("public", vec![Cell::num(120.0)]);
/// let metrics = t.metrics();
/// let (name, value) = metrics.named().next().unwrap();
/// assert_eq!((name, value), ("cost ($)[public]", 120.0));
/// assert_eq!(t.to_table().cell(0, 1), Some("120.0"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTable {
    headers: Vec<&'static str>,
    rows: Vec<(String, Vec<Cell>)>,
}

impl MetricTable {
    /// Creates a table with the given column headers (first = row key).
    /// Headers are the experiment's schema — always string literals — so
    /// they are borrowed rather than allocated per replication.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: impl IntoIterator<Item = &'static str>) -> Self {
        let headers: Vec<&'static str> = headers.into_iter().collect();
        assert!(!headers.is_empty(), "a table needs columns");
        MetricTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row: its key plus one cell per non-key column.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the non-key column count.
    pub fn row(&mut self, key: impl Into<String>, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(
            cells.len() + 1,
            self.headers.len(),
            "row width {} != column count {}",
            cells.len() + 1,
            self.headers.len()
        );
        self.rows.push((key.into(), cells));
        self
    }

    /// Renders the display view.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(self.headers.iter().copied());
        let mut scratch = String::new();
        for (key, cells) in &self.rows {
            let mut rendered = Vec::with_capacity(cells.len() + 1);
            rendered.push(key.clone());
            for cell in cells {
                cell.write_display(&mut scratch);
                rendered.push(scratch.clone());
            }
            table.row(rendered);
        }
        table
    }

    /// Extracts the typed metrics without rendering the table.
    ///
    /// Values are quantized through the display format (format, then parse),
    /// so they equal what scraping the rendered table would produce; the
    /// formatting happens in a reused scratch buffer, so the only steady
    /// allocations are first-sight name interning.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        let mut display = String::new();
        let mut name = String::new();
        // Tables emit a dozen-odd metrics; a linear scan beats hashing.
        let mut seen: Vec<(MetricKey, u32)> = Vec::new();
        for (key, cells) in &self.rows {
            for (cell, header) in cells.iter().zip(self.headers.iter().skip(1)) {
                cell.write_display(&mut display);
                let Some(value) = parse_numeric_cell(&display) else {
                    continue;
                };
                name.clear();
                name.push_str(header);
                name.push('[');
                name.push_str(key);
                name.push(']');
                let base = intern(&name);
                let n = match seen.iter_mut().find(|(k, _)| *k == base) {
                    Some((_, n)) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        seen.push((base, 1));
                        1
                    }
                };
                let metric = if n == 1 {
                    base
                } else {
                    intern(&format!("{name}#{n}"))
                };
                set.push(metric, value);
            }
        }
        set
    }
}

/// Interprets a table cell as a number if it plausibly is one.
///
/// Handles the formats the report tables actually emit: plain floats
/// (`fmt_f64`, including scientific notation), dollar amounts (`$1234.00`,
/// `-$5.00`), percentages (`12.5%`) and a numeric value with a trailing
/// unit word (`4.2 d`, `31 mo`). Returns `None` for anything else.
#[must_use]
pub fn parse_numeric_cell(cell: &str) -> Option<f64> {
    let trimmed = cell.trim();
    if trimmed.is_empty() {
        return None;
    }
    let (neg, rest) = match trimmed.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, trimmed),
    };
    let rest = rest.strip_prefix('$').unwrap_or(rest);
    let rest = rest.strip_suffix('%').unwrap_or(rest);
    // `4.2 d` → take the leading token if the remainder is a unit word.
    let token = rest.split_whitespace().next()?;
    let value: f64 = token.parse().ok()?;
    if !value.is_finite() {
        return None;
    }
    Some(if neg { -value } else { value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let a = intern("unit-test-metric-a");
        let b = intern("unit-test-metric-a");
        let c = intern("unit-test-metric-b");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "unit-test-metric-a");
        assert_eq!(c.name(), "unit-test-metric-b");
        assert_eq!(a.to_string(), "unit-test-metric-a");
    }

    #[test]
    fn interning_is_consistent_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| intern("unit-test-threaded")))
            .collect();
        let keys: Vec<MetricKey> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn metric_set_basics() {
        let mut set = MetricSet::new();
        assert!(set.is_empty());
        set.push(intern("unit-test-set-x"), 1.5);
        set.push(intern("unit-test-set-y"), -2.0);
        assert_eq!(set.len(), 2);
        let named: Vec<_> = set.named().collect();
        assert_eq!(
            named,
            vec![("unit-test-set-x", 1.5), ("unit-test-set-y", -2.0)]
        );
        assert_eq!(set.to_named_vec()[0].0, "unit-test-set-x");
        let round: MetricSet = set.clone().into_iter().collect();
        assert_eq!(round, set);
    }

    #[test]
    fn slot_index_prefers_the_hint() {
        let (a, b) = (intern("unit-test-slot-a"), intern("unit-test-slot-b"));
        let mut slots: Vec<(MetricKey, u32)> = vec![(a, 1), (b, 2)];
        assert_eq!(slot_index(&mut slots, 1, b, || 0), 1);
        assert_eq!(slot_index(&mut slots, 0, b, || 0), 1, "scan on hint miss");
        let fresh = intern("unit-test-slot-c");
        assert_eq!(slot_index(&mut slots, 9, fresh, || 7), 2);
        assert_eq!(slots[2], (fresh, 7));
    }

    #[test]
    fn cells_render_like_legacy_formatting() {
        let mut s = String::from("junk");
        Cell::num(42.25).write_display(&mut s);
        assert_eq!(s, "42.2");
        Cell::num(0.0).write_display(&mut s);
        assert_eq!(s, "0");
        Cell::int(12_345).write_display(&mut s);
        assert_eq!(s, "12345");
        Cell::text("public").write_display(&mut s);
        assert_eq!(s, "public");
    }

    #[test]
    fn table_and_metrics_views_agree() {
        let mut t = MetricTable::new(["model", "cost ($)", "note"]);
        t.row("public", vec![Cell::num(1234.5), Cell::text("cheap")]);
        t.row("private", vec![Cell::num(0.004), Cell::text("42 u")]);

        // Display view matches Table semantics.
        let table = t.to_table();
        assert_eq!(table.headers().len(), 3);
        assert_eq!(table.cell(0, 0), Some("public"));
        assert_eq!(table.cell(0, 1), Some("1234"));
        assert_eq!(table.cell(1, 1), Some("4.00e-3"));

        // Typed view: every numeric display cell, quantized identically.
        let named: Vec<_> = t.metrics().named().collect();
        assert_eq!(
            named,
            vec![
                ("cost ($)[public]", 1234.0),
                ("cost ($)[private]", 4.00e-3),
                ("note[private]", 42.0),
            ]
        );
    }

    #[test]
    fn duplicate_names_get_suffixes() {
        let mut t = MetricTable::new(["k", "v"]);
        t.row("same", vec![Cell::num(1.0)]);
        t.row("same", vec![Cell::num(2.0)]);
        t.row("same", vec![Cell::num(3.0)]);
        let names: Vec<&str> = t.metrics().named().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["v[same]", "v[same]#2", "v[same]#3"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = MetricTable::new(["k", "a", "b"]);
        t.row("x", vec![Cell::num(1.0)]);
    }

    #[test]
    fn numeric_cell_parsing() {
        assert_eq!(parse_numeric_cell("42.5"), Some(42.5));
        assert_eq!(parse_numeric_cell("$1234.00"), Some(1234.0));
        assert_eq!(parse_numeric_cell("-$5.50"), Some(-5.5));
        assert_eq!(parse_numeric_cell("12.5%"), Some(12.5));
        assert_eq!(parse_numeric_cell("1.00e-4"), Some(1e-4));
        assert_eq!(parse_numeric_cell("4.2 d"), Some(4.2));
        assert_eq!(parse_numeric_cell("public"), None);
        assert_eq!(parse_numeric_cell(""), None);
        assert_eq!(parse_numeric_cell("  "), None);
    }
}
