//! `elc-benchmark agree A B`: whether two sets of runs of the same code
//! agree within the benchmark's own bounds.
//!
//! A set is a text file of `result <workload> <json>` lines — what
//! `elc-benchmark` prints when it runs every workload — typically one
//! line per workload per seed. For each end-to-end metric of
//! `BENCHMARK.json` and each workload, both sets' medians and quartiles
//! are compared: a spread (interquartile range over the median) wider
//! than the bound is `unresolved` (`setup_s` excepted: its spread is not
//! bounded); otherwise the medians `agree` when they differ by no more
//! than the bound, and `disagree` when they differ by more.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use elc_analysis::stats::median;

use crate::json::Json;
use crate::stats;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a malformed `end_to_end` entry.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Samples per `(workload, metric)` of one result set.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the `result <workload> <json>` lines of a result set; other
/// lines are ignored.
///
/// # Errors
///
/// A result line whose JSON is malformed.
pub fn parse_results(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (n, line) in text.lines().enumerate() {
        let Some(rest) = line.strip_prefix("result ") else {
            continue;
        };
        let (workload, body) = rest
            .split_once(' ')
            .ok_or_else(|| format!("line {}: no result object", n + 1))?;
        let doc = Json::parse(body).map_err(|e| format!("line {}: {e}", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Median and quartiles of one set's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Option<Summary> {
        if values.len() < 2 {
            return None;
        }
        let mut v = values.to_vec();
        let (q1, q3) = stats::quartiles(&mut v);
        Some(Summary {
            n: v.len(),
            median: median(&v),
            q1,
            q3,
        })
    }

    /// Interquartile range over the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Set-up times run down to ~1e-7 s.
        let num = |x: f64| {
            if x != 0.0 && x.abs() < 0.01 {
                format!("{x:.4e}")
            } else {
                format!("{x:.4}")
            }
        };
        write!(
            f,
            "{} [{}, {}] n={} spread {:.2}%",
            num(self.median),
            num(self.q1),
            num(self.q3),
            self.n,
            self.spread() * 100.0
        )
    }
}

/// The comparison's outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound, spreads within the bound.
    Agree,
    /// Medians further apart than the bound.
    Disagree,
    /// Too few samples, or a spread wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Agree => "agree",
            Verdict::Disagree => "disagree",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// First set.
    pub a: Option<Summary>,
    /// Second set.
    pub b: Option<Summary>,
    /// The metric's bound.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// Compares two sets metric by metric, workload by workload.
#[must_use]
pub fn compare(bounds: &[Bound], a: &Samples, b: &Samples) -> Vec<Row> {
    let mut workloads: Vec<&String> = a.keys().chain(b.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for bound in bounds {
            let key = (w.clone(), bound.name.clone());
            let sa = a.get(&key).and_then(|v| Summary::of(v));
            let sb = b.get(&key).and_then(|v| Summary::of(v));
            let verdict = match (sa, sb) {
                (Some(x), Some(y)) => {
                    let spread_bounded = bound.name != "setup_s";
                    if spread_bounded && x.spread().max(y.spread()) > bound.bound {
                        Verdict::Unresolved
                    } else if (y.median - x.median).abs() > bound.bound * x.median.abs() {
                        Verdict::Disagree
                    } else {
                        Verdict::Agree
                    }
                }
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: w.clone(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                a: sa,
                b: sb,
                bound: bound.bound,
                verdict,
            });
        }
    }
    rows
}

/// `agree A B`: prints the comparison against the bounds of the
/// repository's `BENCHMARK.json`; exit code 0 only when every row agrees.
///
/// # Errors
///
/// Unreadable or malformed inputs.
pub fn main(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("usage: elc-benchmark agree A B".to_string());
    };
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let bounds = parse_bounds(&read(&benchmark)?)?;
    let rows = compare(
        &bounds,
        &parse_results(&read(Path::new(a))?)?,
        &parse_results(&read(Path::new(b))?)?,
    );
    let show = |s: &Option<Summary>| s.map_or("-".to_string(), |s| s.to_string());
    for r in &rows {
        println!(
            "{:<14} {:<14} {:<4} A {} | B {} | bound {:.0}% | {}",
            r.workload,
            r.metric,
            r.unit,
            show(&r.a),
            show(&r.b),
            r.bound * 100.0,
            r.verdict
        );
    }
    Ok(i32::from(rows.iter().any(|r| r.verdict != Verdict::Agree)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        s.insert(("w".into(), "op_p50_ms".into()), values.to_vec());
        s
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            bound: 0.1,
        }]
    }

    #[test]
    fn verdicts() {
        let tight = set(&[100.0, 101.0, 99.0, 100.0]);
        let near = set(&[104.0, 105.0, 103.0, 104.0]);
        let far = set(&[130.0, 131.0, 129.0, 130.0]);
        let wide = set(&[60.0, 140.0, 100.0, 100.0]);
        assert_eq!(compare(&bounds(), &tight, &near)[0].verdict, Verdict::Agree);
        assert_eq!(
            compare(&bounds(), &tight, &far)[0].verdict,
            Verdict::Disagree
        );
        assert_eq!(
            compare(&bounds(), &tight, &wide)[0].verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            compare(&bounds(), &tight, &set(&[100.0]))[0].verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn reads_result_lines_and_bounds() {
        let text = "noise\nresult w {\"correct\": true, \"attempted\": 1, \"failed\": 0, \
                    \"metrics\": {\"op_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}}\n";
        let s = parse_results(text).unwrap();
        assert_eq!(s[&("w".into(), "op_p50_ms".into())], vec![2.5]);
        assert!(parse_results("result w {").is_err());
        let b = parse_bounds(
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.2}]}"#,
        )
        .unwrap();
        assert_eq!(b[0].bound, 0.2);
        assert!(parse_bounds("{}").is_err());
    }
}
