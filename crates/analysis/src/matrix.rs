//! The deployment-model comparison matrix (T1).
//!
//! The paper's conclusion claims "the comparison of deployment models,
//! depending on e-learning requirements, is articulated exhaustively". This
//! module assembles that comparison from measured experiment outputs: each
//! criterion gets one metric value per model column, a direction (whether
//! lower or higher is better) and derived ordinal ratings. T1 compares the
//! three deployment models; its appendix adds FaaS as a fourth column.

use std::fmt;

use crate::metrics::{Cell, MetricTable};
use crate::table::{fmt_f64, Table};

/// Whether smaller or larger metric values are better for a criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller wins (cost, incidents, staleness).
    LowerIsBetter,
    /// Larger wins (availability, survival rate).
    HigherIsBetter,
}

/// Ordinal rating of one model on one criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rating {
    /// Worst of the three.
    Poor,
    /// Between the extremes (or tied).
    Fair,
    /// Best of the three.
    Good,
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rating::Good => "good",
            Rating::Fair => "fair",
            Rating::Poor => "poor",
        };
        f.write_str(s)
    }
}

/// Values closer than this relative fraction are considered tied — the
/// experiments are stochastic, and a sub-1% gap is measurement noise, not
/// a verdict (every real gap in the measured tables exceeds 10%).
const TIE_EPSILON: f64 = 1e-2;

/// Ordinal ratings for any number of columns on one criterion.
///
/// A column is `Good` when it loses to nobody and beats somebody (or
/// everything is tied), `Poor` when it beats nobody and loses to somebody,
/// `Fair` otherwise. Ties within `TIE_EPSILON` relative tolerance share
/// the better rating.
#[must_use]
pub fn rate_columns(values: &[f64], direction: Direction) -> Vec<Rating> {
    let n = values.len();
    let better = |a: f64, b: f64| {
        let scale = a.abs().max(b.abs());
        if (a - b).abs() <= TIE_EPSILON * scale {
            return false; // tied
        }
        match direction {
            Direction::LowerIsBetter => a < b,
            Direction::HigherIsBetter => a > b,
        }
    };
    (0..n)
        .map(|i| {
            let wins = (0..n)
                .filter(|&j| j != i && better(values[i], values[j]))
                .count();
            let losses = (0..n)
                .filter(|&j| j != i && better(values[j], values[i]))
                .count();
            if losses == 0 && wins > 0 {
                Rating::Good
            } else if wins == 0 && losses > 0 {
                Rating::Poor
            } else if wins == 0 && losses == 0 {
                // Full tie.
                Rating::Good
            } else {
                Rating::Fair
            }
        })
        .collect()
}

/// One row of a [`WideMatrix`]: a criterion measured for N models.
#[derive(Debug, Clone, PartialEq)]
pub struct WideCriterion {
    /// Name, e.g. "3-year TCO (USD)".
    pub name: String,
    /// Which experiment produced it, e.g. "E1".
    pub experiment: String,
    /// Metric values, one per model column.
    pub values: Vec<f64>,
    /// Whether lower or higher is better.
    pub direction: Direction,
}

impl WideCriterion {
    /// Ordinal ratings, one per model column (see [`rate_columns`]).
    #[must_use]
    pub fn ratings(&self) -> Vec<Rating> {
        rate_columns(&self.values, self.direction)
    }

    /// Column index of the winning model; ties resolve to the first
    /// winner.
    #[must_use]
    pub fn winner(&self) -> usize {
        self.ratings()
            .iter()
            .position(|&r| r == Rating::Good)
            .unwrap_or(0)
    }
}

/// A comparison matrix over any set of model columns: T1's three
/// deployment models, or the appendix's four with FaaS.
#[derive(Debug, Clone, PartialEq)]
pub struct WideMatrix {
    models: Vec<&'static str>,
    criteria: Vec<WideCriterion>,
}

impl WideMatrix {
    /// Creates an empty matrix over the given model columns.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    #[must_use]
    pub fn new(models: impl IntoIterator<Item = &'static str>) -> Self {
        let models: Vec<&'static str> = models.into_iter().collect();
        assert!(!models.is_empty(), "a matrix needs model columns");
        WideMatrix {
            models,
            criteria: Vec::new(),
        }
    }

    /// The model column names.
    #[must_use]
    pub fn models(&self) -> &[&'static str] {
        &self.models
    }

    /// Adds a measured criterion.
    ///
    /// # Panics
    ///
    /// Panics unless `values` has one entry per model column.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        experiment: impl Into<String>,
        values: Vec<f64>,
        direction: Direction,
    ) -> &mut Self {
        assert_eq!(
            values.len(),
            self.models.len(),
            "criterion width {} != model count {}",
            values.len(),
            self.models.len()
        );
        self.criteria.push(WideCriterion {
            name: name.into(),
            experiment: experiment.into(),
            values,
            direction,
        });
        self
    }

    /// The criteria added so far.
    #[must_use]
    pub fn criteria(&self) -> &[WideCriterion] {
        &self.criteria
    }

    /// How many criteria each model wins (shared wins count for each).
    #[must_use]
    pub fn win_counts(&self) -> Vec<usize> {
        let mut wins = vec![0usize; self.models.len()];
        for c in &self.criteria {
            for (i, r) in c.ratings().into_iter().enumerate() {
                if r == Rating::Good {
                    wins[i] += 1;
                }
            }
        }
        wins
    }

    /// The matrix as a typed measured table: per-model cells carry the raw
    /// value formatted next to its rating (`"42.2 (good)"`), so the metric
    /// extracted from each cell is the leading value. Source of both the
    /// display table and T1's typed metrics.
    #[must_use]
    pub fn to_metric_table(&self) -> MetricTable {
        let headers = ["criterion", "exp"]
            .into_iter()
            .chain(self.models.iter().copied())
            .chain(["verdict"]);
        let mut t = MetricTable::new(headers);
        for c in &self.criteria {
            let ratings = c.ratings();
            let verdict = if ratings.iter().all(|&r| r == Rating::Good) {
                "tie".to_string()
            } else {
                format!("{} wins", self.models[c.winner()])
            };
            let mut cells = vec![Cell::text(c.experiment.clone())];
            cells.extend(
                c.values
                    .iter()
                    .zip(&ratings)
                    .map(|(v, r)| Cell::text(format!("{} ({})", fmt_f64(*v), r))),
            );
            cells.push(Cell::text(verdict));
            t.row(c.name.clone(), cells);
        }
        t
    }

    /// Renders the matrix with raw values and ratings.
    #[must_use]
    pub fn to_table(&self) -> Table {
        self.to_metric_table().to_table()
    }
}

impl fmt::Display for WideMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(values: &[f64], direction: Direction) -> WideCriterion {
        WideCriterion {
            name: "x".into(),
            experiment: "E0".into(),
            values: values.to_vec(),
            direction,
        }
    }

    #[test]
    fn ratings_and_winners_over_any_column_count() {
        use Direction::{HigherIsBetter, LowerIsBetter};
        use Rating::{Fair, Good, Poor};
        let cases: [(&[f64], Direction, &[Rating], usize); 5] = [
            (&[1.0, 3.0, 2.0], LowerIsBetter, &[Good, Poor, Fair], 0),
            (&[1.0, 3.0, 2.0], HigherIsBetter, &[Poor, Good, Fair], 1),
            // A two-way tie shares the better rating.
            (&[1.0, 1.0, 5.0], LowerIsBetter, &[Good, Good, Poor], 0),
            // A full tie rates everyone good.
            (&[2.0, 2.0, 2.0], LowerIsBetter, &[Good, Good, Good], 0),
            (
                &[20.0, 40.0, 30.0, 10.0],
                LowerIsBetter,
                &[Fair, Poor, Fair, Good],
                3,
            ),
        ];
        for (values, direction, ratings, winner) in cases {
            assert_eq!(rate_columns(values, direction), ratings, "{values:?}");
            let c = criterion(values, direction);
            assert_eq!(c.ratings(), ratings, "{values:?}");
            assert_eq!(c.winner(), winner, "{values:?}");
        }
    }

    #[test]
    fn win_counts_accumulate() {
        let mut m = WideMatrix::new(["public", "private", "hybrid"]);
        m.add(
            "cost",
            "E1",
            vec![10.0, 30.0, 20.0],
            Direction::LowerIsBetter,
        );
        m.add(
            "security",
            "E6",
            vec![5.0, 1.0, 1.0],
            Direction::LowerIsBetter,
        );
        m.add(
            "portability",
            "E8",
            vec![9.0, 0.0, 4.0],
            Direction::LowerIsBetter,
        );
        // Private wins security (shared with hybrid) and portability;
        // public wins cost; hybrid shares the security win.
        assert_eq!(m.win_counts(), [1, 2, 1]);
        assert_eq!(m.criteria().len(), 3);

        let mut wide = WideMatrix::new(["public", "private", "hybrid", "faas"]);
        wide.add(
            "cost",
            "E17",
            vec![20.0, 40.0, 30.0, 10.0],
            Direction::LowerIsBetter,
        );
        assert_eq!(wide.win_counts(), [0, 0, 0, 1]);
    }

    #[test]
    fn table_rendering_contains_ratings_and_the_verdict() {
        let mut m = WideMatrix::new(["public", "private", "hybrid"]);
        m.add(
            "cost",
            "E1",
            vec![10.0, 30.0, 20.0],
            Direction::LowerIsBetter,
        );
        m.add("speed", "E9", vec![2.0, 2.0, 2.0], Direction::LowerIsBetter);
        let text = m.to_string();
        assert!(text.contains("10.0 (good)"), "got:\n{text}");
        assert!(text.contains("30.0 (poor)"), "got:\n{text}");
        assert!(text.contains("public wins"), "got:\n{text}");
        assert!(text.contains("tie"), "got:\n{text}");

        let mut wide = WideMatrix::new(["public", "private", "hybrid", "faas"]);
        wide.add(
            "cost",
            "E17",
            vec![20.0, 40.0, 30.0, 10.0],
            Direction::LowerIsBetter,
        );
        let text = wide.to_string();
        assert!(text.contains("faas wins"), "got:\n{text}");
    }

    #[test]
    fn rating_display() {
        assert_eq!(Rating::Good.to_string(), "good");
        assert!(Rating::Good > Rating::Fair);
    }

    #[test]
    #[should_panic(expected = "criterion width 3 != model count 4")]
    fn wide_matrix_rejects_ragged_rows() {
        let mut m = WideMatrix::new(["a", "b", "c", "d"]);
        m.add("x", "E0", vec![1.0, 2.0, 3.0], Direction::LowerIsBetter);
    }
}
