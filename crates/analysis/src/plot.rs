//! Plain-text figures.
//!
//! The harness renders each experiment's *table*; for the sweep-shaped
//! experiments (E1's cost-vs-size curves, E13's consortium curve) a
//! terminal figure shows the shape at a glance. No graphics dependencies:
//! character grids only.

/// Renders one or more named series as an ASCII line chart.
///
/// Each series is a list of `(x, y)` points; all series share the axes.
/// Points are plotted with the series' marker character; the y-axis is
/// annotated with min/max, the x-axis with its range.
///
/// # Examples
///
/// ```
/// use elc_analysis::plot::line_chart;
///
/// let ys: Vec<(f64, f64)> = (0..10).map(|i| (f64::from(i), f64::from(i * i))).collect();
/// let chart = line_chart(&[("quadratic", &ys)], 40, 10);
/// assert!(chart.contains('a'));   // series marker
/// assert!(chart.contains("quadratic"));
/// ```
///
/// # Panics
///
/// Panics if `width` or `height` is smaller than 2, or a point is not
/// finite.
#[must_use]
pub fn line_chart(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2, "chart needs a 2x2 grid at least");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return "(no data)\n".to_string();
    }
    for &(x, y) in &all {
        assert!(x.is_finite() && y.is_finite(), "points must be finite");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    // Markers 'a', 'b', 'c', … per series.
    for (si, (_, pts)) in series.iter().enumerate() {
        let marker = (b'a' + (si % 26) as u8) as char;
        for &(x, y) in pts.iter() {
            let col = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let row = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row;
            grid[r][col] = marker;
        }
    }

    let y_label_hi = format!("{y_max:.3e}");
    let y_label_lo = format!("{y_min:.3e}");
    let margin = y_label_hi.len().max(y_label_lo.len());
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            &y_label_hi
        } else if r == height - 1 {
            &y_label_lo
        } else {
            ""
        };
        out.push_str(&format!("{label:>margin$} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>margin$} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:>margin$}  x: {x_min:.3e} .. {x_max:.3e}\n", ""));
    for (si, (name, _)) in series.iter().enumerate() {
        let marker = (b'a' + (si % 26) as u8) as char;
        out.push_str(&format!("{:>margin$}  {marker} = {name}\n", ""));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_plots_extremes_on_edges() {
        let pts = [(0.0, 0.0), (10.0, 100.0)];
        let chart = line_chart(&[("s", &pts)], 20, 8);
        let lines: Vec<&str> = chart.lines().collect();
        // Max point in the top row, min point in the bottom grid row.
        assert!(lines[0].contains('a'), "top row: {}", lines[0]);
        assert!(lines[7].contains('a'), "bottom row: {}", lines[7]);
        assert!(chart.contains("x: 0.000e0 .. 1.000e1"));
    }

    #[test]
    fn line_chart_multi_series_markers() {
        let a = [(0.0, 1.0), (1.0, 2.0)];
        let b = [(0.0, 2.0), (1.0, 1.0)];
        let chart = line_chart(&[("up", &a), ("down", &b)], 10, 5);
        assert!(chart.contains('a') && chart.contains('b'));
        assert!(chart.contains("a = up"));
        assert!(chart.contains("b = down"));
    }

    #[test]
    fn line_chart_handles_flat_series() {
        let pts = [(0.0, 5.0), (1.0, 5.0)];
        let chart = line_chart(&[("flat", &pts)], 10, 4);
        assert!(chart.contains('a'));
    }

    #[test]
    fn line_chart_empty_is_graceful() {
        let pts: [(f64, f64); 0] = [];
        assert_eq!(line_chart(&[("none", &pts)], 10, 4), "(no data)\n");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn line_chart_rejects_nan() {
        let pts = [(0.0, f64::NAN)];
        let _ = line_chart(&[("bad", &pts)], 10, 4);
    }
}
