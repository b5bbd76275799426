//! Quartiles as the benchmark's spread rule reads them. Medians and
//! other quantiles come from `elc_analysis::stats`.

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// sorts `values`.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    values.sort_by(f64::total_cmp);
    let len = values.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), (0.75, 2.25));
    }
}
