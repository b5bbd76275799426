//! Float-to-integer rounding without libm.
//!
//! The baseline x86-64 target has no `roundsd`, so `f64::round` and
//! `f64::ceil` compile to calls into compiler-builtins' bit-twiddling
//! routines. Where rounding runs per tick or per hour, these helpers give
//! the same integer from the saturating cast and one comparison.

/// `x.round() as u64` for every `f64`: rounds half away from zero, then
/// casts, so NaN and negative values read 0 and values from 2^64 up read
/// `u64::MAX`.
///
/// Below 2^52 the truncation and the fraction are exact; from 2^52 up every
/// double is already whole.
#[must_use]
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// `x.ceil() as u32` for every `f64`: NaN and values up to 0 read 0, and
/// values above `u32::MAX` read `u32::MAX`.
///
/// The cast truncates toward zero; a positive `x` above its truncation
/// rounds up. Every `u32` is exact as a double, so the comparison is too.
#[must_use]
#[inline]
pub fn ceil_u32(x: f64) -> u32 {
    let whole = x as u32;
    whole.saturating_add(u32::from(f64::from(whole) < x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The doubles one ulp either side of `x`, and `x` itself.
    fn around(x: f64) -> [f64; 3] {
        [x.next_down(), x, x.next_up()]
    }

    /// Special values, ±1 ulp around every boundary either helper has, and
    /// 20k random magnitudes from 2^-10 to 2^74 with their exact ties, each
    /// with both signs.
    fn cases() -> Vec<f64> {
        let mut cases = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MAX,
            0.49999999999999994,
        ];
        for x in [
            0.5,
            1.0,
            1.5,
            2.0,
            2.5,
            2f64.powi(31),
            2f64.powi(32) - 1.0,
            2f64.powi(32),
            2f64.powi(52),
            2f64.powi(53),
            2f64.powi(64),
        ] {
            cases.extend(around(x));
        }
        // Exact ties on both sides of the 2^52 line where doubles stop
        // carrying a fraction.
        for k in [0u64, 1, 2, 1_000_000, (1 << 51) - 1, 1 << 51] {
            cases.push(k as f64 + 0.5);
        }
        let mut rng = crate::rng::SimRng::seed(52).derive("round");
        for _ in 0..20_000 {
            let magnitude = 2f64.powi(rng.range_u64(0, 84) as i32 - 10);
            let x = rng.next_f64() * magnitude;
            cases.extend([x, x.floor() + 0.5]);
        }
        for e in 52..64 {
            let x = 2f64.powi(e);
            cases.extend([x, x * 1.5, x.next_down()]);
        }
        let negated: Vec<f64> = cases.iter().map(|x| -x).collect();
        cases.extend(negated);
        cases
    }

    #[test]
    fn round_u64_matches_libm_round() {
        for x in cases() {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(round_u64(2f64.powi(64)), u64::MAX);
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_u64(f64::NAN), 0);
    }

    #[test]
    fn ceil_u32_matches_libm_ceil() {
        for x in cases() {
            assert_eq!(ceil_u32(x), x.ceil() as u32, "x = {x:e}");
        }
        assert_eq!(ceil_u32(f64::from(u32::MAX).next_up()), u32::MAX);
        assert_eq!(ceil_u32(f64::MIN_POSITIVE), 1);
        assert_eq!(ceil_u32(f64::NAN), 0);
    }
}
