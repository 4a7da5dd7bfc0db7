//! Summary-statistics helpers used by generators, tests and hcbench
//! (means and percentiles).

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Panics
/// Panics on empty input or out-of-range `p`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
