//! Sample statistics: the percentile rule, medians and the quartile spread
//! the acceptance check uses.

/// The highest percentile not above `want` that still has at least ten
/// samples beyond it (never below the median). With 100 samples p90 is
/// supported; with 40 the answer is p75.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    hc_workload::stats::percentile(xs, q.clamp(0.0, 1.0) * 100.0)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail of a latency sample: `want` (0.9 for a p90 metric) lowered by
/// the percentile rule when the sample is too small to support it.
pub fn tail(xs: &[f64], want: f64) -> f64 {
    quantile(xs, supported_quantile(xs.len(), want))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_quantile(100, 0.9), 0.9);
        assert_eq!(supported_quantile(1000, 0.9), 0.9);
        // 40 samples: ten beyond leaves p75.
        assert!((supported_quantile(40, 0.9) - 0.75).abs() < 1e-12);
        // 99 samples cannot carry p90.
        assert!(supported_quantile(99, 0.9) < 0.9);
        // Never below the median, however small the sample.
        assert_eq!(supported_quantile(12, 0.9), 0.5);
        assert_eq!(supported_quantile(1, 0.9), 0.5);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 1..=40 by interpolation.
        assert!((tail(&xs, 0.9) - 30.25).abs() < 1e-9);
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((tail(&big, 0.9) - 180.1).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((quartile_spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
