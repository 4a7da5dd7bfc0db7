//! Zipfian popularity sampling for the GPU KV-reuse experiment (§6.4).
//!
//! The paper synthesizes context arrival patterns with Zipf skewness
//! α ∈ {uniform, 1.2 … 2.0}: a few hot contexts are requested repeatedly
//! while the tail is cold, which drives the LRU cache hit ratio of Fig 15.

use crate::rng::Rng;

/// A sampler over ranks `0..n` with `P(k) ∝ (k+1)^-alpha`.
/// `alpha == 0` degenerates to the uniform distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics when `n == 0` or `alpha < 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(alpha >= 0.0, "negative skew");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        // First index whose cdf >= u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_head() {
        let z12 = Zipf::new(100, 1.2);
        let z20 = Zipf::new(100, 2.0);
        assert!(z20.pmf(0) > z12.pmf(0));
        assert!(z12.pmf(0) > Zipf::new(100, 0.0).pmf(0));
        // At alpha = 2 the head dominates: top-1 gets most of the mass.
        assert!(z20.pmf(0) > 0.5, "pmf(0) = {}", z20.pmf(0));
    }

    #[test]
    fn pmf_sums_to_one() {
        for alpha in [0.0, 0.8, 1.4, 2.0] {
            let z = Zipf::new(64, alpha);
            let sum: f64 = (0..64).map(|k| z.pmf(k)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha {alpha}: sum {sum}");
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(20, 1.5);
        let mut rng = Rng::new(77);
        let n = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().take(5) {
            let emp = count as f64 / n as f64;
            let rel = (emp - z.pmf(k)).abs() / z.pmf(k);
            assert!(rel < 0.05, "rank {k}: emp {emp} vs pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(7, 1.1);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn empty_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
