//! Deterministic pseudo-random generation and the distributions the trace
//! generators need. Implemented locally (xoshiro256**) so that workloads are
//! bit-reproducible across platforms and independent of external crate
//! version bumps.

/// xoshiro256** — fast, high-quality, deterministic.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator via SplitMix64 expansion of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = move || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // xoshiro must not be seeded all-zero; SplitMix64 guarantees that.
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift; bias is negligible for our n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let mut u1 = self.uniform();
        if u1 < 1e-300 {
            u1 = 1e-300;
        }
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Log-normal parameterized by its *mean* and the sigma of the
    /// underlying normal (solves `mu` from `mean = exp(mu + sigma²/2)`).
    pub fn lognormal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive");
        let mu = mean.ln() - sigma * sigma / 2.0;
        self.lognormal(mu, sigma)
    }

    /// Exponential with rate `lambda` (mean `1/lambda`) — Poisson
    /// inter-arrival times.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        let mut u = self.uniform();
        if u < 1e-300 {
            u = 1e-300;
        }
        -u.ln() / lambda
    }

    /// Geometric: number of failures before the first success,
    /// `p` = success probability.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p out of range");
        if p >= 1.0 {
            return 0;
        }
        let u = self.uniform().max(1e-300);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut c = Rng::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = Rng::new(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_covers_range_uniformly() {
        let mut r = Rng::new(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((8_000..12_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_with_mean_hits_target_mean() {
        let mut r = Rng::new(5);
        let target = 358.8;
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| r.lognormal_with_mean(target, 0.8))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - target).abs() / target < 0.05,
            "mean {mean} vs {target}"
        );
    }

    #[test]
    fn exponential_mean_is_reciprocal_rate() {
        let mut r = Rng::new(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn geometric_mean() {
        let mut r = Rng::new(7);
        let p = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        // E[failures] = (1-p)/p = 3.
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }
}
