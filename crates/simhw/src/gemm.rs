//! cuBLAS-like GEMM timing model.
//!
//! §4.1.1 of the paper observes that GEMM execution time "does not vary
//! proportionally with the number of tokens involved": cuBLAS kernels are
//! tuned for tile-aligned shapes, so an `m×k·k×n` GEMM costs roughly the
//! same as one with `m` rounded up to the next tile boundary. Figure 13b
//! plots this step function, and the layer-wise partition decision of the
//! bubble-free scheduler depends on it.
//!
//! The model: `t(m,k,n) = launch + 2·m̂·k·n / (peak · eff(m̂))` where `m̂`
//! is `m` rounded up to [`GemmModel::tile`] and `eff` is a saturating
//! utilization curve (small GEMMs cannot fill the SMs).

use crate::Sec;

/// Timing model for a dense GEMM on a given GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmModel {
    /// Peak FP16 FLOPS of the device (per-GPU, not aggregated).
    pub peak_flops: f64,
    /// Token-axis tile granularity; cuBLAS-optimized row counts are
    /// multiples of this (the paper rounds 794 → 768 = 3·256).
    pub tile: usize,
    /// Fixed kernel-launch overhead per GEMM call.
    pub launch_overhead: Sec,
    /// Peak fraction of FLOPS achievable by large well-shaped GEMMs.
    pub max_efficiency: f64,
    /// Row count at which utilization reaches half of `max_efficiency`.
    pub half_util_rows: f64,
}

impl GemmModel {
    /// Model with the defaults we calibrated against public A100 cuBLAS
    /// throughput numbers (large fp16 GEMMs reach 70–80 % of peak).
    pub fn for_peak(peak_flops: f64) -> Self {
        Self {
            peak_flops,
            tile: 256,
            launch_overhead: 5e-6,
            max_efficiency: 0.75,
            half_util_rows: 96.0,
        }
    }

    /// `m` rounded up to the tile grid (minimum one tile).
    pub fn padded_rows(&self, m: usize) -> usize {
        if m == 0 {
            return 0;
        }
        m.div_ceil(self.tile) * self.tile
    }

    /// Utilization for a padded row count: saturating curve in `[0, max]`.
    pub fn efficiency(&self, padded_m: usize) -> f64 {
        if padded_m == 0 {
            return self.max_efficiency;
        }
        let m = padded_m as f64;
        self.max_efficiency * m / (m + self.half_util_rows)
    }

    /// Seconds to execute `flops` of *well-shaped* GEMM work for a batch of
    /// `m` tokens: used for the aggregate attention/FFN cost where we follow
    /// the paper's closed-form FLOP counts rather than per-kernel shapes.
    pub fn time_for_flops(&self, flops: u64, m: usize) -> Sec {
        if flops == 0 {
            return 0.0;
        }
        let m_pad = self.padded_rows(m.max(1));
        self.launch_overhead + flops as f64 / (self.peak_flops * self.efficiency(m_pad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GemmModel {
        GemmModel::for_peak(312e12)
    }

    /// Seconds for an `m×k · k×n` GEMM run on tile-padded rows (FMA = 2
    /// FLOPs): the padded shape's FLOPs through `time_for_flops`.
    fn padded_gemm(g: &GemmModel, m: usize, k: usize, n: usize) -> Sec {
        g.time_for_flops(2 * (g.padded_rows(m) * k * n) as u64, m)
    }

    #[test]
    fn padding_rounds_up_to_tile() {
        let g = a100();
        assert_eq!(g.padded_rows(0), 0);
        assert_eq!(g.padded_rows(1), 256);
        assert_eq!(g.padded_rows(256), 256);
        assert_eq!(g.padded_rows(257), 512);
        assert_eq!(g.padded_rows(794), 1024);
    }

    #[test]
    fn time_is_step_function_of_m() {
        // The paper's Fig 13b: time plateaus within a tile, jumps at the
        // boundary.
        let g = a100();
        let d = 5120;
        let t500 = padded_gemm(&g, 500, d, d);
        let t512 = padded_gemm(&g, 512, d, d);
        let t513 = padded_gemm(&g, 513, d, d);
        assert_eq!(t500, t512, "within-tile times must be flat");
        assert!(t513 > t512 * 1.2, "tile boundary must produce a jump");
    }

    #[test]
    fn irregular_sizes_waste_time() {
        // 794 tokens costs the same as 1024 — the §4.1.1 observation that
        // makes token-wise partitioning lose.
        let g = a100();
        let d = 5120;
        assert_eq!(padded_gemm(&g, 794, d, d), padded_gemm(&g, 1024, d, d));
    }

    #[test]
    fn efficiency_saturates() {
        let g = a100();
        assert!(g.efficiency(256) < g.efficiency(4096));
        assert!(g.efficiency(4096) <= g.max_efficiency);
        let e16k = g.efficiency(16384);
        assert!(e16k > 0.99 * g.max_efficiency);
    }

    #[test]
    fn calibration_sanity_13b_kv_projection() {
        // Fig 13b reports roughly 250–400 µs for the per-layer KV projection
        // GEMMs of Llama2-13B around 500–1100 tokens on an A100. Our model
        // must land in that decade.
        let g = a100();
        let d = 5120;
        // K and V projections: two m×d·d×d GEMMs.
        let t = 2.0 * padded_gemm(&g, 1024, d, d);
        assert!(
            t > 100e-6 && t < 1.5e-3,
            "per-layer projection {t}s out of range"
        );
    }

    #[test]
    fn zero_work_is_free() {
        let g = a100();
        assert_eq!(padded_gemm(&g, 0, 100, 100), 0.0);
        assert_eq!(g.time_for_flops(0, 5), 0.0);
    }

    #[test]
    fn faster_gpu_is_faster() {
        let slow = GemmModel::for_peak(120e12);
        let fast = GemmModel::for_peak(990e12);
        assert!(padded_gemm(&fast, 1024, 4096, 4096) < padded_gemm(&slow, 1024, 4096, 4096));
    }

    #[test]
    fn time_for_flops_matches_time_for_square_gemm() {
        let g = a100();
        let (m, k, n) = (512, 4096, 4096);
        let flops = 2u64 * m as u64 * k as u64 * n as u64;
        // With m already tile-aligned, padding adds no work: the model is
        // exactly launch + flops / (peak · eff(m)).
        let closed_form = g.launch_overhead + flops as f64 / (g.peak_flops * g.efficiency(m));
        assert!((g.time_for_flops(flops, m) - closed_form).abs() < 1e-12);
        assert!((padded_gemm(&g, m, k, n) - closed_form).abs() < 1e-12);
    }
}
