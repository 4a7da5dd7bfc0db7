//! Offline hardware profiling (§4.1.2).
//!
//! The bubble-free scheduler decides how many layers to restore via hidden
//! states (`L_H`) versus a complementary method (`L_O`) from four profiled
//! per-layer quantities: `IO_H`, `IO_KV`, `C_H` and `C_Token`. The paper
//! measures these offline on real hardware; we compute them from the device
//! models in this crate into `hc_sched`'s [`LayerCosts`], the type its
//! partition solver reads, from the FLOP and byte formulas of
//! `hc_model::ModelConfig`.

use hc_model::ModelConfig;

use crate::gemm::GemmModel;
use crate::platform::Platform;
use crate::Sec;

pub use hc_sched::cost::LayerCosts;

/// Offline profile of a (platform, model) pair.
#[derive(Debug, Clone)]
pub struct PlatformProfile {
    /// Hardware configuration.
    pub platform: Platform,
    /// The model whose shape the costs are priced for.
    pub shape: ModelConfig,
    /// GEMM timing model derived from the platform.
    pub gemm: GemmModel,
}

impl PlatformProfile {
    /// Builds the profile (the paper's offline profiling step).
    pub fn new(platform: Platform, shape: ModelConfig) -> Self {
        let gemm = platform.gemm_model();
        Self {
            platform,
            shape,
            gemm,
        }
    }

    /// Per-layer costs for a history of `n_tokens`.
    pub fn layer_costs(&self, n_tokens: u64) -> LayerCosts {
        let h_bytes = n_tokens * self.shape.hidden_bytes_per_token_layer() as u64;
        let kv_bytes = n_tokens * self.shape.kv_bytes_per_token_layer() as u64;
        let io_h = self.platform.hidden_upload_secs(h_bytes);
        let io_kv = self.platform.kv_upload_secs(kv_bytes);
        // Two projections (K, V) per layer; each is an n×D·D×D GEMM sharded
        // across the TP group.
        let c_h = self.gemm.time_for_flops(
            self.shape.flops_hidden_to_kv_layer(n_tokens),
            n_tokens as usize,
        );
        let c_token = self
            .gemm
            .time_for_flops(self.shape.flops_prefill_layer(n_tokens), n_tokens as usize);
        LayerCosts {
            io_h,
            io_kv,
            c_h,
            c_token,
        }
    }

    /// Decode iteration time for a batch whose sequences have the given
    /// total context size (tokens). Decode is bound by reading the weights
    /// plus the live KV cache from HBM, with a small per-iteration launch
    /// overhead.
    pub fn decode_iter_secs(&self, batch_size: usize, total_ctx_tokens: u64) -> Sec {
        if batch_size == 0 {
            return 0.0;
        }
        let hbm_bw = self.platform.gpu.hbm_bw * self.platform.n_gpus as f64;
        let weight_read = self.shape.weight_bytes() as f64 / hbm_bw;
        let kv_bytes = total_ctx_tokens * self.shape.kv_bytes_per_token() as u64;
        let kv_read = kv_bytes as f64 / hbm_bw;
        // Compute for batch_size tokens (one per sequence) is tiny compared
        // to the memory traffic but kept for completeness.
        let flops: u64 = (0..self.shape.n_layers as u64)
            .map(|_| self.shape.flops_prefill_layer(1))
            .sum::<u64>()
            * batch_size as u64;
        let compute = flops as f64 / (self.platform.total_flops() * 0.3);
        weight_read.max(compute) + kv_read + 0.5e-3
    }

    /// Prefill compute time for `n_tokens` of *new* prompt on top of
    /// `ctx_tokens` of existing context (the attention term sees the full
    /// visible window).
    pub fn prefill_secs(&self, n_tokens: u64, ctx_tokens: u64) -> Sec {
        if n_tokens == 0 {
            return 0.0;
        }
        let d = self.shape.d_model as u64;
        // The full prefill layer plus the attention over prior context:
        // the N² attention term becomes N·(N+ctx), each new token attending
        // to all prior context too.
        let flops = self.shape.flops_prefill_layer(n_tokens) + 4 * n_tokens * ctx_tokens * d;
        let per_layer = self.gemm.time_for_flops(flops, n_tokens as usize);
        per_layer * self.shape.n_layers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSpec;

    fn llama7b_shape() -> ModelConfig {
        ModelConfig::llama2_7b()
    }

    fn default_profile() -> PlatformProfile {
        PlatformProfile::new(Platform::default_testbed_single_gpu(), llama7b_shape())
    }

    #[test]
    fn io_kv_is_twice_io_h_without_tp() {
        let p = default_profile();
        let c = p.layer_costs(1024);
        assert!((c.io_kv / c.io_h - 2.0).abs() < 1e-9);
    }

    #[test]
    fn default_testbed_7b_is_roughly_balanced() {
        // §6.1.3: on the default testbed the 7B model has "balanced speed"
        // between hidden-state transmission and KV recomputation (the
        // schedule is 31 H + 1 KV). Our models must land near parity.
        let p = default_profile();
        let c = p.layer_costs(1024);
        let ratio = c.c_h / c.io_h;
        assert!(
            (0.5..2.0).contains(&ratio),
            "C_H/IO_H = {ratio}, expected near 1 on the default testbed"
        );
    }

    #[test]
    fn recompute_is_at_least_6x_hidden_compute() {
        let p = default_profile();
        for n in [256u64, 1024, 4096, 16384] {
            let c = p.layer_costs(n);
            assert!(
                c.c_token / c.c_h > 5.5,
                "n={n}: C_Token/C_H = {}",
                c.c_token / c.c_h
            );
        }
    }

    #[test]
    fn recompute_ratio_grows_with_context() {
        // The N² attention term makes recomputation scale superlinearly.
        let p = default_profile();
        let r1 = p.layer_costs(1024);
        let r16 = p.layer_costs(16384);
        assert!(
            r16.c_token / r16.c_h > r1.c_token / r1.c_h,
            "quadratic attention term missing"
        );
    }

    #[test]
    fn restoration_calibration_magnitudes() {
        // Ballpark check against Fig 11d (7B, 4 SSDs, history 1024):
        // KV offload restores at tens of K tokens/s.
        let p = default_profile();
        let t_kv = p.layer_costs(1024).io_kv * p.shape.n_layers as f64;
        let speed = 1024.0 / t_kv;
        assert!(
            speed > 20_000.0 && speed < 120_000.0,
            "KV offload speed {speed} tokens/s out of plausible range"
        );
    }

    #[test]
    fn decode_iter_time_matches_tbt_scale() {
        // Fig 9d: Llama2-7B TBT ~= 10-30 ms. One decode iteration with a
        // modest batch must be in that range.
        let p = default_profile();
        let t = p.decode_iter_secs(8, 8 * 1024);
        assert!(t > 5e-3 && t < 40e-3, "decode iter {t}s");
    }

    #[test]
    fn prefill_secs_includes_context_attention() {
        let p = default_profile();
        let no_ctx = p.prefill_secs(128, 0);
        let with_ctx = p.prefill_secs(128, 8192);
        assert!(with_ctx > no_ctx);
    }

    #[test]
    fn h800_shifts_balance_toward_io() {
        // H800: 3.2x FLOPS but only 2x PCIe vs A100 -> C_H/IO_H drops.
        let shape = llama7b_shape();
        let a100 = PlatformProfile::new(Platform::dram_backed(GpuSpec::a100(), 1), shape.clone());
        let h800 = PlatformProfile::new(Platform::dram_backed(GpuSpec::h800(), 1), shape);
        let ra = a100.layer_costs(1024);
        let rh = h800.layer_costs(1024);
        assert!(rh.c_h / rh.io_h < ra.c_h / ra.io_h);
    }

    #[test]
    fn zero_tokens_cost_nothing() {
        let p = default_profile();
        let c = p.layer_costs(0);
        assert_eq!(c.io_h, 0.0);
        assert_eq!(c.c_h, 0.0);
        assert_eq!(p.prefill_secs(0, 100), 0.0);
    }
}
