//! # hc-sched
//!
//! The bubble-free restoration scheduler (§4.1 of the paper).
//!
//! Restoring state with HCache overlaps two resource streams — hidden-state
//! transmission (IO) and KV recomputation (GPU GEMMs). Their per-layer
//! durations rarely match, so a pure-HCache pipeline has bubbles on the
//! faster stream. The scheduler removes them by managing some layers with a
//! *resource-complementary* method:
//!
//! * compute-bound platform (`C_H > IO_H`) → offload the KV cache of `L_O`
//!   layers (IO-only, fills transmission slack),
//! * IO-bound platform (`C_H ≤ IO_H`) → token-recompute `L_O` layers
//!   (compute-only, fills GPU slack).
//!
//! [`partition`] implements the closed-form `L_H`/`L_O` solution of §4.1.2
//! plus a brute-force reference; [`pipeline`] builds the explicit per-layer
//! two-stream timeline (Figures 5 and 8d) with bubble accounting. Only
//! layer-wise partitioning is implemented: the token-wise variants the
//! paper rejects in §6.3.2 (Figure 13) are not modelled.

pub mod partition;
pub mod pipeline;

use hc_model::{ModelConfig, NormKind};
use hc_simhw::profile::ModelShape;

/// Converts an `hc-model` config into the shape struct the hardware
/// profiler consumes.
pub fn shape_of(cfg: &ModelConfig) -> ModelShape {
    ModelShape {
        n_layers: cfg.n_layers,
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        elem_bytes: cfg.elem_bytes,
        gated_ffn: cfg.norm == NormKind::RmsNorm,
        weight_bytes: cfg.weight_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_of_preserves_dimensions() {
        let cfg = ModelConfig::llama2_13b();
        let s = shape_of(&cfg);
        assert_eq!(s.n_layers, 40);
        assert_eq!(s.d_model, 5120);
        assert!(s.gated_ffn);
        assert_eq!(s.weight_bytes, cfg.weight_bytes());
    }

    #[test]
    fn opt_is_not_gated() {
        assert!(!shape_of(&ModelConfig::opt_30b()).gated_ffn);
    }
}
