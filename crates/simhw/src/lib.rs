//! # hc-simhw
//!
//! The virtual-time simulator of the HCache reproduction: hardware models,
//! timed restoration for every method, and a continuous-batching serving
//! engine. It sits on top of the functional crates — it reads
//! `hc_sched`'s cost type and partition solver, `hc_model`'s model
//! configurations and `hc_cachectl`'s eviction policies — and none of them
//! depends on it.
//!
//! The paper's evaluation runs on real A100/A30/4090/L20/H800 GPUs and
//! Samsung PM9A3 SSD arrays (Table 2). This environment has neither, so all
//! simulated timing comes from the analytic models in this crate:
//!
//! * [`gpu::GpuSpec`] — the five GPUs of Table 2 (FP16 FLOPS, HBM size,
//!   PCIe transmission speed, NVLink bandwidth).
//! * [`gemm::GemmModel`] — a cuBLAS-like GEMM timing model whose runtime is
//!   a *step function* of the row count (tile rounding), reproducing the
//!   effect the paper measures in Figure 13b and exploits in §4.1.1.
//! * [`storagehw`] — PM9A3 SSD arrays (per-IO latency + bandwidth,
//!   aggregated over the array) and DRAM backends.
//! * [`platform::Platform`] — a (GPU × count × storage tier) bundle with the
//!   derived effective restore bandwidth and FLOPS, including the paper's
//!   tensor-parallel sharded-read + all-gather scheme (§5, Multi-GPU).
//! * [`profile::PlatformProfile`] — the offline profiling step of §4.1.2:
//!   per-layer `IO_H`, `IO_KV`, `C_H`, `C_Token` (`hc_sched`'s
//!   [`LayerCosts`](profile::LayerCosts)) for a given (platform, model,
//!   context length), consumed by the bubble-free scheduler.
//! * [`pipeline`] — the explicit per-layer two-stream restoration timeline
//!   (Figures 5 and 8d) with bubble accounting.
//! * [`sim`] — timed restoration of every [`RestoreMethod`] on any
//!   platform. This is what the evaluation figures use.
//! * [`engine::ServingEngine`] — a continuous-batching serving simulator
//!   with a restoration phase (§5 "Request scheduling" + the §6.1
//!   evaluation harness), configured by [`config::ServingConfig`] and
//!   reporting [`metrics::ServingReport`].
//!
//! All times are `f64` seconds ([`Sec`]); all computations are closed-form
//! or event-driven in virtual time, so results are exactly reproducible.
//!
//! The serving engine's model of execution mirrors DeepSpeed-MII +
//! SplitFuse at iteration granularity:
//! * Requests arrive (Poisson for ShareGPT4, batch-of-one for L-Eval).
//! * A request with evicted history first runs a **restoration phase**: its
//!   IO component queues FIFO on the host→GPU link (concurrent with
//!   decode), its compute component is **fused** into decode iterations
//!   SplitFuse-style, lengthening them (which is exactly where the TBT
//!   impact of restoration shows up).
//! * After restoration, the new prompt's **prefill** is fused the same way;
//!   the request emits its first token at the end of the iteration that
//!   completes prefill (TTFT), then joins the decode batch.
//! * Each decode iteration generates one token per batch member; iteration
//!   duration comes from the HBM-bound decode model plus any fused work
//!   plus hidden-state **saving overhead** (two-stage vs DirectIO, §4.2.2).
//! * GPU KV memory is a hard capacity: a request cannot start until its
//!   context fits (this is what caps 13B throughput in Fig 9b).
//! * Optionally ([`config::ServingConfig::reuse_gpu_cache`]) finished
//!   contexts stay resident in an LRU cache (§6.4); hits skip restoration.

pub mod config;
pub mod engine;
pub mod gemm;
pub mod gpu;
pub mod gpu_cache;
pub mod metrics;
pub mod pipeline;
pub mod platform;
pub mod profile;
pub mod sim;
pub mod storagehw;

pub use config::{SaveOverheadMode, ServingConfig};
pub use engine::ServingEngine;
pub use hc_sched::cost::Sec;
pub use metrics::{RequestMetrics, ServingReport};

/// Bytes.
pub type Bytes = u64;

/// Identifies a restoration method in experiments and reports (baselines
/// follow the paper's §6 setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestoreMethod {
    /// No restoration needed (state resident on GPU; lower bound).
    Ideal,
    /// Token recomputation (full prefill of the history; DeepSpeed-MII
    /// baseline).
    Recompute,
    /// KV-cache offload/reload (AttentionStore baseline).
    KvOffload,
    /// Hidden-state restoration without the bubble-free scheduler
    /// (ablation).
    HCacheO,
    /// Bubble-free hybrid of recompute + KV offload, no hidden states
    /// (ablation, §6.3.1).
    NaiveHybrid,
    /// Full HCache: hidden states + bubble-free scheduler (the paper's
    /// system).
    HCache,
}

impl RestoreMethod {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            RestoreMethod::Ideal => "Ideal",
            RestoreMethod::Recompute => "Recomputation",
            RestoreMethod::KvOffload => "KV Offload",
            RestoreMethod::HCacheO => "HCache-O",
            RestoreMethod::NaiveHybrid => "Naive Hybrid",
            RestoreMethod::HCache => "HCache",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(RestoreMethod::HCache.name(), "HCache");
        assert_eq!(RestoreMethod::Recompute.name(), "Recomputation");
    }
}
