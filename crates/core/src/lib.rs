//! # hcache
//!
//! A from-scratch Rust reproduction of **"Fast State Restoration in LLM
//! Serving with HCache"** (EuroSys 2025).
//!
//! HCache restores evicted LLM contextual state (the KV cache) from
//! per-layer *hidden states* instead of recomputing it from tokens or
//! reloading the full KV cache: hidden states are half the bytes of the KV
//! cache and a single GEMM away from it, so restoration can pipeline a 2×
//! smaller transmission with a ≥6× cheaper recomputation.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`tensor`] | f32 CPU kernels (GEMM, norms, RoPE, f16 codec) |
//! | [`model`] | transformer with hidden-state capture + KV restoration |
//! | [`simhw`] | virtual-time GPU/SSD/PCIe models (paper Table 2) |
//! | [`workload`] | ShareGPT4-like / L-Eval-like trace generators |
//! | [`storage`] | chunked hidden-state store + two-stage saver (§4.2) |
//! | [`sched`] | bubble-free restoration scheduler (§4.1) |
//! | [`restore`] | the six restoration methods, functional + timed |
//! | [`serving`] | continuous-batching serving simulator (§6 harness) |
//!
//! The [`HCacheSystem`] type wires the functional pieces into the serving
//! workflow of Figure 7: prefill/decode with hidden-state capture →
//! two-stage saving → eviction → bubble-free restoration on reuse. Every
//! session of every system runs through one `hc_cachectl::CacheController`
//! — placement, byte accounting, demotion under a quota, and restores that
//! degrade around sick devices — with an unlimited quota unless
//! [`HCacheSystem::with_cache_controller`] sets one.
//!
//! ```
//! use hcache::{HCacheSystem, model::ModelConfig};
//!
//! let cfg = ModelConfig::tiny_llama();
//! let mut sys = HCacheSystem::in_memory(&cfg, /*seed=*/ 42, /*ssds=*/ 4);
//! let sid = sys.open_session();
//!
//! // Round 1: prompt + generation; state is saved and evicted afterwards.
//! let reply = sys.round(sid, &[1, 2, 3, 4], 8).unwrap();
//! assert_eq!(reply.len(), 8);
//!
//! // Round 2 restores the evicted state from hidden states first.
//! let reply2 = sys.round(sid, &[5, 6], 4).unwrap();
//! assert_eq!(reply2.len(), 4);
//! ```

pub use hc_model as model;
pub use hc_restore as restore;
pub use hc_sched as sched;
pub use hc_serving as serving;
pub use hc_simhw as simhw;
pub use hc_storage as storage;
pub use hc_tensor as tensor;
pub use hc_workload as workload;

mod system;

pub use system::{HCacheSystem, SystemError};
