//! # hc-model
//!
//! Transformer model substrate for the HCache reproduction.
//!
//! Provides:
//! * [`config::ModelConfig`] — architecture descriptions, including the three
//!   evaluation models from the paper (Llama2-7B/13B, OPT-30B) and reduced
//!   test-scale models with identical structure.
//! * [`weights::Model`] — deterministic randomly-initialized weights and the
//!   full forward pass (prefill + decode) with per-layer **hidden state
//!   capture**, which is what HCache saves.
//! * [`kv::KvCache`] — the per-layer K/V store that restoration rebuilds.
//! * [`Model::restore_layer_kv`] — the core HCache primitive: recompute a
//!   layer's K/V from that layer's stored hidden states (`K = Wk·norm(H)`
//!   plus RoPE at the original positions).
//!
//! The functional engine is meant to run at reduced dimensions (see
//! [`config::ModelConfig::tiny_llama`]); the full-size configs exist so the
//! analytic performance models in `hc-simhw` can compute FLOP and byte
//! volumes for the paper's actual models.

#![forbid(unsafe_code)]

pub mod config;
pub mod kv;
pub mod layer;
pub mod weights;

pub use config::{ModelConfig, NormKind, PosKind};
pub use kv::KvCache;
pub use weights::{Model, PrefillOutput};
