//! # hc-simhw
//!
//! Virtual-time hardware models for the HCache reproduction.
//!
//! The paper's evaluation runs on real A100/A30/4090/L20/H800 GPUs and
//! Samsung PM9A3 SSD arrays (Table 2). This environment has neither, so all
//! timing in the reproduction comes from the analytic models in this
//! crate:
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
//!   per-layer `IO_H`, `IO_KV`, `C_H`, `C_Token` for a given (platform,
//!   model, context length), consumed by the bubble-free scheduler.
//!
//! All times are `f64` seconds ([`Sec`]); all computations are closed-form,
//! so results are exactly reproducible.

pub mod gemm;
pub mod gpu;
pub mod platform;
pub mod profile;
pub mod storagehw;

/// Simulated time in seconds.
pub type Sec = f64;

/// Bytes.
pub type Bytes = u64;
