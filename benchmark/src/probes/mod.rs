//! Per-layer probes: each layer's public functions timed from outside, on
//! the workload's own shapes (its median history length, its backend).
//! Layer = crate name. Every probe returns `(metric name, value)` pairs.

pub mod host;
pub mod kernels;
pub mod reactor;
pub mod storage;

use std::time::Instant;

use hc_tensor::Tensor2;
use hc_workload::rng::Rng;

pub type Values = Vec<(&'static str, f64)>;

/// Seconds per call of `f`, one sample per call.
pub fn time_calls(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Activation-like rows: seeded, zero-mean, unit-ish scale.
pub fn synthetic_rows(rng: &mut Rng, rows: usize, cols: usize) -> Tensor2 {
    Tensor2::from_fn(rows, cols, |_, _| rng.normal() as f32)
}
