//! # hc-tensor
//!
//! Portable CPU tensor kernels for the HCache reproduction.
//!
//! The paper's implementation runs fp16 CUDA kernels (cuBLAS GEMM, fused
//! attention, RoPE). This crate provides functionally equivalent f32 CPU
//! kernels so that the *dataflow* of HCache — in particular the lossless
//! `K = Wk · norm(H)` restoration — can be executed and verified for real.
//!
//! Contents:
//! * [`Tensor2`] — a dense row-major 2-D f32 tensor with the small set of
//!   operations an inference engine needs.
//! * [`gemm`] — register-tiled matrix multiplication kernels (`A·B`, `A·Bᵀ`).
//! * [`ops`] — softmax, RMSNorm, LayerNorm, SiLU, GELU, residual adds.
//! * [`rope`] — rotary position embeddings (applied to Q and K).
//! * [`f16`] — an IEEE-754 binary16 codec used by the storage layer to keep
//!   on-disk sizes faithful to the paper's fp16 state (2 bytes/element).
//! * [`parallel`] — the [`ParallelConfig`] thread budget shared by the
//!   multi-threaded kernel variants (`gemm::matmul_par`,
//!   `gemm::matmul_nt_par`, `f16::encode_f16_par`, `f16::decode_f16_par`),
//!   all bit-for-bit equal to their serial counterparts.

#![forbid(unsafe_code)]

pub mod f16;
pub mod gemm;
pub mod ops;
pub mod parallel;
pub mod rope;
pub mod tensor;

pub use parallel::ParallelConfig;
pub use tensor::Tensor2;

/// Maximum relative error tolerated when comparing two floats that went
/// through different-but-equivalent computation orders.
pub const REL_TOL: f32 = 1e-4;

/// Returns true when `a` and `b` are equal within a mixed absolute/relative
/// tolerance. Used throughout the test suites.
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= scale * tol
}

/// Asserts element-wise approximate equality of two tensors.
///
/// # Panics
/// Panics with the offending coordinate when a mismatch is found.
pub fn assert_tensor_eq(a: &Tensor2, b: &Tensor2, tol: f32) {
    assert_eq!(a.rows(), b.rows(), "row count mismatch");
    assert_eq!(a.cols(), b.cols(), "col count mismatch");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            assert!(
                approx_eq(x, y, tol),
                "tensors differ at ({r},{c}): {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_near_zero() {
        assert!(approx_eq(1e-9, -1e-9, 1e-6));
    }

    #[test]
    fn approx_eq_relative_large() {
        assert!(approx_eq(1000.0, 1000.05, 1e-4));
        assert!(!approx_eq(1000.0, 1001.0, 1e-4));
    }

    #[test]
    fn assert_tensor_eq_passes_on_identical() {
        let t = Tensor2::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_tensor_eq(&t, &t.clone(), 0.0);
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_tensor_eq_panics_on_mismatch() {
        let a = Tensor2::zeros(2, 2);
        let mut b = Tensor2::zeros(2, 2);
        b.set(1, 1, 5.0);
        assert_tensor_eq(&a, &b, 1e-6);
    }
}
