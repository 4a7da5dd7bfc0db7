//! Element-wise and normalization kernels used by the transformer layers.

use crate::Tensor2;

/// Numerically stable in-place softmax over a slice.
///
/// Empty slices are a no-op.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0_f32;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // `sum >= 1` because the max element maps to exp(0) = 1, so the division
    // is always well-defined.
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// RMSNorm as used by Llama-family models:
/// `y_i = x_i / sqrt(mean(x^2) + eps) * g_i`, written into the caller's
/// `out` (same length as `x`).
pub fn rmsnorm_into(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "rmsnorm gain length mismatch");
    assert_eq!(x.len(), out.len(), "rmsnorm output length mismatch");
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (y, (v, g)) in out.iter_mut().zip(x.iter().zip(gain)) {
        *y = v * inv * g;
    }
}

/// LayerNorm as used by OPT-family models:
/// `y_i = (x_i - mean) / sqrt(var + eps) * g_i + b_i`, written into the
/// caller's `out` (same length as `x`).
pub fn layernorm_into(x: &[f32], gain: &[f32], bias: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "layernorm gain length mismatch");
    assert_eq!(x.len(), bias.len(), "layernorm bias length mismatch");
    assert_eq!(x.len(), out.len(), "layernorm output length mismatch");
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for (y, (v, (g, b))) in out.iter_mut().zip(x.iter().zip(gain.iter().zip(bias))) {
        *y = (v - mean) * inv * g + b;
    }
}

/// SiLU (a.k.a. swish) activation: `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// tanh-approximated GELU activation (the common transformer variant).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Applies an activation function element-wise in place.
pub fn map_inplace(t: &mut Tensor2, f: impl Fn(f32) -> f32) {
    for v in t.as_mut_slice() {
        *v = f(*v);
    }
}

/// `out = a + b` element-wise (residual connection).
pub fn add(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let mut out = a.clone();
    out.add_assign(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        rmsnorm_into(x, gain, eps, &mut out);
        out
    }

    fn layernorm(x: &[f32], gain: &[f32], bias: &[f32], eps: f32) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        layernorm_into(x, gain, bias, eps, &mut out);
        out
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_handles_large_values_without_overflow() {
        let mut xs = vec![1000.0, 1000.0];
        softmax_inplace(&mut xs);
        assert!((xs[0] - 0.5).abs() < 1e-6);
        assert!(xs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut xs: Vec<f32> = vec![];
        softmax_inplace(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn softmax_single_element_is_one() {
        let mut xs = vec![-42.0];
        softmax_inplace(&mut xs);
        assert_eq!(xs, vec![1.0]);
    }

    #[test]
    fn rmsnorm_unit_gain_gives_unit_rms() {
        let x = vec![3.0, -4.0, 12.0, 1.0];
        let g = vec![1.0; 4];
        let y = rmsnorm(&x, &g, 1e-6);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        let y = layernorm(&x, &g, &b, 1e-6);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_bias() {
        let x = vec![0.0, 0.0];
        let g = vec![1.0, 1.0];
        let b = vec![5.0, -5.0];
        let y = layernorm(&x, &g, &b, 1e-6);
        assert_eq!(y, vec![5.0, -5.0]);
    }

    #[test]
    fn silu_and_gelu_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert_eq!(gelu(0.0), 0.0);
        // For large x both approach identity.
        assert!((silu(20.0) - 20.0).abs() < 1e-3);
        assert!((gelu(20.0) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn add_is_elementwise() {
        let a = Tensor2::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor2::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(add(&a, &b).as_slice(), &[11.0, 22.0, 33.0]);
    }

    proptest! {
        #[test]
        fn softmax_is_shift_invariant(v in proptest::collection::vec(-10.0f32..10.0, 1..16), shift in -5.0f32..5.0) {
            let mut a = v.clone();
            let mut b: Vec<f32> = v.iter().map(|x| x + shift).collect();
            softmax_inplace(&mut a);
            softmax_inplace(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn rmsnorm_is_scale_equivariant_in_gain(
            v in proptest::collection::vec(-3.0f32..3.0, 2..12), alpha in 0.1f32..3.0
        ) {
            // rmsnorm(x, alpha*g) == alpha * rmsnorm(x, g)
            let g = vec![1.0; v.len()];
            let ga: Vec<f32> = g.iter().map(|x| x * alpha).collect();
            let y1: Vec<f32> = rmsnorm(&v, &g, 1e-6).iter().map(|x| x * alpha).collect();
            let y2 = rmsnorm(&v, &ga, 1e-6);
            for (a, b) in y1.iter().zip(y2.iter()) {
                prop_assert!(crate::approx_eq(*a, *b, 1e-4));
            }
        }

        #[test]
        fn silu_is_monotone(a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            // SiLU is monotone for x >= -1.28 and we only rely on it there.
            if lo > -1.0 {
                prop_assert!(silu(lo) <= silu(hi) + 1e-6);
            }
        }
    }
}
