//! Rotary position embeddings (RoPE).
//!
//! HCache's restoration path recomputes K from stored hidden states and must
//! then re-apply RoPE with each token's *original* absolute position (the
//! paper implements a custom CUDA kernel for exactly this, following
//! AttentionStore). Both the prefill path and the restoration path in this
//! repo call the same functions below, which is what makes the end-to-end
//! losslessness test meaningful.

/// Default RoPE base used by Llama-family models.
pub const DEFAULT_ROPE_BASE: f32 = 10_000.0;

/// Sine and cosine of pair `i`'s rotation angle, `pos / base^(2i/d)`: the
/// one place the angle is computed, so every kernel below rotates by the
/// same bits.
#[inline]
fn pair_sin_cos(pos: usize, i: usize, head_dim: usize, base: f32) -> (f32, f32) {
    let theta = (pos as f32) * base.powf(-2.0 * i as f32 / head_dim as f32);
    theta.sin_cos()
}

/// Applies RoPE in place to one head vector `x` (length = head_dim, must be
/// even) for absolute position `pos`.
///
/// Pairs `(x[2i], x[2i+1])` are rotated by angle `pos / base^(2i/d)`.
pub fn rope_inplace(x: &mut [f32], pos: usize, base: f32) {
    rope_row(x, pos, 1, base);
}

/// Applies RoPE to a full row of concatenated heads.
///
/// `row` has length `n_heads * head_dim`; each head segment is rotated
/// independently with the same position. The angle of pair `i` depends only
/// on `(pos, i)`, so its sine and cosine are computed once and reused by
/// every head.
pub fn rope_row(row: &mut [f32], pos: usize, n_heads: usize, base: f32) {
    assert_eq!(row.len() % n_heads, 0, "row not divisible into heads");
    let head_dim = row.len() / n_heads;
    assert!(
        head_dim.is_multiple_of(2),
        "RoPE head dimension must be even, got {head_dim}"
    );
    for i in 0..head_dim / 2 {
        let (sin, cos) = pair_sin_cos(pos, i, head_dim, base);
        for head in row.chunks_exact_mut(head_dim) {
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Inverse rotation; `unrope(rope(x)) == x` up to float error.
pub fn unrope_inplace(x: &mut [f32], pos: usize, base: f32) {
    let d = x.len();
    assert!(
        d.is_multiple_of(2),
        "RoPE head dimension must be even, got {d}"
    );
    for i in 0..d / 2 {
        let (sin, cos) = pair_sin_cos(pos, i, d, base);
        let a = x[2 * i];
        let b = x[2 * i + 1];
        x[2 * i] = a * cos + b * sin;
        x[2 * i + 1] = -a * sin + b * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn position_zero_is_identity() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let orig = x.clone();
        rope_inplace(&mut x, 0, DEFAULT_ROPE_BASE);
        assert_eq!(x, orig);
    }

    #[test]
    fn rotation_preserves_norm() {
        let mut x = vec![1.0, -2.0, 0.5, 3.0, -1.5, 0.25];
        let norm_before: f32 = x.iter().map(|v| v * v).sum();
        rope_inplace(&mut x, 17, DEFAULT_ROPE_BASE);
        let norm_after: f32 = x.iter().map(|v| v * v).sum();
        assert!((norm_before - norm_after).abs() < 1e-4);
    }

    #[test]
    fn unrope_inverts_rope() {
        let mut x = vec![0.3, -0.7, 1.1, 2.2, -0.9, 0.05, 4.0, -4.0];
        let orig = x.clone();
        rope_inplace(&mut x, 123, DEFAULT_ROPE_BASE);
        unrope_inplace(&mut x, 123, DEFAULT_ROPE_BASE);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn rope_row_rotates_each_head_independently() {
        // Two identical heads must stay identical after rotation.
        let mut row = vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0];
        rope_row(&mut row, 5, 2, DEFAULT_ROPE_BASE);
        assert_eq!(&row[0..4], &row[4..8]);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_head_dim_rejected() {
        let mut x = vec![1.0, 2.0, 3.0];
        rope_inplace(&mut x, 1, DEFAULT_ROPE_BASE);
    }

    #[test]
    fn relative_angle_property() {
        // RoPE's defining property: <rope(q,m), rope(k,n)> depends only on
        // (m - n). Check a 2-d case against direct rotation arithmetic.
        let q = [1.0_f32, 0.0];
        let k = [0.0_f32, 1.0];
        let dot = |m: usize, n: usize| {
            let mut qq = q;
            let mut kk = k;
            rope_inplace(&mut qq, m, DEFAULT_ROPE_BASE);
            rope_inplace(&mut kk, n, DEFAULT_ROPE_BASE);
            qq[0] * kk[0] + qq[1] * kk[1]
        };
        assert!((dot(7, 3) - dot(14, 10)).abs() < 1e-5);
        assert!((dot(2, 2) - dot(9, 9)).abs() < 1e-5);
    }

    proptest! {
        /// Sharing a pair's angle across heads moves no bit: one call over
        /// `n_heads` heads equals `n_heads` one-head calls.
        #[test]
        fn rope_row_matches_per_head_rope_bitwise(
            pos in 0usize..8192,
            n_heads in 1usize..9,
            half_dim in 1usize..17,
            seed in 0u32..1000,
        ) {
            let head_dim = 2 * half_dim;
            let mut row: Vec<f32> = (0..n_heads * head_dim)
                .map(|i| ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) % 2001) as f32 * 0.01 - 10.0)
                .collect();
            let mut per_head = row.clone();
            for head in per_head.chunks_exact_mut(head_dim) {
                rope_inplace(head, pos, DEFAULT_ROPE_BASE);
            }
            rope_row(&mut row, pos, n_heads, DEFAULT_ROPE_BASE);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&row), bits(&per_head));
        }

        #[test]
        fn rope_roundtrip_random(
            v in proptest::collection::vec(-5.0f32..5.0, 2..10),
            pos in 0usize..4096
        ) {
            let mut x: Vec<f32> = v.clone();
            if x.len() % 2 == 1 { x.pop(); }
            if x.is_empty() { return Ok(()); }
            let orig = x.clone();
            rope_inplace(&mut x, pos, DEFAULT_ROPE_BASE);
            unrope_inplace(&mut x, pos, DEFAULT_ROPE_BASE);
            for (a, b) in x.iter().zip(orig.iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }
}
