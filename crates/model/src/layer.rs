//! Single transformer layer: projections, attention, FFN.
//!
//! The functions here are deliberately shared between the three users:
//! * the **prefill** path (process a batch of prompt tokens),
//! * the **decode** path (one token at a time), and
//! * the **restoration** path (`project_kv`, recompute K/V from stored
//!   hidden states).
//!
//! Because restoration calls the *same* `project_kv` that prefill uses, the
//! restored KV cache is bit-identical to the one produced by a full forward
//! pass — the losslessness claim of the paper, checked by tests in
//! `weights.rs` and the integration suite.

use hc_tensor::gemm::{matmul, matmul_par};
use hc_tensor::ops::{gelu, layernorm_into, map_inplace, rmsnorm_into, silu, softmax_inplace};
use hc_tensor::rope::{rope_row, DEFAULT_ROPE_BASE};
use hc_tensor::{ParallelConfig, Tensor2};

use crate::config::{ModelConfig, NormKind, PosKind};
use crate::weights::LayerWeights;

/// Epsilon used by both norm flavors.
pub const NORM_EPS: f32 = 1e-5;

/// Applies the model's pre-block normalization to every row of `x`.
pub fn norm_rows(cfg: &ModelConfig, x: &Tensor2, gain: &[f32], bias: &[f32]) -> Tensor2 {
    let mut out = Tensor2::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        match cfg.norm {
            NormKind::RmsNorm => rmsnorm_into(x.row(r), gain, NORM_EPS, out.row_mut(r)),
            NormKind::LayerNorm => layernorm_into(x.row(r), gain, bias, NORM_EPS, out.row_mut(r)),
        }
    }
    out
}

/// **The HCache restoration primitive.**
///
/// Recomputes a layer's K and V for a batch of tokens from that layer's
/// hidden states `hidden` (`n × d_model`), whose first row corresponds to
/// absolute position `start_pos`. This is the paper's
/// `K = Wk·H, V = Wv·H` (§3.1) with the two real-model details the paper's
/// implementation also handles:
/// * the pre-attention normalization is re-applied (ε-cost, §3.2), and
/// * RoPE is re-applied to K at each token's original position (the custom
///   kernel mentioned in §5).
pub fn project_kv(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    start_pos: usize,
) -> (Tensor2, Tensor2) {
    project_kv_par(cfg, lw, hidden, start_pos, &ParallelConfig::serial())
}

/// [`project_kv`] with the two projection GEMMs running under `par`'s
/// thread budget. The parallel GEMM is bit-for-bit equal to the serial one,
/// so this produces exactly the K/V that `project_kv` (and therefore the
/// prefill forward pass) produces — the restoration-losslessness invariant
/// holds at any thread count.
pub fn project_kv_par(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    start_pos: usize,
    par: &ParallelConfig,
) -> (Tensor2, Tensor2) {
    debug_assert!(
        lw.packed_in_step(),
        "a LayerWeights projection was written to after construction"
    );
    let normed = norm_rows(cfg, hidden, &lw.attn_gain, &lw.attn_bias);
    let mut k = matmul_par(&normed, &lw.wk_t, par);
    let v = matmul_par(&normed, &lw.wv_t, par);
    if cfg.pos == PosKind::Rope {
        for r in 0..k.rows() {
            rope_row(k.row_mut(r), start_pos + r, cfg.n_heads, DEFAULT_ROPE_BASE);
        }
    }
    (k, v)
}

/// Projects hidden states to Q (with RoPE for RoPE models) and K/V.
///
/// K/V are computed by [`project_kv`] so the forward pass and the
/// restoration path share one code path.
pub fn project_qkv(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    start_pos: usize,
) -> (Tensor2, Tensor2, Tensor2) {
    project_qkv_par(cfg, lw, hidden, start_pos, &ParallelConfig::serial())
}

/// [`project_qkv`] with the three projection GEMMs under `par`'s thread
/// budget; bit-for-bit equal to the serial path at any thread count.
pub fn project_qkv_par(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    start_pos: usize,
    par: &ParallelConfig,
) -> (Tensor2, Tensor2, Tensor2) {
    let normed = norm_rows(cfg, hidden, &lw.attn_gain, &lw.attn_bias);
    let mut q = matmul_par(&normed, &lw.wq_t, par);
    if cfg.pos == PosKind::Rope {
        for r in 0..q.rows() {
            rope_row(q.row_mut(r), start_pos + r, cfg.n_heads, DEFAULT_ROPE_BASE);
        }
    }
    let (k, v) = project_kv_par(cfg, lw, hidden, start_pos, par);
    (q, k, v)
}

/// Causal multi-head attention.
///
/// `q` holds the queries of the new tokens (rows = tokens, first row at
/// absolute position `start_pos`); `keys`/`values` hold **all** tokens
/// (cached + new, `total × d_model`). Token at position `p` attends to keys
/// `0..=p`.
pub fn attention(
    cfg: &ModelConfig,
    q: &Tensor2,
    keys: &Tensor2,
    values: &Tensor2,
    start_pos: usize,
) -> Tensor2 {
    attention_par(cfg, q, keys, values, start_pos, &ParallelConfig::serial())
}

/// [`attention`] parallelized over heads.
///
/// Heads are fully independent (each reads its own `head_dim` slice of
/// Q/K/V and writes its own slice of the output), so the head loop splits
/// across `par`'s thread budget: every head's scores/softmax/weighted-sum
/// runs the exact per-element instruction sequence of the serial loop,
/// making the result bit-for-bit identical at any thread count — the same
/// invariant the parallel GEMMs uphold. This was the last scalar hand loop
/// on the functional prefill path.
pub fn attention_par(
    cfg: &ModelConfig,
    q: &Tensor2,
    keys: &Tensor2,
    values: &Tensor2,
    start_pos: usize,
    par: &ParallelConfig,
) -> Tensor2 {
    let none = Tensor2::zeros(0, keys.cols());
    attention_split(cfg, q, (keys, values), (&none, &none), start_pos, par)
}

/// Causal attention over keys/values held as two row ranges: token `t` is
/// row `t` of `cached` while `t < cached.rows()` and row
/// `t − cached.rows()` of `new` after that. Tokens are visited in ascending
/// `t` exactly as over the concatenation `cached.vcat(new)`, so the result
/// is bit-identical to [`attention_par`] on that concatenation without
/// building it — the per-token KV copy a decode step used to pay.
fn attention_split(
    cfg: &ModelConfig,
    q: &Tensor2,
    cached: (&Tensor2, &Tensor2),
    new: (&Tensor2, &Tensor2),
    start_pos: usize,
    par: &ParallelConfig,
) -> Tensor2 {
    let d = cfg.d_model;
    for (keys, values) in [cached, new] {
        assert_eq!(keys.shape(), values.shape(), "K/V shape mismatch");
        assert_eq!(keys.cols(), d, "K/V width mismatch");
    }
    let total = cached.0.rows() + new.0.rows();
    assert!(
        total >= start_pos + q.rows(),
        "attention: cache has {total} tokens, need {}",
        start_pos + q.rows()
    );
    let h = cfg.n_heads;
    let hd = cfg.head_dim();
    let scale = 1.0 / (hd as f32).sqrt();
    let n = q.rows();
    if n == 0 {
        // An empty query batch attends to nothing (and the row-block
        // splitter cannot chunk zero-width head slices).
        return Tensor2::zeros(0, d);
    }

    // Head-major scratch (`h × (n·hd)`): each head's output rows are
    // contiguous, so the row-block helper hands whole heads to threads.
    let mut scratch = vec![0.0_f32; h * n * hd];
    par.run_row_blocks(&mut scratch, h, n * hd, |head0, chunk| {
        let mut scores = Vec::new();
        for (head_rel, head_out) in chunk.chunks_mut(n * hd).enumerate() {
            let hs = (head0 + head_rel) * hd;
            for i in 0..n {
                let visible = start_pos + i + 1; // causal horizon
                let q_head = &q.row(i)[hs..hs + hd];
                let keys = cached.0.as_slice().chunks_exact(d);
                let keys = keys.chain(new.0.as_slice().chunks_exact(d));
                scores.clear();
                scores.extend(keys.take(visible).map(|k_row| {
                    let mut dot = 0.0_f32;
                    for (qv, kv) in q_head.iter().zip(&k_row[hs..hs + hd]) {
                        dot += qv * kv;
                    }
                    dot * scale
                }));
                softmax_inplace(&mut scores);
                let out_row = &mut head_out[i * hd..(i + 1) * hd];
                let values = cached.1.as_slice().chunks_exact(d);
                let values = values.chain(new.1.as_slice().chunks_exact(d));
                for (&w, v_row) in scores.iter().zip(values) {
                    for (o, vv) in out_row.iter_mut().zip(&v_row[hs..hs + hd]) {
                        *o += w * vv;
                    }
                }
            }
        }
    });

    // Interleave the head-major scratch back into row-major output.
    let mut out = Tensor2::zeros(n, d);
    for head in 0..h {
        let hs = head * hd;
        for i in 0..n {
            out.row_mut(i)[hs..hs + hd].copy_from_slice(&scratch[(head * n + i) * hd..][..hd]);
        }
    }
    out
}

/// FFN block: pre-norm, up-projection, activation (SiLU for Llama-style,
/// GELU for OPT-style), down-projection.
pub fn ffn(cfg: &ModelConfig, lw: &LayerWeights, hidden: &Tensor2) -> Tensor2 {
    ffn_par(cfg, lw, hidden, &ParallelConfig::serial())
}

/// [`ffn`] with the two GEMMs under `par`'s thread budget.
pub fn ffn_par(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    par: &ParallelConfig,
) -> Tensor2 {
    let normed = norm_rows(cfg, hidden, &lw.ffn_gain, &lw.ffn_bias);
    let mut up = matmul_par(&normed, &lw.fc1_t, par);
    match cfg.norm {
        NormKind::RmsNorm => map_inplace(&mut up, silu),
        NormKind::LayerNorm => map_inplace(&mut up, gelu),
    }
    matmul_par(&up, &lw.fc2_t, par)
}

/// Full layer forward for a batch of new tokens.
///
/// `hidden` is the layer input (`n × d`, the tensor HCache would save for
/// this layer); `cached_k`/`cached_v` are the K/V of the `start_pos` tokens
/// that precede the batch. Returns `(next_hidden, new_k, new_v)`; the caller
/// appends `new_k/new_v` to its KV cache.
pub fn layer_forward(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    cached_k: &Tensor2,
    cached_v: &Tensor2,
    start_pos: usize,
) -> (Tensor2, Tensor2, Tensor2) {
    layer_forward_par(
        cfg,
        lw,
        hidden,
        cached_k,
        cached_v,
        start_pos,
        &ParallelConfig::serial(),
    )
}

/// [`layer_forward`] with every GEMM and the attention head loop running
/// under `par`'s thread budget. Bit-for-bit equal to the serial path, so
/// prefill, decode and the restoration recompute prefix stay deterministic
/// across thread counts.
pub fn layer_forward_par(
    cfg: &ModelConfig,
    lw: &LayerWeights,
    hidden: &Tensor2,
    cached_k: &Tensor2,
    cached_v: &Tensor2,
    start_pos: usize,
    par: &ParallelConfig,
) -> (Tensor2, Tensor2, Tensor2) {
    assert_eq!(
        cached_k.rows(),
        start_pos,
        "cache size vs start_pos mismatch"
    );
    let (q, new_k, new_v) = project_qkv_par(cfg, lw, hidden, start_pos, par);
    let attn = attention_split(
        cfg,
        &q,
        (cached_k, cached_v),
        (&new_k, &new_v),
        start_pos,
        par,
    );
    let proj = matmul_par(&attn, &lw.wo_t, par);
    let mut x = hidden.clone();
    x.add_assign(&proj); // residual 1
    let f = ffn_par(cfg, lw, &x, par);
    x.add_assign(&f); // residual 2
    (x, new_k, new_v)
}

/// Embedding lookup is a gather; exposed here so tests can cross-check with
/// the matmul formulation (`onehot · E`).
pub fn embed_gather(embed: &Tensor2, tokens: &[u32]) -> Tensor2 {
    let mut out = Tensor2::zeros(tokens.len(), embed.cols());
    for (i, &t) in tokens.iter().enumerate() {
        out.row_mut(i).copy_from_slice(embed.row(t as usize));
    }
    out
}

/// One-hot matmul embedding, reference implementation for tests.
pub fn embed_matmul(embed: &Tensor2, tokens: &[u32]) -> Tensor2 {
    let onehot = Tensor2::from_fn(tokens.len(), embed.rows(), |r, c| {
        if tokens[r] as usize == c {
            1.0
        } else {
            0.0
        }
    });
    matmul(&onehot, embed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::Model;
    use hc_tensor::assert_tensor_eq;
    use hc_tensor::gemm::matmul_nt;

    fn setup() -> (ModelConfig, Model) {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 42);
        (cfg, model)
    }

    #[test]
    fn project_kv_is_shared_with_qkv() {
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h = Tensor2::from_fn(5, cfg.d_model, |r, c| {
            ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6
        });
        let (_, k1, v1) = project_qkv(&cfg, lw, &h, 3);
        let (k2, v2) = project_kv(&cfg, lw, &h, 3);
        // Bitwise identical: same code path.
        assert_eq!(k1, k2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn attention_single_token_attends_to_itself_only() {
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h = Tensor2::from_fn(1, cfg.d_model, |_, c| (c % 5) as f32 * 0.2 - 0.4);
        let (q, k, v) = project_qkv(&cfg, lw, &h, 0);
        let out = attention(&cfg, &q, &k, &v, 0);
        // With one visible token, softmax weight is 1 -> output == V row.
        assert_tensor_eq(&out, &v, 1e-5);
    }

    #[test]
    fn attention_is_causal() {
        // Changing a *later* token's content must not change an earlier
        // token's attention output.
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h1 = Tensor2::from_fn(4, cfg.d_model, |r, c| ((r + c) % 7) as f32 * 0.1);
        let mut h2 = h1.clone();
        for c in 0..cfg.d_model {
            h2.set(3, c, 9.9); // perturb only the last token
        }
        let (q1, k1, v1) = project_qkv(&cfg, lw, &h1, 0);
        let (q2, k2, v2) = project_qkv(&cfg, lw, &h2, 0);
        let o1 = attention(&cfg, &q1, &k1, &v1, 0);
        let o2 = attention(&cfg, &q2, &k2, &v2, 0);
        for i in 0..3 {
            assert_eq!(o1.row(i), o2.row(i), "token {i} saw the future");
        }
        assert_ne!(o1.row(3), o2.row(3));
    }

    #[test]
    fn attention_with_cache_matches_monolithic() {
        // Running tokens [0..6) at once must equal running [0..3) then [3..6)
        // with the first half coming from the cache.
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h = Tensor2::from_fn(6, cfg.d_model, |r, c| ((r * 5 + c) % 11) as f32 * 0.1 - 0.5);

        let (q_all, k_all, v_all) = project_qkv(&cfg, lw, &h, 0);
        let mono = attention(&cfg, &q_all, &k_all, &v_all, 0);

        let h_a = h.slice_rows(0, 3);
        let h_b = h.slice_rows(3, 6);
        let (_, k_a, v_a) = project_qkv(&cfg, lw, &h_a, 0);
        let (q_b, k_b, v_b) = project_qkv(&cfg, lw, &h_b, 3);
        let k_cat = k_a.vcat(&k_b);
        let v_cat = v_a.vcat(&v_b);
        let split = attention(&cfg, &q_b, &k_cat, &v_cat, 3);

        for i in 0..3 {
            let mono_row = mono.row(3 + i);
            let split_row = split.row(i);
            for (a, b) in mono_row.iter().zip(split_row.iter()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn ffn_activation_dispatch() {
        // RMSNorm models use SiLU; LayerNorm models use GELU. Just check the
        // two paths produce different results on the same input/weights.
        let cfg_l = ModelConfig::tiny_llama();
        let m = Model::new(&cfg_l, 7);
        let mut cfg_o = cfg_l.clone();
        cfg_o.norm = NormKind::LayerNorm;
        let h = Tensor2::from_fn(2, cfg_l.d_model, |r, c| ((r + c) % 3) as f32 * 0.3);
        let a = ffn(&cfg_l, &m.layers[0], &h);
        let b = ffn(&cfg_o, &m.layers[0], &h);
        assert_ne!(a, b);
    }

    #[test]
    fn embed_gather_matches_matmul() {
        let embed = Tensor2::from_fn(16, 8, |r, c| (r * 8 + c) as f32 * 0.01);
        let tokens = vec![3u32, 0, 15, 7];
        assert_tensor_eq(
            &embed_gather(&embed, &tokens),
            &embed_matmul(&embed, &tokens),
            1e-6,
        );
    }

    #[test]
    #[should_panic(expected = "cache size vs start_pos mismatch")]
    fn layer_forward_checks_cache_alignment() {
        let (cfg, m) = setup();
        let h = Tensor2::zeros(2, cfg.d_model);
        let empty = Tensor2::zeros(0, cfg.d_model);
        let _ = layer_forward(&cfg, &m.layers[0], &h, &empty, &empty, 5);
    }

    #[test]
    fn attention_handles_zero_query_rows() {
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h = Tensor2::from_fn(3, cfg.d_model, |r, c| ((r + c) % 5) as f32 * 0.1);
        let (_, k, v) = project_qkv(&cfg, lw, &h, 0);
        let empty_q = Tensor2::zeros(0, cfg.d_model);
        for threads in [1, 4] {
            let out = attention_par(&cfg, &empty_q, &k, &v, 3, &ParallelConfig::new(threads));
            assert_eq!(out.shape(), (0, cfg.d_model));
        }
    }

    #[test]
    fn attention_par_is_bit_identical_across_thread_counts() {
        let (cfg, m) = setup();
        let lw = &m.layers[0];
        let h = Tensor2::from_fn(9, cfg.d_model, |r, c| {
            ((r * 13 + c * 3) % 17) as f32 * 0.1 - 0.8
        });
        let (q, k, v) = project_qkv(&cfg, lw, &h, 0);
        let serial = attention(&cfg, &q, &k, &v, 0);
        for threads in [1, 2, 3, 4, 8, 16] {
            let par = ParallelConfig::new(threads);
            assert_eq!(
                serial,
                attention_par(&cfg, &q, &k, &v, 0, &par),
                "attention diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn layer_forward_par_is_bit_identical_across_thread_counts() {
        let (cfg, m) = setup();
        let lw = &m.layers[1];
        let cached = Tensor2::from_fn(3, cfg.d_model, |r, c| ((r + c) % 5) as f32 * 0.2 - 0.3);
        let h = Tensor2::from_fn(4, cfg.d_model, |r, c| ((r * 7 + c) % 11) as f32 * 0.1 - 0.5);
        let (x0, k0, v0) = layer_forward(&cfg, lw, &h, &cached, &cached, 3);
        for threads in [2, 4, 8] {
            let par = ParallelConfig::new(threads);
            let (x, k, v) = layer_forward_par(&cfg, lw, &h, &cached, &cached, 3, &par);
            assert_eq!(x0, x, "hidden diverged at {threads} threads");
            assert_eq!(k0, k, "keys diverged at {threads} threads");
            assert_eq!(v0, v, "values diverged at {threads} threads");
        }
    }

    mod attention_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The head-parallel attention is bit-identical to the serial
            /// hand loop for any token count, cache depth and thread
            /// budget — the losslessness invariant of every parallel kernel
            /// in the workspace, extended to the last scalar hot loop.
            #[test]
            fn parallel_attention_matches_serial(
                n_new in 1usize..12,
                n_cached in 0usize..12,
                threads in 1usize..9,
                seed in 0u64..1000,
            ) {
                let cfg = ModelConfig::tiny_llama();
                let m = Model::new(&cfg, seed);
                let lw = &m.layers[0];
                let total = n_cached + n_new;
                let all = Tensor2::from_fn(total, cfg.d_model, |r, c| {
                    ((r * 31 + c * 7 + seed as usize) % 23) as f32 * 0.1 - 1.1
                });
                // K/V over all tokens; queries only for the new suffix.
                let (_, k, v) = project_qkv(&cfg, lw, &all, 0);
                let q_new = {
                    let suffix = all.slice_rows(n_cached, total);
                    let (q, _, _) = project_qkv(&cfg, lw, &suffix, n_cached);
                    q
                };
                let serial = attention(&cfg, &q_new, &k, &v, n_cached);
                let par = ParallelConfig::new(threads);
                let parallel = attention_par(&cfg, &q_new, &k, &v, n_cached, &par);
                prop_assert_eq!(serial, parallel);
            }

            /// A layer forward over a cache held apart from the new tokens
            /// is bit-identical to the reference it replaced: project,
            /// concatenate cached and new K/V, run `attention` over the
            /// copy — for any split point and thread budget.
            #[test]
            fn layer_forward_over_split_cache_matches_concatenated_attention(
                n_cached in 0usize..12,
                n_new in 1usize..12,
                threads in 1usize..9,
                seed in 0u64..1000,
            ) {
                let cfg = ModelConfig::tiny_llama();
                let m = Model::new(&cfg, seed);
                let lw = &m.layers[(seed % 4) as usize];
                let rows = |n: usize, salt: usize| Tensor2::from_fn(n, cfg.d_model, |r, c| {
                    ((r * 29 + c * 5 + salt + seed as usize) % 31) as f32 * 0.07 - 1.0
                });
                let (cached_k, cached_v) = (rows(n_cached, 1), rows(n_cached, 2));
                let hidden = rows(n_new, 3);

                let (q, new_k, new_v) = project_qkv(&cfg, lw, &hidden, n_cached);
                let attn = attention(
                    &cfg, &q, &cached_k.vcat(&new_k), &cached_v.vcat(&new_v), n_cached,
                );
                let mut expect = hidden.clone();
                expect.add_assign(&matmul_nt(&attn, &lw.wo));
                let f = ffn(&cfg, lw, &expect);
                expect.add_assign(&f);

                let par = ParallelConfig::new(threads);
                let (x, k, v) =
                    layer_forward_par(&cfg, lw, &hidden, &cached_k, &cached_v, n_cached, &par);
                let bits = |t: &Tensor2| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&x), bits(&expect));
                prop_assert_eq!(bits(&k), bits(&new_k));
                prop_assert_eq!(bits(&v), bits(&new_v));
            }
        }
    }
}
