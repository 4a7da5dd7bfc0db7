//! Model weights, the forward pass, and the restoration entry points.

use hc_tensor::Tensor2;

use crate::config::{ModelConfig, PosKind};
use crate::kv::KvCache;
use crate::layer;

/// Weights of one transformer layer. Projection matrices are stored
/// `out × in`, the layout activations multiply as `x · Wᵀ`; each also has
/// its `in × out` transpose packed once by [`LayerWeights::new`], which is
/// what the forward pass feeds the GEMM (`matmul(x, Wᵀ)`) so that no call
/// transposes a weight again. The packed copies are private and built only
/// there, and they are all the forward pass reads: writing to an `out × in`
/// field after construction is unsupported (it would change nothing the
/// model computes), and debug builds trip on it at the next K/V projection.
#[derive(Clone, Debug)]
pub struct LayerWeights {
    /// Query projection (`d × d`).
    pub wq: Tensor2,
    /// Key projection (`d × d`).
    pub wk: Tensor2,
    /// Value projection (`d × d`).
    pub wv: Tensor2,
    /// Attention output projection (`d × d`).
    pub wo: Tensor2,
    /// FFN up projection (`d_ff × d`).
    pub fc1: Tensor2,
    /// FFN down projection (`d × d_ff`).
    pub fc2: Tensor2,
    /// Pre-attention norm gain (`d`).
    pub attn_gain: Vec<f32>,
    /// Pre-attention norm bias (`d`, zero for RMSNorm models).
    pub attn_bias: Vec<f32>,
    /// Pre-FFN norm gain (`d`).
    pub ffn_gain: Vec<f32>,
    /// Pre-FFN norm bias (`d`).
    pub ffn_bias: Vec<f32>,
    pub(crate) wq_t: Tensor2,
    pub(crate) wk_t: Tensor2,
    pub(crate) wv_t: Tensor2,
    pub(crate) wo_t: Tensor2,
    pub(crate) fc1_t: Tensor2,
    pub(crate) fc2_t: Tensor2,
}

impl LayerWeights {
    /// Takes the six `out × in` projection matrices and packs their
    /// transposes; norm gains start at 1 and biases at 0 (`d` = the
    /// projections' input width).
    pub fn new(
        wq: Tensor2,
        wk: Tensor2,
        wv: Tensor2,
        wo: Tensor2,
        fc1: Tensor2,
        fc2: Tensor2,
    ) -> Self {
        let d = wq.cols();
        Self {
            wq_t: wq.transpose(),
            wk_t: wk.transpose(),
            wv_t: wv.transpose(),
            wo_t: wo.transpose(),
            fc1_t: fc1.transpose(),
            fc2_t: fc2.transpose(),
            wq,
            wk,
            wv,
            wo,
            fc1,
            fc2,
            attn_gain: vec![1.0; d],
            attn_bias: vec![0.0; d],
            ffn_gain: vec![1.0; d],
            ffn_bias: vec![0.0; d],
        }
    }

    /// Whether row 0 of every projection is still column 0 of its packed
    /// panel: the cheap tripwire behind the read-only contract.
    pub(crate) fn packed_in_step(&self) -> bool {
        [
            (&self.wq, &self.wq_t),
            (&self.wk, &self.wk_t),
            (&self.wv, &self.wv_t),
            (&self.wo, &self.wo_t),
            (&self.fc1, &self.fc1_t),
            (&self.fc2, &self.fc2_t),
        ]
        .iter()
        .all(|(w, w_t)| {
            let mut row = w.row(0).iter().enumerate();
            row.all(|(c, v)| w_t.get(c, 0).to_bits() == v.to_bits())
        })
    }
}

/// A decoder-only transformer with deterministic random weights.
pub struct Model {
    /// Architecture description.
    pub cfg: ModelConfig,
    /// Token embedding table (`vocab × d`).
    pub embed: Tensor2,
    /// Learned position embeddings (`max_seq × d`) for [`PosKind::Learned`]
    /// models; `None` for RoPE models.
    pub pos_embed: Option<Tensor2>,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

/// Output of a prefill pass.
pub struct PrefillOutput {
    /// Hidden states captured at the *input* of each layer
    /// (`n_layers` tensors of `n_new_tokens × d`). This is exactly the state
    /// HCache saves. `None` when capture was disabled.
    pub hidden_per_layer: Option<Vec<Tensor2>>,
    /// Output of the last layer for the new tokens (`n_new × d`).
    pub final_hidden: Tensor2,
}

/// Minimal deterministic generator for weight initialization (SplitMix64).
struct InitRng(u64);

impl InitRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-scale, scale)`.
    fn uniform(&mut self, scale: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
        (2.0 * u - 1.0) * scale
    }

    fn tensor(&mut self, rows: usize, cols: usize, scale: f32) -> Tensor2 {
        Tensor2::from_fn(rows, cols, |_, _| self.uniform(scale))
    }
}

impl Model {
    /// Builds a model with deterministic random weights.
    ///
    /// Weight *values* do not affect any of the paper's claims (which are
    /// about dataflow and sizes), but determinism matters so that tests and
    /// experiments are reproducible bit-for-bit from `seed`.
    ///
    /// # Panics
    /// Panics if asked to materialize a model too large for the functional
    /// engine (> ~64M parameters) — full-size configs are for the analytic
    /// models only.
    pub fn new(cfg: &ModelConfig, seed: u64) -> Self {
        let approx_params = Self::param_count_for(cfg);
        assert!(
            approx_params <= 64_000_000,
            "refusing to materialize {} (~{}M params) in the functional engine; \
             use a tiny_* config (perf models consume full-size configs analytically)",
            cfg.name,
            approx_params / 1_000_000
        );
        let mut rng = InitRng(seed ^ 0x5eed_0000);
        let d = cfg.d_model;
        let scale = 1.0 / (d as f32).sqrt();
        let embed = rng.tensor(cfg.vocab_size, d, scale);
        let pos_embed = match cfg.pos {
            PosKind::Learned => Some(rng.tensor(cfg.max_seq_len, d, scale)),
            PosKind::Rope => None,
        };
        let layers = (0..cfg.n_layers)
            .map(|_| {
                LayerWeights::new(
                    rng.tensor(d, d, scale),
                    rng.tensor(d, d, scale),
                    rng.tensor(d, d, scale),
                    rng.tensor(d, d, scale),
                    rng.tensor(cfg.d_ff, d, scale),
                    rng.tensor(d, cfg.d_ff, (cfg.d_ff as f32).sqrt().recip()),
                )
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            embed,
            pos_embed,
            layers,
        }
    }

    /// Parameter count implied by the shapes of `cfg`.
    pub fn param_count_for(cfg: &ModelConfig) -> u64 {
        let d = cfg.d_model as u64;
        let per_layer = 4 * d * d + 2 * d * (cfg.d_ff as u64) + 4 * d;
        let embed = (cfg.vocab_size as u64) * d;
        let pos = match cfg.pos {
            PosKind::Learned => (cfg.max_seq_len as u64) * d,
            PosKind::Rope => 0,
        };
        embed + pos + (cfg.n_layers as u64) * per_layer
    }

    /// Embeds `tokens` whose first element sits at absolute position
    /// `start_pos` (adds learned position embeddings when applicable).
    pub fn embed_tokens(&self, tokens: &[u32], start_pos: usize) -> Tensor2 {
        let mut h = layer::embed_gather(&self.embed, tokens);
        if let Some(pe) = &self.pos_embed {
            for i in 0..tokens.len() {
                let pos = start_pos + i;
                assert!(pos < pe.rows(), "position {pos} exceeds max_seq_len");
                for (dst, src) in h.row_mut(i).iter_mut().zip(pe.row(pos)) {
                    *dst += src;
                }
            }
        }
        h
    }

    /// Runs prefill for `tokens` on top of an existing KV cache (which may
    /// be empty or hold restored history). New K/V entries are appended to
    /// `kv`. When `capture_hidden` is set, the input hidden states of every
    /// layer are returned for saving — the HCache write path.
    ///
    /// # Panics
    /// Panics if `kv` is inconsistent (layers holding different token
    /// counts).
    pub fn prefill(&self, tokens: &[u32], kv: &mut KvCache, capture_hidden: bool) -> PrefillOutput {
        self.prefill_par(
            tokens,
            kv,
            capture_hidden,
            &hc_tensor::ParallelConfig::serial(),
        )
    }

    /// [`Model::prefill`] with every layer's GEMMs and attention head loop
    /// running under `par`'s thread budget. Bit-for-bit equal to the serial
    /// path at any thread count, so generations (and captured hidden
    /// states) are identical for every budget — only wall-clock changes.
    pub fn prefill_par(
        &self,
        tokens: &[u32],
        kv: &mut KvCache,
        capture_hidden: bool,
        par: &hc_tensor::ParallelConfig,
    ) -> PrefillOutput {
        assert!(kv.is_consistent(), "prefill requires a consistent KV cache");
        let start_pos = kv.n_tokens();
        let mut hidden = self.embed_tokens(tokens, start_pos);
        let mut captured = capture_hidden.then(Vec::new);
        for (l, lw) in self.layers.iter().enumerate() {
            if let Some(c) = captured.as_mut() {
                c.push(hidden.clone());
            }
            let (next, new_k, new_v) = layer::layer_forward_par(
                &self.cfg,
                lw,
                &hidden,
                kv.keys(l),
                kv.values(l),
                start_pos,
                par,
            );
            kv.append(l, &new_k, &new_v);
            hidden = next;
        }
        PrefillOutput {
            hidden_per_layer: captured,
            final_hidden: hidden,
        }
    }

    /// Decodes one token on top of the cache; returns the final hidden row
    /// and, when requested, the per-layer hidden states of this token (the
    /// rows HCache saves during generation).
    pub fn decode_step(
        &self,
        token: u32,
        kv: &mut KvCache,
        capture_hidden: bool,
    ) -> (Vec<f32>, Option<Vec<Vec<f32>>>) {
        let out = self.prefill(&[token], kv, capture_hidden);
        let final_row = out.final_hidden.row(0).to_vec();
        let per_layer = out
            .hidden_per_layer
            .map(|hs| hs.into_iter().map(|t| t.row(0).to_vec()).collect());
        (final_row, per_layer)
    }

    /// **HCache restore**: recompute K/V at `layer` from stored hidden
    /// states whose first row is absolute position `start_pos`.
    pub fn restore_layer_kv(
        &self,
        layer: usize,
        hidden: &Tensor2,
        start_pos: usize,
    ) -> (Tensor2, Tensor2) {
        layer::project_kv(&self.cfg, &self.layers[layer], hidden, start_pos)
    }

    /// [`Model::restore_layer_kv`] with the projection GEMMs running under
    /// `par`'s thread budget; bit-for-bit equal to the serial path.
    pub fn restore_layer_kv_par(
        &self,
        layer: usize,
        hidden: &Tensor2,
        start_pos: usize,
        par: &hc_tensor::ParallelConfig,
    ) -> (Tensor2, Tensor2) {
        layer::project_kv_par(&self.cfg, &self.layers[layer], hidden, start_pos, par)
    }

    /// Greedy next-token choice by similarity against the embedding table
    /// (weight-tied readout). Deterministic; used by examples to "generate".
    pub fn greedy_next_token(&self, final_hidden_row: &[f32]) -> u32 {
        let mut best = 0u32;
        let mut best_score = f32::NEG_INFINITY;
        for t in 0..self.cfg.vocab_size {
            let row = self.embed.row(t);
            let mut s = 0.0_f32;
            for (a, b) in final_hidden_row.iter().zip(row.iter()) {
                s += a * b;
            }
            if s > best_score {
                best_score = s;
                best = t as u32;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_tensor::assert_tensor_eq;

    fn model() -> Model {
        Model::new(&ModelConfig::tiny_llama(), 1234)
    }

    fn tokens(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = InitRng(seed);
        (0..n).map(|_| (rng.next_u64() % 256) as u32).collect()
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let a = Model::new(&ModelConfig::tiny_llama(), 7);
        let b = Model::new(&ModelConfig::tiny_llama(), 7);
        let c = Model::new(&ModelConfig::tiny_llama(), 8);
        assert_eq!(a.layers[0].wk, b.layers[0].wk);
        assert_ne!(a.layers[0].wk, c.layers[0].wk);
    }

    #[test]
    #[should_panic(expected = "refusing to materialize")]
    fn full_size_models_are_rejected_by_functional_engine() {
        let _ = Model::new(&ModelConfig::llama2_7b(), 0);
    }

    #[test]
    fn param_count_tracks_shapes() {
        let cfg = ModelConfig::tiny_llama();
        let m = model();
        let mut count = m.embed.len() as u64;
        for lw in &m.layers {
            count += (lw.wq.len() + lw.wk.len() + lw.wv.len() + lw.wo.len()) as u64;
            count += (lw.fc1.len() + lw.fc2.len()) as u64;
            count +=
                (lw.attn_gain.len() + lw.attn_bias.len() + lw.ffn_gain.len() + lw.ffn_bias.len())
                    as u64;
        }
        // attn_bias/ffn_bias are materialized but the analytic count folds
        // them into the 4d term; allow exact match via the same formula.
        assert_eq!(Model::param_count_for(&cfg), count);
    }

    #[test]
    fn prefill_fills_kv_for_all_layers() {
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        let out = m.prefill(&tokens(10, 1), &mut kv, true);
        assert_eq!(kv.n_tokens(), 10);
        assert!(kv.is_consistent());
        let hs = out.hidden_per_layer.unwrap();
        assert_eq!(hs.len(), m.cfg.n_layers);
        assert_eq!(hs[0].shape(), (10, m.cfg.d_model));
        assert_eq!(out.final_hidden.shape(), (10, m.cfg.d_model));
    }

    #[test]
    fn restored_kv_is_bitwise_equal_to_prefill_kv() {
        // THE core paper claim: K/V recomputed from hidden states equal the
        // K/V a full forward pass produced. Bitwise, because both run the
        // same projection code on the same inputs.
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        let out = m.prefill(&tokens(17, 2), &mut kv, true);
        let hs = out.hidden_per_layer.unwrap();
        for (l, h) in hs.iter().enumerate() {
            let (k, v) = m.restore_layer_kv(l, h, 0);
            assert_eq!(&k, kv.keys(l), "layer {l} keys differ");
            assert_eq!(&v, kv.values(l), "layer {l} values differ");
        }
    }

    #[test]
    fn restored_kv_continues_generation_identically() {
        // End-to-end: decode after restoration == decode after prefill.
        let m = model();
        let prompt = tokens(12, 3);

        let mut kv_ref = KvCache::new(&m.cfg);
        let cap = m.prefill(&prompt, &mut kv_ref, true);
        let (ref_row, _) = m.decode_step(42, &mut kv_ref, false);

        // Rebuild the cache purely from hidden states.
        let hs = cap.hidden_per_layer.unwrap();
        let mut kv_restored = KvCache::new(&m.cfg);
        for (l, h) in hs.iter().enumerate() {
            let (k, v) = m.restore_layer_kv(l, h, 0);
            kv_restored.append(l, &k, &v);
        }
        let (restored_row, _) = m.decode_step(42, &mut kv_restored, false);
        assert_eq!(ref_row, restored_row);
    }

    #[test]
    fn chunked_prefill_matches_monolithic() {
        // SplitFuse-style chunked prefill must produce the same KV cache.
        let m = model();
        let toks = tokens(16, 4);

        let mut kv_mono = KvCache::new(&m.cfg);
        m.prefill(&toks, &mut kv_mono, false);

        let mut kv_chunked = KvCache::new(&m.cfg);
        m.prefill(&toks[0..5], &mut kv_chunked, false);
        m.prefill(&toks[5..11], &mut kv_chunked, false);
        m.prefill(&toks[11..16], &mut kv_chunked, false);

        assert_eq!(kv_mono.n_tokens(), kv_chunked.n_tokens());
        for l in 0..m.cfg.n_layers {
            let km = kv_mono.keys(l);
            let kc = kv_chunked.keys(l);
            assert_tensor_eq(km, kc, 1e-4);
            assert_tensor_eq(kv_mono.values(l), kv_chunked.values(l), 1e-4);
        }
    }

    #[test]
    fn decode_step_appends_one_token() {
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        m.prefill(&tokens(4, 5), &mut kv, false);
        let (row, captured) = m.decode_step(7, &mut kv, true);
        assert_eq!(kv.n_tokens(), 5);
        assert_eq!(row.len(), m.cfg.d_model);
        let hs = captured.unwrap();
        assert_eq!(hs.len(), m.cfg.n_layers);
        assert_eq!(hs[0].len(), m.cfg.d_model);
    }

    #[test]
    fn learned_positions_make_restore_pure_projection() {
        // OPT-style model: no RoPE; hidden states at a layer fully determine
        // K/V regardless of claimed start_pos.
        let cfg = ModelConfig::tiny_opt();
        let m = Model::new(&cfg, 99);
        let mut kv = KvCache::new(&cfg);
        let out = m.prefill(&tokens(8, 6), &mut kv, true);
        let hs = out.hidden_per_layer.unwrap();
        let (k0, _) = m.restore_layer_kv(1, &hs[1], 0);
        let (k5, _) = m.restore_layer_kv(1, &hs[1], 5);
        assert_eq!(k0, k5, "learned-pos restore must ignore start_pos");
        assert_eq!(&k0, kv.keys(1));
    }

    #[test]
    fn rope_models_depend_on_start_pos() {
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        let out = m.prefill(&tokens(8, 7), &mut kv, true);
        let hs = out.hidden_per_layer.unwrap();
        let (k0, _) = m.restore_layer_kv(1, &hs[1], 0);
        let (k5, _) = m.restore_layer_kv(1, &hs[1], 5);
        assert_ne!(k0, k5, "RoPE restore must honor original positions");
    }

    #[test]
    fn restore_partial_suffix_with_offset() {
        // Restore only tokens [4..12) of a 12-token history at correct
        // positions — what token-wise partitioning does.
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        let out = m.prefill(&tokens(12, 8), &mut kv, true);
        let hs = out.hidden_per_layer.unwrap();
        for (l, h) in hs.iter().enumerate() {
            let tail = h.slice_rows(4, 12);
            let (k, v) = m.restore_layer_kv(l, &tail, 4);
            let expect_k = kv.keys(l).slice_rows(4, 12);
            let expect_v = kv.values(l).slice_rows(4, 12);
            assert_eq!(k, expect_k, "layer {l}");
            assert_eq!(v, expect_v, "layer {l}");
        }
    }

    #[test]
    fn parallel_prefill_is_bit_identical_to_serial() {
        let m = model();
        let toks = tokens(20, 11);
        let mut kv_serial = KvCache::new(&m.cfg);
        let out_serial = m.prefill(&toks, &mut kv_serial, true);
        for threads in [2, 4, 8] {
            let par = hc_tensor::ParallelConfig::new(threads);
            let mut kv_par = KvCache::new(&m.cfg);
            let out_par = m.prefill_par(&toks, &mut kv_par, true, &par);
            assert_eq!(out_serial.final_hidden, out_par.final_hidden);
            assert_eq!(
                out_serial.hidden_per_layer.as_ref().unwrap(),
                out_par.hidden_per_layer.as_ref().unwrap()
            );
            for l in 0..m.cfg.n_layers {
                assert_eq!(kv_serial.keys(l), kv_par.keys(l), "layer {l}");
                assert_eq!(kv_serial.values(l), kv_par.values(l), "layer {l}");
            }
        }
    }

    #[test]
    fn greedy_next_token_is_deterministic() {
        let m = model();
        let mut kv = KvCache::new(&m.cfg);
        let out = m.prefill(&tokens(6, 9), &mut kv, false);
        let t1 = m.greedy_next_token(out.final_hidden.row(5));
        let t2 = m.greedy_next_token(out.final_hidden.row(5));
        assert_eq!(t1, t2);
        assert!((t1 as usize) < m.cfg.vocab_size);
    }

    #[test]
    fn packed_panels_are_the_transposes_of_the_weights() {
        for cfg in [ModelConfig::tiny_llama(), ModelConfig::tiny_opt()] {
            for (l, lw) in Model::new(&cfg, 5).layers.iter().enumerate() {
                let pairs = [
                    (&lw.wq, &lw.wq_t),
                    (&lw.wk, &lw.wk_t),
                    (&lw.wv, &lw.wv_t),
                    (&lw.wo, &lw.wo_t),
                    (&lw.fc1, &lw.fc1_t),
                    (&lw.fc2, &lw.fc2_t),
                ];
                for (i, (w, w_t)) in pairs.into_iter().enumerate() {
                    assert_eq!(&w.transpose(), w_t, "{} layer {l} weight {i}", cfg.name);
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written to after construction")]
    fn writing_to_a_projection_after_construction_trips_the_debug_guard() {
        let mut m = model();
        m.layers[2].wv.set(0, 3, 0.5);
        let h = Tensor2::zeros(1, m.cfg.d_model);
        let _ = m.restore_layer_kv(2, &h, 0);
    }

    /// FNV-1a over the little-endian f32 bit patterns of `t`.
    fn fnv1a_bits(hash: &mut u64, t: &Tensor2) {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                *hash ^= u64::from(b);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// `(forward, restore)` hashes: every layer's K and V after a 70-token
    /// prefill + 8 greedy decode steps, and `restore_layer_kv` of the
    /// prefill's captured hidden states.
    fn golden_hashes(cfg: &ModelConfig) -> (u64, u64) {
        let m = Model::new(cfg, 1234);
        let mut kv = KvCache::new(cfg);
        let out = m.prefill(&tokens(70, 21), &mut kv, true);
        let mut tok = 5u32;
        for _ in 0..8 {
            let (row, _) = m.decode_step(tok, &mut kv, false);
            tok = m.greedy_next_token(&row);
        }
        let mut forward = 0xcbf2_9ce4_8422_2325_u64;
        for l in 0..cfg.n_layers {
            fnv1a_bits(&mut forward, kv.keys(l));
            fnv1a_bits(&mut forward, kv.values(l));
        }
        let mut restore = 0xcbf2_9ce4_8422_2325_u64;
        for (l, h) in out.hidden_per_layer.unwrap().iter().enumerate() {
            let (k, v) = m.restore_layer_kv(l, h, 0);
            fnv1a_bits(&mut restore, &k);
            fnv1a_bits(&mut restore, &v);
        }
        (forward, restore)
    }

    #[test]
    fn forward_and_restore_bits_match_the_golden_hashes() {
        // Constants computed with this very function at commit 14e78e0,
        // the last one with the transposing, untiled GEMM. The other
        // oracles prove the paths agree with each other; this one that
        // none of them has moved a bit since. A mismatch means every
        // stored and restored state changed — never refresh the constants
        // to make a kernel change pass.
        assert_eq!(
            golden_hashes(&ModelConfig::tiny_llama()),
            (0x2f0f_6fc6_7ac7_50fa, 0x89ad_6f65_130a_ff9c)
        );
        assert_eq!(
            golden_hashes(&ModelConfig::tiny_opt()),
            (0x6e4e_b84b_9a1a_cf8d, 0xdc9f_e33d_5933_8f7d)
        );
    }
}
