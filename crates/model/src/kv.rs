//! The KV cache — the state HCache restores.

use hc_tensor::Tensor2;

use crate::config::ModelConfig;

/// Per-layer key/value tensors for one sequence.
///
/// Layout is tokens-major (`n_tokens × d_model` per tensor), matching the
/// activation layout, so a restored batch of tokens appends as contiguous
/// rows. Keys are stored **post-RoPE** (for RoPE models), exactly as the
/// attention kernel consumes them — this is also what KV-offload baselines
/// save and reload.
#[derive(Clone, Debug)]
pub struct KvCache {
    keys: Vec<Tensor2>,
    values: Vec<Tensor2>,
    d_model: usize,
}

impl KvCache {
    /// Creates an empty cache for `cfg.n_layers` layers.
    pub fn new(cfg: &ModelConfig) -> Self {
        Self {
            keys: (0..cfg.n_layers)
                .map(|_| Tensor2::zeros(0, cfg.d_model))
                .collect(),
            values: (0..cfg.n_layers)
                .map(|_| Tensor2::zeros(0, cfg.d_model))
                .collect(),
            d_model: cfg.d_model,
        }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.keys.len()
    }

    /// Number of tokens currently cached (identical across layers).
    pub fn n_tokens(&self) -> usize {
        self.keys.first().map_or(0, |k| k.rows())
    }

    /// Number of tokens cached at a specific layer. During layer-by-layer
    /// restoration layers fill at different times, so this can differ from
    /// [`Self::n_tokens`] transiently.
    pub fn n_tokens_at_layer(&self, layer: usize) -> usize {
        self.keys[layer].rows()
    }

    /// Keys at `layer` (`n_tokens × d_model`).
    pub fn keys(&self, layer: usize) -> &Tensor2 {
        &self.keys[layer]
    }

    /// Values at `layer`.
    pub fn values(&self, layer: usize) -> &Tensor2 {
        &self.values[layer]
    }

    /// Appends a batch of K/V rows at `layer`.
    ///
    /// # Panics
    /// Panics if the column width differs from `d_model` or K/V shapes
    /// disagree.
    pub fn append(&mut self, layer: usize, k: &Tensor2, v: &Tensor2) {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        assert_eq!(k.cols(), self.d_model, "KV width mismatch");
        self.keys[layer].append_rows(k);
        self.values[layer].append_rows(v);
    }

    /// Drops all cached tokens, keeping layer structure.
    pub fn clear(&mut self) {
        for t in self.keys.iter_mut().chain(self.values.iter_mut()) {
            *t = Tensor2::zeros(0, self.d_model);
        }
    }

    /// Truncates every layer to the first `n` tokens (used when rolling back
    /// speculative work in tests).
    pub fn truncate(&mut self, n: usize) {
        for t in self.keys.iter_mut().chain(self.values.iter_mut()) {
            t.truncate_rows(n);
        }
    }

    /// Truncates a single layer to its first `n` tokens, leaving every
    /// other layer untouched. The chunk-streaming restore uses this to
    /// roll back the one layer it is filling incrementally when a
    /// concurrent delete invalidates that layer's in-flight stream (the
    /// already-completed layers stay as placed).
    pub fn truncate_layer(&mut self, layer: usize, n: usize) {
        self.keys[layer].truncate_rows(n);
        self.values[layer].truncate_rows(n);
    }

    /// Total bytes this cache would occupy at `elem_bytes` per element.
    pub fn size_bytes(&self, elem_bytes: usize) -> usize {
        self.keys
            .iter()
            .zip(self.values.iter())
            .map(|(k, v)| (k.len() + v.len()) * elem_bytes)
            .sum()
    }

    /// True when every layer holds the same number of tokens — the invariant
    /// required before prefill/decode may run on top of this cache.
    pub fn is_consistent(&self) -> bool {
        let n = self.n_tokens();
        self.keys.iter().all(|k| k.rows() == n) && self.values.iter().all(|v| v.rows() == n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny_llama()
    }

    #[test]
    fn new_cache_is_empty_and_consistent() {
        let kv = KvCache::new(&tiny());
        assert_eq!(kv.n_tokens(), 0);
        assert_eq!(kv.n_layers(), tiny().n_layers);
        assert!(kv.is_consistent());
    }

    #[test]
    fn append_grows_one_layer() {
        let cfg = tiny();
        let mut kv = KvCache::new(&cfg);
        let k = Tensor2::from_fn(3, cfg.d_model, |r, c| (r + c) as f32);
        let v = Tensor2::from_fn(3, cfg.d_model, |r, c| (r * c) as f32);
        kv.append(0, &k, &v);
        assert_eq!(kv.n_tokens_at_layer(0), 3);
        assert_eq!(kv.n_tokens_at_layer(1), 0);
        assert!(!kv.is_consistent());
        for l in 1..cfg.n_layers {
            kv.append(l, &k, &v);
        }
        assert!(kv.is_consistent());
        assert_eq!(kv.n_tokens(), 3);
    }

    #[test]
    fn size_bytes_counts_k_and_v() {
        let cfg = tiny();
        let mut kv = KvCache::new(&cfg);
        let k = Tensor2::zeros(2, cfg.d_model);
        kv.append(0, &k, &k.clone());
        // 2 tokens * d * 2 tensors * 2 bytes
        assert_eq!(kv.size_bytes(2), 2 * cfg.d_model * 2 * 2);
    }

    #[test]
    fn clear_and_truncate() {
        let cfg = tiny();
        let mut kv = KvCache::new(&cfg);
        let k = Tensor2::zeros(5, cfg.d_model);
        for l in 0..cfg.n_layers {
            kv.append(l, &k, &k.clone());
        }
        kv.truncate(2);
        assert_eq!(kv.n_tokens(), 2);
        kv.clear();
        assert_eq!(kv.n_tokens(), 0);
        assert!(kv.is_consistent());
    }

    #[test]
    fn truncate_layer_rolls_back_one_layer_only() {
        let cfg = tiny();
        let mut kv = KvCache::new(&cfg);
        let k = Tensor2::from_fn(5, cfg.d_model, |r, c| (r * 7 + c) as f32);
        for l in 0..cfg.n_layers {
            kv.append(l, &k, &k.clone());
        }
        kv.truncate_layer(1, 2);
        assert_eq!(kv.n_tokens_at_layer(1), 2);
        assert_eq!(kv.n_tokens_at_layer(0), 5);
        assert!(!kv.is_consistent());
        // Surviving rows are untouched, and refilling restores consistency.
        assert_eq!(kv.keys(1).row(1), k.row(1));
        kv.append(1, &k.slice_rows(2, 5), &k.slice_rows(2, 5));
        assert!(kv.is_consistent());
        assert_eq!(kv.keys(1), kv.keys(0));
    }

    #[test]
    #[should_panic(expected = "KV width mismatch")]
    fn append_rejects_wrong_width() {
        let cfg = tiny();
        let mut kv = KvCache::new(&cfg);
        let bad = Tensor2::zeros(1, cfg.d_model + 1);
        kv.append(0, &bad, &bad.clone());
    }
}
