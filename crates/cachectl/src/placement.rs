//! Per-session placement: which form each layer's state is cached in, and
//! the demotion ladder eviction walks under capacity pressure.
//!
//! A [`Placement`] is a per-layer [`LayerMethod`] vector upholding the
//! §4.1.2 invariant (recompute layers form a prefix — the forward pass can
//! only start from the embedding). Demotion converts the *first*
//! non-recompute layer to `Recompute` and deletes its streams, so the
//! prefix grows monotonically and every intermediate mix stays restorable:
//! eviction degrades a session's restore *time*, never its correctness.
//!
//! [`choose_placement`] is the admission-time decision: given the §3.2
//! closed-form per-layer costs ([`LayerCosts::closed_form`]) and the pool
//! quota, cache hidden states, fall back to KV, or drop to recompute —
//! always the fastest method whose storage footprint is feasible at all.

use hc_sched::cost::LayerCosts;
use hc_sched::partition::{LayerMethod, PartitionScheme};

/// A session's current per-layer cache placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    methods: Vec<LayerMethod>,
}

impl Placement {
    /// Builds a placement from a partition scheme.
    pub fn from_scheme(scheme: &PartitionScheme, n_layers: usize) -> Self {
        Self::from_methods(scheme.layer_methods(n_layers))
    }

    /// Builds a placement from an explicit method vector.
    ///
    /// # Panics
    /// Panics when recompute layers do not form a prefix.
    pub fn from_methods(methods: Vec<LayerMethod>) -> Self {
        let n_recompute = methods
            .iter()
            .take_while(|m| **m == LayerMethod::Recompute)
            .count();
        assert!(
            methods[n_recompute..]
                .iter()
                .all(|m| *m != LayerMethod::Recompute),
            "recompute layers must form a prefix (§4.1.2)"
        );
        Self { methods }
    }

    /// The fully-dropped placement (token-only session).
    pub fn dropped(n_layers: usize) -> Self {
        Self {
            methods: vec![LayerMethod::Recompute; n_layers],
        }
    }

    /// The current method vector.
    pub fn methods(&self) -> &[LayerMethod] {
        &self.methods
    }

    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.methods.len()
    }

    /// True when every layer recomputes (nothing cached).
    pub fn is_fully_dropped(&self) -> bool {
        self.methods.iter().all(|m| *m == LayerMethod::Recompute)
    }

    /// The layer the next demotion would drop (the first non-recompute
    /// layer), or `None` when fully dropped.
    pub fn next_demotable(&self) -> Option<usize> {
        self.methods
            .iter()
            .position(|m| *m != LayerMethod::Recompute)
    }

    /// Demotes the first non-recompute layer to `Recompute`; returns the
    /// layer index and the method it held (so the caller can delete the
    /// matching streams). `None` when already fully dropped.
    pub fn demote_first(&mut self) -> Option<(usize, LayerMethod)> {
        let l = self.next_demotable()?;
        let old = self.methods[l];
        self.methods[l] = LayerMethod::Recompute;
        Some((l, old))
    }

    /// Storage bytes per token under this placement: hidden layers store
    /// `D·e`, KV layers `2·D·e`, recompute layers nothing.
    pub fn bytes_per_token(&self, d_model: usize, elem_bytes: usize) -> u64 {
        let unit = (d_model * elem_bytes) as u64;
        self.methods
            .iter()
            .map(|m| match m {
                LayerMethod::Hidden => unit,
                LayerMethod::KvOffload => 2 * unit,
                LayerMethod::Recompute => 0,
            })
            .sum()
    }

    /// Estimated restore seconds of a history under this placement, from
    /// that history's per-layer costs. Hidden and KV layers charge their
    /// pipelined per-layer terms; recompute layers the per-layer prefill
    /// term.
    pub fn restore_secs(&self, c: &LayerCosts) -> f64 {
        restore_secs_of(&self.methods, c)
    }
}

/// [`Placement::restore_secs`] over a bare method slice — the same
/// numerics without constructing a `Placement`, so the controller's
/// structure-of-arrays eviction scan can cost interned mixes in place.
pub fn restore_secs_of(methods: &[LayerMethod], c: &LayerCosts) -> f64 {
    methods
        .iter()
        .map(|m| match m {
            // Transmission and projection pipeline: the slower stream.
            LayerMethod::Hidden => c.io_h.max(c.c_h),
            LayerMethod::KvOffload => c.io_kv,
            LayerMethod::Recompute => c.c_token,
        })
        .sum()
}

/// The admission-time placement decision for a whole session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementDecision {
    /// Cache hidden states (restore = transmit + project).
    Hidden,
    /// Cache the KV pairs (restore = transmit only, twice the bytes).
    KvOffload,
    /// Cache nothing; restore recomputes from tokens.
    Drop,
}

impl PlacementDecision {
    /// The pure partition scheme realizing this decision.
    pub fn scheme(&self, n_layers: usize) -> PartitionScheme {
        match self {
            PlacementDecision::Hidden => PartitionScheme::pure_hidden(n_layers),
            PlacementDecision::KvOffload => PartitionScheme {
                l_h: 0,
                l_o: n_layers,
                complement: LayerMethod::KvOffload,
            },
            PlacementDecision::Drop => PartitionScheme {
                l_h: 0,
                l_o: n_layers,
                complement: LayerMethod::Recompute,
            },
        }
    }
}

/// Picks the fastest-restoring method whose per-session storage footprint
/// is feasible against `quota_bytes` at all (dropping is always feasible).
/// `c` prices one layer of the session's history and `layer_bytes` is that
/// layer's hidden-state footprint (its KV footprint is twice that).
/// Cross-session pressure is not this function's job — the eviction ladder
/// handles it — so feasibility is against the whole quota, not current
/// headroom: a session bigger than the pool itself must never be admitted
/// in a cached form.
pub fn choose_placement(
    c: &LayerCosts,
    layer_bytes: u64,
    n_layers: usize,
    quota_bytes: u64,
) -> PlacementDecision {
    let unit = layer_bytes * n_layers as u64;
    let l = n_layers as f64;
    let mut candidates = vec![(c.c_token * l, 0u64, PlacementDecision::Drop)];
    if unit <= quota_bytes {
        candidates.push((c.io_h.max(c.c_h) * l, unit, PlacementDecision::Hidden));
    }
    if 2 * unit <= quota_bytes {
        candidates.push((c.io_kv * l, 2 * unit, PlacementDecision::KvOffload));
    }
    candidates
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
        // hc-analyze: allow(panic) candidates starts with the unconditional Drop entry, so min_by always sees one element
        .expect("Drop is always a candidate")
        .2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100(n_seq: u64) -> LayerCosts {
        LayerCosts::closed_form(n_seq, 4096, 2, 32e9, 312e12)
    }

    /// `choose_placement` for a 4-layer session priced by [`a100`].
    fn decide(n_seq: u64, quota_bytes: u64) -> PlacementDecision {
        choose_placement(&a100(n_seq), n_seq * 4096 * 2, 4, quota_bytes)
    }

    /// Golden prices of quota demotion: `restore_secs_of` bits for every
    /// rung of a 4-layer `[H, H, H, Kv]` ladder, and `choose_placement`'s
    /// decision either side of the hidden and KV footprints, at d = 4096
    /// on `ControllerConfig::with_quota`'s 32 GB/s and 312 TFLOP/s. A
    /// change that moves one bit here changes which sessions demotion
    /// picks.
    #[test]
    fn demotion_ladder_prices_are_golden() {
        use LayerMethod::{Hidden as H, KvOffload as Kv};
        const LADDER_BITS: [(u64, [u64; 5]); 4] = [
            (
                1,
                [
                    0x3eb5_798e_e230_8c3a,
                    0x3ec3_6a7f_53d1_1ca3,
                    0x3ecc_1837_3689_f329,
                    0x3ed2_62f7_8ca1_64d8,
                    0x3ed5_a6f2_bf7b_62b1,
                ],
            ),
            (
                64,
                [
                    0x3f15_798e_e230_8c3a,
                    0x3f23_6c46_048b_b145,
                    0x3f2c_1bc4_97ff_1c6e,
                    0x3f32_65a1_95b9_43cb,
                    0x3f35_aa80_20f0_8bf6,
                ],
            ),
            (
                704,
                [
                    0x3f4d_8724_7702_c0cf,
                    0x3f5a_cdaf_8131_5481,
                    0x3f63_6be6_6370_a44c,
                    0x3f69_70f5_0648_9e58,
                    0x3f6d_fc0e_a32d_41f4,
                ],
            ),
            (
                4096,
                [
                    0x3f75_798e_e230_8c3a,
                    0x3f83_ddf2_3330_d9f3,
                    0x3f8c_ff1c_f549_6dc9,
                    0x3f93_1023_dbb1_00d0,
                    0x3f96_8dd8_7e3a_dd51,
                ],
            ),
        ];
        for (n, bits) in LADDER_BITS {
            let c = a100(n);
            let mut p = Placement::from_methods(vec![H, H, H, Kv]);
            for (rung, want) in bits.into_iter().enumerate() {
                let got = restore_secs_of(p.methods(), &c).to_bits();
                assert_eq!(got, want, "n={n}, rung {rung}: {:?}", p.methods());
                p.demote_first();
            }
            assert!(p.is_fully_dropped());
        }
        use PlacementDecision::{Drop, Hidden};
        let decisions = [
            (1, [Drop, Hidden, Hidden, Hidden]),
            (64, [Drop, Hidden, Hidden, Hidden]),
            (704, [Drop, Hidden, Hidden, Hidden]),
            (4096, [Drop, Hidden, Hidden, Hidden]),
        ];
        for (n, want) in decisions {
            let unit = n * 4096 * 2 * 4;
            let got = [unit - 1, unit, 2 * unit - 1, 2 * unit].map(|q| decide(n, q));
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn demotion_ladder_walks_hidden_then_kv_into_a_growing_prefix() {
        let scheme = PartitionScheme {
            l_h: 2,
            l_o: 2,
            complement: LayerMethod::KvOffload,
        };
        let mut p = Placement::from_scheme(&scheme, 4);
        assert_eq!(p.demote_first(), Some((0, LayerMethod::Hidden)));
        assert_eq!(p.demote_first(), Some((1, LayerMethod::Hidden)));
        assert_eq!(p.demote_first(), Some((2, LayerMethod::KvOffload)));
        // Every intermediate state keeps the recompute prefix.
        assert_eq!(
            p.methods(),
            &[
                LayerMethod::Recompute,
                LayerMethod::Recompute,
                LayerMethod::Recompute,
                LayerMethod::KvOffload,
            ]
        );
        assert_eq!(p.demote_first(), Some((3, LayerMethod::KvOffload)));
        assert!(p.is_fully_dropped());
        assert_eq!(p.demote_first(), None);
    }

    #[test]
    fn recompute_complement_scheme_demotes_its_hidden_suffix() {
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::Recompute,
        };
        let mut p = Placement::from_scheme(&scheme, 4);
        assert_eq!(p.next_demotable(), Some(1));
        assert_eq!(p.demote_first(), Some((1, LayerMethod::Hidden)));
        Placement::from_methods(p.methods().to_vec()); // invariant holds
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn non_prefix_recompute_is_rejected() {
        Placement::from_methods(vec![
            LayerMethod::Hidden,
            LayerMethod::Recompute,
            LayerMethod::Hidden,
        ]);
    }

    #[test]
    fn bytes_per_token_counts_methods() {
        let p = Placement::from_methods(vec![
            LayerMethod::Recompute,
            LayerMethod::Hidden,
            LayerMethod::KvOffload,
        ]);
        assert_eq!(p.bytes_per_token(8, 2), 16 + 32);
    }

    #[test]
    fn restore_cost_orders_methods_as_figure1() {
        let c = a100(2048);
        let hidden = Placement::from_scheme(&PartitionScheme::pure_hidden(4), 4);
        let kv = Placement::from_scheme(&PlacementDecision::KvOffload.scheme(4), 4);
        let drop = Placement::dropped(4);
        assert!(hidden.restore_secs(&c) < kv.restore_secs(&c));
        assert!(kv.restore_secs(&c) < drop.restore_secs(&c));
    }

    #[test]
    fn placement_prefers_hidden_when_it_fits() {
        let c = a100(1024);
        assert_eq!(
            choose_placement(&c, 1024 * 4096 * 2, 4, u64::MAX),
            PlacementDecision::Hidden
        );
    }

    #[test]
    fn placement_drops_sessions_bigger_than_the_pool() {
        let c = a100(1024);
        let hidden_bytes = 1024 * 4096 * 2 * 4;
        assert_eq!(
            choose_placement(&c, 1024 * 4096 * 2, 4, hidden_bytes - 1),
            PlacementDecision::Drop
        );
    }

    #[test]
    fn placement_picks_kv_on_io_rich_compute_poor_platforms() {
        // A platform with huge bandwidth and weak compute: KV reload beats
        // hidden projection; pick KV when it fits.
        let c = LayerCosts::closed_form(4096, 4096, 2, 1e12, 1e12);
        assert_eq!(
            choose_placement(&c, 4096 * 4096 * 2, 4, u64::MAX),
            PlacementDecision::KvOffload
        );
    }
}
