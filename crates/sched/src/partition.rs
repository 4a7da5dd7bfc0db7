//! Layer-wise state partition (§4.1.2).

use crate::cost::{LayerCosts, Sec};

/// How one layer's state is stored and restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerMethod {
    /// Stored as hidden states; restored by transmission + projection.
    Hidden,
    /// Stored as KV cache; restored by transmission only.
    KvOffload,
    /// Stored as nothing (original tokens suffice); restored by full
    /// prefill compute.
    Recompute,
}

/// A complete layer-wise restoration scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionScheme {
    /// Number of layers managed via hidden states.
    pub l_h: usize,
    /// Number of layers managed via the complementary method.
    pub l_o: usize,
    /// The complementary method (`KvOffload` or `Recompute`;
    /// `Hidden` when `l_o == 0`).
    pub complement: LayerMethod,
}

impl PartitionScheme {
    /// Pure-HCache scheme (the HCache-O ablation variant).
    pub fn pure_hidden(n_layers: usize) -> Self {
        Self {
            l_h: n_layers,
            l_o: 0,
            complement: LayerMethod::Hidden,
        }
    }

    /// Per-layer methods: complementary layers first when recomputing
    /// (they gate the compute stream), last when offloading KV (their IO
    /// rides behind the hidden-state transmissions) — the orders §4.1.2
    /// describes.
    pub fn layer_methods(&self, n_layers: usize) -> Vec<LayerMethod> {
        assert_eq!(self.l_h + self.l_o, n_layers, "scheme does not cover model");
        let mut v = Vec::with_capacity(n_layers);
        match self.complement {
            LayerMethod::Recompute => {
                v.extend(std::iter::repeat_n(LayerMethod::Recompute, self.l_o));
                v.extend(std::iter::repeat_n(LayerMethod::Hidden, self.l_h));
            }
            _ => {
                v.extend(std::iter::repeat_n(LayerMethod::Hidden, self.l_h));
                v.extend(std::iter::repeat_n(self.complement, self.l_o));
            }
        }
        v
    }

    /// Per-token storage bytes of this scheme (Table 3's "Per Token Storage
    /// Cost"): hidden layers store `D`, KV layers `2D`, recompute layers 0.
    pub fn storage_bytes_per_token(&self, d_model: usize, elem_bytes: usize) -> u64 {
        let unit = (d_model * elem_bytes) as u64;
        let kv_layers = if self.complement == LayerMethod::KvOffload {
            self.l_o as u64
        } else {
            0
        };
        self.l_h as u64 * unit + kv_layers * 2 * unit
    }
}

/// Idealized makespan (the §4.1.2 min-max objective) of restoring
/// `n_layers` with `l_h` hidden layers and the rest via `complement`.
///
/// * KV complement: IO stream carries hidden then KV; compute stream only
///   the hidden projections → `max(C_H·L_H, IO_H·L_H + IO_KV·L_O)`.
/// * Recompute complement: compute stream recomputes `L_O` layers then
///   projects the `L_H` hidden layers; IO stream only carries hidden →
///   `max(C_T·L_O + C_H·L_H, IO_H·L_H)`.
pub fn makespan(costs: &LayerCosts, n_layers: usize, l_h: usize, complement: LayerMethod) -> Sec {
    assert!(l_h <= n_layers);
    let l_o = (n_layers - l_h) as f64;
    let l_h = l_h as f64;
    match complement {
        LayerMethod::Hidden => {
            assert_eq!(l_o, 0.0, "Hidden complement implies l_o == 0");
            (costs.c_h * l_h).max(costs.io_h * l_h)
        }
        LayerMethod::KvOffload => (costs.c_h * l_h).max(costs.io_h * l_h + costs.io_kv * l_o),
        LayerMethod::Recompute => (costs.c_token * l_o + costs.c_h * l_h).max(costs.io_h * l_h),
    }
}

/// Closed-form partition (§4.1.2). Picks the complement by comparing `C_H`
/// with `IO_H` and solves `L_H` so both streams finish together.
pub fn partition_closed_form(costs: &LayerCosts, n_layers: usize) -> PartitionScheme {
    assert!(n_layers > 0, "no layers");
    if costs.c_h > costs.io_h {
        // Compute-bound: fill transmission slack with KV offload.
        let denom = costs.io_kv + costs.c_h - costs.io_h;
        let l_h = ((n_layers as f64 * costs.io_kv) / denom).ceil() as usize;
        let l_h = l_h.min(n_layers);
        let l_o = n_layers - l_h;
        PartitionScheme {
            l_h,
            l_o,
            complement: if l_o == 0 {
                LayerMethod::Hidden
            } else {
                LayerMethod::KvOffload
            },
        }
    } else {
        // IO-bound: fill compute slack with token recomputation.
        let denom = costs.c_token + costs.io_h - costs.c_h;
        let l_h = ((n_layers as f64 * costs.c_token) / denom).ceil() as usize;
        let l_h = l_h.min(n_layers);
        let l_o = n_layers - l_h;
        PartitionScheme {
            l_h,
            l_o,
            complement: if l_o == 0 {
                LayerMethod::Hidden
            } else {
                LayerMethod::Recompute
            },
        }
    }
}

/// Brute-force min-max reference: tries every `L_H` with both complements.
pub fn partition_brute_force(costs: &LayerCosts, n_layers: usize) -> (PartitionScheme, Sec) {
    let mut best: Option<(PartitionScheme, Sec)> = None;
    for complement in [LayerMethod::KvOffload, LayerMethod::Recompute] {
        for l_h in 0..=n_layers {
            let t = makespan(costs, n_layers, l_h, complement);
            let scheme = PartitionScheme {
                l_h,
                l_o: n_layers - l_h,
                complement: if l_h == n_layers {
                    LayerMethod::Hidden
                } else {
                    complement
                },
            };
            if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                best = Some((scheme, t));
            }
        }
    }
    best.expect("n_layers > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn costs(io_h: f64, c_h: f64, c_token: f64) -> LayerCosts {
        LayerCosts {
            io_h,
            io_kv: 2.0 * io_h,
            c_h,
            c_token,
        }
    }

    #[test]
    fn compute_bound_platform_uses_kv_offload() {
        // C_H >> IO_H (slow GPU, fast IO) -> KV offload fills IO slack.
        let c = costs(1.0, 3.0, 18.0);
        let s = partition_closed_form(&c, 40);
        assert_eq!(s.complement, LayerMethod::KvOffload);
        assert!(s.l_o > 0);
        // From the formula: L_H = ceil(40*2 / (2+3-1)) = 20.
        assert_eq!(s.l_h, 20);
    }

    #[test]
    fn io_bound_platform_uses_recompute() {
        // IO_H >> C_H (fast GPU, slow IO) -> recompute fills compute slack.
        let c = costs(3.0, 1.0, 6.5);
        let s = partition_closed_form(&c, 40);
        assert_eq!(s.complement, LayerMethod::Recompute);
        assert!(s.l_o > 0);
        // L_H = ceil(40*6.5 / (6.5+3-1)) = ceil(30.58) = 31.
        assert_eq!(s.l_h, 31);
    }

    #[test]
    fn balanced_platform_stays_nearly_pure_hidden() {
        let c = costs(1.0, 1.0, 6.0);
        let s = partition_closed_form(&c, 32);
        assert!(
            s.l_h >= 30,
            "balanced hardware should be almost all hidden: {s:?}"
        );
    }

    #[test]
    fn closed_form_near_brute_force_optimum() {
        for (io_h, c_h, ct) in [
            (1.0, 0.2, 1.3),
            (1.0, 5.0, 31.0),
            (1.0, 1.01, 6.1),
            (0.1, 3.0, 19.0),
            (2.5, 0.4, 2.6),
        ] {
            let c = costs(io_h, c_h, ct);
            let n = 40;
            let s = partition_closed_form(&c, n);
            let t_closed = makespan(&c, n, s.l_h, s.complement);
            let (_, t_opt) = partition_brute_force(&c, n);
            // Ceil rounding costs at most one layer of the larger stream.
            let slack = c.io_kv.max(c.c_token);
            assert!(
                t_closed <= t_opt + slack + 1e-12,
                "closed {t_closed} vs opt {t_opt} for {c:?}"
            );
        }
    }

    #[test]
    fn bubble_free_property_streams_finish_together() {
        // At the closed-form split (before integer rounding) both streams
        // finish within one layer's worth of each other.
        let c = costs(1.0, 2.0, 13.0);
        let n = 48;
        let s = partition_closed_form(&c, n);
        assert_eq!(s.complement, LayerMethod::KvOffload);
        let compute = c.c_h * s.l_h as f64;
        let io = c.io_h * s.l_h as f64 + c.io_kv * s.l_o as f64;
        assert!(
            (compute - io).abs() <= c.c_h.max(c.io_kv) + 1e-12,
            "bubble: compute {compute} vs io {io}"
        );
    }

    #[test]
    fn scheme_layer_methods_order() {
        let s = PartitionScheme {
            l_h: 3,
            l_o: 2,
            complement: LayerMethod::Recompute,
        };
        let m = s.layer_methods(5);
        assert_eq!(&m[0..2], &[LayerMethod::Recompute, LayerMethod::Recompute]);
        assert_eq!(&m[2..5], &[LayerMethod::Hidden; 3]);

        let s2 = PartitionScheme {
            l_h: 3,
            l_o: 2,
            complement: LayerMethod::KvOffload,
        };
        let m2 = s2.layer_methods(5);
        assert_eq!(&m2[0..3], &[LayerMethod::Hidden; 3]);
        assert_eq!(&m2[3..5], &[LayerMethod::KvOffload; 2]);
    }

    #[test]
    fn storage_cost_matches_table3_ratios() {
        // Table 3: 7B = 31H+1KV vs 32 KV layers -> 1.94x saving;
        // 30B = 40H+8RE vs 48 KV layers -> 2.4x saving.
        let s7 = PartitionScheme {
            l_h: 31,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let cost7 = s7.storage_bytes_per_token(4096, 2);
        let kv7 = 32 * 2 * 4096 * 2u64;
        let ratio7 = kv7 as f64 / cost7 as f64;
        assert!((ratio7 - 1.94).abs() < 0.05, "7B ratio {ratio7}");

        let s30 = PartitionScheme {
            l_h: 40,
            l_o: 8,
            complement: LayerMethod::Recompute,
        };
        let cost30 = s30.storage_bytes_per_token(7168, 2);
        let kv30 = 48 * 2 * 7168 * 2u64;
        let ratio30 = kv30 as f64 / cost30 as f64;
        assert!((ratio30 - 2.4).abs() < 0.05, "30B ratio {ratio30}");
    }

    #[test]
    fn pure_hidden_scheme() {
        let s = PartitionScheme::pure_hidden(32);
        assert_eq!(s.l_h, 32);
        assert_eq!(s.layer_methods(32), vec![LayerMethod::Hidden; 32]);
        assert_eq!(s.storage_bytes_per_token(4096, 2), 32 * 4096 * 2);
    }

    #[test]
    fn makespan_edge_cases() {
        let c = costs(1.0, 2.0, 12.0);
        // Pure KV offload.
        assert_eq!(makespan(&c, 10, 0, LayerMethod::KvOffload), 20.0);
        // Pure recompute.
        assert_eq!(makespan(&c, 10, 0, LayerMethod::Recompute), 120.0);
        // Pure hidden.
        assert_eq!(makespan(&c, 10, 10, LayerMethod::Hidden), 20.0);
    }

    proptest! {
        #[test]
        fn closed_form_always_within_one_layer_of_optimum(
            io_h in 0.05f64..5.0,
            c_h_ratio in 0.05f64..6.0,
            ct_mult in 6.0f64..12.0,
            n_layers in 1usize..80,
        ) {
            let c_h = io_h * c_h_ratio;
            let c = LayerCosts {
                io_h,
                io_kv: 2.0 * io_h,
                c_h,
                c_token: c_h * ct_mult,
            };
            let s = partition_closed_form(&c, n_layers);
            prop_assert_eq!(s.l_h + s.l_o, n_layers);
            let t_closed = makespan(&c, n_layers, s.l_h, s.complement);
            let (_, t_opt) = partition_brute_force(&c, n_layers);
            let slack = c.io_kv.max(c.c_token) + 1e-9;
            prop_assert!(
                t_closed <= t_opt + slack,
                "closed {} vs opt {} (costs {:?}, n={})", t_closed, t_opt, c, n_layers
            );
        }

        #[test]
        fn scheduler_never_loses_to_pure_baselines(
            io_h in 0.05f64..5.0,
            c_h_ratio in 0.05f64..6.0,
            n_layers in 1usize..80,
        ) {
            let c = LayerCosts {
                io_h,
                io_kv: 2.0 * io_h,
                c_h: io_h * c_h_ratio,
                c_token: io_h * c_h_ratio * 7.0,
            };
            let s = partition_closed_form(&c, n_layers);
            let t = makespan(&c, n_layers, s.l_h, s.complement);
            let t_pure_h = makespan(&c, n_layers, n_layers, LayerMethod::Hidden);
            let t_pure_kv = makespan(&c, n_layers, 0, LayerMethod::KvOffload);
            // Within rounding slack of both pure methods.
            let slack = c.io_kv.max(c.c_token) + 1e-9;
            prop_assert!(t <= t_pure_h + slack);
            prop_assert!(t <= t_pure_kv + slack);
        }
    }
}
