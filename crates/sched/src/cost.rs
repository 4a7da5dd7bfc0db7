//! Per-layer restoration costs: the one cost type the scheduler, the
//! controller's placement pricing and the simulator's device profiles share.
//!
//! HCache's scheduler (§4.1.2) reads four per-layer quantities — `IO_H`,
//! `IO_KV`, `C_H` and `C_Token` — and solves for the hidden/complement
//! split. [`LayerCosts`] carries them. [`LayerCosts::closed_form`] prices
//! them with the §3.2 equations the paper derives for one MHA transformer
//! layer, kept verbatim (FMA = 2 FLOPs, FFN assumed `4·D` wide as in the
//! paper's derivation) so the analytical claims — 2× less IO, ≥6× less
//! compute, linear scaling — can be checked (Figure 1) independently of the
//! calibrated device models that also fill this type.

/// Time in seconds.
pub type Sec = f64;

/// Restoration costs of one layer at a specific context length — the
/// inputs to the §4.1.2 partition formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// Seconds to transmit one layer's hidden states host→GPU.
    pub io_h: Sec,
    /// Seconds to transmit one layer's KV cache host→GPU.
    pub io_kv: Sec,
    /// Seconds to recompute one layer's KV from hidden states (GEMM).
    pub c_h: Sec,
    /// Seconds of full prefill compute for one layer (token recomputation).
    pub c_token: Sec,
}

impl LayerCosts {
    /// The §3.2 closed forms for a history of `n_seq` tokens at hidden
    /// dimension `d_hidden`, `elem_bytes` per element, host→GPU
    /// `bandwidth` (B/s) and GPU `flops`:
    ///
    /// * `IO_H = N·D·e / BW`, `IO_KV = 2·IO_H`;
    /// * `C_H = 4·N·D² / FLOPS`;
    /// * `C_Token = C_attn + C_ffn` with `C_attn = (8·N·D² + N²·D) / FLOPS`
    ///   and `C_ffn = 16·N·D² / FLOPS` (ε omitted).
    pub fn closed_form(
        n_seq: u64,
        d_hidden: u64,
        elem_bytes: u64,
        bandwidth: f64,
        flops: f64,
    ) -> Self {
        let (n, d) = (n_seq, d_hidden);
        let io_h = (n * d * elem_bytes) as f64 / bandwidth;
        let c_attn = (8 * n * d * d + n * n * d) as f64 / flops;
        let c_ffn = (16 * n * d * d) as f64 / flops;
        Self {
            io_h,
            io_kv: 2.0 * io_h,
            c_h: (4 * n * d * d) as f64 / flops,
            c_token: c_attn + c_ffn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Closed-form costs together with the `N` and `D` they were priced at.
    struct Case {
        n_seq: u64,
        d_hidden: u64,
        costs: LayerCosts,
    }

    fn case(n_seq: u64, d_hidden: u64, bandwidth: f64, flops: f64) -> Case {
        Case {
            n_seq,
            d_hidden,
            costs: LayerCosts::closed_form(n_seq, d_hidden, 2, bandwidth, flops),
        }
    }

    fn a100_7b(n_seq: u64) -> Case {
        case(n_seq, 4096, 32e9, 312e12)
    }

    fn io_hidden(c: &Case) -> f64 {
        c.costs.io_h
    }

    fn io_kv(c: &Case) -> f64 {
        c.costs.io_kv
    }

    fn c_hidden(c: &Case) -> f64 {
        c.costs.c_h
    }

    fn t_recompute(c: &Case) -> f64 {
        c.costs.c_token
    }

    /// `T_hidden = max(IO_hidden, C_hidden)` — pipelined HCache restoration.
    fn t_hidden(c: &Case) -> f64 {
        c.costs.io_h.max(c.costs.c_h)
    }

    fn t_kv(c: &Case) -> f64 {
        c.costs.io_kv
    }

    /// The paper's compute-speedup closed form:
    /// `(24·N·D² + N²·D) / (4·N·D²) = 6 + N/(4·D)`.
    fn compute_speedup(c: &Case) -> f64 {
        6.0 + c.n_seq as f64 / (4.0 * c.d_hidden as f64)
    }

    #[test]
    fn io_ratio_is_exactly_two() {
        let c = a100_7b(1024);
        assert_eq!(io_kv(&c), 2.0 * io_hidden(&c));
    }

    #[test]
    fn compute_speedup_lower_bound_is_six() {
        let c = a100_7b(1);
        assert!(compute_speedup(&c) > 6.0);
        assert!((compute_speedup(&c) - 6.0) < 0.001);
    }

    #[test]
    fn speedup_formula_matches_ratio_of_closed_forms() {
        for n in [64, 1024, 16384] {
            let c = a100_7b(n);
            let ratio = t_recompute(&c) / c_hidden(&c);
            let formula = compute_speedup(&c);
            assert!(
                (ratio - formula).abs() / formula < 1e-9,
                "n={n}: {ratio} vs {formula}"
            );
        }
    }

    #[test]
    fn figure1_proportions() {
        // Figure 1: HCache uses ~1/6 the computation of recomputation and
        // ~1/2 the IO of KV offload.
        let c = a100_7b(2048);
        assert!(c_hidden(&c) / t_recompute(&c) <= 1.0 / 6.0 + 1e-6);
        assert_eq!(io_hidden(&c) / io_kv(&c), 0.5);
    }

    #[test]
    fn hidden_restoration_linear_recompute_quadratic() {
        let t1 = t_hidden(&a100_7b(4096));
        let t2 = t_hidden(&a100_7b(8192));
        assert!((t2 / t1 - 2.0).abs() < 1e-9, "HCache must scale linearly");
        let r1 = t_recompute(&a100_7b(4096));
        let r2 = t_recompute(&a100_7b(8192));
        assert!(r2 / r1 > 2.0, "recompute must scale superlinearly");
    }

    #[test]
    fn on_mainstream_platform_hcache_wins() {
        // §3.2 conclusion: on the A100 testbed HCache beats both baselines.
        for n in [256, 1024, 4096, 16384] {
            let c = a100_7b(n);
            assert!(t_hidden(&c) < t_kv(&c), "n={n}: vs KV offload");
            assert!(t_hidden(&c) < t_recompute(&c), "n={n}: vs recompute");
        }
    }

    proptest! {
        #[test]
        fn t_hidden_never_exceeds_either_baseline_beyond_model_limits(
            n in 1u64..100_000,
            d_exp in 10u32..14, // D in 1K..16K
            bw in 1e9f64..100e9,
            flops in 50e12f64..1000e12,
        ) {
            let c = case(n, 1u64 << d_exp, bw, flops);
            // HCache IO is half of KV offload IO, and its compute is at
            // least 6x less than recompute, so T_hidden can never lose to
            // BOTH baselines at once.
            let loses_to_kv = t_hidden(&c) > t_kv(&c) + 1e-15;
            let loses_to_rec = t_hidden(&c) > t_recompute(&c) + 1e-15;
            prop_assert!(!(loses_to_kv && loses_to_rec));
        }
    }
}
