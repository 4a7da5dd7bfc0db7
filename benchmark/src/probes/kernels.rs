//! `hc-tensor`, `hc-model` and `hc-sched` probes on the workload's median
//! history length.

use std::hint::black_box;

use hc_model::{KvCache, Model};
use hc_sched::partition::partition_closed_form;
use hc_simhw::profile::LayerCosts;
use hc_tensor::f16::{decode_f16_par, encode_f16_par};
use hc_tensor::gemm::{gemm_flops, matmul_nt_par};
use hc_workload::rng::Rng;

use super::{synthetic_rows, time_calls, Values};
use crate::fixture::par;
use crate::stats::median;

/// `n_tokens`: the workload's median history; `memcpy_gbps` from the host
/// probe, the codec's ceiling.
pub fn probe(model: &Model, n_tokens: usize, memcpy_gbps: f64) -> Values {
    let cfg = &model.cfg;
    let par = par();
    let mut rng = Rng::new(0x6b65_726e);
    let hidden = synthetic_rows(&mut rng, n_tokens, cfg.d_model);

    // The K (or V) projection of one layer's restore.
    let wk = &model.layers[0].wk;
    let gemm_s = median(&time_calls(9, || {
        black_box(matmul_nt_par(black_box(&hidden), wk, &par));
    }));
    let gemm_gflops = gemm_flops(n_tokens, cfg.d_model, wk.rows()) as f64 / gemm_s / 1e9;

    // The codec on one layer's hidden states. Rates count encoded bytes.
    let encoded = encode_f16_par(hidden.as_slice(), &par);
    let decode_s = median(&time_calls(15, || {
        black_box(decode_f16_par(black_box(&encoded), &par));
    }));
    let encode_s = median(&time_calls(15, || {
        black_box(encode_f16_par(black_box(hidden.as_slice()), &par));
    }));
    let decode_gbps = encoded.len() as f64 / decode_s / 1e9;

    let layer_kv_s = median(&time_calls(9, || {
        black_box(model.restore_layer_kv_par(0, black_box(&hidden), 0, &par));
    }));

    let prompt: Vec<u32> = (0..n_tokens)
        .map(|_| rng.below(cfg.vocab_size as u64) as u32)
        .collect();
    let mut kv = KvCache::new(cfg);
    let prefill_s = median(&time_calls(3, || {
        kv.clear();
        black_box(model.prefill_par(&prompt, &mut kv, true, &par));
    }));
    // Decode on top of the prefilled history, capturing hidden states as
    // a serving round does.
    let decode_step_s = median(&time_calls(15, || {
        black_box(model.decode_step(1, &mut kv, true));
    }));

    let costs = LayerCosts {
        io_h: 1.0e-3,
        io_kv: 2.0e-3,
        c_h: 0.6e-3,
        c_token: 4.0e-3,
    };
    const SOLVES: usize = 2000;
    let solve_s = median(&time_calls(5, || {
        for _ in 0..SOLVES {
            black_box(partition_closed_form(black_box(&costs), cfg.n_layers));
        }
    })) / SOLVES as f64;

    vec![
        ("tensor.gemm_proj_gflops", gemm_gflops),
        ("tensor.f16_decode_gbps", decode_gbps),
        ("tensor.f16_decode_vs_memcpy", decode_gbps / memcpy_gbps),
        (
            "tensor.f16_encode_gbps",
            encoded.len() as f64 / encode_s / 1e9,
        ),
        ("model.restore_layer_kv_ms", layer_kv_s * 1e3),
        (
            "model.prefill_ms_per_token",
            prefill_s * 1e3 / n_tokens as f64,
        ),
        ("model.decode_step_ms_p50", decode_step_s * 1e3),
        ("sched.partition_solve_us", solve_s * 1e6),
    ]
}
