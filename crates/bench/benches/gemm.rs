//! Criterion benches for the tensor kernels that restoration is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_model::{KvCache, Model, ModelConfig};
use hc_tensor::gemm::{matmul, matmul_nt, matmul_nt_naive, matmul_nt_par, matmul_par};
use hc_tensor::ops::softmax_inplace;
use hc_tensor::rope::{rope_row, DEFAULT_ROPE_BASE};
use hc_tensor::{ParallelConfig, Tensor2};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (256, 64, 64), (128, 128, 128)] {
        let a = Tensor2::from_fn(m, k, |r, q| ((r * 7 + q) % 13) as f32 * 0.1);
        let b = Tensor2::from_fn(k, n, |r, q| ((r + q * 3) % 11) as f32 * 0.1);
        group.bench_with_input(
            BenchmarkId::new("matmul", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(matmul(a, b))),
        );
        let bt = b.transpose();
        group.bench_with_input(
            BenchmarkId::new("matmul_nt", format!("{m}x{k}x{n}")),
            &(&a, &bt),
            |bench, (a, bt)| bench.iter(|| black_box(matmul_nt(a, bt))),
        );
    }
    group.finish();
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    group.sample_size(30);
    group.bench_function("softmax_1k", |b| {
        let xs: Vec<f32> = (0..1024).map(|i| (i % 97) as f32 * 0.05).collect();
        b.iter_batched(
            || xs.clone(),
            |mut v| softmax_inplace(black_box(&mut v)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("rope_row_4heads_64d", |b| {
        let row: Vec<f32> = (0..64).map(|i| i as f32 * 0.01).collect();
        b.iter_batched(
            || row.clone(),
            |mut r| rope_row(black_box(&mut r), 1234, 4, DEFAULT_ROPE_BASE),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Serial-vs-parallel comparison group: the naïve seed kernel, the blocked
/// serial kernel, and the row-parallel kernel across thread budgets. The
/// parallel kernels are bit-identical to the serial ones, so this group
/// measures pure wall-clock.
fn bench_gemm_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_parallel");
    group.sample_size(10);
    let (m, k, n) = (256usize, 256usize, 256usize);
    let a = Tensor2::from_fn(m, k, |r, q| ((r * 7 + q) % 13) as f32 * 0.1 - 0.6);
    let b = Tensor2::from_fn(k, n, |r, q| ((r + q * 3) % 11) as f32 * 0.1 - 0.5);
    let bt = b.transpose();

    group.bench_function("matmul_nt_naive_256", |bench| {
        bench.iter(|| black_box(matmul_nt_naive(&a, &bt)))
    });
    group.bench_function("matmul_nt_serial_256", |bench| {
        bench.iter(|| black_box(matmul_nt(&a, &bt)))
    });
    group.bench_function("matmul_serial_256", |bench| {
        bench.iter(|| black_box(matmul(&a, &b)))
    });
    for threads in [1usize, 2, 4, 8] {
        let par = ParallelConfig::new(threads);
        group.bench_with_input(
            BenchmarkId::new("matmul_nt_par_256", threads),
            &par,
            |bench, par| bench.iter(|| black_box(matmul_nt_par(&a, &bt, par))),
        );
        group.bench_with_input(
            BenchmarkId::new("matmul_par_256", threads),
            &par,
            |bench, par| bench.iter(|| black_box(matmul_par(&a, &b, par))),
        );
    }
    group.finish();
}

/// f16 bulk codec, serial vs parallel.
fn bench_f16_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16_codec");
    group.sample_size(10);
    let xs: Vec<f32> = (0..64 * 4096)
        .map(|i| (i % 997) as f32 * 0.013 - 6.0)
        .collect();
    let bytes = hc_tensor::f16::encode_f16(&xs);
    group.bench_function("encode_serial_256k", |b| {
        b.iter(|| black_box(hc_tensor::f16::encode_f16(&xs)))
    });
    group.bench_function("decode_serial_256k", |b| {
        b.iter(|| black_box(hc_tensor::f16::decode_f16(&bytes)))
    });
    for threads in [2usize, 4] {
        let par = ParallelConfig::new(threads);
        group.bench_with_input(
            BenchmarkId::new("encode_par_256k", threads),
            &par,
            |b, par| b.iter(|| black_box(hc_tensor::f16::encode_f16_par(&xs, par))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_par_256k", threads),
            &par,
            |b, par| b.iter(|| black_box(hc_tensor::f16::decode_f16_par(&bytes, par))),
        );
    }
    group.finish();
}

/// hcbench's fixture model (4 layers, d = 256): the shapes the end-to-end
/// numbers are made of.
fn bench_llama() -> ModelConfig {
    ModelConfig {
        name: "Bench-Llama".into(),
        d_model: 256,
        n_heads: 8,
        d_ff: 512,
        max_seq_len: 4096,
        ..ModelConfig::tiny_llama()
    }
}

/// One K projection of a restore at decode / short-prompt / chunk / history
/// sizes: the packed `k × n` weight through `matmul_par` (what the model
/// runs) beside `matmul_nt_par` on the `n × k` weight (which transposes it
/// on every call), under hcbench's two-thread budget.
fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("projection_256");
    group.sample_size(20);
    let model = Model::new(&bench_llama(), 7);
    let wk = &model.layers[0].wk;
    let wk_t = wk.transpose();
    let par = ParallelConfig::new(2);
    for rows in [1usize, 4, 64, 256] {
        let x = Tensor2::from_fn(rows, 256, |r, q| ((r * 7 + q) % 13) as f32 * 0.1 - 0.6);
        group.bench_with_input(BenchmarkId::new("packed", rows), &x, |bench, x| {
            bench.iter(|| black_box(matmul_par(x, &wk_t, &par)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_nt", rows), &x, |bench, x| {
            bench.iter(|| black_box(matmul_nt_par(x, wk, &par)))
        });
    }
    group.finish();
}

/// One decode step on an empty cache (pure per-call overhead plus the six
/// weight GEMMs of each layer) and on a 256-token cache (plus attention
/// over the history).
fn bench_decode_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_step");
    group.sample_size(20);
    let cfg = bench_llama();
    let model = Model::new(&cfg, 7);
    for cached in [0usize, 256] {
        let mut kv = KvCache::new(&cfg);
        let history: Vec<u32> = (0..cached as u32).map(|i| (i * 37) % 256).collect();
        model.prefill(&history, &mut kv, false);
        group.bench_function(BenchmarkId::new("cached_tokens", cached), |bench| {
            bench.iter(|| {
                let out = model.decode_step(1, &mut kv, true);
                kv.truncate(cached);
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_ops,
    bench_gemm_parallel,
    bench_f16_codec,
    bench_projection,
    bench_decode_step
);
criterion_main!(benches);
