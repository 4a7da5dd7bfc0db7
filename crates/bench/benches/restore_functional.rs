//! Criterion benches for the functional restoration engine: even on CPU at
//! test scale, restoring from hidden states must be far cheaper than a full
//! prefill — the paper's compute claim, measured on real math.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{restore_session, save_session_state};
use hc_restore::reactor::{restore_sessions, RestoreRequest};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_tensor::ParallelConfig;
use std::hint::black_box;
use std::sync::Arc;

const N_TOKENS: usize = 128;

struct Fixture {
    model: Model,
    mgr: StorageManager<MemStore>,
    tokens: Vec<u32>,
}

/// A saved 128-token session over a four-device store and its IO reactor,
/// the shape `HCacheSystem` builds.
fn fixture(scheme: &PartitionScheme) -> Fixture {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 3);
    let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
        .with_reactor(Reactor::new(4, 2));
    let tokens: Vec<u32> = (0..N_TOKENS as u32).map(|i| (i * 37) % 256).collect();
    let mut kv = KvCache::new(&cfg);
    let out = model.prefill(&tokens, &mut kv, true);
    save_session_state(&model, &mgr, 1, &out.hidden_per_layer.unwrap(), &kv, scheme).unwrap();
    Fixture { model, mgr, tokens }
}

fn bench_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional_restore");
    group.sample_size(20);

    // Baseline: full prefill (token recomputation).
    let f = fixture(&PartitionScheme::pure_hidden(4));
    group.bench_function("recompute_prefill_128tok", |b| {
        b.iter(|| {
            let mut kv = KvCache::new(&f.model.cfg);
            f.model.prefill(black_box(&f.tokens), &mut kv, false);
            black_box(kv)
        })
    });

    // HCache: storage read + projection per layer.
    group.bench_function("hcache_restore_128tok", |b| {
        let scheme = PartitionScheme::pure_hidden(4);
        b.iter(|| {
            black_box(restore_session(&f.model, &f.mgr, 1, &f.tokens, N_TOKENS, &scheme).unwrap())
        })
    });

    // Mixed scheme (3 hidden + 1 KV).
    let scheme_kv = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    let f2 = fixture(&scheme_kv);
    group.bench_function("hcache_mixed_restore_128tok", |b| {
        b.iter(|| {
            black_box(
                restore_session(&f2.model, &f2.mgr, 1, &f2.tokens, N_TOKENS, &scheme_kv).unwrap(),
            )
        })
    });
    group.finish();
}

/// Sequential-vs-pipelined comparison group: the same restoration executed
/// by `restore_session` and by the restore state machine over the IO
/// reactor across thread budgets (results are bit-identical; only
/// wall-clock differs).
fn bench_restore_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional_restore_pipelined");
    group.sample_size(15);

    let scheme = PartitionScheme::pure_hidden(4);
    let f = fixture(&scheme);
    group.bench_function("sequential_128tok", |b| {
        b.iter(|| {
            black_box(restore_session(&f.model, &f.mgr, 1, &f.tokens, N_TOKENS, &scheme).unwrap())
        })
    });
    let methods = scheme.layer_methods(4);
    let request = RestoreRequest {
        session: 1,
        tokens: &f.tokens,
        n_tokens: N_TOKENS,
        methods: &methods,
    };
    for threads in [1usize, 2, 4] {
        let par = ParallelConfig::new(threads);
        group.bench_with_input(
            BenchmarkId::new("pipelined_128tok", threads),
            &par,
            |b, par| {
                b.iter(|| {
                    black_box(
                        restore_sessions(&f.model, &f.mgr, &[request], 1, 1, par)
                            .pop()
                            .unwrap()
                            .unwrap(),
                    )
                })
            },
        );
    }

    let scheme_mixed = PartitionScheme {
        l_h: 2,
        l_o: 2,
        complement: LayerMethod::Recompute,
    };
    let methods_mixed = scheme_mixed.layer_methods(4);
    let f2 = fixture(&scheme_mixed);
    let request_mixed = RestoreRequest {
        session: 1,
        tokens: &f2.tokens,
        n_tokens: N_TOKENS,
        methods: &methods_mixed,
    };
    group.bench_function("sequential_mixed_128tok", |b| {
        b.iter(|| {
            black_box(
                restore_session(&f2.model, &f2.mgr, 1, &f2.tokens, N_TOKENS, &scheme_mixed)
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(
        BenchmarkId::new("pipelined_mixed_128tok", 2usize),
        &ParallelConfig::new(2),
        |b, par| {
            b.iter(|| {
                black_box(
                    restore_sessions(&f2.model, &f2.mgr, &[request_mixed], 1, 1, par)
                        .pop()
                        .unwrap()
                        .unwrap(),
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_restore, bench_restore_pipelined);
criterion_main!(benches);
