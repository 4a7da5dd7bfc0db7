//! End-to-end tests of the capacity control plane (`hc-cachectl`): the
//! ISSUE-2 acceptance matrix. Under any quota and eviction policy, every
//! restored `KvCache` must be **bit-identical to the sequential restore of
//! the session's surviving method mix** — eviction demotes, it never
//! corrupts — and stay within f16 tolerance of a fresh replay of the
//! conversation (layers demoted to recompute are bit-exact).

use std::sync::Arc;

use hc_cachectl::policy::PolicyKind;
use hc_cachectl::scheduler::{RestoreJob, RestoreScheduler};
use hc_cachectl::{CacheController, ControllerConfig};
use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{kv_max_error, restore_session_with_methods, save_session_state};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_tensor::ParallelConfig;
use hcache::HCacheSystem;

fn scheme_mixes(n_layers: usize) -> Vec<PartitionScheme> {
    vec![
        PartitionScheme::pure_hidden(n_layers),
        PartitionScheme {
            l_h: n_layers - 1,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        },
        PartitionScheme {
            l_h: n_layers - 1,
            l_o: 1,
            complement: LayerMethod::Recompute,
        },
    ]
}

/// The acceptance criterion, across scheme mixes × policies × quotas:
/// drive multi-round sessions through a quota-governed `HCacheSystem`,
/// then check every session's restored cache against the sequential
/// methods-based restore (bit-identical) and a fresh replay (f16-bounded).
#[test]
fn restores_are_bit_identical_to_sequential_under_any_quota_and_policy() {
    let cfg = ModelConfig::tiny_llama();
    let tight = 3 * 64 * 64 * 2; // three D=64 chunks: forces demotions
    for scheme in scheme_mixes(cfg.n_layers) {
        for policy in [PolicyKind::Lru, PolicyKind::CostAware] {
            for quota in [u64::MAX, tight] {
                let mut sys = HCacheSystem::with_store_parallel(
                    &cfg,
                    17,
                    Arc::new(MemStore::new(2)),
                    scheme.clone(),
                    ParallelConfig::new(2),
                )
                .with_cache_controller(
                    ControllerConfig::with_quota(quota)
                        .with_policy(policy)
                        .with_expected_tokens(16),
                );
                let mut sids = Vec::new();
                for i in 0..3u32 {
                    let sid = sys.open_session();
                    let prompt: Vec<u32> = (0..18).map(|j| (i * 18 + j) % 256).collect();
                    sys.round(sid, &prompt, 4).unwrap();
                    sys.round(sid, &[i, i + 1], 3).unwrap();
                    sids.push(sid);
                }
                let ctl = sys.controller().unwrap();
                assert!(
                    ctl.used_bytes() <= quota,
                    "quota violated: scheme {scheme:?} policy {policy:?}"
                );
                if quota == tight {
                    assert!(
                        ctl.metrics().demotions > 0,
                        "tight quota must demote: scheme {scheme:?} policy {policy:?}"
                    );
                }
                for &sid in &sids {
                    let methods = ctl.session_methods(sid).unwrap();
                    let tokens = sys.session_tokens(sid).unwrap().to_vec();
                    let restored = sys.restore(sid).unwrap();
                    assert_eq!(restored.n_tokens(), tokens.len());
                    let seq = restore_session_with_methods(
                        sys.model(),
                        ctl.mgr(),
                        sid,
                        &tokens,
                        tokens.len(),
                        &methods,
                    )
                    .unwrap();
                    assert_eq!(
                        kv_max_error(&restored, &seq),
                        0.0,
                        "controller restore diverged: scheme {scheme:?} policy {policy:?} quota {quota}"
                    );
                    // Fresh-replay reference: demotions must not push the
                    // cache beyond f16 storage noise.
                    let model = Model::new(&cfg, 17);
                    let mut reference = KvCache::new(&cfg);
                    model.prefill(&tokens, &mut reference, false);
                    let err = kv_max_error(&restored, &reference);
                    assert!(
                        err < 0.05,
                        "restored cache deviates ({err}): scheme {scheme:?} policy {policy:?}"
                    );
                }
            }
        }
    }
}

/// Concurrent scheduling never changes results: N workers of the reactor
/// batch over one shared budget produce bit-identical caches to
/// one-at-a-time sequential restores, and aggregate work completes for
/// every worker count.
#[test]
fn restore_scheduler_is_bit_identical_to_sequential_at_any_worker_count() {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 23);
    let mgr = Arc::new(
        StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
            .with_reactor(Reactor::new(4, 2)),
    );
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let scheme = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    const N_TOKENS: usize = 80;
    let mut jobs = Vec::new();
    let mut references = Vec::new();
    for s in 1..=6u64 {
        let methods = ctl.open_session(s, &scheme);
        let tokens: Vec<u32> = (0..N_TOKENS as u32)
            .map(|i| (i * 11 + s as u32 * 7) % 256)
            .collect();
        let mut kv = KvCache::new(&cfg);
        let out = model.prefill(&tokens, &mut kv, true);
        save_session_state(
            &model,
            &mgr,
            s,
            &out.hidden_per_layer.unwrap(),
            &kv,
            &scheme,
        )
        .unwrap();
        ctl.on_saved(s, N_TOKENS as u64).unwrap();
        let seq =
            restore_session_with_methods(&model, &mgr, s, &tokens, N_TOKENS, &methods).unwrap();
        jobs.push(RestoreJob { session: s, tokens });
        references.push(seq);
    }
    for workers in [1usize, 2, 4] {
        let sched = RestoreScheduler::new(workers, ParallelConfig::new(4));
        let results = sched.run(&model, &ctl, &jobs);
        assert_eq!(results.len(), jobs.len());
        for (i, (session, result)) in results.into_iter().enumerate() {
            assert_eq!(session, jobs[i].session, "order preserved");
            let kv = result.unwrap();
            assert_eq!(
                kv_max_error(&kv, &references[i]),
                0.0,
                "session {session} diverged at {workers} workers"
            );
        }
    }
    // Every scheduled restore was a hit.
    assert_eq!(ctl.metrics().restore_hits as usize, 3 * jobs.len());
}

/// A panicking backend under exactly one session's stream fails that one
/// scheduled job with a typed storage error — the batch's workers survive
/// and every healthy session still restores bit-identically.
#[test]
fn restore_scheduler_fails_one_job_on_prefetch_panic_without_tearing_down() {
    use hc_storage::backend::{ChunkStore, StoreStats};
    use hc_storage::chunk::ChunkKey;
    use hc_storage::StreamId;

    /// MemStore that panics on reads of one poisoned (session, layer).
    struct PanicStore {
        inner: MemStore,
        poison_session: u64,
        poison_layer: u32,
    }

    impl ChunkStore for PanicStore {
        fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), hc_storage::StorageError> {
            self.inner.write_chunk(key, data)
        }
        fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, hc_storage::StorageError> {
            assert!(
                !(key.stream.session == self.poison_session
                    && key.stream.layer == self.poison_layer),
                "poisoned chunk read"
            );
            self.inner.read_chunk(key)
        }
        fn contains(&self, key: ChunkKey) -> bool {
            self.inner.contains(key)
        }
        fn delete_stream(&self, stream: StreamId) -> u64 {
            self.inner.delete_stream(stream)
        }
        fn n_devices(&self) -> usize {
            self.inner.n_devices()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 31);
    let store = Arc::new(PanicStore {
        inner: MemStore::new(4),
        poison_session: 2,
        poison_layer: 1,
    });
    let mgr = Arc::new(StorageManager::new(store, cfg.d_model).with_reactor(Reactor::new(4, 2)));
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);
    const N_TOKENS: usize = 70;
    let mut jobs = Vec::new();
    let mut references = std::collections::HashMap::new();
    for s in 1..=3u64 {
        let methods = ctl.open_session(s, &scheme);
        let tokens: Vec<u32> = (0..N_TOKENS as u32)
            .map(|i| (i * 13 + s as u32) % 256)
            .collect();
        let mut kv = KvCache::new(&cfg);
        let out = model.prefill(&tokens, &mut kv, true);
        save_session_state(
            &model,
            &mgr,
            s,
            &out.hidden_per_layer.unwrap(),
            &kv,
            &scheme,
        )
        .unwrap();
        ctl.on_saved(s, N_TOKENS as u64).unwrap();
        if s != 2 {
            let seq =
                restore_session_with_methods(&model, &mgr, s, &tokens, N_TOKENS, &methods).unwrap();
            references.insert(s, seq);
        }
        jobs.push(RestoreJob { session: s, tokens });
    }

    let sched = RestoreScheduler::new(2, ParallelConfig::new(4));
    let results = sched.run(&model, &ctl, &jobs);
    assert_eq!(results.len(), 3);
    for (session, result) in results {
        if session == 2 {
            assert!(
                matches!(
                    result,
                    Err(hc_cachectl::CtlError::Storage(
                        hc_storage::StorageError::Io(_)
                    ))
                ),
                "poisoned session must fail with a typed storage error: {result:?}"
            );
        } else {
            let kv = result.unwrap();
            assert_eq!(
                kv_max_error(&kv, &references[&session]),
                0.0,
                "healthy session {session} must survive the sibling's panic"
            );
        }
    }
}
