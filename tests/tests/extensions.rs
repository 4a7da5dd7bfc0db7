//! Integration tests for the hierarchical-storage extension (§4) composed
//! with the rest of the system.

use std::sync::Arc;

use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{kv_max_error, restore_session, save_session_state};
use hc_sched::partition::PartitionScheme;
use hc_storage::backend::MemStore;
use hc_storage::manager::StorageManager;
use hc_storage::tiered::TieredStore;

fn tokens(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * 53 + seed) % 256).collect()
}

#[test]
fn tiered_backend_end_to_end_with_hcache_system() {
    // The facade runs unchanged over the hierarchical store.
    let cfg = ModelConfig::tiny_llama();
    let store = Arc::new(TieredStore::new(Arc::new(MemStore::new(4)), 1 << 20));
    let mut sys = hcache::HCacheSystem::with_store(
        &cfg,
        21,
        Arc::clone(&store),
        PartitionScheme::pure_hidden(cfg.n_layers),
    );
    let sid = sys.open_session();
    // > 64 tokens so at least one durable chunk exists per stream (shorter
    // histories restore straight from the manager's tail buffer and never
    // touch the chunk store).
    sys.round(sid, &tokens(70, 1), 6).unwrap();
    sys.round(sid, &tokens(10, 2), 6).unwrap();
    let restored = sys.restore(sid).unwrap();
    assert_eq!(restored.n_tokens(), 70 + 6 + 10 + 6);
    // The immediate restore after saving hits the DRAM front.
    assert!(store.front_hits() > 0, "expected DRAM hits on hot restore");
}

#[test]
fn tiered_backend_survives_front_thrashing() {
    // Front sized below one session: every read goes to the backing store,
    // results stay correct.
    let cfg = ModelConfig::tiny_llama();
    let store = Arc::new(TieredStore::new(Arc::new(MemStore::new(4)), 256));
    let model = Model::new(&cfg, 9);
    let mgr = StorageManager::new(Arc::clone(&store), cfg.d_model);
    let toks = tokens(80, 5);
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);
    let mut reference = KvCache::new(&cfg);
    let out = model.prefill(&toks, &mut reference, true);
    save_session_state(
        &model,
        &mgr,
        1,
        &out.hidden_per_layer.unwrap(),
        &reference,
        &scheme,
    )
    .unwrap();
    let restored = restore_session(&model, &mgr, 1, &toks, toks.len(), &scheme).unwrap();
    assert!(kv_max_error(&restored, &reference) < 0.05);
    assert!(store.front_misses() > 0);
}
