//! End-to-end integration: model ⇄ storage ⇄ restoration across crates,
//! including the real-file backend (state actually round-trips through the
//! filesystem, as it would through SSDs in the paper's system).

use std::sync::Arc;

use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{
    kv_max_error, restore_session, restore_session_with_methods, save_session_state,
};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::{ChunkStore, FileStore, MemStore};
use hc_storage::latency::LatencyStore;
use hc_storage::manager::StorageManager;
use hcache::HCacheSystem;

fn history(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * 131 + seed) % 256).collect()
}

fn roundtrip_on<S: ChunkStore>(store: Arc<S>, scheme: PartitionScheme) -> f32 {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 99);
    let mgr = StorageManager::new(store, cfg.d_model);
    let tokens = history(140, 5);
    let mut kv = KvCache::new(&cfg);
    let out = model.prefill(&tokens, &mut kv, true);
    save_session_state(
        &model,
        &mgr,
        1,
        &out.hidden_per_layer.unwrap(),
        &kv,
        &scheme,
    )
    .unwrap();
    let restored = restore_session(&model, &mgr, 1, &tokens, tokens.len(), &scheme).unwrap();
    kv_max_error(&restored, &kv)
}

#[test]
fn file_backend_roundtrip_is_near_lossless() {
    let dir = std::env::temp_dir().join(format!("hc-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(FileStore::new(&dir, 4).unwrap());
    let err = roundtrip_on(store.clone(), PartitionScheme::pure_hidden(4));
    assert!(err < 0.05, "file-backed restore error {err}");
    // Data really hit the filesystem.
    assert!(store.stats().total_bytes_written() > 0);
    let files: Vec<_> = std::fs::read_dir(dir.join("dev0")).unwrap().collect();
    assert!(!files.is_empty(), "no chunk files on device 0");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_and_memory_backends_agree_exactly() {
    let dir = std::env::temp_dir().join(format!("hc-agree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scheme = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    let err_mem = roundtrip_on(Arc::new(MemStore::new(4)), scheme.clone());
    let err_file = roundtrip_on(Arc::new(FileStore::new(&dir, 4).unwrap()), scheme);
    assert_eq!(
        err_mem.to_bits(),
        err_file.to_bits(),
        "backends must be bit-identical"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn opt_style_model_full_lifecycle() {
    // LayerNorm + learned positions (OPT family): restoration is a pure
    // projection; run the whole facade lifecycle on it.
    let cfg = ModelConfig::tiny_opt();
    let mut sys = HCacheSystem::in_memory(&cfg, 21, 2);
    let sid = sys.open_session();
    let out1 = sys.round(sid, &[3, 1, 4, 1, 5], 6).unwrap();
    let out2 = sys.round(sid, &[9, 2, 6], 6).unwrap();
    assert_eq!(out1.len(), 6);
    assert_eq!(out2.len(), 6);
    let restored = sys.restore(sid).unwrap();
    assert_eq!(restored.n_tokens(), 5 + 6 + 3 + 6);
    assert!(restored.is_consistent());
}

#[test]
fn long_multi_round_conversation_with_all_schemes() {
    // 5 rounds under each scheme flavor; the restored state must keep
    // matching a from-scratch replay.
    let cfg = ModelConfig::tiny_llama();
    for scheme in [
        PartitionScheme::pure_hidden(cfg.n_layers),
        PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        },
        PartitionScheme {
            l_h: 2,
            l_o: 2,
            complement: LayerMethod::Recompute,
        },
    ] {
        let mut sys = HCacheSystem::in_memory(&cfg, 77, 4).with_scheme(scheme.clone());
        let sid = sys.open_session();
        let mut all_tokens: Vec<u32> = Vec::new();
        for round in 0..5u32 {
            let prompt: Vec<u32> = (0..6).map(|i| (round * 11 + i) % 256).collect();
            let reply = sys.round(sid, &prompt, 4).unwrap();
            all_tokens.extend(&prompt);
            all_tokens.extend(&reply);
        }
        // Replay reference.
        let model = Model::new(&cfg, 77);
        let mut reference = KvCache::new(&cfg);
        model.prefill(&all_tokens, &mut reference, false);
        let restored = sys.restore(sid).unwrap();
        let err = kv_max_error(&restored, &reference);
        assert!(err < 0.05, "{scheme:?}: error {err}");
    }
}

#[test]
fn eviction_and_restore_interleaved_across_sessions() {
    let cfg = ModelConfig::tiny_llama();
    let mut sys = HCacheSystem::in_memory(&cfg, 31, 4);
    let a = sys.open_session();
    let b = sys.open_session();
    let c = sys.open_session();
    // Interleave rounds of three conversations.
    sys.round(a, &history(10, 1), 3).unwrap();
    sys.round(b, &history(20, 2), 3).unwrap();
    sys.round(a, &history(5, 3), 3).unwrap();
    sys.round(c, &history(8, 4), 3).unwrap();
    sys.round(b, &history(7, 5), 3).unwrap();
    sys.round(a, &history(4, 6), 3).unwrap();
    assert_eq!(sys.context_len(a).unwrap(), 10 + 3 + 5 + 3 + 4 + 3);
    assert_eq!(sys.context_len(b).unwrap(), 20 + 3 + 7 + 3);
    assert_eq!(sys.context_len(c).unwrap(), 8 + 3);
    for sid in [a, b, c] {
        let kv = sys.restore(sid).unwrap();
        assert_eq!(kv.n_tokens(), sys.context_len(sid).unwrap());
    }
    // Closing one session leaves the others restorable.
    sys.close_session(b).unwrap();
    assert!(sys.restore(a).is_ok());
    assert!(sys.restore(c).is_ok());
}

#[test]
fn facade_restore_streams_from_every_device_through_the_reactor() {
    // The facade's one restore path: chunk streaming over the system's own
    // IO reactor. Checked by counts — every stored chunk of the session is
    // one reactor submission, and every modelled device served some of
    // them — and by bit-identity with the sequential restore.
    const N_DEVICES: usize = 4;
    let cfg = ModelConfig::tiny_llama();
    let scheme = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    let store = Arc::new(LatencyStore::new(
        Arc::new(MemStore::new(N_DEVICES)),
        std::time::Duration::from_micros(200),
        std::time::Duration::ZERO,
    ));
    let mut sys = HCacheSystem::with_store(&cfg, 5, Arc::clone(&store), scheme.clone());
    let sid = sys.open_session();
    sys.round(sid, &history(530, 9), 6).unwrap();
    let n_tokens = sys.context_len(sid).unwrap();
    assert!(n_tokens >= 512);

    let reactor = Arc::clone(sys.storage().reactor().expect("facade attaches a reactor"));
    assert_eq!(reactor.n_devices(), N_DEVICES);
    let ios_before = reactor.ios_submitted();
    let reads_before = sys.io_stats().total_reads();
    let busy_before: Vec<_> = (0..N_DEVICES).map(|d| store.reserved_busy(d)).collect();

    let restored = sys.restore(sid).unwrap();

    // Hidden ×3 + K + V streams, each ⌊n/64⌋ full chunks read from a
    // device (the partial tail is served from the manager's buffer).
    let device_chunks = (5 * (n_tokens / 64)) as u64;
    assert_eq!(sys.io_stats().total_reads() - reads_before, device_chunks);
    assert_eq!(reactor.ios_submitted() - ios_before, device_chunks);
    for (d, before) in busy_before.iter().enumerate() {
        assert!(
            store.reserved_busy(d) > *before,
            "device {d} served none of the restore"
        );
    }

    let seq = restore_session_with_methods(
        sys.model(),
        sys.storage(),
        sid,
        sys.session_tokens(sid).unwrap(),
        n_tokens,
        &scheme.layer_methods(cfg.n_layers),
    )
    .unwrap();
    assert_eq!(kv_max_error(&restored, &seq), 0.0);
}

#[test]
fn dropping_the_facade_joins_its_reactor_threads() {
    // Build-and-drop in a loop with the saver daemon alive: the drop must
    // return (no hang) and must take the reactor — whose own drop joins
    // the per-device IO threads — with it, every time.
    let cfg = ModelConfig::tiny_llama();
    for i in 0..50u64 {
        let mut sys = HCacheSystem::in_memory(&cfg, i, 4);
        let sid = sys.open_session();
        sys.round(sid, &history(70, i as u32), 2).unwrap();
        assert_eq!(sys.restore(sid).unwrap().n_tokens(), 72);
        let reactor = Arc::downgrade(sys.storage().reactor().expect("facade attaches a reactor"));
        drop(sys);
        assert!(
            reactor.upgrade().is_none(),
            "system #{i} leaked its reactor (and its IO threads)"
        );
    }
}
