//! The executable fault matrix: every storage-fault class from the
//! `hc-storage` manager docs, driven through the full restore stack
//! (`FaultStore` → `StorageManager` → `CacheController` →
//! `RestoreScheduler`). The acceptance bar for each row: the fault
//! surfaces as a *typed* error naming the failing chunk and device, its
//! blast radius is exactly one session, and every sibling session
//! restores bit-identical to an unfaulted run.
//!
//! The device-health rows raise the bar from "typed error" to "no error
//! at all": with a whole device down mid-restore, the lane's circuit
//! breaker opens, affected sessions degrade their mixes to recompute
//! (bit-identical to a from-scratch restore of the surviving mix),
//! unaffected sessions never notice, and after the lane heals the
//! half-open probe restores full-speed mixes. The seeded chaos soak
//! drives a randomized fault schedule through the reactor scheduler and
//! demands zero failed sessions with exact degradation accounting.

use std::sync::Arc;
use std::time::Duration;

use hc_cachectl::scheduler::{RestoreJob, RestoreScheduler};
use hc_cachectl::{CacheController, ControllerConfig, CtlError};
use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{
    kv_max_error, restore_session_with_methods, save_session_state, DegradationReport, DegradeCause,
};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::chunk::ChunkKey;
use hc_storage::fault::{FaultStore, FaultTarget};
use hc_storage::health::{BreakerConfig, BreakerState, DeviceHealth, RetryPolicy};
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_storage::{StorageError, StreamId};
use hc_tensor::ParallelConfig;
use hcache::{HCacheSystem, SystemError};

const N_TOKENS: usize = 70;

type Store = FaultStore<MemStore>;

/// Three saved sessions over a fault-injecting store, with sequential
/// restore references captured *before* any fault is armed.
struct Rig {
    model: Model,
    store: Arc<Store>,
    mgr: Arc<StorageManager<Store>>,
    ctl: CacheController<Store>,
    jobs: Vec<RestoreJob>,
    references: std::collections::HashMap<u64, KvCache>,
}

fn rig() -> Rig {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 31);
    let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
    let mgr = Arc::new(
        StorageManager::new(Arc::clone(&store), cfg.d_model).with_reactor(Reactor::new(4, 2)),
    );
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);
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
        let seq =
            restore_session_with_methods(&model, &mgr, s, &tokens, N_TOKENS, &methods).unwrap();
        references.insert(s, seq);
        jobs.push(RestoreJob { session: s, tokens });
    }
    Rig {
        model,
        store,
        mgr,
        ctl,
        jobs,
        references,
    }
}

fn run_sched(r: &Rig) -> Vec<(u64, Result<KvCache, CtlError>)> {
    RestoreScheduler::new(2, ParallelConfig::new(4)).run(&r.model, &r.ctl, &r.jobs)
}

fn assert_sibling_bit_identical(r: &Rig, session: u64, result: Result<KvCache, CtlError>) {
    let kv = result.unwrap_or_else(|e| panic!("healthy session {session} failed: {e}"));
    assert_eq!(
        kv_max_error(&kv, &r.references[&session]),
        0.0,
        "session {session} must restore bit-identical despite the sibling's fault"
    );
}

/// Matrix row 1: a permanent device read error under a job given no
/// history to replay fails exactly that session, with a typed error naming
/// the chunk and its device lane. The same fault under a job with its
/// history degrades the session to recompute over the faulted layer, bit
/// for bit. Either way the siblings restore bit-identical.
#[test]
fn permanent_device_fault_fails_exactly_one_session() {
    let mut r = rig();
    // Every read of session 2's layer-1 hidden stream fails permanently.
    r.store.fail_reads(
        FaultTarget::Stream(StreamId::hidden(2, 1)),
        usize::MAX,
        false,
    );
    let tokens = std::mem::take(&mut r.jobs[1].tokens);
    for (session, result) in run_sched(&r) {
        if session == 2 {
            match result {
                Err(CtlError::Storage(StorageError::DeviceFailed {
                    key,
                    transient: false,
                    ..
                })) => {
                    assert_eq!(
                        key.stream,
                        StreamId::hidden(2, 1),
                        "error must name the faulted stream"
                    );
                }
                other => panic!("expected a typed DeviceFailed, got {other:?}"),
            }
        } else {
            assert_sibling_bit_identical(&r, session, result);
        }
    }

    r.jobs[1].tokens = tokens;
    let degraded = restore_session_with_methods(
        &r.model,
        &r.mgr,
        2,
        &r.jobs[1].tokens,
        N_TOKENS,
        &degraded_methods(2, 4),
    )
    .expect("the surviving mix never reads the faulted stream");
    for (session, result) in run_sched(&r) {
        if session == 2 {
            let kv = result.unwrap_or_else(|e| panic!("session 2 must degrade, not fail: {e}"));
            assert_eq!(kv_max_error(&kv, &degraded), 0.0);
        } else {
            assert_sibling_bit_identical(&r, session, result);
        }
    }
}

/// Matrix row 2: transient device errors within the retry budget are
/// masked end to end — every session completes bit-identical.
#[test]
fn transient_device_faults_are_masked_end_to_end() {
    let r = rig();
    let blips = RetryPolicy::default().attempts - 1;
    r.store.fail_reads(FaultTarget::Any, blips, true);
    for (session, result) in run_sched(&r) {
        assert_sibling_bit_identical(&r, session, result);
    }
    assert_eq!(
        r.store.reads_failed() as usize,
        blips,
        "the injected blips must actually have fired"
    );
}

/// Matrix row 3: a device write error surfaces typed from the save path,
/// naming the chunk whose write failed.
#[test]
fn device_write_fault_surfaces_typed_from_save() {
    let r = rig();
    let cfg = ModelConfig::tiny_llama();
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);
    r.ctl.open_session(9, &scheme);
    let victim = StreamId::hidden(9, 0);
    r.store.fail_writes(FaultTarget::Stream(victim), 1, false);
    let tokens: Vec<u32> = (0..N_TOKENS as u32).map(|i| (i * 7 + 9) % 256).collect();
    let mut kv = KvCache::new(&cfg);
    let out = r.model.prefill(&tokens, &mut kv, true);
    let err = save_session_state(
        &r.model,
        &r.mgr,
        9,
        &out.hidden_per_layer.unwrap(),
        &kv,
        &scheme,
    )
    .unwrap_err();
    match err {
        StorageError::DeviceFailed {
            key,
            transient: false,
            ..
        } => {
            assert_eq!(key.stream, victim);
            assert_eq!(
                key,
                ChunkKey {
                    stream: victim,
                    chunk_idx: 0
                }
            );
        }
        other => panic!("expected DeviceFailed from the save path, got {other:?}"),
    }
    assert_eq!(r.store.writes_failed(), 1);
}

/// Greedy tokens of a never-evicted run: `prompt` prefilled onto the live
/// cache `live`, then `n` decode steps.
fn never_evicted(model: &Model, live: &mut KvCache, prompt: &[u32], n: usize) -> Vec<u32> {
    let out = model.prefill(prompt, live, false);
    let mut last = out.final_hidden.row(prompt.len() - 1).to_vec();
    (0..n)
        .map(|_| {
            let next = model.greedy_next_token(&last);
            last = model.decode_step(next, live, false).0;
            next
        })
        .collect()
}

/// Matrix row 3 at the facade: a transient write fault costs exactly one
/// round, whether it hits a hidden row or a KV-offload layer's K/V row
/// (both reach storage through the two-stage saver). The failed round
/// leaves its session at its pre-round history with token-only state, so
/// the same session's next round and a fresh session's first round both
/// succeed and generate what a never-evicted run that skipped the failed
/// round generates, and every stream holds exactly its session's
/// committed rows.
#[test]
fn device_write_fault_costs_the_facade_one_round() {
    let cfg = ModelConfig::tiny_llama();
    let kv_mix = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    // The fault hits any write, or the key stream of the given KV layer.
    let inputs = [
        (PartitionScheme::pure_hidden(cfg.n_layers), None),
        (kv_mix, Some(3)),
    ];
    for (scheme, kv_layer) in inputs {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mut sys = HCacheSystem::with_store(&cfg, 31, Arc::clone(&store), scheme.clone());
        let prompt =
            |n: u32, salt: u32| -> Vec<u32> { (0..n).map(|i| (i * 11 + salt) % 256).collect() };

        let a = sys.open_session();
        let mut live_a = KvCache::new(&cfg);
        let p1 = prompt(40, 1);
        let want = never_evicted(sys.model(), &mut live_a, &p1, 4);
        assert_eq!(sys.round(a, &p1, 4).unwrap(), want);

        let target = kv_layer.map_or(FaultTarget::Any, |l| {
            FaultTarget::Stream(StreamId::key(a, l))
        });
        store.fail_writes(target, 1, true);
        match sys.round(a, &prompt(70, 2), 4) {
            Err(SystemError::Storage(StorageError::DeviceFailed {
                transient: true, ..
            })) => {}
            other => panic!("{scheme:?}: expected the typed write fault, got {other:?}"),
        }
        assert_eq!(store.writes_failed(), 1);
        assert_eq!(sys.context_len(a).unwrap(), 44, "the failed round's tokens");

        let p3 = prompt(30, 3);
        let want = never_evicted(sys.model(), &mut live_a, &p3, 4);
        assert_eq!(
            sys.round(a, &p3, 4).unwrap(),
            want,
            "{scheme:?}: same session, next round"
        );
        let b = sys.open_session();
        let mut live_b = KvCache::new(&cfg);
        let pb = prompt(50, 4);
        let want = never_evicted(sys.model(), &mut live_b, &pb, 4);
        assert_eq!(
            sys.round(b, &pb, 4).unwrap(),
            want,
            "{scheme:?}: fresh session"
        );

        let ctl = sys.controller().expect("controller");
        let mgr = sys.storage();
        for s in [a, b] {
            let n = sys.context_len(s).unwrap() as u64;
            let methods = ctl.session_methods(s).unwrap();
            for (l, m) in methods.iter().enumerate() {
                let rows = |stream: StreamId, held: bool| {
                    let want = if held { n } else { 0 };
                    assert_eq!(mgr.n_tokens(stream), want, "{stream:?} under {m:?}");
                };
                let l = l as u32;
                rows(StreamId::hidden(s, l), *m == LayerMethod::Hidden);
                rows(StreamId::key(s, l), *m == LayerMethod::KvOffload);
                rows(StreamId::value(s, l), *m == LayerMethod::KvOffload);
            }
        }
        assert_eq!(ctl.used_bytes(), mgr.total_resident_bytes());
    }
}

/// Matrix row 4: a read stall delays but never fails — all sessions
/// complete bit-identical through a slow lane.
#[test]
fn stalled_device_reads_complete_bit_identical() {
    let r = rig();
    r.store
        .stall_reads(FaultTarget::Device(1), Duration::from_micros(300));
    for (session, result) in run_sched(&r) {
        assert_sibling_bit_identical(&r, session, result);
    }
}

/// Matrix row 5: a delete racing the restore run fails only the deleted
/// session with a typed storage error; siblings restore bit-identical.
#[test]
fn mid_restore_delete_race_fails_only_the_deleted_session() {
    let r = rig();
    let mgr2 = Arc::clone(&r.mgr);
    // Fire at the first chunk read of the scheduler run: session 2's
    // streams vanish while (or just before) its restore walks them.
    r.store.on_nth_read(0, move || {
        mgr2.delete_session(2);
    });
    for (session, result) in run_sched(&r) {
        if session == 2 {
            assert!(
                matches!(result, Err(CtlError::Storage(_))),
                "deleted session must fail typed, got {result:?}"
            );
        } else {
            assert_sibling_bit_identical(&r, session, result);
        }
    }
}

/// The typed propagation chain: a `DeviceFailed` keeps its chunk key and
/// device lane intact through `RestoreError` → `CtlError` →
/// `SystemError`.
#[test]
fn device_failed_payload_survives_the_error_chain() {
    let key = ChunkKey {
        stream: StreamId::hidden(4, 2),
        chunk_idx: 3,
    };
    let storage = StorageError::DeviceFailed {
        key,
        device: 1,
        transient: false,
        msg: "injected device read failure".into(),
    };
    let restore = hc_restore::engine::RestoreError::from(storage);
    let ctl = CtlError::from(restore);
    let system = hcache::SystemError::from(ctl);
    match system {
        hcache::SystemError::Storage(StorageError::DeviceFailed {
            key: k,
            device,
            transient,
            ..
        }) => {
            assert_eq!(k, key);
            assert_eq!(device, 1);
            assert!(!transient);
        }
        other => panic!("payload lost in the chain: {other:?}"),
    }
}

// --- Device-health rows: whole-device outage mid-restore -----------------
//
// 64-token sessions keep the device math exact: each stream is one chunk,
// and layer `l`'s chunk lands on device `(0 + l) % 4`. Downing device 1
// strands exactly layer 1, so pure-hidden sessions must degrade the
// prefix `0..=1` to recompute while a session whose mix already
// recomputes layers 0–1 never touches the dead lane.

const DEG_TOKENS: usize = 64;

struct DegradedRig {
    model: Model,
    store: Arc<Store>,
    mgr: Arc<StorageManager<Store>>,
    ctl: CacheController<Store>,
    jobs: Vec<RestoreJob>,
    references: std::collections::HashMap<u64, KvCache>,
}

impl DegradedRig {
    fn tokens_of(&self, session: u64) -> &[u32] {
        &self
            .jobs
            .iter()
            .find(|j| j.session == session)
            .expect("session saved by the rig")
            .tokens
    }
}

/// A breaker that trips after two failures — a real outage hits it within
/// one scheduler run, while the single-blip rows above never would.
fn deg_breaker() -> BreakerConfig {
    BreakerConfig {
        consecutive_failures: 2,
        window: 8,
        window_failures: 6,
        cooldown: Duration::from_millis(30),
    }
}

/// Sessions 1 and 3 pure hidden (layer 1 on device 1); session 2 with a
/// recompute prefix over layers 0–1, so its cached layers live only on
/// devices 2 and 3 — the unaffected control for a device-1 outage.
fn degraded_rig(breaker: BreakerConfig) -> DegradedRig {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 31);
    let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
    let mgr = Arc::new(
        StorageManager::new(Arc::clone(&store), cfg.d_model)
            .with_device_health(Arc::new(DeviceHealth::with_config(4, breaker)))
            .with_reactor(Reactor::new(4, 2)),
    );
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let recompute_prefix = PartitionScheme {
        l_h: cfg.n_layers - 2,
        l_o: 2,
        complement: LayerMethod::Recompute,
    };
    let mut jobs = Vec::new();
    let mut references = std::collections::HashMap::new();
    for s in 1..=3u64 {
        let scheme = if s == 2 {
            recompute_prefix.clone()
        } else {
            PartitionScheme::pure_hidden(cfg.n_layers)
        };
        let methods = ctl.open_session(s, &scheme);
        let tokens: Vec<u32> = (0..DEG_TOKENS as u32)
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
        ctl.on_saved(s, DEG_TOKENS as u64).unwrap();
        let seq =
            restore_session_with_methods(&model, &mgr, s, &tokens, DEG_TOKENS, &methods).unwrap();
        references.insert(s, seq);
        jobs.push(RestoreJob { session: s, tokens });
    }
    DegradedRig {
        model,
        store,
        mgr,
        ctl,
        jobs,
        references,
    }
}

/// The mix a degraded pure-hidden session must have served: recompute for
/// the forced prefix, hidden for the survivors.
fn degraded_methods(prefix: usize, n_layers: usize) -> Vec<LayerMethod> {
    let mut v = vec![LayerMethod::Recompute; prefix];
    v.extend(std::iter::repeat_n(LayerMethod::Hidden, n_layers - prefix));
    v
}

/// Matrix row 6: a whole device hard-down mid-restore. No session fails:
/// the two pure-hidden sessions degrade layers 0..=1 to recompute
/// (bit-identical to a from-scratch restore of that surviving mix on the
/// same faulted store), the recompute-prefix session never notices, the
/// lane's breaker opens after the failures, and the session table keeps
/// the full-speed mixes (nothing is demoted by a device fault).
#[test]
fn device_down_mid_restore_degrades_affected_sessions_and_opens_the_breaker() {
    let r = degraded_rig(deg_breaker());
    r.store.device_down(1);
    let sched = RestoreScheduler::new(2, ParallelConfig::new(4));
    for (session, result) in sched.run_with_reports(&r.model, &r.ctl, &r.jobs) {
        let (kv, rep) =
            result.unwrap_or_else(|e| panic!("session {session} must degrade, not fail: {e}"));
        if session == 2 {
            assert_eq!(
                rep,
                DegradationReport::default(),
                "session 2's cached layers avoid device 1: it must not degrade"
            );
            assert_eq!(kv_max_error(&kv, &r.references[&session]), 0.0);
        } else {
            assert_eq!(
                rep.layers_recomputed, 2,
                "session {session}: layers 0..=1 must degrade over stranded layer 1"
            );
            assert!(
                matches!(
                    rep.cause,
                    Some(DegradeCause::DeviceDown { device: 1 })
                        | Some(DegradeCause::BreakerOpen { device: 1 })
                ),
                "session {session}: cause must name device 1, got {:?}",
                rep.cause
            );
            let seq = restore_session_with_methods(
                &r.model,
                &r.mgr,
                session,
                r.tokens_of(session),
                DEG_TOKENS,
                &degraded_methods(2, 4),
            )
            .expect("surviving mix avoids the dead lane");
            assert_eq!(
                kv_max_error(&kv, &seq),
                0.0,
                "session {session}: degraded restore must be bit-identical to the \
                 surviving-mix recompute"
            );
        }
    }
    assert_eq!(
        r.mgr.device_health().state(1),
        BreakerState::Open,
        "two permanent lane failures must open the breaker"
    );
    assert_eq!(
        r.store.reads_failed(),
        2,
        "exactly one failed read per affected session reaches the dead lane"
    );
    for s in [1u64, 3] {
        assert_eq!(
            r.ctl.session_methods(s).unwrap(),
            vec![LayerMethod::Hidden; 4],
            "device failure must never demote the session table"
        );
    }
    let m = r.ctl.metrics();
    assert_eq!(m.restores_degraded, 2);
    assert_eq!(m.layers_degraded, 4);
}

/// Matrix row 7: after the lane heals, the half-open probe closes the
/// breaker and every session is back to its full-speed mix, bit-identical
/// to the pre-fault references.
#[test]
fn half_open_probe_recovers_full_speed_after_heal() {
    let r = degraded_rig(deg_breaker());
    r.store.device_down(1);
    let sched = RestoreScheduler::new(2, ParallelConfig::new(4));
    for (session, result) in sched.run_with_reports(&r.model, &r.ctl, &r.jobs) {
        assert!(result.is_ok(), "session {session} must survive the outage");
    }
    assert_eq!(r.mgr.device_health().state(1), BreakerState::Open);

    // Heal the lane and let the cooldown pass: the next read through
    // device 1 is admitted as the half-open probe.
    r.store.device_up(1);
    std::thread::sleep(r.mgr.device_health().config().cooldown + Duration::from_millis(5));
    let par = ParallelConfig::serial();
    let (kv, rep) = r
        .ctl
        .restore_with_report(&r.model, 1, r.tokens_of(1), &par)
        .unwrap();
    assert_eq!(
        rep.layers_recomputed, 0,
        "the probe restore serves the full mix"
    );
    assert_eq!(kv_max_error(&kv, &r.references[&1]), 0.0);
    assert_eq!(
        r.mgr.device_health().state(1),
        BreakerState::Closed,
        "probe success must close the breaker"
    );

    // The whole batch runs full speed again.
    for (session, result) in sched.run_with_reports(&r.model, &r.ctl, &r.jobs) {
        let (kv, rep) = result.unwrap();
        assert_eq!(
            rep.layers_recomputed, 0,
            "healed lane: session {session} must serve its full mix"
        );
        assert_eq!(kv_max_error(&kv, &r.references[&session]), 0.0);
    }
}

/// The seeded chaos soak: a deterministic-schedule fault storm (whole
/// device down, seeded flaky reads, device stalls against the reactor's
/// IO deadline) over the reactor-routed scheduler. The gate: *zero*
/// failed sessions across every round, every degraded restore
/// bit-identical to a from-scratch restore of its surviving mix, and the
/// controller's degradation metrics agreeing exactly with the per-session
/// reports.
#[test]
fn seeded_chaos_soak_over_the_reactor_scheduler() {
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 31);
    let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
    let breaker = BreakerConfig {
        consecutive_failures: 4,
        window: 16,
        window_failures: 8,
        cooldown: Duration::from_millis(20),
    };
    let mgr = Arc::new(
        StorageManager::new(Arc::clone(&store), cfg.d_model)
            .with_device_health(Arc::new(DeviceHealth::with_config(4, breaker)))
            .with_retry_policy(RetryPolicy::default().with_io_deadline(Duration::from_millis(25)))
            .with_reactor(Reactor::new(4, 2)),
    );
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);
    let mut jobs = Vec::new();
    for s in 1..=6u64 {
        let methods = ctl.open_session(s, &scheme);
        let tokens: Vec<u32> = (0..DEG_TOKENS as u32)
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
        ctl.on_saved(s, DEG_TOKENS as u64).unwrap();
        restore_session_with_methods(&model, &mgr, s, &tokens, DEG_TOKENS, &methods).unwrap();
        jobs.push(RestoreJob { session: s, tokens });
    }
    let sched = RestoreScheduler::new(4, ParallelConfig::new(4)).with_reactor(8);

    // xorshift64: the fault schedule is a pure function of this seed, so
    // the soak replays identically run to run.
    let mut rng: u64 = 0x5EED_CAFE;
    let mut draw = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut completed = 0usize;
    let mut degraded_restores = 0u64;
    let mut degraded_layers = 0u64;
    for round in 0..8 {
        let fault_kind = draw() % 4;
        let device = (draw() % 4) as usize;
        match fault_kind {
            0 => {} // calm round: breakers from earlier rounds may still act
            1 => store.device_down(device),
            2 => store.set_flaky_reads(FaultTarget::Any, 0.3, draw()),
            3 => store.stall_reads(FaultTarget::Device(device), Duration::from_millis(40)),
            _ => unreachable!(),
        }
        let results = sched.run_with_reports(&model, &ctl, &jobs);
        assert_eq!(
            results.len(),
            jobs.len(),
            "round {round}: a session vanished"
        );
        let mut round_reports = Vec::new();
        for (session, result) in results {
            match result {
                Ok((kv, rep)) => round_reports.push((session, kv, rep)),
                Err(e) => panic!(
                    "round {round} (fault {fault_kind} on device {device}): \
                     session {session} failed: {e}"
                ),
            }
        }
        completed += round_reports.len();

        // Heal everything and let tripped breakers pass their cooldown,
        // so the fidelity restores below are admitted (the first read
        // through a still-open lane rides as its half-open probe).
        for d in 0..4 {
            store.device_up(d);
        }
        store.clear_flaky_reads();
        store.clear_read_stalls();
        std::thread::sleep(breaker.cooldown + Duration::from_millis(2));

        for (session, kv, rep) in round_reports {
            if rep.layers_recomputed > 0 {
                degraded_restores += 1;
                degraded_layers += rep.layers_recomputed as u64;
                assert!(
                    rep.cause.is_some(),
                    "round {round}: degraded session {session} must name a cause"
                );
            } else {
                assert_eq!(rep.cause, None);
            }
            let methods = degraded_methods(rep.layers_recomputed, cfg.n_layers);
            let tokens = jobs
                .iter()
                .find(|j| j.session == session)
                .map(|j| j.tokens.as_slice())
                .unwrap();
            let seq =
                restore_session_with_methods(&model, &mgr, session, tokens, DEG_TOKENS, &methods)
                    .unwrap_or_else(|e| {
                        panic!("round {round}: fidelity restore of session {session} failed: {e}")
                    });
            assert_eq!(
                kv_max_error(&kv, &seq),
                0.0,
                "round {round}: session {session} must be bit-identical to a \
                 from-scratch restore of its surviving mix"
            );
        }
    }
    assert_eq!(
        completed,
        8 * jobs.len(),
        "zero failed sessions, all rounds"
    );
    let m = ctl.metrics();
    assert_eq!(
        m.restores_degraded, degraded_restores,
        "exact accounting: every degraded restore counted once"
    );
    assert_eq!(
        m.layers_degraded, degraded_layers,
        "exact accounting: every recomputed layer counted once"
    );
}
