//! Stress and equivalence suite for the million-session control plane
//! (`hc_cachectl::table::SessionTable` + the tenant-aware controller).
//!
//! Three claims, each load-bearing for the SoA rebuild:
//!
//! 1. **Exact LRU equivalence** — the ordered-set `coldest_evictable`
//!    picks the *same* victim as the retained scan-based [`LruPolicy`]
//!    over a `SessionMeta` snapshot of the table, after every op of a
//!    seeded random op stream (proptest + a deterministic 10k-op replay).
//!    Epochs are bumped once per mutating op, so `last_touch` is unique
//!    per session and the documented id tie-break never has to fire —
//!    both selectors reduce to the same strict order.
//! 2. **Ladder order** — demotion still walks hidden → KV → recompute
//!    into a growing recompute prefix, through the interned mix table.
//! 3. **Tenant isolation** — on a two-tenant Zipf/Poisson trace
//!    (`hc_workload::tenant`), the hot tenant's burst runs the pool to
//!    its quota while the cold tenant, protected by a reservation, keeps
//!    its entire working set and records zero evictions.
//!
//! A churn stress (release-sized in CI — 200k and one million sessions,
//! with the exact-ledger and victim-pick-far-below-a-scan contracts the
//! retired `bench_controller` gate held; small in debug where the table's
//! per-mutation drift assertion is O(n)) closes the suite.

use std::collections::HashMap;
use std::sync::Arc;

use hc_cachectl::policy::{EvictionPolicy, LruPolicy, SessionMeta};
use hc_cachectl::quota::TenantQuota;
use hc_cachectl::table::SessionTable;
use hc_cachectl::{CacheController, ControllerConfig};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::manager::StorageManager;
use hc_storage::StreamId;
use hc_tensor::Tensor2;
use hc_workload::rng::Rng;
use hc_workload::tenant::{generate_tenant_trace, TenantOpKind, TenantTraceConfig};
use proptest::prelude::*;

const N_LAYERS: usize = 4;

fn full_mix(table: &mut SessionTable) -> u32 {
    table
        .mixes_mut()
        .intern(&PartitionScheme::pure_hidden(N_LAYERS).layer_methods(N_LAYERS))
}

/// The scan-based reference: a `SessionMeta` snapshot of every evictable
/// session (resident bytes, demotable mix) fed to the retained
/// [`LruPolicy`]. This is exactly what the controller did before the SoA
/// rebuild, O(n) per pick.
fn scan_reference(table: &SessionTable, tenant_ok: &[bool]) -> Option<u64> {
    let mut candidates = Vec::new();
    for slot in 0..table.len() as u32 {
        let tenant = table.tenant_at(slot) as usize;
        if !tenant_ok.is_empty() && !tenant_ok.get(tenant).copied().unwrap_or(true) {
            continue;
        }
        if table.bytes_at(slot) == 0 || table.mixes().next_demotable(table.mix_at(slot)).is_none() {
            continue;
        }
        candidates.push(SessionMeta {
            session: table.id_at(slot),
            resident_bytes: table.bytes_at(slot),
            last_access: table.last_touch_at(slot),
            n_tokens: table.n_tokens_at(slot),
            restore_secs_current: 0.0,
            restore_secs_dropped: 0.0,
        });
    }
    if candidates.is_empty() {
        None
    } else {
        Some(LruPolicy.pick_victim(&candidates))
    }
}

/// One table op decoded from `(op, id, val)`; mirrors the churn mix the
/// controller generates (reopen included — same id, fresh ladder).
fn apply_op(table: &mut SessionTable, mix: u32, op: u8, id: u64, val: u64) {
    match op {
        0 => {
            table.open(id, id as u32 % 4, mix);
        }
        1 => {
            table.touch(id);
        }
        2 => {
            table.set_bytes(id, val);
        }
        3 => {
            table.demote(id);
        }
        4 => {
            table.credit(id, val / 8 + 1);
        }
        _ => {
            table.remove(id);
        }
    }
}

fn assert_equivalent(table: &mut SessionTable, tenant_ok: &[bool]) {
    let expected = scan_reference(table, tenant_ok);
    let got = table.coldest_evictable(tenant_ok).map(|(id, _slot)| id);
    assert_eq!(
        got, expected,
        "ordered-set pick diverged from the scan-based LruPolicy"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every op of a seeded random stream over a bounded id space,
    /// the ordered-set selector and the scan-based policy name the same
    /// victim.
    #[test]
    fn bucketed_lru_matches_scan_lru_on_random_op_streams(
        seed in 0u64..u64::MAX,
        len in 1usize..400,
    ) {
        let mut table = SessionTable::new();
        let mix = full_mix(&mut table);
        let mut rng = Rng::new(seed);
        for _ in 0..len {
            let op = rng.below(6) as u8;
            let id = rng.below(48);
            let val = rng.below(8192);
            apply_op(&mut table, mix, op, id, val);
            assert_equivalent(&mut table, &[]);
        }
    }
}

/// The deterministic long-haul companion: 10k seeded ops, checking both
/// the unfiltered pick and per-tenant-filtered picks throughout.
#[test]
fn bucketed_lru_matches_scan_lru_over_10k_seeded_ops() {
    let mut table = SessionTable::new();
    let mix = full_mix(&mut table);
    let mut rng = Rng::new(0x5e55_1000);
    for step in 0..10_000u64 {
        let op = rng.below(6) as u8;
        let id = rng.below(64);
        let val = rng.below(8192);
        apply_op(&mut table, mix, op, id, val);
        assert_equivalent(&mut table, &[]);
        if step % 16 == 0 {
            // Per-tenant filters walk the same ordered set, skipping
            // other tenants' colder sessions.
            let t = (step / 16 % 4) as usize;
            let mut allowed = vec![false; 4];
            allowed[t] = true;
            assert_equivalent(&mut table, &allowed);
        }
    }
    assert_eq!(table.column_bytes_sum(), table.total_bytes());
}

/// Demotion order through the interned mix table: hidden rungs first,
/// then KV, into a growing recompute prefix, exactly as the per-session
/// `Placement` ladder documents.
#[test]
fn demotion_ladder_walks_hidden_then_kv_through_the_mix_table() {
    let mut table = SessionTable::new();
    let mix = table.mixes_mut().intern(&[
        LayerMethod::Hidden,
        LayerMethod::Hidden,
        LayerMethod::KvOffload,
        LayerMethod::KvOffload,
    ]);
    table.open(7, 0, mix);
    table.set_bytes(7, 1024);
    let mut rungs = Vec::new();
    while let Some((layer, method)) = table.demote(7) {
        rungs.push((layer, method));
        // Every intermediate mix keeps the recompute-prefix invariant.
        let methods = table.methods_of(7).unwrap();
        let prefix = methods
            .iter()
            .take_while(|m| **m == LayerMethod::Recompute)
            .count();
        assert!(
            methods[prefix..]
                .iter()
                .all(|m| *m != LayerMethod::Recompute),
            "recompute layers must stay a prefix"
        );
    }
    assert_eq!(
        rungs,
        vec![
            (0, LayerMethod::Hidden),
            (1, LayerMethod::Hidden),
            (2, LayerMethod::KvOffload),
            (3, LayerMethod::KvOffload),
        ]
    );
    assert!(table.mixes().is_fully_dropped(table.mix_of(7).unwrap()));
}

// ---------------------------------------------------------------------------
// Two-tenant isolation on a generated trace
// ---------------------------------------------------------------------------

const D_MODEL: usize = 8;

fn controller(quota: u64, reservation_b: u64) -> CacheController<MemStore> {
    let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(2)), D_MODEL));
    let mut cfg = ControllerConfig::with_quota(quota).with_expected_tokens(64);
    if reservation_b > 0 {
        cfg = cfg.with_tenant_quota(
            1,
            TenantQuota {
                reservation_bytes: reservation_b,
                cap_bytes: u64::MAX,
            },
        );
    }
    CacheController::new(mgr, N_LAYERS, D_MODEL, cfg)
}

/// Replays a tenant trace against a controller: opens admit under the
/// tenant, saves append real rows to the admitted streams and reconcile,
/// closes delete. Returns nothing — state is inspected via the
/// controller's own reporting.
fn replay(ctl: &CacheController<MemStore>, trace: &[hc_workload::tenant::TenantOp]) {
    let scheme = PartitionScheme::pure_hidden(N_LAYERS);
    let mut saved: HashMap<u64, u64> = HashMap::new();
    for op in trace {
        match op.kind {
            TenantOpKind::Open => {
                ctl.open_session_in(op.session, op.tenant, &scheme);
                saved.insert(op.session, 0);
            }
            TenantOpKind::Save { n_tokens } => {
                let prev = saved.insert(op.session, n_tokens).unwrap_or(0);
                let methods = ctl.session_methods(op.session).expect("opened");
                let rows = Tensor2::from_fn((n_tokens - prev) as usize, D_MODEL, |r, c| {
                    (op.session * 31 + r as u64 * 7 + c as u64) as f32 * 0.01
                });
                for (l, m) in methods.iter().enumerate() {
                    match m {
                        LayerMethod::Hidden => {
                            ctl.mgr()
                                .append_rows(StreamId::hidden(op.session, l as u32), &rows)
                                .unwrap();
                        }
                        LayerMethod::KvOffload => {
                            ctl.mgr()
                                .append_rows(StreamId::key(op.session, l as u32), &rows)
                                .unwrap();
                            ctl.mgr()
                                .append_rows(StreamId::value(op.session, l as u32), &rows)
                                .unwrap();
                        }
                        LayerMethod::Recompute => {}
                    }
                }
                ctl.mgr().flush_session(op.session).unwrap();
                ctl.on_saved(op.session, n_tokens).unwrap();
            }
            TenantOpKind::Close => {
                ctl.close_session(op.session).unwrap();
                saved.remove(&op.session);
            }
        }
    }
}

fn two_tenant_trace() -> Vec<hc_workload::tenant::TenantOp> {
    generate_tenant_trace(&TenantTraceConfig {
        n_tenants: 2,
        alpha: 2.5, // tenant 0 is the Zipf-hot burst
        rate: 0.4,
        horizon: 500.0,
        max_rounds: 3,
        round_interval: 30.0,
        tokens_per_round: 64,
        close_fraction: 0.1,
        seed: 7,
    })
}

/// Tenant 0's Zipf-hot burst runs the pool to its quota; tenant 1, whose
/// reservation covers its whole (much smaller) working set, survives
/// untouched, and the per-tenant counters attribute every demotion to
/// tenant 0.
#[test]
fn reserved_tenant_survives_the_hot_tenants_burst() {
    let trace = two_tenant_trace();
    assert!(
        trace.iter().any(|o| o.tenant == 1),
        "trace must exercise both tenants"
    );

    // Pass 1, no pressure: measure each tenant's organic footprint.
    let free = controller(u64::MAX, 0);
    replay(&free, &trace);
    let organic0 = free.tenant_stats(0).used_bytes;
    let organic1 = free.tenant_stats(1).used_bytes;
    assert!(organic0 > 4 * organic1, "tenant 0 must dominate the pool");

    // Pass 2: quota forces demotions, reservation shields tenant 1.
    let quota = organic1 + organic0 / 4;
    let ctl = controller(quota, organic1);
    replay(&ctl, &trace);

    assert!(
        ctl.used_bytes() <= quota,
        "pool must settle at quota: {} > {quota}",
        ctl.used_bytes()
    );
    let s0 = ctl.tenant_stats(0);
    let s1 = ctl.tenant_stats(1);
    assert!(
        s0.demotions > 0,
        "the hot tenant must have paid the pressure"
    );
    assert_eq!(s1.demotions, 0, "reserved tenant must never be victimized");
    assert_eq!(s1.bytes_evicted, 0);
    assert_eq!(
        s1.used_bytes, organic1,
        "reserved tenant keeps its whole working set"
    );
    assert!(
        s1.used_bytes >= organic1.min(quota),
        "reserved tenant stays above its reservation"
    );
    // Global counters agree with the per-tenant attribution.
    let m = ctl.metrics();
    assert_eq!(m.demotions, s0.demotions + s1.demotions);
    assert_eq!(m.bytes_evicted, s0.bytes_evicted + s1.bytes_evicted);
}

/// Without a reservation the same burst cannibalizes tenant 1 too — the
/// control experiment proving the reservation (not luck or LRU order) is
/// what shields it above.
#[test]
fn unreserved_cold_tenant_is_fair_game_under_the_same_burst() {
    let trace = two_tenant_trace();
    let free = controller(u64::MAX, 0);
    replay(&free, &trace);
    let organic1 = free.tenant_stats(1).used_bytes;

    let quota = free.tenant_stats(0).used_bytes / 8;
    let ctl = controller(quota, 0);
    replay(&ctl, &trace);
    let s1 = ctl.tenant_stats(1);
    assert!(
        s1.demotions > 0 || s1.used_bytes < organic1,
        "without a reservation the cold tenant shares the pain"
    );
}

// ---------------------------------------------------------------------------
// Churn stress
// ---------------------------------------------------------------------------

/// High-churn soak on the bare table: open/touch/charge/demote/close at a
/// population the old O(n)-scan controller could not sustain, then verify
/// the ledgers and the victim picks. Release CI runs this at 200k and at
/// **one million** sessions (the debug build keeps it small: the table's
/// per-mutation drift assertion is O(n) there, which is the point of
/// having it).
#[test]
fn soa_table_survives_sustained_churn_with_zero_drift() {
    let rows: &[(u64, u64)] = if cfg!(debug_assertions) {
        &[(2_000, 10_000)]
    } else {
        &[(200_000, 1_000_000), (1_000_000, 1_000_000)]
    };
    for &(n, churn) in rows {
        churn_then_pick(n, churn);
    }
}

/// Populate `n` sessions, run `churn` seeded mixed ops, then check the
/// contracts the million-session control plane is held to: the byte
/// ledger re-derived from the columns (and from the per-tenant counters)
/// equals the atomic total **exactly**, victims come out coldest-first,
/// and — release only — a pick stays far below an O(n) scan.
fn churn_then_pick(n: u64, churn: u64) {
    let mut table = SessionTable::new();
    let mix = full_mix(&mut table);
    for s in 0..n {
        table.open(s, s as u32 % 4, mix);
        table.set_bytes(s, 4096 + s % 512);
    }
    let mut rng = Rng::new(0x50a_c417);
    for _ in 0..churn {
        let id = rng.below(n);
        match rng.below(8) {
            0..=3 => {
                table.touch(id);
            }
            4 | 5 => {
                table.set_bytes(id, 1 + rng.below(16) * 1024);
            }
            6 => {
                if table.demote(id).is_some() {
                    let held = table.bytes_of(id).unwrap_or(0);
                    table.credit(id, held / 4 + 1);
                } else {
                    table.remove(id);
                    table.open(id, id as u32 % 4, mix);
                    table.set_bytes(id, 4096);
                }
            }
            _ => {
                table.remove(id);
                table.open(id, id as u32 % 4, mix);
                table.set_bytes(id, 1 + rng.below(16) * 1024);
            }
        }
    }
    let assert_zero_drift = |table: &SessionTable| {
        assert_eq!(table.len() as u64, n, "population must stay constant");
        assert_eq!(
            table.column_bytes_sum(),
            table.total_bytes(),
            "SoA column must sum to the atomic total at {n} sessions"
        );
        let tenant_sum: u64 = (0..table.n_tenants() as u32)
            .map(|t| table.tenant_usage(t).bytes)
            .sum();
        assert_eq!(tenant_sum, table.total_bytes());
    };
    assert_zero_drift(&table);

    // Victim picks, each rotated to the hot end so the next call has to
    // walk to a different coldest session.
    let picks: u32 = if cfg!(debug_assertions) { 64 } else { 10_000 };
    let mut last = 0;
    let started = std::time::Instant::now();
    for _ in 0..picks {
        let (id, slot) = table
            .coldest_evictable(&[])
            .expect("evictable churned pool");
        let touch = table.last_touch_at(slot);
        assert!(touch >= last, "victims must come out coldest-first");
        last = touch;
        table.touch(id);
    }
    let per_pick = started.elapsed() / picks;
    assert_zero_drift(&table);

    if !cfg!(debug_assertions) {
        // The O(log n) claim as a bound with two orders of magnitude of
        // slack on either side: a pick plus its touch measures ≈ 0.7 µs at
        // a million sessions, so 140 µs tolerates any scheduling noise; an
        // O(n) relapse costs milliseconds per pick — timed here as the
        // retained scan over the same table — and must stay ≥ 100× slower.
        assert!(
            per_pick <= std::time::Duration::from_micros(140),
            "{n} sessions: {per_pick:?} per victim pick"
        );
        let scans = 3;
        let started = std::time::Instant::now();
        for _ in 0..scans {
            std::hint::black_box(scan_reference(&table, &[]));
        }
        let per_scan = started.elapsed() / scans;
        assert!(
            per_pick * 100 <= per_scan,
            "{n} sessions: {per_pick:?} per pick is not 100× below the O(n) scan ({per_scan:?})"
        );
    }
}
