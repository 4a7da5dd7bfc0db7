//! # hc-cachectl
//!
//! The capacity control plane the paper's economics presuppose: hidden
//! states only beat recomputation and KV reload *per byte actually kept*,
//! so something must decide which sessions keep cached state when host
//! storage is finite — and a serving system resumes many sessions at once,
//! not one at a time. This crate supplies both halves:
//!
//! * [`CacheController`] — tracks every session's resident bytes (via
//!   `hc-storage`'s byte-accounting hooks) against a configurable
//!   [`quota`], makes cost-model-driven placement decisions at admission
//!   ([`placement::choose_placement`], fed by `hc_restore::cost`), and
//!   under pressure **demotes** victims one layer at a time down the
//!   ladder *hidden → KV → recompute*. Demotion deletes streams and edits
//!   the session's `LayerMethod` mix; it never corrupts saved state, so a
//!   restore after any eviction sequence is still bit-identical to a
//!   sequential restore of the surviving mix (and recomputed layers are
//!   bit-exact against a fresh forward pass). Stream deletion rides the
//!   sharded manager's tombstone protocol, so the bytes `delete_stream`
//!   reports stay exactly the bytes the ledger credited even while
//!   restores and the save daemon run concurrently.
//! * [`scheduler::RestoreScheduler`] — runs a burst of restores as one
//!   batch, splitting one host `ParallelConfig` budget across the batch's
//!   compute workers.
//!
//! Both restore entries — [`CacheController::restore_with_report`] (one
//! job, on the calling thread) and the scheduler's
//! [`run`](scheduler::RestoreScheduler::run) /
//! [`run_with_reports`](scheduler::RestoreScheduler::run_with_reports) —
//! are one private body, `restore_jobs`, which calls the `hc-restore`
//! driver from its one place and retries in rounds.
//!
//! The controller is also where the **device-health plane** lands on the
//! session axis, on every restore entry: [`CacheController::on_device_down`]
//! marks a storage lane out, and any layer whose chunks sit behind a down
//! or breaker-tripped device is degraded to recomputation — preemptively
//! when known up front, reactively when a read dies mid-restore — with a
//! per-session [`DegradationReport`] instead of an error. Errors that
//! degradation cannot cure still surface typed: an unknown session, a
//! deleted stream, a panic, or a job whose history cannot replay the
//! recompute prefix. Mixes are never demoted for device failure, so a
//! healed device ([`CacheController::on_device_recovered`], or the
//! breaker's half-open probe succeeding) re-promotes affected sessions to
//! full-mix restores automatically.
//!
//! Session bookkeeping lives in [`table::SessionTable`], a
//! structure-of-arrays store sized for millions of concurrent sessions:
//! dense columns instead of per-session heap cells, byte accounting that
//! debug-asserts column-sum == atomic-total after every mutation, and an
//! ordered set of `(last_touch, session)` keys, an **O(log n) exact LRU**,
//! so victim selection no longer scans the session population. The
//! [`policy`] module's scan-based `LruPolicy` remains the reference
//! implementation the controller's LRU victims are equivalence-tested
//! against; its `CostAwarePolicy` is the cost-aware comparator the
//! controller calls (and `hc-serving`'s virtual-time simulator drives
//! both).
//! Sessions carry a tenant id ([`CacheController::open_session_in`]):
//! per-tenant caps demote within the offending tenant, and pool pressure
//! never victimizes a tenant at or below its configured reservation
//! ([`quota::TenantQuota`]), with per-tenant eviction counters reported
//! separately ([`CacheController::tenant_stats`]).
//!
//! Every `hcache::HCacheSystem` routes session open/save/restore/close
//! through its controller (an unlimited-quota one unless the caller sets
//! a quota); `hc-serving` mirrors the same quota/policy knobs in virtual
//! time and reports hit/evict/fallback counts.

pub mod metrics;
pub mod placement;
pub mod policy;
pub mod quota;
pub mod scheduler;
pub mod table;

use std::collections::BTreeSet;
use std::sync::Arc;

use hc_model::{KvCache, Model};
use hc_restore::cost::CostInputs;
use hc_restore::engine::{layer_streams, DegradationReport, DegradeCause, RestoreError};
use hc_restore::reactor::{restore_sessions, RestoreRequest};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::ChunkStore;
use hc_storage::manager::StorageManager;
use hc_storage::StorageError;
use hc_tensor::f16::BYTES_PER_ELEM;
use hc_tensor::ParallelConfig;
use parking_lot::Mutex;

use metrics::{CtlMetrics, MetricsSnapshot, TenantStats};
use placement::{choose_placement, restore_secs_of, Placement};
use policy::{CostAwarePolicy, EvictionPolicy, PolicyKind, SessionMeta};
use quota::{QuotaTracker, TenantQuota};
use table::SessionTable;

/// Errors from the cache controller.
#[derive(Debug)]
pub enum CtlError {
    /// Session was never opened (or already closed).
    UnknownSession(u64),
    /// Storage failure during restore or eviction.
    Storage(StorageError),
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::UnknownSession(id) => write!(f, "unknown session {id}"),
            CtlError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<StorageError> for CtlError {
    fn from(e: StorageError) -> Self {
        CtlError::Storage(e)
    }
}

impl From<hc_restore::engine::RestoreError> for CtlError {
    fn from(e: hc_restore::engine::RestoreError) -> Self {
        match e {
            hc_restore::engine::RestoreError::Storage(s) => CtlError::Storage(s),
            hc_restore::engine::RestoreError::Panicked => CtlError::Storage(
                hc_storage::StorageError::Io("restore state machine panicked".to_string()),
            ),
        }
    }
}

/// Per-session outcome of a batch restore: the session id paired with
/// either the restored cache and its [`DegradationReport`] or the typed
/// error that survived degradation.
pub type ReportedRestore = (u64, Result<(KvCache, DegradationReport), CtlError>);

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Host cache storage quota in bytes.
    pub quota_bytes: u64,
    /// Victim-selection policy under pressure.
    pub policy: PolicyKind,
    /// Host→GPU bandwidth for the placement cost model (B/s).
    pub bandwidth: f64,
    /// GPU FLOPS for the placement cost model.
    pub flops: f64,
    /// History length assumed for admission-time placement when a session
    /// has no better hint yet.
    pub expected_tokens: u64,
    /// Per-tenant reservation/cap pairs applied at construction
    /// (tenants not listed share the pool best-effort).
    pub tenant_quotas: Vec<(u32, TenantQuota)>,
}

impl ControllerConfig {
    /// A quota-governed config with the paper's A100 testbed cost terms
    /// and the LRU policy.
    pub fn with_quota(quota_bytes: u64) -> Self {
        Self {
            quota_bytes,
            policy: PolicyKind::Lru,
            bandwidth: 32e9,
            flops: 312e12,
            expected_tokens: 256,
            tenant_quotas: Vec::new(),
        }
    }

    /// An effectively-unlimited config (tracking and metrics only).
    pub fn unlimited() -> Self {
        Self::with_quota(u64::MAX)
    }

    /// Same config with a different eviction policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Same config with a different admission-time history-length hint.
    pub fn with_expected_tokens(mut self, expected_tokens: u64) -> Self {
        self.expected_tokens = expected_tokens;
        self
    }

    /// Same config with one tenant's reservation/cap limits set.
    pub fn with_tenant_quota(mut self, tenant: u32, limits: TenantQuota) -> Self {
        self.tenant_quotas.push((tenant, limits));
        self
    }
}

/// Per-tenant demotion counters (under the state lock; see
/// [`CacheController::tenant_stats`]).
#[derive(Debug, Clone, Copy, Default)]
struct TenantEvict {
    demotions: u64,
    bytes_evicted: u64,
    sessions_dropped: u64,
}

struct CtlState {
    table: SessionTable,
    quota: QuotaTracker,
    tenant_evictions: Vec<TenantEvict>,
    /// Devices administratively marked down
    /// ([`CacheController::on_device_down`]). Restores degrade any layer
    /// whose chunks live on one of these lanes to recomputation instead of
    /// issuing IO that is known to fail; the session table's mixes are
    /// never demoted, so recovery re-promotes by simply clearing the mark.
    down_devices: BTreeSet<usize>,
}

/// The capacity-governed cache controller. All methods take `&self`; the
/// bookkeeping lives behind one mutex, and restores run outside it so
/// concurrent sessions only serialize on metadata.
pub struct CacheController<S: ChunkStore + 'static> {
    mgr: Arc<StorageManager<S>>,
    n_layers: usize,
    d_model: usize,
    cfg: ControllerConfig,
    state: Mutex<CtlState>,
    metrics: CtlMetrics,
}

impl<S: ChunkStore + 'static> CacheController<S> {
    /// Builds a controller over a storage manager for a model of
    /// `n_layers × d_model`.
    pub fn new(
        mgr: Arc<StorageManager<S>>,
        n_layers: usize,
        d_model: usize,
        cfg: ControllerConfig,
    ) -> Self {
        assert!(n_layers > 0 && d_model > 0, "model dims must be positive");
        let mut quota = QuotaTracker::new(cfg.quota_bytes);
        for (tenant, limits) in &cfg.tenant_quotas {
            quota.set_tenant(*tenant, *limits);
        }
        Self {
            mgr,
            n_layers,
            d_model,
            cfg,
            state: Mutex::new(CtlState {
                table: SessionTable::new(),
                quota,
                tenant_evictions: Vec::new(),
                down_devices: BTreeSet::new(),
            }),
            metrics: CtlMetrics::default(),
        }
    }

    /// The storage manager this controller governs.
    pub fn mgr(&self) -> &Arc<StorageManager<S>> {
        &self.mgr
    }

    /// Configured quota in bytes.
    pub fn quota_bytes(&self) -> u64 {
        self.cfg.quota_bytes
    }

    /// Bytes currently charged across sessions (the session table's
    /// atomic grand total, which debug builds verify against the byte
    /// column after every mutation).
    pub fn used_bytes(&self) -> u64 {
        self.state.lock().table.total_bytes()
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// One tenant's usage and eviction counters.
    pub fn tenant_stats(&self, tenant: u32) -> TenantStats {
        let st = self.state.lock();
        let usage = st.table.tenant_usage(tenant);
        let ev = st
            .tenant_evictions
            .get(tenant as usize)
            .copied()
            .unwrap_or_default();
        TenantStats {
            used_bytes: usage.bytes,
            sessions: usage.sessions,
            demotions: ev.demotions,
            bytes_evicted: ev.bytes_evicted,
            sessions_dropped: ev.sessions_dropped,
        }
    }

    /// Updates one tenant's reservation/cap limits at runtime. Takes
    /// effect at the next reconciliation ([`CacheController::on_saved`]).
    pub fn set_tenant_quota(&self, tenant: u32, limits: TenantQuota) {
        self.state.lock().quota.set_tenant(tenant, limits);
    }

    /// A session's current per-layer method mix (`None` if unknown).
    pub fn session_methods(&self, session: u64) -> Option<Vec<LayerMethod>> {
        self.state.lock().table.methods_of(session)
    }

    /// A session's tracked history length.
    pub fn session_tokens(&self, session: u64) -> Option<u64> {
        self.state.lock().table.n_tokens_of(session)
    }

    fn cost_inputs(&self, n_tokens: u64) -> CostInputs {
        CostInputs {
            n_seq: n_tokens.max(1),
            d_hidden: self.d_model as u64,
            bandwidth: self.cfg.bandwidth,
            flops: self.cfg.flops,
            elem_bytes: BYTES_PER_ELEM as u64,
        }
    }

    /// Registers a session for tenant 0 and decides its placement —
    /// [`CacheController::open_session_in`] for single-tenant callers.
    pub fn open_session(&self, session: u64, desired: &PartitionScheme) -> Vec<LayerMethod> {
        self.open_session_in(session, 0, desired)
    }

    /// Registers a session under a tenant and decides its placement. The
    /// caller's desired scheme is honored when its projected footprint can
    /// ever fit the quota; otherwise the cost model picks the fastest
    /// feasible pure method (KV, or drop-to-recompute for sessions larger
    /// than the pool). Returns the methods the session's state must be
    /// saved under.
    pub fn open_session_in(
        &self,
        session: u64,
        tenant: u32,
        desired: &PartitionScheme,
    ) -> Vec<LayerMethod> {
        let expected = self.cfg.expected_tokens.max(1);
        let desired_p = Placement::from_scheme(desired, self.n_layers);
        let projected = desired_p.bytes_per_token(self.d_model, BYTES_PER_ELEM) * expected;
        let placement = if projected <= self.cfg.quota_bytes {
            desired_p
        } else {
            let c = self.cost_inputs(expected);
            let decision = choose_placement(&c, self.n_layers, self.cfg.quota_bytes);
            Placement::from_scheme(&decision.scheme(self.n_layers), self.n_layers)
        };
        let counter = if placement.is_fully_dropped() {
            &self.metrics.placed_dropped
        } else if placement.methods().contains(&LayerMethod::Hidden) {
            &self.metrics.placed_hidden
        } else {
            &self.metrics.placed_kv
        };
        CtlMetrics::bump(counter, 1);
        let methods = placement.methods().to_vec();
        let mut st = self.state.lock();
        let mix = st.table.mixes_mut().intern(&methods);
        st.table.open(session, tenant, mix);
        methods
    }

    /// Reconciles a session's charge after its state was saved and flushed
    /// (`n_tokens` = new total history length), then runs the eviction
    /// ladder until the pool and every tenant are back under their limits.
    pub fn on_saved(&self, session: u64, n_tokens: u64) -> Result<(), CtlError> {
        let mut st = self.state.lock();
        if !st.table.contains(session) {
            return Err(CtlError::UnknownSession(session));
        }
        st.table.set_n_tokens(session, n_tokens);
        let bytes = self.mgr.session_bytes(session);
        st.table.set_bytes(session, bytes);
        self.enforce_quota(&mut st);
        Ok(())
    }

    /// Demotes `session` down the whole ladder to token-only: every stored
    /// stream is deleted and its bytes credited, rung by rung, as quota
    /// pressure would. A round that fails after saving rows drops the
    /// state it cannot vouch for this way; the session's token history
    /// then restores it by recomputation.
    pub fn demote_to_floor(&self, session: u64) {
        let mut st = self.state.lock();
        while self.demote_victim(&mut st, session) {}
    }

    /// Picks the next demotion victim among evictable sessions whose
    /// tenant index maps to `true` in `allowed` (empty = everyone).
    /// LRU is the table's ordered-set first entry; cost-aware hands every
    /// such session to [`policy::CostAwarePolicy`] (min benefit-per-byte,
    /// then recency, then session id).
    fn pick_victim(&self, st: &CtlState, allowed: &[bool]) -> Option<u64> {
        let table = &st.table;
        match self.cfg.policy {
            PolicyKind::Lru => table.coldest_evictable(allowed).map(|(id, _)| id),
            PolicyKind::CostAware => {
                let candidates: Vec<SessionMeta> = table
                    .evictable(allowed)
                    .map(|(session, slot)| {
                        let c = self.cost_inputs(table.n_tokens_at(slot));
                        SessionMeta {
                            session,
                            resident_bytes: table.bytes_at(slot),
                            last_access: table.last_touch_at(slot),
                            n_tokens: table.n_tokens_at(slot),
                            restore_secs_current: restore_secs_of(
                                table.mixes().methods(table.mix_at(slot)),
                                &c,
                            ),
                            restore_secs_dropped: Placement::dropped(self.n_layers)
                                .restore_secs(&c),
                        }
                    })
                    .collect();
                (!candidates.is_empty()).then(|| CostAwarePolicy.pick_victim(&candidates))
            }
        }
    }

    /// Demotes one session one rung: deletes the dropped layer's streams,
    /// credits the freed bytes back, and bumps global + per-tenant
    /// counters. False when the session is gone or already at the floor.
    fn demote_victim(&self, st: &mut CtlState, victim: u64) -> bool {
        let Some(tenant) = st.table.tenant_of(victim) else {
            return false;
        };
        let Some((layer, old)) = st.table.demote(victim) else {
            return false;
        };
        let freed = layer_streams(victim, layer, old)
            .into_iter()
            .map(|s| self.mgr.delete_stream(s))
            .sum();
        let now_dropped = st
            .table
            .mix_of(victim)
            .is_some_and(|h| st.table.mixes().is_fully_dropped(h));
        st.table.credit(victim, freed);
        CtlMetrics::bump(&self.metrics.demotions, 1);
        CtlMetrics::bump(&self.metrics.bytes_evicted, freed);
        if now_dropped {
            CtlMetrics::bump(&self.metrics.sessions_dropped, 1);
        }
        let t = tenant as usize;
        if st.tenant_evictions.len() <= t {
            st.tenant_evictions.resize(t + 1, TenantEvict::default());
        }
        let ev = &mut st.tenant_evictions[t];
        ev.demotions += 1;
        ev.bytes_evicted += freed;
        if now_dropped {
            ev.sessions_dropped += 1;
        }
        true
    }

    /// Demotes policy-chosen victims one layer at a time until usage fits
    /// every limit (or nothing demotable remains). Two phases:
    ///
    /// 1. **Tenant caps** — a tenant over its hard cap only ever demotes
    ///    its own sessions, even when the pool has headroom.
    /// 2. **Pool quota** — victims come only from tenants above their
    ///    reservation, so one tenant's burst cannot push another below its
    ///    guaranteed floor. If every over-reservation tenant is out of
    ///    demotable state the loop stops rather than break the guarantee.
    fn enforce_quota(&self, st: &mut CtlState) {
        let n_tenants = st.table.n_tenants().max(st.quota.n_tenants());
        for tenant in 0..n_tenants as u32 {
            while st
                .quota
                .over_cap(tenant, st.table.tenant_usage(tenant).bytes)
            {
                let mut allowed = vec![false; n_tenants];
                allowed[tenant as usize] = true;
                let Some(victim) = self.pick_victim(st, &allowed) else {
                    break;
                };
                if !self.demote_victim(st, victim) {
                    break;
                }
            }
        }
        while st.quota.over_quota(st.table.total_bytes()) {
            let n_tenants = st.table.n_tenants();
            let allowed: Vec<bool> = (0..n_tenants as u32)
                .map(|t| {
                    st.quota
                        .above_reservation(t, st.table.tenant_usage(t).bytes)
                })
                .collect();
            let Some(victim) = self.pick_victim(st, &allowed) else {
                break; // nothing left to free; usage is all untracked or reserved
            };
            if !self.demote_victim(st, victim) {
                break;
            }
        }
    }

    /// Marks a storage device administratively down. Until
    /// [`CacheController::on_device_recovered`] clears the mark, restores
    /// preemptively degrade any layer whose chunks live on that lane to
    /// recomputation (extending the mix's recompute prefix locally for the
    /// one restore) instead of issuing IO that is known to fail. Saved
    /// state and the session table are untouched, so affected sessions
    /// re-promote to their full mixes the moment the device returns.
    pub fn on_device_down(&self, device: usize) {
        self.state.lock().down_devices.insert(device);
    }

    /// Clears a device's administrative down mark: the next restore of an
    /// affected session reads its full mix again (re-promotion is
    /// implicit — nothing was demoted).
    pub fn on_device_recovered(&self, device: usize) {
        self.state.lock().down_devices.remove(&device);
    }

    /// Devices currently marked down, ascending.
    pub fn down_devices(&self) -> Vec<usize> {
        self.state.lock().down_devices.iter().copied().collect()
    }

    /// The recompute prefix the device-health plane currently forces on a
    /// session's mix: every cached layer with chunks on a down-marked or
    /// breaker-tripped lane drags the prefix past itself (recompute layers
    /// must stay a prefix, §4.1.2). Returns the forced prefix (≥ the mix's
    /// own) and the cause from the highest affected layer.
    fn degraded_prefix_for(
        &self,
        session: u64,
        methods: &[LayerMethod],
        down: &BTreeSet<usize>,
    ) -> (usize, Option<DegradeCause>) {
        let health = self.mgr.device_health();
        let mut prefix = recompute_prefix_of(methods);
        let mut cause = None;
        for (l, m) in methods.iter().enumerate().skip(prefix) {
            for stream in layer_streams(session, l, *m) {
                for device in self.mgr.stream_devices(stream) {
                    let c = if down.contains(&device) {
                        Some(DegradeCause::DeviceDown { device })
                    } else if health.is_tripped(device) {
                        Some(DegradeCause::BreakerOpen { device })
                    } else {
                        None
                    };
                    if let Some(c) = c {
                        prefix = l + 1;
                        cause = Some(c);
                    }
                }
            }
        }
        (prefix, cause)
    }

    /// Types a mid-read device failure for the degradation report.
    fn classify_failure(
        &self,
        down: &BTreeSet<usize>,
        device: usize,
        transient: bool,
    ) -> DegradeCause {
        if down.contains(&device) || !transient {
            DegradeCause::DeviceDown { device }
        } else if self.mgr.device_health().is_tripped(device) {
            DegradeCause::BreakerOpen { device }
        } else {
            DegradeCause::RetryExhausted { device }
        }
    }

    /// Restores a session's KV cache under its *current* (possibly
    /// demoted) method mix, through the bubble-free pipelined executor on
    /// the calling thread with `par`'s thread budget — one job of the
    /// controller's one restore body (see [`Self::restore_jobs`]). Counts
    /// a hit when any layer was served from cache, a fallback when the
    /// session had been dropped to token-only.
    ///
    /// The device-health plane is engaged: layers whose chunks sit behind
    /// a down-marked or breaker-tripped device are degraded to
    /// recomputation *before* any IO, and a read that still dies
    /// mid-restore widens the recompute prefix over the failed layer and
    /// retries. The returned [`DegradationReport`] says how many layers
    /// were served degraded and why; the restored cache is bit-identical
    /// to a sequential restore of the same degraded mix. The session
    /// table is never demoted for device failure: once the breaker closes
    /// (or the device is marked recovered), the next restore reads the
    /// full mix again.
    pub fn restore_with_report(
        &self,
        model: &Model,
        session: u64,
        tokens: &[u32],
        par: &ParallelConfig,
    ) -> Result<(KvCache, DegradationReport), CtlError> {
        self.restore_jobs(model, &[(session, tokens)], 1, 1, par)
            .pop()
            // hc-analyze: allow(panic) restore_jobs returns one result per job
            .expect("one job, one result")
    }

    /// The controller's one restore body, behind
    /// [`Self::restore_with_report`] and
    /// [`scheduler::RestoreScheduler`]: restores `(session, history)` jobs
    /// on `workers` compute workers with up to `max_inflight` restores in
    /// flight, in retry rounds. Each round, for every pending job:
    ///
    /// 1. under the state lock, snapshot its mix and history length and
    ///    `touch` it, counting a hit/fallback once per job across rounds;
    /// 2. outside the lock, degrade preemptively around down-marked or
    ///    breaker-tripped devices (only a job whose history covers the
    ///    recompute prefix can be degraded);
    /// 3. restore every pending job in one
    ///    [`hc_restore::reactor::restore_sessions`] call;
    /// 4. per failure, widen the recompute prefix over a `DeviceFailed`
    ///    layer and go again, or — the mix is read outside the lock, so a
    ///    concurrent save may have demoted the session and deleted a
    ///    stream the snapshot still expected — retry under a mix that
    ///    changed. An unchanged mix surfaces the error typed.
    ///
    /// Both retries are bounded: the forced prefix only grows, and
    /// demotion only shrinks the streams a restore needs. Results come
    /// back in job order; an unknown session fails only its own slot.
    pub(crate) fn restore_jobs(
        &self,
        model: &Model,
        jobs: &[(u64, &[u32])],
        workers: usize,
        max_inflight: usize,
        par: &ParallelConfig,
    ) -> Vec<Result<(KvCache, DegradationReport), CtlError>> {
        assert_eq!(model.cfg.n_layers, self.n_layers, "model mismatch");
        /// What the rounds so far taught one job.
        #[derive(Default)]
        struct Learned {
            counted: bool,
            forced: usize,
            cause: Option<DegradeCause>,
            /// The mix the last attempt failed under.
            failed: Option<Vec<LayerMethod>>,
        }
        /// One job's attempt in the current round.
        struct Attempt {
            job: usize,
            n_tokens: usize,
            base: usize,
            forced: usize,
            can_degrade: bool,
            methods: Vec<LayerMethod>,
        }
        let mut learned: Vec<Learned> = jobs.iter().map(|_| Learned::default()).collect();
        let mut results: Vec<Option<Result<(KvCache, DegradationReport), CtlError>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        while !pending.is_empty() {
            let mut snapshots = Vec::with_capacity(pending.len());
            let down = {
                let mut st = self.state.lock();
                for &job in &pending {
                    let session = jobs[job].0;
                    if !st.table.touch(session) {
                        results[job] = Some(Err(CtlError::UnknownSession(session)));
                        continue;
                    }
                    // hc-analyze: allow(panic) touch() returned true above, so the session row exists under this same lock hold
                    let mix = st.table.mix_of(session).expect("session just touched");
                    if !learned[job].counted {
                        learned[job].counted = true;
                        let counter = if st.table.mixes().is_fully_dropped(mix) {
                            &self.metrics.restore_fallbacks
                        } else {
                            &self.metrics.restore_hits
                        };
                        CtlMetrics::bump(counter, 1);
                    }
                    snapshots.push((
                        job,
                        st.table.mixes().methods(mix).to_vec(),
                        // hc-analyze: allow(panic) touch() returned true above, so the session row exists under this same lock hold
                        st.table.n_tokens_of(session).expect("session exists") as usize,
                    ));
                }
                st.down_devices.clone()
            };
            // Preemptive degradation, outside the state lock
            // (`stream_devices` takes the manager's stream locks).
            let attempts: Vec<Attempt> = snapshots
                .into_iter()
                .map(|(job, mut methods, n_tokens)| {
                    let (session, tokens) = jobs[job];
                    let base = recompute_prefix_of(&methods);
                    let can_degrade = tokens.len() >= n_tokens;
                    let mut forced = 0;
                    if can_degrade {
                        let l = &mut learned[job];
                        let (pre, cause) = self.degraded_prefix_for(session, &methods, &down);
                        if pre > l.forced {
                            l.forced = pre;
                            l.cause = cause.or(l.cause);
                        }
                        forced = l.forced;
                    }
                    for m in methods.iter_mut().take(forced) {
                        *m = LayerMethod::Recompute;
                    }
                    Attempt {
                        job,
                        n_tokens,
                        base,
                        forced,
                        can_degrade,
                        methods,
                    }
                })
                .collect();
            let requests: Vec<RestoreRequest> = attempts
                .iter()
                .map(|a| RestoreRequest {
                    session: jobs[a.job].0,
                    tokens: jobs[a.job].1,
                    n_tokens: a.n_tokens,
                    methods: &a.methods,
                })
                .collect();
            let outcomes =
                restore_sessions(model, &self.mgr, &requests, workers, max_inflight, par);
            drop(requests);
            pending.clear();
            for (a, outcome) in attempts.into_iter().zip(outcomes) {
                let l = &mut learned[a.job];
                let e = match outcome {
                    Ok(kv) => {
                        let layers_recomputed = a.forced.saturating_sub(a.base);
                        if layers_recomputed > 0 {
                            CtlMetrics::bump(&self.metrics.restores_degraded, 1);
                            CtlMetrics::bump(
                                &self.metrics.layers_degraded,
                                layers_recomputed as u64,
                            );
                        }
                        let report = DegradationReport {
                            layers_recomputed,
                            cause: if layers_recomputed > 0 { l.cause } else { None },
                        };
                        results[a.job] = Some(Ok((kv, report)));
                        continue;
                    }
                    Err(e) => e,
                };
                if let RestoreError::Storage(StorageError::DeviceFailed {
                    key,
                    device,
                    transient,
                    ..
                }) = &e
                {
                    let widened = (key.stream.layer as usize + 1).min(self.n_layers);
                    if a.can_degrade && widened > l.forced {
                        // Reactive rung of the ladder: recompute over the
                        // failed layer and go again.
                        l.cause = Some(self.classify_failure(&down, *device, *transient));
                        l.forced = widened;
                        l.failed = Some(a.methods);
                        pending.push(a.job);
                        continue;
                    }
                }
                if l.failed.as_ref() == Some(&a.methods) {
                    // The mix did not change since the failed attempt: the
                    // error is real, not a racing demotion.
                    results[a.job] = Some(Err(e.into()));
                } else {
                    l.failed = Some(a.methods);
                    pending.push(a.job);
                }
            }
        }
        results
            .into_iter()
            // hc-analyze: allow(panic) the rounds run until every job has a result
            .map(|r| r.expect("every job resolved"))
            .collect()
    }

    /// Closes a session: deletes its storage and releases its charge.
    /// Returns bytes freed.
    pub fn close_session(&self, session: u64) -> Result<u64, CtlError> {
        let mut st = self.state.lock();
        st.table
            .remove(session)
            .ok_or(CtlError::UnknownSession(session))?;
        let freed = self.mgr.delete_session(session);
        Ok(freed)
    }
}

/// Length of a mix's leading run of recompute layers.
fn recompute_prefix_of(methods: &[LayerMethod]) -> usize {
    methods
        .iter()
        .take_while(|m| **m == LayerMethod::Recompute)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_model::ModelConfig;
    use hc_restore::engine::{kv_max_error, restore_session_with_methods, save_session_state};
    use hc_storage::backend::MemStore;
    use hc_storage::StreamId;
    use hc_tensor::Tensor2;
    use std::collections::HashMap;

    fn mgr() -> Arc<StorageManager<MemStore>> {
        Arc::new(StorageManager::new(Arc::new(MemStore::new(2)), 8))
    }

    /// Emulates a round's save under the controller's methods: appends
    /// `n_tokens` rows to each cached stream and flushes, then reconciles.
    fn save_rows(
        ctl: &CacheController<MemStore>,
        session: u64,
        methods: &[LayerMethod],
        n_tokens: u64,
        prev_tokens: u64,
    ) {
        let rows = Tensor2::from_fn((n_tokens - prev_tokens) as usize, 8, |r, c| {
            (session * 31 + r as u64 * 7 + c as u64) as f32 * 0.01
        });
        for (l, m) in methods.iter().enumerate() {
            for stream in layer_streams(session, l, *m) {
                ctl.mgr().append_rows(stream, &rows).unwrap();
            }
        }
        ctl.mgr().flush_session(session).unwrap();
        ctl.on_saved(session, n_tokens).unwrap();
    }

    #[test]
    fn admission_honors_desired_scheme_when_it_fits() {
        let ctl = CacheController::new(mgr(), 4, 8, ControllerConfig::unlimited());
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let methods = ctl.open_session(1, &scheme);
        assert_eq!(methods, scheme.layer_methods(4));
        assert_eq!(ctl.metrics().placed_hidden, 1);
    }

    #[test]
    fn admission_drops_sessions_larger_than_the_pool() {
        // Quota of 64 bytes: even one token per layer cannot fit.
        let ctl = CacheController::new(mgr(), 4, 8, ControllerConfig::with_quota(64));
        let methods = ctl.open_session(1, &PartitionScheme::pure_hidden(4));
        assert!(methods.iter().all(|m| *m == LayerMethod::Recompute));
        assert_eq!(ctl.metrics().placed_dropped, 1);
    }

    #[test]
    fn over_quota_saves_trigger_lru_demotion() {
        // Quota of 3 chunks (at D=8, f16: 64 tokens * 16 B = 1024 B/chunk).
        let quota = 3 * 64 * 8 * 2;
        let cfg = ControllerConfig::with_quota(quota).with_expected_tokens(64);
        let ctl = CacheController::new(mgr(), 2, 8, cfg);
        let scheme = PartitionScheme::pure_hidden(2);
        let m1 = ctl.open_session(1, &scheme);
        let m2 = ctl.open_session(2, &scheme);
        // Session 1 saves 64 tokens over 2 hidden layers = 2 chunks.
        save_rows(&ctl, 1, &m1, 64, 0);
        assert!(ctl.used_bytes() <= quota);
        assert_eq!(ctl.metrics().demotions, 0);
        // Session 2 saves the same: 4 chunks total > 3 → session 1 (LRU)
        // loses a layer.
        save_rows(&ctl, 2, &m2, 64, 0);
        assert!(ctl.used_bytes() <= quota, "quota enforced");
        assert!(ctl.metrics().demotions >= 1);
        let demoted = ctl.session_methods(1).unwrap();
        assert_eq!(demoted[0], LayerMethod::Recompute, "LRU victim demoted");
        // Session 2 (most recent) kept everything.
        assert_eq!(
            ctl.session_methods(2).unwrap(),
            vec![LayerMethod::Hidden; 2]
        );
    }

    #[test]
    fn cost_aware_policy_demotes_lowest_benefit_per_byte() {
        // Two sessions, same bytes — but session 1 is *short* (cheap to
        // recompute) and session 2 is long (expensive): cost-aware demotes
        // session 1 even though session 2 is colder.
        let quota = 3 * 64 * 8 * 2;
        let mut cfg = ControllerConfig::with_quota(quota)
            .with_policy(PolicyKind::CostAware)
            .with_expected_tokens(64);
        // Compute-poor, IO-rich cost terms so hidden restoration is
        // compute-bound and the recompute-vs-hidden benefit is positive —
        // the regime where benefit-per-byte ordering matters.
        cfg.bandwidth = 1e15;
        cfg.flops = 1e9;
        let ctl = CacheController::new(mgr(), 1, 8, cfg);
        let scheme = PartitionScheme::pure_hidden(1);
        let m2 = ctl.open_session(2, &scheme);
        save_rows(&ctl, 2, &m2, 128, 0); // long session, accessed FIRST (colder)
        let m1 = ctl.open_session(1, &scheme);
        save_rows(&ctl, 1, &m1, 64, 0); // short session, accessed last
                                        // 3 chunks resident now; one more for session 2 tips it over.
        save_rows(&ctl, 2, &m2, 192, 128);
        assert!(ctl.used_bytes() <= quota);
        assert_eq!(
            ctl.session_methods(1).unwrap(),
            vec![LayerMethod::Recompute],
            "short session has the lowest benefit per byte"
        );
        assert_eq!(ctl.session_methods(2).unwrap(), vec![LayerMethod::Hidden]);
    }

    #[test]
    fn tenant_cap_demotes_within_the_tenant_even_with_pool_headroom() {
        // Pool is unlimited; tenant 1 is capped at 2 chunks.
        let cap = 2 * 64 * 8 * 2;
        let cfg = ControllerConfig::unlimited()
            .with_expected_tokens(64)
            .with_tenant_quota(
                1,
                TenantQuota {
                    reservation_bytes: 0,
                    cap_bytes: cap,
                },
            );
        let ctl = CacheController::new(mgr(), 2, 8, cfg);
        let scheme = PartitionScheme::pure_hidden(2);
        let m0 = ctl.open_session_in(10, 0, &scheme);
        let m1a = ctl.open_session_in(11, 1, &scheme);
        let m1b = ctl.open_session_in(12, 1, &scheme);
        save_rows(&ctl, 10, &m0, 64, 0); // tenant 0: 2 chunks, untouched
        save_rows(&ctl, 11, &m1a, 64, 0); // tenant 1: 2 chunks (at cap)
        save_rows(&ctl, 12, &m1b, 64, 0); // tenant 1: 4 chunks > cap
        let t1 = ctl.tenant_stats(1);
        assert!(
            t1.used_bytes <= cap,
            "cap enforced: {} > {cap}",
            t1.used_bytes
        );
        assert!(t1.demotions >= 1);
        // Tenant 0 was never touched despite owning the coldest session.
        let t0 = ctl.tenant_stats(0);
        assert_eq!(t0.demotions, 0);
        assert_eq!(t0.used_bytes, 2 * 64 * 8 * 2);
        assert_eq!(
            ctl.session_methods(10).unwrap(),
            vec![LayerMethod::Hidden; 2]
        );
        // The cap victim was tenant 1's coldest (session 11).
        assert_eq!(ctl.session_methods(11).unwrap()[0], LayerMethod::Recompute);
    }

    #[test]
    fn restore_after_demotion_is_bit_identical_to_sequential_and_correct() {
        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 5);
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(2)), cfg_m.d_model)
                .with_reactor(hc_storage::reactor::Reactor::new(2, 2)),
        );
        // Quota that fits ~2 of the 4 hidden layer streams of 80 tokens.
        let stream_bytes = 80 * cfg_m.d_model as u64 * 2;
        let ctl = CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::with_quota(2 * stream_bytes).with_expected_tokens(32),
        );
        let scheme = PartitionScheme::pure_hidden(cfg_m.n_layers);
        let methods = ctl.open_session(1, &scheme);
        let tokens: Vec<u32> = (0..80u32).map(|i| (i * 37) % 256).collect();
        let mut reference = KvCache::new(&cfg_m);
        let out = model.prefill(&tokens, &mut reference, true);
        save_session_state(
            &model,
            &mgr,
            1,
            &out.hidden_per_layer.unwrap(),
            &reference,
            &PartitionScheme::pure_hidden(cfg_m.n_layers),
        )
        .unwrap();
        assert_eq!(methods, vec![LayerMethod::Hidden; 4]);
        ctl.on_saved(1, 80).unwrap();
        // Pressure demoted the first two layers.
        assert!(ctl.used_bytes() <= 2 * stream_bytes);
        let demoted = ctl.session_methods(1).unwrap();
        assert_eq!(
            demoted,
            vec![
                LayerMethod::Recompute,
                LayerMethod::Recompute,
                LayerMethod::Hidden,
                LayerMethod::Hidden,
            ]
        );
        // Controller restore == sequential restore of the surviving mix,
        // bit for bit, at several thread budgets.
        let seq = restore_session_with_methods(&model, &mgr, 1, &tokens, 80, &demoted).unwrap();
        for threads in [1usize, 4] {
            let (kv, _) = ctl
                .restore_with_report(&model, 1, &tokens, &ParallelConfig::new(threads))
                .unwrap();
            assert_eq!(kv_max_error(&kv, &seq), 0.0);
        }
        // Demoted layers are bit-exact against the fresh forward pass;
        // surviving hidden layers carry only f16 noise.
        assert_eq!(seq.keys(0), reference.keys(0));
        assert_eq!(seq.keys(1), reference.keys(1));
        assert!(kv_max_error(&seq, &reference) < 0.05);
        assert_eq!(ctl.metrics().restore_hits, 2);
    }

    #[test]
    fn fully_dropped_session_restores_by_recompute_and_counts_fallback() {
        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 7);
        let mgr = Arc::new(StorageManager::new(
            Arc::new(MemStore::new(2)),
            cfg_m.d_model,
        ));
        let ctl = CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::with_quota(64), // nothing fits
        );
        let methods = ctl.open_session(1, &PartitionScheme::pure_hidden(cfg_m.n_layers));
        assert!(methods.iter().all(|m| *m == LayerMethod::Recompute));
        let tokens: Vec<u32> = (0..40u32).collect();
        // Nothing to save (all recompute); just record the round.
        ctl.on_saved(1, 40).unwrap();
        let (kv, _) = ctl
            .restore_with_report(&model, 1, &tokens, &ParallelConfig::serial())
            .unwrap();
        let mut reference = KvCache::new(&cfg_m);
        model.prefill(&tokens, &mut reference, false);
        assert_eq!(kv_max_error(&kv, &reference), 0.0, "recompute is exact");
        assert_eq!(ctl.metrics().restore_fallbacks, 1);
        assert_eq!(ctl.metrics().restore_hits, 0);
    }

    #[test]
    fn close_session_releases_quota() {
        let ctl = CacheController::new(mgr(), 2, 8, ControllerConfig::unlimited());
        let m = ctl.open_session(1, &PartitionScheme::pure_hidden(2));
        save_rows(&ctl, 1, &m, 64, 0);
        assert!(ctl.used_bytes() > 0);
        let freed = ctl.close_session(1).unwrap();
        assert_eq!(freed, 2 * 64 * 8 * 2);
        assert_eq!(ctl.used_bytes(), 0);
        assert!(matches!(
            ctl.close_session(1),
            Err(CtlError::UnknownSession(1))
        ));
    }

    #[test]
    fn unknown_session_operations_error() {
        let ctl = CacheController::new(mgr(), 2, 8, ControllerConfig::unlimited());
        assert!(matches!(
            ctl.on_saved(9, 10),
            Err(CtlError::UnknownSession(9))
        ));
        let model = Model::new(&ModelConfig::tiny_llama(), 1);
        let ctl4 = CacheController::new(mgr(), 4, 8, ControllerConfig::unlimited());
        assert!(matches!(
            ctl4.restore_with_report(&model, 9, &[1, 2], &ParallelConfig::serial()),
            Err(CtlError::UnknownSession(9))
        ));
    }

    #[test]
    fn scheduler_reactor_route_matches_thread_per_restore() {
        // The scheduler's reactor batch against the sequential reference,
        // `restore_session_with_methods`, session by session.
        use crate::scheduler::{RestoreJob, RestoreScheduler};
        use hc_storage::reactor::Reactor;

        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 29);
        let reactor = Reactor::new(4, 2);
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), cfg_m.d_model)
                .with_reactor(Arc::clone(&reactor)),
        );
        let ctl = CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::unlimited(),
        );
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let mut jobs = Vec::new();
        let mut references = Vec::new();
        for s in 0..6u64 {
            let methods = ctl.open_session(s, &scheme);
            let tokens: Vec<u32> = (0..80u32).map(|i| (i * 41 + s as u32) % 256).collect();
            let mut kv = KvCache::new(&cfg_m);
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
            ctl.on_saved(s, 80).unwrap();
            references.push(
                restore_session_with_methods(&model, &mgr, s, &tokens, 80, &methods).unwrap(),
            );
            jobs.push(RestoreJob { session: s, tokens });
        }
        jobs.push(RestoreJob {
            session: 999, // never opened
            tokens: vec![1, 2, 3],
        });
        let sched = RestoreScheduler::new(4, ParallelConfig::new(4)).with_reactor(64);
        let results = sched.run(&model, &ctl, &jobs);
        assert_eq!(results.len(), 7);
        for (s, (session, r)) in results.into_iter().enumerate() {
            if s == 6 {
                assert_eq!(session, 999);
                assert!(matches!(r, Err(CtlError::UnknownSession(999))));
            } else {
                assert_eq!(session, s as u64);
                assert_eq!(kv_max_error(&r.unwrap(), &references[s]), 0.0);
            }
        }
        assert!(
            reactor.ios_submitted() > 0,
            "the batch must ride the reactor"
        );
        assert_eq!(reactor.restores_in_flight(), 0, "gauge drains");
        assert_eq!(ctl.metrics().restore_hits, 6);

        // The same scheduler over a reactor-less manager runs the same
        // machines, reading every chunk inline, and still restores.
        let plain_mgr = Arc::new(StorageManager::new(
            Arc::new(MemStore::new(4)),
            cfg_m.d_model,
        ));
        let plain_ctl = CacheController::new(
            Arc::clone(&plain_mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::unlimited(),
        );
        let methods = plain_ctl.open_session(0, &scheme);
        let tokens = jobs[0].tokens.clone();
        let mut kv = KvCache::new(&cfg_m);
        let out = model.prefill(&tokens, &mut kv, true);
        save_session_state(
            &model,
            &plain_mgr,
            0,
            &out.hidden_per_layer.unwrap(),
            &kv,
            &scheme,
        )
        .unwrap();
        plain_ctl.on_saved(0, 80).unwrap();
        let seq =
            restore_session_with_methods(&model, &plain_mgr, 0, &tokens, 80, &methods).unwrap();
        let results = sched.run(&model, &plain_ctl, &jobs[..1]);
        assert_eq!(kv_max_error(results[0].1.as_ref().unwrap(), &seq), 0.0);
    }

    /// One 64-token pure-hidden session saved over 4 devices: layer `l`'s
    /// single chunk lives on device `l % 4`, so downing device 1 strands
    /// exactly layer 1 (degrading the prefix `0..=1`).
    #[allow(clippy::type_complexity)]
    fn degradation_fixture() -> (
        Model,
        Arc<hc_storage::fault::FaultStore<MemStore>>,
        Arc<StorageManager<hc_storage::fault::FaultStore<MemStore>>>,
        CacheController<hc_storage::fault::FaultStore<MemStore>>,
        Vec<u32>,
        KvCache,
    ) {
        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 31);
        let fault = Arc::new(hc_storage::fault::FaultStore::new(Arc::new(MemStore::new(
            4,
        ))));
        let mgr = Arc::new(
            StorageManager::new(Arc::clone(&fault), cfg_m.d_model)
                .with_reactor(hc_storage::reactor::Reactor::new(4, 2)),
        );
        let ctl = CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::unlimited(),
        );
        let scheme = PartitionScheme::pure_hidden(cfg_m.n_layers);
        ctl.open_session(1, &scheme);
        let tokens: Vec<u32> = (0..64u32).map(|i| (i * 37) % 256).collect();
        let mut reference = KvCache::new(&cfg_m);
        let out = model.prefill(&tokens, &mut reference, true);
        save_session_state(
            &model,
            &mgr,
            1,
            &out.hidden_per_layer.unwrap(),
            &reference,
            &scheme,
        )
        .unwrap();
        ctl.on_saved(1, 64).unwrap();
        (model, fault, mgr, ctl, tokens, reference)
    }

    #[test]
    fn device_down_mark_degrades_preemptively_and_recovery_repromotes() {
        use hc_restore::engine::{DegradationReport, DegradeCause};
        let (model, fault, mgr, ctl, tokens, _) = degradation_fixture();
        let par = ParallelConfig::serial();

        // Healthy: full mix, empty report.
        let (kv_full, rep) = ctl.restore_with_report(&model, 1, &tokens, &par).unwrap();
        assert_eq!(rep, DegradationReport::default());

        // Mark device 1 down (and actually kill it in the store: the
        // preemptive path must not touch it at all). Layer 1's chunk is
        // stranded, so layers 0..=1 recompute; 2 and 3 still read.
        ctl.on_device_down(1);
        fault.device_down(1);
        let reads_before = mgr.stats().devices[1].reads;
        let (kv_deg, rep) = ctl.restore_with_report(&model, 1, &tokens, &par).unwrap();
        assert_eq!(rep.layers_recomputed, 2);
        assert_eq!(rep.cause, Some(DegradeCause::DeviceDown { device: 1 }));
        assert_eq!(
            mgr.stats().devices[1].reads,
            reads_before,
            "preemptive degradation must not issue IO to the down device"
        );
        // Bit-identical to a sequential restore of the degraded mix on the
        // same faulted store.
        let degraded = vec![
            LayerMethod::Recompute,
            LayerMethod::Recompute,
            LayerMethod::Hidden,
            LayerMethod::Hidden,
        ];
        let seq = restore_session_with_methods(&model, &mgr, 1, &tokens, 64, &degraded).unwrap();
        assert_eq!(kv_max_error(&kv_deg, &seq), 0.0);

        // Recovery re-promotes: the table's mix was never demoted, so the
        // next restore serves the full mix bit-identically to the healthy
        // one.
        fault.device_up(1);
        ctl.on_device_recovered(1);
        let (kv_back, rep) = ctl.restore_with_report(&model, 1, &tokens, &par).unwrap();
        assert_eq!(rep.layers_recomputed, 0);
        assert_eq!(kv_max_error(&kv_back, &kv_full), 0.0);
        assert_eq!(
            ctl.session_methods(1).unwrap(),
            vec![LayerMethod::Hidden; 4],
            "device failure must never demote the session table"
        );
        let m = ctl.metrics();
        assert_eq!(m.restores_degraded, 1);
        assert_eq!(m.layers_degraded, 2);
        assert_eq!(m.restore_hits, 3);
    }

    #[test]
    fn mid_restore_device_failure_degrades_reactively() {
        use hc_restore::engine::DegradeCause;
        let (model, fault, mgr, ctl, tokens, _) = degradation_fixture();
        let par = ParallelConfig::serial();

        // No overlay, no breaker: the controller learns about the outage
        // only when layer 1's read dies mid-restore, then widens the
        // recompute prefix over it and retries.
        fault.device_down(1);
        let (kv_deg, rep) = ctl.restore_with_report(&model, 1, &tokens, &par).unwrap();
        assert_eq!(rep.layers_recomputed, 2);
        assert_eq!(rep.cause, Some(DegradeCause::DeviceDown { device: 1 }));
        let degraded = vec![
            LayerMethod::Recompute,
            LayerMethod::Recompute,
            LayerMethod::Hidden,
            LayerMethod::Hidden,
        ];
        let seq = restore_session_with_methods(&model, &mgr, 1, &tokens, 64, &degraded).unwrap();
        assert_eq!(kv_max_error(&kv_deg, &seq), 0.0);
        // A job given no history to replay cannot degrade: the same
        // failure surfaces typed, naming the chunk on the dead lane.
        match ctl.restore_with_report(&model, 1, &[], &par) {
            Err(CtlError::Storage(StorageError::DeviceFailed { key, device, .. })) => {
                assert_eq!((key.stream, key.chunk_idx), (StreamId::hidden(1, 1), 0));
                assert_eq!(device, 1);
            }
            other => panic!("expected a typed DeviceFailed, got {other:?}"),
        }
    }

    #[test]
    fn racing_demotion_retries_under_the_demoted_mix() {
        // A concurrent save demotes the session being restored — deleting
        // its layer-0 stream — in the middle of the restore's reads. The
        // restore must retry under the demoted mix, on the single entry
        // and on the scheduler alike, and count one hit per job however
        // many rounds it took. One device served by one IO thread makes
        // the race deterministic: the demotion runs inside the first chunk
        // read, so no read of the layer-0 stream is served before it.
        use crate::scheduler::{RestoreJob, RestoreScheduler};
        use hc_storage::fault::FaultStore;

        const TOKENS: usize = 128; // two chunks per stream
        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 41);
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(1))));
        let mgr = Arc::new(
            StorageManager::new(Arc::clone(&store), cfg_m.d_model)
                .with_reactor(hc_storage::reactor::Reactor::new(1, 1)),
        );
        let ctl = Arc::new(CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::unlimited(),
        ));
        let scheme = PartitionScheme::pure_hidden(cfg_m.n_layers);
        // Session 1 (the racer) alone in tenant 1, session 2 in tenant 0.
        let mut histories = Vec::new();
        for (s, tenant) in [(1u64, 1u32), (2, 0)] {
            ctl.open_session_in(s, tenant, &scheme);
            let tokens: Vec<u32> = (0..TOKENS as u32)
                .map(|i| (i * 29 + s as u32) % 256)
                .collect();
            let mut kv = KvCache::new(&cfg_m);
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
            ctl.on_saved(s, TOKENS as u64).unwrap();
            histories.push(tokens);
        }
        let full = vec![LayerMethod::Hidden; 4];
        let demoted = [
            LayerMethod::Recompute,
            LayerMethod::Hidden,
            LayerMethod::Hidden,
            LayerMethod::Hidden,
        ];
        let reference = |s: u64, methods: &[LayerMethod]| {
            restore_session_with_methods(
                &model,
                &mgr,
                s,
                &histories[s as usize - 1],
                TOKENS,
                methods,
            )
            .unwrap()
        };
        let sibling = reference(2, &full);
        // Arms the demotion on the next chunk read: capping tenant 1 one
        // byte under its usage makes the save's reconciliation demote
        // session 1 one rung, which deletes its layer-0 hidden stream.
        let arm = || {
            let racer = Arc::clone(&ctl);
            store.on_nth_read(0, move || {
                let used = racer.tenant_stats(1).used_bytes;
                racer.set_tenant_quota(
                    1,
                    TenantQuota {
                        reservation_bytes: 0,
                        cap_bytes: used - 1,
                    },
                );
                racer.on_saved(1, TOKENS as u64).unwrap();
            });
        };

        arm();
        let (kv, rep) = ctl
            .restore_with_report(&model, 1, &histories[0], &ParallelConfig::new(2))
            .unwrap();
        assert_eq!(ctl.session_methods(1).unwrap(), demoted);
        assert_eq!(
            rep,
            DegradationReport::default(),
            "a demotion is no degradation"
        );
        assert_eq!(kv_max_error(&kv, &reference(1, &demoted)), 0.0);
        assert_eq!(ctl.metrics().restore_hits, 1);

        // Again through the scheduler, after re-saving session 1 in full.
        ctl.set_tenant_quota(1, TenantQuota::default());
        ctl.close_session(1).unwrap();
        ctl.open_session_in(1, 1, &scheme);
        let mut kv1 = KvCache::new(&cfg_m);
        let out = model.prefill(&histories[0], &mut kv1, true);
        save_session_state(
            &model,
            &mgr,
            1,
            &out.hidden_per_layer.unwrap(),
            &kv1,
            &scheme,
        )
        .unwrap();
        ctl.on_saved(1, TOKENS as u64).unwrap();
        arm();
        let jobs: Vec<RestoreJob> = histories
            .iter()
            .zip(1u64..)
            .map(|(tokens, session)| RestoreJob {
                session,
                tokens: tokens.clone(),
            })
            .collect();
        let results =
            RestoreScheduler::new(2, ParallelConfig::new(2)).run_with_reports(&model, &ctl, &jobs);
        assert_eq!(ctl.session_methods(1).unwrap(), demoted);
        let [(1, Ok((racer, _))), (2, Ok((other, _)))] = &results[..] else {
            panic!("both jobs must restore: {results:?}");
        };
        assert_eq!(kv_max_error(racer, &reference(1, &demoted)), 0.0);
        assert_eq!(kv_max_error(other, &sibling), 0.0);
        assert_eq!(ctl.metrics().restore_hits, 3);
    }

    #[test]
    fn batch_reactor_with_reports_degrades_and_repromotes() {
        use crate::scheduler::{RestoreJob, RestoreScheduler};
        use hc_storage::fault::FaultStore;
        use hc_storage::reactor::Reactor;

        let cfg_m = ModelConfig::tiny_llama();
        let model = Model::new(&cfg_m, 37);
        let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mgr = Arc::new(
            StorageManager::new(Arc::clone(&fault), cfg_m.d_model).with_reactor(Reactor::new(4, 2)),
        );
        let ctl = CacheController::new(
            Arc::clone(&mgr),
            cfg_m.n_layers,
            cfg_m.d_model,
            ControllerConfig::unlimited(),
        );
        // One 64-token pure-hidden session: layer l's chunk on device l%4.
        let scheme = PartitionScheme::pure_hidden(cfg_m.n_layers);
        ctl.open_session(1, &scheme);
        let mk_tokens =
            |s: u64| -> Vec<u32> { (0..64u32).map(|i| (i * 41 + s as u32) % 256).collect() };
        let tokens = mk_tokens(1);
        let mut kv = KvCache::new(&cfg_m);
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
        ctl.on_saved(1, 64).unwrap();
        // Down device 3 strands layer 3 — the recompute-prefix invariant
        // then drags the whole mix to recompute.
        ctl.on_device_down(3);
        let jobs = vec![RestoreJob {
            session: 1,
            tokens: mk_tokens(1),
        }];
        // Two workers on a two-thread grant, four machines in flight: the
        // scheduler's reactor route into the batch loop.
        let sched = RestoreScheduler::new(2, ParallelConfig::new(2)).with_reactor(4);
        let results = sched.run_with_reports(&model, &ctl, &jobs);
        assert_eq!(results.len(), 1);
        let (sid, res) = &results[0];
        assert_eq!(*sid, 1);
        let (kv_deg, rep) = res.as_ref().unwrap();
        // Device 3 holds layer 3's chunk → the whole mix degrades to
        // recompute (prefix must cover layer 3).
        assert_eq!(rep.layers_recomputed, 4);
        let seq = restore_session_with_methods(
            &model,
            &mgr,
            1,
            &mk_tokens(1),
            64,
            &[LayerMethod::Recompute; 4],
        )
        .unwrap();
        assert_eq!(kv_max_error(kv_deg, &seq), 0.0);
        ctl.on_device_recovered(3);
        let results = sched.run_with_reports(&model, &ctl, &jobs);
        let (kv_back, rep) = results[0].1.as_ref().unwrap();
        assert_eq!(rep.layers_recomputed, 0);
        let full = restore_session_with_methods(
            &model,
            &mgr,
            1,
            &mk_tokens(1),
            64,
            &[LayerMethod::Hidden; 4],
        )
        .unwrap();
        assert_eq!(kv_max_error(kv_back, &full), 0.0);
    }

    mod quota_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// THE controller safety property: across any sequence of
            /// session opens, incremental saves and closes, under either
            /// policy and any quota, usage never ends a reconciliation
            /// above the quota while anything remains demotable — and the
            /// ledger always agrees with the storage layer's resident
            /// bytes.
            #[test]
            fn controller_never_exceeds_quota(
                quota_chunks in 1u64..6,
                policy_sel in 0u64..2,
                ops in proptest::collection::vec(0u64..12, 1..12),
            ) {
                let quota = quota_chunks * 64 * 8 * 2;
                let kind = if policy_sel == 0 { PolicyKind::Lru } else { PolicyKind::CostAware };
                let ctl = CacheController::new(
                    mgr(), 2, 8,
                    ControllerConfig::with_quota(quota)
                        .with_policy(kind)
                        .with_expected_tokens(16),
                );
                let scheme = PartitionScheme {
                    l_h: 1,
                    l_o: 1,
                    complement: LayerMethod::KvOffload,
                };
                let mut tokens: HashMap<u64, u64> = HashMap::new();
                // Each op encodes (session ∈ 0..4, chunks ∈ 1..=3).
                for op in ops.iter().copied() {
                    let (session, chunks) = (op % 4, 1 + op / 4 % 3);
                    let methods = match ctl.session_methods(session) {
                        Some(m) => m,
                        None => {
                            tokens.insert(session, 0);
                            ctl.open_session(session, &scheme)
                        }
                    };
                    let prev = tokens[&session];
                    let next = prev + chunks * 64;
                    save_rows(&ctl, session, &methods, next, prev);
                    tokens.insert(session, next);
                    // The invariant: after every reconciliation the pool is
                    // under quota (demotion always has victims here since
                    // every byte belongs to a demotable layer).
                    prop_assert!(ctl.used_bytes() <= quota,
                        "used {} > quota {quota}", ctl.used_bytes());
                    // Ledger agrees with storage.
                    prop_assert_eq!(ctl.used_bytes(), ctl.mgr().total_resident_bytes());
                }
            }
        }
    }
}
