//! The restore executor: every pipelined restore is one state machine,
//! and one driver advances them all.
//!
//! HCache's bubble-free restoration (§4.1.2) is one schedule — a restore's
//! storage reads stream while its projection and its recompute prefix
//! run — and this module executes it as one [`Machine`] per session,
//! advanced by one driver, [`restore_sessions`]. Its compute workers pop
//! ready machines off a shared run queue and keep up to `max_inflight` of
//! them live, so thousands of restores share a fixed thread budget. The
//! calling thread is worker 0: a batch on `n` workers spawns `n − 1`
//! threads, and a single restore — a one-request batch on one worker,
//! which is what every `HCacheSystem` restore is — spawns none.
//!
//! A machine holds its `KvCache` under construction plus one lane per
//! stored layer, each holding one [`ReadJob`] and one [`RowAssembly`] per
//! stream (one for hidden layers, K+V for KV-offloaded layers); each job
//! decodes its chunks straight into its assembly's rows, and device IO
//! rides the storage manager's [`Reactor`](hc_storage::reactor::Reactor)
//! submission queues:
//!
//! * Its first advance opens every stored layer's reads, in layer order,
//!   and submits them **before** it runs the recompute prefix, so the
//!   devices serve the restore while the prefix's forward pass runs — the
//!   `compute_needs_io = false` tasks at the front of a
//!   `sched::pipeline::Timeline`. (Recomputing first leaves the devices
//!   idle for the whole prefix: the bubble §4.1.2 exists to remove.)
//!   Each device's FIFO queue serves the earlier layers' chunks first.
//! * Every advance pumps each active job, which lands whatever completed,
//!   and projects (hidden layers, at absolute positions) or installs (KV
//!   layers, as both streams' prefixes pair up) the newly contiguous
//!   prefix in one call, then drops finished lanes. A layer's K/V depend
//!   on its own hidden rows only, so lanes advance independently and in
//!   any order. Each pump projects whatever landed since the last one, so
//!   the GEMM granularity follows the bound with no mode and no
//!   parameter: when the devices are the bound a pump finds a chunk or
//!   two and the projection overlaps the reads still in flight; when
//!   compute is the bound (`MemStore`, page-cache reads) a pump finds the
//!   rest of the layer waiting and a layer costs one or two GEMMs.
//! * IO completions fire the machine's `notify`, which turns into a token
//!   on the driver's [`WorkQueue`], deduplicated by a per-machine pending
//!   flag, so a burst of completions costs one wakeup. A worker that
//!   finishes a machine admits the next request.
//!
//! What may be in flight per restore is bounded by the restore itself:
//! each stored layer's job keeps its reactor window of chunk reads in
//! flight, and the staging is one f32 copy of each stored layer's rows
//! until that layer finishes — less than the `KvCache` being built. The
//! driver's admission window bounds machines in flight by memory and
//! iodepth, not threads: `n_devices × iodepth` reactor IO threads plus
//! `workers` compute threads serve any number of them.
//!
//! A manager without a reactor has no IO plane to overlap: its jobs read
//! every chunk inline on the worker pumping them, and the same machines
//! run over it.
//!
//! # Determinism and blast radius
//!
//! Every per-layer transform is the one the sequential restore runs —
//! chunk decode by the manager's read jobs, row-wise projection at absolute
//! positions, paired K/V prefix installation — so each restored cache is
//! **bit-identical** to [`restore_session_with_methods`]'s, at any worker
//! count, thread budget, iodepth or admission window (the tests enforce
//! this). A mid-stream tombstone (concurrent delete/re-append) resets the
//! stream's assembly, the layer rolls back — [`KvCache::truncate_layer`]
//! drops exactly the rows placed for it — and the stream lands again
//! wholesale, so the incremental placement never leaks a dead generation.
//!
//! A failing session (missing stream, dead device, a panicking backend —
//! the read jobs convert those panics to typed [`StorageError::Io`]
//! results) resolves only its own result to `Err`; a panic anywhere else
//! in an advance fails the session as [`RestoreError::Panicked`]. Its
//! machine is torn down, and every other machine — and the thread that
//! advanced it — carries on.
//!
//! When the manager's [`RetryPolicy`](hc_storage::health::RetryPolicy)
//! carries an IO deadline, a worker whose wait for work passes the
//! deadline sweeps the live machines and expires any read job whose IO
//! made no progress for the deadline (`ReadJob::expire_stalled`),
//! typing that session's next advance as a transient
//! [`StorageError::DeviceFailed`] — a wedged device submission can never
//! hang a restore.
//!
//! [`restore_session_with_methods`]: crate::engine::restore_session_with_methods
//! [`StorageError::Io`]: hc_storage::StorageError::Io
//! [`StorageError::DeviceFailed`]: hc_storage::StorageError::DeviceFailed

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hc_model::{layer, KvCache, Model, ModelConfig};
use hc_sched::partition::LayerMethod;
use hc_storage::backend::ChunkStore;
use hc_storage::manager::{PumpOutcome, ReadJob, RowAssembly, StorageManager};
use hc_storage::reactor::{Popped, WorkQueue};
use hc_storage::StreamId;
use hc_tensor::ParallelConfig;

use crate::engine::RestoreError;

/// One session's restore work. It borrows the caller's history and mix,
/// so no restore copies either.
#[derive(Debug, Clone, Copy)]
pub struct RestoreRequest<'a> {
    /// Session whose streams hold the state.
    pub session: u64,
    /// Original history tokens (needed by recompute layers).
    pub tokens: &'a [u32],
    /// History length to restore.
    pub n_tokens: usize,
    /// The per-layer method mix to restore under.
    pub methods: &'a [LayerMethod],
}

/// One active layer of one machine: the stream assemblies plus the read
/// jobs landing in them.
enum Lane<S: ChunkStore> {
    /// A hidden layer: rows are projected (at absolute positions) as the
    /// contiguous prefix grows.
    Hidden {
        asm: RowAssembly,
        job: Arc<ReadJob<S>>,
        /// Rows already projected and appended to the cache.
        projected: usize,
    },
    /// A KV-offloaded layer: K and V stream independently; whatever prefix
    /// both agree on is installed.
    Kv {
        k_asm: RowAssembly,
        v_asm: RowAssembly,
        k_job: Arc<ReadJob<S>>,
        v_job: Arc<ReadJob<S>>,
        /// Rows already installed into the cache.
        placed: usize,
    },
}

impl<S: ChunkStore> Lane<S> {
    fn jobs(&self) -> Vec<&Arc<ReadJob<S>>> {
        match self {
            Lane::Hidden { job, .. } => vec![job],
            Lane::Kv { k_job, v_job, .. } => vec![k_job, v_job],
        }
    }
}

/// One session's restore state machine.
struct Machine<S: ChunkStore> {
    kv: KvCache,
    /// Stored layers still landing, in layer order: all of them from the
    /// first advancement on, each dropped (with its staging) once done.
    active: Vec<(usize, Lane<S>)>,
    /// Whether the reads are open and the recompute prefix has run (first
    /// advancement).
    started: bool,
    /// Completion callback shared by every job of this machine.
    notify: Arc<dyn Fn() + Send + Sync>,
    /// Terminal result; `Some` means the machine is done.
    result: Option<Result<KvCache, RestoreError>>,
}

impl<S: ChunkStore> Machine<S> {
    fn new(cfg: &ModelConfig, notify: Arc<dyn Fn() + Send + Sync>) -> Self {
        Self {
            kv: KvCache::new(cfg),
            active: Vec::new(),
            started: false,
            notify,
            result: None,
        }
    }

    /// Advances the machine as far as currently possible (see [`step`]).
    /// A panic anywhere in the step — a model kernel, a backend call
    /// outside the read jobs' own containment — ends this machine
    /// alone as [`RestoreError::Panicked`]; the thread advancing it, and
    /// every other machine that thread serves, carries on. A finished
    /// machine drops its read jobs.
    fn advance(
        &mut self,
        req: &RestoreRequest,
        model: &Model,
        mgr: &StorageManager<S>,
        par: &ParallelConfig,
    ) {
        if catch_unwind(AssertUnwindSafe(|| step(self, req, model, mgr, par))).is_err() {
            self.result = Some(Err(RestoreError::Panicked));
        }
        if self.result.is_some() {
            self.active.clear();
        }
    }

    /// Expires every active read job whose IO made no progress for
    /// `deadline`; returns whether any did (the machine then needs an
    /// advance to resolve them).
    fn expire_stalled(&self, deadline: Duration) -> bool {
        let mut expired = false;
        for (_, lane) in &self.active {
            for job in lane.jobs() {
                expired |= job.expire_stalled(deadline);
            }
        }
        expired
    }
}

/// The driver's split of the host grant `par` over a batch of `batch`
/// sessions: `workers` compute workers, clamped to the batch and to
/// `par.threads()`, each advancing its machines under
/// `⌊par.threads / workers⌋` threads. Workers × per-machine threads never
/// exceeds the grant and neither is ever zero; the reactor's IO threads
/// spend their lives blocked on device service and are not charged.
pub fn worker_split(workers: usize, batch: usize, par: &ParallelConfig) -> (usize, ParallelConfig) {
    let workers = workers.clamp(1, batch.max(1)).min(par.threads());
    (workers, ParallelConfig::new(par.threads() / workers))
}

/// Restores `requests`, results in request order, each bit-identical to a
/// sequential [`crate::engine::restore_session_with_methods`] call; a
/// failing session fails alone. Compute workers (split from `par` by
/// [`worker_split`]) advance up to `max_inflight` concurrent restore state
/// machines (floored to the worker count); device IO flows through the
/// manager's IO reactor when it has one, and is read inline by the worker
/// pumping each job when it has not. The calling thread is worker 0, so
/// one worker — what a single restore gets — spawns no thread. See the
/// module docs for the architecture.
///
/// # Panics
/// Panics when any request's methods do not cover the model / violate the
/// recompute-prefix invariant (§4.1.2) / lack the tokens its recompute
/// prefix needs — validated for every request up front, so no partial
/// batch starts.
pub fn restore_sessions<S: ChunkStore>(
    model: &Model,
    mgr: &StorageManager<S>,
    requests: &[RestoreRequest<'_>],
    workers: usize,
    max_inflight: usize,
    par: &ParallelConfig,
) -> Vec<Result<KvCache, RestoreError>> {
    requests.iter().for_each(|r| validate(&model.cfg, r));
    if requests.is_empty() {
        return Vec::new();
    }

    let (workers, per_machine) = worker_split(workers, requests.len(), par);
    let queue = WorkQueue::new();
    let machines: Vec<parking_lot::Mutex<Option<Machine<S>>>> = requests
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let pendings: Vec<Arc<AtomicBool>> = requests
        .iter()
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let next_admit = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);

    // Admission keeps up to `max_inflight` machines live: the window opens
    // below, and each worker that finishes a machine admits the next one.
    let admit_next = || {
        let i = next_admit.fetch_add(1, Ordering::AcqRel);
        if i >= requests.len() {
            return;
        }
        let pending = Arc::clone(&pendings[i]);
        let q = Arc::clone(&queue);
        let notify: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if !pending.swap(true, Ordering::AcqRel) {
                q.push(i);
            }
        });
        *machines[i].lock() = Some(Machine::new(&model.cfg, Arc::clone(&notify)));
        if let Some(reactor) = mgr.reactor() {
            reactor.restore_admitted();
        }
        notify(); // first advancement: initial reads + recompute prefix
    };
    // Under an IO deadline a worker that waited a deadline for work sweeps
    // the live machines and expires stalled jobs, so a wedged submission
    // fails one session instead of hanging the batch.
    let io_deadline = mgr.retry_policy().io_deadline;
    let sweep_stalled = |deadline: Duration| {
        for (i, slot) in machines.iter().enumerate() {
            // A machine we cannot lock is being advanced right now — that
            // is progress, not a stall.
            let Some(guard) = slot.try_lock() else {
                continue;
            };
            let expired = guard.as_ref().is_some_and(|m| m.expire_stalled(deadline));
            drop(guard);
            if expired && !pendings[i].swap(true, Ordering::AcqRel) {
                queue.push(i);
            }
        }
    };
    let work = || loop {
        match queue.pop(io_deadline) {
            Popped::Token(i) => {
                // Clear the dedup flag before advancing: completions
                // landing mid-advance re-enqueue the machine.
                pendings[i].store(false, Ordering::Release);
                let mut slot = machines[i].lock();
                let Some(m) = slot.as_mut() else { continue };
                if m.result.is_some() {
                    continue; // late wakeup after completion
                }
                m.advance(&requests[i], model, mgr, &per_machine);
                let finished = m.result.is_some();
                // Admission locks another machine: release this one first.
                drop(slot);
                if finished {
                    if let Some(reactor) = mgr.reactor() {
                        reactor.restore_completed();
                    }
                    if completed.fetch_add(1, Ordering::AcqRel) + 1 == requests.len() {
                        queue.close();
                    } else {
                        admit_next();
                    }
                }
            }
            Popped::Idle => {
                if let Some(deadline) = io_deadline {
                    sweep_stalled(deadline);
                }
            }
            Popped::Closed => return,
        }
    };

    for _ in 0..max_inflight.max(workers).min(requests.len()) {
        admit_next();
    }
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    machines
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .and_then(|m| m.result)
                .unwrap_or(Err(RestoreError::Panicked))
        })
        .collect()
}

/// The request contract the driver checks before any IO starts.
fn validate(cfg: &ModelConfig, r: &RestoreRequest) {
    assert_eq!(r.methods.len(), cfg.n_layers, "methods do not cover model");
    let n_recompute = recompute_prefix(r.methods);
    assert!(
        r.methods[n_recompute..]
            .iter()
            .all(|m| *m != LayerMethod::Recompute),
        "recompute layers must form a prefix (§4.1.2)"
    );
    assert!(
        n_recompute == 0 || r.tokens.len() >= r.n_tokens,
        "recompute layers need the original tokens"
    );
}

fn recompute_prefix(methods: &[LayerMethod]) -> usize {
    methods
        .iter()
        .take_while(|m| **m == LayerMethod::Recompute)
        .count()
}

/// Advances one machine as far as currently possible. The first
/// advancement opens a read job for every stored layer, in layer order,
/// and pumps each once — submitting its IO, so every device's queue holds
/// the whole restore, the earliest layer's chunks first — and only then
/// runs the recompute prefix, which the reads overlap. Every advancement
/// pumps each active lane, applies what landed, drops finished lanes, and
/// completes the restore once none is left.
fn step<S: ChunkStore>(
    m: &mut Machine<S>,
    req: &RestoreRequest,
    model: &Model,
    mgr: &StorageManager<S>,
    par: &ParallelConfig,
) {
    let cfg = &model.cfg;
    let n_recompute = recompute_prefix(req.methods);
    if !m.started {
        let begin = |stream: StreamId| {
            mgr.begin_read(stream, 0, req.n_tokens as u64, Arc::clone(&m.notify))
        };
        let assembly = || RowAssembly::new(req.n_tokens, cfg.d_model);
        m.active = (n_recompute..req.methods.len())
            .map(|l| {
                let lane = match req.methods[l] {
                    LayerMethod::Hidden => Lane::Hidden {
                        asm: assembly(),
                        job: begin(StreamId::hidden(req.session, l as u32)),
                        projected: 0,
                    },
                    LayerMethod::KvOffload => Lane::Kv {
                        k_asm: assembly(),
                        v_asm: assembly(),
                        k_job: begin(StreamId::key(req.session, l as u32)),
                        v_job: begin(StreamId::value(req.session, l as u32)),
                        placed: 0,
                    },
                    LayerMethod::Recompute => unreachable!("prefix checked at admission"),
                };
                (l, lane)
            })
            .collect();
    }
    for (l, lane) in m.active.iter_mut() {
        if let Err(e) = pump_lane(*l, lane, &mut m.kv, model, mgr, req.n_tokens, par) {
            // This session fails alone; sibling machines and the
            // reactor's IO threads are untouched.
            m.result = Some(Err(e));
            return;
        }
    }
    m.active.retain(|(_, lane)| !lane_done(lane, req.n_tokens));
    if !m.started {
        m.started = true;
        if n_recompute > 0 {
            let mut hidden = model.embed_tokens(&req.tokens[..req.n_tokens], 0);
            for (l, lw) in model.layers.iter().take(n_recompute).enumerate() {
                let (next, new_k, new_v) = layer::layer_forward_par(
                    cfg,
                    lw,
                    &hidden,
                    m.kv.keys(l),
                    m.kv.values(l),
                    0,
                    par,
                );
                m.kv.append(l, &new_k, &new_v);
                hidden = next;
            }
        }
    }
    if m.active.is_empty() {
        // Nothing left to read: the restore is complete.
        let kv = std::mem::replace(&mut m.kv, KvCache::new(cfg));
        debug_assert!(kv.is_consistent());
        m.result = Some(Ok(kv));
    }
}

/// Whether a lane has delivered and consumed its whole range.
fn lane_done<S: ChunkStore>(lane: &Lane<S>, n_tokens: usize) -> bool {
    match lane {
        Lane::Hidden { projected, .. } => *projected >= n_tokens,
        Lane::Kv { placed, .. } => *placed >= n_tokens,
    }
}

/// Pumps one job once into `asm`. Returns the pump's outcome and whether
/// the assembly was reset (mid-read tombstone): the caller must then roll
/// the layer's installed rows back.
fn pump_stream<S: ChunkStore>(
    job: &Arc<ReadJob<S>>,
    asm: &mut RowAssembly,
    mgr: &StorageManager<S>,
) -> (PumpOutcome, bool) {
    let resets = asm.resets();
    let outcome = job.pump(mgr, asm);
    (outcome, asm.resets() != resets)
}

/// Pumps one lane's job(s) once and applies whatever landed: project or
/// install the newly contiguous prefix, roll back on a tombstone reset.
fn pump_lane<S: ChunkStore>(
    l: usize,
    lane: &mut Lane<S>,
    kv: &mut KvCache,
    model: &Model,
    mgr: &StorageManager<S>,
    n_tokens: usize,
    par: &ParallelConfig,
) -> Result<(), RestoreError> {
    match lane {
        Lane::Hidden {
            asm,
            job,
            projected,
        } => {
            let (outcome, reset) = pump_stream(job, asm, mgr);
            if reset {
                kv.truncate_layer(l, 0);
                *projected = 0;
            }
            let ready = asm.ready_rows();
            if ready > *projected {
                // Project the newly contiguous rows at their absolute
                // positions — bit-equal to a whole-layer projection.
                let h = asm.rows().slice_rows(*projected, ready);
                let (k, v) = model.restore_layer_kv_par(l, &h, *projected, par);
                kv.append(l, &k, &v);
                *projected = ready;
            }
            match outcome {
                PumpOutcome::Done => {
                    debug_assert_eq!(*projected, n_tokens, "Done with rows missing");
                    Ok(())
                }
                PumpOutcome::Pending => Ok(()),
                PumpOutcome::Failed(e) => Err(RestoreError::Storage(e)),
            }
        }
        Lane::Kv {
            k_asm,
            v_asm,
            k_job,
            v_job,
            placed,
        } => {
            let mut done = true;
            for (asm, job) in [(&mut *k_asm, &*k_job), (&mut *v_asm, &*v_job)] {
                let (outcome, reset) = pump_stream(job, asm, mgr);
                if reset {
                    // The reset stream lands every slice again, so the
                    // paired prefix regrows (the other stream's assembly
                    // survives).
                    kv.truncate_layer(l, 0);
                    *placed = 0;
                }
                match outcome {
                    PumpOutcome::Done => {}
                    PumpOutcome::Pending => done = false,
                    PumpOutcome::Failed(e) => return Err(RestoreError::Storage(e)),
                }
            }
            // Install whatever prefix both streams now agree on.
            let ready = k_asm.ready_rows().min(v_asm.ready_rows());
            if ready > *placed {
                kv.append(
                    l,
                    &k_asm.rows().slice_rows(*placed, ready),
                    &v_asm.rows().slice_rows(*placed, ready),
                );
                *placed = ready;
            }
            if done {
                debug_assert_eq!(*placed, n_tokens, "Done with rows missing");
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{kv_max_error, restore_session_with_methods, save_session_state};
    use hc_model::ModelConfig;
    use hc_sched::partition::PartitionScheme;
    use hc_storage::backend::MemStore;
    use hc_storage::reactor::Reactor;
    use hc_storage::StorageError;

    const N_TOKENS: usize = 80; // spans two chunks

    fn all_scheme_mixes() -> Vec<PartitionScheme> {
        vec![
            PartitionScheme::pure_hidden(4),
            PartitionScheme {
                l_h: 0,
                l_o: 4,
                complement: LayerMethod::KvOffload,
            },
            PartitionScheme {
                l_h: 0,
                l_o: 4,
                complement: LayerMethod::Recompute,
            },
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
        ]
    }

    /// Saved sessions: the histories and the mix the requests borrow, and
    /// each session's sequential reference restore.
    struct Saved {
        histories: Vec<(u64, Vec<u32>)>,
        methods: Vec<LayerMethod>,
        references: Vec<KvCache>,
    }

    impl Saved {
        fn requests(&self) -> Vec<RestoreRequest<'_>> {
            self.histories
                .iter()
                .map(|(session, tokens)| RestoreRequest {
                    session: *session,
                    tokens,
                    n_tokens: N_TOKENS,
                    methods: &self.methods,
                })
                .collect()
        }
    }

    fn saved_batch<S: ChunkStore>(
        model: &Model,
        mgr: &StorageManager<S>,
        scheme: &PartitionScheme,
        sessions: std::ops::Range<u64>,
    ) -> Saved {
        let methods = scheme.layer_methods(model.cfg.n_layers);
        let mut histories = Vec::new();
        let mut references = Vec::new();
        for s in sessions {
            let tokens: Vec<u32> = (0..N_TOKENS as u32)
                .map(|t| (t * 13 + s as u32) % 256)
                .collect();
            let mut kv = KvCache::new(&model.cfg);
            let out = model.prefill(&tokens, &mut kv, true);
            save_session_state(model, mgr, s, &out.hidden_per_layer.unwrap(), &kv, scheme).unwrap();
            references.push(
                restore_session_with_methods(model, mgr, s, &tokens, N_TOKENS, &methods).unwrap(),
            );
            histories.push((s, tokens));
        }
        Saved {
            histories,
            methods,
            references,
        }
    }

    #[test]
    fn reactor_restores_are_bit_identical_for_all_mixes_and_geometries() {
        for (i, scheme) in all_scheme_mixes().into_iter().enumerate() {
            let cfg = ModelConfig::tiny_llama();
            let model = Model::new(&cfg, 101 + i as u64);
            for (iodepth, workers) in [(1usize, 1usize), (2, 2), (4, 3)] {
                let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
                    .with_reactor(Reactor::new(4, iodepth));
                let saved = saved_batch(&model, &mgr, &scheme, 0..6);
                let results = restore_sessions(
                    &model,
                    &mgr,
                    &saved.requests(),
                    workers,
                    4,
                    &ParallelConfig::new(workers),
                );
                assert_eq!(results.len(), saved.histories.len());
                for (s, r) in results.into_iter().enumerate() {
                    assert_eq!(
                        kv_max_error(&r.unwrap(), &saved.references[s]),
                        0.0,
                        "scheme #{i} session {s} diverged at iodepth {iodepth} × {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn the_first_step_puts_every_stored_layer_in_flight() {
        use crate::engine::save_items;
        use hc_storage::fault::{FaultStore, FaultTarget};
        use LayerMethod::{Hidden, KvOffload, Recompute};

        const TOKENS: usize = 300; // five chunks per stream
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 239);
        let tokens: Vec<u32> = (0..TOKENS as u32).map(|t| (t * 7 + 3) % 256).collect();
        let mut kv = KvCache::new(&cfg);
        let hidden = model
            .prefill(&tokens, &mut kv, true)
            .hidden_per_layer
            .unwrap();
        // Stalling every read lets the first step submit but land nothing;
        // stalling layer 0's hidden stream alone lets later layers land
        // (and project) before it.
        let inputs = [
            (vec![Recompute, Hidden, Hidden, KvOffload], None),
            (
                vec![Hidden, Hidden, KvOffload, Hidden],
                Some(StreamId::hidden(1, 0)),
            ),
        ];
        for (session, (methods, stalled_stream)) in (0u64..).zip(inputs) {
            let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
            let reactor = Reactor::new(4, 1);
            let mgr = StorageManager::new(Arc::clone(&fault), cfg.d_model)
                .with_reactor(Arc::clone(&reactor));
            for (stream, rows) in save_items(session, &methods, &hidden, &kv, 0..TOKENS) {
                mgr.append_rows(stream, rows).unwrap();
            }
            mgr.flush_session(session).unwrap();
            let reference =
                restore_session_with_methods(&model, &mgr, session, &tokens, TOKENS, &methods)
                    .unwrap();
            // Each job's window: iodepth × the devices its chunks occupy,
            // capped at its chunk count.
            let chunks = TOKENS.div_ceil(64);
            let windows: usize = (0..methods.len())
                .flat_map(|l| crate::engine::layer_streams(session, l, methods[l]))
                .map(|stream| (reactor.iodepth() * mgr.stream_devices(stream).len()).min(chunks))
                .sum();

            let target = stalled_stream.map_or(FaultTarget::Any, FaultTarget::Stream);
            fault.stall_reads(target, Duration::from_millis(300));
            let req = RestoreRequest {
                session,
                tokens: &tokens,
                n_tokens: TOKENS,
                methods: &methods,
            };
            let par = ParallelConfig::serial();
            let mut m = Machine::new(&cfg, Arc::new(|| {}));
            let before = reactor.ios_submitted();
            m.advance(&req, &model, &mgr, &par);
            if stalled_stream.is_none() {
                assert_eq!(
                    reactor.ios_submitted() - before,
                    windows as u64,
                    "one step must submit every stored layer's window"
                );
            }
            fault.clear_read_stalls();
            while m.result.is_none() {
                std::thread::sleep(Duration::from_millis(1));
                m.advance(&req, &model, &mgr, &par);
            }
            let restored = m.result.take().unwrap().unwrap();
            assert_eq!(
                kv_max_error(&restored, &reference),
                0.0,
                "input {session} diverged"
            );
        }
    }

    #[test]
    fn admission_window_bounds_in_flight_restores() {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 211);
        let reactor = Reactor::new(4, 2);
        let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
            .with_reactor(Arc::clone(&reactor));
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let saved = saved_batch(&model, &mgr, &scheme, 0..12);
        let results = restore_sessions(
            &model,
            &mgr,
            &saved.requests(),
            2,
            3,
            &ParallelConfig::new(2),
        );
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(
            reactor.peak_restores_in_flight() <= 3,
            "peak {} exceeded the admission window",
            reactor.peak_restores_in_flight()
        );
        assert_eq!(reactor.restores_in_flight(), 0, "gauge must drain to zero");
    }

    #[test]
    fn one_failed_session_fails_alone() {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 223);
        let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
            .with_reactor(Reactor::new(4, 2));
        let scheme = PartitionScheme::pure_hidden(4);
        let saved = saved_batch(&model, &mgr, &scheme, 0..5);
        let mut requests = saved.requests();
        requests[2].session = 999; // never saved
        let results = restore_sessions(&model, &mgr, &requests, 2, 8, &ParallelConfig::new(2));
        for (s, r) in results.into_iter().enumerate() {
            if s == 2 {
                assert!(matches!(
                    r,
                    Err(RestoreError::Storage(StorageError::OutOfRange { .. }))
                ));
            } else {
                assert_eq!(kv_max_error(&r.unwrap(), &saved.references[s]), 0.0);
            }
        }
    }

    /// A typed stall timeout blaming device 1, as the driver must report a
    /// session whose reads sit on the wedged lane.
    fn assert_stalled_on_device_1(what: &str, result: Result<KvCache, RestoreError>) {
        match result {
            Err(RestoreError::Storage(StorageError::DeviceFailed {
                device, transient, ..
            })) => {
                assert_eq!(device, 1, "{what} blamed the wrong lane");
                assert!(transient, "a stall is transient, not data loss");
            }
            other => panic!("{what}: expected a typed stall timeout, got {other:?}"),
        }
    }

    #[test]
    fn io_deadline_expires_stalled_sessions_instead_of_wedging_the_batch() {
        use hc_storage::fault::{FaultStore, FaultTarget};
        use hc_storage::health::RetryPolicy;
        use std::time::Instant;

        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 229);
        let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mgr = StorageManager::new(Arc::clone(&fault), cfg.d_model)
            .with_reactor(Reactor::new(4, 2))
            .with_retry_policy(RetryPolicy::default().with_io_deadline(Duration::from_millis(40)));
        let scheme = PartitionScheme::pure_hidden(4);
        let saved = saved_batch(&model, &mgr, &scheme, 0..4);
        let requests = saved.requests();
        // Wedge device 1 far past the deadline: every session's 80-token
        // hidden streams put a chunk on it, so without the watchdog the
        // whole batch would sit on the stall.
        fault.stall_reads(FaultTarget::Device(1), Duration::from_millis(500));
        let start = Instant::now();
        let results = restore_sessions(&model, &mgr, &requests, 2, 4, &ParallelConfig::new(2));
        assert!(
            start.elapsed() < Duration::from_millis(450),
            "watchdog must fail stalled sessions before the stall drains"
        );
        for (s, r) in results.into_iter().enumerate() {
            assert_stalled_on_device_1(&format!("session {s}"), r);
        }
        // One worker — the calling thread alone — applies the same rule.
        let start = Instant::now();
        let single = restore_sessions(&model, &mgr, &requests[..1], 1, 1, &ParallelConfig::new(2));
        assert!(start.elapsed() < Duration::from_millis(450));
        assert_stalled_on_device_1("a single restore", single.into_iter().next().unwrap());
        assert!(
            mgr.device_health().counters(1).1 >= 1,
            "the stall must be recorded against device 1's health"
        );
    }

    #[test]
    fn empty_request_batch_is_a_no_op() {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 227);
        let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
            .with_reactor(Reactor::new(4, 2));
        assert!(restore_sessions(&model, &mgr, &[], 2, 8, &ParallelConfig::new(2)).is_empty());
    }

    /// A MemStore whose every chunk is a DRAM-front hit, so the pumping
    /// compute worker reads it inline. Once armed, one session's chunk
    /// reads panic — or, with `in_tier_lookup`, its front-tier lookups,
    /// which the job makes while planning on the pumping thread.
    struct PanicStore {
        inner: MemStore,
        poison: u64,
        in_tier_lookup: bool,
        armed: AtomicBool,
    }

    impl PanicStore {
        fn poisoned(&self, key: hc_storage::chunk::ChunkKey) -> bool {
            self.armed.load(Ordering::SeqCst) && key.stream.session == self.poison
        }
    }

    impl ChunkStore for PanicStore {
        fn write_chunk(
            &self,
            key: hc_storage::chunk::ChunkKey,
            data: &[u8],
        ) -> Result<(), StorageError> {
            self.inner.write_chunk(key, data)
        }

        fn read_chunk(&self, key: hc_storage::chunk::ChunkKey) -> Result<Vec<u8>, StorageError> {
            assert!(
                self.in_tier_lookup || !self.poisoned(key),
                "poisoned chunk read"
            );
            self.inner.read_chunk(key)
        }

        fn contains(&self, key: hc_storage::chunk::ChunkKey) -> bool {
            self.inner.contains(key)
        }

        fn delete_stream(&self, stream: StreamId) -> u64 {
            self.inner.delete_stream(stream)
        }

        fn n_devices(&self) -> usize {
            self.inner.n_devices()
        }

        fn stats(&self) -> hc_storage::backend::StoreStats {
            self.inner.stats()
        }

        fn chunk_in_fast_tier(&self, key: hc_storage::chunk::ChunkKey) -> bool {
            assert!(
                !(self.in_tier_lookup && self.poisoned(key)),
                "poisoned tier lookup"
            );
            true
        }
    }

    #[test]
    fn a_panicking_store_fails_its_session_alone_instead_of_hanging_the_batch() {
        // Four sessions over two workers, session 2's store calls
        // panicking on the compute worker that pumps its jobs. The batch
        // must return — bounded here, so a hung batch fails the test
        // instead of hanging the suite — with session 2 failed typed and
        // its siblings bit-identical. A panicking front-hit read is
        // contained by the read job (a storage error); any other panic in
        // an advance by the machine (`Panicked`).
        for in_tier_lookup in [false, true] {
            let cfg = ModelConfig::tiny_llama();
            let model = Model::new(&cfg, 233);
            let store = Arc::new(PanicStore {
                inner: MemStore::new(4),
                poison: 2,
                in_tier_lookup,
                armed: AtomicBool::new(false),
            });
            let mgr = StorageManager::new(Arc::clone(&store), cfg.d_model)
                .with_reactor(Reactor::new(4, 2));
            let saved = saved_batch(&model, &mgr, &PartitionScheme::pure_hidden(4), 0..4);
            store.armed.store(true, Ordering::SeqCst);
            let (tx, rx) = std::sync::mpsc::channel();
            let batch = std::thread::spawn(move || {
                let results = restore_sessions(
                    &model,
                    &mgr,
                    &saved.requests(),
                    2,
                    4,
                    &ParallelConfig::new(2),
                );
                let _ = tx.send((results, saved.references));
            });
            let (results, references) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a panicking store must not hang the batch");
            batch.join().expect("the batch thread returned its results");
            for (s, result) in results.into_iter().enumerate() {
                match (s, result) {
                    (2, Err(RestoreError::Storage(StorageError::Io(_)))) if !in_tier_lookup => {}
                    (2, Err(RestoreError::Panicked)) if in_tier_lookup => {}
                    (2, other) => panic!("session 2 (tier lookup: {in_tier_lookup}): {other:?}"),
                    (s, result) => assert_eq!(kv_max_error(&result.unwrap(), &references[s]), 0.0),
                }
            }
        }
    }
}
