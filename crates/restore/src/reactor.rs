//! Event-driven many-session restore driver: thousands of concurrent
//! restores on a fixed thread budget.
//!
//! A thread-per-restore batch gives each in-flight session a worker (plus
//! a prefetch thread), so in-flight restores are clamped to the host
//! thread grant — fine for 8 sessions, wrong for 10k. This module drives
//! each restore as a **state machine** advanced by a small pool of compute
//! workers, with all IO riding the storage manager's
//! [`Reactor`](hc_storage::reactor::Reactor) submission queues:
//!
//! * Each admitted session becomes a [`Machine`]: its `KvCache` under
//!   construction, plus a sliding window of active layers
//!   ([`LAYER_WINDOW`]), each layer holding one
//!   [`ReactorReadJob`] per stream (one for hidden layers, K+V for
//!   KV-offloaded layers).
//! * IO completions fire the machine's `notify` callback, which enqueues
//!   the machine's index on a shared
//!   [`WorkQueue`](hc_storage::reactor::WorkQueue) (deduplicated by a
//!   per-machine pending flag, so a burst of completions costs one wakeup).
//! * `workers` compute threads pop machine indices and **advance** them:
//!   pump every active job (decode staged chunks, project/place newly
//!   contiguous prefixes into the cache — the same incremental consumption
//!   as the single-session chunk pipeline), retire finished layers, and
//!   submit the next layer's reads.
//! * The main thread admits sessions into a `max_inflight` window
//!   (bounding staging memory to `max_inflight × LAYER_WINDOW` layers) and
//!   records each session's restore latency for TTFR accounting.
//!
//! In-flight restores are therefore bounded by **memory and iodepth**, not
//! threads: `n_devices × iodepth` reactor IO threads plus `workers`
//! compute threads serve any number of admitted sessions.
//!
//! # Determinism and blast radius
//!
//! Every per-layer transform is the one the sequential restore runs —
//! chunk decode via the manager's helpers, row-wise projection at absolute
//! positions, paired K/V prefix installation — so each restored cache is
//! **bit-identical** to [`restore_session_with_methods`]'s, at any worker
//! count, iodepth, or admission window (the tests enforce this). A failing
//! session (missing stream, dead device, even a panicking backend — the
//! reactor converts IO panics to typed [`StorageError::Io`] completions)
//! resolves only its own slot to `Err`; its machine is torn down, its
//! admission slot is recycled, and every other machine advances
//! untouched.
//!
//! When the manager's [`RetryPolicy`](hc_storage::health::RetryPolicy)
//! carries an IO deadline, the admission thread also acts as a stall
//! watchdog: if no session completes for a deadline's worth of time it
//! sweeps the live machines and expires any read job whose IO made no
//! progress for the deadline (`ReactorReadJob::expire_stalled`), typing
//! that one session's next pump as a transient
//! [`StorageError::DeviceFailed`](hc_storage::StorageError) — a wedged
//! device submission can never hang the batch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hc_model::{layer, KvCache, Model};
use hc_sched::partition::LayerMethod;
use hc_storage::backend::ChunkStore;
use hc_storage::chunk::chunks_for_range;
use hc_storage::manager::{DeliveredRows, PumpOutcome, ReactorReadJob, RowSink, StorageManager};
use hc_storage::StreamId;
use hc_tensor::ParallelConfig;

use crate::engine::{RestoreError, StreamAssembly};

/// How many layers of one restore may have reads in flight at once. Two
/// keeps the next layer's IO running while the current layer's tail is
/// being projected (the same bubble-free fill as the single-session
/// pipeline) while bounding per-session staging to O(2 layers).
const LAYER_WINDOW: usize = 2;

/// One session's restore work for [`restore_sessions_reactor`].
#[derive(Debug, Clone)]
pub struct RestoreRequest {
    /// Session whose streams hold the state.
    pub session: u64,
    /// Original history tokens (needed by recompute layers).
    pub tokens: Vec<u32>,
    /// History length to restore.
    pub n_tokens: usize,
    /// The session's current per-layer method mix.
    pub methods: Vec<LayerMethod>,
}

/// One finished session restore: the result plus its restore latency
/// (admission → completion), the TTFR sample the multi-session benches
/// aggregate into percentiles.
#[derive(Debug)]
pub struct SessionRestore {
    /// The restored cache, or this session's own failure.
    pub result: Result<KvCache, RestoreError>,
    /// Admission-to-completion latency.
    pub latency: Duration,
}

/// [`RowSink`] that buffers one pump's deliveries so they can be applied
/// to the machine's assembly outside the manager's delivery callback. A
/// reset (mid-read tombstone) drops the dead generation's buffered rows;
/// the restarted pass redelivers every slice.
#[derive(Default)]
struct BufSink {
    rows: Vec<DeliveredRows>,
    reset: bool,
}

impl RowSink for BufSink {
    fn deliver(&mut self, chunk: DeliveredRows) -> bool {
        self.rows.push(chunk);
        true
    }

    fn reset(&mut self) {
        self.rows.clear();
        self.reset = true;
    }
}

/// One active layer of one machine: the stream assemblies plus the reactor
/// read jobs feeding them.
enum Lane<S: ChunkStore> {
    /// A hidden layer: rows are projected (at absolute positions) as the
    /// contiguous prefix grows.
    Hidden {
        asm: StreamAssembly,
        job: Arc<ReactorReadJob<S>>,
        /// Rows already projected and appended to the cache.
        projected: usize,
    },
    /// A KV-offloaded layer: K and V stream independently; whatever prefix
    /// both agree on is installed.
    Kv {
        k_asm: StreamAssembly,
        v_asm: StreamAssembly,
        k_job: Arc<ReactorReadJob<S>>,
        v_job: Arc<ReactorReadJob<S>>,
        /// Rows already installed into the cache.
        placed: usize,
    },
}

/// One admitted session's restore state machine.
struct Machine<S: ChunkStore> {
    kv: KvCache,
    /// Active layers, oldest first; at most [`LAYER_WINDOW`].
    active: VecDeque<(usize, Lane<S>)>,
    /// Next layer to submit reads for.
    next_layer: usize,
    /// Whether the recompute prefix has run (first advancement).
    started: bool,
    /// Row count of each 64-token slice of `0..n_tokens`.
    slice_rows: Vec<usize>,
    /// Completion callback shared by every job of this machine.
    notify: Arc<dyn Fn() + Send + Sync>,
    /// Terminal result; `Some` means the machine is done.
    result: Option<Result<KvCache, RestoreError>>,
    admitted: Instant,
    finished: Option<Instant>,
}

/// Restores `requests` through the manager's IO reactor: `workers` compute
/// threads advance up to `max_inflight` concurrent restore state machines,
/// all IO flowing through the reactor's per-device submission queues. See
/// the module docs for the architecture; results return in request order,
/// each bit-identical to a sequential
/// [`restore_session_with_methods`](crate::engine::restore_session_with_methods)
/// call, with per-session restore latencies for TTFR accounting.
///
/// The host thread budget `par` is split across the compute workers
/// (`⌊par.threads / workers⌋` each, floor 1), and `workers` is clamped to
/// `par.threads()` — the aggregate never exceeds the caller's grant, while
/// `max_inflight` (floored to `workers`) independently bounds admitted
/// sessions and therefore staging memory.
///
/// # Panics
/// Panics when the manager has no reactor attached
/// ([`StorageManager::with_reactor`]), or when any request's methods do
/// not cover the model / violate the recompute-prefix invariant (§4.1.2) /
/// lack the tokens its recompute prefix needs — the same contract as the
/// single-session entry points, validated for every request up front so no
/// partial batch starts.
pub fn restore_sessions_reactor<S: ChunkStore>(
    model: &Model,
    mgr: &Arc<StorageManager<S>>,
    requests: &[RestoreRequest],
    workers: usize,
    max_inflight: usize,
    par: &ParallelConfig,
) -> Vec<SessionRestore> {
    let reactor = Arc::clone(
        mgr.reactor()
            // hc-analyze: allow(panic) documented API contract: callers must configure the manager with_reactor first
            .expect("restore_sessions_reactor requires a manager with_reactor"),
    );
    let cfg = &model.cfg;
    for r in requests {
        assert_eq!(r.methods.len(), cfg.n_layers, "methods do not cover model");
        let n_recompute = recompute_prefix(&r.methods);
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
    if requests.is_empty() {
        return Vec::new();
    }

    let workers = workers.clamp(1, requests.len()).min(par.threads().max(1));
    let per_machine = ParallelConfig::new((par.threads() / workers).max(1));
    let max_inflight = max_inflight.max(workers);

    let queue = hc_storage::reactor::WorkQueue::new();
    let machines: Vec<parking_lot::Mutex<Option<Machine<S>>>> = requests
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let pendings: Vec<Arc<AtomicBool>> = requests
        .iter()
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let (done_tx, done_rx) = mpsc::channel::<usize>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let done_tx = done_tx.clone();
            let machines = &machines;
            let pendings = &pendings;
            let reactor = &reactor;
            let per_machine = &per_machine;
            scope.spawn(move || {
                while let Some(i) = queue.pop() {
                    // Clear the dedup flag before advancing: completions
                    // landing mid-advance re-enqueue the machine.
                    pendings[i].store(false, Ordering::Release);
                    let mut slot = machines[i].lock();
                    let Some(m) = slot.as_mut() else { continue };
                    if m.result.is_some() {
                        continue; // late wakeup after completion
                    }
                    advance(m, &requests[i], model, mgr, per_machine);
                    let finished = m.result.is_some();
                    if finished {
                        m.finished = Some(Instant::now());
                        m.active.clear(); // drop any surviving jobs
                    }
                    // The completion gauge and channel don't need the
                    // machine lock — release it before touching them.
                    drop(slot);
                    if finished {
                        reactor.restore_completed();
                        let _ = done_tx.send(i);
                    }
                }
            });
        }
        drop(done_tx);

        // Admission: the main thread keeps up to `max_inflight` machines
        // live, admitting the next request as each one finishes.
        let admit = |i: usize| {
            let r = &requests[i];
            let pending = Arc::clone(&pendings[i]);
            let q = Arc::clone(&queue);
            let notify: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                if !pending.swap(true, Ordering::AcqRel) {
                    q.push(i);
                }
            });
            let slice_rows: Vec<usize> = chunks_for_range(0, r.n_tokens as u64)
                .iter()
                .map(|s| s.len as usize)
                .collect();
            *machines[i].lock() = Some(Machine {
                kv: KvCache::new(cfg),
                active: VecDeque::with_capacity(LAYER_WINDOW),
                next_layer: recompute_prefix(&r.methods),
                started: false,
                slice_rows,
                notify: Arc::clone(&notify),
                result: None,
                admitted: Instant::now(),
                finished: None,
            });
            reactor.restore_admitted();
            notify(); // first advancement: recompute prefix + initial reads
        };

        let mut next_admit = 0usize;
        while next_admit < requests.len().min(max_inflight) {
            admit(next_admit);
            next_admit += 1;
        }
        // When the manager's retry policy carries an IO deadline, the
        // admission thread doubles as the stall watchdog: every deadline's
        // worth of silence, sweep the live machines and expire jobs whose
        // reads made no progress for the deadline
        // (`ReactorReadJob::expire_stalled` blames the slow lane's device
        // and types the job's next pump as a transient `DeviceFailed`), so
        // a wedged submission fails one session instead of hanging the
        // whole batch.
        let io_deadline = mgr.retry_policy().io_deadline;
        let sweep_stalled = |deadline: Duration| {
            for (i, slot) in machines.iter().enumerate() {
                // A machine we cannot lock is being advanced right now —
                // that is progress, not a stall.
                let Some(mut guard) = slot.try_lock() else {
                    continue;
                };
                let Some(m) = guard.as_mut() else { continue };
                if m.result.is_some() {
                    continue;
                }
                let mut expired = false;
                for (_, lane) in m.active.iter() {
                    match lane {
                        Lane::Hidden { job, .. } => expired |= job.expire_stalled(deadline),
                        Lane::Kv { k_job, v_job, .. } => {
                            expired |= k_job.expire_stalled(deadline);
                            expired |= v_job.expire_stalled(deadline);
                        }
                    }
                }
                drop(guard);
                if expired && !pendings[i].swap(true, Ordering::AcqRel) {
                    queue.push(i);
                }
            }
        };
        let mut completed = 0usize;
        while completed < requests.len() {
            // A disconnect means every compute worker died: no surviving
            // machine can ever advance, so stop admitting and let the
            // collection below type the unfinished slots as `WorkerLost`.
            let received = match io_deadline {
                Some(deadline) => match done_rx.recv_timeout(deadline) {
                    Ok(_) => true,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        sweep_stalled(deadline);
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => false,
                },
                None => done_rx.recv().is_ok(),
            };
            if !received {
                break;
            }
            completed += 1;
            if next_admit < requests.len() {
                admit(next_admit);
                next_admit += 1;
            }
        }
        queue.close();
    });

    machines
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Some(m) => SessionRestore {
                result: m.result.unwrap_or(Err(RestoreError::WorkerLost)),
                latency: m
                    .finished
                    .map(|f| f - m.admitted)
                    .unwrap_or_else(|| m.admitted.elapsed()),
            },
            // Never admitted: the pool died before this request's turn.
            None => SessionRestore {
                result: Err(RestoreError::WorkerLost),
                latency: Duration::ZERO,
            },
        })
        .collect()
}

fn recompute_prefix(methods: &[LayerMethod]) -> usize {
    methods
        .iter()
        .take_while(|m| **m == LayerMethod::Recompute)
        .count()
}

/// Advances one machine as far as currently possible: first advancement
/// runs the recompute prefix and opens the layer window; every advancement
/// pumps the active jobs, applies their deliveries, retires finished
/// layers and submits the next layer's reads (pumping newly opened jobs in
/// the same call, since their first pump is what submits their IO).
fn advance<S: ChunkStore>(
    m: &mut Machine<S>,
    req: &RestoreRequest,
    model: &Model,
    mgr: &Arc<StorageManager<S>>,
    par: &ParallelConfig,
) {
    let cfg = &model.cfg;
    if !m.started {
        m.started = true;
        let n_recompute = m.next_layer;
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
    loop {
        // Open the layer window (lazily-started jobs submit their IO on
        // the first pump below).
        while m.active.len() < LAYER_WINDOW && m.next_layer < req.methods.len() {
            let l = m.next_layer;
            m.next_layer += 1;
            let n = req.n_tokens as u64;
            let n_slices = m.slice_rows.len();
            let lane = match req.methods[l] {
                LayerMethod::Hidden => Lane::Hidden {
                    asm: StreamAssembly::new(req.n_tokens, cfg.d_model, n_slices),
                    job: mgr.begin_read_reactor(
                        StreamId::hidden(req.session, l as u32),
                        0,
                        n,
                        Arc::clone(&m.notify),
                    ),
                    projected: 0,
                },
                LayerMethod::KvOffload => Lane::Kv {
                    k_asm: StreamAssembly::new(req.n_tokens, cfg.d_model, n_slices),
                    v_asm: StreamAssembly::new(req.n_tokens, cfg.d_model, n_slices),
                    k_job: mgr.begin_read_reactor(
                        StreamId::key(req.session, l as u32),
                        0,
                        n,
                        Arc::clone(&m.notify),
                    ),
                    v_job: mgr.begin_read_reactor(
                        StreamId::value(req.session, l as u32),
                        0,
                        n,
                        Arc::clone(&m.notify),
                    ),
                    placed: 0,
                },
                LayerMethod::Recompute => unreachable!("prefix checked at admission"),
            };
            m.active.push_back((l, lane));
        }
        if m.active.is_empty() {
            // Nothing left to read: the restore is complete.
            let kv = std::mem::replace(&mut m.kv, KvCache::new(cfg));
            debug_assert!(kv.is_consistent());
            m.result = Some(Ok(kv));
            return;
        }
        let mut finished_this_round = false;
        let kv = &mut m.kv;
        let slice_rows = &m.slice_rows;
        for (l, lane) in m.active.iter_mut() {
            match pump_lane(*l, lane, kv, model, slice_rows, req.n_tokens, par) {
                Ok(done) => finished_this_round |= done,
                Err(e) => {
                    // This session fails alone; sibling machines and the
                    // reactor's IO threads are untouched.
                    m.result = Some(Err(e));
                    return;
                }
            }
        }
        if !finished_this_round {
            return; // window full of pending IO — wait for completions
        }
        m.active.retain(|(_, lane)| !lane_done(lane, req.n_tokens));
    }
}

/// Whether a lane has delivered and consumed its whole range.
fn lane_done<S: ChunkStore>(lane: &Lane<S>, n_tokens: usize) -> bool {
    match lane {
        Lane::Hidden { projected, .. } => *projected >= n_tokens,
        Lane::Kv { placed, .. } => *placed >= n_tokens,
    }
}

/// Pumps one lane's job(s) once and applies whatever landed: place chunks,
/// project/install the newly contiguous prefix, roll back on a tombstone
/// reset. Returns `Ok(true)` when the lane finished its range.
fn pump_lane<S: ChunkStore>(
    l: usize,
    lane: &mut Lane<S>,
    kv: &mut KvCache,
    model: &Model,
    slice_rows: &[usize],
    n_tokens: usize,
    par: &ParallelConfig,
) -> Result<bool, RestoreError> {
    match lane {
        Lane::Hidden {
            asm,
            job,
            projected,
        } => {
            let mut sink = BufSink::default();
            let outcome = job.pump(&mut sink);
            if sink.reset {
                asm.reset();
                kv.truncate_layer(l, 0);
                *projected = 0;
            }
            for c in sink.rows.drain(..) {
                asm.place(c.slice_idx, c.row_start, &c.rows, slice_rows);
            }
            if asm.ready_rows > *projected {
                // Project the newly contiguous rows at their absolute
                // positions — bit-equal to a whole-layer projection.
                let h = asm.staged.slice_rows(*projected, asm.ready_rows);
                let (k, v) = model.restore_layer_kv_par(l, &h, *projected, par);
                kv.append(l, &k, &v);
                *projected = asm.ready_rows;
            }
            match outcome {
                PumpOutcome::Done => {
                    debug_assert_eq!(*projected, n_tokens, "Done with rows missing");
                    Ok(true)
                }
                PumpOutcome::Pending => Ok(false),
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
                let mut sink = BufSink::default();
                let outcome = job.pump(&mut sink);
                if sink.reset {
                    // Roll back this layer's installed rows; the reset
                    // stream redelivers every slice, so the paired prefix
                    // regrows (the other stream's staging survives).
                    asm.reset();
                    kv.truncate_layer(l, 0);
                    *placed = 0;
                }
                for c in sink.rows.drain(..) {
                    asm.place(c.slice_idx, c.row_start, &c.rows, slice_rows);
                }
                match outcome {
                    PumpOutcome::Done => {}
                    PumpOutcome::Pending => done = false,
                    PumpOutcome::Failed(e) => return Err(RestoreError::Storage(e)),
                }
            }
            // Install whatever prefix both streams now agree on.
            let ready = k_asm.ready_rows.min(v_asm.ready_rows);
            if ready > *placed {
                kv.append(
                    l,
                    &k_asm.staged.slice_rows(*placed, ready),
                    &v_asm.staged.slice_rows(*placed, ready),
                );
                *placed = ready;
            }
            if done {
                debug_assert_eq!(*placed, n_tokens, "Done with rows missing");
            }
            Ok(done && *placed >= n_tokens)
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

    fn saved_batch<S: ChunkStore>(
        model: &Model,
        mgr: &Arc<StorageManager<S>>,
        scheme: &PartitionScheme,
        sessions: std::ops::Range<u64>,
    ) -> (Vec<RestoreRequest>, Vec<KvCache>) {
        let methods = scheme.layer_methods(model.cfg.n_layers);
        let mut requests = Vec::new();
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
            requests.push(RestoreRequest {
                session: s,
                tokens,
                n_tokens: N_TOKENS,
                methods: methods.clone(),
            });
        }
        (requests, references)
    }

    #[test]
    fn reactor_restores_are_bit_identical_for_all_mixes_and_geometries() {
        for (i, scheme) in all_scheme_mixes().into_iter().enumerate() {
            let cfg = ModelConfig::tiny_llama();
            let model = Model::new(&cfg, 101 + i as u64);
            for (iodepth, workers) in [(1usize, 1usize), (2, 2), (4, 3)] {
                let mgr = Arc::new(
                    StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
                        .with_reactor(Reactor::new(4, iodepth)),
                );
                let (requests, references) = saved_batch(&model, &mgr, &scheme, 0..6);
                let results = restore_sessions_reactor(
                    &model,
                    &mgr,
                    &requests,
                    workers,
                    4,
                    &ParallelConfig::new(workers),
                );
                assert_eq!(results.len(), requests.len());
                for (s, r) in results.into_iter().enumerate() {
                    let kv = r.result.unwrap();
                    assert_eq!(
                        kv_max_error(&kv, &references[s]),
                        0.0,
                        "scheme #{i} session {s} diverged at iodepth {iodepth} × {workers} workers"
                    );
                    assert!(r.latency > Duration::ZERO);
                }
            }
        }
    }

    #[test]
    fn admission_window_bounds_in_flight_restores() {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 211);
        let reactor = Reactor::new(4, 2);
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
                .with_reactor(Arc::clone(&reactor)),
        );
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let (requests, _) = saved_batch(&model, &mgr, &scheme, 0..12);
        let results =
            restore_sessions_reactor(&model, &mgr, &requests, 2, 3, &ParallelConfig::new(2));
        assert!(results.iter().all(|r| r.result.is_ok()));
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
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
                .with_reactor(Reactor::new(4, 2)),
        );
        let scheme = PartitionScheme::pure_hidden(4);
        let (mut requests, references) = saved_batch(&model, &mgr, &scheme, 0..5);
        requests[2].session = 999; // never saved
        let results =
            restore_sessions_reactor(&model, &mgr, &requests, 2, 8, &ParallelConfig::new(2));
        for (s, r) in results.into_iter().enumerate() {
            if s == 2 {
                assert!(matches!(
                    r.result,
                    Err(RestoreError::Storage(StorageError::OutOfRange { .. }))
                ));
            } else {
                assert_eq!(kv_max_error(&r.result.unwrap(), &references[s]), 0.0);
            }
        }
    }

    #[test]
    fn io_deadline_expires_stalled_sessions_instead_of_wedging_the_batch() {
        use hc_storage::fault::{FaultStore, FaultTarget};
        use hc_storage::health::RetryPolicy;

        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 229);
        let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mgr = Arc::new(
            StorageManager::new(Arc::clone(&fault), cfg.d_model)
                .with_reactor(Reactor::new(4, 2))
                .with_retry_policy(
                    RetryPolicy::default().with_io_deadline(Duration::from_millis(40)),
                ),
        );
        let scheme = PartitionScheme::pure_hidden(4);
        let (requests, _) = saved_batch(&model, &mgr, &scheme, 0..4);
        // Wedge device 1 far past the deadline: every session's 80-token
        // hidden streams put a chunk on it, so without the watchdog the
        // whole batch would sit on the stall.
        fault.stall_reads(FaultTarget::Device(1), Duration::from_millis(500));
        let start = Instant::now();
        let results =
            restore_sessions_reactor(&model, &mgr, &requests, 2, 4, &ParallelConfig::new(2));
        assert!(
            start.elapsed() < Duration::from_millis(450),
            "watchdog must fail stalled sessions before the stall drains"
        );
        for (s, r) in results.into_iter().enumerate() {
            match r.result {
                Err(RestoreError::Storage(StorageError::DeviceFailed {
                    device,
                    transient,
                    ..
                })) => {
                    assert_eq!(device, 1, "session {s} blamed the wrong lane");
                    assert!(transient, "a stall is transient, not data loss");
                }
                other => panic!("session {s}: expected a typed stall timeout, got {other:?}"),
            }
        }
        assert!(
            mgr.device_health().counters(1).1 >= 1,
            "the stall must be recorded against device 1's health"
        );
    }

    #[test]
    fn empty_request_batch_is_a_no_op() {
        let cfg = ModelConfig::tiny_llama();
        let model = Model::new(&cfg, 227);
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model)
                .with_reactor(Reactor::new(4, 2)),
        );
        assert!(
            restore_sessions_reactor(&model, &mgr, &[], 2, 8, &ParallelConfig::new(2)).is_empty()
        );
    }
}
