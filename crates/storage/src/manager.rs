//! The storage manager: append/read token-row streams as f16 chunks.
//!
//! # Sharded locking discipline
//!
//! The manager is built for concurrent stream IO: N pipelined restores
//! (readers), the two-stage saver's chunk daemon (an appender) and the
//! cache controller's demotion sweep (a deleter) all run against one
//! manager at once, and none of them may serialize the others on backend
//! IO or f16 decode. The state is therefore sharded two levels deep:
//!
//! * an **outer map** `RwLock<HashMap<StreamId, Arc<RwLock<StreamState>>>>`
//!   that only resolves stream ids to their state cell (held for
//!   microseconds — never across backend IO or codec work), and
//! * a **per-stream `RwLock<StreamState>`** guarding that stream's
//!   [`ChunkLedger`] (its sealed chunks and flushed tail, hence its durable
//!   cursor and resident bytes) and its buffer of unsealed rows.
//!
//! Lock order is strictly **map before stream**: no code path acquires the
//! outer map lock while holding a stream lock (paths that need both drop
//! the stream guard first). What may be held across backend IO:
//!
//! * [`StorageManager::read_rows`] — **nothing**. It snapshots the
//!   stream's durable cursor (and clones the partial tail if the range
//!   touches it) under a brief per-stream *read* lock, then performs every
//!   backend read and every f16 decode with no lock held. Durable
//!   chunks are immutable once the cursor covers them, so the snapshot
//!   stays valid without the lock.
//! * [`StorageManager::append_rows`] / [`StorageManager::flush_stream`] /
//!   [`StorageManager::delete_stream`] — only **their own stream's write
//!   lock**. This preserves per-stream ordering (chunks become durable
//!   before the cursor advances past them) while leaving every other
//!   stream fully concurrent.
//!
//! The aggregate [`StorageManager::total_resident_bytes`] figure lives in
//! an atomic, updated in the same stream-write critical sections that edit
//! the per-stream ledgers, so quota trackers poll it lock-free.
//!
//! # One read path
//!
//! Every read is one [`ReadJob`], the read state machine
//! (`planned → submitted → landed`), and lands in one [`RowAssembly`]: the
//! range's destination rows plus which chunk slices have landed and the
//! contiguous ready prefix a consumer may already use. For each landed
//! chunk the job validates the backend bytes and decodes exactly the
//! slice's byte range straight into the slice's destination rows; slices
//! past the durable cursor are round-tripped through f16 from the
//! snapshotted tail straight into theirs. No per-chunk buffer sits between
//! the bytes and the rows, and since the decode is element-wise and every
//! slice owns a disjoint row range, the result is the same in any landing
//! order.
//!
//! With an IO [`Reactor`] attached ([`StorageManager::with_reactor`]) a
//! job submits the range's device-occupying chunks to the reactor's
//! per-device queues in ascending order, with at most `iodepth × occupied
//! devices` in flight, and each pump lands whatever completed (IO threads
//! touch only the backend, never a stream lock or the map). Every other
//! durable slice is read inline by the pumping thread: DRAM-tier front
//! hits ([`crate::backend::ChunkStore::chunk_in_fast_tier`]), which
//! complete at memcpy speed while the device IO is in flight, and every
//! slice of a job that holds no reactor. A job begun for a restore
//! ([`StorageManager::begin_read`]) holds the manager's reactor whenever
//! it has one; the blocking [`StorageManager::read_rows_into`] (and
//! [`StorageManager::read_rows`] on top of it) pumps its job on the
//! calling thread and queues only a range with two or more
//! device-occupying chunks — a single device read serializes anyway. A
//! panicking backend fails the one chunk read with a typed
//! [`StorageError::Io`] wherever a job reads it, on an IO thread or
//! inline, so it can never strand a job or take down the pumping thread.
//!
//! The tombstone revalidation is **per landed slice**: after a slice's
//! rows are decoded, the snapshot cell's tombstone is re-checked, and only
//! then is the slice marked landed. If a concurrent `delete_stream`
//! (possibly followed by a restarting appender reusing the same chunk
//! keys) lands mid-read, the assembly is reset — everything landed so far
//! belonged to a dead generation — and the job restarts against the
//! successor state, so a completed read always holds one single
//! generation. An *error* from a tombstoned snapshot (a chunk the delete
//! already wiped) restarts the same way: a failure from a dead generation
//! never fails the read.
//!
//! Deletion vs. concurrent appends uses a tombstone: `delete_stream` marks
//! the state deleted and wipes the backend *while holding the stream write
//! lock*, then drops the dead map entry. A writer holding a stale handle
//! observes the tombstone (only ever after the backend wipe completed,
//! since it had to wait for the same write lock) and retries through the
//! map, starting a fresh stream — exactly the sequential
//! delete-then-append semantics — so freed bytes always equal the tracked
//! resident bytes, never counting rows that arrived after the wipe. A
//! *reader* whose snapshot cell gets tombstoned mid-IO re-checks the
//! tombstone after its lock-free phase and retries against the successor
//! state, so a delete + restart never yields mixed-generation rows.
//!
//! # Crash durability: journal + recovery protocol
//!
//! A manager with a [`crate::journal::Journal`] attached (built by
//! [`StorageManager::create_durable`], rebuilt by
//! [`StorageManager::reopen`]) survives a host crash. The protocol has
//! two write-ordering rules and one recovery pass:
//!
//! * **Chunk commits — write, then log.** Every durable chunk write
//!   (full chunks in [`StorageManager::append_rows`], flushed tails in
//!   [`StorageManager::flush_stream`]) completes durably in the backend
//!   first (temp file + `sync_all` + atomic rename + parent-dir fsync in
//!   [`crate::backend::FileStore`]) and is *then* journaled as a
//!   `ChunkCommit` record `(stream, chunk idx, generation, rows, tail
//!   flag, byte length, chunk CRC32)`. A crash between the two leaves an
//!   orphan chunk file recovery sweeps away; a present record implies a
//!   durable chunk whose integrity the CRC can prove.
//! * **Deletes — log, then wipe.** [`StorageManager::delete_stream`]
//!   journals a `StreamDelete` record (bumping the stream's generation)
//!   before wiping the backend. A crash between the two leaves orphan
//!   chunk files of a dead generation — again removed by the sweep —
//!   never a resurrected stream.
//!
//! **Recovery** ([`StorageManager::reopen`] /
//! [`StorageManager::recover`]) replays the journal — truncating a torn
//! journal tail back to the last consistent record by frame CRC — and
//! validates the journal's [`crate::index::StreamIndex`] against the
//! backend, chunk by chunk in index order: a missing, short or
//! CRC-mismatching chunk (a torn final write, or bit rot) truncates the
//! stream at that chunk; a chunk *longer* than journaled with a matching
//! prefix CRC (a durable tail re-flush that outran its journal record) is
//! trimmed back to exactly the journaled bytes. Each surviving entry
//! rebuilds its stream's ledger and decoded partial tail — so the freed ==
//! tracked invariant holds across restart — and every backend chunk not
//! named by a surviving entry is deleted. When recovery discarded any
//! journaled chunk, it rewrites the journal from the truncated index (the
//! compaction path: temp file, fsync, atomic rename) before returning, so
//! no commit of a discarded chunk survives to shadow the chunks the stream
//! commits next. The report ([`crate::manager::RecoveryReport`])
//! quantifies all of it.
//!
//! # Fault matrix: typed errors and blast radius
//!
//! Storage faults surface as **typed** errors with a bounded blast
//! radius; the failure-scenario suite drives each row of this matrix
//! through [`crate::fault::FaultStore`]:
//!
//! | Fault | Typed error | Blast radius |
//! |---|---|---|
//! | Device read error (permanent) | [`StorageError::DeviceFailed`] `{transient: false}` through every read job → `RestoreError`/`CtlError`/`SystemError` | The faulted read/session only; sibling restores complete bit-identical |
//! | Device read error (transient) | Masked by budgeted retry with jittered backoff ([`crate::health::RetryPolicy`]) in every read path; surfaces as `DeviceFailed {transient: true}` only if it persists | None when masked |
//! | Sick device (repeated errors/stalls) | The [`crate::health::DeviceHealth`] breaker opens; reads fail fast typed-transient until a half-open probe heals the lane | Restores degrade affected layers to recompute (see `hc-cachectl`); no session fails |
//! | Stalled reactor submission | Timed out at the [`RetryPolicy::io_deadline`] into `DeviceFailed {transient: true}`, counted as a stall against the lane's breaker | The one read; its lane is not wedged |
//! | Device write error | `DeviceFailed` from `append_rows`/`flush_stream`; no rows are lost — the unsealed rows stay buffered and the next append or flush retries the seal. Through the two-stage saver it is returned from the session's next barrier | The appending stream only; at the `hcache` facade, one round: the failed round drops its session to token-only state at the pre-round history |
//! | Read stall | No error — the lane is slow, not dead; reads on other lanes proceed | Latency of the stalled read only |
//! | Torn chunk write (crash) | Detected at reopen by chunk CRC; stream truncated to last consistent prefix | Rows past the torn chunk of that stream |
//! | Torn journal tail (crash) | Detected at reopen by frame CRC; journal truncated to last consistent record | The unjournaled suffix of affected streams |
//! | Mid-restore delete/eviction | [`RowAssembly`] reset + retry on the successor generation, or `MissingChunk`/`OutOfRange` — never mixed-generation rows | The deleted stream only |

// hc-analyze: lock-order map=streams < stream=cell=c=stream_handle < job=core
// (The documented sharded discipline, machine-checked: the `streams`
// map lock strictly before any per-stream `cell` lock, and a reactor
// read job's `core` lock only innermost. Aliases name the receiver
// idents each class is acquired through.)
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hc_tensor::Tensor2;
use parking_lot::RwLock;

use crate::backend::{ChunkStore, FileStore, StoreStats};
use crate::chunk::{chunks_for_range, device_for, ChunkKey, ChunkSlice, CHUNK_TOKENS};
use crate::health::{Admit, DeviceHealth, RetryPolicy};
use crate::index::{ChunkImage, ChunkLedger};
use crate::journal::{crc32, Journal, JournalHeader, JournalReplay};
use crate::reactor::Reactor;
use crate::{Precision, StorageError, StreamId};

/// Reads one chunk under the manager's [`RetryPolicy`] and [`DeviceHealth`]
/// breaker, retrying *transient* device failures with jittered exponential
/// backoff until the attempt count or the backoff budget runs out
/// (permanent failures and every other error surface immediately). Shared
/// by every read job's chunk reads and the recovery validation pass, so
/// every read masks the same blips and feeds the same breaker.
///
/// Breaker interaction: reads of device-occupying chunks first ask the
/// breaker for admission — an open lane fails fast with a typed transient
/// [`StorageError::DeviceFailed`] (no device IO, no backoff), and a
/// half-open lane admits exactly one probe attempt (no retries, so the
/// probe verdict lands promptly). DRAM-front-tier hits bypass the breaker
/// entirely: they never touch the device, so a sick lane must not deny
/// them — and their success must not heal it.
///
/// Every sleep happens with no lock held (hc-analyze enforces the class).
pub(crate) fn read_chunk_retrying<S: ChunkStore + ?Sized>(
    store: &S,
    key: ChunkKey,
    policy: &RetryPolicy,
    health: &DeviceHealth,
) -> Result<Vec<u8>, StorageError> {
    let device = device_for(&key, store.n_devices().max(1));
    let fast = store.chunk_in_fast_tier(key);
    let mut probe = false;
    if !fast {
        match health.admit(device) {
            Admit::Yes => {}
            Admit::Probe => probe = true,
            Admit::No => {
                return Err(StorageError::DeviceFailed {
                    key,
                    device,
                    transient: true,
                    msg: format!("circuit breaker open for device {device}"),
                })
            }
        }
    }
    let mut attempt = 1;
    let mut slept = Duration::ZERO;
    loop {
        match store.read_chunk(key) {
            Ok(data) => {
                if !fast {
                    health.record_success(device);
                }
                return Ok(data);
            }
            Err(
                e @ StorageError::DeviceFailed {
                    transient: true, ..
                },
            ) if !probe && attempt < policy.attempts => {
                health.record_failure(device, true);
                let backoff = policy.backoff(&key, attempt);
                if slept + backoff > policy.budget {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                slept += backoff;
                attempt += 1;
            }
            Err(e) => {
                if let StorageError::DeviceFailed { transient, .. } = &e {
                    health.record_failure(device, *transient);
                }
                return Err(e);
            }
        }
    }
}

/// [`read_chunk_retrying`] with a panicking backend contained: the unwind
/// becomes a typed [`StorageError::Io`]. Every chunk read of a [`ReadJob`]
/// goes through here — on a reactor IO thread, where an escaped panic would
/// strand the job on a completion that never comes, and inline, where it
/// would unwind the pumping thread and with it every restore that thread
/// advances.
fn read_chunk_contained<S: ChunkStore + ?Sized>(
    store: &S,
    key: ChunkKey,
    policy: &RetryPolicy,
    health: &DeviceHealth,
) -> Result<Vec<u8>, StorageError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        read_chunk_retrying(store, key, policy, health)
    }))
    .unwrap_or_else(|_| {
        Err(StorageError::Io(format!(
            "chunk read panicked (chunk {} of {:?})",
            key.chunk_idx, key.stream
        )))
    })
}

/// Per-stream append state.
#[derive(Debug, Default)]
struct StreamState {
    /// The stream's sealed chunks and flushed tail in the backend: its
    /// durable cursor and its *resident* bytes — exactly what
    /// [`ChunkStore::delete_stream`] would free, the number a
    /// capacity/quota tracker must account against. It changes only after
    /// a chunk write succeeded, even when the journal append after it
    /// fails (recovery trims such an image to its journaled prefix).
    ledger: ChunkLedger<()>,
    /// Rows appended past the last sealed chunk (row-major f32): the
    /// partial tail, plus any full chunk whose seal failed (the next
    /// append or flush retries it).
    partial: Vec<f32>,
    /// Tombstone left by [`StorageManager::delete_stream`]: the backend
    /// chunks are gone and this cell must not be written again. Writers
    /// holding a stale handle retry through the map (see module docs).
    deleted: bool,
}

impl StreamState {
    /// Tokens appended (sealed + buffered).
    fn n_tokens(&self, d_model: usize) -> u64 {
        self.ledger.durable_tokens() + (self.partial.len() / d_model) as u64
    }
}

/// One attempt at a range: its chunk slices plus everything snapshotted
/// under the brief stream read lock — the inputs of a job's lock-free
/// phase.
struct ReadPlan {
    stream: StreamId,
    /// First token of the requested range (maps to output row 0).
    range_start: u64,
    slices: Vec<ChunkSlice>,
    /// Durable-token cursor at snapshot time.
    durable: u64,
    /// Snapshotted unsealed rows (starting at `durable`); present iff the
    /// range reaches past `durable` and the buffer was non-empty.
    tail: Option<Vec<f32>>,
    /// The snapshotted state cell, whose tombstone is re-checked before
    /// every slice lands (`None`: the stream did not exist).
    cell: Option<Arc<RwLock<StreamState>>>,
}

impl ReadPlan {
    /// True when a concurrent delete tombstoned the snapshotted cell (a
    /// missing cell never was tombstoned: it reads as empty).
    fn tombstoned(&self) -> bool {
        self.cell.as_ref().is_some_and(|c| c.read().deleted)
    }

    /// True when every row of `slice` is covered by the durable cursor, so
    /// its bytes come from the backend rather than the snapshotted tail.
    fn is_durable(&self, slice: &ChunkSlice) -> bool {
        slice.chunk_idx as u64 * CHUNK_TOKENS + slice.start_in_chunk + slice.len <= self.durable
    }
}

/// The destination of a read: one range's rows (row-major, `d_model`
/// wide), which of its chunk slices have landed, the contiguous ready
/// prefix and a reset count. A [`ReadJob`] decodes each slice straight
/// into its rows here; a consumer may use the first
/// [`RowAssembly::ready_rows`] rows while the rest are still in flight.
/// A mid-read tombstone resets the assembly (everything landed belonged
/// to a dead generation) and the job lands every slice again from the
/// successor state.
#[derive(Debug)]
pub struct RowAssembly {
    /// The destination rows. Empty until a job has validated its range, so
    /// an absurd range fails typed instead of allocating.
    rows: Tensor2,
    n_rows: usize,
    /// Per slice of the range, in range order: its row count once landed
    /// in the current pass, 0 before.
    landed: Vec<usize>,
    /// Leading landed slices, and the rows they cover.
    ready_slices: usize,
    ready_rows: usize,
    resets: usize,
}

impl RowAssembly {
    /// An assembly for a range of `n_rows` rows of width `d_model`. It
    /// allocates nothing until a read job has validated the range.
    pub fn new(n_rows: usize, d_model: usize) -> Self {
        Self {
            rows: Tensor2::zeros(0, d_model),
            n_rows,
            landed: Vec::new(),
            ready_slices: 0,
            ready_rows: 0,
            resets: 0,
        }
    }

    /// Rows of the contiguous landed prefix: final, safe to consume.
    pub fn ready_rows(&self) -> usize {
        self.ready_rows
    }

    /// How often a mid-read tombstone discarded what had landed.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// The destination rows; only the first [`RowAssembly::ready_rows`]
    /// are final.
    pub fn rows(&self) -> &Tensor2 {
        &self.rows
    }

    /// The assembled rows (complete once the job that filled them is done).
    pub fn into_tensor(self) -> Tensor2 {
        self.rows
    }

    /// Allocates the rows for a validated range of `n_slices` slices; a
    /// restarted pass keeps them.
    fn prepare(&mut self, n_rows: u64, n_slices: usize) {
        assert_eq!(
            self.n_rows as u64, n_rows,
            "assembly sized for another range"
        );
        if self.landed.len() != n_slices {
            self.rows = Tensor2::zeros(self.n_rows, self.rows.cols());
            self.landed = vec![0; n_slices];
        }
    }

    /// The destination rows `[row, row + n)`.
    fn dest(&mut self, row: usize, n: usize) -> &mut [f32] {
        let d = self.rows.cols();
        &mut self.rows.as_mut_slice()[row * d..(row + n) * d]
    }

    /// Marks slice `slice_idx` (`n` rows) landed and grows the prefix.
    fn land(&mut self, slice_idx: usize, n: usize) {
        self.landed[slice_idx] = n;
        while let Some(&n) = self.landed.get(self.ready_slices).filter(|&&n| n > 0) {
            self.ready_rows += n;
            self.ready_slices += 1;
        }
    }

    /// Forgets every landed slice (a tombstone restart).
    fn reset(&mut self) {
        self.landed.fill(0);
        self.ready_slices = 0;
        self.ready_rows = 0;
        self.resets += 1;
    }
}

/// Chunked f16 storage for token-row streams, generic over the backend.
///
/// All rows are `d_model` wide (hidden states, keys and values all have the
/// model dimension under MHA). Appends accumulate into 64-token chunks;
/// full chunks are written immediately, the partial tail is buffered until
/// [`StorageManager::flush_stream`] (the two-stage saver's daemon calls the
/// append path, so this buffering is exactly the paper's "chunk buffers").
///
/// Concurrency: see the module docs — readers of distinct (or identical)
/// streams never contend on backend IO or decode, appends serialize only
/// within their own stream, and the aggregate byte accounting is lock-free
/// to read.
pub struct StorageManager<S: ChunkStore> {
    store: Arc<S>,
    d_model: usize,
    /// Thread budget for chunk encode (shared with the two-stage saver's
    /// daemon, which appends through this manager). Reads decode each
    /// chunk on the thread that lands it.
    parallel: hc_tensor::ParallelConfig,
    /// Event-driven IO reactor (None: every chunk is read inline by the
    /// thread pumping the read). When attached, device reads ride its
    /// per-device submission queues — shared by every read of this
    /// manager, so the in-flight IO bound holds across concurrent readers.
    reactor: Option<Arc<Reactor>>,
    /// Outer shard map: stream id → per-stream state cell. Held only to
    /// resolve/insert/remove entries, never across IO or codec work.
    streams: RwLock<HashMap<StreamId, Arc<RwLock<StreamState>>>>,
    /// Sum of every stream ledger's resident bytes, maintained in the same
    /// stream-write critical sections that edit the ledgers.
    total_resident: AtomicU64,
    /// Crash-durability journal (None: metadata is memory-only and a
    /// crash loses the manager's stream state). See the module docs'
    /// recovery protocol.
    journal: Option<Arc<Journal>>,
    /// Transient-fault retry policy (attempts, jittered backoff, budget,
    /// reactor IO deadline) applied by every read path.
    retry: RetryPolicy,
    /// Per-device health registry: every IO outcome (manager reads/writes,
    /// reactor completions, deadline expirations) feeds its sliding
    /// windows and circuit breakers.
    health: Arc<DeviceHealth>,
}

impl<S: ChunkStore> StorageManager<S> {
    /// Creates a manager writing rows of width `d_model` to `store`, stored
    /// as fp16 (the paper's format).
    pub fn new(store: Arc<S>, d_model: usize) -> Self {
        assert!(d_model > 0, "d_model must be positive");
        let health = Arc::new(DeviceHealth::new(store.n_devices().max(1)));
        Self {
            store,
            d_model,
            parallel: hc_tensor::ParallelConfig::serial(),
            reactor: None,
            streams: RwLock::new(HashMap::new()),
            total_resident: AtomicU64::new(0),
            journal: None,
            retry: RetryPolicy::default(),
            health,
        }
    }

    /// Replaces the transient-fault [`RetryPolicy`] (attempts, jittered
    /// backoff, per-read budget, reactor IO deadline).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Shares an external [`DeviceHealth`] registry (e.g. one registry
    /// spanning several managers over the same device array, or a
    /// test-configured breaker). Must cover at least the store's devices.
    pub fn with_device_health(mut self, health: Arc<DeviceHealth>) -> Self {
        assert!(
            health.n_devices() >= self.store.n_devices().max(1),
            "health registry must cover every store device"
        );
        self.health = health;
        self
    }

    /// The per-device health registry (breaker states, error/stall
    /// counters) fed by this manager's IO.
    pub fn device_health(&self) -> &Arc<DeviceHealth> {
        &self.health
    }

    /// Attaches a crash-durability journal: every durable chunk write and
    /// stream delete is logged so [`StorageManager::recover`] (or
    /// [`StorageManager::reopen`] for [`FileStore`] managers) can rebuild
    /// the stream metadata after a crash. The journal must belong to the
    /// same store root as `store`.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached crash-durability journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Sets the thread budget used for chunk encode. The parallel encoder
    /// is bit-identical to the serial one, so this changes wall-clock
    /// only, never stored bytes. Reads decode each chunk (at most 64 rows)
    /// on the thread that lands it, whatever this budget.
    pub fn with_parallel(mut self, parallel: hc_tensor::ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches an event-driven IO [`Reactor`]: read jobs submit their
    /// device-occupying chunks to its per-device queues (iodepth requests
    /// in flight per device) instead of reading them on the pumping
    /// thread, so restore drivers keep thousands of restores in flight
    /// from a fixed worker pool. Output is bit-identical to a reactor-less
    /// manager's at every iodepth. The reactor's device count must match
    /// the store's.
    pub fn with_reactor(mut self, reactor: Arc<Reactor>) -> Self {
        assert_eq!(
            reactor.n_devices(),
            self.store.n_devices().max(1),
            "reactor device count must match the store's device count"
        );
        self.reactor = Some(reactor);
        self
    }

    /// The attached IO reactor, if any.
    pub fn reactor(&self) -> Option<&Arc<Reactor>> {
        self.reactor.as_ref()
    }

    /// Row width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Backend handle (for stats and tests).
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The live state cell for `stream`, if any.
    fn stream_handle(&self, stream: StreamId) -> Option<Arc<RwLock<StreamState>>> {
        self.streams.read().get(&stream).cloned()
    }

    /// Runs `f` under `stream`'s write lock. With `create`, a missing
    /// entry is inserted first (and `None` is never returned); without it,
    /// a missing entry returns `None` untouched.
    ///
    /// A tombstoned cell (concurrent [`StorageManager::delete_stream`]) is
    /// unlinked from the map and the lookup retried, so `f` always runs on
    /// a live state — and, because the tombstone is only observable after
    /// the deleter released the stream write lock, strictly after the
    /// backend wipe finished.
    fn with_stream_mut<R>(
        &self,
        stream: StreamId,
        create: bool,
        mut f: impl FnMut(&mut StreamState) -> R,
    ) -> Option<R> {
        loop {
            let cell = {
                let map = self.streams.read();
                match map.get(&stream) {
                    Some(c) => Arc::clone(c),
                    None => {
                        drop(map);
                        if !create {
                            return None;
                        }
                        Arc::clone(self.streams.write().entry(stream).or_default())
                    }
                }
            };
            let mut state = cell.write();
            if state.deleted {
                // Unlink the dead cell (unless someone already replaced
                // it) and retry through the map. Lock order: the stream
                // guard drops before the map lock is taken.
                drop(state);
                let mut map = self.streams.write();
                if map.get(&stream).is_some_and(|cur| Arc::ptr_eq(cur, &cell)) {
                    map.remove(&stream);
                }
                continue;
            }
            return Some(f(&mut state));
        }
    }

    /// Tokens appended to `stream` so far.
    pub fn n_tokens(&self, stream: StreamId) -> u64 {
        self.stream_handle(stream)
            .map_or(0, |c| c.read().n_tokens(self.d_model))
    }

    /// Appends `rows` — row-major f32 values, `n × d_model` of them (a
    /// [`Tensor2`], a `Vec<f32>` or a plain slice) — to the stream.
    ///
    /// Full chunks are encoded to f16 and written to the backend right away;
    /// the remainder is buffered. Only this stream's write lock is held —
    /// appends to other streams, and all reads, proceed concurrently.
    ///
    /// # Panics
    /// Panics when the payload is not a whole number of `d_model`-wide rows.
    pub fn append_rows<R: AsRef<[f32]> + ?Sized>(
        &self,
        stream: StreamId,
        rows: &R,
    ) -> Result<(), StorageError> {
        let rows = rows.as_ref();
        assert_eq!(rows.len() % self.d_model, 0, "ragged row payload");
        if rows.is_empty() {
            return Ok(());
        }
        self.with_stream_mut(stream, true, |state| {
            state.partial.extend_from_slice(rows);
            self.seal_full_chunks(stream, state)
        })
        // hc-analyze: allow(panic) invariant: with_stream_mut(create=true) always yields a state
        .expect("create=true always yields a state")
    }

    /// Writes every full chunk in `state`'s buffer, oldest first, then
    /// drains the sealed rows once. A failed write stops the seal with its
    /// rows still buffered, for the next append or flush to retry.
    fn seal_full_chunks(
        &self,
        stream: StreamId,
        state: &mut StreamState,
    ) -> Result<(), StorageError> {
        let chunk_elems = CHUNK_TOKENS as usize * self.d_model;
        let first = state.ledger.next_chunk();
        let (mut sealed, mut result) = (0, Ok(()));
        while result.is_ok() && state.partial.len() - sealed >= chunk_elems {
            result = self.write_image(stream, state, sealed..sealed + chunk_elems);
            sealed = (state.ledger.next_chunk() - first) as usize * chunk_elems;
        }
        state.partial.drain(..sealed);
        result
    }

    /// Writes buffer elements `elems` as the stream's next chunk image (the
    /// tail when shorter than a chunk). Only a write that succeeded reaches
    /// the ledger and the resident total; it is then journaled — write,
    /// then log, so a present commit record always names real bytes.
    fn write_image(
        &self,
        stream: StreamId,
        state: &mut StreamState,
        elems: std::ops::Range<usize>,
    ) -> Result<(), StorageError> {
        let key = ChunkKey {
            stream,
            chunk_idx: state.ledger.next_chunk(),
        };
        let rows = (elems.len() / self.d_model) as u32;
        let is_tail = u64::from(rows) < CHUNK_TOKENS;
        let bytes = Precision::F16.encode_par(&state.partial[elems], self.d_model, &self.parallel);
        self.store.write_chunk(key, &bytes)?;
        let image = ChunkImage {
            rows,
            byte_len: bytes.len() as u64,
            crc: (),
        };
        let before = state.ledger.resident_bytes();
        state.ledger.commit(key.chunk_idx, is_tail, image);
        // Wrapping: a shrinking image adds its two's complement.
        let delta = state.ledger.resident_bytes().wrapping_sub(before);
        self.total_resident.fetch_add(delta, Ordering::AcqRel);
        match &self.journal {
            Some(journal) => journal.log_commit(key, rows, is_tail, &bytes),
            None => Ok(()),
        }
    }

    /// Convenience: appends a single token row.
    ///
    /// # Panics
    /// Panics when `row` is not `d_model` wide.
    pub fn append_row(&self, stream: StreamId, row: &[f32]) -> Result<(), StorageError> {
        assert_eq!(row.len(), self.d_model, "row width mismatch");
        self.append_rows(stream, row)
    }

    /// Writes the buffered partial tail chunk (if any) to the backend,
    /// after retrying a seal a failed write left pending. The buffer is
    /// retained so later appends can extend and rewrite the tail.
    pub fn flush_stream(&self, stream: StreamId) -> Result<(), StorageError> {
        self.with_stream_mut(stream, false, |state| {
            self.seal_full_chunks(stream, state)?;
            match state.partial.len() {
                0 => Ok(()),
                n => self.write_image(stream, state, 0..n),
            }
        })
        .unwrap_or(Ok(()))
    }

    /// Flushes every stream of `session`.
    pub fn flush_session(&self, session: u64) -> Result<(), StorageError> {
        for id in self.session_streams(session) {
            self.flush_stream(id)?;
        }
        Ok(())
    }

    /// Ids of every tracked stream of `session`.
    fn session_streams(&self, session: u64) -> Vec<StreamId> {
        let streams = self.streams.read();
        streams
            .keys()
            .filter(|s| s.session == session)
            .copied()
            .collect()
    }

    /// Reads token rows `[start, end)` of `stream` as an f32 tensor
    /// (values carry the f16 round-trip): [`StorageManager::read_rows_into`]
    /// into a fresh [`RowAssembly`], which becomes the tensor.
    pub fn read_rows(
        &self,
        stream: StreamId,
        start: u64,
        end: u64,
    ) -> Result<Tensor2, StorageError> {
        assert!(start <= end, "reversed range {start}..{end}");
        let mut asm = RowAssembly::new((end - start) as usize, self.d_model);
        self.read_rows_into(stream, start, end, &mut asm)?;
        Ok(asm.into_tensor())
    }

    /// Reads token rows `[start, end)` of `stream` into `asm` (sized for
    /// the range) by pumping one [`ReadJob`] on the calling thread, which
    /// sleeps on the job's `notify` between pumps. The job queues device
    /// reads only when the range has two or more device-occupying chunks;
    /// everything else is read inline.
    ///
    /// Concurrency: the stream's state is snapshotted under a brief read
    /// lock (the durable cursor, plus a copy of the partial tail when the
    /// range needs it); **no lock is held across the backend reads or the
    /// chunk decodes**, so any number of concurrent reads — same stream or
    /// different streams — overlap their IO and decode fully. Durable
    /// chunks are immutable once the snapshot's cursor covers them, which
    /// keeps the lock-free phase consistent even while appenders extend
    /// the stream. A concurrent `delete_stream` (possibly followed by a
    /// restarting appender reusing the same chunk keys) resets `asm` and
    /// the read restarts on the successor state, so it never returns
    /// mixed-generation rows. Under an IO deadline, a deadline's worth of
    /// silence expires the stalled pass and the read fails typed-transient
    /// on the lowest outstanding chunk instead of waiting out the device.
    pub fn read_rows_into(
        &self,
        stream: StreamId,
        start: u64,
        end: u64,
        asm: &mut RowAssembly,
    ) -> Result<(), StorageError> {
        let (wake, woken) = mpsc::channel::<()>();
        let notify = Arc::new(move || {
            let _ = wake.send(());
        });
        let job = self.begin(stream, start, end, notify, 2);
        loop {
            match job.pump(self, asm) {
                PumpOutcome::Done => return Ok(()),
                PumpOutcome::Failed(e) => return Err(e),
                PumpOutcome::Pending => match self.retry.io_deadline {
                    Some(deadline) => {
                        if woken.recv_timeout(deadline).is_err() {
                            job.expire_stalled(deadline);
                        }
                    }
                    // The job owns `wake`, so this returns on a notify.
                    None => {
                        let _ = woken.recv();
                    }
                },
            }
        }
    }

    /// Snapshots `stream` for a read of `[start, end)` under a brief read
    /// lock: the cursors, plus a copy of the unsealed rows when the range
    /// reaches past the durable prefix (so their f16 round-trip runs
    /// lock-free). A range past the stream's end is `OutOfRange`; a
    /// tombstoned cell reads as empty — the linearization point is "just
    /// after the delete", like a sequential read-after-delete.
    fn plan_read(&self, stream: StreamId, start: u64, end: u64) -> Result<ReadPlan, StorageError> {
        let cell = self.stream_handle(stream);
        let (available, durable, tail) = match &cell {
            Some(cell) => {
                let state = cell.read();
                let durable = state.ledger.durable_tokens();
                let tail =
                    (end > durable && !state.partial.is_empty()).then(|| state.partial.clone());
                (state.n_tokens(self.d_model), durable, tail)
            }
            None => (0, 0, None),
        };
        if end > available {
            return Err(StorageError::OutOfRange {
                stream,
                available,
                requested: end,
            });
        }
        Ok(ReadPlan {
            stream,
            range_start: start,
            slices: chunks_for_range(start, end),
            durable,
            tail,
            cell,
        })
    }

    /// Validates one durable chunk's backend bytes for `slice`. A chunk
    /// shorter than the snapshot promises (or torn to a non-row length)
    /// means the stream was wiped and restarted under this read — a
    /// retryable error instead of a panic in the decode; the job's
    /// tombstone check decides whether to retry.
    fn check_chunk(
        &self,
        stream: StreamId,
        slice: &ChunkSlice,
        bytes: &[u8],
    ) -> Result<(), StorageError> {
        let per_row = Precision::F16.encoded_len(1, self.d_model);
        if !bytes.len().is_multiple_of(per_row)
            || bytes.len() / per_row < (slice.start_in_chunk + slice.len) as usize
        {
            return Err(StorageError::MissingChunk {
                stream,
                chunk_idx: slice.chunk_idx,
            });
        }
        Ok(())
    }

    /// Lands slice `i` of `plan` in `asm`: decodes exactly the slice's rows
    /// straight into its destination rows — from `bytes`, its chunk's
    /// checked backend image, or (`None`, a slice past the durable cursor)
    /// by round-tripping the snapshotted tail through f16 — then re-checks
    /// the tombstone, and only then marks the slice landed. `false`: the
    /// generation died under the read and the slice stays unmarked (the
    /// caller restarts).
    ///
    /// The decode runs on the pumping thread, whatever the manager's
    /// thread budget: a slice never exceeds one chunk, whose decode costs
    /// less than spawning threads to split it.
    fn land(&self, plan: &ReadPlan, asm: &mut RowAssembly, i: usize, bytes: Option<&[u8]>) -> bool {
        let slice = &plan.slices[i];
        let first = slice.chunk_idx as u64 * CHUNK_TOKENS + slice.start_in_chunk;
        let (n, d) = (slice.len as usize, self.d_model);
        let dst = asm.dest((first - plan.range_start) as usize, n);
        match bytes {
            Some(bytes) => {
                let per_row = Precision::F16.encoded_len(1, d);
                let src = &bytes[slice.start_in_chunk as usize * per_row..][..n * per_row];
                hc_tensor::f16::decode_f16_into(src, dst, &hc_tensor::ParallelConfig::serial());
            }
            None => {
                let partial = plan
                    .tail
                    .as_deref()
                    // hc-analyze: allow(panic) planner invariant: a slice past the durable cursor always snapshots a tail
                    .expect("range past durable implies tail");
                let src = &partial[(first - plan.durable) as usize * d..][..n * d];
                for (x, &y) in dst.iter_mut().zip(src) {
                    *x = hc_tensor::f16::f16_roundtrip(y);
                }
            }
        }
        // Per-slice generation check: a delete (+ possible re-append onto
        // the same chunk keys) that raced this chunk's IO set the
        // tombstone before any successor bytes could exist, so checking
        // here — after the decode, before the slice counts — catches
        // every mix.
        if plan.tombstoned() {
            return false;
        }
        asm.land(i, n);
        true
    }

    /// Begins a **pollable** read of `[start, end)` — the per-read state
    /// machine (`planned → submitted → landed`) restore drivers advance.
    /// The job holds the manager's reactor when it has one and submits
    /// every device-occupying chunk to it; without one, every chunk is
    /// read inline by the thread pumping the job.
    ///
    /// The returned job owns no thread, and of the manager only what its
    /// IO completions touch (store, reactor, health registry, retry
    /// policy). Device IO is submitted (ascending, windowed) on the first
    /// [`ReadJob::pump`]; each completion stages its raw bytes on the job
    /// and fires `notify`. The owner responds to `notify` by calling `pump`
    /// with this manager and its [`RowAssembly`], which lands every staged
    /// chunk, restarts the pass on a mid-read tombstone (resetting the
    /// assembly) — whether a landed chunk or an error observed it — and
    /// resolves errors of a live generation to the lowest slice index once
    /// the window drains.
    ///
    /// Caller contract: `pump` must not run concurrently for one job (the
    /// drivers' run-queue serialization provides this); `notify` must be
    /// cheap and non-blocking (push a token, nothing more).
    ///
    /// # Panics
    /// Panics on a reversed range.
    pub fn begin_read(
        &self,
        stream: StreamId,
        start: u64,
        end: u64,
        notify: Arc<dyn Fn() + Send + Sync>,
    ) -> Arc<ReadJob<S>> {
        self.begin(stream, start, end, notify, 1)
    }

    /// [`StorageManager::begin_read`] for a job whose passes use the device
    /// queues only from `min_queued` device-occupying chunks up.
    fn begin(
        &self,
        stream: StreamId,
        start: u64,
        end: u64,
        notify: Arc<dyn Fn() + Send + Sync>,
        min_queued: usize,
    ) -> Arc<ReadJob<S>> {
        assert!(start <= end, "reversed range {start}..{end}");
        Arc::new(ReadJob {
            store: Arc::clone(&self.store),
            reactor: self.reactor.clone(),
            min_queued,
            health: Arc::clone(&self.health),
            retry: self.retry,
            stream,
            start,
            end,
            notify,
            core: parking_lot::Mutex::new(JobCore {
                pass: None,
                epoch: 0,
                staged: std::collections::VecDeque::new(),
                in_flight: 0,
                in_flight_keys: BTreeMap::new(),
                last_progress: std::time::Instant::now(),
                next_submit: 0,
                halted: false,
                first_err: None,
                landed: 0,
                inline_done: false,
                tail_done: false,
                terminal: None,
            }),
        })
    }

    /// Backend bytes currently held by `stream` (durable chunks including
    /// the flushed tail; rows still sitting in the partial buffer occupy no
    /// backend bytes until a flush).
    pub fn stream_bytes(&self, stream: StreamId) -> u64 {
        self.stream_handle(stream)
            .map_or(0, |c| c.read().ledger.resident_bytes())
    }

    /// State cells of every stream of `session` (map lock released before
    /// any per-stream lock is taken).
    fn session_handles(&self, session: u64) -> Vec<Arc<RwLock<StreamState>>> {
        self.streams
            .read()
            .iter()
            .filter(|(id, _)| id.session == session)
            .map(|(_, c)| Arc::clone(c))
            .collect()
    }

    /// Backend bytes currently held by every stream of `session` — the
    /// figure a quota tracker charges, and exactly what
    /// [`StorageManager::delete_session`] will report as freed.
    pub fn session_bytes(&self, session: u64) -> u64 {
        self.session_handles(session)
            .iter()
            .map(|c| c.read().ledger.resident_bytes())
            .sum()
    }

    /// Devices the durable chunks of `stream` currently occupy, ascending
    /// and deduplicated — chunks resident in a DRAM front tier are
    /// excluded (they restore without touching their device). The
    /// controller's degradation plane uses this to decide which sessions
    /// a sick device actually affects.
    pub fn stream_devices(&self, stream: StreamId) -> Vec<usize> {
        let Some(cell) = self.stream_handle(stream) else {
            return Vec::new();
        };
        let n_images = cell.read().ledger.n_images() as u32;
        let n_dev = self.store.n_devices().max(1);
        let keys = (0..n_images).map(|chunk_idx| ChunkKey { stream, chunk_idx });
        let devices: std::collections::BTreeSet<usize> = keys
            .filter(|&key| !self.store.chunk_in_fast_tier(key))
            .map(|key| device_for(&key, n_dev))
            .collect();
        devices.into_iter().collect()
    }

    /// Backend bytes currently held across all streams. Served from an
    /// atomic — no lock taken, so capacity control planes (hc-cachectl's
    /// `QuotaTracker`) can poll it without stalling stream IO.
    pub fn total_resident_bytes(&self) -> u64 {
        self.total_resident.load(Ordering::Acquire)
    }

    /// Distinct sessions with any tracked stream state, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        self.streams
            .read()
            .keys()
            .map(|s| s.session)
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect()
    }

    /// Deletes one stream (tracked state + backend chunks); returns bytes
    /// freed in the backend. This is the cache controller's demotion
    /// primitive: dropping a layer's hidden/K/V stream while leaving the
    /// session's other streams intact.
    ///
    /// Concurrent appends to the same stream land either entirely before
    /// the wipe (their bytes are counted in both the freed figure and the
    /// backend sweep) or entirely after it (they restart the stream on a
    /// fresh state cell) — never astride it, so the returned figure always
    /// equals what the tracking APIs reported. Concurrent reads of the
    /// deleted stream surface `MissingChunk`/`OutOfRange`, never torn data.
    pub fn delete_stream(&self, stream: StreamId) -> u64 {
        if let Some(cell) = self.stream_handle(stream) {
            let mut state = cell.write();
            if !state.deleted {
                // Tombstone + wipe under the stream write lock: a writer
                // retrying onto a fresh cell cannot touch the backend
                // until the wipe below has finished (it must first observe
                // the tombstone, which requires this lock).
                state.deleted = true;
                let tracked = state.ledger.resident_bytes();
                state.ledger.clear();
                state.partial = Vec::new();
                self.total_resident.fetch_sub(tracked, Ordering::AcqRel);
                // Log, then wipe: a crash between the two leaves orphan
                // chunks of a dead generation (swept at recovery), never a
                // resurrected stream. The append is best-effort — this
                // method reports freed bytes, and a journal IO error must
                // not leave the tombstoned state unwiped.
                if let Some(journal) = &self.journal {
                    let _ = journal.log_delete(stream);
                }
                let freed = self.store.delete_stream(stream);
                debug_assert_eq!(
                    freed, tracked,
                    "resident-byte tracking diverged from the backend for {stream:?}"
                );
                drop(state);
                // Unlink the dead cell unless a retrying writer already
                // replaced it with a live successor.
                let mut map = self.streams.write();
                if map.get(&stream).is_some_and(|cur| Arc::ptr_eq(cur, &cell)) {
                    map.remove(&stream);
                }
                return freed;
            }
            // Already tombstoned by a racing delete: that call owns the
            // backend sweep; this one freed nothing.
            return 0;
        }
        // Never tracked: nothing to free. Every backend write goes through
        // a tracked cell (and tombstoned cells are wiped before their
        // tombstone is observable), so an unconditional backend sweep here
        // would only ever race a concurrent *first* append — deleting its
        // freshly written chunks out from under live accounting. Returning
        // 0 is the sequential delete-before-append linearization.
        0
    }

    /// Deletes all state of `session`; returns bytes freed in the backend.
    /// The count equals the sum the tracking APIs reported
    /// ([`StorageManager::session_bytes`]), so callers can release quota by
    /// exactly this amount.
    pub fn delete_session(&self, session: u64) -> u64 {
        self.session_streams(session)
            .into_iter()
            .map(|id| self.delete_stream(id))
            .sum()
    }

    /// Backend IO statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Rebuilds a journaled manager over `store` from the journal under
    /// `root` — the generic form of [`StorageManager::reopen`] for
    /// wrapped backends (e.g. a [`crate::fault::FaultStore`] around the
    /// reopened [`FileStore`]). `store` must expose the same chunks the
    /// journal describes and stripe over the journaled device count.
    pub fn recover(
        store: Arc<S>,
        root: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let (journal, replay) = Journal::reopen(root.as_ref(), true)?;
        if store.n_devices() != replay.header.n_devices {
            return Err(StorageError::Io(format!(
                "recovery: store stripes over {} devices but the journal was written with {}",
                store.n_devices(),
                replay.header.n_devices
            )));
        }
        Self::recover_replayed(store, Arc::new(journal), replay)
    }

    /// The recovery pass proper: validates the journal's index against
    /// the backend, truncates each stream at its first torn image (and
    /// rewrites the journal if any was), rebuilds the stream states from
    /// the surviving entries and sweeps orphan chunks. See the module docs.
    fn recover_replayed(
        store: Arc<S>,
        journal: Arc<Journal>,
        replay: JournalReplay,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let mgr = Self::new(store, replay.header.d_model).with_journal(Arc::clone(&journal));
        let mut report = RecoveryReport {
            journal_bytes_truncated: replay.truncated,
            ..RecoveryReport::default()
        };
        let mut cuts: Vec<(StreamId, usize)> = Vec::new();
        let mut live: HashSet<ChunkKey> = HashSet::new();
        for (stream, ledger) in journal.index().ledgers() {
            // Rebuild the stream from the consistent prefix of its chunks
            // and then its tail: the first torn or missing image drops
            // itself and everything after it.
            let mut state = StreamState::default();
            let images = ledger.chunks().iter().chain(ledger.tail());
            for (chunk_idx, image) in (0u32..).zip(images) {
                let key = ChunkKey { stream, chunk_idx };
                let Some(bytes) = mgr.recover_validate_chunk(key, image) else {
                    break;
                };
                let is_tail = chunk_idx == ledger.next_chunk();
                if is_tail {
                    let rows = hc_tensor::f16::decode_f16(&bytes);
                    if rows.len() != image.rows as usize * mgr.d_model {
                        break;
                    }
                    state.partial = rows;
                }
                // Re-warm a tiered backend's DRAM front through its normal
                // admission policy — the validated bytes are in hand
                // anyway, so a restart does not begin cold.
                report.front_warmed_bytes += mgr.store.warm_chunk(key, &bytes);
                state.ledger.commit(chunk_idx, is_tail, image.without_crc());
                live.insert(key);
            }
            let kept = state.ledger.n_images();
            report.chunks_recovered += kept;
            report.torn_chunks_discarded += ledger.n_images() - kept;
            if kept < ledger.n_images() {
                cuts.push((stream, state.ledger.chunks().len()));
            }
            if kept > 0 {
                report.resident_bytes += state.ledger.resident_bytes();
                report.streams_recovered += 1;
                mgr.streams
                    .write()
                    .insert(stream, Arc::new(RwLock::new(state)));
            }
        }
        // A commit of a discarded chunk must not outlive it: it would make
        // the stream's next commit at that index fold as out of order.
        if !cuts.is_empty() {
            journal.truncate_streams(&cuts)?;
        }

        // Orphan sweep: chunks the backend holds but no surviving entry
        // names — unjournaled writes the crash outran, wipes the crash
        // interrupted, or truncated suffixes.
        for key in mgr.store.chunk_keys() {
            if !live.contains(&key) {
                mgr.store.delete_chunk(key);
                report.orphan_chunks_removed += 1;
            }
        }
        mgr.total_resident
            .store(report.resident_bytes, Ordering::Release);
        Ok((mgr, report))
    }

    /// Validates one journaled chunk image against the backend: present,
    /// at least the journaled length, and CRC-matching over the journaled
    /// prefix. A longer backend image with a matching prefix (a durable
    /// re-flush that outran its journal record) is trimmed back to the
    /// journaled bytes so the resident accounting stays exact. `None`
    /// means torn/missing — the caller truncates the stream here.
    fn recover_validate_chunk(&self, key: ChunkKey, image: &ChunkImage<u32>) -> Option<Vec<u8>> {
        let mut bytes =
            read_chunk_retrying(self.store.as_ref(), key, &self.retry, &self.health).ok()?;
        let want = image.byte_len as usize;
        if bytes.len() < want || crc32(&bytes[..want]) != image.crc {
            return None;
        }
        if bytes.len() > want {
            bytes.truncate(want);
            self.store.write_chunk(key, &bytes).ok()?;
        }
        Some(bytes)
    }
}

impl StorageManager<FileStore> {
    /// Creates a crash-durable manager: a fresh [`FileStore`] under
    /// `root` (fsyncing writes) plus a fresh journal, so
    /// [`StorageManager::reopen`] can rebuild the manager after a crash.
    pub fn create_durable(
        root: impl Into<std::path::PathBuf>,
        n_devices: usize,
        d_model: usize,
        precision: Precision,
    ) -> Result<Self, StorageError> {
        let root = root.into();
        let store = Arc::new(FileStore::new(&root, n_devices)?);
        let journal = Arc::new(Journal::create(
            &root,
            JournalHeader {
                d_model,
                n_devices,
                precision,
            },
            true,
        )?);
        Ok(Self::new(store, d_model).with_journal(journal))
    }

    /// Reopens a crash-durable store root: replays the journal (itself
    /// truncated past any torn tail), rescans the chunk files, and
    /// rebuilds every stream's durable cursor, partial tail and exact
    /// resident-byte accounting — the kill-and-reopen path. The report
    /// says what was recovered and what the crash tore.
    pub fn reopen(root: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StorageError> {
        let (journal, replay) = Journal::reopen(root.as_ref(), true)?;
        let store = Arc::new(FileStore::open(root.as_ref(), replay.header.n_devices)?);
        Self::recover_replayed(store, Arc::new(journal), replay)
    }
}

/// Progress of one read job after a [`ReadJob::pump`] pass.
#[derive(Debug)]
pub enum PumpOutcome {
    /// IO is still in flight; another `notify` → `pump` round will follow.
    Pending,
    /// Every slice landed; the job is finished. Terminal and sticky —
    /// later pumps return `Done` again.
    Done,
    /// The read failed after its in-flight window drained; the error is
    /// the lowest-slice-index one, exactly what reading the chunks in
    /// range order would have surfaced first. Terminal and sticky.
    Failed(StorageError),
}

/// One attempt at the range as a job reads it: the snapshot plan
/// partitioned into device-queued chunks and chunks read inline.
/// Pass-immutable, so pump passes decode with no job lock held.
struct JobPass {
    plan: ReadPlan,
    /// `(slice_idx, key, device)` of the chunks that ride the device
    /// queues, in ascending slice order — the order submissions enter the
    /// queues, which makes error resolution deterministic: any chunk not
    /// yet submitted has a higher slice index than every submitted one.
    device_chunks: Vec<(usize, ChunkKey, usize)>,
    /// `(slice_idx, key)` of every other durable chunk, ascending, read
    /// inline on the first pump while the device IO is in flight.
    inline: Vec<(usize, ChunkKey)>,
    /// Max chunk reads in flight at once: `iodepth × occupied devices`,
    /// capped at the chunk count — also the completion-staging bound.
    window: usize,
}

impl JobPass {
    /// Partitions `plan`'s durable slices: device-occupying chunks go to
    /// `reactor`'s queues when there are at least `min_queued` of them;
    /// front hits, and everything when there is no reactor, are inline.
    fn new<S: ChunkStore>(
        store: &S,
        plan: ReadPlan,
        reactor: Option<&Reactor>,
        min_queued: usize,
    ) -> Self {
        let n_dev = store.n_devices().max(1);
        let mut device_chunks = Vec::new();
        let mut inline = Vec::new();
        for (i, slice) in plan.slices.iter().enumerate() {
            if !plan.is_durable(slice) {
                continue;
            }
            let key = ChunkKey {
                stream: plan.stream,
                chunk_idx: slice.chunk_idx,
            };
            if reactor.is_some() && !store.chunk_in_fast_tier(key) {
                device_chunks.push((i, key, device_for(&key, n_dev)));
            } else {
                inline.push((i, key));
            }
        }
        if device_chunks.len() < min_queued {
            inline.extend(device_chunks.drain(..).map(|(i, key, _)| (i, key)));
            inline.sort_unstable_by_key(|&(i, _)| i);
        }
        let occupied: HashSet<usize> = device_chunks.iter().map(|&(_, _, d)| d).collect();
        let iodepth = reactor.map_or(1, Reactor::iodepth);
        let window = (iodepth * occupied.len().max(1))
            .min(device_chunks.len())
            .max(1);
        Self {
            plan,
            device_chunks,
            inline,
            window,
        }
    }
}

/// Mutable state of one read job, guarded by the job mutex. The lock is
/// held for staging/bookkeeping only — never across backend IO or decode.
struct JobCore {
    /// Current pass; `None` before the first pump and between a tombstone
    /// restart and the next pump.
    pass: Option<Arc<JobPass>>,
    /// Fences off completions of abandoned passes: submissions carry the
    /// epoch they were issued under, and stale completions are dropped.
    epoch: u64,
    /// Raw completions awaiting decode, in completion order.
    staged: std::collections::VecDeque<(usize, Result<Vec<u8>, StorageError>)>,
    in_flight: usize,
    /// Outstanding submissions by slice index, for stall attribution:
    /// [`ReadJob::expire_stalled`] blames the lowest one.
    in_flight_keys: BTreeMap<usize, (ChunkKey, usize)>,
    /// Last time this pass made observable progress (a submission or a
    /// completion) — the reference point IO deadlines measure from.
    last_progress: std::time::Instant,
    /// Next index into `pass.device_chunks` to submit.
    next_submit: usize,
    /// An error was observed; stop topping up the window and let the
    /// in-flight chunks drain so the lowest-index error wins.
    halted: bool,
    first_err: Option<(usize, StorageError)>,
    /// Device chunks landed this pass.
    landed: usize,
    inline_done: bool,
    tail_done: bool,
    /// Sticky final result; set exactly once.
    terminal: Option<Result<(), StorageError>>,
}

impl JobCore {
    /// Abandons the running pass (the epoch bump fences off its in-flight
    /// completions) and starts `pass` — `None` to plan a fresh one on the
    /// next pump.
    fn fence(&mut self, pass: Option<Arc<JobPass>>) {
        self.epoch += 1;
        self.pass = pass;
        self.staged.clear();
        self.in_flight = 0;
        self.in_flight_keys.clear();
        self.last_progress = std::time::Instant::now();
        self.next_submit = 0;
        self.halted = false;
        self.first_err = None;
        self.landed = 0;
        self.inline_done = false;
        self.tail_done = false;
    }
}

/// The per-read state machine behind every read: each chunk advances
/// `planned` (in its pass, not yet read) → `submitted` (in its device
/// queue / in flight; inline chunks skip this) → `landed` (validated and
/// decoded into its destination rows on a pump pass). Created by
/// [`StorageManager::begin_read`]; see there for the ownership contract.
pub struct ReadJob<S: ChunkStore> {
    store: Arc<S>,
    reactor: Option<Arc<Reactor>>,
    /// Fewest device-occupying chunks a pass sends to the device queues;
    /// a pass with fewer reads them inline.
    min_queued: usize,
    health: Arc<DeviceHealth>,
    retry: RetryPolicy,
    stream: StreamId,
    start: u64,
    end: u64,
    /// Fired (outside the job lock) whenever completions are staged; the
    /// owner responds by scheduling a pump.
    notify: Arc<dyn Fn() + Send + Sync>,
    core: parking_lot::Mutex<JobCore>,
}

/// What one pump iteration decided to do, resolved under the job lock
/// and executed (planning, IO, decode, landing) after releasing it.
enum PumpStep {
    /// No pass yet (first pump, or after a tombstone restart): snapshot
    /// the stream and submit a fresh pass.
    Plan,
    Done,
    Failed(StorageError),
    Pending,
    /// The halted pass drained with this lowest-index error; revalidate
    /// its generation before surfacing it.
    Halted {
        pass: Arc<JobPass>,
        err: StorageError,
    },
    /// Land this batch of completions (and the inline chunks first, when
    /// `inline_todo`).
    Batch {
        pass: Arc<JobPass>,
        batch: Vec<(usize, Result<Vec<u8>, StorageError>)>,
        inline_todo: bool,
        /// An earlier pump already recorded an error: drain without
        /// landing, so the lowest-index error wins.
        prior_failed: bool,
    },
    /// All durable chunks landed; land the slices past the durable cursor.
    Tail(Arc<JobPass>),
}

impl<S: ChunkStore> ReadJob<S> {
    /// The stream this job reads.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The half-open token range this job reads.
    pub fn range(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// Makes `pass` the current pass and submits its initial window.
    /// Caller holds the core lock.
    fn install(self: &Arc<Self>, core: &mut JobCore, pass: JobPass) {
        let pass = Arc::new(pass);
        core.fence(Some(Arc::clone(&pass)));
        while core.in_flight < pass.window && core.next_submit < pass.device_chunks.len() {
            self.submit_one(core, &pass);
        }
    }

    /// Submits the next planned chunk to its device queue (a channel
    /// send — never blocks). Caller holds the core lock.
    fn submit_one(self: &Arc<Self>, core: &mut JobCore, pass: &Arc<JobPass>) {
        let (i, key, device) = pass.device_chunks[core.next_submit];
        core.next_submit += 1;
        core.in_flight += 1;
        core.in_flight_keys.insert(i, (key, device));
        core.last_progress = std::time::Instant::now();
        let epoch = core.epoch;
        let job = Arc::clone(self);
        let reactor = self
            .reactor
            .as_ref()
            // hc-analyze: allow(panic) invariant: only a job holding a reactor plans device chunks
            .expect("device chunks imply a reactor");
        reactor.submit_io(device, move || {
            let res = read_chunk_contained(job.store.as_ref(), key, &job.retry, &job.health);
            job.complete_io(epoch, i, res);
        });
    }

    /// IO-thread side of a completion: stage the raw bytes, top the
    /// window back up, fire `notify`. Stale-epoch completions (from a
    /// pass abandoned by a tombstone restart) are dropped.
    fn complete_io(
        self: &Arc<Self>,
        epoch: u64,
        slice_idx: usize,
        res: Result<Vec<u8>, StorageError>,
    ) {
        {
            let mut core = self.core.lock();
            if core.epoch != epoch || core.terminal.is_some() {
                return;
            }
            core.in_flight -= 1;
            core.in_flight_keys.remove(&slice_idx);
            core.last_progress = std::time::Instant::now();
            if res.is_err() {
                core.halted = true;
            }
            core.staged.push_back((slice_idx, res));
            if !core.halted {
                if let Some(pass) = core.pass.clone() {
                    if core.next_submit < pass.device_chunks.len() {
                        self.submit_one(&mut core, &pass);
                    }
                }
            }
        }
        (self.notify)();
    }

    /// Times out a stalled pass: when IO has been in flight with no
    /// completion for at least `deadline`, the lowest outstanding chunk
    /// is blamed with a typed transient [`StorageError::DeviceFailed`]
    /// (counted as a stall against its lane's breaker), the epoch bump
    /// fences off the pass's late completions, and the next
    /// [`ReadJob::pump`] resolves to `Failed` — the driver's
    /// degradation path, not a wedged lane — unless the pass's stream was
    /// deleted meanwhile, in which case the pump restarts on the
    /// successor like any other dead-generation error. Returns whether the job
    /// expired (callers pump expired jobs). No-op on jobs that are
    /// terminal, between passes, idle, or still making progress.
    pub fn expire_stalled(&self, deadline: Duration) -> bool {
        let mut core = self.core.lock();
        if core.terminal.is_some()
            || core.pass.is_none()
            || core.in_flight == 0
            || core.last_progress.elapsed() < deadline
        {
            return false;
        }
        let (&i, &(key, device)) = core
            .in_flight_keys
            .iter()
            .next()
            // hc-analyze: allow(panic) invariant: in_flight > 0 implies an outstanding entry
            .expect("in-flight read with no outstanding entry");
        let in_flight = core.in_flight;
        // Fence: late completions of this pass carry the old epoch and are
        // dropped, so zeroing the window here cannot underflow.
        core.epoch += 1;
        core.staged.clear();
        core.in_flight = 0;
        core.in_flight_keys.clear();
        core.halted = true;
        if core.first_err.as_ref().is_none_or(|(j, _)| i < *j) {
            core.first_err = Some((
                i,
                StorageError::DeviceFailed {
                    key,
                    device,
                    transient: true,
                    msg: format!(
                        "io deadline {deadline:?} exceeded with {in_flight} reads in flight"
                    ),
                },
            ));
        }
        drop(core);
        self.health.record_stall(device);
        true
    }

    /// Abandons the current pass after a tombstone observation: the
    /// assembly forgets everything landed, and the next pump plans a
    /// fresh pass against the successor state.
    fn restart(&self, asm: &mut RowAssembly) {
        self.core.lock().fence(None);
        asm.reset();
    }

    /// Advances the state machine: lands every staged completion (and, on
    /// a pass's first pump, every inline chunk) in `asm`, handling
    /// tombstone restarts and deterministic error resolution. `mgr` is the
    /// manager that began the job; `asm` is sized for the job's range and
    /// allocated once the range validates.
    ///
    /// Must not run concurrently for one job (see
    /// [`StorageManager::begin_read`]); IO threads staging new
    /// completions during a pump are fine — they fire another `notify`.
    pub fn pump(self: &Arc<Self>, mgr: &StorageManager<S>, asm: &mut RowAssembly) -> PumpOutcome {
        loop {
            let step = {
                let mut core = self.core.lock();
                match (&core.terminal, core.pass.clone()) {
                    (Some(Ok(())), _) => PumpStep::Done,
                    (Some(Err(e)), _) => PumpStep::Failed(e.clone()),
                    (None, None) => PumpStep::Plan,
                    (None, Some(pass)) => {
                        if !core.staged.is_empty() || !core.inline_done {
                            let batch: Vec<_> = core.staged.drain(..).collect();
                            let inline_todo = !core.inline_done;
                            core.inline_done = true;
                            PumpStep::Batch {
                                pass,
                                batch,
                                inline_todo,
                                prior_failed: core.first_err.is_some(),
                            }
                        } else if core.in_flight > 0
                            || (!core.halted && core.landed < pass.device_chunks.len())
                        {
                            PumpStep::Pending
                        } else if core.halted {
                            // hc-analyze: allow(panic) invariant: a drained halted pass has recorded its error
                            let (_, err) = core.first_err.clone().expect("halted implies an error");
                            PumpStep::Halted { pass, err }
                        } else {
                            let has_tail = pass
                                .plan
                                .slices
                                .last()
                                .is_some_and(|s| !pass.plan.is_durable(s));
                            if core.tail_done || !has_tail {
                                core.terminal = Some(Ok(()));
                                PumpStep::Done
                            } else {
                                core.tail_done = true;
                                PumpStep::Tail(pass)
                            }
                        }
                    }
                }
            };

            match step {
                PumpStep::Plan => match mgr.plan_read(self.stream, self.start, self.end) {
                    Ok(plan) => {
                        asm.prepare(self.end - self.start, plan.slices.len());
                        let reactor = self.reactor.as_deref();
                        let pass =
                            JobPass::new(self.store.as_ref(), plan, reactor, self.min_queued);
                        self.install(&mut self.core.lock(), pass);
                    }
                    Err(e) => {
                        self.core.lock().terminal = Some(Err(e.clone()));
                        return PumpOutcome::Failed(e);
                    }
                },
                PumpStep::Done => return PumpOutcome::Done,
                PumpStep::Failed(e) => return PumpOutcome::Failed(e),
                PumpStep::Pending => return PumpOutcome::Pending,
                PumpStep::Halted { pass, err } => {
                    // An error from a tombstoned snapshot (a chunk the
                    // delete already wiped, or the deadline
                    // `expire_stalled` planted on the dead generation)
                    // restarts on the successor instead of failing.
                    // Checked outside the job lock: the window is drained
                    // and the pass halted, so no completion can race this
                    // decision.
                    if pass.plan.tombstoned() {
                        self.restart(asm);
                        continue;
                    }
                    self.core.lock().terminal = Some(Err(err.clone()));
                    return PumpOutcome::Failed(err);
                }
                PumpStep::Tail(pass) => {
                    let plan = &pass.plan;
                    let live = (0..plan.slices.len())
                        .filter(|&i| !plan.is_durable(&plan.slices[i]))
                        .all(|i| mgr.land(plan, asm, i, None));
                    if !live {
                        self.restart(asm);
                    }
                }
                PumpStep::Batch {
                    pass,
                    batch,
                    inline_todo,
                    prior_failed,
                } => {
                    let plan = &pass.plan;
                    let read = |i: usize, res: Result<Vec<u8>, StorageError>| {
                        res.and_then(|bytes| {
                            mgr.check_chunk(self.stream, &plan.slices[i], &bytes)?;
                            Ok(bytes)
                        })
                    };
                    let mut errs: Vec<(usize, StorageError)> = Vec::new();
                    let mut landed = 0usize;
                    let mut live = true;
                    if inline_todo && !prior_failed {
                        for &(i, key) in &pass.inline {
                            let res = read_chunk_contained(
                                self.store.as_ref(),
                                key,
                                &self.retry,
                                &self.health,
                            );
                            match read(i, res) {
                                Ok(bytes) => live = mgr.land(plan, asm, i, Some(&bytes)),
                                // Lowest-index determinism: later inline
                                // chunks cannot have a lower index.
                                Err(e) => errs.push((i, e)),
                            }
                            if !live || !errs.is_empty() {
                                break;
                            }
                        }
                    }
                    for (i, res) in batch {
                        if !live {
                            break;
                        }
                        match read(i, res) {
                            Ok(bytes) if !prior_failed && errs.is_empty() => {
                                live = mgr.land(plan, asm, i, Some(&bytes));
                                landed += usize::from(live);
                            }
                            Ok(_) => {}
                            Err(e) => errs.push((i, e)),
                        }
                    }
                    {
                        let mut core = self.core.lock();
                        core.landed += landed;
                        for (i, e) in errs {
                            core.halted = true;
                            if core.first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                                core.first_err = Some((i, e));
                            }
                        }
                    }
                    if !live {
                        self.restart(asm);
                    }
                }
            }
        }
    }
}

/// What [`StorageManager::reopen`] / [`StorageManager::recover`]
/// rebuilt — and what the crash cost.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Streams rebuilt with at least one surviving chunk.
    pub streams_recovered: usize,
    /// Chunks validated (present + CRC-intact) and re-tracked.
    pub chunks_recovered: usize,
    /// Journaled chunks dropped because the backend image was missing,
    /// short or CRC-mismatching (each drops its stream's suffix too).
    pub torn_chunks_discarded: usize,
    /// Backend chunks no surviving journal record names, deleted by the
    /// sweep.
    pub orphan_chunks_removed: usize,
    /// Torn journal-tail bytes truncated at replay.
    pub journal_bytes_truncated: u64,
    /// Total resident bytes after recovery (equals the rebuilt
    /// [`StorageManager::total_resident_bytes`]).
    pub resident_bytes: u64,
    /// Bytes the backend's DRAM front tier re-admitted while validating
    /// recovered chunks ([`ChunkStore::warm_chunk`]); 0 for untiered
    /// backends. A reopened tiered store starts warm, not cold.
    pub front_warmed_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use crate::fault::{FaultStore, FaultTarget};
    use hc_tensor::f16::f16_roundtrip;

    const D: usize = 8;

    fn mgr() -> StorageManager<MemStore> {
        StorageManager::new(Arc::new(MemStore::new(4)), D)
    }

    fn rows(n: usize, seed: usize) -> Tensor2 {
        Tensor2::from_fn(n, D, |r, c| ((seed + r * D + c) % 97) as f32 * 0.25 - 12.0)
    }

    /// Rows `[a, b)` of `t` as a read returns them: their f16 round trip.
    fn roundtrip(t: &Tensor2, a: u64, b: u64) -> Tensor2 {
        Tensor2::from_fn((b - a) as usize, t.cols(), |r, c| {
            f16_roundtrip(t.get(a as usize + r, c))
        })
    }

    #[test]
    fn roundtrip_small_within_one_chunk() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        let t = rows(10, 0);
        m.append_rows(s, &t).unwrap();
        let back = m.read_rows(s, 0, 10).unwrap();
        for r in 0..10 {
            for c in 0..D {
                assert_eq!(back.get(r, c), f16_roundtrip(t.get(r, c)));
            }
        }
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        let m = mgr();
        let s = StreamId::hidden(2, 3);
        let t = rows(200, 5);
        m.append_rows(s, &t).unwrap();
        let back = m.read_rows(s, 50, 150).unwrap();
        assert_eq!(back.shape(), (100, D));
        for r in 0..100 {
            assert_eq!(back.get(r, 0), f16_roundtrip(t.get(50 + r, 0)));
        }
    }

    #[test]
    fn incremental_appends_match_bulk() {
        let m1 = mgr();
        let m2 = mgr();
        let s = StreamId::hidden(1, 1);
        let t = rows(130, 9);
        m1.append_rows(s, &t).unwrap();
        for r in 0..130 {
            m2.append_row(s, t.row(r)).unwrap();
        }
        let a = m1.read_rows(s, 0, 130).unwrap();
        let b = m2.read_rows(s, 0, 130).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn full_chunks_are_written_eagerly() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64, 0)).unwrap();
        assert_eq!(m.stats().total_writes(), 1, "full chunk must flush eagerly");
        m.append_rows(s, &rows(63, 1)).unwrap();
        assert_eq!(
            m.stats().total_writes(),
            1,
            "partial chunk must stay buffered"
        );
        m.append_rows(s, &rows(1, 2)).unwrap();
        assert_eq!(m.stats().total_writes(), 2, "chunk completes at 128 tokens");
    }

    #[test]
    fn reads_served_from_unflushed_tail() {
        let m = mgr();
        let s = StreamId::hidden(1, 2);
        let t = rows(70, 3);
        m.append_rows(s, &t).unwrap();
        // Tokens 64..70 are only in the buffer.
        let back = m.read_rows(s, 60, 70).unwrap();
        assert_eq!(back.get(9, 1), f16_roundtrip(t.get(69, 1)));
    }

    #[test]
    fn flush_then_extend_tail_chunk() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(70, 1)).unwrap();
        m.flush_stream(s).unwrap();
        m.append_rows(s, &rows(10, 2)).unwrap();
        m.flush_stream(s).unwrap();
        let back = m.read_rows(s, 0, 80).unwrap();
        assert_eq!(back.rows(), 80);
        // Tail rows come from the second batch.
        assert_eq!(back.get(75, 0), f16_roundtrip(rows(10, 2).get(5, 0)));
    }

    #[test]
    fn out_of_range_read_is_an_error() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(5, 0)).unwrap();
        let err = m.read_rows(s, 0, 6).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfRange {
                available: 5,
                requested: 6,
                ..
            }
        ));
    }

    #[test]
    fn absurd_range_is_out_of_range_not_an_allocation_panic() {
        // The output tensor must not be allocated before the range is
        // validated: a stale "read everything" end (u64::MAX) returns the
        // typed error instead of aborting on a capacity-overflow alloc.
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(10, 0)).unwrap();
        let err = m.read_rows(s, 0, u64::MAX).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfRange { available: 10, .. }
        ));
    }

    #[test]
    fn empty_read_is_ok() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        let t = m.read_rows(s, 0, 0).unwrap();
        assert_eq!(t.rows(), 0);
    }

    #[test]
    fn streams_are_independent() {
        let m = mgr();
        let a = StreamId::hidden(1, 0);
        let b = StreamId::key(1, 0);
        m.append_rows(a, &rows(10, 1)).unwrap();
        m.append_rows(b, &rows(20, 2)).unwrap();
        assert_eq!(m.n_tokens(a), 10);
        assert_eq!(m.n_tokens(b), 20);
    }

    #[test]
    fn delete_session_frees_all_streams() {
        let m = mgr();
        m.append_rows(StreamId::hidden(7, 0), &rows(64, 0)).unwrap();
        m.append_rows(StreamId::key(7, 1), &rows(64, 1)).unwrap();
        m.append_rows(StreamId::hidden(8, 0), &rows(64, 2)).unwrap();
        let freed = m.delete_session(7);
        assert_eq!(freed, 2 * 64 * D as u64 * 2); // 2 chunks, f16
        assert_eq!(m.n_tokens(StreamId::hidden(7, 0)), 0);
        assert_eq!(m.n_tokens(StreamId::hidden(8, 0)), 64);
    }

    #[test]
    fn failed_seal_keeps_rows_and_the_next_append_retries() {
        use crate::reactor::Reactor;
        let s = StreamId::hidden(1, 0);
        let all = rows(262, 5);
        let part = |a: usize, b: usize| Tensor2::from_fn(b - a, D, |r, c| all.get(a + r, c));
        let expect = |n: usize| Tensor2::from_fn(n, D, |r, c| f16_roundtrip(all.get(r, c)));
        // Without a reactor the failed seal is the stream's first chunk;
        // with one, it follows two sealed chunks the reactor reads, so the
        // read job lands two slices past the durable cursor.
        for (sealed, reactor) in [(0, None), (128, Some(Reactor::new(4, 2)))] {
            let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
            let mut m = StorageManager::new(Arc::clone(&store), D);
            if let Some(reactor) = reactor {
                m = m.with_reactor(reactor);
            }
            m.append_rows(s, &part(0, sealed + 10)).unwrap();
            store.fail_writes(FaultTarget::Stream(s), 1, false);
            let n = sealed + 70;
            assert!(matches!(
                m.append_rows(s, &part(sealed + 10, n)),
                Err(StorageError::DeviceFailed { .. })
            ));
            assert_eq!(m.n_tokens(s), n as u64);
            assert_eq!(
                m.stream_bytes(s),
                (sealed * D * 2) as u64,
                "the failed seal holds no bytes"
            );
            assert_eq!(m.read_rows(s, 0, n as u64).unwrap(), expect(n));
            // The next append retries the seal, then seals its own chunk.
            m.append_rows(s, &part(n, n + 64)).unwrap();
            assert_eq!(m.read_rows(s, 0, n as u64 + 64).unwrap(), expect(n + 64));
            let tracked = m.stream_bytes(s);
            assert_eq!(tracked, ((sealed + 128) * D * 2) as u64);
            assert_eq!(m.delete_stream(s), tracked);
            assert_eq!(m.total_resident_bytes(), 0);
        }
    }

    #[test]
    fn resident_bytes_track_backend_exactly_under_tail_rewrites() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        // Nothing durable yet: 70 rows = 1 full chunk + 6 buffered.
        m.append_rows(s, &rows(70, 1)).unwrap();
        assert_eq!(m.stream_bytes(s), 64 * D as u64 * 2);
        // Flushing the 6-row tail adds exactly its encoded bytes.
        m.flush_stream(s).unwrap();
        assert_eq!(m.stream_bytes(s), 70 * D as u64 * 2);
        // Re-flushing a grown tail replaces, not adds.
        m.append_rows(s, &rows(10, 2)).unwrap();
        m.flush_stream(s).unwrap();
        assert_eq!(m.stream_bytes(s), 80 * D as u64 * 2);
        // Completing the chunk absorbs the flushed tail in place.
        m.append_rows(s, &rows(48, 3)).unwrap();
        assert_eq!(m.stream_bytes(s), 128 * D as u64 * 2);
        // Total traffic exceeds residency (rewrites counted every time)...
        assert!(m.stats().total_bytes_written() > m.stream_bytes(s));
        // ...but delete frees exactly the resident figure.
        assert_eq!(m.delete_stream(s), 128 * D as u64 * 2);
        assert_eq!(m.stream_bytes(s), 0);
    }

    #[test]
    fn session_bytes_sum_streams_and_match_delete_freed() {
        let m = mgr();
        m.append_rows(StreamId::hidden(7, 0), &rows(80, 0)).unwrap();
        m.append_rows(StreamId::key(7, 1), &rows(70, 1)).unwrap();
        m.append_rows(StreamId::value(7, 1), &rows(70, 2)).unwrap();
        m.append_rows(StreamId::hidden(8, 0), &rows(64, 3)).unwrap();
        m.flush_session(7).unwrap();
        let tracked = m.session_bytes(7);
        assert_eq!(tracked, (80 + 70 + 70) * D as u64 * 2);
        assert_eq!(m.total_resident_bytes(), tracked + 64 * D as u64 * 2);
        assert_eq!(m.sessions(), vec![7, 8]);
        let freed = m.delete_session(7);
        assert_eq!(freed, tracked, "freed bytes must equal the tracked figure");
        assert_eq!(m.session_bytes(7), 0);
        assert_eq!(m.sessions(), vec![8]);
    }

    #[test]
    fn unflushed_tails_occupy_no_backend_bytes() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(10, 0)).unwrap();
        assert_eq!(m.stream_bytes(s), 0, "buffered rows are not resident");
        assert_eq!(m.delete_session(1), 0);
    }

    #[test]
    fn chunks_spread_across_devices() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64 * 8, 0)).unwrap();
        let stats = m.stats();
        for (i, d) in stats.devices.iter().enumerate() {
            assert_eq!(d.writes, 2, "device {i} should hold 2 of 8 chunks");
        }
    }

    #[test]
    fn append_after_delete_restarts_the_stream() {
        // Sequential delete-then-append semantics, which the tombstone
        // protocol also guarantees under concurrency.
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(70, 1)).unwrap();
        m.flush_stream(s).unwrap();
        assert_eq!(m.delete_stream(s), 70 * D as u64 * 2);
        m.append_rows(s, &rows(10, 2)).unwrap();
        assert_eq!(m.n_tokens(s), 10);
        let back = m.read_rows(s, 0, 10).unwrap();
        assert_eq!(back.get(0, 0), f16_roundtrip(rows(10, 2).get(0, 0)));
        m.flush_stream(s).unwrap();
        assert_eq!(m.stream_bytes(s), 10 * D as u64 * 2);
        assert_eq!(m.total_resident_bytes(), 10 * D as u64 * 2);
    }

    #[test]
    fn delete_of_untracked_stream_is_a_noop() {
        let m = mgr();
        assert_eq!(m.delete_stream(StreamId::hidden(5, 0)), 0);
        // A first append racing such a delete must never lose its chunks:
        // sequentially, delete-before-append leaves the append intact.
        m.append_rows(StreamId::hidden(5, 0), &rows(64, 0)).unwrap();
        assert_eq!(m.n_tokens(StreamId::hidden(5, 0)), 64);
        assert_eq!(m.delete_stream(StreamId::hidden(5, 0)), 64 * D as u64 * 2);
    }

    #[test]
    fn double_delete_frees_once() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64, 0)).unwrap();
        assert_eq!(m.delete_stream(s), 64 * D as u64 * 2);
        assert_eq!(m.delete_stream(s), 0);
        assert_eq!(m.total_resident_bytes(), 0);
    }

    #[test]
    fn total_resident_bytes_is_consistent_under_concurrent_mutation() {
        // Appenders + a deleter hammer distinct streams; afterwards the
        // atomic aggregate equals the per-stream sum (and the backend).
        let m = Arc::new(mgr());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    let s = StreamId::hidden(t, 0);
                    for i in 0..20 {
                        m.append_rows(s, &rows(16, i)).unwrap();
                        m.flush_stream(s).unwrap();
                        if i % 7 == 6 {
                            m.delete_stream(s);
                        }
                    }
                });
            }
        });
        let per_stream_sum: u64 = m.sessions().iter().map(|&sess| m.session_bytes(sess)).sum();
        assert_eq!(m.total_resident_bytes(), per_stream_sum);
        let freed: u64 = m
            .sessions()
            .iter()
            .map(|&sess| m.delete_session(sess))
            .sum();
        assert_eq!(freed, per_stream_sum);
        assert_eq!(m.total_resident_bytes(), 0);
    }

    #[test]
    fn read_racing_delete_and_restart_never_mixes_generations() {
        // Generation-ABA regression: the stream is deleted and rewritten
        // (same chunk keys, different rows) while a reader is mid-IO —
        // legal, because read_rows holds no lock there. A FaultStore read
        // hook interleaves the delete/restart deterministically. The
        // reader must return the *new* generation wholesale, never a mix.
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let mgr = Arc::new(StorageManager::new(Arc::clone(&store), D));
        let s = StreamId::hidden(1, 0);
        mgr.append_rows(s, &rows(128, 1)).unwrap(); // generation 1: 2 chunks
        let mgr2 = Arc::clone(&mgr);
        store.on_nth_read(0, move || {
            // Fires inside the reader's first chunk fetch.
            mgr2.delete_stream(s);
            mgr2.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        });
        let got = mgr.read_rows(s, 0, 128).unwrap();
        let gen2 = rows(128, 2);
        for r in 0..128 {
            for c in 0..D {
                assert_eq!(
                    got.get(r, c),
                    f16_roundtrip(gen2.get(r, c)),
                    "row {r} col {c} leaked generation-1 data"
                );
            }
        }
        // Accounting survived the interleaving too.
        assert_eq!(mgr.total_resident_bytes(), 128 * D as u64 * 2);
        assert_eq!(mgr.delete_stream(s), 128 * D as u64 * 2);
    }

    #[test]
    fn streaming_reads_match_read_rows_at_every_width() {
        // Every range shape (aligned, interior, tail-touching,
        // single-chunk) read by a pumped job with no reactor (width 0) and
        // over reactors of iodepth 1/2/4/8 must land every row exactly
        // once — the ready prefix covers the range — and equal both
        // read_rows and the f16 round trip of the appended rows.
        let s = StreamId::hidden(3, 1);
        let t = rows(300, 7); // 4 full chunks + 44-row unflushed tail
        let ranges = [
            (0u64, 300u64),
            (0, 256),
            (70, 200),
            (64, 128),
            (5, 20),
            (250, 300),
        ];
        for width in [0usize, 1, 2, 4, 8] {
            let mut m = StorageManager::new(Arc::new(MemStore::new(4)), D);
            if width > 0 {
                m = m.with_reactor(Reactor::new(4, width));
            }
            let m = Arc::new(m);
            m.append_rows(s, &t).unwrap();
            for &(a, b) in &ranges {
                let (job, woken) = begin_job(&m, s, a, b);
                let mut asm = RowAssembly::new((b - a) as usize, D);
                drive_job(&m, &job, &woken, &mut asm).unwrap();
                assert_eq!(asm.resets(), 0);
                assert_eq!(asm.ready_rows(), (b - a) as usize, "width {width} {a}..{b}");
                let got = asm.into_tensor();
                assert_eq!(got, roundtrip(&t, a, b), "width {width} range {a}..{b}");
                assert_eq!(got, m.read_rows(s, a, b).unwrap());
            }
        }
    }

    #[test]
    fn streaming_out_of_range_lands_nothing() {
        let m = mgr();
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(200, 3)).unwrap();
        let mut asm = RowAssembly::new(201, D);
        let err = m.read_rows_into(s, 0, 201, &mut asm).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { .. }));
        assert_eq!(asm.ready_rows(), 0);
        assert_eq!(asm.rows().rows(), 0, "nothing allocated before validation");
    }

    #[test]
    fn adaptive_reactor_queues_multi_chunk_ranges_only() {
        // Multi-chunk ranges ride the device queues; a range inside one
        // chunk is read inline, and so is any range with a single
        // device-occupying chunk.
        let reactor = Reactor::new(4, 2);
        let m =
            StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Arc::clone(&reactor));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap();
        m.read_rows(s, 10, 40).unwrap(); // within chunk 0
        m.read_rows(s, 0, 64).unwrap(); // exactly chunk 0
        assert_eq!(reactor.ios_submitted(), 0, "≤1 device chunk: inline");
        m.read_rows(s, 0, 256).unwrap(); // 4 chunks over 4 devices
        assert_eq!(reactor.ios_submitted(), 4, "wide range must fan out");

        // One device lane: the chunks still queue (iodepth keeps two of
        // them in flight), and the bytes match the inline walk.
        let single_reactor = Reactor::new(1, 2);
        let single = StorageManager::new(Arc::new(MemStore::new(1)), D)
            .with_reactor(Arc::clone(&single_reactor));
        single.append_rows(s, &rows(256, 1)).unwrap();
        assert_eq!(
            single.read_rows(s, 0, 256).unwrap(),
            m.read_rows(s, 0, 256).unwrap()
        );
        assert_eq!(single_reactor.ios_submitted(), 4);
    }

    #[test]
    fn adaptive_fanout_skips_dram_front_hits() {
        // Everything write-through hot in the tiered front: the device
        // queues are never consulted, reads come back identical anyway.
        let tiered = Arc::new(crate::tiered::TieredStore::new(
            Arc::new(MemStore::new(4)),
            1 << 20,
        ));
        let reactor = Reactor::new(4, 2);
        let m = StorageManager::new(Arc::clone(&tiered), D).with_reactor(Arc::clone(&reactor));
        let s = StreamId::hidden(1, 0);
        let t = rows(256, 5);
        m.append_rows(s, &t).unwrap();
        let got = m.read_rows(s, 0, 256).unwrap();
        assert_eq!(reactor.ios_submitted(), 0, "front hits must read inline");
        let seq = StorageManager::new(Arc::new(MemStore::new(4)), D);
        seq.append_rows(s, &t).unwrap();
        assert_eq!(got, seq.read_rows(s, 0, 256).unwrap());
        assert_eq!(got, roundtrip(&t, 0, 256));
        // Evict the front (tiny successor store) — cold multi-chunk reads
        // ride the device queues again.
        let cold_back = Arc::new(MemStore::new(4));
        let cold = Arc::new(crate::tiered::TieredStore::new(Arc::clone(&cold_back), 8));
        let cold_reactor = Reactor::new(4, 2);
        let m2 = StorageManager::new(Arc::clone(&cold), D).with_reactor(Arc::clone(&cold_reactor));
        m2.append_rows(s, &t).unwrap(); // every chunk oversized for an 8-byte front
        m2.read_rows(s, 0, 256).unwrap();
        assert_eq!(cold_reactor.ios_submitted(), 4, "cold chunks must fan out");
    }

    #[test]
    fn mixed_hot_cold_ranges_fan_out_cold_chunks_only() {
        // A tiered front holding only the most recent chunks: the cold
        // prefix rides the device queues (one submission per cold chunk)
        // while the hot suffix is read inline — the reactor sees exactly
        // the cold chunks, and the assembled bytes still match a plain
        // manager.
        let per_chunk = 64 * D as u64 * 2;
        let tiered = Arc::new(crate::tiered::TieredStore::new(
            Arc::new(MemStore::new(4)),
            2 * per_chunk, // room for the 2 most recently written chunks
        ));
        let reactor = Reactor::new(4, 2);
        let m = StorageManager::new(Arc::clone(&tiered), D).with_reactor(Arc::clone(&reactor));
        let s = StreamId::hidden(1, 0);
        let t = rows(256, 3); // chunks 0..4; front ends up holding 2 and 3
        m.append_rows(s, &t).unwrap();
        assert!(!tiered.chunk_in_fast_tier(ChunkKey {
            stream: s,
            chunk_idx: 0
        }));
        assert!(tiered.chunk_in_fast_tier(ChunkKey {
            stream: s,
            chunk_idx: 3
        }));
        let got = m.read_rows(s, 0, 256).unwrap();
        assert_eq!(
            reactor.ios_submitted(),
            2,
            "only the two cold chunks may ride the device queues"
        );
        let seq = StorageManager::new(Arc::new(MemStore::new(4)), D);
        seq.append_rows(s, &t).unwrap();
        assert_eq!(got, seq.read_rows(s, 0, 256).unwrap());
        assert_eq!(got, roundtrip(&t, 0, 256));
    }

    #[test]
    fn streaming_mid_stream_delete_reappend_resets_and_redelivers() {
        // The generation-ABA race landed mid-read: the delete + same-size
        // re-append fires inside the second chunk's fetch, after chunk 0
        // already landed. The per-slice revalidation must reset the
        // assembly and land generation 2 wholesale.
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let mgr = Arc::new(StorageManager::new(Arc::clone(&store), D));
        let s = StreamId::hidden(1, 0);
        mgr.append_rows(s, &rows(128, 1)).unwrap(); // generation 1: 2 chunks
        let mgr2 = Arc::clone(&mgr);
        // Fire inside the *second* chunk fetch: chunk 0 has already
        // landed by then.
        store.on_nth_read(1, move || {
            mgr2.delete_stream(s);
            mgr2.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        });
        let mut asm = RowAssembly::new(128, D);
        mgr.read_rows_into(s, 0, 128, &mut asm).unwrap();
        assert!(
            asm.resets() >= 1,
            "mid-stream delete must reset the assembly"
        );
        assert_eq!(asm.ready_rows(), 128, "both chunks landed again");
        let got = asm.into_tensor();
        let gen2 = rows(128, 2);
        for r in 0..128 {
            for c in 0..D {
                assert_eq!(
                    got.get(r, c),
                    f16_roundtrip(gen2.get(r, c)),
                    "row {r} col {c} leaked generation-1 data past a reset"
                );
            }
        }
        assert_eq!(mgr.delete_stream(s), 128 * D as u64 * 2);
    }

    #[test]
    fn concurrent_readers_see_bit_identical_data() {
        let m = Arc::new(mgr());
        let s = StreamId::hidden(1, 0);
        let t = rows(200, 5);
        m.append_rows(s, &t).unwrap();
        let expect = m.read_rows(s, 0, 200).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                let expect = &expect;
                scope.spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(&m.read_rows(s, 0, 200).unwrap(), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn transient_device_faults_are_masked_by_bounded_retry() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m = StorageManager::new(Arc::clone(&store), D);
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(128, 3)).unwrap();
        let expect = m.read_rows(s, 0, 128).unwrap();
        // One charge fewer than the attempt budget: the last retry lands.
        let attempts = m.retry_policy().attempts;
        store.fail_reads(FaultTarget::Any, attempts - 1, true);
        assert_eq!(m.read_rows(s, 0, 128).unwrap(), expect);
        assert_eq!(store.reads_failed() as usize, attempts - 1);
    }

    #[test]
    fn persistent_transient_faults_exhaust_the_retry_budget() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m = StorageManager::new(Arc::clone(&store), D);
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64, 1)).unwrap();
        let k0 = ChunkKey {
            stream: s,
            chunk_idx: 0,
        };
        let attempts = m.retry_policy().attempts;
        store.fail_reads(FaultTarget::Key(k0), attempts, true);
        let err = m.read_rows(s, 0, 64).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::DeviceFailed {
                    transient: true,
                    ..
                }
            ),
            "exhausted retries must surface the transient fault: {err:?}"
        );
        assert_eq!(store.reads_failed() as usize, attempts);
    }

    #[test]
    fn permanent_device_faults_surface_without_retry() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m = StorageManager::new(Arc::clone(&store), D);
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64, 1)).unwrap();
        let k0 = ChunkKey {
            stream: s,
            chunk_idx: 0,
        };
        store.fail_reads(FaultTarget::Key(k0), 1, false);
        let err = m.read_rows(s, 0, 64).unwrap_err();
        assert_eq!(
            err,
            StorageError::DeviceFailed {
                key: k0,
                device: device_for(&k0, 2),
                transient: false,
                msg: "injected device read failure".into(),
            }
        );
        assert_eq!(store.reads_failed(), 1, "permanent faults get no retry");
    }

    #[test]
    fn reactor_surfaces_the_lowest_faulted_slice() {
        // Permanent faults on chunks 1 and 3: the reactor read must report
        // chunk 1 (what a sequential walk hits first), regardless of
        // completion order.
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let m = StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(4, 2));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap();
        for idx in [1u32, 3] {
            store.fail_reads(
                FaultTarget::Key(ChunkKey {
                    stream: s,
                    chunk_idx: idx,
                }),
                1,
                false,
            );
        }
        let err = m.read_rows(s, 0, 256).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::DeviceFailed {
                    key: ChunkKey { chunk_idx: 1, .. },
                    transient: false,
                    ..
                }
            ),
            "lowest faulted slice must win: {err:?}"
        );
    }

    #[test]
    fn breaker_opens_on_device_outage_and_probe_heals() {
        use crate::health::{BreakerConfig, BreakerState, DeviceHealth};
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let cfg = BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_millis(5),
            ..BreakerConfig::default()
        };
        let m = StorageManager::new(Arc::clone(&store), D)
            .with_device_health(Arc::new(DeviceHealth::with_config(2, cfg)));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(64, 1)).unwrap(); // chunk 0 → device 0
        let expect = m.read_rows(s, 0, 64).unwrap();
        store.device_down(0);
        // Permanent outage failures get no retry; the configured run of
        // failed reads opens the breaker.
        for _ in 0..cfg.consecutive_failures {
            assert!(m.read_rows(s, 0, 64).is_err());
        }
        assert_eq!(m.device_health().state(0), BreakerState::Open);
        // Open breaker fails fast — typed transient, no device IO.
        let seen = store.reads_seen();
        let err = m.read_rows(s, 0, 64).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::DeviceFailed {
                    device: 0,
                    transient: true,
                    ..
                }
            ),
            "fast-fail must be typed transient: {err:?}"
        );
        assert_eq!(
            store.reads_seen(),
            seen,
            "fast-fail must not touch the device"
        );
        // After the cooldown a half-open probe goes out; against a
        // still-down device it fails (one IO) and re-opens the breaker.
        std::thread::sleep(cfg.cooldown + Duration::from_millis(1));
        assert!(m.read_rows(s, 0, 64).is_err());
        assert_eq!(store.reads_seen(), seen + 1, "exactly one probe read");
        assert_eq!(m.device_health().state(0), BreakerState::Open);
        // Heal the device; the next probe closes the breaker and reads
        // flow bit-identically again.
        store.device_up(0);
        std::thread::sleep(cfg.cooldown + Duration::from_millis(1));
        assert_eq!(m.read_rows(s, 0, 64).unwrap(), expect);
        assert_eq!(m.device_health().state(0), BreakerState::Closed);
        let (errors, _stalls, trips) = m.device_health().counters(0);
        assert_eq!(trips, 2, "outage trip + failed-probe retrip");
        assert!(errors >= 4);
    }

    #[test]
    fn stream_devices_names_occupied_lanes_skipping_fast_tier() {
        let m = StorageManager::new(Arc::new(MemStore::new(4)), D);
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(70, 1)).unwrap();
        m.flush_stream(s).unwrap(); // tail chunk 1 becomes durable
        assert_eq!(m.stream_devices(s), vec![0, 1]);
        assert!(m.stream_devices(StreamId::hidden(9, 9)).is_empty());
        // Front-resident chunks drop off: they restore without device IO.
        let per_chunk = 64 * D as u64 * 2;
        let tiered = Arc::new(crate::tiered::TieredStore::new(
            Arc::new(MemStore::new(4)),
            4 * per_chunk,
        ));
        let mt = StorageManager::new(tiered, D);
        mt.append_rows(s, &rows(70, 1)).unwrap();
        mt.flush_stream(s).unwrap();
        assert!(
            mt.stream_devices(s).is_empty(),
            "all chunks DRAM-front resident"
        );
    }

    #[test]
    fn reactor_deadline_times_out_a_stalled_lane_as_transient() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m = StorageManager::new(Arc::clone(&store), D)
            .with_reactor(Reactor::new(2, 2))
            .with_retry_policy(RetryPolicy::default().with_io_deadline(Duration::from_millis(20)));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap(); // 4 chunks over 2 devices
        let expect = m.read_rows(s, 0, 256).unwrap();
        store.stall_reads(FaultTarget::Device(1), Duration::from_millis(200));
        let t = std::time::Instant::now();
        let err = m.read_rows(s, 0, 256).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::DeviceFailed {
                    device: 1,
                    transient: true,
                    ..
                }
            ),
            "stall must surface typed transient on the stalled lane: {err:?}"
        );
        assert!(
            t.elapsed() < Duration::from_millis(150),
            "the deadline must beat the stall"
        );
        assert_eq!(m.device_health().counters(1).1, 1, "stall recorded");
        store.clear_read_stalls();
        // Let the abandoned stalled reads drain off the device queue —
        // a fresh read would otherwise queue behind them and time out
        // again (correctly: the lane is still busy).
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(m.read_rows(s, 0, 256).unwrap(), expect);
    }

    #[test]
    fn reactor_job_expire_stalled_fails_typed_and_fences_late_completions() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m =
            Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(2, 2)));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap();
        store.stall_reads(FaultTarget::Any, Duration::from_millis(100));
        let job = m.begin_read(s, 0, 256, Arc::new(|| {}));
        let mut asm = RowAssembly::new(256, D);
        assert!(matches!(job.pump(&m, &mut asm), PumpOutcome::Pending));
        assert!(
            !job.expire_stalled(Duration::from_millis(500)),
            "deadline not reached yet"
        );
        std::thread::sleep(Duration::from_millis(30));
        assert!(job.expire_stalled(Duration::from_millis(20)));
        match job.pump(&m, &mut asm) {
            PumpOutcome::Failed(StorageError::DeviceFailed {
                transient: true, ..
            }) => {}
            other => panic!("expected typed stall failure, got {other:?}"),
        }
        // Late completions of the fenced pass must not revive the job.
        std::thread::sleep(Duration::from_millis(120));
        assert!(
            matches!(job.pump(&m, &mut asm), PumpOutcome::Failed(_)),
            "terminal result is sticky"
        );
    }

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hcmgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reopen_rebuilds_streams_bit_identical_with_exact_accounting() {
        let root = tmp_root("reopen");
        let s = StreamId::hidden(1, 0);
        let s2 = StreamId::key(2, 1);
        let (expect, expect2, resident) = {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(200, 3)).unwrap(); // 3 chunks + 8-row tail
            m.flush_stream(s).unwrap();
            // 64 durable + 6 buffered rows; the buffer is never flushed,
            // so a crash loses exactly those 6 rows and nothing else.
            m.append_rows(s2, &rows(70, 5)).unwrap();
            (
                m.read_rows(s, 0, 200).unwrap(),
                m.read_rows(s2, 0, 64).unwrap(),
                m.total_resident_bytes(),
            )
        };
        let (m2, report) = StorageManager::reopen(&root).unwrap();
        assert_eq!(report.streams_recovered, 2);
        assert_eq!(report.torn_chunks_discarded, 0);
        assert_eq!(report.journal_bytes_truncated, 0);
        assert_eq!(report.resident_bytes, resident);
        assert_eq!(report.front_warmed_bytes, 0, "no fast tier to warm");
        assert_eq!(m2.total_resident_bytes(), resident);
        assert_eq!(m2.n_tokens(s), 200);
        assert_eq!(m2.n_tokens(s2), 64, "unflushed buffer rows are lost");
        assert_eq!(m2.read_rows(s, 0, 200).unwrap(), expect);
        assert_eq!(m2.read_rows(s2, 0, 64).unwrap(), expect2);
        // freed == tracked holds across the restart.
        let freed = m2.delete_stream(s) + m2.delete_stream(s2);
        assert_eq!(freed, resident);
        assert_eq!(m2.total_resident_bytes(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_rewarms_a_tiered_front_and_reports_bytes() {
        let root = tmp_root("rewarm");
        let s = StreamId::hidden(1, 0);
        let expect = {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(128, 3)).unwrap(); // 2 full chunks
            m.read_rows(s, 0, 128).unwrap()
        };
        let back = Arc::new(FileStore::open(&root, 2).unwrap());
        let tiered = Arc::new(crate::tiered::TieredStore::new(back, 1 << 20));
        let (m2, report) = StorageManager::recover(Arc::clone(&tiered), &root).unwrap();
        let resident = 128 * D as u64 * 2;
        assert_eq!(report.front_warmed_bytes, resident, "both chunks warm");
        assert_eq!(tiered.front_used_bytes(), resident);
        // The restart does not begin cold: the restore read never goes
        // back to the files.
        let back_reads = tiered.back().stats().total_reads();
        assert_eq!(m2.read_rows(s, 0, 128).unwrap(), expect);
        assert_eq!(
            tiered.back().stats().total_reads(),
            back_reads,
            "warm front must serve the restore"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopened_tail_extends_and_reflushes_bit_identically() {
        // Appending across the reopen boundary must match a never-crashed
        // manager: the recovered tail re-encodes byte-identically (f16
        // round-trip is idempotent), completes into a full chunk, and the
        // stream keeps growing.
        let root = tmp_root("extend");
        let s = StreamId::hidden(1, 0);
        let all = rows(150, 7);
        {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            let head = Tensor2::from_fn(100, D, |r, c| all.get(r, c));
            m.append_rows(s, &head).unwrap();
            m.flush_stream(s).unwrap();
        }
        let (m2, _) = StorageManager::reopen(&root).unwrap();
        let tail = Tensor2::from_fn(50, D, |r, c| all.get(100 + r, c));
        m2.append_rows(s, &tail).unwrap();
        m2.flush_stream(s).unwrap();
        let reference = mgr();
        reference.append_rows(s, &all).unwrap();
        assert_eq!(
            m2.read_rows(s, 0, 150).unwrap(),
            reference.read_rows(s, 0, 150).unwrap()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_recovers_the_post_delete_generation_only() {
        let root = tmp_root("regen");
        let s = StreamId::hidden(1, 0);
        let (expect, resident) = {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(128, 1)).unwrap(); // generation 0
            m.delete_stream(s);
            m.append_rows(s, &rows(64, 9)).unwrap(); // generation 1
            (m.read_rows(s, 0, 64).unwrap(), m.total_resident_bytes())
        };
        let (m2, report) = StorageManager::reopen(&root).unwrap();
        assert_eq!(report.streams_recovered, 1);
        assert_eq!(m2.n_tokens(s), 64);
        assert_eq!(m2.read_rows(s, 0, 64).unwrap(), expect);
        assert_eq!(m2.total_resident_bytes(), resident);
        // The journal's generation counter survived the restart too.
        assert_eq!(m2.journal().unwrap().generation(s), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_truncates_a_torn_final_chunk_by_checksum() {
        let root = tmp_root("tornchunk");
        let s = StreamId::hidden(1, 0);
        {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(128, 1)).unwrap(); // chunks 0 and 1
        }
        // Tear chunk 1 on disk (simulates a torn write the journal already
        // vouched for): recovery must unmask it by chunk CRC and truncate
        // the stream to chunk 0.
        let k1 = ChunkKey {
            stream: s,
            chunk_idx: 1,
        };
        let torn = root.join(format!("dev{}/s1_l0_h_c1.bin", device_for(&k1, 2)));
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let (m2, report) = StorageManager::reopen(&root).unwrap();
        assert_eq!(report.chunks_recovered, 1);
        assert_eq!(report.torn_chunks_discarded, 1);
        assert_eq!(
            report.orphan_chunks_removed, 1,
            "the torn chunk's file is swept"
        );
        assert_eq!(m2.n_tokens(s), 64);
        let reference = mgr();
        reference.append_rows(s, &rows(128, 1)).unwrap();
        assert_eq!(
            m2.read_rows(s, 0, 64).unwrap(),
            reference.read_rows(s, 0, 64).unwrap()
        );
        let tracked = m2.total_resident_bytes();
        assert_eq!(tracked, report.resident_bytes);
        assert_eq!(m2.delete_stream(s), tracked, "freed == tracked");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_after_a_truncating_reopen_keeps_later_commits() {
        let root = tmp_root("retorn");
        let s = StreamId::hidden(1, 0);
        let first = rows(128, 1);
        {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &first).unwrap(); // chunks 0 and 1
        }
        let k1 = ChunkKey {
            stream: s,
            chunk_idx: 1,
        };
        let torn = root.join(format!("dev{}/s1_l0_h_c1.bin", device_for(&k1, 2)));
        let len = std::fs::metadata(&torn).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&torn)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let fresh = rows(128, 9);
        {
            let (m2, report) = StorageManager::reopen(&root).unwrap();
            assert_eq!(report.torn_chunks_discarded, 1);
            assert_eq!(m2.n_tokens(s), 64);
            m2.append_rows(s, &fresh).unwrap(); // chunks 1 and 2
            assert_eq!(m2.n_tokens(s), 192);
        }
        // The first reopen's truncation must not shadow chunk 1's new
        // commit: the second reopen keeps everything acknowledged.
        let (m3, report) = StorageManager::reopen(&root).unwrap();
        assert_eq!(report.torn_chunks_discarded, 0);
        assert_eq!(report.orphan_chunks_removed, 0);
        assert_eq!(m3.n_tokens(s), 192);
        let back = m3.read_rows(s, 0, 192).unwrap();
        for r in 0..192 {
            for c in 0..D {
                let want = if r < 64 {
                    first.get(r, c)
                } else {
                    fresh.get(r - 64, c)
                };
                assert_eq!(back.get(r, c), f16_roundtrip(want), "row {r} col {c}");
            }
        }
        assert_eq!(m3.delete_stream(s), report.resident_bytes);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_after_torn_journal_tail_drops_the_unjournaled_suffix() {
        let root = tmp_root("tornjournal");
        let s = StreamId::hidden(1, 0);
        {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(128, 1)).unwrap(); // chunks 0 and 1 journaled
        }
        // Tear the journal mid-way through the last commit record: chunk 1
        // is durable on disk but no longer vouched for.
        let jpath = crate::journal::journal_path(&root);
        let len = std::fs::metadata(&jpath).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&jpath)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (m2, report) = StorageManager::reopen(&root).unwrap();
        assert!(report.journal_bytes_truncated > 0);
        assert_eq!(m2.n_tokens(s), 64);
        assert_eq!(
            report.orphan_chunks_removed, 1,
            "the unjournaled durable chunk is swept"
        );
        let reference = mgr();
        reference.append_rows(s, &rows(128, 1)).unwrap();
        assert_eq!(
            m2.read_rows(s, 0, 64).unwrap(),
            reference.read_rows(s, 0, 64).unwrap()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Every sequence of appends (1 or 64 rows), flushes and deletes over
    /// two streams, to depth 4: after each op the index folded from the
    /// journal file gives each stream's bytes exactly as the manager's
    /// ledger reports them, and equals the journal's own index.
    #[test]
    fn index_folded_from_the_journal_matches_stream_bytes_on_every_sequence() {
        use crate::index::StreamIndex;
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Append(usize, usize),
            Flush(usize),
            Delete(usize),
        }
        let streams = [StreamId::hidden(1, 0), StreamId::key(1, 1)];
        let ops: Vec<Op> = (0..streams.len())
            .flat_map(|i| {
                [
                    Op::Append(i, 1),
                    Op::Append(i, 64),
                    Op::Flush(i),
                    Op::Delete(i),
                ]
            })
            .collect();
        let depth = 4;
        let root = tmp_root("index-ops");
        let header = JournalHeader {
            d_model: D,
            n_devices: 4,
            precision: Precision::F16,
        };
        for code in 0..ops.len().pow(depth) {
            let path: Vec<Op> = (0..depth)
                .map(|k| ops[code / ops.len().pow(k) % ops.len()])
                .collect();
            let journal = Arc::new(Journal::create(&root, header, false).unwrap());
            let m = mgr().with_journal(Arc::clone(&journal));
            for (k, &op) in path.iter().enumerate() {
                match op {
                    Op::Append(i, n) => m.append_rows(streams[i], &rows(n, k)).unwrap(),
                    Op::Flush(i) => m.flush_stream(streams[i]).unwrap(),
                    Op::Delete(i) => {
                        m.delete_stream(streams[i]);
                    }
                }
                let records = Journal::replay(&root).unwrap().records;
                let index = StreamIndex::from_records(&records);
                for &s in &streams {
                    assert_eq!(
                        index
                            .ledgers()
                            .find(|&(id, _)| id == s)
                            .map_or(0, |(_, l)| l.resident_bytes()),
                        m.stream_bytes(s),
                        "{s:?} after {:?}",
                        &path[..=k]
                    );
                }
                assert_eq!(journal.records_total(), records.len());
                assert_eq!(journal.index().live_records(), index.live_records());
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn recover_runs_against_a_wrapped_store() {
        // The generic recovery entry point accepts a wrapper (here a
        // FaultStore around the reopened FileStore), so the fault matrix
        // can drive recovery itself through injected faults.
        let root = tmp_root("wrapped");
        let s = StreamId::hidden(1, 0);
        let expect = {
            let m = StorageManager::create_durable(&root, 2, D, crate::Precision::F16).unwrap();
            m.append_rows(s, &rows(64, 2)).unwrap();
            m.read_rows(s, 0, 64).unwrap()
        };
        let inner = Arc::new(FileStore::open(&root, 2).unwrap());
        let store = Arc::new(FaultStore::new(inner));
        // A transient blip during recovery's validation pass is retried.
        store.fail_reads(FaultTarget::Any, 1, true);
        let (m2, report) = StorageManager::recover(Arc::clone(&store), &root).unwrap();
        assert_eq!(report.streams_recovered, 1);
        assert_eq!(m2.read_rows(s, 0, 64).unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    // ---- Event-driven reactor read path ----

    use crate::reactor::Reactor;

    #[test]
    fn reactor_reads_bit_identical_to_sequential_at_every_iodepth() {
        let seq = mgr();
        let s = StreamId::hidden(1, 0);
        let t = rows(300, 3); // 4 full chunks + a 44-row tail
        seq.append_rows(s, &t).unwrap();
        let ranges = [
            (0, 300),
            (0, 256),
            (70, 200),
            (64, 128),
            (5, 20),
            (250, 300),
        ];
        for iodepth in [1usize, 2, 4, 8] {
            let reactor = Reactor::new(4, iodepth);
            let m = StorageManager::new(Arc::new(MemStore::new(4)), D)
                .with_reactor(Arc::clone(&reactor));
            m.append_rows(s, &t).unwrap();
            for &(a, b) in &ranges {
                let got = m.read_rows(s, a, b).unwrap();
                assert_eq!(
                    got,
                    seq.read_rows(s, a, b).unwrap(),
                    "iodepth {iodepth} range {a}..{b} diverged"
                );
                assert_eq!(got, roundtrip(&t, a, b), "iodepth {iodepth} {a}..{b}");
            }
            assert!(
                reactor.ios_submitted() > 0,
                "multi-chunk ranges must ride the device queues"
            );
        }
    }

    #[test]
    fn reactor_missing_state_surfaces_the_lowest_chunk_error() {
        let store = Arc::new(MemStore::new(4));
        let m = StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(4, 4));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap();
        store.delete_stream(s);
        let err = m.read_rows(s, 0, 256).unwrap_err();
        assert_eq!(
            err,
            StorageError::MissingChunk {
                stream: s,
                chunk_idx: 0
            }
        );
    }

    #[test]
    fn reactor_read_racing_delete_and_restart_never_mixes_generations() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let mgr =
            Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(2, 4)));
        let s = StreamId::hidden(1, 0);
        mgr.append_rows(s, &rows(128, 1)).unwrap(); // generation 1: 2 chunks
        let mgr2 = Arc::clone(&mgr);
        store.on_nth_read(0, move || {
            mgr2.delete_stream(s);
            mgr2.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        });
        let got = mgr.read_rows(s, 0, 128).unwrap();
        let gen2 = rows(128, 2);
        for r in 0..128 {
            for c in 0..D {
                assert_eq!(got.get(r, c), f16_roundtrip(gen2.get(r, c)));
            }
        }
    }

    /// Begins an async read whose `notify` sends a token on the returned
    /// channel — the driver's run queue in miniature.
    fn begin_job<S: ChunkStore>(
        m: &Arc<StorageManager<S>>,
        stream: StreamId,
        start: u64,
        end: u64,
    ) -> (Arc<ReadJob<S>>, mpsc::Receiver<()>) {
        let (wake, woken) = mpsc::channel();
        let job = m.begin_read(
            stream,
            start,
            end,
            Arc::new(move || {
                let _ = wake.send(());
            }),
        );
        (job, woken)
    }

    /// Drives one async job to its terminal outcome from the test thread:
    /// pump, and on `Pending` block until the job's `notify` fires (every
    /// staged completion fires it, so no wakeup can be lost; the bound
    /// only turns a broken job into a failure instead of a hang).
    fn drive_job<S: ChunkStore>(
        m: &StorageManager<S>,
        job: &Arc<ReadJob<S>>,
        woken: &mpsc::Receiver<()>,
        asm: &mut RowAssembly,
    ) -> Result<(), StorageError> {
        loop {
            match job.pump(m, asm) {
                PumpOutcome::Done => return Ok(()),
                PumpOutcome::Failed(e) => return Err(e),
                PumpOutcome::Pending => woken
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a pending job must notify"),
            }
        }
    }

    /// Parks `device`'s IO thread(s) behind a gate: submissions queued
    /// after this call wait until the returned sender fires (or drops).
    fn park_device(reactor: &Reactor, device: usize) -> mpsc::Sender<()> {
        let (open, gate) = mpsc::channel::<()>();
        reactor.submit_io(device, move || {
            let _ = gate.recv();
        });
        open
    }

    #[test]
    fn async_reactor_job_is_bit_identical_to_read_rows() {
        let m = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Reactor::new(4, 2)),
        );
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(300, 7)).unwrap(); // durable chunks + tail
        for (a, b) in [(0u64, 300u64), (64, 256), (5, 20), (250, 300), (0, 0)] {
            let (job, woken) = begin_job(&m, s, a, b);
            assert_eq!(job.stream(), s);
            assert_eq!(job.range(), (a, b));
            let mut asm = RowAssembly::new((b - a) as usize, D);
            drive_job(&m, &job, &woken, &mut asm).unwrap();
            assert_eq!(asm.rows(), &m.read_rows(s, a, b).unwrap(), "range {a}..{b}");
            // Terminal outcomes are sticky.
            assert!(matches!(job.pump(&m, &mut asm), PumpOutcome::Done));
        }
    }

    #[test]
    fn async_reactor_job_out_of_range_is_terminal() {
        let m = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Reactor::new(4, 2)),
        );
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(10, 1)).unwrap();
        let (job, woken) = begin_job(&m, s, 0, 100);
        let mut asm = RowAssembly::new(100, D);
        let err = drive_job(&m, &job, &woken, &mut asm).unwrap_err();
        assert_eq!(
            err,
            StorageError::OutOfRange {
                stream: s,
                available: 10,
                requested: 100
            }
        );
        assert!(matches!(
            job.pump(&m, &mut asm),
            PumpOutcome::Failed(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn async_reactor_job_failure_resolves_to_the_lowest_chunk_error() {
        let store = Arc::new(MemStore::new(4));
        let m =
            Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(4, 4)));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(256, 1)).unwrap();
        store.delete_stream(s);
        let (job, woken) = begin_job(&m, s, 0, 256);
        let mut asm = RowAssembly::new(256, D);
        let err = drive_job(&m, &job, &woken, &mut asm).unwrap_err();
        assert_eq!(
            err,
            StorageError::MissingChunk {
                stream: s,
                chunk_idx: 0
            }
        );
    }

    #[test]
    fn async_reactor_job_racing_delete_restarts_onto_the_successor() {
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let m =
            Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Reactor::new(2, 4)));
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(128, 1)).unwrap(); // generation 1
        let m2 = Arc::clone(&m);
        store.on_nth_read(0, move || {
            m2.delete_stream(s);
            m2.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        });
        let (job, woken) = begin_job(&m, s, 0, 128);
        let mut asm = RowAssembly::new(128, D);
        drive_job(&m, &job, &woken, &mut asm).unwrap();
        assert!(asm.resets() >= 1, "the dead generation must be discarded");
        assert_eq!(asm.into_tensor(), gen2_roundtrip());
    }

    /// Generation 2 of the delete→re-append races, as `read_rows` returns it.
    fn gen2_roundtrip() -> Tensor2 {
        let gen2 = rows(128, 2);
        Tensor2::from_fn(128, D, |r, c| f16_roundtrip(gen2.get(r, c)))
    }

    #[test]
    fn async_reactor_job_error_from_a_dead_generation_restarts() {
        // The delete→re-append race with its losing interleaving forced:
        // chunk 1's read is served inside the wipe→re-append window and
        // its `MissingChunk` is staged on the job *before* chunk 0's read
        // (which held the window open) completes successfully with
        // generation-2 bytes. The error belongs to the dead generation, so
        // the job must restart on the successor — not resolve it terminal.
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
        let reactor = Reactor::new(2, 1);
        let m =
            Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Arc::clone(&reactor)));
        let s = StreamId::hidden(1, 0);
        // Chunk 0 lives on device 0, chunk 1 on device 1. Chunk 1's read
        // waits behind the gate, so chunk 0's is read ordinal 0.
        m.append_rows(s, &rows(128, 1)).unwrap();
        let open = park_device(&reactor, 1);
        let (m2, r2) = (Arc::clone(&m), Arc::clone(&reactor));
        store.on_nth_read(0, move || {
            m2.delete_stream(s);
            // Chunk 1 now reads the wiped stream. A marker queued behind it
            // on device 1's single IO thread runs only once chunk 1's
            // completion was staged on the job.
            let _ = open.send(());
            let (done, staged) = mpsc::channel();
            r2.submit_io(1, move || {
                let _ = done.send(());
            });
            staged.recv().unwrap();
            m2.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        });
        let (job, woken) = begin_job(&m, s, 0, 128);
        let mut asm = RowAssembly::new(128, D);
        drive_job(&m, &job, &woken, &mut asm).unwrap();
        assert!(asm.resets() >= 1, "the dead generation must be discarded");
        assert_eq!(asm.into_tensor(), gen2_roundtrip());
    }

    #[test]
    fn async_reactor_job_expired_on_a_dead_generation_restarts() {
        // Both device threads parked, so the pass's reads sit queued while
        // the stream is deleted and re-appended; then the watchdog expires
        // the pass. The deadline error it plants belongs to the dead
        // generation: the next pump must restart, not fail the read.
        let reactor = Reactor::new(2, 1);
        let m = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(2)), D).with_reactor(Arc::clone(&reactor)),
        );
        let s = StreamId::hidden(1, 0);
        m.append_rows(s, &rows(128, 1)).unwrap();
        let gates = [park_device(&reactor, 0), park_device(&reactor, 1)];
        let (job, woken) = begin_job(&m, s, 0, 128);
        let mut asm = RowAssembly::new(128, D);
        assert!(matches!(job.pump(&m, &mut asm), PumpOutcome::Pending));
        m.delete_stream(s);
        m.append_rows(s, &rows(128, 2)).unwrap(); // generation 2
        assert!(job.expire_stalled(Duration::ZERO));
        drop(gates);
        drive_job(&m, &job, &woken, &mut asm).unwrap();
        assert!(asm.resets() >= 1, "the dead generation must be discarded");
        assert_eq!(asm.into_tensor(), gen2_roundtrip());
    }
}
