//! Two-stage state saving (§4.2.2).
//!
//! During decode, every layer of every iteration produces one row per
//! sequence: a hidden-state row for a hidden layer, a K and a V row for a
//! KV-offload layer. Writing those rows straight to storage means many
//! small scattered writes on the critical path (the paper's DirectIO
//! baseline, Fig 14). Instead:
//!
//! * **Stage 1 — snapshot**: the batch's rows are copied to host memory in
//!   one contiguous copy (`cudaMemcpy` in the paper; a memcpy into the
//!   daemon's queue here). The GPU-side buffer is immediately reusable.
//! * **Stage 2 — chunk daemon**: a background host thread demultiplexes the
//!   rows — hidden and K/V alike — into per-stream chunk buffers and
//!   flushes full 64-token chunks to the backend (the manager's append path
//!   implements the buffering).
//!
//! The saver also implements the `DirectIo` mode used as the ablation
//! baseline: rows go to the backend synchronously, flushing the tail chunk
//! on every call — the scattered-write pattern the backend statistics make
//! visible.
//!
//! The daemon's chunk encoding runs under the [`StorageManager`]'s
//! `ParallelConfig` (set via `StorageManager::with_parallel`), the one
//! thread budget the manager spends; reads decode each chunk on the thread
//! that lands it.
//!
//! The daemon is one *appender* among the manager's concurrent clients: it
//! holds only the written stream's write lock per append (the manager is
//! sharded), so a save burst never stalls the restore pipelines reading
//! other streams — and concurrent readers of the *same* stream see clean
//! snapshot prefixes, never torn rows.
//!
//! A failed append belongs to the session whose rows it carried: the
//! daemon keeps that session's first error, answers it at the session's
//! next [`StateSaver::barrier_and_flush`], and keeps consuming, so one
//! transient write fault costs one session one round, never every later
//! save of every session.
//!
//! Shutdown: dropping the saver closes the channel and **joins** the daemon
//! thread, so every batch submitted before the drop is demultiplexed into
//! the manager (full chunks durable, tails buffered) before `drop` returns
//! — nothing is detached or leaked.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::backend::ChunkStore;
use crate::manager::StorageManager;
use crate::{StorageError, StreamId};

/// Saving strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveMode {
    /// Snapshot + background chunk daemon (the paper's design).
    TwoStage,
    /// Synchronous write-through (ablation baseline of Fig 14).
    DirectIo,
}

/// A batch of rows for one stream, already snapshotted to host memory.
struct RowBatch {
    stream: StreamId,
    /// Row-major f32 payload (`n × d_model`).
    rows: Vec<f32>,
}

enum Msg {
    Batch(Vec<RowBatch>),
    /// Answered once every earlier batch is appended, with the first
    /// append error the session's batches hit since its last barrier.
    Barrier(u64, Sender<Option<StorageError>>),
}

/// Saver front end. One instance per serving engine.
pub struct StateSaver<S: ChunkStore + 'static> {
    mgr: Arc<StorageManager<S>>,
    mode: SaveMode,
    tx: Option<Sender<Msg>>,
    daemon: Option<JoinHandle<()>>,
}

impl<S: ChunkStore + 'static> StateSaver<S> {
    /// Creates a saver; `TwoStage` mode spawns the chunk daemon thread.
    pub fn new(mgr: Arc<StorageManager<S>>, mode: SaveMode) -> Self {
        let (tx, daemon) = match mode {
            SaveMode::DirectIo => (None, None),
            SaveMode::TwoStage => {
                let (tx, rx) = channel::<Msg>();
                let mgr2 = Arc::clone(&mgr);
                let handle = std::thread::Builder::new()
                    .name("hcache-chunk-daemon".into())
                    .spawn(move || {
                        // The daemon preserves per-stream append order
                        // because it is the sole consumer of the channel.
                        let mut failed: HashMap<u64, StorageError> = HashMap::new();
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Batch(batches) => {
                                    for b in batches {
                                        if let Err(e) = mgr2.append_rows(b.stream, &b.rows) {
                                            failed.entry(b.stream.session).or_insert(e);
                                        }
                                    }
                                }
                                Msg::Barrier(session, ack) => {
                                    let _ = ack.send(failed.remove(&session));
                                }
                            }
                        }
                    })
                    // hc-analyze: allow(panic) thread-spawn failure at construction is a host misconfiguration; no caller handles a saver without its daemon
                    .expect("failed to spawn chunk daemon");
                (Some(tx), Some(handle))
            }
        };
        Self {
            mgr,
            mode,
            tx,
            daemon,
        }
    }

    /// Saves a batch of rows: `items` is a list of `(stream, rows)` where
    /// each `rows` holds `n × d_model` f32 values for that stream.
    ///
    /// In `TwoStage` mode this returns as soon as the snapshot copy is done;
    /// in `DirectIo` mode it blocks until the rows (including the partial
    /// tail chunk) hit the backend. A `TwoStage` append error is reported
    /// by the session's next [`Self::barrier_and_flush`].
    pub fn save_batch(&self, items: &[(StreamId, &[f32])]) -> Result<(), StorageError> {
        match self.mode {
            SaveMode::TwoStage => {
                let d = self.mgr.d_model();
                let mut batches = Vec::with_capacity(items.len());
                for (stream, rows) in items {
                    assert_eq!(rows.len() % d, 0, "ragged row payload");
                    batches.push(RowBatch {
                        stream: *stream,
                        rows: rows.to_vec(), // the stage-1 snapshot copy
                    });
                }
                self.send(Msg::Batch(batches));
            }
            SaveMode::DirectIo => {
                for (stream, rows) in items {
                    self.mgr.append_rows(*stream, *rows)?;
                    // Write-through: the tail chunk goes out on every call —
                    // this is what makes DirectIO scatter small writes.
                    self.mgr.flush_stream(*stream)?;
                }
            }
        }
        Ok(())
    }

    /// Waits until the daemon has drained everything submitted so far, then
    /// flushes all partial chunks of `session` so reads see durable data.
    ///
    /// Returns (and clears) the first append error the daemon hit on
    /// `session`'s rows since its last barrier, without flushing; other
    /// sessions' errors wait for their own barriers.
    pub fn barrier_and_flush(&self, session: u64) -> Result<(), StorageError> {
        if self.tx.is_some() {
            let (ack_tx, ack_rx) = channel();
            self.send(Msg::Barrier(session, ack_tx));
            // hc-analyze: allow(panic) the daemon answers every barrier unless it panicked
            if let Some(e) = ack_rx.recv().expect("chunk daemon panicked") {
                return Err(e);
            }
        }
        self.mgr.flush_session(session)
    }

    /// Hands `msg` to the chunk daemon.
    fn send(&self, msg: Msg) {
        self.tx
            .as_ref()
            // hc-analyze: allow(panic) mode invariant: TwoStage construction always installs tx
            .expect("two-stage saver has a daemon")
            .send(msg)
            // hc-analyze: allow(panic) the daemon consumes until the saver drops its sender, so a closed channel means it panicked
            .expect("chunk daemon panicked");
    }
}

impl<S: ChunkStore + 'static> Drop for StateSaver<S> {
    fn drop(&mut self) {
        // Close the channel, then join the daemon so no appends are lost.
        self.tx.take();
        if let Some(h) = self.daemon.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;
    use hc_tensor::Tensor2;

    const D: usize = 8;

    fn setup(mode: SaveMode) -> (Arc<StorageManager<MemStore>>, StateSaver<MemStore>) {
        let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(4)), D));
        let saver = StateSaver::new(Arc::clone(&mgr), mode);
        (mgr, saver)
    }

    fn row(v: f32) -> Vec<f32> {
        vec![v; D]
    }

    #[test]
    fn two_stage_and_direct_store_identical_data() {
        let (mgr_a, saver_a) = setup(SaveMode::TwoStage);
        let (mgr_b, saver_b) = setup(SaveMode::DirectIo);
        for step in 0..100 {
            for layer in 0..4u32 {
                let r = row(step as f32 + layer as f32 * 0.25);
                let items = [(StreamId::hidden(1, layer), r.as_slice())];
                saver_a.save_batch(&items).unwrap();
                saver_b.save_batch(&items).unwrap();
            }
        }
        saver_a.barrier_and_flush(1).unwrap();
        saver_b.barrier_and_flush(1).unwrap();
        for layer in 0..4u32 {
            let s = StreamId::hidden(1, layer);
            assert_eq!(mgr_a.n_tokens(s), 100);
            let a = mgr_a.read_rows(s, 0, 100).unwrap();
            let b = mgr_b.read_rows(s, 0, 100).unwrap();
            assert_eq!(a, b, "layer {layer} diverged");
        }
    }

    #[test]
    fn two_stage_batches_writes_direct_io_scatters() {
        let (mgr_a, saver_a) = setup(SaveMode::TwoStage);
        let (mgr_b, saver_b) = setup(SaveMode::DirectIo);
        // 128 decode steps over one stream: exactly 2 full chunks.
        for step in 0..128 {
            let r = row(step as f32);
            saver_a
                .save_batch(&[(StreamId::hidden(1, 0), r.as_slice())])
                .unwrap();
            saver_b
                .save_batch(&[(StreamId::hidden(1, 0), r.as_slice())])
                .unwrap();
        }
        saver_a.barrier_and_flush(1).unwrap();
        saver_b.barrier_and_flush(1).unwrap();
        let w_two_stage = mgr_a.stats().total_writes();
        let w_direct = mgr_b.stats().total_writes();
        assert!(
            w_two_stage <= 3,
            "two-stage should write ~2 chunk IOs, got {w_two_stage}"
        );
        assert!(
            w_direct >= 128,
            "direct IO should write per token, got {w_direct}"
        );
    }

    #[test]
    fn multi_sequence_batches_demultiplex_into_streams() {
        let (mgr, saver) = setup(SaveMode::TwoStage);
        // Continuous batching: one call carries rows of several sessions.
        let r1 = row(1.0);
        let r2 = row(2.0);
        saver
            .save_batch(&[
                (StreamId::hidden(1, 0), r1.as_slice()),
                (StreamId::hidden(2, 0), r2.as_slice()),
            ])
            .unwrap();
        saver.barrier_and_flush(1).unwrap();
        saver.barrier_and_flush(2).unwrap();
        assert_eq!(mgr.n_tokens(StreamId::hidden(1, 0)), 1);
        assert_eq!(mgr.n_tokens(StreamId::hidden(2, 0)), 1);
        let a = mgr.read_rows(StreamId::hidden(1, 0), 0, 1).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
    }

    #[test]
    fn barrier_makes_pending_rows_readable() {
        let (mgr, saver) = setup(SaveMode::TwoStage);
        for i in 0..10 {
            let r = row(i as f32);
            saver
                .save_batch(&[(StreamId::hidden(5, 0), r.as_slice())])
                .unwrap();
        }
        saver.barrier_and_flush(5).unwrap();
        let t = mgr.read_rows(StreamId::hidden(5, 0), 0, 10).unwrap();
        assert_eq!(t.rows(), 10);
        assert_eq!(t.get(9, 0), 9.0);
    }

    #[test]
    fn drop_joins_daemon_without_losing_data() {
        let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(2)), D));
        {
            let saver = StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage);
            for i in 0..64 {
                let r = row(i as f32);
                saver
                    .save_batch(&[(StreamId::hidden(9, 0), r.as_slice())])
                    .unwrap();
            }
            // No barrier: Drop must still drain the queue.
        }
        assert_eq!(mgr.n_tokens(StreamId::hidden(9, 0)), 64);
    }

    #[test]
    fn drop_mid_stream_loses_no_flushed_chunks() {
        // Regression for the daemon shutdown path: drop the saver while the
        // queue still holds a mix of chunk-crossing batches for several
        // streams — every row must survive, full chunks as durable backend
        // writes and the tails via the manager's partial buffers.
        let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(3)), D));
        {
            let saver = StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage);
            for i in 0..100 {
                for layer in 0..2u32 {
                    let r = row(i as f32 + layer as f32 * 0.5);
                    saver
                        .save_batch(&[(StreamId::hidden(4, layer), r.as_slice())])
                        .unwrap();
                }
            }
            // No barrier: Drop closes the channel and joins the daemon.
        }
        // 100 rows = 1 durable chunk (64) + 36 buffered, per stream.
        assert!(
            mgr.stats().total_writes() >= 2,
            "full chunks must have been flushed by the daemon before drop"
        );
        for layer in 0..2u32 {
            let s = StreamId::hidden(4, layer);
            assert_eq!(mgr.n_tokens(s), 100, "layer {layer} lost rows");
            let t = mgr.read_rows(s, 0, 100).unwrap();
            for i in 0..100 {
                assert_eq!(
                    t.get(i, 0),
                    hc_tensor::f16::f16_roundtrip(i as f32 + layer as f32 * 0.5),
                    "layer {layer} row {i} corrupted"
                );
            }
        }
    }

    #[test]
    fn a_write_fault_fails_only_its_sessions_next_barrier() {
        use crate::chunk::ChunkKey;
        use crate::fault::{FaultStore, FaultTarget};
        let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mgr = Arc::new(StorageManager::new(Arc::clone(&store), D));
        let saver = StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage);
        let (a, b) = (StreamId::hidden(1, 0), StreamId::hidden(2, 0));
        // One full chunk per batch: every batch seals one chunk.
        let chunk = |v: f32| vec![v; 64 * D];
        store.fail_writes(FaultTarget::Stream(a), 1, true);
        saver.save_batch(&[(a, &chunk(1.0))]).unwrap();
        saver.save_batch(&[(b, &chunk(2.0))]).unwrap();

        // B's barrier passes while A's error is parked; A's reports it.
        saver.barrier_and_flush(2).unwrap();
        match saver.barrier_and_flush(1) {
            Err(StorageError::DeviceFailed { key, .. }) => {
                assert_eq!(
                    key,
                    ChunkKey {
                        stream: a,
                        chunk_idx: 0
                    }
                );
            }
            other => panic!("expected A's chunk-0 write fault, got {other:?}"),
        }

        // The daemon kept consuming: later batches of both sessions land,
        // A's failed seal is retried by its next append, and neither
        // barrier sees the spent error again.
        saver
            .save_batch(&[(a, &chunk(3.0)), (b, &chunk(4.0))])
            .unwrap();
        saver.barrier_and_flush(1).unwrap();
        saver.barrier_and_flush(2).unwrap();
        assert_eq!(store.writes_failed(), 1);
        for (s, first, second) in [(a, 1.0, 3.0), (b, 2.0, 4.0)] {
            assert_eq!(mgr.n_tokens(s), 128);
            let t = mgr.read_rows(s, 0, 128).unwrap();
            assert_eq!((t.get(0, 0), t.get(127, D - 1)), (first, second));
        }
    }

    #[test]
    fn multilayer_batch_preserves_tensor_content() {
        let (mgr, saver) = setup(SaveMode::TwoStage);
        let t = Tensor2::from_fn(3, D, |r, c| (r * D + c) as f32 * 0.5);
        saver
            .save_batch(&[(StreamId::hidden(1, 7), t.as_slice())])
            .unwrap();
        saver.barrier_and_flush(1).unwrap();
        let back = mgr.read_rows(StreamId::hidden(1, 7), 0, 3).unwrap();
        assert_eq!(back.get(2, 3), hc_tensor::f16::f16_roundtrip(t.get(2, 3)));
    }
}
