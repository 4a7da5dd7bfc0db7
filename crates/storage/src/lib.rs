//! # hc-storage
//!
//! The HCache storage manager (§4.2 of the paper): chunk-based host storage
//! for hidden states (and the KV/token state of the complementary methods),
//! with a two-stage saving pipeline that keeps state dumps off the decode
//! critical path.
//!
//! Key concepts:
//!
//! * **Streams** ([`StreamId`]): one logical append-only sequence of token
//!   rows per `(session, layer, kind)`, where kind is hidden states, keys or
//!   values.
//! * **Chunks** ([`chunk`]): fixed 64-token pieces of a stream, stored f16,
//!   placed round-robin across storage devices — the paper's answer to the
//!   layer-before-token (saving) vs token-before-layer (restoration) order
//!   mismatch, and to the unpredictability of output lengths (no large
//!   preallocated per-layer extents; §4.2.1).
//! * **Backends** ([`backend`]): in-memory and real-file chunk stores with
//!   per-device IO accounting, so tests can assert IO patterns (e.g. the
//!   two-stage saver really does turn scattered token writes into chunk
//!   writes).
//! * **Manager** ([`manager::StorageManager`]): append/read API with f16
//!   encoding, partial-chunk buffering, and per-layer batched reads in
//!   restoration order. The manager is **sharded for concurrent stream
//!   IO**: a briefly-held outer map resolves streams to per-stream
//!   `RwLock` cells, reads snapshot their stream's cursors and then decode
//!   with *no lock held*, writes hold only their own stream's lock, and
//!   the aggregate resident-byte figure is an atomic — see the
//!   [`manager`] module docs for the full locking discipline (lock order
//!   map→stream; nothing held across read IO).
//! * **IO reactor** ([`reactor::Reactor`]): per-device submission
//!   queues with configurable iodepth, so one restoration read keeps
//!   every device holding one of its chunks busy at once, and a shared
//!   run queue for a fixed pool of compute workers, so in-flight restores
//!   are bounded by memory and iodepth rather than threads. Every read is
//!   one [`manager::ReadJob`] (`planned → submitted → landed`) decoding
//!   each chunk straight into its destination rows of a
//!   [`manager::RowAssembly`]; a job submits its device reads to the
//!   reactor when the manager has one
//!   ([`manager::StorageManager::with_reactor`]) and reads them inline
//!   otherwise, with bit-identical output at every iodepth.
//! * **Latency model** ([`latency::LatencyStore`]): wraps any backend with
//!   per-device service time modeled by a deadline clock (a service
//!   window is reserved at submission; nothing sleeps holding a lock), so
//!   benches measure the IO-overlap behavior real NVMe arrays exhibit
//!   instead of page-cache speed.
//! * **Two-stage saver** ([`two_stage`]): stage 1 snapshots a batch of new
//!   rows synchronously (cheap memcpy, as `cudaMemcpy` to host DRAM in the
//!   paper); stage 2, a background daemon, reorganizes rows into chunks and
//!   flushes them (§4.2.2). A `DirectIo` mode writes straight through for
//!   the Fig 14 ablation.
//! * **Stream index** ([`index`]): the one pure model of a stream's
//!   chunks — a sealed chunk absorbs the flushed tail at its index, a
//!   re-flush replaces the tail, an out-of-order commit is dropped, a
//!   delete clears the stream and bumps its generation. The manager's
//!   live byte ledger, the journal, compaction and recovery all fold it.
//! * **Crash durability** ([`journal`]): a chunk-generation journal for
//!   [`backend::FileStore`]-backed managers — every durable chunk write
//!   and stream delete is logged (with byte length and checksum) and
//!   folded into the journal's [`index::StreamIndex`], so
//!   [`manager::StorageManager::reopen`] rebuilds every stream's durable
//!   cursor, partial tail, tombstone generation and exact resident-byte
//!   accounting after a crash, truncating torn chunks and torn journal
//!   tails back to the last consistent prefix.
//! * **Fault injection** ([`fault`]): a [`fault::FaultStore`] wrapper
//!   that injects typed device errors ([`StorageError::DeviceFailed`]),
//!   read stalls, torn writes, whole-device outages, seeded flaky rates
//!   and mid-read hooks at programmable points — the executable fault
//!   matrix the failure-scenario suite runs against.
//! * **Device health** ([`health`]): a per-device sliding error/stall
//!   window feeding a three-state circuit breaker (closed → open →
//!   half-open probe), plus the [`health::RetryPolicy`] governing the
//!   manager's jittered, budgeted transient-fault retry and the
//!   reactor's IO deadlines. The restore plane consults it to degrade
//!   affected layers to recompute instead of failing sessions.

pub mod backend;
pub mod chunk;
pub mod fault;
pub mod health;
pub mod index;
pub mod journal;
pub mod latency;
pub mod manager;
pub mod reactor;
pub mod tiered;
pub mod two_stage;

/// On-storage numeric precision for activation rows: IEEE binary16, the
/// paper's format, lossless relative to its fp16-native engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// IEEE binary16, 2 B/element.
    #[default]
    F16,
}

impl Precision {
    /// Encoded bytes for `rows × width` elements.
    pub fn encoded_len(&self, rows: usize, width: usize) -> usize {
        rows * width * 2
    }

    /// Encodes row-major f32 data under `par`'s thread budget
    /// (bit-identical to the serial encoder).
    pub fn encode_par(
        &self,
        xs: &[f32],
        _width: usize,
        par: &hc_tensor::ParallelConfig,
    ) -> Vec<u8> {
        hc_tensor::f16::encode_f16_par(xs, par)
    }
}

/// Which state a stream holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKind {
    /// Layer-input hidden states (what HCache saves).
    Hidden,
    /// Attention keys (KV-offload baseline / complementary layers).
    Key,
    /// Attention values.
    Value,
}

/// Identifies one append-only token-row stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId {
    /// Serving session (conversation / context) id.
    pub session: u64,
    /// Transformer layer index.
    pub layer: u32,
    /// State kind.
    pub kind: StateKind,
}

impl StreamId {
    /// Convenience constructor for hidden-state streams.
    pub fn hidden(session: u64, layer: u32) -> Self {
        Self {
            session,
            layer,
            kind: StateKind::Hidden,
        }
    }

    /// Convenience constructor for key streams.
    pub fn key(session: u64, layer: u32) -> Self {
        Self {
            session,
            layer,
            kind: StateKind::Key,
        }
    }

    /// Convenience constructor for value streams.
    pub fn value(session: u64, layer: u32) -> Self {
        Self {
            session,
            layer,
            kind: StateKind::Value,
        }
    }
}

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A requested chunk does not exist in the backend.
    MissingChunk {
        /// Stream the chunk belongs to.
        stream: StreamId,
        /// Chunk index within the stream.
        chunk_idx: u32,
    },
    /// Requested token range exceeds what has been saved for the stream.
    OutOfRange {
        /// Stream queried.
        stream: StreamId,
        /// Tokens saved.
        available: u64,
        /// Tokens requested (end of range).
        requested: u64,
    },
    /// Underlying IO failure (file backend) not attributable to one
    /// chunk operation (directory creation, journal IO, ...).
    Io(String),
    /// A storage device failed serving one chunk operation. Carries the
    /// chunk key and the owning device lane so logs and tests can name
    /// the failing lane; `transient` faults are retried with bounded
    /// backoff by the manager's read path before surfacing.
    DeviceFailed {
        /// Chunk the failing operation addressed.
        key: crate::chunk::ChunkKey,
        /// Device lane that failed ([`chunk::device_for`] of the key).
        device: usize,
        /// True when a retry may succeed.
        transient: bool,
        /// Underlying error description.
        msg: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::MissingChunk { stream, chunk_idx } => {
                write!(f, "missing chunk {chunk_idx} of {stream:?}")
            }
            StorageError::OutOfRange {
                stream,
                available,
                requested,
            } => write!(
                f,
                "range request to {requested} exceeds {available} saved tokens of {stream:?}"
            ),
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::DeviceFailed {
                key,
                device,
                transient,
                msg,
            } => write!(
                f,
                "device {device} failed{} on chunk {} of {:?}: {msg}",
                if *transient { " (transient)" } else { "" },
                key.chunk_idx,
                key.stream
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_constructors() {
        assert_eq!(StreamId::hidden(1, 2).kind, StateKind::Hidden);
        assert_eq!(StreamId::key(1, 2).kind, StateKind::Key);
        assert_eq!(StreamId::value(1, 2).kind, StateKind::Value);
    }

    #[test]
    fn error_display_is_informative() {
        let e = StorageError::OutOfRange {
            stream: StreamId::hidden(3, 1),
            available: 10,
            requested: 20,
        };
        let s = e.to_string();
        assert!(s.contains("20") && s.contains("10"));
    }
}
