//! Chunk store backends with per-device IO accounting.
//!
//! Two functional backends are provided:
//! * [`MemStore`] — a thread-safe in-memory store (host-DRAM tier, also the
//!   default for tests).
//! * [`FileStore`] — real files on disk, one directory per simulated device
//!   (SSD tier). Chunk payloads round-trip through the filesystem so the
//!   save/restore path is exercised end to end.
//!
//! Both count IOs and bytes per device, which the tests and the two-stage-
//! saving ablation use to verify IO *patterns* (batched chunk writes vs
//! scattered small writes), independent of the virtual-time models.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::chunk::{device_for, ChunkKey};
use crate::{StorageError, StreamId};

/// Per-device IO counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of chunk write operations.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Number of chunk read operations.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// Aggregated store statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// One entry per device.
    pub devices: Vec<DeviceStats>,
}

impl StoreStats {
    /// Sum of write ops across devices.
    pub fn total_writes(&self) -> u64 {
        self.devices.iter().map(|d| d.writes).sum()
    }

    /// Sum of read ops across devices.
    pub fn total_reads(&self) -> u64 {
        self.devices.iter().map(|d| d.reads).sum()
    }

    /// Sum of bytes written.
    pub fn total_bytes_written(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_written).sum()
    }

    /// Sum of bytes read.
    pub fn total_bytes_read(&self) -> u64 {
        self.devices.iter().map(|d| d.bytes_read).sum()
    }
}

/// A chunk-granularity store striped over `n_devices`.
///
/// `'static` is part of the contract: the manager's reactor read path
/// hands `Arc<S>` clones to the reactor's persistent IO threads
/// ([`crate::reactor::Reactor`]), so a store may not borrow from its
/// environment. Every store here owns its state outright.
pub trait ChunkStore: Send + Sync + 'static {
    /// Writes (or overwrites) one chunk.
    fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError>;

    /// Reads one chunk.
    fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError>;

    /// True when the chunk exists.
    fn contains(&self, key: ChunkKey) -> bool;

    /// Deletes every chunk belonging to `stream`; returns bytes freed.
    fn delete_stream(&self, stream: StreamId) -> u64;

    /// Number of devices the store stripes over.
    fn n_devices(&self) -> usize;

    /// True when `key` would be served from a DRAM-speed fast tier (e.g.
    /// [`crate::tiered::TieredStore`]'s front cache) rather than occupying
    /// a storage device. A *hint* for the manager's adaptive reactor plan:
    /// ranges whose chunks are front hits gain nothing from keeping
    /// several device reads in flight, so the manager reads them inline.
    /// The default (no fast tier) is `false`; implementations must treat
    /// this as advisory — a stale answer may cost a little wall-clock but
    /// never correctness.
    fn chunk_in_fast_tier(&self, _key: ChunkKey) -> bool {
        false
    }

    /// Deletes one chunk, returning the bytes it held (0 when absent).
    /// Crash recovery uses this to sweep orphan chunks (written durably
    /// but never journaled, or journaled deleted but not yet wiped). The
    /// default — for stores that never participate in recovery — removes
    /// nothing.
    fn delete_chunk(&self, _key: ChunkKey) -> u64 {
        0
    }

    /// Every chunk key currently stored, in no particular order. Crash
    /// recovery enumerates these to find orphans; the default (empty)
    /// opts a store out of the sweep.
    fn chunk_keys(&self) -> Vec<ChunkKey> {
        Vec::new()
    }

    /// Offers `data` (the already-validated bytes of `key`) to the
    /// store's DRAM fast tier through its normal admission policy,
    /// returning the bytes the fast tier holds for `key` afterwards (0
    /// when not admitted). Crash recovery calls this per validated chunk
    /// so a reopened [`crate::tiered::TieredStore`] starts warm instead
    /// of cold. The default — for stores without a fast tier — admits
    /// nothing.
    fn warm_chunk(&self, _key: ChunkKey, _data: &[u8]) -> u64 {
        0
    }

    /// Snapshot of the IO counters.
    fn stats(&self) -> StoreStats;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

struct Counters {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Self {
            writes: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> DeviceStats {
        DeviceStats {
            // hc-analyze: allow(relaxed) per-device IO metrics; a snapshot is advisory and needs no cross-counter consistency
            writes: self.writes.load(Ordering::Relaxed),
            // hc-analyze: allow(relaxed) per-device IO metrics; a snapshot is advisory and needs no cross-counter consistency
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            // hc-analyze: allow(relaxed) per-device IO metrics; a snapshot is advisory and needs no cross-counter consistency
            reads: self.reads.load(Ordering::Relaxed),
            // hc-analyze: allow(relaxed) per-device IO metrics; a snapshot is advisory and needs no cross-counter consistency
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// Thread-safe in-memory chunk store.
pub struct MemStore {
    chunks: Mutex<HashMap<ChunkKey, Vec<u8>>>,
    counters: Vec<Counters>,
}

impl MemStore {
    /// Creates a store striped over `n_devices` virtual devices.
    pub fn new(n_devices: usize) -> Self {
        assert!(n_devices > 0, "need at least one device");
        Self {
            chunks: Mutex::new(HashMap::new()),
            counters: (0..n_devices).map(|_| Counters::new()).collect(),
        }
    }
}

impl ChunkStore for MemStore {
    fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        let dev = device_for(&key, self.counters.len());
        // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
        self.counters[dev].writes.fetch_add(1, Ordering::Relaxed);
        self.counters[dev]
            .bytes_written
            // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.chunks.lock().insert(key, data.to_vec());
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError> {
        let dev = device_for(&key, self.counters.len());
        let data = self
            .chunks
            .lock()
            .get(&key)
            .cloned()
            .ok_or(StorageError::MissingChunk {
                stream: key.stream,
                chunk_idx: key.chunk_idx,
            })?;
        // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
        self.counters[dev].reads.fetch_add(1, Ordering::Relaxed);
        self.counters[dev]
            .bytes_read
            // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn contains(&self, key: ChunkKey) -> bool {
        self.chunks.lock().contains_key(&key)
    }

    fn delete_stream(&self, stream: StreamId) -> u64 {
        let mut map = self.chunks.lock();
        let keys: Vec<ChunkKey> = map.keys().filter(|k| k.stream == stream).cloned().collect();
        let mut freed = 0;
        for k in keys {
            if let Some(v) = map.remove(&k) {
                freed += v.len() as u64;
            }
        }
        freed
    }

    fn delete_chunk(&self, key: ChunkKey) -> u64 {
        self.chunks
            .lock()
            .remove(&key)
            .map_or(0, |v| v.len() as u64)
    }

    fn chunk_keys(&self) -> Vec<ChunkKey> {
        self.chunks.lock().keys().cloned().collect()
    }

    fn n_devices(&self) -> usize {
        self.counters.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            devices: self.counters.iter().map(|c| c.snapshot()).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------------

/// Chunk store backed by real files: `root/dev{i}/<chunk>.bin`.
///
/// Writes are crash-durable by default: each chunk lands in a temp file
/// that is `sync_all`ed and atomically renamed over the live name (then
/// the parent directory is fsynced), so a crash can never leave a
/// half-written chunk under a live key — the property the
/// [`crate::journal`] recovery protocol builds on. [`FileStore::no_sync`]
/// trades that away for latency-model benches.
pub struct FileStore {
    root: PathBuf,
    counters: Vec<Counters>,
    /// Index of existing chunks, avoiding filesystem probing on `contains`.
    index: Mutex<HashMap<ChunkKey, u64>>,
    /// Fsync chunk files (and their directory) on write.
    sync: bool,
}

impl FileStore {
    /// Creates the device directories under `root`.
    pub fn new(root: impl Into<PathBuf>, n_devices: usize) -> Result<Self, StorageError> {
        assert!(n_devices > 0, "need at least one device");
        let root = root.into();
        for d in 0..n_devices {
            std::fs::create_dir_all(root.join(format!("dev{d}")))
                .map_err(|e| StorageError::Io(e.to_string()))?;
        }
        Ok(Self {
            root,
            counters: (0..n_devices).map(|_| Counters::new()).collect(),
            index: Mutex::new(HashMap::new()),
            sync: true,
        })
    }

    /// Reopens an existing store root, rebuilding the chunk index by
    /// scanning the device directories (file name → key, file size →
    /// stored bytes). Leftover temp files from a crashed mid-write are
    /// removed — their rename never happened, so no live key points at
    /// them. Missing device directories are created, so `open` also
    /// accepts a fresh root.
    pub fn open(root: impl Into<PathBuf>, n_devices: usize) -> Result<Self, StorageError> {
        assert!(n_devices > 0, "need at least one device");
        let root = root.into();
        let mut index = HashMap::new();
        for d in 0..n_devices {
            let dir = root.join(format!("dev{d}"));
            std::fs::create_dir_all(&dir).map_err(|e| StorageError::Io(e.to_string()))?;
            let entries = std::fs::read_dir(&dir).map_err(|e| StorageError::Io(e.to_string()))?;
            for entry in entries {
                let entry = entry.map_err(|e| StorageError::Io(e.to_string()))?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                    continue;
                }
                if let Some(key) = parse_chunk_name(name) {
                    let len = entry
                        .metadata()
                        .map_err(|e| StorageError::Io(e.to_string()))?
                        .len();
                    index.insert(key, len);
                }
            }
        }
        Ok(Self {
            root,
            counters: (0..n_devices).map(|_| Counters::new()).collect(),
            index: Mutex::new(index),
            sync: true,
        })
    }

    /// Disables per-write fsync (atomic rename is kept). For benches
    /// whose latency model already charges device time — crash
    /// durability is forfeit.
    pub fn no_sync(mut self) -> Self {
        self.sync = false;
        self
    }

    fn path_for(&self, key: &ChunkKey) -> PathBuf {
        let dev = device_for(key, self.counters.len());
        let kind = match key.stream.kind {
            crate::StateKind::Hidden => "h",
            crate::StateKind::Key => "k",
            crate::StateKind::Value => "v",
        };
        self.root.join(format!(
            "dev{dev}/s{}_l{}_{kind}_c{}.bin",
            key.stream.session, key.stream.layer, key.chunk_idx
        ))
    }
}

/// Parses a chunk file name (`s{session}_l{layer}_{h|k|v}_c{idx}.bin`)
/// back into its key; foreign files decode to `None` and are ignored.
fn parse_chunk_name(name: &str) -> Option<ChunkKey> {
    let rest = name.strip_prefix('s')?.strip_suffix(".bin")?;
    let mut parts = rest.split('_');
    let session: u64 = parts.next()?.parse().ok()?;
    let layer: u32 = parts.next()?.strip_prefix('l')?.parse().ok()?;
    let kind = match parts.next()? {
        "h" => crate::StateKind::Hidden,
        "k" => crate::StateKind::Key,
        "v" => crate::StateKind::Value,
        _ => return None,
    };
    let chunk_idx: u32 = parts.next()?.strip_prefix('c')?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(ChunkKey {
        stream: StreamId {
            session,
            layer,
            kind,
        },
        chunk_idx,
    })
}

impl ChunkStore for FileStore {
    fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        use std::io::Write;
        let dev = device_for(&key, self.counters.len());
        let io = |e: std::io::Error| StorageError::DeviceFailed {
            key,
            device: dev,
            transient: false,
            msg: e.to_string(),
        };
        let dst = self.path_for(&key);
        let tmp = dst.with_extension("tmp");
        // Temp file + sync + atomic rename: a crash at any point leaves
        // either the previous image or the new one under the live name,
        // never a torn mix. The parent-directory fsync pins the rename.
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(data).map_err(io)?;
        if self.sync {
            f.sync_all().map_err(io)?;
        }
        drop(f);
        std::fs::rename(&tmp, &dst).map_err(io)?;
        if self.sync {
            if let Some(parent) = dst.parent() {
                if let Ok(d) = std::fs::File::open(parent) {
                    let _ = d.sync_all();
                }
            }
        }
        // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
        self.counters[dev].writes.fetch_add(1, Ordering::Relaxed);
        self.counters[dev]
            .bytes_written
            // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.index.lock().insert(key, data.len() as u64);
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError> {
        if !self.contains(key) {
            return Err(StorageError::MissingChunk {
                stream: key.stream,
                chunk_idx: key.chunk_idx,
            });
        }
        let dev = device_for(&key, self.counters.len());
        let data = std::fs::read(self.path_for(&key)).map_err(|e| StorageError::DeviceFailed {
            key,
            device: dev,
            transient: false,
            msg: e.to_string(),
        })?;
        // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
        self.counters[dev].reads.fetch_add(1, Ordering::Relaxed);
        self.counters[dev]
            .bytes_read
            // hc-analyze: allow(relaxed) monotonic per-device IO metric; no reader pairs it with other state
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn contains(&self, key: ChunkKey) -> bool {
        self.index.lock().contains_key(&key)
    }

    fn delete_stream(&self, stream: StreamId) -> u64 {
        let mut index = self.index.lock();
        let keys: Vec<ChunkKey> = index
            .keys()
            .filter(|k| k.stream == stream)
            .cloned()
            .collect();
        let mut freed = 0;
        for k in keys {
            let _ = std::fs::remove_file(self.path_for(&k));
            if let Some(sz) = index.remove(&k) {
                freed += sz;
            }
        }
        freed
    }

    fn delete_chunk(&self, key: ChunkKey) -> u64 {
        let mut index = self.index.lock();
        let _ = std::fs::remove_file(self.path_for(&key));
        index.remove(&key).unwrap_or(0)
    }

    fn chunk_keys(&self) -> Vec<ChunkKey> {
        self.index.lock().keys().cloned().collect()
    }

    fn n_devices(&self) -> usize {
        self.counters.len()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            devices: self.counters.iter().map(|c| c.snapshot()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(chunk_idx: u32) -> ChunkKey {
        ChunkKey {
            stream: StreamId::hidden(1, 0),
            chunk_idx,
        }
    }

    fn exercise(store: &dyn ChunkStore) {
        // Roundtrip.
        store.write_chunk(key(0), &[1, 2, 3]).unwrap();
        assert_eq!(store.read_chunk(key(0)).unwrap(), vec![1, 2, 3]);
        assert!(store.contains(key(0)));
        assert!(!store.contains(key(9)));
        // Missing chunk errors.
        assert!(matches!(
            store.read_chunk(key(9)),
            Err(StorageError::MissingChunk { .. })
        ));
        // Overwrite replaces.
        store.write_chunk(key(0), &[9, 9]).unwrap();
        assert_eq!(store.read_chunk(key(0)).unwrap(), vec![9, 9]);
        // Delete stream frees bytes.
        store.write_chunk(key(1), &[0; 10]).unwrap();
        let freed = store.delete_stream(StreamId::hidden(1, 0));
        assert_eq!(freed, 12);
        assert!(!store.contains(key(0)));
    }

    #[test]
    fn memstore_roundtrip() {
        exercise(&MemStore::new(4));
    }

    #[test]
    fn filestore_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hcstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir, 4).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_attribute_io_to_striped_devices() {
        let store = MemStore::new(2);
        for i in 0..4 {
            store.write_chunk(key(i), &[0u8; 8]).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.total_writes(), 4);
        assert_eq!(stats.total_bytes_written(), 32);
        // Round-robin: 2 chunks per device.
        assert_eq!(stats.devices[0].writes, 2);
        assert_eq!(stats.devices[1].writes, 2);
    }

    #[test]
    fn reads_update_stats() {
        let store = MemStore::new(1);
        store.write_chunk(key(0), &[0u8; 16]).unwrap();
        store.read_chunk(key(0)).unwrap();
        store.read_chunk(key(0)).unwrap();
        let s = store.stats();
        assert_eq!(s.total_reads(), 2);
        assert_eq!(s.total_bytes_read(), 32);
    }

    #[test]
    fn delete_only_touches_target_stream() {
        let store = MemStore::new(2);
        let other = ChunkKey {
            stream: StreamId::hidden(2, 0),
            chunk_idx: 0,
        };
        store.write_chunk(key(0), &[1]).unwrap();
        store.write_chunk(other, &[2]).unwrap();
        store.delete_stream(StreamId::hidden(1, 0));
        assert!(store.contains(other));
    }

    #[test]
    fn delete_chunk_and_chunk_keys_roundtrip() {
        for store in [&MemStore::new(2) as &dyn ChunkStore, &{
            let dir = std::env::temp_dir().join(format!("hcstore-chunkops-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            FileStore::new(&dir, 2).unwrap()
        }] {
            store.write_chunk(key(0), &[1, 2]).unwrap();
            store.write_chunk(key(1), &[3, 4, 5]).unwrap();
            let mut keys = store.chunk_keys();
            keys.sort();
            assert_eq!(keys, vec![key(0), key(1)]);
            assert_eq!(store.delete_chunk(key(1)), 3);
            assert_eq!(store.delete_chunk(key(1)), 0, "second delete frees 0");
            assert!(!store.contains(key(1)));
            assert!(store.contains(key(0)));
        }
    }

    #[test]
    fn filestore_open_rebuilds_the_index_from_disk() {
        let dir = std::env::temp_dir().join(format!("hcstore-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let other = ChunkKey {
            stream: StreamId::key(9, 3),
            chunk_idx: 7,
        };
        {
            let store = FileStore::new(&dir, 4).unwrap();
            store.write_chunk(key(0), &[1, 2, 3]).unwrap();
            store.write_chunk(key(5), &[4; 10]).unwrap();
            store.write_chunk(other, &[7; 4]).unwrap();
        }
        // Plus a stray temp file a crash could leave behind.
        std::fs::write(dir.join("dev0/s1_l0_h_c99.tmp"), b"torn").unwrap();
        let store = FileStore::open(&dir, 4).unwrap();
        assert_eq!(store.read_chunk(key(0)).unwrap(), vec![1, 2, 3]);
        assert_eq!(store.read_chunk(key(5)).unwrap(), vec![4; 10]);
        assert_eq!(store.read_chunk(other).unwrap(), vec![7; 4]);
        let mut keys = store.chunk_keys();
        keys.sort();
        assert_eq!(keys, vec![key(0), key(5), other]);
        assert!(!dir.join("dev0/s1_l0_h_c99.tmp").exists(), "tmp swept");
        // Freed bytes equal the rescanned sizes.
        assert_eq!(store.delete_stream(StreamId::hidden(1, 0)), 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_names_roundtrip_through_the_parser() {
        let keys = [
            ChunkKey {
                stream: StreamId::hidden(0, 0),
                chunk_idx: 0,
            },
            ChunkKey {
                stream: StreamId::key(123, 45),
                chunk_idx: 678,
            },
            ChunkKey {
                stream: StreamId::value(u64::MAX, u32::MAX),
                chunk_idx: u32::MAX,
            },
        ];
        for k in keys {
            let kind = match k.stream.kind {
                crate::StateKind::Hidden => "h",
                crate::StateKind::Key => "k",
                crate::StateKind::Value => "v",
            };
            let name = format!(
                "s{}_l{}_{kind}_c{}.bin",
                k.stream.session, k.stream.layer, k.chunk_idx
            );
            assert_eq!(parse_chunk_name(&name), Some(k));
        }
        for bad in [
            "",
            "x.bin",
            "s1_l0_h_c2.tmp",
            "s1_l0_q_c2.bin",
            "s1_l0_h.bin",
        ] {
            assert_eq!(parse_chunk_name(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn filestore_write_errors_name_the_key_and_device() {
        let dir = std::env::temp_dir().join(format!("hcstore-deverr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir, 2).unwrap();
        // Destroy the device directory behind the store's back: the write
        // must fail typed, naming the lane.
        std::fs::remove_dir_all(dir.join("dev0")).unwrap();
        let k = key(0); // chunk 0 of layer 0 → device 0
        let err = store.write_chunk(k, &[1]).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::DeviceFailed {
                    key,
                    device: 0,
                    transient: false,
                    ..
                } if key == k
            ),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
