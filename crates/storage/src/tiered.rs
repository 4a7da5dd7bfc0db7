//! Hierarchical (DRAM + SSD) chunk store.
//!
//! §4 of the paper: "Previous research has suggested using a hierarchical
//! storage backend that combines host DRAM and SSDs (AttentionStore). They
//! also integrate prefetching and caching strategies … orthogonal to our
//! work and can be incorporated to enhance performance further."
//!
//! [`TieredStore`] incorporates it: a byte-capacity DRAM front cache over a
//! capacity backing store, write-through on saves, promote-on-read with LRU
//! eviction. Hot contexts restore from DRAM at link speed; cold ones stream
//! from the backing SSDs.
//!
//! The front tier reports its movements to the capacity control plane:
//! * an optional **eviction callback** fires for every chunk the LRU pushes
//!   out under capacity pressure (the `hc-cachectl` controller and tests
//!   subscribe to it), and
//! * [`TieredStore::delete_stream`] purges the front tier too and accounts
//!   the released DRAM bytes ([`TieredStore::front_bytes_released`]), while
//!   its return value remains the *backing* bytes freed — the durable
//!   figure a quota tracker charges (the front copy is write-through
//!   shadow state, never additional durability).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::backend::{ChunkStore, StoreStats};
use crate::chunk::ChunkKey;
use crate::{StorageError, StreamId};

/// Callback invoked (outside the front-cache lock) for each chunk the LRU
/// evicts under capacity pressure: `(key, bytes)`.
pub type EvictListener = Arc<dyn Fn(ChunkKey, u64) + Send + Sync>;

struct FrontCache {
    chunks: HashMap<ChunkKey, (Vec<u8>, u64)>,
    used_bytes: u64,
    clock: u64,
}

impl FrontCache {
    fn touch_get(&mut self, key: &ChunkKey) -> Option<Vec<u8>> {
        self.clock += 1;
        let clock = self.clock;
        self.chunks.get_mut(key).map(|(data, stamp)| {
            *stamp = clock;
            data.clone()
        })
    }

    /// Inserts `data`, returning the chunks evicted to make room.
    fn insert(&mut self, key: ChunkKey, data: &[u8], capacity: u64) -> Vec<(ChunkKey, u64)> {
        if data.len() as u64 > capacity {
            return Vec::new();
        }
        self.clock += 1;
        if let Some((old, _)) = self.chunks.remove(&key) {
            self.used_bytes -= old.len() as u64;
        }
        let mut evicted = Vec::new();
        while self.used_bytes + data.len() as u64 > capacity && !self.chunks.is_empty() {
            let victim = *self
                .chunks
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
                // hc-analyze: allow(panic) invariant: the loop guard just checked !self.chunks.is_empty()
                .expect("non-empty");
            if let Some((old, _)) = self.chunks.remove(&victim) {
                self.used_bytes -= old.len() as u64;
                evicted.push((victim, old.len() as u64));
            }
        }
        self.used_bytes += data.len() as u64;
        self.chunks.insert(key, (data.to_vec(), self.clock));
        evicted
    }

    /// Removes every chunk of `stream`; returns DRAM bytes released.
    fn delete_stream(&mut self, stream: StreamId) -> u64 {
        let keys: Vec<ChunkKey> = self
            .chunks
            .keys()
            .filter(|k| k.stream == stream)
            .cloned()
            .collect();
        let mut freed = 0;
        for k in keys {
            if let Some((old, _)) = self.chunks.remove(&k) {
                self.used_bytes -= old.len() as u64;
                freed += old.len() as u64;
            }
        }
        freed
    }
}

/// DRAM-front / SSD-back hierarchical chunk store.
pub struct TieredStore<B: ChunkStore> {
    back: Arc<B>,
    front: Mutex<FrontCache>,
    front_capacity: u64,
    front_hits: AtomicU64,
    front_misses: AtomicU64,
    front_evictions: AtomicU64,
    front_released: AtomicU64,
    evict_listener: Mutex<Option<EvictListener>>,
}

impl<B: ChunkStore> TieredStore<B> {
    /// Wraps `back` with a DRAM cache of `front_capacity_bytes`.
    pub fn new(back: Arc<B>, front_capacity_bytes: u64) -> Self {
        Self {
            back,
            front: Mutex::new(FrontCache {
                chunks: HashMap::new(),
                used_bytes: 0,
                clock: 0,
            }),
            front_capacity: front_capacity_bytes,
            front_hits: AtomicU64::new(0),
            front_misses: AtomicU64::new(0),
            front_evictions: AtomicU64::new(0),
            front_released: AtomicU64::new(0),
            evict_listener: Mutex::new(None),
        }
    }

    /// Registers a callback fired for every chunk the front LRU evicts
    /// under capacity pressure (not for overwrites or stream deletes). The
    /// callback runs outside the cache lock, so it may query this store.
    pub fn set_evict_listener(&self, listener: impl Fn(ChunkKey, u64) + Send + Sync + 'static) {
        *self.evict_listener.lock() = Some(Arc::new(listener));
    }

    fn report_evictions(&self, evicted: Vec<(ChunkKey, u64)>) {
        if evicted.is_empty() {
            return;
        }
        self.front_evictions
            // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        // Clone the listener handle out of its lock before invoking it: a
        // callback that reads this store can trigger a promote-on-read
        // eviction, which re-enters here — holding the (non-reentrant)
        // listener mutex across the call would self-deadlock.
        let listener = self.evict_listener.lock().clone();
        if let Some(cb) = listener {
            for (key, bytes) in &evicted {
                cb(*key, *bytes);
            }
        }
    }

    /// Reads served from DRAM so far.
    pub fn front_hits(&self) -> u64 {
        // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
        self.front_hits.load(Ordering::Relaxed)
    }

    /// Reads that had to go to the backing store.
    pub fn front_misses(&self) -> u64 {
        // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
        self.front_misses.load(Ordering::Relaxed)
    }

    /// Chunks evicted from DRAM by capacity pressure so far.
    pub fn front_evictions(&self) -> u64 {
        // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
        self.front_evictions.load(Ordering::Relaxed)
    }

    /// DRAM bytes released by `delete_stream` purges so far.
    pub fn front_bytes_released(&self) -> u64 {
        // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
        self.front_released.load(Ordering::Relaxed)
    }

    /// Bytes currently cached in DRAM.
    pub fn front_used_bytes(&self) -> u64 {
        self.front.lock().used_bytes
    }

    /// Backing store handle.
    pub fn back(&self) -> &Arc<B> {
        &self.back
    }
}

impl<B: ChunkStore> ChunkStore for TieredStore<B> {
    fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        // Write-through: durability lives in the backing store; the front
        // keeps the hot copy.
        self.back.write_chunk(key, data)?;
        let evicted = self.front.lock().insert(key, data, self.front_capacity);
        self.report_evictions(evicted);
        Ok(())
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError> {
        if let Some(data) = self.front.lock().touch_get(&key) {
            // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
            self.front_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(data);
        }
        let data = self.back.read_chunk(key)?;
        // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
        self.front_misses.fetch_add(1, Ordering::Relaxed);
        // Promote on read.
        let evicted = self.front.lock().insert(key, &data, self.front_capacity);
        self.report_evictions(evicted);
        Ok(data)
    }

    fn contains(&self, key: ChunkKey) -> bool {
        self.back.contains(key)
    }

    fn chunk_in_fast_tier(&self, key: ChunkKey) -> bool {
        // Read-only peek: no LRU touch, so probing for the read-plan decision
        // never perturbs eviction order.
        self.front.lock().chunks.contains_key(&key)
    }

    fn delete_stream(&self, stream: StreamId) -> u64 {
        let front_freed = self.front.lock().delete_stream(stream);
        self.front_released
            // hc-analyze: allow(relaxed) monotonic DRAM-tier metric; no reader pairs it with other state
            .fetch_add(front_freed, Ordering::Relaxed);
        // The durable figure: what the quota tracker charged for this
        // stream lives in the backing store; the DRAM copy was a shadow.
        self.back.delete_stream(stream)
    }

    fn delete_chunk(&self, key: ChunkKey) -> u64 {
        // Purge the DRAM shadow too, so a recovery sweep cannot leave a
        // stale front copy serving a deleted chunk.
        {
            let mut front = self.front.lock();
            if let Some((old, _)) = front.chunks.remove(&key) {
                front.used_bytes -= old.len() as u64;
            }
        }
        self.back.delete_chunk(key)
    }

    fn chunk_keys(&self) -> Vec<ChunkKey> {
        self.back.chunk_keys()
    }

    fn warm_chunk(&self, key: ChunkKey, data: &[u8]) -> u64 {
        // Recovery re-warm: admit through the normal policy (LRU order =
        // replay order, oversize chunks bypass), no backing-store IO.
        // Reports the bytes the front holds for `key` afterwards, so the
        // recovery tally counts chunks a validation read already
        // promoted.
        let (resident, evicted) = {
            let mut front = self.front.lock();
            let evicted = front.insert(key, data, self.front_capacity);
            (front.chunks.contains_key(&key), evicted)
        };
        self.report_evictions(evicted);
        if resident {
            data.len() as u64
        } else {
            0
        }
    }

    fn n_devices(&self) -> usize {
        self.back.n_devices()
    }

    fn stats(&self) -> StoreStats {
        self.back.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStore;

    fn key(chunk_idx: u32) -> ChunkKey {
        ChunkKey {
            stream: StreamId::hidden(1, 0),
            chunk_idx,
        }
    }

    fn tiered(capacity: u64) -> TieredStore<MemStore> {
        TieredStore::new(Arc::new(MemStore::new(2)), capacity)
    }

    #[test]
    fn reads_hit_dram_after_write_through() {
        let t = tiered(1024);
        t.write_chunk(key(0), &[1, 2, 3]).unwrap();
        assert_eq!(t.read_chunk(key(0)).unwrap(), vec![1, 2, 3]);
        assert_eq!(t.front_hits(), 1);
        assert_eq!(t.front_misses(), 0);
        // The backing store never saw the read.
        assert_eq!(t.back().stats().total_reads(), 0);
    }

    #[test]
    fn cold_reads_promote() {
        let t = tiered(100);
        // Fill with chunk 0, evict it with chunks 1..4, then re-read 0.
        for i in 0..4 {
            t.write_chunk(key(i), &[i as u8; 40]).unwrap();
        }
        assert!(t.front_used_bytes() <= 100);
        let _ = t.read_chunk(key(0)).unwrap();
        assert_eq!(t.front_misses(), 1);
        // Now hot.
        let _ = t.read_chunk(key(0)).unwrap();
        assert_eq!(t.front_hits(), 1);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let t = tiered(128);
        for i in 0..50 {
            t.write_chunk(key(i), &[0u8; 32]).unwrap();
            assert!(t.front_used_bytes() <= 128);
        }
        // Everything still readable through the back.
        for i in 0..50 {
            assert_eq!(t.read_chunk(key(i)).unwrap().len(), 32);
        }
    }

    #[test]
    fn lru_keeps_recently_used_chunks() {
        let t = tiered(96); // three 32-byte chunks
        for i in 0..3 {
            t.write_chunk(key(i), &[i as u8; 32]).unwrap();
        }
        let _ = t.read_chunk(key(0)).unwrap(); // refresh 0
        t.write_chunk(key(3), &[3; 32]).unwrap(); // evicts 1 (LRU)
        let hits_before = t.front_hits();
        let _ = t.read_chunk(key(0)).unwrap();
        assert_eq!(t.front_hits(), hits_before + 1, "0 must still be hot");
        let misses_before = t.front_misses();
        let _ = t.read_chunk(key(1)).unwrap();
        assert_eq!(t.front_misses(), misses_before + 1, "1 must be cold");
    }

    #[test]
    fn oversized_chunk_bypasses_front() {
        let t = tiered(8);
        t.write_chunk(key(0), &[0u8; 64]).unwrap();
        assert_eq!(t.front_used_bytes(), 0);
        assert_eq!(t.read_chunk(key(0)).unwrap().len(), 64);
        assert_eq!(t.front_misses(), 1);
    }

    #[test]
    fn fast_tier_flag_tracks_front_residency_without_lru_touch() {
        let t = tiered(64); // two 32-byte chunks
        t.write_chunk(key(0), &[0u8; 32]).unwrap();
        t.write_chunk(key(1), &[1u8; 32]).unwrap();
        assert!(t.chunk_in_fast_tier(key(0)));
        assert!(t.chunk_in_fast_tier(key(1)));
        assert!(!t.chunk_in_fast_tier(key(2)));
        // Probing chunk 0 many times must not refresh it: the next write
        // still evicts it as the LRU victim.
        for _ in 0..10 {
            assert!(t.chunk_in_fast_tier(key(0)));
        }
        t.write_chunk(key(2), &[2u8; 32]).unwrap();
        assert!(!t.chunk_in_fast_tier(key(0)), "probe must not touch LRU");
        assert!(t.chunk_in_fast_tier(key(1)));
        assert!(t.chunk_in_fast_tier(key(2)));
    }

    #[test]
    fn warm_chunk_admits_through_policy_without_back_io() {
        let t = tiered(64); // two 32-byte chunks
        assert_eq!(t.warm_chunk(key(0), &[0u8; 32]), 32);
        assert_eq!(t.warm_chunk(key(1), &[1u8; 32]), 32);
        assert!(t.chunk_in_fast_tier(key(0)) && t.chunk_in_fast_tier(key(1)));
        // Re-warming an already-hot chunk reports it still resident.
        assert_eq!(t.warm_chunk(key(0), &[0u8; 32]), 32);
        // Oversize bypasses the front, exactly like write-through.
        assert_eq!(t.warm_chunk(key(3), &[9u8; 65]), 0);
        assert!(!t.chunk_in_fast_tier(key(3)));
        // Capacity pressure still evicts: warming a third chunk pushes
        // out the LRU (chunk 1 — chunk 0 was re-warmed later).
        assert_eq!(t.warm_chunk(key(4), &[4u8; 32]), 32);
        assert!(!t.chunk_in_fast_tier(key(1)));
        // Warming is a DRAM-only movement: the backing store saw no IO.
        assert_eq!(t.back().stats().total_reads(), 0);
        assert_eq!(t.back().stats().total_writes(), 0);
    }

    #[test]
    fn delete_purges_both_tiers() {
        let t = tiered(1024);
        t.write_chunk(key(0), &[1; 16]).unwrap();
        let freed = t.delete_stream(StreamId::hidden(1, 0));
        assert_eq!(freed, 16, "returned figure is the durable (back) bytes");
        assert_eq!(t.front_bytes_released(), 16, "DRAM copy released too");
        assert_eq!(t.front_used_bytes(), 0);
        assert!(t.read_chunk(key(0)).is_err());
    }

    #[test]
    fn evict_listener_sees_capacity_evictions_only() {
        let t = Arc::new(tiered(64)); // two 32-byte chunks
        let evicted: Arc<Mutex<Vec<(ChunkKey, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&evicted);
        t.set_evict_listener(move |k, b| sink.lock().push((k, b)));
        t.write_chunk(key(0), &[0u8; 32]).unwrap();
        t.write_chunk(key(1), &[1u8; 32]).unwrap();
        assert!(evicted.lock().is_empty(), "no pressure yet");
        // Overwrite is replacement, not eviction.
        t.write_chunk(key(1), &[9u8; 32]).unwrap();
        assert!(evicted.lock().is_empty());
        // Third chunk evicts the LRU (chunk 0).
        t.write_chunk(key(2), &[2u8; 32]).unwrap();
        assert_eq!(evicted.lock().as_slice(), &[(key(0), 32)]);
        assert_eq!(t.front_evictions(), 1);
        // Stream deletes do not fire the listener.
        t.delete_stream(StreamId::hidden(1, 0));
        assert_eq!(evicted.lock().len(), 1);
    }

    #[test]
    fn evict_listener_may_reenter_the_store() {
        // A listener that reads through the store can trigger a
        // promote-on-read eviction and re-enter the reporting path; this
        // must not deadlock on the listener mutex.
        let t = Arc::new(tiered(64)); // two 32-byte chunks
        t.write_chunk(key(0), &[0u8; 32]).unwrap();
        t.write_chunk(key(1), &[1u8; 32]).unwrap();
        let store = Arc::clone(&t);
        t.set_evict_listener(move |_, _| {
            let _ = store.read_chunk(key(0));
        });
        // Evicts chunk 0 → listener promotes it back → evicts chunk 1 →
        // listener reads chunk 0 again (front hit) → terminates.
        t.write_chunk(key(2), &[2u8; 32]).unwrap();
        assert!(t.front_evictions() >= 2);
        assert_eq!(t.read_chunk(key(0)).unwrap(), vec![0u8; 32]);
    }

    #[test]
    fn used_bytes_accounting_under_interleaved_append_read_delete() {
        // Drive the tier through a manager so chunked appends, tail
        // rewrites, restoration reads and deletes all interleave, and check
        // the DRAM accounting at every step.
        use crate::manager::StorageManager;
        let store = Arc::new(tiered(100 * 16 * 2)); // room for ~100 rows at D=16
        let mgr = StorageManager::new(Arc::clone(&store), 16);
        let row = |v: f32| vec![v; 16];
        let mk_rows = |n: usize, v: f32| hc_tensor::Tensor2::from_fn(n, 16, |_, _| v);
        let s1 = StreamId::hidden(1, 0);
        let s2 = StreamId::hidden(2, 0);
        mgr.append_rows(s1, &mk_rows(64, 1.0)).unwrap();
        assert_eq!(store.front_used_bytes(), 64 * 16 * 2);
        mgr.append_row(s2, &row(2.0)).unwrap();
        mgr.flush_stream(s2).unwrap();
        assert_eq!(store.front_used_bytes(), 64 * 16 * 2 + 16 * 2);
        // Reads of cached chunks do not change occupancy.
        let before = store.front_used_bytes();
        let _ = mgr.read_rows(s1, 0, 64).unwrap();
        assert_eq!(store.front_used_bytes(), before);
        assert!(store.front_hits() > 0);
        // Growing the s2 tail rewrites its front chunk in place.
        mgr.append_row(s2, &row(3.0)).unwrap();
        mgr.flush_stream(s2).unwrap();
        assert_eq!(store.front_used_bytes(), 64 * 16 * 2 + 2 * 16 * 2);
        // Deleting session 1 releases exactly its DRAM bytes.
        let freed = mgr.delete_session(1);
        assert_eq!(freed, 64 * 16 * 2);
        assert_eq!(store.front_used_bytes(), 2 * 16 * 2);
        assert_eq!(store.front_bytes_released(), 64 * 16 * 2);
        // Every read so far was a DRAM hit (all chunks written through).
        assert_eq!(store.front_misses(), 0);
        // Session 2 data still correct after all the churn.
        let back = mgr.read_rows(s2, 0, 2).unwrap();
        assert_eq!(back.get(1, 0), 3.0);
        mgr.delete_session(2);
        assert_eq!(store.front_used_bytes(), 0);
    }

    #[test]
    fn works_under_manager_and_two_stage_saver() {
        use crate::manager::StorageManager;
        use crate::two_stage::{SaveMode, StateSaver};
        let store = Arc::new(tiered(1 << 20));
        let mgr = Arc::new(StorageManager::new(store, 8));
        let saver = StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage);
        let row = vec![1.5f32; 8];
        for _ in 0..70 {
            saver
                .save_batch(&[(StreamId::hidden(3, 0), row.as_slice())])
                .unwrap();
        }
        saver.barrier_and_flush(3).unwrap();
        let back = mgr.read_rows(StreamId::hidden(3, 0), 0, 70).unwrap();
        assert_eq!(back.rows(), 70);
        assert_eq!(back.get(69, 0), 1.5);
        // Restoration read was a DRAM hit (just written through).
        assert!(mgr.store().front_hits() > 0);
    }
}
