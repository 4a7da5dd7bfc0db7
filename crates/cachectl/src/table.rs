//! Structure-of-arrays session bookkeeping for the million-session
//! control plane.
//!
//! The controller's original per-session state was a `HashMap<u64,
//! SessionEntry>` of heap cells plus a second `HashMap` ledger inside
//! `QuotaTracker` — two pointer-chasing maps the eviction path re-scanned
//! in full for every victim. At the paper's serving scale (millions of
//! concurrent conversations) that layout is cache-hostile and O(n) per
//! demotion. This module replaces it with the layout the rust_dt
//! architecture note reaches 5M agents with: one dense **column per
//! field**, a stable id→slot map, and an **ordered-set LRU** whose
//! victim selection is O(log n).
//!
//! ## Columns
//!
//! A session is a *slot* — an index into parallel `Vec`s:
//!
//! ```text
//! slot →  ids[]  bytes[]  last_touch[]  n_tokens[]  tenant[]  mix[]
//!         u64    u64      u64 (epoch)   u64         u32       u32 handle
//! ```
//!
//! Slots are dense: closing a session swap-removes its row (the last row
//! moves into the hole and the id→slot map is repaired), so iteration
//! always touches `len` contiguous rows.
//!
//! Per-layer method mixes are **interned** ([`MixTable`]): sessions store
//! a `u32` handle, and the demotion ladder hidden→KV→recompute is a
//! cached handle→handle edge, so demoting a session never allocates —
//! the distinct mixes alive at any time are bounded by
//! `admission schemes × n_layers`, not by session count.
//!
//! ## Ordered-set LRU
//!
//! Every mutating touch advances a monotonic `epoch` and stamps the
//! session's `last_touch` column. Evictable sessions (resident bytes > 0
//! and a demotable layer remaining) are also keyed into one
//! `BTreeSet<(last_touch, session_id)>`, so victim selection is exact
//! LRU: the set's first entry is the coldest session, and a touch moves
//! its key with one O(log n) remove and insert. Ties cannot occur (epochs
//! are unique per touch); the key's second field is the documented
//! tie-break of the scan-based [`crate::policy::LruPolicy`] reference,
//! the session id.
//!
//! ## Byte accounting
//!
//! The `bytes` column *is* the quota ledger. Every charge/credit flows
//! through [`SessionTable::set_bytes`]/[`SessionTable::credit`], which
//! maintain an `AtomicU64` grand total and a per-tenant total — and, in
//! debug builds, assert after **every** mutation that the column sum
//! equals the atomic total, so accounting drift is caught at the exact
//! mutation that introduced it instead of surfacing as a slow quota leak.

// Lock discipline: the table itself takes no locks — every mutator runs
// under the controller's single `state` mutex (see lib.rs), and the only
// concurrent surface is the `total_bytes` atomic, published with Release
// so lock-free quota polls pair with it via Acquire.
// hc-analyze: lock-order st=state

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use hc_sched::partition::LayerMethod;

use crate::placement::Placement;

/// Interned per-layer method mixes with cached demotion edges.
///
/// Handles are dense `u32`s; two sessions with the same mix share one
/// handle. [`MixTable::demote`] returns the ladder successor (first
/// non-recompute layer dropped to `Recompute`), interning it on first
/// use — the ladder from any admission scheme has at most `n_layers`
/// states, so the table stays tiny regardless of session count.
#[derive(Debug)]
pub struct MixTable {
    by_methods: HashMap<Vec<LayerMethod>, u32>,
    methods: Vec<Vec<LayerMethod>>,
    /// `Some((layer, old_method, successor_handle))` once computed;
    /// `None` either "not yet computed" (`demotable == true`) or
    /// "fully dropped" (`demotable == false`).
    demoted: Vec<Option<(usize, LayerMethod, u32)>>,
    next_demotable: Vec<Option<usize>>,
}

impl MixTable {
    /// An empty mix registry.
    pub fn new() -> Self {
        Self {
            by_methods: HashMap::new(),
            methods: Vec::new(),
            demoted: Vec::new(),
            next_demotable: Vec::new(),
        }
    }

    /// Interns a mix, returning its handle. Validates the §4.1.2
    /// recompute-prefix invariant (panics on violation, same as
    /// [`Placement::from_methods`]).
    pub fn intern(&mut self, methods: &[LayerMethod]) -> u32 {
        if let Some(&h) = self.by_methods.get(methods) {
            return h;
        }
        // Validate the prefix invariant once per distinct mix.
        let placement = Placement::from_methods(methods.to_vec());
        let h = self.methods.len() as u32;
        self.by_methods.insert(methods.to_vec(), h);
        self.next_demotable.push(placement.next_demotable());
        self.methods.push(methods.to_vec());
        self.demoted.push(None);
        h
    }

    /// The mix behind a handle.
    pub fn methods(&self, h: u32) -> &[LayerMethod] {
        &self.methods[h as usize]
    }

    /// The layer the next demotion would drop, or `None` when fully
    /// dropped.
    pub fn next_demotable(&self, h: u32) -> Option<usize> {
        self.next_demotable[h as usize]
    }

    /// True when every layer of the mix recomputes.
    pub fn is_fully_dropped(&self, h: u32) -> bool {
        self.next_demotable[h as usize].is_none()
    }

    /// The ladder successor of `h`: the first non-recompute layer becomes
    /// `Recompute`. Returns `(layer, old_method, successor_handle)`, or
    /// `None` when fully dropped. Cached after the first call.
    pub fn demote(&mut self, h: u32) -> Option<(usize, LayerMethod, u32)> {
        let layer = self.next_demotable[h as usize]?;
        if let Some(edge) = self.demoted[h as usize] {
            return Some(edge);
        }
        let mut next = self.methods[h as usize].clone();
        let old = next[layer];
        next[layer] = LayerMethod::Recompute;
        let succ = self.intern(&next);
        let edge = (layer, old, succ);
        self.demoted[h as usize] = Some(edge);
        Some(edge)
    }

    /// Number of distinct mixes interned.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

impl Default for MixTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Byte totals for one tenant (a row of [`SessionTable::tenant_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Resident bytes charged to the tenant's sessions.
    pub bytes: u64,
    /// Live sessions owned by the tenant.
    pub sessions: u64,
}

/// The structure-of-arrays session store (see module docs).
#[derive(Debug)]
pub struct SessionTable {
    // -- columns (parallel, dense; index = slot) ------------------------
    ids: Vec<u64>,
    bytes: Vec<u64>,
    last_touch: Vec<u64>,
    n_tokens: Vec<u64>,
    tenant: Vec<u32>,
    mix: Vec<u32>,

    slot_of: HashMap<u64, u32>,
    mixes: MixTable,

    // -- LRU ---------------------------------------------------------------
    /// `(last_touch, id)` of exactly the evictable sessions, coldest first.
    lru: BTreeSet<(u64, u64)>,
    /// Monotonic touch epoch; unique per mutating touch.
    epoch: u64,

    // -- byte accounting -------------------------------------------------
    total_bytes: AtomicU64,
    per_tenant: Vec<TenantUsage>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            bytes: Vec::new(),
            last_touch: Vec::new(),
            n_tokens: Vec::new(),
            tenant: Vec::new(),
            mix: Vec::new(),
            slot_of: HashMap::new(),
            mixes: MixTable::new(),
            lru: BTreeSet::new(),
            epoch: 0,
            total_bytes: AtomicU64::new(0),
            per_tenant: Vec::new(),
        }
    }

    // -- introspection ---------------------------------------------------

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no session is open.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The interned mix registry.
    pub fn mixes(&self) -> &MixTable {
        &self.mixes
    }

    /// Mutable access to the mix registry (admission interns through it).
    pub fn mixes_mut(&mut self) -> &mut MixTable {
        &mut self.mixes
    }

    /// The current monotonic touch epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resident bytes across all sessions (the atomic grand total the
    /// byte column mirrors).
    pub fn total_bytes(&self) -> u64 {
        // Acquire pairs with the Release writes under the table lock so a
        // lock-free quota poll never reads a total older than the column
        // mutation it raced with.
        self.total_bytes.load(Ordering::Acquire)
    }

    /// Recomputed sum of the byte column. Always equals
    /// [`SessionTable::total_bytes`]; debug builds assert it after every
    /// mutation, and the controller bench reports the difference (must be
    /// exactly 0) across its churn sweep.
    pub fn column_bytes_sum(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Per-tenant usage (zeros for tenants never seen).
    pub fn tenant_usage(&self, tenant: u32) -> TenantUsage {
        self.per_tenant
            .get(tenant as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of tenant rows allocated (highest tenant id seen + 1).
    pub fn n_tenants(&self) -> usize {
        self.per_tenant.len()
    }

    /// Sessions currently in the LRU (evictable: bytes > 0 and a
    /// demotable layer remaining).
    pub fn evictable_count(&self) -> usize {
        self.lru.len()
    }

    /// The slot of a session id, if open.
    pub fn slot(&self, id: u64) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// True when the session is open.
    pub fn contains(&self, id: u64) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// A session's resident bytes.
    pub fn bytes_of(&self, id: u64) -> Option<u64> {
        self.slot(id).map(|s| self.bytes[s as usize])
    }

    /// A session's history length in tokens.
    pub fn n_tokens_of(&self, id: u64) -> Option<u64> {
        self.slot(id).map(|s| self.n_tokens[s as usize])
    }

    /// A session's tenant.
    pub fn tenant_of(&self, id: u64) -> Option<u32> {
        self.slot(id).map(|s| self.tenant[s as usize])
    }

    /// A session's last-touch epoch.
    pub fn last_touch_of(&self, id: u64) -> Option<u64> {
        self.slot(id).map(|s| self.last_touch[s as usize])
    }

    /// A session's mix handle.
    pub fn mix_of(&self, id: u64) -> Option<u32> {
        self.slot(id).map(|s| self.mix[s as usize])
    }

    /// A session's per-layer methods (cloned out of the intern table).
    pub fn methods_of(&self, id: u64) -> Option<Vec<LayerMethod>> {
        self.mix_of(id).map(|h| self.mixes.methods(h).to_vec())
    }

    // -- column access by slot -------------------------------------------

    /// Session id at a slot.
    pub fn id_at(&self, slot: u32) -> u64 {
        self.ids[slot as usize]
    }

    /// Resident bytes at a slot.
    pub fn bytes_at(&self, slot: u32) -> u64 {
        self.bytes[slot as usize]
    }

    /// Last-touch epoch at a slot.
    pub fn last_touch_at(&self, slot: u32) -> u64 {
        self.last_touch[slot as usize]
    }

    /// History length at a slot.
    pub fn n_tokens_at(&self, slot: u32) -> u64 {
        self.n_tokens[slot as usize]
    }

    /// Tenant at a slot.
    pub fn tenant_at(&self, slot: u32) -> u32 {
        self.tenant[slot as usize]
    }

    /// Mix handle at a slot.
    pub fn mix_at(&self, slot: u32) -> u32 {
        self.mix[slot as usize]
    }

    // -- mutation --------------------------------------------------------

    /// Opens (or re-admits) a session under `tenant` with an interned
    /// `mix` handle, stamping the touch epoch. Re-opening an existing id
    /// keeps its resident bytes (the storage layer still holds them) but
    /// adopts the new tenant, mix, and a zero history.
    ///
    /// # Panics
    /// Panics when `mix` is not a handle of this table's registry.
    pub fn open(&mut self, id: u64, tenant: u32, mix: u32) -> u32 {
        assert!(
            (mix as usize) < self.mixes.len(),
            "mix handle {mix} not interned"
        );
        self.epoch += 1;
        if self.per_tenant.len() <= tenant as usize {
            self.per_tenant
                .resize(tenant as usize + 1, TenantUsage::default());
        }
        let slot = match self.slot_of.get(&id) {
            Some(&slot) => {
                let s = slot as usize;
                let old_touch = self.last_touch[s];
                let old_tenant = self.tenant[s] as usize;
                let carried = self.bytes[s];
                self.per_tenant[old_tenant].bytes -= carried;
                self.per_tenant[old_tenant].sessions -= 1;
                self.per_tenant[tenant as usize].bytes += carried;
                self.per_tenant[tenant as usize].sessions += 1;
                self.tenant[s] = tenant;
                self.mix[s] = mix;
                self.n_tokens[s] = 0;
                self.last_touch[s] = self.epoch;
                self.refile(s, old_touch);
                slot
            }
            None => {
                let slot = self.ids.len() as u32;
                self.ids.push(id);
                self.bytes.push(0);
                self.last_touch.push(self.epoch);
                self.n_tokens.push(0);
                self.tenant.push(tenant);
                self.mix.push(mix);
                self.slot_of.insert(id, slot);
                self.per_tenant[tenant as usize].sessions += 1;
                slot
            }
        };
        self.debug_check_drift();
        slot
    }

    /// Stamps a session with a fresh touch epoch (LRU recency). Returns
    /// false when the id is unknown.
    pub fn touch(&mut self, id: u64) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        self.epoch += 1;
        let s = slot as usize;
        let old_touch = self.last_touch[s];
        self.last_touch[s] = self.epoch;
        self.refile(s, old_touch);
        true
    }

    /// Records a session's history length.
    pub fn set_n_tokens(&mut self, id: u64, n_tokens: u64) -> bool {
        match self.slot(id) {
            Some(slot) => {
                self.n_tokens[slot as usize] = n_tokens;
                true
            }
            None => false,
        }
    }

    /// Reconciles a session's resident bytes to an observed figure (what
    /// the storage layer reports), stamping a fresh touch epoch and
    /// re-evaluating LRU membership. This is the charge path: the byte
    /// column, the per-tenant total, and the atomic grand total move
    /// together, and debug builds assert the column sum equals the total
    /// before returning. Returns false when the id is unknown.
    pub fn set_bytes(&mut self, id: u64, bytes: u64) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        self.epoch += 1;
        let s = slot as usize;
        let old_touch = self.last_touch[s];
        let old = self.bytes[s];
        self.bytes[s] = bytes;
        self.last_touch[s] = self.epoch;
        let t = self.tenant[s] as usize;
        self.per_tenant[t].bytes = self.per_tenant[t].bytes - old + bytes;
        if bytes >= old {
            self.total_bytes.fetch_add(bytes - old, Ordering::Release);
        } else {
            self.total_bytes.fetch_sub(old - bytes, Ordering::Release);
        }
        self.refile(s, old_touch);
        self.debug_check_drift();
        true
    }

    /// Credits `freed` bytes back from a session (a demotion deleted its
    /// streams). Saturating like the old ledger: crediting more than the
    /// charge clamps to zero. Does **not** touch recency (demotion is the
    /// pool's doing, not the session's). The session leaves the LRU when
    /// its charge reaches zero. Returns the bytes actually credited.
    pub fn credit(&mut self, id: u64, freed: u64) -> u64 {
        let Some(slot) = self.slot(id) else {
            return 0;
        };
        let s = slot as usize;
        let take = freed.min(self.bytes[s]);
        self.bytes[s] -= take;
        let t = self.tenant[s] as usize;
        self.per_tenant[t].bytes -= take;
        self.total_bytes.fetch_sub(take, Ordering::Release);
        self.refile(s, self.last_touch[s]);
        self.debug_check_drift();
        take
    }

    /// Demotes a session one rung down the ladder (first non-recompute
    /// layer → `Recompute`). Returns `(layer, old_method)` so the caller
    /// can delete the matching streams and [`SessionTable::credit`] the
    /// freed bytes; `None` when the session is unknown or fully dropped.
    /// Recency is not touched; the session leaves the LRU when its new
    /// mix has nothing left to demote.
    pub fn demote(&mut self, id: u64) -> Option<(usize, LayerMethod)> {
        let slot = self.slot(id)?;
        let s = slot as usize;
        let (layer, old, succ) = self.mixes.demote(self.mix[s])?;
        self.mix[s] = succ;
        self.refile(s, self.last_touch[s]);
        Some((layer, old))
    }

    /// Closes a session: drops it from the LRU, swap-removes its row (the
    /// last row fills the hole; its id→slot entry is repaired), and
    /// returns `(resident_bytes, tenant)` — the charge the caller
    /// releases. `None` when the id is unknown.
    pub fn remove(&mut self, id: u64) -> Option<(u64, u32)> {
        let slot = self.slot(id)?;
        let s = slot as usize;
        self.lru.remove(&(self.last_touch[s], id));
        let bytes = self.bytes[s];
        let tenant = self.tenant[s];
        let t = tenant as usize;
        self.per_tenant[t].bytes -= bytes;
        self.per_tenant[t].sessions -= 1;
        self.total_bytes.fetch_sub(bytes, Ordering::Release);
        self.slot_of.remove(&id);

        self.ids.swap_remove(s);
        self.bytes.swap_remove(s);
        self.last_touch.swap_remove(s);
        self.n_tokens.swap_remove(s);
        self.tenant.swap_remove(s);
        self.mix.swap_remove(s);
        if let Some(&moved) = self.ids.get(s) {
            self.slot_of.insert(moved, slot);
        }
        self.debug_check_drift();
        Some((bytes, tenant))
    }

    // -- victim selection ------------------------------------------------

    /// The evictable sessions, coldest first, that pass
    /// [`SessionTable::coldest_evictable`]'s tenant filter. Yields
    /// `(id, slot)`.
    pub(crate) fn evictable<'a>(
        &'a self,
        tenant_ok: &'a [bool],
    ) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.lru
            .iter()
            .map(|&(_, id)| (id, self.slot_of[&id]))
            .filter(move |&(_, slot)| {
                let t = self.tenant[slot as usize] as usize;
                tenant_ok.is_empty() || *tenant_ok.get(t).unwrap_or(&true)
            })
    }

    /// The coldest evictable session — exact LRU — optionally filtered by
    /// tenant: when `tenant_ok` is non-empty, only sessions whose tenant
    /// index maps to `true` qualify (out-of-range tenants qualify).
    /// Returns `(id, slot)`.
    ///
    /// With no filter this is the set's first entry; a filter walks
    /// forward in exact recency order past filtered-out sessions, so the
    /// cost grows with the number of *colder immune* sessions, not with
    /// the table.
    pub fn coldest_evictable(&self, tenant_ok: &[bool]) -> Option<(u64, u32)> {
        self.evictable(tenant_ok).next()
    }

    // -- internals -------------------------------------------------------

    /// True when slot `s` holds resident bytes and a demotable layer.
    fn is_evictable(&self, s: usize) -> bool {
        self.bytes[s] > 0 && !self.mixes.is_fully_dropped(self.mix[s])
    }

    /// Re-keys slot `s` in the LRU after a mutation: drops its entry
    /// stamped `old_touch` and inserts it at its current stamp when the
    /// session is evictable.
    fn refile(&mut self, s: usize, old_touch: u64) {
        let id = self.ids[s];
        self.lru.remove(&(old_touch, id));
        if self.is_evictable(s) {
            self.lru.insert((self.last_touch[s], id));
        }
    }

    /// Debug-build drift check after every byte mutation: the column sum
    /// must equal the atomic total, per tenant and in aggregate. O(n), so
    /// compiled out of release builds (the controller bench re-checks the
    /// invariant once, explicitly, over its whole churn sweep).
    fn debug_check_drift(&self) {
        #[cfg(debug_assertions)]
        {
            let sum = self.column_bytes_sum();
            assert_eq!(
                sum,
                self.total_bytes.load(Ordering::Acquire),
                "byte column / atomic total drift"
            );
            let tenant_sum: u64 = self.per_tenant.iter().map(|t| t.bytes).sum();
            assert_eq!(tenant_sum, sum, "per-tenant ledger drift");
            let mut evictable = 0;
            for s in 0..self.ids.len() {
                let filed = self.lru.contains(&(self.last_touch[s], self.ids[s]));
                assert_eq!(filed, self.is_evictable(s), "LRU membership drift");
                evictable += usize::from(filed);
            }
            assert_eq!(evictable, self.lru.len(), "stale LRU entries");
        }
    }
}

impl Default for SessionTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_sched::partition::PartitionScheme;

    fn hidden_mix(t: &mut SessionTable, n_layers: usize) -> u32 {
        let methods = PartitionScheme::pure_hidden(n_layers).layer_methods(n_layers);
        t.mixes_mut().intern(&methods)
    }

    #[test]
    fn mix_interning_dedupes_and_walks_the_ladder() {
        let mut m = MixTable::new();
        let h = m.intern(&[
            LayerMethod::Hidden,
            LayerMethod::Hidden,
            LayerMethod::KvOffload,
        ]);
        let h2 = m.intern(&[
            LayerMethod::Hidden,
            LayerMethod::Hidden,
            LayerMethod::KvOffload,
        ]);
        assert_eq!(h, h2);
        assert_eq!(m.len(), 1);
        let (l0, old0, s1) = m.demote(h).unwrap();
        assert_eq!((l0, old0), (0, LayerMethod::Hidden));
        let (l1, old1, s2) = m.demote(s1).unwrap();
        assert_eq!((l1, old1), (1, LayerMethod::Hidden));
        let (l2, old2, s3) = m.demote(s2).unwrap();
        assert_eq!((l2, old2), (2, LayerMethod::KvOffload));
        assert!(m.is_fully_dropped(s3));
        assert_eq!(m.demote(s3), None);
        // The full ladder interned exactly its states, cached thereafter.
        assert_eq!(m.len(), 4);
        assert_eq!(m.demote(h).unwrap().2, s1);
        assert_eq!(m.len(), 4);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn intern_rejects_non_prefix_recompute() {
        MixTable::new().intern(&[LayerMethod::Hidden, LayerMethod::Recompute]);
    }

    #[test]
    fn open_set_bytes_remove_keeps_ledgers_exact() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        t.open(1, 0, mix);
        t.open(2, 1, mix);
        assert!(t.set_bytes(1, 100));
        assert!(t.set_bytes(2, 50));
        assert_eq!(t.total_bytes(), 150);
        assert_eq!(t.column_bytes_sum(), 150);
        assert_eq!(t.tenant_usage(0).bytes, 100);
        assert_eq!(t.tenant_usage(1).bytes, 50);
        assert_eq!(t.tenant_usage(1).sessions, 1);
        assert_eq!(t.remove(1), Some((100, 0)));
        assert_eq!(t.total_bytes(), 50);
        assert_eq!(t.tenant_usage(0), TenantUsage::default());
        assert_eq!(t.bytes_of(2), Some(50));
        assert_eq!(t.remove(1), None);
    }

    #[test]
    fn swap_remove_repairs_the_moved_rows_map_entry_and_links() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        for id in 1..=5u64 {
            t.open(id, 0, mix);
            t.set_bytes(id, 10 * id);
        }
        // Remove the first slot: the last row (id 5) moves into slot 0.
        t.remove(1);
        assert_eq!(t.slot(5), Some(0));
        assert_eq!(t.bytes_of(5), Some(50));
        // LRU order is untouched by the move: 2 is now coldest.
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 2);
        // Removing the coldest keeps the order sound.
        t.remove(2);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 3);
        t.remove(4);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 3);
        t.remove(3);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 5);
        t.remove(5);
        assert_eq!(t.coldest_evictable(&[]), None);
        assert!(t.is_empty());
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn touch_moves_a_session_to_the_warm_end() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        for id in 1..=3u64 {
            t.open(id, 0, mix);
            t.set_bytes(id, 8);
        }
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 1);
        t.touch(1);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 2);
        t.touch(2);
        t.touch(3);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 1);
    }

    #[test]
    fn zero_byte_and_fully_dropped_sessions_leave_the_lru() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 1);
        t.open(1, 0, mix);
        assert_eq!(t.evictable_count(), 0, "no bytes yet");
        t.set_bytes(1, 64);
        assert_eq!(t.evictable_count(), 1);
        // Demote to the floor: nothing demotable remains → out of the LRU
        // even though bytes remain until the credit lands.
        let (layer, old) = t.demote(1).unwrap();
        assert_eq!((layer, old), (0, LayerMethod::Hidden));
        assert_eq!(t.evictable_count(), 0);
        assert_eq!(t.coldest_evictable(&[]), None);
        assert_eq!(t.credit(1, 64), 64);
        assert_eq!(t.total_bytes(), 0);
        // Credit saturates.
        assert_eq!(t.credit(1, 10), 0);
        // A fresh save with a demotable mix re-enters the LRU.
        let kv = t.mixes_mut().intern(&[LayerMethod::KvOffload]);
        t.open(2, 0, kv);
        t.set_bytes(2, 32);
        assert_eq!(t.evictable_count(), 1);
        t.credit(2, 32);
        assert_eq!(t.evictable_count(), 0);
    }

    #[test]
    fn coldest_respects_a_tenant_filter_in_epoch_order() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        // Tenant 0 owns the two coldest sessions, tenant 1 the warm one.
        t.open(1, 0, mix);
        t.set_bytes(1, 10);
        t.open(2, 0, mix);
        t.set_bytes(2, 10);
        t.open(3, 1, mix);
        t.set_bytes(3, 10);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 1);
        // Tenant 0 immune → the walk skips ids 1 and 2 in order.
        assert_eq!(t.coldest_evictable(&[false, true]).unwrap().0, 3);
        // Both immune → nothing.
        assert_eq!(t.coldest_evictable(&[false, false]), None);
        // Filters must not break later unfiltered picks.
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 1);
        // Out-of-range tenants qualify by default.
        t.open(4, 7, mix);
        t.set_bytes(4, 10);
        assert_eq!(t.coldest_evictable(&[false, false]).unwrap().0, 4);
    }

    #[test]
    fn scattered_touches_keep_exact_lru_order() {
        // Victim order must be exact LRU however recency was shuffled.
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        for id in 0..32u64 {
            t.open(id, 0, mix);
            t.set_bytes(id, 4);
        }
        // Touch a scattering so recency != id order.
        for id in [3u64, 0, 17, 9, 0, 25] {
            t.touch(id);
        }
        // Expected order: ascending last_touch — reconstruct by scan.
        let mut expect: Vec<u64> = (0..32).collect();
        expect.sort_by_key(|id| t.last_touch_of(*id).unwrap());
        for want in expect {
            let (got, _) = t.coldest_evictable(&[]).unwrap();
            assert_eq!(got, want);
            t.remove(got);
        }
        assert_eq!(t.coldest_evictable(&[]), None);
    }

    #[test]
    fn reopening_a_session_keeps_its_charge_and_adopts_the_new_tenant() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        t.open(1, 0, mix);
        t.set_bytes(1, 40);
        t.set_n_tokens(1, 64);
        // Re-admission under a new tenant: bytes carry (storage still
        // holds them), history resets.
        t.open(1, 2, mix);
        assert_eq!(t.bytes_of(1), Some(40));
        assert_eq!(t.n_tokens_of(1), Some(0));
        assert_eq!(t.tenant_of(1), Some(2));
        assert_eq!(t.tenant_usage(0).bytes, 0);
        assert_eq!(t.tenant_usage(2).bytes, 40);
        assert_eq!(t.total_bytes(), 40);
        assert_eq!(t.len(), 1);
        assert_eq!(t.evictable_count(), 1, "carried bytes stay evictable");
    }

    #[test]
    fn epoch_gaps_keep_older_sessions_coldest() {
        let mut t = SessionTable::new();
        let mix = hidden_mix(&mut t, 2);
        t.open(1, 0, mix);
        t.set_bytes(1, 4);
        // Burn epochs on churn of a session outside the LRU.
        t.open(2, 0, mix);
        for _ in 0..1000 {
            t.touch(2);
        }
        // Entering the LRU a thousand epochs later must not overtake
        // session 1.
        t.set_bytes(2, 4);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 1);
        t.touch(1);
        assert_eq!(t.coldest_evictable(&[]).unwrap().0, 2);
    }
}
