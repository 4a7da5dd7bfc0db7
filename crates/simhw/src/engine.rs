//! The virtual-time serving engine.

use std::collections::{HashMap, HashSet, VecDeque};

use hc_cachectl::policy::{make_policy, EvictionPolicy, SessionMeta};
use hc_workload::Request;

use crate::config::{SaveOverheadMode, ServingConfig};
use crate::gpu_cache::GpuKvCache;
use crate::metrics::{HostCacheStats, RequestMetrics, ServingReport};
use crate::profile::PlatformProfile;
use crate::sim::{restore_occupancy, RestoreOccupancy};
use crate::storagehw::StorageTier;
use crate::{RestoreMethod, Sec};

/// One in-flight request.
#[derive(Debug, Clone)]
struct Run {
    req: Request,
    /// When this request's restoration IO lands on the GPU (FIFO link).
    io_done_at: Sec,
    /// Remaining GPU seconds of restoration compute (fusable immediately).
    restore_compute_left: Sec,
    /// Remaining GPU seconds of new-prompt prefill + fixed overhead
    /// (fusable after IO lands and restore compute drains).
    prefill_left: Sec,
    /// Tokens still to decode after the first token.
    tokens_left: u32,
    first_token: Option<Sec>,
    cache_hit: bool,
    restored_tokens: u64,
    /// GPU KV footprint while active (paged worst case: final context).
    footprint: u64,
    /// When the restoration phase began (service start).
    service_start: Sec,
}

/// One session's stored state in the simulated host cache pool.
struct HostEntry {
    bytes: u64,
    last_access: Sec,
    n_tokens: u64,
    /// Restore seconds under the configured method (for benefit-per-byte).
    restore_secs_current: f64,
    /// Restore seconds if dropped to recomputation.
    restore_secs_dropped: f64,
}

/// The virtual-time mirror of `hc-cachectl`: per-session stored bytes
/// against a quota, policy-driven whole-session eviction, hit/fallback
/// accounting. (The functional controller demotes layer by layer; the
/// virtual-time engine models restoration per whole session, so eviction
/// here drops the session's state in one step — the coarsest rung of the
/// same ladder.)
struct HostCacheSim {
    quota: u64,
    per_token_bytes: u64,
    policy: Box<dyn EvictionPolicy>,
    entries: HashMap<u64, HostEntry>,
    evicted: HashSet<u64>,
    used: u64,
    stats: HostCacheStats,
}

impl HostCacheSim {
    /// Records a restore attempt; returns true when the session's state
    /// was evicted and the restore must fall back to recomputation.
    /// Sessions never stored by this engine run (histories that predate
    /// the trace) are assumed staged in the pool.
    fn note_restore(&mut self, session: u64) -> bool {
        if self.evicted.contains(&session) {
            self.stats.fallbacks += 1;
            true
        } else {
            self.stats.hits += 1;
            false
        }
    }

    /// Stores a session's post-round state and evicts until under quota.
    fn on_round_complete(
        &mut self,
        session: u64,
        n_tokens: u64,
        now: Sec,
        restore_secs_current: f64,
        restore_secs_dropped: f64,
    ) {
        let bytes = n_tokens * self.per_token_bytes;
        let old = self.entries.insert(
            session,
            HostEntry {
                bytes,
                last_access: now,
                n_tokens,
                restore_secs_current,
                restore_secs_dropped,
            },
        );
        self.used = self.used - old.map_or(0, |e| e.bytes) + bytes;
        // A completed round re-persists the full context, so a previously
        // evicted session is whole again.
        self.evicted.remove(&session);
        while self.used > self.quota && !self.entries.is_empty() {
            let candidates: Vec<SessionMeta> = self
                .entries
                .iter()
                .map(|(id, e)| SessionMeta {
                    session: *id,
                    resident_bytes: e.bytes,
                    last_access: (e.last_access * 1e6) as u64,
                    n_tokens: e.n_tokens,
                    restore_secs_current: e.restore_secs_current,
                    restore_secs_dropped: e.restore_secs_dropped,
                })
                .collect();
            let victim = self.policy.pick_victim(&candidates);
            let entry = self.entries.remove(&victim).expect("candidate exists");
            self.used -= entry.bytes;
            self.evicted.insert(victim);
            self.stats.evictions += 1;
            self.stats.bytes_evicted += entry.bytes;
        }
    }
}

/// Virtual-time continuous-batching serving engine.
pub struct ServingEngine {
    profile: PlatformProfile,
    cfg: ServingConfig,
    /// KV pool capacity in tokens.
    capacity_tokens: u64,
}

impl ServingEngine {
    /// Builds an engine for a platform profile.
    pub fn new(profile: PlatformProfile, cfg: ServingConfig) -> Self {
        let kv_per_token = profile.shape.kv_bytes_per_token() as u64;
        let capacity_tokens = profile
            .platform
            .kv_budget_bytes(profile.shape.weight_bytes())
            / kv_per_token.max(1);
        Self {
            profile,
            cfg,
            capacity_tokens,
        }
    }

    /// KV pool capacity in tokens (how much context fits on the GPU).
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }

    /// Host thread budget this deployment hands to the functional restore
    /// and batch-prefill entry points (`hcache::HCacheSystem` consumes it;
    /// the virtual-time engine itself models time, not host threads).
    pub fn parallel(&self) -> hc_tensor::ParallelConfig {
        self.cfg.parallel
    }

    /// Builds the host-cache quota mirror, if configured and meaningful
    /// for the restore method (methods that store nothing have no pool to
    /// govern).
    fn host_cache_sim(&self) -> Option<HostCacheSim> {
        let quota = self.cfg.host_quota_bytes?;
        let shape = &self.profile.shape;
        let unit = shape.d_model as u64 * shape.elem_bytes as u64 * shape.n_layers as u64;
        let per_token_bytes = match self.cfg.restore_method {
            RestoreMethod::HCache | RestoreMethod::HCacheO => unit,
            RestoreMethod::KvOffload | RestoreMethod::NaiveHybrid => 2 * unit,
            RestoreMethod::Recompute | RestoreMethod::Ideal => 0,
        };
        if per_token_bytes == 0 {
            return None;
        }
        Some(HostCacheSim {
            quota,
            per_token_bytes,
            policy: make_policy(self.cfg.host_policy),
            entries: HashMap::new(),
            evicted: HashSet::new(),
            used: 0,
            stats: HostCacheStats::default(),
        })
    }

    /// Decode-time saving overhead for one iteration of `batch` sequences.
    fn save_overhead(&self, batch: usize) -> Sec {
        if batch == 0 {
            return 0.0;
        }
        let shape = &self.profile.shape;
        let rows = (batch * shape.n_layers) as u64;
        let bytes = rows * shape.d_model as u64 * shape.elem_bytes as u64;
        match self.cfg.save_mode {
            SaveOverheadMode::None => 0.0,
            // Stage-1 snapshot: one PCIe downstream copy of the batch rows.
            SaveOverheadMode::TwoStage => self.profile.platform.snapshot_secs(bytes),
            // One small write per (sequence, layer) row, amortized over the
            // array and the NVMe queue depth, fully on the critical path.
            SaveOverheadMode::DirectIo => match &self.profile.platform.storage {
                StorageTier::Dram => self.profile.platform.snapshot_secs(bytes),
                StorageTier::SsdArray { spec, count } => {
                    let parallel = (count * self.cfg.direct_io_qd) as f64;
                    rows as f64 * spec.io_latency / parallel
                        + bytes as f64 / (spec.write_bw * *count as f64)
                }
            },
        }
    }

    /// Runs the engine over `requests` (must be sorted by arrival).
    /// Returns per-request metrics.
    ///
    /// With [`ServingConfig::serialize_sessions`] on (the default), only a
    /// session's first round uses its trace arrival time; each later round
    /// arrives `round_think_time` seconds after the previous round's
    /// response completes — the paper's conversation model. TTFT is
    /// measured from this *effective* arrival.
    pub fn run(&self, requests: &[Request]) -> ServingReport {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        let mut t: Sec = 0.0;
        let mut io_busy_until: Sec = 0.0;
        // Arrival stream. When serializing sessions, later rounds are held
        // back until their predecessor completes.
        let mut arrivals: VecDeque<Request> = VecDeque::new();
        let mut held_rounds: std::collections::HashMap<u64, VecDeque<Request>> =
            std::collections::HashMap::new();
        if self.cfg.serialize_sessions {
            let mut seen = std::collections::HashSet::new();
            for r in requests {
                if seen.insert(r.session_id) {
                    arrivals.push_back(r.clone());
                } else {
                    held_rounds
                        .entry(r.session_id)
                        .or_default()
                        .push_back(r.clone());
                }
            }
            arrivals
                .make_contiguous()
                .sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        } else {
            arrivals = requests.iter().cloned().collect();
        }
        // Rounds released mid-simulation land here (kept sorted).
        let mut released: Vec<Request> = Vec::new();
        let mut admit_q: VecDeque<Request> = VecDeque::new();
        let mut active: Vec<Run> = Vec::new(); // restoring / prefilling
        let mut batch: Vec<Run> = Vec::new(); // decoding
        let mut lru = GpuKvCache::new(self.capacity_tokens);
        let mut active_resident: u64 = 0;
        let mut done: Vec<RequestMetrics> = Vec::new();
        // Host cache pool mirror (None = unlimited, the paper's setting).
        let mut host = self.host_cache_sim();

        let mut released_cursor = 0usize;
        loop {
            // 1. Move arrived requests into the admission queue (trace
            //    arrivals and think-time-released rounds, in time order).
            loop {
                let next_trace = arrivals.front().map(|r| r.arrival);
                let next_released = released.get(released_cursor).map(|r| r.arrival);
                match (next_trace, next_released) {
                    (Some(a), _) if a <= t && next_released.is_none_or(|b| a <= b) => {
                        admit_q.push_back(arrivals.pop_front().unwrap());
                    }
                    (_, Some(b)) if b <= t => {
                        admit_q.push_back(released[released_cursor].clone());
                        released_cursor += 1;
                    }
                    _ => break,
                }
            }

            // 2. Admit while GPU KV capacity allows. Mostly FIFO, but a
            //    request that does not fit must not convoy smaller ones
            //    behind it (real continuous-batching schedulers admit
            //    whatever fits the KV pool).
            // Anti-starvation: once the oldest queued request has waited
            // beyond the aging threshold, stop admitting younger requests
            // so the pool drains for it (prevents large-context requests
            // from starving behind a stream of small ones).
            let aging = admit_q.front().is_some_and(|r| t - r.arrival > 10.0);
            let mut scan = 0usize;
            while scan < admit_q.len() {
                if aging && scan > 0 {
                    break;
                }
                let front = &admit_q[scan];
                let footprint = front.final_context() as u64;
                // Reclaim this session's own LRU entry (hit) first.
                let cache_hit = self.cfg.reuse_gpu_cache
                    && front.history_tokens > 0
                    && lru.touch(front.session_id).is_some();
                if cache_hit {
                    lru.remove(front.session_id);
                }
                // Evict cold contexts to make room for active work.
                while active_resident + footprint + lru.used_tokens() > self.capacity_tokens
                    && !lru.is_empty()
                {
                    lru.evict_lru();
                }
                let fits =
                    active_resident + footprint <= self.capacity_tokens || active_resident == 0;
                if !fits {
                    // Un-hit: the entry was dropped above; the retry will
                    // miss, which is pessimistic but rare (only under
                    // capacity stalls). Skip to the next queued request.
                    scan += 1;
                    continue;
                }
                let req = admit_q.remove(scan).unwrap();
                let history = req.history_tokens as u64;
                let needs_restore = history > 0 && !cache_hit;
                // Quota check: an evicted session's state is gone; its
                // restore falls back to token recomputation.
                let host_fallback = needs_restore
                    && host
                        .as_mut()
                        .is_some_and(|h| h.note_restore(req.session_id));
                let occ = if needs_restore {
                    let method = if host_fallback {
                        RestoreMethod::Recompute
                    } else {
                        self.cfg.restore_method
                    };
                    restore_occupancy(&self.profile, method, history)
                } else {
                    RestoreOccupancy {
                        io: 0.0,
                        compute: 0.0,
                    }
                };
                let io_done_at = if occ.io > 0.0 {
                    io_busy_until = io_busy_until.max(t) + occ.io;
                    io_busy_until
                } else {
                    t
                };
                let prefill = self.profile.prefill_secs(req.input_tokens as u64, history)
                    + self.cfg.request_overhead;
                active_resident += footprint;
                active.push(Run {
                    footprint,
                    io_done_at,
                    restore_compute_left: occ.compute,
                    prefill_left: prefill,
                    tokens_left: 0,
                    first_token: None,
                    cache_hit,
                    restored_tokens: if needs_restore { history } else { 0 },
                    service_start: t.max(req.arrival),
                    req,
                });
            }

            // 3. Build one iteration: decode + fused restore/prefill work.
            let decode_time = if batch.is_empty() {
                0.0
            } else {
                let total_ctx: u64 = batch.iter().map(|r| r.footprint).sum();
                self.profile.decode_iter_secs(batch.len(), total_ctx)
                    + self.save_overhead(batch.len())
            };
            let mut fused = 0.0;
            let budget = self.cfg.fuse_quantum;
            for run in active.iter_mut() {
                if fused >= budget {
                    break;
                }
                if run.restore_compute_left > 0.0 {
                    let take = run.restore_compute_left.min(budget - fused);
                    run.restore_compute_left -= take;
                    fused += take;
                }
                if fused >= budget {
                    break;
                }
                if run.restore_compute_left <= 0.0 && run.io_done_at <= t && run.prefill_left > 0.0
                {
                    let take = run.prefill_left.min(budget - fused);
                    run.prefill_left -= take;
                    fused += take;
                }
            }

            let iter = decode_time + fused;
            if iter <= 0.0 {
                // Idle: jump to the next event.
                let mut next: Sec = f64::INFINITY;
                if let Some(a) = arrivals.front() {
                    next = next.min(a.arrival);
                }
                if let Some(r) = released.get(released_cursor) {
                    next = next.min(r.arrival);
                }
                for run in &active {
                    if run.prefill_left > 0.0 && run.io_done_at > t {
                        next = next.min(run.io_done_at);
                    }
                }
                if next.is_infinite() {
                    // Nothing left anywhere?
                    if admit_q.is_empty() && active.is_empty() && batch.is_empty() {
                        break;
                    }
                    // Capacity deadlock cannot happen (admission admits when
                    // active_resident == 0), so this is a logic error.
                    unreachable!("engine stalled at t={t}");
                }
                t = next;
                continue;
            }
            t += iter;

            // 4. Decode results: each batch member emitted one token.
            let mut still_decoding = Vec::with_capacity(batch.len());
            for mut run in batch.drain(..) {
                run.tokens_left -= 1;
                if run.tokens_left == 0 {
                    self.finish(
                        run,
                        t,
                        &mut done,
                        &mut active_resident,
                        &mut lru,
                        &mut held_rounds,
                        &mut released,
                        &mut host,
                    );
                } else {
                    still_decoding.push(run);
                }
            }
            batch = still_decoding;

            // 5. Requests that completed prefill this iteration emit their
            //    first token now and join the decode batch.
            let mut still_active = Vec::with_capacity(active.len());
            for mut run in active.drain(..) {
                let ready = run.restore_compute_left <= 0.0
                    && run.prefill_left <= 0.0
                    && run.io_done_at <= t;
                if ready && batch.len() < self.cfg.max_batch_size {
                    run.first_token = Some(t);
                    if run.req.output_tokens <= 1 {
                        self.finish(
                            run,
                            t,
                            &mut done,
                            &mut active_resident,
                            &mut lru,
                            &mut held_rounds,
                            &mut released,
                            &mut host,
                        );
                    } else {
                        run.tokens_left = run.req.output_tokens - 1;
                        batch.push(run);
                    }
                } else {
                    still_active.push(run);
                }
            }
            active = still_active;
        }

        done.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        ServingReport {
            requests: done,
            makespan: t,
            host_cache: host.map(|h| h.stats).unwrap_or_default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        run: Run,
        t: Sec,
        done: &mut Vec<RequestMetrics>,
        active_resident: &mut u64,
        lru: &mut GpuKvCache,
        held_rounds: &mut std::collections::HashMap<u64, VecDeque<Request>>,
        released: &mut Vec<Request>,
        host: &mut Option<HostCacheSim>,
    ) {
        *active_resident -= run.footprint;
        if self.cfg.reuse_gpu_cache {
            lru.insert(run.req.session_id, run.footprint);
        }
        // The session's post-round state lands in the host pool; quota
        // pressure may evict victims (their next round recomputes).
        if let Some(h) = host {
            let n = run.req.final_context() as u64;
            let current = restore_occupancy(&self.profile, self.cfg.restore_method, n);
            let dropped = restore_occupancy(&self.profile, RestoreMethod::Recompute, n);
            h.on_round_complete(
                run.req.session_id,
                n,
                t,
                current.io + current.compute,
                dropped.io + dropped.compute,
            );
        }
        // Think time: the session's next round arrives after the user reads
        // this response.
        if self.cfg.serialize_sessions {
            if let Some(q) = held_rounds.get_mut(&run.req.session_id) {
                if let Some(mut next) = q.pop_front() {
                    next.arrival = t + self.cfg.round_think_time;
                    released.push(next);
                }
            }
        }
        done.push(RequestMetrics {
            session_id: run.req.session_id,
            arrival: run.req.arrival,
            service_start: run.service_start,
            restored_tokens: run.restored_tokens,
            cache_hit: run.cache_hit,
            first_token: run.first_token.unwrap_or(t),
            completion: t,
            output_tokens: run.req.output_tokens,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hc_model::ModelConfig;

    fn shape_7b() -> ModelConfig {
        ModelConfig::llama2_7b()
    }

    fn profile() -> PlatformProfile {
        PlatformProfile::new(Platform::default_testbed_single_gpu(), shape_7b())
    }

    fn engine(method: RestoreMethod) -> ServingEngine {
        ServingEngine::new(profile(), ServingConfig::for_method(method))
    }

    fn req(session: u64, arrival: f64, history: u32, input: u32, output: u32) -> Request {
        Request {
            session_id: session,
            arrival,
            history_tokens: history,
            input_tokens: input,
            output_tokens: output,
        }
    }

    #[test]
    fn single_request_no_history_ttft_is_prefill_plus_overhead() {
        let e = engine(RestoreMethod::Ideal);
        let report = e.run(&[req(1, 0.0, 0, 67, 10)]);
        assert_eq!(report.requests.len(), 1);
        let ttft = report.requests[0].ttft();
        // Fig 9 ideal floor: tens of milliseconds.
        assert!(ttft > 0.02 && ttft < 0.1, "ideal TTFT {ttft}");
    }

    #[test]
    fn ttft_ordering_matches_fig4() {
        let history = 8192;
        let mut ttfts = Vec::new();
        for m in [
            RestoreMethod::Recompute,
            RestoreMethod::KvOffload,
            RestoreMethod::HCache,
            RestoreMethod::Ideal,
        ] {
            let e = engine(m);
            let r = e.run(&[req(1, 0.0, history, 90, 20)]);
            ttfts.push((m, r.requests[0].ttft()));
        }
        assert!(ttfts[0].1 > ttfts[1].1, "recompute vs kv: {ttfts:?}");
        assert!(ttfts[1].1 > ttfts[2].1, "kv vs hcache: {ttfts:?}");
        assert!(ttfts[2].1 > ttfts[3].1, "hcache vs ideal: {ttfts:?}");
    }

    #[test]
    fn hcache_ttft_speedup_over_kv_offload_in_band() {
        // Fig 10: 1.62-1.93x on long contexts (minus the shared prefill
        // and overhead floor, the gap compresses at the TTFT level).
        let e_kv = engine(RestoreMethod::KvOffload);
        let e_hc = engine(RestoreMethod::HCache);
        let r = req(1, 0.0, 10603, 143, 5);
        let kv = e_kv.run(std::slice::from_ref(&r)).requests[0].ttft();
        let hc = e_hc.run(&[r]).requests[0].ttft();
        let speedup = kv / hc;
        assert!((1.3..2.2).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn tbt_overhead_of_hcache_is_small() {
        // Fig 9d-f: HCache TBT within ~4% of ideal.
        let mk = |m| {
            let e = engine(m);
            let reqs: Vec<Request> = (0..8)
                .map(|i| req(i, i as f64 * 2.0, 2048, 64, 200))
                .collect();
            e.run(&reqs).mean_tbt()
        };
        let ideal = mk(RestoreMethod::Ideal);
        let hc = mk(RestoreMethod::HCache);
        let overhead = hc / ideal - 1.0;
        assert!(
            overhead < 0.10,
            "HCache TBT overhead {overhead} too large (ideal {ideal}, hc {hc})"
        );
    }

    #[test]
    fn ttft_grows_with_load() {
        let e = engine(RestoreMethod::KvOffload);
        let mk_rate = |gap: f64| {
            let reqs: Vec<Request> = (0..40)
                .map(|i| req(i, i as f64 * gap, 4096, 64, 50))
                .collect();
            e.run(&reqs).mean_sojourn()
        };
        let light = mk_rate(5.0);
        let heavy = mk_rate(0.05);
        assert!(
            heavy > light * 1.5,
            "queueing must inflate sojourn: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn decode_batch_shares_iterations() {
        // Two concurrent requests decode together: total time far less than
        // 2x a single request.
        let e = engine(RestoreMethod::Ideal);
        let one = e.run(&[req(0, 0.0, 0, 32, 100)]).makespan;
        let two = e
            .run(&[req(0, 0.0, 0, 32, 100), req(1, 0.0, 0, 32, 100)])
            .makespan;
        assert!(two < one * 1.5, "one {one}, two {two}");
    }

    #[test]
    fn capacity_serializes_oversized_load() {
        // Shrink capacity by using a huge context so only ~1 fits.
        let e = engine(RestoreMethod::KvOffload);
        let cap = e.capacity_tokens();
        let ctx = (cap as f64 * 0.7) as u32;
        let reqs = vec![req(0, 0.0, ctx, 16, 8), req(1, 0.0, ctx, 16, 8)];
        let r = e.run(&reqs);
        // Second request must wait for the first to release its footprint
        // (visible in the sojourn, not the paper-defined service TTFT).
        let t0 = r.requests[0].sojourn();
        let t1 = r.requests[1].sojourn();
        assert!(t1 > t0 * 1.5, "t0 {t0}, t1 {t1}");
    }

    #[test]
    fn gpu_cache_reuse_hits_skip_restoration() {
        let mut cfg = ServingConfig::for_method(RestoreMethod::KvOffload);
        cfg.reuse_gpu_cache = true;
        let e = ServingEngine::new(profile(), cfg);
        // Same session requested twice, far apart in time.
        let reqs = vec![req(7, 0.0, 8192, 64, 4), req(7, 100.0, 8192, 64, 4)];
        let r = e.run(&reqs);
        assert!(!r.requests[0].cache_hit);
        assert!(r.requests[1].cache_hit, "second round must hit");
        assert!(r.requests[1].ttft() < r.requests[0].ttft() / 2.0);
        assert_eq!(r.cache_hit_ratio(), Some(0.5));
    }

    #[test]
    fn direct_io_saving_inflates_tbt_at_large_batch() {
        // Fig 14: DirectIO stalls decode at batch 16; two-stage tracks
        // ideal.
        let run_mode = |mode: SaveOverheadMode| {
            let mut cfg = ServingConfig::for_method(RestoreMethod::HCache);
            cfg.save_mode = mode;
            let e = ServingEngine::new(profile(), cfg);
            let reqs: Vec<Request> = (0..16).map(|i| req(i, 0.0, 512, 16, 150)).collect();
            e.run(&reqs).mean_tbt()
        };
        let ideal = run_mode(SaveOverheadMode::None);
        let two_stage = run_mode(SaveOverheadMode::TwoStage);
        let direct = run_mode(SaveOverheadMode::DirectIo);
        assert!(
            two_stage < ideal * 1.05,
            "two-stage {two_stage} vs ideal {ideal}"
        );
        assert!(
            direct > two_stage * 1.10,
            "direct {direct} should stall vs two-stage {two_stage}"
        );
    }

    #[test]
    fn host_quota_eviction_forces_recompute_fallback() {
        // Two sessions alternate; the pool holds only one session's state,
        // so every follow-up round finds its state evicted and pays the
        // recompute penalty — visible in both the counters and the TTFT.
        let history = 8192u32;
        let shape = shape_7b();
        let per_token = (shape.d_model * shape.elem_bytes * shape.n_layers) as u64;
        let run_with = |quota: Option<u64>| {
            let mut cfg = ServingConfig::for_method(RestoreMethod::HCache);
            cfg.host_quota_bytes = quota;
            cfg.round_think_time = 1.0;
            let e = ServingEngine::new(profile(), cfg);
            // Round 1 of each session has no history; round 2 restores.
            let reqs = vec![
                req(1, 0.0, 0, 64, 4),
                req(2, 0.1, 0, 64, 4),
                req(1, 0.2, history, 64, 4),
                req(2, 0.3, history, 64, 4),
            ];
            e.run(&reqs)
        };
        // Quota below one session's stored state: everything evicts.
        let tight = run_with(Some(per_token * 64));
        assert!(tight.host_cache.evictions >= 2, "{:?}", tight.host_cache);
        assert_eq!(tight.host_cache.fallbacks, 2, "{:?}", tight.host_cache);
        assert_eq!(tight.host_cache.hits, 0);
        assert_eq!(tight.host_cache.hit_ratio(), Some(0.0));

        let unlimited = run_with(None);
        assert_eq!(unlimited.host_cache, HostCacheStats::default());

        // Fallback restores recompute: the history rounds are slower.
        let ttft = |r: &ServingReport, session: u64| {
            r.requests
                .iter()
                .filter(|m| m.session_id == session && m.restored_tokens > 0)
                .map(|m| m.ttft())
                .next_back()
                .unwrap()
        };
        assert!(
            ttft(&tight, 1) > ttft(&unlimited, 1) * 1.5,
            "evicted session must pay recompute: tight {} vs unlimited {}",
            ttft(&tight, 1),
            ttft(&unlimited, 1)
        );
    }

    #[test]
    fn generous_host_quota_serves_hits() {
        let mut cfg = ServingConfig::for_method(RestoreMethod::HCache);
        cfg.host_quota_bytes = Some(u64::MAX);
        cfg.round_think_time = 1.0;
        let e = ServingEngine::new(profile(), cfg);
        let reqs = vec![req(1, 0.0, 0, 64, 4), req(1, 0.1, 4096, 64, 4)];
        let r = e.run(&reqs);
        assert_eq!(r.host_cache.hits, 1);
        assert_eq!(r.host_cache.fallbacks, 0);
        assert_eq!(r.host_cache.evictions, 0);
        assert_eq!(r.host_cache.hit_ratio(), Some(1.0));
    }

    #[test]
    fn methods_that_store_nothing_ignore_the_quota() {
        let mut cfg = ServingConfig::for_method(RestoreMethod::Recompute);
        cfg.host_quota_bytes = Some(1);
        let e = ServingEngine::new(profile(), cfg);
        let r = e.run(&[req(1, 0.0, 0, 64, 4), req(1, 0.1, 4096, 64, 4)]);
        assert_eq!(r.host_cache, HostCacheStats::default());
    }

    #[test]
    fn cost_aware_host_policy_keeps_the_expensive_session() {
        // Session 1 is long (expensive to recompute), session 2 short.
        // Pool fits one: LRU evicts the colder session 1; cost-aware
        // prefers to sacrifice the cheap session 2 even though it is
        // hotter.
        let shape = shape_7b();
        let per_token = (shape.d_model * shape.elem_bytes * shape.n_layers) as u64;
        let run_with = |policy| {
            let mut cfg = ServingConfig::for_method(RestoreMethod::HCache);
            // Fits the long session (~8196 tokens of state) xor both.
            cfg.host_quota_bytes = Some(per_token * 8500);
            cfg.host_policy = policy;
            // Long think time so session 1's follow-up is released only
            // after session 2's first round stressed the pool.
            cfg.round_think_time = 120.0;
            let e = ServingEngine::new(profile(), cfg);
            let reqs = vec![
                req(1, 0.0, 0, 8192, 4), // long session finishes first
                req(2, 60.0, 0, 512, 4), // short session finishes second
                req(1, 120.0, 8192, 64, 4),
                req(2, 121.0, 512, 64, 4),
            ];
            e.run(&reqs)
        };
        let s1_followup_ttft = |r: &ServingReport| {
            r.requests
                .iter()
                .find(|m| m.session_id == 1 && m.restored_tokens > 0)
                .unwrap()
                .ttft()
        };
        let lru = run_with(hc_cachectl::policy::PolicyKind::Lru);
        // LRU: storing session 2 (hot) evicts session 1 → session 1's
        // follow-up falls back.
        assert!(lru.host_cache.fallbacks >= 1, "{:?}", lru.host_cache);
        let lru_s1 = s1_followup_ttft(&lru);
        let ca = run_with(hc_cachectl::policy::PolicyKind::CostAware);
        // Cost-aware sacrifices the cheap session instead.
        assert!(ca.host_cache.evictions >= 1, "{:?}", ca.host_cache);
        let ca_s1 = s1_followup_ttft(&ca);
        // Cost-aware kept the long session cached, so its follow-up is
        // fast; under LRU it recomputed.
        assert!(
            ca_s1 < lru_s1,
            "cost-aware {ca_s1} should beat lru {lru_s1} on the long session"
        );
    }

    #[test]
    fn unsorted_requests_are_rejected() {
        let e = engine(RestoreMethod::Ideal);
        let reqs = vec![req(0, 5.0, 0, 8, 2), req(1, 1.0, 0, 8, 2)];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.run(&reqs)));
        assert!(result.is_err());
    }

    #[test]
    fn all_requests_complete_and_metrics_are_sane() {
        let e = engine(RestoreMethod::HCache);
        let reqs: Vec<Request> = (0..25)
            .map(|i| {
                req(
                    i,
                    i as f64 * 0.8,
                    (i as u32 % 5) * 1000,
                    32 + i as u32,
                    1 + i as u32 % 7,
                )
            })
            .collect();
        let r = e.run(&reqs);
        assert_eq!(r.requests.len(), 25);
        for m in &r.requests {
            assert!(m.service_start >= m.arrival, "{m:?}");
            assert!(m.first_token >= m.service_start, "{m:?}");
            assert!(m.completion >= m.first_token, "{m:?}");
        }
        assert!(r.makespan > 0.0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn empty_request_list_is_fine() {
        let e = engine(RestoreMethod::Ideal);
        let r = e.run(&[]);
        assert!(r.requests.is_empty());
        assert_eq!(r.makespan, 0.0);
    }
}
