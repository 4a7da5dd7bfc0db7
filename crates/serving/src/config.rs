//! Serving engine configuration.

use hc_cachectl::policy::PolicyKind;
use hc_restore::RestoreMethod;
use hc_simhw::Sec;

/// How decode-time hidden-state saving is charged (Fig 14 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOverheadMode {
    /// No saving (the Ideal baseline, or methods that don't store hidden
    /// states).
    None,
    /// Two-stage saving: stage 1 snapshot over PCIe, chunk daemon flushes in
    /// the background — only the (tiny) snapshot cost can stall decode.
    TwoStage,
    /// Direct synchronous writes: every sequence row of every layer pays a
    /// share of NVMe command latency on the critical path.
    DirectIo,
}

/// Tunables of the serving simulation.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Restoration method for cache-miss histories.
    pub restore_method: RestoreMethod,
    /// Maximum sequences decoding concurrently.
    pub max_batch_size: usize,
    /// GPU seconds of restore/prefill work fusable into one iteration when
    /// the decode batch is non-empty (SplitFuse budget).
    pub fuse_quantum: Sec,
    /// Fixed per-request overhead (scheduling, tokenization, detokenization)
    /// added to TTFT; calibrated so the Ideal TTFT matches the paper's
    /// ~30–50 ms floor.
    pub request_overhead: Sec,
    /// Decode-time saving mode.
    pub save_mode: SaveOverheadMode,
    /// Keep finished contexts resident in an LRU GPU cache (§6.4).
    pub reuse_gpu_cache: bool,
    /// NVMe effective queue depth used by the DirectIO overhead model.
    pub direct_io_qd: usize,
    /// Serialize rounds within a session: round `k+1` arrives
    /// [`ServingConfig::round_think_time`] seconds after round `k`'s
    /// response completes (the paper's 30 s conversation interval). Disable
    /// for workloads where `session_id` identifies a *shared context*
    /// rather than a conversation (the §6.4 reuse experiment).
    pub serialize_sessions: bool,
    /// Think time between a response and the next round of the same
    /// session, when [`ServingConfig::serialize_sessions`] is on.
    pub round_think_time: Sec,
    /// Host thread budget handed to the functional layer when this config
    /// drives real restoration (`hcache::HCacheSystem`): sizes the restore
    /// pipeline's projection GEMMs and the storage chunk codec, so the
    /// chunk daemon and the restore drivers never oversubscribe the
    /// host. The virtual-time engine carries it so a simulated deployment
    /// and its functional counterpart are configured identically.
    pub parallel: hc_tensor::ParallelConfig,
    /// Host cache storage quota in bytes for saved session state (the
    /// `hc-cachectl` quota, mirrored in virtual time). `None` models an
    /// unbounded pool (the paper's evaluation setting). With a quota set,
    /// finished sessions' stored state competes for the pool; evicted
    /// sessions fall back to token recomputation on their next round and
    /// the engine reports hit/evict/fallback counts.
    pub host_quota_bytes: Option<u64>,
    /// Victim-selection policy for the host cache under quota pressure.
    pub host_policy: PolicyKind,
}

impl ServingConfig {
    /// Defaults matching the paper's main experiments (no GPU reuse, saving
    /// mode chosen per method).
    pub fn for_method(method: RestoreMethod) -> Self {
        let save_mode = match method {
            // Methods that persist state during generation.
            RestoreMethod::HCache | RestoreMethod::HCacheO => SaveOverheadMode::TwoStage,
            RestoreMethod::KvOffload | RestoreMethod::NaiveHybrid => SaveOverheadMode::TwoStage,
            RestoreMethod::Recompute | RestoreMethod::Ideal => SaveOverheadMode::None,
        };
        Self {
            restore_method: method,
            max_batch_size: 64,
            fuse_quantum: 30e-3,
            request_overhead: 25e-3,
            save_mode,
            reuse_gpu_cache: false,
            direct_io_qd: 4,
            serialize_sessions: true,
            round_think_time: 30.0,
            parallel: hc_tensor::ParallelConfig::serial(),
            host_quota_bytes: None,
            host_policy: PolicyKind::Lru,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pick_save_mode_by_method() {
        assert_eq!(
            ServingConfig::for_method(RestoreMethod::HCache).save_mode,
            SaveOverheadMode::TwoStage
        );
        assert_eq!(
            ServingConfig::for_method(RestoreMethod::Ideal).save_mode,
            SaveOverheadMode::None
        );
        assert_eq!(
            ServingConfig::for_method(RestoreMethod::Recompute).save_mode,
            SaveOverheadMode::None
        );
    }

    #[test]
    fn default_thread_budget_is_serial() {
        let cfg = ServingConfig::for_method(RestoreMethod::HCache);
        assert!(cfg.parallel.is_serial());
    }
}
