//! # hc-restore
//!
//! The state-restoration methods the paper builds and compares (§2.4, §3,
//! §6), in two complementary layers:
//!
//! * [`engine`] — the **functional** layer: actually saves state through the
//!   `hc-storage` manager and rebuilds a `KvCache` with real math, for any
//!   layer-wise partition scheme (hidden / KV-offload / recompute layers).
//!   This is where the correctness claims are tested end to end.
//! * [`reactor`] — the **executor**: one restore state machine per session
//!   and one event-driven driver that advances one or thousands of them on
//!   the calling thread plus a fixed pool of compute workers, all IO
//!   flowing through the storage manager's per-device reactor queues —
//!   in-flight restores bounded by memory and iodepth, not threads.
//! * [`sim`] — the **timed** layer: virtual-time restoration estimates for
//!   every method on any platform, built from the `hc-simhw` profiles and
//!   the `hc-sched` pipeline. This is what the evaluation figures use.
//! * [`cost`] — the closed-form §3.2 cost model (Figure 1's 6×/2× claims).
//!
//! Methods (baselines follow the paper's §6 setup):
//! * **Ideal** — state never left the GPU (lower bound).
//! * **Recompute** — full prefill from tokens (DeepSpeed-MII baseline).
//! * **KvOffload** — reload the full KV cache (AttentionStore baseline).
//! * **HCacheO** — hidden states only, no bubble-free scheduler (ablation).
//! * **NaiveHybrid** — bubble-free mix of recompute + KV offload *without*
//!   hidden states (ablation, §6.3.1).
//! * **HCache** — hidden states + bubble-free scheduler (the paper's
//!   system).

pub mod cost;
pub mod engine;
pub mod reactor;
pub mod sim;

/// Identifies a restoration method in experiments and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestoreMethod {
    /// No restoration needed (state resident on GPU).
    Ideal,
    /// Token recomputation (full prefill of the history).
    Recompute,
    /// KV-cache offload/reload.
    KvOffload,
    /// Hidden-state restoration without the bubble-free scheduler.
    HCacheO,
    /// Bubble-free hybrid of recompute + KV offload, no hidden states.
    NaiveHybrid,
    /// Full HCache: hidden states + bubble-free scheduler.
    HCache,
}

impl RestoreMethod {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            RestoreMethod::Ideal => "Ideal",
            RestoreMethod::Recompute => "Recomputation",
            RestoreMethod::KvOffload => "KV Offload",
            RestoreMethod::HCacheO => "HCache-O",
            RestoreMethod::NaiveHybrid => "Naive Hybrid",
            RestoreMethod::HCache => "HCache",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(RestoreMethod::HCache.name(), "HCache");
        assert_eq!(RestoreMethod::Recompute.name(), "Recomputation");
    }
}
