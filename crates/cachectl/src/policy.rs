//! Pluggable eviction policies.
//!
//! Eviction in this system is *demotion*: a victim session does not lose
//! correctness, it loses one layer's cached state and pays recomputation
//! for it on its next restore. The policy therefore only has to answer one
//! question — **which session should pay next** — and two answers are
//! provided:
//!
//! * [`LruPolicy`]: the classic answer, demote the coldest session.
//! * [`CostAwarePolicy`]: the economic answer, demote the session whose
//!   cached bytes buy the least restoration time. Benefit-per-byte is
//!   `(T_restore_if_dropped − T_restore_now) / resident_bytes`, both terms
//!   from the §3.2 closed-form cost model (`hc_sched::cost`), so a short
//!   session hoarding bytes loses to a long one whose recompute cost is
//!   quadratic in its history.

/// Which eviction policy a controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Demote the least-recently-accessed session.
    #[default]
    Lru,
    /// Demote the session with the lowest restore-time benefit per
    /// resident byte.
    CostAware,
}

impl PolicyKind {
    /// Display name for reports and benchmark JSON.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::CostAware => "cost_aware",
        }
    }
}

/// What a policy sees about one eviction candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session id.
    pub session: u64,
    /// Bytes its cached state currently occupies.
    pub resident_bytes: u64,
    /// Logical access clock (monotonic; larger = more recent).
    pub last_access: u64,
    /// History length in tokens.
    pub n_tokens: u64,
    /// Estimated restore seconds under the session's current method mix.
    pub restore_secs_current: f64,
    /// Estimated restore seconds if the session were fully dropped to
    /// recomputation.
    pub restore_secs_dropped: f64,
}

impl SessionMeta {
    /// Restore seconds saved per resident byte — what the cached state is
    /// worth. Zero-byte candidates return infinity (nothing to gain by
    /// demoting them; the controller filters them out anyway).
    pub fn benefit_per_byte(&self) -> f64 {
        if self.resident_bytes == 0 {
            return f64::INFINITY;
        }
        (self.restore_secs_dropped - self.restore_secs_current).max(0.0)
            / self.resident_bytes as f64
    }
}

/// A victim-selection strategy. Implementations must be deterministic for
/// a given candidate list so controller behaviour is reproducible.
pub trait EvictionPolicy: Send {
    /// The kind tag (for reports).
    fn kind(&self) -> PolicyKind;

    /// Picks the session to demote next.
    ///
    /// # Panics
    /// May panic when `candidates` is empty — the controller never calls
    /// it without candidates.
    fn pick_victim(&self, candidates: &[SessionMeta]) -> u64;
}

/// Least-recently-used victim selection (ties broken by session id).
#[derive(Debug, Default)]
pub struct LruPolicy;

impl EvictionPolicy for LruPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn pick_victim(&self, candidates: &[SessionMeta]) -> u64 {
        candidates
            .iter()
            .min_by_key(|m| (m.last_access, m.session))
            // hc-analyze: allow(panic) documented pick_victim precondition: the controller only calls with a non-empty candidate set
            .expect("candidates must be non-empty")
            .session
    }
}

/// Benefit-per-byte victim selection (ties broken by recency, then id).
#[derive(Debug, Default)]
pub struct CostAwarePolicy;

impl EvictionPolicy for CostAwarePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::CostAware
    }

    fn pick_victim(&self, candidates: &[SessionMeta]) -> u64 {
        candidates
            .iter()
            .min_by(|a, b| {
                a.benefit_per_byte()
                    .total_cmp(&b.benefit_per_byte())
                    .then_with(|| a.last_access.cmp(&b.last_access))
                    .then_with(|| a.session.cmp(&b.session))
            })
            // hc-analyze: allow(panic) documented pick_victim precondition: the controller only calls with a non-empty candidate set
            .expect("candidates must be non-empty")
            .session
    }
}

/// Instantiates the policy for a kind tag.
pub fn make_policy(kind: PolicyKind) -> Box<dyn EvictionPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(LruPolicy),
        PolicyKind::CostAware => Box::new(CostAwarePolicy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(session: u64, bytes: u64, access: u64, current: f64, dropped: f64) -> SessionMeta {
        SessionMeta {
            session,
            resident_bytes: bytes,
            last_access: access,
            n_tokens: 100,
            restore_secs_current: current,
            restore_secs_dropped: dropped,
        }
    }

    #[test]
    fn lru_picks_coldest() {
        let p = LruPolicy;
        let c = vec![meta(1, 10, 5, 0.1, 1.0), meta(2, 10, 3, 0.1, 1.0)];
        assert_eq!(p.pick_victim(&c), 2);
    }

    #[test]
    fn lru_breaks_ties_by_session_id() {
        let p = LruPolicy;
        let c = vec![meta(9, 10, 3, 0.1, 1.0), meta(2, 10, 3, 0.1, 1.0)];
        assert_eq!(p.pick_victim(&c), 2);
    }

    #[test]
    fn cost_aware_picks_lowest_benefit_per_byte() {
        let p = CostAwarePolicy;
        // Session 1: saves 0.9 s over 100 bytes (9 ms/B).
        // Session 2: saves 0.9 s over 10 bytes (90 ms/B) — keep it.
        let c = vec![meta(1, 100, 1, 0.1, 1.0), meta(2, 10, 1, 0.1, 1.0)];
        assert_eq!(p.pick_victim(&c), 1);
    }

    #[test]
    fn cost_aware_prefers_recency_on_equal_benefit() {
        let p = CostAwarePolicy;
        let c = vec![meta(1, 10, 8, 0.1, 1.0), meta(2, 10, 2, 0.1, 1.0)];
        assert_eq!(p.pick_victim(&c), 2);
    }

    #[test]
    fn policies_report_their_kind() {
        assert_eq!(make_policy(PolicyKind::Lru).kind(), PolicyKind::Lru);
        assert_eq!(
            make_policy(PolicyKind::CostAware).kind(),
            PolicyKind::CostAware
        );
        assert_eq!(PolicyKind::CostAware.name(), "cost_aware");
    }
}
