//! Deterministic multi-tenant control-plane traces.
//!
//! The million-session controller (`hc-cachectl`) enforces per-tenant
//! byte quotas; exercising it needs a workload where tenants contend at
//! very different intensities. This module composes the two primitives
//! the evaluation already uses — **Zipf popularity** ([`crate::zipf`])
//! and **Poisson arrivals** ([`crate::arrival`]) — into a per-tenant
//! product: tenant `t` receives its own Poisson session-arrival process
//! whose rate is the aggregate rate scaled by the Zipf mass of rank `t`,
//! so tenant 0 is the hot tenant and the tail idles, with the skew set
//! by `alpha`. Each arriving session then plays a fixed-interval round
//! loop (open → save per round, history growing by `tokens_per_round` —
//! ShareGPT's 30 s cadence by default) and optionally closes.
//!
//! Everything is seeded through [`crate::rng::Rng`]: per-tenant streams
//! use `seed ⊕ splitmix`-derived sub-seeds, so the trace for a given
//! config is bit-identical across runs and platforms, and session ids
//! are assigned by global arrival order (ties by tenant) so two replays
//! agree on every id.

use crate::arrival::poisson_arrivals;
use crate::rng::Rng;
use crate::zipf::Zipf;

/// What a trace op does to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOpKind {
    /// Admit the session (controller `open_session_in`).
    Open,
    /// A round completed: the session's state was saved and flushed;
    /// reconcile at the new total history length (controller `on_saved`).
    Save {
        /// Total history tokens after this round.
        n_tokens: u64,
    },
    /// The session ended; delete its state (controller `close_session`).
    Close,
}

/// One timed controller op of a multi-tenant trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOp {
    /// Seconds since trace start.
    pub time: f64,
    /// Owning tenant (Zipf rank: 0 = hottest).
    pub tenant: u32,
    /// Session id, unique across tenants.
    pub session: u64,
    /// The op.
    pub kind: TenantOpKind,
}

/// Trace-generator tunables.
#[derive(Debug, Clone)]
pub struct TenantTraceConfig {
    /// Number of tenants (Zipf support).
    pub n_tenants: usize,
    /// Zipf skew across tenants (0 = uniform).
    pub alpha: f64,
    /// Aggregate session arrival rate, sessions/second, split across
    /// tenants by Zipf mass.
    pub rate: f64,
    /// Trace length in seconds; sessions arriving later are dropped.
    pub horizon: f64,
    /// Rounds per session are uniform in `[1, max_rounds]`.
    pub max_rounds: u32,
    /// Seconds between a session's rounds.
    pub round_interval: f64,
    /// History growth per round in tokens.
    pub tokens_per_round: u64,
    /// Fraction of sessions that close after their last round (the rest
    /// stay resident, keeping pool pressure up).
    pub close_fraction: f64,
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
}

impl Default for TenantTraceConfig {
    fn default() -> Self {
        Self {
            n_tenants: 4,
            alpha: 1.2,
            rate: 2.0,
            horizon: 600.0,
            max_rounds: 4,
            round_interval: 30.0,
            tokens_per_round: 64,
            close_fraction: 0.25,
            seed: 0,
        }
    }
}

/// SplitMix64-style mix for deriving independent per-tenant sub-seeds.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the timed op stream: per-tenant Poisson session arrivals at
/// Zipf-scaled rates, each session contributing an `Open`, one `Save`
/// per round with cumulative history, and (for a deterministic subset) a
/// `Close`. Ops are sorted by time (ties by session id, then op order),
/// and session ids are dense `0..n_sessions` in arrival order.
pub fn generate_tenant_trace(cfg: &TenantTraceConfig) -> Vec<TenantOp> {
    assert!(cfg.n_tenants > 0, "no tenants");
    assert!(cfg.max_rounds >= 1, "sessions need at least one round");
    assert!(
        (0.0..=1.0).contains(&cfg.close_fraction),
        "close_fraction out of range"
    );
    let zipf = Zipf::new(cfg.n_tenants, cfg.alpha);
    // Per-tenant Poisson arrival streams at Zipf-scaled rates.
    let mut arrivals: Vec<(f64, u32)> = Vec::new();
    for t in 0..cfg.n_tenants {
        let rate = cfg.rate * zipf.pmf(t);
        if rate <= 0.0 {
            continue;
        }
        let ts = poisson_arrivals(rate, cfg.horizon, sub_seed(cfg.seed, t as u64 + 1));
        arrivals.extend(ts.into_iter().map(|at| (at, t as u32)));
    }
    // Global arrival order fixes the session id assignment.
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

    let mut ops = Vec::new();
    for (session, (start, tenant)) in arrivals.iter().enumerate() {
        let session = session as u64;
        let mut rng = Rng::new(sub_seed(cfg.seed, 0x5e55_0000 + session));
        let rounds = 1 + rng.below(cfg.max_rounds as u64) as u32;
        let closes = rng.uniform() < cfg.close_fraction;
        ops.push(TenantOp {
            time: *start,
            tenant: *tenant,
            session,
            kind: TenantOpKind::Open,
        });
        let mut last = *start;
        for round in 1..=rounds {
            last = start + round as f64 * cfg.round_interval;
            ops.push(TenantOp {
                time: last,
                tenant: *tenant,
                session,
                kind: TenantOpKind::Save {
                    n_tokens: round as u64 * cfg.tokens_per_round,
                },
            });
        }
        if closes {
            ops.push(TenantOp {
                time: last + cfg.round_interval,
                tenant: *tenant,
                session,
                kind: TenantOpKind::Close,
            });
        }
    }
    // Stable per-session op order under time ties: Open < Save(asc) <
    // Close follows from each session's strictly increasing times, so
    // (time, session) is a total, deterministic order.
    ops.sort_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then_with(|| a.session.cmp(&b.session))
    });
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions per tenant in a trace (index = tenant id).
    fn sessions_per_tenant(ops: &[TenantOp], n_tenants: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n_tenants];
        for op in ops {
            if op.kind == TenantOpKind::Open {
                counts[op.tenant as usize] += 1;
            }
        }
        counts
    }

    fn cfg() -> TenantTraceConfig {
        TenantTraceConfig {
            n_tenants: 4,
            alpha: 1.4,
            rate: 1.0,
            horizon: 2_000.0,
            seed: 11,
            ..TenantTraceConfig::default()
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = generate_tenant_trace(&cfg());
        let b = generate_tenant_trace(&cfg());
        assert_eq!(a, b);
        let c = generate_tenant_trace(&TenantTraceConfig { seed: 12, ..cfg() });
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn ops_are_time_sorted_and_sessions_well_formed() {
        let ops = generate_tenant_trace(&cfg());
        assert!(ops.windows(2).all(|w| w[0].time <= w[1].time));
        // Per session: exactly one Open first, Saves with strictly
        // growing history, at most one Close last.
        let n_sessions = ops.iter().filter(|o| o.kind == TenantOpKind::Open).count() as u64;
        for s in 0..n_sessions {
            let mine: Vec<&TenantOp> = ops.iter().filter(|o| o.session == s).collect();
            assert_eq!(mine[0].kind, TenantOpKind::Open, "session {s}");
            assert!(mine.iter().all(|o| o.tenant == mine[0].tenant));
            let mut prev = 0u64;
            for o in &mine[1..] {
                match o.kind {
                    TenantOpKind::Save { n_tokens } => {
                        assert!(n_tokens > prev, "history must grow");
                        prev = n_tokens;
                    }
                    TenantOpKind::Close => {
                        assert_eq!(o.session, mine.last().unwrap().session, "close is last");
                    }
                    TenantOpKind::Open => panic!("double open for {s}"),
                }
            }
        }
    }

    #[test]
    fn zipf_skew_concentrates_sessions_on_the_hot_tenant() {
        let ops = generate_tenant_trace(&TenantTraceConfig {
            horizon: 20_000.0,
            ..cfg()
        });
        let counts = sessions_per_tenant(&ops, 4);
        assert!(
            counts[0] > 2 * counts[3],
            "tenant 0 ({}) should dominate tenant 3 ({})",
            counts[0],
            counts[3]
        );
        // Rates follow the Zipf pmf within sampling noise.
        let total: u64 = counts.iter().sum();
        let z = Zipf::new(4, 1.4);
        for (t, &c) in counts.iter().enumerate() {
            let emp = c as f64 / total as f64;
            assert!(
                (emp - z.pmf(t)).abs() < 0.05,
                "tenant {t}: {emp} vs pmf {}",
                z.pmf(t)
            );
        }
    }

    #[test]
    fn uniform_alpha_spreads_sessions_evenly() {
        let ops = generate_tenant_trace(&TenantTraceConfig {
            alpha: 0.0,
            horizon: 20_000.0,
            ..cfg()
        });
        let counts = sessions_per_tenant(&ops, 4);
        let total: u64 = counts.iter().sum();
        for (t, &c) in counts.iter().enumerate() {
            let emp = c as f64 / total as f64;
            assert!((emp - 0.25).abs() < 0.05, "tenant {t}: {emp}");
        }
    }

    #[test]
    fn close_fraction_bounds_closes() {
        let all = generate_tenant_trace(&TenantTraceConfig {
            close_fraction: 1.0,
            ..cfg()
        });
        let opens = all.iter().filter(|o| o.kind == TenantOpKind::Open).count();
        let closes = all.iter().filter(|o| o.kind == TenantOpKind::Close).count();
        assert_eq!(opens, closes, "every session closes at fraction 1");
        let none = generate_tenant_trace(&TenantTraceConfig {
            close_fraction: 0.0,
            ..cfg()
        });
        assert!(none.iter().all(|o| o.kind != TenantOpKind::Close));
    }
}
