//! Serving quality metrics: TTFT, TBT, throughput (§2.2, §6 metrics).

use hc_simhw::Sec;

/// Per-request timing record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMetrics {
    /// Session id of the request.
    pub session_id: u64,
    /// Arrival time.
    pub arrival: Sec,
    /// Time the engine started serving the request (restoration phase
    /// begins; equals `arrival` when the engine was idle).
    pub service_start: Sec,
    /// History tokens restored (0 on GPU-cache hit or first round).
    pub restored_tokens: u64,
    /// Whether the GPU cache served the history (§6.4).
    pub cache_hit: bool,
    /// First-token emission time.
    pub first_token: Sec,
    /// Completion time of the last token.
    pub completion: Sec,
    /// Number of generated tokens.
    pub output_tokens: u32,
}

impl RequestMetrics {
    /// Time to first token, measured as the paper does (§6 Metrics): the
    /// duration of the restoration and prefill phase, from service start
    /// to the first generated token.
    pub fn ttft(&self) -> Sec {
        self.first_token - self.service_start
    }

    /// User-perceived latency to the first token including queueing delay
    /// (not what the paper's Fig 9 plots, but reported for completeness).
    pub fn sojourn(&self) -> Sec {
        self.first_token - self.arrival
    }

    /// Average time between tokens (excluding the first). `None` when the
    /// request generated a single token.
    pub fn tbt(&self) -> Option<Sec> {
        if self.output_tokens >= 2 {
            Some((self.completion - self.first_token) / (self.output_tokens - 1) as f64)
        } else {
            None
        }
    }
}

/// Host-cache control-plane counters (the virtual-time mirror of
/// `hc-cachectl`'s hit/evict/fallback metrics). All zero when the engine
/// runs without a host quota.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCacheStats {
    /// Restores whose host state was present.
    pub hits: u64,
    /// Restores that found their state evicted and recomputed instead.
    pub fallbacks: u64,
    /// Sessions evicted from the host pool under quota pressure.
    pub evictions: u64,
    /// Bytes released by those evictions.
    pub bytes_evicted: u64,
}

impl HostCacheStats {
    /// Hit fraction over restores that consulted the host cache (`None`
    /// before any such restore).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.fallbacks;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Aggregate serving report.
#[derive(Debug, Clone, Default)]
pub struct ServingReport {
    /// Every completed request.
    pub requests: Vec<RequestMetrics>,
    /// Virtual time when the last request completed.
    pub makespan: Sec,
    /// Host-cache quota counters (zero without a quota).
    pub host_cache: HostCacheStats,
}

impl ServingReport {
    /// Mean TTFT over all requests.
    pub fn mean_ttft(&self) -> Sec {
        mean(self.requests.iter().map(|r| r.ttft()))
    }

    /// Mean first-token sojourn (queueing included).
    pub fn mean_sojourn(&self) -> Sec {
        mean(self.requests.iter().map(|r| r.sojourn()))
    }

    /// Mean TBT over requests that generated at least two tokens.
    pub fn mean_tbt(&self) -> Sec {
        mean(self.requests.iter().filter_map(|r| r.tbt()))
    }

    /// Completed requests per second of makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / self.makespan
    }

    /// Fraction of requests with restorable history served from the GPU
    /// cache (the Fig 15 hit ratio). `None` when no request had history.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let with_history: Vec<&RequestMetrics> = self
            .requests
            .iter()
            .filter(|r| r.restored_tokens > 0 || r.cache_hit)
            .collect();
        if with_history.is_empty() {
            return None;
        }
        Some(with_history.iter().filter(|r| r.cache_hit).count() as f64 / with_history.len() as f64)
    }
}

fn mean(iter: impl Iterator<Item = Sec>) -> Sec {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: Sec, first: Sec, done: Sec, out: u32) -> RequestMetrics {
        RequestMetrics {
            session_id: 0,
            arrival,
            service_start: arrival,
            restored_tokens: 100,
            cache_hit: false,
            first_token: first,
            completion: done,
            output_tokens: out,
        }
    }

    #[test]
    fn ttft_and_tbt() {
        let mut r = req(1.0, 1.5, 2.5, 11);
        assert_eq!(r.ttft(), 0.5);
        assert!((r.tbt().unwrap() - 0.1).abs() < 1e-12);
        // Queueing counts toward sojourn but not toward the paper's TTFT.
        r.service_start = 1.2;
        assert!((r.ttft() - 0.3).abs() < 1e-12);
        assert_eq!(r.sojourn(), 0.5);
    }

    #[test]
    fn single_token_has_no_tbt() {
        assert_eq!(req(0.0, 1.0, 1.0, 1).tbt(), None);
    }

    #[test]
    fn report_aggregates() {
        let report = ServingReport {
            requests: vec![req(0.0, 1.0, 2.0, 2), req(0.0, 3.0, 4.0, 2)],
            makespan: 4.0,
            host_cache: HostCacheStats::default(),
        };
        assert_eq!(report.mean_ttft(), 2.0);
        assert_eq!(report.throughput(), 0.5);
    }

    #[test]
    fn hit_ratio_counts_only_history_requests() {
        let mut hit = req(0.0, 1.0, 2.0, 2);
        hit.cache_hit = true;
        hit.restored_tokens = 0;
        let miss = req(0.0, 1.0, 2.0, 2);
        let mut fresh = req(0.0, 1.0, 2.0, 2);
        fresh.restored_tokens = 0; // no history at all
        let report = ServingReport {
            requests: vec![hit, miss, fresh],
            makespan: 2.0,
            host_cache: HostCacheStats::default(),
        };
        assert_eq!(report.cache_hit_ratio(), Some(0.5));
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ServingReport::default();
        assert_eq!(r.mean_ttft(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.cache_hit_ratio(), None);
    }
}
