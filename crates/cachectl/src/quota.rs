//! Quota *limits* for the storage pool and its tenants.
//!
//! Historically this module owned a `HashMap<u64, u64>` per-session byte
//! ledger — a second copy of truth the controller had to keep in sync
//! with storage, and the accounting-drift surface ISSUE 8 closes. The
//! ledger now lives in the structure-of-arrays session store
//! ([`crate::table::SessionTable`]): the `bytes` column, its atomic grand
//! total, and the per-tenant totals move together under a debug
//! assertion after every mutation. What remains here is pure *policy
//! configuration*: the pool quota and each tenant's
//! reservation/cap pair, plus the comparisons the eviction ladder asks
//! about. The tracker holds limits, never usage.

/// Byte limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Bytes the tenant is guaranteed: pool-pressure demotion never
    /// victimizes a tenant whose usage is at or below this floor, so one
    /// tenant's burst cannot evict another below its reservation.
    pub reservation_bytes: u64,
    /// Hard ceiling on the tenant's usage: exceeding it demotes within
    /// the tenant even while the pool itself has headroom.
    pub cap_bytes: u64,
}

impl Default for TenantQuota {
    /// No reservation, no cap — the tenant shares the pool best-effort.
    fn default() -> Self {
        Self {
            reservation_bytes: 0,
            cap_bytes: u64::MAX,
        }
    }
}

/// Quota limits for one storage pool: the aggregate byte budget and any
/// per-tenant reservations/caps. Deliberately dumb — it answers
/// threshold questions about usage figures the caller supplies (read
/// from the session table's atomic totals) and stores nothing else.
#[derive(Debug, Clone)]
pub struct QuotaTracker {
    quota: u64,
    tenants: Vec<TenantQuota>,
}

impl QuotaTracker {
    /// A tracker governing `quota_bytes` of host cache storage, every
    /// tenant best-effort.
    pub fn new(quota_bytes: u64) -> Self {
        Self {
            quota: quota_bytes,
            tenants: Vec::new(),
        }
    }

    /// The configured pool quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// Sets one tenant's limits (growing the tenant vector as needed).
    pub fn set_tenant(&mut self, tenant: u32, limits: TenantQuota) {
        if self.tenants.len() <= tenant as usize {
            self.tenants
                .resize(tenant as usize + 1, TenantQuota::default());
        }
        self.tenants[tenant as usize] = limits;
    }

    /// One tenant's limits (default — best-effort — when never set).
    pub fn tenant(&self, tenant: u32) -> TenantQuota {
        self.tenants
            .get(tenant as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Highest tenant id configured + 1.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// True when pool usage exceeds the quota (eviction must run).
    pub fn over_quota(&self, used: u64) -> bool {
        used > self.quota
    }

    /// Pool headroom (0 when over quota).
    pub fn free(&self, used: u64) -> u64 {
        self.quota.saturating_sub(used)
    }

    /// True when a tenant's usage exceeds its hard cap.
    pub fn over_cap(&self, tenant: u32, used: u64) -> bool {
        used > self.tenant(tenant).cap_bytes
    }

    /// True when a tenant's usage exceeds its reservation — i.e. the
    /// tenant is fair game for pool-pressure demotion.
    pub fn above_reservation(&self, tenant: u32, used: u64) -> bool {
        used > self.tenant(tenant).reservation_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_thresholds() {
        let q = QuotaTracker::new(100);
        assert_eq!(q.quota(), 100);
        assert!(!q.over_quota(100));
        assert!(q.over_quota(101));
        assert_eq!(q.free(70), 30);
        assert_eq!(q.free(130), 0);
    }

    #[test]
    fn unset_tenants_are_best_effort() {
        let q = QuotaTracker::new(100);
        assert_eq!(q.tenant(7), TenantQuota::default());
        assert!(!q.over_cap(7, u64::MAX - 1));
        assert!(
            q.above_reservation(7, 1),
            "no reservation → any use is fair game"
        );
        assert!(!q.above_reservation(7, 0));
    }

    #[test]
    fn tenant_limits_round_trip() {
        let mut q = QuotaTracker::new(100);
        q.set_tenant(
            2,
            TenantQuota {
                reservation_bytes: 20,
                cap_bytes: 60,
            },
        );
        assert_eq!(q.n_tenants(), 3);
        assert_eq!(q.tenant(1), TenantQuota::default());
        assert!(!q.over_cap(2, 60));
        assert!(q.over_cap(2, 61));
        assert!(!q.above_reservation(2, 20), "at the floor → immune");
        assert!(q.above_reservation(2, 21));
    }
}
