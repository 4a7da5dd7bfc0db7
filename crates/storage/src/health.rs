//! Device health: retry budgets and per-device circuit breakers.
//!
//! PRs 6–7 gave reads a fixed 3-attempt / 50µs-doubling retry. That masks
//! blips but has two failure modes under a genuinely sick device:
//!
//! * every read of every session pays the full retry ladder against a
//!   device that has not served an IO in seconds (latency amplification
//!   with no memory of past outcomes), and
//! * nothing above the read path ever learns the device is sick, so the
//!   blast radius stays "every session whose chunks land on the lane,
//!   forever" until a human intervenes.
//!
//! This module supplies both missing pieces:
//!
//! * [`RetryPolicy`] — attempts, *jittered* exponential backoff (decorrelated
//!   deterministically per chunk so retry storms do not synchronize across
//!   lanes, yet tests stay reproducible), a total per-read backoff budget,
//!   and an optional reactor IO deadline. Lives on
//!   [`crate::manager::StorageManager`]; the old hardcoded
//!   `READ_RETRY_ATTEMPTS` constant is gone.
//! * [`DeviceHealth`] — a per-device sliding error/stall window feeding a
//!   three-state circuit breaker: **Closed** (healthy) → **Open** after a
//!   consecutive-failure or window-failure threshold (reads fail fast with
//!   a typed transient [`crate::StorageError::DeviceFailed`] instead of
//!   burning their retry budget) → **HalfOpen** after a cooldown (exactly
//!   one probe read is admitted; success closes the breaker, failure
//!   re-opens it and restarts the cooldown).
//!
//! The restore plane ([`hc_restore`]/[`hc_cachectl`]) consults the breaker
//! to degrade affected layers to recompute instead of surfacing errors,
//! and watches for the close transition to restore full-speed mixes — see
//! the README's "Degraded mode & device health" section.
//!
//! Locking: one mutex per device, never nested, held only for counter
//! updates — no IO, sleeps or sends happen under it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::chunk::ChunkKey;

/// Read-retry tunables carried by [`crate::manager::StorageManager`].
///
/// The default preserves the previous fixed behavior's shape (3 attempts
/// starting at 50µs) while adding a jitter spread, an exponential cap and
/// a total backoff budget per read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts for a transient fault (the first try plus the
    /// retries). At least 1.
    pub attempts: usize,
    /// Backoff before the first retry; doubles per attempt (before
    /// jitter).
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep after exponential growth.
    pub max_backoff: Duration,
    /// Total backoff a single chunk read may sleep across all its
    /// retries; once exceeded the fault surfaces even with attempts
    /// remaining.
    pub budget: Duration,
    /// Reactor IO deadline: a submitted read with no completion for this
    /// long is timed out into a typed transient
    /// [`crate::StorageError::DeviceFailed`] (and counted as a stall
    /// against the device's breaker) instead of wedging its lane. `None`
    /// (the default) disables deadline enforcement.
    pub io_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
            budget: Duration::from_millis(20),
            io_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// Same policy with reactor IO deadline enforcement enabled.
    pub fn with_io_deadline(mut self, deadline: Duration) -> Self {
        self.io_deadline = Some(deadline);
        self
    }

    /// The jittered backoff before retry number `attempt` (1-based: the
    /// sleep taken after the `attempt`-th failed try) of a read of `key`.
    ///
    /// Exponential with cap, then decorrelated into `[½·exp, exp]` by a
    /// xorshift draw seeded from the chunk key and attempt — deterministic
    /// for a given (key, attempt), so tests reproduce exactly, while
    /// distinct chunks spread out instead of hammering a recovering
    /// device in lockstep.
    pub fn backoff(&self, key: &ChunkKey, attempt: usize) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
            .min(self.max_backoff);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let kind = match key.stream.kind {
            crate::StateKind::Hidden => 0u64,
            crate::StateKind::Key => 1,
            crate::StateKind::Value => 2,
        };
        let mut x = key.stream.session.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((key.stream.layer as u64) << 32)
            ^ ((key.chunk_idx as u64) << 13)
            ^ (kind << 7)
            ^ (attempt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let half = nanos / 2;
        Duration::from_nanos(half + x % (nanos - half + 1))
    }
}

/// Circuit-breaker state of one device lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: reads flow normally.
    Closed,
    /// Tripped: reads fail fast until the cooldown elapses.
    Open,
    /// Cooling down: one probe read is in flight; its outcome decides
    /// between [`BreakerState::Closed`] and [`BreakerState::Open`].
    HalfOpen,
}

/// Decision returned by [`DeviceHealth::admit`] for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Proceed normally (breaker closed).
    Yes,
    /// Proceed as the half-open probe: a single attempt whose outcome
    /// closes or re-opens the breaker. No backoff retries — a probe that
    /// fails must report promptly.
    Probe,
    /// Fail fast: the breaker is open and still cooling down.
    No,
}

/// Breaker thresholds. Defaults are high enough that the bounded-retry
/// tests' handful of injected blips never trip a breaker, while a hard
/// device outage (every read failing) trips within one session's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (no intervening success) that open the
    /// breaker.
    pub consecutive_failures: usize,
    /// Size of the sliding outcome window per device.
    pub window: usize,
    /// Failures within the window that open the breaker even without a
    /// consecutive run (flaky, not dead).
    pub window_failures: usize,
    /// Time an open breaker waits before admitting the half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            consecutive_failures: 8,
            window: 32,
            window_failures: 16,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Per-device sliding window + breaker state. One lock per device, never
/// nested; see the module docs.
struct DeviceState {
    /// Recent outcomes, `true` = failure; bounded by
    /// [`BreakerConfig::window`].
    recent: VecDeque<bool>,
    /// Failures currently inside `recent`.
    window_failures: usize,
    /// Current consecutive-failure run.
    consecutive: usize,
    state: BreakerState,
    /// When the breaker last opened (meaningful in `Open`).
    opened_at: Instant,
    /// When the half-open probe was granted (meaningful in `HalfOpen`);
    /// a probe outstanding longer than one cooldown is presumed lost and
    /// re-granted, so a crashed prober cannot wedge the lane half-open.
    probe_granted_at: Instant,
    /// Lifetime transition/outcome counters (observability).
    errors: u64,
    stalls: u64,
    trips: u64,
}

/// Per-device health registry: sliding error/stall counters and a
/// three-state circuit breaker per lane, fed by every storage IO result
/// (manager read/write paths, reactor completions, deadline expirations).
pub struct DeviceHealth {
    cfg: BreakerConfig,
    devices: Vec<Mutex<DeviceState>>,
}

impl DeviceHealth {
    /// A registry for `n_devices` lanes under the default thresholds.
    pub fn new(n_devices: usize) -> Self {
        Self::with_config(n_devices, BreakerConfig::default())
    }

    /// A registry with explicit thresholds.
    pub fn with_config(n_devices: usize, cfg: BreakerConfig) -> Self {
        assert!(n_devices > 0, "need at least one device");
        let now = Instant::now();
        Self {
            cfg,
            devices: (0..n_devices)
                .map(|_| {
                    Mutex::new(DeviceState {
                        recent: VecDeque::with_capacity(cfg.window),
                        window_failures: 0,
                        consecutive: 0,
                        state: BreakerState::Closed,
                        opened_at: now,
                        probe_granted_at: now,
                        errors: 0,
                        stalls: 0,
                        trips: 0,
                    })
                })
                .collect(),
        }
    }

    /// Lanes tracked.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// The thresholds in force.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Admission decision for one read against `device`. Open breakers
    /// fail fast until the cooldown elapses; the first admission
    /// afterwards transitions to half-open and is granted as the probe.
    pub fn admit(&self, device: usize) -> Admit {
        let mut d = self.devices[device % self.devices.len()].lock();
        match d.state {
            BreakerState::Closed => Admit::Yes,
            BreakerState::Open => {
                if d.opened_at.elapsed() >= self.cfg.cooldown {
                    d.state = BreakerState::HalfOpen;
                    d.probe_granted_at = Instant::now();
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
            BreakerState::HalfOpen => {
                // A probe outstanding longer than one cooldown is presumed
                // lost (prober died / timed out without reporting): grant a
                // replacement rather than wedging the lane half-open.
                if d.probe_granted_at.elapsed() >= self.cfg.cooldown {
                    d.probe_granted_at = Instant::now();
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
        }
    }

    /// Records a successful IO on `device`. Closes a half-open breaker
    /// (the probe landed) and resets the failure run.
    pub fn record_success(&self, device: usize) {
        let mut d = self.devices[device % self.devices.len()].lock();
        d.consecutive = 0;
        Self::push_outcome(&mut d, false, self.cfg.window);
        if d.state == BreakerState::HalfOpen {
            d.state = BreakerState::Closed;
            d.recent.clear();
            d.window_failures = 0;
        }
    }

    /// Records a failed IO on `device` (`transient` mirrors the typed
    /// error; both flavors feed the same window — a permanently failing
    /// lane should trip fastest of all).
    pub fn record_failure(&self, device: usize, _transient: bool) {
        self.record_bad(device, false);
    }

    /// Records a stalled IO (reactor deadline expiry) on `device`.
    /// Counted as a failure for breaker purposes: a lane that cannot
    /// complete IOs inside the deadline is sick whether or not it would
    /// eventually succeed.
    pub fn record_stall(&self, device: usize) {
        self.record_bad(device, true);
    }

    fn record_bad(&self, device: usize, stall: bool) {
        let cfg = self.cfg;
        let mut d = self.devices[device % self.devices.len()].lock();
        if stall {
            d.stalls += 1;
        } else {
            d.errors += 1;
        }
        d.consecutive += 1;
        Self::push_outcome(&mut d, true, cfg.window);
        let trip = match d.state {
            // The probe failed: straight back to open, cooldown restarts.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                d.consecutive >= cfg.consecutive_failures
                    || d.window_failures >= cfg.window_failures
            }
            BreakerState::Open => false,
        };
        if trip {
            d.state = BreakerState::Open;
            d.opened_at = Instant::now();
            d.trips += 1;
        }
    }

    fn push_outcome(d: &mut DeviceState, failed: bool, window: usize) {
        d.recent.push_back(failed);
        if failed {
            d.window_failures += 1;
        }
        while d.recent.len() > window {
            if d.recent.pop_front() == Some(true) {
                d.window_failures -= 1;
            }
        }
    }

    /// Current breaker state of `device` (no side effects).
    pub fn state(&self, device: usize) -> BreakerState {
        self.devices[device % self.devices.len()].lock().state
    }

    /// True while reads of `device` would fail fast: the breaker is open
    /// *and* still inside its cooldown. Returns `false` once the probe
    /// window opens, so callers planning around a tripped lane (the
    /// degraded-restore placement) naturally let probe traffic through
    /// and the breaker can close itself.
    pub fn is_tripped(&self, device: usize) -> bool {
        let d = self.devices[device % self.devices.len()].lock();
        d.state == BreakerState::Open && d.opened_at.elapsed() < self.cfg.cooldown
    }

    /// Lifetime counters for `device`: `(errors, stalls, trips)`.
    pub fn counters(&self, device: usize) -> (u64, u64, u64) {
        let d = self.devices[device % self.devices.len()].lock();
        (d.errors, d.stalls, d.trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamId;

    fn key(chunk_idx: u32) -> ChunkKey {
        ChunkKey {
            stream: StreamId::hidden(1, 0),
            chunk_idx,
        }
    }

    fn fast_cfg() -> BreakerConfig {
        BreakerConfig {
            consecutive_failures: 3,
            window: 8,
            window_failures: 5,
            cooldown: Duration::from_millis(5),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=6 {
            let a = p.backoff(&key(7), attempt);
            let b = p.backoff(&key(7), attempt);
            assert_eq!(a, b, "same (key, attempt) must draw the same jitter");
            let exp = p
                .base_backoff
                .saturating_mul(1 << (attempt - 1) as u32)
                .min(p.max_backoff);
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} vs {exp:?}"
            );
        }
        // Distinct chunks decorrelate (not all equal across a spread).
        let draws: Vec<Duration> = (0..16).map(|i| p.backoff(&key(i), 3)).collect();
        assert!(draws.iter().any(|d| *d != draws[0]), "jitter must spread");
    }

    #[test]
    fn consecutive_failures_open_the_breaker() {
        let h = DeviceHealth::with_config(2, fast_cfg());
        for _ in 0..2 {
            h.record_failure(0, true);
        }
        assert_eq!(h.state(0), BreakerState::Closed);
        h.record_failure(0, false);
        assert_eq!(h.state(0), BreakerState::Open);
        assert!(h.is_tripped(0));
        assert_eq!(h.admit(0), Admit::No);
        // The sibling lane is untouched.
        assert_eq!(h.state(1), BreakerState::Closed);
        assert_eq!(h.admit(1), Admit::Yes);
    }

    #[test]
    fn success_resets_the_consecutive_run() {
        let h = DeviceHealth::with_config(1, fast_cfg());
        for _ in 0..2 {
            h.record_failure(0, true);
        }
        h.record_success(0);
        h.record_failure(0, true);
        assert_eq!(h.state(0), BreakerState::Closed);
    }

    #[test]
    fn window_failures_trip_a_flaky_lane_without_a_run() {
        let h = DeviceHealth::with_config(1, fast_cfg());
        // Alternate failure/success: consecutive never exceeds 1, but the
        // window accumulates 5 failures out of 8 outcomes.
        for _ in 0..4 {
            h.record_failure(0, true);
            h.record_success(0);
        }
        assert_eq!(h.state(0), BreakerState::Closed, "4/8 under threshold");
        h.record_failure(0, true);
        // Window now holds f s f s f s f s f → trimmed to 8: s f s f s f s f
        // = 4 failures… keep alternating until the count crosses.
        h.record_success(0);
        h.record_failure(0, true);
        h.record_failure(0, true);
        assert_eq!(h.state(0), BreakerState::Open, "window threshold trips");
    }

    #[test]
    fn half_open_probe_success_closes_and_failure_reopens() {
        let cfg = fast_cfg();
        let h = DeviceHealth::with_config(1, cfg);
        for _ in 0..cfg.consecutive_failures {
            h.record_failure(0, false);
        }
        assert_eq!(h.admit(0), Admit::No, "cooling down");
        std::thread::sleep(cfg.cooldown);
        assert!(!h.is_tripped(0), "cooldown elapsed: probe-eligible");
        assert_eq!(h.admit(0), Admit::Probe);
        assert_eq!(h.state(0), BreakerState::HalfOpen);
        assert_eq!(h.admit(0), Admit::No, "one probe at a time");
        // Probe fails: straight back to open, cooldown restarts.
        h.record_failure(0, true);
        assert_eq!(h.state(0), BreakerState::Open);
        assert_eq!(h.admit(0), Admit::No);
        std::thread::sleep(cfg.cooldown);
        assert_eq!(h.admit(0), Admit::Probe);
        // Probe lands: closed, window reset, reads flow.
        h.record_success(0);
        assert_eq!(h.state(0), BreakerState::Closed);
        assert_eq!(h.admit(0), Admit::Yes);
        let (errors, _stalls, trips) = h.counters(0);
        assert_eq!(errors, cfg.consecutive_failures as u64 + 1);
        assert_eq!(trips, 2);
    }

    #[test]
    fn lost_probe_is_regranted_after_a_cooldown() {
        let cfg = fast_cfg();
        let h = DeviceHealth::with_config(1, cfg);
        for _ in 0..cfg.consecutive_failures {
            h.record_failure(0, false);
        }
        std::thread::sleep(cfg.cooldown);
        assert_eq!(h.admit(0), Admit::Probe);
        // The prober dies without reporting; after another cooldown the
        // lane grants a replacement instead of staying wedged half-open.
        std::thread::sleep(cfg.cooldown);
        assert_eq!(h.admit(0), Admit::Probe);
    }

    #[test]
    fn stalls_count_toward_the_breaker() {
        let cfg = fast_cfg();
        let h = DeviceHealth::with_config(1, cfg);
        for _ in 0..cfg.consecutive_failures {
            h.record_stall(0);
        }
        assert_eq!(h.state(0), BreakerState::Open);
        let (errors, stalls, trips) = h.counters(0);
        assert_eq!(
            (errors, stalls, trips),
            (0, cfg.consecutive_failures as u64, 1)
        );
    }
}
