//! Multi-session restore scheduling.
//!
//! One resuming conversation is a pipeline (`hc-restore`'s two-stream
//! schedule); a *serving burst* is many of them at once. The
//! [`RestoreScheduler`] runs an ordered job list through the controller's
//! one restore body — the same one a single
//! [`CacheController::restore_with_report`] runs, here on the scheduler's
//! split. Each restore is a state machine advanced by a fixed pool of
//! compute workers (`n_workers`, clamped to the thread grant, which they
//! split evenly; the calling thread is one of them), and the in-flight
//! count is bounded by the admission window (memory), not by threads. Over
//! an IO reactor — what every `HCacheSystem` runs — device IO flows
//! through per-device submission queues bounded by the reactor's iodepth;
//! without one (tests and benches only) the workers read every chunk
//! inline. 10k concurrent restores on a 4-thread grant is the design
//! point.
//!
//! Results preserve job order and each is bit-identical to what a
//! sequential restore of that session would produce: the per-session
//! machines share no mutable state and every parallel kernel is bit-equal
//! to its serial form.

use hc_model::{KvCache, Model};
use hc_storage::backend::ChunkStore;
use hc_tensor::ParallelConfig;

use crate::{CacheController, CtlError, ReportedRestore};

/// One session's restore work.
#[derive(Debug, Clone)]
pub struct RestoreJob {
    /// Session to restore.
    pub session: u64,
    /// The session's full history tokens (recompute layers replay them).
    pub tokens: Vec<u32>,
}

/// Runs N controller restores over a shared host budget.
#[derive(Debug, Clone)]
pub struct RestoreScheduler {
    n_workers: usize,
    host_budget: ParallelConfig,
    max_inflight: usize,
}

impl RestoreScheduler {
    /// A scheduler whose batches run on `n_workers` compute workers under
    /// the `host_budget` thread grant (workers clamped to ≥ 1, and at run
    /// time to the grant itself — see
    /// [`hc_restore::reactor::worker_split`]), admitting `n_workers`
    /// restores at a time until [`RestoreScheduler::with_reactor`] widens
    /// the window.
    pub fn new(n_workers: usize, host_budget: ParallelConfig) -> Self {
        let n_workers = n_workers.max(1);
        Self {
            n_workers,
            host_budget,
            max_inflight: n_workers,
        }
    }

    /// Admits up to `max_inflight` restore *state machines* at once —
    /// bounded by memory and iodepth, not threads, so it may vastly exceed
    /// the thread budget (that is the point: 10k concurrent restores on a
    /// 4-thread grant). Applies to batches over every manager, with or
    /// without an IO reactor.
    pub fn with_reactor(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// The shared host thread budget.
    pub fn host_budget(&self) -> ParallelConfig {
        self.host_budget
    }

    /// Runs every job in queue order. Returns `(session, result)` pairs in
    /// job order — [`RestoreScheduler::run_with_reports`] without the
    /// reports.
    pub fn run<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        jobs: &[RestoreJob],
    ) -> Vec<(u64, Result<KvCache, CtlError>)> {
        self.run_with_reports(model, ctl, jobs)
            .into_iter()
            .map(|(session, r)| (session, r.map(|(kv, _)| kv)))
            .collect()
    }

    /// Runs every job in queue order through the controller's one restore
    /// body on this scheduler's split, with the device-health plane
    /// engaged: sessions whose layers sit behind a down or breaker-tripped
    /// device complete via recomputation and report how many layers
    /// degraded. Returns `(session, result)` pairs in job order.
    pub fn run_with_reports<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        jobs: &[RestoreJob],
    ) -> Vec<ReportedRestore> {
        let histories: Vec<(u64, &[u32])> = jobs
            .iter()
            .map(|job| (job.session, job.tokens.as_slice()))
            .collect();
        ctl.restore_jobs(
            model,
            &histories,
            self.n_workers,
            self.max_inflight,
            &self.host_budget,
        )
        .into_iter()
        .zip(jobs)
        .map(|(r, job)| (job.session, r))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_restore::reactor::worker_split;

    /// The split the restore driver makes of `s`'s grant over `batch` jobs:
    /// (compute workers, threads per machine).
    fn split(s: &RestoreScheduler, batch: usize) -> (usize, usize) {
        let (workers, per) = worker_split(s.n_workers, batch, &s.host_budget);
        (workers, per.threads())
    }

    #[test]
    fn budget_split_never_oversubscribes_and_never_zeroes() {
        let s = RestoreScheduler::new(4, ParallelConfig::new(8));
        assert_eq!(split(&s, 16), (4, 2));
        let s = RestoreScheduler::new(8, ParallelConfig::new(4));
        assert_eq!(split(&s, 16).1, 1);
        // Flooring: 3 workers on 8 threads get 2 each (6 ≤ 8), never 9.
        let s = RestoreScheduler::new(3, ParallelConfig::new(8));
        let (workers, per) = split(&s, 16);
        assert_eq!((workers, per), (3, 2));
        assert!(workers * per <= 8);
        // A short batch hands its idle workers' threads to the machines it has.
        let s = RestoreScheduler::new(4, ParallelConfig::new(4));
        assert_eq!(split(&s, 1), (1, 4));
        let s = RestoreScheduler::new(0, ParallelConfig::serial());
        assert_eq!(s.n_workers, 1);
        assert_eq!(split(&s, 16), (1, 1));
    }

    #[test]
    fn oversubscribed_worker_counts_are_clamped_to_the_thread_budget() {
        // 8 requested workers on a 4-thread grant must not each get the
        // ≥ 1-thread floor — 8 threads of compute on a 4-thread grant.
        // Only 4 run.
        let s = RestoreScheduler::new(8, ParallelConfig::new(4));
        let (workers, per) = split(&s, 16);
        assert_eq!((workers, per), (4, 1));
        assert!(workers * per <= 4);
        // A 1-thread host runs exactly one compute worker.
        let s = RestoreScheduler::new(16, ParallelConfig::serial());
        assert_eq!(split(&s, 16), (1, 1));
        // The admission window is not a thread count: 2 workers on a
        // 2-thread grant keep 64 restores in flight.
        let s = RestoreScheduler::new(2, ParallelConfig::new(2)).with_reactor(64);
        assert_eq!(split(&s, 128), (2, 1));
        assert_eq!(s.max_inflight, 64);
    }

    #[test]
    fn aggregate_compute_plus_io_never_exceeds_the_grant() {
        // The restore driver's split of a scheduler's grant, swept over
        // (threads, requested workers, batch size): admitted workers ×
        // per-machine threads ≤ granted, neither ever zero, and never more
        // workers than jobs. IO threads (the reactor's) block on device
        // service and are never charged, so compute is the whole of the
        // grant's accounting.
        for threads in 1..=9 {
            for requested in 0..=12 {
                let s = RestoreScheduler::new(requested, ParallelConfig::new(threads));
                for batch in 1..=12 {
                    let (workers, per) = split(&s, batch);
                    assert!(workers >= 1 && per >= 1);
                    assert!(workers <= batch);
                    assert!(
                        workers * per <= threads,
                        "threads={threads} workers={requested}: {workers}×{per} oversubscribes"
                    );
                }
            }
        }
    }
}
