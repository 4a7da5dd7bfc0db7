//! Multi-session restore scheduling.
//!
//! One resuming conversation is a pipeline (`hc-restore`'s two-stream
//! schedule); a *serving burst* is many of them at once. The
//! [`RestoreScheduler`] runs an ordered job list (typically a
//! `workload::arrival` trace) in one of two modes.
//!
//! **Reactor mode** ([`RestoreScheduler::with_reactor`]) is what a
//! reactor-attached manager runs: batches route through
//! [`CacheController::restore_batch_reactor`] — each restore is a state
//! machine advanced by a fixed worker pool sized to the host grant, IO
//! flows through per-device submission queues, and the in-flight count is
//! bounded by the configured admission window (memory) and the reactor's
//! iodepth, not by threads. 10k concurrent restores on a 4-thread grant is
//! the design point.
//!
//! **Thread-per-restore mode** is what runs over a manager without a
//! reactor (and is the reference the reactor route is asserted against):
//! up to `n_workers` concurrent pipelined restores, with the host
//! [`ParallelConfig`] thread budget split evenly across them, so the
//! aggregate never oversubscribes the cores the caller granted — the same
//! discipline the chunk daemon and a single restore pipeline already
//! follow. The number of restores actually in flight is **clamped to the
//! thread budget** (admitting more workers than threads would hand every
//! worker the ≥ 1-thread floor and oversubscribe the host). Jobs are
//! pulled from a shared queue (work stealing), so one session with a long
//! history never convoys the sessions behind it onto an idle worker.
//!
//! What the accounting covers is *CPU-bearing* threads: per-restore
//! projection/recompute threads. Each in-flight pipelined restore
//! additionally runs its IO-stream prefetch thread (the two-stream
//! schedule's other stream), which — like the two-stage saver's chunk
//! daemon and the reactor's IO threads — spends its life blocked on
//! backend reads and is deliberately not charged a core.
//!
//! In both modes results preserve job order and each is bit-identical to
//! what a sequential restore of that session would produce: the
//! per-session pipelines share no mutable state and every parallel kernel
//! is bit-equal to its serial form.

use hc_model::{KvCache, Model};
use hc_restore::engine::map_concurrent;
use hc_storage::backend::ChunkStore;
use hc_tensor::ParallelConfig;
use hc_workload::Request;

use crate::{CacheController, CtlError, ReportedRestore};

/// One session's restore work.
#[derive(Debug, Clone)]
pub struct RestoreJob {
    /// Session to restore.
    pub session: u64,
    /// The session's full history tokens (recompute layers replay them).
    pub tokens: Vec<u32>,
}

/// Admits N concurrent controller restores over a shared host budget.
#[derive(Debug, Clone)]
pub struct RestoreScheduler {
    n_workers: usize,
    host_budget: ParallelConfig,
    /// When `Some(max_inflight)`, route batches through the manager's IO
    /// reactor: restore state machines instead of thread-per-restore.
    reactor_inflight: Option<usize>,
}

impl RestoreScheduler {
    /// A scheduler running up to `n_workers` restores in flight under the
    /// `host_budget` thread budget (workers clamped to ≥ 1, and at run
    /// time to the thread budget itself — see [`RestoreScheduler::run`]).
    pub fn new(n_workers: usize, host_budget: ParallelConfig) -> Self {
        Self {
            n_workers: n_workers.max(1),
            host_budget,
            reactor_inflight: None,
        }
    }

    /// Routes batches through the storage manager's IO reactor
    /// (`StorageManager::with_reactor`): up to `max_inflight` restore
    /// *state machines* in flight — bounded by memory and iodepth, not
    /// threads — advanced by a worker pool sized to the host grant, all IO
    /// riding the reactor's per-device submission queues. Takes effect
    /// only when the controller's manager actually has a reactor attached;
    /// otherwise [`RestoreScheduler::run`] falls back to the
    /// thread-per-restore path. `max_inflight` may vastly exceed the
    /// thread budget (that is the point: 10k concurrent restores on a
    /// 4-thread grant).
    pub fn with_reactor(mut self, max_inflight: usize) -> Self {
        self.reactor_inflight = Some(max_inflight.max(1));
        self
    }

    /// The reactor admission window, when reactor routing is configured.
    pub fn reactor_inflight(&self) -> Option<usize> {
        self.reactor_inflight
    }

    /// Maximum restores in flight.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The shared host thread budget.
    pub fn host_budget(&self) -> ParallelConfig {
        self.host_budget
    }

    /// Restores actually admitted in flight for `workers` requested: never
    /// more than the thread budget. Admitting more would hand each worker
    /// the ≥ 1-thread floor of [`RestoreScheduler::budget_for`] and
    /// oversubscribe the grant the module docs promise to respect.
    fn effective_workers(&self, workers: usize) -> usize {
        workers.clamp(1, self.host_budget.threads())
    }

    /// The thread budget each in-flight restore projects under when
    /// `workers` are requested: `⌊threads / effective_workers⌋`. Because
    /// the in-flight count is clamped to the budget, the floor is always
    /// ≥ 1 without ever oversubscribing: `effective × per-restore ≤
    /// host_budget.threads()`.
    fn budget_for(&self, workers: usize) -> ParallelConfig {
        ParallelConfig::new(self.host_budget.threads() / self.effective_workers(workers))
    }

    /// The thread budget each in-flight restore projects under when all
    /// admitted workers are busy (fewer jobs than workers get a larger
    /// share).
    pub fn per_restore_budget(&self) -> ParallelConfig {
        self.budget_for(self.n_workers)
    }

    /// Runs every job, at most `n_workers` concurrently, in queue order.
    /// Returns `(session, result)` pairs in job order.
    ///
    /// With [`RestoreScheduler::with_reactor`] configured *and* the
    /// controller's manager running an IO reactor, the batch instead goes
    /// through [`CacheController::restore_batch_reactor`]: the whole host
    /// grant becomes the compute-worker pool and up to the configured
    /// admission window of restore state machines stay in flight — the
    /// in-flight count is then bounded by memory and iodepth, not by
    /// `n_workers`. The reactor's IO threads, like the per-restore
    /// prefetch threads, spend their lives blocked on device service and
    /// are not charged compute.
    pub fn run<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        jobs: &[RestoreJob],
    ) -> Vec<(u64, Result<KvCache, CtlError>)> {
        self.run_reported(model, ctl, jobs, false)
            .into_iter()
            .map(|(session, r)| (session, r.map(|(kv, _)| kv)))
            .collect()
    }

    /// [`RestoreScheduler::run`] with the device-health plane engaged:
    /// restores route through the controller's degraded entry points
    /// ([`CacheController::restore_with_report`], or
    /// [`CacheController::restore_batch_reactor_with_reports`] in reactor
    /// mode), so sessions whose layers sit behind a down or
    /// breaker-tripped device complete via recomputation and report how
    /// many layers degraded instead of failing. Same admission and budget
    /// discipline as `run`.
    pub fn run_with_reports<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        jobs: &[RestoreJob],
    ) -> Vec<ReportedRestore> {
        self.run_reported(model, ctl, jobs, true)
    }

    /// The one body behind `run` (`degrade` off, reports dropped) and
    /// `run_with_reports` (`degrade` on).
    fn run_reported<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        jobs: &[RestoreJob],
        degrade: bool,
    ) -> Vec<ReportedRestore> {
        if let Some(max_inflight) = self.reactor_inflight {
            if ctl.mgr().reactor().is_some() {
                let workers = self.host_budget.threads().max(1);
                return ctl.restore_batch(
                    model,
                    jobs,
                    workers,
                    max_inflight,
                    &self.host_budget,
                    degrade,
                );
            }
        }
        // Split the budget over the workers that will actually run, so a
        // short job list doesn't strand granted threads — clamped to the
        // thread budget so the aggregate stays within the grant.
        let workers = self.effective_workers(self.n_workers.min(jobs.len()).max(1));
        let per_budget = self.budget_for(workers);
        let results = map_concurrent(jobs, workers, |job| {
            ctl.restore_reported(model, job.session, &job.tokens, &per_budget, degrade)
        });
        jobs.iter()
            .zip(results)
            .map(|(j, r)| (j.session, r))
            .collect()
    }

    /// Runs the restores a `workload::arrival` request trace demands, in
    /// arrival order: every request with restorable history becomes a job,
    /// `tokens_for` supplying the session's history tokens. Requests whose
    /// session the lookup does not know yield `CtlError::UnknownSession`.
    ///
    /// # Panics
    /// Panics when `requests` is not sorted by arrival time (the contract
    /// `workload::arrival::schedule_sessions` already guarantees).
    pub fn run_trace<S: ChunkStore + Sync + 'static>(
        &self,
        model: &Model,
        ctl: &CacheController<S>,
        requests: &[Request],
        tokens_for: impl Fn(u64) -> Option<Vec<u32>>,
    ) -> Vec<(u64, Result<KvCache, CtlError>)> {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        enum Slot {
            Job(usize),
            Unknown(u64),
        }
        let mut jobs = Vec::new();
        let mut slots = Vec::new();
        for r in requests.iter().filter(|r| r.history_tokens > 0) {
            match tokens_for(r.session_id) {
                Some(tokens) => {
                    slots.push(Slot::Job(jobs.len()));
                    jobs.push(RestoreJob {
                        session: r.session_id,
                        tokens,
                    });
                }
                None => slots.push(Slot::Unknown(r.session_id)),
            }
        }
        let mut results: Vec<Option<(u64, Result<KvCache, CtlError>)>> =
            self.run(model, ctl, &jobs).into_iter().map(Some).collect();
        slots
            .into_iter()
            .map(|slot| match slot {
                // hc-analyze: allow(panic) slot indices are distinct by construction, so each result is taken exactly once
                Slot::Job(i) => results[i].take().expect("each job consumed once"),
                Slot::Unknown(s) => (s, Err(CtlError::UnknownSession(s))),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_split_never_oversubscribes_and_never_zeroes() {
        let s = RestoreScheduler::new(4, ParallelConfig::new(8));
        assert_eq!(s.per_restore_budget().threads(), 2);
        let s = RestoreScheduler::new(8, ParallelConfig::new(4));
        assert_eq!(s.per_restore_budget().threads(), 1);
        // Flooring: 3 workers on 8 threads get 2 each (6 ≤ 8), never 9.
        let s = RestoreScheduler::new(3, ParallelConfig::new(8));
        assert_eq!(s.per_restore_budget().threads(), 2);
        assert!(s.per_restore_budget().threads() * s.n_workers() <= 8);
        let s = RestoreScheduler::new(0, ParallelConfig::serial());
        assert_eq!(s.n_workers(), 1);
    }

    #[test]
    fn oversubscribed_worker_counts_are_clamped_to_the_thread_budget() {
        // The old flooring bug: 8 requested workers on a 4-thread budget
        // each got the ≥ 1-thread floor — 8 threads of compute on a
        // 4-thread grant. Now only 4 run in flight.
        let s = RestoreScheduler::new(8, ParallelConfig::new(4));
        assert_eq!(s.effective_workers(8), 4);
        assert_eq!(s.per_restore_budget().threads(), 1);
        assert!(s.effective_workers(8) * s.per_restore_budget().threads() <= 4);
        // A 1-thread host admits exactly one restore at a time.
        let s = RestoreScheduler::new(16, ParallelConfig::serial());
        assert_eq!(s.effective_workers(16), 1);
    }

    #[test]
    fn aggregate_compute_plus_io_never_exceeds_the_grant() {
        // Regression sweep over (threads, requested workers): admitted
        // workers × per-restore threads ≤ granted. IO threads (prefetch,
        // reactor) block on device service and are never charged, so
        // compute is the whole of the grant's accounting.
        for threads in 1..=9 {
            for n_workers in 1..=12 {
                let s = RestoreScheduler::new(n_workers, ParallelConfig::new(threads));
                let admitted = s.effective_workers(n_workers);
                let per = s.budget_for(n_workers).threads();
                assert!(admitted >= 1 && per >= 1);
                assert!(
                    admitted * per <= threads,
                    "threads={threads} workers={n_workers}: {admitted}×{per} oversubscribes"
                );
            }
        }
    }
}
