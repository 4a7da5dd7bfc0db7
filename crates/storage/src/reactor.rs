//! Event-driven IO reactor: per-device submission queues + a shared
//! compute run queue, so in-flight restores are bounded by memory and
//! iodepth instead of threads.
//!
//! Giving each restore a thread of its own would clamp in-flight restores
//! to the host thread grant: every concurrently-restoring session would
//! pin one blocking worker for its whole lifetime — fine for 8-session
//! bursts, wrong for thousands of concurrent restores overlapping IO on a
//! handful of devices. The reactor inverts the ownership:
//!
//! * **Per-device submission queues** ([`Reactor`]): each modeled device
//!   gets its own queue served by `iodepth` dedicated IO threads, the
//!   software shape of an iodepth-N NVMe submission queue. IO threads
//!   spend their lives blocked on device service time (they are not
//!   CPU-bearing), and their count is `n_devices × iodepth` — **fixed**,
//!   independent of how many restores are in flight.
//! * **Completion-driven state machines**: each read is one
//!   [`crate::manager::ReadJob`] whose chunks advance through `planned →
//!   submitted → landed`. A completion does not get a thread; it stages
//!   its raw bytes on the owning job and nudges the job's owner through a
//!   notify callback, and the owner's next pump decodes them straight into
//!   their destination rows.
//! * **Shared compute run queue** ([`WorkQueue`]): a small pool of compute
//!   workers (owned by the restore driver, counted against the host grant;
//!   the calling thread is one of them) pops ready work tokens and
//!   advances whichever state machine has staged completions — instead of
//!   one thread per lane per restore. A blocking `read_rows_into` pumps
//!   its read job on the calling thread, sleeping on its `notify` between
//!   pumps.
//!
//! Determinism: the reactor moves *scheduling*, never *content*. A job
//! lands a queued chunk exactly as it lands one read inline on a manager
//! without a reactor, row ranges are disjoint, and errors resolve to the
//! lowest slice index, so reads are bit-identical with and without a
//! reactor at every `iodepth`/worker combination (see
//! `tests/storage_concurrency.rs`).

// hc-analyze: lock-order rx < state
// (`rx`: a device queue's shared receiver; `state`: the compute run
// queue. The two planes never nest today — the declaration pins the
// only legal direction if they ever do.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// A unit of submitted IO: owns everything it touches (`'static`), runs
/// exactly once on one of the owning device's IO threads.
type IoJob = Box<dyn FnOnce() + Send + 'static>;

/// One modeled device's submission queue and its `iodepth` IO threads.
struct DeviceQueue {
    /// Submission side; `None` only during drop.
    tx: Option<mpsc::Sender<IoJob>>,
    threads: Vec<JoinHandle<()>>,
}

impl DeviceQueue {
    fn new(device: usize, iodepth: usize) -> Self {
        let (tx, rx) = mpsc::channel::<IoJob>();
        // `iodepth` threads share one queue: up to `iodepth` requests of
        // this device are in flight at once; the rest wait their turn in
        // submission order.
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..iodepth)
            .map(|slot| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("hc-reactor-d{device}q{slot}"))
                    .spawn(move || loop {
                        // hc-analyze: allow(blocking_under_lock) the rx guard IS the handoff: iodepth threads take turns receiving, and the guard drops before the job runs
                        let job = rx.lock().recv();
                        match job {
                            // Panic isolation: a buggy ChunkStore must
                            // not shrink the device queue and strand
                            // queued submissions.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => return,
                        }
                    })
                    // hc-analyze: allow(panic) thread-spawn failure at construction is a host misconfiguration; no caller handles a reactor without its IO plane
                    .expect("spawn reactor IO thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            threads,
        }
    }
}

impl Drop for DeviceQueue {
    fn drop(&mut self) {
        self.tx = None;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The IO plane: per-device submission queues with configurable iodepth,
/// plus the process-wide restore-in-flight gauge.
///
/// Attach one to a manager with
/// [`crate::manager::StorageManager::with_reactor`]; the manager's
/// [`crate::manager::ReadJob`]s then submit their device reads to these
/// queues — pumped by `read_rows_into` on its calling thread, or by a
/// restore driver that keeps thousands of restores in flight from a fixed
/// worker pool.
pub struct Reactor {
    devices: Vec<DeviceQueue>,
    iodepth: usize,
    /// Chunk IOs ever submitted — observability for adaptive-path tests.
    ios_submitted: AtomicU64,
    /// Restores admitted and not yet completed (driver-maintained gauge).
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    /// Monotonic totals behind the gauge, so a driver can close the
    /// books: after a drained batch, admitted == completed.
    admitted_total: AtomicU64,
    completed_total: AtomicU64,
}

impl Reactor {
    /// Spawns the IO plane for `n_devices` devices (clamped to ≥ 1) with
    /// `iodepth` requests in flight per device (clamped to ≥ 1).
    ///
    /// Total IO threads: `n_devices × iodepth`. They block on device
    /// service time, not CPU, so they are not charged against the compute
    /// grant the restore drivers split.
    pub fn new(n_devices: usize, iodepth: usize) -> Arc<Self> {
        let n_devices = n_devices.max(1);
        let iodepth = iodepth.max(1);
        Arc::new(Self {
            devices: (0..n_devices)
                .map(|d| DeviceQueue::new(d, iodepth))
                .collect(),
            iodepth,
            ios_submitted: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            admitted_total: AtomicU64::new(0),
            completed_total: AtomicU64::new(0),
        })
    }

    /// Number of per-device submission queues.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Requests in flight per device.
    pub fn iodepth(&self) -> usize {
        self.iodepth
    }

    /// Enqueues `job` on `device`'s submission queue. Jobs on one device
    /// start in submission order, up to `iodepth` in flight; completion
    /// reporting is the caller's business (through state captured by the
    /// closure). Submission never blocks.
    pub fn submit_io(&self, device: usize, job: impl FnOnce() + Send + 'static) {
        // hc-analyze: allow(relaxed) monotonic observability counter; no reader pairs it with other state
        self.ios_submitted.fetch_add(1, Ordering::Relaxed);
        self.devices[device % self.devices.len()]
            .tx
            .as_ref()
            // hc-analyze: allow(panic) tx is Some for the reactor's whole life; only Drop clears it, and Drop requires exclusive ownership
            .expect("reactor is live outside drop")
            .send(Box::new(job))
            // hc-analyze: allow(panic) device IO threads hold rx until tx drops, so an unbounded send cannot fail
            .expect("reactor IO threads outlive submissions");
    }

    /// Chunk IOs ever submitted through this reactor.
    pub fn ios_submitted(&self) -> u64 {
        // hc-analyze: allow(relaxed) monotonic observability counter; no reader pairs it with other state
        self.ios_submitted.load(Ordering::Relaxed)
    }

    /// Marks one restore admitted (gauge up, peak tracked). The gauge and
    /// totals use Release on the write side / Acquire on the read side:
    /// drivers close the books across threads (admitted == completed after
    /// a drained batch) and gate admission windows on these values.
    pub fn restore_admitted(&self) {
        self.admitted_total.fetch_add(1, Ordering::AcqRel);
        let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak_in_flight.fetch_max(now, Ordering::AcqRel);
    }

    /// Marks one restore completed (gauge down).
    pub fn restore_completed(&self) {
        self.completed_total.fetch_add(1, Ordering::AcqRel);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Restores ever admitted through this reactor.
    pub fn restores_admitted_total(&self) -> u64 {
        self.admitted_total.load(Ordering::Acquire)
    }

    /// Restores ever completed through this reactor.
    pub fn restores_completed_total(&self) -> u64 {
        self.completed_total.load(Ordering::Acquire)
    }

    /// Restores currently admitted and not completed.
    pub fn restores_in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// High-water mark of [`Self::restores_in_flight`]. This is the
    /// headline "10k restores on a 4-thread grant" number: a thread per
    /// restore could never take it past the thread budget; with the
    /// reactor it is bounded by admission (memory), not threads.
    pub fn peak_restores_in_flight(&self) -> u64 {
        self.peak_in_flight.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("n_devices", &self.n_devices())
            .field("iodepth", &self.iodepth)
            .finish()
    }
}

/// What [`WorkQueue::pop`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// A ready-work token.
    Token(usize),
    /// The wait elapsed with the queue empty and open.
    Idle,
    /// The queue is closed and drained — the worker's signal to exit.
    Closed,
}

/// State of the shared run queue.
struct WorkQueueState {
    tokens: VecDeque<usize>,
    closed: bool,
}

/// The shared compute run queue: an MPMC queue of ready-work tokens
/// (machine indices) popped by the restore driver's compute workers.
///
/// Tokens carry no payload — a token means "machine `i` has staged work;
/// some worker should advance it". Pushing after [`WorkQueue::close`] is a
/// silent no-op so late IO completions (whose notify callbacks outlive the
/// driver) cannot wedge or panic.
pub struct WorkQueue {
    state: StdMutex<WorkQueueState>,
    ready: Condvar,
}

impl WorkQueue {
    /// An open, empty queue.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: StdMutex::new(WorkQueueState {
                tokens: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Enqueues a work token and wakes one worker. No-op after `close`.
    ///
    /// Poisoning is recovered rather than propagated throughout: the state
    /// is a `VecDeque` plus a flag, both valid at every unlock point, so a
    /// panicking worker elsewhere must not take the whole run queue (and
    /// every sibling restore) down with it.
    pub fn push(&self, token: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return;
        }
        st.tokens.push_back(token);
        drop(st);
        self.ready.notify_one();
    }

    /// Blocks for the next token — with `wait`, for at most that long.
    pub fn pop(&self, wait: Option<Duration>) -> Popped {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut timed_out = false;
        loop {
            if let Some(token) = st.tokens.pop_front() {
                return Popped::Token(token);
            }
            if st.closed {
                return Popped::Closed;
            }
            if timed_out {
                return Popped::Idle;
            }
            st = match wait {
                None => self.ready.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(wait) => {
                    let (st, timeout) = self
                        .ready
                        .wait_timeout(st, wait)
                        .unwrap_or_else(PoisonError::into_inner);
                    timed_out = timeout.timed_out();
                    st
                }
            };
        }
    }

    /// Closes the queue: workers drain the remaining tokens, then `pop`
    /// returns `None`; later pushes are dropped.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn geometry_is_clamped() {
        let r = Reactor::new(0, 0);
        assert_eq!(r.n_devices(), 1);
        assert_eq!(r.iodepth(), 1);
        let r = Reactor::new(4, 2);
        assert_eq!(r.n_devices(), 4);
        assert_eq!(r.iodepth(), 2);
    }

    #[test]
    fn every_submitted_io_runs_exactly_once() {
        let r = Reactor::new(3, 2);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..96 {
            let hits = Arc::clone(&hits);
            r.submit_io(i % 3, move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(r.ios_submitted(), 96);
        // Drop joins every device thread after the queues drain.
        drop(Arc::try_unwrap(r).expect("sole owner"));
        assert_eq!(hits.load(Ordering::Relaxed), 96);
    }

    #[test]
    fn iodepth_requests_overlap_on_one_device() {
        // 4 sleeping jobs on one device at iodepth 4 finish in ~1 nap.
        let r = Reactor::new(1, 4);
        let nap = Duration::from_millis(20);
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        for i in 0..4 {
            let tx = tx.clone();
            r.submit_io(0, move || {
                std::thread::sleep(nap);
                let _ = tx.send(i);
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 4);
        let elapsed = t0.elapsed();
        assert!(elapsed < nap * 3, "iodepth must overlap: {elapsed:?}");
    }

    #[test]
    fn a_panicking_io_job_does_not_kill_its_device_queue() {
        let r = Reactor::new(1, 1);
        r.submit_io(0, || panic!("buggy store"));
        let (tx, rx) = mpsc::channel();
        r.submit_io(0, move || {
            let _ = tx.send(7);
        });
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn restore_gauge_tracks_peak() {
        let r = Reactor::new(1, 1);
        r.restore_admitted();
        r.restore_admitted();
        r.restore_admitted();
        assert_eq!(r.restores_in_flight(), 3);
        r.restore_completed();
        r.restore_admitted();
        r.restore_completed();
        assert_eq!(r.restores_in_flight(), 2);
        assert_eq!(r.peak_restores_in_flight(), 3);
    }

    #[test]
    fn work_queue_delivers_fifo_and_drains_on_close() {
        let q = WorkQueue::new();
        assert_eq!(q.pop(Some(Duration::from_millis(1))), Popped::Idle);
        q.push(1);
        q.push(2);
        q.close();
        q.push(3); // dropped: queue is closed
        assert_eq!(q.pop(None), Popped::Token(1));
        assert_eq!(q.pop(None), Popped::Token(2));
        assert_eq!(q.pop(None), Popped::Closed);
    }

    #[test]
    fn work_queue_wakes_blocked_workers() {
        let q = WorkQueue::new();
        let popped = Arc::new(AtomicUsize::new(usize::MAX));
        let worker = {
            let q = Arc::clone(&q);
            let popped = Arc::clone(&popped);
            std::thread::spawn(move || {
                while let Popped::Token(t) = q.pop(None) {
                    popped.store(t, Ordering::SeqCst);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        q.push(42);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(popped.load(Ordering::SeqCst), 42);
        q.close();
        worker.join().unwrap();
    }
}
