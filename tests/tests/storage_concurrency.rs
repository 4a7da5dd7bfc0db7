//! Stress tests for the sharded storage manager: readers × appenders × a
//! deleter on distinct and shared streams.
//!
//! What the sharded locking discipline must guarantee under fire:
//! * reads are **bit-identical** to the deterministic data written (f16
//!   round-trip of known row values), at every prefix length observed —
//!   including reactor reads at every iodepth (a read job lands a queued
//!   chunk exactly as it lands one read inline, and these tests pin
//!   that);
//! * no deadlocks — every scope here joins (the suite would hang, and CI
//!   time out, if lock order were violated);
//! * a delete followed by a re-append that reuses the same chunk keys
//!   **with identical sizes** never leaks a mixed-generation read — only
//!   the post-IO tombstone revalidation can catch that case (the
//!   OutOfRange guard can't, since the sizes line up) — and an *error*
//!   from the dead generation restarts the read instead of failing it,
//!   through the blocking `read_rows_into` and a pumped read job alike;
//! * the byte accounting never drifts: the atomic aggregate equals the
//!   per-stream sum once the dust settles, and deleting everything frees
//!   exactly the tracked figure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use hc_storage::backend::{ChunkStore, MemStore};
use hc_storage::fault::FaultStore;
use hc_storage::manager::{PumpOutcome, RowAssembly, StorageManager};
use hc_storage::reactor::Reactor;
use hc_storage::StreamId;
use hc_tensor::f16::f16_roundtrip;
use hc_tensor::Tensor2;

const D: usize = 16;

/// Reads `[0, n)` of `s` through a pumped read job — the restore
/// machines' entry, which queues every device-occupying chunk — driven on
/// this thread until it is terminal.
fn job_read<S: ChunkStore>(
    mgr: &StorageManager<S>,
    s: StreamId,
    n: u64,
) -> Result<RowAssembly, hc_storage::StorageError> {
    let (wake, woken) = mpsc::channel();
    let job = mgr.begin_read(
        s,
        0,
        n,
        Arc::new(move || {
            let _ = wake.send(());
        }),
    );
    let mut asm = RowAssembly::new(n as usize, D);
    loop {
        match job.pump(mgr, &mut asm) {
            PumpOutcome::Done => return Ok(asm),
            PumpOutcome::Failed(e) => return Err(e),
            // Every staged completion fires `notify`; the bound only turns
            // a broken job into a failure instead of a hang.
            PumpOutcome::Pending => woken
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a pending job must notify"),
        }
    }
}

/// Deterministic row content: any thread can verify any (stream, token)
/// cell without coordination.
fn cell(stream: StreamId, token: u64, col: usize) -> f32 {
    let h = stream.session * 31 + stream.layer as u64 * 7 + token * 13 + col as u64;
    (h % 97) as f32 * 0.25 - 12.0
}

fn rows_for(stream: StreamId, start: u64, n: usize) -> Tensor2 {
    Tensor2::from_fn(n, D, |r, c| cell(stream, start + r as u64, c))
}

fn assert_prefix_bit_identical(got: &Tensor2, stream: StreamId, start: u64) {
    for r in 0..got.rows() {
        for c in 0..D {
            assert_eq!(
                got.get(r, c),
                f16_roundtrip(cell(stream, start + r as u64, c)),
                "{stream:?} token {} col {c} corrupted",
                start + r as u64
            );
        }
    }
}

/// Readers verify streams that appenders are actively extending (shared
/// streams), while other readers verify each other's finished streams
/// (distinct streams), and a deleter churns victim streams the whole time.
#[test]
fn readers_appenders_deleter_stress() {
    let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(4)), D));
    let stop = AtomicBool::new(false);
    let deleted_freed = AtomicU64::new(0);

    // Streams 0..4 under session 1: appended concurrently, read concurrently.
    let shared: Vec<StreamId> = (0..4).map(|l| StreamId::hidden(1, l)).collect();
    // Victim streams under session 2: append/flush/delete churn.
    let victims: Vec<StreamId> = (0..2).map(|l| StreamId::hidden(2, l)).collect();

    const APPEND_BATCHES: usize = 60;
    const BATCH: usize = 10; // crosses chunk boundaries regularly

    std::thread::scope(|scope| {
        // Appenders: one per shared stream, deterministic content, periodic
        // flushes so readers also see flushed-tail rewrites.
        for &s in &shared {
            let mgr = Arc::clone(&mgr);
            scope.spawn(move || {
                for b in 0..APPEND_BATCHES {
                    let start = (b * BATCH) as u64;
                    mgr.append_rows(s, &rows_for(s, start, BATCH)).unwrap();
                    if b % 5 == 4 {
                        mgr.flush_stream(s).unwrap();
                    }
                }
            });
        }

        // Readers: snapshot the current length, read the whole prefix, and
        // demand bit-identity. The prefix observed only ever grows.
        for &s in &shared {
            for _ in 0..2 {
                let mgr = Arc::clone(&mgr);
                let stop = &stop;
                scope.spawn(move || {
                    let mut seen = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let n = mgr.n_tokens(s);
                        assert!(n >= seen, "stream length went backwards");
                        seen = n;
                        let got = mgr.read_rows(s, 0, n).unwrap();
                        assert_prefix_bit_identical(&got, s, 0);
                        // Also a random-ish interior window.
                        if n > 20 {
                            let mid = mgr.read_rows(s, n / 3, n - 5).unwrap();
                            assert_prefix_bit_identical(&mid, s, n / 3);
                        }
                    }
                });
            }
        }

        // Victim churn: an appender and a deleter race on the same streams.
        // Every byte the deleter frees is tallied; the final sweep picks up
        // whatever survived.
        let victim_appender = Arc::clone(&mgr);
        let stop_ref = &stop;
        let victims_ref = &victims;
        scope.spawn(move || {
            let mut b = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                for &v in victims_ref {
                    // Content correctness for victims is covered by the
                    // restart semantics: after any delete the stream
                    // restarts at token 0, so absolute tokens are
                    // unknowable here — byte accounting is the target.
                    victim_appender.append_rows(v, &rows_for(v, b, 32)).unwrap();
                    victim_appender.flush_stream(v).unwrap();
                }
                b += 32;
            }
        });
        let victim_deleter = Arc::clone(&mgr);
        let freed_ref = &deleted_freed;
        scope.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                for &v in victims_ref {
                    freed_ref.fetch_add(victim_deleter.delete_stream(v), Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });

        // Let the churn overlap the appends, then wind down.
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    // Dust settled: every shared stream holds its full prefix, bit-identical.
    for &s in &shared {
        assert_eq!(mgr.n_tokens(s), (APPEND_BATCHES * BATCH) as u64);
        let got = mgr
            .read_rows(s, 0, (APPEND_BATCHES * BATCH) as u64)
            .unwrap();
        assert_prefix_bit_identical(&got, s, 0);
    }

    // Accounting: the lock-free aggregate equals the per-stream sum...
    let per_stream_sum: u64 = mgr.sessions().iter().map(|&s| mgr.session_bytes(s)).sum();
    assert_eq!(mgr.total_resident_bytes(), per_stream_sum);

    // ...and deleting everything frees exactly the tracked figure, so the
    // bytes ever freed equal the bytes ever resident.
    let final_freed: u64 = mgr.sessions().iter().map(|&s| mgr.delete_session(s)).sum();
    assert_eq!(final_freed, per_stream_sum);
    assert_eq!(mgr.total_resident_bytes(), 0);
    // A second sweep finds nothing: the backend is really empty.
    assert_eq!(mgr.delete_session(1) + mgr.delete_session(2), 0);
    // Every byte the deleter freed mid-run was a whole f16 row's worth.
    assert!(deleted_freed
        .load(Ordering::Relaxed)
        .is_multiple_of(D as u64 * 2));
}

/// Concurrent readers of one stream being extended and tail-flushed by one
/// appender: every observed prefix is bit-identical, and reads past the
/// snapshot are rejected, never torn.
#[test]
fn shared_stream_reads_are_consistent_prefixes() {
    let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(2)), D));
    let s = StreamId::hidden(9, 0);
    std::thread::scope(|scope| {
        let writer = {
            let mgr = Arc::clone(&mgr);
            scope.spawn(move || {
                for b in 0..200u64 {
                    mgr.append_rows(s, &rows_for(s, b * 7, 7)).unwrap();
                    mgr.flush_stream(s).unwrap();
                }
            })
        };
        for _ in 0..3 {
            let mgr = Arc::clone(&mgr);
            scope.spawn(move || loop {
                let n = mgr.n_tokens(s);
                if n > 0 {
                    let got = mgr.read_rows(s, 0, n).unwrap();
                    assert_prefix_bit_identical(&got, s, 0);
                }
                if n >= 200 * 7 {
                    break;
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(mgr.n_tokens(s), 1400);
    // All 1400 rows are flushed, so delete frees exactly their f16 bytes.
    assert_eq!(mgr.delete_stream(s), 1400 * D as u64 * 2);
}

/// Pumped read jobs vs `read_rows` at reactor iodepths 1–8 while appenders
/// actively extend the streams: every prefix a job lands must be
/// bit-identical to the deterministic content (its ready prefix covering
/// the range — each row landed exactly once), and a final read must equal
/// a reactor-less manager's, at every queue depth.
#[test]
fn streaming_reads_bit_identical_to_read_rows_at_widths_1_to_8_under_appenders() {
    const BATCHES: u64 = 40;
    const BATCH: usize = 10; // crosses chunk boundaries regularly
    for width in 1..=8usize {
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Reactor::new(4, width)),
        );
        let streams: Vec<StreamId> = (0..2)
            .map(|l| StreamId::hidden(100 + width as u64, l))
            .collect();
        std::thread::scope(|scope| {
            for &s in &streams {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        mgr.append_rows(s, &rows_for(s, b * BATCH as u64, BATCH))
                            .unwrap();
                        if b % 4 == 3 {
                            mgr.flush_stream(s).unwrap();
                        }
                    }
                });
            }
            // Job readers chase the appenders: each observed prefix must
            // land as the deterministic content.
            for &s in &streams {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || loop {
                    let n = mgr.n_tokens(s);
                    let asm = job_read(&mgr, s, n).unwrap();
                    assert_eq!(asm.ready_rows() as u64, n, "rows must partition the range");
                    assert_prefix_bit_identical(&asm.into_tensor(), s, 0);
                    if n >= BATCHES * BATCH as u64 {
                        break;
                    }
                });
            }
        });
        // Final cross-check against a reactor-less read_rows and the f16
        // round trip of the appended rows.
        let seq = StorageManager::new(Arc::new(MemStore::new(4)), D);
        for &s in &streams {
            let total = BATCHES * BATCH as u64;
            seq.append_rows(s, &rows_for(s, 0, total as usize)).unwrap();
            let got = job_read(&mgr, s, total).unwrap().into_tensor();
            assert_prefix_bit_identical(&got, s, 0);
            assert_eq!(
                got,
                seq.read_rows(s, 0, total).unwrap(),
                "iodepth {width} job read diverged from the reactor-less read of {s:?}"
            );
        }
    }
}

/// Reactor reads vs sequential `read_rows` at iodepths 1–8 while
/// appenders actively extend the streams: every prefix observed through
/// the per-device submission queues must be bit-identical to the
/// deterministic content, and a final full read through a reactor manager
/// must equal the same data read through an engine-less manager, bit for
/// bit — the reactor is a scheduling change, never a data change.
#[test]
fn reactor_reads_bit_identical_to_sequential_at_iodepths_1_to_8_under_appenders() {
    const BATCHES: u64 = 40;
    const BATCH: usize = 10; // crosses chunk boundaries regularly
    for iodepth in 1..=8usize {
        let mgr = Arc::new(
            StorageManager::new(Arc::new(MemStore::new(4)), D)
                .with_reactor(Reactor::new(4, iodepth)),
        );
        let streams: Vec<StreamId> = (0..2)
            .map(|l| StreamId::hidden(200 + iodepth as u64, l))
            .collect();
        std::thread::scope(|scope| {
            for &s in &streams {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        mgr.append_rows(s, &rows_for(s, b * BATCH as u64, BATCH))
                            .unwrap();
                        if b % 4 == 3 {
                            mgr.flush_stream(s).unwrap();
                        }
                    }
                });
            }
            // Plain and job readers chase the appenders through the
            // reactor queues.
            for &s in &streams {
                let plain = Arc::clone(&mgr);
                scope.spawn(move || loop {
                    let n = plain.n_tokens(s);
                    let got = plain.read_rows(s, 0, n).unwrap();
                    assert_prefix_bit_identical(&got, s, 0);
                    if n >= BATCHES * BATCH as u64 {
                        break;
                    }
                });
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || loop {
                    let n = mgr.n_tokens(s);
                    let asm = job_read(&mgr, s, n).unwrap();
                    assert_eq!(asm.ready_rows() as u64, n, "rows must partition the range");
                    assert_prefix_bit_identical(&asm.into_tensor(), s, 0);
                    if n >= BATCHES * BATCH as u64 {
                        break;
                    }
                });
            }
        });
        // Cross-check against a reactor-less manager holding the same
        // deterministic content, and against its f16 round trip.
        let seq = StorageManager::new(Arc::new(MemStore::new(4)), D);
        for &s in &streams {
            let total = BATCHES * BATCH as u64;
            seq.append_rows(s, &rows_for(s, 0, total as usize)).unwrap();
            let got = mgr.read_rows(s, 0, total).unwrap();
            assert_prefix_bit_identical(&got, s, 0);
            assert_eq!(
                got,
                seq.read_rows(s, 0, total).unwrap(),
                "iodepth {iodepth} diverged from the reactor-less read of {s:?}"
            );
        }
        let reactor = mgr.reactor().unwrap();
        assert!(
            reactor.ios_submitted() > 0,
            "iodepth {iodepth}: multi-chunk reads must route through the reactor"
        );
    }
}

/// Deterministic per-generation content: generations are told apart by
/// their distinct value at (token 0, col 0), and every other cell must
/// then belong to the *same* generation.
fn gen_cell(generation: u64, token: u64, col: usize) -> f32 {
    ((generation * 37 + token * 13 + col as u64) % 89) as f32 * 0.25 - 11.0
}

/// The delete→re-append generation race landed **mid-read**: a pumped job
/// marks chunks landed as they complete, so the churn window now spans
/// *already-landed* chunks — only the per-slice tombstone revalidation
/// (assembly reset + landing every slice again) can prevent the assembly
/// from ending up with rows of two generations. Identical sizes per
/// generation (chunk keys are reused, byte lengths equal) keep every
/// length/OutOfRange check blind to the swap. Runs over reactors of
/// iodepth 1–8, where the mid-read window spans both in-flight fetches.
#[test]
fn delete_reappend_mid_stream_resets_sink_and_never_mixes_generations() {
    for iodepth in 1..=8usize {
        mid_stream_churn(iodepth);
    }
}

/// One churn run of the mid-stream race over a reactor of `iodepth`.
fn mid_stream_churn(iodepth: usize) {
    const N: u64 = N_GEN; // exactly 2 full chunks: no tail, sizes identical
    const GENERATIONS: u64 = 40;
    let mgr = Arc::new(
        StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Reactor::new(4, iodepth)),
    );
    let s = StreamId::hidden(78, 0);
    mgr.append_rows(s, &gen_rows(0)).unwrap();

    let done = AtomicBool::new(false);
    let resets_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        {
            let mgr = Arc::clone(&mgr);
            let done = &done;
            scope.spawn(move || {
                for g in 1..GENERATIONS {
                    mgr.delete_stream(s);
                    mgr.append_rows(s, &gen_rows(g)).unwrap();
                }
                done.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..2 {
            let mgr = Arc::clone(&mgr);
            let done = &done;
            let resets_seen = &resets_seen;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    match job_read(&mgr, s, N) {
                        Ok(asm) => {
                            let resets = asm.resets();
                            resets_seen.fetch_add(resets as u64, Ordering::Relaxed);
                            let got = asm.into_tensor();
                            let probe = got.get(0, 0);
                            let generation = (0..GENERATIONS)
                                .find(|&g| probe == f16_roundtrip(gen_cell(g, 0, 0)))
                                .unwrap_or_else(|| panic!("row 0 matches no generation: {probe}"));
                            for r in 0..N as usize {
                                for c in 0..D {
                                    assert_eq!(
                                        got.get(r, c),
                                        f16_roundtrip(gen_cell(generation, r as u64, c)),
                                        "token {r} col {c} mixed into generation {generation} \
                                         past {resets} resets"
                                    );
                                }
                            }
                        }
                        // A read can land in the instant between the wipe
                        // and the restart (stream momentarily empty).
                        Err(hc_storage::StorageError::OutOfRange { .. }) => {}
                        Err(e) => panic!("only OutOfRange may escape: {e}"),
                    }
                }
            });
        }
    });

    // The final generation survived intact through a job read too.
    assert_is_generation(
        &job_read(&mgr, s, N).unwrap().into_tensor(),
        GENERATIONS - 1,
    );
    assert_eq!(mgr.delete_stream(s), N * D as u64 * 2);
    assert_eq!(mgr.total_resident_bytes(), 0);
}

/// The delete→re-append generation race through the **reactor** engine:
/// chunk fetches are in flight on several device queues when the
/// generation swaps underneath them, so only the post-IO tombstone
/// revalidation (restart onto the successor, sink reset) keeps a read
/// from mixing rows of two generations. Identical sizes per generation
/// keep every length/OutOfRange check blind to the swap.
#[test]
fn delete_reappend_under_reactor_never_mixes_generations() {
    const N: u64 = 256; // exactly 4 full chunks: one per device queue
    const GENERATIONS: u64 = 40;
    let mgr = Arc::new(
        StorageManager::new(Arc::new(MemStore::new(4)), D).with_reactor(Reactor::new(4, 2)),
    );
    let s = StreamId::hidden(79, 0);
    let gen_rows = |g: u64| Tensor2::from_fn(N as usize, D, |r, c| gen_cell(g, r as u64, c));
    mgr.append_rows(s, &gen_rows(0)).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        {
            let mgr = Arc::clone(&mgr);
            let done = &done;
            scope.spawn(move || {
                for g in 1..GENERATIONS {
                    mgr.delete_stream(s);
                    mgr.append_rows(s, &gen_rows(g)).unwrap();
                }
                done.store(true, Ordering::Relaxed);
            });
        }
        // One plain reader and one job reader race the churn.
        for pumped in [false, true] {
            let mgr = Arc::clone(&mgr);
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let read = if pumped {
                        job_read(&mgr, s, N).map(RowAssembly::into_tensor)
                    } else {
                        mgr.read_rows(s, 0, N)
                    };
                    match read {
                        Ok(got) => {
                            let probe = got.get(0, 0);
                            let generation = (0..GENERATIONS)
                                .find(|&g| probe == f16_roundtrip(gen_cell(g, 0, 0)))
                                .unwrap_or_else(|| panic!("row 0 matches no generation: {probe}"));
                            for r in 0..N as usize {
                                for c in 0..D {
                                    assert_eq!(
                                        got.get(r, c),
                                        f16_roundtrip(gen_cell(generation, r as u64, c)),
                                        "token {r} col {c} mixed into generation {generation}"
                                    );
                                }
                            }
                        }
                        // A read can land in the instant between the wipe
                        // and the restart (stream momentarily empty).
                        Err(hc_storage::StorageError::OutOfRange { .. }) => {}
                        Err(e) => panic!("only OutOfRange may escape: {e}"),
                    }
                }
            });
        }
    });

    // The final generation survived intact.
    let got = mgr.read_rows(s, 0, N).unwrap();
    for r in 0..N as usize {
        for c in 0..D {
            assert_eq!(
                got.get(r, c),
                f16_roundtrip(gen_cell(GENERATIONS - 1, r as u64, c))
            );
        }
    }
    assert_eq!(mgr.delete_stream(s), N * D as u64 * 2);
    assert_eq!(mgr.total_resident_bytes(), 0);
}

type FaultMgr = Arc<StorageManager<FaultStore<MemStore>>>;

/// A two-chunk stream over a fault-injecting store and a `Reactor::new(2,
/// 1)`, with the **losing interleaving** of the delete→re-append race
/// armed (no sleeps): device 1's only IO thread is parked, so chunk 0's
/// read on device 0 is read ordinal 0 and fires the hook; inside it the
/// stream is deleted, chunk 1's read is released into the wipe→re-append
/// window (it completes with `MissingChunk`), and a marker queued behind
/// it on device 1 holds chunk 0's read until that completion has been
/// handed to the reader — only then is generation 2 appended and chunk 0
/// served, successfully, from it. The reader therefore sees an error from
/// the dead generation *before* any chunk that could observe the tombstone.
fn armed_dead_generation_error(s: StreamId) -> FaultMgr {
    let store = Arc::new(FaultStore::new(Arc::new(MemStore::new(2))));
    let reactor = Reactor::new(2, 1);
    let mgr =
        Arc::new(StorageManager::new(Arc::clone(&store), D).with_reactor(Arc::clone(&reactor)));
    mgr.append_rows(s, &gen_rows(1)).unwrap(); // chunk 0 → device 0, chunk 1 → device 1
    let (open, gate) = mpsc::channel::<()>();
    reactor.submit_io(1, move || {
        let _ = gate.recv();
    });
    let mgr2 = Arc::clone(&mgr);
    store.on_nth_read(0, move || {
        mgr2.delete_stream(s);
        let _ = open.send(());
        let (done, handed_over) = mpsc::channel();
        reactor.submit_io(1, move || {
            let _ = done.send(());
        });
        handed_over.recv().unwrap();
        mgr2.append_rows(s, &gen_rows(2)).unwrap();
    });
    mgr
}

/// `N_GEN` rows of one generation (two full chunks).
const N_GEN: u64 = 128;

fn gen_rows(generation: u64) -> Tensor2 {
    Tensor2::from_fn(N_GEN as usize, D, |r, c| gen_cell(generation, r as u64, c))
}

fn assert_is_generation(got: &Tensor2, generation: u64) {
    for r in 0..N_GEN as usize {
        for c in 0..D {
            assert_eq!(
                got.get(r, c),
                f16_roundtrip(gen_cell(generation, r as u64, c)),
                "token {r} col {c} is not generation {generation}"
            );
        }
    }
}

/// ROADMAP item 0 through the blocking read: an error from a dead
/// generation restarts `read_rows_into` onto the successor.
#[test]
fn dead_generation_error_restarts_read_rows_into() {
    let s = StreamId::hidden(80, 0);
    let mgr = armed_dead_generation_error(s);
    let mut asm = RowAssembly::new(N_GEN as usize, D);
    mgr.read_rows_into(s, 0, N_GEN, &mut asm).unwrap();
    assert!(asm.resets() >= 1, "the dead generation must be discarded");
    assert_is_generation(&asm.into_tensor(), 2);
}

/// The same forced ordering through `begin_read`: the job must restart,
/// not resolve the dead generation's `MissingChunk` as terminal (it did,
/// about one run in three unforced, before the job revalidated the
/// tombstone on errors too).
#[test]
fn dead_generation_error_restarts_the_async_read_job() {
    let s = StreamId::hidden(81, 0);
    let mgr = armed_dead_generation_error(s);
    let asm = job_read(&mgr, s, N_GEN)
        .unwrap_or_else(|e| panic!("a dead generation's error must restart: {e}"));
    assert!(asm.resets() >= 1, "the dead generation must be discarded");
    assert_is_generation(&asm.into_tensor(), 2);
}

/// Delete-vs-append race: a stream deleted while an appender holds a stale
/// handle restarts cleanly, and no bytes are ever double-counted or leaked.
#[test]
fn delete_append_race_preserves_freed_equals_resident() {
    for round in 0..20 {
        let mgr = Arc::new(StorageManager::new(Arc::new(MemStore::new(2)), D));
        let s = StreamId::hidden(round, 0);
        let freed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let mgr2 = Arc::clone(&mgr);
            scope.spawn(move || {
                for b in 0..30u64 {
                    mgr2.append_rows(s, &rows_for(s, b * 16, 16)).unwrap();
                    mgr2.flush_stream(s).unwrap();
                }
            });
            let mgr3 = Arc::clone(&mgr);
            let freed = &freed;
            scope.spawn(move || {
                for _ in 0..10 {
                    freed.fetch_add(mgr3.delete_stream(s), Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        });
        // Whatever survived is tracked exactly; deleting it closes the books.
        let remaining = mgr.total_resident_bytes();
        assert_eq!(mgr.stream_bytes(s), remaining);
        assert_eq!(mgr.delete_stream(s), remaining);
        assert_eq!(mgr.total_resident_bytes(), 0);
        assert_eq!(mgr.delete_stream(s), 0, "backend must be empty");
        let _ = freed.load(Ordering::Relaxed);
    }
}
