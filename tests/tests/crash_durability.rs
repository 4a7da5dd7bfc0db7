//! Kill-and-reopen crash durability: any prefix of an append/flush/delete
//! op stream, cut at an *arbitrary byte offset* of the journal (the
//! moment the process died), must reopen to a consistent manager —
//! durable cursor never past what was written, recovered rows a
//! bit-identical prefix of one generation of the never-crashed history,
//! and resident-byte accounting exact (freed == tracked after restart).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hc_storage::backend::FileStore;
use hc_storage::journal::{journal_path, CompactionPolicy, Journal, JournalHeader};
use hc_storage::manager::StorageManager;
use hc_storage::{Precision, StreamId};
use hc_tensor::f16::f16_roundtrip;
use hc_tensor::Tensor2;
use proptest::prelude::*;

const D: usize = 8;
const N_STREAMS: usize = 2;

/// Byte length of the journal's header frame (8-byte frame head + 14-byte
/// header payload): the minimum consistent journal. Cuts shorter than
/// this must fail reopen with a typed error instead of fabricating state.
const HEADER_FRAME: u64 = 22;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hccrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stream(si: usize) -> StreamId {
    StreamId::hidden(si as u64 + 1, 0)
}

/// Deterministic row content, distinct across stream, generation and
/// (row, col) — so mixed-generation or misplaced rows can never pass the
/// bit-identity check.
fn gen_row_val(si: usize, generation: usize, row: usize, col: usize) -> f32 {
    let v = (si as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(generation as u64 * 10_007)
        .wrapping_add((row * D + col) as u64);
    ((v % 1997) as f32) * 0.125 - 124.0
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Applies a deterministic op stream (append / flush / delete over
/// `N_STREAMS` streams) to a fresh durable manager under `root`, then
/// drops it ("kills the process"). Returns, per stream, the rows-appended
/// count of every generation (deletes start a new generation).
fn apply_ops(root: &Path, seed: u64, n_ops: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let mut gens: Vec<Vec<usize>> = vec![vec![0]; N_STREAMS];
    let m = StorageManager::create_durable(root, 2, D, Precision::F16).unwrap();
    for _ in 0..n_ops {
        let si = (rng.next() % N_STREAMS as u64) as usize;
        let s = stream(si);
        match rng.next() % 4 {
            // Appends twice as likely as flushes or deletes.
            0 | 1 => {
                let k = (rng.next() % 80 + 1) as usize;
                let g = gens[si].len() - 1;
                let start = gens[si][g];
                let t = Tensor2::from_fn(k, D, |r, c| gen_row_val(si, g, start + r, c));
                m.append_rows(s, &t).unwrap();
                gens[si][g] += k;
            }
            2 => m.flush_stream(s).unwrap(),
            _ => {
                m.delete_stream(s);
                gens[si].push(0);
            }
        }
    }
    gens
}

/// Reopens `root` and checks the crash-consistency contract against the
/// per-generation history `gens`. Returns an error description instead of
/// panicking so the proptest harness can attach the failing case.
fn check_reopen(root: &Path, gens: &[Vec<usize>]) -> Result<(), String> {
    let (m2, report) = StorageManager::reopen(root).map_err(|e| format!("reopen failed: {e}"))?;
    for (si, stream_gens) in gens.iter().enumerate() {
        let s = stream(si);
        let n = m2.n_tokens(s) as usize;
        if n == 0 {
            continue;
        }
        let got = m2
            .read_rows(s, 0, n as u64)
            .map_err(|e| format!("stream {si}: reading {n} recovered rows: {e}"))?;
        // Reads must be deterministic after recovery.
        let again = m2.read_rows(s, 0, n as u64).unwrap();
        if got != again {
            return Err(format!(
                "stream {si}: recovered reads are not deterministic"
            ));
        }
        let matches_generation = |g: usize| {
            if n > stream_gens[g] {
                return false;
            }
            (0..n).all(|r| (0..D).all(|c| got.get(r, c) == f16_roundtrip(gen_row_val(si, g, r, c))))
        };
        if !(0..stream_gens.len()).any(matches_generation) {
            return Err(format!(
                "stream {si}: {n} recovered rows are a bit-identical prefix of no \
                 generation (history: {stream_gens:?})"
            ));
        }
    }
    // Resident accounting must be exact across the restart: the reported
    // figure, the tracked aggregate, and what deletes actually free all
    // agree.
    if report.resident_bytes != m2.total_resident_bytes() {
        return Err(format!(
            "report says {} resident bytes, manager tracks {}",
            report.resident_bytes,
            m2.total_resident_bytes()
        ));
    }
    let freed: u64 = (0..N_STREAMS).map(|si| m2.delete_stream(stream(si))).sum();
    if freed != report.resident_bytes {
        return Err(format!(
            "freed {freed} != tracked {} after reopen",
            report.resident_bytes
        ));
    }
    if m2.total_resident_bytes() != 0 {
        return Err("deleting every stream left resident bytes".into());
    }
    Ok(())
}

fn cut_journal(root: &Path, cut: u64) {
    let jpath = journal_path(root);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&jpath)
        .unwrap()
        .set_len(cut)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: run a random op stream against a durable
    /// manager, kill it, cut the journal at a random byte offset (torn
    /// final append included), reopen — always consistent.
    #[test]
    fn kill_and_reopen_is_consistent_at_any_journal_cut(
        seed in 0u64..10_000,
        n_ops in 1usize..25,
        cut_sel in 0u64..1_000_000,
    ) {
        let root = tmp_root(&format!("prop-{seed}-{n_ops}-{cut_sel}"));
        let gens = apply_ops(&root, seed, n_ops);
        let len = std::fs::metadata(journal_path(&root)).unwrap().len();
        // Anywhere from "just the header survived" to "nothing was lost".
        let cut = HEADER_FRAME + cut_sel % (len - HEADER_FRAME + 1);
        cut_journal(&root, cut);
        let outcome = check_reopen(&root, &gens);
        std::fs::remove_dir_all(&root).unwrap();
        prop_assert!(
            outcome.is_ok(),
            "seed {} ops {} cut {}/{}: {}",
            seed, n_ops, cut, len, outcome.unwrap_err()
        );
    }
}

/// Exhaustive companion to the proptest: one fixed history (two
/// generations, full chunks, flushed tails, a delete), killed at *every*
/// journal byte offset. Sub-header cuts must fail typed; all others must
/// recover consistently.
#[test]
fn reopen_is_consistent_at_every_journal_cut_offset() {
    let master = tmp_root("sweep-master");
    let gens = {
        let m = StorageManager::create_durable(&master, 2, D, Precision::F16).unwrap();
        let s = stream(0);
        let g0 = Tensor2::from_fn(100, D, |r, c| gen_row_val(0, 0, r, c));
        m.append_rows(s, &g0).unwrap(); // chunk 0 + 36-row tail
        m.flush_stream(s).unwrap();
        m.delete_stream(s);
        let g1 = Tensor2::from_fn(30, D, |r, c| gen_row_val(0, 1, r, c));
        m.append_rows(s, &g1).unwrap();
        m.flush_stream(s).unwrap();
        vec![vec![100usize, 30], vec![0]]
    };
    let len = std::fs::metadata(journal_path(&master)).unwrap().len();
    for cut in 0..=len {
        let case = tmp_root(&format!("sweep-{cut}"));
        copy_dir(&master, &case);
        cut_journal(&case, cut);
        if cut < HEADER_FRAME {
            assert!(
                StorageManager::reopen(&case).is_err(),
                "cut {cut}: a header-less journal must fail reopen, not fabricate state"
            );
        } else if let Err(msg) = check_reopen(&case, &gens) {
            panic!("cut {cut}/{len}: {msg}");
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    std::fs::remove_dir_all(&master).unwrap();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// A churn-heavy history with compaction enabled must reopen to exactly
/// the state an uncompacted journal would have produced — same rows, same
/// accounting — from a journal that stays O(live chunks).
#[test]
fn compacted_journal_reopens_equivalently_to_full_history() {
    let root = tmp_root("compact-equiv");
    let store = Arc::new(FileStore::new(&root, 2).unwrap());
    let journal = Arc::new(
        Journal::create(
            &root,
            JournalHeader {
                d_model: D,
                n_devices: 2,
                precision: Precision::F16,
            },
            true,
        )
        .unwrap()
        .with_compaction(CompactionPolicy {
            min_records: 8,
            max_dead_ratio: 0.3,
        }),
    );
    let m = StorageManager::new(store, D).with_journal(journal);
    let kept = stream(0);
    let churn = stream(1);
    // The kept stream survives many churn generations; each delete makes
    // the churn history dead and eventually trips the rewrite.
    let rows_kept = Tensor2::from_fn(100, D, |r, c| gen_row_val(0, 0, r, c));
    m.append_rows(kept, &rows_kept).unwrap();
    m.flush_stream(kept).unwrap();
    let final_gen = 6;
    for g in 0..=final_gen {
        let t = Tensor2::from_fn(70 + g, D, |r, c| gen_row_val(1, g, r, c));
        m.append_rows(churn, &t).unwrap();
        m.flush_stream(churn).unwrap();
        if g < final_gen {
            m.delete_stream(churn);
        }
    }
    let journal = m.journal().unwrap();
    assert!(
        journal.compactions() >= 1,
        "six churn generations must trip a min_records=8, ratio-0.3 policy"
    );
    // The journal holds the live prefix, not the seven-generation
    // history: well under two records per live chunk plus baselines.
    assert!(
        journal.records_total() <= 12,
        "journal still holds {} records after compaction",
        journal.records_total()
    );
    let resident = m.total_resident_bytes();
    drop(m);

    let (m2, report) = StorageManager::reopen(&root).unwrap();
    assert_eq!(report.streams_recovered, 2);
    assert_eq!(report.resident_bytes, resident);
    assert_eq!(m2.n_tokens(kept), 100);
    assert_eq!(m2.n_tokens(churn), 70 + final_gen as u64);
    let got = m2.read_rows(kept, 0, 100).unwrap();
    for r in 0..100 {
        for c in 0..D {
            assert_eq!(got.get(r, c), f16_roundtrip(gen_row_val(0, 0, r, c)));
        }
    }
    let got = m2.read_rows(churn, 0, 70 + final_gen as u64).unwrap();
    for r in 0..70 + final_gen {
        for c in 0..D {
            assert_eq!(
                got.get(r, c),
                f16_roundtrip(gen_row_val(1, final_gen, r, c)),
                "row {r} col {c} must come from the final generation"
            );
        }
    }
    // Deletes after reopen free exactly what recovery reported.
    let freed = m2.delete_stream(kept) + m2.delete_stream(churn);
    assert_eq!(freed, report.resident_bytes);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A frame that landed twice (a retried append the crash interleaved)
/// must not fabricate state: every single-frame duplication reopens to
/// the same recovered rows as the pristine journal.
#[test]
fn duplicated_journal_frames_recover_the_pristine_state() {
    let master = tmp_root("dup-master");
    let gens = {
        let m = StorageManager::create_durable(&master, 2, D, Precision::F16).unwrap();
        let s = stream(0);
        let g0 = Tensor2::from_fn(80, D, |r, c| gen_row_val(0, 0, r, c));
        m.append_rows(s, &g0).unwrap(); // chunk 0 + 16-row tail
        m.flush_stream(s).unwrap();
        m.delete_stream(s);
        let g1 = Tensor2::from_fn(40, D, |r, c| gen_row_val(0, 1, r, c));
        m.append_rows(s, &g1).unwrap();
        m.flush_stream(s).unwrap();
        vec![vec![80usize, 40], vec![0]]
    };
    let bytes = std::fs::read(journal_path(&master)).unwrap();
    // Parse frame boundaries: [len u32][crc u32][payload].
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        frames.push((off, off + 8 + len));
        off += 8 + len;
    }
    assert!(
        frames.len() > 3,
        "fixture journal should hold several frames"
    );
    for (idx, &(start, end)) in frames.iter().enumerate().skip(1) {
        let case = tmp_root(&format!("dup-{idx}"));
        copy_dir(&master, &case);
        let mut dup = bytes[..end].to_vec();
        dup.extend_from_slice(&bytes[start..end]);
        dup.extend_from_slice(&bytes[end..]);
        std::fs::write(journal_path(&case), &dup).unwrap();
        if let Err(msg) = check_reopen(&case, &gens) {
            panic!("duplicated frame {idx}: {msg}");
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    std::fs::remove_dir_all(&master).unwrap();
}

/// Crashing before anything was journaled beyond the header recovers an
/// empty manager, and the store root is reusable immediately.
#[test]
fn reopen_of_an_empty_journal_recovers_an_empty_manager() {
    let root = tmp_root("empty");
    drop(StorageManager::create_durable(&root, 2, D, Precision::F16).unwrap());
    let (m2, report) = StorageManager::reopen(&root).unwrap();
    assert_eq!(report.streams_recovered, 0);
    assert_eq!(report.resident_bytes, 0);
    assert_eq!(m2.total_resident_bytes(), 0);
    // The reopened manager is immediately writable and durable again.
    let s = stream(0);
    let t = Tensor2::from_fn(64, D, |r, c| gen_row_val(0, 0, r, c));
    m2.append_rows(s, &t).unwrap();
    drop(m2);
    let (m3, report3) = StorageManager::reopen(&root).unwrap();
    assert_eq!(report3.streams_recovered, 1);
    assert_eq!(m3.n_tokens(s), 64);
    std::fs::remove_dir_all(&root).unwrap();
}
