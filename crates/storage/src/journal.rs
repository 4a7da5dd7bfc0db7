//! Chunk-generation journal: the crash-durability manifest for
//! [`crate::manager::StorageManager`] over [`crate::backend::FileStore`].
//!
//! The manager's in-memory stream metadata (durable cursors, partial
//! tails, tombstone generations, resident-byte accounting) dies with the
//! process; the journal is the on-disk record it is rebuilt from. One
//! append-only file (`journal.log` under the store root) holds a header
//! followed by one record per durable event, framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! Payloads (type byte first):
//!
//! * **Header** (`0`): magic `HCJ1`, `d_model`, `n_devices`, precision
//!   (`0`, f16; any other code is a corrupt header) —
//!   enough for [`crate::manager::StorageManager::reopen`] to rebuild the
//!   manager without external configuration.
//! * **ChunkCommit** (`1`): stream id, chunk index, generation, row
//!   count, tail flag, encoded byte length and a CRC32 of the chunk's
//!   encoded bytes. Logged strictly *after* the chunk write became
//!   durable (temp file + `sync_all` + atomic rename), so a present
//!   record implies the payload reached the device — and the CRC lets
//!   recovery prove it is still intact.
//! * **StreamDelete** (`2`): stream id and the generation it kills.
//!   Logged strictly *before* the backend wipe, so a crash between the
//!   two leaves orphan chunk files that recovery's sweep removes — never
//!   a resurrected stream.
//! * **GenBaseline** (`3`): stream id and its current generation counter.
//!   Written only by compaction, standing in for the delete history it
//!   folded away so generation numbering survives the rewrite.
//!
//! A torn journal tail (crash mid-append) is detected by the frame CRC:
//! replay keeps the longest consistent record prefix and
//! [`Journal::reopen`] truncates the file back to it.
//!
//! ## The index
//!
//! The journal keeps the fold of its records, a
//! [`crate::index::StreamIndex`], and applies each record in the same
//! lock-held critical section that appends its frame, so the index always
//! equals the fold of the file. Generations are read from it (one bump per
//! delete), so replaying the same record sequence always reproduces the
//! same generation numbering, and its live/dead record counts are exact.
//!
//! ## Compaction
//!
//! The journal is append-only, so a long-lived store accumulates dead
//! records: superseded tail flushes, and every commit/delete of a stream
//! generation that a later delete wiped. Once deletes dominate
//! (configurable via [`CompactionPolicy`]), [`Journal::compact`] rewrites
//! the file as the index's live records — the header, one `Gen` baseline
//! per ever-deleted stream, and exactly the commits a recovery replay
//! would keep — making reopen O(live chunks) instead of O(history). The
//! rewrite goes to a temp file, is fsynced, and atomically renamed over
//! the journal, so a crash at any point leaves either the old or the new
//! journal fully intact; [`Journal::reopen`] removes a stray temp file.
//! Recovery uses the same rewrite after it truncates a torn stream
//! ([`Journal::truncate_streams`]).

// hc-analyze: lock-order log
// (`log`: the journal file handle together with its `StreamIndex` — the
// one append/compaction serialization point, so the index and the file
// can never disagree.)

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::chunk::ChunkKey;
use crate::index::StreamIndex;
use crate::{Precision, StateKind, StorageError, StreamId};

/// Journal file name under the store root.
pub const JOURNAL_FILE: &str = "journal.log";

/// Magic bytes opening the header payload (version baked into the tag).
const MAGIC: &[u8; 4] = b"HCJ1";

/// Sanity cap on one record's payload: real payloads are < 64 B, so a
/// frame claiming more is corruption, not data.
const MAX_PAYLOAD: u32 = 4096;

const TYPE_HEADER: u8 = 0;
const TYPE_COMMIT: u8 = 1;
const TYPE_DELETE: u8 = 2;
const TYPE_GEN: u8 = 3;

/// Temp file compaction writes before atomically renaming it over the
/// journal. A crash leaves it behind; [`Journal::reopen`] removes it.
const COMPACT_TMP: &str = "journal.log.compact";

/// Path of the journal file for a store rooted at `root`.
pub fn journal_path(root: &Path) -> PathBuf {
    root.join(JOURNAL_FILE)
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum (IEEE) over `bytes` — the integrity check for both
/// journal frames and chunk payloads.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Store-wide parameters persisted in the journal's first record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Row width of every stream.
    pub d_model: usize,
    /// Devices the chunk store stripes over.
    pub n_devices: usize,
    /// On-storage codec.
    pub precision: Precision,
}

/// One replayed journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A chunk became durable in the backend.
    Commit {
        /// Owning stream.
        stream: StreamId,
        /// Chunk index within the stream.
        chunk_idx: u32,
        /// Stream generation the chunk belongs to (bumped by deletes).
        generation: u32,
        /// Token rows the chunk holds.
        rows: u32,
        /// True for a flushed partial tail (replaced by later tail
        /// commits or absorbed by the full-chunk commit at its index).
        is_tail: bool,
        /// Encoded byte length of the chunk payload.
        byte_len: u64,
        /// CRC32 of the encoded chunk payload.
        chunk_crc: u32,
    },
    /// A stream was deleted (backend wipe follows the record).
    Delete {
        /// Deleted stream.
        stream: StreamId,
        /// Generation the delete killed.
        generation: u32,
    },
    /// Generation baseline written by compaction in place of the folded
    /// delete history: the stream's counter stands at `generation`, as if
    /// that many deletes had been replayed.
    Gen {
        /// Stream the baseline applies to.
        stream: StreamId,
        /// Current generation counter (count of folded deletes).
        generation: u32,
    },
}

fn kind_code(kind: StateKind) -> u8 {
    match kind {
        StateKind::Hidden => 0,
        StateKind::Key => 1,
        StateKind::Value => 2,
    }
}

fn kind_from_code(code: u8) -> Option<StateKind> {
    match code {
        0 => Some(StateKind::Hidden),
        1 => Some(StateKind::Key),
        2 => Some(StateKind::Value),
        _ => None,
    }
}

fn push_stream(buf: &mut Vec<u8>, s: StreamId) {
    buf.extend_from_slice(&s.session.to_le_bytes());
    buf.extend_from_slice(&s.layer.to_le_bytes());
    buf.push(kind_code(s.kind));
}

fn encode_header(h: &JournalHeader) -> Vec<u8> {
    let mut buf = vec![TYPE_HEADER];
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(h.d_model as u32).to_le_bytes());
    buf.extend_from_slice(&(h.n_devices as u32).to_le_bytes());
    buf.push(match h.precision {
        Precision::F16 => 0,
    });
    buf
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    match *rec {
        JournalRecord::Commit {
            stream,
            chunk_idx,
            generation,
            rows,
            is_tail,
            byte_len,
            chunk_crc,
        } => {
            let mut buf = vec![TYPE_COMMIT];
            push_stream(&mut buf, stream);
            buf.extend_from_slice(&chunk_idx.to_le_bytes());
            buf.extend_from_slice(&generation.to_le_bytes());
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.push(u8::from(is_tail));
            buf.extend_from_slice(&byte_len.to_le_bytes());
            buf.extend_from_slice(&chunk_crc.to_le_bytes());
            buf
        }
        JournalRecord::Delete { stream, generation } => {
            let mut buf = vec![TYPE_DELETE];
            push_stream(&mut buf, stream);
            buf.extend_from_slice(&generation.to_le_bytes());
            buf
        }
        JournalRecord::Gen { stream, generation } => {
            let mut buf = vec![TYPE_GEN];
            push_stream(&mut buf, stream);
            buf.extend_from_slice(&generation.to_le_bytes());
            buf
        }
    }
}

/// Byte-slice cursor for record decoding; every read is bounds-checked so
/// corrupt payloads decode to `None`, never a panic.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            // hc-analyze: allow(panic) infallible: take(4) returned exactly 4 bytes
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            // hc-analyze: allow(panic) infallible: take(8) returned exactly 8 bytes
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn stream(&mut self) -> Option<StreamId> {
        let session = self.u64()?;
        let layer = self.u32()?;
        let kind = kind_from_code(self.u8()?)?;
        Some(StreamId {
            session,
            layer,
            kind,
        })
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }
}

fn decode_header(payload: &[u8]) -> Option<JournalHeader> {
    let mut c = Cursor(payload);
    if c.u8()? != TYPE_HEADER || c.take(4)? != MAGIC {
        return None;
    }
    let d_model = c.u32()? as usize;
    let n_devices = c.u32()? as usize;
    // Precision code 0 is f16, the only codec; any other code is corrupt.
    let precision = (c.u8()? == 0).then_some(Precision::F16)?;
    if !c.done() || d_model == 0 || n_devices == 0 {
        return None;
    }
    Some(JournalHeader {
        d_model,
        n_devices,
        precision,
    })
}

fn decode_record(payload: &[u8]) -> Option<JournalRecord> {
    let mut c = Cursor(payload);
    let rec = match c.u8()? {
        TYPE_COMMIT => JournalRecord::Commit {
            stream: c.stream()?,
            chunk_idx: c.u32()?,
            generation: c.u32()?,
            rows: c.u32()?,
            is_tail: c.u8()? != 0,
            byte_len: c.u64()?,
            chunk_crc: c.u32()?,
        },
        TYPE_DELETE => JournalRecord::Delete {
            stream: c.stream()?,
            generation: c.u32()?,
        },
        TYPE_GEN => JournalRecord::Gen {
            stream: c.stream()?,
            generation: c.u32()?,
        },
        _ => return None,
    };
    c.done().then_some(rec)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(format!("journal: {e}"))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Result of replaying a journal file: the decoded prefix plus how much
/// torn tail was discarded.
#[derive(Debug)]
pub struct JournalReplay {
    /// Store-wide parameters from the first record.
    pub header: JournalHeader,
    /// Every consistent record after the header, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the longest consistent record prefix (what
    /// [`Journal::reopen`] truncates the file to).
    pub consistent_len: u64,
    /// Bytes discarded past the consistent prefix (a torn final append).
    pub truncated: u64,
}

/// When to rewrite the journal down to its live prefix. Checked after
/// every delete append (deletes are the only records that create dead
/// history wholesale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Records after the header below which compaction never runs —
    /// keeps tiny journals from rewriting on every delete.
    pub min_records: usize,
    /// Dead-record fraction above which compaction runs.
    pub max_dead_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            min_records: 1024,
            max_dead_ratio: 0.5,
        }
    }
}

/// Crash-durability journal for one store root. Every append takes the
/// one `log` lock, writes its frame and applies the record to the
/// [`StreamIndex`] inside that critical section, so the index always
/// equals the fold of the file; generations are read from it.
pub struct Journal {
    root: PathBuf,
    header: JournalHeader,
    sync: bool,
    policy: CompactionPolicy,
    log: Mutex<Log>,
}

/// The journal file and the fold of its records, changed together.
struct Log {
    file: File,
    index: StreamIndex,
    /// Rewrites performed over this handle's lifetime.
    compactions: u64,
}

impl Journal {
    /// Creates a fresh journal under `root` (truncating any existing
    /// one), writing and — with `sync` — fsyncing the header record.
    pub fn create(root: &Path, header: JournalHeader, sync: bool) -> Result<Self, StorageError> {
        std::fs::create_dir_all(root).map_err(io_err)?;
        let path = journal_path(root);
        let mut file = File::create(&path).map_err(io_err)?;
        file.write_all(&frame(&encode_header(&header)))
            .map_err(io_err)?;
        if sync {
            file.sync_all().map_err(io_err)?;
            fsync_dir(root);
        }
        Ok(Self::reopen(root, sync)?.0)
    }

    /// Replaces the default [`CompactionPolicy`]. Builder-style; call
    /// before the journal is shared.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replays the journal under `root` without modifying it: decodes the
    /// longest consistent record prefix, stopping at the first frame whose
    /// length or CRC does not check out (a torn final append — or
    /// corruption, which is treated identically).
    pub fn replay(root: &Path) -> Result<JournalReplay, StorageError> {
        let path = journal_path(root);
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StorageError::Io(format!("journal: open {}: {e}", path.display())))?;

        let mut off = 0usize;
        let mut payloads: Vec<&[u8]> = Vec::new();
        while let Some(head) = bytes.get(off..off + 8) {
            // hc-analyze: allow(panic) infallible: `head` is exactly 8 bytes by the get() above
            let len = u32::from_le_bytes(head[..4].try_into().unwrap());
            // hc-analyze: allow(panic) infallible: `head` is exactly 8 bytes by the get() above
            let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
            if len > MAX_PAYLOAD {
                break;
            }
            let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            payloads.push(payload);
            off += 8 + len as usize;
        }

        let Some(first) = payloads.first() else {
            return Err(StorageError::Io(format!(
                "journal: {} holds no consistent header record",
                path.display()
            )));
        };
        let header = decode_header(first).ok_or_else(|| {
            StorageError::Io(format!("journal: {} has a corrupt header", path.display()))
        })?;
        let mut records = Vec::with_capacity(payloads.len() - 1);
        let mut consistent = {
            // The header frame is always part of the consistent prefix.
            8 + first.len()
        };
        for payload in &payloads[1..] {
            match decode_record(payload) {
                Some(rec) => {
                    records.push(rec);
                    consistent += 8 + payload.len();
                }
                // A frame that checks out but does not decode is
                // corruption mid-file: keep the prefix before it.
                None => break,
            }
        }
        Ok(JournalReplay {
            header,
            records,
            consistent_len: consistent as u64,
            truncated: bytes.len() as u64 - consistent as u64,
        })
    }

    /// Reopens the journal under `root` for appending: removes any stray
    /// compaction temp file (a crash mid-compaction, before the rename),
    /// replays the journal, truncates any torn tail back to the
    /// consistent prefix, and folds the replayed records into the index.
    pub fn reopen(root: &Path, sync: bool) -> Result<(Self, JournalReplay), StorageError> {
        let _ = std::fs::remove_file(root.join(COMPACT_TMP));
        let replay = Self::replay(root)?;
        let file = open_append(root)?;
        if replay.truncated > 0 {
            file.set_len(replay.consistent_len).map_err(io_err)?;
            if sync {
                file.sync_all().map_err(io_err)?;
            }
        }
        let log = Log {
            file,
            index: StreamIndex::from_records(&replay.records),
            compactions: 0,
        };
        let journal = Self {
            root: root.to_path_buf(),
            header: replay.header,
            sync,
            policy: CompactionPolicy::default(),
            log: Mutex::new(log),
        };
        Ok((journal, replay))
    }

    /// Current generation of `stream` (0 until its first delete).
    pub fn generation(&self, stream: StreamId) -> u32 {
        self.log.lock().index.generation(stream)
    }

    /// A copy of the index: the fold of every record in the file.
    pub fn index(&self) -> StreamIndex {
        self.log.lock().index.clone()
    }

    /// Logs a durable chunk write. Call strictly *after* the backend
    /// write completed durably — the record is the proof of existence
    /// recovery trusts.
    pub fn log_commit(
        &self,
        key: ChunkKey,
        rows: u32,
        is_tail: bool,
        bytes: &[u8],
    ) -> Result<(), StorageError> {
        let chunk_crc = crc32(bytes);
        let mut log = self.log.lock();
        let rec = JournalRecord::Commit {
            stream: key.stream,
            chunk_idx: key.chunk_idx,
            generation: log.index.generation(key.stream),
            rows,
            is_tail,
            byte_len: bytes.len() as u64,
            chunk_crc,
        };
        self.append(&mut log, &rec)
    }

    /// Logs a stream delete and bumps its generation. Call strictly
    /// *before* the backend wipe — a crash between the two leaves orphan
    /// chunk files (removed by recovery's sweep), never a resurrected
    /// stream. Compacts when the dead share passes the
    /// [`CompactionPolicy`].
    pub fn log_delete(&self, stream: StreamId) -> Result<(), StorageError> {
        let mut log = self.log.lock();
        let rec = JournalRecord::Delete {
            stream,
            generation: log.index.generation(stream),
        };
        self.append(&mut log, &rec)?;
        let (total, dead) = (log.index.records_total(), log.index.records_dead());
        if total >= self.policy.min_records
            && dead as f64 > self.policy.max_dead_ratio * total as f64
        {
            self.rewrite(&mut log)?;
        }
        Ok(())
    }

    /// Records after the header currently in the file.
    pub fn records_total(&self) -> usize {
        self.log.lock().index.records_total()
    }

    /// Of [`Journal::records_total`], how many a compaction would drop.
    pub fn records_dead(&self) -> usize {
        self.log.lock().index.records_dead()
    }

    /// Rewrites performed over this handle's lifetime.
    pub fn compactions(&self) -> u64 {
        self.log.lock().compactions
    }

    /// Rewrites the journal down to its live prefix, the index's
    /// [`StreamIndex::live_records`]: the header, one `Gen` baseline per
    /// deleted stream, and exactly the commits a recovery replay keeps.
    /// Concurrent appends block and then land in the rewritten file. The
    /// replacement is written to a temp file, fsynced, and atomically
    /// renamed over the journal, so a crash at any point leaves either the
    /// old or the new journal fully intact.
    pub fn compact(&self) -> Result<(), StorageError> {
        self.rewrite(&mut self.log.lock())
    }

    /// Recovery only: truncates each `(stream, n_chunks)` in the index
    /// (see [`StreamIndex::truncate`]) and rewrites the journal from it, so
    /// commits of the chunks recovery discarded cannot outlive them.
    pub fn truncate_streams(&self, cuts: &[(StreamId, usize)]) -> Result<(), StorageError> {
        let mut log = self.log.lock();
        for &(stream, n_chunks) in cuts {
            log.index.truncate(stream, n_chunks);
        }
        self.rewrite(&mut log)
    }

    fn rewrite(&self, log: &mut Log) -> Result<(), StorageError> {
        let live = log.index.live_records();
        let tmp = self.root.join(COMPACT_TMP);
        let mut out = File::create(&tmp).map_err(io_err)?;
        out.write_all(&frame(&encode_header(&self.header)))
            .map_err(io_err)?;
        for rec in &live {
            out.write_all(&frame(&encode_record(rec))).map_err(io_err)?;
        }
        // hc-analyze: allow(blocking_under_lock) intentional: the compaction rewrite IS the log lock's critical section — concurrent appends must block until the rename lands
        out.sync_all().map_err(io_err)?;
        drop(out);
        std::fs::rename(&tmp, journal_path(&self.root)).map_err(io_err)?;
        fsync_dir(&self.root);
        log.file = open_append(&self.root)?;
        log.index = StreamIndex::from_records(&live);
        log.compactions += 1;
        Ok(())
    }

    /// Appends `rec`'s frame and applies it to the index, under the log
    /// lock the caller holds.
    fn append(&self, log: &mut Log, rec: &JournalRecord) -> Result<(), StorageError> {
        log.file
            .write_all(&frame(&encode_record(rec)))
            .map_err(io_err)?;
        log.index.apply(rec);
        if self.sync {
            // hc-analyze: allow(blocking_under_lock) intentional: the durability contract orders record-on-disk before the next append, and the log lock is that order
            log.file.sync_data().map_err(io_err)?;
        }
        Ok(())
    }
}

/// Opens the journal under `root` for appending: every write lands at the
/// end of the file, whatever its length.
fn open_append(root: &Path) -> Result<File, StorageError> {
    let path = journal_path(root);
    OpenOptions::new().append(true).open(path).map_err(io_err)
}

fn fsync_dir(dir: &Path) {
    // Directory fsync pins the journal's directory entry; failure here is
    // not actionable beyond what the file sync already guaranteed.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcjournal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> JournalHeader {
        JournalHeader {
            d_model: 8,
            n_devices: 2,
            precision: Precision::F16,
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The IEEE check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_replay() {
        let root = tmp_root("roundtrip");
        let j = Journal::create(&root, header(), true).unwrap();
        let s = StreamId::hidden(7, 3);
        let key = |i| ChunkKey {
            stream: s,
            chunk_idx: i,
        };
        j.log_commit(key(0), 64, false, &[1, 2, 3]).unwrap();
        j.log_commit(key(1), 10, true, &[4, 5]).unwrap();
        j.log_delete(s).unwrap();
        j.log_commit(key(0), 64, false, &[6]).unwrap();
        drop(j);

        let replay = Journal::replay(&root).unwrap();
        assert_eq!(replay.header, header());
        assert_eq!(replay.truncated, 0);
        assert_eq!(replay.records.len(), 4);
        assert_eq!(
            replay.records[0],
            JournalRecord::Commit {
                stream: s,
                chunk_idx: 0,
                generation: 0,
                rows: 64,
                is_tail: false,
                byte_len: 3,
                chunk_crc: crc32(&[1, 2, 3]),
            }
        );
        assert!(matches!(
            replay.records[1],
            JournalRecord::Commit {
                is_tail: true,
                rows: 10,
                ..
            }
        ));
        assert_eq!(
            replay.records[2],
            JournalRecord::Delete {
                stream: s,
                generation: 0
            }
        );
        // Post-delete commits carry the bumped generation.
        assert!(matches!(
            replay.records[3],
            JournalRecord::Commit { generation: 1, .. }
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let root = tmp_root("torn");
        let j = Journal::create(&root, header(), true).unwrap();
        let s = StreamId::hidden(1, 0);
        for i in 0..3 {
            j.log_commit(
                ChunkKey {
                    stream: s,
                    chunk_idx: i,
                },
                64,
                false,
                &[i as u8],
            )
            .unwrap();
        }
        drop(j);
        let full = std::fs::metadata(journal_path(&root)).unwrap().len();
        let intact = Journal::replay(&root).unwrap();
        assert_eq!(intact.consistent_len, full);

        // Cut the file mid-record: the last record must drop, the rest
        // must survive, and reopen must shrink the file back.
        let cut = full - 3;
        let f = OpenOptions::new()
            .write(true)
            .open(journal_path(&root))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let (j2, replay) = Journal::reopen(&root, true).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.truncated, cut - replay.consistent_len);
        assert!(replay.consistent_len < cut);
        assert_eq!(
            std::fs::metadata(journal_path(&root)).unwrap().len(),
            replay.consistent_len
        );
        // Appending after the truncation yields a consistent journal again.
        j2.log_delete(s).unwrap();
        drop(j2);
        let replay = Journal::replay(&root).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.truncated, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_seeds_generations_from_deletes() {
        let root = tmp_root("gens");
        let s = StreamId::hidden(1, 0);
        let j = Journal::create(&root, header(), true).unwrap();
        j.log_delete(s).unwrap();
        j.log_delete(s).unwrap();
        drop(j);
        let (j2, _) = Journal::reopen(&root, true).unwrap();
        assert_eq!(j2.generation(s), 2);
        assert_eq!(j2.generation(StreamId::hidden(2, 0)), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Compaction policy small enough for unit tests to trip.
    fn eager_policy() -> CompactionPolicy {
        CompactionPolicy {
            min_records: 4,
            max_dead_ratio: 0.4,
        }
    }

    #[test]
    fn compaction_folds_dead_history_into_a_live_prefix() {
        let root = tmp_root("compact");
        let j = Journal::create(&root, header(), true)
            .unwrap()
            .with_compaction(eager_policy());
        let kept = StreamId::hidden(1, 0);
        let churn = StreamId::hidden(2, 0);
        let key = |s, i| ChunkKey {
            stream: s,
            chunk_idx: i,
        };
        j.log_commit(key(kept, 0), 64, false, &[1]).unwrap();
        j.log_commit(key(kept, 1), 7, true, &[2, 3]).unwrap();
        for round in 0..3u8 {
            j.log_commit(key(churn, 0), 64, false, &[round]).unwrap();
            j.log_commit(key(churn, 1), 64, false, &[round, round])
                .unwrap();
            j.log_delete(churn).unwrap();
        }
        assert!(j.compactions() >= 1, "churn deletes should trip the policy");
        // The survivor's records and both streams' generations survive
        // the rewrite; the churn history does not.
        let replay = Journal::replay(&root).unwrap();
        assert_eq!(replay.header, header());
        let commits: Vec<_> = replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Commit { .. }))
            .collect();
        assert_eq!(commits.len(), 2, "only the kept stream's commits remain");
        assert!(replay.records.contains(&JournalRecord::Gen {
            stream: churn,
            generation: 3
        }));
        assert_eq!(j.generation(churn), 3);
        assert_eq!(j.generation(kept), 0);
        // The handle keeps appending into the rewritten file.
        j.log_commit(key(kept, 1), 12, true, &[9]).unwrap();
        let replay = Journal::replay(&root).unwrap();
        assert_eq!(replay.truncated, 0);
        assert!(matches!(
            replay.records.last(),
            Some(JournalRecord::Commit {
                rows: 12,
                is_tail: true,
                ..
            })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_after_compaction_restores_generations_and_stats() {
        let root = tmp_root("compact-reopen");
        let before = {
            let j = Journal::create(&root, header(), true)
                .unwrap()
                .with_compaction(eager_policy());
            let s = StreamId::hidden(5, 2);
            for _ in 0..4 {
                j.log_commit(
                    ChunkKey {
                        stream: s,
                        chunk_idx: 0,
                    },
                    64,
                    false,
                    &[1],
                )
                .unwrap();
                j.log_delete(s).unwrap();
            }
            assert!(j.compactions() >= 1);
            (j.generation(s), j.records_total(), j.records_dead())
        };
        let (j2, replay) = Journal::reopen(&root, true).unwrap();
        assert_eq!(replay.truncated, 0);
        assert_eq!(j2.generation(StreamId::hidden(5, 2)), before.0);
        assert_eq!(j2.records_total(), before.1);
        assert_eq!(j2.records_dead(), before.2);
        // The next delete numbers on from the baseline, exactly as an
        // uncompacted history would have.
        j2.log_commit(
            ChunkKey {
                stream: StreamId::hidden(5, 2),
                chunk_idx: 0,
            },
            64,
            false,
            &[2],
        )
        .unwrap();
        j2.log_delete(StreamId::hidden(5, 2)).unwrap();
        assert_eq!(j2.generation(StreamId::hidden(5, 2)), before.0 + 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_stray_compaction_temp_file_is_removed_on_reopen() {
        let root = tmp_root("compact-stray");
        let j = Journal::create(&root, header(), true).unwrap();
        j.log_delete(StreamId::hidden(1, 0)).unwrap();
        drop(j);
        let stray = root.join(COMPACT_TMP);
        std::fs::write(&stray, b"half-written rewrite").unwrap();
        let (j2, replay) = Journal::reopen(&root, true).unwrap();
        assert!(!stray.exists(), "reopen must clear the aborted rewrite");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(j2.generation(StreamId::hidden(1, 0)), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_or_headerless_journal_is_a_typed_error() {
        let root = tmp_root("noheader");
        assert!(matches!(Journal::replay(&root), Err(StorageError::Io(_))));
        std::fs::write(journal_path(&root), b"garbage").unwrap();
        assert!(matches!(Journal::replay(&root), Err(StorageError::Io(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_header_with_precision_code_one_is_a_corrupt_header() {
        let root = tmp_root("int8-header");
        let mut payload = encode_header(&header());
        // The retired int8 code: the frame checks out, the header does not.
        *payload.last_mut().unwrap() = 1;
        std::fs::write(journal_path(&root), frame(&payload)).unwrap();
        assert!(matches!(Journal::replay(&root), Err(StorageError::Io(_))));
        assert!(Journal::reopen(&root, false).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Writes a small fixed history and returns its bytes + records.
    fn fault_fixture(root: &Path) -> (Vec<u8>, Vec<JournalRecord>) {
        let j = Journal::create(root, header(), true).unwrap();
        let s = StreamId::hidden(3, 1);
        for i in 0..3 {
            j.log_commit(
                ChunkKey {
                    stream: s,
                    chunk_idx: i,
                },
                64,
                false,
                &[i as u8, 7],
            )
            .unwrap();
        }
        j.log_delete(s).unwrap();
        j.log_commit(
            ChunkKey {
                stream: s,
                chunk_idx: 0,
            },
            20,
            true,
            &[9],
        )
        .unwrap();
        drop(j);
        let bytes = std::fs::read(journal_path(root)).unwrap();
        let records = Journal::replay(root).unwrap().records;
        (bytes, records)
    }

    #[test]
    fn any_single_bit_flip_leaves_a_consistent_truncatable_prefix() {
        let master = tmp_root("flip-master");
        let (bytes, records) = fault_fixture(&master);
        // Header frame length: 8-byte frame head + 14-byte payload.
        let header_len = 22;
        let case = tmp_root("flip-case");
        for off in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut corrupt = bytes.clone();
                corrupt[off] ^= 1 << bit;
                std::fs::write(journal_path(&case), &corrupt).unwrap();
                if off < header_len {
                    // A damaged header is unrecoverable by design: fail
                    // typed, never fabricate a manager config.
                    assert!(
                        Journal::reopen(&case, true).is_err(),
                        "offset {off} bit {bit}: corrupt header must not reopen"
                    );
                    continue;
                }
                let (j, replay) = Journal::reopen(&case, true)
                    .unwrap_or_else(|e| panic!("offset {off} bit {bit}: reopen failed: {e}"));
                assert!(
                    replay.records.len() <= records.len()
                        && replay.records == records[..replay.records.len()],
                    "offset {off} bit {bit}: replay is not a prefix of the true history"
                );
                assert_eq!(
                    std::fs::metadata(journal_path(&case)).unwrap().len(),
                    replay.consistent_len,
                    "offset {off} bit {bit}: reopen left bytes past the consistent prefix"
                );
                // The truncated journal accepts appends and replays clean.
                j.log_delete(StreamId::hidden(3, 1)).unwrap();
                drop(j);
                let again = Journal::replay(&case).unwrap();
                assert_eq!(again.truncated, 0, "offset {off} bit {bit}");
                assert_eq!(again.records.len(), replay.records.len() + 1);
            }
        }
        std::fs::remove_dir_all(&master).unwrap();
        std::fs::remove_dir_all(&case).unwrap();
    }

    /// Frame boundaries of a journal image: (start, end) byte offsets.
    fn frame_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut bounds = Vec::new();
        let mut off = 0;
        while off + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            bounds.push((off, off + 8 + len));
            off += 8 + len;
        }
        bounds
    }

    #[test]
    fn duplicated_frames_never_break_replay_or_generation_numbering() {
        let master = tmp_root("dup-master");
        let (bytes, records) = fault_fixture(&master);
        let case = tmp_root("dup-case");
        for (idx, &(start, end)) in frame_bounds(&bytes).iter().enumerate() {
            // A retried write that landed twice: the frame duplicated in
            // place.
            let mut dup = bytes[..end].to_vec();
            dup.extend_from_slice(&bytes[start..end]);
            dup.extend_from_slice(&bytes[end..]);
            std::fs::write(journal_path(&case), &dup).unwrap();
            let (j, replay) = Journal::reopen(&case, true).unwrap();
            if idx == 0 {
                // A duplicated header decodes as no known record: replay
                // keeps the prefix before it — the empty history.
                assert!(replay.records.is_empty(), "duplicated header frame");
            } else {
                // Every record duplicate replays (the consumers fold
                // idempotently or bump the generation one extra — both
                // consistent states), and nothing after it is lost.
                assert_eq!(replay.records.len(), records.len() + 1, "frame {idx}");
                assert_eq!(replay.records[idx - 1], replay.records[idx], "frame {idx}");
                assert_eq!(replay.truncated, 0, "frame {idx}");
            }
            // Generation counters stay monotone and appendable.
            let s = StreamId::hidden(3, 1);
            let g = j.generation(s);
            j.log_delete(s).unwrap();
            assert_eq!(j.generation(s), g + 1, "frame {idx}");
        }
        std::fs::remove_dir_all(&master).unwrap();
        std::fs::remove_dir_all(&case).unwrap();
    }
}
