//! The stream index: the one place the commit rule of a stream's chunks
//! is written. A full-chunk commit at the stream's next index seals it and
//! absorbs the flushed tail there; a tail commit at the next index
//! replaces the tail; any other commit is out of order and dropped; a
//! delete clears the stream and bumps its generation.
//!
//! [`ChunkLedger`] is the rule; the live manager keeps a CRC-free
//! `ChunkLedger<()>` per stream. [`StreamIndex`] adds CRCs and generations
//! and is the fold of a journal's records, which the journal, recovery and
//! compaction share. No IO, no locks, no clock: the only mutators are
//! [`StreamIndex::apply`] and the recovery-only [`StreamIndex::truncate`].

use std::collections::BTreeMap;

use crate::chunk::CHUNK_TOKENS;
use crate::journal::JournalRecord;
use crate::StreamId;

/// One committed chunk image; `crc` is a CRC32 in the index, `()` in the
/// live manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkImage<C> {
    /// Token rows the image holds.
    pub rows: u32,
    /// Encoded byte length in the backend.
    pub byte_len: u64,
    /// Checksum of the encoded bytes.
    pub crc: C,
}

impl ChunkImage<u32> {
    /// The image as the live manager's CRC-free ledger holds it.
    pub fn without_crc(&self) -> ChunkImage<()> {
        ChunkImage {
            rows: self.rows,
            byte_len: self.byte_len,
            crc: (),
        }
    }
}

/// One stream's sealed chunks, in index order, and its flushed tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkLedger<C> {
    chunks: Vec<ChunkImage<C>>,
    tail: Option<ChunkImage<C>>,
}

impl<C> ChunkLedger<C> {
    /// Applies the commit rule to `image` at `chunk_idx`; `false` (and no
    /// change) when the commit is out of order.
    pub fn commit(&mut self, chunk_idx: u32, is_tail: bool, image: ChunkImage<C>) -> bool {
        if chunk_idx != self.next_chunk() {
            return false;
        }
        if is_tail {
            self.tail = Some(image);
        } else {
            self.chunks.push(image);
            self.tail = None;
        }
        true
    }

    /// Drops every image (the stream was deleted).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.tail = None;
    }

    /// Keeps the first `n_chunks` sealed chunks; drops the rest and the tail.
    pub fn truncate(&mut self, n_chunks: usize) {
        self.chunks.truncate(n_chunks);
        self.tail = None;
    }

    /// The sealed chunks, by index.
    pub fn chunks(&self) -> &[ChunkImage<C>] {
        &self.chunks
    }

    /// The flushed tail, at index [`ChunkLedger::next_chunk`].
    pub fn tail(&self) -> Option<&ChunkImage<C>> {
        self.tail.as_ref()
    }

    /// Index the next commit must carry.
    pub fn next_chunk(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// The durable cursor: tokens the sealed chunks cover.
    pub fn durable_tokens(&self) -> u64 {
        self.chunks.len() as u64 * CHUNK_TOKENS
    }

    /// Bytes the stream holds in the backend (chunks plus tail): exactly
    /// what deleting it frees.
    pub fn resident_bytes(&self) -> u64 {
        let images = self.chunks.iter().chain(&self.tail);
        images.map(|c| c.byte_len).sum()
    }

    /// Committed images: the sealed chunks plus the tail.
    pub fn n_images(&self) -> usize {
        self.chunks.len() + usize::from(self.tail.is_some())
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Entry {
    generation: u32,
    ledger: ChunkLedger<u32>,
}

impl Entry {
    /// Records a compaction keeps: each image, plus a `Gen` baseline once
    /// the stream was deleted.
    fn live(&self) -> usize {
        self.ledger.n_images() + usize::from(self.generation > 0)
    }
}

/// The fold of a journal's records: each stream's generation and
/// CRC-carrying [`ChunkLedger`], plus exact live/dead record counts.
#[derive(Debug, Clone, Default)]
pub struct StreamIndex {
    /// Streams with a generation or an image (empty entries are pruned).
    streams: BTreeMap<StreamId, Entry>,
    /// Records folded.
    records: usize,
    /// Sum of [`Entry::live`].
    live: usize,
}

impl StreamIndex {
    /// Folds `records`, in order, into a fresh index.
    pub fn from_records(records: &[JournalRecord]) -> Self {
        let mut index = Self::default();
        records.iter().for_each(|rec| index.apply(rec));
        index
    }

    /// Folds one record. A `Gen` baseline raises the generation to its
    /// value.
    pub fn apply(&mut self, rec: &JournalRecord) {
        self.records += 1;
        match *rec {
            JournalRecord::Commit {
                stream,
                chunk_idx,
                rows,
                is_tail,
                byte_len,
                chunk_crc: crc,
                ..
            } => self.edit(stream, |e| {
                let image = ChunkImage {
                    rows,
                    byte_len,
                    crc,
                };
                e.ledger.commit(chunk_idx, is_tail, image);
            }),
            JournalRecord::Delete { stream, .. } => self.edit(stream, |e| {
                e.ledger.clear();
                e.generation += 1;
            }),
            JournalRecord::Gen { stream, generation } => {
                self.edit(stream, |e| e.generation = e.generation.max(generation))
            }
        }
    }

    /// Recovery only: [`ChunkLedger::truncate`] on `stream`'s ledger.
    pub fn truncate(&mut self, stream: StreamId, n_chunks: usize) {
        self.edit(stream, |e| e.ledger.truncate(n_chunks));
    }

    fn edit(&mut self, stream: StreamId, f: impl FnOnce(&mut Entry)) {
        let entry = self.streams.entry(stream).or_default();
        let before = entry.live();
        f(entry);
        self.live = self.live - before + entry.live();
        if *entry == Entry::default() {
            self.streams.remove(&stream);
        }
    }

    /// Current generation of `stream` (0 until its first delete).
    pub fn generation(&self, stream: StreamId) -> u32 {
        self.streams.get(&stream).map_or(0, |e| e.generation)
    }

    /// Every stream with state, ascending, with its ledger.
    pub fn ledgers(&self) -> impl Iterator<Item = (StreamId, &ChunkLedger<u32>)> {
        self.streams.iter().map(|(&s, e)| (s, &e.ledger))
    }

    /// Records folded into the index.
    pub fn records_total(&self) -> usize {
        self.records
    }

    /// Of [`StreamIndex::records_total`], how many a compaction drops.
    pub fn records_dead(&self) -> usize {
        self.records - self.live
    }

    /// The records whose fold reproduces the index: a `Gen` baseline per
    /// deleted stream, then each stream's chunks and tail, ascending.
    pub fn live_records(&self) -> Vec<JournalRecord> {
        let gens = self.streams.iter().filter(|(_, e)| e.generation > 0);
        let mut out: Vec<_> = gens
            .map(|(&stream, e)| JournalRecord::Gen {
                stream,
                generation: e.generation,
            })
            .collect();
        for (&stream, e) in &self.streams {
            let tail = e.ledger.tail.iter().map(|c| (c, true));
            let images = e.ledger.chunks.iter().map(|c| (c, false)).chain(tail);
            for (chunk_idx, (c, is_tail)) in (0u32..).zip(images) {
                out.push(JournalRecord::Commit {
                    stream,
                    chunk_idx,
                    generation: e.generation,
                    rows: c.rows,
                    is_tail,
                    byte_len: c.byte_len,
                    chunk_crc: c.crc,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: u64 = 4;
    const STREAMS: [StreamId; 2] = [
        StreamId {
            session: 1,
            layer: 0,
            kind: crate::StateKind::Hidden,
        },
        StreamId {
            session: 2,
            layer: 1,
            kind: crate::StateKind::Value,
        },
    ];

    /// One letter of the enumerated alphabet.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Seal(usize),
        Tail(usize, u32),
        OutOfOrder(usize),
        Delete(usize),
        Truncate(usize),
        Compact,
    }

    fn alphabet() -> Vec<Op> {
        let mut ops = vec![Op::Compact];
        for s in 0..STREAMS.len() {
            ops.extend([
                Op::Seal(s),
                Op::Tail(s, 1),
                Op::Tail(s, 63),
                Op::OutOfOrder(s),
                Op::Delete(s),
                Op::Truncate(s),
            ]);
        }
        ops
    }

    fn ledger_of(index: &StreamIndex, stream: StreamId) -> Option<&ChunkLedger<u32>> {
        index.streams.get(&stream).map(|e| &e.ledger)
    }

    fn commit(index: &StreamIndex, s: usize, idx: u32, rows: u32, is_tail: bool) -> JournalRecord {
        let stream = STREAMS[s];
        JournalRecord::Commit {
            stream,
            chunk_idx: idx,
            generation: index.generation(stream),
            rows,
            is_tail,
            byte_len: rows as u64 * D * 2,
            // Distinct per image, so the refold check catches a misplaced one.
            chunk_crc: (index.records_total() as u32) << 8 | idx,
        }
    }

    fn step(index: &mut StreamIndex, op: Op) {
        let next = |index: &StreamIndex, s: usize| {
            ledger_of(index, STREAMS[s]).map_or(0, ChunkLedger::next_chunk)
        };
        match op {
            Op::Seal(s) => index.apply(&commit(index, s, next(index, s), 64, false)),
            Op::Tail(s, rows) => index.apply(&commit(index, s, next(index, s), rows, true)),
            Op::OutOfOrder(s) => index.apply(&commit(index, s, next(index, s) + 1, 64, false)),
            Op::Delete(s) => index.apply(&JournalRecord::Delete {
                stream: STREAMS[s],
                generation: index.generation(STREAMS[s]),
            }),
            Op::Truncate(s) => {
                let n = next(index, s).saturating_sub(1) as usize;
                index.truncate(STREAMS[s], n);
            }
            Op::Compact => *index = StreamIndex::from_records(&index.live_records()),
        }
    }

    fn check(index: &StreamIndex, prev: &StreamIndex, path: &[Op]) {
        for &stream in &STREAMS {
            assert!(
                index.generation(stream) >= prev.generation(stream),
                "{path:?}: generation decreased"
            );
            let Some(ledger) = ledger_of(index, stream) else {
                continue;
            };
            let chunk_bytes: u64 = ledger.chunks().iter().map(|c| c.byte_len).sum();
            assert_eq!(
                ledger.resident_bytes(),
                chunk_bytes + ledger.tail().map_or(0, |t| t.byte_len),
                "{path:?}: resident != chunks + tail"
            );
            assert_eq!(
                ledger.durable_tokens(),
                CHUNK_TOKENS * ledger.chunks().len() as u64,
                "{path:?}: durable cursor"
            );
        }
        if let Some(&Op::Delete(s)) = path.last() {
            let images = ledger_of(index, STREAMS[s]).map_or(0, ChunkLedger::n_images);
            assert_eq!(images, 0, "{path:?}: images survived the delete");
        }
        let live = index.live_records();
        let refold = StreamIndex::from_records(&live);
        assert_eq!(refold.streams, index.streams, "{path:?}: live records");
        assert_eq!(refold.records_dead(), 0, "{path:?}");
        assert!(index.records_total() >= live.len(), "{path:?}");
        assert_eq!(
            index.records_dead(),
            index.records_total() - live.len(),
            "{path:?}: dead count"
        );
    }

    /// Every sequence of the alphabet up to `depth`, depth first, checked
    /// after every step. Returns the number of sequences explored.
    fn explore(index: &StreamIndex, path: &mut Vec<Op>, depth: usize, ops: &[Op]) -> usize {
        if path.len() == depth {
            return 1;
        }
        let mut n = 0;
        for &op in ops {
            let mut next = index.clone();
            step(&mut next, op);
            path.push(op);
            check(&next, index, path);
            n += explore(&next, path, depth, ops);
            path.pop();
        }
        n
    }

    #[test]
    fn index_invariants_hold_on_every_sequence_to_depth_five() {
        let ops = alphabet();
        let n = explore(&StreamIndex::default(), &mut Vec::new(), 5, &ops);
        assert_eq!(n, ops.len().pow(5));
    }

    #[test]
    fn index_tail_is_absorbed_replaced_and_out_of_order_commits_drop() {
        let mut index = StreamIndex::default();
        let s = STREAMS[0];
        step(&mut index, Op::Tail(0, 1));
        step(&mut index, Op::Tail(0, 63));
        assert_eq!(ledger_of(&index, s).unwrap().tail().unwrap().rows, 63);
        assert_eq!(ledger_of(&index, s).unwrap().resident_bytes(), 63 * D * 2);
        step(&mut index, Op::Seal(0));
        let ledger = ledger_of(&index, s).unwrap();
        assert_eq!(ledger.resident_bytes(), 64 * D * 2, "seal absorbs the tail");
        step(&mut index, Op::OutOfOrder(0));
        assert_eq!(ledger_of(&index, s).unwrap().chunks().len(), 1);
        assert_eq!(index.records_dead(), 3, "two tails and the stray commit");
        step(&mut index, Op::Delete(0));
        assert_eq!(index.generation(s), 1);
        assert!(ledger_of(&index, s).unwrap().chunks().is_empty());
        assert_eq!(
            index.live_records(),
            vec![JournalRecord::Gen {
                stream: s,
                generation: 1
            }]
        );
    }
}
