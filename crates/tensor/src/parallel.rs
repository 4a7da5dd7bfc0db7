//! Thread-budget configuration and the scoped row-parallel helper.
//!
//! Everything multi-threaded in the workspace — the blocked GEMM kernels,
//! the f16 bulk codec, the storage chunk encoder and the restore drivers —
//! draws its thread budget from one [`ParallelConfig`], so the saving
//! daemon and the restoration pipeline never oversubscribe the host
//! (§4.2.2's chunk daemon and §4.1.2's two-stream schedule share cores in
//! the paper's host runtime too).
//!
//! Parallel kernels built on [`ParallelConfig::run_row_blocks`] split work
//! by *output rows* and leave the per-row computation untouched, so their
//! results are bit-for-bit identical to the serial kernels no matter the
//! thread count — the property the restoration-losslessness tests rely on.
//!
//! Threads are scoped and created per call, which costs tens of
//! microseconds (≈ 70 µs for two on the 2-core reference host) — more than
//! a one-token GEMM or one chunk's f16 decode. Callers on a latency path
//! pass [`ParallelConfig::serial`] for such calls (`Model::decode_step`
//! does; storage reads decode each chunk serially). A per-call work
//! threshold inside `run_row_blocks` was measured and left out: it bought
//! medians and cost tails (README "Forward pass"); the spawn cost is the
//! persistent-worker item in ROADMAP.md.

/// Thread budget shared by the parallel kernels and pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl ParallelConfig {
    /// A budget of exactly `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The single-threaded budget: parallel entry points degrade to the
    /// serial kernels with no thread spawns at all.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// One thread per available core (as the OS reports it).
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(n)
    }

    /// Worker threads in the budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the budget is one thread (serial fallback).
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Runs `work` over `n_rows` of output split into contiguous row blocks,
    /// one scoped thread per block. `work(row0, rows_chunk)` receives the
    /// absolute index of its first row plus the mutable slice of `data`
    /// holding its rows (`row_width` elements each).
    ///
    /// With one thread (or one row) this calls `work` inline — the serial
    /// kernels and the parallel ones share every instruction that touches
    /// data.
    ///
    /// # Panics
    /// Panics when `data.len() != n_rows * row_width`.
    pub fn run_row_blocks<T, F>(&self, data: &mut [T], n_rows: usize, row_width: usize, work: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert_eq!(data.len(), n_rows * row_width, "row block shape mismatch");
        if n_rows == 0 {
            return;
        }
        let threads = self.threads.min(n_rows);
        if threads <= 1 {
            work(0, data);
            return;
        }
        // Contiguous blocks of ⌈n_rows / threads⌉ rows; the remainder makes
        // the last block shorter.
        let rows_per = n_rows.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut row0 = 0usize;
            while row0 < n_rows {
                let take = rows_per.min(n_rows - row0);
                let (head, tail) = rest.split_at_mut(take * row_width);
                let work = &work;
                scope.spawn(move || work(row0, head));
                rest = tail;
                row0 += take;
            }
        });
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_clamped_to_one() {
        assert_eq!(ParallelConfig::new(0).threads(), 1);
        assert!(ParallelConfig::new(0).is_serial());
        assert!(!ParallelConfig::new(3).is_serial());
    }

    #[test]
    fn auto_reports_at_least_one_thread() {
        assert!(ParallelConfig::auto().threads() >= 1);
    }

    #[test]
    fn row_blocks_cover_every_row_exactly_once() {
        for threads in 1..=8 {
            let cfg = ParallelConfig::new(threads);
            let n_rows = 13;
            let width = 3;
            let mut data = vec![0u32; n_rows * width];
            cfg.run_row_blocks(&mut data, n_rows, width, |row0, chunk| {
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    for v in row.iter_mut() {
                        *v += (row0 + i) as u32 + 1;
                    }
                }
            });
            let expect: Vec<u32> = (0..n_rows)
                .flat_map(|r| std::iter::repeat_n(r as u32 + 1, width))
                .collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let cfg = ParallelConfig::new(16);
        let mut data = vec![0u8; 2 * 4];
        cfg.run_row_blocks(&mut data, 2, 4, |_, chunk| chunk.fill(7));
        assert!(data.iter().all(|&v| v == 7));
    }

    #[test]
    fn zero_rows_is_a_noop() {
        let cfg = ParallelConfig::new(4);
        let mut data: Vec<f32> = Vec::new();
        cfg.run_row_blocks(&mut data, 0, 8, |_, _| panic!("no work expected"));
    }
}
