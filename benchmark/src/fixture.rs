//! The common fixture: model, thread budget, the four workloads' shapes and
//! the storage backend each one runs on.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hc_model::{ModelConfig, NormKind, PosKind};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::{ChunkStore, FileStore, MemStore};
use hc_storage::latency::LatencyStore;
use hc_storage::tiered::TieredStore;
use hc_tensor::ParallelConfig;

/// Weight seed of the model; fixed so every run and every commit serves the
/// same network.
pub const MODEL_SEED: u64 = 7;
/// Storage devices every backend stripes over.
pub const N_DEVICES: usize = 4;

/// The thread budget the system is built with: the reference host has two
/// cores, and the harness itself drives from one thread.
pub fn par() -> ParallelConfig {
    ParallelConfig::new(2)
}

/// *Bench-Llama*, the model the legacy benches already use.
pub fn bench_llama() -> ModelConfig {
    ModelConfig {
        name: "Bench-Llama".into(),
        n_layers: 4,
        d_model: 256,
        n_heads: 8,
        d_ff: 512,
        vocab_size: 256,
        max_seq_len: 4096,
        norm: NormKind::RmsNorm,
        pos: PosKind::Rope,
        elem_bytes: 2,
        param_count: 0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatMem,
    ChatFileSave,
    LongctxSsd,
    ArrivalsQuotaSsd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChatMem,
        Workload::ChatFileSave,
        Workload::LongctxSsd,
        Workload::ArrivalsQuotaSsd,
    ];

    /// The name `BENCHMARK.json` knows the workload by (`ALL` and
    /// `spec::WORKLOADS` are in the same order; a unit test checks it).
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Three open-loop arrival rates in requests per second. Frozen: about 0.3,
/// 0.5 and 0.7 of the closed-loop capacity (≈ 14 req/s) measured once on
/// the 2-core reference host.
pub const RATES: [f64; 3] = [4.0, 7.0, 10.0];
/// Latency limit on the from-due-time `ttft_ms_p90` for
/// `driver.max_rate_within_slo`, placed between what the middle and the
/// high rate showed on the reference host.
pub const SLO_TTFT_MS: f64 = 300.0;

/// Sizes of one workload. Token counts are history lengths.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Live sessions (slots); a slot's session is replaced when it would
    /// outgrow `cap`.
    pub slots: usize,
    /// Initial histories are stratified over `[init_lo, init_hi)`.
    pub init_lo: usize,
    pub init_hi: usize,
    /// A session that would exceed this many tokens is closed and replaced.
    pub cap: usize,
    /// First-round prompt length of a replacement session.
    pub fresh_len: usize,
    /// Modelled device service time per chunk (zero: not modelled).
    pub read_latency: Duration,
    pub write_latency: Duration,
    /// Controller quota and DRAM front tier as shares of the initial
    /// working set (`None`: unlimited quota).
    pub quota_share: Option<f64>,
    pub front_share: f64,
    /// Open-loop arrival rates (`None`: closed loop).
    pub rates: Option<[f64; 3]>,
    /// Every how many traced ops the stepwise replay runs.
    pub replay_every: usize,
    /// `(prompt tokens, generated tokens)` of the losslessness gate's rounds.
    pub gate_rounds: &'static [(usize, usize)],
}

impl Workload {
    /// The partition scheme sessions are saved under.
    pub fn scheme(self) -> PartitionScheme {
        match self {
            Workload::LongctxSsd => PartitionScheme {
                l_h: 3,
                l_o: 1,
                complement: LayerMethod::KvOffload,
            },
            _ => PartitionScheme::pure_hidden(bench_llama().n_layers),
        }
    }

    /// Full-size shape, or the tiny one `--smoke` uses.
    pub fn shape(self, tiny: bool) -> Shape {
        let us = Duration::from_micros;
        // A closed loop over an unmodelled store with no quota.
        let plain = Shape {
            slots: 0,
            init_lo: 0,
            init_hi: 0,
            cap: 0,
            fresh_len: 0,
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            quota_share: None,
            front_share: 0.0,
            rates: None,
            replay_every: 8,
            gate_rounds: &[(24, 8), (8, 8), (8, 8)],
        };
        let mut s = match self {
            Workload::ChatMem => Shape {
                slots: 12,
                init_lo: 48,
                init_hi: 480,
                cap: 512,
                fresh_len: 48,
                ..plain
            },
            Workload::ChatFileSave => Shape {
                slots: 6,
                init_lo: 32,
                init_hi: 352,
                cap: 384,
                fresh_len: 32,
                ..plain
            },
            Workload::LongctxSsd => Shape {
                slots: 8,
                init_lo: 192,
                init_hi: 640,
                cap: 704,
                fresh_len: 192,
                read_latency: us(2000),
                write_latency: us(500),
                replay_every: 10,
                ..plain
            },
            Workload::ArrivalsQuotaSsd => Shape {
                slots: 24,
                init_lo: 96,
                init_hi: 192,
                cap: 256,
                fresh_len: 96,
                read_latency: us(1000),
                write_latency: us(500),
                quota_share: Some(0.5),
                front_share: 0.25,
                rates: Some(RATES),
                ..plain
            },
        };
        if tiny {
            s.slots = s.slots.min(4);
            s.init_lo = 16;
            s.init_hi = 80;
            s.cap = 128;
            s.fresh_len = 16;
            s.read_latency /= 4;
            s.write_latency /= 4;
            s.replay_every = 2;
            s.gate_rounds = &[(12, 4), (4, 4)];
        }
        s
    }
}

/// What the harness needs from a storage backend beyond [`ChunkStore`]:
/// how to build it for a workload, and the counters only that backend has.
pub trait Backend: ChunkStore + Sized {
    /// Builds the backend; `dir` is a fresh directory under
    /// `benchmark/out/` for backends that write files, and `front_bytes`
    /// the DRAM front tier's capacity for the tiered one.
    fn build(shape: &Shape, dir: &Path, front_bytes: u64) -> Arc<Self>;

    /// Service time reserved on each modelled device so far.
    fn device_busy(&self) -> Option<Vec<Duration>> {
        None
    }

    /// DRAM front tier `(hits, misses, evictions)`.
    fn front_counters(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

impl Backend for MemStore {
    fn build(_: &Shape, _: &Path, _: u64) -> Arc<Self> {
        Arc::new(MemStore::new(N_DEVICES))
    }
}

impl Backend for FileStore {
    fn build(_: &Shape, dir: &Path, _: u64) -> Arc<Self> {
        Arc::new(FileStore::new(dir, N_DEVICES).expect("create the FileStore directory"))
    }
}

impl Backend for LatencyStore<MemStore> {
    fn build(shape: &Shape, _: &Path, _: u64) -> Arc<Self> {
        Arc::new(LatencyStore::new(
            Arc::new(MemStore::new(N_DEVICES)),
            shape.read_latency,
            shape.write_latency,
        ))
    }

    fn device_busy(&self) -> Option<Vec<Duration>> {
        Some((0..N_DEVICES).map(|d| self.reserved_busy(d)).collect())
    }
}

impl Backend for TieredStore<LatencyStore<MemStore>> {
    fn build(shape: &Shape, dir: &Path, front_bytes: u64) -> Arc<Self> {
        Arc::new(TieredStore::new(
            LatencyStore::<MemStore>::build(shape, dir, 0),
            front_bytes,
        ))
    }

    fn device_busy(&self) -> Option<Vec<Duration>> {
        self.back().device_busy()
    }

    fn front_counters(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.front_hits(),
            self.front_misses(),
            self.front_evictions(),
        ))
    }
}
