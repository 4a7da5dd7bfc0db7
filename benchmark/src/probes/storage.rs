//! `hc-storage` and `hc-cachectl` probes: the manager, the two-stage saver,
//! the durable (journal + fsync) manager the facade cannot reach yet, and
//! the controller's bookkeeping calls.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hc_cachectl::{CacheController, ControllerConfig};
use hc_storage::backend::{ChunkStore, MemStore};
use hc_storage::manager::StorageManager;
use hc_storage::two_stage::{SaveMode, StateSaver};
use hc_storage::{Precision, StreamId};
use hc_tensor::f16::decode_f16_par;
use hc_tensor::Tensor2;
use hc_workload::rng::Rng;

use super::{synthetic_rows, time_calls, Values};
use crate::driver::TempDir;
use crate::fixture::{bench_llama, par, Backend, Shape, Workload, N_DEVICES};
use crate::stats::median;

/// Tokens the saver probes write between flushes (one round's worth).
const SAVER_ROUND_TOKENS: usize = 16;

/// `save_batch` (one token × every layer, the stall a decode step sees) and
/// `barrier_and_flush`, as medians in seconds.
fn saver_costs<S: ChunkStore>(mgr: Arc<StorageManager<S>>, rounds: usize) -> (f64, f64) {
    let cfg = bench_llama();
    let saver = StateSaver::new(mgr, SaveMode::TwoStage);
    let row = vec![0.25_f32; cfg.d_model];
    let session = 1;
    let mut save_s = Vec::new();
    let mut flush_s = Vec::new();
    for _ in 0..rounds {
        for _ in 0..SAVER_ROUND_TOKENS {
            let items: Vec<(StreamId, &[f32])> = (0..cfg.n_layers as u32)
                .map(|l| (StreamId::hidden(session, l), row.as_slice()))
                .collect();
            let t = Instant::now();
            saver.save_batch(&items).expect("probe save");
            save_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        saver.barrier_and_flush(session).expect("probe flush");
        flush_s.push(t.elapsed().as_secs_f64());
    }
    (median(&save_s), median(&flush_s))
}

/// Whole-stream append and read rates (encoded MB/s) of a manager.
fn stream_rates<S: ChunkStore>(mgr: &StorageManager<S>, rows: &Tensor2, reps: u64) -> (f64, f64) {
    let n_layers = bench_llama().n_layers as u32;
    let bytes = (n_layers as usize * rows.len() * 2) as f64;
    let mut session = 100;
    let append_s = median(&time_calls(reps as usize, || {
        session += 1;
        for l in 0..n_layers {
            mgr.append_rows(StreamId::hidden(session, l), rows)
                .expect("probe append");
        }
        mgr.flush_session(session).expect("probe flush");
    }));
    let mut session = 100;
    let read_s = median(&time_calls(reps as usize, || {
        session += 1;
        for l in 0..n_layers {
            black_box(
                mgr.read_rows(StreamId::hidden(session, l), 0, rows.rows() as u64)
                    .expect("probe read"),
            );
        }
    }));
    (bytes / append_s / 1e6, bytes / read_s / 1e6)
}

pub fn probe<S: Backend>(workload: Workload, shape: &Shape, n_tokens: usize) -> Values {
    let cfg = bench_llama();
    let par = par();
    let mut rng = Rng::new(0x73_746f_7265);
    let rows = synthetic_rows(&mut rng, n_tokens, cfg.d_model);

    // The workload's own backend, front tier off so the device is what
    // is measured.
    let dir = TempDir::new("probe");
    let mgr = Arc::new(
        StorageManager::new(S::build(shape, dir.path(), 0), cfg.d_model).with_parallel(par),
    );
    let (append_mbps, read_mbps) = stream_rates(&mgr, &rows, 3);
    let (save_s, flush_s) = saver_costs(mgr, 6);

    // Manager overhead: a MemStore `read_rows` against the bare decode of
    // the same bytes.
    let mem =
        StorageManager::new(Arc::new(MemStore::new(N_DEVICES)), cfg.d_model).with_parallel(par);
    let stream = StreamId::hidden(1, 0);
    mem.append_rows(stream, &rows).expect("probe append");
    mem.flush_stream(stream).expect("probe flush");
    let read_s = median(&time_calls(9, || {
        black_box(
            mem.read_rows(stream, 0, n_tokens as u64)
                .expect("probe read"),
        );
    }));
    let encoded = Precision::F16.encode_par(rows.as_slice(), cfg.d_model, &par);
    let decode_s = median(&time_calls(9, || {
        black_box(decode_f16_par(black_box(&encoded), &par));
    }));

    // The crash-durable manager (FileStore + journal + fsync).
    let durable_dir = TempDir::new("durable");
    let durable =
        StorageManager::create_durable(durable_dir.path(), N_DEVICES, cfg.d_model, Precision::F16)
            .expect("create the durable probe manager");
    let (_, durable_flush_s) = saver_costs(Arc::new(durable.with_parallel(par)), 5);

    // Controller bookkeeping, timed call by call.
    let ctl = CacheController::new(
        Arc::new(StorageManager::new(
            Arc::new(MemStore::new(N_DEVICES)),
            cfg.d_model,
        )),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );
    let scheme = workload.scheme();
    let (mut open_s, mut saved_s, mut close_s) = (Vec::new(), Vec::new(), Vec::new());
    for sid in 0..512u64 {
        let t = Instant::now();
        black_box(ctl.open_session(sid, &scheme));
        open_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        ctl.on_saved(sid, n_tokens as u64).expect("probe on_saved");
        saved_s.push(t.elapsed().as_secs_f64());
        // Keep a population around so `close` works on a table, not on a
        // single row.
        if sid >= 256 {
            let t = Instant::now();
            ctl.close_session(sid - 256).expect("probe close");
            close_s.push(t.elapsed().as_secs_f64());
        }
    }

    vec![
        ("storage.read_rows_mbps", read_mbps),
        ("storage.read_rows_vs_decode", read_s / decode_s),
        ("storage.append_rows_mbps", append_mbps),
        ("storage.saver.save_batch_us_p50", save_s * 1e6),
        ("storage.saver.flush_ms_p50", flush_s * 1e3),
        ("storage.durable_flush_ms_p50", durable_flush_s * 1e3),
        ("cachectl.open_us_p50", median(&open_s) * 1e6),
        ("cachectl.on_saved_us_p50", median(&saved_s) * 1e6),
        ("cachectl.close_us_p50", median(&close_s) * 1e6),
    ]
}
