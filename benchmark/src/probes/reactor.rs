//! The batch restore path through the IO reactor, on the `longctx_ssd`
//! device model. `HCacheSystem` builds its manager without a reactor or a
//! fanout pool, so nothing the facade does reaches this code today; the
//! numbers are the baseline for the day it does.

use std::sync::Arc;
use std::time::Instant;

use hc_cachectl::scheduler::{RestoreJob, RestoreScheduler};
use hc_cachectl::{CacheController, ControllerConfig};
use hc_model::{KvCache, Model};
use hc_restore::engine::save_session_state;
use hc_storage::backend::MemStore;
use hc_storage::latency::LatencyStore;
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_workload::rng::Rng;

use super::{synthetic_rows, Values};
use crate::fixture::{par, Workload, N_DEVICES};

const SESSIONS: u64 = 32;
const SESSION_TOKENS: usize = 128;
const IODEPTH: usize = 4;
const MAX_INFLIGHT: usize = 64;

pub fn probe(model: &Model) -> Values {
    let cfg = &model.cfg;
    let scheme = Workload::LongctxSsd.scheme();
    let shape = Workload::LongctxSsd.shape(false);
    let store = Arc::new(LatencyStore::new(
        Arc::new(MemStore::new(N_DEVICES)),
        shape.read_latency,
        shape.write_latency,
    ));
    let reactor = Reactor::new(N_DEVICES, IODEPTH);
    let mgr = Arc::new(
        StorageManager::new(store, cfg.d_model)
            .with_parallel(par())
            .with_reactor(Arc::clone(&reactor)),
    );
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );

    // Fixture sessions: synthetic activations saved under the workload's
    // hidden+KV mix (no forward pass needed to exercise the IO plane).
    let mut rng = Rng::new(0x7265_6163);
    let mut jobs = Vec::new();
    for sid in 1..=SESSIONS {
        let hidden: Vec<_> = (0..cfg.n_layers)
            .map(|_| synthetic_rows(&mut rng, SESSION_TOKENS, cfg.d_model))
            .collect();
        let mut kv = KvCache::new(cfg);
        for (l, h) in hidden.iter().enumerate() {
            kv.append(l, h, h);
        }
        ctl.open_session(sid, &scheme);
        save_session_state(model, &mgr, sid, &hidden, &kv, &scheme).expect("save fixture session");
        ctl.on_saved(sid, SESSION_TOKENS as u64)
            .expect("charge fixture session");
        jobs.push(RestoreJob {
            session: sid,
            tokens: vec![0; SESSION_TOKENS],
        });
    }

    let scheduler = RestoreScheduler::new(2, par()).with_reactor(MAX_INFLIGHT);
    let t = Instant::now();
    let results = scheduler.run(model, &ctl, &jobs);
    let wall_s = t.elapsed().as_secs_f64();
    let restored: usize = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(KvCache::n_tokens)
        .sum();

    vec![
        (
            "restore.reactor_batch_tokens_per_s",
            restored as f64 / wall_s,
        ),
        (
            "restore.reactor_peak_inflight",
            reactor.peak_restores_in_flight() as f64,
        ),
        (
            "storage.reactor.ios_submitted",
            reactor.ios_submitted() as f64,
        ),
    ]
}
