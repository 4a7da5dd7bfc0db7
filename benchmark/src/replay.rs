//! The correctness gate and the stepwise replay.
//!
//! Both rest on the repo's bit-identity invariant: whatever path the facade
//! takes, `HCacheSystem::restore` must return exactly the cache
//! `restore_session_with_methods` (the sequential oracle) builds under the
//! session's current method mix. The replay additionally re-runs that
//! oracle one stage at a time, with a span around each stage, so a
//! restore's time can be attributed to reading, projecting and recomputing.

use hc_model::{layer, KvCache};
use hc_restore::engine::{kv_max_error, restore_session_with_methods};
use hc_sched::partition::LayerMethod;
use hc_storage::StreamId;

use crate::driver::{Bench, Samples};
use crate::fixture::Backend;
use crate::trace::Tracer;

/// Facade restore of `sid` against the sequential oracle, bit for bit.
pub fn bit_identical<S: Backend>(bench: &Bench<S>, sid: u64) -> bool {
    let tokens = bench.sys.session_tokens(sid).expect("live session");
    let oracle = restore_session_with_methods(
        bench.sys.model(),
        bench.sys.storage(),
        sid,
        tokens,
        tokens.len(),
        &bench.methods(sid),
    );
    match (bench.sys.restore(sid), oracle) {
        (Ok(facade), Ok(oracle)) => {
            facade.n_tokens() == oracle.n_tokens() && kv_max_error(&facade, &oracle) == 0.0
        }
        _ => false,
    }
}

/// The slots holding the shortest, the median and the longest history.
pub fn sample_slots<S: Backend>(bench: &Bench<S>) -> Vec<usize> {
    let mut by_len: Vec<usize> = (0..bench.sessions.len()).collect();
    by_len.sort_by_key(|&slot| bench.sys.context_len(bench.sessions[slot]).unwrap_or(0));
    let mut picks = vec![
        by_len[0],
        by_len[by_len.len() / 2],
        by_len[by_len.len() - 1],
    ];
    picks.dedup();
    picks
}

/// The gate run before timing (and, without the losslessness part, again
/// after it): sampled facade restores are bit-identical to the oracle, a
/// restored cache matches a from-scratch prefill of the conversation
/// within f16 tolerance, the quota holds, and one conversation driven
/// through evict-and-restore generates exactly the tokens a never-evicted
/// run of the same model generates (the paper's losslessness).
pub fn gate<S: Backend>(
    bench: &mut Bench<S>,
    gate_rounds: Option<&[(Vec<u32>, usize)]>,
    samples: &mut Samples,
) {
    for slot in sample_slots(bench) {
        let sid = bench.sessions[slot];
        samples.check(
            bit_identical(bench, sid),
            &format!("slot {slot}: facade restore differs from the sequential oracle"),
        );
    }

    // Fidelity against a fresh forward pass, on the shortest session.
    let sid = bench.sessions[sample_slots(bench)[0]];
    let tokens = bench
        .sys
        .session_tokens(sid)
        .expect("live session")
        .to_vec();
    let mut reference = KvCache::new(&bench.sys.model().cfg);
    bench.sys.model().prefill(&tokens, &mut reference, false);
    let fidelity = bench
        .sys
        .restore(sid)
        .is_ok_and(|kv| kv_max_error(&kv, &reference) < 0.05);
    samples.check(fidelity, "restored cache deviates from a fresh prefill");

    if let Some(quota) = bench.quota_bytes {
        let used = bench.sys.controller().expect("controller").used_bytes();
        samples.check(
            used <= quota,
            &format!("used {used} B over the {quota} B quota"),
        );
    }

    let Some(rounds) = gate_rounds else { return };
    let sid = bench.sys.open_session();
    let mut live = KvCache::new(&bench.sys.model().cfg);
    let mut lossless = true;
    for (prompt, n_gen) in rounds {
        let Ok(got) = bench.sys.round(sid, prompt, *n_gen) else {
            lossless = false;
            break;
        };
        let model = bench.sys.model();
        let out = model.prefill(prompt, &mut live, false);
        let mut last = out.final_hidden.row(prompt.len() - 1).to_vec();
        let mut want = Vec::with_capacity(*n_gen);
        for _ in 0..*n_gen {
            let next = model.greedy_next_token(&last);
            last = model.decode_step(next, &mut live, false).0;
            want.push(next);
        }
        lossless &= got == want;
    }
    lossless &= bench.sys.close_session(sid).is_ok();
    samples.check(
        lossless,
        "generation across eviction differs from the never-evicted run",
    );
}

/// Stepwise replay of one session's restore, inside a `replay` span:
/// the facade restore again (`replay.facade_restore`), the oracle
/// (`restore.sequential_oracle`), then the oracle's own steps one by one
/// (`restore.stepwise` ⊃ `model.recompute_prefix`, `storage.read_rows`,
/// `model.restore_layer_kv`) with the same serial kernels the oracle uses,
/// so the stage times add up to the oracle's wall. All three caches must
/// be bit-identical; a miss counts as a failed op.
pub fn replay<S: Backend>(
    bench: &Bench<S>,
    sid: u64,
    request: u64,
    tracer: &mut Tracer,
    samples: &mut Samples,
) {
    let methods = bench.methods(sid);
    let sys = &bench.sys;
    let model = sys.model();
    let mgr = sys.storage();
    let tokens = sys.session_tokens(sid).expect("live session");
    let n = tokens.len();
    let ok = tracer.request(request, |tracer| {
        tracer
            .time("replay", |tracer| {
                let (facade, _) = tracer.time("replay.facade_restore", |_| sys.restore(sid));
                let (oracle, _) = tracer.time("restore.sequential_oracle", |_| {
                    restore_session_with_methods(model, mgr, sid, tokens, n, &methods)
                });
                let (stepwise, _) = tracer.time("restore.stepwise", |tracer| {
                    let cfg = &model.cfg;
                    let mut kv = KvCache::new(cfg);
                    let n_recompute = methods
                        .iter()
                        .take_while(|m| **m == LayerMethod::Recompute)
                        .count();
                    if n_recompute > 0 {
                        tracer.time("model.recompute_prefix", |_| {
                            let mut hidden = model.embed_tokens(tokens, 0);
                            for (l, lw) in model.layers.iter().take(n_recompute).enumerate() {
                                let (next, k, v) = layer::layer_forward(
                                    cfg,
                                    lw,
                                    &hidden,
                                    kv.keys(l),
                                    kv.values(l),
                                    0,
                                );
                                kv.append(l, &k, &v);
                                hidden = next;
                            }
                        });
                    }
                    for (l, method) in methods.iter().enumerate().skip(n_recompute) {
                        let mut read = |stream| {
                            tracer
                                .time("storage.read_rows", |_| mgr.read_rows(stream, 0, n as u64))
                                .0
                        };
                        let (k, v) = match method {
                            LayerMethod::Hidden => {
                                let h = read(StreamId::hidden(sid, l as u32))?;
                                tracer
                                    .time("model.restore_layer_kv", |_| {
                                        model.restore_layer_kv(l, &h, 0)
                                    })
                                    .0
                            }
                            _ => (
                                read(StreamId::key(sid, l as u32))?,
                                read(StreamId::value(sid, l as u32))?,
                            ),
                        };
                        kv.append(l, &k, &v);
                    }
                    Ok::<_, hc_storage::StorageError>(kv)
                });
                match (facade, oracle, stepwise) {
                    (Ok(f), Ok(o), Ok(s)) => {
                        kv_max_error(&f, &o) == 0.0 && kv_max_error(&s, &o) == 0.0
                    }
                    _ => false,
                }
            })
            .0
    });
    samples.check(ok, "replayed restore differs from the sequential oracle");
}
