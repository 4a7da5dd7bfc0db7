//! One run of one workload: inputs → set-up → gate → timed loop → gate →
//! metrics. The untraced run yields the end-to-end metrics; the traced run
//! yields the per-layer ones (probes, counters, spans).

use std::collections::BTreeMap;
use std::time::Instant;

use hc_storage::backend::{FileStore, MemStore};
use hc_storage::latency::LatencyStore;
use hc_storage::tiered::TieredStore;

use crate::driver::{self, out_dir, Bench, Samples};
use crate::fixture::{Backend, Workload, SLO_TTFT_MS};
use crate::inputs;
use crate::probes;
use crate::replay;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::{self, Tracer};

/// Set-ups timed per untraced run; `setup_s` is their median and the last
/// one is the system the run measures.
const SETUPS: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `--smoke`: tiny shapes.
    pub tiny: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// FNV hash of the generated inputs.
    pub input_hash: u64,
}

pub fn run(args: &RunArgs) -> RunResult {
    match args.workload {
        Workload::ChatMem => run_on::<MemStore>(args),
        Workload::ChatFileSave => run_on::<FileStore>(args),
        Workload::LongctxSsd => run_on::<LatencyStore<MemStore>>(args),
        Workload::ArrivalsQuotaSsd => run_on::<TieredStore<LatencyStore<MemStore>>>(args),
    }
}

/// What one open-loop phase showed at its rate.
struct PhaseTail {
    rate: f64,
    ttft_ms_p90: f64,
    backlog_end: u64,
}

fn run_on<S: Backend>(args: &RunArgs) -> RunResult {
    let shape = args.workload.shape(args.tiny);
    let inputs = inputs::generate(args.workload, &shape, args.seed, args.seconds, args.traced);
    let input_hash = inputs::fnv_hash(&inputs);
    let mut samples = Samples::default();

    let mut setup_s = Vec::new();
    let mut bench: Option<Bench<S>> = None;
    for _ in 0..if args.traced { 1 } else { SETUPS } {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(driver::setup(args.workload, &shape, &inputs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    replay::gate(&mut bench, Some(&inputs.gate), &mut samples);

    let ctl_before = bench.sys.cache_metrics().expect("controller attached");
    let front_before = bench.sys.storage().store().front_counters();
    let mut tracer = Tracer::new();
    let mut phase_tails = Vec::new();
    let mut request_base = 0;
    for phase in &inputs.phases {
        let first = samples.ttft_due_ms.len();
        if shape.rates.is_some() {
            driver::open_loop_phase(
                &mut bench,
                &inputs,
                phase,
                request_base,
                args.traced,
                &mut tracer,
                &mut samples,
            );
            request_base += phase.ops.len() as u64;
            if args.traced {
                // Replaying in line would delay every request queued
                // behind it, so the open loop replays between phases.
                tracer.set_recording(true);
                for slot in replay::sample_slots(&bench) {
                    let sid = bench.sessions[slot];
                    replay::replay(&bench, sid, request_base, &mut tracer, &mut samples);
                    request_base += 1;
                }
                tracer.set_recording(false);
            }
        } else {
            driver::closed_loop(
                &mut bench,
                &inputs,
                phase,
                args.traced,
                &mut tracer,
                &mut samples,
            );
        }
        phase_tails.push(PhaseTail {
            rate: phase.rate,
            ttft_ms_p90: tail(&samples.ttft_due_ms[first..], 0.9),
            backlog_end: samples.backlog_end,
        });
    }

    replay::gate(&mut bench, None, &mut samples);

    let metrics = if args.traced {
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
        if let Err(e) = tracer.write_jsonl(&path) {
            samples.check(false, &format!("write {}: {e}", path.display()));
        }
        let before = Counters {
            ctl: ctl_before,
            front: front_before,
        };
        per_layer(args, &bench, &samples, &tracer, &phase_tails, &before)
    } else {
        end_to_end(&bench, &samples, &setup_s)
    };
    RunResult {
        correct: samples.failed == 0,
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
        input_hash,
    }
}

fn end_to_end<S: Backend>(bench: &Bench<S>, s: &Samples, setup_s: &[f64]) -> Vec<Metric> {
    let value = |name: &str| match name {
        "setup_s" => median(setup_s),
        "ttfr_ms_p50" => median(&s.ttfr_ms),
        "ttfr_ms_p90" => tail(&s.ttfr_ms, 0.9),
        "ttft_ms_p50" => median(&s.ttft_ms),
        "ttft_ms_p90" => tail(&s.ttft_ms, 0.9),
        "round_ms_p50" => median(&s.round_ms),
        "round_ms_p90" => tail(&s.round_ms, 0.9),
        "restore_tokens_per_s" => s.restored_tokens as f64 / s.restore_wall_s,
        "gen_tokens_per_s" => s.generated_tokens as f64 / s.round_wall_s,
        "stored_bytes_per_token" => {
            bench.sys.storage().total_resident_bytes() as f64 / bench.live_tokens() as f64
        }
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: finite(value(m.name)),
            unit: m.unit,
        })
        .collect()
}

/// Counter snapshots taken when the timed loop starts.
struct Counters {
    ctl: hc_cachectl::metrics::MetricsSnapshot,
    front: Option<(u64, u64, u64)>,
}

fn per_layer<S: Backend>(
    args: &RunArgs,
    bench: &Bench<S>,
    s: &Samples,
    tracer: &Tracer,
    phase_tails: &[PhaseTail],
    before: &Counters,
) -> Vec<Metric> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Probes, on the shape the run ended with.
    let mut lens: Vec<f64> = bench
        .sessions
        .iter()
        .map(|&sid| bench.sys.context_len(sid).expect("live session") as f64)
        .collect();
    lens.sort_by(f64::total_cmp);
    let n_tokens = (median(&lens) as usize).max(16);
    let host = probes::host::probe();
    let memcpy_gbps = host
        .iter()
        .find(|(name, _)| *name == "host.memcpy_gbps")
        .map_or(1.0, |(_, gbps)| *gbps);
    v.extend(host);
    v.extend(probes::kernels::probe(
        bench.sys.model(),
        n_tokens,
        memcpy_gbps,
    ));
    v.extend(probes::storage::probe::<S>(
        args.workload,
        &bench.shape,
        n_tokens,
    ));
    v.extend(probes::reactor::probe(bench.sys.model()));

    // Storage counters over the timed ops (exact).
    v.insert("storage.chunk_reads", s.io.reads as f64);
    v.insert("storage.chunk_writes", s.io.writes as f64);
    v.insert("storage.bytes_read", s.io.bytes_read as f64);
    v.insert("storage.bytes_written", s.io.bytes_written as f64);
    v.insert(
        "storage.read_amp",
        ratio(s.io.bytes_read as f64, s.logical_read_bytes as f64),
    );
    v.insert(
        "storage.write_amp",
        ratio(s.io.bytes_written as f64, s.logical_write_bytes as f64),
    );
    if !s.device_busy.is_empty() {
        let shares: Vec<f64> = s
            .device_busy
            .iter()
            .map(|d| ratio(d.as_secs_f64(), s.restore_wall_s))
            .collect();
        let sum: f64 = shares.iter().sum();
        v.insert(
            "storage.device_busy_share_max",
            shares.iter().copied().fold(0.0, f64::max),
        );
        v.insert("storage.device_busy_share_mean", sum / shares.len() as f64);
        v.insert("storage.device_busy_share_sum", sum);
    }
    if let (Some(b), Some(a)) = (before.front, bench.sys.storage().store().front_counters()) {
        let (hits, misses) = ((a.0 - b.0) as f64, (a.1 - b.1) as f64);
        v.insert("storage.tiered.front_hit_ratio", ratio(hits, hits + misses));
        v.insert("storage.tiered.front_evictions", (a.2 - b.2) as f64);
    }

    // Controller counters over the timed ops.
    let ctl = bench.sys.cache_metrics().expect("controller attached");
    let hits = (ctl.restore_hits - before.ctl.restore_hits) as f64;
    let fallbacks = (ctl.restore_fallbacks - before.ctl.restore_fallbacks) as f64;
    v.insert("cachectl.hit_ratio", ratio(hits, hits + fallbacks));
    v.insert("cachectl.restore_fallbacks", fallbacks);
    v.insert(
        "cachectl.demotions",
        (ctl.demotions - before.ctl.demotions) as f64,
    );
    v.insert(
        "cachectl.sessions_dropped",
        (ctl.sessions_dropped - before.ctl.sessions_dropped) as f64,
    );
    v.insert(
        "cachectl.bytes_evicted",
        (ctl.bytes_evicted - before.ctl.bytes_evicted) as f64,
    );
    v.insert(
        "cachectl.restores_degraded",
        (ctl.restores_degraded - before.ctl.restores_degraded) as f64,
    );
    if let Some(quota) = bench.quota_bytes {
        let used = bench
            .sys
            .controller()
            .expect("controller attached")
            .used_bytes();
        v.insert("cachectl.used_over_quota", used as f64 / quota as f64);
    }

    // Stage attribution from the replay spans.
    let spans = tracer.spans();
    let (mut facade, mut oracle, mut read, mut project, mut recompute, mut bubble) =
        (0.0, Vec::new(), 0.0, 0.0, 0.0, 0.0);
    for root in spans.iter().filter(|s| s.name == "replay") {
        let under = |name| trace::total_secs_under(spans, root.id, name);
        let f = under("replay.facade_restore");
        let (io, compute) = (
            under("storage.read_rows"),
            under("model.restore_layer_kv") + under("model.recompute_prefix"),
        );
        facade += f;
        oracle.push(under("restore.sequential_oracle"));
        read += io;
        project += under("model.restore_layer_kv");
        recompute += under("model.recompute_prefix");
        bubble += f - io.max(compute);
    }
    let oracle_total: f64 = oracle.iter().sum();
    v.insert("restore.sequential_ms_p50", median(&oracle) * 1e3);
    v.insert("restore.stage_read_share", ratio(read, oracle_total));
    v.insert("restore.stage_project_share", ratio(project, oracle_total));
    v.insert(
        "restore.stage_recompute_share",
        ratio(recompute, oracle_total),
    );
    v.insert(
        "restore.stage_unattributed_share",
        1.0 - ratio(read + project + recompute, oracle_total),
    );
    v.insert(
        "restore.overlap_ratio",
        ratio(facade, read + project + recompute),
    );
    v.insert("restore.bubble_share", ratio(bubble, facade));

    // A round against the sum of its parts timed alone.
    let per_token_s =
        (v["model.decode_step_ms_p50"] + v["storage.saver.save_batch_us_p50"] / 1e3) / 1e3;
    let parts_s = s.round_parts_s
        + s.generated_tokens as f64 * per_token_s
        + s.round_ms.len() as f64 * v["storage.saver.flush_ms_p50"] / 1e3;
    v.insert(
        "core.round_unattributed_share",
        1.0 - ratio(parts_s, s.round_wall_s),
    );
    for (metric, span) in [
        ("core.restore_self_ms_p50", "core.restore"),
        ("core.prefill_probe_self_ms_p50", "core.prefill_probe"),
        ("core.round_self_ms_p50", "core.round"),
    ] {
        v.insert(metric, median(&trace::self_ms_of(spans, span)));
    }

    // The harness itself.
    v.insert("driver.samples", s.ttfr_ms.len() as f64);
    v.insert("driver.admissions", s.admissions as f64);
    v.insert("driver.lateness_ms_p90", tail(&s.lateness_ms, 0.9));
    v.insert("driver.queue_wait_ms_p50", median(&s.queue_wait_ms));
    v.insert("driver.backlog_end", s.backlog_end as f64);
    // Restore time per token with spans on against the control half; per
    // token because the two halves do not restore the same histories.
    let per_token = |(wall_s, tokens): (f64, u64)| ratio(wall_s, tokens as f64);
    v.insert(
        "driver.trace_overhead_ratio",
        ratio(per_token(s.traced_restores), per_token(s.control_restores)),
    );
    v.insert(
        "driver.failed_share",
        ratio(s.failed as f64, s.attempted as f64),
    );
    if let [lo, mid, hi] = phase_tails {
        v.insert("driver.ttft_ms_p90_r_lo", lo.ttft_ms_p90);
        v.insert("driver.ttft_ms_p90_r_mid", mid.ttft_ms_p90);
        v.insert("driver.ttft_ms_p90_r_hi", hi.ttft_ms_p90);
        v.insert("driver.backlog_end_r_hi", hi.backlog_end as f64);
        v.insert("driver.slo_ttft_ms", SLO_TTFT_MS);
        // The highest rate that met the limit without a growing backlog.
        let within = phase_tails
            .iter()
            .filter(|p| p.ttft_ms_p90 <= SLO_TTFT_MS && p.backlog_end <= 2)
            .map(|p| p.rate)
            .fold(0.0, f64::max);
        v.insert("driver.max_rate_within_slo", within);
    }

    for name in v.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the per-layer contract"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: finite(v.get(m.name).copied().unwrap_or(0.0)),
            unit: m.unit,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed reads 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}
