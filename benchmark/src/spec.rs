//! The frozen contract: workload names, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is rendered from these tables
//! (`hcbench --print-benchmark-json`) and a unit test keeps the two equal,
//! so a metric cannot be emitted under a name the contract does not list.

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Default workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20250926;

/// One workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "chat_mem",
        why: "closed loop, ShareGPT-like rounds over MemStore: IO is a memcpy, so codec, projection GEMM and prefill do the work; IO-plane gains must show nothing",
    },
    WorkloadSpec {
        name: "chat_file_save",
        why: "closed loop, long generations over an fsyncing FileStore: per-token two-stage saves, chunk seals and round flushes; read gains bought with write work show as a loss",
    },
    WorkloadSpec {
        name: "longctx_ssd",
        why: "closed loop, L-Eval-like long contexts over a modelled 2 ms/chunk device with a hidden+KV mix: the device is the bound, GEMM/codec gains should barely move it",
    },
    WorkloadSpec {
        name: "arrivals_quota_ssd",
        why: "open loop, Poisson arrivals with Zipf session picks over a tiered store at half-working-set quota: eviction, DRAM-front hits and queueing decide latency",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ttfr_ms_p50", "ms", "lower", 0.25),
    e2e("ttfr_ms_p90", "ms", "lower", 0.25),
    e2e("ttft_ms_p50", "ms", "lower", 0.2),
    e2e("ttft_ms_p90", "ms", "lower", 0.25),
    e2e("round_ms_p50", "ms", "lower", 0.2),
    e2e("round_ms_p90", "ms", "lower", 0.25),
    e2e("restore_tokens_per_s", "tokens/s", "higher", 0.2),
    e2e("gen_tokens_per_s", "tokens/s", "higher", 0.15),
    e2e("stored_bytes_per_token", "bytes", "lower", 0.15),
];

/// A per-layer metric (layer = crate name before the first dot). A value of
/// 0 on a workload means "does not apply there" (e.g. tiered counters on
/// `chat_mem`).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 66] = [
    pl("host.cores", "count", "higher"),
    pl("host.memcpy_gbps", "GB/s", "higher"),
    pl("host.fma_gflops", "GFLOP/s", "higher"),
    pl("host.sleep_overshoot_us_p90", "us", "lower"),
    pl("tensor.gemm_proj_gflops", "GFLOP/s", "higher"),
    pl("tensor.f16_decode_gbps", "GB/s", "higher"),
    pl("tensor.f16_decode_vs_memcpy", "ratio", "higher"),
    pl("tensor.f16_encode_gbps", "GB/s", "higher"),
    pl("model.restore_layer_kv_ms", "ms", "lower"),
    pl("model.prefill_ms_per_token", "ms", "lower"),
    pl("model.decode_step_ms_p50", "ms", "lower"),
    pl("storage.read_rows_mbps", "MB/s", "higher"),
    pl("storage.read_rows_vs_decode", "ratio", "lower"),
    pl("storage.append_rows_mbps", "MB/s", "higher"),
    pl("storage.saver.save_batch_us_p50", "us", "lower"),
    pl("storage.saver.flush_ms_p50", "ms", "lower"),
    pl("storage.durable_flush_ms_p50", "ms", "lower"),
    pl("storage.chunk_reads", "count", "lower"),
    pl("storage.chunk_writes", "count", "lower"),
    pl("storage.bytes_read", "bytes", "lower"),
    pl("storage.bytes_written", "bytes", "lower"),
    pl("storage.read_amp", "ratio", "lower"),
    pl("storage.write_amp", "ratio", "lower"),
    pl("storage.device_busy_share_max", "ratio", "lower"),
    pl("storage.device_busy_share_mean", "ratio", "lower"),
    pl("storage.device_busy_share_sum", "ratio", "lower"),
    pl("storage.tiered.front_hit_ratio", "ratio", "higher"),
    pl("storage.tiered.front_evictions", "count", "lower"),
    pl("storage.reactor.ios_submitted", "count", "lower"),
    pl("sched.partition_solve_us", "us", "lower"),
    pl("restore.sequential_ms_p50", "ms", "lower"),
    pl("restore.stage_read_share", "ratio", "lower"),
    pl("restore.stage_project_share", "ratio", "lower"),
    pl("restore.stage_recompute_share", "ratio", "lower"),
    pl("restore.stage_unattributed_share", "ratio", "lower"),
    pl("restore.overlap_ratio", "ratio", "lower"),
    pl("restore.bubble_share", "ratio", "lower"),
    pl("restore.reactor_batch_tokens_per_s", "tokens/s", "higher"),
    pl("restore.reactor_peak_inflight", "count", "higher"),
    pl("cachectl.hit_ratio", "ratio", "higher"),
    pl("cachectl.restore_fallbacks", "count", "lower"),
    pl("cachectl.demotions", "count", "lower"),
    pl("cachectl.sessions_dropped", "count", "lower"),
    pl("cachectl.bytes_evicted", "bytes", "lower"),
    pl("cachectl.restores_degraded", "count", "lower"),
    pl("cachectl.used_over_quota", "ratio", "lower"),
    pl("cachectl.open_us_p50", "us", "lower"),
    pl("cachectl.on_saved_us_p50", "us", "lower"),
    pl("cachectl.close_us_p50", "us", "lower"),
    pl("core.round_unattributed_share", "ratio", "lower"),
    pl("core.restore_self_ms_p50", "ms", "lower"),
    pl("core.prefill_probe_self_ms_p50", "ms", "lower"),
    pl("core.round_self_ms_p50", "ms", "lower"),
    pl("driver.samples", "count", "higher"),
    pl("driver.admissions", "count", "lower"),
    pl("driver.lateness_ms_p90", "ms", "lower"),
    pl("driver.queue_wait_ms_p50", "ms", "lower"),
    pl("driver.backlog_end", "count", "lower"),
    pl("driver.trace_overhead_ratio", "ratio", "lower"),
    pl("driver.failed_share", "ratio", "lower"),
    pl("driver.ttft_ms_p90_r_lo", "ms", "lower"),
    pl("driver.ttft_ms_p90_r_mid", "ms", "lower"),
    pl("driver.ttft_ms_p90_r_hi", "ms", "lower"),
    pl("driver.backlog_end_r_hi", "count", "lower"),
    pl("driver.max_rate_within_slo", "req/s", "higher"),
    pl("driver.slo_ttft_ms", "ms", "lower"),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `hcbench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn workload_table_matches_the_enum() {
        use crate::fixture::Workload;
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "chat_mem",
                "chat_file_save",
                "longctx_ssd",
                "arrivals_quota_ssd"
            ]
        );
        for (w, name) in Workload::ALL.into_iter().zip(names) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::parse(name), Some(w));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
