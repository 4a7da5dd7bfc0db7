//! The paper's headline quantitative claims, asserted end to end against
//! the calibrated models (abstract + §6). Where the simulator's band departs
//! from the paper's, the test's comment gives both:
//!
//! * L-Eval TTFT at batch 1 vs KV offload and recomputation (Fig 10; the
//!   abstract's "up to 1.93× / 5.73×" long-context headline);
//! * TTFT of recomputation and KV offload vs the ideal case (Fig 4);
//! * TTFT vs KV offload and recomputation on ShareGPT4 (§6.1.1);
//! * restoration speed vs KV offload across hardware and vs recomputation
//!   (§6.2);
//! * storage 1.92–2.40× smaller than KV offload, and the Table 3 schedules;
//! * TBT within ~4% of ideal;
//! * HCache-O can lose to KV offload on IO-sufficient platforms, the
//!   bubble-free scheduler always wins (Fig 12);
//! * with on-GPU KV reuse, the hit ratio rises with skew and HCache still
//!   beats KV offload (Fig 15).

use hc_model::ModelConfig;
use hc_simhw::gpu::GpuSpec;
use hc_simhw::platform::Platform;
use hc_simhw::profile::PlatformProfile;
use hc_simhw::sim::{hcache_scheme, simulate_restore};
use hc_simhw::{RestoreMethod, ServingConfig, ServingEngine};
use hc_workload::arrival::schedule_sessions;
use hc_workload::leval::{generate_requests, table1_subtasks, LEVAL_AVG};
use hc_workload::rng::Rng;
use hc_workload::sharegpt::{generate_sessions, ShareGptConfig};
use hc_workload::zipf::Zipf;
use hc_workload::Request;

fn paper_profile(cfg: &ModelConfig) -> PlatformProfile {
    let platform = if cfg.n_layers >= 48 {
        Platform::default_testbed_tp4()
    } else {
        Platform::default_testbed_single_gpu()
    };
    PlatformProfile::new(platform, cfg.clone())
}

/// Mean TTFT of `reqs` under `method` with the paper's default serving
/// config.
fn mean_ttft(profile: &PlatformProfile, method: RestoreMethod, reqs: &[Request]) -> f64 {
    ServingEngine::new(profile.clone(), ServingConfig::for_method(method))
        .run(reqs)
        .mean_ttft()
}

/// `reqs` served one at a time (the paper's L-Eval batch size 1): distinct
/// contexts, arrivals far enough apart that nothing queues.
fn batch_of_one(mut reqs: Vec<Request>) -> Vec<Request> {
    for (i, r) in reqs.iter_mut().enumerate() {
        r.arrival = i as f64 * 1000.0;
        r.session_id = i as u64;
    }
    reqs
}

#[test]
fn restoration_speedup_vs_kv_offload_within_paper_band() {
    // Abstract: TTFT up to 1.93x vs KV offload; §6.2: restoration speed
    // 1.33-2.66x across hardware. Check the restoration-speed band over
    // the sensitivity grid.
    let mut speedups = Vec::new();
    for cfg in ModelConfig::paper_models() {
        for n_ssds in [1usize, 2, 4] {
            let n_gpus = if cfg.n_layers >= 48 { 4 } else { 1 };
            let profile = PlatformProfile::new(
                Platform::a100_with_ssds(n_gpus, n_ssds * n_gpus),
                cfg.clone(),
            );
            let kv = simulate_restore(&profile, RestoreMethod::KvOffload, 4096).secs;
            let hc = simulate_restore(&profile, RestoreMethod::HCache, 4096).secs;
            speedups.push(kv / hc);
        }
    }
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0_f64, f64::max);
    assert!(min > 1.15, "HCache must always beat KV offload, min {min}");
    assert!(
        max > 1.6 && max < 3.2,
        "peak speedup {max} out of the paper's 1.33-2.66 band neighborhood"
    );
}

#[test]
fn restoration_speedup_vs_recompute_up_to_paper_scale() {
    // §6.2.1: 5.04-9.05x restoration speedup vs recomputation.
    let mut speedups = Vec::new();
    for cfg in ModelConfig::paper_models() {
        let profile = paper_profile(&cfg);
        for n in [1024u64, 8192] {
            let rec = simulate_restore(&profile, RestoreMethod::Recompute, n).secs;
            let hc = simulate_restore(&profile, RestoreMethod::HCache, n).secs;
            speedups.push(rec / hc);
        }
    }
    let max = speedups.iter().cloned().fold(0.0_f64, f64::max);
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(min > 2.0, "min recompute speedup {min}");
    assert!(max > 4.0 && max < 15.0, "max recompute speedup {max}");
}

#[test]
fn storage_saving_in_paper_band() {
    // Abstract: 1.92-2.40x less storage than KV offload.
    for cfg in ModelConfig::paper_models() {
        let profile = paper_profile(&cfg);
        let scheme = hcache_scheme(&profile, 1024);
        let hc = scheme.storage_bytes_per_token(cfg.d_model, cfg.elem_bytes);
        let kv = cfg.kv_bytes_per_token() as u64;
        let saving = kv as f64 / hc as f64;
        assert!(
            (1.6..=2.5).contains(&saving),
            "{}: saving {saving} outside band",
            cfg.name
        );
    }
}

#[test]
fn tbt_overhead_under_load_is_small() {
    // Abstract: <4% TBT overhead. Allow a little slack for the simulator's
    // conservative fusion accounting.
    let cfg = ModelConfig::llama2_7b();
    let profile = paper_profile(&cfg);
    let sessions = generate_sessions(40, &ShareGptConfig::default(), 3);
    let reqs = schedule_sessions(&sessions, 0.5, 300.0, 4);
    let tbt = |m: RestoreMethod| {
        ServingEngine::new(profile.clone(), ServingConfig::for_method(m))
            .run(&reqs)
            .mean_tbt()
    };
    let ideal = tbt(RestoreMethod::Ideal);
    let hc = tbt(RestoreMethod::HCache);
    let overhead = hc / ideal - 1.0;
    assert!(overhead < 0.08, "TBT overhead {overhead}");
}

#[test]
fn fig12_inversion_and_rescue() {
    // On the IO-sufficient platform (A30 + 4 SSDs), HCache-O loses its edge
    // (paper: 13% slower than KV offload); the full scheduler wins by
    // 1.45-2.66x over KV offload across all three settings.
    let settings = [
        (GpuSpec::a30(), ModelConfig::llama2_7b(), 4usize),
        (GpuSpec::a100(), ModelConfig::llama2_7b(), 1),
        (GpuSpec::a100(), ModelConfig::llama2_13b(), 4),
    ];
    for (gpu, cfg, ssds) in settings {
        let profile = PlatformProfile::new(
            Platform {
                name: "fig12".into(),
                gpu,
                n_gpus: 1,
                storage: hc_simhw::storagehw::StorageTier::SsdArray {
                    spec: hc_simhw::storagehw::SsdSpec::pm9a3(),
                    count: ssds,
                },
            },
            cfg.clone(),
        );
        let kv = simulate_restore(&profile, RestoreMethod::KvOffload, 1024).speed;
        let ho = simulate_restore(&profile, RestoreMethod::HCacheO, 1024).speed;
        let nh = simulate_restore(&profile, RestoreMethod::NaiveHybrid, 1024).speed;
        let hc = simulate_restore(&profile, RestoreMethod::HCache, 1024).speed;
        assert!(hc >= ho, "{}: scheduler must not hurt", cfg.name);
        assert!(hc > kv * 1.2, "{}: HCache vs KV {}", cfg.name, hc / kv);
        assert!(hc > nh, "{}: HCache must beat naive hybrid", cfg.name);
    }
    // The characteristic inversion on A30+4SSD.
    let io_sufficient = PlatformProfile::new(
        Platform {
            name: "A30".into(),
            gpu: GpuSpec::a30(),
            n_gpus: 1,
            storage: hc_simhw::storagehw::StorageTier::default_testbed(),
        },
        ModelConfig::llama2_7b(),
    );
    let kv = simulate_restore(&io_sufficient, RestoreMethod::KvOffload, 1024).speed;
    let ho = simulate_restore(&io_sufficient, RestoreMethod::HCacheO, 1024).speed;
    let hc = simulate_restore(&io_sufficient, RestoreMethod::HCache, 1024).speed;
    // Paper measures HCache-O 13% *slower* than KV offload here; our A30
    // calibration lands it marginally ahead — the load-bearing fact is that
    // the scheduler's rescue margin dwarfs whatever edge HCache-O has.
    assert!(
        ho < kv * 1.15,
        "HCache-O should be at best marginal vs KV offload here: {} vs {}",
        ho,
        kv
    );
    assert!(
        hc / ho > 1.2,
        "the scheduler's rescue must be substantial: {} vs {}",
        hc,
        ho
    );
}

#[test]
fn table3_schedules_match_paper() {
    // Paper Table 3: 7B = 31H+1KV; 13B = 36H+4KV; 30B = 40H+8RE.
    // Allow ±2 layers of drift from calibration differences.
    let expect = [(31usize, 32usize), (36, 40), (40, 48)];
    for (cfg, (l_h_paper, n_layers)) in ModelConfig::paper_models().iter().zip(expect) {
        let profile = paper_profile(cfg);
        let scheme = hcache_scheme(&profile, 1024);
        assert_eq!(scheme.l_h + scheme.l_o, n_layers);
        let drift = (scheme.l_h as i64 - l_h_paper as i64).abs();
        assert!(
            drift <= 2,
            "{}: schedule {} H differs from paper {} by {drift}",
            cfg.name,
            scheme.l_h,
            l_h_paper
        );
    }
}

#[test]
fn ttft_speedups_on_serving_path() {
    // §6.1.1: HCache TTFT 1.27-1.90x vs KV offload, 2.21-3.57x vs
    // recompute on ShareGPT4.
    let cfg = ModelConfig::llama2_7b();
    let profile = paper_profile(&cfg);
    // The paper's Fig 9 regime is below GPU saturation (TTFT stays in the
    // 0.1-0.3s range); at saturation, KV offload's compute-free restoration
    // genuinely wins GPU seconds, which Fig 9 does not exercise.
    let sessions = generate_sessions(40, &ShareGptConfig::default(), 9);
    let reqs = schedule_sessions(&sessions, 0.25, 400.0, 10);
    let ttft = |m: RestoreMethod| {
        ServingEngine::new(profile.clone(), ServingConfig::for_method(m))
            .run(&reqs)
            .mean_ttft()
    };
    let rec = ttft(RestoreMethod::Recompute);
    let kv = ttft(RestoreMethod::KvOffload);
    let hc = ttft(RestoreMethod::HCache);
    let vs_kv = kv / hc;
    let vs_rec = rec / hc;
    assert!((1.05..2.2).contains(&vs_kv), "vs KV offload: {vs_kv}");
    // Paper band is 2.21-3.57x; recompute queues harder in our simulator
    // once several long histories overlap, so allow up to 6x.
    assert!((1.8..6.0).contains(&vs_rec), "vs recompute: {vs_rec}");
}

/// Smallest and largest of `xs`.
fn band(xs: &[f64]) -> (f64, f64) {
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(0.0_f64, f64::max);
    (lo, hi)
}

#[test]
fn leval_ttft_speedups_at_batch_one() {
    // Fig 10 / abstract: on L-Eval at batch 1, HCache's TTFT is 1.62-1.93x
    // better than KV offload and 2.66-5.73x better than recomputation,
    // over four sub-task groups x three models. The simulator gives
    // 1.55-2.17x and 2.84-8.37x at this size (100 requests per cell): it
    // wins every cell, but it OVERSTATES both headline maxima. The last
    // assert pins that overstatement, so a calibration change that removes
    // it has to update this comment.
    let (mut vs_kv, mut vs_rec) = (Vec::new(), Vec::new());
    for cfg in ModelConfig::paper_models() {
        let profile = paper_profile(&cfg);
        let max_ctx = cfg.max_seq_len as u32 - 512;
        for task in table1_subtasks() {
            let reqs = batch_of_one(generate_requests(&task, 100, max_ctx, 3));
            let hc = mean_ttft(&profile, RestoreMethod::HCache, &reqs);
            vs_kv.push(mean_ttft(&profile, RestoreMethod::KvOffload, &reqs) / hc);
            vs_rec.push(mean_ttft(&profile, RestoreMethod::Recompute, &reqs) / hc);
        }
    }
    let (kv_lo, kv_hi) = band(&vs_kv);
    let (rec_lo, rec_hi) = band(&vs_rec);
    assert!(kv_lo > 1.5 && kv_hi < 2.25, "vs KV offload {kv_lo}-{kv_hi}");
    assert!(
        rec_lo > 2.8 && rec_hi < 8.5,
        "vs recompute {rec_lo}-{rec_hi}"
    );
    assert!(
        kv_hi > 1.93 && rec_hi > 5.73,
        "the simulator no longer overstates the paper's maxima \
         ({kv_hi} vs 1.93, {rec_hi} vs 5.73): update this test's comment"
    );
}

#[test]
fn recompute_and_kv_offload_slowdown_vs_ideal() {
    // Fig 4: on the L-Eval trace at batch 1, recomputation's TTFT is
    // 20.0-26.0x and KV offload's 6.5-13.0x the ideal (state resident)
    // case. The simulator gives 22.6-33.1x and 6.1-14.9x at this size (50
    // requests per sub-task, per model). The ordering holds on every
    // model; the bands are wider than the paper's at both ends
    // (recomputation 33.1x on 13B, KV offload 6.1x on 7B and 14.9x on
    // OPT-30B).
    let (mut rec_slow, mut kv_slow) = (Vec::new(), Vec::new());
    for cfg in ModelConfig::paper_models() {
        let profile = paper_profile(&cfg);
        let max_ctx = cfg.max_seq_len as u32 - 512;
        let reqs = batch_of_one(
            table1_subtasks()
                .iter()
                .zip(99..)
                .flat_map(|(task, seed)| generate_requests(task, 50, max_ctx, seed))
                .collect(),
        );
        let ideal = mean_ttft(&profile, RestoreMethod::Ideal, &reqs);
        let rec = mean_ttft(&profile, RestoreMethod::Recompute, &reqs) / ideal;
        let kv = mean_ttft(&profile, RestoreMethod::KvOffload, &reqs) / ideal;
        assert!(rec > kv, "{}: recompute {rec} vs KV offload {kv}", cfg.name);
        rec_slow.push(rec);
        kv_slow.push(kv);
    }
    let (rec_lo, rec_hi) = band(&rec_slow);
    let (kv_lo, kv_hi) = band(&kv_slow);
    assert!(
        rec_lo > 22.0 && rec_hi < 34.0,
        "recompute slowdown {rec_lo}-{rec_hi}"
    );
    assert!(
        kv_lo > 6.0 && kv_hi < 15.5,
        "KV offload slowdown {kv_lo}-{kv_hi}"
    );
}

/// A request stream over `n_contexts` distinct contexts whose popularity
/// follows Zipf(`alpha`) (`alpha = 0` is uniform), with L-Eval-scale
/// context lengths bounded so several fit the GPU KV pool at once.
fn zipf_context_requests(n_contexts: usize, n_requests: usize, alpha: f64) -> Vec<Request> {
    let mut rng = Rng::new(5);
    let zipf = Zipf::new(n_contexts, alpha);
    let ctx_len: Vec<u32> = (0..n_contexts)
        .map(|_| {
            (rng.lognormal_with_mean(LEVAL_AVG.context_mean.min(5500.0), 0.3) as u32)
                .clamp(1024, 12 * 1024)
        })
        .collect();
    (0..n_requests)
        .map(|i| {
            let ctx = zipf.sample(&mut rng);
            Request {
                session_id: ctx as u64,
                arrival: i as f64 * 2.0,
                history_tokens: ctx_len[ctx],
                input_tokens: 45,
                output_tokens: 8,
            }
        })
        .collect()
}

#[test]
fn gpu_kv_reuse_hit_ratio_rises_with_skew_and_hcache_still_wins() {
    // Fig 15 (§6.4): with finished contexts kept in an LRU GPU cache, the
    // hit ratio rises with the Zipf skew of context popularity (paper:
    // ~15% uniform, ~94% at alpha = 2.0), and HCache's TTFT stays below
    // KV offload's (1.67x uniform, 1.15x at alpha = 2.0). Over 60 contexts
    // and 1000 requests on 7B, the simulator gives 15% uniform rising
    // monotonically to 92% at alpha = 2.0, with HCache 1.58x ahead of KV
    // offload uniform and 1.13x at alpha = 2.0: the claim holds. A session
    // id names a shared context here, not a conversation, so requests are
    // not serialized into rounds; with rounds held back by the 30 s think
    // time, the uniform hit ratio collapses to 2%.
    let profile = paper_profile(&ModelConfig::llama2_7b());
    let mut hit_ratios = Vec::new();
    for alpha in [0.0, 1.2, 1.4, 1.6, 1.8, 2.0] {
        let reqs = zipf_context_requests(60, 1000, alpha);
        let run = |method: RestoreMethod| {
            let mut cfg = ServingConfig::for_method(method);
            cfg.reuse_gpu_cache = true;
            cfg.serialize_sessions = false;
            ServingEngine::new(profile.clone(), cfg).run(&reqs)
        };
        let kv = run(RestoreMethod::KvOffload);
        let hc = run(RestoreMethod::HCache);
        let speedup = kv.mean_ttft() / hc.mean_ttft();
        assert!(
            (1.1..1.65).contains(&speedup),
            "alpha {alpha}: HCache vs KV offload {speedup}"
        );
        hit_ratios.push(hc.cache_hit_ratio().unwrap());
    }
    assert!(
        hit_ratios.windows(2).all(|w| w[0] < w[1]),
        "hit ratio must rise with skew: {hit_ratios:?}"
    );
    assert!(
        (0.1..0.2).contains(&hit_ratios[0]),
        "uniform hit ratio {}",
        hit_ratios[0]
    );
    assert!(hit_ratios[5] > 0.9, "alpha 2.0 hit ratio {}", hit_ratios[5]);
}
