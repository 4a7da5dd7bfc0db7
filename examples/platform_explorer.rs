//! Platform explorer: how the bubble-free scheduler adapts to hardware.
//!
//! Sweeps the paper's Table 2 GPUs and SSD counts for each evaluation
//! model, printing the restoration speed per method and the layer schedule
//! HCache picks (`L_H` hidden + `L_O` complementary) — a miniature of
//! Table 3 and Figure 11.
//!
//! Run with: `cargo run --release --example platform_explorer`

use hc_simhw::gpu::GpuSpec;
use hc_simhw::platform::Platform;
use hc_simhw::profile::PlatformProfile;
use hc_simhw::sim::{hcache_scheme, simulate_restore};
use hc_simhw::RestoreMethod;
use hcache::model::ModelConfig;
use hcache::sched::partition::LayerMethod;

fn main() {
    let n_tokens = 1024u64;
    println!("restoration of a {n_tokens}-token history\n");

    println!("--- varying GPU (DRAM storage backend, cf. Fig 11a-c) ---");
    println!(
        "{:<12} {:<11} {:>12} {:>12} {:>12}  schedule",
        "model", "gpu", "recompute", "kv-offload", "hcache"
    );
    for cfg in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b()] {
        for gpu in GpuSpec::table2() {
            let platform = Platform::dram_backed(gpu.clone(), 1);
            let profile = PlatformProfile::new(platform, cfg.clone());
            let speeds: Vec<f64> = [
                RestoreMethod::Recompute,
                RestoreMethod::KvOffload,
                RestoreMethod::HCache,
            ]
            .iter()
            .map(|m| simulate_restore(&profile, *m, n_tokens).speed / 1e3)
            .collect();
            let scheme = hcache_scheme(&profile, n_tokens);
            let comp = match scheme.complement {
                LayerMethod::Hidden => "—",
                LayerMethod::KvOffload => "KV",
                LayerMethod::Recompute => "RE",
            };
            println!(
                "{:<12} {:<11} {:>9.1}K/s {:>9.1}K/s {:>9.1}K/s  {} H + {} {}",
                cfg.name, gpu.name, speeds[0], speeds[1], speeds[2], scheme.l_h, scheme.l_o, comp
            );
        }
        println!();
    }

    println!("--- varying SSD count (A100, cf. Fig 11d-f) ---");
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>12}  hcache-vs-kv",
        "model", "ssds", "recompute", "kv-offload", "hcache"
    );
    for cfg in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b()] {
        for ssds in [1usize, 2, 3, 4] {
            let profile = PlatformProfile::new(Platform::a100_with_ssds(1, ssds), cfg.clone());
            let rec = simulate_restore(&profile, RestoreMethod::Recompute, n_tokens).speed;
            let kv = simulate_restore(&profile, RestoreMethod::KvOffload, n_tokens).speed;
            let hc = simulate_restore(&profile, RestoreMethod::HCache, n_tokens).speed;
            println!(
                "{:<12} {:<8} {:>9.1}K/s {:>9.1}K/s {:>9.1}K/s  {:>10.2}x",
                cfg.name,
                ssds,
                rec / 1e3,
                kv / 1e3,
                hc / 1e3,
                hc / kv
            );
        }
        println!();
    }

    println!("--- per-token storage cost (cf. Table 3) ---");
    for cfg in ModelConfig::paper_models() {
        let platform = if cfg.name == "OPT-30B" {
            Platform::default_testbed_tp4()
        } else {
            Platform::default_testbed_single_gpu()
        };
        let profile = PlatformProfile::new(platform, cfg.clone());
        let scheme = hcache_scheme(&profile, n_tokens);
        let hc_cost = scheme.storage_bytes_per_token(cfg.d_model, cfg.elem_bytes);
        let kv_cost = cfg.kv_bytes_per_token() as u64;
        println!(
            "{:<12} schedule {:>2} H + {:>2} {:?}: {:>4} KiB/token vs {:>4} KiB/token KV ({:.2}x)",
            cfg.name,
            scheme.l_h,
            scheme.l_o,
            scheme.complement,
            hc_cost / 1024,
            kv_cost / 1024,
            kv_cost as f64 / hc_cost as f64
        );
    }
}
