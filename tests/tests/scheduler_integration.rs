//! Integration of profiler → partition → pipeline → functional engine:
//! the scheme picked by the *timed* scheduler must drive the *functional*
//! engine correctly, and the pipeline math must stay consistent across the
//! hardware grid.

use std::sync::Arc;

use hc_model::{KvCache, Model, ModelConfig};
use hc_restore::engine::{kv_max_error, restore_session, save_session_state};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_simhw::gpu::GpuSpec;
use hc_simhw::pipeline::simulate_scheme;
use hc_simhw::platform::Platform;
use hc_simhw::profile::PlatformProfile;
use hc_simhw::sim::{analytic_makespan, hcache_scheme, simulate_restore};
use hc_simhw::RestoreMethod;
use hc_storage::backend::MemStore;
use hc_storage::manager::StorageManager;

#[test]
fn scheduler_scheme_drives_functional_engine() {
    // Pick a scheme with the real scheduler on real hardware profiles, then
    // rescale it to the tiny model and run the functional engine with it.
    let profiles = [
        PlatformProfile::new(Platform::a100_with_ssds(1, 1), ModelConfig::llama2_13b()),
        PlatformProfile::new(
            Platform::dram_backed(GpuSpec::a30(), 1),
            ModelConfig::llama2_7b(),
        ),
    ];
    let cfg = ModelConfig::tiny_llama();
    for profile in profiles {
        let full_scheme = hcache_scheme(&profile, 1024);
        // Rescale the layer split onto the 4-layer test model.
        let frac_h = full_scheme.l_h as f64 / profile.shape.n_layers as f64;
        let l_h = ((cfg.n_layers as f64 * frac_h).round() as usize).clamp(0, cfg.n_layers);
        let scheme = PartitionScheme {
            l_h,
            l_o: cfg.n_layers - l_h,
            complement: if l_h == cfg.n_layers {
                LayerMethod::Hidden
            } else {
                full_scheme.complement
            },
        };
        let model = Model::new(&cfg, 5);
        let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model);
        let tokens: Vec<u32> = (0..96u32).map(|i| i % 256).collect();
        let mut kv = KvCache::new(&cfg);
        let out = model.prefill(&tokens, &mut kv, true);
        save_session_state(
            &model,
            &mgr,
            1,
            &out.hidden_per_layer.unwrap(),
            &kv,
            &scheme,
        )
        .unwrap();
        let restored = restore_session(&model, &mgr, 1, &tokens, tokens.len(), &scheme).unwrap();
        let err = kv_max_error(&restored, &kv);
        assert!(err < 0.05, "{scheme:?}: error {err}");
    }
}

#[test]
fn pipeline_total_bounded_by_analytic_makespan_plus_fill() {
    // Across a grid of hardware, the explicit pipeline differs from the
    // idealized min-max objective only by pipeline-fill effects.
    for gpu in GpuSpec::table2() {
        for cfg in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b()] {
            let profile = PlatformProfile::new(Platform::dram_backed(gpu.clone(), 1), cfg.clone());
            for n in [512u64, 4096] {
                let scheme = hcache_scheme(&profile, n);
                let costs = profile.layer_costs(n);
                let pipeline = simulate_scheme(&costs, &scheme, cfg.n_layers).total;
                let analytic = analytic_makespan(&profile, &scheme, n);
                assert!(pipeline >= analytic - 1e-12);
                let fill = costs.io_h + costs.c_h + costs.c_token;
                assert!(
                    pipeline <= analytic + fill + 1e-9,
                    "{} on {}: pipeline {pipeline} vs analytic {analytic}",
                    cfg.name,
                    gpu.name
                );
            }
        }
    }
}

#[test]
fn hcache_dominates_both_pure_methods_across_grid() {
    // The scheduler may fall back to (nearly) pure methods but must never
    // be meaningfully *worse* than either pure baseline anywhere.
    for gpu in GpuSpec::table2() {
        for cfg in ModelConfig::paper_models() {
            let profile = PlatformProfile::new(Platform::dram_backed(gpu.clone(), 1), cfg.clone());
            let hc = simulate_restore(&profile, RestoreMethod::HCache, 2048).secs;
            let kv = simulate_restore(&profile, RestoreMethod::KvOffload, 2048).secs;
            let rec = simulate_restore(&profile, RestoreMethod::Recompute, 2048).secs;
            let slack = 1.05;
            assert!(
                hc <= kv * slack && hc <= rec * slack,
                "{} on {}: hc {hc} kv {kv} rec {rec}",
                cfg.name,
                gpu.name
            );
        }
    }
}

#[test]
fn schedule_shifts_with_hardware_balance() {
    // More compute (H800) or less IO (1 SSD) must shift the schedule
    // toward hidden states + recompute; more IO toward KV offload.
    let cfg = ModelConfig::llama2_13b();
    let compute_rich = PlatformProfile::new(Platform::dram_backed(GpuSpec::h800(), 1), cfg.clone());
    let io_poor = PlatformProfile::new(Platform::a100_with_ssds(1, 1), cfg.clone());
    let s_rich = hcache_scheme(&compute_rich, 1024);
    let s_poor = hcache_scheme(&io_poor, 1024);
    // Compute-rich with DRAM: compute fast relative to IO -> recompute
    // complement (or pure hidden).
    assert_ne!(
        s_rich.complement,
        LayerMethod::KvOffload,
        "H800+DRAM should not need KV offload fill: {s_rich:?}"
    );
    // IO-poor: also recompute complement, but with more recompute layers.
    assert_eq!(s_poor.complement, LayerMethod::Recompute);
    assert!(s_poor.l_o >= s_rich.l_o, "{s_poor:?} vs {s_rich:?}");
}

#[test]
fn tp_group_restores_faster_than_single_gpu() {
    // §5 multi-GPU: sharded reads + all-gather should scale restoration.
    let cfg = ModelConfig::opt_30b();
    let single = PlatformProfile::new(Platform::dram_backed(GpuSpec::a100(), 1), cfg.clone());
    let tp4 = PlatformProfile::new(Platform::dram_backed(GpuSpec::a100(), 4), cfg.clone());
    let s1 = simulate_restore(&single, RestoreMethod::HCache, 4096).speed;
    let s4 = simulate_restore(&tp4, RestoreMethod::HCache, 4096).speed;
    assert!(s4 > 2.5 * s1, "TP4 should scale restoration: {s1} -> {s4}");
}
