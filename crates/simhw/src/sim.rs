//! Timed restoration simulation for every method (the evaluation's engine).
//!
//! Times come from the [`PlatformProfile`] (device models calibrated to
//! Table 2) combined with the two-stream [`pipeline`](crate::pipeline).
//! Each method maps to a layer-task structure:
//!
//! * `Recompute` — compute-only tasks (`C_Token` per layer).
//! * `KvOffload` — IO-only tasks (`IO_KV` per layer), plus per-chunk SSD
//!   latency.
//! * `HCacheO` — hidden IO + projection per layer, pure pipeline.
//! * `NaiveHybrid` — bubble-free layer split between recompute and KV
//!   offload (no hidden states).
//! * `HCache` — bubble-free split between hidden states and the
//!   resource-complementary method (§4.1.2 closed form).
//! * `Ideal` — zero.

use hc_sched::partition::{makespan, partition_closed_form, LayerMethod, PartitionScheme};

use crate::pipeline::{simulate, simulate_scheme, LayerTask};
use crate::profile::PlatformProfile;
use crate::storagehw::StorageTier;
use crate::{RestoreMethod, Sec};

/// Timed outcome of restoring `n_tokens` of history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreSim {
    /// Method simulated.
    pub method: RestoreMethod,
    /// History length restored.
    pub n_tokens: u64,
    /// Restoration wall-clock seconds.
    pub secs: Sec,
    /// Restoration speed in tokens/second (`inf` for Ideal at 0 s).
    pub speed: f64,
}

/// Per-layer SSD chunk-read latency addition: reading one layer's chunks
/// costs the tier's queueing/latency beyond pure bandwidth.
fn layer_io_overhead(profile: &PlatformProfile) -> Sec {
    match &profile.platform.storage {
        StorageTier::Dram => 0.0,
        // Round-robin chunks hide all but roughly one command latency per
        // device stripe; charge one latency per layer read wave, whatever
        // the layer's bytes.
        StorageTier::SsdArray { spec, .. } => spec.io_latency,
    }
}

/// Simulates one restoration method.
pub fn simulate_restore(
    profile: &PlatformProfile,
    method: RestoreMethod,
    n_tokens: u64,
) -> RestoreSim {
    let n_layers = profile.shape.n_layers;
    let costs = profile.layer_costs(n_tokens);
    let io_ovh = layer_io_overhead(profile);

    let secs = match method {
        RestoreMethod::Ideal => 0.0,
        RestoreMethod::Recompute => {
            let task = LayerTask {
                io: 0.0,
                compute: costs.c_token,
                compute_needs_io: false,
            };
            simulate(&vec![task; n_layers]).total
        }
        RestoreMethod::KvOffload => {
            let task = LayerTask {
                io: costs.io_kv + io_ovh,
                compute: 0.0,
                compute_needs_io: false,
            };
            simulate(&vec![task; n_layers]).total
        }
        RestoreMethod::HCacheO => {
            let task = LayerTask {
                io: costs.io_h + io_ovh,
                compute: costs.c_h,
                compute_needs_io: true,
            };
            simulate(&vec![task; n_layers]).total
        }
        RestoreMethod::NaiveHybrid => {
            // Bubble-free split between recompute (compute-only) and KV
            // offload (IO-only): C_T·L_re == IO_KV·L_kv.
            let io_kv = costs.io_kv + io_ovh;
            let l_re = ((n_layers as f64 * io_kv) / (io_kv + costs.c_token)).round() as usize;
            let l_re = l_re.min(n_layers);
            let mut tasks = Vec::with_capacity(n_layers);
            // Recompute layers first (compute stream busy from t=0) while
            // KV layers stream in parallel.
            for _ in 0..l_re {
                tasks.push(LayerTask {
                    io: 0.0,
                    compute: costs.c_token,
                    compute_needs_io: false,
                });
            }
            for _ in l_re..n_layers {
                tasks.push(LayerTask {
                    io: io_kv,
                    compute: 0.0,
                    compute_needs_io: false,
                });
            }
            simulate(&tasks).total
        }
        RestoreMethod::HCache => {
            let mut adj = costs;
            adj.io_h += io_ovh;
            adj.io_kv += io_ovh;
            let scheme = partition_closed_form(&adj, n_layers);
            simulate_scheme(&adj, &scheme, n_layers).total
        }
    };

    RestoreSim {
        method,
        n_tokens,
        secs,
        speed: if secs > 0.0 {
            n_tokens as f64 / secs
        } else {
            f64::INFINITY
        },
    }
}

/// Resource occupancy of one restoration: how many seconds of the host→GPU
/// link and of GPU compute the method consumes. The serving simulator uses
/// this to overlap restoration IO with decode compute (SplitFuse-style
/// fusion) instead of blocking the GPU for the whole restoration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOccupancy {
    /// Seconds of IO-channel occupancy.
    pub io: Sec,
    /// Seconds of GPU-compute occupancy.
    pub compute: Sec,
}

/// Computes the IO/compute occupancy of restoring `n_tokens` with `method`.
pub fn restore_occupancy(
    profile: &PlatformProfile,
    method: RestoreMethod,
    n_tokens: u64,
) -> RestoreOccupancy {
    if n_tokens == 0 || method == RestoreMethod::Ideal {
        return RestoreOccupancy {
            io: 0.0,
            compute: 0.0,
        };
    }
    let n_layers = profile.shape.n_layers as f64;
    let costs = profile.layer_costs(n_tokens);
    let io_ovh = layer_io_overhead(profile);
    match method {
        RestoreMethod::Ideal => RestoreOccupancy {
            io: 0.0,
            compute: 0.0,
        },
        RestoreMethod::Recompute => RestoreOccupancy {
            io: 0.0,
            compute: costs.c_token * n_layers,
        },
        RestoreMethod::KvOffload => RestoreOccupancy {
            io: (costs.io_kv + io_ovh) * n_layers,
            compute: 0.0,
        },
        RestoreMethod::HCacheO => RestoreOccupancy {
            io: (costs.io_h + io_ovh) * n_layers,
            compute: costs.c_h * n_layers,
        },
        RestoreMethod::NaiveHybrid => {
            let io_kv = costs.io_kv + io_ovh;
            let l_re = ((n_layers * io_kv) / (io_kv + costs.c_token)).round();
            RestoreOccupancy {
                io: io_kv * (n_layers - l_re),
                compute: costs.c_token * l_re,
            }
        }
        RestoreMethod::HCache => {
            let mut adj = costs;
            adj.io_h += io_ovh;
            adj.io_kv += io_ovh;
            let scheme = partition_closed_form(&adj, profile.shape.n_layers);
            let (l_h, l_o) = (scheme.l_h as f64, scheme.l_o as f64);
            match scheme.complement {
                LayerMethod::KvOffload => RestoreOccupancy {
                    io: adj.io_h * l_h + adj.io_kv * l_o,
                    compute: adj.c_h * l_h,
                },
                LayerMethod::Recompute => RestoreOccupancy {
                    io: adj.io_h * l_h,
                    compute: adj.c_h * l_h + adj.c_token * l_o,
                },
                LayerMethod::Hidden => RestoreOccupancy {
                    io: adj.io_h * l_h,
                    compute: adj.c_h * l_h,
                },
            }
        }
    }
}

/// The HCache partition scheme chosen for this profile at `n_tokens`
/// (Table 3's "Schedule" column).
pub fn hcache_scheme(profile: &PlatformProfile, n_tokens: u64) -> PartitionScheme {
    let n_layers = profile.shape.n_layers;
    let costs = profile.layer_costs(n_tokens);
    partition_closed_form(&costs, n_layers)
}

/// Idealized (no pipeline fill) makespan for a scheme — used in tests to
/// sanity-check the pipeline.
pub fn analytic_makespan(
    profile: &PlatformProfile,
    scheme: &PartitionScheme,
    n_tokens: u64,
) -> Sec {
    let costs = profile.layer_costs(n_tokens);
    makespan(
        &costs,
        profile.shape.n_layers,
        scheme.l_h,
        if scheme.l_o == 0 {
            LayerMethod::Hidden
        } else {
            scheme.complement
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSpec;
    use crate::platform::Platform;
    use hc_model::ModelConfig;

    fn shape_7b() -> ModelConfig {
        ModelConfig::llama2_7b()
    }

    fn shape_13b() -> ModelConfig {
        ModelConfig::llama2_13b()
    }

    fn default_profile() -> PlatformProfile {
        PlatformProfile::new(Platform::default_testbed_single_gpu(), shape_7b())
    }

    #[test]
    fn headline_ordering_on_default_testbed() {
        // Fig 4 / Fig 9: HCache < KV offload < recompute; ideal = 0.
        let p = default_profile();
        for n in [1024u64, 4096, 16384] {
            let rec = simulate_restore(&p, RestoreMethod::Recompute, n).secs;
            let kv = simulate_restore(&p, RestoreMethod::KvOffload, n).secs;
            let hc = simulate_restore(&p, RestoreMethod::HCache, n).secs;
            let ideal = simulate_restore(&p, RestoreMethod::Ideal, n).secs;
            assert!(hc < kv, "n={n}: HCache {hc} vs KV {kv}");
            assert!(kv < rec, "n={n}: KV {kv} vs recompute {rec}");
            assert_eq!(ideal, 0.0);
        }
    }

    #[test]
    fn hcache_speedup_vs_kv_offload_in_paper_band() {
        // Paper: 1.33–2.66x across hardware; on the default testbed the
        // long-context speedup is 1.6–1.9x.
        let p = default_profile();
        let n = 8192;
        let kv = simulate_restore(&p, RestoreMethod::KvOffload, n).secs;
        let hc = simulate_restore(&p, RestoreMethod::HCache, n).secs;
        let speedup = kv / hc;
        assert!(
            (1.2..2.7).contains(&speedup),
            "speedup {speedup} outside paper band"
        );
    }

    #[test]
    fn hcache_speedup_vs_recompute_in_paper_band() {
        // Paper: 2.66–5.73x TTFT (and up to ~9x restoration speed).
        let p = default_profile();
        let n = 8192;
        let rec = simulate_restore(&p, RestoreMethod::Recompute, n).secs;
        let hc = simulate_restore(&p, RestoreMethod::HCache, n).secs;
        let speedup = rec / hc;
        assert!(
            (2.5..10.0).contains(&speedup),
            "speedup {speedup} outside paper band"
        );
    }

    #[test]
    fn hcache_beats_naive_hybrid_by_fig12_margin() {
        // §6.3.1: HCache outperforms the naive hybrid by 1.28–1.42x.
        let balanced = PlatformProfile::new(Platform::default_testbed_single_gpu(), shape_13b());
        let hc = simulate_restore(&balanced, RestoreMethod::HCache, 1024).secs;
        let nh = simulate_restore(&balanced, RestoreMethod::NaiveHybrid, 1024).secs;
        let gain = nh / hc;
        assert!((1.1..1.8).contains(&gain), "gain {gain}");
    }

    #[test]
    fn scheduler_rescues_hcache_o_on_io_sufficient_platform() {
        // Fig 12 IO-sufficient (A30 + 7B + 4 SSDs): HCache-O is *slower*
        // than KV offload (bubbles), full HCache is consistently faster.
        let p = PlatformProfile::new(
            Platform {
                name: "A30+4SSD".into(),
                gpu: GpuSpec::a30(),
                n_gpus: 1,
                storage: StorageTier::default_testbed(),
            },
            shape_7b(),
        );
        let n = 1024;
        let kv = simulate_restore(&p, RestoreMethod::KvOffload, n).secs;
        let ho = simulate_restore(&p, RestoreMethod::HCacheO, n).secs;
        let hc = simulate_restore(&p, RestoreMethod::HCache, n).secs;
        assert!(hc < kv, "full HCache must beat KV offload");
        assert!(hc < ho, "scheduler must improve on HCache-O");
        // The characteristic Fig 12 inversion: on compute-starved hardware
        // pure hidden-state restoration loses its edge over KV offload.
        assert!(
            ho > 0.8 * kv,
            "HCache-O {ho} should be close to or worse than KV {kv}"
        );
    }

    #[test]
    fn table3_schedule_7b_balanced() {
        // §6.1.3: 7B on the default testbed -> 31 hidden + 1 KV.
        let p = default_profile();
        let s = hcache_scheme(&p, 1024);
        assert!(
            s.l_h >= 28 && s.l_h <= 32,
            "7B schedule {s:?} should be almost all hidden"
        );
    }

    #[test]
    fn speed_field_consistent() {
        let p = default_profile();
        let r = simulate_restore(&p, RestoreMethod::HCache, 2048);
        assert!((r.speed - 2048.0 / r.secs).abs() < 1e-6);
        assert!(simulate_restore(&p, RestoreMethod::Ideal, 10)
            .speed
            .is_infinite());
    }

    #[test]
    fn recompute_speed_degrades_with_context_hcache_does_not() {
        // Fig 11g-i: recompute speed drops ~28% from 1K to 16K; HCache and
        // KV offload stay flat.
        let p = default_profile();
        let rec1 = simulate_restore(&p, RestoreMethod::Recompute, 1024).speed;
        let rec16 = simulate_restore(&p, RestoreMethod::Recompute, 16384).speed;
        assert!(rec16 < 0.9 * rec1, "recompute {rec1} -> {rec16}");
        let hc1 = simulate_restore(&p, RestoreMethod::HCache, 1024).speed;
        let hc16 = simulate_restore(&p, RestoreMethod::HCache, 16384).speed;
        assert!(hc16 > 0.85 * hc1, "HCache {hc1} -> {hc16}");
    }

    #[test]
    fn occupancy_matches_method_structure() {
        let p = default_profile();
        let n = 1024;
        let rec = restore_occupancy(&p, RestoreMethod::Recompute, n);
        assert_eq!(rec.io, 0.0);
        assert!(rec.compute > 0.0);
        let kv = restore_occupancy(&p, RestoreMethod::KvOffload, n);
        assert_eq!(kv.compute, 0.0);
        assert!(kv.io > 0.0);
        let hc = restore_occupancy(&p, RestoreMethod::HCache, n);
        assert!(hc.io > 0.0 && hc.compute > 0.0);
        // HCache moves fewer bytes than KV offload and computes far less
        // than recompute.
        assert!(hc.io < kv.io);
        assert!(hc.compute < rec.compute / 4.0);
        let ideal = restore_occupancy(&p, RestoreMethod::Ideal, n);
        assert_eq!((ideal.io, ideal.compute), (0.0, 0.0));
    }

    #[test]
    fn occupancy_bounds_simulated_total() {
        // max(io, compute) <= simulated total <= io + compute (+fill).
        let p = default_profile();
        for m in [
            RestoreMethod::Recompute,
            RestoreMethod::KvOffload,
            RestoreMethod::HCacheO,
            RestoreMethod::HCache,
            RestoreMethod::NaiveHybrid,
        ] {
            let occ = restore_occupancy(&p, m, 2048);
            let total = simulate_restore(&p, m, 2048).secs;
            assert!(
                total >= occ.io.max(occ.compute) - 1e-9,
                "{m:?}: total {total} vs occ {occ:?}"
            );
            assert!(
                total <= occ.io + occ.compute + 1e-3,
                "{m:?}: total {total} vs occ {occ:?}"
            );
        }
    }

    #[test]
    fn more_ssds_speed_up_io_bound_methods() {
        // Fig 11d: restoration speed grows with disk count.
        let shape = shape_7b();
        let speeds: Vec<f64> = (1..=4)
            .map(|d| {
                let p = PlatformProfile::new(Platform::a100_with_ssds(1, d), shape.clone());
                simulate_restore(&p, RestoreMethod::KvOffload, 1024).speed
            })
            .collect();
        assert!(speeds.windows(2).all(|w| w[1] > w[0]), "{speeds:?}");
        // Near-linear early on.
        assert!(speeds[1] / speeds[0] > 1.7);
    }

    #[test]
    fn hcache_gain_larger_with_fewer_disks() {
        // §6.2.2: with 1 SSD/GPU the HCache-over-KV gain is 2.09-2.66x; with
        // 4 SSDs it drops below 2.
        let shape = shape_7b();
        let gain = |d: usize| {
            let p = PlatformProfile::new(Platform::a100_with_ssds(1, d), shape.clone());
            simulate_restore(&p, RestoreMethod::KvOffload, 1024).secs
                / simulate_restore(&p, RestoreMethod::HCache, 1024).secs
        };
        assert!(gain(1) > gain(4), "1 SSD {} vs 4 SSD {}", gain(1), gain(4));
        assert!(gain(1) > 1.9, "1-SSD gain {}", gain(1));
    }
}
