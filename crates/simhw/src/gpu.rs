//! GPU device models — Table 2 of the paper.

use crate::Bytes;

/// Static characteristics of a GPU, as listed in Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name ("A100", ...).
    pub name: &'static str,
    /// HBM capacity in bytes.
    pub hbm_bytes: Bytes,
    /// Peak FP16 FLOPS (dense, with FP32 accumulate — the paper's ★ column).
    pub peak_flops: f64,
    /// Host↔GPU transmission speed in B/s (PCIe; Table 2 last column).
    pub pcie_bw: f64,
    /// GPU↔GPU interconnect bandwidth in B/s (NVLink where present),
    /// used by the tensor-parallel all-gather in restoration (§5).
    pub nvlink_bw: f64,
    /// HBM bandwidth in B/s — decode iterations are memory-bound, so TBT
    /// derives from this.
    pub hbm_bw: f64,
}

const GB: u64 = 1024 * 1024 * 1024;

impl GpuSpec {
    /// NVIDIA A100-40G SXM4 — the paper's default testbed GPU.
    pub fn a100() -> Self {
        Self {
            name: "A100",
            hbm_bytes: 40 * GB,
            peak_flops: 312e12,
            pcie_bw: 32e9,
            nvlink_bw: 600e9,
            hbm_bw: 1.555e12,
        }
    }

    /// NVIDIA A30 — the low-compute configuration of Fig 11a / Fig 12.
    pub fn a30() -> Self {
        Self {
            name: "A30",
            hbm_bytes: 24 * GB,
            peak_flops: 165e12,
            pcie_bw: 32e9,
            nvlink_bw: 200e9,
            hbm_bw: 0.933e12,
        }
    }

    /// NVIDIA H800 (PCIe 5.0 host link: 64 GB/s in Table 2).
    pub fn h800() -> Self {
        Self {
            name: "H800",
            hbm_bytes: 80 * GB,
            peak_flops: 990e12,
            pcie_bw: 64e9,
            nvlink_bw: 400e9,
            hbm_bw: 3.35e12,
        }
    }

    /// All Table 2 entries in the paper's order. The RTX 4090 and the L20
    /// appear only here: nothing else picks them by name.
    pub fn table2() -> Vec<GpuSpec> {
        vec![
            Self::a100(),
            Self::a30(),
            Self {
                name: "4090",
                hbm_bytes: 24 * GB,
                peak_flops: 330e12,
                pcie_bw: 32e9,
                nvlink_bw: 32e9, // no NVLink; falls back to PCIe
                hbm_bw: 1.008e12,
            },
            Self {
                name: "L20",
                hbm_bytes: 48 * GB,
                peak_flops: 120e12,
                pcie_bw: 32e9,
                nvlink_bw: 32e9,
                hbm_bw: 0.864e12,
            },
            Self::h800(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_values() {
        let a100 = GpuSpec::a100();
        assert_eq!(a100.hbm_bytes, 40 * GB);
        assert_eq!(a100.peak_flops, 312e12);
        assert_eq!(a100.pcie_bw, 32e9);
        let h800 = GpuSpec::h800();
        assert_eq!(h800.peak_flops, 990e12);
        assert_eq!(h800.pcie_bw, 64e9);
        assert_eq!(GpuSpec::table2().len(), 5);
    }

    #[test]
    fn compute_ordering_per_paper() {
        // Table 2 FLOPS ordering: H800 > 4090 > A100 > A30 > L20.
        let mut by_flops = GpuSpec::table2();
        by_flops.sort_by(|a, b| b.peak_flops.total_cmp(&a.peak_flops));
        let names: Vec<&str> = by_flops.iter().map(|g| g.name).collect();
        assert_eq!(names, ["H800", "4090", "A100", "A30", "L20"]);
    }
}
