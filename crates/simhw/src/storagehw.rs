//! Host storage device models: NVMe SSD arrays and DRAM.
//!
//! The paper's default backend is 4× Samsung PM9A3 SSDs (6.9 GB/s read
//! each); sensitivity experiments vary the disk count (Fig 11d–f) and swap
//! in host DRAM (Fig 11a–c). Chunks of one layer are placed round-robin
//! across devices (§4.2.1) so a layer read aggregates bandwidth.

use crate::Sec;

/// Characteristics of one NVMe SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Sequential read bandwidth, B/s.
    pub read_bw: f64,
    /// Sequential write bandwidth, B/s.
    pub write_bw: f64,
    /// Per-command latency (NVMe submission → first data), seconds.
    pub io_latency: Sec,
}

impl SsdSpec {
    /// Samsung PM9A3 (the paper's device): 6.9 GB/s read; enterprise-class
    /// sustained write around 4 GB/s; ~80 µs access latency.
    pub fn pm9a3() -> Self {
        Self {
            name: "PM9A3",
            read_bw: 6.9e9,
            write_bw: 4.0e9,
            io_latency: 80e-6,
        }
    }
}

/// Where offloaded state lives on the host.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageTier {
    /// An array of identical SSDs; chunk reads/writes are striped
    /// round-robin across all of them.
    SsdArray { spec: SsdSpec, count: usize },
    /// Host DRAM: effectively infinite device bandwidth, so transfers are
    /// bounded by the PCIe link alone (the configuration used for the
    /// GPU-sensitivity experiments).
    Dram,
}

impl StorageTier {
    /// The paper's default backend: 4× PM9A3.
    pub fn default_testbed() -> Self {
        StorageTier::SsdArray {
            spec: SsdSpec::pm9a3(),
            count: 4,
        }
    }

    /// Aggregate sequential read bandwidth of the tier (B/s);
    /// `f64::INFINITY` for DRAM (PCIe becomes the limiter).
    pub fn aggregate_read_bw(&self) -> f64 {
        match self {
            StorageTier::SsdArray { spec, count } => spec.read_bw * *count as f64,
            StorageTier::Dram => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm9a3_matches_paper_bandwidth() {
        assert_eq!(SsdSpec::pm9a3().read_bw, 6.9e9);
    }

    #[test]
    fn aggregate_bw_scales_with_disks() {
        let one = StorageTier::SsdArray {
            spec: SsdSpec::pm9a3(),
            count: 1,
        };
        let four = StorageTier::default_testbed();
        assert!((four.aggregate_read_bw() / one.aggregate_read_bw() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dram_reads_are_link_bound_only() {
        assert!(StorageTier::Dram.aggregate_read_bw().is_infinite());
    }
}
