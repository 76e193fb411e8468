//! Platform presets: the two CPUs and the GPU-transfer setup of the
//! paper's evaluation (Table II and Section VI-B).

use crate::cache::CacheConfig;
use crate::tlb::TlbConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Cache/TLB description of an evaluation platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Display name.
    pub name: &'static str,
    /// L1-D geometry (per core).
    pub l1: CacheConfig,
    /// L2 geometry (per core).
    pub l2: CacheConfig,
    /// L3 geometry (the slice visible to one core).
    pub l3: CacheConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl PlatformSpec {
    /// AMD Ryzen Threadripper PRO 3975WX (the paper's primary host,
    /// Table II): 32 KiB L1-D, 512 KiB L2 per core, 128 MiB shared L3
    /// (modelled as a 16 MiB per-CCX slice), 3072-entry 4 KiB dTLB.
    pub fn ryzen_3975wx() -> Self {
        PlatformSpec {
            name: "amd-ryzen-3975wx",
            l1: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(512 * 1024, 64, 8),
            l3: CacheConfig::new(16 * 1024 * 1024, 64, 16),
            dtlb: TlbConfig::new(3072, 4096),
        }
    }

    /// Intel i7-9700K (the cross-validation host of Section VI-B):
    /// 32 KiB L1-D, 256 KiB L2, 12 MiB L3 (12-way so the set count stays a
    /// power of two), 1536-entry dTLB.
    pub fn i7_9700k() -> Self {
        PlatformSpec {
            name: "intel-i7-9700k",
            l1: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(256 * 1024, 64, 4),
            l3: CacheConfig::new(12 * 1024 * 1024, 64, 12),
            dtlb: TlbConfig::new(1536, 4096),
        }
    }
}

/// Host↔device transfer model standing in for the PCIe link to a GPU
/// (Section VI-B's GTX 1070 cross-validation): `time = latency + bytes/BW`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// Per-transfer fixed latency.
    pub latency: Duration,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl TransferModel {
    /// PCIe 3.0 ×16 (GTX 1070 era): ~12 GB/s sustained, ~10 µs launch.
    pub fn pcie3_x16() -> Self {
        TransferModel { latency: Duration::from_micros(10), bandwidth: 12.0e9 }
    }

    /// PCIe 4.0 ×16 (RTX 3090 era): ~24 GB/s sustained.
    pub fn pcie4_x16() -> Self {
        TransferModel { latency: Duration::from_micros(8), bandwidth: 24.0e9 }
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_construct() {
        let r = PlatformSpec::ryzen_3975wx();
        assert_eq!(r.l1.sets(), 64);
        assert_eq!(r.dtlb.entries, 3072);
        let i = PlatformSpec::i7_9700k();
        assert!(i.l3.size_bytes < r.l3.size_bytes);
        assert!(i.dtlb.entries < r.dtlb.entries);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = TransferModel::pcie3_x16();
        let small = t.transfer_time(1024);
        let big = t.transfer_time(120_000_000);
        assert!(big > small);
        // 120 MB over 12 GB/s ≈ 10 ms
        assert!((big.as_secs_f64() - 0.01).abs() < 0.002, "{big:?}");
    }
}
