//! Replaying sampler gather patterns through the memory model.
//!
//! The samplers in `marl-core` describe a mini-batch as segments
//! `(start_row, rows)` per buffer. This module converts those segments into
//! byte-address streams over a synthetic buffer geometry — which may use
//! the *paper's* full-scale geometry (1 M rows) regardless of how much real
//! memory the host has — and drives the cache/TLB simulators with them.

use crate::cache::{CacheCounters, CacheHierarchy};
use crate::counters::HwCounters;
use crate::platform::PlatformSpec;
use crate::tlb::Tlb;
use serde::{Deserialize, Serialize};

/// A contiguous gather run (mirror of `marl-core`'s plan segment, kept
/// structural so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatherSegment {
    /// First row index.
    pub start_row: usize,
    /// Number of consecutive rows.
    pub rows: usize,
}

/// Placement of one agent's replay buffer in the synthetic address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferGeometry {
    /// Base byte address.
    pub base_addr: u64,
    /// Bytes per transition row.
    pub row_bytes: usize,
}

impl BufferGeometry {
    /// Lays out `agents` buffers of `capacity` rows back-to-back with a
    /// page of padding, mimicking separately allocated NumPy/Vec storage.
    pub fn layout(agents: usize, capacity: usize, row_bytes: usize) -> Vec<BufferGeometry> {
        let stride = (capacity * row_bytes + 4096) as u64;
        (0..agents).map(|a| BufferGeometry { base_addr: a as u64 * stride, row_bytes }).collect()
    }
}

/// The memory model: cache hierarchy + dTLB + instruction/branch
/// estimators, replaying gather traces.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    cache: CacheHierarchy,
    tlb: Tlb,
    instructions: u64,
    branches: u64,
    branch_misses: u64,
    itlb_misses: u64,
}

impl MemoryModel {
    /// Builds the model for a platform preset. The hardware stream
    /// prefetcher is enabled (as on the paper's platforms: "the hardware
    /// prefetcher is enabled by default") with 50 % timeliness coverage.
    pub fn new(platform: &PlatformSpec) -> Self {
        MemoryModel {
            cache: CacheHierarchy::new(platform.l1, platform.l2, platform.l3).with_prefetcher(50),
            tlb: Tlb::new(platform.dtlb),
            instructions: 0,
            branches: 0,
            branch_misses: 0,
            itlb_misses: 0,
        }
    }

    /// Replays one gather of `segments` against a buffer at `geom`.
    ///
    /// Cost model (documented substitution for `perf`):
    /// * every touched cache line is one access to the hierarchy and every
    ///   touched page one dTLB translation;
    /// * a dTLB miss triggers a page-table walk modelled as one cache
    ///   access to the leaf PTE (8 bytes at `PT_REGION + page * 8`) — PTEs
    ///   of consecutive pages share cache lines, and the page-table
    ///   *footprint* grows with the number and size of buffers, so walks
    ///   start missing the LLC exactly when the working set scales up (the
    ///   paper's large-N regime);
    /// * instructions ≈ 2 per 8 copied bytes (load+store) + 8 per row of
    ///   loop overhead + 16 per segment of call/setup overhead;
    /// * branches ≈ 1 per row + 2 per segment; branch *misses* ≈ 1 per
    ///   segment (the unpredictable jump to a new reference point) plus a
    ///   1/64 misprediction tail on row loops;
    /// * iTLB misses ≈ 1 per 4096 segments (code pages are tiny and hot).
    pub fn replay_gather(&mut self, geom: &BufferGeometry, segments: &[GatherSegment]) {
        /// Synthetic base of the page-table region, far above data.
        const PT_REGION: u64 = 1 << 45;
        const PAGE: u64 = 4096;
        for seg in segments {
            let bytes = (seg.rows * geom.row_bytes) as u64;
            let addr = geom.base_addr + (seg.start_row * geom.row_bytes) as u64;
            self.cache.access_range(addr, bytes);
            // Translate each touched page; walk the page table on misses.
            let first = addr / PAGE;
            let last = (addr + bytes.saturating_sub(1)) / PAGE;
            for p in first..=last {
                if !self.tlb.access(p * PAGE) {
                    self.cache.access(PT_REGION + p * 8);
                }
            }
            let rows = seg.rows as u64;
            self.instructions += bytes / 4 + 8 * rows + 16;
            self.branches += rows + 2;
            self.branch_misses += 1 + rows / 64;
        }
        self.itlb_misses += (segments.len() as u64) / 4096 + 1;
    }

    /// Cache counters accumulated so far.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Full hardware-counter snapshot.
    pub fn counters(&self) -> HwCounters {
        let c = self.cache.counters();
        HwCounters {
            instructions: self.instructions,
            cache_misses: c.llc_misses(),
            l1d_misses: c.l1_misses,
            dtlb_misses: self.tlb.misses(),
            itlb_misses: self.itlb_misses,
            branches: self.branches,
            branch_misses: self.branch_misses,
        }
    }

    /// Resets all counters, keeping cache/TLB contents warm (use between a
    /// warm-up replay and the measured replay).
    pub fn reset_counters(&mut self) {
        self.cache.reset_counters();
        self.tlb.reset_counters();
        self.instructions = 0;
        self.branches = 0;
        self.branch_misses = 0;
        self.itlb_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;

    /// Replays one full *update-all-trainers* sampling iteration: each of the
    /// `trainers` agent trainers gathers the same plan shape from **every**
    /// agent's buffer (the paper's O(N²·B) loop). Returns the counters for the
    /// iteration.
    fn replay_iteration(
        model: &mut MemoryModel,
        geometry: &[BufferGeometry],
        plans: &[Vec<GatherSegment>],
    ) -> HwCounters {
        for plan in plans {
            for geom in geometry {
                model.replay_gather(geom, plan);
            }
        }
        model.counters()
    }

    fn model() -> MemoryModel {
        MemoryModel::new(&PlatformSpec::ryzen_3975wx())
    }

    #[test]
    fn layout_spaces_buffers() {
        let g = BufferGeometry::layout(3, 1000, 156);
        assert_eq!(g.len(), 3);
        assert!(g[1].base_addr - g[0].base_addr >= 1000 * 156);
        assert_eq!(g[0].base_addr, 0);
    }

    #[test]
    fn contiguous_gather_misses_less_than_scattered() {
        let geom = BufferGeometry { base_addr: 0, row_bytes: 156 };
        // 1024 rows as one run vs as 1024 scattered rows over 1M rows.
        let mut warm = model();
        warm.replay_gather(&geom, &[GatherSegment { start_row: 0, rows: 1024 }]);
        let run = warm.counters();

        let mut scat = model();
        let segs: Vec<GatherSegment> = (0..1024)
            .map(|i| GatherSegment { start_row: (i * 977) % 1_000_000, rows: 1 })
            .collect();
        scat.replay_gather(&geom, &segs);
        let rand = scat.counters();

        assert!(run.cache_misses <= rand.cache_misses);
        assert!(run.dtlb_misses < rand.dtlb_misses);
        // similar data volume → similar instruction estimate
        let ratio = run.instructions as f64 / rand.instructions as f64;
        assert!(ratio > 0.7 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn iteration_counters_scale_quadratically_with_agents() {
        let plan: Vec<GatherSegment> =
            (0..64).map(|i| GatherSegment { start_row: i * 10_000, rows: 16 }).collect();
        let count = |agents: usize| {
            let mut m = model();
            let geom = BufferGeometry::layout(agents, 1_000_000, 156);
            let plans = vec![plan.clone(); agents];
            replay_iteration(&mut m, &geom, &plans).instructions
        };
        let i3 = count(3);
        let i6 = count(6);
        assert!((i6 as f64 / i3 as f64 - 4.0).abs() < 0.2, "{i3} {i6}");
    }

    #[test]
    fn reset_keeps_warm_state() {
        let geom = BufferGeometry { base_addr: 0, row_bytes: 64 };
        let mut m = model();
        m.replay_gather(&geom, &[GatherSegment { start_row: 0, rows: 8 }]);
        m.reset_counters();
        assert_eq!(m.counters().instructions, 0);
        // Warm: replaying the same rows hits everywhere.
        m.replay_gather(&geom, &[GatherSegment { start_row: 0, rows: 8 }]);
        assert_eq!(m.counters().cache_misses, 0);
    }
}
