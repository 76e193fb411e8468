//! Atomic metrics registry: counters, gauges, and log-linear histograms.
//!
//! Every metric is preallocated and updated with relaxed atomic
//! operations, so recording from the training hot path is wait-free and
//! heap-free. Snapshots ([`MetricsRegistry::snapshot`]) materialize the
//! current state into a serializable [`MetricsSnapshot`] — that side may
//! allocate and is only called at episode boundaries / end of training.

use marl_perf::counters::HwCounters;
use marl_perf::phase::{Phase, PhaseProfile};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of direct buckets (values `0..DIRECT` get their own bucket).
const DIRECT: usize = 16;
/// Linear sub-buckets per power-of-two group above the direct range.
const SUBS: usize = 8;
/// Power-of-two groups covered: values up to `2^(4 + GROUPS) - 1`;
/// larger values land in the final bucket. 44 groups reach `2^48` — a
/// comfortable ceiling for nanosecond durations (~78 hours) and byte
/// counts.
const GROUPS: usize = 44;
/// Total bucket count.
pub const BUCKETS: usize = DIRECT + GROUPS * SUBS;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < DIRECT as u64 {
        return v as usize;
    }
    // Value lies in group g (v in [2^g, 2^(g+1)), g >= 4); its top three
    // bits below the leading one select the linear sub-bucket.
    let g = 63 - v.leading_zeros() as usize;
    let group = (g - 4).min(GROUPS - 1);
    let sub = if group == GROUPS - 1 && g - 4 > group {
        SUBS - 1 // overflow: clamp into the last bucket
    } else {
        ((v >> (g - 3)) & (SUBS as u64 - 1)) as usize
    };
    DIRECT + group * SUBS + sub
}

/// The inclusive lower bound of bucket `i` (used for quantile estimates
/// and Prometheus `le` labels).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < DIRECT {
        return i as u64;
    }
    let group = (i - DIRECT) / SUBS;
    let sub = (i - DIRECT) % SUBS;
    let g = group + 4;
    (1u64 << g) + ((sub as u64) << (g - 3))
}

/// A fixed-size log-linear histogram over `u64` values.
///
/// Sixteen direct buckets cover `0..16`; above that each power-of-two
/// range splits into eight linear sub-buckets (HdrHistogram-style), so
/// relative resolution stays within ~12.5 % across the full range.
/// Recording is two relaxed `fetch_add`s plus a `fetch_max`.
///
/// # Examples
///
/// ```
/// use marl_obs::metrics::Histogram;
///
/// let h = Histogram::new();
/// h.record(3);
/// h.record(1000);
/// assert_eq!(h.count(), 2);
/// assert!(h.quantile(0.99) >= 1000 / 2); // bucketed estimate
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free, allocation-free.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records an `f64` scaled into integer units (e.g. `scale = 1e6`
    /// turns a [0, 1] fraction into micro-units). Negative and non-finite
    /// values clamp to zero.
    pub fn record_scaled(&self, v: f64, scale: f64) {
        let scaled = (v * scale).max(0.0);
        self.record(if scaled.is_finite() { scaled as u64 } else { 0 });
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Merges `other`'s observations into `self`. Bucket counts add
    /// element-wise, so the merge is associative, commutative, and
    /// lossless on counts (property-tested in `tests/histogram_props.rs`).
    pub fn merge_from(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Bucketed quantile estimate: the lower bound of the first bucket at
    /// which the cumulative count reaches `q * count` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_lower_bound(i);
            }
        }
        self.max()
    }

    /// Serializable snapshot (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push(BucketCount { lo: bucket_lower_bound(i), count: c });
            }
        }
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            max: self.max(),
            mean: if count == 0 { 0.0 } else { self.sum() as f64 / count as f64 },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets,
        }
    }

    /// Raw bucket counts (test/diagnostic accessor).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Serialized view of a [`Histogram`]. `Default` is the empty
/// histogram, which lets newer snapshot fields (the serve histograms)
/// deserialize from older JSONL lines via `#[serde(default)]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median estimate (bucket lower bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty buckets, ascending by `lo`.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one at the serialized level —
    /// the cross-process counterpart of [`Histogram::merge_from`].
    /// Sparse buckets add by lower bound and the derived statistics
    /// (mean, p50/p90/p99) are recomputed with the same rules a live
    /// [`Histogram`] uses, so merging per-process snapshots equals
    /// snapshotting one registry that saw every observation
    /// (property-tested in `tests/histogram_props.rs`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut by_lo: std::collections::BTreeMap<u64, u64> =
            self.buckets.iter().map(|b| (b.lo, b.count)).collect();
        for b in &other.buckets {
            *by_lo.entry(b.lo).or_insert(0) += b.count;
        }
        self.buckets = by_lo.into_iter().map(|(lo, count)| BucketCount { lo, count }).collect();
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.mean = if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 };
        self.p50 = self.quantile(0.50);
        self.p90 = self.quantile(0.90);
        self.p99 = self.quantile(0.99);
    }

    /// Bucketed quantile estimate over the sparse buckets; same rule as
    /// [`Histogram::quantile`] (lower bound of the first bucket at which
    /// the cumulative count reaches `q * count`; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                return b.lo;
            }
        }
        self.max
    }
}

/// Accumulated live hardware counters around the mini-batch sampling
/// phase (filled by the `perf_event` backend when available).
#[derive(Debug, Default)]
pub struct HwAccumulator {
    /// Whether a live counter source is attached.
    pub live: AtomicBool,
    /// Measured sampling-phase windows.
    pub windows: Counter,
    /// Retired instructions.
    pub instructions: Counter,
    /// LLC misses.
    pub cache_misses: Counter,
    /// L1-D misses.
    pub l1d_misses: Counter,
    /// dTLB load misses.
    pub dtlb_misses: Counter,
    /// iTLB load misses.
    pub itlb_misses: Counter,
    /// Branches retired.
    pub branches: Counter,
    /// Branch mispredictions.
    pub branch_misses: Counter,
}

impl HwAccumulator {
    /// Adds one window's counter deltas.
    pub fn add(&self, c: &HwCounters) {
        self.windows.inc();
        self.instructions.add(c.instructions);
        self.cache_misses.add(c.cache_misses);
        self.l1d_misses.add(c.l1d_misses);
        self.dtlb_misses.add(c.dtlb_misses);
        self.itlb_misses.add(c.itlb_misses);
        self.branches.add(c.branches);
        self.branch_misses.add(c.branch_misses);
    }

    /// Accumulated totals as a counter snapshot.
    pub fn totals(&self) -> HwCounters {
        HwCounters {
            instructions: self.instructions.get(),
            cache_misses: self.cache_misses.get(),
            l1d_misses: self.l1d_misses.get(),
            dtlb_misses: self.dtlb_misses.get(),
            itlb_misses: self.itlb_misses.get(),
            branches: self.branches.get(),
            branch_misses: self.branch_misses.get(),
        }
    }
}

/// Scale for recording normalized priorities (fractions in [0, 1]) as
/// integer micro-units.
pub const PRIORITY_SCALE: f64 = 1e6;
/// Scale for recording importance-sampling weights as milli-units.
pub const IS_WEIGHT_SCALE: f64 = 1e3;

/// The fixed set of training metrics. All members are preallocated
/// atomics; recording from the update path never allocates.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Episodes completed.
    pub episodes: Counter,
    /// Update-all-trainers iterations.
    pub updates: Counter,
    /// Environment steps.
    pub env_steps: Counter,
    /// Rows gathered across all agents' buffers.
    pub gather_rows: Counter,
    /// Bytes gathered across all agents' buffers.
    pub gather_bytes: Counter,
    /// Random jumps (plan segments) executed by gathers.
    pub random_jumps: Counter,
    /// Divergence-sentinel trips (rollbacks attempted).
    pub sentinel_trips: Counter,
    /// Replay rows currently stored.
    pub replay_len: Gauge,
    /// Replay occupancy fraction (len / capacity).
    pub replay_occupancy: Gauge,
    /// Sampler run lengths: rows per contiguous plan segment.
    pub run_length: Histogram,
    /// Normalized priorities of sampled rows, micro-units
    /// ([`PRIORITY_SCALE`]); prioritized samplers only.
    pub norm_priority: Histogram,
    /// Importance-sampling weights of sampled rows, milli-units
    /// ([`IS_WEIGHT_SCALE`]); weighted samplers only.
    pub is_weight: Histogram,
    /// Checkpoint capture+write durations, nanoseconds.
    pub checkpoint_ns: Histogram,
    /// Whole update-all-trainers iteration durations, nanoseconds.
    pub update_ns: Histogram,
    /// Batched vectorized-env step durations, nanoseconds (one record per
    /// K-world batch).
    pub vecenv_step_ns: Histogram,
    /// Worlds advanced per vectorized batch (the batch fill, K).
    pub vecenv_batch_fill: Histogram,
    /// Environment steps per second achieved by each vectorized batch
    /// (K worlds / batch wall time).
    pub vecenv_steps_per_sec: Histogram,
    /// Live sampling-phase hardware counters.
    pub hw_sampling: HwAccumulator,
    /// Oldest heartbeat age across live dist workers, milliseconds.
    pub dist_heartbeat_age_ms: Gauge,
    /// Worker reconnects accepted by the dist learner.
    pub dist_reconnects: Counter,
    /// Frames queued toward the dist learner (ingress depth).
    pub dist_queue_depth: Gauge,
    /// Frames dropped by dist quarantine (CRC/stale-epoch/truncation).
    pub dist_quarantined_frames: Counter,
    /// Dist workers currently not classified dead.
    pub dist_workers_alive: Gauge,
    /// Supervised restarts of dead dist workers.
    pub dist_worker_restarts: Counter,
    /// Heartbeat round-trip times (worker → learner → ack), microseconds;
    /// feeds the clock-offset estimator ([`crate::clock::ClockOffset`]).
    pub heartbeat_rtt_us: Histogram,
    /// Inference requests answered by the serve path.
    pub serve_requests: Counter,
    /// Inference requests rejected (bad agent index / wrong obs dim).
    pub serve_errors: Counter,
    /// Hot checkpoint reloads applied by the serve path.
    pub serve_reloads: Counter,
    /// Serve connections currently open.
    pub serve_connections: Gauge,
    /// Requests queued in the micro-batcher (ingress depth).
    pub serve_queue_depth: Gauge,
    /// Per-request serve latency (enqueue → response written), ns.
    pub serve_latency_ns: Histogram,
    /// Requests coalesced per micro-batch (the batch occupancy).
    pub serve_batch_fill: Histogram,
}

/// Per-phase row of a snapshot (label + accumulated time + share).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Stable phase label.
    pub phase: String,
    /// Accumulated nanoseconds.
    pub ns: u64,
    /// Fraction of the total across all phases.
    pub share: f64,
}

/// Kernel-dispatch tallies carried into a snapshot (sourced from
/// `marl_nn::kernels::dispatch_tally` by the caller, so this crate stays
/// independent of the NN crate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelTally {
    /// Kernel invocations dispatched to the scalar path.
    pub scalar: u64,
    /// Kernel invocations dispatched to the AVX2+FMA path.
    pub simd: u64,
}

/// Point-in-time, serializable view of every metric (one JSONL line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Episode index the snapshot was taken at.
    pub episode: u64,
    /// Whether this is the final end-of-training snapshot.
    pub fin: bool,
    /// Episodes completed.
    pub episodes: u64,
    /// Update iterations completed.
    pub updates: u64,
    /// Environment steps executed.
    pub env_steps: u64,
    /// Rows gathered.
    pub gather_rows: u64,
    /// Bytes gathered.
    pub gather_bytes: u64,
    /// Random jumps executed.
    pub random_jumps: u64,
    /// Sentinel trips.
    pub sentinel_trips: u64,
    /// Replay rows stored.
    pub replay_len: f64,
    /// Replay occupancy fraction.
    pub replay_occupancy: f64,
    /// Phase timing breakdown (the Fig. 2 decomposition).
    pub phases: Vec<PhaseRow>,
    /// Sampler run-length distribution.
    pub run_length: HistogramSnapshot,
    /// Normalized-priority distribution (micro-units).
    pub norm_priority: HistogramSnapshot,
    /// IS-weight distribution (milli-units).
    pub is_weight: HistogramSnapshot,
    /// Checkpoint duration distribution (ns).
    pub checkpoint_ns: HistogramSnapshot,
    /// Update iteration duration distribution (ns).
    pub update_ns: HistogramSnapshot,
    /// Vectorized-env batch step duration distribution (ns).
    pub vecenv_step_ns: HistogramSnapshot,
    /// Vectorized-env batch fill distribution (worlds per batch).
    pub vecenv_batch_fill: HistogramSnapshot,
    /// Vectorized-env throughput distribution (env steps per second).
    pub vecenv_steps_per_sec: HistogramSnapshot,
    /// Whether live hardware counters were attached.
    pub hw_live: bool,
    /// Measured hardware windows.
    pub hw_windows: u64,
    /// Accumulated sampling-phase hardware counters.
    pub hw_sampling: HwCounters,
    /// Kernel-dispatch tallies.
    pub kernels: KernelTally,
    /// Span-ring drops so far (0 unless the ring overflowed).
    pub spans_dropped: u64,
    /// Oldest dist-worker heartbeat age, ms (0.0 outside dist runs).
    #[serde(default)]
    pub dist_heartbeat_age_ms: f64,
    /// Dist worker reconnects.
    #[serde(default)]
    pub dist_reconnects: u64,
    /// Dist ingress queue depth.
    #[serde(default)]
    pub dist_queue_depth: f64,
    /// Dist frames quarantined.
    #[serde(default)]
    pub dist_quarantined_frames: u64,
    /// Dist workers alive.
    #[serde(default)]
    pub dist_workers_alive: f64,
    /// Dist worker restarts.
    #[serde(default)]
    pub dist_worker_restarts: u64,
    /// Serve requests answered.
    #[serde(default)]
    pub serve_requests: u64,
    /// Serve requests rejected.
    #[serde(default)]
    pub serve_errors: u64,
    /// Serve hot reloads applied.
    #[serde(default)]
    pub serve_reloads: u64,
    /// Serve connections open.
    #[serde(default)]
    pub serve_connections: f64,
    /// Serve micro-batcher queue depth.
    #[serde(default)]
    pub serve_queue_depth: f64,
    /// Serve per-request latency distribution (ns).
    #[serde(default)]
    pub serve_latency_ns: HistogramSnapshot,
    /// Serve batch-occupancy distribution (requests per batch).
    #[serde(default)]
    pub serve_batch_fill: HistogramSnapshot,
    /// Heartbeat round-trip-time distribution (µs). Appended after the
    /// serve block so older JSONL lines (and the declaration-order cut in
    /// the roundtrip test) still deserialize via the default.
    #[serde(default)]
    pub heartbeat_rtt_us: HistogramSnapshot,
}

impl MetricsRegistry {
    /// A fresh registry with all metrics at zero.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Materializes the registry into a snapshot. `profile` contributes
    /// the phase breakdown; `kernels` and `spans_dropped` are supplied by
    /// the caller (they live in other crates/objects).
    pub fn snapshot(
        &self,
        episode: u64,
        fin: bool,
        profile: &PhaseProfile,
        kernels: KernelTally,
        spans_dropped: u64,
    ) -> MetricsSnapshot {
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseRow {
                phase: p.label().to_owned(),
                ns: profile.get(p).as_nanos() as u64,
                share: profile.fraction(p),
            })
            .collect();
        MetricsSnapshot {
            episode,
            fin,
            episodes: self.episodes.get(),
            updates: self.updates.get(),
            env_steps: self.env_steps.get(),
            gather_rows: self.gather_rows.get(),
            gather_bytes: self.gather_bytes.get(),
            random_jumps: self.random_jumps.get(),
            sentinel_trips: self.sentinel_trips.get(),
            replay_len: self.replay_len.get(),
            replay_occupancy: self.replay_occupancy.get(),
            phases,
            run_length: self.run_length.snapshot(),
            norm_priority: self.norm_priority.snapshot(),
            is_weight: self.is_weight.snapshot(),
            checkpoint_ns: self.checkpoint_ns.snapshot(),
            update_ns: self.update_ns.snapshot(),
            vecenv_step_ns: self.vecenv_step_ns.snapshot(),
            vecenv_batch_fill: self.vecenv_batch_fill.snapshot(),
            vecenv_steps_per_sec: self.vecenv_steps_per_sec.snapshot(),
            hw_live: self.hw_sampling.live.load(Ordering::Relaxed),
            hw_windows: self.hw_sampling.windows.get(),
            hw_sampling: self.hw_sampling.totals(),
            kernels,
            spans_dropped,
            dist_heartbeat_age_ms: self.dist_heartbeat_age_ms.get(),
            dist_reconnects: self.dist_reconnects.get(),
            dist_queue_depth: self.dist_queue_depth.get(),
            dist_quarantined_frames: self.dist_quarantined_frames.get(),
            dist_workers_alive: self.dist_workers_alive.get(),
            dist_worker_restarts: self.dist_worker_restarts.get(),
            serve_requests: self.serve_requests.get(),
            serve_errors: self.serve_errors.get(),
            serve_reloads: self.serve_reloads.get(),
            serve_connections: self.serve_connections.get(),
            serve_queue_depth: self.serve_queue_depth.get(),
            serve_latency_ns: self.serve_latency_ns.snapshot(),
            serve_batch_fill: self.serve_batch_fill.snapshot(),
            heartbeat_rtt_us: self.heartbeat_rtt_us.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn bucket_index_monotone_and_in_range() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            assert!(i >= last, "bucket index must not decrease: {v} -> {i} (last {last})");
            last = i;
        }
    }

    #[test]
    fn bucket_lower_bound_brackets_values() {
        for v in [0u64, 5, 15, 16, 40, 127, 128, 999, 4096, 1 << 30] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v, "lb({i}) > {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lower_bound(i + 1) > v, "lb({}) <= {v}", i + 1);
            }
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 4950);
        assert_eq!(h.max(), 99);
        let p50 = h.quantile(0.5);
        assert!((40..=64).contains(&p50), "p50 {p50}");
        assert!(h.quantile(1.0) >= p50);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn scaled_recording_clamps() {
        let h = Histogram::new();
        h.record_scaled(0.5, 1000.0);
        h.record_scaled(-3.0, 1000.0);
        h.record_scaled(f64::NAN, 1000.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 500);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(7);
        b.record(7);
        b.record(1 << 20);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1 << 20);
        assert_eq!(a.bucket_counts()[bucket_index(7)], 2);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = MetricsRegistry::new();
        r.updates.add(3);
        r.run_length.record(16);
        r.replay_occupancy.set(0.25);
        let mut profile = PhaseProfile::new();
        profile.add(Phase::MiniBatchSampling, std::time::Duration::from_millis(5));
        let snap = r.snapshot(10, true, &profile, KernelTally { scalar: 1, simd: 2 }, 0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"updates\":3"));
        assert!(json.contains("mini-batch-sampling"));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn serve_metrics_roundtrip_and_default_from_old_snapshots() {
        let r = MetricsRegistry::new();
        r.serve_requests.add(12);
        r.serve_reloads.inc();
        r.serve_connections.set(3.0);
        r.serve_latency_ns.record(42_000);
        r.serve_batch_fill.record(16);
        let snap = r.snapshot(0, true, &PhaseProfile::new(), KernelTally::default(), 0);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.serve_requests, 12);
        assert_eq!(back.serve_latency_ns.count, 1);
        // A pre-serve snapshot (fields absent) still deserializes: the
        // serve fields default to zero/empty. Serde writes fields in
        // declaration order and the serve block is last, so cutting at
        // its first key reconstructs the old shape exactly.
        let cut = json.find(",\"serve_requests\"").expect("serve fields serialize last");
        let old_json = format!("{}}}", &json[..cut]);
        let old: MetricsSnapshot = serde_json::from_str(&old_json).unwrap();
        assert_eq!(old.serve_requests, 0);
        assert_eq!(old.serve_latency_ns.count, 0);
        assert!(old.serve_latency_ns.buckets.is_empty());
        // Later additions (heartbeat RTT) default the same way.
        assert_eq!(old.heartbeat_rtt_us.count, 0);
    }

    #[test]
    fn heartbeat_rtt_lands_in_snapshot() {
        let r = MetricsRegistry::new();
        r.heartbeat_rtt_us.record(250);
        r.heartbeat_rtt_us.record(400);
        let snap = r.snapshot(0, true, &PhaseProfile::new(), KernelTally::default(), 0);
        assert_eq!(snap.heartbeat_rtt_us.count, 2);
        assert_eq!(snap.heartbeat_rtt_us.max, 400);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.heartbeat_rtt_us, snap.heartbeat_rtt_us);
    }

    #[test]
    fn snapshot_merge_matches_single_registry() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 3, 17, 900, 1 << 22] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 17, 64_000] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        // Merging an empty snapshot is the identity.
        let before = merged.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn hw_accumulator_totals() {
        let hw = HwAccumulator::default();
        let c = HwCounters { instructions: 10, cache_misses: 2, ..Default::default() };
        hw.add(&c);
        hw.add(&c);
        assert_eq!(hw.windows.get(), 2);
        assert_eq!(hw.totals().instructions, 20);
    }
}
