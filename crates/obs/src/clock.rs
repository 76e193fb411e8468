//! The process clock, and per-peer clock-offset estimation from
//! request/response round trips.
//!
//! Every timestamp of a process — phase timings, span stamps, duration
//! histograms, serve latencies — is [`now_ns`], nanoseconds since an
//! epoch taken once per process. That epoch is arbitrary, so merging
//! traces needs a mapping from each peer's clock to a common one.
//! [`ClockOffset`] estimates that mapping the way NTP does from a single
//! exchange: the local side sends its timestamp `t0`, the peer echoes it
//! together with the peer-clock receive time `t_p`, and the local side
//! notes the arrival time `t1`. Assuming the outbound and return paths
//! are symmetric, the peer observed the frame at local time
//! `t0 + rtt/2`, so
//!
//! ```text
//! offset = t_p - (t0 + rtt/2)      // peer_time ≈ local_time + offset
//! ```
//!
//! Samples are EWMA-smoothed (gain [`EWMA_ALPHA`], the TCP SRTT gain) to
//! shed scheduling jitter. The half-RTT assumption is the usual caveat:
//! a path whose outbound and return legs differ in latency biases the
//! offset by half the asymmetry — documented, not corrected, here (the
//! error is bounded by rtt/2, which the estimator also reports).

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The process epoch (taken on first use) and the wall-clock
/// nanoseconds read beside it.
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let unix = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        (Instant::now(), unix as u64)
    })
}

/// Monotonic nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Wall-clock time (ns since the Unix epoch) of the process epoch — the
/// coarse cross-process anchor (exact on one host, subject to NTP skew
/// across hosts; the RTT estimator refines peers that exchange
/// heartbeats).
pub fn unix_anchor_ns() -> u64 {
    epoch().1
}

/// EWMA gain for offset and RTT smoothing (1/8, as in TCP's SRTT).
pub const EWMA_ALPHA: f64 = 0.125;

/// One round-trip measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetSample {
    /// Full round-trip time, nanoseconds on the local clock.
    pub rtt_ns: u64,
    /// Instantaneous peer-minus-local clock offset, nanoseconds.
    pub offset_ns: i64,
}

/// EWMA-smoothed estimate of a peer clock's offset from the local one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockOffset {
    offset_ns: f64,
    rtt_ns: f64,
    samples: u64,
}

impl ClockOffset {
    /// An estimator with no samples (offset and RTT report zero).
    pub fn new() -> Self {
        ClockOffset::default()
    }

    /// Feeds one round trip: `local_send_ns` and `local_recv_ns` are the
    /// request departure and response arrival on the local clock,
    /// `peer_ns` is the peer-clock timestamp echoed in the response.
    /// Returns the raw (unsmoothed) sample.
    pub fn observe(
        &mut self,
        local_send_ns: u64,
        peer_ns: u64,
        local_recv_ns: u64,
    ) -> OffsetSample {
        let rtt_ns = local_recv_ns.saturating_sub(local_send_ns);
        let midpoint = local_send_ns as i128 + (rtt_ns / 2) as i128;
        let offset_ns =
            (peer_ns as i128 - midpoint).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        if self.samples == 0 {
            self.offset_ns = offset_ns as f64;
            self.rtt_ns = rtt_ns as f64;
        } else {
            self.offset_ns += EWMA_ALPHA * (offset_ns as f64 - self.offset_ns);
            self.rtt_ns += EWMA_ALPHA * (rtt_ns as f64 - self.rtt_ns);
        }
        self.samples += 1;
        OffsetSample { rtt_ns, offset_ns }
    }

    /// Smoothed peer-minus-local offset, nanoseconds (0 with no samples).
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns as i64
    }

    /// Smoothed round-trip time, nanoseconds (0 with no samples).
    pub fn rtt_ns(&self) -> u64 {
        self.rtt_ns.max(0.0) as u64
    }

    /// Round trips observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_path_recovers_exact_offset() {
        // Peer clock runs 1 ms ahead; each leg takes 100 µs.
        let mut est = ClockOffset::new();
        let s = est.observe(1_000_000, 1_000_000 + 100_000 + 1_000_000, 1_000_000 + 200_000);
        assert_eq!(s.rtt_ns, 200_000);
        assert_eq!(s.offset_ns, 1_000_000);
        assert_eq!(est.offset_ns(), 1_000_000);
        assert_eq!(est.rtt_ns(), 200_000);
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn ewma_converges_toward_new_level() {
        let mut est = ClockOffset::new();
        est.observe(0, 500, 1_000); // offset 0, rtt 1000
        for _ in 0..200 {
            // Offset jumps to +10_000 ns with the same RTT.
            est.observe(0, 10_500, 1_000);
        }
        assert!((est.offset_ns() - 10_000).abs() < 100, "offset {}", est.offset_ns());
        assert_eq!(est.rtt_ns(), 1_000);
    }

    #[test]
    fn negative_offsets_are_representable() {
        // Peer clock is behind the local clock.
        let mut est = ClockOffset::new();
        let s = est.observe(5_000_000, 1_000_000, 5_001_000);
        assert!(s.offset_ns < 0);
        assert!(est.offset_ns() < 0);
    }

    #[test]
    fn unix_anchor_is_sane_and_fixed() {
        let a = unix_anchor_ns();
        assert!(a > 1_500_000_000u64 * 1_000_000_000, "anchor predates 2017: {a}");
        assert_eq!(unix_anchor_ns(), a);
    }
}
