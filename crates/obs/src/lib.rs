//! Runtime telemetry for the MARL training system.
//!
//! The paper's contribution is measurement: decomposing end-to-end
//! training into phases (Fig. 2/3) and reading hardware counters to
//! expose mini-batch sampling's super-linear cache/DTLB-miss growth
//! (Fig. 4). This crate makes every training run its own
//! characterization experiment:
//!
//! - [`span`] — a zero-allocation span tracer: a preallocated ring of
//!   `(label, tid, start_ns, end_ns)` events on the process clock,
//!   drained at episode boundaries.
//! - [`chrome`] — a streaming Chrome trace-event JSON writer
//!   (`--trace-out`, loadable in Perfetto / `chrome://tracing`).
//! - [`metrics`] — an atomic metrics registry: counters, gauges, and
//!   log-linear histograms, snapshot to JSONL (`--metrics-out`).
//! - [`prometheus`] — Prometheus text-exposition rendering of snapshots.
//! - [`perf_event`] — a feature-gated live `perf_event_open` backend
//!   filling `marl_perf::HwCounters` from real silicon, with a graceful
//!   fallback when the syscall is unavailable.
//! - [`telemetry`] — the orchestrator tying the above together behind
//!   the [`Telemetry`] handle the trainer attaches.
//! - [`context`] — the compact binary trace context stamped on
//!   cross-process MARD frames (trace id, span id, send timestamp).
//! - [`clock`] — the one monotonic process clock every phase, span and
//!   duration histogram reads, its wall-clock anchor, and per-peer
//!   clock-offset estimation from heartbeat round trips (half-RTT,
//!   EWMA-smoothed).
//! - [`fleet`] — fleet-wide merging: per-process Chrome traces into one
//!   clock-aligned timeline with cross-process flow arrows, histogram
//!   snapshots into fleet percentiles, Prometheus expositions into one
//!   labelled exposition.
//!
//! Instrumentation preserves the workspace's steady-state
//! zero-allocation guarantee and never perturbs RNG streams or update
//! math, so training output is bitwise-identical with telemetry on or
//! off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod clock;
pub mod context;
pub mod fleet;
pub mod metrics;
pub mod perf_event;
pub mod prometheus;
pub mod span;
pub mod telemetry;

pub use clock::{ClockOffset, OffsetSample};
pub use context::{span_id, TraceCtx};
pub use fleet::{MergeStats, ProcessSummary, ProcessTrace};
pub use metrics::{Histogram, HistogramSnapshot, KernelTally, MetricsRegistry, MetricsSnapshot};
pub use span::{FlowDir, SpanEvent, SpanTracer};
pub use telemetry::{SnapshotContext, Telemetry, TelemetryConfig};
