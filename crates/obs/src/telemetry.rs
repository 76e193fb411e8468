//! Telemetry orchestration: owns the tracer, the metrics registry, the
//! optional live hardware-counter source, and the output sinks.
//!
//! A [`Telemetry`] is attached to the trainer behind an `Arc`. The hot
//! path touches only wait-free pieces (span ring, atomic metrics, the
//! hardware-counter fd ioctls); files are written exclusively at episode
//! boundaries via [`Telemetry::on_episode_end`] and at the end of
//! training via [`Telemetry::finish`], where allocation is permitted.
//! Sink I/O errors are reported to stderr once and the sink is dropped —
//! telemetry never aborts training. Nothing here reads or perturbs RNG
//! streams or update math, so training output is bitwise-identical with
//! telemetry on or off.

use crate::chrome::ChromeTraceWriter;
use crate::metrics::{KernelTally, MetricsRegistry, MetricsSnapshot};
use crate::perf_event::open_hw_counter_source;
use crate::span::{SpanEvent, SpanTracer, DEFAULT_SPAN_CAPACITY};
use marl_perf::counters::HwCounterSource;
use marl_perf::phase::PhaseProfile;
use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::Ordering;

/// Where (and how often) telemetry is emitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Chrome trace-event JSON output path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Metrics JSONL output path (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// Episodes between JSONL snapshots (`--metrics-every`); 0 means
    /// only the final snapshot is written.
    pub metrics_every: u64,
    /// Prometheus text-exposition output path, rewritten at each
    /// snapshot (textfile-collector style).
    pub prometheus_out: Option<PathBuf>,
    /// Span ring capacity in events (0 → [`DEFAULT_SPAN_CAPACITY`]).
    pub span_capacity: usize,
    /// Attach live `perf_event_open` hardware counters around the
    /// mini-batch sampling phase (`--hw-counters`).
    pub hw_counters: bool,
    /// Process display name for the trace's lane metadata (`None` keeps
    /// the single-process default, `marl-train`). Fleet processes set
    /// their role (`learner`, `worker-K`, `serve`) so the merged
    /// timeline labels each lane.
    pub process_name: Option<String>,
}

/// Everything the registry cannot see on its own at snapshot time.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotContext<'a> {
    /// Episode index the snapshot belongs to.
    pub episode: u64,
    /// Accumulated phase timings.
    pub profile: &'a PhaseProfile,
    /// Kernel-dispatch tallies (from `marl_nn::kernels::dispatch_tally`).
    pub kernels: KernelTally,
}

#[derive(Debug)]
struct Sinks {
    trace: Option<ChromeTraceWriter<BufWriter<File>>>,
    metrics: Option<BufWriter<File>>,
    drain_buf: Vec<SpanEvent>,
}

/// The attached telemetry runtime. See the module docs for the hot-path
/// versus episode-boundary split.
#[derive(Debug)]
pub struct Telemetry {
    /// Zero-allocation span recorder.
    pub tracer: SpanTracer,
    /// Atomic metrics registry.
    pub metrics: MetricsRegistry,
    hw: Mutex<Option<Box<dyn HwCounterSource>>>,
    sinks: Mutex<Sinks>,
    metrics_every: u64,
    prometheus_out: Option<PathBuf>,
}

fn sink_error(what: &str, err: &io::Error) {
    eprintln!("warning: telemetry {what} failed ({err}); disabling that sink");
}

impl Telemetry {
    /// Builds the telemetry runtime, opening the configured sinks and
    /// (when requested) the hardware-counter source.
    pub fn new(cfg: &TelemetryConfig) -> io::Result<Self> {
        let capacity =
            if cfg.span_capacity == 0 { DEFAULT_SPAN_CAPACITY } else { cfg.span_capacity };
        let trace = match &cfg.trace_out {
            Some(path) => {
                let file = BufWriter::new(File::create(path)?);
                Some(match &cfg.process_name {
                    Some(name) => ChromeTraceWriter::with_process(file, 1, name)?,
                    None => ChromeTraceWriter::new(file)?,
                })
            }
            None => None,
        };
        let metrics_file = match &cfg.metrics_out {
            Some(path) => Some(BufWriter::new(File::create(path)?)),
            None => None,
        };
        let metrics = MetricsRegistry::new();
        // Only keep a live source: the null fallback would add no data,
        // so skipping it keeps hw_window_* completely free in that case.
        let hw = if cfg.hw_counters {
            let src = open_hw_counter_source();
            if src.is_live() {
                metrics.hw_sampling.live.store(true, Ordering::Relaxed);
                Some(src)
            } else {
                None
            }
        } else {
            None
        };
        Ok(Telemetry {
            tracer: SpanTracer::new(capacity),
            metrics,
            hw: Mutex::new(hw),
            sinks: Mutex::new(Sinks { trace, metrics: metrics_file, drain_buf: Vec::new() }),
            metrics_every: cfg.metrics_every,
            prometheus_out: cfg.prometheus_out.clone(),
        })
    }

    /// Whether a live hardware-counter source is attached.
    pub fn hw_live(&self) -> bool {
        self.metrics.hw_sampling.live.load(Ordering::Relaxed)
    }

    /// Starts a hardware-counter window (call just before the measured
    /// region). Allocation-free; a no-op without `--hw-counters`.
    pub fn hw_window_begin(&self) {
        if let Some(src) = self.hw.lock().as_mut() {
            src.reset_and_enable();
        }
    }

    /// Ends a hardware-counter window and accumulates the deltas.
    /// Allocation-free; a no-op without `--hw-counters`.
    pub fn hw_window_end(&self) {
        let counters = self.hw.lock().as_mut().map(|src| src.disable_and_read());
        if let Some(counters) = counters {
            self.metrics.hw_sampling.add(&counters);
        }
    }

    /// Emits thread-name metadata for `n` agent update lanes (call once,
    /// before training).
    pub fn name_agent_lanes(&self, n: usize) {
        let mut sinks = self.sinks.lock();
        if let Some(trace) = sinks.trace.as_mut() {
            for k in 0..n {
                if let Err(err) = trace.name_agent_lane(k) {
                    sink_error("trace write", &err);
                    sinks.trace = None;
                    break;
                }
            }
        }
    }

    fn snapshot(&self, ctx: &SnapshotContext<'_>, fin: bool) -> MetricsSnapshot {
        self.metrics.snapshot(ctx.episode, fin, ctx.profile, ctx.kernels, self.tracer.dropped())
    }

    fn write_snapshot_line(sinks: &mut Sinks, snap: &MetricsSnapshot) {
        if let Some(file) = sinks.metrics.as_mut() {
            let line = serde_json::to_string(snap).expect("snapshot serializes");
            if let Err(err) = file
                .write_all(line.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.flush())
            {
                sink_error("metrics write", &err);
                sinks.metrics = None;
            }
        }
    }

    fn write_prometheus(&self, snap: &MetricsSnapshot) {
        if let Some(path) = &self.prometheus_out {
            if let Err(err) = std::fs::write(path, crate::prometheus::render(snap)) {
                sink_error("prometheus write", &err);
            }
        }
    }

    /// Episode-boundary hook: drains the span ring into the trace sink
    /// and, when the episode cadence is due, writes a JSONL metrics
    /// snapshot (and Prometheus file). May allocate.
    pub fn on_episode_end(&self, ctx: &SnapshotContext<'_>) {
        self.metrics.episodes.inc();
        let mut sinks = self.sinks.lock();
        let mut buf = std::mem::take(&mut sinks.drain_buf);
        buf.clear();
        self.tracer.drain_into(&mut buf);
        if let Some(trace) = sinks.trace.as_mut() {
            if let Err(err) = trace.write_events(&buf) {
                sink_error("trace write", &err);
                sinks.trace = None;
            }
        }
        sinks.drain_buf = buf;
        if self.metrics_every > 0 && ctx.episode.is_multiple_of(self.metrics_every) {
            let snap = self.snapshot(ctx, false);
            Self::write_snapshot_line(&mut sinks, &snap);
            drop(sinks);
            self.write_prometheus(&snap);
        }
    }

    /// End-of-training hook: drains any remaining spans, writes the
    /// final (`fin: true`) snapshot to every configured sink, and closes
    /// the trace file. Returns the final snapshot so callers can print
    /// from it. Idempotent on the trace sink.
    pub fn finish(&self, ctx: &SnapshotContext<'_>) -> MetricsSnapshot {
        let mut sinks = self.sinks.lock();
        let mut buf = std::mem::take(&mut sinks.drain_buf);
        buf.clear();
        self.tracer.drain_into(&mut buf);
        if let Some(trace) = sinks.trace.as_mut() {
            let result = trace.write_events(&buf).and_then(|()| trace.finish());
            if let Err(err) = result {
                sink_error("trace write", &err);
            }
            sinks.trace = None;
        }
        sinks.drain_buf = buf;
        let snap = self.snapshot(ctx, true);
        Self::write_snapshot_line(&mut sinks, &snap);
        drop(sinks);
        self.write_prometheus(&snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_perf::phase::Phase;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("marl-obs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn end_to_end_files_are_written() {
        let trace_path = tmp("trace.json");
        let metrics_path = tmp("metrics.jsonl");
        let prom_path = tmp("metrics.prom");
        let tel = Telemetry::new(&TelemetryConfig {
            trace_out: Some(trace_path.clone()),
            metrics_out: Some(metrics_path.clone()),
            metrics_every: 1,
            prometheus_out: Some(prom_path.clone()),
            span_capacity: 64,
            hw_counters: false,
            process_name: None,
        })
        .unwrap();
        tel.name_agent_lanes(2);
        tel.tracer.record("update-all-trainers", 0, 10, 20);
        tel.metrics.updates.inc();
        tel.metrics.run_length.record(8);
        let mut profile = PhaseProfile::new();
        profile.add(Phase::MiniBatchSampling, Duration::from_micros(500));
        let ctx =
            SnapshotContext { episode: 1, profile: &profile, kernels: KernelTally::default() };
        tel.on_episode_end(&ctx);
        let fin = tel.finish(&SnapshotContext { episode: 1, ..ctx });
        assert!(fin.fin);
        assert_eq!(fin.updates, 1);

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("update-all-trainers"));
        assert!(trace.trim_end().ends_with("]}"));
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        let lines: Vec<_> = metrics.lines().collect();
        assert_eq!(lines.len(), 2, "periodic + final snapshot");
        assert!(lines[1].contains("\"fin\":true"));
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("marl_updates_total 1"));
        for p in [trace_path, metrics_path, prom_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn no_sinks_is_fine() {
        let tel = Telemetry::new(&TelemetryConfig::default()).unwrap();
        tel.metrics.updates.inc();
        let profile = PhaseProfile::new();
        let ctx =
            SnapshotContext { episode: 0, profile: &profile, kernels: KernelTally::default() };
        tel.on_episode_end(&ctx);
        let snap = tel.finish(&ctx);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.episodes, 1);
    }

    #[test]
    fn hw_window_noop_without_counters() {
        let tel = Telemetry::new(&TelemetryConfig::default()).unwrap();
        tel.hw_window_begin();
        tel.hw_window_end();
        assert!(!tel.hw_live());
        assert_eq!(tel.metrics.hw_sampling.windows.get(), 0);
    }

    #[test]
    fn hw_window_accumulates_when_requested() {
        let tel =
            Telemetry::new(&TelemetryConfig { hw_counters: true, ..TelemetryConfig::default() })
                .unwrap();
        tel.hw_window_begin();
        tel.hw_window_end();
        // Windows accumulate only when a live source attached; under
        // seccomp/paranoid kernels the fallback keeps everything at zero.
        let expect = if tel.hw_live() { 1 } else { 0 };
        assert_eq!(tel.metrics.hw_sampling.windows.get(), expect);
    }
}
