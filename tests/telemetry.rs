//! End-to-end checks for the runtime telemetry layer (PR 4):
//!
//! * a short training run with every sink attached produces a
//!   Chrome-trace JSON file that parses and contains the expected span
//!   lanes, at least one JSONL metrics snapshot with phase timings and
//!   sampler histograms, and a Prometheus text exposition;
//! * telemetry is an observer only — training with all sinks attached is
//!   bitwise identical (checkpoint + replay bytes) to training without;
//! * the telemetry cost is guarded by a count, not a timing: the spans
//!   one update and one episode record are pinned exactly, so a span
//!   added inside an inner loop fails here deterministically, where a
//!   timing budget on a shared host could not.
//!
//! The span arithmetic, for N agents, K worlds and episodes of
//! `max_episode_len` = T steps, at every `update_threads` and every K:
//!
//! | recorded by                | span                  | count |
//! |----------------------------|-----------------------|-------|
//! | one `update_all_trainers`  | `mini-batch-sampling` | 1     |
//! |                            | `target-q-shared`     | 1     |
//! |                            | `agent-update`        | N     |
//! |                            | `soft-update`         | 1     |
//! |                            | `update-all-trainers` | 1     |
//! | one episode with no update | `episode`             | 1     |
//! |                            | `vec-env-step`        | T     |
//!
//! That is N + 4 per update and 1 + T per episode: one `vec-env-step`
//! steps all K worlds at once. MATD3's critic-only iterations still
//! record every span (the soft update is skipped, its span is not), and
//! none is dropped.

use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::obs::{
    KernelTally, MetricsSnapshot, SnapshotContext, SpanEvent, Telemetry, TelemetryConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chrome trace-event metadata payload (`{"name": "trainer"}`).
#[derive(Debug, Default, Serialize, Deserialize)]
struct TraceArgs {
    #[serde(default)]
    name: String,
}

/// One entry of `traceEvents`. `ts`/`dur` are absent on "M" metadata
/// rows and `args` is absent on "X" spans, so both default.
#[derive(Debug, Serialize, Deserialize)]
struct TraceEvent {
    name: String,
    #[serde(default)]
    cat: String,
    ph: String,
    #[serde(default)]
    ts: f64,
    #[serde(default)]
    dur: f64,
    pid: u32,
    tid: u32,
    #[serde(default)]
    args: TraceArgs,
}

/// Top-level Chrome trace object. The field name is dictated by the
/// trace-event format, which uses camelCase.
#[allow(non_snake_case)]
#[derive(Debug, Serialize, Deserialize)]
struct TraceFile {
    traceEvents: Vec<TraceEvent>,
}

mod common;

fn short_config(seed: u64) -> TrainConfig {
    common::seeded_config(
        Algorithm::Maddpg,
        Task::PredatorPrey,
        3,
        SamplerConfig::Per,
        24,
        32,
        2048,
        seed,
    )
}

/// Trains with the given telemetry attachment and returns the
/// checkpoint JSON plus replay bytes — the full observable model state.
/// The embedded phase profile is wall-clock time, non-deterministic
/// between *any* two runs, so it is zeroed before fingerprinting.
fn train_fingerprint(tel: Option<Arc<Telemetry>>) -> (String, Vec<u8>) {
    let mut t = Trainer::new(short_config(11)).unwrap();
    if let Some(tel) = &tel {
        t.attach_telemetry(Arc::clone(tel));
    }
    let report = t.train().unwrap();
    assert!(report.update_iterations > 0, "run too short to exercise the update path");
    if let Some(tel) = &tel {
        tel.finish(&SnapshotContext {
            episode: report.curve.len() as u64,
            profile: &report.profile,
            kernels: KernelTally::default(),
        });
    }
    let (mut ckpt, replay) = t.checkpoint_full();
    if let Some(run) = ckpt.run.as_mut() {
        run.profile = marl_repro::perf::PhaseProfile::default();
    }
    (serde_json::to_string(&ckpt).unwrap(), replay)
}

#[test]
fn trace_and_metrics_files_are_valid_and_complete() {
    let dir = std::env::temp_dir().join(format!("marl_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let metrics_path = dir.join("metrics.jsonl");
    let prom_path = dir.join("metrics.prom");

    let cfg = TelemetryConfig {
        trace_out: Some(trace_path.clone()),
        metrics_out: Some(metrics_path.clone()),
        metrics_every: 8,
        prometheus_out: Some(prom_path.clone()),
        hw_counters: true, // falls back to the null source when denied
        ..TelemetryConfig::default()
    };
    let tel = Arc::new(Telemetry::new(&cfg).unwrap());
    train_fingerprint(Some(Arc::clone(&tel)));

    // --- Chrome trace: parses, has the lanes and spans we emit. ---
    let raw = std::fs::read_to_string(&trace_path).unwrap();
    let trace: TraceFile = serde_json::from_str(&raw).unwrap();
    assert!(!trace.traceEvents.is_empty());
    let meta_names: Vec<&str> =
        trace.traceEvents.iter().filter(|e| e.ph == "M").map(|e| e.args.name.as_str()).collect();
    assert!(meta_names.contains(&"trainer"));
    assert!(meta_names.contains(&"agent-0"));
    assert!(meta_names.contains(&"agent-2"));
    let span_names: Vec<&str> =
        trace.traceEvents.iter().filter(|e| e.ph == "X").map(|e| e.name.as_str()).collect();
    for expected in
        ["episode", "mini-batch-sampling", "target-q-shared", "agent-update", "update-all-trainers"]
    {
        assert!(span_names.contains(&expected), "trace is missing span {expected}");
    }
    for e in trace.traceEvents.iter().filter(|e| e.ph == "X") {
        assert!(e.ts >= 0.0 && e.dur >= 0.0, "negative timestamp in {}", e.name);
        assert_eq!(e.pid, 1);
        assert_eq!(e.cat, "marl");
    }
    // Agent-update spans land on the per-agent lanes (tid 1..=3).
    assert!(
        trace
            .traceEvents
            .iter()
            .any(|e| e.ph == "X" && e.name == "agent-update" && (1..=3).contains(&e.tid)),
        "agent-update spans must use the agent lanes"
    );

    // --- Metrics JSONL: periodic snapshots plus a final `fin` one. ---
    let raw = std::fs::read_to_string(&metrics_path).unwrap();
    let snaps: Vec<MetricsSnapshot> =
        raw.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
    assert!(snaps.len() >= 2, "expected periodic + final snapshots, got {}", snaps.len());
    let last = snaps.last().unwrap();
    assert!(last.fin, "last JSONL line must be the final snapshot");
    assert!(snaps.iter().rev().skip(1).all(|s| !s.fin));
    assert!(!last.phases.is_empty(), "final snapshot must embed the phase breakdown");
    let share_sum: f64 = last.phases.iter().map(|p| p.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "phase shares must sum to 1, got {share_sum}");
    assert!(last.run_length.count > 0, "PER sampling must record run lengths");
    assert!(last.norm_priority.count > 0, "PER sampling must record normalized priorities");
    assert!(last.is_weight.count > 0, "PER sampling must record IS weights");
    assert!(last.replay_occupancy > 0.0 && last.replay_occupancy <= 1.0);
    assert!(last.updates > 0 && last.update_ns.count == last.updates);
    assert_eq!(last.spans_dropped, 0, "default ring must not drop spans on a short run");

    // --- Prometheus exposition: well-formed families for key series. ---
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    for needle in [
        "# TYPE marl_episodes_total counter",
        "# TYPE marl_run_length histogram",
        "marl_run_length_bucket{le=\"+Inf\"}",
        "marl_replay_occupancy ",
        "marl_phase_ns_total{phase=\"mini-batch-sampling\"}",
    ] {
        assert!(prom.contains(needle), "prometheus output is missing {needle}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_does_not_perturb_training() {
    let dir = std::env::temp_dir().join(format!("marl_telemetry_det_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = TelemetryConfig {
        trace_out: Some(dir.join("trace.json")),
        metrics_out: Some(dir.join("metrics.jsonl")),
        metrics_every: 4,
        prometheus_out: Some(dir.join("metrics.prom")),
        hw_counters: true,
        ..TelemetryConfig::default()
    };
    let tel = Arc::new(Telemetry::new(&cfg).unwrap());

    let (ckpt_on, replay_on) = train_fingerprint(Some(tel));
    let (ckpt_off, replay_off) = train_fingerprint(None);

    assert_eq!(ckpt_on, ckpt_off, "telemetry must not change the trained model");
    assert_eq!(replay_on, replay_off, "telemetry must not change the replay stream");

    std::fs::remove_dir_all(&dir).ok();
}

/// Label → count of every span the tracer holds, draining it.
fn drain_span_counts(tel: &Telemetry) -> BTreeMap<&'static str, usize> {
    let mut events: Vec<SpanEvent> = Vec::new();
    tel.tracer.drain_into(&mut events);
    let mut counts = BTreeMap::new();
    for e in &events {
        *counts.entry(e.label).or_insert(0) += 1;
    }
    counts
}

#[test]
fn one_update_and_one_episode_record_exactly_their_spans() {
    const N: usize = 3;
    for (algorithm, task) in
        [(Algorithm::Maddpg, Task::PredatorPrey), (Algorithm::Matd3, Task::CooperativeNavigation)]
    {
        for threads in [1, 2] {
            let cfg = TrainConfig::paper_defaults(algorithm, task, N)
                .with_batch_size(32)
                .with_buffer_capacity(4096)
                .with_update_threads(threads)
                .with_seed(5);
            let case = format!("{algorithm:?} {task:?} update_threads={threads}");

            let mut t = Trainer::new(cfg).unwrap();
            t.prefill(256).unwrap();
            let tel = Arc::new(Telemetry::new(&TelemetryConfig::default()).unwrap());
            t.attach_telemetry(Arc::clone(&tel));
            // Two updates: MATD3's second one is a critic-only iteration.
            for update in 0..2 {
                t.update_all_trainers().unwrap();
                let expected = BTreeMap::from([
                    ("agent-update", N),
                    ("mini-batch-sampling", 1),
                    ("soft-update", 1),
                    ("target-q-shared", 1),
                    ("update-all-trainers", 1),
                ]);
                assert_eq!(drain_span_counts(&tel), expected, "{case}, update {update}");
            }
            assert_eq!(tel.tracer.dropped(), 0, "{case}");

            for k in [1, 8] {
                let mut cfg = cfg.with_num_envs(k);
                cfg.warmup = usize::MAX;
                let mut t = Trainer::new(cfg).unwrap();
                let tel = Arc::new(Telemetry::new(&TelemetryConfig::default()).unwrap());
                t.attach_telemetry(Arc::clone(&tel));
                t.run_episode().unwrap();
                let expected =
                    BTreeMap::from([("episode", 1), ("vec-env-step", cfg.max_episode_len)]);
                assert_eq!(drain_span_counts(&tel), expected, "{case}, K={k} episode");
                assert_eq!(tel.tracer.dropped(), 0, "{case}, K={k}");
            }
        }
    }
}
