//! Cross-process tracing end to end over the lockstep loopback: a
//! traced learner and a traced worker each drain their own Chrome
//! trace, the fleet merger combines them, and every worker `steps-send`
//! flow pairs with exactly one learner `steps-ingest` flow in the
//! merged timeline. Also pins the bitwise guarantee: attaching tracing
//! to both sides of the wire changes nothing about training.

use marl_repro::algo::{Algorithm, Task, TrainConfig};
use marl_repro::dist::{
    loopback_pair, run_worker_traced, Backoff, DistError, Learner, LearnerOptions, Transport,
};
use marl_repro::obs::fleet::{merge_chrome_traces, ProcessTrace};
use marl_repro::obs::{KernelTally, SnapshotContext, Telemetry, TelemetryConfig};
use marl_repro::perf::phase::PhaseProfile;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("marl-fleet-trace-{}-{name}", std::process::id()))
}

fn config() -> TrainConfig {
    let mut c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_episodes(6)
        .with_batch_size(32)
        .with_seed(9);
    // Same short-run warmup policy as the marl-learner binary; with the
    // small batch the 150-step run reaches an update (and therefore a
    // Params broadcast).
    c.warmup = (2 * c.batch_size).clamp(c.batch_size, c.buffer_capacity / 2).max(c.batch_size);
    c
}

fn trace_telemetry(path: &Path, process: &str) -> Arc<Telemetry> {
    Arc::new(
        Telemetry::new(&TelemetryConfig {
            trace_out: Some(path.to_path_buf()),
            process_name: Some(process.to_string()),
            ..TelemetryConfig::default()
        })
        .expect("telemetry opens"),
    )
}

/// One lockstep run over the in-process loopback; with `traced`, both
/// sides carry telemetry. Returns the learner's end-of-run checkpoint
/// (serialized) and, when traced, the two trace files' contents.
fn lockstep(traced: bool, tag: &str) -> (String, Option<(String, String)>) {
    let learner_path = tmp(&format!("{tag}-learner.trace.json"));
    let worker_path = tmp(&format!("{tag}-worker.trace.json"));
    let learner_tel = traced.then(|| trace_telemetry(&learner_path, "learner"));
    let worker_tel = traced.then(|| trace_telemetry(&worker_path, "worker-0"));

    let mut learner = Learner::new(config(), LearnerOptions::default()).expect("learner");
    if let Some(t) = &learner_tel {
        learner.trainer_mut().attach_telemetry(Arc::clone(t));
    }
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let wt = worker_tel.clone();
    let handle = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 0);
        run_worker_traced(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
            false,
            wt,
        )
    });
    learner.serve_lockstep(&mut learner_end).expect("lockstep serves");
    let (stats, result) = handle.join().expect("worker thread");
    result.expect("worker runs");
    if traced {
        assert!(stats.env_steps > 0, "traced worker reports progress");
    }

    let profile = PhaseProfile::new();
    let ctx = SnapshotContext { episode: 6, profile: &profile, kernels: KernelTally::default() };
    for t in learner_tel.iter().chain(worker_tel.iter()) {
        t.finish(&ctx);
    }
    let ckpt = serde_json::to_string(&learner.trainer().checkpoint()).expect("serializes");
    let traces = traced.then(|| {
        let l = std::fs::read_to_string(&learner_path).expect("learner trace");
        let w = std::fs::read_to_string(&worker_path).expect("worker trace");
        let _ = std::fs::remove_file(&learner_path);
        let _ = std::fs::remove_file(&worker_path);
        (l, w)
    });
    (ckpt, traces)
}

/// Flow ids of every `ph:"s"` (flow-start) event in a trace.
fn flow_start_ids(trace: &str) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut rest = trace;
    while let Some(at) = rest.find("\"ph\":\"s\",\"id\":") {
        rest = &rest[at + "\"ph\":\"s\",\"id\":".len()..];
        let end = rest.find(',').expect("id is followed by ts");
        ids.push(rest[..end].parse().expect("numeric flow id"));
    }
    ids
}

#[test]
fn traced_lockstep_is_bitwise_identical_to_untraced() {
    let (untraced, _) = lockstep(false, "plain");
    let (traced, _) = lockstep(true, "traced");
    assert_eq!(
        untraced, traced,
        "attaching tracing to both sides of the wire must not change training"
    );
}

#[test]
fn every_worker_send_pairs_with_exactly_one_learner_ingest() {
    let (_ckpt, traces) = lockstep(true, "pairing");
    let (learner_trace, worker_trace) = traces.expect("traced run produces traces");

    let send_ids = flow_start_ids(&worker_trace);
    assert!(!send_ids.is_empty(), "worker recorded steps-send flows");
    // The other direction: the context a binary `Params` frame carries
    // must reach the worker's `params-recv` marker.
    let params_ids = flow_start_ids(&learner_trace);
    assert!(!params_ids.is_empty(), "learner recorded params-send flows");

    let inputs = [
        ProcessTrace { name: "worker-0".into(), json: worker_trace, align_ns: 0 },
        ProcessTrace { name: "learner".into(), json: learner_trace, align_ns: 0 },
    ];
    let mut merged = Vec::new();
    let stats = merge_chrome_traces(&inputs, &mut merged).expect("merge");
    let merged = String::from_utf8(merged).expect("utf8");

    assert_eq!(stats.lanes, 2);
    assert!(
        stats.paired_flows >= send_ids.len(),
        "every send must pair: {} paired of {} sends",
        stats.paired_flows,
        send_ids.len()
    );
    for id in send_ids.iter().chain(&params_ids) {
        // The id shows up exactly twice: the sender's `s` and the
        // receiver's `f` (the trailing comma keeps 42 from matching
        // 420).
        let needle = format!("\"id\":{id},");
        assert_eq!(
            merged.matches(&needle).count(),
            2,
            "flow {id} must appear once per side of the wire"
        );
    }
    // Both lanes survived the merge under their role names.
    assert!(merged.contains("\"args\":{\"name\":\"worker-0\"}"));
    assert!(merged.contains("\"args\":{\"name\":\"learner\"}"));
}
