//! `marl-worker` — rollout-worker process of the distributed runtime.
//!
//! ```text
//! marl-worker --worker-id N (--socket PATH | --tcp HOST:PORT)
//!             [--max-attempts K] [--backoff-base-ms B] [--backoff-cap-ms C]
//! ```
//!
//! Connects to a `marl-learner`, introduces itself, and rolls out
//! episodes from the configuration the learner's `Welcome` carries —
//! the worker itself takes no training flags, so a fleet can never
//! disagree with its learner about hyperparameters. Connection failures
//! retry with exponential backoff + jitter; after a mid-run failure the
//! worker reconnects with `resume: true` and is re-admitted from its
//! last episode boundary.
//!
//! Telemetry is environment-driven (the worker pool nulls worker stdout
//! and passes its own environment down): when
//! `MARL_WORKER_TELEMETRY_DIR` names a directory, the worker writes
//! `worker-<id>.trace.json` / `.metrics.jsonl` / `.prom` /
//! `.summary.json` there — trace contexts ride its frames and the
//! learner-relative clock offset is estimated from heartbeat acks.

use marl_repro::dist::{run_worker_traced, Backoff, DistError, StreamTransport, Transport};
use marl_repro::obs::{KernelTally, ProcessSummary, SnapshotContext, Telemetry, TelemetryConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Endpoint {
    Unix(String),
    Tcp(String),
}

/// With `--features failpoints`, `MARL_FAILPOINTS` arms transport
/// faults from the environment — which a supervising `marl-learner`
/// passes down to every worker it spawns, so a whole fleet can run a
/// chaos drill from one variable. Comma-separated `site=kind:arg[:skip]`
/// entries, e.g. `transport::send=bitflip:2000:3,transport::send=delay:50`
/// (faults on one site queue up and fire in order).
#[cfg(feature = "failpoints")]
fn arm_failpoints_from_env() {
    use marl_repro::algo::failpoint::{self, Fault};
    let Ok(spec) = std::env::var("MARL_FAILPOINTS") else { return };
    for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some((site, fault)) = entry.split_once('=') else {
            eprintln!("MARL_FAILPOINTS: ignoring malformed entry {entry:?}");
            continue;
        };
        let site: &'static str = match site {
            "transport::send" => "transport::send",
            "transport::recv" => "transport::recv",
            other => {
                eprintln!("MARL_FAILPOINTS: ignoring unknown site {other:?}");
                continue;
            }
        };
        let mut parts = fault.split(':');
        let kind = parts.next().unwrap_or("");
        let arg: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        let skip: u32 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        let fault = match kind {
            "delay" => Fault::Delay(arg),
            "bitflip" => Fault::BitFlip(arg as usize),
            "truncate" => Fault::Truncate(arg as usize),
            other => {
                eprintln!("MARL_FAILPOINTS: ignoring unknown fault {other:?}");
                continue;
            }
        };
        failpoint::arm_after(site, fault, skip);
        eprintln!("armed failpoint {site} = {fault:?} (skip {skip})");
    }
}

fn usage() {
    eprintln!(
        "usage: marl-worker --worker-id N (--socket PATH | --tcp HOST:PORT)\n\
         \x20                  [--max-attempts K] [--backoff-base-ms B] [--backoff-cap-ms C]\n\
         \x20                  [--resume]"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut worker_id: Option<u32> = None;
    let mut endpoint: Option<Endpoint> = None;
    let mut max_attempts = 10u32;
    let mut backoff_base_ms = 50u64;
    let mut backoff_cap_ms = 2_000u64;
    let mut resume = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        let parsed: Result<(), String> = (|| {
            match flag.as_str() {
                "--worker-id" => {
                    worker_id = Some(
                        value("--worker-id")?.parse().map_err(|_| "bad --worker-id".to_string())?,
                    );
                }
                "--socket" => endpoint = Some(Endpoint::Unix(value("--socket")?.clone())),
                "--tcp" => endpoint = Some(Endpoint::Tcp(value("--tcp")?.clone())),
                "--max-attempts" => {
                    max_attempts = value("--max-attempts")?
                        .parse()
                        .map_err(|_| "bad --max-attempts".to_string())?;
                }
                "--backoff-base-ms" => {
                    backoff_base_ms = value("--backoff-base-ms")?
                        .parse()
                        .map_err(|_| "bad --backoff-base-ms".to_string())?;
                }
                "--backoff-cap-ms" => {
                    backoff_cap_ms = value("--backoff-cap-ms")?
                        .parse()
                        .map_err(|_| "bad --backoff-cap-ms".to_string())?;
                }
                // Set by a supervising learner on respawn: introduce
                // ourselves with `resume: true` so the learner re-admits
                // from its last snapshot for this id.
                "--resume" => resume = true,
                "--help" | "-h" => return Err("help".into()),
                v => return Err(format!("unknown flag {v}")),
            }
            Ok(())
        })();
        if let Err(msg) = parsed {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg == "help" { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    }
    let (Some(worker_id), Some(endpoint)) = (worker_id, endpoint) else {
        eprintln!("error: --worker-id and one of --socket/--tcp are required\n");
        usage();
        return ExitCode::FAILURE;
    };

    let connect = || -> Result<Box<dyn Transport>, DistError> {
        Ok(match &endpoint {
            Endpoint::Unix(path) => {
                Box::new(StreamTransport::unix(std::os::unix::net::UnixStream::connect(path)?))
            }
            Endpoint::Tcp(addr) => {
                Box::new(StreamTransport::tcp(std::net::TcpStream::connect(addr.as_str())?))
            }
        })
    };
    #[cfg(feature = "failpoints")]
    arm_failpoints_from_env();

    // Jitter seeded by the worker id: retries of a restarted fleet are
    // reproducible and decorrelated across workers.
    let mut backoff = Backoff::new(
        Duration::from_millis(backoff_base_ms),
        Duration::from_millis(backoff_cap_ms),
        worker_id as u64,
    );
    let (telemetry_dir, telemetry) = telemetry_from_env(worker_id);
    let (stats, result) = run_worker_traced(
        worker_id,
        connect,
        &mut backoff,
        max_attempts,
        resume,
        telemetry.clone(),
    );
    // Artifacts are written whatever the outcome: a worker orphaned
    // mid-episode by a learner that reached its target still measured
    // real clock offsets and progress, and the fleet merge wants them.
    if let (Some(dir), Some(t)) = (&telemetry_dir, &telemetry) {
        write_artifacts(dir, worker_id, t, &stats);
    }
    match result {
        Ok(outcome) => {
            eprintln!("worker {worker_id}: done ({outcome:?})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("worker {worker_id}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Opens the environment-driven telemetry sinks (`None` when
/// `MARL_WORKER_TELEMETRY_DIR` is unset). Sink failures are reported and
/// telemetry is skipped — it never aborts rollout.
fn telemetry_from_env(worker_id: u32) -> (Option<PathBuf>, Option<Arc<Telemetry>>) {
    let Some(dir) = std::env::var_os("MARL_WORKER_TELEMETRY_DIR").map(PathBuf::from) else {
        return (None, None);
    };
    let cfg = TelemetryConfig {
        trace_out: Some(dir.join(format!("worker-{worker_id}.trace.json"))),
        metrics_out: Some(dir.join(format!("worker-{worker_id}.metrics.jsonl"))),
        prometheus_out: Some(dir.join(format!("worker-{worker_id}.prom"))),
        process_name: Some(format!("worker-{worker_id}")),
        ..TelemetryConfig::default()
    };
    match Telemetry::new(&cfg) {
        Ok(t) => (Some(dir), Some(Arc::new(t))),
        Err(e) => {
            eprintln!("worker {worker_id}: opening telemetry sinks failed ({e}); tracing off");
            (None, None)
        }
    }
}

/// Drains the trace, writes the final snapshot, and records the
/// single-line process summary the fleet orchestrator collects.
fn write_artifacts(
    dir: &std::path::Path,
    worker_id: u32,
    telemetry: &Telemetry,
    stats: &marl_repro::dist::WorkerStats,
) {
    let snap = telemetry.finish(&SnapshotContext {
        episode: stats.episodes_done,
        profile: &stats.profile,
        kernels: KernelTally::default(),
    });
    let summary = ProcessSummary {
        process: format!("worker-{worker_id}"),
        worker_id,
        epoch_unix_ns: telemetry.tracer.unix_anchor_ns(),
        clock_offset_ns: stats.clock_offset_ns,
        clock_rtt_ns: stats.clock_rtt_ns,
        clock_samples: stats.clock_samples,
        spans_dropped: snap.spans_dropped,
        episodes: stats.episodes_done,
        env_steps: stats.env_steps,
        requests: 0,
    };
    let line = serde_json::to_string(&summary).expect("summary serializes");
    let path = dir.join(format!("worker-{worker_id}.summary.json"));
    if let Err(e) = std::fs::write(&path, format!("{line}\n")) {
        eprintln!("worker {worker_id}: writing {} failed: {e}", path.display());
    }
}
