//! `marl-fleet` — multi-process bench orchestrator producing one
//! clock-aligned, Perfetto-loadable timeline for a whole fleet.
//!
//! ```text
//! marl-fleet --out DIR [--workers K] [--episodes E]
//!            [--serve-requests N] [--bin-dir DIR] [--no-serve]
//! ```
//!
//! Spawns a release-built `marl-learner` with `K` `marl-worker` child
//! processes over a Unix socket (worker telemetry rides the inherited
//! `MARL_WORKER_TELEMETRY_DIR` environment variable, since the worker
//! pool nulls worker stdout), then a `marl-serve` instance driven by an
//! in-process traced client. The serve leg is also the hot-reload drill:
//! `marl-serve` polls its checkpoint every 20 ms, and once half of the
//! requests are answered the client publishes a second checkpoint
//! generation (another seed, same architecture) and keeps sending until a
//! response carries model epoch ≥ 1, failing if none does within 10 s.
//! Every process drains its own span ring into
//! its own Chrome trace and writes its own metrics/Prometheus files;
//! the orchestrator collects each process's single-line JSON summary
//! (stdout for learner/serve, files for workers) and merges:
//!
//! * `fleet.trace.json` — one timeline, one lane per process, worker
//!   lanes shifted by their heartbeat-RTT clock offsets and serve/client
//!   lanes by their wall-clock anchors, with cross-process flow arrows
//!   (worker `steps-send` → learner `steps-ingest`, learner
//!   `params-send` → worker `params-recv`, client `infer-send` → serve
//!   `serve-recv`);
//! * `fleet.prom` — one Prometheus exposition with `process` /
//!   `worker_id` labels on every sample;
//! * `summary.json` — the per-process summaries, the trace merge stats,
//!   and fleet-wide histogram percentiles folded across processes
//!   (heartbeat RTT across workers, inference latency across
//!   serve+client).
//!
//! Exits nonzero when any process fails, the reload is never observed, or
//! the merged timeline is structurally broken: fewer lanes than
//! processes, or no paired cross-process flow event.

use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{self, KIND_INFER_RESP};
use marl_dist::StreamTransport;
use marl_obs::clock;
use marl_obs::context::{span_id, TraceCtx};
use marl_obs::fleet::{
    merge_chrome_traces, merge_prometheus, wall_clock_align_ns, MergeStats, ProcessSummary,
    ProcessTrace,
};
use marl_obs::metrics::{HistogramSnapshot, KernelTally, MetricsSnapshot};
use marl_obs::span::FlowDir;
use marl_obs::{SnapshotContext, Telemetry, TelemetryConfig};
use marl_perf::phase::PhaseProfile;
use marl_serve::proto;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Span-id actor index of the in-process serve client (distinct from
/// worker ids and the learner's actor).
const CLIENT_SPAN_ACTOR: u32 = 0x00FF_FFFD;

/// How long the client waits, after publishing the second checkpoint
/// generation, for a response served by it.
const RELOAD_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct Cli {
    out: PathBuf,
    workers: u32,
    episodes: usize,
    serve_requests: usize,
    bin_dir: Option<PathBuf>,
    no_serve: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut out: Option<PathBuf> = None;
    let mut workers = 2u32;
    let mut episodes = 8usize;
    let mut serve_requests = 64usize;
    let mut bin_dir: Option<PathBuf> = None;
    let mut no_serve = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--out" => out = Some(value("--out")?.into()),
            "--workers" => {
                workers = value("--workers")?.parse().map_err(|_| "bad --workers".to_string())?;
            }
            "--episodes" => {
                episodes =
                    value("--episodes")?.parse().map_err(|_| "bad --episodes".to_string())?;
            }
            "--serve-requests" => {
                serve_requests = value("--serve-requests")?
                    .parse()
                    .map_err(|_| "bad --serve-requests".to_string())?;
            }
            "--bin-dir" => bin_dir = Some(value("--bin-dir")?.into()),
            "--no-serve" => no_serve = true,
            "--help" | "-h" => return Err("help".into()),
            v => return Err(format!("unknown flag {v}")),
        }
    }
    let Some(out) = out else { return Err("--out is required".into()) };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(Cli { out, workers, episodes, serve_requests, bin_dir, no_serve })
}

fn usage() {
    eprintln!(
        "usage: marl-fleet --out DIR [--workers K] [--episodes E]\n\
         \x20                 [--serve-requests N] [--bin-dir DIR] [--no-serve]\n\
         \n\
         \x20 --out DIR           artifact directory (created if missing)\n\
         \x20 --bin-dir DIR       where marl-learner/marl-worker/marl-serve live\n\
         \x20                     (default: next to this binary)\n\
         \x20 --no-serve          skip the inference-serving leg"
    );
}

/// Everything `summary.json` carries.
#[derive(Debug, Serialize)]
struct FleetSummary {
    workers: u32,
    processes: Vec<ProcessSummary>,
    trace: MergeStats,
    /// Heartbeat round-trip percentiles folded across every worker.
    fleet_heartbeat_rtt_us: HistogramSnapshot,
    /// Inference latency percentiles folded across serve and the client.
    fleet_serve_latency_ns: HistogramSnapshot,
}

fn bin_path(cli: &Cli, name: &str) -> Result<PathBuf, String> {
    match &cli.bin_dir {
        Some(dir) => Ok(dir.join(name)),
        None => {
            let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            Ok(me.with_file_name(name))
        }
    }
}

/// The last stdout line that parses as a [`ProcessSummary`].
fn summary_from_stdout(stdout: &[u8], process: &str) -> Result<ProcessSummary, String> {
    let text = String::from_utf8_lossy(stdout);
    let mut found = None;
    for line in text.lines() {
        if line.starts_with('{') {
            if let Ok(s) = serde_json::from_str::<ProcessSummary>(line) {
                if !s.process.is_empty() {
                    found = Some(s);
                }
            }
        }
    }
    found.ok_or_else(|| format!("{process}: no process-summary line on stdout:\n{text}"))
}

/// The `fin: true` metrics snapshot at the end of a process's JSONL
/// stream (`None` when the file is missing or holds no snapshot).
fn fin_snapshot(path: &Path) -> Option<MetricsSnapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find_map(|line| serde_json::from_str::<MetricsSnapshot>(line).ok().filter(|s| s.fin))
}

fn read_trace(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Phase 1: learner + K worker processes over a Unix socket. Returns the
/// learner summary and, per worker, its file-reported summary.
fn run_training_leg(cli: &Cli) -> Result<(ProcessSummary, Vec<ProcessSummary>), String> {
    let learner_bin = bin_path(cli, "marl-learner")?;
    let worker_bin = bin_path(cli, "marl-worker")?;
    let socket = cli.out.join("learner.sock");
    println!(
        "fleet: training leg — 1 learner + {} workers on unix {}",
        cli.workers,
        socket.display()
    );
    let output = Command::new(&learner_bin)
        .arg("--socket")
        .arg(&socket)
        .arg("--workers")
        .arg(cli.workers.to_string())
        .arg("--worker-bin")
        .arg(&worker_bin)
        .arg("--episodes")
        .arg(cli.episodes.to_string())
        // A small batch and buffer, so short legs still reach an update and
        // a Params broadcast.
        .args(["--batch", "64", "--capacity", "20000"])
        .arg("--trace-out")
        .arg(cli.out.join("learner.trace.json"))
        .arg("--metrics-out")
        .arg(cli.out.join("learner.metrics.jsonl"))
        .arg("--prometheus-out")
        .arg(cli.out.join("learner.prom"))
        .env("MARL_WORKER_TELEMETRY_DIR", &cli.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", learner_bin.display()))?;
    if !output.status.success() {
        return Err(format!("marl-learner exited with {}", output.status));
    }
    let learner = summary_from_stdout(&output.stdout, "learner")?;
    let mut workers = Vec::new();
    for id in 0..cli.workers {
        let path = cli.out.join(format!("worker-{id}.summary.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let summary: ProcessSummary = serde_json::from_str(text.trim())
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        workers.push(summary);
    }
    Ok((learner, workers))
}

fn connect_unix(path: &Path) -> Result<StreamTransport, String> {
    for _ in 0..400 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(path) {
            return Ok(StreamTransport::unix(s).with_frame_deadline(Duration::from_secs(5)));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("serve never came up on {}", path.display()))
}

/// Phase 2: a `marl-serve` process driven by an in-process traced
/// client. Returns the serve and client summaries.
fn run_serve_leg(cli: &Cli) -> Result<(ProcessSummary, ProcessSummary), String> {
    let serve_bin = bin_path(cli, "marl-serve")?;
    let socket = cli.out.join("serve.sock");
    let ckpt_path = cli.out.join("fleet.marc");
    let model = marl_serve::PolicyModel::from_checkpoint(&write_policy(&ckpt_path, 3)?, 0);
    let obs_dims: Vec<usize> = (0..model.num_agents()).map(|a| model.obs_dim(a)).collect();

    println!(
        "fleet: serving leg — {} traced requests against unix {}",
        cli.serve_requests,
        socket.display()
    );
    let mut serve = Command::new(&serve_bin)
        .arg("--checkpoint")
        .arg(&ckpt_path)
        .arg("--socket")
        .arg(&socket)
        .arg("--reload-poll-ms")
        .arg("20")
        .arg("--trace-out")
        .arg(cli.out.join("serve.trace.json"))
        .arg("--metrics-out")
        .arg(cli.out.join("serve.metrics.jsonl"))
        .arg("--prometheus-out")
        .arg(cli.out.join("serve.prom"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?;

    let client_result = drive_client(cli, &socket, &ckpt_path, &obs_dims);
    if client_result.is_err() {
        // A failed client never sent the shutdown frame, so the server
        // would never exit on its own.
        let _ = serve.kill();
    }
    let output = serve.wait_with_output().map_err(|e| format!("waiting for marl-serve: {e}"))?;
    let client = client_result?;
    if !output.status.success() {
        return Err(format!("marl-serve exited with {}", output.status));
    }
    let serve_summary = summary_from_stdout(&output.stdout, "serve")?;
    Ok((serve_summary, client))
}

/// Writes a fresh (untrained) predator-prey policy for `seed` to `path`
/// with the atomic checkpoint writer (temp + rename, the live file
/// rotated to `.prev`) and returns it. The request path needs no trained
/// weights, and every seed gives the same architecture.
fn write_policy(path: &Path, seed: u64) -> Result<marl_algo::Checkpoint, String> {
    let config =
        TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_seed(seed);
    let ckpt = Trainer::new(config).map_err(|e| format!("building checkpoint: {e}"))?.checkpoint();
    marl_algo::write_checkpoint_file(path, &ckpt, &[])
        .map_err(|e| format!("writing checkpoint: {e}"))?;
    Ok(ckpt)
}

/// The in-process client: bursts of traced requests whose `infer-send`
/// flow spans pair with serve's `serve-recv` flows in the merge. Once
/// half of `--serve-requests` are answered it publishes generation 1 of
/// the checkpoint, then keeps sending until a response carries epoch ≥ 1.
fn drive_client(
    cli: &Cli,
    socket: &Path,
    ckpt_path: &Path,
    obs_dims: &[usize],
) -> Result<ProcessSummary, String> {
    let telemetry = Telemetry::new(&TelemetryConfig {
        trace_out: Some(cli.out.join("client.trace.json")),
        metrics_out: Some(cli.out.join("client.metrics.jsonl")),
        prometheus_out: Some(cli.out.join("client.prom")),
        process_name: Some("client".to_string()),
        ..TelemetryConfig::default()
    })
    .map_err(|e| format!("opening client telemetry: {e}"))?;
    let mut transport = connect_unix(socket)?;
    let obs: Vec<Vec<f32>> =
        obs_dims.iter().map(|&d| (0..d).map(|c| c as f32 * 0.05 - 0.2).collect()).collect();
    let mut frame = Vec::new();
    let mut logits = Vec::new();
    let mut answered = 0u64;
    let mut seq = 0u64;
    // When generation 1 was published, and whether a response served by
    // it has arrived.
    let mut published: Option<Instant> = None;
    let mut reloaded = false;
    const BURST: usize = 8;
    while (answered as usize) < cli.serve_requests || !reloaded {
        if published.is_none() && answered as usize >= cli.serve_requests / 2 {
            write_policy(ckpt_path, 4)?;
            published = Some(Instant::now());
        }
        if !reloaded && published.is_some_and(|at| at.elapsed() > RELOAD_DEADLINE) {
            return Err(format!(
                "no response from checkpoint generation 1 within {} s of publishing it",
                RELOAD_DEADLINE.as_secs()
            ));
        }
        let burst = BURST.min(cli.serve_requests.saturating_sub(answered as usize)).max(1);
        for _ in 0..burst {
            seq += 1;
            let agent = (seq % obs.len() as u64) as u32;
            let ctx = TraceCtx {
                trace_id: 0xF1EE7,
                span_id: span_id(CLIENT_SPAN_ACTOR, seq),
                send_ns: clock::now_ns(),
            };
            proto::encode_request(seq, agent, &obs[agent as usize], ctx, &mut frame);
            transport.send_raw(&frame).map_err(|e| format!("send: {e}"))?;
        }
        let mut got = 0usize;
        while got < burst {
            let kind = transport
                .recv_raw_into(&mut frame, Duration::from_secs(5))
                .map_err(|e| format!("recv: {e}"))?;
            let recv_ns = clock::now_ns();
            if kind != KIND_INFER_RESP {
                continue;
            }
            let resp = proto::decode_response_into(&frame[wire::HEADER_LEN..], &mut logits)
                .map_err(|e| format!("decode: {e}"))?;
            if resp.epoch >= 1 && !reloaded {
                reloaded = true;
                println!(
                    "fleet: request {} answered by reloaded epoch {}",
                    resp.req_id, resp.epoch
                );
            }
            // The request-send span: one `s` flow per request, paired by
            // span id with serve's `serve-recv` `f` flow.
            telemetry.tracer.record_flow(
                "infer-send",
                0,
                resp.ctx.send_ns,
                recv_ns,
                resp.ctx.span_id,
                FlowDir::Out,
            );
            telemetry.metrics.serve_requests.inc();
            telemetry.metrics.serve_latency_ns.record(recv_ns.saturating_sub(resp.ctx.send_ns));
            got += 1;
            answered += 1;
        }
    }
    proto::encode_ctl(proto::CTL_SHUTDOWN, &mut frame);
    transport.send_raw(&frame).map_err(|e| format!("send shutdown: {e}"))?;
    let snap = telemetry.finish(&SnapshotContext {
        episode: 0,
        profile: &PhaseProfile::new(),
        kernels: KernelTally::default(),
    });
    Ok(ProcessSummary {
        process: "client".to_string(),
        epoch_unix_ns: telemetry.tracer.unix_anchor_ns(),
        spans_dropped: snap.spans_dropped,
        requests: answered,
        ..ProcessSummary::default()
    })
}

fn run(cli: &Cli) -> Result<(), String> {
    std::fs::create_dir_all(&cli.out)
        .map_err(|e| format!("creating {}: {e}", cli.out.display()))?;
    let (learner, workers) = run_training_leg(cli)?;
    let serve_pair = if cli.no_serve { None } else { Some(run_serve_leg(cli)?) };

    // Assemble the merge inputs, aligning every lane onto the learner's
    // process clock: workers by their RTT-estimated offsets (exactly the
    // learner-minus-worker convention ClockOffset reports), serve and the
    // client by their wall-clock anchors (the coarse fallback — no
    // heartbeat path runs between them and the learner).
    let mut inputs = vec![ProcessTrace {
        name: "learner".to_string(),
        json: read_trace(&cli.out.join("learner.trace.json"))?,
        align_ns: 0,
    }];
    let mut processes = vec![learner.clone()];
    for w in &workers {
        inputs.push(ProcessTrace {
            name: w.process.clone(),
            json: read_trace(&cli.out.join(format!("{}.trace.json", w.process)))?,
            align_ns: w.clock_offset_ns,
        });
        processes.push(w.clone());
    }
    if let Some((serve, client)) = &serve_pair {
        for s in [serve, client] {
            inputs.push(ProcessTrace {
                name: s.process.clone(),
                json: read_trace(&cli.out.join(format!("{}.trace.json", s.process)))?,
                align_ns: wall_clock_align_ns(s.epoch_unix_ns, learner.epoch_unix_ns),
            });
            processes.push(s.clone());
        }
    }
    let trace_path = cli.out.join("fleet.trace.json");
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&trace_path)
            .map_err(|e| format!("creating {}: {e}", trace_path.display()))?,
    );
    let stats =
        merge_chrome_traces(&inputs, &mut out).map_err(|e| format!("merging traces: {e}"))?;
    drop(out);

    // Fleet Prometheus exposition: every per-process file, labelled.
    let mut proms = Vec::new();
    for p in &processes {
        let path = cli.out.join(format!("{}.prom", p.process));
        if let Ok(text) = std::fs::read_to_string(&path) {
            proms.push((p.process.clone(), text));
        }
    }
    let prom_path = cli.out.join("fleet.prom");
    std::fs::write(&prom_path, merge_prometheus(&proms))
        .map_err(|e| format!("writing {}: {e}", prom_path.display()))?;

    // Fleet-wide percentiles: fold the fin-snapshot histograms across
    // processes (log-linear buckets add associatively).
    let mut fleet_rtt = HistogramSnapshot::default();
    let mut fleet_latency = HistogramSnapshot::default();
    for p in &processes {
        if let Some(snap) = fin_snapshot(&cli.out.join(format!("{}.metrics.jsonl", p.process))) {
            fleet_rtt.merge(&snap.heartbeat_rtt_us);
            fleet_latency.merge(&snap.serve_latency_ns);
        }
    }

    let summary = FleetSummary {
        workers: cli.workers,
        processes,
        trace: stats,
        fleet_heartbeat_rtt_us: fleet_rtt,
        fleet_serve_latency_ns: fleet_latency,
    };
    let summary_path = cli.out.join("summary.json");
    let json = serde_json::to_string(&summary).expect("summary serializes");
    std::fs::write(&summary_path, format!("{json}\n"))
        .map_err(|e| format!("writing {}: {e}", summary_path.display()))?;

    println!(
        "fleet: merged {} lanes | {} spans | {} flow starts | {} flow finishes | {} paired",
        stats.lanes, stats.events, stats.flow_starts, stats.flow_finishes, stats.paired_flows
    );
    println!(
        "fleet: heartbeat rtt p99 {} µs ({} samples) | serve latency p99 {} ns ({} samples)",
        summary.fleet_heartbeat_rtt_us.p99,
        summary.fleet_heartbeat_rtt_us.count,
        summary.fleet_serve_latency_ns.p99,
        summary.fleet_serve_latency_ns.count
    );
    println!("fleet: wrote {}", summary_path.display());

    // Structural gates: a lane per process and at least one rendered
    // cross-process arrow, or the timeline is not telling the story.
    if stats.lanes != summary.processes.len() {
        return Err(format!(
            "merged {} lanes for {} processes",
            stats.lanes,
            summary.processes.len()
        ));
    }
    if stats.paired_flows == 0 {
        return Err("no cross-process flow event paired in the merged trace".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(v) => v,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg == "help" { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
