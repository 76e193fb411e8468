//! `marl-serve` — micro-batched policy inference server.
//!
//! ```text
//! marl-serve --checkpoint FILE (--socket PATH | --tcp HOST:PORT)
//!            [--max-batch B] [--queue-capacity Q]
//!            [--frame-deadline-ms MS] [--reload-poll-ms MS]
//!            [--metrics-out FILE] [--prometheus-out FILE]
//!            [--trace-out FILE]
//! ```
//!
//! Loads the MARC checkpoint (with its `.prev` crash-safety fallback),
//! binds the listener, and serves observation → greedy-action requests
//! until a client sends a `CTL_SHUTDOWN` frame. The batcher is
//! work-conserving: a request that finds the engine free is answered at
//! once, and requests that arrive while a forward is running coalesce
//! into the next micro-batch (at most `--max-batch`); batching is
//! bitwise-invisible to clients. `--reload-poll-ms` enables hot reload:
//! when the checkpoint file changes, the new model (same architecture)
//! is swapped in between batches — in-flight requests still get answers
//! from the generation that admitted them, and every response carries
//! the serving generation (`epoch`).
//!
//! On exit the final metrics snapshot is printed; `--metrics-out`
//! additionally appends it as JSONL and `--prometheus-out` writes the
//! Prometheus text exposition. `--trace-out` attaches a span tracer to
//! the combining readers: each batched forward becomes a `serve-forward`
//! span, every traced request (trace-context trailer set) gets a
//! `serve-recv` flow event pairing with the client's send, and the file
//! is a Chrome/Perfetto trace with a `serve` process lane. The last
//! stdout line is the single-line process summary the fleet
//! orchestrator parses.

use marl_obs::metrics::{KernelTally, MetricsRegistry};
use marl_obs::{ProcessSummary, SnapshotContext, Telemetry, TelemetryConfig};
use marl_perf::phase::PhaseProfile;
use marl_serve::{PolicyModel, ServeConfig, ServeListener, Server};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn parse_num(v: &str) -> Result<u64, CliError> {
    v.parse().map_err(|_| CliError(format!("not a number: {v}")))
}

#[derive(Debug, Clone)]
enum Bind {
    Unix(PathBuf),
    Tcp(String),
}

#[derive(Debug)]
struct Cli {
    checkpoint: PathBuf,
    bind: Bind,
    config: ServeConfig,
    metrics_out: Option<PathBuf>,
    prometheus_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut checkpoint: Option<PathBuf> = None;
    let mut bind: Option<Bind> = None;
    let mut config = ServeConfig::default();
    let mut metrics_out = None;
    let mut prometheus_out = None;
    let mut trace_out = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next().ok_or_else(|| CliError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?.into()),
            "--socket" => bind = Some(Bind::Unix(value("--socket")?.into())),
            "--tcp" => bind = Some(Bind::Tcp(value("--tcp")?.clone())),
            "--max-batch" => config.max_batch = parse_num(value("--max-batch")?)? as usize,
            "--queue-capacity" => {
                config.queue_capacity = parse_num(value("--queue-capacity")?)? as usize;
            }
            "--frame-deadline-ms" => {
                config.frame_deadline =
                    Duration::from_millis(parse_num(value("--frame-deadline-ms")?)?);
            }
            "--reload-poll-ms" => {
                config.reload_poll =
                    Some(Duration::from_millis(parse_num(value("--reload-poll-ms")?)?));
            }
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?.into()),
            "--prometheus-out" => prometheus_out = Some(value("--prometheus-out")?.into()),
            "--trace-out" => trace_out = Some(value("--trace-out")?.into()),
            "--help" | "-h" => return Err(CliError("help".into())),
            v => return Err(CliError(format!("unknown flag {v}"))),
        }
    }
    let Some(checkpoint) = checkpoint else {
        return Err(CliError("--checkpoint is required".into()));
    };
    let Some(bind) = bind else {
        return Err(CliError("one of --socket/--tcp is required".into()));
    };
    if config.max_batch == 0 {
        return Err(CliError("--max-batch must be at least 1".into()));
    }
    if config.queue_capacity < config.max_batch {
        return Err(CliError("--queue-capacity must hold at least one batch".into()));
    }
    Ok(Cli { checkpoint, bind, config, metrics_out, prometheus_out, trace_out })
}

fn usage() {
    eprintln!(
        "usage: marl-serve --checkpoint FILE (--socket PATH | --tcp HOST:PORT)\n\
         \x20                 [--max-batch B] [--queue-capacity Q]\n\
         \x20                 [--frame-deadline-ms MS] [--reload-poll-ms MS]\n\
         \x20                 [--metrics-out FILE] [--prometheus-out FILE]\n\
         \x20                 [--trace-out FILE]\n\
         \n\
         \x20 --max-batch B        largest micro-batch; a free engine flushes whatever\n\
         \x20                      is queued at once (default 32)\n\
         \x20 --reload-poll-ms MS  watch --checkpoint and hot-swap same-architecture\n\
         \x20                      updates without dropping in-flight requests\n\
         \n\
         Runs until a client sends a CTL_SHUTDOWN control frame."
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(v) => v,
        Err(CliError(msg)) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg == "help" { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };

    let (model, fell_back) = match PolicyModel::load(&cli.checkpoint, 0) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: loading {}: {e}", cli.checkpoint.display());
            return ExitCode::FAILURE;
        }
    };
    if fell_back {
        eprintln!("warning: checkpoint corrupt, serving its .prev fallback");
    }
    println!(
        "serving {} agents (checkpoint @ {} update iterations) on {}",
        model.num_agents(),
        model.update_iterations,
        match &cli.bind {
            Bind::Unix(p) => format!("unix {}", p.display()),
            Bind::Tcp(a) => format!("tcp {a}"),
        }
    );
    println!(
        "micro-batching: flush when the engine is free, up to {} requests | queue {}{}",
        cli.config.max_batch,
        cli.config.queue_capacity,
        match cli.config.reload_poll {
            Some(d) => format!(" | hot reload every {} ms", d.as_millis()),
            None => String::new(),
        }
    );

    let listener = match &cli.bind {
        Bind::Unix(path) => ServeListener::unix(path),
        Bind::Tcp(addr) => ServeListener::tcp(addr),
    };
    let listener = match listener {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = listener.local_addr() {
        println!("listening on tcp {addr}");
    }

    let telemetry: Option<Arc<Telemetry>> = match &cli.trace_out {
        Some(path) => {
            let cfg = TelemetryConfig {
                trace_out: Some(path.clone()),
                process_name: Some("serve".to_string()),
                ..TelemetryConfig::default()
            };
            match Telemetry::new(&cfg) {
                Ok(t) => Some(Arc::new(t)),
                Err(e) => {
                    eprintln!("error: opening trace sink failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let server = Server::start_traced(
        listener,
        model,
        cli.config.clone(),
        Arc::clone(&metrics),
        Some(cli.checkpoint.clone()),
        telemetry.clone(),
    );
    // Blocks until a CTL_SHUTDOWN frame arrives and the drain completes:
    // every admitted request is answered before wait() returns.
    server.wait();

    let spans_dropped = telemetry.as_ref().map_or(0, |t| t.tracer.dropped());
    let snap =
        metrics.snapshot(0, true, &PhaseProfile::new(), KernelTally::default(), spans_dropped);
    println!(
        "served {} requests | {} errors | {} reloads | p50 {} ns | p99 {} ns | max {} ns",
        snap.serve_requests,
        snap.serve_errors,
        snap.serve_reloads,
        snap.serve_latency_ns.p50,
        snap.serve_latency_ns.p99,
        snap.serve_latency_ns.max,
    );
    if let Some(path) = &cli.metrics_out {
        let line = serde_json::to_string(&snap).expect("snapshot serializes");
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = write {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.prometheus_out {
        if let Err(e) = std::fs::write(path, marl_obs::prometheus::render(&snap)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Drain the trace sink, then report the single-line process summary
    // the fleet orchestrator parses — keep it the last line printed.
    let epoch_unix_ns = telemetry.as_ref().map_or(0, |t| t.tracer.unix_anchor_ns());
    if let Some(t) = &telemetry {
        let _ = t.finish(&SnapshotContext {
            episode: 0,
            profile: &PhaseProfile::new(),
            kernels: KernelTally::default(),
        });
    }
    let summary = ProcessSummary {
        process: "serve".to_string(),
        epoch_unix_ns,
        spans_dropped,
        requests: snap.serve_requests,
        ..ProcessSummary::default()
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn rejects(args: &[&str], reason: &str) {
        match parse(args) {
            Ok(cli) => panic!("{args:?} parsed: {cli:?}"),
            Err(CliError(msg)) => assert!(msg.contains(reason), "{args:?}: {msg}"),
        }
    }

    #[test]
    fn every_flag_is_accepted() {
        let cli = parse(&[
            "--checkpoint",
            "m.marc",
            "--socket",
            "s.sock",
            "--max-batch",
            "16",
            "--queue-capacity",
            "64",
            "--frame-deadline-ms",
            "250",
            "--reload-poll-ms",
            "5",
            "--metrics-out",
            "m.jsonl",
            "--prometheus-out",
            "p.prom",
            "--trace-out",
            "t.json",
        ])
        .expect("parses");
        assert_eq!(cli.checkpoint, PathBuf::from("m.marc"));
        assert!(matches!(&cli.bind, Bind::Unix(p) if p == &PathBuf::from("s.sock")));
        assert_eq!((cli.config.max_batch, cli.config.queue_capacity), (16, 64));
        assert_eq!(cli.config.frame_deadline, Duration::from_millis(250));
        assert_eq!(cli.config.reload_poll, Some(Duration::from_millis(5)));
        assert_eq!(cli.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert_eq!(cli.prometheus_out, Some(PathBuf::from("p.prom")));
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.json")));

        let cli = parse(&["--checkpoint", "m.marc", "--tcp", "127.0.0.1:0"]).expect("parses");
        assert!(matches!(&cli.bind, Bind::Tcp(a) if a == "127.0.0.1:0"));
        let defaults = ServeConfig::default();
        assert_eq!(cli.config.max_batch, defaults.max_batch);
        assert_eq!(cli.config.queue_capacity, defaults.queue_capacity);
        assert_eq!(cli.config.reload_poll, None);
        assert!(cli.metrics_out.is_none() && cli.prometheus_out.is_none());
        assert!(cli.trace_out.is_none());
    }

    #[test]
    fn the_removed_deadline_flag_fails_loudly() {
        let base = ["--checkpoint", "m.marc", "--socket", "s.sock"];
        rejects(&[&base[..], &["--max-delay-us", "200"]].concat(), "unknown flag --max-delay-us");
    }

    #[test]
    fn degenerate_batch_geometry_is_rejected() {
        let base = ["--checkpoint", "m.marc", "--socket", "s.sock"];
        rejects(&[&base[..], &["--max-batch", "0"]].concat(), "--max-batch must be at least 1");
        rejects(
            &[&base[..], &["--max-batch", "8", "--queue-capacity", "7"]].concat(),
            "--queue-capacity must hold at least one batch",
        );
        parse(&[&base[..], &["--max-batch", "8", "--queue-capacity", "8"]].concat())
            .expect("a queue of exactly one batch is enough");
    }

    #[test]
    fn missing_or_malformed_values_are_rejected() {
        rejects(&["--socket", "s.sock"], "--checkpoint is required");
        rejects(&["--checkpoint", "m.marc"], "one of --socket/--tcp is required");
        rejects(&["--checkpoint", "m.marc", "--socket"], "--socket requires a value");
        rejects(&["--checkpoint", "m.marc", "--tcp", "h:1", "--max-batch", "x"], "not a number");
        rejects(&["--help"], "help");
    }
}
