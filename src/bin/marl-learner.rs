//! `marl-learner` — learner process of the distributed runtime.
//!
//! ```text
//! marl-learner (--socket PATH | --tcp HOST:PORT | --lockstep)
//!              [--workers N] [--worker-bin PATH] [--max-restarts K]
//!              [--steps-per-frame F] [--params-every U]
//!              [--dead-after-ms MS] [--stall-timeout-ms MS]
//!              [--chaos-kill-after-frames K] [--chaos-victim V]
//!              [TRAINING FLAGS]
//! ```
//!
//! The training and telemetry flags are parsed by [`marl_repro::cli`],
//! the parser `marl-train` shares: the same flags, the same defaults, so
//! a learner run trains exactly the configuration its flags name in
//! `marl-train` (workers step one world, so `--num-envs` must stay 1).
//!
//! Owns the replay store and the trainer. With `--socket`/`--tcp` it
//! binds a listener, spawns `--workers` `marl-worker` child processes
//! (restarting any the supervisor declares dead, up to
//! `--max-restarts`), and trains free-running until the episode target.
//! `--lockstep` instead runs one in-process worker thread over the
//! deterministic loopback — training output is bitwise identical to
//! `marl-train` at the same configuration. `--chaos-kill-after-frames`
//! arms the chaos drill: SIGKILL `--chaos-victim` after it delivers K
//! step frames, then let supervision restart and re-admit it.

use marl_repro::algo::TrainConfig;
use marl_repro::cli::{self, CliError, TrainArgs};
use marl_repro::dist::{
    loopback_pair, run_worker, Backoff, ChaosPlan, DistError, Endpoint, Learner, LearnerOptions,
    NoAccept, TcpAcceptor, Transport, UnixAcceptor, WorkerPool,
};
use marl_repro::obs::TelemetryConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: marl-learner (--socket PATH | --tcp HOST:PORT | --lockstep)
                    [--workers N] [--worker-bin PATH] [--max-restarts K]
                    [--steps-per-frame F] [--params-every U]
                    [--dead-after-ms MS] [--stall-timeout-ms MS]
                    [--chaos-kill-after-frames K] [--chaos-victim V]
                    [TRAINING FLAGS]

  --lockstep                runs one in-process worker over the deterministic
                            loopback (bitwise-identical to marl-train)
  --worker-bin PATH         marl-worker binary (default: next to marl-learner)
  --chaos-kill-after-frames SIGKILL --chaos-victim after K step frames
                            (0 = off), then restart it under supervision";

#[derive(Debug, Clone)]
enum Mode {
    Unix(PathBuf),
    Tcp(String),
    Lockstep,
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    workers: u32,
    worker_bin: Option<PathBuf>,
    max_restarts: u32,
    config: TrainConfig,
    opts: LearnerOptions,
    chaos_after_frames: u64,
    chaos_victim: u32,
    telemetry: TelemetryConfig,
}

fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut mode: Option<Mode> = None;
    let mut workers = 2u32;
    let mut worker_bin: Option<PathBuf> = None;
    let mut max_restarts = 2u32;
    let mut opts = LearnerOptions::default();
    let mut chaos_after_frames = 0u64;
    let mut chaos_victim = 1u32;
    let TrainArgs { config, telemetry } = cli::parse(args, |flag, it| {
        match flag {
            "--socket" => mode = Some(Mode::Unix(cli::value(it, flag)?.into())),
            "--tcp" => mode = Some(Mode::Tcp(cli::value(it, flag)?.into())),
            "--lockstep" => mode = Some(Mode::Lockstep),
            "--workers" => workers = cli::num(it, flag)?,
            "--worker-bin" => worker_bin = Some(cli::value(it, flag)?.into()),
            "--max-restarts" => max_restarts = cli::num(it, flag)?,
            "--steps-per-frame" => opts.steps_per_frame = cli::num(it, flag)?,
            "--params-every" => opts.params_every_updates = cli::num(it, flag)?,
            "--dead-after-ms" => {
                let ms: u64 = cli::num(it, flag)?;
                opts.supervisor.dead_after = Duration::from_millis(ms);
                opts.supervisor.suspect_after =
                    Duration::from_millis(ms / 4).max(Duration::from_millis(1));
            }
            "--stall-timeout-ms" => {
                opts.stall_timeout = Duration::from_millis(cli::num(it, flag)?);
            }
            "--chaos-kill-after-frames" => chaos_after_frames = cli::num(it, flag)?,
            "--chaos-victim" => chaos_victim = cli::num(it, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(mode) = mode else {
        return Err(CliError::Bad("one of --socket/--tcp/--lockstep is required".into()));
    };
    if workers == 0 {
        return Err(CliError::Bad("--workers must be at least 1".into()));
    }
    Ok(Cli {
        mode,
        workers,
        worker_bin,
        max_restarts,
        config,
        opts,
        chaos_after_frames,
        chaos_victim,
        telemetry,
    })
}

/// The sibling `marl-worker` binary, next to the running learner.
fn default_worker_bin() -> Result<PathBuf, DistError> {
    let me = std::env::current_exe().map_err(|e| DistError::Io(e.to_string()))?;
    Ok(me.with_file_name("marl-worker"))
}

fn serve_lockstep_inprocess(learner: &mut Learner) -> Result<(), DistError> {
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let handle = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 0);
        run_worker(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        )
    });
    let served = learner.serve_lockstep(&mut learner_end);
    let worker = handle.join().map_err(|_| DistError::Protocol("worker thread panicked".into()));
    served?;
    worker?.map(|_| ())
}

fn serve_fleet(learner: &mut Learner, cli: &Cli) -> Result<(), DistError> {
    let bin = match &cli.worker_bin {
        Some(p) => p.clone(),
        None => default_worker_bin()?,
    };
    let (endpoint, mut acceptor): (Endpoint, Box<dyn marl_repro::dist::Acceptor>) = match &cli.mode
    {
        Mode::Unix(path) => (Endpoint::Unix(path.clone()), Box::new(UnixAcceptor::bind(path)?)),
        Mode::Tcp(addr) => {
            let acceptor = TcpAcceptor::bind(addr)?;
            let bound = acceptor.local_addr()?.to_string();
            println!("listening on tcp {bound}");
            (Endpoint::Tcp(bound), Box::new(acceptor))
        }
        Mode::Lockstep => unreachable!("lockstep handled by caller"),
    };
    let mut pool = WorkerPool::new(bin, endpoint, cli.max_restarts);
    if cli.chaos_after_frames > 0 {
        pool = pool.with_chaos(ChaosPlan {
            victim: cli.chaos_victim,
            after_frames: cli.chaos_after_frames,
        });
    }
    for id in 0..cli.workers {
        pool.spawn(id).map_err(|e| DistError::Io(format!("spawning worker {id}: {e}")))?;
    }
    let served = learner.serve_free(Vec::new(), acceptor.as_mut(), Some(&mut pool));
    if cli.chaos_after_frames > 0 {
        println!(
            "chaos: kill fired = {} | restarts of victim {} = {}",
            pool.chaos_fired(),
            cli.chaos_victim,
            pool.restart_count(cli.chaos_victim)
        );
    }
    pool.join_all(Duration::from_secs(5));
    served
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => return cli::usage_exit(&e, USAGE),
    };
    // Fleet merges label the learner's trace lane by its role.
    cli.telemetry.process_name = Some("learner".to_string());

    println!(
        "learner: {} / {} / {} agents / sampler {} / {} episodes / {}",
        cli.config.algorithm.label(),
        cli.config.task.label(),
        cli.config.agents,
        cli.config.sampler.label(),
        cli.config.episodes,
        match &cli.mode {
            Mode::Unix(p) => format!("unix {}", p.display()),
            Mode::Tcp(a) => format!("tcp {a}"),
            Mode::Lockstep => "in-process lockstep loopback".into(),
        }
    );
    let mut learner = match Learner::new(cli.config, cli.opts) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tel = match cli::open_telemetry(&cli.telemetry) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tel {
        learner.trainer_mut().attach_telemetry(Arc::clone(t));
    }

    let served = match &cli.mode {
        Mode::Lockstep => {
            let _ = NoAccept; // fixed topology: no listener in this mode
            serve_lockstep_inprocess(&mut learner)
        }
        _ => serve_fleet(&mut learner, &cli),
    };
    if let Err(e) = served {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let sup = learner.supervisor();
    println!(
        "served {} episodes | {} parameter epochs | {} update iterations | env steps {}",
        learner.episodes_recorded(),
        learner.epoch(),
        learner.trainer().update_iterations(),
        learner.trainer().env_steps()
    );
    println!(
        "supervision: {} workers alive | {} reconnects | {} restarts | {} quarantined frames",
        sup.alive(),
        sup.total_reconnects(),
        sup.total_restarts(),
        sup.total_quarantined()
    );
    if let Some(t) = &tel {
        let snap = cli::finish_telemetry(
            t,
            learner.episodes_recorded() as u64,
            learner.trainer().profile(),
        );
        println!(
            "telemetry: {} updates | {} quarantined | {} reconnects | {} restarts",
            snap.updates,
            snap.dist_quarantined_frames,
            snap.dist_reconnects,
            snap.dist_worker_restarts
        );
        // The single-line process summary the fleet orchestrator parses
        // from stdout — keep it the last line printed.
        let summary = marl_repro::obs::ProcessSummary {
            process: "learner".to_string(),
            worker_id: 0,
            epoch_unix_ns: t.tracer.unix_anchor_ns(),
            clock_offset_ns: 0,
            clock_rtt_ns: 0,
            clock_samples: 0,
            spans_dropped: snap.spans_dropped,
            episodes: learner.episodes_recorded() as u64,
            env_steps: learner.trainer().env_steps(),
            requests: 0,
        };
        println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Every shared training and telemetry flag, each off its default.
    const SHARED: &str = "--algo matd3 --scenario cn --agents 4 --sampler per-reuse:4 \
        --layout interleaved --episodes 9 --batch 32 --capacity 4096 \
        --update-threads 2 --seed 7 --num-envs 2 --trace-out t.json \
        --metrics-out m.jsonl --metrics-every 3 --prometheus-out p.prom \
        --span-capacity 512 --hw-counters";

    /// `marl-train` carries the same test: both binaries turn the shared
    /// flags into exactly what `cli::parse` alone does, so they accept the
    /// same training flags and build equal configurations from them.
    #[test]
    fn shared_flags_give_the_shared_parsers_configuration() {
        let shared = cli::parse(&words(SHARED), |_, _| Ok(false)).unwrap();
        let mut args = words(SHARED);
        args.extend(words("--lockstep --workers 3"));
        let cli = parse_args(&args).unwrap();
        assert_eq!(cli.config, shared.config);
        assert_eq!(cli.telemetry, shared.telemetry);
        assert!(matches!(cli.mode, Mode::Lockstep));
        assert_eq!(cli.workers, 3);
    }

    #[test]
    fn process_flag_rules() {
        let err = |w: &str| parse_args(&words(w)).unwrap_err();
        assert_eq!(
            err("--lockstep --metrics-every 5"),
            CliError::Bad("--metrics-every requires --metrics-out".into())
        );
        assert_eq!(
            err("--episodes 5"),
            CliError::Bad("one of --socket/--tcp/--lockstep is required".into())
        );
        assert_eq!(
            err("--lockstep --workers 0"),
            CliError::Bad("--workers must be at least 1".into())
        );
        assert_eq!(err("--lockstep --task cn"), CliError::Bad("unknown flag --task".into()));
        let cli = parse_args(&words("--tcp 127.0.0.1:0 --dead-after-ms 400")).unwrap();
        assert_eq!(cli.opts.supervisor.dead_after, Duration::from_millis(400));
        assert_eq!(cli.opts.supervisor.suspect_after, Duration::from_millis(100));
    }
}
