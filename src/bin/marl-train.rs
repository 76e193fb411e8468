//! `marl-train` — command-line entry point for training runs.
//!
//! ```text
//! marl-train [--eval-episodes K] [--checkpoint-out FILE]
//!            [--checkpoint-every N] [--resume FILE] [TRAINING FLAGS]
//! ```
//!
//! The training and telemetry flags (`--algo`, `--scenario`, `--sampler`,
//! `--layout`, `--trace-out`, …) are parsed by [`marl_repro::cli`], the
//! parser `marl-learner` shares, so both binaries accept the same flags
//! with the same defaults; `--help` lists them.
//!
//! Prints the phase breakdown and reward summary. `--checkpoint-out`
//! writes crash-safe full checkpoints (atomic rename + CRC + `.prev`
//! rotation); with `--checkpoint-every N` the run autosaves every N
//! episodes, and `--resume` continues a run bitwise-identically from such
//! a file (falling back to `.prev` when the live file is corrupt).

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::{TrainConfig, Trainer};
use marl_repro::cli::{self, CliError, TrainArgs};
use marl_repro::obs::TelemetryConfig;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: marl-train [--eval-episodes K] [--checkpoint-out F] [--checkpoint-every N]
                  [--resume F] [TRAINING FLAGS]

  --eval-episodes K        greedy evaluation episodes after training (default 10;
                           with --num-envs K averaged over all K worlds)
  --checkpoint-out F       write a crash-safe full checkpoint to F (atomic rename
                           + CRC-32 + .prev rotation) when the run finishes
  --checkpoint-every N     additionally autosave to F every N episodes (0 = off;
                           requires --checkpoint-out)
  --resume F               resume bitwise-identically from a checkpoint file,
                           falling back to F.prev when F is corrupt";

/// Everything `main` needs from the command line.
#[derive(Debug)]
struct Cli {
    config: TrainConfig,
    eval_episodes: usize,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    telemetry: TelemetryConfig,
}

fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let mut eval_episodes = 10usize;
    let mut checkpoint_out = None;
    let mut checkpoint_every = 0usize;
    let mut resume = None;
    let TrainArgs { mut config, telemetry } = cli::parse(args, |flag, it| {
        match flag {
            "--eval-episodes" => eval_episodes = cli::num(it, flag)?,
            "--checkpoint-out" => checkpoint_out = Some(cli::value(it, flag)?.to_string()),
            "--checkpoint-every" => checkpoint_every = cli::num(it, flag)?,
            "--resume" => resume = Some(cli::value(it, flag)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if checkpoint_every > 0 && checkpoint_out.is_none() {
        return Err(CliError::Bad("--checkpoint-every requires --checkpoint-out".into()));
    }
    config.checkpoint_every = checkpoint_every;
    Ok(Cli { config, eval_episodes, checkpoint_out, resume, telemetry })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { config, eval_episodes, checkpoint_out, resume, telemetry } = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => return cli::usage_exit(&e, USAGE),
    };

    println!(
        "training {} / {} / {} agents / sampler {} / {} episodes",
        config.algorithm.label(),
        config.task.label(),
        config.agents,
        config.sampler.label(),
        config.episodes
    );
    let mut trainer = match Trainer::new(config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tel = match cli::open_telemetry(&telemetry) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tel {
        trainer.attach_telemetry(Arc::clone(t));
    }
    if let Some(path) = &resume {
        let loaded =
            load_checkpoint_with_fallback(Path::new(path)).and_then(|(ckpt, replay, from_prev)| {
                trainer.restore_full(ckpt, &replay).map(|()| from_prev)
            });
        match loaded {
            Ok(from_prev) => {
                if from_prev {
                    eprintln!("warning: {path} was unreadable; resumed from {path}.prev");
                }
                println!("resumed from {path} at episode {}", trainer.episodes_done());
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = match trainer.train_with_autosave(checkpoint_out.as_deref().map(Path::new)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "\nwall time: {:?} | env steps: {} | update iterations: {}",
        report.wall_time, report.env_steps, report.update_iterations
    );
    if report.update_iterations == 0 {
        eprintln!(
            "warning: no network updates ran — increase --episodes or lower --batch \
             (warmup is 2x the batch size)"
        );
    }
    // The Figure-2 phase decomposition: accumulated time and
    // percent-of-total per phase, always printed.
    println!("{}", report.profile.breakdown_table());
    let window = (report.curve.len() / 5).max(1);
    println!("final score (smoothed): {:.2}", report.curve.final_score(window));
    if let Some(t) = &tel {
        let snap = cli::finish_telemetry(t, report.curve.len() as u64, &report.profile);
        println!(
            "telemetry: {} updates | replay occupancy {:.1}% | run-length p50 {} | \
             {} spans dropped",
            snap.updates,
            snap.replay_occupancy * 100.0,
            snap.run_length.p50,
            snap.spans_dropped
        );
        if snap.hw_live {
            println!(
                "hw sampling counters over {} windows: {} instr | {} LLC miss | {} dTLB miss",
                snap.hw_windows,
                snap.hw_sampling.instructions,
                snap.hw_sampling.cache_misses,
                snap.hw_sampling.dtlb_misses
            );
        }
    }
    if eval_episodes > 0 {
        match trainer.evaluate(eval_episodes) {
            Ok(score) => println!("greedy evaluation over {eval_episodes} episodes: {score:.2}"),
            Err(e) => eprintln!("evaluation failed: {e}"),
        }
    }
    if let Some(path) = checkpoint_out {
        // A checkpoint the user asked for must actually be durable: any
        // serialization or I/O failure is fatal, not a warning.
        let written = trainer
            .checkpoint_full()
            .and_then(|(ckpt, replay)| write_checkpoint_file(Path::new(&path), &ckpt, &replay));
        match written {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
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
        --layout interleaved --episodes 9 --batch 32 --capacity 4096 --threads 2 \
        --update-threads 2 --seed 7 --kernel scalar --num-envs 2 --trace-out t.json \
        --metrics-out m.jsonl --metrics-every 3 --prometheus-out p.prom \
        --span-capacity 512 --hw-counters";

    /// `marl-learner` carries the same test: both binaries turn the shared
    /// flags into exactly what `cli::parse` alone does, so they accept the
    /// same training flags and build equal configurations from them.
    #[test]
    fn shared_flags_give_the_shared_parsers_configuration() {
        let shared = cli::parse(&words(SHARED), |_, _| Ok(false)).unwrap();
        let mut args = words(SHARED);
        args.extend(words("--eval-episodes 0 --checkpoint-out c.bin"));
        let cli = parse_args(&args).unwrap();
        assert_eq!(cli.config, shared.config);
        assert_eq!(cli.telemetry, shared.telemetry);
        assert_eq!((cli.eval_episodes, cli.checkpoint_out.as_deref()), (0, Some("c.bin")));
    }

    #[test]
    fn process_flag_rules() {
        let err = |w: &str| parse_args(&words(w)).unwrap_err();
        assert_eq!(
            err("--metrics-every 5"),
            CliError::Bad("--metrics-every requires --metrics-out".into())
        );
        assert_eq!(
            err("--checkpoint-every 5"),
            CliError::Bad("--checkpoint-every requires --checkpoint-out".into())
        );
        assert_eq!(err("--task cn"), CliError::Bad("unknown flag --task".into()));
        let cli = parse_args(&words("--checkpoint-out c.bin --checkpoint-every 5"));
        assert_eq!(cli.unwrap().config.checkpoint_every, 5);
    }
}
