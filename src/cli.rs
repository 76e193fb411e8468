//! The training and telemetry flags shared by `marl-train` and
//! `marl-learner`.
//!
//! Both binaries turn the same flags, with the same defaults, into a
//! [`TrainConfig`] and a [`TelemetryConfig`], so a distributed learner
//! run names exactly the configuration the single-process run with the
//! same flags trains. [`parse`] handles every flag in [`HELP`] and offers
//! the rest to the binary, which keeps only its process flags
//! (checkpoint paths, sockets, supervision and chaos tuning).
//!
//! ```
//! let args: Vec<String> = ["--scenario", "cn", "--sampler", "per-reuse:4", "--seed", "7"]
//!     .map(String::from)
//!     .into();
//! let parsed = marl_repro::cli::parse(&args, |_, _| Ok(false)).unwrap();
//! assert_eq!(parsed.config.seed, 7);
//! assert_eq!(parsed.config.sampler.label(), "per-reuse4");
//! ```

use crate::algo::{Algorithm, LayoutMode, Task, TrainConfig};
use crate::core::SamplerConfig;
use crate::nn::kernels::dispatch_tally;
use crate::obs::{KernelTally, MetricsSnapshot, SnapshotContext, Telemetry, TelemetryConfig};
use crate::perf::phase::PhaseProfile;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// Help text for the shared flags, printed under each binary's own usage.
pub const HELP: &str = "\
training flags (the same in marl-train and marl-learner):
  --algo maddpg|matd3      algorithm (default maddpg)
  --scenario NAME          MPE scenario from the registry: predator-prey (pp),
                           cooperative-navigation (cn), physical-deception (pd),
                           keep-away (ka), cooperative-reference (cr),
                           world-comm (wc), or any registered plugin scenario
  --agents N               trained agents (default 3)
  --sampler S              baseline|uniform, n16r64, n64r16, nK, per, ip,
                           per-reuse:W, or any sampler label (default baseline)
  --layout L               per-agent (default) or interleaved
  --episodes E             episodes to train (default 300)
  --batch B                mini-batch size (default 256; warmup is 2B,
                           clamped to half the capacity)
  --capacity C             replay capacity in rows (default 50000)
  --update-threads U       worker threads for the per-agent gathers and
                           critic/actor updates (default 1; results are
                           identical for any U)
  --seed S                 experiment seed (default 0)
  --num-envs K             step K environment worlds per rollout iteration over
                           SoA physics with batched inference (default 1;
                           marl-learner workers step one world, so K must be 1)

telemetry flags:
  --trace-out F            record spans to F as Chrome trace-event JSON
                           (open in Perfetto or chrome://tracing)
  --metrics-out F          stream metric snapshots to F as JSONL
  --metrics-every N        episodes between snapshots (default 10 when
                           --metrics-out is set; a final snapshot always writes)
  --prometheus-out F       rewrite F in Prometheus text format at each snapshot
  --span-capacity N        span ring size in events (default 65536)
  --hw-counters            read live perf_event hardware counters around the
                           sampling phase (falls back gracefully when denied)";

/// Why parsing stopped short of a configuration.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage and exit successfully.
    Help,
    /// A bad flag or value, with the message to print.
    Bad(String),
}

/// The command-line words not consumed yet; a flag handler pulls its
/// value from here with [`value`] or [`num`].
pub type Args<'a> = std::slice::Iter<'a, String>;

/// Pulls the value that follows `flag`.
///
/// # Errors
///
/// [`CliError::Bad`] when the command line ends first.
pub fn value<'a>(args: &mut Args<'a>, flag: &str) -> Result<&'a str, CliError> {
    args.next().map(String::as_str).ok_or_else(|| CliError::Bad(format!("{flag} requires a value")))
}

/// Pulls the value that follows `flag` and parses it as a number.
///
/// # Errors
///
/// [`CliError::Bad`] when the value is missing or not a number.
pub fn num<T: FromStr>(args: &mut Args<'_>, flag: &str) -> Result<T, CliError> {
    let v = value(args, flag)?;
    v.parse().map_err(|_| CliError::Bad(format!("not a number: {v}")))
}

/// What the shared flags describe.
#[derive(Debug, PartialEq)]
pub struct TrainArgs {
    /// The training run.
    pub config: TrainConfig,
    /// Where its telemetry goes.
    pub telemetry: TelemetryConfig,
}

/// Parses `args`. Every flag in [`HELP`] is handled here; any other flag
/// is offered to `own`, which consumes it (pulling a value from the
/// [`Args`] if it takes one) and returns `Ok(true)`, or returns
/// `Ok(false)` for a flag it does not know either.
///
/// The warmup follows the short-run policy: two batches, capped at half
/// the capacity but never below one batch, so short runs still reach an
/// update.
///
/// # Errors
///
/// [`CliError::Help`] for `--help`/`-h`; [`CliError::Bad`] for an
/// unknown flag, a bad value, or `--metrics-every` without
/// `--metrics-out` (a cadence without a sink would record nothing).
pub fn parse(
    args: &[String],
    mut own: impl FnMut(&str, &mut Args<'_>) -> Result<bool, CliError>,
) -> Result<TrainArgs, CliError> {
    let bad = CliError::Bad;
    let mut c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
    c.batch_size = 256;
    let mut t = TelemetryConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (flag, it) = (flag.as_str(), &mut it);
        match flag {
            "--algo" => {
                c.algorithm = match value(it, flag)? {
                    "maddpg" => Algorithm::Maddpg,
                    "matd3" => Algorithm::Matd3,
                    v => return Err(bad(format!("unknown algorithm {v}"))),
                }
            }
            "--scenario" => {
                let v = value(it, flag)?;
                c.task = Task::from_name(v).ok_or_else(|| {
                    let known: Vec<&str> = Task::all().iter().map(|s| s.label()).collect();
                    bad(format!("unknown scenario {v} (registered: {})", known.join(", ")))
                })?;
            }
            "--agents" => c.agents = num(it, flag)?,
            "--sampler" => {
                let v = value(it, flag)?;
                c.sampler = SamplerConfig::from_name(v)
                    .ok_or_else(|| bad(format!("unknown sampler {v}")))?;
            }
            "--layout" => {
                c.layout = match value(it, flag)? {
                    "per-agent" => LayoutMode::PerAgent,
                    "interleaved" => LayoutMode::Interleaved,
                    v => return Err(bad(format!("unknown layout {v}"))),
                }
            }
            "--episodes" => c.episodes = num(it, flag)?,
            "--batch" => c.batch_size = num(it, flag)?,
            "--capacity" => c.buffer_capacity = num(it, flag)?,
            "--update-threads" => c.update_threads = num(it, flag)?,
            "--seed" => c.seed = num(it, flag)?,
            "--num-envs" => {
                c.num_envs = num(it, flag)?;
                if c.num_envs == 0 {
                    return Err(bad("--num-envs must be at least 1".into()));
                }
            }
            "--trace-out" => t.trace_out = Some(value(it, flag)?.into()),
            "--metrics-out" => t.metrics_out = Some(value(it, flag)?.into()),
            "--metrics-every" => t.metrics_every = num(it, flag)?,
            "--prometheus-out" => t.prometheus_out = Some(value(it, flag)?.into()),
            "--span-capacity" => t.span_capacity = num(it, flag)?,
            "--hw-counters" => t.hw_counters = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                if !own(other, it)? {
                    return Err(bad(format!("unknown flag {other}")));
                }
            }
        }
    }
    c.warmup = (2 * c.batch_size).min(c.buffer_capacity / 2).max(c.batch_size);
    if t.metrics_every > 0 && t.metrics_out.is_none() {
        return Err(bad("--metrics-every requires --metrics-out".into()));
    }
    if t.metrics_out.is_some() && t.metrics_every == 0 {
        t.metrics_every = 10;
    }
    Ok(TrainArgs { config: c, telemetry: t })
}

/// Prints `err` (unless it is [`CliError::Help`]), the binary's `usage`
/// and [`HELP`] to stderr, and returns the exit code: success for
/// `--help`, failure otherwise.
pub fn usage_exit(err: &CliError, usage: &str) -> ExitCode {
    match err {
        CliError::Help => {
            eprintln!("{usage}\n\n{HELP}");
            ExitCode::SUCCESS
        }
        CliError::Bad(msg) => {
            eprintln!("error: {msg}\n\n{usage}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

/// Opens the telemetry sinks `cfg` asks for, or returns `None` when it
/// asks for none (a default config records nothing anyone can read).
///
/// # Errors
///
/// A message naming the sink that could not be opened.
pub fn open_telemetry(cfg: &TelemetryConfig) -> Result<Option<Arc<Telemetry>>, String> {
    if cfg.trace_out.is_none()
        && cfg.metrics_out.is_none()
        && cfg.prometheus_out.is_none()
        && !cfg.hw_counters
    {
        return Ok(None);
    }
    let t = Telemetry::new(cfg).map_err(|e| format!("opening telemetry sinks failed: {e}"))?;
    if cfg.hw_counters && !t.hw_live() {
        eprintln!(
            "warning: perf_event_open unavailable (permissions/kernel); hardware counters disabled"
        );
    }
    Ok(Some(Arc::new(t)))
}

/// Writes the final (`fin: true`) snapshot to every sink and closes the
/// trace, so its JSON array is well-formed.
pub fn finish_telemetry(t: &Telemetry, episode: u64, profile: &PhaseProfile) -> MetricsSnapshot {
    let (scalar, simd) = dispatch_tally();
    t.finish(&SnapshotContext { episode, profile, kernels: KernelTally { scalar, simd } })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn shared(words: &[&str]) -> Result<TrainArgs, CliError> {
        parse(&args(words), |_, _| Ok(false))
    }

    /// One valid value (or none, for a switch) per flag named in [`HELP`].
    const EXAMPLES: [(&str, Option<&str>); 17] = [
        ("--algo", Some("matd3")),
        ("--scenario", Some("cn")),
        ("--agents", Some("6")),
        ("--sampler", Some("n64-r16")),
        ("--layout", Some("interleaved")),
        ("--episodes", Some("12")),
        ("--batch", Some("32")),
        ("--capacity", Some("4096")),
        ("--update-threads", Some("2")),
        ("--seed", Some("7")),
        ("--num-envs", Some("4")),
        ("--trace-out", Some("t.json")),
        ("--metrics-out", Some("m.jsonl")),
        ("--metrics-every", Some("5")),
        ("--prometheus-out", Some("p.prom")),
        ("--span-capacity", Some("1024")),
        ("--hw-counters", None),
    ];

    #[test]
    fn every_flag_in_the_help_text_parses() {
        let named: Vec<&str> = HELP
            .split(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == ';')
            .filter(|w| w.starts_with("--"))
            .collect();
        let mut flags: Vec<&str> = named.clone();
        flags.sort_unstable();
        flags.dedup();
        let mut examples: Vec<&str> = EXAMPLES.iter().map(|(f, _)| *f).collect();
        examples.sort_unstable();
        assert_eq!(flags, examples, "HELP and the example table name different flags");
        let defaults = shared(&[]).unwrap();
        for (flag, v) in EXAMPLES {
            let mut words = vec![flag];
            words.extend(v);
            if flag == "--metrics-every" {
                words.extend(["--metrics-out", "m.jsonl"]);
            }
            let parsed = shared(&words).unwrap_or_else(|e| panic!("{flag}: {e:?}"));
            assert_ne!(parsed, defaults, "{flag} changed nothing");
        }
    }

    #[test]
    fn defaults_and_the_short_run_warmup() {
        let c = shared(&[]).unwrap().config;
        assert_eq!((c.episodes, c.batch_size, c.buffer_capacity), (300, 256, 50_000));
        assert_eq!(c.warmup, 512);
        let c = shared(&["--batch", "64", "--capacity", "100"]).unwrap().config;
        assert_eq!(c.warmup, 64, "clamped to capacity/2 but never below one batch");
    }

    #[test]
    fn metrics_cadence_rules() {
        assert_eq!(
            shared(&["--metrics-every", "5"]),
            Err(CliError::Bad("--metrics-every requires --metrics-out".into()))
        );
        let t = shared(&["--metrics-out", "m.jsonl"]).unwrap().telemetry;
        assert_eq!(t.metrics_every, 10, "a sink without a cadence snapshots every 10 episodes");
    }

    #[test]
    fn bad_input_is_named() {
        for (words, msg) in [
            (&["--task", "cn"][..], "unknown flag --task"),
            (&["--sampler", "lru"], "unknown sampler lru"),
            (&["--layout", "soa"], "unknown layout soa"),
            (&["--num-envs", "0"], "--num-envs must be at least 1"),
            (&["--agents", "x"], "not a number: x"),
            (&["--seed"], "--seed requires a value"),
        ] {
            assert_eq!(shared(words), Err(CliError::Bad(msg.into())), "{words:?}");
        }
        assert_eq!(shared(&["--episodes", "3", "-h"]), Err(CliError::Help));
    }

    #[test]
    fn own_flags_are_offered_after_the_shared_ones() {
        let mut seen = Vec::new();
        let parsed = parse(&args(&["--mine", "v", "--seed", "3"]), |flag, it| {
            seen.push((flag.to_string(), value(it, flag)?.to_string()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, [("--mine".to_string(), "v".to_string())]);
        assert_eq!(parsed.config.seed, 3);
    }
}
