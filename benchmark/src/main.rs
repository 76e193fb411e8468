//! `bench_e2e` — one harness for the whole stack.
//!
//! ```text
//! bench_e2e run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!               [--scratch DIR] [--result FILE] [--trace-out FILE]
//! bench_e2e set [--seed N] [--seconds S] [--repeats R] [--smoke]
//!               [--set NAME] [--out DIR] [--scratch DIR]
//! bench_e2e compare A/summary.json B/summary.json
//! bench_e2e spec
//! ```
//!
//! `run` executes one workload in this process and prints every metric as
//! `name value unit`, then one JSON object as the last line: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. `set`
//! runs every workload in its own process, untraced then traced, and
//! writes `summary.json` plus one Chrome-trace file per workload.
//! `compare` applies each end-to-end metric's bound to two summaries.
//! `spec` prints `BENCHMARK.json`. Metric and workload definitions are in
//! `benchmark/README.md`.

mod common;
mod compare;
mod dist;
mod probes;
mod report;
mod serve;
mod set;
mod spec;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fewer set-up repeats, check iterations and probe batches; the
    /// caller also passes a short `seconds`.
    pub smoke: bool,
    /// Directory for the serve socket (inside the checkout).
    pub scratch: PathBuf,
    pub result: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

impl RunArgs {
    /// Length of the timed section.
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// `--flag value` pairs and bare `--flag`s, in order.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag}"));
            }
            if bare.contains(&flag.as_str()) {
                out.push((flag.clone(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                out.push((flag.clone(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

fn default_scratch() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from(".bench_build"), Into::into)
}

fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--smoke"])?;
    flags.reject_unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--smoke",
        "--scratch",
        "--result",
        "--trace-out",
    ])?;
    let run = RunArgs {
        workload: flags.get("--workload").ok_or("--workload is required")?.to_owned(),
        seed: flags.parsed("--seed", spec::DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", spec::RUN_SECONDS as f64)?,
        trace: match flags.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        smoke: flags.has("--smoke"),
        scratch: flags.get("--scratch").map_or_else(default_scratch, PathBuf::from),
        result: flags.get("--result").map(PathBuf::from),
        trace_out: flags.get("--trace-out").map(PathBuf::from),
    };
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", run.seconds));
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == run.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {}; one of {}", run.workload, names.join(", ")));
    }

    for kv in common::host_metadata() {
        println!("# {} {}", kv.key, kv.value);
    }
    println!(
        "# workload {} seed {} seconds {} trace {} smoke {}",
        run.workload, run.seed, run.seconds, run.trace as u8, run.smoke
    );

    let mut tracer = trace::Tracer::new(Instant::now(), "main", run.trace);
    let mut lanes: Vec<trace::Tracer> = Vec::new();
    let name = run.workload.as_str();
    let mut outcome = if train::handles(name) {
        train::run(name, &run, &mut tracer)?
    } else if name == "dist-lockstep" {
        dist::run(&run, &mut tracer, &mut lanes)?
    } else {
        serve::run(name, &run, &mut tracer, &mut lanes)?
    };

    if run.trace {
        let all: Vec<&trace::Tracer> = std::iter::once(&tracer).chain(&lanes).collect();
        outcome
            .set("obs.spans_recorded", all.iter().map(|t| t.spans().len()).sum::<usize>() as f64);
        outcome.set("obs.spans_dropped", all.iter().map(|t| t.dropped()).sum::<u64>() as f64);
        outcome.set("obs.span_record_ns", span_record_ns());
        outcome.set("obs.peak_rss_mb", common::peak_rss_mb());
        print_span_table(&all);
        if let Some(path) = &run.trace_out {
            std::fs::write(path, trace::chrome_json(&all))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    let result = outcome.finish(name, run.seed, run.seconds, run.trace);
    if let Some(path) = &run.result {
        let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    result.print();
    Ok(result.correct)
}

/// What recording one span costs: the validity floor under every traced
/// number.
fn span_record_ns() -> f64 {
    let mut scratch = trace::Tracer::new(Instant::now(), "scratch", true);
    const N: u32 = 20_000;
    let t0 = Instant::now();
    for i in 0..N {
        let id = scratch.begin("x", u64::from(i));
        scratch.end(id);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Per-name span totals with self time, as comment lines.
fn print_span_table(tracers: &[&trace::Tracer]) {
    for t in tracers {
        for (name, s) in trace::aggregate(t.spans()) {
            println!(
                "# span {}/{name} count {} total_ms {:.3} self_ms {:.3} p50_us {:.3}",
                t.lane,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                stats::percentile(&s.durations_ns, 0.5) as f64 / 1e3
            );
        }
        for (name, n) in t.counts() {
            println!("# count {}/{name} {n}", t.lane);
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("bench_e2e: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("set") => set::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err("usage: bench_e2e run|set|compare|spec (see benchmark/README.md)".to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
