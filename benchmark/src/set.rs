//! `bench_e2e set`: every workload in its own process, untraced for the
//! end-to-end metrics and traced for the per-layer metrics, folded into
//! `<out>/<set>/summary.json` with one Chrome-trace file per workload.

use crate::report::{self, RunResult, Summary};
use crate::{common, spec, Flags};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `--smoke` runs every workload at this fraction of its size.
const SMOKE_DIVISOR: f64 = 50.0;

struct Plan {
    exe: PathBuf,
    dir: PathBuf,
    seed: u64,
    seconds: f64,
    smoke: bool,
    scratch: Option<String>,
}

impl Plan {
    /// Runs one workload process and reads back its result file.
    fn run(&self, workload: &str, traced: bool) -> Result<RunResult, String> {
        let result_path = self.dir.join(format!(".{workload}.result.json"));
        let mut cmd = Command::new(&self.exe);
        cmd.arg("run")
            .args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--result")
            .arg(&result_path);
        if traced {
            cmd.arg("--trace-out").arg(trace_path(&self.dir, workload));
        }
        if self.smoke {
            cmd.arg("--smoke");
        }
        if let Some(scratch) = &self.scratch {
            cmd.args(["--scratch", scratch]);
        }
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let text = std::fs::read_to_string(&result_path).map_err(|e| {
            format!(
                "{workload} (trace {}) exited with {status} and left no result: {e}",
                traced as u8
            )
        })?;
        let _ = std::fs::remove_file(&result_path);
        serde_json::from_str(&text).map_err(|e| format!("parse result of {workload}: {e}"))
    }
}

fn trace_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.trace.json"))
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--smoke"])?;
    flags.reject_unknown(&[
        "--seed",
        "--seconds",
        "--repeats",
        "--smoke",
        "--set",
        "--out",
        "--scratch",
    ])?;
    let smoke = flags.has("--smoke");
    let default_seconds = spec::RUN_SECONDS as f64 / if smoke { SMOKE_DIVISOR } else { 1.0 };
    let set = flags.get("--set").unwrap_or(if smoke { "smoke" } else { "latest" }).to_owned();
    let repeats: u32 = flags.parsed("--repeats", 1)?;
    let plan = Plan {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        dir: Path::new(flags.get("--out").unwrap_or("benchmark/results")).join(&set),
        seed: flags.parsed("--seed", spec::DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", default_seconds)?,
        smoke,
        scratch: flags.get("--scratch").map(str::to_owned),
    };
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_owned());
    }
    std::fs::create_dir_all(&plan.dir)
        .map_err(|e| format!("create {}: {e}", plan.dir.display()))?;

    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..repeats {
            untraced.push(plan.run(w.name, false)?);
            traced.push(plan.run(w.name, true)?);
        }
        let file = trace_path(Path::new(""), w.name);
        workloads.push(report::summarize_workload(
            w.name,
            &untraced,
            &traced,
            &file.to_string_lossy(),
        ));
    }

    println!(
        "# ---- set {set}: seed {} seconds {} repeats {repeats} ----",
        plan.seed, plan.seconds
    );
    for w in &workloads {
        for g in &w.gates {
            let state = if g.ok { "ok" } else { "VIOLATED" };
            println!("# gate [{}] {} = {:.4} (limit {}) {state}", w.name, g.name, g.value, g.limit);
        }
        if !w.reliable {
            println!("# [{}] per-layer block marked \"reliable\": false", w.name);
        }
        for e in &w.errors {
            println!("# check FAILED [{}]: {e}", w.name);
        }
    }
    let correct = workloads.iter().all(|w| w.correct);
    let summary = Summary {
        schema: 1,
        set,
        seed: plan.seed,
        seconds: plan.seconds,
        repeats,
        smoke,
        meta: common::host_metadata(),
        workloads,
    };
    let path = plan.dir.join("summary.json");
    let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
    std::fs::write(&path, report::pretty_json(&json))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(correct)
}
