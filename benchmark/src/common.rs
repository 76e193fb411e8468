//! Pieces every workload shares: the repeated, timed set-up, latency
//! percentiles under the sample-count rule, peak memory, and the host
//! fingerprint printed with every result.

use crate::report::KeyValue;
use crate::{stats, RunArgs};
use std::time::Instant;

/// Runs `set_up` several times (fresh state each time, earlier instances
/// dropped first), keeps the last instance for the timed section, and
/// returns the median set-up time in seconds. One measurement of a
/// sub-second set-up is mostly page-fault and scheduler noise, so quick
/// set-ups repeat more often: at least 3 times, then until a second has
/// been spent, at most 25 times.
pub fn median_set_up<T>(
    args: &RunArgs,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (min_reps, max_reps, budget_s) = if args.smoke { (1, 1, 0.0) } else { (3, 25, 1.0) };
    let mut times: Vec<f64> = Vec::with_capacity(max_reps);
    let mut kept = None;
    while times.len() < min_reps || (times.len() < max_reps && times.iter().sum::<f64>() < budget_s)
    {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(set_up()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Percentile `q` of ascending nanosecond samples, in microseconds, under
/// the sample-count rule: a tail that fewer than ten samples lie beyond
/// is not reported (0, and a note with the count).
pub fn tail_us(sorted_ns: &[u64], q: f64, what: &str) -> f64 {
    if !stats::supports(sorted_ns.len(), q) {
        println!(
            "# note {what}: p{:.0} of {} samples has fewer than 10 beyond it; not reported",
            q * 100.0,
            sorted_ns.len()
        );
        return 0.0;
    }
    stats::percentile(sorted_ns, q) as f64 / 1e3
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where and on what the numbers were measured.
pub fn host_metadata() -> Vec<KeyValue> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kv = |key: &str, value: String| KeyValue { key: key.to_owned(), value };
    vec![
        kv("nproc", nproc.to_string()),
        kv("cpu_model", cpu),
        kv("simd_available", marl_nn::kernels::simd_available().to_string()),
        kv("kernel_auto_selected", format!("{:?}", marl_nn::kernels::active()).to_lowercase()),
        // The acceptance checkout is not a git repository; there the
        // commit is whatever the caller exported, or unknown.
        kv(
            "git_sha",
            std::env::var("BENCH_GIT_SHA")
                .ok()
                .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
                .unwrap_or_else(|| "unknown".to_owned()),
        ),
        kv("rustc", command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())),
    ]
}
