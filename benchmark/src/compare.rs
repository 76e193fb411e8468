//! `bench_e2e compare A/summary.json B/summary.json`: applies each
//! end-to-end metric's bound to every (metric, workload) row of two sets,
//! B judged against A.

use crate::report::{Summary, WorkloadSummary};
use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the row can show neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(worsening: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(text.trim()).map_err(|e| format!("parse {path}: {e}"))
}

fn failure_ratio(w: &WorkloadSummary) -> f64 {
    w.ops_failed as f64 / w.ops_attempted.max(1) as f64
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: bench_e2e compare A/summary.json B/summary.json".to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "# A {} (seed {}, {} repeats)  B {} (seed {}, {} repeats)",
        a.set, a.seed, a.repeats, b.set, b.seed, b.repeats
    );
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "bound %", "spread %"
    );
    let mut ok = true;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<16} missing from B", wa.name);
            ok = false;
            continue;
        };
        if !(wa.correct && wb.correct) {
            println!(
                "{:<16} failed its correctness checks (A {}, B {})",
                wa.name, wa.correct, wb.correct
            );
            ok = false;
        }
        if failure_ratio(wb) > failure_ratio(wa) {
            println!(
                "{:<16} ops_failed/ops_attempted rose: {}/{} -> {}/{}",
                wa.name, wa.ops_failed, wa.ops_attempted, wb.ops_failed, wb.ops_attempted
            );
            ok = false;
        }
        for m in &spec::END_TO_END {
            let series =
                |w: &WorkloadSummary| w.end_to_end.iter().find(|s| s.name == m.name).cloned();
            let (Some(sa), Some(sb)) = (series(wa), series(wb)) else {
                println!("{:<16} {:<12} missing", wa.name, m.name);
                ok = false;
                continue;
            };
            let worse = worsening(sa.median, sb.median, m.better);
            let spread = match (stats::spread(&sa.values), stats::spread(&sb.values)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(worse, spread, m.bound);
            ok &= v != Verdict::Worse;
            println!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+9.2} {:>7.1} {:>8}  {}",
                wa.name,
                m.name,
                sa.median,
                sb.median,
                worse * 100.0,
                m.bound * 100.0,
                spread.map_or("n/a".to_owned(), |s| format!("{:.2}", s * 100.0)),
                v.label()
            );
        }
    }
    println!(
        "# {}",
        if ok { "no row is worse than its bound" } else { "REGRESSION or failed checks" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(0.06, Some(0.01), 0.05), Verdict::Worse);
        assert_eq!(verdict(-0.06, Some(0.01), 0.05), Verdict::Better);
        assert_eq!(verdict(0.04, Some(0.01), 0.05), Verdict::WithinBound);
        assert_eq!(verdict(0.04, None, 0.05), Verdict::WithinBound);
        // A spread wider than the bound hides both regressions and gains.
        assert_eq!(verdict(0.20, Some(0.08), 0.05), Verdict::Unresolved);
        assert_eq!(verdict(0.00, Some(0.08), 0.05), Verdict::Unresolved);
    }
}
