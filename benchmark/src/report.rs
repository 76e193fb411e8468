//! What a run reports and how it is written: `name value unit` lines, the
//! one-line JSON result the acceptance driver reads, the per-run result
//! file, and the `summary.json` of a full set.

use crate::spec::{self, MetricSpec};
use crate::stats;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// An additivity or overhead check. A failed gate does not fail the run:
/// it marks the workload's per-layer block unreliable and says why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    pub name: String,
    pub value: f64,
    pub limit: f64,
    pub ok: bool,
}

impl Gate {
    /// A gate that holds while `value <= limit`.
    pub fn at_most(name: &str, value: f64, limit: f64) -> Gate {
        Gate { name: name.to_owned(), value, limit, ok: value <= limit }
    }
}

/// The result of one workload process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    /// Operations attempted in the timed section (env steps or requests).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricValue>,
    pub gates: Vec<Gate>,
    /// Workload sizes actually run (episodes, updates, requests, ...).
    pub sizes: Vec<MetricValue>,
    /// Failed correctness checks, in words.
    pub errors: Vec<String>,
}

/// Collects a workload's numbers by metric name; [`Outcome::finish`]
/// orders them by the spec and fills layers the workload does not touch
/// with 0.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    pub gates: Vec<Gate>,
    pub sizes: Vec<MetricValue>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be in the spec.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END.iter().chain(&spec::PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the spec"
        );
        assert!(!self.values.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn size(&mut self, name: &str, value: f64, unit: &str) {
        self.sizes.push(MetricValue { name: name.to_owned(), unit: unit.to_owned(), value });
    }

    /// Records a failed (or passed) correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn collect(&self, specs: &[MetricSpec]) -> Vec<MetricValue> {
        specs
            .iter()
            .map(|m| MetricValue {
                name: m.name.to_owned(),
                unit: m.unit.to_owned(),
                value: self.values.iter().find(|(n, _)| *n == m.name).map_or(0.0, |&(_, v)| v),
            })
            .collect()
    }

    pub fn finish(self, workload: &str, seed: u64, seconds: f64, traced: bool) -> RunResult {
        let metrics =
            if traced { self.collect(&spec::PER_LAYER) } else { self.collect(&spec::END_TO_END) };
        let mut errors = self.errors;
        for m in &metrics {
            if !m.value.is_finite() {
                errors.push(format!("metric {} is not finite", m.name));
            }
            if !traced && m.value <= 0.0 {
                errors.push(format!("end-to-end metric {} is not positive", m.name));
            }
        }
        if self.attempted == 0 {
            errors.push("no operation was attempted".to_owned());
        }
        RunResult {
            workload: workload.to_owned(),
            seed,
            seconds,
            traced,
            correct: errors.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            gates: self.gates,
            sizes: self.sizes,
            errors,
        }
    }
}

/// Formats a float with all the digits it was measured with (`Display`
/// for `f64` never uses exponent form, which our own JSON reader and the
/// driver's both accept).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl RunResult {
    /// Prints sizes, metrics, gates and failed checks as text lines, then
    /// the result object as the last line of standard output.
    pub fn print(&self) {
        for s in &self.sizes {
            println!("# size {} {} {}", s.name, num(s.value), s.unit);
        }
        for m in &self.metrics {
            println!("{} {} {}", m.name, num(m.value), m.unit);
        }
        println!("ops_attempted {} count", self.attempted);
        println!("ops_failed {} count", self.failed);
        for g in &self.gates {
            let verdict = if g.ok { "ok" } else { "VIOLATED" };
            println!(
                "# gate {} {} (limit {}) {verdict} [{}]",
                g.name,
                num(g.value),
                num(g.limit),
                self.workload
            );
        }
        for e in &self.errors {
            println!("# check FAILED [{}]: {e}", self.workload);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyValue {
    pub key: String,
    pub value: String,
}

/// An end-to-end metric over the repeats of a set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSeries {
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub values: Vec<f64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSummary {
    pub name: String,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub end_to_end: Vec<MetricSeries>,
    /// Whether every additivity and overhead gate held; when false the
    /// per-layer numbers below are printed but should not be trusted.
    pub reliable: bool,
    pub gates: Vec<Gate>,
    /// Medians over the repeats of the traced run.
    pub per_layer: Vec<MetricValue>,
    pub sizes: Vec<MetricValue>,
    pub errors: Vec<String>,
    pub trace_file: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    pub schema: u32,
    pub set: String,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: u32,
    pub smoke: bool,
    pub meta: Vec<KeyValue>,
    pub workloads: Vec<WorkloadSummary>,
}

/// Trace overhead above which a workload's layer numbers are unreliable.
pub const TRACE_OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// Folds the untraced and traced results of one workload's repeats.
pub fn summarize_workload(
    name: &str,
    untraced: &[RunResult],
    traced: &[RunResult],
    trace_file: &str,
) -> WorkloadSummary {
    let all = || untraced.iter().chain(traced);
    let series = |m: &MetricSpec| {
        let values: Vec<f64> = untraced.iter().filter_map(|r| r.metric(m.name)).collect();
        MetricSeries {
            name: m.name.to_owned(),
            unit: m.unit.to_owned(),
            median: stats::median(&values),
            values,
        }
    };
    let per_layer: Vec<MetricValue> = spec::PER_LAYER
        .iter()
        .map(|m| {
            let values: Vec<f64> = traced.iter().filter_map(|r| r.metric(m.name)).collect();
            MetricValue {
                name: m.name.to_owned(),
                unit: m.unit.to_owned(),
                value: stats::median(&values),
            }
        })
        .collect();
    // Worsening of the workload's primary metric under tracing, in percent.
    let primary =
        spec::WORKLOADS.iter().find(|w| w.name == name).map_or("ops_per_s", |w| w.primary);
    let layer = |n: &str| per_layer.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
    let base =
        stats::median(&untraced.iter().filter_map(|r| r.metric(primary)).collect::<Vec<_>>());
    let overhead_pct = if primary == "op_p50_us" {
        (layer("obs.traced_op_p50_us") - base) / base * 100.0
    } else {
        (base - layer("obs.traced_ops_per_s")) / base * 100.0
    };
    let mut gates: Vec<Gate> = traced.last().map(|r| r.gates.clone()).unwrap_or_default();
    gates.push(Gate::at_most("obs.trace_overhead_pct", overhead_pct, TRACE_OVERHEAD_LIMIT_PCT));
    let mut per_layer = per_layer;
    per_layer.push(MetricValue {
        name: "obs.trace_overhead_pct".to_owned(),
        unit: "%".to_owned(),
        value: overhead_pct,
    });
    WorkloadSummary {
        name: name.to_owned(),
        correct: all().all(|r| r.correct),
        ops_attempted: untraced.iter().map(|r| r.attempted).sum(),
        ops_failed: untraced.iter().map(|r| r.failed).sum(),
        end_to_end: spec::END_TO_END.iter().map(series).collect(),
        reliable: gates.iter().all(|g| g.ok),
        gates,
        per_layer,
        sizes: untraced.last().map(|r| r.sizes.clone()).unwrap_or_default(),
        errors: all().flat_map(|r| r.errors.iter().cloned()).collect(),
        trace_file: trace_file.to_owned(),
    }
}

/// Indents compact JSON, keeping an object or array that holds no other
/// object or array on one line. A quote toggles string state and a
/// backslash skips a character, so braces inside strings are inert.
pub fn pretty_json(compact: &str) -> String {
    let chars: Vec<char> = compact.chars().collect();
    // Whether the container opening at `open` has no container inside.
    let is_leaf = |open: usize| {
        let mut in_str = false;
        let mut i = open + 1;
        while i < chars.len() {
            match chars[i] {
                '\\' if in_str => i += 1,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => return false,
                '}' | ']' if !in_str => return true,
                _ => {}
            }
            i += 1;
        }
        true
    };
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    // Depth of the leaf container being copied through on one line.
    let mut leaf_depth: Option<usize> = None;
    let mut in_str = false;
    let mut i = 0;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', depth));
    };
    while i < chars.len() {
        let c = chars[i];
        i += 1;
        if in_str {
            out.push(c);
            match c {
                '\\' => {
                    out.extend(chars.get(i));
                    i += 1;
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                if is_leaf(i - 1) {
                    leaf_depth = Some(depth);
                } else {
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                if leaf_depth == Some(depth) {
                    leaf_depth = None;
                    depth -= 1;
                } else {
                    depth -= 1;
                    newline(&mut out, depth);
                }
                out.push(c);
            }
            ',' => {
                out.push(c);
                if leaf_depth.is_some() {
                    out.push(' ');
                } else {
                    newline(&mut out, depth);
                }
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_json_round_trips_through_the_parser() {
        let v = KeyValue { key: "cpu \"model\" {x}".into(), value: "a,b:[c]".into() };
        let pretty = pretty_json(&serde_json::to_string(&vec![v.clone()]).unwrap());
        assert_eq!(pretty.lines().count(), 3, "leaf objects stay on one line:\n{pretty}");
        let back: Vec<KeyValue> = serde_json::from_str(pretty.trim()).unwrap();
        assert_eq!(back, vec![v]);
    }

    #[test]
    fn outcome_fills_untouched_layers_with_zero_and_rejects_zero_end_to_end() {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        o.set("nn.matmul_gflops", 3.5);
        let r = o.finish("train-pp3", 1, 8.0, true);
        assert!(r.correct);
        assert_eq!(r.metrics.len(), spec::PER_LAYER.len());
        assert_eq!(r.metric("nn.matmul_gflops"), Some(3.5));
        assert_eq!(r.metric("serve.sent"), Some(0.0));

        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        o.set("ops_per_s", 5.0);
        let r = o.finish("train-pp3", 1, 8.0, false);
        assert!(!r.correct, "missing end-to-end metrics read as 0 and must fail the run");
    }
}
