//! Fleet-wide aggregation: merging per-process traces, metrics, and
//! Prometheus expositions into single cross-process artifacts.
//!
//! Every process in a fleet run (learner, workers, serve, the bench
//! client) drains its own span ring into its own Chrome-trace file and
//! writes its own metrics snapshots, exactly as in single-process runs.
//! The orchestrator (`marl-fleet`) then calls into this module to:
//!
//! * [`merge_chrome_traces`] — combine the per-process trace files into
//!   one Perfetto-loadable timeline, one `pid` lane per process, with
//!   each process's timestamps shifted by its clock alignment so spans
//!   from different processes line up, and flow-event ids left intact so
//!   the `s`/`f` pairs recorded on either side of a frame become arrows.
//! * [`merge_prometheus`] — re-emit per-process text expositions as one
//!   exposition with `process` (and, for workers, `worker_id`) labels.
//! * [`crate::metrics::HistogramSnapshot::merge`] — fold per-process
//!   histogram snapshots into fleet-wide percentiles (the log-linear
//!   buckets add associatively).
//!
//! The trace inputs are parsed structurally but rewritten by targeted
//! string surgery on the `pid`/`ts` fields: the files are produced by
//! [`crate::chrome::ChromeTraceWriter`], whose event grammar is fixed
//! (one object per line, `,\n`-joined), and the vendored `serde_json`
//! deliberately has no dynamic `Value` tree to round-trip unknown
//! fields through.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};

/// One process's trace contribution to a merged timeline.
#[derive(Debug, Clone)]
pub struct ProcessTrace {
    /// Display name for the lane (e.g. `learner`, `worker-0`, `serve`).
    pub name: String,
    /// The process's Chrome-trace JSON, as written by its tracer.
    pub json: String,
    /// Nanoseconds to add to every timestamp to map the process's tracer
    /// clock onto the merged (reference) clock.
    pub align_ns: i64,
}

/// What a merge produced — asserted by tests and the CI fleet leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeStats {
    /// Process lanes emitted.
    pub lanes: usize,
    /// Duration (`ph:X`) events merged.
    pub events: usize,
    /// Flow-start (`ph:s`) events.
    pub flow_starts: usize,
    /// Flow-finish (`ph:f`) events.
    pub flow_finishes: usize,
    /// Flow ids seen with both a start and a finish — rendered arrows.
    pub paired_flows: usize,
}

/// The single-line JSON summary every fleet process reports (learner and
/// serve on stdout, workers via a file since their stdout is nulled by
/// the worker pool). Fields default so older/leaner producers parse.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessSummary {
    /// Role name: `learner`, `worker-K`, `serve`, `client`.
    pub process: String,
    /// Worker index for worker processes (0 otherwise).
    #[serde(default)]
    pub worker_id: u32,
    /// Wall-clock anchor of the process clock's zero (ns since Unix
    /// epoch); the coarse cross-process alignment fallback.
    #[serde(default)]
    pub epoch_unix_ns: u64,
    /// RTT-estimated peer-minus-local clock offset (ns); workers measure
    /// against the learner, the bench client against serve. 0 when no
    /// round trips were observed.
    #[serde(default)]
    pub clock_offset_ns: i64,
    /// EWMA-smoothed round-trip time behind the offset estimate (ns).
    #[serde(default)]
    pub clock_rtt_ns: u64,
    /// Round trips feeding the estimate.
    #[serde(default)]
    pub clock_samples: u64,
    /// Span-ring events overwritten before drain (truncation marker).
    #[serde(default)]
    pub spans_dropped: u64,
    /// Episodes contributed (training processes).
    #[serde(default)]
    pub episodes: u64,
    /// Environment steps executed (training processes).
    #[serde(default)]
    pub env_steps: u64,
    /// Inference requests handled or issued (serve / client processes).
    #[serde(default)]
    pub requests: u64,
}

/// Wall-clock alignment of a peer onto a reference process: add this to
/// peer-tracer timestamps to land on the reference tracer's clock. Exact
/// on one host up to anchor-capture jitter; RTT-estimated offsets
/// ([`ProcessSummary::clock_offset_ns`]) are preferred when available.
pub fn wall_clock_align_ns(peer_epoch_unix_ns: u64, reference_epoch_unix_ns: u64) -> i64 {
    peer_epoch_unix_ns as i64 - reference_epoch_unix_ns as i64
}

/// Extracts the numeric text of `"key":<number>` from a single-line
/// event, returning `(value_text, value_range)`.
fn num_field<'a>(ev: &'a str, key: &str) -> Option<(&'a str, std::ops::Range<usize>)> {
    let pat = format!("\"{key}\":");
    let at = ev.find(&pat)? + pat.len();
    let rest = &ev[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some((&rest[..end], at..at + end))
}

/// Replaces the numeric value of `"key":<number>` in `ev` with `new`.
fn replace_num_field(ev: &mut String, key: &str, new: &str) {
    if let Some((_, range)) = num_field(ev, key) {
        ev.replace_range(range, new);
    }
}

/// Splits a Chrome-trace file produced by our writer into its event
/// strings. Tolerates a missing `]}` footer (crashed process).
fn split_events(json: &str) -> Vec<&str> {
    let body = json.strip_prefix("{\"traceEvents\":[").unwrap_or(json);
    let body = body.trim_end();
    let body = body.strip_suffix("]}").unwrap_or(body);
    body.split(",\n").map(str::trim).filter(|e| !e.is_empty()).collect()
}

/// Merges per-process Chrome traces into one timeline written to `out`.
///
/// Process `i` of `inputs` becomes pid `i + 1`; its `process_name`
/// metadata is rewritten to [`ProcessTrace::name`] and every event
/// timestamp is shifted by [`ProcessTrace::align_ns`]. Flow ids pass
/// through untouched, so a `send` span's `ph:s` and the matching `recv`
/// span's `ph:f` (stamped with the same trace-context span id in two
/// different processes) pair up in the merged file.
pub fn merge_chrome_traces(inputs: &[ProcessTrace], out: &mut dyn Write) -> io::Result<MergeStats> {
    let mut stats = MergeStats::default();
    let mut start_ids: BTreeSet<u64> = BTreeSet::new();
    let mut finish_ids: BTreeSet<u64> = BTreeSet::new();
    out.write_all(b"{\"traceEvents\":[")?;
    let mut wrote = false;
    for (i, input) in inputs.iter().enumerate() {
        let pid = (i + 1).to_string();
        let align_us = input.align_ns as f64 / 1000.0;
        let mut named = false;
        for raw in split_events(&input.json) {
            let mut ev = raw.to_string();
            replace_num_field(&mut ev, "pid", &pid);
            if let Some((ts, _)) = num_field(&ev, "ts") {
                if let Ok(ts_us) = ts.parse::<f64>() {
                    let shifted = format!("{:.3}", ts_us + align_us);
                    replace_num_field(&mut ev, "ts", &shifted);
                }
            }
            if ev.contains("\"name\":\"process_name\"") {
                // Rename the lane after the real process role.
                if let Some(at) = ev.find("\"args\":{\"name\":\"") {
                    let start = at + "\"args\":{\"name\":\"".len();
                    if let Some(len) = ev[start..].find('"') {
                        ev.replace_range(start..start + len, &input.name);
                        named = true;
                    }
                }
            } else if ev.contains("\"ph\":\"X\"") {
                stats.events += 1;
            } else if ev.contains("\"ph\":\"s\"") {
                stats.flow_starts += 1;
                if let Some((id, _)) = num_field(&ev, "id") {
                    if let Ok(id) = id.parse::<u64>() {
                        start_ids.insert(id);
                    }
                }
            } else if ev.contains("\"ph\":\"f\"") {
                stats.flow_finishes += 1;
                if let Some((id, _)) = num_field(&ev, "id") {
                    if let Ok(id) = id.parse::<u64>() {
                        finish_ids.insert(id);
                    }
                }
            }
            if wrote {
                out.write_all(b",\n")?;
            }
            out.write_all(ev.as_bytes())?;
            wrote = true;
        }
        if !named {
            // Input had no metadata (crashed very early): synthesize the
            // lane name so the merged view still shows the process.
            let meta = format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                input.name
            );
            if wrote {
                out.write_all(b",\n")?;
            }
            out.write_all(meta.as_bytes())?;
            wrote = true;
        }
        stats.lanes += 1;
    }
    out.write_all(b"]}\n")?;
    out.flush()?;
    stats.paired_flows = start_ids.intersection(&finish_ids).count();
    Ok(stats)
}

/// Merges per-process Prometheus text expositions into one, labelling
/// every sample with its `process` (and `worker_id` for `worker-K`
/// processes). `# HELP`/`# TYPE` headers are emitted once per metric
/// family, and all samples of a family stay contiguous as the format
/// requires.
pub fn merge_prometheus(inputs: &[(String, String)]) -> String {
    // family name -> (header lines, sample lines in arrival order)
    let mut families: BTreeMap<String, (Vec<String>, Vec<String>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for (process, text) in inputs {
        let worker_id = process.strip_prefix("worker-").and_then(|s| s.parse::<u32>().ok());
        let mut current = String::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) =
                line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE "))
            {
                let name = rest.split_whitespace().next().unwrap_or("").to_string();
                if name != current {
                    current = name.clone();
                }
                let entry = families.entry(name.clone()).or_insert_with(|| {
                    order.push(name);
                    (Vec::new(), Vec::new())
                });
                if !entry.0.contains(&line.to_string()) {
                    entry.0.push(line.to_string());
                }
                continue;
            }
            // Sample line: inject the process (and worker) labels.
            let mut labels = format!("process=\"{process}\"");
            if let Some(w) = worker_id {
                labels.push_str(&format!(",worker_id=\"{w}\""));
            }
            let labelled = match line.find('{') {
                Some(brace) => {
                    format!("{}{{{labels},{}", &line[..brace], &line[brace + 1..])
                }
                None => match line.find(' ') {
                    Some(space) => {
                        format!("{}{{{labels}}}{}", &line[..space], &line[space..])
                    }
                    None => line.to_string(),
                },
            };
            // Attribute to the family declared by the last header; series
            // without one (phase lines) get their own family keyed by the
            // bare metric name.
            let bare =
                line.split(['{', ' ']).next().unwrap_or("").trim_end_matches("_bucket").to_string();
            let family =
                if !current.is_empty() && (bare == current || bare.starts_with(current.as_str())) {
                    current.clone()
                } else {
                    bare
                };
            let entry = families.entry(family.clone()).or_insert_with(|| {
                order.push(family);
                (Vec::new(), Vec::new())
            });
            entry.1.push(labelled);
        }
    }
    let mut out = String::new();
    for name in &order {
        if let Some((headers, samples)) = families.get(name) {
            for h in headers {
                out.push_str(h);
                out.push('\n');
            }
            for s in samples {
                out.push_str(s);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::ChromeTraceWriter;
    use crate::span::{FlowDir, SpanTracer};

    fn trace_with(process: &str, pid: u32, spans: impl FnOnce(&SpanTracer)) -> String {
        let tracer = SpanTracer::new(64);
        spans(&tracer);
        let mut events = Vec::new();
        tracer.drain_into(&mut events);
        let mut buf = Vec::new();
        let mut w = ChromeTraceWriter::with_process(&mut buf, pid, process).unwrap();
        w.write_events(&events).unwrap();
        w.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn merge_remaps_pids_shifts_ts_and_pairs_flows() {
        let worker = trace_with("ignored", 1, |t| {
            t.record_flow("steps-send", 0, 1_000_000, 2_000_000, 42, FlowDir::Out);
            t.record("rollout", 0, 0, 900_000);
        });
        let learner = trace_with("ignored", 1, |t| {
            t.record_flow("steps-ingest", 0, 500_000, 700_000, 42, FlowDir::In);
        });
        let inputs = [
            ProcessTrace { name: "worker-0".into(), json: worker, align_ns: -1_000_000 },
            ProcessTrace { name: "learner".into(), json: learner, align_ns: 2_000_000 },
        ];
        let mut out = Vec::new();
        let stats = merge_chrome_traces(&inputs, &mut out).unwrap();
        assert_eq!(stats.lanes, 2);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.flow_starts, 1);
        assert_eq!(stats.flow_finishes, 1);
        assert_eq!(stats.paired_flows, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        // Lanes renamed and remapped to pids 1 and 2.
        assert!(text.contains("\"args\":{\"name\":\"worker-0\"}"));
        assert!(text.contains("\"args\":{\"name\":\"learner\"}"));
        assert!(text.contains("\"pid\":2"));
        // Worker send shifted back 1 ms: 1_000_000 ns -> 0 us start.
        assert!(text.contains("\"name\":\"steps-send\"") && text.contains("\"ts\":0.000"));
        // Learner ingest shifted forward 2 ms: 500 us -> 2500 us.
        assert!(text.contains("\"ts\":2500.000"));
        // Flow ids intact on both sides.
        assert_eq!(text.matches("\"id\":42").count(), 2);
    }

    #[test]
    fn every_send_pairs_with_exactly_one_recv() {
        // Satellite: flow-event pairing — every worker send span pairs
        // with exactly one learner recv in the merged trace.
        let sends = 5u64;
        let worker = trace_with("w", 1, |t| {
            for s in 0..sends {
                let id = crate::context::span_id(0, s);
                t.record_flow("steps-send", 0, s * 1000, s * 1000 + 10, id, FlowDir::Out);
            }
        });
        let learner = trace_with("l", 1, |t| {
            for s in 0..sends {
                let id = crate::context::span_id(0, s);
                t.record_flow("steps-ingest", 0, s * 1000 + 500, s * 1000 + 600, id, FlowDir::In);
            }
        });
        let inputs = [
            ProcessTrace { name: "worker-0".into(), json: worker, align_ns: 0 },
            ProcessTrace { name: "learner".into(), json: learner, align_ns: 0 },
        ];
        let mut out = Vec::new();
        let stats = merge_chrome_traces(&inputs, &mut out).unwrap();
        assert_eq!(stats.flow_starts as u64, sends);
        assert_eq!(stats.flow_finishes as u64, sends);
        assert_eq!(stats.paired_flows as u64, sends, "every send must pair exactly once");
        let text = String::from_utf8(out).unwrap();
        for s in 0..sends {
            let id = crate::context::span_id(0, s);
            let occurrences = text.matches(&format!("\"id\":{id}")).count();
            assert_eq!(occurrences, 2, "flow {id} must appear once per side");
        }
    }

    #[test]
    fn truncated_input_still_merges() {
        let full = trace_with("x", 1, |t| t.record("work", 0, 10, 20));
        let truncated = full.trim_end().trim_end_matches("]}").to_string();
        let inputs = [ProcessTrace { name: "crashed".into(), json: truncated, align_ns: 0 }];
        let mut out = Vec::new();
        let stats = merge_chrome_traces(&inputs, &mut out).unwrap();
        assert_eq!(stats.events, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"args\":{\"name\":\"crashed\"}"));
    }

    #[test]
    fn prometheus_merge_labels_processes_once_per_family() {
        let a = "# HELP marl_updates_total Updates.\n# TYPE marl_updates_total counter\n\
                 marl_updates_total 7\nmarl_phase_ns_total{phase=\"sampling\"} 12\n";
        let b = "# HELP marl_updates_total Updates.\n# TYPE marl_updates_total counter\n\
                 marl_updates_total 9\n";
        let merged = merge_prometheus(&[
            ("learner".to_string(), a.to_string()),
            ("worker-1".to_string(), b.to_string()),
        ]);
        assert_eq!(merged.matches("# TYPE marl_updates_total counter").count(), 1);
        assert!(merged.contains("marl_updates_total{process=\"learner\"} 7"));
        assert!(merged.contains("marl_updates_total{process=\"worker-1\",worker_id=\"1\"} 9"));
        assert!(merged.contains("marl_phase_ns_total{process=\"learner\",phase=\"sampling\"} 12"));
        // Family samples stay contiguous: learner's 7 precedes worker's 9.
        let l = merged.find("process=\"learner\"} 7").unwrap();
        let w = merged.find("worker_id=\"1\"} 9").unwrap();
        assert!(l < w);
    }

    #[test]
    fn process_summary_roundtrips_and_defaults() {
        let s = ProcessSummary {
            process: "worker-2".into(),
            worker_id: 2,
            epoch_unix_ns: 1_700_000_000_000_000_000,
            clock_offset_ns: -12_345,
            clock_rtt_ns: 80_000,
            clock_samples: 9,
            spans_dropped: 0,
            episodes: 4,
            env_steps: 100,
            requests: 0,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: ProcessSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let minimal: ProcessSummary = serde_json::from_str("{\"process\":\"serve\"}").unwrap();
        assert_eq!(minimal.process, "serve");
        assert_eq!(minimal.clock_offset_ns, 0);
        assert_eq!(wall_clock_align_ns(1_000, 4_000), -3_000);
    }
}
