//! The benchmark's own span list.
//!
//! Spans are recorded from outside the library crates, around each call
//! into a layer, kept in memory, and written once at exit as Chrome trace
//! JSON (loads in Perfetto / `chrome://tracing`). A span carries its name,
//! start, end, the span that caused it, and the id of the operation it
//! belongs to (episode number, request id, frame sequence). Counts are
//! recorded at the same boundaries. A disabled tracer reads no clock, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept per thread before further ones are only counted.
const SPAN_CAP: usize = 400_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Chrome-trace thread lane.
    pub lane: &'static str,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the threads of a run so their lanes line up).
    pub fn new(epoch: Instant, lane: &'static str, enabled: bool) -> Self {
        Tracer {
            epoch,
            lane,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A second recorder on the same clock for another thread.
    pub fn fork(&self, lane: &'static str) -> Tracer {
        Tracer::new(self.epoch, lane, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0 as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Records an interval measured by the caller (both instants on this
    /// tracer's clock) under the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: rel(start), end_ns: rel(end), parent, op });
    }

    /// Adds `n` to a named count (recorded whether or not spans are).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not double-counted,
/// and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Sorted durations, for percentiles.
    pub durations_ns: Vec<u64>,
}

/// Groups spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
        e.durations_ns.push(s.end_ns - s.start_ns);
    }
    for e in out.values_mut() {
        e.durations_ns.sort_unstable();
    }
    out
}

/// Events written per lane; the rest of a long run is summarised by the
/// per-layer metrics, and a trace file stays small enough to open.
const EVENTS_PER_LANE: usize = 20_000;

/// Serialises the tracers of one run as Chrome trace JSON: complete
/// (`"ph":"X"`) events in microseconds, one lane per tracer, parent and
/// operation ids under `args`, counts as one metadata event per lane.
pub fn chrome_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };
    for (tid, t) in tracers.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.lane
            ),
        );
        for (id, s) in t.spans.iter().take(EVENTS_PER_LANE).enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.op
                ),
            );
        }
        let counts: Vec<String> = t
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .chain([
                format!("\"spans_recorded\":{}", t.spans.len()),
                format!("\"spans_dropped\":{}", t.dropped),
            ])
            .collect();
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"counts\",\"args\":{{{}}}}}",
                counts.join(",")
            ),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("episode", 0, 100, NO_PARENT),
            span("step", 10, 30, 0),
            // Overlaps the previous child by 10 ns: coverage is a union.
            span("step", 20, 50, 0),
            // Sticks out of the parent: clipped at 100.
            span("update", 90, 120, 0),
            span("gather", 92, 95, 3),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,50) ∪ [90,100) = 50 ns of the parent's 100.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 27);
        assert_eq!(selfs[4], 3);
        let agg = aggregate(&spans);
        assert_eq!(agg["step"].count, 2);
        assert_eq!(agg["step"].total_ns, 50);
        assert_eq!(agg["episode"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_by_stack_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, "main", true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let root = t.begin("root2", 8);
        t.end(root);
        t.count("frames", 3);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert_eq!(t.spans()[2].parent, NO_PARENT);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.counts()["frames"], 3);

        let mut off = Tracer::new(epoch, "main", false);
        let id = off.begin("x", 0);
        off.end(id);
        off.record("y", 0, epoch, Instant::now());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut t = Tracer::new(Instant::now(), "learner", true);
        let id = t.begin("a", 1);
        t.end(id);
        let json = chrome_json(&[&t]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(json.contains("\"name\":\"learner\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
