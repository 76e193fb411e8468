//! Zero-allocation span tracing.
//!
//! A [`SpanTracer`] owns a preallocated ring buffer of
//! `(label, tid, start_ns, end_ns)` events, stamped on the process clock
//! ([`crate::clock::now_ns`]) by the caller, which reads each boundary
//! once for the span and the phase timing it belongs to. Recording a
//! span is a short critical section over the ring — no heap traffic —
//! so instrumented hot paths keep the workspace's steady-state
//! zero-allocation guarantee (`tests/alloc_steady_state.rs`). When the
//! ring fills, the oldest events are overwritten and counted in
//! [`SpanTracer::dropped`], bounding memory for arbitrarily long runs.
//!
//! Spans are drained at episode boundaries (where allocation is
//! permitted) into the Chrome trace-event writer ([`crate::chrome`]).

use crate::clock;
use parking_lot::Mutex;

/// Default ring capacity: 64 Ki events ≈ 2 MiB.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Whether a span participates in a cross-process flow (an arrow on the
/// merged timeline) and in which direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlowDir {
    /// Not part of a flow.
    #[default]
    None,
    /// Flow origin — a `send` span; the arrow leaves here.
    Out,
    /// Flow destination — a `recv` span; the arrow lands here.
    In,
}

/// One completed span. `label` is `&'static` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static display label (Chrome trace `name`).
    pub label: &'static str,
    /// Logical lane: 0 = the coordinating trainer thread, `1 + k` = the
    /// per-agent update lane for agent `k`.
    pub tid: u32,
    /// Start, nanoseconds on the process clock.
    pub start_ns: u64,
    /// End, nanoseconds on the process clock.
    pub end_ns: u64,
    /// Cross-process flow id (the sending span's trace-context span id);
    /// 0 unless `flow != FlowDir::None`.
    pub flow_id: u64,
    /// Flow participation of this span.
    pub flow: FlowDir,
}

impl SpanEvent {
    /// A plain (non-flow) complete span.
    pub fn complete(label: &'static str, tid: u32, start_ns: u64, end_ns: u64) -> Self {
        SpanEvent { label, tid, start_ns, end_ns, flow_id: 0, flow: FlowDir::None }
    }
}

/// Fixed-capacity overwrite-oldest ring of span events.
#[derive(Debug)]
struct Ring {
    buf: Vec<SpanEvent>,
    /// Next write position once the buffer is at capacity.
    head: usize,
    /// Events overwritten before they could be drained.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % cap;
    }
}

/// A preallocated, thread-safe span recorder.
///
/// # Examples
///
/// ```
/// use marl_obs::span::SpanTracer;
///
/// let tracer = SpanTracer::new(128);
/// let start = marl_obs::clock::now_ns();
/// // ... timed work ...
/// tracer.record("mini-batch-sampling", 0, start, marl_obs::clock::now_ns());
/// let mut events = Vec::new();
/// tracer.drain_into(&mut events);
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].label, "mini-batch-sampling");
/// ```
#[derive(Debug)]
pub struct SpanTracer {
    ring: Mutex<Ring>,
}

impl SpanTracer {
    /// Creates a tracer with room for `capacity` events (all storage is
    /// allocated up front).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanTracer {
            ring: Mutex::new(Ring { buf: Vec::with_capacity(capacity), head: 0, dropped: 0 }),
        }
    }

    /// Wall-clock time (ns since the Unix epoch) of the process clock's
    /// zero ([`clock::unix_anchor_ns`]) — the coarse cross-process
    /// alignment anchor of every span this process records.
    pub fn unix_anchor_ns(&self) -> u64 {
        clock::unix_anchor_ns()
    }

    /// Records one completed span. Allocation-free.
    pub fn record(&self, label: &'static str, tid: u32, start_ns: u64, end_ns: u64) {
        self.ring.lock().push(SpanEvent::complete(label, tid, start_ns, end_ns));
    }

    /// Records one completed span participating in a cross-process flow
    /// (`flow_id` is the shared trace-context span id). Allocation-free.
    pub fn record_flow(
        &self,
        label: &'static str,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        flow_id: u64,
        flow: FlowDir,
    ) {
        self.ring.lock().push(SpanEvent { label, tid, start_ns, end_ns, flow_id, flow });
    }

    /// Moves all buffered events, oldest first, into `out` (appending) and
    /// empties the ring. `out` may allocate; call this only at episode
    /// boundaries.
    pub fn drain_into(&self, out: &mut Vec<SpanEvent>) {
        let mut ring = self.ring.lock();
        if ring.buf.len() < ring.buf.capacity() {
            // Never filled since the last drain: chronological from 0.
            out.extend_from_slice(&ring.buf);
        } else {
            // At capacity: the oldest event lives at `head` (head == 0
            // for an exact fill, making the split a no-op).
            let head = ring.head;
            out.extend_from_slice(&ring.buf[head..]);
            out.extend_from_slice(&ring.buf[..head]);
        }
        ring.buf.clear();
        ring.head = 0;
    }

    /// Events overwritten before a drain could save them.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_order() {
        let t = SpanTracer::new(16);
        t.record("a", 0, 10, 20);
        t.record("b", 1, 20, 30);
        let mut out = Vec::new();
        t.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].label, "a");
        assert_eq!(out[1].tid, 1);
        // Drained: ring is empty again.
        out.clear();
        t.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let t = SpanTracer::new(4);
        for i in 0..7u64 {
            t.record("x", 0, i, i + 1);
        }
        assert_eq!(t.dropped(), 3);
        let mut out = Vec::new();
        t.drain_into(&mut out);
        assert_eq!(out.len(), 4);
        // Oldest surviving event first.
        assert_eq!(out[0].start_ns, 3);
        assert_eq!(out[3].start_ns, 6);
    }

    #[test]
    fn flow_spans_carry_id_and_direction() {
        let t = SpanTracer::new(8);
        t.record_flow("send", 0, 5, 9, 0xBEEF, FlowDir::Out);
        t.record("plain", 0, 10, 11);
        let mut out = Vec::new();
        t.drain_into(&mut out);
        assert_eq!(out[0].flow, FlowDir::Out);
        assert_eq!(out[0].flow_id, 0xBEEF);
        assert_eq!(out[1].flow, FlowDir::None);
        assert_eq!(out[1].flow_id, 0);
    }

    #[test]
    fn tracers_share_the_process_anchor() {
        let a = SpanTracer::new(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = SpanTracer::new(1);
        assert_eq!(a.unix_anchor_ns(), b.unix_anchor_ns());
        assert_eq!(a.unix_anchor_ns(), clock::unix_anchor_ns());
    }

    #[test]
    fn drain_after_exact_fill_is_chronological() {
        let t = SpanTracer::new(3);
        for i in 0..3u64 {
            t.record("x", 0, i, i + 1);
        }
        let mut out = Vec::new();
        t.drain_into(&mut out);
        assert_eq!(out.iter().map(|e| e.start_ns).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
