//! The work-conserving micro-batcher: a flush is due whenever anything
//! is queued, and takes up to `max_batch` requests in arrival order.
//!
//! The batcher never holds a request back waiting for company. Batches
//! form only from the requests that pile up while the engine is busy
//! with the previous forward: an idle engine answers a
//! lone request at once, a saturated one drains full batches back to
//! back.
//!
//! The core is deliberately *virtual-time*: every method takes `now_ns`
//! instead of reading a clock, so the property tests can drive arbitrary
//! arrival interleavings deterministically. The server threads feed it
//! real monotonic time.
//!
//! Requests travel as pooled [`RequestSlot`] boxes: a slot is taken from
//! the pool on arrival, carries the observation into the batch, carries
//! the action/logits back out to the combiner's coalesced send, and returns to
//! the pool — no allocation anywhere in the cycle once the pool and the
//! per-slot vectors are warmed.

use marl_obs::context::TraceCtx;
use std::collections::VecDeque;

/// Flush policy and capacity of a [`MicroBatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Largest batch one flush takes.
    pub max_batch: usize,
    /// Hard bound on queued requests; pushes beyond it are refused
    /// (callers block — bounded backpressure, never unbounded memory).
    pub queue_capacity: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 32, queue_capacity: 1024 }
    }
}

/// One in-flight request, pooled and reused.
#[derive(Debug, Default)]
pub struct RequestSlot {
    /// Client-chosen request id, echoed back verbatim.
    pub req_id: u64,
    /// Connection the response must return to.
    pub conn_id: u64,
    /// Target agent index.
    pub agent: u32,
    /// Observation (reused capacity).
    pub obs: Vec<f32>,
    /// Monotonic arrival timestamp, for latency measurement only.
    pub enqueued_at_ns: u64,
    /// Error code (`0` = ok; [`crate::proto::ERR_BAD_AGENT`] /
    /// [`crate::proto::ERR_BAD_OBS_DIM`] bypass inference).
    pub error: u32,
    /// Greedy action index (filled by the engine).
    pub action: u32,
    /// Model generation that answered (filled by the engine).
    pub epoch: u64,
    /// Actor logits for the observation (filled by the engine, reused
    /// capacity).
    pub logits: Vec<f32>,
    /// Client trace context carried through the batch and echoed in the
    /// response ([`TraceCtx::NONE`] for untraced requests).
    pub trace: TraceCtx,
}

impl RequestSlot {
    /// Resets the response fields for reuse (the vectors keep capacity).
    pub fn reset(&mut self) {
        self.req_id = 0;
        self.conn_id = 0;
        self.agent = 0;
        self.obs.clear();
        self.enqueued_at_ns = 0;
        self.error = 0;
        self.action = 0;
        self.epoch = 0;
        self.logits.clear();
        self.trace = TraceCtx::NONE;
    }
}

/// Bounded FIFO micro-batcher.
#[derive(Debug)]
pub struct MicroBatcher {
    queue: VecDeque<Box<RequestSlot>>,
    config: BatcherConfig,
}

impl MicroBatcher {
    /// An empty batcher with `config`'s policy; the queue is fully
    /// preallocated.
    pub fn new(config: BatcherConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.queue_capacity >= config.max_batch,
            "queue_capacity must hold at least one full batch"
        );
        MicroBatcher { queue: VecDeque::with_capacity(config.queue_capacity), config }
    }

    /// The flush policy in force.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether another push would be refused.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.queue_capacity
    }

    /// Enqueues a request, stamping it with its arrival instant
    /// `now_ns`. Refuses (handing the slot back unstamped) when the queue
    /// is at capacity — the caller blocks and retries after a flush,
    /// passing the same arrival instant so the time spent blocked counts
    /// toward the request's latency.
    pub fn push(
        &mut self,
        mut slot: Box<RequestSlot>,
        now_ns: u64,
    ) -> Result<(), Box<RequestSlot>> {
        if self.is_full() {
            return Err(slot);
        }
        slot.enqueued_at_ns = now_ns;
        self.queue.push_back(slot);
        Ok(())
    }

    /// Whether a free engine should flush now: whether anything is queued.
    /// The policy does not depend on the time, so `now_ns` is unused.
    pub fn ready(&self, _now_ns: u64) -> bool {
        !self.queue.is_empty()
    }

    /// Moves up to `max_batch` requests into `out` in arrival order
    /// (`out` is cleared first; its capacity is reused).
    pub fn drain_into(&mut self, out: &mut Vec<Box<RequestSlot>>) {
        out.clear();
        let n = self.queue.len().min(self.config.max_batch);
        for _ in 0..n {
            out.push(self.queue.pop_front().expect("len checked"));
        }
    }

    /// Moves *every* queued request into `out` (shutdown flush; may
    /// exceed `max_batch`).
    pub fn drain_all_into(&mut self, out: &mut Vec<Box<RequestSlot>>) {
        out.clear();
        while let Some(slot) = self.queue.pop_front() {
            out.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(req_id: u64) -> Box<RequestSlot> {
        Box::new(RequestSlot { req_id, ..RequestSlot::default() })
    }

    fn cfg(max_batch: usize, cap: usize) -> BatcherConfig {
        BatcherConfig { max_batch, queue_capacity: cap }
    }

    #[test]
    fn a_lone_request_is_ready_the_instant_it_arrives() {
        let mut b = MicroBatcher::new(cfg(32, 64));
        assert!(!b.ready(0), "nothing queued, nothing to flush");
        b.push(slot(1), 10).unwrap();
        assert!(b.ready(10), "one queued request flushes without waiting for company");
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out.iter().map(|s| (s.req_id, s.enqueued_at_ns)).collect::<Vec<_>>(), [(1, 10)]);
        assert!(!b.ready(10));
    }

    #[test]
    fn a_flush_takes_min_of_queued_and_max_batch() {
        let mut b = MicroBatcher::new(cfg(3, 8));
        for i in 0..5 {
            b.push(slot(i), i).unwrap();
        }
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out.iter().map(|s| s.req_id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(b.ready(5), "the pile-up behind a full batch is due at once");
        b.drain_into(&mut out);
        assert_eq!(out.iter().map(|s| s.req_id).collect::<Vec<_>>(), [3, 4]);
        assert!(!b.ready(5));
    }

    #[test]
    fn capacity_refusal_hands_the_slot_back() {
        let mut b = MicroBatcher::new(cfg(2, 2));
        b.push(slot(1), 0).unwrap();
        b.push(slot(2), 0).unwrap();
        assert!(b.is_full());
        let refused = b.push(slot(3), 0).unwrap_err();
        assert_eq!(refused.req_id, 3);
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert!(!b.is_full());
        b.push(refused, 5).unwrap();
    }

    #[test]
    fn refused_then_accepted_push_keeps_the_first_stamp() {
        let mut b = MicroBatcher::new(cfg(1, 1));
        b.push(slot(1), 0).unwrap();
        // Arrives at 100 ns into a full queue; the retry after the drain
        // happens at 900 ns but passes the arrival instant again.
        let arrived_ns = 100;
        let refused = b.push(slot(2), arrived_ns).unwrap_err();
        assert_eq!(refused.enqueued_at_ns, 0, "a refused push leaves the slot unstamped");
        let mut out = Vec::new();
        b.drain_into(&mut out);
        b.push(refused, arrived_ns).unwrap();
        b.drain_into(&mut out);
        assert_eq!(out[0].req_id, 2);
        assert_eq!(out[0].enqueued_at_ns, arrived_ns, "blocked time counts toward latency");
    }

    #[test]
    fn drain_respects_max_batch_and_order() {
        let mut b = MicroBatcher::new(cfg(2, 8));
        for i in 0..5 {
            b.push(slot(i), i).unwrap();
        }
        let mut out = Vec::new();
        b.drain_into(&mut out);
        assert_eq!(out.iter().map(|s| s.req_id).collect::<Vec<_>>(), [0, 1]);
        b.drain_all_into(&mut out);
        assert_eq!(out.iter().map(|s| s.req_id).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn slot_reset_keeps_capacity() {
        let mut s = RequestSlot::default();
        s.obs.extend_from_slice(&[1.0; 32]);
        s.logits.extend_from_slice(&[2.0; 8]);
        s.trace = TraceCtx { trace_id: 1, span_id: 2, send_ns: 3 };
        let obs_cap = s.obs.capacity();
        s.reset();
        assert!(s.obs.is_empty());
        assert_eq!(s.obs.capacity(), obs_cap);
        assert!(!s.trace.is_set());
    }
}
