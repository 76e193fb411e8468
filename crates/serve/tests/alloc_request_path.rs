//! Proves the zero-allocation claim of the serve request path: once the
//! slot pool, frame buffers, and engine scratch are warmed, the whole
//! steady-state cycle touches the heap zero times: a pipelined burst of
//! request frames → buffered read (the fixed receive buffer splits it
//! into frames) → decode → pooled slot → micro-batch → batched inference
//! → every response of the batch encoded into one coalesced send →
//! client-side split and decode → slot reset and return.
//!
//! The cycle is driven single-threaded through the same components the
//! reader threads use (the threads only add locking, not allocation), so
//! the counting allocator isn't polluted by unrelated thread traffic.

// Slots are boxed end to end in the real server (pointer-sized
// hand-offs, stable heap identity for the zero-alloc pool); the tests
// mirror that layout.
#![allow(clippy::vec_box)]

use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::FrameReader;
use marl_obs::context::{span_id, TraceCtx};
use marl_obs::metrics::MetricsRegistry;
use marl_obs::span::{FlowDir, SpanTracer};
use marl_serve::batcher::{BatcherConfig, MicroBatcher, RequestSlot};
use marl_serve::{proto, InferenceEngine, PolicyModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The server's and the client's reusable state for one connection.
struct Loop {
    model: PolicyModel,
    batcher: MicroBatcher,
    engine: InferenceEngine,
    pool: Vec<Box<RequestSlot>>,
    batch: Vec<Box<RequestSlot>>,
    /// The server's fixed receive buffer.
    server_rx: FrameReader,
    /// A decoded observation awaiting its slot.
    server_obs: Vec<f32>,
    /// One batch's responses, encoded for one send.
    server_out: Vec<u8>,
    /// The client's pipelined burst of requests and its scratch frame.
    client_burst: Vec<u8>,
    client_frame: Vec<u8>,
    client_rx: FrameReader,
    client_logits: Vec<f32>,
    obs: Vec<f32>,
    metrics: MetricsRegistry,
    tracer: SpanTracer,
}

/// Copies as much of `bytes` as fits into `rx`, as one `read` would;
/// returns what is left.
fn read_into<'a>(rx: &mut FrameReader, bytes: &'a [u8]) -> &'a [u8] {
    let free = rx.unfilled();
    let n = free.len().min(bytes.len());
    free[..n].copy_from_slice(&bytes[..n]);
    rx.filled(n);
    &bytes[n..]
}

impl Loop {
    /// One full request wave: `n` requests pipelined in one burst, read
    /// and admitted, batched, inferred, answered in coalesced sends, read
    /// back by the client, recycled.
    fn wave(&mut self, n: usize) {
        // The client pipelines the wave (trace context attached).
        self.client_burst.clear();
        for i in 0..n {
            let agent = (i % self.model.num_agents()) as u32;
            let ctx =
                TraceCtx { trace_id: 0xF1EE7, span_id: span_id(9, i as u64 + 1), send_ns: 10 };
            proto::encode_request(i as u64, agent, &self.obs, ctx, &mut self.client_frame);
            self.client_burst.extend_from_slice(&self.client_frame);
        }
        // The server reads the burst into its fixed buffer and admits
        // every whole frame of each read into a pooled slot.
        let mut rest = &self.client_burst[..];
        while !rest.is_empty() {
            rest = read_into(&mut self.server_rx, rest);
            while let Some((_, payload)) = self.server_rx.next_frame().expect("valid frame") {
                let (req_id, agent, ctx) =
                    proto::decode_request_into(payload, &mut self.server_obs).expect("decodes");
                let mut slot = self.pool.pop().expect("pool sized for the wave");
                slot.req_id = req_id;
                slot.agent = agent;
                slot.trace = ctx;
                slot.obs.extend_from_slice(&self.server_obs);
                self.batcher.push(slot, req_id * 1_000).expect("capacity sized for the wave");
            }
        }
        // Combine: batched inference, then the batch's responses in one
        // coalesced send.
        while !self.batcher.is_empty() {
            self.batcher.drain_into(&mut self.batch);
            self.engine.infer(&self.model, &mut self.batch);
            self.metrics.serve_batch_fill.record(self.batch.len() as u64);
            // Flow markers for every traced request, as a combiner records.
            for slot in self.batch.iter() {
                if slot.trace.is_set() {
                    self.tracer.record_flow(
                        "serve-recv",
                        0,
                        100,
                        200,
                        slot.trace.span_id,
                        FlowDir::In,
                    );
                }
            }
            self.server_out.clear();
            for slot in self.batch.iter() {
                proto::append_response(
                    slot.req_id,
                    slot.epoch,
                    slot.agent,
                    slot.action,
                    &slot.logits,
                    slot.trace,
                    &mut self.server_out,
                );
                self.metrics.serve_requests.inc();
                self.metrics.serve_latency_ns.record(1_000);
            }
            // The client splits the send back into responses.
            let mut answers = self.batch.iter();
            let mut rest = &self.server_out[..];
            while !rest.is_empty() {
                rest = read_into(&mut self.client_rx, rest);
                while let Some((_, payload)) = self.client_rx.next_frame().expect("valid frame") {
                    let resp = proto::decode_response_into(payload, &mut self.client_logits)
                        .expect("decodes");
                    let slot = answers.next().expect("one answer per request");
                    assert_eq!(resp.req_id, slot.req_id);
                    assert_eq!(resp.ctx, slot.trace, "trace context echoes through the response");
                }
            }
            for mut slot in self.batch.drain(..) {
                slot.reset();
                self.pool.push(slot);
            }
        }
    }
}

#[test]
fn steady_state_request_path_allocates_nothing() {
    let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
    let trainer = Trainer::new(config).expect("trainer");
    let model = PolicyModel::from_checkpoint(&trainer.checkpoint(), 0);
    drop(trainer);

    const WAVE: usize = 24;
    let config = BatcherConfig { max_batch: 8, queue_capacity: WAVE };
    let max_obs = (0..model.num_agents()).map(|a| model.obs_dim(a)).max().unwrap();
    let max_act = (0..model.num_agents()).map(|a| model.act_dim(a)).max().unwrap();
    let pool = (0..WAVE)
        .map(|_| {
            Box::new(RequestSlot {
                obs: Vec::with_capacity(max_obs),
                logits: Vec::with_capacity(max_act),
                ..RequestSlot::default()
            })
        })
        .collect();
    // A receive buffer smaller than the burst, so reads end inside frames.
    let rx_capacity = 5 * proto::request_frame_len(max_obs) + 7;
    let mut lp = Loop {
        obs: (0..model.obs_dim(0)).map(|c| c as f32 * 0.03 - 0.2).collect(),
        model,
        batcher: MicroBatcher::new(config),
        engine: InferenceEngine::new(),
        pool,
        batch: Vec::with_capacity(config.max_batch),
        server_rx: FrameReader::new(rx_capacity),
        server_obs: Vec::new(),
        server_out: Vec::new(),
        client_burst: Vec::new(),
        client_frame: Vec::new(),
        client_rx: FrameReader::new(rx_capacity),
        client_logits: Vec::new(),
        metrics: MetricsRegistry::new(),
        // Small ring: overwrite-on-full is part of the steady state and
        // must also be allocation-free.
        tracer: SpanTracer::new(64),
    };

    // Warm-up waves size every reusable buffer: frame vectors, per-slot
    // vectors, engine matrices and scratch, the drained-batch vector.
    for _ in 0..3 {
        lp.wave(WAVE);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        lp.wave(WAVE);
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        (ALLOCS.load(Ordering::SeqCst), REALLOCS.load(Ordering::SeqCst)),
        (0, 0),
        "steady-state serve request path must not touch the heap"
    );
    assert_eq!(lp.metrics.serve_requests.get(), 8 * WAVE as u64);
}
