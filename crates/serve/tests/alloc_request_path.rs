//! Proves the zero-allocation claim of the serve request path: once the
//! slot pool, frame buffers, and engine scratch are warmed, the whole
//! steady-state cycle — decode request frame → pooled slot → micro-batch
//! → batched inference → scatter → encode response frame → decode
//! response (client side) → slot reset and return — touches the heap
//! zero times.
//!
//! The cycle is driven single-threaded through the same components the
//! server threads use (the threads only add handoff, not allocation), so
//! the counting allocator isn't polluted by unrelated thread traffic.

// Slots are boxed end to end in the real server (pointer-sized
// hand-offs, stable heap identity for the zero-alloc pool); the tests
// mirror that layout.
#![allow(clippy::vec_box)]

use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire;
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

/// One full request wave: `n` requests framed, decoded, batched,
/// inferred, scattered, framed back, decoded client-side, recycled.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    n: usize,
    model: &PolicyModel,
    batcher: &mut MicroBatcher,
    engine: &mut InferenceEngine,
    pool: &mut Vec<Box<RequestSlot>>,
    batch: &mut Vec<Box<RequestSlot>>,
    req_frame: &mut Vec<u8>,
    resp_frame: &mut Vec<u8>,
    obs: &[f32],
    client_logits: &mut Vec<f32>,
    metrics: &MetricsRegistry,
    tracer: &SpanTracer,
) {
    // Ingest: client encodes (trace context attached), server decodes
    // into a pooled slot.
    for i in 0..n {
        let agent = (i % model.num_agents()) as u32;
        let ctx = TraceCtx { trace_id: 0xF1EE7, span_id: span_id(9, i as u64 + 1), send_ns: 10 };
        proto::encode_request(i as u64, agent, obs, ctx, req_frame);
        let mut slot = pool.pop().expect("pool sized for the wave");
        let (req_id, agent, ctx) =
            proto::decode_request_into(&req_frame[wire::HEADER_LEN..], &mut slot.obs)
                .expect("decodes");
        slot.req_id = req_id;
        slot.agent = agent;
        slot.trace = ctx;
        slot.error = 0;
        batcher.push(slot, (i as u64) * 1_000).expect("capacity sized for the wave");
    }
    // Flush + batched inference + scatter, as the batcher thread does.
    while !batcher.is_empty() {
        batcher.drain_into(batch);
        engine.infer(model, batch);
        metrics.serve_batch_fill.record(batch.len() as u64);
        // Flow markers for every traced request, as the batcher records.
        for slot in batch.iter() {
            if slot.trace.is_set() {
                tracer.record_flow("serve-recv", 0, 100, 200, slot.trace.span_id, FlowDir::In);
            }
        }
        // Respond: server encodes (context echoed), client decodes, slot
        // returns to pool.
        for slot in batch.drain(..) {
            proto::encode_response(
                slot.req_id,
                slot.epoch,
                slot.agent,
                slot.action,
                &slot.logits,
                slot.trace,
                resp_frame,
            );
            metrics.serve_requests.inc();
            metrics.serve_latency_ns.record(1_000);
            let resp = proto::decode_response_into(&resp_frame[wire::HEADER_LEN..], client_logits)
                .expect("decodes");
            assert_eq!(resp.req_id, slot.req_id);
            assert_eq!(resp.ctx, slot.trace, "trace context echoes through the response");
            let mut slot = slot;
            slot.reset();
            pool.push(slot);
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
    let mut batcher = MicroBatcher::new(config);
    let mut engine = InferenceEngine::new();
    let metrics = MetricsRegistry::new();
    let max_obs = (0..model.num_agents()).map(|a| model.obs_dim(a)).max().unwrap();
    let max_act = (0..model.num_agents()).map(|a| model.act_dim(a)).max().unwrap();
    let mut pool: Vec<Box<RequestSlot>> = (0..WAVE)
        .map(|_| {
            Box::new(RequestSlot {
                obs: Vec::with_capacity(max_obs),
                logits: Vec::with_capacity(max_act),
                ..RequestSlot::default()
            })
        })
        .collect();
    let mut batch = Vec::with_capacity(config.max_batch);
    let mut req_frame = Vec::new();
    let mut resp_frame = Vec::new();
    let mut client_logits = Vec::new();
    let obs: Vec<f32> = (0..model.obs_dim(0)).map(|c| c as f32 * 0.03 - 0.2).collect();
    // Small ring: overwrite-on-full is part of the steady state and must
    // also be allocation-free.
    let tracer = SpanTracer::new(64);

    // Warm-up waves size every reusable buffer: frame vectors, per-slot
    // vectors, engine matrices and scratch, the drained-batch vector.
    for _ in 0..3 {
        run_wave(
            WAVE,
            &model,
            &mut batcher,
            &mut engine,
            &mut pool,
            &mut batch,
            &mut req_frame,
            &mut resp_frame,
            &obs,
            &mut client_logits,
            &metrics,
            &tracer,
        );
    }

    ALLOCS.store(0, Ordering::SeqCst);
    REALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        run_wave(
            WAVE,
            &model,
            &mut batcher,
            &mut engine,
            &mut pool,
            &mut batch,
            &mut req_frame,
            &mut resp_frame,
            &obs,
            &mut client_logits,
            &metrics,
            &tracer,
        );
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        (ALLOCS.load(Ordering::SeqCst), REALLOCS.load(Ordering::SeqCst)),
        (0, 0),
        "steady-state serve request path must not touch the heap"
    );
    assert_eq!(metrics.serve_requests.get(), 8 * WAVE as u64);
}
