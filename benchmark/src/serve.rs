//! The three serve workloads: an in-process `Server::start` on a Unix
//! socket under the scratch directory, default `ServeConfig`, serving a
//! predator-prey N=3 checkpoint trained in set-up, driven over 2
//! connections with agents round-robin and observations from a seeded
//! pool.
//!
//! `serve-light` is an open loop: independent callers do not wait for each
//! other, so requests leave on a Poisson schedule fixed before the run,
//! and each latency is timed from the instant the request was *due*, which
//! charges a stalled generator's delay to the requests it delayed. How
//! late the generator ran is reported beside the latency. Its traced run
//! adds a short 40 000 req/s phase, the sub-saturation tail: on a 2-core
//! host the generator spins on one core and the server's five threads
//! share the other, so those latencies swing 2-4x between runs and are
//! per-layer numbers only. `serve-capacity` is a closed loop: each
//! connection keeps 128 requests outstanding and sends the next as one
//! completes.

use crate::probes::{probe, ProbeBudget};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{common, stats, RunArgs};
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{self, KIND_INFER_ERR, KIND_INFER_RESP};
use marl_dist::{DistError, StreamTransport};
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;
use marl_obs::context::TraceCtx;
use marl_obs::metrics::MetricsRegistry;
use marl_serve::{
    proto, BatcherConfig, InferenceEngine, MicroBatcher, PolicyModel, RequestSlot, ServeConfig,
    ServeListener, Server,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Observations per agent in the seeded pool.
const POOL: usize = 1024;
/// One response in this many is kept and recomputed locally.
const CHECK_EVERY: u64 = 64;
/// One request in this many gets a span in the traced run.
const SPAN_EVERY: u64 = 16;
/// How long after the last send a response may still arrive.
const DRAIN: Duration = Duration::from_secs(2);
/// Rate and longest duration of the heavy phase of `serve-light`'s traced
/// run (~18 % of this host's closed-loop capacity).
const HEAVY_RPS: f64 = 40_000.0;
const HEAVY_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy)]
enum Load {
    /// Open loop, Poisson arrivals at this many requests per second.
    Open(f64),
    /// Closed loop, this many requests outstanding per connection.
    Closed(usize),
}

fn load(name: &str) -> Option<Load> {
    match name {
        "serve-light" => Some(Load::Open(2_000.0)),
        "serve-capacity" => Some(Load::Closed(128)),
        _ => None,
    }
}

/// Due instants of an open-loop Poisson schedule, as nanosecond offsets
/// from the start of the run: exponential gaps at `rate` per second until
/// `seconds` is reached. The same `rng` state gives the same schedule.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        t += -u.ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Open-loop latency of one request, all instants as nanoseconds since
/// the start of the run: it runs from the *due* instant, so it contains
/// whatever the generator was late by; a request that could not leave on
/// time still waited.
pub fn latency_from_due_ns(due_ns: u64, received_ns: u64) -> u64 {
    received_ns.saturating_sub(due_ns)
}

/// How late the generator sent a request.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Spins until `t`. The generator never sleeps: `thread::sleep` overshoots
/// by more than the gaps of a busy schedule, and on a KVM guest a
/// generator that sleeps lets its vCPU halt, after which the host's
/// adaptive halt-polling makes every wake-up on the request path either
/// cheap or expensive for minutes at a time: the same binary then reports
/// a p50 of 300 µs or 410 µs. A core that never halts keeps one regime.
/// It yields while it waits, so when the host withholds the other vCPU the
/// server's threads can still run on this one.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// The observation request `req_id` carries: agent round-robin, then the
/// agent's pool entry. Both the generator and the response check use it.
struct Inputs {
    pool: Vec<Vec<Vec<f32>>>,
}

impl Inputs {
    fn new(model: &PolicyModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..model.num_agents())
            .map(|a| {
                (0..POOL)
                    .map(|_| (0..model.obs_dim(a)).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect()
            })
            .collect();
        Inputs { pool }
    }

    fn request(&self, req_id: u64) -> (u32, &[f32]) {
        let agents = self.pool.len() as u64;
        let agent = (req_id % agents) as usize;
        (agent as u32, &self.pool[agent][(req_id / agents) as usize % POOL])
    }
}

/// A running server with its client connections.
struct Served {
    server: Option<Server>,
    metrics: Arc<MetricsRegistry>,
    /// A second copy of the served actors, for the bitwise response check.
    model: PolicyModel,
    socket: PathBuf,
    conns: Vec<StreamTransport>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn checkpoint_config(seed: u64) -> TrainConfig {
    let mut c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_episodes(12)
        .with_batch_size(64)
        .with_seed(seed);
    c.warmup = 128;
    c
}

fn connect(socket: &PathBuf) -> Result<StreamTransport, String> {
    for _ in 0..400 {
        if let Ok(s) = UnixStream::connect(socket) {
            return Ok(StreamTransport::unix(s).with_frame_deadline(Duration::from_secs(5)));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("server never came up on {}", socket.display()))
}

/// Everything before the first timed request: train a checkpoint, lift the
/// actors, start the server, connect, and answer a few warm-up requests
/// on each connection.
fn set_up(args: &RunArgs, inputs_seed: u64) -> Result<Served, String> {
    let mut trainer = Trainer::new(checkpoint_config(args.seed)).map_err(|e| e.to_string())?;
    trainer.train().map_err(|e| e.to_string())?;
    let checkpoint = trainer.checkpoint();
    let model = PolicyModel::from_checkpoint(&checkpoint, 0);
    std::fs::create_dir_all(&args.scratch).map_err(|e| e.to_string())?;
    let socket = args.scratch.join(format!("bench-serve-{}.sock", std::process::id()));
    let listener = ServeListener::unix(&socket).map_err(|e| format!("bind {socket:?}: {e}"))?;
    let metrics = Arc::new(MetricsRegistry::new());
    let server = Server::start(listener, model, ServeConfig::default(), Arc::clone(&metrics), None);
    let mut served = Served {
        server: Some(server),
        metrics,
        model: PolicyModel::from_checkpoint(&checkpoint, 0),
        socket,
        conns: Vec::new(),
    };
    let inputs = Inputs::new(&served.model, inputs_seed);
    let (mut frame, mut logits) = (Vec::new(), Vec::new());
    for _ in 0..CONNECTIONS {
        let mut conn = connect(&served.socket)?;
        for i in 0..32u64 {
            let (agent, obs) = inputs.request(i);
            proto::encode_request(u64::MAX - i, agent, obs, TraceCtx::NONE, &mut frame);
            conn.send_raw(&frame).map_err(|e| e.to_string())?;
            let kind = conn
                .recv_raw_into(&mut frame, Duration::from_secs(5))
                .map_err(|e| e.to_string())?;
            if kind != KIND_INFER_RESP {
                return Err(format!("warm-up request answered with frame kind {kind}"));
            }
            proto::decode_response_into(&frame[wire::HEADER_LEN..], &mut logits)
                .map_err(|e| e.to_string())?;
        }
        served.conns.push(conn);
    }
    Ok(served)
}

/// A response kept for the local recomputation check.
struct Kept {
    req_id: u64,
    action: u32,
    logits: Vec<f32>,
}

/// What one connection's receiver saw.
#[derive(Default)]
struct Received {
    latencies_ns: Vec<u64>,
    errored: u64,
    /// Responses whose id was never sent on this connection, or was
    /// answered twice.
    unmatched: u64,
    kept: Vec<Kept>,
    last: Option<Instant>,
}

impl Received {
    /// Books one received frame. Returns the request id of a well-formed
    /// response (keeping one in `CHECK_EVERY` for the local recomputation);
    /// error frames and anything else are counted and yield `None`.
    fn classify(&mut self, kind: u16, frame: &[u8], logits: &mut Vec<f32>) -> Option<u64> {
        if kind == KIND_INFER_ERR {
            self.errored += 1;
            return None;
        }
        let decoded = (kind == KIND_INFER_RESP)
            .then(|| proto::decode_response_into(&frame[wire::HEADER_LEN..], logits).ok())
            .flatten();
        let Some(resp) = decoded else {
            self.unmatched += 1;
            return None;
        };
        if resp.req_id.is_multiple_of(CHECK_EVERY) {
            self.kept.push(Kept {
                req_id: resp.req_id,
                action: resp.action,
                logits: logits.clone(),
            });
        }
        Some(resp.req_id)
    }
}

/// Marks `slot` answered; false if it already was.
fn first_answer(seen: &mut Vec<bool>, slot: usize) -> bool {
    if seen.len() <= slot {
        seen.resize(slot + 1024, false);
    }
    !std::mem::replace(&mut seen[slot], true)
}

/// Totals of one load phase.
struct Phase {
    sent: u64,
    wall_s: f64,
    received: Vec<Received>,
    late_ns: Vec<u64>,
    queue_depth_max: f64,
    offered_rps: f64,
}

/// The open loop's receiver for connection `c`: reads responses until
/// `expected` of them arrived, or the drain limit has passed since `done`
/// was raised.
fn receive(
    mut conn: StreamTransport,
    c: usize,
    tracer: &mut Tracer,
    due: &[u64],
    start: Instant,
    done: &AtomicBool,
    expected: &AtomicU64,
) -> Received {
    let mut got = Received::default();
    let mut seen: Vec<bool> = Vec::new();
    let (mut frame, mut logits) = (Vec::new(), Vec::new());
    let mut done_at: Option<Instant> = None;
    loop {
        let answered = got.latencies_ns.len() as u64 + got.errored;
        if done.load(Ordering::Acquire) {
            let since = *done_at.get_or_insert_with(Instant::now);
            if answered >= expected.load(Ordering::Acquire) || since.elapsed() > DRAIN {
                return got;
            }
        }
        let kind = match conn.recv_raw_into(&mut frame, Duration::from_millis(50)) {
            Ok(kind) => kind,
            Err(DistError::Timeout { .. }) => continue,
            Err(_) => return got,
        };
        let now = Instant::now();
        got.last = Some(now);
        let Some(req_id) = got.classify(kind, &frame, &mut logits) else { continue };
        let slot = (req_id / CONNECTIONS as u64) as usize;
        let mine = req_id % CONNECTIONS as u64 == c as u64;
        match due.get(req_id as usize) {
            Some(&due_ns) if mine && first_answer(&mut seen, slot) => {
                got.latencies_ns.push(latency_from_due_ns(due_ns, ns_since(start, now)));
                if req_id.is_multiple_of(SPAN_EVERY) {
                    tracer.record(
                        "serve.request",
                        req_id,
                        start + Duration::from_nanos(due_ns),
                        now,
                    );
                }
            }
            _ => got.unmatched += 1,
        }
    }
}

/// Open loop: this thread sends on schedule, alternating connections; one
/// receiver thread per connection reads responses.
fn open_loop(
    served: &mut Served,
    inputs: &Inputs,
    (rate, seconds): (f64, f64),
    schedule_seed: u64,
    tracer: &mut Tracer,
    lanes: &mut Vec<Tracer>,
) -> Result<Phase, String> {
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let due = Arc::new(poisson_schedule(rate, seconds, &mut rng));
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for conn in served.conns.drain(..) {
        receivers.push(conn.try_clone().map_err(|e| e.to_string())?);
        senders.push(conn);
    }
    let done = AtomicBool::new(false);
    let expected: Vec<AtomicU64> = (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect();
    let mut late_ns = Vec::with_capacity(due.len());
    let mut queue_depth_max = 0.0f64;
    let mut frame = Vec::new();
    let lane_names = ["serve-recv-0", "serve-recv-1"];
    let start = Instant::now() + Duration::from_millis(2);

    let (received, recv_lanes): (Vec<Received>, Vec<Tracer>) = std::thread::scope(|s| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let due = Arc::clone(&due);
                let mut lane = tracer.fork(lane_names[c]);
                let (done, expected) = (&done, &expected[c]);
                s.spawn(move || {
                    let got = receive(conn, c, &mut lane, &due, start, done, expected);
                    (got, lane)
                })
            })
            .collect();
        for (seq, &due_ns) in due.iter().enumerate() {
            let req_id = seq as u64;
            let at = start + Duration::from_nanos(due_ns);
            wait_until(at);
            let (agent, obs) = inputs.request(req_id);
            proto::encode_request(req_id, agent, obs, TraceCtx::NONE, &mut frame);
            let sent_at = Instant::now();
            let c = seq % CONNECTIONS;
            if senders[c].send_raw(&frame).is_err() {
                break;
            }
            expected[c].fetch_add(1, Ordering::Release);
            late_ns.push(lateness_ns(due_ns, ns_since(start, sent_at)));
            queue_depth_max = queue_depth_max.max(served.metrics.serve_queue_depth.get());
            if req_id.is_multiple_of(SPAN_EVERY) {
                tracer.record("serve.send", req_id, sent_at, Instant::now());
            }
        }
        done.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().expect("receiver thread")).unzip()
    });
    lanes.extend(recv_lanes);
    served.conns = senders;
    let end = received.iter().filter_map(|r| r.last).max().unwrap_or(start);
    Ok(Phase {
        sent: late_ns.len() as u64,
        wall_s: (end - start).as_secs_f64().max(seconds),
        received,
        late_ns,
        queue_depth_max,
        offered_rps: due.len() as f64 / seconds,
    })
}

/// Closed loop: one thread per connection keeps `window` requests
/// outstanding until the deadline, then drains.
fn closed_loop(
    served: &mut Served,
    inputs: &Inputs,
    window: usize,
    args: &RunArgs,
    tracer: &mut Tracer,
    lanes: &mut Vec<Tracer>,
) -> Result<Phase, String> {
    let lane_names = ["serve-conn-0", "serve-conn-1"];
    let start = Instant::now();
    let deadline = start + args.timed();
    let conns: Vec<StreamTransport> = served.conns.drain(..).collect();
    let results: Vec<(Received, u64, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let mut lane = tracer.fork(lane_names[c]);
                s.spawn(move || {
                    let mut got = Received::default();
                    let mut sent_at: Vec<Instant> = Vec::with_capacity(1 << 18);
                    let mut seen: Vec<bool> = Vec::with_capacity(1 << 18);
                    let (mut out, mut frame, mut logits) = (Vec::new(), Vec::new(), Vec::new());
                    let mut send = |conn: &mut StreamTransport, sent_at: &mut Vec<Instant>| {
                        let req_id = (sent_at.len() * CONNECTIONS + c) as u64;
                        let (agent, obs) = inputs.request(req_id);
                        proto::encode_request(req_id, agent, obs, TraceCtx::NONE, &mut out);
                        sent_at.push(Instant::now());
                        conn.send_raw(&out).is_ok()
                    };
                    for _ in 0..window {
                        if !send(&mut conn, &mut sent_at) {
                            break;
                        }
                    }
                    let mut outstanding = sent_at.len();
                    while outstanding > 0 {
                        let Ok(kind) = conn.recv_raw_into(&mut frame, DRAIN) else { break };
                        let now = Instant::now();
                        got.last = Some(now);
                        outstanding -= 1;
                        if let Some(req_id) = got.classify(kind, &frame, &mut logits) {
                            let slot = (req_id / CONNECTIONS as u64) as usize;
                            let mine = req_id % CONNECTIONS as u64 == c as u64;
                            if mine && slot < sent_at.len() && first_answer(&mut seen, slot) {
                                let from = sent_at[slot];
                                got.latencies_ns.push((now - from).as_nanos() as u64);
                                if req_id.is_multiple_of(SPAN_EVERY * 8) {
                                    lane.record("serve.request", req_id, from, now);
                                }
                            } else {
                                got.unmatched += 1;
                            }
                        }
                        if now < deadline && send(&mut conn, &mut sent_at) {
                            outstanding += 1;
                        }
                    }
                    (got, sent_at.len() as u64, lane)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let mut phase = Phase {
        sent: 0,
        wall_s: 0.0,
        received: Vec::new(),
        late_ns: Vec::new(),
        queue_depth_max: served.metrics.serve_queue_depth.get(),
        offered_rps: 0.0,
    };
    let mut end = start;
    for (got, sent, lane) in results {
        phase.sent += sent;
        end = end.max(got.last.unwrap_or(start));
        phase.received.push(got);
        lanes.push(lane);
    }
    phase.wall_s = (end - start).as_secs_f64();
    Ok(phase)
}

/// Recomputes kept responses with a local batch-of-one
/// `InferenceEngine::infer`; the server's batched answer must be bitwise
/// the same.
fn check_kept(served: &Served, inputs: &Inputs, phase: &Phase, out: &mut Outcome) -> usize {
    let mut engine = InferenceEngine::new();
    let mut checked = 0;
    for kept in phase.received.iter().flat_map(|r| &r.kept) {
        let (agent, obs) = inputs.request(kept.req_id);
        let mut batch =
            vec![Box::new(RequestSlot { agent, obs: obs.to_vec(), ..RequestSlot::default() })];
        engine.infer(&served.model, &mut batch);
        let same = batch[0].action == kept.action
            && batch[0].logits.len() == kept.logits.len()
            && batch[0].logits.iter().zip(&kept.logits).all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || format!("response {} differs from local inference", kept.req_id));
        checked += 1;
    }
    checked
}

pub fn run(
    name: &str,
    args: &RunArgs,
    tracer: &mut Tracer,
    lanes: &mut Vec<Tracer>,
) -> Result<Outcome, String> {
    let load = load(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut out = Outcome::default();
    let inputs_seed = marl_nn::rng::derive_seed(args.seed, 78);
    let (mut served, setup_s) = common::median_set_up(args, || set_up(args, inputs_seed))?;
    let inputs = Inputs::new(&served.model, inputs_seed);

    let schedule_seed = |stream| marl_nn::rng::derive_seed(args.seed, stream);
    let phase = match load {
        Load::Open(rate) => {
            let shape = (rate, args.seconds);
            open_loop(&mut served, &inputs, shape, schedule_seed(77), tracer, lanes)?
        }
        Load::Closed(window) => closed_loop(&mut served, &inputs, window, args, tracer, lanes)?,
    };

    let answered: u64 = phase.received.iter().map(|r| r.latencies_ns.len() as u64).sum();
    let errored: u64 = phase.received.iter().map(|r| r.errored).sum();
    let unmatched: u64 = phase.received.iter().map(|r| r.unmatched).sum();
    let failed = phase.sent - answered.min(phase.sent);
    out.check(unmatched == 0, || format!("{unmatched} responses matched no outstanding request"));
    out.check(phase.sent == answered + errored, || {
        format!("sent {} != answered {answered} + errored {errored}", phase.sent)
    });
    let checked = check_kept(&served, &inputs, &phase, &mut out);
    out.check(checked as u64 >= answered / CHECK_EVERY / 2, || {
        format!("only {checked} responses were recomputed locally")
    });

    out.attempted = phase.sent;
    out.failed = failed;
    out.size("requests_sent", phase.sent as f64, "count");
    out.size("requests_answered", answered as f64, "count");
    out.size("responses_recomputed", checked as f64, "count");
    out.size("connections", CONNECTIONS as f64, "count");

    // A request that was refused or never answered missed every latency
    // limit: it enters the distribution at the drain limit.
    let mut latencies: Vec<u64> =
        phase.received.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
    latencies.extend(std::iter::repeat_n(DRAIN.as_nanos() as u64, failed as usize));
    latencies.sort_unstable();
    let p50_us = stats::percentile(&latencies, 0.50) as f64 / 1e3;
    out.size("units_of_work", latencies.len() as f64, "count");
    let ops_per_s = answered as f64 / phase.wall_s;
    if !args.trace {
        out.set("ops_per_s", ops_per_s);
        out.set("op_p50_us", p50_us);
        out.set("setup_s", setup_s);
        return Ok(out);
    }

    let m = Arc::clone(&served.metrics);
    let mut late = phase.late_ns.clone();
    late.sort_unstable();
    out.set("serve.offered_rps", phase.offered_rps);
    out.set("serve.sent", phase.sent as f64);
    out.set("serve.answered", answered as f64);
    out.set("serve.errors", errored as f64 + m.serve_errors.get() as f64);
    out.set(
        "serve.batch_fill",
        m.serve_batch_fill.sum() as f64 / m.serve_batch_fill.count().max(1) as f64,
    );
    out.set("serve.generator_late_p50_us", stats::percentile(&late, 0.50) as f64 / 1e3);
    out.set("serve.generator_late_p99_us", stats::percentile(&late, 0.99) as f64 / 1e3);
    out.set("serve.queue_depth_max", phase.queue_depth_max);
    // Server-side enqueue→written latency, from its own histogram
    // (log-linear buckets, so within 12.5% of the true value).
    let server_p50_us = m.serve_latency_ns.quantile(0.50) as f64 / 1e3;
    out.set("serve.server_latency_p50_us", server_p50_us);
    out.set("serve.server_latency_p99_us", m.serve_latency_ns.quantile(0.99) as f64 / 1e3);
    out.set("serve.client_p90_us", stats::percentile(&latencies, 0.90) as f64 / 1e3);
    out.set("serve.client_p99_us", common::tail_us(&latencies, 0.99, "serve.client_p99_us"));
    out.set("serve.client_max_us", latencies.last().copied().unwrap_or(0) as f64 / 1e3);
    out.set("obs.traced_ops_per_s", ops_per_s);
    out.set("obs.traced_op_p50_us", p50_us);
    out.set("obs.timed_wall_s", phase.wall_s);

    if matches!(load, Load::Open(_)) {
        // The sub-saturation tail, on the same server, after the light
        // phase's numbers have been read out.
        let (fill_sum, fill_n) = (m.serve_batch_fill.sum(), m.serve_batch_fill.count());
        let shape = (HEAVY_RPS, args.seconds.min(HEAVY_SECONDS));
        let span = tracer.begin("serve.heavy_phase", 0);
        let heavy = open_loop(&mut served, &inputs, shape, schedule_seed(79), tracer, lanes)?;
        tracer.end(span);
        let mut lat: Vec<u64> =
            heavy.received.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
        lat.sort_unstable();
        let mut late = heavy.late_ns;
        late.sort_unstable();
        out.check(lat.len() as u64 == heavy.sent, || {
            format!("heavy phase: sent {} answered {}", heavy.sent, lat.len())
        });
        out.set("serve.heavy_offered_rps", heavy.offered_rps);
        out.set("serve.heavy_answered", lat.len() as f64);
        out.set("serve.heavy_p50_us", stats::percentile(&lat, 0.50) as f64 / 1e3);
        out.set("serve.heavy_p99_us", common::tail_us(&lat, 0.99, "serve.heavy_p99_us"));
        out.set(
            "serve.heavy_batch_fill",
            (m.serve_batch_fill.sum() - fill_sum) as f64
                / (m.serve_batch_fill.count() - fill_n).max(1) as f64,
        );
        out.set(
            "serve.heavy_generator_late_p99_us",
            common::tail_us(&late, 0.99, "serve.heavy_generator_late_p99_us"),
        );
    }

    let socket_rtt_us =
        probes_serve(tracer, ProbeBudget::new(args.smoke), &mut out, &served, &inputs)?;
    out.set("serve.unattributed_us", p50_us - socket_rtt_us - server_p50_us);
    Ok(out)
}

/// Layer probes of `marl-serve`: the engine at three batch sizes, the four
/// codec functions, the batcher's push/drain, and the socket floor.
/// Returns the socket round trip in microseconds.
fn probes_serve(
    tracer: &mut Tracer,
    budget: ProbeBudget,
    out: &mut Outcome,
    served: &Served,
    inputs: &Inputs,
) -> Result<f64, String> {
    let root = tracer.begin("probe.serve", 0);
    let model = &served.model;
    let slots = |n: u64| -> Vec<Box<RequestSlot>> {
        (0..n)
            .map(|i| {
                let (agent, obs) = inputs.request(i);
                Box::new(RequestSlot { agent, obs: obs.to_vec(), ..RequestSlot::default() })
            })
            .collect()
    };
    let mut engine = InferenceEngine::new();
    for (metric, n) in [
        ("serve.engine_infer_us_b1", 1),
        ("serve.engine_infer_us_b8", 8),
        ("serve.engine_infer_us_b32", 32),
    ] {
        let mut batch = slots(n);
        let ns = probe(tracer, budget, metric, || engine.infer(model, black_box(&mut batch)));
        out.set(metric, ns / 1e3);
    }

    let rows = Matrix::from_vec(
        32,
        model.obs_dim(0),
        (0..32).flat_map(|i| inputs.request(i * model.num_agents() as u64).1.to_vec()).collect(),
    );
    let (mut logits_m, mut scratch) = (Matrix::default(), Scratch::new());
    let ns = probe(tracer, budget, "nn.infer_batch", || {
        model.actors[0].forward_inference_into(black_box(&rows), &mut logits_m, &mut scratch);
    });
    out.set("nn.infer_batch_us", ns / 1e3);

    let (agent, obs) = inputs.request(0);
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let ns = probe(tracer, budget, "serve.encode_req", || {
        proto::encode_request(7, agent, black_box(obs), TraceCtx::NONE, &mut req);
    });
    out.set("serve.encode_req_ns", ns);
    let mut obs_out = Vec::new();
    let ns = probe(tracer, budget, "serve.decode_req", || {
        let payload = &req[wire::HEADER_LEN..];
        black_box(proto::decode_request_into(payload, &mut obs_out).expect("own request"));
    });
    out.set("serve.decode_req_ns", ns);
    let answer = vec![0.125f32; model.act_dim(0)];
    let ns = probe(tracer, budget, "serve.encode_resp", || {
        proto::encode_response(7, 0, agent, 1, black_box(&answer), TraceCtx::NONE, &mut resp);
    });
    out.set("serve.encode_resp_ns", ns);
    let mut logits = Vec::new();
    let ns = probe(tracer, budget, "serve.decode_resp", || {
        let payload = &resp[wire::HEADER_LEN..];
        black_box(proto::decode_response_into(payload, &mut logits).expect("own response"));
    });
    out.set("serve.decode_resp_ns", ns);

    // One request through the batcher: push, ready check, drain.
    let mut batcher = MicroBatcher::new(BatcherConfig::default());
    let mut drained = Vec::with_capacity(32);
    let mut spare = slots(1);
    let mut now_ns = 0u64;
    let ns = probe(tracer, budget, "serve.batcher_push_drain", || {
        now_ns += 1_000_000;
        let slot = spare.pop().expect("slot cycles back each call");
        batcher.push(slot, now_ns).expect("empty batcher accepts");
        black_box(batcher.ready(now_ns + 300_000));
        batcher.drain_into(&mut drained);
        spare.append(&mut drained);
    });
    out.set("serve.batcher_push_drain_ns", ns);

    // Socket floor: the request frame echoed back by a thread that does
    // nothing else, over the same transport type the server uses.
    let (a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
    let (mut near, mut far) = (StreamTransport::unix(a), StreamTransport::unix(b));
    let rounds = budget.batches * 40;
    let mut rtts: Vec<u64> = Vec::with_capacity(rounds);
    let span = tracer.begin("serve.socket_rtt", 0);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut frame = Vec::new();
            while far.recv_raw_into(&mut frame, Duration::from_secs(2)).is_ok() {
                if far.send_raw(&frame).is_err() {
                    break;
                }
            }
        });
        let mut echo = Vec::new();
        for _ in 0..rounds {
            let t0 = Instant::now();
            if near.send_raw(&req).is_err()
                || near.recv_raw_into(&mut echo, Duration::from_secs(2)).is_err()
            {
                break;
            }
            rtts.push(t0.elapsed().as_nanos() as u64);
        }
        drop(near); // closes the pair, which ends the echo thread
    });
    tracer.end(span);
    rtts.sort_unstable();
    let rtt_us = stats::percentile(&rtts, 0.5) as f64 / 1e3;
    out.set("serve.socket_rtt_us", rtt_us);
    tracer.end(root);
    Ok(rtt_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_near_the_rate() {
        let draw = |seed| poisson_schedule(2_000.0, 4.0, &mut StdRng::seed_from_u64(seed));
        let a = draw(9);
        assert_eq!(a, draw(9), "same seed, same schedule");
        assert_ne!(a, draw(10));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().expect("non-empty") < 4_000_000_000);
        // 8000 expected arrivals, σ ≈ 89: six sigma either side.
        assert!((7_460..=8_540).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate = 500 µs.
        let mean_gap = *a.last().expect("non-empty") as f64 / a.len() as f64;
        assert!((mean_gap - 500_000.0).abs() < 25_000.0, "mean gap {mean_gap} ns");
    }

    #[test]
    fn latency_runs_from_the_due_instant_and_contains_the_lateness() {
        // On time: sent when due, answered 300 ns later.
        assert_eq!((latency_from_due_ns(1_000, 1_300), lateness_ns(1_000, 1_000)), (300, 0));
        // The generator stalled 5 µs; the response took the same 300 ns
        // after the send, but the caller waited 5.3 µs.
        assert_eq!((latency_from_due_ns(1_000, 6_300), lateness_ns(1_000, 6_000)), (5_300, 5_000));
        // Clock reads can land a hair early; nothing goes negative.
        assert_eq!((latency_from_due_ns(1_000, 995), lateness_ns(1_000, 990)), (0, 0));
    }
}
