//! The multi-threaded serve runtime: accept loop, per-connection
//! reader/writer threads, the batcher thread, and the hot-reload poller.
//!
//! Request life cycle (all buffers pooled, steady state allocation-free):
//!
//! ```text
//! reader: recv_raw_into(conn buf) → stamp arrival → slot from pool →
//!         validate → batcher
//! batcher thread: take up to B queued → InferenceEngine (one batched
//!                 forward per agent) → scatter slots to conn outboxes
//! writer: pop outbox → encode into conn buf → send_raw → slot to pool
//! ```
//!
//! The batcher thread is work-conserving ([`crate::batcher`]) and
//! sleeps on its own condition variable, signaled only when a push makes
//! the queue non-empty. Latency runs from the moment a request's frame
//! was read, so time blocked on the pool or a full queue counts.
//!
//! Backpressure is the slot pool: it holds exactly `queue_capacity +
//! max_batch` slots, so queued + in-flight requests are hard-bounded and
//! a reader whose client outruns the server blocks on the empty pool
//! instead of growing memory.
//!
//! Hot reload swaps the `Arc<PolicyModel>` between batches: a batch
//! captures the Arc once, so every response in it is answered by one
//! generation and in-flight requests are never dropped by a reload.
//!
//! Shutdown (a `CTL_SHUTDOWN` frame or [`Server::shutdown`]) drains:
//! readers stop ingesting, the batcher flushes everything queued in one
//! final oversized batch, writers empty their outboxes, then all threads
//! join. Every accepted request gets its response before the process
//! exits.

use crate::batcher::{BatcherConfig, MicroBatcher, RequestSlot};
use crate::engine::InferenceEngine;
use crate::model::PolicyModel;
use crate::proto;
use marl_dist::wire::{self, KIND_INFER_REQ, KIND_SERVE_CTL};
use marl_dist::{DistError, StreamTransport, TcpAcceptor, UnixAcceptor};
use marl_obs::metrics::MetricsRegistry;
use marl_obs::span::FlowDir;
use marl_obs::telemetry::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// How often blocked waits re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Serve runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest micro-batch one forward takes.
    pub max_batch: usize,
    /// Batcher queue bound (pool size is this plus one batch).
    pub queue_capacity: usize,
    /// Per-connection mid-frame read deadline. Much shorter than the
    /// dist default: serve frames are small, and a stalled client must
    /// not pin a reader thread.
    pub frame_deadline: Duration,
    /// Poll interval for hot checkpoint reload; `None` disables.
    pub reload_poll: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_capacity: 1024,
            frame_deadline: Duration::from_secs(1),
            reload_poll: None,
        }
    }
}

/// A bound, not-yet-serving listener (Unix socket or TCP).
#[derive(Debug)]
pub enum ServeListener {
    /// Unix-domain socket listener.
    Unix(UnixAcceptor),
    /// TCP listener.
    Tcp(TcpAcceptor),
}

impl ServeListener {
    /// Binds a Unix socket path (replacing a stale socket file).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn unix(path: &std::path::Path) -> Result<Self, DistError> {
        Ok(ServeListener::Unix(UnixAcceptor::bind(path)?))
    }

    /// Binds a TCP address (`host:port`; port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn tcp(addr: &str) -> Result<Self, DistError> {
        Ok(ServeListener::Tcp(TcpAcceptor::bind(addr)?))
    }

    /// The bound TCP address (`None` for Unix listeners).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            ServeListener::Unix(_) => None,
            ServeListener::Tcp(t) => t.local_addr().ok(),
        }
    }

    fn try_accept(&mut self) -> Result<Option<StreamTransport>, DistError> {
        match self {
            ServeListener::Unix(a) => a.try_accept_stream(),
            ServeListener::Tcp(a) => a.try_accept_stream(),
        }
    }
}

/// Batcher queue + slot pool behind one lock (they hand slots back and
/// forth, so separate locks would only add ordering hazards).
#[derive(Debug)]
struct Ingress {
    batcher: MicroBatcher,
    // Slots stay boxed end to end (pool → batcher → outbox → pool):
    // every hand-off moves one pointer instead of memcpy'ing the slot's
    // inline fields, and the buffers keep a stable heap identity, which
    // is what the zero-allocation steady-state contract is built on.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<RequestSlot>>,
}

/// One connection's outbox: completed slots awaiting the writer thread.
#[derive(Debug, Default)]
struct ConnOut {
    queue: Mutex<VecDeque<Box<RequestSlot>>>,
    cv: Condvar,
    closed: AtomicBool,
}

/// State shared by every serve thread.
struct Shared {
    model: RwLock<Arc<PolicyModel>>,
    ingress: Mutex<Ingress>,
    /// Signaled on batcher drain (wake readers blocked on a full queue)
    /// and pool return (wake readers blocked on an empty pool).
    ingress_cv: Condvar,
    /// Wakes the idle batcher thread: signaled when a push takes the
    /// queue from empty to non-empty, and on shutdown.
    work_cv: Condvar,
    conns: Mutex<HashMap<u64, Arc<ConnOut>>>,
    metrics: Arc<MetricsRegistry>,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Set by the batcher thread after the final shutdown flush has been
    /// scattered; writers may exit once their outbox is empty.
    drained: AtomicBool,
    epoch0: Instant,
    /// Attached telemetry: the batcher records `serve-forward` spans and
    /// pairs traced requests' flow arrows on its span tracer. All span
    /// timestamps use the tracer's clock, never `epoch0`.
    obs: Option<Arc<Telemetry>>,
}

impl Shared {
    /// The shared state for serving `model`: an empty queue and a full
    /// pool of `queue_capacity + max_batch` slots, sized for the widest
    /// agent so steady-state requests never grow a slot.
    fn new(
        model: PolicyModel,
        config: ServeConfig,
        metrics: Arc<MetricsRegistry>,
        obs: Option<Arc<Telemetry>>,
    ) -> Shared {
        let max_obs = (0..model.num_agents()).map(|a| model.obs_dim(a)).max().unwrap_or(0);
        let max_act = (0..model.num_agents()).map(|a| model.act_dim(a)).max().unwrap_or(0);
        let pool_size = config.queue_capacity + config.max_batch;
        let pool = (0..pool_size)
            .map(|_| {
                Box::new(RequestSlot {
                    obs: Vec::with_capacity(max_obs),
                    logits: Vec::with_capacity(max_act),
                    ..RequestSlot::default()
                })
            })
            .collect();
        let batcher = MicroBatcher::new(BatcherConfig {
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
        });
        Shared {
            model: RwLock::new(Arc::new(model)),
            ingress: Mutex::new(Ingress { batcher, pool }),
            ingress_cv: Condvar::new(),
            work_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            metrics,
            config,
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            epoch0: Instant::now(),
            obs,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch0.elapsed().as_nanos() as u64
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ingress_cv.notify_all();
        self.work_cv.notify_one();
        let conns = self.conns.lock().expect("conns lock");
        for out in conns.values() {
            out.cv.notify_all();
        }
    }
}

/// A running inference server; dropping it does **not** stop serving —
/// call [`Server::shutdown`] then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Reader/writer threads spawned by the accept loop.
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Starts serving `model` on `listener`. `checkpoint` is the path
    /// the hot-reload poller watches (ignored unless
    /// `config.reload_poll` is set).
    pub fn start(
        listener: ServeListener,
        model: PolicyModel,
        config: ServeConfig,
        metrics: Arc<MetricsRegistry>,
        checkpoint: Option<PathBuf>,
    ) -> Server {
        Server::start_traced(listener, model, config, metrics, checkpoint, None)
    }

    /// [`Server::start`] with telemetry attached: the batcher records a
    /// `serve-forward` span per batch and a flow-destination marker per
    /// traced request, pairing the merged timeline's client→forward
    /// arrows.
    pub fn start_traced(
        listener: ServeListener,
        model: PolicyModel,
        config: ServeConfig,
        metrics: Arc<MetricsRegistry>,
        checkpoint: Option<PathBuf>,
        obs: Option<Arc<Telemetry>>,
    ) -> Server {
        let shared = Arc::new(Shared::new(model, config.clone(), metrics, obs));
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        handles.push(spawn_named("serve-accept", {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            move || accept_loop(listener, shared, conn_handles)
        }));
        handles.push(spawn_named("serve-batcher", {
            let shared = Arc::clone(&shared);
            move || batcher_loop(shared)
        }));
        if let (Some(interval), Some(path)) = (config.reload_poll, checkpoint) {
            handles.push(spawn_named("serve-reload", {
                let shared = Arc::clone(&shared);
                move || reload_loop(shared, path, interval)
            }));
        }
        Server { shared, handles, conn_handles }
    }

    /// Requests shutdown (idempotent; also triggered by a client
    /// `CTL_SHUTDOWN` frame). In-flight requests still get responses.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The serving model generation (bumps on each hot reload).
    pub fn model_epoch(&self) -> u64 {
        self.shared.model.read().expect("model lock").epoch
    }

    /// The metrics registry the server records into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Blocks until shutdown completes and every thread has joined.
    pub fn wait(self) {
        for h in self.handles {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("conn handles"));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name.to_owned()).spawn(f).expect("spawn serve thread")
}

fn accept_loop(
    mut listener: ServeListener,
    shared: Arc<Shared>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn_id: u64 = 1;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.try_accept() {
            Ok(Some(transport)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                let transport = transport.with_frame_deadline(shared.config.frame_deadline);
                let Ok(send_half) = transport.try_clone() else {
                    continue; // dup failed: drop the connection
                };
                let out = Arc::new(ConnOut::default());
                shared.conns.lock().expect("conns lock").insert(conn_id, Arc::clone(&out));
                shared
                    .metrics
                    .serve_connections
                    .set(shared.conns.lock().expect("conns lock").len() as f64);
                let mut guard = conn_handles.lock().expect("conn handles");
                guard.push(spawn_named("serve-reader", {
                    let shared = Arc::clone(&shared);
                    let out = Arc::clone(&out);
                    move || reader_loop(transport, conn_id, shared, out)
                }));
                guard.push(spawn_named("serve-writer", {
                    let shared = Arc::clone(&shared);
                    move || writer_loop(send_half, shared, out)
                }));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break, // listener died; shutdown will follow
        }
    }
}

/// Takes a slot from the pool, blocking (bounded backpressure) while it
/// is empty. `None` once shutdown begins.
fn take_slot(shared: &Shared) -> Option<Box<RequestSlot>> {
    let mut ingress = shared.ingress.lock().expect("ingress lock");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(slot) = ingress.pool.pop() {
            return Some(slot);
        }
        let (guard, _) = shared.ingress_cv.wait_timeout(ingress, POLL).expect("ingress wait");
        ingress = guard;
    }
}

/// Returns a slot to the pool and wakes readers blocked on it.
fn return_slot(shared: &Shared, mut slot: Box<RequestSlot>) {
    slot.reset();
    shared.ingress.lock().expect("ingress lock").pool.push(slot);
    shared.ingress_cv.notify_all();
}

/// Queues `slot` stamped with its arrival instant, blocking while the
/// queue is full; every retry passes the same instant, so the wait counts
/// toward the request's latency. Wakes the batcher only when the queue
/// turns non-empty: a non-empty queue means the batcher is busy and will
/// look again when it is free. Returns false (recycling the slot) once
/// shutdown begins.
fn enqueue(shared: &Shared, mut slot: Box<RequestSlot>, arrived_ns: u64) -> bool {
    let mut ingress = shared.ingress.lock().expect("ingress lock");
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            ingress.pool.push(slot);
            return false;
        }
        match ingress.batcher.push(slot, arrived_ns) {
            Ok(()) => break,
            Err(refused) => {
                slot = refused;
                let (guard, _) =
                    shared.ingress_cv.wait_timeout(ingress, POLL).expect("ingress wait");
                ingress = guard;
            }
        }
    }
    let depth = ingress.batcher.len();
    shared.metrics.serve_queue_depth.set(depth as f64);
    drop(ingress);
    if depth == 1 {
        shared.work_cv.notify_one();
    }
    true
}

fn reader_loop(
    mut transport: StreamTransport,
    conn_id: u64,
    shared: Arc<Shared>,
    out: Arc<ConnOut>,
) {
    let mut frame = Vec::new();
    // Whether the peer vanished (disconnect / protocol error), as opposed
    // to an orderly shutdown: only a vanished peer closes the outbox —
    // during shutdown the writer must stay up for the final drain.
    let mut peer_gone = false;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let (kind, arrived_ns) = match transport.recv_raw_into(&mut frame, POLL) {
            Ok(kind) => (kind, shared.now_ns()),
            Err(DistError::Timeout { .. }) => continue,
            Err(_) => {
                peer_gone = true;
                break; // disconnect or framing corruption: close
            }
        };
        let payload = &frame[wire::HEADER_LEN..];
        match kind {
            KIND_INFER_REQ => {
                let Some(mut slot) = take_slot(&shared) else { break };
                let (req_id, agent, ctx) = match proto::decode_request_into(payload, &mut slot.obs)
                {
                    Ok(triple) => triple,
                    Err(_) => {
                        return_slot(&shared, slot);
                        peer_gone = true;
                        break; // malformed payload: protocol-fatal
                    }
                };
                slot.req_id = req_id;
                slot.agent = agent;
                slot.conn_id = conn_id;
                slot.trace = ctx;
                slot.error = 0;
                {
                    let model = shared.model.read().expect("model lock");
                    if (agent as usize) >= model.num_agents() {
                        slot.error = proto::ERR_BAD_AGENT;
                    } else if slot.obs.len() != model.obs_dim(agent as usize) {
                        slot.error = proto::ERR_BAD_OBS_DIM;
                    }
                }
                if slot.error != 0 {
                    // Error responses skip the batcher entirely.
                    shared.metrics.serve_errors.inc();
                    out.queue.lock().expect("outbox lock").push_back(slot);
                    out.cv.notify_all();
                    continue;
                }
                if !enqueue(&shared, slot, arrived_ns) {
                    break;
                }
            }
            KIND_SERVE_CTL => match proto::decode_ctl(payload) {
                Ok(proto::CTL_SHUTDOWN) => {
                    shared.begin_shutdown();
                    break;
                }
                Ok(_) => {} // ping and unknown ops: connectivity probes
                Err(_) => {
                    peer_gone = true;
                    break;
                }
            },
            _ => {
                peer_gone = true;
                break; // unexpected kind on a serve connection
            }
        }
    }
    if peer_gone {
        // The peer vanished: unregister so the batcher stops scattering
        // here, close the outbox, and recycle anything already queued
        // (the writer may have exited the instant `closed` was set).
        let mut conns = shared.conns.lock().expect("conns lock");
        conns.remove(&conn_id);
        shared.metrics.serve_connections.set(conns.len() as f64);
        drop(conns);
        let orphans: Vec<_> = {
            let mut queue = out.queue.lock().expect("outbox lock");
            out.closed.store(true, Ordering::SeqCst);
            queue.drain(..).collect()
        };
        out.cv.notify_all();
        for slot in orphans {
            return_slot(&shared, slot);
        }
    }
    // On orderly shutdown the connection stays registered: the writer
    // keeps draining until the batcher's final flush lands (`drained`),
    // so every admitted request is answered before the stream closes.
}

fn writer_loop(mut transport: StreamTransport, shared: Arc<Shared>, out: Arc<ConnOut>) {
    let mut frame = Vec::new();
    loop {
        let slot = {
            let mut queue = out.queue.lock().expect("outbox lock");
            loop {
                if let Some(slot) = queue.pop_front() {
                    break slot;
                }
                let done = out.closed.load(Ordering::SeqCst)
                    || (shared.shutdown.load(Ordering::SeqCst)
                        && shared.drained.load(Ordering::SeqCst));
                if done {
                    return;
                }
                let (guard, _) = out.cv.wait_timeout(queue, POLL).expect("outbox wait");
                queue = guard;
            }
        };
        if slot.error != 0 {
            proto::encode_error(slot.req_id, slot.error, &mut frame);
        } else {
            proto::encode_response(
                slot.req_id,
                slot.epoch,
                slot.agent,
                slot.action,
                &slot.logits,
                slot.trace,
                &mut frame,
            );
        }
        let sent = transport.send_raw(&frame).is_ok();
        if sent && slot.error == 0 {
            shared.metrics.serve_requests.inc();
            shared
                .metrics
                .serve_latency_ns
                .record(shared.now_ns().saturating_sub(slot.enqueued_at_ns));
        }
        return_slot(&shared, slot);
        if !sent {
            // Peer is gone: close the outbox (under its lock, so the
            // batcher stops scattering here) and recycle the backlog.
            let orphans: Vec<_> = {
                let mut queue = out.queue.lock().expect("outbox lock");
                out.closed.store(true, Ordering::SeqCst);
                queue.drain(..).collect()
            };
            for slot in orphans {
                return_slot(&shared, slot);
            }
            return;
        }
    }
}

/// Scatters a completed batch to the owning connections' outboxes;
/// slots whose connection has closed go straight back to the pool.
#[allow(clippy::vec_box)] // boxed end to end: see `Ingress::pool`
fn scatter(shared: &Shared, batch: &mut Vec<Box<RequestSlot>>) {
    for slot in batch.drain(..) {
        let target = shared.conns.lock().expect("conns lock").get(&slot.conn_id).cloned();
        match target {
            Some(out) => {
                // `closed` is checked under the queue lock (the reader
                // sets it under the same lock when the peer vanishes),
                // so a slot is either drained by the closing reader or
                // recycled here — never stranded in a dead outbox.
                let mut queue = out.queue.lock().expect("outbox lock");
                if out.closed.load(Ordering::SeqCst) {
                    drop(queue);
                    return_slot(shared, slot);
                } else {
                    queue.push_back(slot);
                    drop(queue);
                    out.cv.notify_all();
                }
            }
            None => return_slot(shared, slot),
        }
    }
}

fn batcher_loop(shared: Arc<Shared>) {
    let mut engine = InferenceEngine::new();
    let mut batch: Vec<Box<RequestSlot>> =
        Vec::with_capacity(shared.config.max_batch.max(shared.config.queue_capacity));
    loop {
        // Only the drain taken under the lock after the shutdown flag is
        // seen is the last: no reader can push behind it. A batch already
        // in flight when shutdown lands is followed by that drain.
        let last = {
            let mut ingress = shared.ingress.lock().expect("ingress lock");
            let last = loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    ingress.batcher.drain_all_into(&mut batch);
                    break true;
                }
                if ingress.batcher.ready(shared.now_ns()) {
                    ingress.batcher.drain_into(&mut batch);
                    break false;
                }
                // Idle: a push wakes us; the timeout only re-checks
                // the shutdown flag.
                let (guard, _) = shared.work_cv.wait_timeout(ingress, POLL).expect("work wait");
                ingress = guard;
            };
            shared.metrics.serve_queue_depth.set(ingress.batcher.len() as f64);
            last
        };
        shared.ingress_cv.notify_all(); // queue space freed
        if !batch.is_empty() {
            let fwd_start = shared.obs.as_ref().map(|t| t.tracer.now_ns());
            let model = Arc::clone(&shared.model.read().expect("model lock"));
            engine.infer(&model, &mut batch);
            if let Some(t) = shared.obs.as_ref() {
                let end = t.tracer.now_ns();
                let start = fwd_start.unwrap_or(end);
                t.tracer.record("serve-forward", 0, start, end);
                for slot in batch.iter() {
                    if slot.trace.is_set() {
                        t.tracer.record_flow(
                            "serve-recv",
                            0,
                            start,
                            end,
                            slot.trace.span_id,
                            FlowDir::In,
                        );
                    }
                }
            }
            shared.metrics.serve_batch_fill.record(batch.len() as u64);
            scatter(&shared, &mut batch);
        }
        if last {
            // Everything queued before shutdown has now been scattered.
            shared.drained.store(true, Ordering::SeqCst);
            let conns = shared.conns.lock().expect("conns lock");
            for out in conns.values() {
                out.cv.notify_all();
            }
            return;
        }
    }
}

/// The checkpoint file's version: mtime and inode. The atomic writer
/// renames a fresh file into place, so the inode tells a rewrite apart
/// even when it lands within the filesystem's mtime granularity.
fn file_version(path: &std::path::Path) -> Option<(SystemTime, u64)> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.ino()))
}

fn reload_loop(shared: Arc<Shared>, path: PathBuf, interval: Duration) {
    let mut last_seen = file_version(&path);
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(interval.min(POLL));
        let now = file_version(&path);
        if now == last_seen || now.is_none() {
            continue;
        }
        let next_epoch = shared.model.read().expect("model lock").epoch + 1;
        match PolicyModel::load(&path, next_epoch) {
            Ok((new_model, _fell_back)) => {
                last_seen = now;
                let current = shared.model.read().expect("model lock");
                if !current.same_architecture(&new_model) {
                    continue; // incompatible checkpoint: keep serving
                }
                drop(current);
                *shared.model.write().expect("model lock") = Arc::new(new_model);
                shared.metrics.serve_reloads.inc();
            }
            Err(_) => {
                // Torn or half-written file: the `.prev` fallback inside
                // `load` already tried too. Keep serving the old model
                // and — by not advancing `last_seen` — retry next tick,
                // so a writer that finishes after our read still lands.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_algo::{Algorithm, Task, TrainConfig, Trainer};

    fn serving(max_batch: usize, queue_capacity: usize) -> Arc<Shared> {
        let train = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let ckpt = Trainer::new(train).expect("trainer").checkpoint();
        let config = ServeConfig { max_batch, queue_capacity, ..ServeConfig::default() };
        let metrics = Arc::new(MetricsRegistry::new());
        Arc::new(Shared::new(PolicyModel::from_checkpoint(&ckpt, 0), config, metrics, None))
    }

    /// A pooled slot carrying a valid agent-0 request on connection 1.
    fn take(shared: &Shared, req_id: u64) -> Box<RequestSlot> {
        let obs_dim = shared.model.read().expect("model lock").obs_dim(0);
        let mut slot = shared.ingress.lock().expect("ingress lock").pool.pop().expect("pool");
        slot.req_id = req_id;
        slot.conn_id = 1;
        slot.obs.resize(obs_dim, 0.0);
        slot
    }

    #[test]
    fn a_push_blocked_on_a_full_queue_keeps_its_arrival_stamp() {
        let shared = serving(1, 1);
        assert!(enqueue(&shared, take(&shared, 1), 10));
        let arrived_ns = 20;
        let reader = std::thread::spawn({
            let shared = Arc::clone(&shared);
            let slot = take(&shared, 2);
            move || enqueue(&shared, slot, arrived_ns)
        });
        // The stamp must be the handed-in instant whether or not the
        // reader was refused first; the pause makes the refusal the usual
        // case. Then make room the way the batcher thread does.
        std::thread::sleep(Duration::from_millis(20));
        let mut batch = Vec::new();
        shared.ingress.lock().expect("ingress lock").batcher.drain_into(&mut batch);
        shared.ingress_cv.notify_all();
        assert!(reader.join().expect("reader thread"), "admitted once there was room");
        assert_eq!(batch[0].req_id, 1);
        shared.ingress.lock().expect("ingress lock").batcher.drain_into(&mut batch);
        assert_eq!((batch[0].req_id, batch[0].enqueued_at_ns), (2, arrived_ns));
    }

    #[test]
    fn enqueue_after_shutdown_recycles_the_slot() {
        let shared = serving(1, 1);
        let pooled = shared.ingress.lock().expect("ingress lock").pool.len();
        let slot = take(&shared, 1);
        shared.begin_shutdown();
        assert!(!enqueue(&shared, slot, 0));
        let ingress = shared.ingress.lock().expect("ingress lock");
        assert!(ingress.batcher.is_empty());
        assert_eq!(ingress.pool.len(), pooled);
    }

    #[test]
    fn shutdown_behind_an_in_flight_forward_drains_the_backlog() {
        let shared = serving(1, 8);
        let out = Arc::new(ConnOut::default());
        shared.conns.lock().expect("conns lock").insert(1, Arc::clone(&out));
        let mut requests: Vec<_> = (0..4).map(|req_id| take(&shared, req_id)).collect();
        let backlog = requests.split_off(1);
        // Holding the model's write lock parks the batcher between its
        // drain and its forward: a batch in flight.
        let model = shared.model.write().expect("model lock");
        assert!(enqueue(&shared, requests.pop().expect("first request"), 0));
        let batcher = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || batcher_loop(shared)
        });
        while !shared.ingress.lock().expect("ingress lock").batcher.is_empty() {
            std::thread::yield_now();
        }
        for slot in backlog {
            assert!(enqueue(&shared, slot, 0));
        }
        shared.begin_shutdown();
        drop(model);
        batcher.join().expect("batcher thread");
        assert!(shared.drained.load(Ordering::SeqCst));
        let answered: Vec<u64> =
            out.queue.lock().expect("outbox lock").iter().map(|s| s.req_id).collect();
        assert_eq!(answered, [0, 1, 2, 3], "the in-flight batch, then the whole backlog");
    }
}
