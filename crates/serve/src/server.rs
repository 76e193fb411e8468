//! The multi-threaded serve runtime: the accept loop, one reader thread
//! per connection, and the hot-reload poller. The reader that finds the
//! engine free runs the batch and writes its answers (flat combining,
//! Hendler, Incze, Shavit and Tzafrir, SPAA 2010), so a request crosses
//! no thread between its read and its answer.
//!
//! Request life cycle (all buffers pooled, steady state allocation-free):
//!
//! ```text
//! reader: one read → fixed receive buffer → each whole frame: decode →
//!         validate → slot from pool → batcher (one arrival stamp per read)
//!         → try_lock(engine) ─ busy → read again (the holder's next pass
//!                │                     takes this reader's requests)
//!                └ won → drain ≤ max_batch → forward → unlock
//!                        → per connection: encode → one send
//!                        → slots to pool → again while anything is queued
//! ```
//!
//! The batcher stays work-conserving ([`crate::batcher`]) without a
//! hand-off: a request that finds the engine free is answered by its own
//! reader, and the requests that arrive during a forward are taken by the
//! next pass of whichever reader holds the engine. A combiner releases the
//! engine before it writes, so another reader can run the next forward
//! while the responses go out. A pass that finds the queue empty releases
//! the engine and looks once more, so a push whose `try_lock` lost to that
//! pass is still served. Latency runs from the read that delivered the
//! request, so time blocked on the pool or a full queue counts.
//!
//! I/O is batched on both sides: one `read` admits every frame it
//! carries, and each connection's share of a batch leaves in one send
//! under that connection's send lock. The read timeout is set once per
//! connection. The receive buffer is allocated once, sized from the
//! widest request the model accepts; a frame that cannot fit is a typed
//! protocol error that closes only its connection.
//!
//! Slow clients: every send is bounded by `frame_deadline`. A send that
//! times out closes its connection (waking that connection's reader), and
//! the slots queued for it go back to the pool as they are drained, so a
//! client that stops reading cannot stall the other connections.
//!
//! Backpressure is the slot pool: it holds exactly `queue_capacity +
//! max_batch` slots, so queued + in-flight requests are hard-bounded. A
//! reader whose client outruns the server combines, or waits while
//! another reader does, instead of growing memory.
//!
//! Hot reload swaps the `Arc<PolicyModel>` between batches: a batch
//! captures the Arc once, so every response in it is answered by one
//! generation and in-flight requests are never dropped by a reload.
//!
//! Shutdown (a `CTL_SHUTDOWN` frame or [`Server::shutdown`]) drains: the
//! flag stops admission, then every reader takes the engine lock (behind
//! any forward in flight), answers everything still queued, and exits.
//! Every admitted request gets its response before the process exits.

use crate::batcher::{BatcherConfig, MicroBatcher, RequestSlot};
use crate::engine::InferenceEngine;
use crate::model::PolicyModel;
use crate::proto;
use marl_dist::wire::{KIND_INFER_REQ, KIND_SERVE_CTL};
use marl_dist::{DistError, FrameReader, StreamTransport, TcpAcceptor, UnixAcceptor};
use marl_obs::clock;
use marl_obs::context::TraceCtx;
use marl_obs::metrics::MetricsRegistry;
use marl_obs::span::FlowDir;
use marl_obs::telemetry::Telemetry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// How often blocked waits re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Widest requests one receive buffer holds, so one `read` can admit a
/// full batch and more.
const READ_FRAMES: usize = 64;

/// Serve runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest micro-batch one forward takes.
    pub max_batch: usize,
    /// Batcher queue bound (pool size is this plus one batch).
    pub queue_capacity: usize,
    /// Per-connection deadline for a partly received frame and for each
    /// response send. Much shorter than the dist default: serve frames
    /// are small, and a stalled client must not pin a reader thread or
    /// hold the connections a combiner is answering.
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
    // Slots stay boxed end to end (pool → batcher → batch → pool): every
    // hand-off moves one pointer instead of memcpy'ing the slot's inline
    // fields, and the buffers keep a stable heap identity, which is what
    // the zero-allocation steady-state contract is built on.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<RequestSlot>>,
    /// Readers parked on `ingress_cv` for queue space or a slot.
    waiting: usize,
}

/// One connection's send side, shared by every combiner that answers it.
#[derive(Debug)]
struct Conn {
    id: u64,
    /// The send half. Holding the lock makes one coalesced send one unit.
    tx: Mutex<StreamTransport>,
    /// Set once the peer is gone or a send failed; combiners then drop
    /// this connection's responses.
    closed: AtomicBool,
}

impl Conn {
    /// Writes `frames` in one send. A failed or timed-out send closes the
    /// connection and wakes its reader. False when nothing was sent.
    fn send(&self, frames: &[u8]) -> bool {
        let mut tx = self.tx.lock().expect("send lock poisoned by a panicked sender");
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        if tx.send_raw(frames).is_ok() {
            return true;
        }
        self.closed.store(true, Ordering::SeqCst);
        tx.shutdown();
        false
    }
}

/// A reader's reusable buffers, for admitting and for combining; they
/// grow to their working size over the first batches.
#[derive(Default)]
struct Buffers {
    /// The batch this reader forwards and answers as combiner.
    #[allow(clippy::vec_box)] // boxed end to end: see `Ingress::pool`
    batch: Vec<Box<RequestSlot>>,
    /// Encoded responses for one connection, sent in one write.
    out: Vec<u8>,
    /// The observation of the request being admitted.
    obs: Vec<f32>,
}

/// State shared by every serve thread.
struct Shared {
    model: RwLock<Arc<PolicyModel>>,
    /// Observation width per agent. Hot reload keeps the architecture,
    /// so these never change.
    obs_dims: Vec<usize>,
    ingress: Mutex<Ingress>,
    /// Wakes readers parked on a full queue or an empty pool: signaled
    /// when a batch's slots return and any are parked, and on shutdown.
    ingress_cv: Condvar,
    /// Whoever holds this lock is the combiner.
    engine: Mutex<InferenceEngine>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    metrics: Arc<MetricsRegistry>,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Attached telemetry: combiners record `serve-forward` spans and
    /// pair traced requests' flow arrows on its span tracer. Spans,
    /// arrival stamps and `serve_latency_ns` all read the process clock
    /// ([`clock::now_ns`]).
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
        let obs_dims: Vec<usize> = (0..model.num_agents()).map(|a| model.obs_dim(a)).collect();
        let max_obs = obs_dims.iter().copied().max().unwrap_or(0);
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
            obs_dims,
            ingress: Mutex::new(Ingress { batcher, pool, waiting: 0 }),
            ingress_cv: Condvar::new(),
            engine: Mutex::new(InferenceEngine::new()),
            conns: Mutex::new(HashMap::new()),
            metrics,
            config,
            shutdown: AtomicBool::new(false),
            obs,
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ingress = self.ingress.lock().expect("ingress lock");
        self.ingress_cv.notify_all();
    }

    /// Routes responses to `conn` (`routed`) or stops routing them.
    fn route(&self, conn: &Arc<Conn>, routed: bool) {
        let mut conns = self.conns.lock().expect("conns lock");
        if routed {
            conns.insert(conn.id, Arc::clone(conn));
        } else {
            conn.closed.store(true, Ordering::SeqCst);
            conns.remove(&conn.id);
        }
        self.metrics.serve_connections.set(conns.len() as f64);
    }

    /// Moves up to `max_batch` queued requests (all of them when `all`)
    /// into `batch`.
    #[allow(clippy::vec_box)] // boxed end to end: see `Ingress::pool`
    fn take_batch(&self, batch: &mut Vec<Box<RequestSlot>>, all: bool) {
        let mut ingress = self.ingress.lock().expect("ingress lock");
        if all {
            ingress.batcher.drain_all_into(batch);
        } else {
            ingress.batcher.drain_into(batch);
        }
        self.metrics.serve_queue_depth.set(ingress.batcher.len() as f64);
    }

    /// Runs one batch through the engine on the current model generation.
    fn forward(&self, engine: &mut InferenceEngine, batch: &mut [Box<RequestSlot>]) {
        let start = clock::now_ns();
        let model = Arc::clone(&self.model.read().expect("model lock"));
        engine.infer(&model, batch);
        if let Some(t) = self.obs.as_ref() {
            let end = clock::now_ns();
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
        self.metrics.serve_batch_fill.record(batch.len() as u64);
    }

    /// Writes a forwarded batch back, one send per connection carrying
    /// its responses in batch order, then returns the slots to the pool.
    /// Responses for a closed or unknown connection are dropped.
    fn respond(&self, bufs: &mut Buffers) {
        let batch = &mut bufs.batch;
        let mut start = 0;
        while start < batch.len() {
            // Gather this connection's slots at `start..end`. Rotating
            // moves pointers and keeps both groups in order.
            let conn_id = batch[start].conn_id;
            let mut end = start + 1;
            for i in start + 1..batch.len() {
                if batch[i].conn_id == conn_id {
                    batch[end..=i].rotate_right(1);
                    end += 1;
                }
            }
            let conn = self.conns.lock().expect("conns lock").get(&conn_id).cloned();
            if let Some(conn) = conn {
                bufs.out.clear();
                for slot in &batch[start..end] {
                    proto::append_response(
                        slot.req_id,
                        slot.epoch,
                        slot.agent,
                        slot.action,
                        &slot.logits,
                        slot.trace,
                        &mut bufs.out,
                    );
                }
                if conn.send(&bufs.out) {
                    let now_ns = clock::now_ns();
                    self.metrics.serve_requests.add((end - start) as u64);
                    for slot in &batch[start..end] {
                        self.metrics
                            .serve_latency_ns
                            .record(now_ns.saturating_sub(slot.enqueued_at_ns));
                    }
                }
            }
            start = end;
        }
        for slot in batch.iter_mut() {
            slot.reset();
        }
        // Every drained batch ends here, so this one wake-up covers both
        // the queue space and the slots parked readers wait for.
        let mut ingress = self.ingress.lock().expect("ingress lock");
        ingress.pool.append(batch);
        if ingress.waiting > 0 {
            self.ingress_cv.notify_all();
        }
    }

    /// Combines while anything is queued: drain up to `max_batch` and
    /// forward under the engine lock, then release it and write the
    /// responses while another reader may run the next forward. Returns
    /// at once if another reader holds the engine: every holder looks at
    /// the queue again after it releases, so a push whose `try_lock`
    /// lost to it is still served.
    fn combine(&self, bufs: &mut Buffers) {
        while !self.ingress.lock().expect("ingress lock").batcher.is_empty() {
            let mut engine = match self.engine.try_lock() {
                Ok(engine) => engine,
                Err(TryLockError::WouldBlock) => return,
                Err(TryLockError::Poisoned(_)) => panic!("engine lock poisoned by a combiner"),
            };
            self.take_batch(&mut bufs.batch, false);
            if bufs.batch.is_empty() {
                continue; // another combiner took it between the look and the lock
            }
            self.forward(&mut engine, &mut bufs.batch);
            drop(engine);
            self.respond(bufs);
        }
    }

    /// The shutdown drain: waits for the engine (behind any forward in
    /// flight) and answers everything queued in one batch. Admission has
    /// stopped, so nothing can queue behind it.
    fn drain(&self, bufs: &mut Buffers) {
        let mut engine = self.engine.lock().expect("engine lock poisoned by a combiner");
        self.take_batch(&mut bufs.batch, true);
        if !bufs.batch.is_empty() {
            self.forward(&mut engine, &mut bufs.batch);
        }
        drop(engine);
        self.respond(bufs);
    }

    /// Queues one validated request, its observation in `bufs.obs`,
    /// stamped `arrived_ns`. While the queue is full or the pool empty
    /// the reader combines, or parks while another reader holds the
    /// engine; every retry passes the same stamp, so the wait counts
    /// toward the request's latency. False, with nothing queued, once
    /// shutdown begins or the connection closes.
    fn enqueue(
        &self,
        conn: &Conn,
        (req_id, agent, trace): (u64, u32, TraceCtx),
        arrived_ns: u64,
        bufs: &mut Buffers,
    ) -> bool {
        let stopped = || self.shutdown.load(Ordering::SeqCst) || conn.closed.load(Ordering::SeqCst);
        loop {
            {
                let mut ingress = self.ingress.lock().expect("ingress lock");
                if stopped() {
                    return false;
                }
                if let Some(mut slot) = ingress.pool.pop() {
                    slot.req_id = req_id;
                    slot.conn_id = conn.id;
                    slot.agent = agent;
                    slot.trace = trace;
                    slot.obs.extend_from_slice(&bufs.obs);
                    match ingress.batcher.push(slot, arrived_ns) {
                        Ok(()) => {
                            let depth = ingress.batcher.len();
                            self.metrics.serve_queue_depth.set(depth as f64);
                            return true;
                        }
                        Err(mut refused) => {
                            refused.reset();
                            ingress.pool.push(refused);
                        }
                    }
                }
            }
            self.combine(bufs);
            let mut ingress = self.ingress.lock().expect("ingress lock");
            if (ingress.batcher.is_full() || ingress.pool.is_empty()) && !stopped() {
                ingress.waiting += 1;
                let (mut ingress, _) =
                    self.ingress_cv.wait_timeout(ingress, POLL).expect("ingress wait");
                ingress.waiting -= 1;
            }
        }
    }

    /// Admits every whole frame `frames` holds, all stamped `arrived_ns`;
    /// a request the model cannot take is answered at once. False
    /// when the reader must stop: shutdown, a closed connection, or a
    /// protocol error (a bad header or CRC, a frame too large for the
    /// buffer, a malformed payload, an unexpected kind).
    fn admit(
        &self,
        conn: &Conn,
        frames: &mut FrameReader,
        arrived_ns: u64,
        bufs: &mut Buffers,
    ) -> bool {
        let mut open = true;
        while open {
            let (kind, payload) = match frames.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return false,
            };
            open = match kind {
                KIND_INFER_REQ => match proto::decode_request_into(payload, &mut bufs.obs) {
                    Ok((req_id, agent, trace)) => {
                        let error = match self.obs_dims.get(agent as usize) {
                            None => proto::ERR_BAD_AGENT,
                            Some(&dim) if dim != bufs.obs.len() => proto::ERR_BAD_OBS_DIM,
                            Some(_) => 0,
                        };
                        if error == 0 {
                            self.enqueue(conn, (req_id, agent, trace), arrived_ns, bufs)
                        } else {
                            // Error answers skip the batcher entirely.
                            self.metrics.serve_errors.inc();
                            proto::encode_error(req_id, error, &mut bufs.out);
                            conn.send(&bufs.out);
                            true
                        }
                    }
                    Err(_) => false,
                },
                KIND_SERVE_CTL => match proto::decode_ctl(payload) {
                    Ok(proto::CTL_SHUTDOWN) => {
                        self.begin_shutdown();
                        false
                    }
                    Ok(_) => true, // ping and unknown ops: connectivity probes
                    Err(_) => false,
                },
                _ => false,
            };
        }
        open
    }
}

/// A running inference server; dropping it does **not** stop serving —
/// call [`Server::shutdown`] then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Reader threads spawned by the accept loop.
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

    /// [`Server::start`] with telemetry attached: each combiner records a
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

    /// The metrics registry the server records into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Blocks until shutdown completes and every thread has joined; the
    /// connections the drain answered close as the server drops.
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
            Ok(Some(mut rx)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                let deadline = shared.config.frame_deadline;
                rx.set_frame_deadline(deadline);
                // Socket options are set once per connection: the read
                // poll here, the send deadline on the shared socket.
                let Ok(mut tx) = rx.try_clone() else {
                    continue; // dup failed: drop the connection
                };
                if rx.set_recv_poll(POLL.min(deadline)).is_err()
                    || tx.set_send_deadline(deadline).is_err()
                {
                    continue;
                }
                let conn = Arc::new(Conn {
                    id: conn_id,
                    tx: Mutex::new(tx),
                    closed: AtomicBool::new(false),
                });
                shared.route(&conn, true);
                conn_handles.lock().expect("conn handles").push(spawn_named("serve-reader", {
                    let shared = Arc::clone(&shared);
                    move || reader_loop(rx, conn, shared)
                }));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break, // listener died; shutdown will follow
        }
    }
}

/// One connection's only thread: read, admit, combine, until the peer
/// goes, the connection breaks the protocol, or shutdown drains.
fn reader_loop(mut rx: StreamTransport, conn: Arc<Conn>, shared: Arc<Shared>) {
    let widest = shared.obs_dims.iter().copied().max().unwrap_or(0);
    let mut frames = FrameReader::new(READ_FRAMES * proto::request_frame_len(widest));
    let mut bufs = Buffers::default();
    let mut open = true;
    while open && !shared.shutdown.load(Ordering::SeqCst) && !conn.closed.load(Ordering::SeqCst) {
        open = match rx.recv_frames(&mut frames) {
            Ok(_) => shared.admit(&conn, &mut frames, clock::now_ns(), &mut bufs),
            Err(DistError::Timeout { .. }) => true,
            // Disconnect, a stalled partial frame, or a socket error.
            Err(_) => false,
        };
        // Serve what this read admitted. After a timeout this only looks:
        // the queue is normally empty between reads.
        shared.combine(&mut bufs);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        // The connection stays registered until `Server::wait`: this
        // drain, and any combiner still writing, answer it too.
        shared.drain(&mut bufs);
    } else {
        shared.route(&conn, false);
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
    use marl_dist::wire::{self, KIND_INFER_RESP};
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::Barrier;
    use std::time::Instant;

    fn model() -> PolicyModel {
        let train = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        PolicyModel::from_checkpoint(&Trainer::new(train).expect("trainer").checkpoint(), 0)
    }

    fn serving(max_batch: usize, queue_capacity: usize) -> Arc<Shared> {
        let config = ServeConfig { max_batch, queue_capacity, ..ServeConfig::default() };
        Arc::new(Shared::new(model(), config, Arc::new(MetricsRegistry::new()), None))
    }

    /// Connection `id` on one end of a socket pair, registered when
    /// `routed`; returns it with the client's end.
    fn attach(shared: &Shared, id: u64, routed: bool) -> (Arc<Conn>, StreamTransport) {
        let (server_end, client_end) = UnixStream::pair().expect("socketpair");
        let tx = Mutex::new(StreamTransport::unix(server_end));
        let conn = Arc::new(Conn { id, tx, closed: AtomicBool::new(false) });
        if routed {
            shared.route(&conn, true);
        }
        (conn, StreamTransport::unix(client_end))
    }

    /// A reader's buffers holding a valid agent-0 observation.
    fn reader_bufs(shared: &Shared) -> Buffers {
        let mut bufs = Buffers::default();
        bufs.obs.resize(shared.obs_dims[0], 0.0);
        bufs
    }

    fn request(req_id: u64) -> (u64, u32, TraceCtx) {
        (req_id, 0, TraceCtx::NONE)
    }

    #[test]
    fn a_push_blocked_on_a_full_queue_keeps_its_arrival_stamp() {
        let shared = serving(1, 1);
        let (conn, _client) = attach(&shared, 1, false);
        assert!(shared.enqueue(&conn, request(1), 10, &mut reader_bufs(&shared)));
        // Holding the engine keeps the blocked reader from combining, so
        // it parks until room is made the way a combiner makes it.
        let engine = shared.engine.lock().expect("engine lock");
        let arrived_ns = 20;
        let reader = std::thread::spawn({
            let (shared, conn) = (Arc::clone(&shared), Arc::clone(&conn));
            move || shared.enqueue(&conn, request(2), arrived_ns, &mut reader_bufs(&shared))
        });
        while shared.ingress.lock().expect("ingress lock").waiting == 0 {
            std::thread::yield_now();
        }
        let mut batch = Vec::new();
        shared.take_batch(&mut batch, false);
        assert!(reader.join().expect("reader thread"), "admitted once there was room");
        assert_eq!(batch[0].req_id, 1);
        shared.take_batch(&mut batch, false);
        assert_eq!((batch[0].req_id, batch[0].enqueued_at_ns), (2, arrived_ns));
        drop(engine);
    }

    #[test]
    fn enqueue_after_shutdown_admits_nothing() {
        let shared = serving(1, 1);
        let (conn, _client) = attach(&shared, 1, false);
        let pooled = shared.ingress.lock().expect("ingress lock").pool.len();
        shared.begin_shutdown();
        assert!(!shared.enqueue(&conn, request(1), 0, &mut reader_bufs(&shared)));
        let ingress = shared.ingress.lock().expect("ingress lock");
        assert!(ingress.batcher.is_empty());
        assert_eq!(ingress.pool.len(), pooled);
    }

    #[test]
    fn shutdown_behind_an_in_flight_forward_drains_the_backlog() {
        let shared = serving(1, 8);
        let (conn, mut client) = attach(&shared, 1, true);
        let mut bufs = reader_bufs(&shared);
        // Holding the model's write lock parks a combiner between its
        // drain and its forward, engine held: a batch in flight.
        let model = shared.model.write().expect("model lock");
        assert!(shared.enqueue(&conn, request(0), 0, &mut bufs));
        let combiner = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || shared.combine(&mut reader_bufs(&shared))
        });
        while !shared.ingress.lock().expect("ingress lock").batcher.is_empty() {
            std::thread::yield_now();
        }
        for req_id in 1..4 {
            assert!(shared.enqueue(&conn, request(req_id), 0, &mut bufs));
        }
        shared.begin_shutdown();
        let drainer = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || shared.drain(&mut reader_bufs(&shared))
        });
        drop(model);
        combiner.join().expect("combiner thread");
        drainer.join().expect("drainer thread");
        assert!(shared.ingress.lock().expect("ingress lock").batcher.is_empty());
        let fill = &shared.metrics.serve_batch_fill;
        assert_eq!(fill.sum(), 4, "the in-flight batch, then the whole backlog");
        let mut answered = Vec::new();
        let mut frame = Vec::new();
        for _ in 0..4 {
            let kind = client.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("answer");
            assert_eq!(kind, KIND_INFER_RESP);
            let mut logits = Vec::new();
            let resp = proto::decode_response_into(&frame[wire::HEADER_LEN..], &mut logits)
                .expect("decodes");
            answered.push(resp.req_id);
        }
        answered.sort_unstable();
        assert_eq!(answered, [0, 1, 2, 3], "every admitted request answered once");
    }

    /// Rounds of concurrent push-then-combine: once every reader's
    /// `combine` has returned, nothing may be left queued. A combiner
    /// that released the engine without looking at the queue again would
    /// strand the pushes whose `try_lock` lost to it.
    #[test]
    fn no_request_is_stranded_when_a_combiner_releases() {
        const READERS: usize = 4;
        const ROUNDS: u64 = 3_000;
        let shared = serving(2, 8);
        let (conn, _client) = attach(&shared, 1, false);
        let start = Barrier::new(READERS + 1);
        let done = Barrier::new(READERS + 1);
        let stop = AtomicBool::new(false);
        let mut stranded = None;
        std::thread::scope(|s| {
            for reader in 0..READERS as u64 {
                let (shared, conn, start, done, stop) = (&shared, &conn, &start, &done, &stop);
                s.spawn(move || {
                    let mut bufs = reader_bufs(shared);
                    for round in 0..ROUNDS {
                        start.wait();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        assert!(shared.enqueue(conn, request(round * 8 + reader), 0, &mut bufs));
                        shared.combine(&mut bufs);
                        done.wait();
                    }
                });
            }
            for round in 0..ROUNDS {
                // A failed round stops the readers at the next barrier
                // rather than leaving them waiting at it.
                stop.store(stranded.is_some(), Ordering::SeqCst);
                start.wait();
                if stranded.is_some() {
                    return;
                }
                done.wait();
                let queued = shared.ingress.lock().expect("ingress lock").batcher.len();
                if queued > 0 {
                    stranded = Some((round, queued));
                }
            }
        });
        assert_eq!(stranded, None, "(round, requests stranded)");
        let pooled = shared.ingress.lock().expect("ingress lock").pool.len();
        assert_eq!(pooled, shared.config.queue_capacity + shared.config.max_batch);
        assert_eq!(shared.metrics.serve_batch_fill.sum(), READERS as u64 * ROUNDS);
    }

    /// A client that floods requests and never reads its answers: its
    /// sends time out after `frame_deadline` and close it, another
    /// client is still answered within that deadline plus a margin, the
    /// pool fills up again, and shutdown joins.
    #[test]
    fn a_client_that_never_reads_stalls_no_one_and_returns_its_slots() {
        let path =
            std::env::temp_dir().join(format!("marl-serve-unit-flood-{}.sock", std::process::id()));
        let model = model();
        let obs = vec![0.25; model.obs_dim(0)];
        let deadline = Duration::from_millis(200);
        let config = ServeConfig { frame_deadline: deadline, ..ServeConfig::default() };
        let pool_size = config.queue_capacity + config.max_batch;
        let listener = ServeListener::unix(&path).expect("bind");
        let server = Server::start(listener, model, config, Arc::new(MetricsRegistry::new()), None);
        let connect = || loop {
            if let Ok(s) = UnixStream::connect(&path) {
                break s;
            }
            std::thread::yield_now();
        };

        let mut flood = connect();
        flood.set_write_timeout(Some(Duration::from_millis(100))).expect("write timeout");
        let mut frame = Vec::new();
        proto::encode_request(0, 0, &obs, TraceCtx::NONE, &mut frame);
        // Far more answers than the socket buffers hold: the server's
        // sends to this client must stall.
        let mut sent = 0;
        while sent < 20_000 && flood.write_all(&frame).is_ok() {
            sent += 1;
        }

        let mut probe = StreamTransport::unix(connect());
        proto::encode_request(1, 0, &obs, TraceCtx::NONE, &mut frame);
        let asked = Instant::now();
        probe.send_raw(&frame).expect("probe send");
        let kind = probe.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("probe answer");
        let waited = asked.elapsed();
        assert_eq!(kind, KIND_INFER_RESP);
        assert!(waited < deadline + Duration::from_secs(1), "probe answered after {waited:?}");

        let give_up = Instant::now() + Duration::from_secs(5);
        while shared_pool(&server) < pool_size && Instant::now() < give_up {
            std::thread::yield_now();
        }
        assert_eq!(shared_pool(&server), pool_size, "the flood's slots came back");
        assert!(
            flood.write_all(&frame).and_then(|()| flood.write_all(&frame)).is_err(),
            "the flooding connection was closed"
        );
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_file(&path);
    }

    fn shared_pool(server: &Server) -> usize {
        server.shared.ingress.lock().expect("ingress lock").pool.len()
    }
}
