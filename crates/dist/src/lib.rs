//! `marl-dist`: a fault-tolerant distributed actor–learner runtime.
//!
//! Rollout workers stream CRC-framed transition batches (`MARD` frames,
//! [`wire`]) over a length-prefixed transport ([`transport`]: in-process
//! loopback, Unix socket, TCP) to a learner that owns the replay store
//! and broadcasts parameter snapshots back. A supervision layer
//! ([`supervisor`]) tracks per-worker heartbeats and liveness, applies
//! deadline-based I/O timeouts with exponential backoff + jitter on
//! reconnect ([`backoff`]), quarantines corrupt and stale-epoch frames
//! (typed [`DistError`]s), and bounds every buffering hop with
//! backpressure queues ([`queue`]). The learner degrades gracefully:
//! it keeps training while workers die, restarts them from their last
//! episode-boundary snapshot ([`process`]), and re-admits recovered
//! workers without disturbing the determinism of surviving streams
//! (every worker owns disjoint derived RNG streams).
//!
//! Determinism anchor: one worker over the in-order loopback in
//! *lockstep* mode ([`Learner::serve_lockstep`]) reproduces the
//! single-process trainer's update digests **bitwise** — the worker
//! replicates the episode loop's draw order and hands its master-RNG
//! state to the learner at every update boundary (test-enforced against
//! `marl_algo::trace::UpdateDigest` sequences).

pub mod backoff;
pub mod error;
pub mod learner;
pub mod process;
pub mod queue;
pub mod supervisor;
pub mod transport;
pub mod wire;
pub mod worker;

pub use backoff::Backoff;
pub use error::DistError;
pub use learner::{Acceptor, Learner, LearnerOptions, NoAccept, RestartHandler};
pub use process::{ChaosPlan, Endpoint, TcpAcceptor, UnixAcceptor, WorkerPool};
pub use queue::BoundedQueue;
pub use supervisor::{Liveness, Supervisor, SupervisorConfig};
pub use transport::{loopback_pair, FrameReader, LoopbackTransport, StreamTransport, Transport};
pub use worker::{run_worker, run_worker_from, run_worker_traced, Worker, WorkerStats};
