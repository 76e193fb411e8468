//! The learner: owns the replay store and the trainer, ingests worker
//! streams, and broadcasts parameter snapshots — under supervision.
//!
//! Two serving modes:
//!
//! - [`Learner::serve_lockstep`]: one worker over a deterministic
//!   in-order transport, with the master-RNG handoff at every update
//!   boundary. Training output (update digests) is bitwise identical to
//!   the single-process `Trainer::train` at the same configuration.
//! - [`Learner::serve_free`]: N free-running workers, polled
//!   round-robin. The learner keeps training as long as *any* worker
//!   streams; dead workers are detected by heartbeat silence, restarted
//!   through a [`RestartHandler`], and re-admitted from their last
//!   episode-boundary snapshot without disturbing surviving streams
//!   (each worker owns disjoint derived RNG streams).
//!
//! Corrupt and stale-epoch frames are quarantined: dropped, counted per
//! worker and in the `marl_dist_*` metrics, never ingested.

use crate::error::DistError;
use crate::supervisor::{Liveness, Supervisor, SupervisorConfig};
use crate::transport::Transport;
use crate::wire::{ActorParams, Bye, Heartbeat, HeartbeatAck, Msg, Params, Steps, Welcome};
use crate::worker::worker_noise_state;
use marl_algo::trainer::Trainer;
use marl_algo::TrainConfig;
use marl_core::transition::TransitionLayout;
use marl_obs::context::{span_id, TraceCtx};
use marl_obs::metrics::MetricsRegistry;
use marl_obs::span::FlowDir;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span-id actor slot of learner-originated frames (disjoint from every
/// worker id, and small enough that `span_id`'s shift keeps all bits).
pub const LEARNER_SPAN_ACTOR: u32 = 0x00FF_FFFE;

/// Episode-boundary restart state the learner records per worker (from
/// its last `EpisodeEnd` frame).
#[derive(Debug, Clone, Copy)]
pub struct WorkerSnapshot {
    /// Exploration RNG state at the boundary.
    pub master_rng: [u64; 4],
    /// Environment RNG state at the boundary.
    pub env_rng: [u64; 4],
    /// Environment steps the worker had taken.
    pub env_steps: u64,
    /// Worker-side samples-since-update mirror.
    pub samples_since_update: usize,
}

/// Tunables of the serving loops.
#[derive(Debug, Clone, Copy)]
pub struct LearnerOptions {
    /// Supervision deadlines and tolerances.
    pub supervisor: SupervisorConfig,
    /// Free-running flush cadence handed to workers.
    pub steps_per_frame: usize,
    /// Broadcast parameters every this many update iterations (free
    /// mode).
    pub params_every_updates: u64,
    /// Per-connection poll deadline of the serve loops.
    pub recv_timeout: Duration,
    /// Abort a serve loop when no episode completes for this long.
    pub stall_timeout: Duration,
}

impl Default for LearnerOptions {
    fn default() -> Self {
        LearnerOptions {
            supervisor: SupervisorConfig::default(),
            steps_per_frame: 8,
            params_every_updates: 1,
            recv_timeout: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(60),
        }
    }
}

/// Asked to restart a worker the supervisor declared dead. Returns
/// whether a restart was launched (the restarted worker re-admits itself
/// by reconnecting with `resume: true`).
pub trait RestartHandler {
    /// Restarts `worker_id`; returns `false` when restarting is not
    /// possible (the learner then keeps training without it).
    fn restart(&mut self, worker_id: u32) -> bool;

    /// Notified for every step frame a worker delivers (drives the
    /// chaos-injection plans; default: ignore).
    fn on_steps_frame(&mut self, worker_id: u32) {
        let _ = worker_id;
    }
}

/// Offers newly arrived connections to a serve loop (a nonblocking
/// listener, or a test-side queue of loopback ends).
pub trait Acceptor {
    /// Returns a new connection if one is ready, without blocking.
    ///
    /// # Errors
    ///
    /// Fatal listener failures only; transient emptiness is `Ok(None)`.
    fn try_accept(&mut self) -> Result<Option<Box<dyn Transport>>, DistError>;
}

/// An [`Acceptor`] that never produces connections (fixed-topology
/// serving, e.g. the lockstep loopback).
#[derive(Debug, Default)]
pub struct NoAccept;

impl Acceptor for NoAccept {
    fn try_accept(&mut self) -> Result<Option<Box<dyn Transport>>, DistError> {
        Ok(None)
    }
}

/// One serve-loop connection slot.
struct Conn {
    transport: Box<dyn Transport>,
    worker_id: Option<u32>,
}

/// The distributed learner.
pub struct Learner {
    trainer: Trainer,
    supervisor: Supervisor,
    epoch: u64,
    opts: LearnerOptions,
    snapshots: BTreeMap<u32, WorkerSnapshot>,
    episodes_recorded: usize,
    /// Fleet-shared trace id (the run seed).
    trace_id: u64,
    /// Monotone counter feeding [`span_id`] for stamped frames.
    ctx_seq: u64,
}

impl Learner {
    /// Builds a learner (and its trainer) from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates trainer construction failures.
    pub fn new(config: TrainConfig, opts: LearnerOptions) -> Result<Self, DistError> {
        let trace_id = config.seed;
        Ok(Learner {
            trainer: Trainer::new(config)?,
            supervisor: Supervisor::new(opts.supervisor),
            epoch: 0,
            opts,
            snapshots: BTreeMap::new(),
            episodes_recorded: 0,
            trace_id,
            ctx_seq: 0,
        })
    }

    /// Wraps an existing trainer (e.g. one restored from a checkpoint).
    pub fn from_trainer(trainer: Trainer, opts: LearnerOptions) -> Self {
        let episodes_recorded = trainer.episodes_done();
        let trace_id = trainer.config().seed;
        Learner {
            trainer,
            supervisor: Supervisor::new(opts.supervisor),
            epoch: 0,
            opts,
            snapshots: BTreeMap::new(),
            episodes_recorded,
            trace_id,
            ctx_seq: 0,
        }
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable access to the wrapped trainer (attach telemetry or a trace
    /// recorder before serving).
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// Consumes the learner, returning the trainer with all ingested
    /// state.
    pub fn into_trainer(self) -> Trainer {
        self.trainer
    }

    /// The supervisor's live view of the worker fleet.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Current parameter epoch (update iterations served).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Episodes recorded on the curve so far.
    pub fn episodes_recorded(&self) -> usize {
        self.episodes_recorded
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.trainer.telemetry_handle().map(|t| &t.metrics)
    }

    fn note_quarantine(&mut self, worker_id: Option<u32>) {
        if let Some(id) = worker_id {
            self.supervisor.record_quarantine(id);
        }
        if let Some(m) = self.metrics() {
            m.dist_quarantined_frames.inc();
        }
    }

    fn publish_gauges(&self, queue_depth: usize, now: Instant) {
        if let Some(m) = self.metrics() {
            m.dist_workers_alive.set(self.supervisor.alive() as f64);
            m.dist_queue_depth.set(queue_depth as f64);
            let age = self.supervisor.max_heartbeat_age(now).unwrap_or(Duration::ZERO);
            m.dist_heartbeat_age_ms.set(age.as_secs_f64() * 1e3);
        }
    }

    /// Stamps the next learner-originated trace context (telemetry only).
    fn next_ctx(&mut self) -> Option<TraceCtx> {
        let t = self.trainer.telemetry_handle()?;
        self.ctx_seq += 1;
        Some(TraceCtx {
            trace_id: self.trace_id,
            span_id: span_id(LEARNER_SPAN_ACTOR, self.ctx_seq),
            send_ns: t.tracer.now_ns(),
        })
    }

    /// Pushes every joint step of a frame into the trainer's replay
    /// store, and records the flow-destination span of a ctx-stamped
    /// frame (pairs with the worker's `steps-send` origin).
    fn ingest(&mut self, s: &Steps) -> Result<(), DistError> {
        let sent =
            s.rows.dims().iter().map(|&(o, a)| TransitionLayout::new(o as usize, a as usize));
        if !s.rows.is_empty() && !sent.eq(self.trainer.transition_layouts()) {
            return Err(DistError::Protocol(
                "steps frame rows do not have the trainer's agent dimensions".into(),
            ));
        }
        let start_ns = self.trainer.telemetry_handle().map(|t| t.tracer.now_ns());
        for row in s.rows.steps() {
            self.trainer.ingest_step(row)?;
        }
        if let (Some(t), Some(c), Some(start)) = (self.trainer.telemetry_handle(), s.ctx, start_ns)
        {
            t.tracer.record_flow(
                "steps-ingest",
                0,
                start,
                t.tracer.now_ns(),
                c.span_id,
                FlowDir::In,
            );
        }
        Ok(())
    }

    /// Echoes a heartbeat so the worker can price its round trip;
    /// `recv_ns` is the learner's tracer clock (the merge reference).
    fn ack_msg(&self, h: &Heartbeat) -> Msg {
        let recv_ns = self.trainer.telemetry_handle().map_or(0, |t| t.tracer.now_ns());
        Msg::HeartbeatAck(HeartbeatAck {
            worker_id: h.worker_id,
            seq: h.seq,
            send_ns: h.send_ns,
            recv_ns,
        })
    }

    fn params_msg(&mut self, lockstep: bool) -> Msg {
        let ctx = self.next_ctx();
        let msg = Msg::Params(Box::new(Params {
            epoch: self.epoch,
            actors: ActorParams::capture(self.trainer.actors()),
            master_rng: lockstep.then(|| self.trainer.master_rng_state()),
            ctx,
        }));
        if let (Some(t), Some(c)) = (self.trainer.telemetry_handle(), ctx) {
            t.tracer.record_flow(
                "params-send",
                0,
                c.send_ns,
                t.tracer.now_ns(),
                c.span_id,
                FlowDir::Out,
            );
        }
        msg
    }

    fn welcome_lockstep(&self, worker_id: u32) -> Msg {
        let cfg = *self.trainer.config();
        Msg::Welcome(Box::new(Welcome {
            worker_id,
            epoch: self.epoch,
            config: cfg,
            agents: self.trainer.agent_states(),
            master_rng: self.trainer.master_rng_state(),
            env_rng: None,
            env_steps: self.trainer.env_steps(),
            samples_since_update: self.trainer.samples_since_update(),
            replay_len: self.trainer.replay_len(),
            episodes: cfg.episodes.saturating_sub(self.trainer.episodes_done()),
            lockstep: true,
            steps_per_frame: 1,
        }))
    }

    fn welcome_free(&self, worker_id: u32, resume: bool) -> Msg {
        let cfg = *self.trainer.config();
        let remaining = cfg.episodes.saturating_sub(self.episodes_recorded).max(1);
        let snap = resume.then(|| self.snapshots.get(&worker_id)).flatten();
        Msg::Welcome(Box::new(Welcome {
            worker_id,
            epoch: self.epoch,
            config: cfg,
            agents: self.trainer.agent_states(),
            master_rng: snap
                .map(|s| s.master_rng)
                .unwrap_or_else(|| worker_noise_state(cfg.seed, worker_id)),
            // A fresh worker derives its own sharded env stream from its
            // id; a resumed one restarts at its last episode boundary.
            env_rng: snap.map(|s| s.env_rng),
            env_steps: snap.map(|s| s.env_steps).unwrap_or(0),
            samples_since_update: snap.map(|s| s.samples_since_update).unwrap_or(0),
            replay_len: self.trainer.replay_len(),
            episodes: remaining,
            lockstep: false,
            steps_per_frame: self.opts.steps_per_frame,
        }))
    }

    fn record_episode_end(&mut self, e: &crate::wire::EpisodeEnd) {
        self.trainer.record_episode_reward(e.mean_reward);
        self.episodes_recorded += 1;
        self.snapshots.insert(
            e.worker_id,
            WorkerSnapshot {
                master_rng: e.master_rng,
                env_rng: e.env_rng,
                env_steps: e.env_steps,
                samples_since_update: e.samples_since_update,
            },
        );
    }

    /// Serves exactly one lockstep worker over a deterministic in-order
    /// transport until it says goodbye. Update digests are bitwise
    /// identical to the single-process trainer at this configuration.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, training errors, and
    /// [`DistError::Timeout`] when the worker goes silent past the
    /// supervisor's dead deadline.
    pub fn serve_lockstep(&mut self, transport: &mut dyn Transport) -> Result<(), DistError> {
        // Admission.
        let deadline = Instant::now() + Duration::from_secs(30);
        let worker_id = loop {
            match transport.recv_timeout(self.opts.recv_timeout) {
                Ok(Msg::Hello(h)) => break h.worker_id,
                Ok(other) => {
                    return Err(DistError::Protocol(format!(
                        "expected hello, got {}",
                        other.label()
                    )));
                }
                Err(DistError::Timeout { .. }) if Instant::now() < deadline => continue,
                Err(e) => return Err(e),
            }
        };
        self.supervisor.admit(worker_id, Instant::now());
        transport.send(&self.welcome_lockstep(worker_id))?;

        loop {
            let now = Instant::now();
            self.publish_gauges(transport.pending(), now);
            match transport.recv_timeout(self.opts.recv_timeout) {
                Ok(msg) => {
                    self.supervisor.observe(worker_id, Instant::now());
                    match msg {
                        Msg::Steps(s) => {
                            self.ingest(&s)?;
                            if s.sync {
                                let state = s.rng.ok_or_else(|| {
                                    DistError::Protocol(
                                        "sync steps frame carries no RNG state".into(),
                                    )
                                })?;
                                self.trainer.set_master_rng_state(state);
                                if !self.trainer.maybe_update()? {
                                    return Err(DistError::Protocol(
                                        "worker flagged an update boundary the learner \
                                         does not see (counter mirror diverged)"
                                            .into(),
                                    ));
                                }
                                self.epoch += 1;
                                self.supervisor.observe_epoch(worker_id, self.epoch);
                                let reply = self.params_msg(true);
                                transport.send(&reply)?;
                            }
                        }
                        Msg::EpisodeEnd(e) => self.record_episode_end(&e),
                        Msg::Heartbeat(h) => {
                            // Best-effort, as in the free-running loop: a
                            // worker that outpaced us (no updates to wait
                            // on) may have said goodbye and gone while its
                            // heartbeats were still queued here; failing
                            // the ack would lose the queued `Bye`.
                            let ack = self.ack_msg(&h);
                            let _ = transport.send(&ack);
                        }
                        Msg::Bye(_) => return Ok(()),
                        other => {
                            return Err(DistError::Protocol(format!(
                                "unexpected {} from lockstep worker",
                                other.label()
                            )));
                        }
                    }
                }
                Err(e) if e.is_quarantine() => self.note_quarantine(Some(worker_id)),
                Err(DistError::Timeout { .. }) => {
                    let transitions = self.supervisor.tick(Instant::now());
                    if transitions.iter().any(|t| t.to == Liveness::Dead) {
                        return Err(DistError::Timeout {
                            site: "lockstep-worker",
                            after_ms: self.opts.supervisor.dead_after.as_millis() as u64,
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves N free-running workers until the configured episode count
    /// is reached. `initial` seeds the connection set; `acceptor`
    /// contributes reconnecting/new workers; `restarts` (when given) is
    /// asked to restart workers the supervisor declares dead. The learner
    /// keeps training as long as any stream delivers frames; corrupt and
    /// stale frames are quarantined, never ingested.
    ///
    /// # Errors
    ///
    /// Training errors, fatal listener failures, and
    /// [`DistError::Timeout`] when no episode completes for
    /// [`LearnerOptions::stall_timeout`].
    pub fn serve_free(
        &mut self,
        initial: Vec<Box<dyn Transport>>,
        acceptor: &mut dyn Acceptor,
        mut restarts: Option<&mut dyn RestartHandler>,
    ) -> Result<(), DistError> {
        let target = self.trainer.config().episodes;
        let mut conns: Vec<Conn> =
            initial.into_iter().map(|t| Conn { transport: t, worker_id: None }).collect();
        let mut last_progress = Instant::now();

        while self.episodes_recorded < target {
            if let Some(t) = acceptor.try_accept()? {
                conns.push(Conn { transport: t, worker_id: None });
            }

            let mut closed: Vec<usize> = Vec::new();
            let mut pending_total = 0usize;
            let mut broadcast_due = false;
            for (i, conn) in conns.iter_mut().enumerate() {
                pending_total += conn.transport.pending();
                match conn.transport.recv_timeout(self.opts.recv_timeout) {
                    Ok(Msg::Hello(h)) => {
                        let known = self.supervisor.worker(h.worker_id).is_some();
                        self.supervisor.admit(h.worker_id, Instant::now());
                        conn.worker_id = Some(h.worker_id);
                        // Any re-admission of a known id is a reconnect —
                        // whether the worker survived and retried
                        // (`resume: true`) or a respawned replacement
                        // introduced itself; this matches
                        // `Supervisor::total_reconnects`.
                        if known {
                            if let Some(m) = self.metrics() {
                                m.dist_reconnects.inc();
                            }
                        }
                        let welcome = self.welcome_free(h.worker_id, h.resume);
                        if conn.transport.send(&welcome).is_err() {
                            // Died mid-handshake; supervision will notice
                            // the silence and restart it.
                            closed.push(i);
                        }
                    }
                    Ok(Msg::Steps(s)) => {
                        self.supervisor.observe(s.worker_id, Instant::now());
                        self.supervisor.observe_epoch(s.worker_id, s.epoch);
                        if let Some(handler) = restarts.as_deref_mut() {
                            handler.on_steps_frame(s.worker_id);
                        }
                        if self.supervisor.check_epoch(s.epoch, self.epoch).is_err() {
                            // Stale parameters: drop the frame, refresh the
                            // worker instead of training on ancient actions.
                            self.note_quarantine(Some(s.worker_id));
                            let refresh = self.params_msg(false);
                            let _ = conn.transport.send(&refresh);
                            continue;
                        }
                        self.ingest(&s)?;
                        while self.trainer.maybe_update()? {
                            self.epoch += 1;
                            if self.epoch.is_multiple_of(self.opts.params_every_updates.max(1)) {
                                broadcast_due = true;
                            }
                        }
                    }
                    Ok(Msg::Heartbeat(h)) => {
                        self.supervisor.observe(h.worker_id, Instant::now());
                        let ack = self.ack_msg(&h);
                        let _ = conn.transport.send(&ack);
                    }
                    Ok(Msg::EpisodeEnd(e)) => {
                        self.supervisor.observe(e.worker_id, Instant::now());
                        self.record_episode_end(&e);
                        last_progress = Instant::now();
                    }
                    Ok(Msg::Bye(b)) => {
                        self.supervisor.observe(b.worker_id, Instant::now());
                        closed.push(i);
                    }
                    Ok(other) => {
                        return Err(DistError::Protocol(format!(
                            "unexpected {} from worker connection",
                            other.label()
                        )));
                    }
                    Err(e) if e.is_quarantine() => self.note_quarantine(conn.worker_id),
                    Err(DistError::Timeout { .. }) => {}
                    Err(_) => closed.push(i),
                }
            }
            for &i in closed.iter().rev() {
                conns.remove(i);
            }
            if broadcast_due {
                // Fleet-wide: every worker gets the new parameters, not
                // just the one whose frame triggered the update —
                // otherwise the others go chronically stale and their
                // frames end up quarantined.
                let broadcast = self.params_msg(false);
                for conn in conns.iter_mut() {
                    if conn.worker_id.is_some() {
                        let _ = conn.transport.send(&broadcast);
                    }
                }
            }

            let now = Instant::now();
            for t in self.supervisor.tick(now) {
                if t.to == Liveness::Dead {
                    if let Some(handler) = restarts.as_deref_mut() {
                        if handler.restart(t.worker_id) {
                            self.supervisor.record_restart(t.worker_id);
                            if let Some(m) = self.metrics() {
                                m.dist_worker_restarts.inc();
                            }
                        }
                    }
                }
            }
            self.publish_gauges(pending_total, now);

            if now.saturating_duration_since(last_progress) > self.opts.stall_timeout {
                return Err(DistError::Timeout {
                    site: "serve-free-stall",
                    after_ms: self.opts.stall_timeout.as_millis() as u64,
                });
            }
        }

        // Target reached: wave the fleet off.
        for conn in conns.iter_mut() {
            let _ = conn.transport.send(&Msg::Bye(Bye {
                worker_id: conn.worker_id.unwrap_or(u32::MAX),
                reason: "target-episodes-reached".into(),
            }));
        }
        Ok(())
    }
}
