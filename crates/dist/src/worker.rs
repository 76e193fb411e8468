//! The rollout worker: owns an environment and actor networks, streams
//! transition batches to the learner, and receives parameter broadcasts.
//!
//! Episodes run through the trainer's own rollout loop
//! ([`marl_algo::rollout::Rollout`]) at one world: there is no second
//! copy of action selection or env stepping to keep in step.
//!
//! A worker holds one network per agent, its live actor: the `Welcome`
//! carries those and the RNG states, and each `Params` broadcast
//! overwrites them in place.
//!
//! In **lockstep** mode (worker 0 over the deterministic loopback) the
//! worker reproduces the single-process run draw-for-draw: it installs
//! the learner's actors and master-RNG state, steps the same K = 1
//! `Rollout` the trainer steps, mirrors the learner's replay fill and
//! `samples_since_update` counter to predict update boundaries,
//! and at each boundary hands its master-RNG state to the learner (whose
//! sampling-plan draws continue the same interleaved stream) and blocks
//! for the post-update state coming back. The resulting update digests
//! are bitwise identical to a single-process run (test-enforced).
//!
//! In **free-running** mode (worker id > 0, or `lockstep: false`) the
//! worker explores from its own derived stream (stream 5, sub-stream
//! `worker_id`) and a sharded env stream, flushes every
//! `steps_per_frame` steps without blocking, and opportunistically
//! installs parameter broadcasts — classic asynchronous actor–learner.

use crate::backoff::Backoff;
use crate::error::DistError;
use crate::transport::Transport;
use crate::wire::{
    Bye, EpisodeEnd, Heartbeat, HeartbeatAck, Hello, Msg, Params, StepRows, Steps, Welcome,
};
use marl_algo::config::TrainConfig;
use marl_algo::rollout::Rollout;
use marl_env::spaces::ActionSpace;
use marl_nn::activation::Activation;
use marl_nn::init::Init;
use marl_nn::mlp::Mlp;
use marl_nn::rng::derive_seed;
use marl_obs::clock::{self, ClockOffset};
use marl_obs::context::{span_id, TraceCtx};
use marl_obs::span::FlowDir;
use marl_obs::telemetry::Telemetry;
use marl_perf::phase::{Phase, PhaseProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derived-stream index of free-running worker exploration noise
/// (disjoint from master=1, update=2, vec-rollout=3, extra-world env=4).
pub const WORKER_NOISE_STREAM: u64 = 5;
/// Env sub-stream offset stride per worker: worker `w` seeds its env
/// from stream 4, sub-streams starting at `w << 32` — disjoint from the
/// in-process vectorized worlds, which use small sub-stream indices.
pub const WORKER_ENV_STRIDE: u64 = 1 << 32;

/// Env steps between heartbeat beacons.
const HEARTBEAT_EVERY_STEPS: u64 = 16;

/// The RNG state a fresh free-running worker explores from.
pub fn worker_noise_state(seed: u64, worker_id: u32) -> [u64; 4] {
    StdRng::seed_from_u64(derive_seed(derive_seed(seed, WORKER_NOISE_STREAM), worker_id as u64))
        .state()
}

/// The env RNG state a fresh free-running worker rolls out from.
fn worker_env_state(seed: u64, worker_id: u32) -> [u64; 4] {
    StdRng::seed_from_u64(derive_seed(derive_seed(seed, 4), WORKER_ENV_STRIDE * worker_id as u64))
        .state()
}

/// Why [`Worker::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The episode budget from the `Welcome` was completed.
    EpisodesDone,
    /// The learner said goodbye mid-run.
    LearnerBye,
}

/// A rollout worker bound to one admitted connection.
#[derive(Debug)]
pub struct Worker {
    id: u32,
    config: TrainConfig,
    /// One world (the worker ignores `num_envs`), stepped by the
    /// trainer's own rollout loop.
    rollout: Rollout,
    /// Each agent's live actor, in agent order.
    actors: Vec<Mlp>,
    rng: StdRng,
    epoch: u64,
    env_steps: u64,
    samples_since_update: usize,
    /// Mirror of the learner's replay fill (lockstep update prediction).
    replay_len: usize,
    episodes: usize,
    episodes_done: usize,
    lockstep: bool,
    steps_per_frame: usize,
    seq: u64,
    hb_seq: u64,
    /// Joint steps not yet flushed; one buffer, reused across frames.
    pending: StepRows,
    /// Attached telemetry: when present, outbound frames carry trace
    /// contexts, sends record flow spans, and heartbeat acks feed the
    /// clock-offset estimator.
    obs: Option<Arc<Telemetry>>,
    /// Learner-relative clock offset estimated from heartbeat round
    /// trips (offset = learner time − worker time).
    clock: ClockOffset,
    /// Fleet-shared trace id (the run seed).
    trace_id: u64,
    /// Monotone counter feeding [`span_id`] for stamped frames.
    ctx_seq: u64,
    /// Action-selection, environment-step and bookkeeping time of this
    /// admission, charged on the process clock as the trainer's episode
    /// loop charges them.
    profile: PhaseProfile,
}

impl Worker {
    /// Performs the admission handshake on `transport`: sends `Hello`,
    /// blocks for the `Welcome`, and builds the worker from it.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`DistError::Protocol`] if the learner
    /// answers with anything but a `Welcome` for this worker.
    pub fn handshake(
        transport: &mut dyn Transport,
        worker_id: u32,
        resume: bool,
    ) -> Result<Self, DistError> {
        transport.send(&Msg::Hello(Hello { worker_id, resume }))?;
        match transport.recv_timeout(Duration::from_secs(30))? {
            Msg::Welcome(w) if w.worker_id == worker_id => Worker::from_welcome(*w),
            Msg::Welcome(w) => Err(DistError::Protocol(format!(
                "welcome addressed to worker {} but this is worker {worker_id}",
                w.worker_id
            ))),
            other => Err(DistError::Protocol(format!("expected welcome, got {}", other.label()))),
        }
    }

    /// Builds a worker from an admission message: the environment from
    /// its configuration, one actor per agent of the trainer's actor
    /// architecture holding the `Welcome`'s parameters, and the carried
    /// RNG states and counters.
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] when the configuration does not validate
    /// or the carried actors do not fit the architecture.
    pub fn from_welcome(w: Welcome) -> Result<Self, DistError> {
        let config = w.config;
        config
            .validate()
            .map_err(|e| DistError::Protocol(format!("welcome config invalid: {e}")))?;
        let mut rollout = Rollout::new(&config, 1);
        let env = rollout.env();
        let obs_dims: Vec<usize> = env.observation_spaces().iter().map(|s| s.dim).collect();
        let act_dims: Vec<usize> = env.action_spaces().iter().map(ActionSpace::flat_dim).collect();
        let mut rng = StdRng::from_state(w.master_rng);
        // `Mlp::two_layer_relu`'s widths; zero weights draw nothing.
        let mut actors: Vec<Mlp> = obs_dims
            .iter()
            .zip(&act_dims)
            .map(|(&od, &ad)| Mlp::new(&[od, 64, 64, ad], Activation::Relu, Init::Zeros, &mut rng))
            .collect();
        w.actors.install(&mut actors)?;
        match w.env_rng {
            Some(state) => rollout.set_env_rng_states(&[state]),
            // Fresh free-running workers shard the env stream; worker 0
            // keeps its construction stream (== the single-process world 0).
            None if w.worker_id > 0 => {
                rollout.set_env_rng_states(&[worker_env_state(config.seed, w.worker_id)]);
            }
            None => {}
        }
        let trace_id = config.seed;
        Ok(Worker {
            id: w.worker_id,
            config,
            rollout,
            actors,
            rng,
            epoch: w.epoch,
            env_steps: w.env_steps,
            samples_since_update: w.samples_since_update,
            replay_len: w.replay_len,
            episodes: w.episodes,
            episodes_done: 0,
            lockstep: w.lockstep,
            steps_per_frame: w.steps_per_frame.max(1),
            seq: 0,
            hb_seq: 0,
            pending: StepRows::new(obs_dims.into_iter().zip(act_dims)),
            obs: None,
            clock: ClockOffset::default(),
            trace_id,
            ctx_seq: 0,
            profile: PhaseProfile::new(),
        })
    }

    /// Attaches telemetry: outbound frames are stamped with trace
    /// contexts, sends record flow-origin spans, and heartbeat acks feed
    /// the clock-offset estimator and the `heartbeat_rtt_us` histogram.
    pub fn with_telemetry(mut self, obs: Arc<Telemetry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The learner-relative clock offset estimated from heartbeat acks
    /// (all zeros until the first ack arrives).
    pub fn clock_offset(&self) -> ClockOffset {
        self.clock
    }

    /// Stamps the next outbound frame's trace context (telemetry only).
    fn next_ctx(&mut self) -> Option<TraceCtx> {
        self.obs.as_ref()?;
        self.ctx_seq += 1;
        Some(TraceCtx {
            trace_id: self.trace_id,
            span_id: span_id(self.id, self.ctx_seq),
            send_ns: clock::now_ns(),
        })
    }

    /// Records the flow-origin span of a stamped send.
    fn record_flow_out(&self, label: &'static str, ctx: Option<TraceCtx>) {
        if let (Some(t), Some(c)) = (self.obs.as_ref(), ctx) {
            t.tracer.record_flow(label, 0, c.send_ns, clock::now_ns(), c.span_id, FlowDir::Out);
        }
    }

    /// Folds a heartbeat ack into the clock-offset estimate and the RTT
    /// histogram. Acks echo the worker's own tracer timestamp, so
    /// without telemetry there is nothing meaningful to fold.
    fn on_ack(&mut self, ack: HeartbeatAck) {
        // recv_ns == 0 means the learner has no telemetry clock attached;
        // there is no offset to estimate against.
        if ack.worker_id != self.id || ack.recv_ns == 0 {
            return;
        }
        if let Some(t) = self.obs.as_ref() {
            let sample = self.clock.observe(ack.send_ns, ack.recv_ns, clock::now_ns());
            t.metrics.heartbeat_rtt_us.record(sample.rtt_ns / 1_000);
        }
    }

    /// Records the flow-destination marker of an installed parameter
    /// broadcast (pairs with the learner's `params-send` origin).
    fn note_params_ctx(&self, ctx: Option<TraceCtx>) {
        if let (Some(t), Some(c)) = (self.obs.as_ref(), ctx) {
            let now = clock::now_ns();
            t.tracer.record_flow("params-recv", 0, now, now, c.span_id, FlowDir::In);
        }
    }

    /// This worker's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Environment steps taken so far.
    pub fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Episodes completed under this admission.
    pub fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Phase timings of this admission's rollout steps.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Runs the admitted episode budget, streaming steps to the learner.
    ///
    /// # Errors
    ///
    /// Transport failures ([`DistError::is_reconnect`] ones are retried
    /// by [`run_worker`]) and protocol violations.
    pub fn run(&mut self, transport: &mut dyn Transport) -> Result<RunOutcome, DistError> {
        // Free-running over a splittable transport: a dedicated reader
        // thread keeps the learner→worker direction drained at all
        // times, so the learner's (large, blocking) parameter broadcasts
        // always complete and a fleet of blocking sockets cannot
        // deadlock with every side stuck in `send`. Lockstep stays
        // inline — a reader thread would steal the deterministic
        // post-update `Params` handoff.
        let control = if self.lockstep { None } else { transport.split_recv().map(spawn_reader) };
        while self.episodes_done < self.episodes {
            match self.run_one_episode(transport, control.as_ref()) {
                Ok(true) => {
                    // Courtesy reply; the learner may already be gone.
                    let _ = transport
                        .send(&Msg::Bye(Bye { worker_id: self.id, reason: "learner-bye".into() }));
                    return Ok(RunOutcome::LearnerBye);
                }
                Ok(false) => {}
                Err(e) => {
                    // A send racing the learner's shutdown dies with a
                    // broken pipe even though the goodbye was delivered:
                    // the learner waves `Bye` and exits, and the next
                    // heartbeat or flush hits the closed socket before
                    // the control channel is consulted. If the goodbye
                    // is (or promptly arrives) in the control channel,
                    // this is a clean wave-off, not a failure to retry.
                    if let Some(rx) = control.as_ref() {
                        let deadline = Instant::now() + Duration::from_millis(250);
                        loop {
                            match rx.recv_timeout(Duration::from_millis(25)) {
                                Ok(Msg::Bye(_)) => return Ok(RunOutcome::LearnerBye),
                                Ok(_) => continue,
                                Err(_) if Instant::now() < deadline => continue,
                                Err(_) => break,
                            }
                        }
                    }
                    return Err(e);
                }
            }
            self.episodes_done += 1;
        }
        let _ = transport
            .send(&Msg::Bye(Bye { worker_id: self.id, reason: "episodes-complete".into() }));
        Ok(RunOutcome::EpisodesDone)
    }

    /// Runs one episode; returns `true` when the learner said goodbye.
    fn run_one_episode(
        &mut self,
        transport: &mut dyn Transport,
        control: Option<&mpsc::Receiver<Msg>>,
    ) -> Result<bool, DistError> {
        self.rollout.reset();
        let mut stop = false;
        loop {
            // --- One rollout step (the trainer's loop at K = 1) ---
            let t0 = clock::now_ns();
            let (temperature, epsilon) = self.config.exploration.at(self.env_steps);
            self.rollout.select_actions(&self.actors, temperature, epsilon, &mut self.rng);
            let t1 = clock::now_ns();
            self.profile.add(Phase::ActionSelection, Duration::from_nanos(t1 - t0));
            let done = self
                .rollout
                .step()
                .map_err(|e| DistError::Protocol(format!("environment step failed: {e}")))?;
            let t2 = clock::now_ns();
            self.profile.add(Phase::EnvironmentStep, Duration::from_nanos(t2 - t1));
            self.env_steps += 1;
            self.pending.push_step(|i| self.rollout.transition(0, i));
            self.rollout.advance();
            self.replay_len = (self.replay_len + 1).min(self.config.buffer_capacity);
            self.samples_since_update += 1;
            self.profile.add(Phase::Bookkeeping, Duration::from_nanos(clock::now_ns() - t2));

            if self.env_steps.is_multiple_of(HEARTBEAT_EVERY_STEPS) {
                self.hb_seq += 1;
                // `send_ns` is this worker's process clock; the learner's
                // ack echoes it so the round trip prices the clock offset.
                let send_ns = self.obs.as_ref().map_or(0, |_| clock::now_ns());
                transport.send(&Msg::Heartbeat(Heartbeat {
                    worker_id: self.id,
                    seq: self.hb_seq,
                    env_steps: self.env_steps,
                    send_ns,
                }))?;
            }

            // --- Update boundary (mirrors the trigger after every push) ---
            if self.lockstep
                && self.replay_len >= self.config.warmup
                && self.samples_since_update >= self.config.update_every
            {
                self.samples_since_update = 0;
                self.flush(transport, true)?;
                if self.await_params(transport)? {
                    stop = true;
                }
            } else if !self.lockstep && self.pending.len() >= self.steps_per_frame {
                // Drain before writing: over transports without a reader
                // thread (loopback) the learner may be mid-send of a
                // parameter broadcast, and both sides blocking on full
                // buffers would deadlock the whole fleet.
                if self.drain_control(transport, control)? {
                    stop = true;
                } else {
                    self.flush(transport, false)?;
                }
            }

            if done || stop {
                break;
            }
        }
        if stop {
            // The learner waved us off; nothing further will be recorded.
            return Ok(true);
        }
        // Boundary flush so the learner's replay matches this worker's
        // mirror before the episode-end snapshot is recorded.
        if !self.pending.is_empty() {
            if self.drain_control(transport, control)? {
                return Ok(true);
            }
            self.flush(transport, false)?;
        }
        // One world: its mean-over-agents return.
        let mean_reward = self.rollout.world_returns().sum::<f32>();
        let ctx = self.next_ctx();
        transport.send(&Msg::EpisodeEnd(EpisodeEnd {
            worker_id: self.id,
            mean_reward,
            master_rng: self.rng.state(),
            env_rng: self.rollout.env_rng_states()[0],
            env_steps: self.env_steps,
            samples_since_update: self.samples_since_update,
            ctx,
        }))?;
        Ok(stop)
    }

    /// Sends all pending joint steps as one `Steps` frame.
    fn flush(&mut self, transport: &mut dyn Transport, sync: bool) -> Result<(), DistError> {
        self.seq += 1;
        let ctx = self.next_ctx();
        let msg = Msg::Steps(Steps {
            worker_id: self.id,
            epoch: self.epoch,
            seq: self.seq,
            rows: std::mem::take(&mut self.pending),
            rng: sync.then(|| self.rng.state()),
            sync,
            ctx,
        });
        let sent = transport.send(&msg);
        // The frame only borrowed the row buffer: take it back emptied,
        // so the next steps land in the capacity it already has.
        if let Msg::Steps(s) = msg {
            self.pending = s.rows;
            self.pending.clear();
        }
        sent?;
        self.record_flow_out("steps-send", ctx);
        Ok(())
    }

    /// Blocks for the post-update `Params` of a sync flush. Returns
    /// `true` if the learner said goodbye instead.
    fn await_params(&mut self, transport: &mut dyn Transport) -> Result<bool, DistError> {
        let per_wait = Duration::from_secs(5);
        let mut timeouts = 0;
        while timeouts < 12 {
            match transport.recv_timeout(per_wait) {
                Ok(Msg::Params(p)) => {
                    self.install_params(&p)?;
                    return Ok(false);
                }
                // Heartbeat acks interleave freely with the handoff.
                Ok(Msg::HeartbeatAck(a)) => self.on_ack(a),
                Ok(Msg::Bye(_)) => return Ok(true),
                Ok(other) => {
                    return Err(DistError::Protocol(format!(
                        "expected params after sync flush, got {}",
                        other.label()
                    )));
                }
                Err(DistError::Timeout { .. }) => timeouts += 1,
                Err(e) => return Err(e),
            }
        }
        Err(DistError::Timeout { site: "await-params", after_ms: 60_000 })
    }

    /// Non-blocking drain of learner→worker control traffic (parameter
    /// broadcasts, goodbyes). Reads from the reader thread's channel
    /// when one is attached, else polls the transport inline. Returns
    /// `true` on a goodbye.
    fn drain_control(
        &mut self,
        transport: &mut dyn Transport,
        control: Option<&mpsc::Receiver<Msg>>,
    ) -> Result<bool, DistError> {
        if let Some(rx) = control {
            loop {
                match rx.try_recv() {
                    Ok(msg) => {
                        if self.handle_control(msg)? {
                            return Ok(true);
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => return Ok(false),
                    Err(mpsc::TryRecvError::Disconnected) => return Err(DistError::Disconnected),
                }
            }
        }
        loop {
            match transport.recv_timeout(Duration::ZERO) {
                Ok(msg) => {
                    if self.handle_control(msg)? {
                        return Ok(true);
                    }
                }
                Err(DistError::Timeout { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    /// Applies one control message; returns `true` on a goodbye.
    fn handle_control(&mut self, msg: Msg) -> Result<bool, DistError> {
        match msg {
            Msg::Params(p) => {
                self.install_params(&p)?;
                Ok(false)
            }
            Msg::HeartbeatAck(a) => {
                self.on_ack(a);
                Ok(false)
            }
            Msg::Bye(_) => Ok(true),
            other => {
                Err(DistError::Protocol(format!("unexpected control message {}", other.label())))
            }
        }
    }

    /// Applies one parameter broadcast: the live actors are overwritten
    /// in place (no allocation), then the epoch and — in lockstep — the
    /// master-RNG handoff are taken.
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] when the broadcast does not fit the
    /// worker's actors (count, depth or a layer shape); nothing is
    /// written in that case.
    fn install_params(&mut self, p: &Params) -> Result<(), DistError> {
        p.actors.install(&mut self.actors)?;
        self.epoch = p.epoch;
        if let Some(state) = p.master_rng {
            self.rng = StdRng::from_state(state);
        }
        self.note_params_ctx(p.ctx);
        Ok(())
    }
}

/// Spawns the control-reader thread over a split receive handle. The
/// thread drains learner→worker frames continuously and forwards them
/// over a channel; it exits when the connection dies or the worker
/// drops the channel.
fn spawn_reader(mut t: Box<dyn Transport>) -> mpsc::Receiver<Msg> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        match t.recv_timeout(Duration::from_millis(200)) {
            Ok(msg) => {
                if tx.send(msg).is_err() {
                    return;
                }
            }
            Err(DistError::Timeout { .. }) => {}
            Err(_) => return,
        }
    });
    rx
}

/// Drives a worker across connection failures: connect, handshake, run,
/// and on any reconnectable error ([`DistError::is_reconnect`]) retry
/// with `backoff` — re-introducing itself with `resume: true` so the
/// learner re-admits it from its last recorded episode boundary. Gives
/// up after `max_attempts` consecutive failed attempts.
///
/// # Errors
///
/// The last reconnectable error once the attempt budget is exhausted,
/// or the first non-reconnectable error immediately.
pub fn run_worker<F>(
    worker_id: u32,
    connect: F,
    backoff: &mut Backoff,
    max_attempts: u32,
) -> Result<RunOutcome, DistError>
where
    F: FnMut() -> Result<Box<dyn Transport>, DistError>,
{
    run_worker_from(worker_id, connect, backoff, max_attempts, false)
}

/// [`run_worker`] with an explicit initial `resume` flag: a supervised
/// replacement process (respawned after a SIGKILL) introduces itself
/// with `resume: true` on its *first* attempt, so the learner re-admits
/// it from the last episode-boundary snapshot it recorded for that id.
///
/// # Errors
///
/// As [`run_worker`].
pub fn run_worker_from<F>(
    worker_id: u32,
    connect: F,
    backoff: &mut Backoff,
    max_attempts: u32,
    initial_resume: bool,
) -> Result<RunOutcome, DistError>
where
    F: FnMut() -> Result<Box<dyn Transport>, DistError>,
{
    run_worker_traced(worker_id, connect, backoff, max_attempts, initial_resume, None).1
}

/// What a traced worker run produced, for the process summary the fleet
/// orchestrator collects.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// RTT-estimated learner-minus-worker clock offset (ns); 0 when no
    /// acknowledged heartbeats were observed.
    pub clock_offset_ns: i64,
    /// EWMA-smoothed round-trip time behind the offset estimate (ns).
    pub clock_rtt_ns: u64,
    /// Heartbeat round trips feeding the estimate.
    pub clock_samples: u64,
    /// Environment steps executed (resumes continue the count from the
    /// learner's snapshot).
    pub env_steps: u64,
    /// Episodes completed by the final admission.
    pub episodes_done: u64,
    /// Rollout phase timings summed over every admission.
    pub profile: PhaseProfile,
}

/// [`run_worker_from`] with telemetry attached to every (re)admitted
/// worker: frames carry trace contexts and the learner-relative clock
/// offset is estimated from heartbeat acks. The stats of the last
/// admission come back alongside the outcome — even a failed run
/// (e.g. the learner reached its target and vanished mid-episode)
/// reports the clock and progress it measured, so the process summary
/// stays truthful for every exit path.
pub fn run_worker_traced<F>(
    worker_id: u32,
    mut connect: F,
    backoff: &mut Backoff,
    max_attempts: u32,
    initial_resume: bool,
    obs: Option<Arc<Telemetry>>,
) -> (WorkerStats, Result<RunOutcome, DistError>)
where
    F: FnMut() -> Result<Box<dyn Transport>, DistError>,
{
    let mut resume = initial_resume;
    let mut last_err = DistError::Disconnected;
    let mut stats = WorkerStats::default();
    let mut profile = PhaseProfile::new();
    while backoff.attempt() < max_attempts {
        let mut transport = match connect() {
            Ok(t) => t,
            Err(e) if e.is_reconnect() => {
                last_err = e;
                std::thread::sleep(backoff.next_delay());
                continue;
            }
            Err(e) => return (stats, Err(e)),
        };
        match Worker::handshake(&mut *transport, worker_id, resume) {
            Ok(mut worker) => {
                backoff.reset();
                resume = true;
                if let Some(t) = obs.clone() {
                    worker = worker.with_telemetry(t);
                }
                let run = worker.run(&mut *transport);
                let clock = worker.clock_offset();
                profile.merge(worker.profile());
                stats = WorkerStats {
                    clock_offset_ns: clock.offset_ns(),
                    clock_rtt_ns: clock.rtt_ns(),
                    clock_samples: clock.samples(),
                    env_steps: worker.env_steps(),
                    episodes_done: worker.episodes_done() as u64,
                    profile: profile.clone(),
                };
                match run {
                    Ok(outcome) => return (stats, Ok(outcome)),
                    Err(e) if e.is_reconnect() => {
                        last_err = e;
                        std::thread::sleep(backoff.next_delay());
                    }
                    Err(e) => return (stats, Err(e)),
                }
            }
            Err(e) if e.is_reconnect() => {
                last_err = e;
                std::thread::sleep(backoff.next_delay());
            }
            Err(e) => return (stats, Err(e)),
        }
    }
    (stats, Err(last_err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::{Learner, LearnerOptions};
    use crate::transport::loopback_pair;
    use marl_algo::{Algorithm, Task};

    #[test]
    fn one_episode_charges_action_selection_and_environment_step() {
        let cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
            .with_batch_size(32)
            .with_buffer_capacity(1024)
            .with_episodes(1);
        let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner");
        let (mut learner_end, mut worker_end) = loopback_pair(1024, Duration::from_secs(10));
        let worker = std::thread::spawn(move || {
            let mut worker = Worker::handshake(&mut worker_end, 0, false).expect("admitted");
            worker.run(&mut worker_end).expect("runs");
            worker
        });
        learner.serve_lockstep(&mut learner_end).expect("lockstep serves");
        let worker = worker.join().expect("worker thread");
        assert_eq!(worker.episodes_done(), 1);
        let profile = worker.profile();
        assert!(profile.get(Phase::ActionSelection) > Duration::ZERO);
        assert!(profile.get(Phase::EnvironmentStep) > Duration::ZERO);
    }
}
