//! The CTDE training loop with phase instrumentation.
//!
//! The loop follows the paper's Figure 1: *action selection* (actor
//! forwards + Gumbel sampling), environment execution, replay pushes, and
//! — every `update_every` pushed samples — *update all trainers*, which
//! decomposes into mini-batch sampling, target-Q calculation, and
//! Q-loss/P-loss backpropagation, followed by target soft updates.

use crate::agent::AgentNets;
use crate::checkpoint::{write_checkpoint_file, Checkpoint, RunState};
use crate::config::{Algorithm, TrainConfig};
use crate::error::TrainError;
use crate::eval::RewardCurve;
use crate::rollout::Rollout;
use crate::update::UpdateScratch;
use marl_core::multi::MultiAgentReplay;
use marl_core::sampler::Sampler;
use marl_core::transition::{TransitionLayout, TransitionRef};
use marl_obs::{KernelTally, SnapshotContext, Telemetry};
use marl_perf::phase::{Phase, PhaseProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate statistics of the mini-batch sampling phase over a run —
/// the measured counterpart of the paper's access-pattern analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingTelemetry {
    /// Plans drawn (one per agent trainer per update iteration).
    pub plans: u64,
    /// Rows gathered across all agents' buffers.
    pub rows_gathered: u64,
    /// Bytes gathered across all agents' buffers.
    pub bytes_gathered: u64,
    /// Random jumps (plan segments) — the prefetcher-hostile events.
    pub random_jumps: u64,
    /// Full cross-agent target-action computations. The staged pipeline
    /// performs exactly one per plan; a per-trainer recomputation scheme
    /// would need N per plan.
    pub target_action_passes: u64,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The configuration trained.
    pub config: TrainConfig,
    /// Accumulated phase timings.
    pub profile: PhaseProfile,
    /// Per-episode mean rewards.
    pub curve: RewardCurve,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
    /// Environment steps executed.
    pub env_steps: u64,
    /// Update-all-trainers iterations performed.
    pub update_iterations: u64,
    /// Sampling-phase access statistics.
    pub sampling: SamplingTelemetry,
}

/// A full MADDPG/MATD3 trainer over a particle environment.
///
/// # Examples
///
/// ```no_run
/// use marl_algo::config::{Algorithm, Task, TrainConfig};
/// use marl_algo::trainer::Trainer;
///
/// let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
///     .with_episodes(50);
/// let mut trainer = Trainer::new(config)?;
/// let report = trainer.train()?;
/// println!("sampling share: {:.1}%",
///          report.profile.fraction(marl_perf::phase::Phase::MiniBatchSampling) * 100.0);
/// # Ok::<(), marl_algo::error::TrainError>(())
/// ```
#[derive(Debug)]
pub struct Trainer {
    pub(crate) config: TrainConfig,
    /// The trainer's only environment: [`TrainConfig::num_envs`] worlds
    /// with their noise streams and step buffers.
    pub(crate) rollout: Rollout,
    pub(crate) agents: Vec<AgentNets>,
    /// The one replay store, under the address map `config.layout`.
    pub(crate) replay: MultiAgentReplay,
    pub(crate) sampler: Box<dyn Sampler>,
    pub(crate) rng: StdRng,
    pub(crate) profile: PhaseProfile,
    curve: RewardCurve,
    env_steps: u64,
    pub(crate) updates: u64,
    samples_since_update: usize,
    pub(crate) telemetry: SamplingTelemetry,
    pub(crate) scratch: UpdateScratch,
    /// Attached observability runtime ([`Trainer::attach_telemetry`]).
    /// Never checkpointed: telemetry is a property of the process, not
    /// of the training state.
    pub(crate) obs: Option<Arc<Telemetry>>,
    /// Attached conformance trace recorder
    /// ([`Trainer::attach_trace_recorder`]). Same observer contract as
    /// `obs`: zero-cost when detached, never checkpointed, never feeds
    /// back into training state.
    pub(crate) trace: Option<crate::trace::UpdateTraceRecorder>,
}

impl Trainer {
    /// Builds a trainer from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] for inconsistent settings.
    pub fn new(config: TrainConfig) -> Result<Self, TrainError> {
        config.validate().map_err(TrainError::InvalidConfig)?;
        // The scenario registry resolves the task by id: any registered
        // scenario (built-in or plugin) trains through the same loop.
        let rollout = Rollout::new(&config, config.num_envs());
        let env = rollout.env();
        // Action widths are Σ action-space segments: communication
        // actions make them heterogeneous (world-comm's leader carries
        // movement ⊕ broadcast, the other predators movement only).
        let layouts: Vec<TransitionLayout> = env
            .observation_spaces()
            .iter()
            .zip(env.action_spaces())
            .map(|(o, a)| TransitionLayout::new(o.dim, a.flat_dim()))
            .collect();
        let replay = MultiAgentReplay::with_mode(&layouts, config.buffer_capacity, config.layout);
        let joint_dim = replay.joint_layout().width();
        let mut rng = StdRng::seed_from_u64(marl_nn::rng::derive_seed(config.seed, 1));
        let (twin, lr) = (config.algorithm == Algorithm::Matd3, config.learning_rate);
        let agents = layouts
            .iter()
            .map(|l| AgentNets::new(l.obs_dim, l.act_dim, joint_dim, twin, lr, &mut rng))
            .collect();
        let sampler = config.sampler.build(config.buffer_capacity);
        let scratch = UpdateScratch::new(layouts.len(), config.update_threads);
        Ok(Trainer {
            config,
            rollout,
            agents,
            replay,
            sampler,
            rng,
            profile: PhaseProfile::new(),
            curve: RewardCurve::new(),
            env_steps: 0,
            updates: 0,
            samples_since_update: 0,
            telemetry: SamplingTelemetry::default(),
            scratch,
            obs: None,
            trace: None,
        })
    }

    /// Attaches an observability runtime. From the next step on, spans,
    /// metrics, and (when configured) hardware-counter windows are
    /// recorded, and episode boundaries drain the sinks. Telemetry only
    /// reads clocks and counters — it never touches RNG streams or
    /// update math, so training output is bitwise-identical with or
    /// without it.
    pub fn attach_telemetry(&mut self, tel: Arc<Telemetry>) {
        tel.name_agent_lanes(self.agents.len());
        self.obs = Some(tel);
    }

    /// Detaches the observability runtime; subsequent training records
    /// nothing. The returned handle (if any) can still be drained with
    /// [`Telemetry::finish`].
    pub fn detach_telemetry(&mut self) -> Option<Arc<Telemetry>> {
        self.obs.take()
    }

    /// The attached observability runtime, if any.
    pub fn telemetry_handle(&self) -> Option<&Arc<Telemetry>> {
        self.obs.as_ref()
    }

    /// Attaches a conformance trace recorder: every subsequent update
    /// iteration is folded into an [`crate::trace::UpdateDigest`]. Like
    /// telemetry, the recorder only *reads* update state — training is
    /// bitwise identical with or without it — and it is never
    /// checkpointed.
    pub fn attach_trace_recorder(&mut self, rec: crate::trace::UpdateTraceRecorder) {
        self.trace = Some(rec);
    }

    /// Detaches the trace recorder (if any), returning it with all
    /// digests recorded so far.
    pub fn detach_trace_recorder(&mut self) -> Option<crate::trace::UpdateTraceRecorder> {
        self.trace.take()
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Accumulated phase timings so far.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Rows currently stored in the replay buffers.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Update-all-trainers iterations performed so far.
    pub fn update_iterations(&self) -> u64 {
        self.updates
    }

    /// Environment steps executed so far (each step of each world counts
    /// once, so at `num_envs = K` one rollout iteration adds K).
    pub fn env_steps(&self) -> u64 {
        self.env_steps
    }

    /// Episodes completed so far (continues from the restored count after
    /// [`Trainer::restore_full`]).
    pub fn episodes_done(&self) -> usize {
        self.curve.len()
    }

    /// Read access to the replay store, under either address map
    /// (diagnostics/benches). Always `Some`.
    pub fn replay(&self) -> Option<&MultiAgentReplay> {
        Some(&self.replay)
    }

    /// Trains until the configured number of episodes is reached. On a
    /// resumed trainer this continues from the restored episode count.
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn train(&mut self) -> Result<TrainReport, TrainError> {
        self.train_with_autosave(None)
    }

    /// Trains like [`Trainer::train`], additionally autosaving a full
    /// checkpoint every [`TrainConfig::checkpoint_every`] episodes — to
    /// `checkpoint_out` atomically when given, and always to an in-memory
    /// *last good* copy that backs divergence recovery.
    ///
    /// When the sentinel trips ([`TrainError::Diverged`]), the trainer
    /// rolls back to the last good checkpoint and retries, up to
    /// [`crate::sentinel::SentinelConfig::max_retries`] times; with no
    /// checkpoint yet (or the budget exhausted) the report is returned.
    /// Capture, write, and rollback time lands in [`Phase::Checkpoint`].
    ///
    /// # Errors
    ///
    /// Propagates environment, replay, and checkpoint-persistence
    /// failures; returns [`TrainError::Diverged`] when recovery fails.
    pub fn train_with_autosave(
        &mut self,
        checkpoint_out: Option<&Path>,
    ) -> Result<TrainReport, TrainError> {
        let t0 = Instant::now();
        let mut last_good: Option<(Checkpoint, Vec<u8>)> = None;
        let mut retries_left = self.config.sentinel.max_retries;
        while self.curve.len() < self.config.episodes {
            #[cfg(feature = "failpoints")]
            if crate::failpoint::take("train::episode") == Some(crate::failpoint::Fault::Abort) {
                return Err(TrainError::Interrupted { episodes_done: self.curve.len() });
            }
            match self.run_episode() {
                // An episode finishes K worlds: record one curve entry per
                // world (world order) so `episodes` counts completed
                // environment episodes.
                Ok(_) => {
                    for v in self.rollout.world_returns() {
                        self.curve.push(v);
                    }
                }
                Err(TrainError::Diverged(report)) => {
                    if let Some(t) = self.obs.as_deref() {
                        t.metrics.sentinel_trips.inc();
                    }
                    let tc = Instant::now();
                    let rollback = match (&last_good, retries_left) {
                        (Some(state), n) if n > 0 => state.clone(),
                        // No in-memory good state yet — e.g. a freshly
                        // resumed process diverging before its first new
                        // autosave. Fall back to the on-disk checkpoint;
                        // `load_checkpoint_with_fallback` tolerates a
                        // corrupt live file via the `.prev` rotation. If
                        // nothing loadable exists, surface the divergence.
                        (None, n) if n > 0 && checkpoint_out.is_some() => {
                            let path = checkpoint_out.expect("checked is_some");
                            match crate::checkpoint::load_checkpoint_with_fallback(path) {
                                Ok((ckpt, replay, _from_prev)) => (ckpt, replay),
                                Err(_) => return Err(TrainError::Diverged(report)),
                            }
                        }
                        _ => return Err(TrainError::Diverged(report)),
                    };
                    retries_left -= 1;
                    self.restore_full(rollback.0, &rollback.1)?;
                    // The aborted iteration's partial trace state must not
                    // leak into the digest of the replayed iteration.
                    if let Some(rec) = self.trace.as_mut() {
                        rec.reset_pending();
                    }
                    self.profile.add(Phase::Checkpoint, tc.elapsed());
                    continue;
                }
                Err(e) => return Err(e),
            }
            let every = self.config.checkpoint_every;
            if every > 0 && self.curve.len().is_multiple_of(every) {
                let tc = Instant::now();
                let (ckpt, replay) = self.checkpoint_full();
                if let Some(path) = checkpoint_out {
                    write_checkpoint_file(path, &ckpt, &replay)?;
                }
                last_good = Some((ckpt, replay));
                // A good save refreshes the divergence retry budget.
                retries_left = self.config.sentinel.max_retries;
                let dt = tc.elapsed();
                self.profile.add(Phase::Checkpoint, dt);
                if let Some(t) = self.obs.as_deref() {
                    t.metrics.checkpoint_ns.record(dt.as_nanos() as u64);
                }
            }
            if let Some(t) = self.obs.as_deref() {
                let (scalar, simd) = marl_nn::kernels::dispatch_tally();
                t.on_episode_end(&SnapshotContext {
                    episode: self.curve.len() as u64,
                    profile: &self.profile,
                    kernels: KernelTally { scalar, simd },
                });
            }
        }
        Ok(TrainReport {
            config: self.config,
            profile: self.profile.clone(),
            curve: self.curve.clone(),
            wall_time: t0.elapsed(),
            env_steps: self.env_steps,
            update_iterations: self.updates,
            sampling: self.telemetry,
        })
    }

    /// Runs one episode (exploration + pushes + scheduled updates) in
    /// every world of the rollout and returns the mean over worlds of the
    /// mean-over-agents cumulative reward.
    ///
    /// The K = [`TrainConfig::num_envs`] worlds advance in lockstep over
    /// the batched SoA physics, with one actor inference batch per agent
    /// per step. Every step pushes K joint transitions, and
    /// `env_steps`/update scheduling advance by K. At K = 1 the noise
    /// comes from the master RNG; at K > 1 from K checkpointable
    /// per-world streams. The per-world returns stay readable for
    /// [`Trainer::train_with_autosave`], which records one reward-curve
    /// entry per world.
    ///
    /// The step loop is allocation-free once the first episode has sized
    /// the rollout buffers (test-enforced at K = 1 and K = 4).
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn run_episode(&mut self) -> Result<f32, TrainError> {
        // Arc clone (refcount bump only) so the episode span can coexist
        // with the `&mut self` calls below.
        let tel = self.obs.clone();
        let _episode_span = tel.as_deref().map(|t| t.tracer.span("episode", 0));
        let k = self.rollout.worlds();
        self.rollout.reset();
        loop {
            // --- Action selection (one inference batch per agent) ---
            let t0 = Instant::now();
            let (temperature, epsilon) = self.config.exploration.at(self.env_steps);
            self.rollout.select_actions(&self.agents, temperature, epsilon, &mut self.rng);
            self.profile.add(Phase::ActionSelection, t0.elapsed());

            // --- Environment execution (batched SoA step) ---
            let t0 = Instant::now();
            let span_start = tel.as_deref().map(|t| t.tracer.now_ns());
            let done = self.rollout.step()?;
            if let (Some(t), Some(start)) = (tel.as_deref(), span_start) {
                let end = t.tracer.now_ns();
                t.tracer.record("vec-env-step", 0, start, end);
                let dt = end.saturating_sub(start);
                t.metrics.vecenv_step_ns.record(dt);
                t.metrics.vecenv_batch_fill.record(k as u64);
                if dt > 0 {
                    t.metrics.vecenv_steps_per_sec.record_scaled(k as f64 / dt as f64, 1e9);
                }
            }
            self.profile.add(Phase::EnvironmentStep, t0.elapsed());
            self.env_steps += k as u64;
            if let Some(t) = tel.as_deref() {
                t.metrics.env_steps.add(k as u64);
            }

            // --- Store experiences (K joint pushes per batched step) ---
            let t0 = Instant::now();
            for w in 0..k {
                let rollout = &self.rollout;
                let slot = self.replay.push_step_with(|a, _| rollout.transition(w, a));
                self.sampler.observe_push(slot);
                self.samples_since_update += 1;
            }
            self.rollout.advance();
            self.profile.add(Phase::Bookkeeping, t0.elapsed());

            // --- Update all trainers ---
            if self.update_due() {
                self.samples_since_update = 0;
                self.update_all_trainers()?;
            }

            if done {
                break;
            }
        }
        Ok(self.rollout.world_returns().sum::<f32>() / k as f32)
    }

    /// [`Trainer::run_episode`] under its pre-merge name (the frozen
    /// benchmark still calls it).
    #[doc(hidden)]
    pub fn run_episode_vec(&mut self) -> Result<f32, TrainError> {
        self.run_episode()
    }

    /// Pre-fills the replay buffers with `rows` random-policy joint steps
    /// (uniform actions from the master RNG) without performing any
    /// updates (used by benches to isolate the sampling phase). A step
    /// pushes one row per world until `rows` is reached.
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn prefill(&mut self, rows: usize) -> Result<(), TrainError> {
        self.rollout.reset();
        let mut filled = 0;
        while filled < rows {
            self.rollout.select_random(&mut self.rng);
            let done = self.rollout.step()?;
            let pushes = self.rollout.worlds().min(rows - filled);
            for w in 0..pushes {
                let rollout = &self.rollout;
                let slot = self.replay.push_step_with(|a, _| rollout.transition(w, a));
                self.sampler.observe_push(slot);
            }
            filled += pushes;
            if done {
                self.rollout.reset();
            } else {
                self.rollout.advance();
            }
        }
        Ok(())
    }

    /// Sampling-phase telemetry so far.
    pub fn sampling_telemetry(&self) -> SamplingTelemetry {
        self.telemetry
    }

    // --- Distributed actor–learner seams (`marl-dist`) -----------------
    //
    // The dist learner owns a full `Trainer` but drives it from frames a
    // remote rollout worker streams in, instead of from the in-process
    // episode loop. These seams expose exactly the operations that loop
    // performs — push a joint step, check/trigger the update schedule,
    // and hand the master RNG across the process boundary — so the
    // deterministic loopback transport reproduces `run_episode`'s
    // behavior bitwise.

    /// Ingests one joint environment step produced by a rollout worker:
    /// `row` is the concatenation of one replay row per agent
    /// (`obs | action | reward | next_obs | done`, the
    /// [`Trainer::transition_layouts`] order). Pushes the borrowed rows
    /// without materializing transitions, notifies the sampler, and
    /// advances `env_steps`/`samples_since_update` exactly as the
    /// in-process rollout loop does. Update scheduling is left to the
    /// caller (see [`Trainer::maybe_update`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when `row` is not exactly
    /// one joint step wide.
    pub fn ingest_step(&mut self, row: &[f32]) -> Result<(), TrainError> {
        let width: usize = self.transition_layouts().map(|l| l.row_width()).sum();
        if row.len() != width {
            return Err(TrainError::InvalidConfig(format!(
                "joint step carries {} floats but the trainer's agents take {width}",
                row.len()
            )));
        }
        let t0 = Instant::now();
        let mut rest = row;
        let slot = self.replay.push_step_with(|_, layout| {
            let (head, tail) = rest.split_at(layout.row_width());
            rest = tail;
            TransitionRef::from_row(layout, head)
        });
        self.sampler.observe_push(slot);
        self.samples_since_update += 1;
        self.env_steps += 1;
        if let Some(t) = self.obs.as_deref() {
            t.metrics.env_steps.inc();
        }
        self.profile.add(Phase::Bookkeeping, t0.elapsed());
        Ok(())
    }

    /// Each agent's replay row shape, in agent order (the dist learner
    /// checks incoming step blocks against it).
    pub fn transition_layouts(&self) -> impl Iterator<Item = TransitionLayout> + '_ {
        self.replay.layouts().iter().copied()
    }

    /// The live actor networks, in agent order — all a rollout worker
    /// needs from an update (the payload of a dist `Params` frame).
    pub fn actors(&self) -> impl Iterator<Item = &marl_nn::mlp::Mlp> {
        self.agents.iter().map(|a| &a.actor)
    }

    /// Samples pushed since the last update iteration (the dist worker
    /// mirrors this counter to predict update boundaries).
    pub fn samples_since_update(&self) -> usize {
        self.samples_since_update
    }

    /// Whether the update schedule is due: warmup satisfied and at least
    /// `update_every` samples ingested since the last update. Mirrors the
    /// trigger the episode loops apply after every push.
    fn update_due(&self) -> bool {
        self.replay.len() >= self.config.warmup
            && self.samples_since_update >= self.config.update_every
    }

    /// Runs one `update_all_trainers` iteration if the schedule is due,
    /// resetting the sample counter first (as the episode loops do).
    /// Returns whether an update ran.
    ///
    /// # Errors
    ///
    /// Propagates replay/sampler failures and sentinel divergences.
    pub fn maybe_update(&mut self) -> Result<bool, TrainError> {
        if !self.update_due() {
            return Ok(false);
        }
        self.samples_since_update = 0;
        self.update_all_trainers()?;
        Ok(true)
    }

    /// The master RNG's raw state, for handoff to a remote rollout worker
    /// ([`Trainer::set_master_rng_state`] installs the returned value).
    pub fn master_rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Installs a master RNG state handed back by a rollout worker, so
    /// the next sampling-plan draws continue the worker's stream exactly
    /// where its action draws left off.
    pub fn set_master_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Captures every agent's networks and optimizer state (the payload
    /// of a dist `Welcome` frame).
    pub fn agent_states(&self) -> Vec<crate::checkpoint::AgentState> {
        self.agents.iter().map(crate::checkpoint::AgentState::capture).collect()
    }

    /// Records one finished remote episode's mean reward on the learner's
    /// curve, so episode counting and reward reporting work as in the
    /// single-process path.
    pub fn record_episode_reward(&mut self, mean_reward: f32) {
        self.curve.push(mean_reward);
        if let Some(t) = self.obs.as_deref() {
            t.metrics.episodes.inc();
        }
    }

    /// Captures a weights-only checkpoint of all agents' networks and
    /// optimizer state (no run state; see [`Trainer::checkpoint_full`]).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            config: self.config,
            agents: self.agents.iter().map(crate::checkpoint::AgentState::capture).collect(),
            update_iterations: self.updates,
            run: None,
        }
    }

    /// Captures the complete resumable state: networks/optimizers plus
    /// counters, RNG streams, sampler state, reward curve, phase timings,
    /// and an encoded snapshot of the replay buffer. Restoring this via
    /// [`Trainer::restore_full`] resumes training bitwise-identically to
    /// a run that never stopped.
    ///
    /// Intended for episode boundaries (where [`Trainer::train`]
    /// autosaves): there the env world is regenerated from its RNG on the
    /// next `reset()`, so no mid-episode environment state is needed.
    ///
    /// The replay snapshot is read in place from either address map.
    pub fn checkpoint_full(&self) -> (Checkpoint, Vec<u8>) {
        let replay = marl_core::snapshot::encode_replay(&self.replay);
        let mut ckpt = self.checkpoint();
        // World 0's stream occupies the `env_rng` slot; worlds 1..K and the
        // per-world noise streams ride in the `#[serde(default)]` fields,
        // which stay empty at K = 1 (the pre-vectorization format).
        let env_rngs = self.rollout.env_rng_states();
        ckpt.run = Some(RunState {
            env_steps: self.env_steps,
            samples_since_update: self.samples_since_update,
            master_rng: self.rng.state(),
            env_rng: env_rngs[0],
            curve: self.curve.values().to_vec(),
            telemetry: self.telemetry,
            sampler: self.sampler.export_state(),
            profile: self.profile.clone(),
            rollout_rngs: self.rollout.noise_rng_states(),
            vec_env_rngs: env_rngs[1..].to_vec(),
        });
        (ckpt, replay)
    }

    /// Restores the complete resumable state captured by
    /// [`Trainer::checkpoint_full`] (or loaded from a checkpoint file)
    /// into this trainer. The trainer must have been built from a
    /// compatible configuration (same task, agents and capacity). The
    /// replay restores in place under this trainer's address map, which
    /// need not be the one the checkpoint was written under.
    ///
    /// World 0's env stream always restores from `env_rng`. A checkpoint
    /// without per-world streams (written at K = 1, or before the
    /// vectorized engine existed) resumes at any K with fresh streams for
    /// worlds 1..K and fresh exploration streams.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] for weights-only checkpoints,
    /// mismatched replay geometry, or per-world streams recorded for a
    /// different world count; [`TrainError::InvalidConfig`] for
    /// architecture mismatches, and [`TrainError::Replay`] when the
    /// sampler rejects the recorded state.
    pub fn restore_full(
        &mut self,
        ckpt: Checkpoint,
        replay_bytes: &[u8],
    ) -> Result<(), TrainError> {
        let run = ckpt.run.clone().ok_or_else(|| {
            TrainError::Checkpoint("checkpoint is weights-only and cannot resume a run".into())
        })?;
        let k = self.config.num_envs();
        if !run.vec_env_rngs.is_empty() && run.vec_env_rngs.len() + 1 != k {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint carries env streams for {} worlds but the trainer runs {k}",
                run.vec_env_rngs.len() + 1
            )));
        }
        // K = 1 explores from the master stream, so only K > 1 records
        // per-world exploration streams.
        if !run.rollout_rngs.is_empty() && (run.rollout_rngs.len() != k || k == 1) {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint carries exploration streams for {} worlds but the trainer runs {k}",
                run.rollout_rngs.len()
            )));
        }
        // Decoded in place, under this trainer's address map. Every check
        // (checksum, geometry, length) runs before the first write, so a
        // refused snapshot leaves the replay as it was.
        marl_core::snapshot::decode_replay_into(&mut self.replay, replay_bytes)
            .map_err(|e| TrainError::Checkpoint(format!("replay snapshot: {e}")))?;
        self.restore(ckpt)?;
        self.sampler.import_state(&run.sampler)?;
        self.rng = StdRng::from_state(run.master_rng);
        // A fresh rollout holds the fresh streams; the checkpoint's
        // streams overwrite them where it has any.
        self.rollout = Rollout::new(&self.config, k);
        let mut env_rngs = self.rollout.env_rng_states();
        env_rngs[0] = run.env_rng;
        if !run.vec_env_rngs.is_empty() {
            env_rngs[1..].copy_from_slice(&run.vec_env_rngs);
        }
        self.rollout.set_env_rng_states(&env_rngs);
        if !run.rollout_rngs.is_empty() {
            self.rollout.set_noise_rng_states(&run.rollout_rngs);
        }
        self.env_steps = run.env_steps;
        self.samples_since_update = run.samples_since_update;
        self.curve = RewardCurve::new();
        for v in run.curve {
            self.curve.push(v);
        }
        self.telemetry = run.telemetry;
        self.profile = run.profile;
        Ok(())
    }

    /// Restores all agents' networks/optimizers from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when the checkpoint's agent
    /// count or architectures do not match this trainer.
    pub fn restore(&mut self, ckpt: crate::checkpoint::Checkpoint) -> Result<(), TrainError> {
        if ckpt.agents.len() != self.agents.len() {
            return Err(TrainError::InvalidConfig(format!(
                "checkpoint holds {} agents but trainer has {}",
                ckpt.agents.len(),
                self.agents.len()
            )));
        }
        for (state, nets) in ckpt.agents.into_iter().zip(&mut self.agents) {
            state.restore(nets)?;
        }
        self.updates = ckpt.update_iterations;
        Ok(())
    }

    /// Greedy evaluation over `episodes` fresh episodes in every world of
    /// the rollout; returns the mean over episodes and worlds of the
    /// mean-over-agents cumulative reward. Advances the env streams (the
    /// next training episode starts from where evaluation left them).
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn evaluate(&mut self, episodes: usize) -> Result<f32, TrainError> {
        let n = self.agents.len();
        let k = self.rollout.worlds();
        let mut total = 0.0f64;
        for _ in 0..episodes {
            self.rollout.reset();
            loop {
                self.rollout.select_greedy(&self.agents);
                let done = self.rollout.step()?;
                for rewards in self.rollout.rewards().chunks(n) {
                    total += rewards.iter().sum::<f32>() as f64 / n as f64;
                }
                self.rollout.advance();
                if done {
                    break;
                }
            }
        }
        Ok((total / (episodes * k).max(1) as f64) as f32)
    }
}

/// Convenience: trains a configuration end-to-end and returns the report.
///
/// # Errors
///
/// Propagates [`Trainer`] failures.
pub fn train(config: TrainConfig) -> Result<TrainReport, TrainError> {
    Trainer::new(config)?.train()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LayoutMode, Task};
    use marl_core::config::SamplerConfig;
    use marl_nn::matrix::Matrix;
    use marl_nn::scratch::Scratch;

    fn quick_config(algorithm: Algorithm, task: Task, agents: usize) -> TrainConfig {
        TrainConfig::paper_defaults(algorithm, task, agents)
            .with_episodes(3)
            .with_batch_size(32)
            .with_buffer_capacity(4096)
            .with_seed(11)
    }

    #[test]
    fn maddpg_trains_and_profiles() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let mut t = Trainer::new(cfg).unwrap();
        let report = t.train().unwrap();
        assert_eq!(report.curve.len(), 3);
        assert_eq!(report.env_steps, 3 * 25);
        assert!(report.update_iterations >= 1);
        assert!(report.profile.get(Phase::MiniBatchSampling) > Duration::ZERO);
        assert!(report.profile.get(Phase::TargetQ) > Duration::ZERO);
        assert!(report.profile.get(Phase::QLossPLoss) > Duration::ZERO);
        assert!(report.profile.get(Phase::ActionSelection) > Duration::ZERO);
        // Telemetry: one plan per trainer per iteration, 32-row batches
        // gathered from all 3 buffers.
        let t = report.sampling;
        assert_eq!(t.plans, report.update_iterations * 3);
        assert_eq!(t.rows_gathered, t.plans * 32 * 3);
        assert!(t.bytes_gathered > t.rows_gathered);
        assert!(t.random_jumps > 0 && t.random_jumps <= t.plans * 32);
        // The staged pipeline shares each batch's cross-agent target
        // actions: exactly one pass per plan, not one per consuming agent.
        assert_eq!(t.target_action_passes, t.plans);
    }

    #[test]
    fn matd3_uses_twin_critics_and_delay() {
        let mut cfg = quick_config(Algorithm::Matd3, Task::CooperativeNavigation, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let mut t = Trainer::new(cfg).unwrap();
        assert!(t.agents[0].critic2.is_some());
        let report = t.train().unwrap();
        assert!(report.update_iterations >= 1);
    }

    #[test]
    fn locality_sampler_trains() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::CooperativeNavigation, 3)
            .with_sampler(SamplerConfig::Locality { neighbors: 8 });
        cfg.warmup = 64;
        cfg.update_every = 30;
        let mut t = Trainer::new(cfg).unwrap();
        t.train().unwrap();
        assert!(t.update_iterations() >= 1);
    }

    #[test]
    fn prioritized_samplers_train() {
        for sampler in [SamplerConfig::Per, SamplerConfig::IpLocality] {
            let mut cfg =
                quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_sampler(sampler);
            cfg.warmup = 40;
            cfg.update_every = 30;
            let mut t = Trainer::new(cfg).unwrap();
            t.train().unwrap();
            assert!(t.update_iterations() >= 1, "{sampler:?}");
        }
    }

    #[test]
    fn interleaved_layout_trains_identically_in_shape() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let run = |layout: LayoutMode| {
            let mut t = Trainer::new(cfg.with_layout(layout)).unwrap();
            let r = t.train().unwrap();
            (r.update_iterations, r.curve.values().to_vec())
        };
        let (u_per, c_per) = run(LayoutMode::PerAgent);
        let (u_int, c_int) = run(LayoutMode::Interleaved);
        assert_eq!(u_per, u_int);
        // Same seed + same data (only the layout differs) => identical
        // training trajectory.
        assert_eq!(c_per, c_int);
    }

    #[test]
    fn interleaved_layout_exposes_its_time_major_replay() {
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3)
            .with_layout(LayoutMode::Interleaved);
        let mut t = Trainer::new(cfg).unwrap();
        assert_eq!(t.replay().map(MultiAgentReplay::mode), Some(LayoutMode::Interleaved));
        t.prefill(100).unwrap();
        assert_eq!(t.replay().map(MultiAgentReplay::len), Some(100));
        t.update_all_trainers().unwrap();
    }

    #[test]
    fn parallel_updates_match_serial_training() {
        for algorithm in [Algorithm::Maddpg, Algorithm::Matd3] {
            let mut cfg = quick_config(algorithm, Task::PredatorPrey, 3);
            cfg.warmup = 40;
            cfg.update_every = 25;
            let run = |threads: usize| {
                let mut t = Trainer::new(cfg.with_update_threads(threads)).unwrap();
                t.train().unwrap().curve.values().to_vec()
            };
            let serial = run(1);
            for threads in [2usize, 4, 16] {
                assert_eq!(
                    run(threads),
                    serial,
                    "{algorithm:?}: update parallelism must not change results (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn parallel_updates_match_on_interleaved_layout() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3)
            .with_layout(LayoutMode::Interleaved);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let run = |threads: usize| {
            let mut t = Trainer::new(cfg.with_update_threads(threads)).unwrap();
            t.train().unwrap().curve.values().to_vec()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn prioritized_parallel_updates_match_serial() {
        // PER exercises the priority-refresh ordering after the pool.
        let mut cfg =
            quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_sampler(SamplerConfig::Per);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let run = |threads: usize| {
            let mut t = Trainer::new(cfg.with_update_threads(threads)).unwrap();
            t.train().unwrap().curve.values().to_vec()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn prefill_and_manual_update() {
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let mut t = Trainer::new(cfg).unwrap();
        t.prefill(200).unwrap();
        assert_eq!(t.replay_len(), 200);
        t.update_all_trainers().unwrap();
        assert_eq!(t.update_iterations(), 1);
    }

    #[test]
    fn evaluate_zero_episodes_is_zero() {
        let cfg = quick_config(Algorithm::Maddpg, Task::CooperativeNavigation, 3);
        let mut t = Trainer::new(cfg).unwrap();
        assert_eq!(t.evaluate(0).unwrap(), 0.0);
    }

    #[test]
    fn evaluate_runs_greedily() {
        let cfg = quick_config(Algorithm::Maddpg, Task::CooperativeNavigation, 3);
        let mut t = Trainer::new(cfg).unwrap();
        let score = t.evaluate(2).unwrap();
        assert!(score.is_finite());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        cfg.agents = 0;
        assert!(matches!(Trainer::new(cfg), Err(TrainError::InvalidConfig(_))));
    }

    #[test]
    fn annealed_exploration_trains() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        cfg.exploration = crate::explore::ExplorationSchedule::annealed(50);
        let mut t = Trainer::new(cfg).unwrap();
        let report = t.train().unwrap();
        assert!(report.update_iterations > 0);
        assert!(report.curve.values().iter().all(|r| r.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
            cfg.warmup = 40;
            cfg.update_every = 25;
            let mut t = Trainer::new(cfg).unwrap();
            t.train().unwrap().curve.values().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_roundtrip_resumes_training() {
        let mut cfg = quick_config(Algorithm::Matd3, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let mut a = Trainer::new(cfg).unwrap();
        a.train().unwrap();
        let ckpt = a.checkpoint();
        assert_eq!(ckpt.agents.len(), 3);
        // Restore into a fresh trainer and verify identical greedy policy.
        let mut b = Trainer::new(cfg).unwrap();
        b.restore(ckpt).unwrap();
        assert_eq!(b.update_iterations(), a.update_iterations());
        let obs = Matrix::full(1, 16, 0.25);
        let (mut logits, mut scratch) = (Matrix::default(), Scratch::new());
        let (mut x_idx, mut y_idx) = ([0usize], [0usize]);
        for (x, y) in a.agents.iter().zip(&b.agents) {
            x.act_greedy_batch(&obs, &[5], &mut logits, &mut scratch, &mut x_idx);
            y.act_greedy_batch(&obs, &[5], &mut logits, &mut scratch, &mut y_idx);
            assert_eq!(x_idx, y_idx);
        }
    }

    #[test]
    fn full_checkpoint_resumes_bitwise_identically() {
        // Straight run vs. run → full checkpoint → restore into a fresh
        // trainer → finish: curves and weights must match bitwise.
        for sampler in [SamplerConfig::Uniform, SamplerConfig::IpLocality] {
            let mut cfg =
                quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_sampler(sampler);
            cfg.warmup = 40;
            cfg.update_every = 25;
            cfg.episodes = 6;
            let mut straight = Trainer::new(cfg).unwrap();
            let full = straight.train().unwrap();

            let mut first = Trainer::new(cfg.with_episodes(3)).unwrap();
            first.train().unwrap();
            let (ckpt, replay) = first.checkpoint_full();

            let mut resumed = Trainer::new(cfg).unwrap();
            resumed.restore_full(ckpt, &replay).unwrap();
            let rest = resumed.train().unwrap();
            assert_eq!(rest.curve.values(), full.curve.values(), "{sampler:?}");
            assert_eq!(rest.env_steps, full.env_steps);
            assert_eq!(rest.update_iterations, full.update_iterations);
            let weights = |t: &Trainer| serde_json::to_string(&t.checkpoint().agents).unwrap();
            assert_eq!(weights(&resumed), weights(&straight), "{sampler:?}");
        }
    }

    #[test]
    fn restore_full_rejects_weights_only_checkpoints() {
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let mut t = Trainer::new(cfg).unwrap();
        let (_, replay) = t.checkpoint_full();
        let weights_only = t.checkpoint();
        assert!(matches!(t.restore_full(weights_only, &replay), Err(TrainError::Checkpoint(_))));
    }

    #[test]
    fn restore_full_rejects_mismatched_replay_geometry() {
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let other =
            quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_buffer_capacity(2048);
        let a = Trainer::new(cfg).unwrap();
        let (ckpt, replay) = a.checkpoint_full();
        let mut b = Trainer::new(other).unwrap();
        assert!(matches!(b.restore_full(ckpt, &replay), Err(TrainError::Checkpoint(_))));
    }

    #[test]
    fn restore_rejects_wrong_agent_count() {
        let cfg3 = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let cfg6 = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 6);
        let a = Trainer::new(cfg3).unwrap();
        let mut b = Trainer::new(cfg6).unwrap();
        assert!(matches!(b.restore(a.checkpoint()), Err(TrainError::InvalidConfig(_))));
    }

    #[test]
    fn trace_recorder_observes_without_perturbing() {
        let mut cfg = quick_config(Algorithm::Matd3, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let run = |attach: bool| {
            let mut t = Trainer::new(cfg).unwrap();
            if attach {
                t.attach_trace_recorder(crate::trace::UpdateTraceRecorder::new());
            }
            let r = t.train().unwrap();
            let digests =
                t.detach_trace_recorder().map(crate::trace::UpdateTraceRecorder::into_digests);
            let weights = serde_json::to_string(&t.checkpoint().agents).unwrap();
            (weights, r.update_iterations, digests)
        };
        let (w_on, u_on, digests) = run(true);
        let (w_off, u_off, none) = run(false);
        assert_eq!(w_on, w_off, "recording must not change the trained model");
        assert_eq!(u_on, u_off);
        assert!(none.is_none());
        let digests = digests.unwrap();
        assert_eq!(digests.len() as u64, u_on, "one digest per update iteration");
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(d.step, i as u64);
            assert_ne!(d.params, 0, "parameter checksum must cover real data");
        }
        // MATD3 delays policy updates but updates critics every iteration:
        // consecutive digests must differ.
        assert!(digests.windows(2).all(|w| w[0].chain != w[1].chain));
    }

    /// The `marl_nn::fp` scopes hand the caller's mode back as they found
    /// it, whether that mode is IEEE or flush-to-zero.
    #[test]
    fn compute_calls_leave_the_callers_fp_mode_unchanged() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_update_threads(2);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let mut t = Trainer::new(cfg).unwrap();
        for caller_flushes in [false, true] {
            let _caller = caller_flushes.then(marl_nn::fp::flush_to_zero);
            let before = marl_nn::fp::control_word();
            t.run_episode().unwrap();
            t.run_episode().unwrap();
            assert_eq!(marl_nn::fp::control_word(), before, "run_episode");
            t.update_all_trainers().unwrap();
            assert_eq!(marl_nn::fp::control_word(), before, "update_all_trainers");
            t.evaluate(1).unwrap();
            assert_eq!(marl_nn::fp::control_word(), before, "evaluate");
        }
        assert!(t.update_iterations() >= 2);
    }
}
