//! The CTDE training loop with phase instrumentation.
//!
//! The loop follows the paper's Figure 1: *action selection* (actor
//! forwards + Gumbel sampling), environment execution, replay pushes, and
//! — every `update_every` pushed samples — *update all trainers*, which
//! decomposes into mini-batch sampling, target-Q calculation, and
//! Q-loss/P-loss backpropagation, followed by target soft updates.

use crate::agent::AgentNets;
use crate::checkpoint::{write_checkpoint_file, Checkpoint, RunState};
use crate::config::{Algorithm, LayoutMode, Task, TrainConfig};
use crate::error::TrainError;
use crate::eval::RewardCurve;
use marl_core::config::SamplerConfig;
use marl_core::error::ReplayError;
use marl_core::indices::SamplePlan;
use marl_core::layout::InterleavedStore;
use marl_core::multi::MultiAgentReplay;
use marl_core::sampler::Sampler;
use marl_core::transition::{MultiBatch, Transition, TransitionLayout, TransitionRef};
use marl_env::env::ParticleEnv;
use marl_env::spaces::ActionSpace;
use marl_env::vecenv::VecParticleEnv;
use marl_nn::gumbel::{relaxation_backward_segments_into, softmax_relaxation_segments_into};
use marl_nn::linear::{BackwardNeed, InputGrad};
use marl_nn::loss::{mse_into, td_errors_into, weighted_mse_into};
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;
use marl_obs::metrics::{IS_WEIGHT_SCALE, PRIORITY_SCALE};
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

/// Replay storage behind one of the paper's two data layouts.
#[derive(Debug)]
enum ReplayBackend {
    /// Per-agent buffers (baseline, Figure 5).
    PerAgent(MultiAgentReplay),
    /// Interleaved key-value store (Section IV-B2), kept up to date
    /// incrementally so no periodic reshape is needed during training.
    Interleaved(InterleavedStore),
}

impl ReplayBackend {
    fn len(&self) -> usize {
        match self {
            ReplayBackend::PerAgent(r) => r.len(),
            ReplayBackend::Interleaved(s) => s.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            ReplayBackend::PerAgent(r) => r.capacity(),
            ReplayBackend::Interleaved(s) => s.capacity(),
        }
    }

    /// Fill fraction `len / capacity` in `[0, 1]` (telemetry gauge).
    fn occupancy(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            self.len() as f64 / cap as f64
        }
    }

    fn push_step(&mut self, transitions: &[Transition]) -> Result<usize, ReplayError> {
        match self {
            ReplayBackend::PerAgent(r) => r.push_step(transitions),
            ReplayBackend::Interleaved(s) => s.push_step(transitions),
        }
    }

    /// Pushes one joint step built on the fly from borrowed rows
    /// (allocation-free; the vectorized rollout path).
    fn push_step_with<'a, F>(&mut self, f: F) -> usize
    where
        F: FnMut(usize) -> TransitionRef<'a>,
    {
        match self {
            ReplayBackend::PerAgent(r) => r.push_step_with(f),
            ReplayBackend::Interleaved(s) => s.push_step_with(f),
        }
    }

    /// Gathers `plan` into `out`, reusing its storage. With per-agent
    /// buffers and `threads > 1` the gather fans out over a scoped pool
    /// (allocating); the serial paths are allocation-free once warmed.
    fn sample_into(
        &self,
        plan: &SamplePlan,
        threads: usize,
        out: &mut MultiBatch,
    ) -> Result<(), ReplayError> {
        match self {
            ReplayBackend::PerAgent(r) if threads > 1 => {
                *out = r.sample_parallel(plan, threads)?;
                Ok(())
            }
            ReplayBackend::PerAgent(r) => r.sample_into(plan, out),
            // The interleaved layout's single pass is already one stream.
            ReplayBackend::Interleaved(s) => s.sample_into(plan, out),
        }
    }
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
    config: TrainConfig,
    env: ParticleEnv,
    /// Batched K-world environment; `Some` once the vectorized rollout
    /// path is active ([`TrainConfig::num_envs`] > 1, or
    /// [`Trainer::run_episode_vec`] called directly). World 0 shares the
    /// scalar env's seed stream, so K=1 checkpoints stay byte-compatible.
    vecenv: Option<VecParticleEnv>,
    /// Per-world exploration-noise streams (K > 1 only; at K=1 the master
    /// RNG is used so the scalar and vectorized paths stay bit-identical).
    rollout_rngs: Vec<StdRng>,
    /// Reusable working storage of the vectorized rollout loop.
    rollout: Option<RolloutScratch>,
    agents: Vec<AgentNets>,
    replay: ReplayBackend,
    sampler: Box<dyn Sampler>,
    rng: StdRng,
    profile: PhaseProfile,
    curve: RewardCurve,
    obs_dims: Vec<usize>,
    /// Per-agent flat action widths (Σ action-space segments). Scenarios
    /// with communication actions make these heterogeneous — e.g.
    /// world-comm's leader carries movement ⊕ broadcast while the other
    /// predators are movement-only.
    act_dims: Vec<usize>,
    /// Prefix sums of `act_dims`: agent `i`'s action block starts at
    /// column `total_obs_dim + act_offsets[i]` of joint critic inputs.
    act_offsets: Vec<usize>,
    /// Per-agent action spaces (factor segments + joint index range),
    /// taken from the environment at construction.
    action_spaces: Vec<ActionSpace>,
    total_obs_dim: usize,
    total_act_dim: usize,
    env_steps: u64,
    updates: u64,
    samples_since_update: usize,
    telemetry: SamplingTelemetry,
    scratch: UpdateScratch,
    /// Attached observability runtime ([`Trainer::attach_telemetry`]).
    /// Never checkpointed: telemetry is a property of the process, not
    /// of the training state.
    obs: Option<Arc<Telemetry>>,
    /// Attached conformance trace recorder
    /// ([`Trainer::attach_trace_recorder`]). Same observer contract as
    /// `obs`: zero-cost when detached, never checkpointed, never feeds
    /// back into training state.
    trace: Option<crate::trace::UpdateTraceRecorder>,
}

impl Trainer {
    /// Builds a trainer from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] for inconsistent settings.
    pub fn new(config: TrainConfig) -> Result<Self, TrainError> {
        config.validate().map_err(TrainError::InvalidConfig)?;
        // Install the requested compute kernel before any NN work runs.
        marl_nn::kernels::configure(config.kernel);
        // The scenario registry resolves the task by id: any registered
        // scenario (built-in or plugin) trains through the same loop.
        let env = config.task.make_env(config.agents, config.max_episode_len, config.seed);
        let obs_dims: Vec<usize> = env.observation_spaces().iter().map(|s| s.dim).collect();
        let action_spaces: Vec<ActionSpace> = env.action_spaces().to_vec();
        let act_dims: Vec<usize> = action_spaces.iter().map(ActionSpace::flat_dim).collect();
        let mut act_offsets = Vec::with_capacity(act_dims.len());
        let mut total_act_dim = 0usize;
        for &ad in &act_dims {
            act_offsets.push(total_act_dim);
            total_act_dim += ad;
        }
        let total_obs_dim: usize = obs_dims.iter().sum();
        let joint_dim = total_obs_dim + total_act_dim;
        let mut rng = StdRng::seed_from_u64(marl_nn::rng::derive_seed(config.seed, 1));
        let twin = config.algorithm == Algorithm::Matd3;
        let agents = obs_dims
            .iter()
            .zip(&act_dims)
            .map(|(&od, &ad)| {
                AgentNets::new(od, ad, joint_dim, twin, config.learning_rate, &mut rng)
            })
            .collect();
        let layouts: Vec<TransitionLayout> = obs_dims
            .iter()
            .zip(&act_dims)
            .map(|(&od, &ad)| TransitionLayout::new(od, ad))
            .collect();
        let replay = match config.layout {
            LayoutMode::PerAgent => {
                ReplayBackend::PerAgent(MultiAgentReplay::new(&layouts, config.buffer_capacity))
            }
            LayoutMode::Interleaved => {
                ReplayBackend::Interleaved(InterleavedStore::new(&layouts, config.buffer_capacity))
            }
        };
        let sampler = config.sampler.build(config.buffer_capacity);
        let scratch = UpdateScratch::new(obs_dims.len(), &layouts, config.batch_size);
        let mut trainer = Trainer {
            config,
            env,
            vecenv: None,
            rollout_rngs: Vec::new(),
            rollout: None,
            agents,
            replay,
            sampler,
            rng,
            profile: PhaseProfile::new(),
            curve: RewardCurve::new(),
            obs_dims,
            act_dims,
            act_offsets,
            action_spaces,
            total_obs_dim,
            total_act_dim,
            env_steps: 0,
            updates: 0,
            samples_since_update: 0,
            telemetry: SamplingTelemetry::default(),
            scratch,
            obs: None,
            trace: None,
        };
        if trainer.config.num_envs() > 1 {
            trainer.ensure_vec_rollout();
        }
        Ok(trainer)
    }

    /// Builds the K-world environment, the per-world noise streams, and
    /// the rollout scratch if they do not exist yet. Idempotent.
    fn ensure_vec_rollout(&mut self) {
        if self.vecenv.is_some() {
            return;
        }
        let k = self.config.num_envs();
        let cfg = &self.config;
        let mut vecenv = cfg.task.make_vec_env(cfg.agents, cfg.max_episode_len, cfg.seed, k);
        // World 0 continues the scalar environment's stream: a no-op at
        // construction (both start from the same seed), and the live
        // state when the build happens after a checkpoint restore.
        let mut states = vecenv.rng_states();
        states[0] = self.env.rng_state();
        vecenv.set_rng_states(&states);
        // Noise streams: at K=1 the master RNG is used instead (bitwise
        // identity with the scalar path); at K>1 each world draws from
        // stream 3 of the config seed, sub-stream w — disjoint from the
        // master (1), update (2), and extra-world env (4) streams.
        self.rollout_rngs = if k > 1 {
            (0..k)
                .map(|w| {
                    StdRng::seed_from_u64(marl_nn::rng::derive_seed(
                        marl_nn::rng::derive_seed(cfg.seed, 3),
                        w as u64,
                    ))
                })
                .collect()
        } else {
            Vec::new()
        };
        self.rollout = Some(RolloutScratch::new(k, &self.obs_dims, &self.act_dims));
        self.vecenv = Some(vecenv);
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

    /// Read access to the per-agent replay buffers; `None` when training
    /// with the interleaved layout (diagnostics/benches).
    pub fn replay(&self) -> Option<&MultiAgentReplay> {
        match &self.replay {
            ReplayBackend::PerAgent(r) => Some(r),
            ReplayBackend::Interleaved(_) => None,
        }
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
                // The vectorized path finishes K worlds per call: record
                // one curve entry per world (world order) so `episodes`
                // still counts completed environment episodes.
                Ok(mean_reward) => {
                    if self.config.num_envs() > 1 {
                        let rollout = self.rollout.as_ref().expect("vec rollout ran");
                        for w in 0..rollout.world_returns.len() {
                            let v = rollout.world_returns[w];
                            self.curve.push(v);
                        }
                    } else {
                        self.curve.push(mean_reward);
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
                let (ckpt, replay) = self.checkpoint_full()?;
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

    /// Runs one episode (exploration + pushes + scheduled updates) and
    /// returns the mean-over-agents cumulative reward.
    ///
    /// With [`TrainConfig::num_envs`] > 1 this dispatches to
    /// [`Trainer::run_episode_vec`], which advances K worlds in lockstep
    /// and returns the mean over all of them.
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn run_episode(&mut self) -> Result<f32, TrainError> {
        if self.config.num_envs() > 1 {
            return self.run_episode_vec();
        }
        // Arc clone (refcount bump only) so the episode span can coexist
        // with the `&mut self` calls below.
        let tel = self.obs.clone();
        let _episode_span = tel.as_deref().map(|t| t.tracer.span("episode", 0));
        let mut obs = self.env.reset();
        let n = self.agents.len();
        let mut episode_reward = vec![0.0f32; n];
        loop {
            // --- Action selection ---
            let t0 = Instant::now();
            let (temperature, epsilon) = self.config.exploration.at(self.env_steps);
            let mut action_idx = Vec::with_capacity(n);
            let mut action_onehot = Vec::with_capacity(n);
            for ((a, o), space) in self.agents.iter().zip(&obs).zip(&self.action_spaces) {
                let (mut idx, mut hot) =
                    a.act_explore_seg(o, space.segments(), temperature, &mut self.rng);
                if epsilon > 0.0 && rand::Rng::gen::<f32>(&mut self.rng) < epsilon {
                    idx = rand::Rng::gen_range(&mut self.rng, 0..space.joint_count());
                    space.multi_hot(idx, &mut hot);
                }
                action_idx.push(idx);
                action_onehot.push(hot);
            }
            self.profile.add(Phase::ActionSelection, t0.elapsed());

            // --- Environment execution ---
            let t0 = Instant::now();
            let mut step = self.env.step(&action_idx)?;
            self.profile.add(Phase::EnvironmentStep, t0.elapsed());
            self.env_steps += 1;
            if let Some(t) = tel.as_deref() {
                t.metrics.env_steps.inc();
            }

            // --- Store experiences ---
            let t0 = Instant::now();
            let done_flag = if step.done { 1.0 } else { 0.0 };
            let transitions: Vec<Transition> = (0..n)
                .map(|i| Transition {
                    obs: std::mem::take(&mut obs[i]),
                    action: std::mem::take(&mut action_onehot[i]),
                    reward: step.rewards[i],
                    // Moved, not cloned: the buffer is handed back as the
                    // next iteration's observation below.
                    next_obs: std::mem::take(&mut step.observations[i]),
                    done: done_flag,
                })
                .collect();
            let slot = self.replay.push_step(&transitions)?;
            self.sampler.observe_push(slot);
            self.samples_since_update += 1;
            for (er, r) in episode_reward.iter_mut().zip(&step.rewards) {
                *er += r;
            }
            // The stored next observations become the next step's inputs.
            for (o, t) in obs.iter_mut().zip(transitions) {
                *o = t.next_obs;
            }
            self.profile.add(Phase::Bookkeeping, t0.elapsed());

            // --- Update all trainers ---
            if self.replay.len() >= self.config.warmup
                && self.samples_since_update >= self.config.update_every
            {
                self.samples_since_update = 0;
                self.update_all_trainers()?;
            }

            if step.done {
                break;
            }
        }
        Ok(episode_reward.iter().sum::<f32>() / n as f32)
    }

    /// Runs one vectorized episode: K worlds advanced in lockstep over the
    /// batched SoA physics, with per-agent action selection coalescing the
    /// K observations into a single actor inference batch.
    ///
    /// At K=1 this consumes exactly the RNG draws of the scalar
    /// [`Trainer::run_episode`], in the same order, and is bit-identical
    /// to it (test-enforced). At K>1 exploration noise comes from K
    /// checkpointable per-world streams, every batched step pushes K joint
    /// transitions, and `env_steps`/update scheduling advance by K per
    /// step. The per-world mean returns of the finished episode are kept
    /// for [`Trainer::train_with_autosave`], which records one reward-curve
    /// entry per world; the returned value is the mean over all worlds.
    ///
    /// The step loop is allocation-free once the scratch is warm
    /// (test-enforced alongside the update-loop guarantee).
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn run_episode_vec(&mut self) -> Result<f32, TrainError> {
        self.ensure_vec_rollout();
        let tel = self.obs.clone();
        let _episode_span = tel.as_deref().map(|t| t.tracer.span("episode", 0));
        let n = self.agents.len();
        let k = {
            let env = self.vecenv.as_mut().expect("vec env built above");
            let rollout = self.rollout.as_mut().expect("rollout scratch built above");
            env.reset();
            let k = env.world_count();
            for (a, m) in rollout.obs_cur.iter_mut().enumerate() {
                for w in 0..k {
                    env.observe_into(a, w, m.row_mut(w));
                }
            }
            rollout.episode_reward.fill(0.0);
            k
        };
        loop {
            // --- Action selection (one inference batch per agent) ---
            let t0 = Instant::now();
            let (temperature, epsilon) = self.config.exploration.at(self.env_steps);
            {
                let rollout = self.rollout.as_mut().expect("rollout scratch");
                for (a, agent) in self.agents.iter().enumerate() {
                    let space = &self.action_spaces[a];
                    // At K=1 the master RNG supplies the noise — the draw
                    // sequence (per agent: flat_dim Gumbels, then the
                    // epsilon draws) matches the scalar path exactly.
                    let rngs: &mut [StdRng] = if k == 1 {
                        std::slice::from_mut(&mut self.rng)
                    } else {
                        &mut self.rollout_rngs
                    };
                    agent.act_explore_batch_seg(
                        &rollout.obs_cur[a],
                        space.segments(),
                        temperature,
                        rngs,
                        &mut rollout.logits,
                        &mut rollout.sample_row,
                        &mut rollout.nn,
                        &mut rollout.agent_idx,
                        &mut rollout.onehot[a],
                    );
                    if epsilon > 0.0 {
                        for (w, rng) in rngs.iter_mut().enumerate() {
                            if rand::Rng::gen::<f32>(&mut *rng) < epsilon {
                                let idx = rand::Rng::gen_range(&mut *rng, 0..space.joint_count());
                                rollout.agent_idx[w] = idx;
                                space.multi_hot(idx, rollout.onehot[a].row_mut(w));
                            }
                        }
                    }
                    for w in 0..k {
                        rollout.action_idx[w * n + a] = rollout.agent_idx[w];
                    }
                }
            }
            self.profile.add(Phase::ActionSelection, t0.elapsed());

            // --- Environment execution (batched SoA step) ---
            let t0 = Instant::now();
            let done = {
                let env = self.vecenv.as_mut().expect("vec env");
                let rollout = self.rollout.as_mut().expect("rollout scratch");
                let span_start = tel.as_deref().map(|t| t.tracer.now_ns());
                let done = env.step(&rollout.action_idx, &mut rollout.rewards)?;
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
                for (a, m) in rollout.obs_next.iter_mut().enumerate() {
                    for w in 0..k {
                        env.observe_into(a, w, m.row_mut(w));
                    }
                }
                done
            };
            self.profile.add(Phase::EnvironmentStep, t0.elapsed());
            self.env_steps += k as u64;
            if let Some(t) = tel.as_deref() {
                t.metrics.env_steps.add(k as u64);
            }

            // --- Store experiences (K joint pushes per batched step) ---
            let t0 = Instant::now();
            let done_flag = if done { 1.0 } else { 0.0 };
            {
                let rollout = self.rollout.as_mut().expect("rollout scratch");
                for w in 0..k {
                    let (obs_cur, onehot, rewards, obs_next) =
                        (&rollout.obs_cur, &rollout.onehot, &rollout.rewards, &rollout.obs_next);
                    let slot = self.replay.push_step_with(|a| TransitionRef {
                        obs: obs_cur[a].row(w),
                        action: onehot[a].row(w),
                        reward: rewards[w * n + a],
                        next_obs: obs_next[a].row(w),
                        done: done_flag,
                    });
                    self.sampler.observe_push(slot);
                    self.samples_since_update += 1;
                }
                for (er, r) in rollout.episode_reward.iter_mut().zip(&rollout.rewards) {
                    *er += r;
                }
                std::mem::swap(&mut rollout.obs_cur, &mut rollout.obs_next);
            }
            self.profile.add(Phase::Bookkeeping, t0.elapsed());

            // --- Update all trainers ---
            if self.replay.len() >= self.config.warmup
                && self.samples_since_update >= self.config.update_every
            {
                self.samples_since_update = 0;
                self.update_all_trainers()?;
            }

            if done {
                break;
            }
        }
        let rollout = self.rollout.as_mut().expect("rollout scratch");
        for w in 0..k {
            let sum: f32 = rollout.episode_reward[w * n..(w + 1) * n].iter().sum();
            rollout.world_returns[w] = sum / n as f32;
        }
        Ok(rollout.world_returns.iter().sum::<f32>() / k as f32)
    }

    /// Pre-fills the replay buffers with `rows` random-policy steps without
    /// performing any updates (used by benches to isolate the sampling
    /// phase).
    ///
    /// # Errors
    ///
    /// Propagates environment and replay failures.
    pub fn prefill(&mut self, rows: usize) -> Result<(), TrainError> {
        let n = self.agents.len();
        let mut obs = self.env.reset();
        let mut filled = 0;
        while filled < rows {
            let spaces = &self.action_spaces;
            let rng = &mut self.rng;
            let actions: Vec<usize> = spaces
                .iter()
                .map(|space| rand::Rng::gen_range(&mut *rng, 0..space.joint_count()))
                .collect();
            let mut step = self.env.step(&actions)?;
            let transitions: Vec<Transition> = (0..n)
                .map(|i| {
                    let mut onehot = vec![0.0; self.act_dims[i]];
                    self.action_spaces[i].multi_hot(actions[i], &mut onehot);
                    Transition {
                        obs: std::mem::take(&mut obs[i]),
                        action: onehot,
                        reward: step.rewards[i],
                        next_obs: std::mem::take(&mut step.observations[i]),
                        done: if step.done { 1.0 } else { 0.0 },
                    }
                })
                .collect();
            let slot = self.replay.push_step(&transitions)?;
            self.sampler.observe_push(slot);
            filled += 1;
            if step.done {
                obs = self.env.reset();
            } else {
                for (o, t) in obs.iter_mut().zip(transitions) {
                    *o = t.next_obs;
                }
            }
        }
        Ok(())
    }

    /// Runs one full *update all trainers* iteration (all N agent
    /// trainers) as a three-phase pipeline:
    ///
    /// 1. **Stage** — draw all N sampling plans (serially, on the master
    ///    RNG) and gather all N mini-batches, fanning whole-plan gathers
    ///    over the update worker pool when `update_threads > 1`.
    /// 2. **Share** — compute every agent's target actions once per
    ///    staged batch and assemble the joint next-state critic inputs.
    ///    Target-policy smoothing noise comes from per-agent RNG streams
    ///    derived from the master seed, so the draw sequence does not
    ///    depend on the thread count.
    /// 3. **Fan out** — run the N per-agent critic/actor updates on a
    ///    `std::thread::scope` worker pool sized by
    ///    [`TrainConfig::update_threads`]. Each worker owns a disjoint
    ///    split-borrowed chunk of the agent vector and accumulates phase
    ///    timings in a worker-local profile, merged afterwards.
    ///
    /// Results are bitwise identical for every `update_threads` value.
    ///
    /// All working storage (plans, staged batches, matrix views, joint
    /// inputs, per-agent scratch) lives in a persistent [`UpdateScratch`]
    /// arena: after the first iteration sizes every buffer, steady-state
    /// iterations perform no heap allocations on the serial path.
    ///
    /// # Errors
    ///
    /// Propagates replay/sampler failures.
    pub fn update_all_trainers(&mut self) -> Result<(), TrainError> {
        let n = self.agents.len();
        let cfg = self.config;
        let matd3 = cfg.algorithm == Algorithm::Matd3;
        // Field-level borrow of the telemetry handle: every recording
        // below is wait-free and allocation-free (span ring + atomics),
        // preserving the steady-state zero-allocation guarantee.
        let tel = self.obs.as_deref();
        let update_start = tel.map(|t| t.tracer.now_ns());

        // --- Phase 1: mini-batch sampling. The common indices array of
        // each plan is applied to every agent's buffer (O(N·B) reads per
        // trainer, O(N²·B) for the full iteration). All N plans are drawn
        // up front so the gathers become embarrassingly parallel.
        let t0 = Instant::now();
        let sampling_start = tel.map(|t| {
            t.hw_window_begin();
            t.tracer.now_ns()
        });
        let replay_len = self.replay.len();
        for k in 0..n {
            self.sampler.plan_into(
                replay_len,
                cfg.batch_size,
                &mut self.rng,
                &mut self.scratch.plans[k],
            )?;
            let plan = &self.scratch.plans[k];
            self.telemetry.plans += 1;
            self.telemetry.random_jumps += plan.random_jumps() as u64;
            let rows = plan.batch_len() as u64;
            self.telemetry.rows_gathered += rows * n as u64;
            let bytes: u64 = self
                .obs_dims
                .iter()
                .zip(&self.act_dims)
                .map(|(&od, &ad)| rows * TransitionLayout::new(od, ad).row_bytes() as u64)
                .sum();
            self.telemetry.bytes_gathered += bytes;
            if let Some(t) = tel {
                t.metrics.random_jumps.add(plan.random_jumps() as u64);
                t.metrics.gather_rows.add(rows * n as u64);
                t.metrics.gather_bytes.add(bytes);
                for seg in &plan.segments {
                    t.metrics.run_length.record(seg.len as u64);
                }
                if let Some(weights) = &plan.weights {
                    for &w in weights {
                        t.metrics.is_weight.record_scaled(w as f64, IS_WEIGHT_SCALE);
                    }
                }
            }
        }
        {
            let scratch = &mut self.scratch;
            match &self.replay {
                // Whole-plan gathers fan out over the update worker pool.
                ReplayBackend::PerAgent(r) if cfg.update_threads > 1 => {
                    r.sample_many_into(&scratch.plans, &mut scratch.batches, cfg.update_threads)?;
                }
                backend => {
                    for (plan, out) in scratch.plans.iter().zip(scratch.batches.iter_mut()) {
                        backend.sample_into(plan, cfg.sampling_threads, out)?;
                    }
                }
            }
            for (view, mb) in scratch.views.iter_mut().zip(&scratch.batches) {
                view.refill(mb, &self.obs_dims, &self.act_dims);
            }
        }
        if let Some(rec) = self.trace.as_mut() {
            for plan in &self.scratch.plans {
                rec.record_plan(plan);
            }
        }
        if let (Some(t), Some(start)) = (tel, sampling_start) {
            t.hw_window_end();
            t.metrics.replay_len.set(replay_len as f64);
            t.metrics.replay_occupancy.set(self.replay.occupancy());
            // Normalized priorities of the sampled rows (prioritized
            // strategies only — the first `None` ends the scan).
            'views: for view in &self.scratch.views {
                for &idx in &view.indices {
                    match self.sampler.normalized_priority_of(idx, replay_len) {
                        Some(p) => {
                            t.metrics.norm_priority.record_scaled(f64::from(p), PRIORITY_SCALE);
                        }
                        None => break 'views,
                    }
                }
            }
            t.tracer.record("mini-batch-sampling", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::MiniBatchSampling, t0.elapsed());

        // --- Phase 2: shared target actions. Every agent's target actor
        // proposes next actions for each staged batch exactly once (the
        // N×(N−1) cross-agent reads), instead of once per consuming
        // trainer; workers then only touch their own networks.
        let t0 = Instant::now();
        let targetq_start = tel.map(|t| t.tracer.now_ns());
        let noise = if matd3 { cfg.target_noise } else { 0.0 };
        let update_seed =
            marl_nn::rng::derive_seed(marl_nn::rng::derive_seed(cfg.seed, 2), self.updates);
        let total_obs_dim = self.total_obs_dim;
        let joint_dim = total_obs_dim + self.total_act_dim;
        let act_offsets = &self.act_offsets;
        let action_spaces = &self.action_spaces;
        let agents = &self.agents;
        let UpdateScratch {
            views,
            joint_nexts,
            noise_streams,
            ta_logits,
            ta_value,
            ta_scratch,
            ..
        } = &mut self.scratch;
        for (j, stream) in noise_streams.iter_mut().enumerate() {
            // Reseeding in place draws the same sequence as a freshly
            // constructed stream, without allocating.
            *stream = StdRng::seed_from_u64(marl_nn::rng::derive_seed(update_seed, j as u64));
        }
        for (view, joint_next) in views.iter().zip(joint_nexts.iter_mut()) {
            joint_next.resize(view.batch, joint_dim);
            let mut obs_col = 0;
            for (j, ((a, next_obs), stream)) in
                agents.iter().zip(&view.next_obs).zip(noise_streams.iter_mut()).enumerate()
            {
                joint_next.copy_columns_from(next_obs, obs_col);
                obs_col += next_obs.cols();
                a.target_actions_seg_into(
                    next_obs,
                    action_spaces[j].segments(),
                    cfg.temperature,
                    noise,
                    cfg.noise_clip,
                    stream,
                    ta_logits,
                    ta_value,
                    ta_scratch,
                );
                joint_next.copy_columns_from(ta_value, total_obs_dim + act_offsets[j]);
            }
        }
        self.telemetry.target_action_passes += n as u64;
        if let (Some(t), Some(start)) = (tel, targetq_start) {
            t.tracer.record("target-q-shared", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::TargetQ, t0.elapsed());

        // --- Phase 3: per-agent updates on the worker pool.
        let threads = cfg.update_threads.clamp(1, n);
        let updates = self.updates;
        let UpdateScratch { views, joint_nexts, tds, losses, agents: agent_scratch, .. } =
            &mut self.scratch;
        if threads == 1 {
            let profile = &mut self.profile;
            for (i, ((agent, ascr), ((view, joint_next), (td, loss)))) in self
                .agents
                .iter_mut()
                .zip(agent_scratch.iter_mut())
                .zip(
                    views.iter().zip(joint_nexts.iter()).zip(tds.iter_mut().zip(losses.iter_mut())),
                )
                .enumerate()
            {
                update_agent(
                    agent,
                    i,
                    view,
                    joint_next,
                    &cfg,
                    total_obs_dim,
                    act_offsets[i],
                    action_spaces[i].segments(),
                    updates,
                    profile,
                    ascr,
                    td,
                    loss,
                    tel,
                );
            }
        } else {
            let chunk = n.div_ceil(threads);
            let worker_profiles = parking_lot::Mutex::new(PhaseProfile::new());
            let agents = &mut self.agents;
            std::thread::scope(|scope| {
                let handles: Vec<_> = agents
                    .chunks_mut(chunk)
                    .zip(agent_scratch.chunks_mut(chunk))
                    .zip(
                        views
                            .chunks(chunk)
                            .zip(joint_nexts.chunks(chunk))
                            .zip(tds.chunks_mut(chunk).zip(losses.chunks_mut(chunk))),
                    )
                    .enumerate()
                    .map(
                        |(
                            c,
                            (
                                (agent_chunk, scr_chunk),
                                ((view_chunk, jn_chunk), (td_chunk, l_chunk)),
                            ),
                        )| {
                            let worker_profiles = &worker_profiles;
                            scope.spawn(move || {
                                let mut local = PhaseProfile::new();
                                let base = c * chunk;
                                for (k, ((agent, ascr), (td, loss))) in agent_chunk
                                    .iter_mut()
                                    .zip(scr_chunk.iter_mut())
                                    .zip(td_chunk.iter_mut().zip(l_chunk.iter_mut()))
                                    .enumerate()
                                {
                                    update_agent(
                                        agent,
                                        base + k,
                                        &view_chunk[k],
                                        &jn_chunk[k],
                                        &cfg,
                                        total_obs_dim,
                                        act_offsets[base + k],
                                        action_spaces[base + k].segments(),
                                        updates,
                                        &mut local,
                                        ascr,
                                        td,
                                        loss,
                                        tel,
                                    );
                                }
                                worker_profiles.lock().merge(&local);
                            })
                        },
                    )
                    .collect();
                for h in handles {
                    h.join().expect("update worker panicked");
                }
            });
            self.profile.merge(&worker_profiles.into_inner());
        }

        #[cfg(feature = "failpoints")]
        if crate::failpoint::take("update::tds") == Some(crate::failpoint::Fault::Nan) {
            tds[0][0] = f32::NAN;
        }

        // The sentinel vets TD errors *before* the priority refresh: a
        // NaN reaching a prioritized sampler's sum tree would abort the
        // process, whereas a Diverged error is recoverable.
        crate::sentinel::check_tds(tds, &cfg.sentinel, self.updates)
            .map_err(TrainError::Diverged)?;

        if let Some(rec) = self.trace.as_mut() {
            rec.record_losses(losses);
            rec.record_tds(tds);
        }

        // Priority refreshes happen in agent order after the pool drains,
        // matching the serial path exactly.
        for (view, td) in views.iter().zip(tds.iter()) {
            self.sampler.update_priorities(&view.indices, td);
        }

        // --- Target-network soft updates ---
        let t0 = Instant::now();
        let soft_start = tel.map(|t| t.tracer.now_ns());
        let do_target_update = self.config.algorithm == Algorithm::Maddpg
            || self.updates.is_multiple_of(self.config.policy_delay as u64);
        if do_target_update {
            for a in &mut self.agents {
                a.soft_update_targets(self.config.tau);
            }
        }
        if let (Some(t), Some(start)) = (tel, soft_start) {
            t.tracer.record("soft-update", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::SoftUpdate, t0.elapsed());
        crate::sentinel::check_agents(&self.agents, &cfg.sentinel, self.updates)
            .map_err(TrainError::Diverged)?;
        if let Some(rec) = self.trace.as_mut() {
            rec.record_params(&self.agents);
            rec.end_update(self.updates);
        }
        self.updates += 1;
        if let (Some(t), Some(start)) = (tel, update_start) {
            let end = t.tracer.now_ns();
            t.tracer.record("update-all-trainers", 0, start, end);
            t.metrics.update_ns.record(end.saturating_sub(start));
            t.metrics.updates.inc();
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
        let (obs_dims, act_dims) = (&self.obs_dims, &self.act_dims);
        let mut rest = row;
        let slot = self.replay.push_step_with(|a| {
            let layout = TransitionLayout::new(obs_dims[a], act_dims[a]);
            let (head, tail) = rest.split_at(layout.row_width());
            rest = tail;
            TransitionRef::from_row(&layout, head)
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
        self.obs_dims.iter().zip(&self.act_dims).map(|(&o, &a)| TransitionLayout::new(o, a))
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
    pub fn update_due(&self) -> bool {
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
    /// # Errors
    ///
    /// Returns [`TrainError::Replay`] if the interleaved layout cannot be
    /// de-interleaved for snapshotting.
    pub fn checkpoint_full(&self) -> Result<(Checkpoint, Vec<u8>), TrainError> {
        let replay = match &self.replay {
            ReplayBackend::PerAgent(r) => marl_core::snapshot::encode_replay(r),
            ReplayBackend::Interleaved(s) => marl_core::snapshot::encode_replay(&s.deinterleave()?),
        };
        let mut ckpt = self.checkpoint();
        // With the vectorized rollout active, world 0's stream occupies the
        // legacy `env_rng` slot (it is the scalar env's stream, so K=1
        // checkpoints restore into either path); worlds 1..K and the
        // exploration-noise streams ride in the `#[serde(default)]` fields,
        // which stay empty on the scalar path for backward compatibility.
        let (env_rng, vec_env_rngs) = match &self.vecenv {
            Some(v) => {
                let states = v.rng_states();
                (states[0], states[1..].to_vec())
            }
            None => (self.env.rng_state(), Vec::new()),
        };
        ckpt.run = Some(RunState {
            env_steps: self.env_steps,
            samples_since_update: self.samples_since_update,
            master_rng: self.rng.state(),
            env_rng,
            curve: self.curve.values().to_vec(),
            telemetry: self.telemetry,
            sampler: self.sampler.export_state(),
            profile: self.profile.clone(),
            rollout_rngs: self.rollout_rngs.iter().map(|r| r.state()).collect(),
            vec_env_rngs,
        });
        Ok((ckpt, replay.as_ref().to_vec()))
    }

    /// Restores the complete resumable state captured by
    /// [`Trainer::checkpoint_full`] (or loaded from a checkpoint file)
    /// into this trainer. The trainer must have been built from a
    /// compatible configuration (same task, agents, capacity, layout).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Checkpoint`] for weights-only checkpoints or
    /// mismatched replay geometry, [`TrainError::InvalidConfig`] for
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
        let decoded = marl_core::snapshot::decode_replay(replay_bytes.into())
            .map_err(|e| TrainError::Checkpoint(format!("replay snapshot: {e}")))?;
        let expected: Vec<TransitionLayout> = self
            .obs_dims
            .iter()
            .zip(&self.act_dims)
            .map(|(&od, &ad)| TransitionLayout::new(od, ad))
            .collect();
        if decoded.layouts() != expected || decoded.capacity() != self.config.buffer_capacity {
            return Err(TrainError::Checkpoint(
                "replay snapshot geometry does not match the trainer".into(),
            ));
        }
        self.restore(ckpt)?;
        self.sampler.import_state(&run.sampler)?;
        match &mut self.replay {
            ReplayBackend::PerAgent(r) => *r = decoded,
            ReplayBackend::Interleaved(s) => *s = InterleavedStore::reorganize_from(&decoded).0,
        }
        self.rng = StdRng::from_state(run.master_rng);
        self.env.set_rng_state(run.env_rng);
        if self.config.num_envs() > 1
            || self.vecenv.is_some()
            || !run.vec_env_rngs.is_empty()
            || !run.rollout_rngs.is_empty()
        {
            self.ensure_vec_rollout();
            let env = self.vecenv.as_mut().expect("vec env built above");
            // World 0 restores from the legacy slot; worlds 1..K from the
            // vectorized fields. A pre-vectorization checkpoint (empty
            // fields) resumes with fresh extra-world streams.
            if env.world_count() == run.vec_env_rngs.len() + 1 {
                let mut states = Vec::with_capacity(env.world_count());
                states.push(run.env_rng);
                states.extend_from_slice(&run.vec_env_rngs);
                env.set_rng_states(&states);
            }
            for (r, s) in self.rollout_rngs.iter_mut().zip(&run.rollout_rngs) {
                *r = StdRng::from_state(*s);
            }
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

    /// Greedy evaluation over `episodes` fresh episodes; returns the mean
    /// per-episode, mean-over-agents cumulative reward.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn evaluate(&mut self, episodes: usize) -> Result<f32, TrainError> {
        let n = self.agents.len();
        let mut total = 0.0f64;
        for _ in 0..episodes {
            let mut obs = self.env.reset();
            loop {
                let actions: Vec<usize> = self
                    .agents
                    .iter()
                    .zip(&obs)
                    .zip(&self.action_spaces)
                    .map(|((a, o), space)| a.act_greedy_seg(o, space.segments()))
                    .collect();
                let step = self.env.step(&actions)?;
                total += step.rewards.iter().sum::<f32>() as f64 / n as f64;
                obs = step.observations;
                if step.done {
                    break;
                }
            }
        }
        Ok((total / episodes.max(1) as f64) as f32)
    }
}

/// Target-Q tail plus critic/actor update for one agent trainer.
///
/// Pure per-agent work: it reads the staged mini-batch and precomputed
/// joint next-state input and mutates only `agent` and its scratch, so
/// the N calls of one iteration produce bitwise-identical results on any
/// worker layout. Phase timings accumulate into `profile` (worker-local
/// under the pool). The batch TD errors for the sampler's priority
/// refresh land in `td`, the scalar critic loss (twin included) in
/// `loss`; the refresh stays on the coordinating thread.
///
/// Every temporary lives in the per-agent [`AgentScratch`], so a warmed
/// call touches no heap.
#[allow(clippy::too_many_arguments)]
fn update_agent(
    agent: &mut AgentNets,
    i: usize,
    view: &BatchView,
    joint_next: &Matrix,
    cfg: &TrainConfig,
    total_obs_dim: usize,
    act_off: usize,
    segments: &[usize],
    updates: u64,
    profile: &mut PhaseProfile,
    s: &mut AgentScratch,
    td: &mut Vec<f32>,
    loss: &mut f32,
    tel: Option<&Telemetry>,
) {
    // Per-agent lane span: tid `1 + i` matches the trace lane metadata.
    let _span = tel.map(|t| t.tracer.span("agent-update", 1 + i as u32));
    let batch = view.batch;
    let matd3 = cfg.algorithm == Algorithm::Matd3;

    // --- Target Q calculation (per-agent tail) ---
    let t0 = Instant::now();
    agent.target_critic.forward_inference_into(joint_next, &mut s.tq, &mut s.nn);
    if let Some((_, t2)) = &agent.critic2 {
        t2.forward_inference_into(joint_next, &mut s.tq2, &mut s.nn);
        // Twin-critic minimum combats overestimation bias.
        for (a, b) in s.tq.as_mut_slice().iter_mut().zip(s.tq2.as_slice()) {
            *a = a.min(*b);
        }
    }
    s.y.resize(batch, 1);
    for r in 0..batch {
        let not_done = 1.0 - view.dones[r];
        *s.y.at_mut(r, 0) = view.rewards[i][r] + cfg.gamma * not_done * s.tq.at(r, 0);
    }
    profile.add(Phase::TargetQ, t0.elapsed());

    // --- Q loss (critic) + P loss (actor) ---
    let t0 = Instant::now();
    // Joint critic input [obs_1..obs_N, act_1..act_N], column-assembled
    // in place (same layout the old hstack produced). Action widths may
    // differ per agent, so the action block width is summed from the
    // staged matrices.
    let joint_dim = total_obs_dim + view.actions.iter().map(Matrix::cols).sum::<usize>();
    s.joint.resize(batch, joint_dim);
    let mut col = 0;
    for m in view.obs.iter().chain(view.actions.iter()) {
        s.joint.copy_columns_from(m, col);
        col += m.cols();
    }

    // The Q-loss critics and the actor are stepped and nobody reads their
    // input gradient: `InputGrad::None` never writes its destination, so
    // an empty (unallocated) matrix stands in for it.
    const PARAMS_ONLY: BackwardNeed = BackwardNeed { params: true, input: InputGrad::None };
    let mut unwritten = Matrix::default();

    // Critic 1.
    agent.critic.zero_grad();
    agent.critic.forward_into(&s.joint, &mut s.q);
    *loss = match &view.weights {
        Some(w) => weighted_mse_into(&s.q, &s.y, w, &mut s.grad),
        None => mse_into(&s.q, &s.y, &mut s.grad),
    };
    agent.critic.backward_need_into(&s.grad, PARAMS_ONLY, &mut unwritten, &mut s.nn);
    agent.critic_opt.step(&mut agent.critic);

    // Twin critic (MATD3).
    if let Some((c2, _)) = &mut agent.critic2 {
        c2.zero_grad();
        c2.forward_into(&s.joint, &mut s.q2);
        let l2 = match &view.weights {
            Some(w) => weighted_mse_into(&s.q2, &s.y, w, &mut s.grad),
            None => mse_into(&s.q2, &s.y, &mut s.grad),
        };
        *loss += l2;
        c2.backward_need_into(&s.grad, PARAMS_ONLY, &mut unwritten, &mut s.nn);
        agent.critic2_opt.as_mut().expect("twin optimizer").step(c2);
    }

    td_errors_into(&s.q, &s.y, td);

    // Policy update (delayed for MATD3).
    let do_policy = !matd3 || updates.is_multiple_of(cfg.policy_delay as u64);
    if do_policy {
        agent.actor.forward_into(&view.obs[i], &mut s.logits);
        softmax_relaxation_segments_into(&s.logits, segments, cfg.temperature, &mut s.action);
        // Joint input with agent i's action replaced by its relaxed
        // current-policy action (each factor normalized on its own).
        let act_dim: usize = segments.iter().sum();
        let col_off = total_obs_dim + act_off;
        s.joint_pol.copy_from(&s.joint);
        s.joint_pol.copy_columns_from(&s.action, col_off);
        agent.critic.forward_into(&s.joint_pol, &mut s.q_pol);
        // Maximize Q ⇒ gradient −1/B on every Q output. Only dQ/da_i is
        // read: no critic step follows, so no parameter gradients, and of
        // the joint input gradient just agent i's action columns.
        s.grad_q.resize(batch, 1);
        s.grad_q.fill(-1.0 / batch as f32);
        let action_cols = InputGrad::Columns { start: col_off, width: act_dim };
        agent.critic.backward_need_into(
            &s.grad_q,
            BackwardNeed { params: false, input: action_cols },
            &mut s.grad_action,
            &mut s.nn,
        );
        relaxation_backward_segments_into(
            &s.grad_action,
            &s.action,
            segments,
            cfg.temperature,
            &mut s.grad_logits,
        );
        agent.actor.zero_grad();
        agent.actor.backward_need_into(&s.grad_logits, PARAMS_ONLY, &mut unwritten, &mut s.nn);
        agent.actor_opt.step(&mut agent.actor);
    }
    profile.add(Phase::QLossPLoss, t0.elapsed());
}

/// Persistent working storage for [`Trainer::run_episode_vec`].
///
/// Sized once when the vectorized rollout path activates; after a warm-up
/// episode the batched step loop touches no heap.
#[derive(Debug)]
struct RolloutScratch {
    /// Per-agent current observations: matrix `a` is K×obs_dim(a), row w =
    /// agent `a`'s observation in world `w` (the inference batch).
    obs_cur: Vec<Matrix>,
    /// Per-agent next observations (swapped with `obs_cur` every step).
    obs_next: Vec<Matrix>,
    /// Per-agent multi-hot actions, K×flat_dim(a) (widths differ under
    /// heterogeneous action spaces).
    onehot: Vec<Matrix>,
    /// Actor logits of the current agent's inference batch.
    logits: Matrix,
    /// One-row Gumbel working buffer.
    sample_row: Matrix,
    /// MLP forward temporaries.
    nn: Scratch,
    /// Current agent's per-world action indices (length K).
    agent_idx: Vec<usize>,
    /// Joint action indices, world-major `[w * n + a]` (length K·n).
    action_idx: Vec<usize>,
    /// Per-step rewards, world-major (length K·n).
    rewards: Vec<f32>,
    /// Per-world cumulative episode rewards, world-major (length K·n).
    episode_reward: Vec<f32>,
    /// Per-world mean-over-agents returns of the last finished episode.
    world_returns: Vec<f32>,
}

impl RolloutScratch {
    fn new(worlds: usize, obs_dims: &[usize], act_dims: &[usize]) -> Self {
        let n = obs_dims.len();
        RolloutScratch {
            obs_cur: obs_dims.iter().map(|&od| Matrix::zeros(worlds, od)).collect(),
            obs_next: obs_dims.iter().map(|&od| Matrix::zeros(worlds, od)).collect(),
            onehot: act_dims.iter().map(|&ad| Matrix::zeros(worlds, ad)).collect(),
            logits: Matrix::default(),
            sample_row: Matrix::default(),
            nn: Scratch::new(),
            agent_idx: vec![0; worlds],
            action_idx: vec![0; worlds * n],
            rewards: vec![0.0; worlds * n],
            episode_reward: vec![0.0; worlds * n],
            world_returns: vec![0.0; worlds],
        }
    }
}

/// Persistent working storage for [`Trainer::update_all_trainers`].
///
/// Sized once in [`Trainer::new`] and refilled in place every iteration;
/// steady-state updates reuse all backing buffers instead of allocating.
#[derive(Debug)]
struct UpdateScratch {
    /// One sampling plan per agent trainer.
    plans: Vec<SamplePlan>,
    /// One staged mini-batch per plan.
    batches: Vec<MultiBatch>,
    /// Per-plan matrix views over the staged batches.
    views: Vec<BatchView>,
    /// Per-plan joint next-state critic inputs.
    joint_nexts: Vec<Matrix>,
    /// Per-agent target-noise RNG streams, reseeded in place per update.
    noise_streams: Vec<StdRng>,
    /// Target-action working buffers (phase 2 runs on the coordinator).
    ta_logits: Matrix,
    ta_value: Matrix,
    ta_scratch: Scratch,
    /// Per-agent TD errors of the current round.
    tds: Vec<Vec<f32>>,
    /// Per-agent critic losses of the current round (twin loss summed in
    /// for MATD3) — written by every update, read by the trace recorder.
    losses: Vec<f32>,
    /// Per-agent update working sets (one per phase-3 worker lane).
    agents: Vec<AgentScratch>,
}

impl UpdateScratch {
    fn new(n: usize, layouts: &[TransitionLayout], batch: usize) -> Self {
        UpdateScratch {
            plans: (0..n).map(|_| SamplePlan::new()).collect(),
            batches: (0..n).map(|_| MultiBatch::preallocate(layouts, batch)).collect(),
            views: (0..n).map(|_| BatchView::empty(n)).collect(),
            joint_nexts: (0..n).map(|_| Matrix::default()).collect(),
            noise_streams: (0..n).map(|_| StdRng::seed_from_u64(0)).collect(),
            ta_logits: Matrix::default(),
            ta_value: Matrix::default(),
            ta_scratch: Scratch::new(),
            tds: (0..n).map(|_| Vec::new()).collect(),
            losses: vec![0.0; n],
            agents: (0..n).map(|_| AgentScratch::default()).collect(),
        }
    }
}

/// Per-agent temporaries of one [`update_agent`] call; each phase-3
/// worker lane owns exactly one, so the pool shares nothing.
#[derive(Debug, Default)]
struct AgentScratch {
    /// Arena for MLP forward/backward temporaries.
    nn: Scratch,
    tq: Matrix,
    tq2: Matrix,
    y: Matrix,
    joint: Matrix,
    q: Matrix,
    q2: Matrix,
    grad: Matrix,
    logits: Matrix,
    action: Matrix,
    joint_pol: Matrix,
    q_pol: Matrix,
    grad_q: Matrix,
    grad_action: Matrix,
    grad_logits: Matrix,
}

/// Mini-batch reshaped into per-agent matrices. Persistent: refilled in
/// place from the staged [`MultiBatch`] each iteration.
#[derive(Debug)]
struct BatchView {
    batch: usize,
    obs: Vec<Matrix>,
    actions: Vec<Matrix>,
    next_obs: Vec<Matrix>,
    rewards: Vec<Vec<f32>>,
    dones: Vec<f32>,
    weights: Option<Vec<f32>>,
    indices: Vec<usize>,
}

impl BatchView {
    /// An empty view with `agents` lanes, ready for [`BatchView::refill`].
    fn empty(agents: usize) -> Self {
        BatchView {
            batch: 0,
            obs: (0..agents).map(|_| Matrix::default()).collect(),
            actions: (0..agents).map(|_| Matrix::default()).collect(),
            next_obs: (0..agents).map(|_| Matrix::default()).collect(),
            rewards: (0..agents).map(|_| Vec::new()).collect(),
            dones: Vec::new(),
            weights: None,
            indices: Vec::new(),
        }
    }

    /// Refills every lane from a staged batch, reusing all storage.
    fn refill(&mut self, mb: &MultiBatch, obs_dims: &[usize], act_dims: &[usize]) {
        debug_assert_eq!(self.obs.len(), mb.agents.len(), "agent count is fixed at build time");
        let batch = mb.len();
        self.batch = batch;
        for (j, (ab, (&od, &ad))) in mb.agents.iter().zip(obs_dims.iter().zip(act_dims)).enumerate()
        {
            self.obs[j].assign_from_slice(batch, od, &ab.obs);
            self.actions[j].assign_from_slice(batch, ad, &ab.actions);
            self.next_obs[j].assign_from_slice(batch, od, &ab.next_obs);
            self.rewards[j].clear();
            self.rewards[j].extend_from_slice(&ab.rewards);
        }
        self.dones.clear();
        if let Some(first) = mb.agents.first() {
            self.dones.extend_from_slice(&first.dones);
        }
        match (&mb.weights, &mut self.weights) {
            (None, w) => *w = None,
            (Some(src), Some(dst)) => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            (Some(src), w @ None) => *w = Some(src.clone()),
        }
        self.indices.clear();
        self.indices.extend_from_slice(&mb.indices);
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

/// Convenience: the PER-MADDPG baseline of the paper (MADDPG + PER
/// sampler).
pub fn per_maddpg_config(task: Task, agents: usize) -> TrainConfig {
    TrainConfig::paper_defaults(Algorithm::Maddpg, task, agents).with_sampler(SamplerConfig::Per)
}

/// Convenience: the information-prioritized MADDPG variant (IP-MADDPG).
pub fn ip_maddpg_config(task: Task, agents: usize) -> TrainConfig {
    TrainConfig::paper_defaults(Algorithm::Maddpg, task, agents)
        .with_sampler(SamplerConfig::IpLocality)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::config::LayoutMode;
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
    fn interleaved_layout_hides_per_agent_replay() {
        use crate::config::LayoutMode;
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3)
            .with_layout(LayoutMode::Interleaved);
        let mut t = Trainer::new(cfg).unwrap();
        assert!(t.replay().is_none());
        t.prefill(100).unwrap();
        assert_eq!(t.replay_len(), 100);
        t.update_all_trainers().unwrap();
    }

    #[test]
    fn parallel_sampling_matches_serial_training() {
        let mut cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        cfg.warmup = 40;
        cfg.update_every = 25;
        let run = |threads: usize| {
            let mut c = cfg;
            c.sampling_threads = threads;
            let mut t = Trainer::new(c).unwrap();
            t.train().unwrap().curve.values().to_vec()
        };
        assert_eq!(run(1), run(3), "gather parallelism must not change results");
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
        let obs = vec![0.25; 16];
        for (x, y) in a.agents.iter().zip(&b.agents) {
            assert_eq!(x.act_greedy(&obs), y.act_greedy(&obs));
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
            let (ckpt, replay) = first.checkpoint_full().unwrap();

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
        let (_, replay) = t.checkpoint_full().unwrap();
        let weights_only = t.checkpoint();
        assert!(matches!(t.restore_full(weights_only, &replay), Err(TrainError::Checkpoint(_))));
    }

    #[test]
    fn restore_full_rejects_mismatched_replay_geometry() {
        let cfg = quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let other =
            quick_config(Algorithm::Maddpg, Task::PredatorPrey, 3).with_buffer_capacity(2048);
        let a = Trainer::new(cfg).unwrap();
        let (ckpt, replay) = a.checkpoint_full().unwrap();
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

    #[test]
    fn convenience_configs() {
        let per = per_maddpg_config(Task::PredatorPrey, 3);
        assert_eq!(per.sampler, SamplerConfig::Per);
        let ip = ip_maddpg_config(Task::CooperativeNavigation, 6);
        assert_eq!(ip.sampler, SamplerConfig::IpLocality);
    }
}
