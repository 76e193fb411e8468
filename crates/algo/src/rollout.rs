//! The rollout loop's state: K environment worlds, their exploration
//! streams, and the working storage of one batched step.
//!
//! Every episode this system collects — the trainer's at any
//! [`TrainConfig::num_envs`], K = 1 included, and a dist worker's — goes
//! through one [`Rollout`]. One step is four calls, so a caller can time
//! the paper's rollout phases separately:
//!
//! 1. [`Rollout::select_actions`] (action selection): per agent, one
//!    batched actor inference over the K observations, then per world the
//!    Gumbel draws and the ε-greedy draws;
//! 2. [`Rollout::step`] (environment step): the batched SoA physics step
//!    plus the next observations;
//! 3. [`Rollout::transition`] for each world and agent (bookkeeping: the
//!    caller pushes the borrowed rows into replay or a wire frame);
//! 4. [`Rollout::advance`]: rewards accumulate and the next observations
//!    become the current ones.
//!
//! **Streams.** World 0's env stream is the env seed itself, so world 0
//! does not depend on K (the checkpoint's `env_rng` slot); worlds
//! `w > 0` draw from stream 4, sub-stream `w`. At
//! K = 1 the exploration noise comes from the caller's master RNG; at
//! K > 1 world `w` has its own stream (stream 3, sub-stream `w`). Building
//! a `Rollout` draws nothing from any caller stream.
//!
//! Once the first episode has sized the working storage, the step loop
//! touches no heap.

use crate::agent::{act_explore_batch, act_greedy_batch};
use crate::config::TrainConfig;
use marl_core::transition::TransitionRef;
use marl_env::error::EnvError;
use marl_env::spaces::ActionSpace;
use marl_env::vecenv::VecParticleEnv;
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::rng::derive_seed;
use marl_nn::scratch::Scratch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// K worlds stepped in lockstep, with the noise streams and buffers of
/// one batched step. Index conventions: `w` is a world, `a` a trained
/// agent; per-step actions and rewards are world-major (`w * n + a`).
#[derive(Debug)]
pub struct Rollout {
    env: VecParticleEnv,
    /// Per-world exploration-noise streams (K > 1 only).
    noise: Vec<StdRng>,
    /// Per-agent current observations: matrix `a` is K×obs_dim(a), row
    /// `w` = agent `a`'s observation in world `w` (the inference batch).
    obs_cur: Vec<Matrix>,
    /// Per-agent next observations (swapped with `obs_cur` by `advance`).
    obs_next: Vec<Matrix>,
    /// Per-agent multi-hot actions, K×flat_dim(a).
    onehot: Vec<Matrix>,
    /// Actor logits of the current agent's inference batch.
    logits: Matrix,
    /// MLP forward temporaries.
    nn: Scratch,
    /// Current agent's per-world action indices (length K).
    agent_idx: Vec<usize>,
    /// Joint action indices, world-major (length K·n).
    action_idx: Vec<usize>,
    /// Last step's rewards, world-major (length K·n).
    rewards: Vec<f32>,
    /// Cumulative episode rewards, world-major (length K·n).
    episode_reward: Vec<f32>,
    /// Whether the last step ended the episode (all worlds share it).
    done: bool,
}

impl Rollout {
    /// Builds `worlds` copies of `config`'s scenario with fresh env and
    /// exploration streams derived from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is 0.
    pub fn new(config: &TrainConfig, worlds: usize) -> Self {
        let env =
            config.task.make_vec_env(config.agents, config.max_episode_len, config.seed, worlds);
        let noise = if worlds > 1 {
            let stream = derive_seed(config.seed, 3);
            (0..worlds).map(|w| StdRng::seed_from_u64(derive_seed(stream, w as u64))).collect()
        } else {
            Vec::new()
        };
        let obs_dims: Vec<usize> = env.observation_spaces().iter().map(|s| s.dim).collect();
        let act_dims: Vec<usize> = env.action_spaces().iter().map(ActionSpace::flat_dim).collect();
        let zeros = |dims: &[usize]| -> Vec<Matrix> {
            dims.iter().map(|&d| Matrix::zeros(worlds, d)).collect()
        };
        let n = obs_dims.len();
        Rollout {
            obs_cur: zeros(&obs_dims),
            obs_next: zeros(&obs_dims),
            onehot: zeros(&act_dims),
            env,
            noise,
            logits: Matrix::default(),
            nn: Scratch::new(),
            agent_idx: vec![0; worlds],
            action_idx: vec![0; worlds * n],
            rewards: vec![0.0; worlds * n],
            episode_reward: vec![0.0; worlds * n],
            done: false,
        }
    }

    /// The K-world environment (spaces, per-world state).
    pub fn env(&self) -> &VecParticleEnv {
        &self.env
    }

    /// Number of worlds (K).
    pub(crate) fn worlds(&self) -> usize {
        self.env.world_count()
    }

    /// Starts a new episode in every world and observes it.
    pub fn reset(&mut self) {
        self.env.reset();
        for (a, m) in self.obs_cur.iter_mut().enumerate() {
            for w in 0..self.env.world_count() {
                self.env.observe_into(a, w, m.row_mut(w));
            }
        }
        self.episode_reward.fill(0.0);
        self.done = false;
    }

    /// Exploration actions for every world: per agent one batched
    /// inference of its actor (`actors`, in agent order), then per world
    /// `flat_dim` Gumbel draws and — when `epsilon > 0` — the ε draw and,
    /// if it hits, a uniform joint action. Noise comes from `master` at
    /// K = 1 and from the per-world streams at K > 1.
    pub fn select_actions<'a>(
        &mut self,
        actors: impl IntoIterator<Item = &'a Mlp>,
        temperature: f32,
        epsilon: f32,
        master: &mut StdRng,
    ) {
        let _fp = marl_nn::fp::flush_to_zero();
        let n = self.env.action_spaces().len();
        let rngs: &mut [StdRng] =
            if self.noise.is_empty() { std::slice::from_mut(master) } else { &mut self.noise };
        for (a, (actor, space)) in actors.into_iter().zip(self.env.action_spaces()).enumerate() {
            act_explore_batch(
                actor,
                &self.obs_cur[a],
                space.segments(),
                temperature,
                rngs,
                &mut self.logits,
                &mut self.nn,
                &mut self.agent_idx,
            );
            if epsilon > 0.0 {
                for (w, rng) in rngs.iter_mut().enumerate() {
                    if rng.gen::<f32>() < epsilon {
                        self.agent_idx[w] = rng.gen_range(0..space.joint_count());
                    }
                }
            }
            for (w, &idx) in self.agent_idx.iter().enumerate() {
                space.multi_hot(idx, self.onehot[a].row_mut(w));
                self.action_idx[w * n + a] = idx;
            }
        }
    }

    /// Greedy actions for every world (per-factor arg-max of one batched
    /// inference of each agent's actor, `actors` in agent order); draws
    /// nothing.
    pub fn select_greedy<'a>(&mut self, actors: impl IntoIterator<Item = &'a Mlp>) {
        let _fp = marl_nn::fp::flush_to_zero();
        let n = self.env.action_spaces().len();
        for (a, (actor, space)) in actors.into_iter().zip(self.env.action_spaces()).enumerate() {
            act_greedy_batch(
                actor,
                &self.obs_cur[a],
                space.segments(),
                &mut self.logits,
                &mut self.nn,
                &mut self.agent_idx,
            );
            for (w, &idx) in self.agent_idx.iter().enumerate() {
                self.action_idx[w * n + a] = idx;
            }
        }
    }

    /// Uniformly random joint actions, one `gen_range` per agent per
    /// world (world-major) from `master`.
    pub(crate) fn select_random(&mut self, master: &mut StdRng) {
        let spaces = self.env.action_spaces();
        let n = spaces.len();
        for w in 0..self.env.world_count() {
            for (a, space) in spaces.iter().enumerate() {
                let idx = master.gen_range(0..space.joint_count());
                self.action_idx[w * n + a] = idx;
                space.multi_hot(idx, self.onehot[a].row_mut(w));
            }
        }
    }

    /// The joint action indices the last selection chose, world-major
    /// (`w * n + a`) — what [`Rollout::step`] applies.
    pub fn actions(&self) -> &[usize] {
        &self.action_idx
    }

    /// Applies the selected actions in every world and observes the
    /// result. Returns whether the (shared) episode horizon was reached.
    ///
    /// # Errors
    ///
    /// Propagates [`VecParticleEnv::step`] failures.
    pub fn step(&mut self) -> Result<bool, EnvError> {
        self.done = self.env.step(&self.action_idx, &mut self.rewards)?;
        for (a, m) in self.obs_next.iter_mut().enumerate() {
            for w in 0..self.env.world_count() {
                self.env.observe_into(a, w, m.row_mut(w));
            }
        }
        Ok(self.done)
    }

    /// Agent `a`'s transition of the last step in world `w`, borrowed
    /// from the step buffers (valid until [`Rollout::advance`]).
    pub fn transition(&self, w: usize, a: usize) -> TransitionRef<'_> {
        TransitionRef {
            obs: self.obs_cur[a].row(w),
            action: self.onehot[a].row(w),
            reward: self.rewards[w * self.obs_cur.len() + a],
            next_obs: self.obs_next[a].row(w),
            done: if self.done { 1.0 } else { 0.0 },
        }
    }

    /// The last step's rewards, world-major.
    pub(crate) fn rewards(&self) -> &[f32] {
        &self.rewards
    }

    /// Adds the last step's rewards to the episode returns and makes the
    /// next observations current.
    pub fn advance(&mut self) {
        for (er, r) in self.episode_reward.iter_mut().zip(&self.rewards) {
            *er += r;
        }
        std::mem::swap(&mut self.obs_cur, &mut self.obs_next);
    }

    /// Per-world mean-over-agents return of the episode so far, world
    /// order.
    pub fn world_returns(&self) -> impl Iterator<Item = f32> + '_ {
        let n = self.obs_cur.len();
        self.episode_reward.chunks(n).map(move |r| r.iter().sum::<f32>() / n as f32)
    }

    /// Per-world env RNG states, world order (checkpoint boundaries only:
    /// allocates).
    pub fn env_rng_states(&self) -> Vec<[u64; 4]> {
        self.env.rng_states()
    }

    /// Installs per-world env RNG states captured by
    /// [`Rollout::env_rng_states`].
    ///
    /// # Panics
    ///
    /// Panics if the state count is not K.
    pub fn set_env_rng_states(&mut self, states: &[[u64; 4]]) {
        self.env.set_rng_states(states);
    }

    /// Per-world exploration-noise states (empty at K = 1, where the
    /// master RNG supplies the noise).
    pub(crate) fn noise_rng_states(&self) -> Vec<[u64; 4]> {
        self.noise.iter().map(StdRng::state).collect()
    }

    /// Installs exploration-noise states captured by
    /// [`Rollout::noise_rng_states`].
    ///
    /// # Panics
    ///
    /// Panics if the state count disagrees with the stream count.
    pub(crate) fn set_noise_rng_states(&mut self, states: &[[u64; 4]]) {
        assert_eq!(states.len(), self.noise.len(), "noise stream count mismatch");
        for (r, &s) in self.noise.iter_mut().zip(states) {
            *r = StdRng::from_state(s);
        }
    }
}
