//! Training configuration matching the paper's software settings
//! (Section V): two-layer 64-unit ReLU MLPs, Adam @ 0.01, γ = 0.95,
//! τ = 0.01, batch 1024, 1 M replay slots, updates every 100 pushed
//! samples, 25-step episodes.

use marl_core::config::SamplerConfig;
use serde::{Deserialize, Serialize};

/// Which MARL algorithm to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Multi-agent DDPG (Lowe et al., 2017).
    Maddpg,
    /// Multi-agent TD3 (Ackermann et al., 2019): twin delayed centralized
    /// critics + target-policy smoothing.
    Matd3,
}

impl Algorithm {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Maddpg => "MADDPG",
            Algorithm::Matd3 => "MATD3",
        }
    }
}

/// Which particle task to train on.
///
/// Historically a three-variant enum; now the scenario id from the
/// marl-env plug-in registry, so any registered scenario — built-in or
/// downstream — trains without touching this crate. The associated
/// constants (`Task::PredatorPrey`, …) keep existing `match` patterns and
/// call sites compiling, and the serde form is the kebab-case scenario
/// name (any registered alias is accepted on read).
pub use marl_env::registry::ScenarioId as Task;

/// How transition data is laid out in memory (Section IV-B2): the address
/// map of the trainer's one replay store. Serialized as `"PerAgent"` /
/// `"Interleaved"`.
pub use marl_core::multi::LayoutMode;

/// Full training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Task/environment.
    pub task: Task,
    /// Number of trained agents (the paper's N axis: 3/6/12/24/48).
    pub agents: usize,
    /// Mini-batch sampling strategy.
    pub sampler: SamplerConfig,
    /// Transition data layout (per-agent baseline or interleaved).
    pub layout: LayoutMode,
    /// Episodes to train (paper: 60 000; scale down for quick runs).
    pub episodes: usize,
    /// Maximum episode length (paper: 25).
    pub max_episode_len: usize,
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Replay capacity in rows (paper: 1 000 000).
    pub buffer_capacity: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// Discount factor γ (paper: 0.95).
    pub gamma: f32,
    /// Target-network Polyak rate τ (paper: 0.01).
    pub tau: f32,
    /// Network updates happen after this many samples are added
    /// (paper: 100).
    pub update_every: usize,
    /// Minimum stored rows before updates begin.
    pub warmup: usize,
    /// Gumbel-softmax temperature for action relaxation (used in the
    /// update phases; rollout exploration follows `exploration`).
    pub temperature: f32,
    /// Rollout exploration schedule (temperature + ε-greedy annealing).
    pub exploration: crate::explore::ExplorationSchedule,
    /// MATD3 only: critic updates per policy/target update.
    pub policy_delay: usize,
    /// MATD3 only: std-dev of target-policy smoothing noise on logits.
    pub target_noise: f32,
    /// MATD3 only: clip bound for the smoothing noise.
    pub noise_clip: f32,
    /// Worker threads for *update all trainers* (1 = serial): the N
    /// trainers' mini-batch gathers and their critic/actor updates. Plans
    /// are drawn and target actions staged serially, after which the
    /// trainers are independent, so the phase fans out without changing
    /// results.
    pub update_threads: usize,
    /// Autosave a full run-state checkpoint every this many episodes
    /// (0 = no autosave). Checkpoints are taken at episode boundaries,
    /// where the environment's world state is fully determined by its RNG
    /// stream, so a resumed run is bitwise-identical to an uninterrupted
    /// one.
    pub checkpoint_every: usize,
    /// Divergence sentinel thresholds and retry budget.
    pub sentinel: crate::sentinel::SentinelConfig,
    /// Parallel environments stepped per rollout batch (K) by the one
    /// rollout loop ([`crate::rollout::Rollout`]); K = 1 is one world.
    /// `#[serde(default)]` (0) is normalized to 1 by
    /// [`TrainConfig::num_envs`], so pre-existing checkpoints deserialize
    /// unchanged.
    #[serde(default)]
    pub num_envs: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's hyper-parameters for a given algorithm/task/agent count,
    /// with episode count and buffer capacity left at *scaled* defaults
    /// suitable for commodity runs (override for full-fidelity runs).
    pub fn paper_defaults(algorithm: Algorithm, task: Task, agents: usize) -> Self {
        TrainConfig {
            algorithm,
            task,
            agents,
            sampler: SamplerConfig::Uniform,
            layout: LayoutMode::PerAgent,
            episodes: 300,
            max_episode_len: 25,
            batch_size: 1024,
            buffer_capacity: 50_000,
            learning_rate: 0.01,
            gamma: 0.95,
            tau: 0.01,
            update_every: 100,
            warmup: 2048,
            temperature: 1.0,
            exploration: crate::explore::ExplorationSchedule::default(),
            policy_delay: 2,
            target_noise: 0.2,
            noise_clip: 0.5,
            update_threads: 1,
            checkpoint_every: 0,
            sentinel: crate::sentinel::SentinelConfig::default(),
            num_envs: 1,
            seed: 0,
        }
    }

    /// Effective parallel-environment count: the raw field with the
    /// serde-default 0 (configs predating the field) normalized to 1.
    pub fn num_envs(&self) -> usize {
        self.num_envs.max(1)
    }

    /// Overrides the sampler strategy (builder style).
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Overrides the transition data layout (builder style).
    pub fn with_layout(mut self, layout: LayoutMode) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides the episode budget (builder style).
    pub fn with_episodes(mut self, episodes: usize) -> Self {
        self.episodes = episodes;
        self
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides batch size and warmup coherently (builder style).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self.warmup = self.warmup.max(2 * batch);
        self
    }

    /// Overrides the parallel-update thread count (builder style).
    pub fn with_update_threads(mut self, threads: usize) -> Self {
        self.update_threads = threads;
        self
    }

    /// Overrides the replay capacity (builder style).
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        self.buffer_capacity = capacity;
        self
    }

    /// Overrides the autosave cadence in episodes (builder style;
    /// 0 disables autosave).
    pub fn with_checkpoint_every(mut self, episodes: usize) -> Self {
        self.checkpoint_every = episodes;
        self
    }

    /// Overrides the divergence sentinel settings (builder style).
    pub fn with_sentinel(mut self, sentinel: crate::sentinel::SentinelConfig) -> Self {
        self.sentinel = sentinel;
        self
    }

    /// Overrides the parallel-environment count K (builder style).
    ///
    /// K = 0 is meaningless (there is no zero-world rollout) and the CLI
    /// already rejects `--num-envs 0`; the builder clamps it to 1 at
    /// construction so a stored config never carries a zero that every
    /// call site would have to re-normalize. The raw field still admits 0
    /// via serde for configs predating `num_envs`, which
    /// [`TrainConfig::num_envs`] normalizes on read.
    pub fn with_num_envs(mut self, num_envs: usize) -> Self {
        self.num_envs = num_envs.max(1);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an inconsistent configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.agents == 0 {
            return Err("agents must be positive".into());
        }
        if self.batch_size == 0 || self.batch_size > self.buffer_capacity {
            return Err("batch size must be in 1..=buffer_capacity".into());
        }
        if self.warmup < self.batch_size {
            return Err("warmup must be at least one batch".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.tau) {
            return Err("tau must be in [0,1]".into());
        }
        if self.temperature <= 0.0 {
            return Err("temperature must be positive".into());
        }
        if self.policy_delay == 0 {
            return Err("policy delay must be >= 1".into());
        }
        if self.update_threads == 0 {
            return Err("update threads must be >= 1".into());
        }
        if self.sentinel.enabled
            && (!self.sentinel.max_abs_td.is_finite()
                || self.sentinel.max_abs_td <= 0.0
                || !self.sentinel.max_abs_param.is_finite()
                || self.sentinel.max_abs_param <= 0.0)
        {
            return Err("sentinel thresholds must be finite and positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        assert_eq!(c.batch_size, 1024);
        assert_eq!(c.max_episode_len, 25);
        assert_eq!(c.learning_rate, 0.01);
        assert_eq!(c.gamma, 0.95);
        assert_eq!(c.tau, 0.01);
        assert_eq!(c.update_every, 100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = TrainConfig::paper_defaults(Algorithm::Matd3, Task::CooperativeNavigation, 6)
            .with_sampler(SamplerConfig::LocalityN64R16)
            .with_episodes(10)
            .with_batch_size(64)
            .with_update_threads(4)
            .with_seed(7);
        assert_eq!(c.episodes, 10);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.update_threads, 4);
        assert_eq!(c.seed, 7);
        assert!(c.warmup >= 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let mut c = base;
        c.agents = 0;
        assert!(c.validate().is_err());
        c = base;
        c.batch_size = 0;
        assert!(c.validate().is_err());
        c = base;
        c.warmup = 1;
        assert!(c.validate().is_err());
        c = base;
        c.gamma = 1.5;
        assert!(c.validate().is_err());
        c = base;
        c.temperature = 0.0;
        assert!(c.validate().is_err());
        c = base;
        c.policy_delay = 0;
        assert!(c.validate().is_err());
        c = base;
        c.update_threads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn checkpoint_and_sentinel_defaults() {
        let c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        assert_eq!(c.checkpoint_every, 0, "autosave is opt-in");
        assert!(c.sentinel.enabled, "sentinel is on by default");
        let c = c.with_checkpoint_every(50);
        assert_eq!(c.checkpoint_every, 50);
        assert!(c.validate().is_ok());
        let mut bad = c;
        bad.sentinel.max_abs_td = f32::NAN;
        assert!(bad.validate().is_err());
        bad.sentinel.enabled = false;
        assert!(bad.validate().is_ok(), "disabled sentinel skips threshold checks");
    }

    #[test]
    fn layout_builder_and_default() {
        let c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        assert_eq!(c.layout, LayoutMode::PerAgent);
        let c = c.with_layout(LayoutMode::Interleaved);
        assert_eq!(c.layout, LayoutMode::Interleaved);
        assert!(c.validate().is_ok());
        // Serialized as the variant names, which checkpoints and goldens store.
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"layout\":\"Interleaved\""), "{json}");
        let per = json.replace("\"Interleaved\"", "\"PerAgent\"");
        assert_eq!(serde_json::from_str::<TrainConfig>(&per).unwrap().layout, LayoutMode::PerAgent);
    }

    #[test]
    fn num_envs_defaults_to_one_and_tolerates_old_configs() {
        let c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        assert_eq!(c.num_envs(), 1);
        let c = c.with_num_envs(8);
        assert_eq!(c.num_envs(), 8);
        // A config serialized before `num_envs` existed (≤ PR 5) must still
        // deserialize, and the serde-default 0 must behave as K = 1.
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"num_envs\":8"));
        let legacy = json.replace(",\"num_envs\":8", "");
        assert!(!legacy.contains("num_envs"));
        let back: TrainConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.num_envs, 0);
        assert_eq!(back.num_envs(), 1);
    }

    #[test]
    fn with_num_envs_zero_clamps_at_construction() {
        // The CLI rejects `--num-envs 0`; the builder must not silently
        // store a 0 that every call site would have to re-normalize.
        let c =
            TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_num_envs(0);
        assert_eq!(c.num_envs, 1, "builder clamps the raw field, not just the accessor");
        assert_eq!(c.num_envs(), 1);
        assert!(c.validate().is_ok());
        // Clamping must not disturb legitimate values.
        assert_eq!(c.with_num_envs(4).num_envs, 4);
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Maddpg.label(), "MADDPG");
        assert_eq!(Task::CooperativeNavigation.label(), "cooperative-navigation");
    }
}
