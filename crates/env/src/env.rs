//! The single-world environment: episodic reset/step over a scenario,
//! with scripted agents driven internally, returning owned observations
//! and rewards.

use crate::error::EnvError;
use crate::scenario::Scenario;
use crate::spaces::{ActionSpace, BoxSpace};
use crate::vecenv::VecParticleEnv;
use crate::world::World;

/// Result of one environment step for the trained agents.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Next observation per trained agent.
    pub observations: Vec<Vec<f32>>,
    /// Reward per trained agent.
    pub rewards: Vec<f32>,
    /// Whether the episode has reached its horizon.
    pub done: bool,
}

/// An episodic multi-agent particle environment: the one-world
/// [`VecParticleEnv`] behind an allocating interface that hands back
/// owned observations and rewards.
///
/// Scripted (environment-controlled) agents — the prey in predator-prey —
/// are stepped internally; callers only provide actions for *trained*
/// agents and only receive observations/rewards for them, exactly as the
/// paper's training loop does. A same-seed `ParticleEnv` replays world 0
/// of any K-world [`VecParticleEnv`] bit for bit.
///
/// # Examples
///
/// ```
/// use marl_env::env::ParticleEnv;
/// use marl_env::scenarios::simple_spread::{CooperativeNavigation, CooperativeNavigationConfig};
///
/// let scenario = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(3));
/// let mut env = ParticleEnv::new(Box::new(scenario), 25, 0);
/// let obs = env.reset();
/// assert_eq!(obs.len(), 3);
/// let step = env.step(&[0, 1, 2])?;
/// assert_eq!(step.rewards.len(), 3);
/// # Ok::<(), marl_env::error::EnvError>(())
/// ```
#[derive(Debug)]
pub struct ParticleEnv {
    env: VecParticleEnv,
}

impl ParticleEnv {
    /// Creates an environment with episode horizon `max_episode_len`
    /// (the paper uses 25) and a deterministic seed.
    pub fn new(scenario: Box<dyn Scenario>, max_episode_len: usize, seed: u64) -> Self {
        ParticleEnv { env: VecParticleEnv::new(vec![scenario], max_episode_len, seed) }
    }

    /// Number of trained agents (the paper's N).
    pub fn trained_agents(&self) -> usize {
        self.env.trained_agents()
    }

    /// Observation space of each trained agent.
    pub fn observation_spaces(&self) -> Vec<BoxSpace> {
        self.env.observation_spaces()
    }

    /// Action space of each trained agent (movement-only scenarios share
    /// the 5-way space; communication scenarios may differ per agent).
    pub fn action_spaces(&self) -> &[ActionSpace] {
        self.env.action_spaces()
    }

    /// Read-only access to the underlying world (for tests/diagnostics).
    pub fn world(&self) -> &World {
        self.env.world(0)
    }

    /// Starts a new episode; returns the initial observation per trained
    /// agent.
    pub fn reset(&mut self) -> Vec<Vec<f32>> {
        self.env.reset();
        self.observe()
    }

    /// Applies one action per trained agent, steps scripted agents and
    /// physics, and returns the transition outcome. A rejected step
    /// leaves the environment untouched.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::ActionCountMismatch`] if `actions.len()` differs
    /// from [`ParticleEnv::trained_agents`], or
    /// [`EnvError::InvalidAction`] for an out-of-range action index.
    pub fn step(&mut self, actions: &[usize]) -> Result<StepResult, EnvError> {
        let mut rewards = vec![0.0; self.trained_agents()];
        let done = self.env.step(actions, &mut rewards)?;
        Ok(StepResult { observations: self.observe(), rewards, done })
    }

    fn observe(&self) -> Vec<Vec<f32>> {
        let spaces = self.env.observation_spaces();
        let mut obs: Vec<Vec<f32>> = spaces.iter().map(|s| vec![0.0; s.dim]).collect();
        for (a, o) in obs.iter_mut().enumerate() {
            self.env.observe_into(a, 0, o);
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::simple_spread::{CooperativeNavigation, CooperativeNavigationConfig};
    use crate::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};

    fn cn_env(n: usize) -> ParticleEnv {
        ParticleEnv::new(
            Box::new(CooperativeNavigation::new(CooperativeNavigationConfig::scaled(n))),
            25,
            3,
        )
    }

    fn pp_env(n: usize) -> ParticleEnv {
        ParticleEnv::new(Box::new(PredatorPrey::new(PredatorPreyConfig::scaled(n))), 25, 3)
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let mut env = cn_env(3);
        env.reset();
        for t in 1..=25 {
            let r = env.step(&[0, 0, 0]).unwrap();
            assert_eq!(r.done, t == 25, "t={t}");
        }
    }

    #[test]
    fn single_step_horizon_terminates_immediately() {
        let mut env = ParticleEnv::new(
            Box::new(CooperativeNavigation::new(CooperativeNavigationConfig::scaled(2))),
            1,
            0,
        );
        env.reset();
        assert!(env.step(&[0, 0]).unwrap().done);
        // reset starts a fresh episode
        env.reset();
        assert!(env.step(&[0, 0]).unwrap().done);
    }

    #[test]
    fn action_count_is_validated() {
        let mut env = cn_env(3);
        env.reset();
        let err = env.step(&[0, 0]).unwrap_err();
        assert!(matches!(err, EnvError::ActionCountMismatch { expected: 3, got: 2 }));
    }

    #[test]
    fn invalid_action_is_rejected() {
        let mut env = cn_env(2);
        env.reset();
        let err = env.step(&[0, 9]).unwrap_err();
        assert!(matches!(err, EnvError::InvalidAction { action: 9, .. }));
    }

    #[test]
    fn predator_prey_exposes_only_predators() {
        let mut env = pp_env(3);
        assert_eq!(env.trained_agents(), 3);
        let obs = env.reset();
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].len(), 16);
        let spaces = env.observation_spaces();
        assert_eq!(spaces.len(), 3);
        assert!(spaces.iter().all(|s| s.dim == 16));
    }

    #[test]
    fn prey_moves_without_external_actions() {
        let mut env = pp_env(3);
        env.reset();
        let prey_before = env.world().agents[3].state.position;
        // Push predators toward the prey for several steps so it flees.
        for _ in 0..10 {
            env.step(&[2, 2, 2]).unwrap();
        }
        let prey_after = env.world().agents[3].state.position;
        assert_ne!(prey_before, prey_after, "scripted prey should move");
    }

    #[test]
    fn observations_are_in_space() {
        let mut env = pp_env(6);
        let obs = env.reset();
        for (o, s) in obs.iter().zip(env.observation_spaces()) {
            assert!(s.contains(o));
        }
    }

    #[test]
    fn same_seed_same_rollout() {
        let run = |seed: u64| {
            let mut env = ParticleEnv::new(
                Box::new(PredatorPrey::new(PredatorPreyConfig::scaled(3))),
                25,
                seed,
            );
            env.reset();
            let mut trace = vec![];
            for _ in 0..5 {
                let r = env.step(&[1, 2, 3]).unwrap();
                trace.push(r.rewards);
            }
            trace
        };
        assert_eq!(run(9), run(9));
    }
}
