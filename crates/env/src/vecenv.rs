//! The vectorized multi-world environment: K episodic particle
//! environments stepped in lockstep over one [`SoaBatch`]. This is the
//! only environment implementation; [`ParticleEnv`] is its one-world,
//! allocating adapter.
//!
//! Per-world state that the [`Scenario`] seam owns — observations,
//! rewards, scripted behaviour, reset randomization, interior scenario
//! state like the deception goal — stays on the authoritative AoS
//! [`World`]s; the SoA batch only accelerates the physics step. Each
//! world carries its *own* scenario instance (scenarios may hold
//! per-episode state) and its own RNG stream:
//!
//! * world 0 is seeded `StdRng::seed_from_u64(seed)`, so world 0 of any
//!   K replays a same-seed one-world env bitwise and its stream fills a
//!   checkpoint's single `env_rng` slot;
//! * world `w > 0` draws from `derive_seed(derive_seed(seed, 4), w)`, a
//!   stream disjoint from the trainer's master (stream 1), update
//!   (stream 2) and exploration (stream 3) streams.
//!
//! Worlds run in lockstep: `done` is purely horizon-driven in the MPE
//! tasks, so all K worlds finish together and the batch is always full.
//!
//! [`ParticleEnv`]: crate::env::ParticleEnv

use crate::entity::DiscreteAction;
use crate::error::EnvError;
use crate::scenario::Scenario;
use crate::soa::SoaBatch;
use crate::spaces::{ActionSpace, BoxSpace};
use crate::world::World;
use marl_nn::rng::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// K particle environments stepped as one batch.
///
/// Actions and rewards are laid out world-major: index `w * n + a` for
/// trained agent `a` in world `w` (n = [`VecParticleEnv::trained_agents`]).
#[derive(Debug)]
pub struct VecParticleEnv {
    scenarios: Vec<Box<dyn Scenario>>,
    worlds: Vec<World>,
    soa: SoaBatch,
    rngs: Vec<StdRng>,
    max_episode_len: usize,
    t: usize,
    trained: Vec<usize>,
    scripted: Vec<usize>,
    action_spaces: Vec<ActionSpace>,
}

impl VecParticleEnv {
    /// Creates K worlds from K scenario instances (one per world — built
    /// from the same configuration — because scenarios may carry
    /// per-episode state).
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn new(scenarios: Vec<Box<dyn Scenario>>, max_episode_len: usize, seed: u64) -> Self {
        assert!(!scenarios.is_empty(), "need at least one world");
        let worlds: Vec<World> = scenarios.iter().map(|s| s.make_world()).collect();
        let trained: Vec<usize> = worlds[0]
            .agents
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_trained())
            .map(|(i, _)| i)
            .collect();
        let scripted = worlds[0]
            .agents
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_trained())
            .map(|(i, _)| i)
            .collect();
        let rngs = (0..scenarios.len())
            .map(|w| {
                if w == 0 {
                    StdRng::seed_from_u64(seed)
                } else {
                    StdRng::seed_from_u64(derive_seed(derive_seed(seed, 4), w as u64))
                }
            })
            .collect();
        let soa = SoaBatch::new(&worlds[0], worlds.len());
        let action_spaces: Vec<ActionSpace> =
            trained.iter().map(|&i| scenarios[0].action_space(&worlds[0], i)).collect();
        for (&i, space) in trained.iter().zip(&action_spaces) {
            if space.comm_dim() > 0 {
                assert_eq!(
                    worlds[0].agents[i].comm.len(),
                    space.comm_dim(),
                    "scenario must size agent {i}'s comm buffer to its declared comm factors"
                );
            }
        }
        VecParticleEnv {
            scenarios,
            worlds,
            soa,
            rngs,
            max_episode_len,
            t: 0,
            trained,
            scripted,
            action_spaces,
        }
    }

    /// Number of worlds stepped per batch (K).
    pub fn world_count(&self) -> usize {
        self.worlds.len()
    }

    /// Number of trained agents per world (the paper's N).
    pub fn trained_agents(&self) -> usize {
        self.trained.len()
    }

    /// Episode horizon (shared by all worlds).
    pub fn max_episode_len(&self) -> usize {
        self.max_episode_len
    }

    /// Scenario name (identical across worlds).
    pub fn scenario_name(&self) -> &str {
        self.scenarios[0].name()
    }

    /// Observation space of each trained agent (identical across worlds).
    pub fn observation_spaces(&self) -> Vec<BoxSpace> {
        self.trained
            .iter()
            .map(|&i| BoxSpace::new(self.scenarios[0].observation_dim(&self.worlds[0], i)))
            .collect()
    }

    /// Action space of each trained agent (identical across worlds).
    pub fn action_spaces(&self) -> &[ActionSpace] {
        &self.action_spaces
    }

    /// Read-only access to world `w` (tests/diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn world(&self, w: usize) -> &World {
        &self.worlds[w]
    }

    /// Per-world RNG states, for checkpointing (world order). Allocation
    /// is fine here: this runs at checkpoint boundaries, not per step.
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.rngs.iter().map(|r| r.state()).collect()
    }

    /// Restores the per-world random streams captured by
    /// [`VecParticleEnv::rng_states`].
    ///
    /// # Panics
    ///
    /// Panics if the state count disagrees with the world count.
    pub fn set_rng_states(&mut self, states: &[[u64; 4]]) {
        assert_eq!(states.len(), self.rngs.len(), "rng state count mismatch");
        for (r, &s) in self.rngs.iter_mut().zip(states) {
            *r = StdRng::from_state(s);
        }
    }

    /// Starts a new episode in every world.
    pub fn reset(&mut self) {
        for ((scenario, world), rng) in
            self.scenarios.iter().zip(&mut self.worlds).zip(&mut self.rngs)
        {
            scenario.reset_world(world, rng);
        }
        self.t = 0;
    }

    /// Writes trained agent `agent`'s observation in world `w` into `out`
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or `out` has the wrong
    /// length.
    pub fn observe_into(&self, agent: usize, w: usize, out: &mut [f32]) {
        self.scenarios[w].observation_into(&self.worlds[w], self.trained[agent], out);
    }

    /// Applies one action per trained agent per world (world-major:
    /// `actions[w * n + a]`), steps scripted agents and the batched
    /// physics, and writes per-agent rewards into `rewards` with the same
    /// layout. Returns whether the (shared) episode horizon was reached.
    ///
    /// Allocation-free: observations are pulled separately via
    /// [`VecParticleEnv::observe_into`].
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::ActionCountMismatch`] if `actions.len()` is not
    /// `K * n`, or [`EnvError::InvalidAction`] for an out-of-range index.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len() != actions.len()`.
    pub fn step(&mut self, actions: &[usize], rewards: &mut [f32]) -> Result<bool, EnvError> {
        let n = self.trained.len();
        let expected = n * self.worlds.len();
        if actions.len() != expected {
            return Err(EnvError::ActionCountMismatch { expected, got: actions.len() });
        }
        assert_eq!(rewards.len(), expected, "reward buffer size mismatch");
        // Validate every world's actions before applying any, so a
        // rejected step leaves all K worlds untouched.
        for (i, &action) in actions.iter().enumerate() {
            if !self.action_spaces[i % n].contains(action) {
                return Err(EnvError::InvalidAction { agent: self.trained[i % n], action });
            }
        }
        for (w, world) in self.worlds.iter_mut().enumerate() {
            for (a, &agent_idx) in self.trained.iter().enumerate() {
                let segments = self.action_spaces[a].segments();
                let mut rest = actions[w * n + a];
                let act = DiscreteAction::from_index(rest % segments[0])
                    .expect("movement factor is the 5-way discrete set");
                rest /= segments[0];
                let agent = &mut world.agents[agent_idx];
                agent.action_force = act.direction();
                // Comm utterances land on the authoritative AoS worlds
                // before the SoA gather; the batched physics never reads
                // them, and observations read the AoS state post-scatter.
                // The one-hot utterance replaces the previous step's and
                // shows in teammates' *next* observations.
                if segments.len() > 1 {
                    agent.comm.fill(0.0);
                    let mut off = 0;
                    for &s in &segments[1..] {
                        agent.comm[off + rest % s] = 1.0;
                        rest /= s;
                        off += s;
                    }
                }
            }
        }
        for (w, world) in self.worlds.iter_mut().enumerate() {
            for k in 0..self.scripted.len() {
                let agent_idx = self.scripted[k];
                let act = self.scenarios[w].scripted_action(world, agent_idx, &mut self.rngs[w]);
                world.agents[agent_idx].action_force = act.direction();
            }
        }
        self.soa.gather(&self.worlds);
        self.soa.step();
        self.soa.scatter(&mut self.worlds);
        self.t += 1;
        for (w, world) in self.worlds.iter().enumerate() {
            for (a, &agent_idx) in self.trained.iter().enumerate() {
                rewards[w * n + a] = self.scenarios[w].reward(world, agent_idx);
            }
        }
        Ok(self.t >= self.max_episode_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};

    fn vec_env(k: usize, seed: u64) -> VecParticleEnv {
        let scenarios: Vec<Box<dyn Scenario>> = (0..k)
            .map(|_| {
                Box::new(PredatorPrey::new(PredatorPreyConfig::scaled(3))) as Box<dyn Scenario>
            })
            .collect();
        VecParticleEnv::new(scenarios, 25, seed)
    }

    /// Worlds beyond 0 draw from disjoint streams: same seed reproduces
    /// them, and they differ from world 0.
    #[test]
    fn extra_worlds_are_deterministic_and_decorrelated() {
        let mut a = vec_env(4, 7);
        let mut b = vec_env(4, 7);
        a.reset();
        b.reset();
        for w in 0..4 {
            for (ga, gb) in a.world(w).agents.iter().zip(&b.world(w).agents) {
                assert_eq!(ga.state.position, gb.state.position, "world {w} not reproducible");
            }
        }
        let p0 = a.world(0).agents[0].state.position;
        let p1 = a.world(1).agents[0].state.position;
        assert_ne!(p0, p1, "worlds share a random stream");
    }

    #[test]
    fn action_count_is_validated() {
        let mut env = vec_env(2, 0);
        env.reset();
        let mut rewards = vec![0.0; 6];
        let err = env.step(&[0, 0, 0], &mut rewards).unwrap_err();
        assert!(matches!(err, EnvError::ActionCountMismatch { expected: 6, got: 3 }));
    }
}
