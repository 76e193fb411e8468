//! The scenario abstraction: world construction, observations, rewards and
//! scripted (environment-controlled) behaviour.

use crate::entity::DiscreteAction;
use crate::spaces::ActionSpace;
use crate::world::World;
use rand::rngs::StdRng;

/// A multi-agent particle scenario (cooperative or competitive task).
///
/// Implementations mirror the `Scenario` classes of the OpenAI
/// multiagent-particle-envs: they build the world, randomize it on reset,
/// and define per-agent observations and rewards.
///
/// The trait is object-safe; environments hold a `Box<dyn Scenario>`.
pub trait Scenario: std::fmt::Debug + Send {
    /// Human-readable scenario name (e.g. `"predator-prey"`).
    fn name(&self) -> &str;

    /// Builds the initial world with all entities configured.
    fn make_world(&self) -> World;

    /// Randomizes entity positions/velocities at episode start.
    fn reset_world(&self, world: &mut World, rng: &mut StdRng);

    /// Length of agent `agent_idx`'s observation: the buffer length
    /// [`Scenario::observation_into`] fills.
    fn observation_dim(&self, world: &World, agent_idx: usize) -> usize;

    /// Writes agent `agent_idx`'s observation into `out` without
    /// allocating. This is the one observation body; training and
    /// [`Scenario::observation`] both run it.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`Scenario::observation_dim`].
    fn observation_into(&self, world: &World, agent_idx: usize, out: &mut [f32]);

    /// Observation vector for agent `agent_idx`, allocated.
    fn observation(&self, world: &World, agent_idx: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.observation_dim(world, agent_idx)];
        self.observation_into(world, agent_idx, &mut out);
        out
    }

    /// Reward for agent `agent_idx` in the current world state.
    fn reward(&self, world: &World, agent_idx: usize) -> f32;

    /// Action chosen by the environment for a scripted agent.
    ///
    /// Only called for agents whose role is not trained; the default keeps
    /// scripted agents static.
    fn scripted_action(
        &self,
        _world: &World,
        _agent_idx: usize,
        _rng: &mut StdRng,
    ) -> DiscreteAction {
        DiscreteAction::Stay
    }

    /// Action space of agent `agent_idx`. The default is the movement-only
    /// 5-way space; scenarios with communication actions return
    /// movement ⊕ comm factors (and must size [`crate::entity::Agent::comm`]
    /// to the comm width in `make_world`).
    fn action_space(&self, _world: &World, _agent_idx: usize) -> ActionSpace {
        ActionSpace::movement()
    }
}

/// Helpers shared by scenario implementations.
pub mod util {
    use crate::vec2::Vec2;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Uniform position in `[-extent, extent]²`.
    pub fn uniform_position(rng: &mut StdRng, extent: f32) -> Vec2 {
        Vec2::new(rng.gen_range(-extent..=extent), rng.gen_range(-extent..=extent))
    }

    /// MPE boundary penalty for one coordinate: zero inside ±0.9, linear to
    /// ±1.0, then exponential (capped at 10).
    pub fn bound_penalty(x: f32) -> f32 {
        let x = x.abs();
        if x < 0.9 {
            0.0
        } else if x < 1.0 {
            (x - 0.9) * 10.0
        } else {
            ((2.0 * x - 2.0).exp()).min(10.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::util::bound_penalty;

    #[test]
    fn bound_penalty_regions() {
        assert_eq!(bound_penalty(0.0), 0.0);
        assert_eq!(bound_penalty(0.89), 0.0);
        assert!((bound_penalty(0.95) - 0.5).abs() < 1e-6);
        assert!(bound_penalty(1.5) > bound_penalty(1.1));
        assert!(bound_penalty(10.0) <= 10.0);
        // symmetric
        assert_eq!(bound_penalty(-0.95), bound_penalty(0.95));
    }
}
