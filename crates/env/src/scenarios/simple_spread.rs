//! Cooperative navigation (`simple_spread`): N agents cover N landmarks
//! while avoiding collisions.
//!
//! Observation layout (6·N dimensions, matching the paper: `Box(18,)` for
//! 3 agents, `Box(144,)` for 24):
//!
//! `[self_vel(2), self_pos(2), landmark_rel(2N), other_agents_rel(2(N−1)),
//!   other_agents_comm(2(N−1))]`

use crate::entity::{Agent, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of the cooperative-navigation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooperativeNavigationConfig {
    /// Number of trained agents (== number of landmarks).
    pub agents: usize,
}

impl CooperativeNavigationConfig {
    /// N agents, N landmarks (the paper's configuration).
    pub fn scaled(agents: usize) -> Self {
        assert!(agents > 0, "need at least one agent");
        CooperativeNavigationConfig { agents }
    }
}

/// The cooperative-navigation scenario.
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_spread::{CooperativeNavigation, CooperativeNavigationConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(3));
/// let w = s.make_world();
/// assert_eq!(s.observation(&w, 0).len(), 18);
/// ```
#[derive(Debug, Clone)]
pub struct CooperativeNavigation {
    config: CooperativeNavigationConfig,
}

impl CooperativeNavigation {
    /// Creates the scenario from a configuration.
    pub fn new(config: CooperativeNavigationConfig) -> Self {
        CooperativeNavigation { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CooperativeNavigationConfig {
        &self.config
    }

    /// Shared team term: −Σ_landmark min_agent dist(agent, landmark).
    fn coverage_term(world: &World) -> f32 {
        let mut rew = 0.0;
        for l in &world.landmarks {
            let min_dist = world
                .agents
                .iter()
                .map(|a| a.state.position.distance(l.state.position))
                .fold(f32::INFINITY, f32::min);
            if min_dist.is_finite() {
                rew -= min_dist;
            }
        }
        rew
    }
}

impl Scenario for CooperativeNavigation {
    fn name(&self) -> &str {
        "cooperative-navigation"
    }

    fn make_world(&self) -> World {
        let mut world = World::new();
        for i in 0..self.config.agents {
            let mut a = Agent::new(format!("agent-{i}"), Role::Cooperator);
            a.size = 0.15;
            a.accel = 5.0;
            a.max_speed = None;
            world.agents.push(a);
        }
        for i in 0..self.config.agents {
            world.landmarks.push(Landmark::new(format!("landmark-{i}"), 0.05, false));
        }
        world
    }

    fn reset_world(&self, world: &mut World, rng: &mut StdRng) {
        for a in &mut world.agents {
            a.state.position = util::uniform_position(rng, 1.0);
            a.state.velocity = Vec2::ZERO;
            a.action_force = Vec2::ZERO;
            a.comm.fill(0.0);
        }
        for l in &mut world.landmarks {
            l.state.position = util::uniform_position(rng, 0.9);
            l.state.velocity = Vec2::ZERO;
        }
    }

    fn observation_dim(&self, world: &World, _agent_idx: usize) -> usize {
        4 + 2 * world.landmarks.len() + 4 * (world.agents.len() - 1)
    }

    fn observation_into(&self, world: &World, agent_idx: usize, out: &mut [f32]) {
        let me = &world.agents[agent_idx];
        out[0] = me.state.velocity.x;
        out[1] = me.state.velocity.y;
        out[2] = me.state.position.x;
        out[3] = me.state.position.y;
        let mut off = 4;
        for l in &world.landmarks {
            let d = l.state.position - me.state.position;
            out[off] = d.x;
            out[off + 1] = d.y;
            off += 2;
        }
        for (i, other) in world.agents.iter().enumerate() {
            if i == agent_idx {
                continue;
            }
            let d = other.state.position - me.state.position;
            out[off] = d.x;
            out[off + 1] = d.y;
            off += 2;
        }
        for (i, other) in world.agents.iter().enumerate() {
            if i == agent_idx {
                continue;
            }
            out[off] = other.comm[0];
            out[off + 1] = other.comm[1];
            off += 2;
        }
        assert_eq!(off, out.len(), "observation buffer size mismatch");
    }

    fn reward(&self, world: &World, agent_idx: usize) -> f32 {
        let mut rew = Self::coverage_term(world);
        // Per-agent collision penalty.
        for j in 0..world.agents.len() {
            if world.is_collision(agent_idx, j) {
                rew -= 1.0;
            }
        }
        rew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn paper_observation_dims() {
        for (n, dim) in [(3usize, 18usize), (6, 36), (12, 72), (24, 144)] {
            let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(n));
            let w = s.make_world();
            assert_eq!(s.observation(&w, 0).len(), dim, "N={n}");
        }
    }

    #[test]
    fn reward_improves_with_coverage() {
        let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        // Scatter agents far from landmarks, measure, then place each agent
        // on a landmark.
        for (i, a) in w.agents.iter_mut().enumerate() {
            a.state.position = Vec2::new(-1.0 + 0.9 * i as f32, -1.0);
        }
        let bad = s.reward(&w, 0);
        let landmark_pos: Vec<Vec2> = w.landmarks.iter().map(|l| l.state.position).collect();
        for (a, p) in w.agents.iter_mut().zip(landmark_pos) {
            a.state.position = p;
        }
        let good = s.reward(&w, 0);
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn collisions_are_penalized() {
        let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        for a in &mut w.agents {
            a.state.position = Vec2::new(5.0, 5.0); // far from landmarks, overlapping
        }
        let overlapping = s.reward(&w, 0);
        w.agents[0].state.position = Vec2::new(5.0, 6.0);
        w.agents[1].state.position = Vec2::new(6.0, 5.0);
        let separated = s.reward(&w, 0);
        // Collision penalty: overlapping is strictly worse beyond the small
        // coverage difference.
        assert!(overlapping < separated - 1.0);
    }

    #[test]
    fn reward_is_shared_up_to_collisions() {
        let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(4));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        // no collisions in this layout
        for (i, a) in w.agents.iter_mut().enumerate() {
            a.state.position = Vec2::new(i as f32, 2.0);
        }
        let r0 = s.reward(&w, 0);
        let r1 = s.reward(&w, 1);
        assert!((r0 - r1).abs() < 1e-6);
    }

    #[test]
    fn comm_channels_observed_as_zero_when_silent() {
        let s = CooperativeNavigation::new(CooperativeNavigationConfig::scaled(3));
        let w = s.make_world();
        let obs = s.observation(&w, 0);
        // last 2(N-1) = 4 entries are comm of others
        assert!(obs[obs.len() - 4..].iter().all(|&x| x == 0.0));
    }
}
