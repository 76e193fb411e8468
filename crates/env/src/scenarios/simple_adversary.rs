//! Physical deception (`simple_adversary`): N−A cooperating *good* agents
//! and A *adversaries* among L landmarks, one of which is the secret goal.
//! Good agents know the goal and must cover it while spreading over decoys
//! so the adversary — which cannot see which landmark is the goal — cannot
//! infer it.
//!
//! This scenario is an **extension beyond the paper's evaluated tasks**
//! (the paper uses predator-prey and cooperative navigation): it exercises
//! *mixed* cooperative-competitive training with heterogeneous observation
//! widths, which stresses the replay layouts differently (good agents and
//! adversaries have different row widths).

use crate::entity::{Agent, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the physical-deception scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalDeceptionConfig {
    /// Cooperating good agents.
    pub good_agents: usize,
    /// Adversaries (cannot observe the goal).
    pub adversaries: usize,
    /// Landmarks; the goal is chosen among them at reset.
    pub landmarks: usize,
}

impl PhysicalDeceptionConfig {
    /// Paper-style scaling from a total trained-agent count: one third
    /// (at least one) adversaries, the rest good agents, one landmark per
    /// good agent.
    pub fn scaled(total_agents: usize) -> Self {
        assert!(total_agents >= 2, "need at least one good agent and one adversary");
        let adversaries = (total_agents / 3).max(1);
        let good_agents = total_agents - adversaries;
        PhysicalDeceptionConfig { good_agents, adversaries, landmarks: good_agents.max(2) }
    }
}

/// The physical-deception scenario. All agents are trained (the adversary
/// is a learning agent, unlike the scripted prey of predator-prey).
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_adversary::{PhysicalDeception, PhysicalDeceptionConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(3));
/// let w = s.make_world();
/// assert_eq!(w.trained_agent_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalDeception {
    config: PhysicalDeceptionConfig,
    /// Index of the goal landmark (rotated at every reset).
    goal: std::cell::Cell<usize>,
}

impl PhysicalDeception {
    /// Creates the scenario.
    pub fn new(config: PhysicalDeceptionConfig) -> Self {
        PhysicalDeception { config, goal: std::cell::Cell::new(0) }
    }

    /// The active configuration.
    pub fn config(&self) -> &PhysicalDeceptionConfig {
        &self.config
    }

    /// Index of the current goal landmark.
    pub fn goal_landmark(&self) -> usize {
        self.goal.get()
    }

    /// Whether world-agent `idx` is an adversary (adversaries come first,
    /// mirroring the predator ordering of `simple_tag`).
    fn is_adversary(&self, idx: usize) -> bool {
        idx < self.config.adversaries
    }

    fn goal_position(&self, world: &World) -> Vec2 {
        world.landmarks[self.goal.get()].state.position
    }
}

impl Scenario for PhysicalDeception {
    fn name(&self) -> &str {
        "physical-deception"
    }

    fn make_world(&self) -> World {
        let mut world = World::new();
        for i in 0..self.config.adversaries {
            let mut a = Agent::new(format!("adversary-{i}"), Role::Cooperator);
            a.size = 0.075;
            a.accel = 3.0;
            a.max_speed = Some(1.0);
            world.agents.push(a);
        }
        for i in 0..self.config.good_agents {
            let mut a = Agent::new(format!("good-{i}"), Role::Cooperator);
            a.size = 0.05;
            a.accel = 4.0;
            a.max_speed = Some(1.3);
            world.agents.push(a);
        }
        for i in 0..self.config.landmarks {
            // Landmarks are non-colliding markers here.
            world.landmarks.push(Landmark::new(format!("landmark-{i}"), 0.08, false));
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
        self.goal.set(rng.gen_range(0..world.landmarks.len()));
    }

    fn observation_dim(&self, world: &World, agent_idx: usize) -> usize {
        let goal = if self.is_adversary(agent_idx) { 0 } else { 2 };
        goal + 2 * world.landmarks.len() + 2 * (world.agents.len() - 1)
    }

    /// Good agents observe `[goal_rel(2), landmarks_rel(2L),
    /// others_rel(2(A−1))]`; adversaries the same minus the goal prefix.
    fn observation_into(&self, world: &World, agent_idx: usize, out: &mut [f32]) {
        let me = &world.agents[agent_idx];
        let mut off = 0;
        if !self.is_adversary(agent_idx) {
            let g = self.goal_position(world) - me.state.position;
            out[0] = g.x;
            out[1] = g.y;
            off = 2;
        }
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
        assert_eq!(off, out.len(), "observation buffer size mismatch");
    }

    fn reward(&self, world: &World, agent_idx: usize) -> f32 {
        let goal = self.goal_position(world);
        if self.is_adversary(agent_idx) {
            // Adversary: closer to the goal is better.
            -world.agents[agent_idx].state.position.distance(goal)
        } else {
            // Good team: cover the goal (min distance of any good agent)
            // and keep adversaries away from it.
            let good_min = world
                .agents
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.is_adversary(*i))
                .map(|(_, a)| a.state.position.distance(goal))
                .fold(f32::INFINITY, f32::min);
            let adv_sum: f32 = world
                .agents
                .iter()
                .enumerate()
                .filter(|(i, _)| self.is_adversary(*i))
                .map(|(_, a)| a.state.position.distance(goal))
                .sum();
            adv_sum - good_min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn scaled_splits_roles() {
        let c = PhysicalDeceptionConfig::scaled(3);
        assert_eq!((c.adversaries, c.good_agents, c.landmarks), (1, 2, 2));
        let c = PhysicalDeceptionConfig::scaled(12);
        assert_eq!((c.adversaries, c.good_agents), (4, 8));
    }

    #[test]
    fn observation_widths_are_heterogeneous() {
        let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(3));
        let w = s.make_world();
        // adversary: 2L + 2(A-1) = 4 + 4 = 8; good: +2 goal = 10
        assert_eq!(s.observation(&w, 0).len(), 8);
        assert_eq!(s.observation(&w, 1).len(), 10);
        assert_eq!(s.observation(&w, 2).len(), 10);
    }

    #[test]
    fn goal_rotates_across_resets() {
        let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(6));
        let mut w = s.make_world();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            s.reset_world(&mut w, &mut r);
            seen.insert(s.goal_landmark());
        }
        assert!(seen.len() > 1, "goal should vary across episodes");
    }

    #[test]
    fn adversary_reward_prefers_goal_proximity() {
        let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        let goal = w.landmarks[s.goal_landmark()].state.position;
        w.agents[0].state.position = goal;
        let near = s.reward(&w, 0);
        w.agents[0].state.position = goal + Vec2::new(1.0, 1.0);
        let far = s.reward(&w, 0);
        assert!(near > far);
    }

    #[test]
    fn good_reward_rises_when_adversary_is_decoyed() {
        let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        let goal = w.landmarks[s.goal_landmark()].state.position;
        // A good agent covers the goal in both cases.
        w.agents[1].state.position = goal;
        w.agents[0].state.position = goal; // adversary on goal
        let bad = s.reward(&w, 1);
        w.agents[0].state.position = goal + Vec2::new(2.0, 0.0); // decoyed
        let good = s.reward(&w, 1);
        assert!(good > bad);
    }

    #[test]
    fn good_agents_share_reward() {
        let s = PhysicalDeception::new(PhysicalDeceptionConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        assert_eq!(s.reward(&w, 1), s.reward(&w, 2));
    }
}
