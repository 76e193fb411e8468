//! Keep-away (`simple_push`): cooperating *good* agents try to reach a
//! goal landmark while *adversaries* — who can see the landmarks but not
//! which one is the goal — shove them away from it. Adversaries are
//! rewarded for being near the goal while keeping good agents far from it,
//! so the learned behaviour is physical blocking.
//!
//! Like `simple_adversary` this is a mixed cooperative-competitive task
//! with heterogeneous observation widths (good agents carry a goal-relative
//! prefix adversaries lack); unlike it, agents here observe their own
//! velocity, which matters for the contact-heavy pushing dynamics.

use crate::entity::{Agent, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the keep-away scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeepAwayConfig {
    /// Cooperating good agents (want to reach the goal).
    pub good_agents: usize,
    /// Adversaries (push good agents off the goal).
    pub adversaries: usize,
    /// Landmarks; the goal is chosen among them at reset.
    pub landmarks: usize,
}

impl KeepAwayConfig {
    /// Paper-style scaling from a total trained-agent count: one third
    /// (at least one) adversaries, the rest good agents, one landmark per
    /// good agent (at least two so the goal is ambiguous).
    pub fn scaled(total_agents: usize) -> Self {
        assert!(total_agents >= 2, "need at least one good agent and one adversary");
        let adversaries = (total_agents / 3).max(1);
        let good_agents = total_agents - adversaries;
        KeepAwayConfig { good_agents, adversaries, landmarks: good_agents.max(2) }
    }
}

/// The keep-away scenario. All agents are trained; adversaries come first
/// in the world agent order (mirroring `simple_adversary`).
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_push::{KeepAway, KeepAwayConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = KeepAway::new(KeepAwayConfig::scaled(3));
/// let w = s.make_world();
/// assert_eq!(w.trained_agent_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct KeepAway {
    config: KeepAwayConfig,
    /// Index of the goal landmark (rotated at every reset).
    goal: std::cell::Cell<usize>,
}

impl KeepAway {
    /// Creates the scenario.
    pub fn new(config: KeepAwayConfig) -> Self {
        KeepAway { config, goal: std::cell::Cell::new(0) }
    }

    /// The active configuration.
    pub fn config(&self) -> &KeepAwayConfig {
        &self.config
    }

    /// Index of the current goal landmark.
    pub fn goal_landmark(&self) -> usize {
        self.goal.get()
    }

    /// Whether world-agent `idx` is an adversary (adversaries come first).
    fn is_adversary(&self, idx: usize) -> bool {
        idx < self.config.adversaries
    }

    fn goal_position(&self, world: &World) -> Vec2 {
        world.landmarks[self.goal.get()].state.position
    }
}

impl Scenario for KeepAway {
    fn name(&self) -> &str {
        "keep-away"
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
            // Landmarks are non-colliding markers: adversaries block with
            // their bodies, not the terrain.
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
        2 + goal + 2 * world.landmarks.len() + 2 * (world.agents.len() - 1)
    }

    /// Good agents observe `[vel(2), goal_rel(2), landmarks_rel(2L),
    /// others_rel(2(A−1))]`; adversaries the same minus the goal prefix.
    fn observation_into(&self, world: &World, agent_idx: usize, out: &mut [f32]) {
        let me = &world.agents[agent_idx];
        out[0] = me.state.velocity.x;
        out[1] = me.state.velocity.y;
        let mut off = 2;
        if !self.is_adversary(agent_idx) {
            let g = self.goal_position(world) - me.state.position;
            out[off] = g.x;
            out[off + 1] = g.y;
            off += 2;
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
        let good_min = world
            .agents
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_adversary(*i))
            .map(|(_, a)| a.state.position.distance(goal))
            .fold(f32::INFINITY, f32::min);
        if self.is_adversary(agent_idx) {
            // Adversary: keep good agents off the goal while holding it.
            good_min - world.agents[agent_idx].state.position.distance(goal)
        } else {
            // Good agent: reach the goal.
            -world.agents[agent_idx].state.position.distance(goal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn scaled_splits_roles() {
        let c = KeepAwayConfig::scaled(3);
        assert_eq!((c.adversaries, c.good_agents, c.landmarks), (1, 2, 2));
        let c = KeepAwayConfig::scaled(12);
        assert_eq!((c.adversaries, c.good_agents, c.landmarks), (4, 8, 8));
    }

    #[test]
    fn observation_widths_are_heterogeneous() {
        let s = KeepAway::new(KeepAwayConfig::scaled(3));
        let w = s.make_world();
        // adversary: vel(2) + 2L + 2(A-1) = 2 + 4 + 4 = 10; good: +2 goal = 12
        assert_eq!(s.observation(&w, 0).len(), 10);
        assert_eq!(s.observation(&w, 1).len(), 12);
        assert_eq!(s.observation(&w, 2).len(), 12);
    }

    #[test]
    fn goal_rotates_across_resets() {
        let s = KeepAway::new(KeepAwayConfig::scaled(6));
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
    fn good_reward_prefers_goal_proximity() {
        let s = KeepAway::new(KeepAwayConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        let goal = w.landmarks[s.goal_landmark()].state.position;
        w.agents[1].state.position = goal;
        let near = s.reward(&w, 1);
        w.agents[1].state.position = goal + Vec2::new(1.0, 1.0);
        let far = s.reward(&w, 1);
        assert!(near > far);
    }

    #[test]
    fn adversary_reward_rises_when_good_agents_are_pushed_off() {
        let s = KeepAway::new(KeepAwayConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        let goal = w.landmarks[s.goal_landmark()].state.position;
        w.agents[0].state.position = goal; // adversary holds the goal
        w.agents[1].state.position = goal;
        w.agents[2].state.position = goal;
        let contested = s.reward(&w, 0);
        w.agents[1].state.position = goal + Vec2::new(2.0, 0.0);
        w.agents[2].state.position = goal + Vec2::new(0.0, 2.0);
        let cleared = s.reward(&w, 0);
        assert!(cleared > contested);
    }
}
