//! Cooperative reference (`simple_reference`): N agents among L landmarks,
//! each assigned a secret goal landmark that only its *partner* can see.
//! An agent's action is movement ⊕ a discrete utterance; the utterance is
//! broadcast into every other agent's next observation, so reaching one's
//! goal requires the partner to learn a communication protocol.
//!
//! This is the suite's first scenario whose optimal policy is impossible
//! without the comm factor: agent `i` observes `goal[(i+1) % N]` (its
//! partner's target) but never its own, and the shared reward is the mean
//! goal-coverage across the team.

use crate::entity::{Agent, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::spaces::ActionSpace;
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Configuration of the cooperative-reference scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooperativeReferenceConfig {
    /// Number of trained agents (each both speaker and listener).
    pub agents: usize,
    /// Landmarks; each agent's goal is chosen among them at reset.
    pub landmarks: usize,
    /// Utterance alphabet size (the comm factor width).
    pub comm_symbols: usize,
}

impl CooperativeReferenceConfig {
    /// MPE-style scaling from a trained-agent count: at least three
    /// landmarks (so goals stay ambiguous) and the classic 10-symbol
    /// alphabet.
    pub fn scaled(agents: usize) -> Self {
        assert!(agents >= 2, "reference needs a speaker and a listener");
        CooperativeReferenceConfig { agents, landmarks: agents.max(3), comm_symbols: 10 }
    }
}

/// The cooperative-reference scenario. Every agent is trained and speaks
/// with the same `[5, comm_symbols]` action space.
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_reference::{CooperativeReference, CooperativeReferenceConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
/// let w = s.make_world();
/// let space = s.action_space(&w, 0);
/// assert_eq!(space.segments(), &[5, 10]);
/// ```
#[derive(Debug, Clone)]
pub struct CooperativeReference {
    config: CooperativeReferenceConfig,
    /// Goal landmark per agent (re-drawn at every reset).
    goals: RefCell<Vec<usize>>,
}

impl CooperativeReference {
    /// Creates the scenario.
    pub fn new(config: CooperativeReferenceConfig) -> Self {
        CooperativeReference { config, goals: RefCell::new(vec![0; config.agents]) }
    }

    /// The active configuration.
    pub fn config(&self) -> &CooperativeReferenceConfig {
        &self.config
    }

    /// Goal landmark of agent `idx` in the current episode.
    pub fn goal_of(&self, idx: usize) -> usize {
        self.goals.borrow()[idx]
    }

    /// The partner whose goal agent `idx` observes (ring order).
    fn partner_of(&self, idx: usize) -> usize {
        (idx + 1) % self.config.agents
    }

    /// Shared team term: −mean_j dist(agent_j, goal_j).
    fn coverage_term(&self, world: &World) -> f32 {
        let goals = self.goals.borrow();
        let mut sum = 0.0;
        for (a, &g) in world.agents.iter().zip(goals.iter()) {
            sum += a.state.position.distance(world.landmarks[g].state.position);
        }
        -sum / world.agents.len() as f32
    }
}

impl Scenario for CooperativeReference {
    fn name(&self) -> &str {
        "cooperative-reference"
    }

    fn make_world(&self) -> World {
        let mut world = World::new();
        for i in 0..self.config.agents {
            let mut a = Agent::new(format!("agent-{i}"), Role::Cooperator);
            a.size = 0.05;
            a.accel = 5.0;
            a.max_speed = None;
            a.collide = false;
            // Size the channel to the declared comm factor; the env writes
            // the one-hot utterance here each step.
            a.comm = vec![0.0; self.config.comm_symbols];
            world.agents.push(a);
        }
        for i in 0..self.config.landmarks {
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
        let mut goals = self.goals.borrow_mut();
        for g in goals.iter_mut() {
            *g = rng.gen_range(0..world.landmarks.len());
        }
    }

    fn observation_dim(&self, world: &World, _agent_idx: usize) -> usize {
        2 + 3 * world.landmarks.len() + self.config.comm_symbols * (world.agents.len() - 1)
    }

    /// `[self_vel(2), landmark_rel(2L), partner_goal_onehot(L),
    ///   others_comm(C·(N−1))]` — note the agent's *own* goal never
    /// appears; it must be decoded from teammates' utterances.
    fn observation_into(&self, world: &World, agent_idx: usize, out: &mut [f32]) {
        let me = &world.agents[agent_idx];
        out[0] = me.state.velocity.x;
        out[1] = me.state.velocity.y;
        let mut off = 2;
        for lm in &world.landmarks {
            let d = lm.state.position - me.state.position;
            out[off] = d.x;
            out[off + 1] = d.y;
            off += 2;
        }
        let partner_goal = self.goal_of(self.partner_of(agent_idx));
        for i in 0..world.landmarks.len() {
            out[off] = if i == partner_goal { 1.0 } else { 0.0 };
            off += 1;
        }
        for (i, other) in world.agents.iter().enumerate() {
            if i == agent_idx {
                continue;
            }
            out[off..off + other.comm.len()].copy_from_slice(&other.comm);
            off += other.comm.len();
        }
        assert_eq!(off, out.len(), "observation buffer size mismatch");
    }

    fn reward(&self, world: &World, _agent_idx: usize) -> f32 {
        self.coverage_term(world)
    }

    fn action_space(&self, _world: &World, _agent_idx: usize) -> ActionSpace {
        ActionSpace::movement_with_comm(self.config.comm_symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn scaled_keeps_goals_ambiguous() {
        let c = CooperativeReferenceConfig::scaled(2);
        assert_eq!((c.agents, c.landmarks, c.comm_symbols), (2, 3, 10));
        let c = CooperativeReferenceConfig::scaled(6);
        assert_eq!((c.agents, c.landmarks), (6, 6));
    }

    #[test]
    fn observation_dims_include_goal_and_comm() {
        // N=2, L=3, C=10: 2 + 6 + 3 + 10 = 21
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
        let w = s.make_world();
        assert_eq!(s.observation(&w, 0).len(), 21);
        assert_eq!(s.observation(&w, 1).len(), 21);
        // N=3, L=3, C=10: 2 + 6 + 3 + 20 = 31
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(3));
        let w = s.make_world();
        assert_eq!(s.observation(&w, 0).len(), 31);
    }

    #[test]
    fn agent_observes_partner_goal_not_its_own() {
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
        let mut w = s.make_world();
        let mut r = rng();
        // Find a reset where the two goals differ.
        loop {
            s.reset_world(&mut w, &mut r);
            if s.goal_of(0) != s.goal_of(1) {
                break;
            }
        }
        let l = w.landmarks.len();
        let obs0 = s.observation(&w, 0);
        let onehot = &obs0[2 + 2 * l..2 + 3 * l];
        assert_eq!(onehot[s.goal_of(1)], 1.0, "agent 0 sees agent 1's goal");
        assert_eq!(onehot[s.goal_of(0)], 0.0, "agent 0 never sees its own goal");
    }

    #[test]
    fn utterances_appear_in_teammate_observations() {
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        w.agents[1].comm[7] = 1.0;
        let obs0 = s.observation(&w, 0);
        let comm_tail = &obs0[obs0.len() - 10..];
        assert_eq!(comm_tail[7], 1.0);
        assert_eq!(comm_tail.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn reward_is_shared_and_improves_with_coverage() {
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        assert_eq!(s.reward(&w, 0), s.reward(&w, 1));
        for (i, a) in w.agents.iter_mut().enumerate() {
            a.state.position = Vec2::new(5.0 + i as f32, 5.0);
        }
        let bad = s.reward(&w, 0);
        let goals: Vec<usize> = (0..w.agents.len()).map(|i| s.goal_of(i)).collect();
        for (a, &g) in w.agents.iter_mut().zip(&goals) {
            a.state.position = w.landmarks[g].state.position;
        }
        let good = s.reward(&w, 0);
        assert!(good > bad, "good={good} bad={bad}");
        assert!((good - 0.0).abs() < 1e-6, "perfect coverage is zero reward");
    }

    #[test]
    fn goals_rotate_across_resets() {
        let s = CooperativeReference::new(CooperativeReferenceConfig::scaled(2));
        let mut w = s.make_world();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            s.reset_world(&mut w, &mut r);
            seen.insert((s.goal_of(0), s.goal_of(1)));
        }
        assert!(seen.len() > 1, "goals should vary across episodes");
    }
}
