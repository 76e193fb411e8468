//! World-comm (`simple_world_comm`): predator-prey with a *leader*.
//! Predator 0 carries a discrete broadcast channel on top of its movement
//! action; the other predators hear the previous utterance in their next
//! observation. The prey stay scripted exactly as in `simple_tag`.
//!
//! This is the suite's stress test for **heterogeneous action spaces**:
//! the leader's space is `MultiDiscrete(5, 4)` while every other predator
//! keeps plain `Discrete(5)`, so per-agent action dims differ within one
//! team — which is what the trainer's per-agent offset plumbing exists
//! for.

use crate::entity::{Agent, DiscreteAction, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::spaces::ActionSpace;
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of the world-comm scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldCommConfig {
    /// Trained predators; the first is the speaking leader.
    pub predators: usize,
    /// Scripted prey.
    pub prey: usize,
    /// Landmarks (obstacles).
    pub landmarks: usize,
    /// Leader utterance alphabet size.
    pub comm_symbols: usize,
}

impl WorldCommConfig {
    /// The `simple_tag` scaling rule plus the MPE leader channel of four
    /// symbols.
    pub fn scaled(predators: usize) -> Self {
        assert!(predators >= 2, "world-comm needs a leader and at least one listener");
        WorldCommConfig {
            predators,
            prey: (predators / 3).max(1),
            landmarks: (predators / 3).max(2),
            comm_symbols: 4,
        }
    }
}

/// The world-comm scenario.
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_world_comm::{WorldComm, WorldCommConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = WorldComm::new(WorldCommConfig::scaled(3));
/// let w = s.make_world();
/// assert_eq!(s.action_space(&w, 0).segments(), &[5, 4]); // leader speaks
/// assert_eq!(s.action_space(&w, 1).segments(), &[5]);    // listeners move
/// ```
#[derive(Debug, Clone)]
pub struct WorldComm {
    config: WorldCommConfig,
}

impl WorldComm {
    /// Creates the scenario.
    pub fn new(config: WorldCommConfig) -> Self {
        WorldComm { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorldCommConfig {
        &self.config
    }

    /// Whether world-agent `idx` is the speaking leader.
    pub fn is_leader(&self, idx: usize) -> bool {
        idx == 0
    }

    fn prey_indices(world: &World) -> impl Iterator<Item = usize> + '_ {
        world.agents.iter().enumerate().filter(|(_, a)| a.role == Role::Prey).map(|(i, _)| i)
    }

    fn predator_indices(world: &World) -> impl Iterator<Item = usize> + '_ {
        world.agents.iter().enumerate().filter(|(_, a)| a.role == Role::Cooperator).map(|(i, _)| i)
    }
}

impl Scenario for WorldComm {
    fn name(&self) -> &str {
        "world-comm"
    }

    fn make_world(&self) -> World {
        let mut world = World::new();
        for i in 0..self.config.predators {
            let name =
                if self.is_leader(i) { "leader-0".to_string() } else { format!("predator-{i}") };
            let mut a = Agent::new(name, Role::Cooperator);
            a.size = 0.075;
            a.accel = 3.0;
            a.max_speed = Some(1.0);
            if self.is_leader(i) {
                // The env writes the leader's one-hot utterance here.
                a.comm = vec![0.0; self.config.comm_symbols];
            }
            world.agents.push(a);
        }
        for i in 0..self.config.prey {
            let mut a = Agent::new(format!("prey-{i}"), Role::Prey);
            a.size = 0.05;
            a.accel = 4.0;
            a.max_speed = Some(1.3);
            world.agents.push(a);
        }
        for i in 0..self.config.landmarks {
            let mut l = Landmark::new(format!("landmark-{i}"), 0.2, true);
            l.state.position = Vec2::ZERO;
            world.landmarks.push(l);
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

    fn observation_dim(&self, world: &World, agent_idx: usize) -> usize {
        let prey = Self::prey_indices(world).filter(|&i| i != agent_idx).count();
        let listener =
            world.agents[agent_idx].role == Role::Cooperator && !self.is_leader(agent_idx);
        let heard = if listener { world.agents[0].comm.len() } else { 0 };
        4 + 2 * world.landmarks.len() + 2 * (world.agents.len() - 1) + 2 * prey + heard
    }

    /// The `simple_tag` layout, with the leader's utterance appended for
    /// non-leader predators:
    ///
    /// `[self_vel(2), self_pos(2), landmark_rel(2L), others_rel(2(A−1)),
    ///   prey_vels, leader_comm(C — listeners only)]`
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
            if i == agent_idx || other.role != Role::Prey {
                continue;
            }
            out[off] = other.state.velocity.x;
            out[off + 1] = other.state.velocity.y;
            off += 2;
        }
        if me.role == Role::Cooperator && !self.is_leader(agent_idx) {
            let comm = &world.agents[0].comm;
            out[off..off + comm.len()].copy_from_slice(comm);
            off += comm.len();
        }
        assert_eq!(off, out.len(), "observation buffer size mismatch");
    }

    fn reward(&self, world: &World, agent_idx: usize) -> f32 {
        let me = &world.agents[agent_idx];
        match me.role {
            Role::Cooperator => {
                let mut rew = 0.0;
                let mut min_dist = f32::INFINITY;
                for p in Self::prey_indices(world) {
                    let d = me.state.position.distance(world.agents[p].state.position);
                    min_dist = min_dist.min(d);
                    if world.is_collision(agent_idx, p) {
                        rew += 10.0;
                    }
                }
                if min_dist.is_finite() {
                    rew -= 0.1 * min_dist;
                }
                rew
            }
            Role::Prey => {
                let mut rew = 0.0;
                let mut min_dist = f32::INFINITY;
                for p in Self::predator_indices(world) {
                    let d = me.state.position.distance(world.agents[p].state.position);
                    min_dist = min_dist.min(d);
                    if world.is_collision(agent_idx, p) {
                        rew -= 10.0;
                    }
                }
                if min_dist.is_finite() {
                    rew += 0.1 * min_dist;
                }
                rew -= util::bound_penalty(me.state.position.x);
                rew -= util::bound_penalty(me.state.position.y);
                rew
            }
        }
    }

    /// Same scripted evasion as `simple_tag`.
    fn scripted_action(
        &self,
        world: &World,
        agent_idx: usize,
        _rng: &mut StdRng,
    ) -> DiscreteAction {
        let me = &world.agents[agent_idx];
        debug_assert_eq!(me.role, Role::Prey, "scripted_action on a trained agent");
        let mut desired = Vec2::ZERO;
        for p in Self::predator_indices(world) {
            let delta = me.state.position - world.agents[p].state.position;
            let d2 = delta.norm_squared().max(1e-4);
            desired += delta * (1.0 / d2);
        }
        let pos = me.state.position;
        if pos.x.abs() > 0.8 {
            desired += Vec2::new(-pos.x.signum() * ((pos.x.abs() - 0.8) * 20.0).exp(), 0.0);
        }
        if pos.y.abs() > 0.8 {
            desired += Vec2::new(0.0, -pos.y.signum() * ((pos.y.abs() - 0.8) * 20.0).exp());
        }
        DiscreteAction::closest_to(desired)
    }

    fn action_space(&self, world: &World, agent_idx: usize) -> ActionSpace {
        if self.is_leader(agent_idx) && world.agents[agent_idx].role == Role::Cooperator {
            ActionSpace::movement_with_comm(self.config.comm_symbols)
        } else {
            ActionSpace::movement()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(47)
    }

    #[test]
    fn scaled_mirrors_simple_tag() {
        let c = WorldCommConfig::scaled(3);
        assert_eq!((c.predators, c.prey, c.landmarks, c.comm_symbols), (3, 1, 2, 4));
        let c = WorldCommConfig::scaled(12);
        assert_eq!((c.predators, c.prey, c.landmarks), (12, 4, 4));
    }

    #[test]
    fn observation_dims_heterogeneous_by_leadership() {
        let s = WorldComm::new(WorldCommConfig::scaled(3));
        let w = s.make_world();
        // simple_tag predator width is 16 at N=3; listeners add C=4.
        assert_eq!(s.observation(&w, 0).len(), 16, "leader");
        assert_eq!(s.observation(&w, 1).len(), 20, "listener");
        assert_eq!(s.observation(&w, 2).len(), 20, "listener");
        assert_eq!(s.observation(&w, 3).len(), 14, "prey");
    }

    #[test]
    fn action_spaces_heterogeneous_by_leadership() {
        let s = WorldComm::new(WorldCommConfig::scaled(3));
        let w = s.make_world();
        assert_eq!(s.action_space(&w, 0).segments(), &[5, 4]);
        assert_eq!(s.action_space(&w, 0).flat_dim(), 9);
        assert_eq!(s.action_space(&w, 0).joint_count(), 20);
        assert_eq!(s.action_space(&w, 1).segments(), &[5]);
        assert_eq!(s.action_space(&w, 2).segments(), &[5]);
    }

    #[test]
    fn listeners_hear_the_leader() {
        let s = WorldComm::new(WorldCommConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        w.agents[0].comm[3] = 1.0;
        let obs = s.observation(&w, 1);
        let tail = &obs[obs.len() - 4..];
        assert_eq!(tail, &[0.0, 0.0, 0.0, 1.0]);
        // The leader does not hear itself and the prey hears nothing.
        assert_eq!(s.observation(&w, 0).len(), 16);
        assert_eq!(s.observation(&w, 3).len(), 14);
    }

    #[test]
    fn rewards_match_simple_tag_shape() {
        let s = WorldComm::new(WorldCommConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        w.agents[0].state.position = w.agents[3].state.position;
        assert!(s.reward(&w, 0) > 9.0, "collision bonus");
        assert!(s.reward(&w, 3) < -9.0, "prey penalized");
    }

    #[test]
    fn prey_still_flees() {
        let s = WorldComm::new(WorldCommConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        w.agents[3].state.position = Vec2::new(0.0, 0.0);
        w.agents[0].state.position = Vec2::new(-0.3, 0.0);
        w.agents[1].state.position = Vec2::new(-0.4, 0.05);
        w.agents[2].state.position = Vec2::new(-0.5, -0.05);
        assert_eq!(s.scripted_action(&w, 3, &mut r), DiscreteAction::Right);
    }
}
