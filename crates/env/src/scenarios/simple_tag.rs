//! Predator-prey (`simple_tag`): N cooperating predators chase M faster,
//! environment-controlled prey among L landmarks.
//!
//! Observation layout (matching the paper's reported dimensions — e.g.
//! `Box(16,)` per predator and `Box(14,)` for the prey at N = 3, and
//! `Box(98,)`/`Box(96,)` at N = 24):
//!
//! `[self_vel(2), self_pos(2), landmark_rel(2L), other_agents_rel(2·(A−1)),
//!   prey_velocities(2·M or 2·(M−1))]`

use crate::entity::{Agent, DiscreteAction, Landmark, Role};
use crate::scenario::{util, Scenario};
use crate::vec2::Vec2;
use crate::world::World;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of the predator-prey scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredatorPreyConfig {
    /// Number of trained predators (the paper's "number of agents" axis).
    pub predators: usize,
    /// Number of scripted prey.
    pub prey: usize,
    /// Number of landmarks (obstacles).
    pub landmarks: usize,
}

impl PredatorPreyConfig {
    /// The paper's scaling rule: for N predators use `max(1, N/3)` prey and
    /// `max(2, N/3)` landmarks, which reproduces the reported observation
    /// dimensions at N = 3 (`Box(16,)`) and N = 24 (`Box(98,)`).
    pub fn scaled(predators: usize) -> Self {
        assert!(predators > 0, "need at least one predator");
        PredatorPreyConfig {
            predators,
            prey: (predators / 3).max(1),
            landmarks: (predators / 3).max(2),
        }
    }
}

/// The predator-prey scenario.
///
/// # Examples
///
/// ```
/// use marl_env::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};
/// use marl_env::scenario::Scenario;
///
/// let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
/// let w = s.make_world();
/// assert_eq!(s.observation(&w, 0).len(), 16); // predator
/// assert_eq!(s.observation(&w, 3).len(), 14); // prey
/// ```
#[derive(Debug, Clone)]
pub struct PredatorPrey {
    config: PredatorPreyConfig,
}

impl PredatorPrey {
    /// Creates the scenario from a configuration.
    pub fn new(config: PredatorPreyConfig) -> Self {
        PredatorPrey { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PredatorPreyConfig {
        &self.config
    }

    fn prey_indices(world: &World) -> impl Iterator<Item = usize> + '_ {
        world.agents.iter().enumerate().filter(|(_, a)| a.role == Role::Prey).map(|(i, _)| i)
    }

    fn predator_indices(world: &World) -> impl Iterator<Item = usize> + '_ {
        world.agents.iter().enumerate().filter(|(_, a)| a.role == Role::Cooperator).map(|(i, _)| i)
    }
}

impl Scenario for PredatorPrey {
    fn name(&self) -> &str {
        "predator-prey"
    }

    fn make_world(&self) -> World {
        let mut world = World::new();
        for i in 0..self.config.predators {
            let mut a = Agent::new(format!("predator-{i}"), Role::Cooperator);
            a.size = 0.075;
            a.accel = 3.0;
            a.max_speed = Some(1.0);
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
        4 + 2 * world.landmarks.len() + 2 * (world.agents.len() - 1) + 2 * prey
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
            if i == agent_idx || other.role != Role::Prey {
                continue;
            }
            out[off] = other.state.velocity.x;
            out[off + 1] = other.state.velocity.y;
            off += 2;
        }
        assert_eq!(off, out.len(), "observation buffer size mismatch");
    }

    fn reward(&self, world: &World, agent_idx: usize) -> f32 {
        let me = &world.agents[agent_idx];
        match me.role {
            Role::Cooperator => {
                // Shaped predator reward: +10 per prey collision, minus a
                // tenth of the distance to the nearest prey.
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
                // Prey: −10 per predator collision, +0.1 × distance to the
                // nearest predator, minus a boundary penalty.
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

    /// Prey flee the nearest predators (inverse-square repulsion) and avoid
    /// the arena boundary; the resulting desired direction is projected onto
    /// the discrete action set.
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
        // Boundary repulsion keeps prey inside the arena; exponential so it
        // dominates the flee term near the wall.
        let pos = me.state.position;
        if pos.x.abs() > 0.8 {
            desired += Vec2::new(-pos.x.signum() * ((pos.x.abs() - 0.8) * 20.0).exp(), 0.0);
        }
        if pos.y.abs() > 0.8 {
            desired += Vec2::new(0.0, -pos.y.signum() * ((pos.y.abs() - 0.8) * 20.0).exp());
        }
        DiscreteAction::closest_to(desired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn paper_observation_dims_at_3_agents() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let w = s.make_world();
        assert_eq!(w.trained_agent_count(), 3);
        assert_eq!(w.scripted_agent_count(), 1);
        assert_eq!(w.landmarks.len(), 2);
        for i in 0..3 {
            assert_eq!(s.observation(&w, i).len(), 16, "predator {i}");
        }
        assert_eq!(s.observation(&w, 3).len(), 14, "prey");
    }

    #[test]
    fn paper_observation_dims_at_24_agents() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(24));
        let w = s.make_world();
        assert_eq!(w.scripted_agent_count(), 8);
        assert_eq!(w.landmarks.len(), 8);
        assert_eq!(s.observation(&w, 0).len(), 98);
        assert_eq!(s.observation(&w, 24).len(), 96);
    }

    #[test]
    fn predator_collision_yields_bonus() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        // Move predator 0 onto prey 3.
        w.agents[0].state.position = w.agents[3].state.position;
        let rew = s.reward(&w, 0);
        assert!(rew > 9.0, "expected collision bonus, got {rew}");
        assert!(s.reward(&w, 3) < -9.0, "prey should be penalized");
    }

    #[test]
    fn predator_shaping_prefers_proximity() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        w.agents[3].state.position = Vec2::new(0.0, 0.0);
        w.agents[0].state.position = Vec2::new(0.5, 0.0);
        let near = s.reward(&w, 0);
        w.agents[0].state.position = Vec2::new(0.9, 0.0);
        let far = s.reward(&w, 0);
        assert!(near > far);
    }

    #[test]
    fn prey_flees_away_from_predator() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        // predator to the left of prey → prey should move right
        w.agents[3].state.position = Vec2::new(0.0, 0.0);
        w.agents[0].state.position = Vec2::new(-0.3, 0.0);
        w.agents[1].state.position = Vec2::new(-0.4, 0.05);
        w.agents[2].state.position = Vec2::new(-0.5, -0.05);
        let a = s.scripted_action(&w, 3, &mut r);
        assert_eq!(a, DiscreteAction::Right);
    }

    #[test]
    fn prey_respects_boundary() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        // prey near right wall, predators far left → boundary term wins
        w.agents[3].state.position = Vec2::new(0.99, 0.0);
        w.agents[0].state.position = Vec2::new(0.5, 0.0);
        w.agents[1].state.position = Vec2::new(0.5, 0.1);
        w.agents[2].state.position = Vec2::new(0.5, -0.1);
        let a = s.scripted_action(&w, 3, &mut r);
        assert_eq!(a, DiscreteAction::Left);
    }

    #[test]
    fn reset_randomizes_positions() {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(6));
        let mut w = s.make_world();
        let mut r = rng();
        s.reset_world(&mut w, &mut r);
        let p0: Vec<Vec2> = w.agents.iter().map(|a| a.state.position).collect();
        s.reset_world(&mut w, &mut r);
        let p1: Vec<Vec2> = w.agents.iter().map(|a| a.state.position).collect();
        assert_ne!(p0, p1);
        assert!(w.agents.iter().all(|a| a.state.position.linf() <= 1.0));
    }
}
