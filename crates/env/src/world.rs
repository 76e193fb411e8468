//! Particle-world physics: force application, soft-contact collisions, and
//! damped integration, ported from the OpenAI multiagent-particle-envs
//! `core.py`.

use crate::entity::{Agent, Landmark};
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// Physics constants of the particle world (MPE defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Physics {
    /// Integration step.
    pub dt: f32,
    /// Velocity damping per step.
    pub damping: f32,
    /// Soft-contact force magnitude.
    pub contact_force: f32,
    /// Soft-contact margin.
    pub contact_margin: f32,
}

impl Default for Physics {
    fn default() -> Self {
        Physics { dt: 0.1, damping: 0.25, contact_force: 100.0, contact_margin: 0.001 }
    }
}

/// The shared 2-D world containing agents and landmarks.
///
/// # Examples
///
/// ```
/// use marl_env::world::World;
/// use marl_env::entity::{Agent, Role};
///
/// let mut w = World::new();
/// w.agents.push(Agent::new("a0", Role::Cooperator));
/// w.step();
/// assert_eq!(w.agents.len(), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct World {
    /// All agents (trained cooperators first, then scripted prey, matching
    /// the ordering the paper's observation-space tables imply).
    pub agents: Vec<Agent>,
    /// Static landmarks.
    pub landmarks: Vec<Landmark>,
    /// Physics constants.
    pub physics: Physics,
}

impl World {
    /// An empty world with default physics.
    pub fn new() -> Self {
        World::default()
    }

    /// Number of trained agents.
    pub fn trained_agent_count(&self) -> usize {
        self.agents.iter().filter(|a| a.is_trained()).count()
    }

    /// Number of scripted (prey) agents.
    pub fn scripted_agent_count(&self) -> usize {
        self.agents.len() - self.trained_agent_count()
    }

    /// Whether two agents are within collision distance.
    pub fn is_collision(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let a = &self.agents[i];
        let b = &self.agents[j];
        a.state.position.distance(b.state.position) < a.size + b.size
    }

    /// Advances physics by one step: action forces + collision forces, then
    /// damped Euler integration with speed clamping.
    ///
    /// Environments step through [`crate::soa::SoaBatch`]; this one-world
    /// AoS step is the reference the SoA step is tested against, bit for
    /// bit.
    pub fn step(&mut self) {
        let n = self.agents.len();
        let mut forces = vec![Vec2::ZERO; n];

        // Control forces.
        for (f, a) in forces.iter_mut().zip(self.agents.iter()) {
            if a.movable {
                *f += a.action_force * a.accel;
            }
        }

        // Agent-agent soft contact forces.
        for i in 0..n {
            for j in (i + 1)..n {
                if !(self.agents[i].collide && self.agents[j].collide) {
                    continue;
                }
                let (fi, fj) = self.contact_force_between(
                    self.agents[i].state.position,
                    self.agents[j].state.position,
                    self.agents[i].size + self.agents[j].size,
                );
                forces[i] += fi;
                forces[j] += fj;
            }
        }

        // Agent-landmark contact forces (landmarks are immovable; only the
        // agent receives the reaction).
        for (agent, force) in self.agents.iter().zip(forces.iter_mut()).take(n) {
            if !agent.collide {
                continue;
            }
            for l in &self.landmarks {
                if !l.collide {
                    continue;
                }
                let (fi, _) = self.contact_force_between(
                    agent.state.position,
                    l.state.position,
                    agent.size + l.size,
                );
                *force += fi;
            }
        }

        // Integrate.
        let Physics { dt, damping, .. } = self.physics;
        for (a, f) in self.agents.iter_mut().zip(forces) {
            if !a.movable {
                continue;
            }
            let mut v = a.state.velocity * (1.0 - damping) + f * dt;
            if let Some(ms) = a.max_speed {
                v = v.clamp_norm(ms);
            }
            a.state.velocity = v;
            a.state.position += v * dt;
        }
    }

    /// Soft-contact penalty force between two circles, as in MPE:
    /// `penetration = log(1 + exp(-(dist - dist_min)/k)) * k`, force along
    /// the separating axis with magnitude `contact_force * penetration`.
    fn contact_force_between(&self, pa: Vec2, pb: Vec2, dist_min: f32) -> (Vec2, Vec2) {
        let delta = pa - pb;
        let dist = delta.norm().max(1e-8);
        let k = self.physics.contact_margin;
        let penetration = softplus(-(dist - dist_min) / k) * k;
        let force = delta * (self.physics.contact_force * penetration / dist);
        (force, -force)
    }
}

/// Numerically-stable `ln(1 + e^x)`.
pub(crate) fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        0.0
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Role;

    fn two_agent_world(gap: f32) -> World {
        let mut w = World::new();
        let mut a = Agent::new("a", Role::Cooperator);
        a.size = 0.1;
        let mut b = Agent::new("b", Role::Cooperator);
        b.size = 0.1;
        b.state.position = Vec2::new(gap, 0.0);
        w.agents.push(a);
        w.agents.push(b);
        w
    }

    #[test]
    fn control_force_moves_agent() {
        let mut w = two_agent_world(10.0);
        w.agents[0].action_force = Vec2::new(1.0, 0.0);
        w.step();
        assert!(w.agents[0].state.position.x > 0.0);
        assert!(w.agents[1].state.position.x == 10.0);
    }

    #[test]
    fn overlapping_agents_repel() {
        let mut w = two_agent_world(0.05); // overlapping: dist < size sum 0.2
        w.step();
        // a pushed left, b pushed right
        assert!(w.agents[0].state.position.x < 0.0);
        assert!(w.agents[1].state.position.x > 0.05);
    }

    #[test]
    fn distant_agents_feel_negligible_force() {
        let mut w = two_agent_world(5.0);
        w.step();
        assert!(w.agents[0].state.velocity.norm() < 1e-4);
    }

    #[test]
    fn damping_decays_velocity() {
        let mut w = two_agent_world(10.0);
        w.agents[0].state.velocity = Vec2::new(1.0, 0.0);
        w.step();
        assert!((w.agents[0].state.velocity.x - 0.75).abs() < 1e-4);
    }

    #[test]
    fn max_speed_is_enforced() {
        let mut w = two_agent_world(10.0);
        w.agents[0].max_speed = Some(0.5);
        w.agents[0].action_force = Vec2::new(100.0, 0.0);
        for _ in 0..10 {
            w.step();
        }
        assert!(w.agents[0].state.velocity.norm() <= 0.5 + 1e-5);
    }

    #[test]
    fn immovable_agent_stays_put() {
        let mut w = two_agent_world(10.0);
        w.agents[0].movable = false;
        w.agents[0].action_force = Vec2::new(1.0, 0.0);
        w.step();
        assert_eq!(w.agents[0].state.position, Vec2::ZERO);
    }

    #[test]
    fn collision_predicate() {
        let w = two_agent_world(0.15);
        assert!(w.is_collision(0, 1));
        assert!(!w.is_collision(0, 0));
        let far = two_agent_world(1.0);
        assert!(!far.is_collision(0, 1));
    }

    #[test]
    fn landmark_collision_repels_agent() {
        let mut w = two_agent_world(10.0);
        let mut l = Landmark::new("rock", 0.2, true);
        l.state.position = Vec2::new(0.1, 0.0);
        w.landmarks.push(l);
        // agent 0 at origin overlaps the landmark (0.1 < 0.1 + 0.2)
        w.step();
        assert!(w.agents[0].state.position.x < 0.0, "agent pushed away from landmark");
    }

    #[test]
    fn non_colliding_landmark_is_inert() {
        let mut w = two_agent_world(10.0);
        let mut l = Landmark::new("marker", 0.2, false);
        l.state.position = Vec2::new(0.1, 0.0);
        w.landmarks.push(l);
        w.step();
        assert_eq!(w.agents[0].state.position, Vec2::ZERO);
    }

    #[test]
    fn softplus_limits() {
        assert_eq!(softplus(-100.0), 0.0);
        assert_eq!(softplus(100.0), 100.0);
        assert!((softplus(0.0) - (2.0f32).ln()).abs() < 1e-6);
    }
}
