//! # marl-env
//!
//! A Rust port of the OpenAI multi-agent particle environments used by the
//! MARL systems paper: the 2-D soft-contact physics core plus the MPE
//! scenario suite —
//!
//! * **predator-prey** (`simple_tag`, competitive): N cooperating predators
//!   chase M faster, environment-controlled prey;
//! * **cooperative navigation** (`simple_spread`, cooperative): N agents
//!   cover N landmarks while avoiding collisions;
//! * **physical deception** (`simple_adversary`): good agents hide the
//!   goal landmark from an adversary;
//! * **keep-away** (`simple_push`): adversaries shove good agents off the
//!   goal;
//! * **cooperative reference** (`simple_reference`): each agent's goal is
//!   known only to its partner, so agents must *speak* — actions are
//!   movement ⊕ a discrete utterance broadcast into teammates' next
//!   observations;
//! * **world-comm** (`simple_world_comm`): predator-prey with a
//!   broadcasting leader (heterogeneous per-agent action spaces).
//!
//! Observation dimensions match the paper's tables (e.g. `Box(16,)` per
//! predator at N = 3, `Box(98,)` at N = 24, `6N` for cooperative
//! navigation). Scenarios register factories in [`registry`]; consumers
//! resolve them by name ([`ScenarioId::from_name`]) instead of matching a
//! hard-coded enum.
//!
//! ## Quickstart
//!
//! [`VecParticleEnv`] is the one environment implementation: K worlds
//! stepped as one batch, observations pulled into caller buffers. A
//! [`ParticleEnv`] is its K = 1 case behind an allocating interface.
//!
//! ```
//! use marl_env::ScenarioId;
//!
//! let mut env = ScenarioId::PredatorPrey.make_env(3, 25, 0);
//! let mut obs = env.reset();
//! while let Ok(step) = env.step(&vec![0; env.trained_agents()]) {
//!     obs = step.observations;
//!     if step.done { break; }
//! }
//! assert_eq!(obs.len(), 3);
//!
//! // Four worlds in lockstep; actions and rewards are world-major.
//! let mut vec_env = ScenarioId::PredatorPrey.make_vec_env(3, 25, 0, 4);
//! vec_env.reset();
//! let mut rewards = vec![0.0; 4 * 3];
//! let done = vec_env.step(&[0; 4 * 3], &mut rewards)?;
//! assert!(!done);
//! let mut o = vec![0.0; vec_env.observation_spaces()[0].dim];
//! vec_env.observe_into(0, 3, &mut o); // agent 0 in world 3
//! # Ok::<(), marl_env::EnvError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod entity;
pub mod env;
pub mod error;
pub mod registry;
pub mod render;
pub mod scenario;
pub mod scenarios;
pub mod soa;
pub mod spaces;
pub mod vec2;
pub mod vecenv;
pub mod world;

pub use entity::DiscreteAction;
pub use env::{ParticleEnv, StepResult};
pub use error::EnvError;
pub use registry::{register_scenario, ScenarioId};
pub use scenario::Scenario;
pub use soa::SoaBatch;
pub use spaces::ActionSpace;
pub use vecenv::VecParticleEnv;
pub use world::World;
