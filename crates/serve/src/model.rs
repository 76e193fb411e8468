//! The served policy: actors lifted out of a MARC checkpoint.
//!
//! Serving needs only the live actor networks — critics, targets, and
//! optimizer state stay behind — plus each agent's action factors, so a
//! logit row decodes into the same joint action `Trainer::evaluate` takes.
//! A loaded model is immutable and shared as `Arc<PolicyModel>`; hot
//! reload builds a fresh model and swaps the `Arc`, so in-flight batches
//! finish on the generation they started with and no request is ever
//! dropped by a reload.

use marl_algo::checkpoint::{load_checkpoint_with_fallback, Checkpoint};
use marl_algo::error::TrainError;
use marl_nn::mlp::Mlp;
use std::path::Path;

/// An immutable inference model: one greedy actor per agent.
#[derive(Debug)]
pub struct PolicyModel {
    /// Live actor networks, indexed by agent.
    pub actors: Vec<Mlp>,
    /// Per-agent action factor widths (movement first), from the
    /// checkpoint's scenario.
    segments: Vec<Vec<usize>>,
    /// Serving generation: 0 for the boot load, +1 per hot reload. Echoed
    /// in every response so clients (and the reload-under-load test) can
    /// attribute an answer to a model version.
    pub epoch: u64,
    /// Update iterations recorded in the source checkpoint (diagnostics).
    pub update_iterations: u64,
}

impl PolicyModel {
    /// Lifts the actors out of a decoded checkpoint, and each agent's
    /// action factors out of the scenario its config names.
    pub fn from_checkpoint(ckpt: &Checkpoint, epoch: u64) -> Self {
        let c = &ckpt.config;
        let env = c.task.make_vec_env(c.agents, c.max_episode_len, c.seed, 1);
        PolicyModel {
            actors: ckpt.agents.iter().map(|a| a.actor.clone()).collect(),
            segments: env.action_spaces().iter().map(|s| s.segments().to_vec()).collect(),
            epoch,
            update_iterations: ckpt.update_iterations,
        }
    }

    /// Loads a checkpoint file (falling back to its rotated `.prev`
    /// sibling on corruption — the same crash-safety contract training
    /// restores under). Returns the model and whether the fallback was
    /// used.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] when neither file is loadable, or when
    /// the loaded actors do not fit the scenario the config names.
    pub fn load(path: &Path, epoch: u64) -> Result<(Self, bool), TrainError> {
        let (ckpt, _replay, fell_back) = load_checkpoint_with_fallback(path)?;
        let refuse = |what: String| TrainError::Checkpoint(format!("{}: {what}", path.display()));
        ckpt.config.validate().map_err(|e| refuse(format!("config: {e}")))?;
        let model = PolicyModel::from_checkpoint(&ckpt, epoch);
        if model.segments.len() != model.num_agents() {
            return Err(refuse(format!(
                "{} actors for a scenario with {} agents",
                model.num_agents(),
                model.segments.len()
            )));
        }
        for a in 0..model.num_agents() {
            if model.segments(a).iter().sum::<usize>() != model.act_dim(a) {
                return Err(refuse(format!(
                    "agent {a}'s actor has {} outputs for action factors {:?}",
                    model.act_dim(a),
                    model.segments(a)
                )));
            }
        }
        Ok((model, fell_back))
    }

    /// Number of served agents.
    pub fn num_agents(&self) -> usize {
        self.actors.len()
    }

    /// Observation width of `agent`'s actor.
    pub fn obs_dim(&self, agent: usize) -> usize {
        self.actors[agent].input_dim()
    }

    /// Action count (logit width) of `agent`'s actor.
    pub fn act_dim(&self, agent: usize) -> usize {
        self.actors[agent].output_dim()
    }

    /// `agent`'s action factor widths, movement first: its logit row
    /// decodes into the mixed-radix joint action over these.
    pub fn segments(&self, agent: usize) -> &[usize] {
        &self.segments[agent]
    }

    /// Whether `other` serves the same architecture (agent count, all
    /// per-agent dims and action factors) — the compatibility gate for hot
    /// reload.
    pub fn same_architecture(&self, other: &PolicyModel) -> bool {
        self.num_agents() == other.num_agents()
            && self.segments == other.segments
            && (0..self.num_agents())
                .all(|a| self.obs_dim(a) == other.obs_dim(a) && self.act_dim(a) == other.act_dim(a))
    }
}
