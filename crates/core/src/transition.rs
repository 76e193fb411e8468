//! Transition records and batch containers.
//!
//! A transition is the tuple the paper stores per agent per step:
//! `(obs_j, act_j, reward_j, next_obs_j, done_j)`.

use serde::{Deserialize, Serialize};

/// Shape of one agent's transition row inside the replay storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionLayout {
    /// Observation dimension.
    pub obs_dim: usize,
    /// Action dimension (one-hot width for discrete actions).
    pub act_dim: usize,
}

impl TransitionLayout {
    /// Creates a layout.
    pub fn new(obs_dim: usize, act_dim: usize) -> Self {
        TransitionLayout { obs_dim, act_dim }
    }

    /// Flat row width: `obs + act + reward + next_obs + done`.
    pub fn row_width(&self) -> usize {
        self.obs_dim * 2 + self.act_dim + 2
    }

    /// Byte width of a row (`f32` elements).
    pub fn row_bytes(&self) -> usize {
        self.row_width() * std::mem::size_of::<f32>()
    }

    /// Offset of the action segment within a row.
    pub fn act_offset(&self) -> usize {
        self.obs_dim
    }

    /// Offset of the reward scalar within a row.
    pub fn reward_offset(&self) -> usize {
        self.obs_dim + self.act_dim
    }

    /// Offset of the next-observation segment within a row.
    pub fn next_obs_offset(&self) -> usize {
        self.obs_dim + self.act_dim + 1
    }

    /// Offset of the done flag within a row.
    pub fn done_offset(&self) -> usize {
        self.row_width() - 1
    }
}

/// One agent's transition, as pushed into the replay buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Observation at time t.
    pub obs: Vec<f32>,
    /// Action taken (one-hot or relaxed distribution).
    pub action: Vec<f32>,
    /// Scalar reward.
    pub reward: f32,
    /// Observation at time t+1.
    pub next_obs: Vec<f32>,
    /// Terminal flag (1.0 = episode ended).
    pub done: f32,
}

impl Transition {
    /// Serializes into `out` following `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the component sizes disagree with `layout` or `out` is not
    /// exactly one row wide.
    pub fn write_row(&self, layout: &TransitionLayout, out: &mut [f32]) {
        assert_eq!(self.obs.len(), layout.obs_dim, "obs dim mismatch");
        assert_eq!(self.action.len(), layout.act_dim, "act dim mismatch");
        assert_eq!(self.next_obs.len(), layout.obs_dim, "next_obs dim mismatch");
        assert_eq!(out.len(), layout.row_width(), "row width mismatch");
        let mut off = 0;
        out[off..off + layout.obs_dim].copy_from_slice(&self.obs);
        off += layout.obs_dim;
        out[off..off + layout.act_dim].copy_from_slice(&self.action);
        off += layout.act_dim;
        out[off] = self.reward;
        off += 1;
        out[off..off + layout.obs_dim].copy_from_slice(&self.next_obs);
        off += layout.obs_dim;
        out[off] = self.done;
    }

    /// Deserializes a row written by [`Transition::write_row`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != layout.row_width()`.
    pub fn from_row(layout: &TransitionLayout, row: &[f32]) -> Self {
        assert_eq!(row.len(), layout.row_width(), "row width mismatch");
        Transition {
            obs: row[..layout.obs_dim].to_vec(),
            action: row[layout.act_offset()..layout.act_offset() + layout.act_dim].to_vec(),
            reward: row[layout.reward_offset()],
            next_obs: row[layout.next_obs_offset()..layout.next_obs_offset() + layout.obs_dim]
                .to_vec(),
            done: row[layout.done_offset()],
        }
    }
}

/// A borrowed view of one agent's transition, for allocation-free pushes.
///
/// The owning [`Transition`] forces the caller to materialize `Vec`s per
/// component; the vectorized rollout path instead keeps observations and
/// actions in persistent scratch matrices and pushes rows straight from
/// those borrows.
#[derive(Debug, Clone, Copy)]
pub struct TransitionRef<'a> {
    /// Observation at time t.
    pub obs: &'a [f32],
    /// Action taken (one-hot or relaxed distribution).
    pub action: &'a [f32],
    /// Scalar reward.
    pub reward: f32,
    /// Observation at time t+1.
    pub next_obs: &'a [f32],
    /// Terminal flag (1.0 = episode ended).
    pub done: f32,
}

impl<'a> TransitionRef<'a> {
    /// Borrows the components of a row in [`TransitionRef::write_row`]'s
    /// format.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != layout.row_width()`.
    pub fn from_row(layout: &TransitionLayout, row: &'a [f32]) -> Self {
        assert_eq!(row.len(), layout.row_width(), "row width mismatch");
        TransitionRef {
            obs: &row[..layout.obs_dim],
            action: &row[layout.act_offset()..layout.reward_offset()],
            reward: row[layout.reward_offset()],
            next_obs: &row[layout.next_obs_offset()..layout.done_offset()],
            done: row[layout.done_offset()],
        }
    }

    /// Serializes into `out` following `layout`; identical row format to
    /// [`Transition::write_row`].
    ///
    /// # Panics
    ///
    /// Panics if the component sizes disagree with `layout` or `out` is not
    /// exactly one row wide.
    pub fn write_row(&self, layout: &TransitionLayout, out: &mut [f32]) {
        assert_eq!(self.obs.len(), layout.obs_dim, "obs dim mismatch");
        assert_eq!(self.action.len(), layout.act_dim, "act dim mismatch");
        assert_eq!(self.next_obs.len(), layout.obs_dim, "next_obs dim mismatch");
        assert_eq!(out.len(), layout.row_width(), "row width mismatch");
        let mut off = 0;
        out[off..off + layout.obs_dim].copy_from_slice(self.obs);
        off += layout.obs_dim;
        out[off..off + layout.act_dim].copy_from_slice(self.action);
        off += layout.act_dim;
        out[off] = self.reward;
        off += 1;
        out[off..off + layout.obs_dim].copy_from_slice(self.next_obs);
        off += layout.obs_dim;
        out[off] = self.done;
    }
}

/// A sampled mini-batch for one agent, stored column-contiguously so the
/// trainer can feed it straight into matrix code.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentBatch {
    /// Row layout used to produce this batch.
    pub layout: TransitionLayout,
    /// Batch size.
    pub len: usize,
    /// Observations, `len × obs_dim` row-major.
    pub obs: Vec<f32>,
    /// Actions, `len × act_dim` row-major.
    pub actions: Vec<f32>,
    /// Rewards, `len`.
    pub rewards: Vec<f32>,
    /// Next observations, `len × obs_dim` row-major.
    pub next_obs: Vec<f32>,
    /// Done flags, `len`.
    pub dones: Vec<f32>,
}

impl AgentBatch {
    /// Allocates an empty batch of the given size.
    pub fn with_capacity(layout: TransitionLayout, len: usize) -> Self {
        AgentBatch {
            layout,
            len,
            obs: Vec::with_capacity(len * layout.obs_dim),
            actions: Vec::with_capacity(len * layout.act_dim),
            rewards: Vec::with_capacity(len),
            next_obs: Vec::with_capacity(len * layout.obs_dim),
            dones: Vec::with_capacity(len),
        }
    }

    /// Clears the column vectors and sets the expected batch size, keeping
    /// every vector's capacity so refills are allocation-free.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.obs.clear();
        self.actions.clear();
        self.rewards.clear();
        self.next_obs.clear();
        self.dones.clear();
    }

    /// Appends one serialized row.
    pub fn push_row(&mut self, row: &[f32]) {
        let l = &self.layout;
        self.obs.extend_from_slice(&row[..l.obs_dim]);
        self.actions.extend_from_slice(&row[l.act_offset()..l.act_offset() + l.act_dim]);
        self.rewards.push(row[l.reward_offset()]);
        self.next_obs.extend_from_slice(&row[l.next_obs_offset()..l.next_obs_offset() + l.obs_dim]);
        self.dones.push(row[l.done_offset()]);
    }
}

/// A joint mini-batch: one [`AgentBatch`] per agent, plus optional
/// importance-sampling weights shared across agents (the paper's Lemma 1
/// weights from prioritized sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBatch {
    /// Per-agent batches, indexed by agent id.
    pub agents: Vec<AgentBatch>,
    /// The common indices used against every agent's buffer (Figure 5's
    /// "common indices array").
    pub indices: Vec<usize>,
    /// Importance-sampling weight per batch row (`None` for unbiased
    /// uniform sampling).
    pub weights: Option<Vec<f32>>,
}

impl MultiBatch {
    /// Batch size (rows per agent).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Allocates an empty batch container with capacity for `batch` rows
    /// per agent, for reuse across `sample_into` calls.
    pub fn preallocate(layouts: &[TransitionLayout], batch: usize) -> Self {
        let mut agents: Vec<AgentBatch> =
            layouts.iter().map(|&l| AgentBatch::with_capacity(l, batch)).collect();
        for a in &mut agents {
            a.reset(0);
        }
        MultiBatch { agents, indices: Vec::with_capacity(batch), weights: None }
    }

    /// Clears the rows of every agent batch (capacity retained).
    pub fn clear(&mut self) {
        for a in &mut self.agents {
            a.reset(0);
        }
        self.indices.clear();
        if let Some(w) = &mut self.weights {
            w.clear();
        }
    }

    /// Copies a plan's indices and weights into this batch, reusing the
    /// existing buffers (allocation-free in steady state when the plan's
    /// weight variant is stable across calls).
    pub fn set_plan_meta(&mut self, plan: &crate::indices::SamplePlan) {
        plan.flatten_into(&mut self.indices);
        match (&plan.weights, &mut self.weights) {
            (None, w) => *w = None,
            (Some(src), Some(dst)) => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            (Some(src), w @ None) => *w = Some(src.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_offsets_partition_the_row() {
        let l = TransitionLayout::new(16, 5);
        assert_eq!(l.row_width(), 16 + 5 + 1 + 16 + 1);
        assert_eq!(l.act_offset(), 16);
        assert_eq!(l.reward_offset(), 21);
        assert_eq!(l.next_obs_offset(), 22);
        assert_eq!(l.done_offset(), 38);
        assert_eq!(l.row_bytes(), l.row_width() * 4);
    }

    #[test]
    fn row_roundtrip() {
        let l = TransitionLayout::new(3, 2);
        let t = Transition {
            obs: vec![1.0, 2.0, 3.0],
            action: vec![0.0, 1.0],
            reward: -0.5,
            next_obs: vec![4.0, 5.0, 6.0],
            done: 1.0,
        };
        let mut row = vec![0.0; l.row_width()];
        t.write_row(&l, &mut row);
        assert_eq!(Transition::from_row(&l, &row), t);
    }

    #[test]
    fn agent_batch_accumulates_columns() {
        let l = TransitionLayout::new(2, 1);
        let mut b = AgentBatch::with_capacity(l, 2);
        let t = Transition {
            obs: vec![1.0, 2.0],
            action: vec![0.5],
            reward: 3.0,
            next_obs: vec![4.0, 5.0],
            done: 0.0,
        };
        let mut row = vec![0.0; l.row_width()];
        t.write_row(&l, &mut row);
        b.push_row(&row);
        b.push_row(&row);
        assert_eq!(b.obs, vec![1.0, 2.0, 1.0, 2.0]);
        assert_eq!(b.actions, vec![0.5, 0.5]);
        assert_eq!(b.rewards, vec![3.0, 3.0]);
        assert_eq!(b.dones, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "obs dim mismatch")]
    fn write_row_validates_dims() {
        let l = TransitionLayout::new(3, 2);
        let t = Transition {
            obs: vec![1.0],
            action: vec![0.0, 1.0],
            reward: 0.0,
            next_obs: vec![0.0; 3],
            done: 0.0,
        };
        let mut row = vec![0.0; l.row_width()];
        t.write_row(&l, &mut row);
    }
}
