//! Transition records and batch containers.
//!
//! A transition is the tuple the paper stores per agent per step:
//! `(obs_j, act_j, reward_j, next_obs_j, done_j)`. A sampled mini-batch
//! is stored the way the centralized critic reads it: joint rows
//! `[obs_1..obs_N | act_1..act_N]` laid out by [`JointLayout`].

use crate::indices::SamplePlan;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
    fn act_offset(&self) -> usize {
        self.obs_dim
    }

    /// Offset of the reward scalar within a row.
    fn reward_offset(&self) -> usize {
        self.obs_dim + self.act_dim
    }

    /// Offset of the next-observation segment within a row.
    fn next_obs_offset(&self) -> usize {
        self.obs_dim + self.act_dim + 1
    }

    /// Offset of the done flag within a row.
    fn done_offset(&self) -> usize {
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
    /// Serializes into `out` following `layout` (see
    /// [`TransitionRef::write_row`]).
    ///
    /// # Panics
    ///
    /// Panics if the component sizes disagree with `layout` or `out` is not
    /// exactly one row wide.
    pub fn write_row(&self, layout: &TransitionLayout, out: &mut [f32]) {
        let t = TransitionRef {
            obs: &self.obs,
            action: &self.action,
            reward: self.reward,
            next_obs: &self.next_obs,
            done: self.done,
        };
        t.write_row(layout, out);
    }

    /// Deserializes a row written by [`Transition::write_row`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != layout.row_width()`.
    pub fn from_row(layout: &TransitionLayout, row: &[f32]) -> Self {
        let t = TransitionRef::from_row(layout, row);
        Transition {
            obs: t.obs.to_vec(),
            action: t.action.to_vec(),
            reward: t.reward,
            next_obs: t.next_obs.to_vec(),
            done: t.done,
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

    /// Serializes into `out` following `layout`: the row
    /// `obs | action | reward | next_obs | done`.
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
        out[..layout.act_offset()].copy_from_slice(self.obs);
        out[layout.act_offset()..layout.reward_offset()].copy_from_slice(self.action);
        out[layout.reward_offset()] = self.reward;
        out[layout.next_obs_offset()..layout.done_offset()].copy_from_slice(self.next_obs);
        out[layout.done_offset()] = self.done;
    }
}

/// Columns of the centralized critic's joint row
/// `[obs_1..obs_N | act_1..act_N]`: every agent's observation block, then
/// every agent's action block, in agent order. A replay store carries
/// the one for its agents ([`crate::multi::MultiAgentReplay::joint_layout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointLayout {
    /// `N + 1` column boundaries: agent `a`'s observations are
    /// `obs[a]..obs[a + 1]`.
    obs: Vec<usize>,
    /// `N + 1` column boundaries, starting at `obs[N]`: agent `a`'s
    /// actions are `act[a]..act[a + 1]`.
    act: Vec<usize>,
}

impl JointLayout {
    /// The joint columns of agents with row shapes `layouts`.
    pub fn new(layouts: &[TransitionLayout]) -> Self {
        fn bounds(start: usize, widths: impl Iterator<Item = usize>) -> Vec<usize> {
            let ends = widths.scan(start, |end, w| {
                *end += w;
                Some(*end)
            });
            std::iter::once(start).chain(ends).collect()
        }
        let obs = bounds(0, layouts.iter().map(|l| l.obs_dim));
        let act = bounds(obs[layouts.len()], layouts.iter().map(|l| l.act_dim));
        JointLayout { obs, act }
    }

    /// Number of agents.
    pub fn agents(&self) -> usize {
        self.obs.len() - 1
    }

    /// Joint row width `J = Σ obs_dim + Σ act_dim`.
    pub fn width(&self) -> usize {
        self.act[self.agents()]
    }

    /// Agent `agent`'s observation columns.
    pub fn obs_cols(&self, agent: usize) -> Range<usize> {
        self.obs[agent]..self.obs[agent + 1]
    }

    /// Agent `agent`'s action columns.
    pub fn act_cols(&self, agent: usize) -> Range<usize> {
        self.act[agent]..self.act[agent + 1]
    }
}

/// The buffers one joint gather writes, for a plan of `B` rows under a
/// [`JointLayout`] of width `J`.
#[derive(Debug)]
pub struct JointRows<'a> {
    /// `B × J` joint rows `[obs_1..obs_N | act_1..act_N]`, row-major.
    pub joint: &'a mut [f32],
    /// `B × J` next-step joint rows. The gather writes only the
    /// observation columns; the action columns belong to the caller (a
    /// trainer writes its target actions there).
    pub joint_next: &'a mut [f32],
    /// `N × B` rewards, agent-major: agent `a`'s are `a·B..(a + 1)·B`.
    pub rewards: &'a mut [f32],
    /// `B` done flags, agent 0's.
    pub dones: &'a mut [f32],
}

/// A per-plan container a joint gather writes into
/// ([`crate::multi::MultiAgentReplay::sample_into`]).
pub trait JointBatch {
    /// Sizes the buffers for `plan`'s rows under `joint` and lends them.
    /// Their contents need not be cleared: the gather overwrites every
    /// element it owns.
    fn rows_for(&mut self, plan: &SamplePlan, joint: &JointLayout) -> JointRows<'_>;
}

/// A joint mini-batch in the critic's layout ([`JointRows`] owned), plus
/// the plan's common indices and its optional importance-sampling
/// weights, shared across agents (the paper's Lemma 1 weights from
/// prioritized sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBatch {
    /// `B × J` joint rows `[obs_1..obs_N | act_1..act_N]`, row-major.
    pub joint: Vec<f32>,
    /// `B × J` next-step joint rows; the gather writes the observation
    /// columns and leaves the action columns zero.
    pub joint_next: Vec<f32>,
    /// `N × B` rewards, agent-major.
    pub rewards: Vec<f32>,
    /// `B` done flags, agent 0's.
    pub dones: Vec<f32>,
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
        let rows = batch * JointLayout::new(layouts).width();
        MultiBatch {
            joint: Vec::with_capacity(rows),
            joint_next: Vec::with_capacity(rows),
            rewards: Vec::with_capacity(layouts.len() * batch),
            dones: Vec::with_capacity(batch),
            indices: Vec::with_capacity(batch),
            weights: None,
        }
    }
}

/// Copies the plan's indices and weights and grows or shrinks the row
/// buffers, reusing their storage (allocation-free in steady state when
/// the plan's weight variant is stable across calls).
impl JointBatch for MultiBatch {
    fn rows_for(&mut self, plan: &SamplePlan, joint: &JointLayout) -> JointRows<'_> {
        plan.flatten_into(&mut self.indices);
        match (&plan.weights, &mut self.weights) {
            (None, w) => *w = None,
            (Some(src), Some(dst)) => {
                dst.clear();
                dst.extend_from_slice(src);
            }
            (Some(src), w @ None) => *w = Some(src.clone()),
        }
        let batch = self.indices.len();
        self.joint.resize(batch * joint.width(), 0.0);
        self.joint_next.resize(batch * joint.width(), 0.0);
        self.rewards.resize(joint.agents() * batch, 0.0);
        self.dones.resize(batch, 0.0);
        JointRows {
            joint: &mut self.joint,
            joint_next: &mut self.joint_next,
            rewards: &mut self.rewards,
            dones: &mut self.dones,
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
    fn joint_layout_puts_every_observation_before_every_action() {
        let j = JointLayout::new(&[TransitionLayout::new(4, 2), TransitionLayout::new(3, 5)]);
        assert_eq!((j.agents(), j.width()), (2, 14));
        assert_eq!((j.obs_cols(0), j.obs_cols(1)), (0..4, 4..7));
        assert_eq!((j.act_cols(0), j.act_cols(1)), (7..9, 9..14));
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
