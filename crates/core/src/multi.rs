//! The N-agent replay store: every agent's transitions, pushed in
//! lockstep and sampled with a *common indices array* so the joint
//! transition of all agents at the same time step is reassembled
//! (Figure 5 of the paper).
//!
//! The paper's layout reorganization (Section IV-B2) is the same data at a
//! different address, so it is an *address map* chosen at construction,
//! not a second store. Agent `a`'s row at ring slot `s` lives at
//! `base[a] + s · stride[a]` of its block:
//!
//! * agent-major ([`LayoutMode::PerAgent`], the baseline): each agent's
//!   rows are one contiguous block of `capacity · w_a` floats,
//!   `base[a] = 0`, `stride[a] = w_a`;
//! * time-major ([`LayoutMode::Interleaved`]): one block whose rows are
//!   all agents' rows of one step (one "fat row" per key),
//!   `base[a] = Σ_{b<a} w_b`, `stride[a] = Σ w`, so a joint gather
//!   touches `O(m)` fat rows instead of `O(N·m)` agent rows.
//!
//! Agent-major blocks are separate allocations, not slices of one arena
//! of `capacity · Σ w` floats. The gather does not care, but the
//! allocator does: a block under glibc's 32 MiB mmap ceiling is served
//! from the heap once a block of its size was freed, and `calloc` then
//! zeroes all of it on every re-creation. A world-comm trainer's
//! repeated set-up measured ~8× slower with one 27 MB block than with
//! three 9 MB ones.
//!
//! Push, snapshot and restore are written once against the map; only the
//! gather's loop nesting inside a plan segment follows it (agent-outer
//! for agent-major, row-outer for time-major), because each map is
//! fastest read in its own order.
//!
//! The gather writes the centralized critic's layout directly: sampled
//! row `r` of agent `a` lands in row `r` of one `B × J` joint block
//! `[obs_1..obs_N | act_1..act_N]` (its observation and action columns,
//! [`MultiAgentReplay::joint_layout`]), in the observation columns of a
//! `B × J` `joint_next` block, and at `a·B + r` of the rewards. One body
//! serves every destination that implements [`JointBatch`]: the
//! [`MultiBatch`] of [`MultiAgentReplay::sample`] and a trainer's
//! per-plan matrices alike.

use crate::error::ReplayError;
use crate::indices::SamplePlan;
use crate::transition::{
    JointBatch, JointLayout, JointRows, MultiBatch, Transition, TransitionLayout, TransitionRef,
};
use serde::{Deserialize, Serialize};

/// How transition data is laid out in memory (Section IV-B2): the address
/// map of a [`MultiAgentReplay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LayoutMode {
    /// Agent-major: each agent's rows are contiguous (the baseline).
    #[default]
    PerAgent,
    /// Time-major: all agents' data for one time step is contiguous, so a
    /// joint gather is O(m) instead of O(N·m).
    Interleaved,
}

/// Every agent's replay rows under one address map, kept aligned by
/// pushing one transition per agent per environment step.
///
/// # Examples
///
/// ```
/// use marl_core::multi::{LayoutMode, MultiAgentReplay};
/// use marl_core::transition::{Transition, TransitionLayout};
///
/// let layouts = vec![TransitionLayout::new(4, 2); 3];
/// let mut replay = MultiAgentReplay::with_mode(&layouts, 100, LayoutMode::Interleaved);
/// let ts: Vec<Transition> = (0..3)
///     .map(|_| Transition {
///         obs: vec![0.0; 4],
///         action: vec![1.0, 0.0],
///         reward: 0.0,
///         next_obs: vec![0.0; 4],
///         done: 0.0,
///     })
///     .collect();
/// replay.push_step(&ts)?;
/// assert_eq!(replay.len(), 1);
/// # Ok::<(), marl_core::error::ReplayError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiAgentReplay {
    layouts: Vec<TransitionLayout>,
    /// The critic's joint-row columns of these agents.
    joint: JointLayout,
    mode: LayoutMode,
    /// The rows: one block per agent (agent-major) or one block for all
    /// (time-major).
    blocks: Vec<Vec<f32>>,
    /// Element offset of each agent's slot-0 row within its block.
    base: Vec<usize>,
    /// Element distance between consecutive slots of one agent.
    stride: Vec<usize>,
    capacity: usize,
    len: usize,
    next: usize,
}

impl MultiAgentReplay {
    /// Creates an empty agent-major store: one ring of `capacity` rows per
    /// agent layout.
    ///
    /// # Panics
    ///
    /// Panics if `layouts` is empty or `capacity == 0`.
    pub fn new(layouts: &[TransitionLayout], capacity: usize) -> Self {
        Self::with_mode(layouts, capacity, LayoutMode::PerAgent)
    }

    /// Creates an empty store under the address map `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `layouts` is empty, `capacity == 0`, or the arena size
    /// overflows `usize`.
    pub fn with_mode(layouts: &[TransitionLayout], capacity: usize, mode: LayoutMode) -> Self {
        assert!(!layouts.is_empty(), "need at least one agent");
        assert!(capacity > 0, "replay capacity must be positive");
        let widths: Vec<usize> = layouts.iter().map(TransitionLayout::row_width).collect();
        let total: usize = widths.iter().sum();
        capacity.checked_mul(total).expect("replay arena size overflows usize");
        let (blocks, base, stride) = match mode {
            LayoutMode::PerAgent => (
                widths.iter().map(|&w| vec![0.0; capacity * w]).collect(),
                vec![0; widths.len()],
                widths,
            ),
            LayoutMode::Interleaved => {
                let mut base = Vec::with_capacity(widths.len());
                let mut prefix = 0;
                for &w in &widths {
                    base.push(prefix);
                    prefix += w;
                }
                (vec![vec![0.0; capacity * total]], base, vec![total; widths.len()])
            }
        };
        MultiAgentReplay {
            layouts: layouts.to_vec(),
            joint: JointLayout::new(layouts),
            mode,
            blocks,
            base,
            stride,
            capacity,
            len: 0,
            next: 0,
        }
    }

    /// A copy of `src` under the address map `mode`: the same rows, length
    /// and ring cursor at the other addresses (the paper's reshape step).
    pub fn reorganize_from(src: &MultiAgentReplay, mode: LayoutMode) -> Self {
        let mut dst = Self::with_mode(&src.layouts, src.capacity, mode);
        for a in 0..src.agent_count() {
            for slot in 0..src.len {
                dst.row_mut(a, slot).copy_from_slice(src.row_at(a, slot));
            }
        }
        dst.set_cursor(src.len, src.next);
        dst
    }

    /// The address map chosen at construction.
    pub fn mode(&self) -> LayoutMode {
        self.mode
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.layouts.len()
    }

    /// Shared capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of aligned rows stored (identical across agents).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fill fraction `len / capacity` in `[0, 1]` (telemetry gauge).
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.capacity as f64
    }

    /// The slot the next push writes (for priority bookkeeping).
    pub fn next_slot(&self) -> usize {
        self.next
    }

    /// Per-agent row layouts.
    pub fn layouts(&self) -> &[TransitionLayout] {
        &self.layouts
    }

    /// The columns of the joint rows a gather writes.
    pub fn joint_layout(&self) -> &JointLayout {
        &self.joint
    }

    /// Borrows agent `agent`'s row at ring slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range or `slot >= len`.
    pub fn row(&self, agent: usize, slot: usize) -> &[f32] {
        assert!(slot < self.len, "row index {slot} out of bounds (len {})", self.len);
        self.row_at(agent, slot)
    }

    /// Index into `blocks` of the block holding `agent`'s rows.
    fn block(&self, agent: usize) -> usize {
        match self.mode {
            LayoutMode::PerAgent => agent,
            LayoutMode::Interleaved => 0,
        }
    }

    #[inline]
    fn row_at(&self, agent: usize, slot: usize) -> &[f32] {
        let at = self.base[agent] + slot * self.stride[agent];
        &self.blocks[self.block(agent)][at..at + self.layouts[agent].row_width()]
    }

    /// Agent `agent`'s row at `slot`, for writing (push and restore).
    pub(crate) fn row_mut(&mut self, agent: usize, slot: usize) -> &mut [f32] {
        let at = self.base[agent] + slot * self.stride[agent];
        let block = self.block(agent);
        &mut self.blocks[block][at..at + self.layouts[agent].row_width()]
    }

    /// Sets the stored length and ring cursor (snapshot restore).
    pub(crate) fn set_cursor(&mut self, len: usize, next: usize) {
        assert!(len <= self.capacity && next < self.capacity, "cursor out of range");
        self.len = len;
        self.next = next;
    }

    /// Writes one row per agent at the cursor through `write`, then
    /// advances the ring. Returns the slot written.
    fn push_rows(&mut self, mut write: impl FnMut(usize, &TransitionLayout, &mut [f32])) -> usize {
        let slot = self.next;
        for a in 0..self.layouts.len() {
            let layout = self.layouts[a];
            write(a, &layout, self.row_mut(a, slot));
        }
        self.next = (slot + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
        slot
    }

    /// Pushes one transition per agent (same time step), overwriting the
    /// oldest step once full. Returns the slot written.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::AgentCountMismatch`] when the number of
    /// transitions differs from the number of agents.
    pub fn push_step(&mut self, transitions: &[Transition]) -> Result<usize, ReplayError> {
        if transitions.len() != self.layouts.len() {
            return Err(ReplayError::AgentCountMismatch {
                expected: self.layouts.len(),
                got: transitions.len(),
            });
        }
        Ok(self.push_rows(|a, l, row| transitions[a].write_row(l, row)))
    }

    /// Pushes one transition per agent without intermediate `Vec`s: the
    /// closure is called once per agent index, with that agent's layout,
    /// and returns a borrowed row. The agent count is fixed by
    /// construction, so no count mismatch can occur. Returns the slot
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if a returned row disagrees with its agent's layout.
    pub fn push_step_with<'a, F>(&mut self, mut f: F) -> usize
    where
        F: FnMut(usize, &TransitionLayout) -> TransitionRef<'a>,
    {
        self.push_rows(|a, l, row| f(a, l).write_row(l, row))
    }

    /// Executes a sample plan against **every** agent's rows with the
    /// same (common) indices, producing the joint mini-batch the critic
    /// update consumes.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::IndexOutOfRange`] if the plan references
    /// unstored rows.
    pub fn sample(&self, plan: &SamplePlan) -> Result<MultiBatch, ReplayError> {
        let mut out = MultiBatch::preallocate(&self.layouts, plan.batch_len());
        self.sample_into(plan, &mut out)?;
        Ok(out)
    }

    /// The gather: [`MultiAgentReplay::sample`] into a caller-owned
    /// container, which sizes its buffers for the plan
    /// ([`JointBatch::rows_for`]) and receives every sampled row in the
    /// critic's layout (module docs). A container that keeps its storage
    /// across calls makes the gather allocation-free once it has seen a
    /// batch of this shape.
    ///
    /// The gather goes segment by segment, so the destination rows of one
    /// segment are finished before the next starts; a single-row segment
    /// (uniform, PER) writes its joint rows whole. Inside a segment the
    /// loop nesting follows the address map. Agent-major gathers agent
    /// by agent, so a run streams sequentially through one agent's block;
    /// time-major gathers index by index, so each index reads one
    /// contiguous fat row. Both give the same batch.
    ///
    /// The contents of `out` are unspecified if an error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::IndexOutOfRange`] if the plan references
    /// unstored rows.
    ///
    /// # Panics
    ///
    /// Panics if `out` lends buffers of the wrong size.
    pub fn sample_into(
        &self,
        plan: &SamplePlan,
        out: &mut impl JointBatch,
    ) -> Result<(), ReplayError> {
        if let Some(seg) = plan.segments.iter().find(|s| s.start + s.len > self.len) {
            return Err(ReplayError::IndexOutOfRange {
                index: seg.start + seg.len - 1,
                len: self.len,
            });
        }
        let (batch, width) = (plan.batch_len(), self.joint.width());
        let JointRows { joint, joint_next, rewards, dones } = out.rows_for(plan, &self.joint);
        assert!(
            joint.len() == batch * width
                && joint_next.len() == batch * width
                && rewards.len() == self.layouts.len() * batch
                && dones.len() == batch,
            "gather buffers are not sized for {batch} rows of width {width}"
        );
        // Agent `a`'s stored row `src` into batch row `r`.
        let mut put = |a: usize, r: usize, src: &[f32]| {
            let t = TransitionRef::from_row(&self.layouts[a], src);
            let (obs, act) = (self.joint.obs_cols(a), self.joint.act_cols(a));
            let at = r * width;
            joint[at + obs.start..at + obs.end].copy_from_slice(t.obs);
            joint[at + act.start..at + act.end].copy_from_slice(t.action);
            joint_next[at + obs.start..at + obs.end].copy_from_slice(t.next_obs);
            rewards[a * batch + r] = t.reward;
            if a == 0 {
                dones[r] = t.done;
            }
        };
        let mut first = 0;
        for seg in &plan.segments {
            let rows = || seg.iter().enumerate().map(|(k, idx)| (first + k, idx));
            match self.mode {
                LayoutMode::PerAgent => {
                    for (a, (block, &w)) in self.blocks.iter().zip(&self.stride).enumerate() {
                        rows().for_each(|(r, idx)| put(a, r, &block[idx * w..(idx + 1) * w]));
                    }
                }
                LayoutMode::Interleaved => {
                    let fat = self.stride[0];
                    for (r, idx) in rows() {
                        let row = &self.blocks[0][idx * fat..(idx + 1) * fat];
                        for (a, (l, &off)) in self.layouts.iter().zip(&self.base).enumerate() {
                            put(a, r, &row[off..off + l.row_width()]);
                        }
                    }
                }
            }
            first += seg.len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indices::Segment;

    const MODES: [LayoutMode; 2] = [LayoutMode::PerAgent, LayoutMode::Interleaved];

    fn transition(layout: &TransitionLayout, v: f32) -> Transition {
        Transition {
            obs: vec![v; layout.obs_dim],
            action: vec![v; layout.act_dim],
            reward: v,
            next_obs: vec![v + 0.5; layout.obs_dim],
            done: 0.0,
        }
    }

    /// `rows` steps into a store of twice that capacity; agent `a` at
    /// step `t` carries the value `10·t + a`. Agent widths differ.
    fn filled(agents: usize, rows: usize, mode: LayoutMode) -> MultiAgentReplay {
        let layouts: Vec<TransitionLayout> =
            (0..agents).map(|a| TransitionLayout::new(3 + a, 2)).collect();
        let mut r = MultiAgentReplay::with_mode(&layouts, rows * 2, mode);
        for t in 0..rows {
            let ts: Vec<Transition> =
                (0..agents).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            r.push_step(&ts).unwrap();
        }
        r
    }

    #[test]
    fn address_maps_follow_their_formulas() {
        let layouts = [TransitionLayout::new(1, 1), TransitionLayout::new(2, 1)]; // w = 5, 7
        let per = MultiAgentReplay::new(&layouts, 4);
        assert_eq!((per.base.clone(), per.stride.clone()), (vec![0, 0], vec![5, 7]));
        assert_eq!(per.blocks.iter().map(Vec::len).collect::<Vec<_>>(), [20, 28]);
        let tm = MultiAgentReplay::with_mode(&layouts, 4, LayoutMode::Interleaved);
        assert_eq!((tm.base.clone(), tm.stride.clone()), (vec![0, 5], vec![12, 12]));
        assert_eq!(tm.blocks.iter().map(Vec::len).collect::<Vec<_>>(), [48]);
    }

    #[test]
    fn push_keeps_agents_aligned_and_the_ring_wraps() {
        for mode in MODES {
            let layouts = vec![TransitionLayout::new(1, 1); 2];
            let mut r = MultiAgentReplay::with_mode(&layouts, 2, mode);
            for t in 0..3 {
                let ts: Vec<Transition> =
                    (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
                assert_eq!(r.push_step(&ts).unwrap(), t % 2);
            }
            assert_eq!((r.len(), r.next_slot()), (2, 1));
            // Slot 0 was overwritten by step 2.
            let reward = |a, slot| TransitionRef::from_row(&layouts[a], r.row(a, slot)).reward;
            assert_eq!([reward(0, 0), reward(1, 0), reward(0, 1)], [20.0, 21.0, 10.0], "{mode:?}");
        }
    }

    #[test]
    fn wrong_agent_count_rejected() {
        let layouts = vec![TransitionLayout::new(2, 1); 2];
        let mut r = MultiAgentReplay::new(&layouts, 4);
        let err = r.push_step(&[transition(&layouts[0], 0.0)]).unwrap_err();
        assert!(matches!(err, ReplayError::AgentCountMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn common_indices_align_across_agents() {
        for mode in MODES {
            let r = filled(3, 20, mode);
            let mb = r.sample(&SamplePlan::from_indices(&[5, 17, 0])).unwrap();
            let (joint, width) = (r.joint_layout(), r.joint_layout().width());
            assert_eq!((width, mb.joint.len(), mb.joint_next.len()), (18, 3 * 18, 3 * 18));
            assert_eq!(mb.dones, [0.0; 3]);
            for (a, lane) in mb.rewards.chunks(3).enumerate() {
                // Row 0 of every agent's block comes from time step 5.
                let v = [(50 + a) as f32, (170 + a) as f32, a as f32];
                assert_eq!(lane, v, "{mode:?}");
                for (r, &v) in v.iter().enumerate() {
                    let row = |m: &[f32], cols: std::ops::Range<usize>| {
                        m[r * width..(r + 1) * width][cols].to_vec()
                    };
                    assert_eq!(row(&mb.joint, joint.obs_cols(a)), vec![v; 3 + a], "{mode:?}");
                    assert_eq!(row(&mb.joint, joint.act_cols(a)), vec![v; 2], "{mode:?}");
                    let next = row(&mb.joint_next, joint.obs_cols(a));
                    assert_eq!(next, vec![v + 0.5; 3 + a], "{mode:?}");
                    assert_eq!(row(&mb.joint_next, joint.act_cols(a)), vec![0.0; 2], "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn both_maps_and_both_segment_shapes_gather_the_same_batch() {
        let run_plan = SamplePlan { segments: vec![Segment::run(4, 5)], weights: None };
        let flat_plan = SamplePlan::from_indices(&[4, 5, 6, 7, 8]);
        let expect = filled(2, 30, LayoutMode::PerAgent).sample(&flat_plan).unwrap();
        for mode in MODES {
            let r = filled(2, 30, mode);
            assert_eq!(r.sample(&run_plan).unwrap(), expect, "{mode:?}");
            assert_eq!(r.sample(&flat_plan).unwrap(), expect, "{mode:?}");
        }
    }

    #[test]
    fn out_of_range_plan_fails() {
        for mode in MODES {
            let r = filled(2, 4, mode);
            let err = r.sample(&SamplePlan::from_indices(&[4])).unwrap_err();
            assert!(matches!(err, ReplayError::IndexOutOfRange { index: 4, len: 4 }), "{err:?}");
        }
    }

    #[test]
    fn weights_pass_through() {
        let r = filled(2, 8, LayoutMode::PerAgent);
        let mut plan = SamplePlan::from_indices(&[0, 1]);
        plan.weights = Some(vec![0.5, 1.0]);
        assert_eq!(r.sample(&plan).unwrap().weights, Some(vec![0.5, 1.0]));
    }

    #[test]
    fn sample_into_reuses_batch_storage() {
        for mode in MODES {
            let r = filled(3, 32, mode);
            let mut out = MultiBatch::preallocate(r.layouts(), 8);
            let plan_a = SamplePlan::from_indices(&(0..8).collect::<Vec<_>>());
            r.sample_into(&plan_a, &mut out).unwrap();
            assert_eq!(out, r.sample(&plan_a).unwrap());
            let ptrs = (out.joint.as_ptr(), out.joint_next.as_ptr(), out.rewards.as_ptr());
            // A smaller follow-up batch reuses the same allocations and
            // leaves no stale rows behind.
            let plan_b = SamplePlan::from_indices(&[31, 2, 15]);
            r.sample_into(&plan_b, &mut out).unwrap();
            assert_eq!(out, r.sample(&plan_b).unwrap());
            assert_eq!(
                (out.joint.as_ptr(), out.joint_next.as_ptr(), out.rewards.as_ptr()),
                ptrs,
                "row storage must be reused"
            );
            assert_eq!((out.rewards.len(), out.dones.len()), (3 * 3, 3));
        }
    }

    #[test]
    fn reorganize_keeps_rows_and_the_wrapped_cursor() {
        let layouts = vec![TransitionLayout::new(2, 1), TransitionLayout::new(3, 1)];
        let mut src = MultiAgentReplay::new(&layouts, 4);
        let step = |t: usize| -> Vec<Transition> {
            (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect()
        };
        for t in 0..6 {
            src.push_step(&step(t)).unwrap(); // wraps: cursor ends at slot 2
        }
        let mut tm = MultiAgentReplay::reorganize_from(&src, LayoutMode::Interleaved);
        assert_eq!((tm.mode(), tm.len(), tm.next_slot()), (LayoutMode::Interleaved, 4, 2));
        let all = SamplePlan::from_indices(&[0, 1, 2, 3]);
        assert_eq!(tm.sample(&all).unwrap(), src.sample(&all).unwrap());
        // The next push overwrites the oldest step (slot 2), as in the source.
        assert_eq!(tm.push_step(&step(6)).unwrap(), src.push_step(&step(6)).unwrap());
        let back = MultiAgentReplay::reorganize_from(&tm, LayoutMode::PerAgent);
        assert_eq!(back.blocks, src.blocks);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MultiAgentReplay::new(&[TransitionLayout::new(1, 1)], 0);
    }
}
