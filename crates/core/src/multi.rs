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
//! gather's loop nesting follows it (agent-outer for agent-major,
//! row-outer for time-major), because each map is fastest read in its own
//! order.

use crate::error::ReplayError;
use crate::indices::SamplePlan;
use crate::transition::{AgentBatch, MultiBatch, Transition, TransitionLayout, TransitionRef};
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
    /// closure is called once per agent index and returns a borrowed row.
    /// The agent count is fixed by construction, so no count mismatch can
    /// occur. Returns the slot written.
    ///
    /// # Panics
    ///
    /// Panics if a returned row disagrees with its agent's layout.
    pub fn push_step_with<'a, F>(&mut self, mut f: F) -> usize
    where
        F: FnMut(usize) -> TransitionRef<'a>,
    {
        self.push_rows(|a, l, row| f(a).write_row(l, row))
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

    /// [`MultiAgentReplay::sample`] gathering into a caller-owned
    /// [`MultiBatch`], reusing its column storage: once `out` has seen a
    /// batch of this shape, the gather performs zero heap allocations.
    ///
    /// The loop nesting follows the address map. Agent-major gathers agent
    /// by agent, so rows within a plan segment stream sequentially through
    /// one agent's block; time-major gathers index by index, so each index
    /// reads one contiguous fat row. Either map read in the other order
    /// is slower, and both give the same batch.
    ///
    /// `out` is reshaped on first use (or agent-count change); its contents
    /// are unspecified if an error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::IndexOutOfRange`] if the plan references
    /// unstored rows.
    pub fn sample_into(&self, plan: &SamplePlan, out: &mut MultiBatch) -> Result<(), ReplayError> {
        if let Some(seg) = plan.segments.iter().find(|s| s.start + s.len > self.len) {
            return Err(ReplayError::IndexOutOfRange {
                index: seg.start + seg.len - 1,
                len: self.len,
            });
        }
        let batch = plan.batch_len();
        if out.agents.len() != self.layouts.len() {
            out.agents.clear();
            out.agents.extend(self.layouts.iter().map(|&l| AgentBatch::with_capacity(l, batch)));
        }
        out.set_plan_meta(plan);
        for (ab, &l) in out.agents.iter_mut().zip(&self.layouts) {
            ab.layout = l;
            ab.reset(batch);
        }
        match self.mode {
            LayoutMode::PerAgent => {
                for ((ab, block), &w) in out.agents.iter_mut().zip(&self.blocks).zip(&self.stride) {
                    for seg in &plan.segments {
                        for idx in seg.iter() {
                            ab.push_row(&block[idx * w..(idx + 1) * w]);
                        }
                    }
                }
            }
            LayoutMode::Interleaved => {
                let fat = self.stride[0];
                for seg in &plan.segments {
                    for idx in seg.iter() {
                        let row = &self.blocks[0][idx * fat..(idx + 1) * fat];
                        for ((ab, l), &off) in
                            out.agents.iter_mut().zip(&self.layouts).zip(&self.base)
                        {
                            ab.push_row(&row[off..off + l.row_width()]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Gathers one full mini-batch per plan into caller-owned batches (one
    /// per plan, storage reused across calls), fanning the *plans* out over
    /// up to `threads` scoped worker threads.
    ///
    /// This is the gather shape of the parallel update-all-trainers
    /// pipeline: each trainer's plan is independent, so whole-batch
    /// gathers parallelize without any cross-thread coordination. Results
    /// are bitwise identical to calling [`MultiAgentReplay::sample_into`]
    /// per plan, for either address map and any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len() != outs.len()`.
    ///
    /// # Errors
    ///
    /// Propagates index-range errors; the contents of `outs` are
    /// unspecified on error.
    pub fn sample_many_into(
        &self,
        plans: &[SamplePlan],
        outs: &mut [MultiBatch],
        threads: usize,
    ) -> Result<(), ReplayError> {
        assert_eq!(plans.len(), outs.len(), "one output batch per plan");
        let threads = threads.clamp(1, plans.len().max(1));
        if threads == 1 {
            for (p, o) in plans.iter().zip(outs.iter_mut()) {
                self.sample_into(p, o)?;
            }
            return Ok(());
        }
        let chunk = plans.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .chunks(chunk)
                .zip(outs.chunks_mut(chunk))
                .map(|(ps, os)| {
                    scope.spawn(move || {
                        for (p, o) in ps.iter().zip(os.iter_mut()) {
                            self.sample_into(p, o)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("gather worker panicked"))
        })
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
            let reward = |a, slot| r.row(a, slot)[layouts[0].reward_offset()];
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
            for (a, ab) in mb.agents.iter().enumerate() {
                // Row 0 of every agent batch comes from time step 5.
                assert_eq!(ab.rewards, vec![(50 + a) as f32, (170 + a) as f32, a as f32]);
                assert_eq!(ab.obs.len(), 3 * (3 + a), "{mode:?}");
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
            assert_eq!(r.sample(&run_plan).unwrap().agents, expect.agents, "{mode:?}");
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
            let ptrs: Vec<_> = out.agents.iter().map(|a| a.obs.as_ptr()).collect();
            // A smaller follow-up batch reuses the same allocations and
            // leaves no stale rows behind.
            let plan_b = SamplePlan::from_indices(&[31, 2, 15]);
            r.sample_into(&plan_b, &mut out).unwrap();
            assert_eq!(out, r.sample(&plan_b).unwrap());
            for (a, &p) in out.agents.iter().zip(&ptrs) {
                assert_eq!(a.obs.as_ptr(), p, "obs storage must be reused");
                assert_eq!(a.rewards.len(), 3);
            }
        }
    }

    #[test]
    fn sample_many_into_equals_per_plan_sample_on_both_maps() {
        let plans: Vec<SamplePlan> = vec![
            SamplePlan::from_indices(&[0, 5, 39]),
            SamplePlan { segments: vec![Segment::run(10, 3)], weights: None },
            SamplePlan::from_indices(&[7, 7, 2]),
            SamplePlan::from_indices(&[21]),
            SamplePlan::from_indices(&[3, 14, 15, 9]),
        ];
        let r = filled(3, 40, LayoutMode::PerAgent);
        let expect: Vec<MultiBatch> = plans.iter().map(|p| r.sample(p).unwrap()).collect();
        for mode in MODES {
            let r = filled(3, 40, mode);
            let mut outs: Vec<MultiBatch> =
                plans.iter().map(|p| MultiBatch::preallocate(r.layouts(), p.batch_len())).collect();
            for threads in [1usize, 2, 3, 8, 100] {
                r.sample_many_into(&plans, &mut outs, threads).unwrap();
                assert_eq!(outs, expect, "{mode:?} threads={threads}");
            }
        }
    }

    #[test]
    fn sample_many_into_handles_empty_and_errors() {
        let r = filled(2, 4, LayoutMode::Interleaved);
        r.sample_many_into(&[], &mut [], 4).unwrap();
        let plans = vec![SamplePlan::from_indices(&[0]), SamplePlan::from_indices(&[10])];
        let mut outs = vec![MultiBatch::preallocate(r.layouts(), 1); 2];
        assert!(r.sample_many_into(&plans, &mut outs, 2).is_err());
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
