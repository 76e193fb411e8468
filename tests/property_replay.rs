//! Property-based tests (proptest) on the replay/sampling core: data
//! integrity, plan bounds, the equivalence of the replay store's two
//! address maps, and sum-tree invariants under arbitrary operation
//! sequences.

use marl_repro::core::config::SamplerConfig;
use marl_repro::core::indices::{SamplePlan, Segment};
use marl_repro::core::multi::{LayoutMode, MultiAgentReplay};
use marl_repro::core::snapshot::{decode_replay, decode_replay_into, encode_replay};
use marl_repro::core::sumtree::SumTree;
use marl_repro::core::transition::{MultiBatch, Transition, TransitionLayout, TransitionRef};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn transition(layout: &TransitionLayout, tag: f32) -> Transition {
    Transition {
        obs: vec![tag; layout.obs_dim],
        action: vec![tag; layout.act_dim],
        reward: tag,
        next_obs: vec![tag + 0.25; layout.obs_dim],
        done: if (tag as usize).is_multiple_of(7) { 1.0 } else { 0.0 },
    }
}

/// The gather oracle: every element of `batch` is the stored row it was
/// sampled from. Row `r` of index `idx` carries, for every agent `a`,
/// `a`'s stored obs and action in `a`'s joint columns, its next obs in
/// `a`'s `joint_next` observation columns (the action columns stay
/// zero), its reward at `a·B + r`, and agent 0's done flag at `r`; the
/// indices are the plan's, in order, and so are the weights.
fn check_against_rows(
    store: &MultiAgentReplay,
    plan: &SamplePlan,
    batch: &MultiBatch,
) -> Result<(), TestCaseError> {
    let indices = plan.flatten();
    let (b, cols) = (indices.len(), store.joint_layout());
    let w = cols.width();
    prop_assert_eq!(&batch.indices, &indices);
    prop_assert_eq!(&batch.weights, &plan.weights);
    prop_assert_eq!((batch.joint.len(), batch.joint_next.len()), (b * w, b * w));
    prop_assert_eq!((batch.rewards.len(), batch.dones.len()), (store.agent_count() * b, b));
    for (r, &idx) in indices.iter().enumerate() {
        let (joint, next) =
            (&batch.joint[r * w..(r + 1) * w], &batch.joint_next[r * w..(r + 1) * w]);
        for (a, layout) in store.layouts().iter().enumerate() {
            let t = TransitionRef::from_row(layout, store.row(a, idx));
            let (obs, act) = (cols.obs_cols(a), cols.act_cols(a));
            prop_assert_eq!(&joint[obs.clone()], t.obs, "obs a={} r={}", a, r);
            prop_assert_eq!(&joint[act.clone()], t.action, "action a={} r={}", a, r);
            prop_assert_eq!(&next[obs], t.next_obs, "next_obs a={} r={}", a, r);
            prop_assert!(next[act].iter().all(|&x| x == 0.0), "next action a={} r={}", a, r);
            prop_assert_eq!(batch.rewards[a * b + r], t.reward, "reward a={} r={}", a, r);
            if a == 0 {
                prop_assert_eq!(batch.dones[r], t.done, "done r={}", r);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pushing k rows then reading them back yields exactly the pushed
    /// data for any capacity/row-count combination.
    #[test]
    fn push_read_roundtrip(
        capacity in 1usize..64,
        pushes in 1usize..200,
        obs_dim in 1usize..24,
    ) {
        let layouts = vec![TransitionLayout::new(obs_dim, 3); 2];
        let mut replay = MultiAgentReplay::new(&layouts, capacity);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }
        prop_assert_eq!(replay.len(), pushes.min(capacity));
        // The slot for time t (if still stored) is t % capacity.
        let newest = pushes - 1;
        let slot = newest % capacity;
        let got = Transition::from_row(&layouts[0], replay.row(0, slot));
        prop_assert_eq!(got.reward, (newest * 10) as f32);
    }

    /// Every sampler's plan stays within bounds and fills the batch for
    /// arbitrary buffer lengths.
    #[test]
    fn plans_always_in_bounds(
        len in 64usize..4096,
        batch_pow in 3u32..9, // 8..=256, powers of two so locality divides
        seed in any::<u64>(),
    ) {
        let batch = 1usize << batch_pow;
        prop_assume!(batch <= len);
        let mut rng = StdRng::seed_from_u64(seed);
        for cfg in [
            SamplerConfig::Uniform,
            SamplerConfig::Locality { neighbors: 8 },
            SamplerConfig::Per,
            SamplerConfig::IpLocality,
        ] {
            let mut sampler = cfg.build(len);
            if cfg.is_prioritized() {
                for slot in 0..len {
                    sampler.observe_push(slot);
                }
            }
            let plan = sampler.plan(len, batch, &mut rng).unwrap();
            prop_assert_eq!(plan.batch_len(), batch);
            for idx in plan.flatten() {
                prop_assert!(idx < len, "{:?} produced oob index {}", cfg, idx);
            }
            if let Some(w) = plan.weights {
                prop_assert_eq!(w.len(), batch);
                prop_assert!(w.iter().all(|&x| x > 0.0 && x <= 1.0 + 1e-6));
            }
        }
    }

    /// The two address maps are one store: for heterogeneous agent
    /// layouts, any capacity, pushes that wrap the ring and arbitrary
    /// plans of single rows and runs (every other one weighted), each
    /// map's batches match the stored rows element by element
    /// (`check_against_rows`), and the agent-major and time-major maps
    /// give identical `sample_into` batches, identical `sample_many_into`
    /// batches at 1–3 threads, identical snapshot bytes, identical
    /// restores of that snapshot into either map, and identical map-to-map
    /// copies, ring cursor included.
    #[test]
    fn layout_equivalence(
        widths in proptest::collection::vec((1usize..6, 1usize..4), 1..5),
        capacity in 1usize..48,
        pushes in 1usize..150,
        plans in proptest::collection::vec(
            proptest::collection::vec((0usize..1000, 1usize..5), 1..12),
            1..4,
        ),
    ) {
        let layouts: Vec<TransitionLayout> =
            widths.iter().map(|&(o, a)| TransitionLayout::new(o, a)).collect();
        let n = layouts.len();
        let mut per = MultiAgentReplay::with_mode(&layouts, capacity, LayoutMode::PerAgent);
        let mut tm = MultiAgentReplay::with_mode(&layouts, capacity, LayoutMode::Interleaved);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..n).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            prop_assert_eq!(per.push_step(&step).unwrap(), tm.push_step(&step).unwrap());
        }
        let len = per.len();
        // Segments of one row or a run, clamped into the stored rows.
        let plans: Vec<SamplePlan> = plans
            .iter()
            .enumerate()
            .map(|(k, segs)| {
                let segments: Vec<Segment> = segs
                    .iter()
                    .map(|&(start, run)| {
                        let run = run.min(len);
                        Segment::run(start % (len - run + 1), run)
                    })
                    .collect();
                let rows = segments.iter().map(|s| s.len).sum::<usize>();
                let weights = (k % 2 == 1).then(|| (0..rows).map(|r| 1.0 / (r + 1) as f32).collect());
                SamplePlan { segments, weights }
            })
            .collect();

        for plan in &plans {
            let batch = per.sample(plan).unwrap();
            check_against_rows(&per, plan, &batch)?;
            check_against_rows(&tm, plan, &tm.sample(plan).unwrap())?;
            prop_assert_eq!(batch, tm.sample(plan).unwrap());
        }
        let expect: Vec<MultiBatch> = plans.iter().map(|p| per.sample(p).unwrap()).collect();
        for threads in 1..=3 {
            for store in [&per, &tm] {
                let mut outs = vec![MultiBatch::preallocate(&layouts, 1); plans.len()];
                store.sample_many_into(&plans, &mut outs, threads).unwrap();
                prop_assert_eq!(&outs, &expect, "{:?} threads={}", store.mode(), threads);
            }
        }

        let bytes = encode_replay(&per);
        prop_assert_eq!(&encode_replay(&tm), &bytes);
        for mode in [LayoutMode::PerAgent, LayoutMode::Interleaved] {
            let mut restored = MultiAgentReplay::with_mode(&layouts, capacity, mode);
            decode_replay_into(&mut restored, &bytes).unwrap();
            prop_assert_eq!(restored.next_slot(), per.next_slot());
            prop_assert_eq!(&encode_replay(&restored), &bytes);
            for plan in &plans {
                prop_assert_eq!(restored.sample(plan).unwrap(), per.sample(plan).unwrap());
            }
        }

        for (src, mode) in [(&per, LayoutMode::Interleaved), (&tm, LayoutMode::PerAgent)] {
            let copy = MultiAgentReplay::reorganize_from(src, mode);
            prop_assert_eq!(copy.mode(), mode);
            prop_assert_eq!((copy.len(), copy.next_slot()), (src.len(), src.next_slot()));
            prop_assert_eq!(&encode_replay(&copy), &bytes);
        }
    }

    /// Sum-tree invariant: the root always equals the sum of the leaves,
    /// and prefix lookup lands in the owning leaf's interval.
    #[test]
    fn sumtree_invariants(
        updates in proptest::collection::vec((0usize..32, 0.0f64..100.0), 1..100),
        probe in 0.0f64..1.0,
    ) {
        let mut tree = SumTree::new(32);
        let mut leaves = [0.0f64; 32];
        for (i, p) in updates {
            tree.update(i, p);
            leaves[i] = p;
        }
        let total: f64 = leaves.iter().sum();
        prop_assert!((tree.total() - total).abs() < 1e-6 * total.max(1.0));
        if total > 0.0 {
            let target = probe * total;
            let leaf = tree.find_prefix(target);
            let before: f64 = leaves[..leaf].iter().sum();
            prop_assert!(target >= before - 1e-9);
            prop_assert!(target < before + leaves[leaf] + 1e-6 * total);
        }
    }

    /// Snapshot decoding is total: flipping arbitrary bytes in a valid
    /// snapshot yields Ok or a structured error, never a panic or runaway
    /// allocation.
    #[test]
    fn snapshot_decode_survives_corruption(
        flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..16),
        pushes in 1usize..20,
    ) {
        let layouts = vec![TransitionLayout::new(4, 2); 2];
        let mut replay = MultiAgentReplay::new(&layouts, 32);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }
        let good = encode_replay(&replay);
        let mut bad = good.clone();
        for (pos, byte) in flips {
            let i = pos % bad.len();
            bad[i] = byte;
        }
        // Must terminate without panicking; content equality only required
        // when the bytes happen to still be valid.
        let _ = decode_replay(&bad);
    }

    /// With V2 framing (CRC-32 over the body), *every* single-bit flip in
    /// a snapshot is detected: decode returns a structured error and
    /// never silently loads corrupted transitions.
    #[test]
    fn snapshot_single_bit_flip_is_detected(
        pos in 0.0f64..1.0,
        bit in 0u8..8,
        pushes in 1usize..20,
    ) {
        let layouts = vec![TransitionLayout::new(4, 2); 2];
        let mut replay = MultiAgentReplay::new(&layouts, 32);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }
        let mut bad = encode_replay(&replay);
        let i = ((bad.len() - 1) as f64 * pos) as usize;
        bad[i] ^= 1 << bit;
        prop_assert!(decode_replay(&bad).is_err());
    }

    /// Truncating a snapshot anywhere before its end is always rejected —
    /// a torn write can never decode into a shorter-but-plausible buffer.
    #[test]
    fn snapshot_truncation_is_detected(cut in 0.0f64..1.0, pushes in 1usize..20) {
        let layouts = vec![TransitionLayout::new(4, 2); 2];
        let mut replay = MultiAgentReplay::new(&layouts, 32);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }
        let good = encode_replay(&replay);
        let len = ((good.len() - 1) as f64 * cut) as usize;
        prop_assert!(decode_replay(&good[..len]).is_err());
    }

    /// The time-major → agent-major copy is the exact inverse of the
    /// agent-major → time-major one for every reachable ring state —
    /// partially filled, exactly full, and wrapped with the write cursor at
    /// an arbitrary slot — across agent counts and heterogeneous row
    /// widths. A mismatch at a wrap boundary would silently corrupt a
    /// resume that crosses maps.
    #[test]
    fn reorganize_then_deinterleave_is_identity(
        agents in 1usize..5,
        obs_dim in 1usize..6,
        capacity in 2usize..32,
        wraps in 0usize..3,
        offset in 0usize..64,
    ) {
        let layouts: Vec<TransitionLayout> = (0..agents)
            // Heterogeneous widths: agent a's rows are wider by a.
            .map(|a| TransitionLayout::new(obs_dim + a, 2))
            .collect();
        let mut replay = MultiAgentReplay::new(&layouts, capacity);
        // Land the cursor anywhere: 0, 1, or 2 full laps plus a partial one.
        let pushes = (capacity * wraps + offset % capacity).max(1);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..agents).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }

        let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
        prop_assert_eq!(store.len(), replay.len());
        let back = MultiAgentReplay::reorganize_from(&store, LayoutMode::PerAgent);

        prop_assert_eq!(back.agent_count(), replay.agent_count());
        prop_assert_eq!(back.capacity(), replay.capacity());
        prop_assert_eq!(back.len(), replay.len());
        prop_assert_eq!(back.next_slot(), replay.next_slot());
        for a in 0..replay.agent_count() {
            for slot in 0..replay.len() {
                prop_assert_eq!(back.row(a, slot), replay.row(a, slot), "agent {} slot {}", a, slot);
            }
        }
    }

    /// The identity also holds after the copy keeps running: pushes after
    /// the reshape land in the same slots the agent-major ring uses, so
    /// the two maps stay equal forever, not just at the handoff.
    #[test]
    fn post_reshape_pushes_track_the_per_agent_rings(
        capacity in 2usize..16,
        prefill in 1usize..40,
        extra in 1usize..24,
    ) {
        let layouts = vec![TransitionLayout::new(3, 2); 2];
        let mut replay = MultiAgentReplay::new(&layouts, capacity);
        for t in 0..prefill {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            replay.push_step(&step).unwrap();
        }
        let mut store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
        for t in prefill..prefill + extra {
            let step: Vec<Transition> =
                (0..2).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            let slot = store.push_step(&step).unwrap();
            prop_assert_eq!(slot, replay.push_step(&step).unwrap(), "slot at t={}", t);
        }
        prop_assert_eq!(store.next_slot(), replay.next_slot());
        prop_assert_eq!(encode_replay(&store), encode_replay(&replay));
    }

    /// Transition serialization roundtrips for arbitrary payloads.
    #[test]
    fn transition_row_roundtrip(
        obs in proptest::collection::vec(-1e6f32..1e6, 1..32),
        action in proptest::collection::vec(0.0f32..1.0, 1..8),
        reward in -1e6f32..1e6,
        done in prop::bool::ANY,
    ) {
        let layout = TransitionLayout::new(obs.len(), action.len());
        let t = Transition {
            next_obs: obs.iter().map(|x| x * 0.5).collect(),
            obs,
            action,
            reward,
            done: if done { 1.0 } else { 0.0 },
        };
        let mut row = vec![0.0; layout.row_width()];
        t.write_row(&layout, &mut row);
        prop_assert_eq!(Transition::from_row(&layout, &row), t);
    }
}
