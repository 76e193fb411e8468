//! Cross-crate integration tests of the sampling optimizations: the
//! optimized paths must return the *same data* as the baseline when given
//! the same plan, and valid data under their own plans.

use marl_repro::core::config::SamplerConfig;
use marl_repro::core::indices::SamplePlan;
use marl_repro::core::multi::{LayoutMode, MultiAgentReplay};
use marl_repro::core::transition::{Transition, TransitionLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled(agents: usize, rows: usize, obs_dim: usize) -> MultiAgentReplay {
    let layouts = vec![TransitionLayout::new(obs_dim, 5); agents];
    let mut replay = MultiAgentReplay::new(&layouts, rows * 2);
    let mut rng = StdRng::seed_from_u64(5);
    for t in 0..rows {
        let step: Vec<Transition> = (0..agents)
            .map(|a| Transition {
                obs: (0..obs_dim).map(|_| rng.gen()).collect(),
                action: vec![0.0, 1.0, 0.0, 0.0, 0.0],
                reward: (t * 100 + a) as f32,
                next_obs: (0..obs_dim).map(|_| rng.gen()).collect(),
                done: 0.0,
            })
            .collect();
        replay.push_step(&step).unwrap();
    }
    replay
}

#[test]
fn interleaved_layout_returns_identical_batches() {
    let replay = filled(4, 500, 16);
    let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
    assert_eq!(store.len(), 500);
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..10 {
        let mut sampler = SamplerConfig::Uniform.build(500);
        let plan = sampler.plan(500, 64, &mut rng).unwrap();
        let a = replay.sample(&plan).unwrap();
        let b = store.sample(&plan).unwrap();
        assert_eq!(a.agents, b.agents, "layouts must agree on batch content");
        assert_eq!(a.indices, b.indices);
    }
}

#[test]
fn locality_plan_gathers_real_consecutive_rows() {
    let replay = filled(2, 1000, 8);
    let mut sampler = SamplerConfig::Locality { neighbors: 16 }.build(1000);
    let mut rng = StdRng::seed_from_u64(1);
    let plan = sampler.plan(1000, 64, &mut rng).unwrap();
    let batch = replay.sample(&plan).unwrap();
    // Rewards encode the time index: inside each run of 16, consecutive
    // rows must be consecutive time steps.
    let rewards = &batch.agents[0].rewards;
    for chunk in rewards.chunks(16) {
        for pair in chunk.windows(2) {
            assert_eq!(pair[1] - pair[0], 100.0, "neighbors must be consecutive transitions");
        }
    }
}

#[test]
fn all_samplers_produce_aligned_multi_agent_batches() {
    let replay = filled(3, 800, 12);
    let mut rng = StdRng::seed_from_u64(2);
    for cfg in [
        SamplerConfig::Uniform,
        SamplerConfig::LocalityN16R64,
        SamplerConfig::Per,
        SamplerConfig::IpLocality,
    ] {
        let mut sampler = cfg.build(800);
        if cfg.is_prioritized() {
            for slot in 0..800 {
                sampler.observe_push(slot);
            }
        }
        let plan = sampler.plan(800, 128, &mut rng).unwrap();
        let batch = replay.sample(&plan).unwrap();
        assert_eq!(batch.len(), 128, "{cfg:?}");
        // Alignment: rewards differ only by the agent offset.
        for r in 0..128 {
            let t0 = batch.agents[0].rewards[r];
            assert_eq!(batch.agents[1].rewards[r], t0 + 1.0, "{cfg:?}");
            assert_eq!(batch.agents[2].rewards[r], t0 + 2.0, "{cfg:?}");
        }
    }
}

#[test]
fn prioritized_feedback_loop_survives_ring_wraparound() {
    let layouts = vec![TransitionLayout::new(4, 5); 2];
    let mut replay = MultiAgentReplay::new(&layouts, 64);
    let mut sampler = SamplerConfig::Per.build(64);
    let mut rng = StdRng::seed_from_u64(3);
    let step: Vec<Transition> = (0..2)
        .map(|_| Transition {
            obs: vec![0.0; 4],
            action: vec![1.0, 0.0, 0.0, 0.0, 0.0],
            reward: 0.0,
            next_obs: vec![0.0; 4],
            done: 0.0,
        })
        .collect();
    // Push 3x capacity so slots wrap; interleave sampling + updates.
    for i in 0..192 {
        let slot = replay.push_step(&step).unwrap();
        sampler.observe_push(slot);
        if i > 32 && i % 16 == 0 {
            let plan = sampler.plan(replay.len(), 16, &mut rng).unwrap();
            let batch = replay.sample(&plan).unwrap();
            let tds: Vec<f32> = (0..batch.len()).map(|k| k as f32 * 0.1).collect();
            sampler.update_priorities(&batch.indices, &tds);
        }
    }
    assert_eq!(replay.len(), 64);
    let plan = sampler.plan(64, 32, &mut rng).unwrap();
    assert!(plan.flatten().iter().all(|&i| i < 64));
}

#[test]
fn heterogeneous_observation_widths_stay_consistent() {
    // Predator-prey at 3 agents has Box(16) predators; check a mixed
    // layout multi-buffer also works end-to-end with sampling.
    let layouts = vec![
        TransitionLayout::new(16, 5),
        TransitionLayout::new(16, 5),
        TransitionLayout::new(14, 5),
    ];
    let mut replay = MultiAgentReplay::new(&layouts, 256);
    for _ in 0..100 {
        let step: Vec<Transition> = layouts
            .iter()
            .map(|l| Transition {
                obs: vec![1.0; l.obs_dim],
                action: vec![0.0; 5],
                reward: 0.0,
                next_obs: vec![2.0; l.obs_dim],
                done: 0.0,
            })
            .collect();
        replay.push_step(&step).unwrap();
    }
    let plan = SamplePlan::from_indices(&[0, 50, 99]);
    let batch = replay.sample(&plan).unwrap();
    assert_eq!(batch.agents[0].obs.len(), 3 * 16);
    assert_eq!(batch.agents[2].obs.len(), 3 * 14);
    let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
    assert_eq!(store.sample(&plan).unwrap().agents, batch.agents);
}
