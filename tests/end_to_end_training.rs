//! Integration tests spanning the whole stack: environment → replay →
//! samplers → networks → trainer.

use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::perf::phase::Phase;

mod common;

fn quick(algorithm: Algorithm, task: Task, agents: usize, sampler: SamplerConfig) -> TrainConfig {
    let mut c = common::seeded_config(algorithm, task, agents, sampler, 5, 64, 4096, 99);
    c.update_every = 30;
    c
}

#[test]
fn every_algorithm_task_sampler_combination_trains() {
    for algorithm in [Algorithm::Maddpg, Algorithm::Matd3] {
        for task in [Task::PredatorPrey, Task::CooperativeNavigation] {
            for sampler in [
                SamplerConfig::Uniform,
                SamplerConfig::LocalityN16R64,
                SamplerConfig::Per,
                SamplerConfig::IpLocality,
            ] {
                let mut trainer =
                    Trainer::new(quick(algorithm, task, 3, sampler)).expect("trainer");
                let report = trainer.train().expect("train");
                assert_eq!(report.curve.len(), 5, "{algorithm:?} {task:?} {sampler:?}");
                assert!(report.update_iterations > 0, "{algorithm:?} {task:?} {sampler:?}");
                assert!(
                    report.curve.values().iter().all(|r| r.is_finite()),
                    "rewards must stay finite"
                );
            }
        }
    }
}

#[test]
fn phase_profile_covers_all_training_phases() {
    let mut trainer =
        Trainer::new(quick(Algorithm::Maddpg, Task::PredatorPrey, 3, SamplerConfig::Uniform))
            .unwrap();
    let report = trainer.train().unwrap();
    for phase in [
        Phase::ActionSelection,
        Phase::EnvironmentStep,
        Phase::Bookkeeping,
        Phase::MiniBatchSampling,
        Phase::TargetQ,
        Phase::QLossPLoss,
        Phase::SoftUpdate,
    ] {
        assert!(
            report.profile.get(phase) > std::time::Duration::ZERO,
            "phase {phase:?} unmeasured"
        );
    }
    // Fractions sum to ~1.
    let sum: f64 = Phase::ALL.iter().map(|&p| report.profile.fraction(p)).sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn training_reduces_or_maintains_loss_signal() {
    // Cooperative navigation with a longer run: the smoothed reward of the
    // last quarter should not be dramatically worse than the first quarter
    // (learning sanity, not a performance claim).
    let mut config =
        quick(Algorithm::Maddpg, Task::CooperativeNavigation, 3, SamplerConfig::Uniform)
            .with_episodes(30);
    config.warmup = 256;
    let mut trainer = Trainer::new(config).unwrap();
    let report = trainer.train().unwrap();
    let vals = report.curve.values();
    let quarter = vals.len() / 4;
    let first: f32 = vals[..quarter].iter().sum::<f32>() / quarter as f32;
    let last: f32 = vals[vals.len() - quarter..].iter().sum::<f32>() / quarter as f32;
    assert!(last > first - 200.0, "reward collapsed: first quarter {first}, last quarter {last}");
}

#[test]
fn replay_stays_aligned_with_environment_dimensions() {
    let mut trainer =
        Trainer::new(quick(Algorithm::Maddpg, Task::PredatorPrey, 6, SamplerConfig::Uniform))
            .unwrap();
    trainer.prefill(300).unwrap();
    let replay = trainer.replay().expect("the trainer exposes its replay");
    assert_eq!(replay.agent_count(), 6);
    assert_eq!(replay.len(), 300);
    let env = Task::PredatorPrey.make_env(6, 25, 0);
    for (layout, space) in replay.layouts().iter().zip(env.observation_spaces()) {
        assert_eq!(layout.obs_dim, space.dim);
    }
}

#[test]
fn physical_deception_trains_with_heterogeneous_observations() {
    // The extension scenario mixes 8-dim adversary and 10-dim good-agent
    // observations; the trainer must handle per-agent layouts end-to-end.
    let mut trainer = Trainer::new(quick(
        Algorithm::Maddpg,
        Task::PhysicalDeception,
        3,
        SamplerConfig::LocalityN16R64,
    ))
    .unwrap();
    let report = trainer.train().unwrap();
    assert!(report.update_iterations > 0);
    let replay = trainer.replay().unwrap();
    let dims: Vec<usize> = replay.layouts().iter().map(|l| l.obs_dim).collect();
    assert_eq!(dims, vec![8, 10, 10]);
}

#[test]
fn matd3_differs_from_maddpg_under_same_seed() {
    let run = |algorithm| {
        let mut trainer =
            Trainer::new(quick(algorithm, Task::PredatorPrey, 3, SamplerConfig::Uniform)).unwrap();
        trainer.train().unwrap().curve.values().to_vec()
    };
    // Same seed, different algorithms => different trajectories once
    // updates start (twin critics + delayed policy).
    assert_ne!(run(Algorithm::Maddpg), run(Algorithm::Matd3));
}
