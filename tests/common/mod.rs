//! Shared fixtures for the integration suites.
//!
//! Every end-to-end suite needs the same "small seeded trainer" shape:
//! paper defaults shrunk to a fast deterministic run — a tiny episode
//! budget, small batch and buffer, warmup 64 so updates start almost
//! immediately. This module is the single definition; each suite passes
//! the handful of knobs it actually varies instead of re-deriving the
//! whole configuration.
//!
//! Compiled into several independent test binaries, none of which uses
//! every item, hence the file-level `dead_code` allowance.
#![allow(dead_code)]

use marl_repro::algo::checkpoint::Checkpoint;
use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig, Trainer};
use marl_repro::core::transition::TransitionRef;
use marl_repro::core::SamplerConfig;
use marl_repro::dist::wire::StepRows;

pub mod goldens;

/// The common small-seeded-trainer configuration. Applies the shared
/// shrinkage (warmup 64 after the batch override) and leaves
/// suite-specific fields (`update_every`, `layout`, …) to the
/// caller.
#[allow(clippy::too_many_arguments)]
pub fn seeded_config(
    algorithm: Algorithm,
    task: Task,
    agents: usize,
    sampler: SamplerConfig,
    episodes: usize,
    batch: usize,
    capacity: usize,
    seed: u64,
) -> TrainConfig {
    let mut c = TrainConfig::paper_defaults(algorithm, task, agents)
        .with_sampler(sampler)
        .with_episodes(episodes)
        .with_batch_size(batch)
        .with_buffer_capacity(capacity)
        .with_seed(seed);
    c.warmup = 64;
    c
}

/// The golden-trace configuration: one fixed small run per
/// algorithm × sampler × layout combination (predator-prey, 3 agents,
/// 4 × 25-step episodes, batch 32, seed 4242, updates every 10 samples
/// past warmup ⇒ a handful of update iterations per trace).
///
/// No kernel is named: scalar and SIMD compute the same bits, so the
/// trace is what the default kernel trains on every host.
pub fn golden_config(
    algorithm: Algorithm,
    sampler: SamplerConfig,
    layout: LayoutMode,
) -> TrainConfig {
    let mut c = seeded_config(algorithm, Task::PredatorPrey, 3, sampler, 4, 32, 1024, 4242)
        .with_layout(layout);
    c.update_every = 10;
    c
}

/// The per-scenario golden configuration: the [`golden_config`] shape
/// (3 agents, 4 × 25-step episodes, batch 32, seed 4242,
/// uniform sampling, per-agent layout) pointed at an arbitrary registered
/// scenario, so every scenario's full training numerics — comm actions
/// and heterogeneous heads included — pin to one committed trace per
/// algorithm.
pub fn scenario_golden_config(algorithm: Algorithm, task: Task) -> TrainConfig {
    let mut c = seeded_config(algorithm, task, 3, SamplerConfig::Uniform, 4, 32, 1024, 4242)
        .with_layout(LayoutMode::PerAgent);
    c.update_every = 10;
    c
}

/// `n` zeroed joint steps (action 0 taken) with predator-prey N=3's
/// exact observation and action dimensions — a hand-built `Steps` body.
pub fn zero_step_rows(n: usize) -> StepRows {
    let env = Task::PredatorPrey.make_env(3, 25, 0);
    let dims: Vec<usize> = env.observation_spaces().iter().map(|s| s.dim).collect();
    let mut rows = StepRows::new(dims.iter().map(|&d| (d, 5)));
    let (zeros, action) = ([0.0f32; 32], [1.0, 0.0, 0.0, 0.0, 0.0]);
    for _ in 0..n {
        rows.push_step(|a| TransitionRef {
            obs: &zeros[..dims[a]],
            action: &action,
            reward: 0.0,
            next_obs: &zeros[..dims[a]],
            done: 0.0,
        });
    }
    rows
}

/// A fresh `config` trainer's checkpoint with every actor's output layer
/// (live and target) scaled by `factor`. At ×1e3 the logit gaps run to
/// hundreds, so the softmax segments underflow and the first updates
/// already compute on subnormals, which the short bitwise gates otherwise
/// never produce.
pub fn scaled_actor_heads(config: TrainConfig, factor: f32) -> Checkpoint {
    let mut ckpt = Trainer::new(config).expect("config is valid").checkpoint();
    for agent in &mut ckpt.agents {
        for net in [&mut agent.actor, &mut agent.target_actor] {
            // The output layer is the tail of the parameter slab.
            let &[.., fan_in, fan_out] = net.widths() else { unreachable!() };
            let params = net.params_mut();
            let head = params.len() - (fan_in * fan_out + fan_out);
            params[head..].iter_mut().for_each(|x| *x *= factor);
        }
    }
    ckpt
}
