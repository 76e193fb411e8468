//! End-to-end determinism contract of the parallel update pipeline: for a
//! fixed seed, `update_threads = 1` and `update_threads > 1` must produce
//! bitwise-identical episode rewards and checkpoint weights.

use marl_repro::algo::checkpoint::Checkpoint;
use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};

mod common;

fn config(algorithm: Algorithm, threads: usize) -> TrainConfig {
    let mut cfg = TrainConfig::paper_defaults(algorithm, Task::CooperativeNavigation, 3)
        .with_episodes(4)
        .with_batch_size(32)
        .with_buffer_capacity(4096)
        .with_update_threads(threads)
        .with_seed(7);
    cfg.warmup = 40;
    cfg.update_every = 20;
    cfg
}

/// Trains a short fixed-seed run, from `init`'s networks when given, and
/// returns the reward curve (as raw bits) plus the serialized agent states
/// (weights, targets, optimizer moments — everything except the config,
/// which legitimately differs in its `update_threads` field).
fn run(cfg: TrainConfig, init: Option<&Checkpoint>) -> (Vec<u32>, String) {
    let mut trainer = Trainer::new(cfg).expect("config is valid");
    if let Some(ckpt) = init {
        trainer.restore(ckpt.clone()).expect("same architecture");
    }
    let report = trainer.train().expect("training succeeds");
    assert!(report.update_iterations > 0, "run must actually update");
    let rewards: Vec<u32> = report.curve.values().iter().map(|r| r.to_bits()).collect();
    let agents = serde_json::to_string(&trainer.checkpoint().agents).expect("serializable");
    (rewards, agents)
}

#[test]
fn maddpg_update_threads_are_bitwise_equivalent() {
    let (rewards_serial, agents_serial) = run(config(Algorithm::Maddpg, 1), None);
    let (rewards_pool, agents_pool) = run(config(Algorithm::Maddpg, 4), None);
    assert_eq!(rewards_serial, rewards_pool, "reward curves diverged");
    assert_eq!(agents_serial, agents_pool, "checkpoint weights diverged");
}

#[test]
fn matd3_update_threads_are_bitwise_equivalent() {
    // MATD3 additionally exercises the per-agent target-noise RNG
    // streams and the delayed policy/target updates.
    let (rewards_serial, agents_serial) = run(config(Algorithm::Matd3, 1), None);
    let (rewards_pool, agents_pool) = run(config(Algorithm::Matd3, 4), None);
    assert_eq!(rewards_serial, rewards_pool, "reward curves diverged");
    assert_eq!(agents_serial, agents_pool, "checkpoint weights diverged");
}

/// The same contract under subnormal pressure (actor heads scaled ×1e3, so
/// softmax outputs and their gradients underflow). The pooled run is made
/// from a caller that already has flush-to-zero set and the serial run
/// from one that does not: the runs agree only if the update's own
/// `marl_nn::fp` scope decides the arithmetic.
#[test]
fn update_threads_are_bitwise_equivalent_under_subnormal_pressure() {
    let init = common::scaled_actor_heads(config(Algorithm::Maddpg, 1), 1e3);
    let (rewards_serial, agents_serial) = run(config(Algorithm::Maddpg, 1), Some(&init));
    let (rewards_pool, agents_pool) = {
        let _caller = marl_repro::nn::fp::flush_to_zero();
        run(config(Algorithm::Maddpg, 2), Some(&init))
    };
    assert_eq!(rewards_serial, rewards_pool, "reward curves diverged");
    assert_eq!(agents_serial, agents_pool, "checkpoint weights diverged");
}

/// Lanes whose agents differ in shape: in world-comm at N = 3 the
/// leader's action is movement ⊕ broadcast (heads `[5, 4]`) and the
/// listener's movement only (`[5]`). With 2 threads, lane 0 runs both
/// in one scratch and lane 1 runs the last agent; with 1 thread one
/// lane runs all three.
#[test]
fn matd3_world_comm_lanes_serve_differently_shaped_agents() {
    let cfg = |threads| TrainConfig { task: Task::WorldComm, ..config(Algorithm::Matd3, threads) };
    let (rewards_serial, agents_serial) = run(cfg(1), None);
    let (rewards_pool, agents_pool) = run(cfg(2), None);
    assert_eq!(rewards_serial, rewards_pool, "reward curves diverged");
    assert_eq!(agents_serial, agents_pool, "checkpoint weights diverged");
}
