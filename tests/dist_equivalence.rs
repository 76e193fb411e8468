//! Distributed lockstep ⇔ single-process bitwise equivalence.
//!
//! The acceptance anchor of the distributed runtime: one rollout worker
//! over the deterministic in-process loopback, serving a learner in
//! lockstep mode, must reproduce the single-process trainer's update
//! digest chain **bitwise** — same drawn indices, same losses, same
//! parameter hashes, same chain checksum, for both algorithms.
//!
//! The worker steps the trainer's own K = 1 `Rollout` against its own
//! copy of the nets and hands its master-RNG state to the learner at
//! every update boundary; any drift between the two sides (a
//! construction draw, an RNG handoff, a replay-mirror off-by-one) shows
//! up here as the first divergent digest field.

use marl_repro::algo::checkpoint::Checkpoint;
use marl_repro::algo::trace::{UpdateDigest, UpdateTraceRecorder};
use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig, Trainer};
use marl_repro::core::SamplerConfig;
use marl_repro::dist::{
    loopback_pair, run_worker, Backoff, DistError, Learner, LearnerOptions, Transport,
};
use marl_repro::nn::kernels::KernelChoice;
use std::time::Duration;

mod common;

/// The golden-seed configuration both sides run: scalar kernel (machine
/// independent), warmup 64, updates every 10 samples.
fn dist_config(algorithm: Algorithm) -> TrainConfig {
    let mut c = common::seeded_config(
        algorithm,
        Task::PredatorPrey,
        3,
        SamplerConfig::Uniform,
        4,
        32,
        1024,
        4242,
    )
    .with_kernel(KernelChoice::Scalar);
    c.update_every = 10;
    c
}

/// Runs the single-process trainer and returns its digest chain.
fn single_process_digests(cfg: TrainConfig) -> Vec<UpdateDigest> {
    single_process_run(cfg, None).0
}

/// Runs the single-process trainer, from `init`'s networks when given, and
/// returns its digest chain and final agent states (serialized).
fn single_process_run(cfg: TrainConfig, init: Option<&Checkpoint>) -> (Vec<UpdateDigest>, String) {
    let mut trainer = Trainer::new(cfg).expect("trainer builds");
    if let Some(ckpt) = init {
        trainer.restore(ckpt.clone()).expect("same architecture");
    }
    trainer.attach_trace_recorder(UpdateTraceRecorder::new());
    trainer.train().expect("single-process run trains");
    let states = serde_json::to_string(&trainer.agent_states()).expect("serializable");
    (trainer.detach_trace_recorder().expect("recorder attached").into_digests(), states)
}

/// Runs the same configuration as a lockstep dist pair (learner thread =
/// this thread, worker on a spawned thread, loopback transport) and
/// returns the learner's digest chain.
fn dist_lockstep_digests(cfg: TrainConfig) -> Vec<UpdateDigest> {
    dist_lockstep_run(cfg, None).0
}

/// [`dist_lockstep_digests`] from `init`'s networks when given (the
/// worker receives them in its `Welcome`), plus the learner's final agent
/// states (serialized).
fn dist_lockstep_run(cfg: TrainConfig, init: Option<&Checkpoint>) -> (Vec<UpdateDigest>, String) {
    let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner builds");
    if let Some(ckpt) = init {
        learner.trainer_mut().restore(ckpt.clone()).expect("same architecture");
    }
    learner.trainer_mut().attach_trace_recorder(UpdateTraceRecorder::new());
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(10), 0);
        run_worker(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        )
    });
    learner.serve_lockstep(&mut learner_end).expect("lockstep serve completes");
    worker.join().expect("worker thread").expect("worker run completes");
    let mut trainer = learner.into_trainer();
    let states = serde_json::to_string(&trainer.agent_states()).expect("serializable");
    (trainer.detach_trace_recorder().expect("recorder attached").into_digests(), states)
}

/// MADDPG: the dist lockstep digest chain equals the single-process one
/// bitwise.
#[test]
fn maddpg_lockstep_loopback_is_bitwise_identical() {
    let cfg = dist_config(Algorithm::Maddpg);
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty(), "run must record updates");
    assert_eq!(single.len(), dist.len(), "update counts differ");
    for (i, (s, d)) in single.iter().zip(&dist).enumerate() {
        assert_eq!(s, d, "first divergence at update {i}");
    }
}

/// MATD3 (twin critics, delayed policy): same bitwise equivalence.
#[test]
fn matd3_lockstep_loopback_is_bitwise_identical() {
    let cfg = dist_config(Algorithm::Matd3);
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty(), "run must record updates");
    assert_eq!(single, dist);
}

/// The equivalence also holds at a different seed and episode budget —
/// it is structural, not a coincidence of the golden seed.
#[test]
fn lockstep_equivalence_holds_off_the_golden_seed() {
    let mut cfg = dist_config(Algorithm::Maddpg).with_seed(99).with_episodes(6);
    cfg.update_every = 25;
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty());
    assert_eq!(single, dist);
}

/// An annealed schedule reaches the ε-greedy branch (ε 0.1 → 0.01), whose
/// extra master-stream draws the worker must take in the trainer's
/// order: the default ε = 0 never exercises them.
#[test]
fn annealed_exploration_lockstep_is_bitwise_identical() {
    let mut cfg = dist_config(Algorithm::Maddpg);
    cfg.exploration = marl_repro::algo::explore::ExplorationSchedule::annealed(500);
    let single = single_process_digests(cfg);
    let dist = dist_lockstep_digests(cfg);
    assert!(!single.is_empty());
    assert_eq!(single, dist);
}

/// The paper's interleaved layout (§IV-B2) through the learner: the
/// replay the learner ingests worker rows into is the single interleaved
/// store, and the digests still match the single-process run bitwise.
#[test]
fn interleaved_layout_lockstep_is_bitwise_identical() {
    for algorithm in [Algorithm::Maddpg, Algorithm::Matd3] {
        let cfg = dist_config(algorithm).with_layout(LayoutMode::Interleaved);
        let single = single_process_digests(cfg);
        let dist = dist_lockstep_digests(cfg);
        assert!(!single.is_empty(), "run must record updates");
        assert_eq!(single, dist, "{algorithm:?}");
    }
}

/// Under subnormal pressure (actor heads scaled ×1e3, so softmax outputs
/// and their gradients underflow) the chains and the final states, Adam
/// moments included, still match. The single-process run is made from a
/// caller that already has flush-to-zero set and the dist pair from
/// threads that do not, so they agree only if the update's own
/// `marl_nn::fp` scope decides the arithmetic.
#[test]
fn lockstep_is_bitwise_identical_under_subnormal_pressure() {
    let cfg = dist_config(Algorithm::Maddpg);
    let init = common::scaled_actor_heads(cfg, 1e3);
    let single = {
        let _caller = marl_repro::nn::fp::flush_to_zero();
        single_process_run(cfg, Some(&init))
    };
    let dist = dist_lockstep_run(cfg, Some(&init));
    assert!(!single.0.is_empty(), "run must record updates");
    assert_eq!(single.0, dist.0, "digest chains diverged");
    assert_eq!(single.1, dist.1, "final agent states diverged");
}

/// Running the dist pair twice yields identical chains: the loopback
/// path itself is deterministic.
#[test]
fn dist_lockstep_is_deterministic() {
    let cfg = dist_config(Algorithm::Maddpg);
    let a = dist_lockstep_digests(cfg);
    let b = dist_lockstep_digests(cfg);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The learner's curve records the same episode count the single-process
/// trainer would, and the final parameters equal the single-process ones
/// (the digest chain already pins them via parameter hashes; this checks
/// the exported agent states as a user would consume them).
#[test]
fn lockstep_final_parameters_match_single_process() {
    let cfg = dist_config(Algorithm::Maddpg);
    let mut trainer = Trainer::new(cfg).expect("trainer builds");
    trainer.train().expect("trains");
    let single_states = serde_json::to_string(&trainer.agent_states()).unwrap();

    let mut learner = Learner::new(cfg, LearnerOptions::default()).expect("learner builds");
    let (mut learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(10), 0);
        run_worker(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        )
    });
    learner.serve_lockstep(&mut learner_end).expect("serves");
    worker.join().unwrap().expect("worker completes");
    assert_eq!(learner.episodes_recorded(), cfg.episodes);
    let dist_states = serde_json::to_string(&learner.trainer().agent_states()).unwrap();
    assert_eq!(single_states, dist_states, "final parameters diverged");
}
