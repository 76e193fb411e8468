//! Rollout integration tests: K = 1 `prefill`/`evaluate` stay on the
//! constants the scalar loop recorded before the loops were merged, K > 1
//! runs are seeded-deterministic and resume through the on-disk
//! checkpoint format, checkpoints written before the vectorized engine
//! existed still restore and resume bitwise, and a checkpoint resumed at
//! a different world count restores world 0 or is refused.

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::{Algorithm, Task, TrainConfig, TrainError, Trainer};
use marl_repro::core::SamplerConfig;
use std::path::PathBuf;

mod common;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_vec_rollout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_config(task: Task, seed: u64) -> TrainConfig {
    let mut c = common::seeded_config(
        Algorithm::Maddpg,
        task,
        3,
        SamplerConfig::Uniform,
        6,
        32,
        1024,
        seed,
    );
    c.update_every = 10;
    c
}

fn weights_json(t: &Trainer) -> String {
    serde_json::to_string(&t.checkpoint().agents).unwrap()
}

fn reward_bits(rewards: &[f32]) -> Vec<u32> {
    rewards.iter().map(|r| r.to_bits()).collect()
}

/// K = 8 training is a pure function of the seed: two runs agree bitwise
/// on the whole curve, counters, and weights; a different seed diverges.
#[test]
fn k8_training_is_seeded_deterministic() {
    let cfg = base_config(Task::PredatorPrey, 4242).with_num_envs(8).with_episodes(32);
    let mut a = Trainer::new(cfg).unwrap();
    let mut b = Trainer::new(cfg).unwrap();
    let ra = a.train().unwrap();
    let rb = b.train().unwrap();
    assert_eq!(reward_bits(ra.curve.values()), reward_bits(rb.curve.values()));
    assert_eq!(ra.env_steps, rb.env_steps);
    assert_eq!(ra.update_iterations, rb.update_iterations);
    assert!(ra.update_iterations > 0, "the run must exercise the update path");
    assert_eq!(weights_json(&a), weights_json(&b));

    let mut c = Trainer::new(cfg.with_seed(4243)).unwrap();
    let rc = c.train().unwrap();
    assert_ne!(
        reward_bits(ra.curve.values()),
        reward_bits(rc.curve.values()),
        "different seeds must produce different rollouts"
    );
}

/// The resume-equivalence property at K = 8 through the on-disk format:
/// train straight vs. halfway → checkpoint file → fresh trainer →
/// restore → rest. All per-world RNG streams (noise + env) must survive
/// the round trip for the curves and weights to match bitwise.
#[test]
fn k8_resume_from_file_is_bitwise_identical() {
    let cfg = base_config(Task::PredatorPrey, 77).with_num_envs(8).with_episodes(32);
    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let mut first = Trainer::new(cfg.with_episodes(16)).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full();
    let run = ckpt.run.as_ref().unwrap();
    assert_eq!(run.vec_env_rngs.len(), 7, "worlds 1..8 persist beside env_rng");
    assert_eq!(run.rollout_rngs.len(), 8, "one noise stream per world");
    let path = tmp_path("resume_k8.bin");
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();

    let (ckpt, replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(!from_prev);
    let mut resumed = Trainer::new(cfg).unwrap();
    resumed.restore_full(ckpt, &replay).unwrap();
    assert_eq!(resumed.episodes_done(), 16);
    let rest = resumed.train().unwrap();

    assert_eq!(reward_bits(rest.curve.values()), reward_bits(full.curve.values()), "rewards");
    assert_eq!(rest.env_steps, full.env_steps);
    assert_eq!(rest.update_iterations, full.update_iterations);
    assert_eq!(weights_json(&resumed), weights_json(&straight), "weights");
}

/// Forward compatibility: a checkpoint written before the vectorized
/// engine existed (no `rollout_rngs`/`vec_env_rngs` keys in the JSON)
/// still deserializes, restores, and resumes bitwise at K = 1.
#[test]
fn pre_vectorization_checkpoints_still_restore_and_resume() {
    let cfg = base_config(Task::PredatorPrey, 55);
    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    let mut first = Trainer::new(cfg.with_episodes(3)).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full();

    // Re-encode the checkpoint JSON with the vectorized-engine fields
    // stripped, exactly as an older binary would have written it. Both
    // are empty at K = 1, so the compact encoding is fixed.
    let json = serde_json::to_string(&ckpt).unwrap();
    let stripped = json.replace(",\"rollout_rngs\":[],\"vec_env_rngs\":[]", "");
    assert_ne!(stripped, json, "the vectorized fields must have been present");
    let aged: marl_repro::algo::checkpoint::Checkpoint = serde_json::from_str(&stripped).unwrap();

    let mut resumed = Trainer::new(cfg).unwrap();
    resumed.restore_full(aged, &replay).unwrap();
    let rest = resumed.train().unwrap();
    assert_eq!(reward_bits(rest.curve.values()), reward_bits(full.curve.values()));
    assert_eq!(weights_json(&resumed), weights_json(&straight));
}

/// A K = 1 checkpoint resumed at K = 4: world 0's env stream continues
/// from the checkpoint's `env_rng`; worlds 1..4 and the per-world
/// exploration streams start fresh — even on a trainer whose own streams
/// have already moved.
#[test]
fn k1_checkpoint_resumed_at_k4_restores_world_zero() {
    let cfg = base_config(Task::PredatorPrey, 21);
    let mut first = Trainer::new(cfg.with_episodes(2)).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full();
    let saved = ckpt.run.clone().unwrap();
    assert!(saved.vec_env_rngs.is_empty() && saved.rollout_rngs.is_empty());

    let wide = cfg.with_num_envs(4);
    let fresh = Trainer::new(wide).unwrap().checkpoint_full().0.run.unwrap();
    let mut resumed = Trainer::new(wide).unwrap();
    resumed.run_episode().unwrap();
    resumed.restore_full(ckpt, &replay).unwrap();
    let run = resumed.checkpoint_full().0.run.unwrap();
    assert_ne!(saved.env_rng, fresh.env_rng, "the checkpointed world 0 has moved");
    assert_eq!(run.env_rng, saved.env_rng, "world 0 resumes from env_rng");
    assert_eq!(run.vec_env_rngs, fresh.vec_env_rngs, "worlds 1..4 start fresh");
    assert_eq!(run.rollout_rngs, fresh.rollout_rngs, "exploration streams start fresh");
    assert_eq!(run.master_rng, saved.master_rng);
}

/// Per-world streams recorded for K = 4 do not fit another world count:
/// restoring them at K = 8 or K = 1 is refused with both counts named,
/// before any trainer state changes — whether the env streams or only
/// the exploration streams disagree.
#[test]
fn checkpoint_for_another_world_count_is_refused() {
    let cfg = base_config(Task::PredatorPrey, 23).with_num_envs(4).with_episodes(4);
    let mut first = Trainer::new(cfg).unwrap();
    first.train().unwrap();
    let (ckpt, replay) = first.checkpoint_full();
    let mut noise_only = ckpt.clone();
    noise_only.run.as_mut().unwrap().vec_env_rngs.clear();
    for (tag, ckpt) in [("env", ckpt), ("exploration", noise_only)] {
        for k in [8usize, 1] {
            let mut other = Trainer::new(cfg.with_num_envs(k)).unwrap();
            match other.restore_full(ckpt.clone(), &replay) {
                Err(TrainError::Checkpoint(msg)) => {
                    assert!(msg.contains(tag), "{msg}");
                    assert!(msg.contains("for 4 worlds") && msg.contains(&format!("runs {k}")));
                }
                res => panic!("K=4 {tag} streams restored at K={k}: {res:?}"),
            }
            assert_eq!(other.episodes_done(), 0, "a refused restore changes nothing");
            assert_eq!(other.update_iterations(), 0);
        }
    }
}

/// K = 1 `prefill` and `evaluate` pinned to constants recorded on the
/// scalar rollout loop (before the rollout loops were merged): the CRC-32
/// of the replay snapshot after `prefill(300)` (random actions from the
/// master stream, 12 whole episodes, the reset after the last one) and
/// the bits of the greedy `evaluate(2)` that follows it on the same env
/// stream. Predator-prey has one-segment heads; world-comm has
/// heterogeneous `[5, 4]`/`[5]` heads.
#[test]
fn k1_prefill_and_evaluate_match_recorded_pins() {
    const PINS: [(Task, u32, u32); 2] = [
        (Task::PredatorPrey, 0x106b_7681, 0xc04f_ff3b),
        (Task::WorldComm, 0xc59d_9cd8, 0xc063_7d32),
    ];
    for (task, replay_crc, eval_bits) in PINS {
        let mut t = Trainer::new(base_config(task, 31)).unwrap();
        t.prefill(300).unwrap();
        assert_eq!(t.replay_len(), 300);
        let (_, replay) = t.checkpoint_full();
        let crc = marl_repro::core::crc32::crc32(&replay);
        let score = t.evaluate(2).unwrap();
        assert_eq!(crc, replay_crc, "{task:?}: prefill replay bytes");
        assert_eq!(score.to_bits(), eval_bits, "{task:?}: evaluate({score})");
    }
}

/// The curve counts completed environment episodes: one entry per world
/// per vectorized episode, and env-steps scale with K.
/// Greedy actions are the arg-max of raw logits, so subnormal logits can
/// decide them. With every actor head scaled by 1e-37 the greedy
/// evaluation at K = 1 and K = 4 must not depend on whether the caller
/// already had flush-to-zero set: the rollout's own `marl_nn::fp` scope
/// decides the arithmetic.
#[test]
fn greedy_evaluation_under_subnormal_logits_ignores_the_callers_mode() {
    for k in [1, 4] {
        let cfg = base_config(Task::PredatorPrey, 3).with_num_envs(k);
        let init = common::scaled_actor_heads(cfg, 1e-37);
        let evaluate = |caller_flushes: bool| {
            let mut t = Trainer::new(cfg).unwrap();
            t.restore(init.clone()).unwrap();
            let _caller = caller_flushes.then(marl_repro::nn::fp::flush_to_zero);
            t.evaluate(2).unwrap().to_bits()
        };
        assert_eq!(evaluate(false), evaluate(true), "K = {k}");
    }
}

#[test]
fn k4_curve_records_one_entry_per_world() {
    let cfg = base_config(Task::PredatorPrey, 11).with_num_envs(4).with_episodes(8);
    let mut t = Trainer::new(cfg).unwrap();
    let report = t.train().unwrap();
    assert_eq!(report.curve.len(), 8, "2 vectorized episodes x 4 worlds");
    assert_eq!(
        report.env_steps,
        2 * 4 * cfg.max_episode_len as u64,
        "env steps count every world's transition"
    );
}
