//! Crash-safety integration tests: checkpoint files survive the full
//! save/load cycle bitwise, corruption is detected by the CRC, and the
//! rotation scheme's `.prev` file backs recovery.

use marl_repro::algo::checkpoint::{
    decode_checkpoint_file, load_checkpoint_with_fallback, write_checkpoint_file,
};
use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig, TrainError, Trainer};
use marl_repro::core::SamplerConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

mod common;

/// Serializes the tests that run trainer updates: with `--features
/// failpoints` an armed `update::tds` site is process-global, and a
/// concurrent unrelated update would consume the fault meant for the
/// divergence-rollback test.
static UPDATES: Mutex<()> = Mutex::new(());

fn updates_lock() -> std::sync::MutexGuard<'static, ()> {
    UPDATES.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_crash_safety_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(algorithm: Algorithm, sampler: SamplerConfig) -> TrainConfig {
    let mut c = common::seeded_config(algorithm, Task::PredatorPrey, 3, sampler, 6, 32, 1024, 77);
    c.update_every = 25;
    c
}

fn weights_json(t: &Trainer) -> String {
    serde_json::to_string(&t.checkpoint().agents).unwrap()
}

/// The headline resume-equivalence property, through the on-disk format:
/// N episodes straight vs. N/2 → checkpoint file → fresh process image
/// (fresh trainer) → restore → N/2 more. Rewards and weights must be
/// bitwise equal for both algorithms and both a stateless and a
/// prioritized sampler, for a run on the time-major replay map, and for a
/// run checkpointed on the agent-major map and resumed on the time-major
/// one.
#[test]
fn resume_from_file_is_bitwise_identical() {
    let _guard = updates_lock();
    let (per, tm) = (LayoutMode::PerAgent, LayoutMode::Interleaved);
    for (algorithm, sampler, saved_under, resumed_under, tag) in [
        (Algorithm::Maddpg, SamplerConfig::Uniform, per, per, "maddpg_uniform"),
        (Algorithm::Maddpg, SamplerConfig::IpLocality, per, per, "maddpg_ip"),
        (Algorithm::Matd3, SamplerConfig::Uniform, per, per, "matd3_uniform"),
        (Algorithm::Matd3, SamplerConfig::IpLocality, per, per, "matd3_ip"),
        (Algorithm::Maddpg, SamplerConfig::Per, tm, tm, "maddpg_per_time_major"),
        (Algorithm::Matd3, SamplerConfig::IpLocality, per, tm, "matd3_ip_cross_map"),
    ] {
        let cfg = config(algorithm, sampler).with_layout(saved_under);
        let mut straight = Trainer::new(cfg).unwrap();
        let full = straight.train().unwrap();

        let mut first = Trainer::new(cfg.with_episodes(3)).unwrap();
        first.train().unwrap();
        let (ckpt, replay) = first.checkpoint_full();
        let path = tmp_path(&format!("resume_{tag}.bin"));
        write_checkpoint_file(&path, &ckpt, &replay).unwrap();

        let (ckpt, replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
        assert!(!from_prev);
        let mut resumed = Trainer::new(cfg.with_layout(resumed_under)).unwrap();
        resumed.restore_full(ckpt, &replay).unwrap();
        assert_eq!(resumed.episodes_done(), 3, "{tag}");
        let rest = resumed.train().unwrap();

        assert_eq!(rest.curve.values(), full.curve.values(), "{tag}: rewards");
        assert_eq!(rest.env_steps, full.env_steps, "{tag}");
        assert_eq!(rest.update_iterations, full.update_iterations, "{tag}");
        assert_eq!(weights_json(&resumed), weights_json(&straight), "{tag}: weights");
    }
}

/// Writing twice rotates the first file to `.prev` and both stay loadable.
#[test]
fn rotation_keeps_the_previous_checkpoint() {
    let mut t = Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform)).unwrap();
    t.prefill(100).unwrap();
    let path = tmp_path("rotate.bin");
    let (first, first_replay) = t.checkpoint_full();
    write_checkpoint_file(&path, &first, &first_replay).unwrap();
    t.prefill(100).unwrap();
    let (second, second_replay) = t.checkpoint_full();
    write_checkpoint_file(&path, &second, &second_replay).unwrap();

    let prev = PathBuf::from(format!("{}.prev", path.display()));
    assert!(prev.exists(), "rotation must preserve the previous file");
    let restored_len = |ckpt, replay: Vec<u8>| {
        let mut t = Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform)).unwrap();
        t.restore_full(ckpt, &replay).unwrap();
        t.replay_len()
    };
    let (live, live_replay, _) = load_checkpoint_with_fallback(&path).unwrap();
    let (old, old_replay) = marl_repro::algo::checkpoint::read_checkpoint_file(&prev).unwrap();
    assert_eq!(restored_len(live, live_replay), 200);
    assert_eq!(restored_len(old, old_replay), 100);
}

/// A corrupted live file is detected by the CRC and loading falls back to
/// the rotated `.prev` copy.
#[test]
fn corrupt_live_file_falls_back_to_prev() {
    let mut t = Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform)).unwrap();
    t.prefill(150).unwrap();
    let path = tmp_path("fallback.bin");
    let (ckpt, replay) = t.checkpoint_full();
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();
    t.prefill(50).unwrap();
    let (ckpt2, replay2) = t.checkpoint_full();
    write_checkpoint_file(&path, &ckpt2, &replay2).unwrap();

    // Flip one payload bit in the live file.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let (loaded, loaded_replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(from_prev, "loader must report that the fallback was used");
    // The fallback state is fully restorable.
    let mut fresh = Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform)).unwrap();
    fresh.restore_full(loaded, &loaded_replay).unwrap();
    assert_eq!(fresh.replay_len(), 150);
}

/// A truncated live file (torn write reaching the live name, e.g. after a
/// partial copy) is equally recoverable.
#[test]
fn truncated_live_file_falls_back_to_prev() {
    let mut t = Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform)).unwrap();
    t.prefill(80).unwrap();
    let path = tmp_path("truncated.bin");
    let (ckpt, replay) = t.checkpoint_full();
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

    let (_, _, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(from_prev);
}

/// When both the live and `.prev` files are unreadable the loader returns
/// a structured error naming both failures — it never panics.
#[test]
fn double_corruption_yields_structured_error() {
    let path = tmp_path("hopeless.bin");
    std::fs::write(&path, b"not a checkpoint").unwrap();
    std::fs::write(format!("{}.prev", path.display()), b"also garbage").unwrap();
    let err = load_checkpoint_with_fallback(&path).unwrap_err();
    let TrainError::Checkpoint(msg) = err else { panic!("wrong variant: {err:?}") };
    assert!(msg.contains("fallback"), "error must mention the fallback attempt: {msg}");
}

#[test]
fn missing_file_is_an_error_not_a_panic() {
    let err = load_checkpoint_with_fallback(&tmp_path("never_written.bin")).unwrap_err();
    assert!(matches!(err, TrainError::Checkpoint(_)));
}

/// Sentinel × rotation interplay: a divergence rollback in a freshly
/// resumed process (no in-memory good state yet) must read the on-disk
/// checkpoint — and when the live file is corrupt, fall back to `.prev`
/// and recover *exactly*: the finished run is bitwise identical to one
/// that never diverged.
#[cfg(feature = "failpoints")]
#[test]
fn divergence_rollback_with_corrupt_live_checkpoint_recovers_via_prev() {
    use marl_repro::algo::failpoint::{self, Fault};
    let _guard = updates_lock();
    failpoint::clear();

    let cfg = config(Algorithm::Maddpg, SamplerConfig::Uniform);
    let mut straight = Trainer::new(cfg).unwrap();
    let full = straight.train().unwrap();

    // A prior process leaves a rotated pair behind: episode-2 state in
    // `.prev`, episode-4 state live.
    let path = tmp_path("diverge_prev.bin");
    let mut prior = Trainer::new(cfg.with_episodes(4).with_checkpoint_every(2)).unwrap();
    prior.train_with_autosave(Some(&path)).unwrap();
    assert!(PathBuf::from(format!("{}.prev", path.display())).exists());

    // The live file is corrupt (bit flip mid-file), caught only on load.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    // The "resumed" process: warmup 64 at 25 steps/episode puts the first
    // update in episode 3, before the first autosave at episode 5 — so at
    // divergence time there is no in-memory last-good state and the
    // rollback must go through the on-disk fallback chain.
    let mut resumed = Trainer::new(cfg.with_checkpoint_every(5)).unwrap();
    failpoint::arm("update::tds", Fault::Nan);
    let report = resumed.train_with_autosave(Some(&path)).unwrap();
    assert!(
        failpoint::take("update::tds").is_none(),
        "the injected divergence must actually have fired"
    );

    assert_eq!(report.curve.values(), full.curve.values(), "recovery must be exact");
    assert_eq!(weights_json(&resumed), weights_json(&straight), "weights must match bitwise");
}

fn small_checkpoint_bytes() -> Vec<u8> {
    let mut t =
        Trainer::new(config(Algorithm::Maddpg, SamplerConfig::Uniform).with_buffer_capacity(256))
            .unwrap();
    t.prefill(20).unwrap();
    let (ckpt, replay) = t.checkpoint_full();
    marl_repro::algo::checkpoint::encode_checkpoint_file(&ckpt, &replay).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every truncation of a valid checkpoint file is rejected with a
    /// structured error — decoding is total and never mis-loads a prefix.
    #[test]
    fn any_truncation_is_detected(cut in 0.0f64..1.0) {
        let good = small_checkpoint_bytes();
        let len = ((good.len() - 1) as f64 * cut) as usize;
        let err = decode_checkpoint_file(&good[..len]).unwrap_err();
        prop_assert!(matches!(err, TrainError::Checkpoint(_)));
    }

    /// CRC-32 detects every single-bit error: a flip anywhere in the file
    /// (header or payload) must surface as an error, never a silent
    /// mis-load.
    #[test]
    fn any_single_bit_flip_is_detected(pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = small_checkpoint_bytes();
        let i = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[i] ^= 1 << bit;
        let err = decode_checkpoint_file(&bytes).unwrap_err();
        prop_assert!(matches!(err, TrainError::Checkpoint(_)));
    }
}
