//! A network whose parameter slab is one value short of its widths, or an
//! optimizer whose moments do not fit its network, must be refused with a
//! typed error wherever bytes become a network — a checkpoint file
//! (training resume and `marl-serve` model load) and the dist `Welcome`
//! frame — before any kernel can read past it.
//!
//! The tensors travel as JSON (one hex string per tensor, eight digits a
//! value), so the malformed ones are made by editing the serialized text;
//! the file around them is CRC-valid.

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::{Algorithm, Checkpoint, Task, TrainConfig, TrainError, Trainer};
use marl_repro::dist::wire::Welcome;
use marl_repro::dist::{DistError, Worker};
use marl_repro::serve::PolicyModel;
use std::path::PathBuf;

fn config() -> TrainConfig {
    TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_seed(5)
}

fn checkpoint() -> Checkpoint {
    Trainer::new(config()).unwrap().checkpoint()
}

/// A checkpoint after one update, so every optimizer holds moments.
fn stepped_checkpoint() -> Checkpoint {
    let mut t = Trainer::new(config().with_batch_size(32).with_buffer_capacity(4096)).unwrap();
    t.prefill(256).unwrap();
    t.update_all_trainers().unwrap();
    t.checkpoint()
}

/// `json` with the tensor `key` of the first object after `"field":`
/// rewritten by `edit`.
fn edit_tensor(json: &str, field: &str, key: &str, edit: impl FnOnce(&str) -> String) -> String {
    let at = json.find(&format!("\"{field}\":")).expect("field present");
    let open = format!("\"{key}\":\"");
    let start = at + json[at..].find(&open).expect("a tensor") + open.len();
    let end = start + json[start..].find('"').expect("a closed string");
    format!("{}{}{}", &json[..start], edit(&json[start..end]), &json[end..])
}

/// One tensor edit: the object's field, the tensor's key, the rewrite.
type Edit<'a> = (&'a str, &'a str, fn(&str) -> String);

fn edited(ckpt: &Checkpoint, edits: &[Edit<'_>]) -> Checkpoint {
    let mut json = serde_json::to_string(ckpt).unwrap();
    for &(field, key, edit) in edits {
        json = edit_tensor(&json, field, key, edit);
    }
    serde_json::from_str(&json).expect("still well-formed JSON")
}

/// The tensor without its first value.
fn drop_first(hex: &str) -> String {
    assert!(hex.len() > 8, "more than one value");
    hex[8..].to_owned()
}

/// The tensor's first value alone.
fn first_only(hex: &str) -> String {
    hex[..8].to_owned()
}

fn short(ckpt: &Checkpoint, field: &str) -> Checkpoint {
    edited(ckpt, &[(field, "params", drop_first)])
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_malformed_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Both file readers refuse `ckpt` with a checkpoint error containing
/// `want`.
fn assert_file_refused(ckpt: &Checkpoint, name: &str, want: &str) {
    let dir = scratch_dir(name);
    let path = dir.join("ckpt.bin");
    write_checkpoint_file(&path, ckpt, &[]).unwrap();
    match load_checkpoint_with_fallback(&path) {
        Err(TrainError::Checkpoint(msg)) => assert!(msg.contains(want), "{msg}"),
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a malformed {name} was loaded"),
    }
    match PolicyModel::load(&path, 0) {
        Err(TrainError::Checkpoint(msg)) => assert!(msg.contains(want), "{msg}"),
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a malformed {name} was served"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn welcome(ckpt: &Checkpoint) -> Welcome {
    Welcome {
        worker_id: 0,
        epoch: 0,
        config: ckpt.config,
        agents: ckpt.agents.clone(),
        master_rng: [1, 2, 3, 4],
        env_rng: None,
        env_steps: 0,
        samples_since_update: 0,
        replay_len: 0,
        episodes: 1,
        lockstep: true,
        steps_per_frame: 1,
    }
}

fn assert_welcome_refused(ckpt: &Checkpoint, want: &str) {
    match Worker::from_welcome(welcome(ckpt)).err() {
        Some(DistError::Protocol(msg)) => assert!(msg.contains(want), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn short_weight_checkpoint_file_is_refused() {
    assert_file_refused(
        &short(&checkpoint(), "actor"),
        "short_actor",
        "agent 0 actor: params hold 5572 values, widths [16, 64, 64, 5] need 5573",
    );
}

#[test]
fn short_critic_welcome_is_a_protocol_error() {
    let ckpt = checkpoint();
    assert!(Worker::from_welcome(welcome(&ckpt)).is_ok(), "the intact frame is fine");
    assert_welcome_refused(&short(&ckpt, "critic"), "welcome agent 0 parameters");
    assert_welcome_refused(&short(&ckpt, "critic"), "critic: params hold");
}

/// An optimizer whose `m` fits its network but whose `v` holds one value
/// would index past `v` in its first step. It is refused, naming the
/// agent and the optimizer, by every reader.
#[test]
fn optimizer_whose_moments_differ_in_length_is_refused() {
    let ckpt = stepped_checkpoint();
    assert!(Worker::from_welcome(welcome(&ckpt)).is_ok(), "the intact frame is fine");
    let short_v = edited(&ckpt, &[("critic_opt", "v", first_only)]);
    let want = "agent 0 critic optimizer: moments hold 8321 and 1 values";
    assert_file_refused(&short_v, "short_v", want);
    assert_welcome_refused(&short_v, "welcome agent 0 parameters");
    assert_welcome_refused(&short_v, "critic optimizer: moments hold 8321 and 1 values");
}

/// Moments sized for another network would be sized afresh in the first
/// step, silently dropping the optimizer's state. They are refused too.
#[test]
fn optimizer_sized_for_another_network_is_refused() {
    let ckpt = stepped_checkpoint();
    assert!(ckpt.agents.iter().all(|a| a.actor_opt.steps() == 1));
    let short = edited(&ckpt, &[("actor_opt", "m", drop_first), ("actor_opt", "v", drop_first)]);
    let want = "agent 0 actor optimizer: moments hold 5572 and 5572 values, \
                the network has 5573 parameters";
    assert_file_refused(&short, "short_moments", want);
    assert_welcome_refused(&short, "actor optimizer: moments hold 5572 and 5572");
}
