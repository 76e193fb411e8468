//! A network whose weight array is one value short of its declared shape
//! must be refused with a typed error wherever bytes become a network —
//! a checkpoint file (training resume and `marl-serve` model load) and
//! the dist `Welcome` frame — before any kernel can read past it.
//!
//! The tensors travel as JSON, so the short array is made by editing the
//! serialized text; the file around it is CRC-valid.

use marl_repro::algo::checkpoint::{load_checkpoint_with_fallback, write_checkpoint_file};
use marl_repro::algo::{Algorithm, Checkpoint, Task, TrainConfig, TrainError, Trainer};
use marl_repro::dist::wire::Welcome;
use marl_repro::dist::{DistError, Worker};
use marl_repro::serve::PolicyModel;

fn checkpoint() -> Checkpoint {
    let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_seed(5);
    Trainer::new(config).unwrap().checkpoint()
}

/// `json` with the first value of the first weight array after `"field":`
/// removed: that layer's weight then holds one value fewer than its
/// `rows × cols`.
fn drop_first_weight(json: &str, field: &str) -> String {
    let at = json.find(&format!("\"{field}\":")).expect("field present");
    let data = at + json[at..].find("\"data\":[").expect("a weight array") + "\"data\":[".len();
    let comma = data + json[data..].find(',').expect("more than one weight");
    format!("{}{}", &json[..data], &json[comma + 1..])
}

fn short(ckpt: &Checkpoint, field: &str) -> Checkpoint {
    let json = serde_json::to_string(ckpt).unwrap();
    serde_json::from_str(&drop_first_weight(&json, field)).expect("still well-formed JSON")
}

#[test]
fn short_weight_checkpoint_file_is_refused() {
    let dir = std::env::temp_dir().join(format!("marl_malformed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("short_actor.bin");
    write_checkpoint_file(&path, &short(&checkpoint(), "actor"), &[]).unwrap();

    match load_checkpoint_with_fallback(&path) {
        Err(TrainError::Checkpoint(msg)) => {
            assert!(msg.contains("agent 0 network: layer 0: weight holds"), "{msg}");
        }
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a short actor was loaded"),
    }
    match PolicyModel::load(&path, 0) {
        Err(TrainError::Checkpoint(_)) => {}
        Err(other) => panic!("expected a checkpoint error, got {other}"),
        Ok(_) => panic!("a short actor was served"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_critic_welcome_is_a_protocol_error() {
    let ckpt = checkpoint();
    let welcome = |agents| Welcome {
        worker_id: 0,
        epoch: 0,
        config: ckpt.config,
        agents,
        master_rng: [1, 2, 3, 4],
        env_rng: None,
        env_steps: 0,
        samples_since_update: 0,
        replay_len: 0,
        episodes: 1,
        lockstep: true,
        steps_per_frame: 1,
    };
    assert!(Worker::from_welcome(welcome(ckpt.agents.clone())).is_ok(), "the intact frame is fine");
    match Worker::from_welcome(welcome(short(&ckpt, "critic").agents)).err() {
        Some(DistError::Protocol(msg)) => assert!(msg.contains("weight holds"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
