//! A network record one value short, or an optimizer whose moments do
//! not fit its network, must be refused with a typed error wherever bytes
//! become a network — a checkpoint file (training resume and
//! `marl-serve` model load) and the dist `Welcome` frame, which carries
//! actors only — before any kernel can read past it.
//!
//! Networks and optimizers travel as binary records (`marl_nn::record`),
//! so the malformed ones are made by rewriting agent 0's record bytes;
//! the file or frame around them is CRC-valid.

use marl_repro::algo::checkpoint::{encode_checkpoint_file, load_checkpoint_with_fallback};
use marl_repro::algo::{AgentState, Algorithm, Checkpoint, Task, TrainConfig, TrainError, Trainer};
use marl_repro::core::crc32::crc32;
use marl_repro::dist::wire::{self, ActorParams, Msg, Welcome};
use marl_repro::dist::{DistError, Worker};
use marl_repro::nn::record;
use marl_repro::nn::{Init, Mlp};
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

/// The parts of a MADDPG agent record, in order: the twin flag, the
/// actor, target actor, critic and target critic records, then the actor
/// and critic optimizer records.
fn record_parts(a: &AgentState) -> Vec<Vec<u8>> {
    let mut parts = vec![vec![0u8]];
    for net in [&a.actor, &a.target_actor, &a.critic, &a.target_critic] {
        parts.push(Vec::new());
        net.write_record(parts.last_mut().unwrap());
    }
    for opt in [&a.actor_opt, &a.critic_opt] {
        parts.push(Vec::new());
        opt.write_record(parts.last_mut().unwrap());
    }
    parts
}

const ACTOR: usize = 1;
const ACTOR_OPT: usize = 5;
const CRITIC_OPT: usize = 6;

/// `ckpt`'s file with agent 0's record parts rewritten by `edit`, the
/// section length and the checksum re-sealed.
fn file_with_agent0(ckpt: &Checkpoint, edit: impl FnOnce(&mut Vec<Vec<u8>>)) -> Vec<u8> {
    let bytes = encode_checkpoint_file(ckpt, &[]).unwrap();
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let tensors_at = 20 + u64_at(12);
    let tensors = &bytes[tensors_at + 8..tensors_at + 8 + u64_at(tensors_at)];
    let mut parts = record_parts(&ckpt.agents[0]);
    let own = parts.concat();
    assert_eq!(tensors[4..4 + own.len()], own, "agent 0's record comes first");
    edit(&mut parts);
    let mut edited = tensors[..4].to_vec();
    edited.extend(parts.concat());
    edited.extend_from_slice(&tensors[4 + own.len()..]);
    let mut payload = bytes[12..tensors_at].to_vec();
    payload.extend_from_slice(&(edited.len() as u64).to_le_bytes());
    payload.extend(edited);
    payload.extend_from_slice(&bytes[tensors_at + 8 + tensors.len()..]);
    let mut out = bytes[..8].to_vec();
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend(payload);
    out
}

/// The record without its last value.
fn drop_last(part: &mut Vec<u8>) {
    part.truncate(part.len() - 4);
}

/// An optimizer record's step count and moments.
fn moments(part: &[u8]) -> (&[u8], Vec<f32>, Vec<f32>) {
    let n = u32::from_le_bytes(part[8..12].try_into().unwrap()) as usize;
    let floats = |bytes: &[u8]| -> Vec<f32> {
        bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())).collect()
    };
    (&part[..8], floats(&part[12..12 + 4 * n]), floats(&part[16 + 4 * n..]))
}

/// An optimizer record of step count `t` and moments `m`, `v`.
fn optimizer_record(t: &[u8], m: &[f32], v: &[f32]) -> Vec<u8> {
    let mut out = t.to_vec();
    record::put_slab(&mut out, m);
    record::put_slab(&mut out, v);
    out
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marl_malformed_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Both file readers refuse `file` with a checkpoint error containing
/// `want`.
fn assert_file_refused(file: &[u8], name: &str, want: &str) {
    let dir = scratch_dir(name);
    let path = dir.join("ckpt.bin");
    std::fs::write(&path, file).unwrap();
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

/// The intact file of `ckpt` loads through both readers.
fn assert_file_loads(ckpt: &Checkpoint, name: &str) {
    let dir = scratch_dir(name);
    let path = dir.join("ckpt.bin");
    std::fs::write(&path, file_with_agent0(ckpt, |_| {})).unwrap();
    assert!(load_checkpoint_with_fallback(&path).is_ok(), "the intact file loads");
    assert!(PolicyModel::load(&path, 0).is_ok(), "the intact file serves");
    std::fs::remove_dir_all(&dir).ok();
}

fn welcome(ckpt: &Checkpoint, actors: ActorParams) -> Welcome {
    Welcome {
        worker_id: 0,
        epoch: 0,
        config: ckpt.config,
        actors,
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

/// An actor record one value short misaligns every record after it: the
/// reader refuses the file at the network that follows, and the served
/// model is refused the same way.
#[test]
fn short_weight_checkpoint_file_is_refused() {
    let ckpt = checkpoint();
    assert_file_loads(&ckpt, "intact_actor");
    let short = file_with_agent0(&ckpt, |parts| drop_last(&mut parts[ACTOR]));
    assert_file_refused(&short, "short_actor", "decode: agent 0 target actor: ");
}

/// A `Welcome` carries the actors and nothing else. A frame whose first
/// actor record is one value short is refused when decoded, and actors
/// that do not fit the architecture the config builds are refused by the
/// worker before it writes anything.
#[test]
fn short_actor_welcome_is_a_protocol_error() {
    let ckpt = checkpoint();
    let actors = || ckpt.agents.iter().map(|a| &a.actor);
    let intact = welcome(&ckpt, ActorParams::capture(actors()));
    assert!(Worker::from_welcome(intact.clone()).is_ok(), "the intact frame is fine");

    let frame = wire::encode_frame(&Msg::Welcome(Box::new(intact)));
    let mut short = frame[..wire::HEADER_LEN].to_vec();
    let (_, payload) = wire::decode_raw_frame(&frame).unwrap();
    let head_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    // Head, actor count, then agent 0's actor without its last value.
    let actor_end = 4 + head_len + 4 + 4 + 3 * 8 + 4 * ckpt.agents[0].actor.parameter_count();
    short.extend_from_slice(&payload[..actor_end - 4]);
    short.extend_from_slice(&payload[actor_end..]);
    wire::finish_raw_frame(2, &mut short);
    match wire::decode_frame(&short) {
        Err(DistError::Protocol(msg)) => assert!(msg.contains("more bytes but"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }

    let narrow = Mlp::new(
        &[12, 64, 64, 5],
        marl_repro::nn::Activation::Relu,
        Init::Zeros,
        &mut marl_repro::nn::rng::seeded(1),
    );
    let misfit = ActorParams::capture([&narrow].into_iter().chain(actors().skip(1)));
    match Worker::from_welcome(welcome(&ckpt, misfit)).err() {
        Some(DistError::Protocol(msg)) => {
            assert!(msg.contains("params for agent 0 do not fit the worker's actor"), "{msg}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// An optimizer whose `m` fits its network but whose `v` holds one value
/// would index past `v` in its first step. It is refused, naming the
/// agent and the optimizer, by both file readers.
#[test]
fn optimizer_whose_moments_differ_in_length_is_refused() {
    let ckpt = stepped_checkpoint();
    assert_file_loads(&ckpt, "intact_v");
    let short_v = file_with_agent0(&ckpt, |parts| {
        let (t, m, v) = moments(&parts[CRITIC_OPT]);
        parts[CRITIC_OPT] = optimizer_record(t, &m, &v[..1]);
    });
    let want = "agent 0 critic optimizer: moments hold 8321 and 1 values";
    assert_file_refused(&short_v, "short_v", want);
}

/// Moments sized for another network would be sized afresh in the first
/// step, silently dropping the optimizer's state. They are refused too.
#[test]
fn optimizer_sized_for_another_network_is_refused() {
    let ckpt = stepped_checkpoint();
    assert!(ckpt.agents.iter().all(|a| a.actor_opt.steps() == 1));
    let short = file_with_agent0(&ckpt, |parts| {
        let (t, m, v) = moments(&parts[ACTOR_OPT]);
        parts[ACTOR_OPT] = optimizer_record(t, &m[1..], &v[1..]);
    });
    let want = "agent 0 actor optimizer: moments hold 5572 and 5572 values, \
                the network has 5573 parameters";
    assert_file_refused(&short, "short_moments", want);
}
