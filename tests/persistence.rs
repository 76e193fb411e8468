//! Integration tests of the persistence features: trainer checkpoints and
//! binary replay snapshots surviving a full save/restore cycle.

use marl_repro::algo::checkpoint::{
    decode_checkpoint_file, encode_checkpoint_file, load_checkpoint_with_fallback,
    write_checkpoint_file,
};
use marl_repro::algo::{Algorithm, Checkpoint, LayoutMode, Task, TrainConfig, Trainer};
use marl_repro::core::crc32::crc32;
use marl_repro::core::snapshot::{decode_replay, encode_replay};
use marl_repro::core::{SamplerConfig, SamplerState};
use marl_repro::perf::PhaseProfile;

fn config() -> TrainConfig {
    let mut c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_sampler(SamplerConfig::Uniform)
        .with_episodes(6)
        .with_batch_size(32)
        .with_buffer_capacity(1024)
        .with_seed(41);
    c.warmup = 64;
    c.update_every = 25;
    c
}

#[test]
fn checkpoint_roundtrip_through_disk_format() {
    let mut a = Trainer::new(config()).unwrap();
    a.train().unwrap();
    let (ckpt, replay) = a.checkpoint_full();
    let bytes = encode_checkpoint_file(&ckpt, &replay).expect("encode");
    let (back, back_replay) = decode_checkpoint_file(&bytes).expect("decode");
    assert_eq!(back_replay, replay);

    let mut b = Trainer::new(config()).unwrap();
    b.restore(back).unwrap();
    assert_eq!(b.update_iterations(), a.update_iterations());
    // All restored networks and optimizers are bit-identical to the
    // originals (their JSON is every tensor's bits).
    let states = |t: &Trainer| serde_json::to_string(&t.agent_states()).unwrap();
    assert_eq!(states(&b), states(&a), "restored agents must be bit-identical");
}

/// A prioritized trainer after one update, its phase timings cleared so
/// the checkpoint is a function of the seed alone.
fn prioritized_checkpoint() -> (Checkpoint, Vec<u8>) {
    let cfg = config().with_sampler(SamplerConfig::Per).with_seed(4242);
    let mut t = Trainer::new(cfg).unwrap();
    t.prefill(128).unwrap();
    t.update_all_trainers().unwrap();
    let (mut ckpt, replay) = t.checkpoint_full();
    ckpt.run.as_mut().unwrap().profile = PhaseProfile::default();
    (ckpt, replay)
}

/// The priority vector of a prioritized sampler state.
fn priorities(ckpt: &mut Checkpoint) -> &mut Vec<f64> {
    match &mut ckpt.run.as_mut().unwrap().sampler {
        SamplerState::Priority { priorities, .. } => priorities,
        other => panic!("not a prioritized sampler state: {other:?}"),
    }
}

/// Every float a resume restores travels as its bits: a reward curve of
/// +∞, −∞, −0.0 and a NaN with a payload, and the PER priorities, come
/// back bit for bit through a file, and a trainer restored from it
/// checkpoints them unchanged.
#[test]
fn run_tensors_roundtrip_bit_for_bit_through_a_file() {
    let (mut ckpt, replay) = prioritized_checkpoint();
    let curve_bits = [0x7F80_0000u32, 0xFF80_0000, 0x8000_0000, 0x7FC0_1234, 0x3F80_0001];
    ckpt.run.as_mut().unwrap().curve = curve_bits.iter().map(|&b| f32::from_bits(b)).collect();
    let prio = priorities(&mut ckpt);
    assert!(prio.iter().filter(|p| **p > 0.0).count() >= 128, "the pushed rows hold priorities");
    prio[3] = f64::from_bits(1); // the smallest subnormal
    let want_prio: Vec<u64> = prio.iter().map(|p| p.to_bits()).collect();

    let dir = std::env::temp_dir().join(format!("marl_persistence_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bits.bin");
    write_checkpoint_file(&path, &ckpt, &replay).unwrap();
    let (mut back, back_replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!from_prev);
    assert_eq!(back_replay, replay);
    let bits = |c: &Checkpoint| -> Vec<u32> {
        c.run.as_ref().unwrap().curve.iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&back), curve_bits);
    assert_eq!(priorities(&mut back).iter().map(|p| p.to_bits()).collect::<Vec<_>>(), want_prio);

    let mut resumed = Trainer::new(back.config).unwrap();
    resumed.restore_full(back, &replay).unwrap();
    let (mut again, _) = resumed.checkpoint_full();
    assert_eq!(bits(&again), curve_bits);
    assert_eq!(priorities(&mut again).iter().map(|p| p.to_bits()).collect::<Vec<_>>(), want_prio);
}

/// The CRC-32 and length of a whole version-4 file of a seeded
/// predator-prey checkpoint: the bytes are the file format, so a change
/// to how checkpoints are stored must leave them exactly here.
#[test]
fn checkpoint_file_bytes_are_pinned() {
    let (ckpt, replay) = prioritized_checkpoint();
    let bytes = encode_checkpoint_file(&ckpt, &replay).unwrap();
    assert_eq!((crc32(&bytes), bytes.len()), (0x0031_8DE7, 736_743), "version-4 file");
}

/// Trained under either address map, the replay snapshots to the same
/// bytes, and the decoded copy holds every stored row.
#[test]
fn replay_snapshot_roundtrip_after_training() {
    let snapshot = |layout: LayoutMode| {
        let mut t = Trainer::new(config().with_layout(layout)).unwrap();
        t.train().unwrap();
        let replay = t.replay().expect("the trainer's replay");
        assert_eq!(replay.mode(), layout);
        let bytes = encode_replay(replay);
        assert!(bytes.len() > 100, "snapshot should carry payload");
        let restored = decode_replay(&bytes).unwrap();
        assert_eq!(restored.len(), replay.len());
        assert_eq!(restored.agent_count(), replay.agent_count());
        assert_eq!(restored.next_slot(), replay.next_slot());
        // Every stored transition identical.
        for a in 0..replay.agent_count() {
            for slot in 0..replay.len() {
                assert_eq!(restored.row(a, slot), replay.row(a, slot), "agent {a} slot {slot}");
            }
        }
        bytes
    };
    assert_eq!(snapshot(LayoutMode::PerAgent), snapshot(LayoutMode::Interleaved));
}

#[test]
fn snapshot_of_wrapped_training_buffer() {
    // Train long enough that the 1024-row ring wraps (6 eps × 25 = 150 —
    // not enough; push more via prefill).
    let mut t = Trainer::new(config()).unwrap();
    t.prefill(1500).unwrap(); // wraps the 1024 ring
    let replay = t.replay().unwrap();
    assert_eq!(replay.len(), 1024);
    let restored = decode_replay(&encode_replay(replay)).unwrap();
    assert_eq!(restored.next_slot(), replay.next_slot());
    assert_eq!(restored.row(2, 1000), replay.row(2, 1000));
}
