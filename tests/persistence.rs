//! Integration tests of the persistence features: trainer checkpoints and
//! binary replay snapshots surviving a full save/restore cycle.

use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig, Trainer};
use marl_repro::core::snapshot::{decode_replay, encode_replay};
use marl_repro::core::SamplerConfig;

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
fn checkpoint_json_roundtrip_through_disk_format() {
    let mut a = Trainer::new(config()).unwrap();
    a.train().unwrap();
    let ckpt = a.checkpoint();
    let json = serde_json::to_string(&ckpt).expect("serialize");
    let back: marl_repro::algo::Checkpoint = serde_json::from_str(&json).expect("deserialize");

    let mut b = Trainer::new(config()).unwrap();
    b.restore(back).unwrap();
    assert_eq!(b.update_iterations(), a.update_iterations());
    // All restored networks are bit-identical to the originals.
    for (x, y) in a.checkpoint().agents.iter().zip(b.checkpoint().agents.iter()) {
        assert_eq!(
            serde_json::to_string(&x.actor).unwrap(),
            serde_json::to_string(&y.actor).unwrap(),
            "restored actor must be bit-identical"
        );
        assert_eq!(
            serde_json::to_string(&x.critic).unwrap(),
            serde_json::to_string(&y.critic).unwrap(),
            "restored critic must be bit-identical"
        );
    }
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
