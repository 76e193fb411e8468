//! Checkpointing: serializable snapshots of the complete resumable run
//! state — networks, optimizers, counters, RNG streams, sampler state,
//! and the replay buffer — persisted crash-safely so long
//! characterization runs can be killed and resumed bitwise-identically.
//!
//! ## On-disk format (version 2)
//!
//! ```text
//! magic  u32 LE = 0x4D41_5243 ("MARC")
//! version u16 LE = 2 | reserved u16 = 0
//! crc32  u32 LE over the payload
//! payload:
//!   json_len   u64 LE | json bytes   (serde_json of [`Checkpoint`])
//!   replay_len u64 LE | replay bytes ([`marl_core::snapshot`] V2 frame)
//! ```
//!
//! Persistence is atomic: the frame is written to `<path>.tmp`, fsynced,
//! the previous live file is rotated to `<path>.prev`, and the temp file
//! renamed over `<path>`. A torn write therefore never destroys the last
//! good checkpoint, and [`load_checkpoint_with_fallback`] recovers from
//! `.prev` when the live file is corrupt.

use crate::agent::AgentNets;
use crate::config::TrainConfig;
use crate::error::TrainError;
use crate::trainer::SamplingTelemetry;
use marl_core::crc32::crc32;
use marl_core::sampler::SamplerState;
use marl_nn::adam::Adam;
use marl_nn::mlp::Mlp;
use marl_perf::phase::PhaseProfile;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Serializable state of one agent's networks + optimizers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentState {
    /// Live actor.
    pub actor: Mlp,
    /// Target actor.
    pub target_actor: Mlp,
    /// Live critic.
    pub critic: Mlp,
    /// Target critic.
    pub target_critic: Mlp,
    /// Twin critic + target (MATD3).
    pub critic2: Option<(Mlp, Mlp)>,
    /// Actor optimizer state.
    pub actor_opt: Adam,
    /// Critic optimizer state.
    pub critic_opt: Adam,
    /// Twin-critic optimizer state.
    pub critic2_opt: Option<Adam>,
}

impl AgentState {
    /// Every network this state carries: actor, target actor, critic,
    /// target critic, then the twin critic and its target when present.
    fn nets(&self) -> impl Iterator<Item = &Mlp> {
        [&self.actor, &self.target_actor, &self.critic, &self.target_critic]
            .into_iter()
            .chain(self.critic2.iter().flat_map(|(c, t)| [c, t]))
    }

    /// Checks every carried network with [`Mlp::validate`].
    fn validate(&self) -> Result<(), String> {
        self.nets().try_for_each(Mlp::validate)
    }

    /// Captures an agent's state.
    pub fn capture(nets: &AgentNets) -> Self {
        AgentState {
            actor: nets.actor.clone(),
            target_actor: nets.target_actor.clone(),
            critic: nets.critic.clone(),
            target_critic: nets.target_critic.clone(),
            critic2: nets.critic2.clone(),
            actor_opt: nets.actor_opt.clone(),
            critic_opt: nets.critic_opt.clone(),
            critic2_opt: nets.critic2_opt.clone(),
        }
    }

    /// Restores this state into `nets`.
    ///
    /// # Errors
    ///
    /// Returns an error if any carried network is malformed or differs
    /// from `nets`' in any layer's shape (or in having a twin critic).
    pub fn restore(self, nets: &mut AgentNets) -> Result<(), TrainError> {
        self.validate()
            .map_err(|e| TrainError::InvalidConfig(format!("checkpoint network: {e}")))?;
        let compatible = self.critic2.is_some() == nets.critic2.is_some() && {
            let ours = [&nets.actor, &nets.target_actor, &nets.critic, &nets.target_critic]
                .into_iter()
                .chain(nets.critic2.iter().flat_map(|(c, t)| [c, t]));
            self.nets().zip(ours).all(|(theirs, ours)| theirs.same_shape(ours))
        };
        if !compatible {
            return Err(TrainError::InvalidConfig(
                "checkpoint architecture does not match the trainer".into(),
            ));
        }
        nets.actor = self.actor;
        nets.target_actor = self.target_actor;
        nets.critic = self.critic;
        nets.target_critic = self.target_critic;
        nets.critic2 = self.critic2;
        nets.actor_opt = self.actor_opt;
        nets.critic_opt = self.critic_opt;
        nets.critic2_opt = self.critic2_opt;
        Ok(())
    }
}

/// A full training checkpoint.
///
/// # Examples
///
/// ```no_run
/// use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
///
/// let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
/// let mut trainer = Trainer::new(config)?;
/// let ckpt = trainer.checkpoint();
/// let json = serde_json::to_string(&ckpt).unwrap();
/// # let _ = json;
/// # Ok::<(), marl_algo::error::TrainError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The configuration the checkpoint was trained with.
    pub config: TrainConfig,
    /// Per-agent network/optimizer state.
    pub agents: Vec<AgentState>,
    /// Update iterations completed when captured.
    pub update_iterations: u64,
    /// The remaining run state (counters, RNG streams, sampler state,
    /// reward curve). `None` for weights-only checkpoints, which restore
    /// the policy but cannot resume training bitwise-identically.
    pub run: Option<RunState>,
}

/// Everything beyond the networks that a bitwise-identical resume needs.
///
/// Checkpoints are captured at episode boundaries, where the
/// environment's world is regenerated from its RNG on `reset()`; the env
/// RNG state plus these counters therefore fully determine every future
/// rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunState {
    /// Environment steps executed (also drives the exploration schedule,
    /// which is a pure function of this counter).
    pub env_steps: u64,
    /// Samples pushed since the last update round.
    pub samples_since_update: usize,
    /// State of the master RNG (action exploration + sampling plans).
    pub master_rng: [u64; 4],
    /// State of the environment's RNG (resets + scripted agents).
    pub env_rng: [u64; 4],
    /// Per-episode mean rewards so far (its length is the episode count).
    pub curve: Vec<f32>,
    /// Sampling-phase telemetry so far.
    pub telemetry: SamplingTelemetry,
    /// Mutable sampler state (PER priorities, annealing clock, reuse
    /// window).
    pub sampler: SamplerState,
    /// Accumulated phase timings (restored so resumed reports keep the
    /// whole run's breakdown).
    pub profile: PhaseProfile,
    /// K > 1 only: per-world exploration-noise RNG states, world order.
    /// Empty at K = 1 (which draws noise from `master_rng`), and
    /// `#[serde(default)]` so checkpoints written before the vectorized
    /// engine existed deserialize unchanged.
    #[serde(default)]
    pub rollout_rngs: Vec<[u64; 4]>,
    /// K > 1 only: per-world environment RNG states for worlds 1..K
    /// (world 0 lives in `env_rng`, so K = 1 checkpoints keep the
    /// pre-vectorization format). Also `#[serde(default)]`.
    #[serde(default)]
    pub vec_env_rngs: Vec<[u64; 4]>,
}

/// Magic prefix of a checkpoint file ("MARC").
pub const CHECKPOINT_MAGIC: u32 = 0x4D41_5243;
/// Current checkpoint file version.
pub const CHECKPOINT_VERSION: u16 = 2;

/// Derives the sibling path used by the rotation scheme (`.tmp`/`.prev`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".");
    os.push(suffix);
    PathBuf::from(os)
}

/// Serializes a checkpoint + replay snapshot into the framed binary
/// format (header, CRC-32, length-prefixed JSON and replay sections).
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] if JSON serialization fails.
pub fn encode_checkpoint_file(ckpt: &Checkpoint, replay: &[u8]) -> Result<Vec<u8>, TrainError> {
    let json = serde_json::to_string(ckpt)
        .map_err(|e| TrainError::Checkpoint(format!("serialize: {e}")))?;
    Ok(frame(&json, replay))
}

/// The framed file around a checkpoint's JSON and replay sections.
fn frame(json: &str, replay: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + json.len() + replay.len());
    payload.extend_from_slice(&(json.len() as u64).to_le_bytes());
    payload.extend_from_slice(json.as_bytes());
    payload.extend_from_slice(&(replay.len() as u64).to_le_bytes());
    payload.extend_from_slice(replay);
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a checkpoint file frame, verifying magic, version, and CRC.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] describing exactly what is wrong
/// (never panics on malformed input).
pub fn decode_checkpoint_file(bytes: &[u8]) -> Result<(Checkpoint, Vec<u8>), TrainError> {
    let err = |what: &str| TrainError::Checkpoint(format!("decode: {what}"));
    if bytes.len() < 12 {
        return Err(err("file shorter than the 12-byte header"));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != CHECKPOINT_MAGIC {
        return Err(err("bad magic (not a checkpoint file)"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(TrainError::Checkpoint(format!("decode: unsupported version {version}")));
    }
    let expected = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(TrainError::Checkpoint(format!(
            "decode: checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
        )));
    }
    // Checksum verified: the lengths below are trustworthy, but still
    // bounds-checked so a CRC collision cannot cause a panic.
    let mut off = 0usize;
    let take_u64 = |off: &mut usize| -> Result<usize, TrainError> {
        if payload.len() - *off < 8 {
            return Err(TrainError::Checkpoint("decode: truncated length field".into()));
        }
        let v = u64::from_le_bytes(payload[*off..*off + 8].try_into().expect("8 bytes"));
        *off += 8;
        usize::try_from(v).map_err(|_| TrainError::Checkpoint("decode: length overflow".into()))
    };
    let json_len = take_u64(&mut off)?;
    if payload.len() - off < json_len {
        return Err(err("truncated JSON section"));
    }
    let json = std::str::from_utf8(&payload[off..off + json_len])
        .map_err(|_| err("checkpoint JSON is not UTF-8"))?;
    off += json_len;
    let ckpt: Checkpoint =
        serde_json::from_str(json).map_err(|e| TrainError::Checkpoint(format!("decode: {e}")))?;
    for (i, agent) in ckpt.agents.iter().enumerate() {
        agent.validate().map_err(|e| err(&format!("agent {i} network: {e}")))?;
    }
    let replay_len = take_u64(&mut off)?;
    if payload.len() - off < replay_len {
        return Err(err("truncated replay section"));
    }
    let replay = payload[off..off + replay_len].to_vec();
    Ok((ckpt, replay))
}

/// Writes a checkpoint atomically: temp file + fsync + rotation
/// (live → `.prev`) + rename. A crash at any point leaves either the old
/// live file or the new one — never a torn frame under the live name.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] on serialization or I/O failure.
pub fn write_checkpoint_file(
    path: &Path,
    ckpt: &Checkpoint,
    replay: &[u8],
) -> Result<(), TrainError> {
    #[allow(unused_mut)]
    let mut bytes = encode_checkpoint_file(ckpt, replay)?;
    #[cfg(feature = "failpoints")]
    if let Some(fault) = crate::failpoint::take("checkpoint::write") {
        if fault == crate::failpoint::Fault::Io {
            return Err(TrainError::Checkpoint("injected I/O error".into()));
        }
        // Truncation / bit flips corrupt the bytes but let the write
        // "succeed", simulating silent on-disk corruption.
        crate::failpoint::corrupt(&mut bytes, fault);
    }
    let tmp = sibling(path, "tmp");
    let io = |stage: &str, e: std::io::Error| {
        TrainError::Checkpoint(format!("{stage} {}: {e}", path.display()))
    };
    let mut f = std::fs::File::create(&tmp).map_err(|e| io("create temp for", e))?;
    f.write_all(&bytes).map_err(|e| io("write temp for", e))?;
    f.sync_all().map_err(|e| io("fsync temp for", e))?;
    drop(f);
    if path.exists() {
        std::fs::rename(path, sibling(path, "prev")).map_err(|e| io("rotate", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io("publish", e))?;
    Ok(())
}

/// Reads and decodes one checkpoint file.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] on I/O or decode failure.
pub fn read_checkpoint_file(path: &Path) -> Result<(Checkpoint, Vec<u8>), TrainError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TrainError::Checkpoint(format!("read {}: {e}", path.display())))?;
    decode_checkpoint_file(&bytes)
}

/// Loads the live checkpoint, falling back to the rotated `.prev` file if
/// the live one is missing, truncated, or corrupt. Returns the decoded
/// state and whether the fallback was used.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] describing *both* failures when
/// neither file is loadable.
pub fn load_checkpoint_with_fallback(
    path: &Path,
) -> Result<(Checkpoint, Vec<u8>, bool), TrainError> {
    // Strips the variant's own "checkpoint error:" Display prefix so the
    // combined two-failure message reads cleanly.
    let inner = |e: TrainError| match e {
        TrainError::Checkpoint(msg) => msg,
        other => other.to_string(),
    };
    let primary = match read_checkpoint_file(path) {
        Ok((ckpt, replay)) => return Ok((ckpt, replay, false)),
        Err(e) => inner(e),
    };
    let prev = sibling(path, "prev");
    match read_checkpoint_file(&prev) {
        Ok((ckpt, replay)) => Ok((ckpt, replay, true)),
        Err(fallback) => Err(TrainError::Checkpoint(format!(
            "{primary}; fallback to {} also failed: {}",
            prev.display(),
            inner(fallback)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Task};
    use marl_nn::matrix::Matrix;
    use marl_nn::rng::seeded;
    use marl_nn::scratch::Scratch;

    fn nets_seeded(twin: bool, seed: u64) -> AgentNets {
        let mut rng = seeded(seed);
        AgentNets::new(8, 5, 3 * 8 + 3 * 5, twin, 0.01, &mut rng)
    }

    fn nets(twin: bool) -> AgentNets {
        nets_seeded(twin, 3)
    }

    /// `net`'s output on `x`, as bits.
    fn output_bits(net: &Mlp, x: &Matrix) -> Vec<u32> {
        let mut out = Matrix::default();
        net.forward_inference_into(x, &mut out, &mut Scratch::new());
        out.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn capture_restore_roundtrip_preserves_behaviour() {
        let src = nets_seeded(true, 3);
        let state = AgentState::capture(&src);
        let mut dst = nets_seeded(true, 4); // different random init
        let x = Matrix::full(1, 8, 0.3);
        assert_ne!(output_bits(&src.actor, &x), output_bits(&dst.actor, &x));
        state.restore(&mut dst).unwrap();
        assert_eq!(output_bits(&src.actor, &x), output_bits(&dst.actor, &x));
        let j = Matrix::full(1, 39, 0.1);
        assert_eq!(output_bits(&src.critic, &j), output_bits(&dst.critic, &j));
    }

    #[test]
    fn incompatible_architecture_rejected() {
        let state = AgentState::capture(&nets(true));
        let mut plain = nets(false); // no twin critic
        assert!(state.restore(&mut plain).is_err());
        // Same input and output widths, different hidden width.
        let mut rng = seeded(5);
        let mut narrow = nets(false);
        narrow.critic = Mlp::new(
            &[39, 32, 64, 1],
            marl_nn::activation::Activation::Relu,
            marl_nn::init::Init::HeUniform,
            &mut rng,
        );
        let state = AgentState::capture(&narrow);
        assert!(state.restore(&mut nets(false)).is_err());
    }

    #[test]
    fn checkpoint_serializes_via_serde() {
        let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let ckpt = Checkpoint {
            config,
            agents: vec![AgentState::capture(&nets(false))],
            update_iterations: 42,
            run: None,
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.update_iterations, 42);
        assert_eq!(back.agents.len(), 1);
        assert_eq!(back.config, config);
        // Behaviour survives the round trip.
        let x = Matrix::full(1, 8, 0.5);
        assert_eq!(output_bits(&ckpt.agents[0].actor, &x), output_bits(&back.agents[0].actor, &x));
    }

    /// A checkpoint written while `TrainConfig` still had a `kernel` or a
    /// `sampling_threads` field carries it in its config. It does not
    /// resume: loading refuses the file with a checkpoint error naming the
    /// field, and nothing panics.
    #[test]
    fn a_checkpoint_whose_config_names_a_removed_field_is_refused() {
        let ckpt = Checkpoint {
            config: TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3),
            agents: vec![AgentState::capture(&nets(false))],
            update_iterations: 0,
            run: None,
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let dir = std::env::temp_dir().join(format!("marl_ckpt_removed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (field, entry, before) in [
            ("kernel", "\"kernel\":\"Auto\",", "\"num_envs\":"),
            ("sampling_threads", "\"sampling_threads\":1,", "\"update_threads\":"),
        ] {
            let old = json.replacen(before, &format!("{entry}{before}"), 1);
            assert_ne!(old, json, "the config serializes {before}");
            let path = dir.join(format!("with_{field}.bin"));
            std::fs::write(&path, frame(&old, &[])).unwrap();
            match load_checkpoint_with_fallback(&path) {
                Err(TrainError::Checkpoint(msg)) => {
                    assert!(msg.contains(&format!("unknown field `{field}`")), "{msg}");
                }
                Err(other) => panic!("expected a checkpoint error, got {other}"),
                Ok(_) => panic!("a config with a {field} field was loaded"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
