//! Checkpointing: snapshots of the complete resumable run state —
//! networks, optimizers, counters, RNG streams, sampler state, and the
//! replay buffer — persisted crash-safely so long characterization runs
//! can be killed and resumed bitwise-identically.
//!
//! ## On-disk format (version 4)
//!
//! ```text
//! magic  u32 LE = 0x4D41_5243 ("MARC")
//! version u16 LE = 4 | reserved u16 = 0
//! crc32  u32 LE over the payload
//! payload:
//!   head_len   u64 LE | head     serde_json: config, update_iterations and
//!                                the run state but its two tensors
//!   tensor_len u64 LE | tensors
//!   replay_len u64 LE | replay   ([`marl_core::snapshot`] V2 frame)
//! tensors:
//!   n_agents u32 | n_agents agent records
//!   curve_len u64 | the reward curve, f32 bits
//!   priorities_len u64 | the sampler's priorities, f64 bits
//! agent record:
//!   twin u8 (0 or 1)
//!   | each network in actor, target actor, critic, target critic[, twin
//!     critic, twin target] order: activation u8 + network record
//!   | each optimizer (actor, critic[, twin critic]): t u64, m, v
//!     (each a u32 count and its f32 bits)
//! ```
//!
//! Networks and optimizers are the [`marl_nn::record`] records — a
//! network record is exactly an actor of the dist `Params` frame — and
//! every float is its bits, so every value a resume restores comes back
//! bit for bit: NaN payloads, infinities and −0.0 included. In the head
//! the run state's `curve` and the sampler's `priorities` are empty;
//! their values are in the tensor section. Gradients are not state and
//! are not written. Every count is checked against the bytes that remain
//! before anything is allocated for it. Files of another version are
//! refused; there is no reader for older ones.
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
use marl_nn::adam::{Adam, AdamConfig};
use marl_nn::mlp::Mlp;
use marl_nn::record::{self, Reader};
use marl_perf::phase::PhaseProfile;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The state of one agent's networks + optimizers.
///
/// Its JSON form (hex text of every tensor's bits) compares states; files
/// and frames carry the binary agent record.
#[derive(Debug, Clone, Serialize)]
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

/// The networks of an agent record after the actor, named.
const AFTER_ACTOR: [&str; 5] =
    ["target actor", "critic", "target critic", "twin critic", "twin target"];

impl AgentState {
    /// Every network this state carries, named: actor, target actor,
    /// critic, target critic, then the twin critic and its target when
    /// present.
    fn nets(&self) -> impl Iterator<Item = (&'static str, &Mlp)> {
        let twin = self.critic2.iter().flat_map(|(c, t)| [c, t]);
        let nets = [&self.actor, &self.target_actor, &self.critic, &self.target_critic];
        ["actor"].into_iter().chain(AFTER_ACTOR).zip(nets.into_iter().chain(twin))
    }

    /// Checks every carried network with [`Mlp::validate`], and each
    /// optimizer's moments against the network it steps with
    /// [`Adam::validate_for`] (the twin critic and its optimizer come
    /// together or not at all).
    fn validate(&self) -> Result<(), String> {
        for (name, net) in self.nets() {
            net.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        let twin = match (&self.critic2, &self.critic2_opt) {
            (Some((c, _)), Some(opt)) => Some(("twin critic", opt, c)),
            (None, None) => None,
            _ => return Err("twin critic and its optimizer must come together".into()),
        };
        let opts =
            [("actor", &self.actor_opt, &self.actor), ("critic", &self.critic_opt, &self.critic)];
        for (name, opt, net) in opts.into_iter().chain(twin) {
            opt.validate_for(net).map_err(|e| format!("{name} optimizer: {e}"))?;
        }
        Ok(())
    }

    /// Appends this agent's record (see the module docs).
    fn write_record(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.critic2.is_some()));
        for (_, net) in self.nets() {
            net.write_record(out);
        }
        for opt in [&self.actor_opt, &self.critic_opt].into_iter().chain(&self.critic2_opt) {
            opt.write_record(out);
        }
    }

    /// Reads one agent record; its optimizers run under `adam`. The state
    /// is checked as [`AgentState::validate`] checks it.
    fn read_record(r: &mut Reader<'_>, adam: AdamConfig) -> Result<AgentState, String> {
        let twin = read_twin(r)?;
        let mut net = |name: &str| Mlp::read_record(r).map_err(|e| format!("{name}: {e}"));
        let (actor, target_actor, critic, target_critic) =
            (net("actor")?, net("target actor")?, net("critic")?, net("target critic")?);
        let critic2 = if twin { Some((net("twin critic")?, net("twin target")?)) } else { None };
        let mut opt =
            |name: &str| Adam::read_record(r, adam).map_err(|e| format!("{name} optimizer: {e}"));
        let (actor_opt, critic_opt) = (opt("actor")?, opt("critic")?);
        let critic2_opt = if twin { Some(opt("twin critic")?) } else { None };
        let state = AgentState {
            actor,
            target_actor,
            critic,
            target_critic,
            critic2,
            actor_opt,
            critic_opt,
            critic2_opt,
        };
        state.validate()?;
        Ok(state)
    }

    /// Reads one agent record and keeps its live actor. The other
    /// networks are walked with [`Mlp::skip_record`] and the optimizers'
    /// moments checked against them with [`Adam::skip_record`]; nothing
    /// of them is copied.
    fn read_actor(r: &mut Reader<'_>) -> Result<Mlp, String> {
        let twin = read_twin(r)?;
        let actor = Mlp::read_record(r).map_err(|e| format!("actor: {e}"))?;
        // Parameter counts in record order; optimizers step nets 0, 2, 4.
        let mut sizes = vec![actor.parameter_count()];
        for name in &AFTER_ACTOR[..if twin { 5 } else { 3 }] {
            sizes.push(Mlp::skip_record(r).map_err(|e| format!("{name}: {e}"))?);
        }
        for (name, net) in
            [("actor", 0), ("critic", 2), ("twin critic", 4)].into_iter().take(sizes.len() / 2)
        {
            Adam::skip_record(r, sizes[net]).map_err(|e| format!("{name} optimizer: {e}"))?;
        }
        Ok(actor)
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
    /// Returns an error if any carried network or optimizer is malformed,
    /// or a network differs from `nets`' in its widths (or in having a
    /// twin critic).
    pub fn restore(self, nets: &mut AgentNets) -> Result<(), TrainError> {
        self.validate().map_err(|e| TrainError::InvalidConfig(format!("checkpoint {e}")))?;
        let compatible = self.critic2.is_some() == nets.critic2.is_some() && {
            let ours = [&nets.actor, &nets.target_actor, &nets.critic, &nets.target_critic]
                .into_iter()
                .chain(nets.critic2.iter().flat_map(|(c, t)| [c, t]));
            self.nets().zip(ours).all(|((_, theirs), ours)| theirs.same_shape(ours))
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

/// An agent record's twin flag.
fn read_twin(r: &mut Reader<'_>) -> Result<bool, String> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("twin flag {other} is neither 0 nor 1")),
    }
}

/// A full training checkpoint.
///
/// # Examples
///
/// ```no_run
/// use marl_algo::checkpoint::{decode_checkpoint_file, encode_checkpoint_file};
/// use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
///
/// let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
/// let trainer = Trainer::new(config)?;
/// let (ckpt, replay) = trainer.checkpoint_full();
/// let bytes = encode_checkpoint_file(&ckpt, &replay)?;
/// let (back, _replay) = decode_checkpoint_file(&bytes)?;
/// assert_eq!(back.update_iterations, ckpt.update_iterations);
/// # Ok::<(), marl_algo::error::TrainError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
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
    /// Empty at K = 1 (which draws noise from `master_rng`).
    #[serde(default)]
    pub rollout_rngs: Vec<[u64; 4]>,
    /// K > 1 only: per-world environment RNG states for worlds 1..K
    /// (world 0 lives in `env_rng`).
    #[serde(default)]
    pub vec_env_rngs: Vec<[u64; 4]>,
}

/// The JSON head of a checkpoint file: a [`Checkpoint`] without its
/// agents, and without the run state's curve and priorities.
#[derive(Serialize, Deserialize)]
struct Head {
    config: TrainConfig,
    update_iterations: u64,
    run: Option<RunState>,
}

/// The priority vector a sampler state carries, if any.
fn priorities_mut(state: &mut SamplerState) -> Option<&mut Vec<f64>> {
    match state {
        SamplerState::Priority { priorities, .. } => Some(priorities),
        SamplerState::Reuse { inner, .. } => priorities_mut(inner),
        SamplerState::Stateless => None,
    }
}

/// Magic prefix of a checkpoint file ("MARC").
pub const CHECKPOINT_MAGIC: u32 = 0x4D41_5243;
/// Current checkpoint file version.
pub const CHECKPOINT_VERSION: u16 = 4;

/// Derives the sibling path used by the rotation scheme (`.tmp`/`.prev`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".");
    os.push(suffix);
    PathBuf::from(os)
}

/// Serializes a checkpoint + replay snapshot into the framed binary
/// format (see the module docs).
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] if the head does not serialize.
pub fn encode_checkpoint_file(ckpt: &Checkpoint, replay: &[u8]) -> Result<Vec<u8>, TrainError> {
    let mut run = ckpt.run.clone();
    let (mut curve, mut priorities) = (Vec::new(), Vec::new());
    if let Some(run) = &mut run {
        curve = std::mem::take(&mut run.curve);
        priorities = priorities_mut(&mut run.sampler).map(std::mem::take).unwrap_or_default();
    }
    let head = Head { config: ckpt.config, update_iterations: ckpt.update_iterations, run };
    let head = serde_json::to_string(&head)
        .map_err(|e| TrainError::Checkpoint(format!("serialize: {e}")))?;
    let mut tensors = Vec::new();
    tensors.extend_from_slice(&(ckpt.agents.len() as u32).to_le_bytes());
    for agent in &ckpt.agents {
        agent.write_record(&mut tensors);
    }
    tensors.extend_from_slice(&(curve.len() as u64).to_le_bytes());
    record::put_f32s(&mut tensors, &curve);
    tensors.extend_from_slice(&(priorities.len() as u64).to_le_bytes());
    for p in &priorities {
        tensors.extend_from_slice(&p.to_le_bytes());
    }
    Ok(frame([head.as_bytes(), &tensors, replay]))
}

/// The framed file around its three length-prefixed sections.
fn frame(sections: [&[u8]; 3]) -> Vec<u8> {
    let len = 12 + sections.iter().map(|s| 8 + s.len()).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&[0; 4]); // the CRC, patched below
    for section in sections {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
    }
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// A decode error: the file does not hold what its format says.
fn malformed(what: impl std::fmt::Display) -> TrainError {
    TrainError::Checkpoint(format!("decode: {what}"))
}

/// The head, tensor and replay sections of a checkpoint file, after its
/// magic, version and checksum are verified.
fn sections(bytes: &[u8]) -> Result<(Head, Reader<'_>, &[u8]), TrainError> {
    if bytes.len() < 12 {
        return Err(malformed("file shorter than the 12-byte header"));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != CHECKPOINT_MAGIC {
        return Err(malformed("bad magic (not a checkpoint file)"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(malformed(format!("unsupported version {version}")));
    }
    let expected = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(malformed(format!(
            "checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
        )));
    }
    // Checksum verified: the lengths below are trustworthy, but still
    // bounds-checked so a CRC collision cannot cause a panic.
    let mut r = Reader::new(payload);
    let mut section = |name: &str| {
        let len = r.u64().map_err(|e| malformed(format!("{name} length: {e}")))?;
        let len =
            usize::try_from(len).map_err(|_| malformed(format!("{name} length overflows")))?;
        r.take(len).map_err(|e| malformed(format!("{name} section: {e}")))
    };
    let (head, tensors, replay) = (section("head")?, section("tensor")?, section("replay")?);
    r.finish().map_err(|e| malformed(format!("after the replay section: {e}")))?;
    let head = std::str::from_utf8(head).map_err(|_| malformed("the head is not UTF-8"))?;
    let head: Head = serde_json::from_str(head).map_err(malformed)?;
    Ok((head, Reader::new(tensors), replay))
}

/// Decodes a checkpoint file frame, verifying magic, version, and CRC,
/// and every network and optimizer as [`AgentState::restore`] does.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] describing exactly what is wrong
/// (never panics on malformed input).
pub fn decode_checkpoint_file(bytes: &[u8]) -> Result<(Checkpoint, Vec<u8>), TrainError> {
    let (head, mut r, replay) = sections(bytes)?;
    let adam = AdamConfig { learning_rate: head.config.learning_rate, ..AdamConfig::default() };
    // Agents are pushed as their records decode, so what a hostile count
    // costs is bounded by the records the bytes hold.
    let mut agents = Vec::new();
    for i in 0..r.u32().map_err(malformed)? {
        agents.push(
            AgentState::read_record(&mut r, adam)
                .map_err(|e| malformed(format!("agent {i} {e}")))?,
        );
    }
    let curve_len = r.u64().map_err(malformed)?;
    let mut curve = Vec::new();
    r.f32s(usize::try_from(curve_len).unwrap_or(usize::MAX), &mut curve)
        .map_err(|e| malformed(format!("reward curve: {e}")))?;
    let priorities_len = r.u64().map_err(malformed)?;
    let priorities: Vec<f64> = r
        .values(usize::try_from(priorities_len).unwrap_or(usize::MAX), 8)
        .map_err(|e| malformed(format!("priorities: {e}")))?
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
        .collect();
    r.finish().map_err(|e| malformed(format!("tensor section: {e}")))?;
    let Head { config, update_iterations, mut run } = head;
    match &mut run {
        Some(run) => {
            run.curve = curve;
            match priorities_mut(&mut run.sampler) {
                Some(slot) => *slot = priorities,
                None if priorities.is_empty() => {}
                None => return Err(malformed("priorities for a sampler that keeps none")),
            }
        }
        None if curve.is_empty() && priorities.is_empty() => {}
        None => return Err(malformed("a weights-only checkpoint carries run tensors")),
    }
    Ok((Checkpoint { config, agents, update_iterations, run }, replay.to_vec()))
}

/// What serving reads of a checkpoint: its configuration, its update
/// count and each agent's live actor.
#[derive(Debug, Clone)]
pub struct PolicyCheckpoint {
    /// The configuration the checkpoint was trained with.
    pub config: TrainConfig,
    /// Update iterations completed when captured.
    pub update_iterations: u64,
    /// The live actor of every agent, in agent order.
    pub actors: Vec<Mlp>,
}

/// Decodes the policy of a checkpoint file: the head and each agent's
/// actor. The other networks and the optimizers are checked as
/// [`decode_checkpoint_file`] checks them but not copied, and neither are
/// the run tensors or the replay section.
///
/// # Errors
///
/// As [`decode_checkpoint_file`], for the parts it reads.
pub fn decode_policy(bytes: &[u8]) -> Result<PolicyCheckpoint, TrainError> {
    let (head, mut r, _replay) = sections(bytes)?;
    let mut actors = Vec::new();
    for i in 0..r.u32().map_err(malformed)? {
        actors
            .push(AgentState::read_actor(&mut r).map_err(|e| malformed(format!("agent {i} {e}")))?);
    }
    Ok(PolicyCheckpoint { config: head.config, update_iterations: head.update_iterations, actors })
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
    decode_checkpoint_file(&read(path)?)
}

fn read(path: &Path) -> Result<Vec<u8>, TrainError> {
    std::fs::read(path).map_err(|e| TrainError::Checkpoint(format!("read {}: {e}", path.display())))
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
    with_fallback(path, read_checkpoint_file).map(|((ckpt, replay), prev)| (ckpt, replay, prev))
}

/// [`load_checkpoint_with_fallback`] for serving: decodes the policy of
/// the live file, or of `.prev` when the live one does not decode, with
/// [`decode_policy`]. Returns whether the fallback was used.
///
/// # Errors
///
/// As [`load_checkpoint_with_fallback`].
pub fn load_policy_with_fallback(path: &Path) -> Result<(PolicyCheckpoint, bool), TrainError> {
    with_fallback(path, |p| decode_policy(&read(p)?))
}

/// `load(path)`, else `load` of the `.prev` sibling; `true` when the
/// sibling was used.
fn with_fallback<T>(
    path: &Path,
    load: impl Fn(&Path) -> Result<T, TrainError>,
) -> Result<(T, bool), TrainError> {
    // Strips the variant's own "checkpoint error:" Display prefix so the
    // combined two-failure message reads cleanly.
    let inner = |e: TrainError| match e {
        TrainError::Checkpoint(msg) => msg,
        other => other.to_string(),
    };
    let primary = match load(path) {
        Ok(state) => return Ok((state, false)),
        Err(e) => inner(e),
    };
    let prev = sibling(path, "prev");
    match load(&prev) {
        Ok(state) => Ok((state, true)),
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

    fn weights_only(agents: Vec<AgentState>) -> Checkpoint {
        Checkpoint {
            config: TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3),
            agents,
            update_iterations: 42,
            run: None,
        }
    }

    #[test]
    fn checkpoint_file_roundtrip_is_bitwise() {
        let ckpt =
            weights_only(vec![AgentState::capture(&nets(false)), AgentState::capture(&nets(true))]);
        let (back, replay) =
            decode_checkpoint_file(&encode_checkpoint_file(&ckpt, &[7, 8, 9]).unwrap()).unwrap();
        assert_eq!((back.update_iterations, replay), (42, vec![7, 8, 9]));
        assert_eq!(back.config, ckpt.config);
        assert!(back.run.is_none());
        let json = |agents: &[AgentState]| serde_json::to_string(agents).unwrap();
        assert_eq!(json(&back.agents), json(&ckpt.agents), "every tensor bit for bit");
        // Behaviour survives the round trip.
        let x = Matrix::full(1, 8, 0.5);
        assert_eq!(output_bits(&ckpt.agents[1].actor, &x), output_bits(&back.agents[1].actor, &x));
        // The policy reader takes the same actors and nothing else.
        let policy = decode_policy(&encode_checkpoint_file(&ckpt, &[]).unwrap()).unwrap();
        let actors: Vec<String> =
            policy.actors.iter().map(|a| serde_json::to_string(a).unwrap()).collect();
        let want: Vec<String> =
            ckpt.agents.iter().map(|a| serde_json::to_string(&a.actor).unwrap()).collect();
        assert_eq!(actors, want);
    }

    /// Replaces `bytes`' head with `head`, keeping the other sections and
    /// re-sealing the checksum.
    fn with_head(bytes: &[u8], head: &str) -> Vec<u8> {
        let mut r = Reader::new(&bytes[12..]);
        let mut section = || {
            let len = r.u64().unwrap() as usize;
            r.take(len).unwrap()
        };
        let (_, tensors, replay) = (section(), section(), section());
        frame([head.as_bytes(), tensors, replay])
    }

    /// The head of an encoded checkpoint file.
    fn head_of(bytes: &[u8]) -> &str {
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        std::str::from_utf8(&bytes[20..20 + len]).unwrap()
    }

    /// A checkpoint written while `TrainConfig` still had a `kernel` or a
    /// `sampling_threads` field carries it in its config. It does not
    /// resume: loading refuses the file with a checkpoint error naming the
    /// field, and nothing panics.
    #[test]
    fn a_checkpoint_whose_config_names_a_removed_field_is_refused() {
        let bytes =
            encode_checkpoint_file(&weights_only(vec![AgentState::capture(&nets(false))]), &[])
                .unwrap();
        let head = head_of(&bytes);
        let dir = std::env::temp_dir().join(format!("marl_ckpt_removed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (field, entry, before) in [
            ("kernel", "\"kernel\":\"Auto\",", "\"num_envs\":"),
            ("sampling_threads", "\"sampling_threads\":1,", "\"update_threads\":"),
        ] {
            let old = head.replacen(before, &format!("{entry}{before}"), 1);
            assert_ne!(old, head, "the config serializes {before}");
            let path = dir.join(format!("with_{field}.bin"));
            std::fs::write(&path, with_head(&bytes, &old)).unwrap();
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

    /// Version-3 files (tensors as hex text inside the JSON) are not read:
    /// a version-3 header is refused with a checkpoint error naming the
    /// version, before its payload is looked at.
    #[test]
    fn a_version_3_file_is_refused() {
        let mut bytes = encode_checkpoint_file(&weights_only(Vec::new()), &[]).unwrap();
        bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
        for decoded in
            [decode_checkpoint_file(&bytes).map(|_| ()), decode_policy(&bytes).map(|_| ())]
        {
            match decoded {
                Err(TrainError::Checkpoint(msg)) => {
                    assert_eq!(msg, "decode: unsupported version 3");
                }
                other => panic!("expected a checkpoint error, got {other:?}"),
            }
        }
    }
}
