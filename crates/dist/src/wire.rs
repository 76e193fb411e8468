//! The length-prefixed, CRC-framed wire format (`MARD` frames).
//!
//! Reuses the MARC checkpoint file's framing discipline — little-endian
//! magic/version header, CRC-32 over the variable-length body — for the
//! actor–learner stream:
//!
//! ```text
//! magic   u32 LE = 0x4D41_5244 ("MARD")
//! version u16 LE = 2
//! kind    u16 LE                 (message discriminant)
//! len     u32 LE                 (payload byte length)
//! crc32   u32 LE                 (over kind | len | payload)
//! payload bytes                  (interpretation chosen by `kind`)
//! ```
//!
//! The header `kind` alone selects the payload codec. The kinds that
//! carry tensors are raw little-endian:
//!
//! ```text
//! kind 2 Welcome: head_len u32 | head (serde_json of every field but the
//!                 actors) | actors
//! kind 3 Steps:   worker_id u32 | epoch u64 | seq u64
//!                 | flags u8 (1 sync, 2 rng, 4 ctx) | [rng 4×u64] | [ctx 24 B]
//!                 | n_steps u32 | n_agents u32 | n_agents × (obs_dim u32, act_dim u32)
//!                 | n_steps × n_agents rows of obs|action|reward|next_obs|done (f32)
//! kind 4 Params:  epoch u64 | flags u8 (1 master_rng, 2 ctx)
//!                 | [master_rng 4×u64] | [ctx 24 B] | actors
//! actors:         n_agents u32 | per actor one network record
//!                 (`marl_nn::record`: n_layers u32, per layer rows u32,
//!                 cols u32, rows·cols weights, cols biases, f32)
//! ```
//!
//! All three are self-describing, so [`decode_frame`] needs no receiver
//! context. Every count is checked against the bytes that remain before
//! anything is allocated for it, and a decoded `Steps` or `Params` never
//! owns more heap than its payload was long. A `Welcome` carries the
//! live actors and nothing else of the networks: a worker reads nothing
//! else. The other cold kinds (`Hello`, `Heartbeat`, `HeartbeatAck`,
//! `EpisodeEnd`, `Bye`) carry the `serde_json` text of their struct.
//! Version 2 introduced the binary kinds; a version-1 peer (JSON
//! everywhere) is refused with [`DistError::UnsupportedVersion`] rather
//! than a parse error. A `Welcome` whose payload is JSON text (as the
//! first version-2 learners sent) is refused with [`DistError::Protocol`]:
//! its first four bytes read as a head length far past the payload.
//!
//! The CRC covers the routing header fields as well as the payload, so a
//! bit flip anywhere past the magic is detected; a flipped magic or
//! version is its own typed error. Frames are self-delimiting (`len`),
//! which lets the in-process loopback transport quarantine a corrupt
//! frame and keep the stream alive; byte-stream transports cannot trust
//! a corrupt `len` to resynchronize, so they surface the same typed
//! errors but treat them as connection-fatal.

use crate::error::DistError;
use marl_algo::TrainConfig;
use marl_core::crc32::Crc32;
use marl_core::transition::{TransitionLayout, TransitionRef};
use marl_nn::mlp::Mlp;
use marl_nn::record::{self, overflow, Reader};
use marl_obs::context::{TraceCtx, TRACE_CTX_WIRE_LEN};
use serde::{Deserialize, Serialize};

/// Frame magic: `MARD` (MARC's framing, Dist flavor).
pub const MAGIC: u32 = 0x4D41_5244;
/// Wire-format version.
pub const VERSION: u16 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame payload; a (possibly corrupt) length field can
/// never make a receiver allocate more than this.
pub const MAX_PAYLOAD: usize = 1 << 28;

/// Raw-frame kind: an inference request (binary payload, `marl-serve`).
pub const KIND_INFER_REQ: u16 = 8;
/// Raw-frame kind: an inference response (binary payload, `marl-serve`).
pub const KIND_INFER_RESP: u16 = 9;
/// Raw-frame kind: an inference error response (binary payload).
pub const KIND_INFER_ERR: u16 = 10;
/// Raw-frame kind: a serve control frame (shutdown/ping, binary payload).
pub const KIND_SERVE_CTL: u16 = 11;

/// A worker introducing itself (first frame of every connection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Stable worker identity (survives reconnects).
    pub worker_id: u32,
    /// Whether this worker is reconnecting after a failure and expects
    /// to be re-admitted from its last recorded episode boundary.
    pub resume: bool,
}

/// The learner admitting a worker: full configuration plus the exact
/// state to roll out from.
///
/// Its JSON form is the frame's head: every field but `actors`, which
/// follow the head in the binary actor layout `Params` uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Welcome {
    /// Worker being addressed.
    pub worker_id: u32,
    /// Current parameter epoch.
    pub epoch: u64,
    /// Training configuration (the worker builds env + actors from this).
    pub config: TrainConfig,
    /// The live actor of every agent to start from.
    #[serde(skip)]
    pub actors: ActorParams,
    /// Exploration-noise RNG state to install.
    pub master_rng: [u64; 4],
    /// Environment RNG state to install; `None` keeps the worker's
    /// self-seeded stream (the lockstep worker-0 case, where the worker's
    /// own construction already matches the single-process env stream).
    pub env_rng: Option<[u64; 4]>,
    /// Environment steps already taken (drives the exploration schedule).
    pub env_steps: u64,
    /// Samples pushed since the last update (mirrors the learner).
    pub samples_since_update: usize,
    /// Learner replay fill (the worker mirrors this to predict updates).
    pub replay_len: usize,
    /// Episodes this worker should run before saying goodbye.
    pub episodes: usize,
    /// Whether the worker must synchronize (block for parameters and the
    /// RNG handoff) at every update boundary — the deterministic mode.
    pub lockstep: bool,
    /// Free-running mode: flush accumulated steps every this many steps.
    pub steps_per_frame: usize,
}

/// Joint environment steps as one flat row block.
///
/// Each joint step is the concatenation of one replay row per agent
/// (`obs | action | reward | next_obs | done`, the
/// [`TransitionLayout`] order), so the block is `len()` × `step_width`
/// floats in a single reusable buffer: the worker appends into it
/// without allocating and the learner pushes borrowed rows straight
/// into its replay store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRows {
    /// Per-agent `(obs_dim, act_dim)`.
    dims: Vec<(u32, u32)>,
    /// `len() * step_width()` floats, steps in rollout order.
    data: Vec<f32>,
}

impl StepRows {
    /// An empty block for agents of the given `(obs_dim, act_dim)`s.
    ///
    /// # Panics
    ///
    /// If a dimension does not fit the wire's `u32`.
    pub fn new(dims: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let fit = |d: usize| u32::try_from(d).expect("agent dimension fits u32");
        let dims = dims.into_iter().map(|(o, a)| (fit(o), fit(a))).collect();
        StepRows { dims, data: Vec::new() }
    }

    /// Floats per joint step: the sum of the agents' replay row widths.
    fn step_width(&self) -> usize {
        let row = |&(o, a): &(u32, u32)| TransitionLayout::new(o as usize, a as usize).row_width();
        self.dims.iter().map(row).sum()
    }

    /// Per-agent `(obs_dim, act_dim)`, in agent order.
    pub fn dims(&self) -> &[(u32, u32)] {
        &self.dims
    }

    /// Joint steps held.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.step_width()).unwrap_or(0)
    }

    /// Whether no step is held.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops every step, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Appends one joint step; `f` is called once per agent index, in
    /// order, mirroring `MultiAgentReplay::push_step_with`. Allocates
    /// nothing once the buffer has reached its working size.
    ///
    /// # Panics
    ///
    /// If a returned row disagrees with that agent's dimensions.
    pub fn push_step<'a>(&mut self, mut f: impl FnMut(usize) -> TransitionRef<'a>) {
        for (agent, &(obs_dim, act_dim)) in self.dims.iter().enumerate() {
            let t = f(agent);
            assert!(
                t.obs.len() == obs_dim as usize
                    && t.action.len() == act_dim as usize
                    && t.next_obs.len() == obs_dim as usize,
                "agent {agent}: row does not match the block's dimensions"
            );
            self.data.extend_from_slice(t.obs);
            self.data.extend_from_slice(t.action);
            self.data.push(t.reward);
            self.data.extend_from_slice(t.next_obs);
            self.data.push(t.done);
        }
    }

    /// The joint steps in rollout order, each one `step_width()` floats.
    pub fn steps(&self) -> impl Iterator<Item = &[f32]> {
        // `max(1)`: an agent-less block holds no data, and a chunk size
        // of zero is not allowed.
        self.data.chunks_exact(self.step_width().max(1))
    }
}

/// A batch of joint environment steps, in rollout order.
#[derive(Debug, Clone, PartialEq)]
pub struct Steps {
    /// Sending worker.
    pub worker_id: u32,
    /// Parameter epoch the actions were drawn under.
    pub epoch: u64,
    /// Per-connection frame sequence number (diagnostics).
    pub seq: u64,
    /// The joint steps.
    pub rows: StepRows,
    /// Exploration RNG state after the last step, handed to the learner
    /// for the sampling-plan draws. Present iff `sync`.
    pub rng: Option<[u64; 4]>,
    /// Whether the worker blocks for a [`Params`] reply (update due).
    pub sync: bool,
    /// Distributed-tracing context stamped by the sender (absent on
    /// untraced runs).
    pub ctx: Option<TraceCtx>,
}

/// The live actor networks of every agent, flattened for the wire: what
/// a rollout worker needs from an update and nothing else (no targets,
/// critics or optimizer moments).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActorParams {
    /// Layers per actor, in agent order.
    layer_counts: Vec<u32>,
    /// `(rows, cols)` of every layer, actors concatenated.
    shapes: Vec<(u32, u32)>,
    /// Every actor's parameter slab (per layer `rows * cols` weights then
    /// `cols` biases), concatenated in agent order.
    data: Vec<f32>,
}

impl ActorParams {
    /// Copies the parameters of `actors` (one network per agent): each
    /// actor's shapes from its widths, its values in one slab copy.
    pub fn capture<'a>(actors: impl IntoIterator<Item = &'a Mlp>) -> Self {
        let mut out = ActorParams::default();
        for actor in actors {
            let widths = actor.widths();
            out.layer_counts.push(widths.len() as u32 - 1);
            out.shapes.extend(widths.windows(2).map(|w| (w[0] as u32, w[1] as u32)));
            out.data.extend_from_slice(actor.params());
        }
        out
    }

    /// Actors carried.
    pub fn agent_count(&self) -> usize {
        self.layer_counts.len()
    }

    /// Overwrites every live actor in place, one slab copy each,
    /// allocating nothing. Everything is checked before anything is
    /// written, so a mismatch leaves `actors` untouched.
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] when the actor count, an actor's layer
    /// count or a layer's shape differs from the receiving networks.
    pub fn install(&self, actors: &mut [Mlp]) -> Result<(), DistError> {
        if self.agent_count() != actors.len() {
            return Err(DistError::Protocol(format!(
                "params carry {} actors but the worker has {}",
                self.agent_count(),
                actors.len()
            )));
        }
        let mut shapes = self.shapes.iter();
        for (agent, (&layers, actor)) in self.layer_counts.iter().zip(actors.iter()).enumerate() {
            let widths = actor.widths();
            let fits = layers as usize + 1 == widths.len()
                && shapes
                    .by_ref()
                    .take(layers as usize)
                    .zip(widths.windows(2))
                    .all(|(&(r, c), w)| (r as usize, c as usize) == (w[0], w[1]));
            if !fits {
                return Err(DistError::Protocol(format!(
                    "params for agent {agent} do not fit the worker's actor"
                )));
            }
        }
        let mut rest = self.data.as_slice();
        for actor in actors {
            let params = actor.params_mut();
            let (head, tail) = rest.split_at(params.len());
            params.copy_from_slice(head);
            rest = tail;
        }
        Ok(())
    }

    /// Appends the actor section: the count, then one network record per
    /// actor.
    fn write(&self, out: &mut Vec<u8>) {
        out.reserve(4 + 4 * self.layer_counts.len() + 8 * self.shapes.len() + 4 * self.data.len());
        out.extend_from_slice(&(self.layer_counts.len() as u32).to_le_bytes());
        let (mut shapes, mut rest) = (self.shapes.as_slice(), self.data.as_slice());
        for &layers in &self.layer_counts {
            let (own, later) = shapes.split_at(layers as usize);
            let floats: usize =
                own.iter().map(|&(r, c)| r as usize * c as usize + c as usize).sum();
            let (slab, tail) = rest.split_at(floats);
            record::write_net(out, own.iter().map(|&(r, c)| (r as usize, c as usize)), slab);
            (shapes, rest) = (later, tail);
        }
    }

    /// Reads an actor section. A first walk checks every count against
    /// the bytes behind it and totals the layers and floats, so the
    /// second allocates exactly once per vector and never more than the
    /// section is long; each layer consumes bytes, which bounds hostile
    /// counts.
    fn read(r: &mut Reader<'_>) -> Result<ActorParams, String> {
        let n_agents = r.u32()? as usize;
        let mut walk = r.clone();
        let (mut n_layers, mut n_floats) = (0usize, 0usize);
        for _ in 0..n_agents {
            n_layers += record::read_net(&mut walk, |_, _, values| {
                n_floats += values.len() / 4;
                Ok(())
            })? as usize;
        }
        let mut actors = ActorParams {
            layer_counts: Vec::with_capacity(n_agents),
            shapes: Vec::with_capacity(n_layers),
            data: Vec::with_capacity(n_floats),
        };
        for _ in 0..n_agents {
            let layers = record::read_net(r, |rows, cols, values| {
                actors.shapes.push((rows, cols));
                record::extend_f32s(&mut actors.data, values);
                Ok(())
            })?;
            actors.layer_counts.push(layers);
        }
        Ok(actors)
    }
}

/// A parameter broadcast after one or more update iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// New parameter epoch.
    pub epoch: u64,
    /// The updated live actors.
    pub actors: ActorParams,
    /// Post-update master RNG state, handed back to the worker so its
    /// next action draws continue the single interleaved stream.
    /// Present only in lockstep mode.
    pub master_rng: Option<[u64; 4]>,
    /// Distributed-tracing context stamped by the learner.
    pub ctx: Option<TraceCtx>,
}

/// A liveness beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Sending worker.
    pub worker_id: u32,
    /// Monotonic beacon counter.
    pub seq: u64,
    /// Worker's environment-step counter (progress signal).
    pub env_steps: u64,
    /// Send timestamp on the worker's process clock (ns); echoed by the
    /// learner's [`HeartbeatAck`] so the worker can measure RTT and
    /// estimate the learner-clock offset. 0 from untraced workers.
    #[serde(default)]
    pub send_ns: u64,
}

/// The learner's reply to a [`Heartbeat`]: echoes the worker's send
/// timestamp and adds the learner-clock receive time, giving the worker
/// one NTP-style round trip per beacon for its clock-offset estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatAck {
    /// Worker being answered.
    pub worker_id: u32,
    /// Echoed beacon counter.
    pub seq: u64,
    /// Echoed worker-clock send timestamp (ns).
    pub send_ns: u64,
    /// Learner-clock time the heartbeat was observed (ns).
    pub recv_ns: u64,
}

/// End of one worker episode: the reward plus the episode-boundary state
/// the learner records as the worker's restart checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeEnd {
    /// Sending worker.
    pub worker_id: u32,
    /// Mean-over-agents cumulative episode reward.
    pub mean_reward: f32,
    /// Exploration RNG state at the boundary.
    pub master_rng: [u64; 4],
    /// Environment RNG state at the boundary.
    pub env_rng: [u64; 4],
    /// Environment steps taken so far.
    pub env_steps: u64,
    /// Samples pushed since the last update.
    pub samples_since_update: usize,
    /// Distributed-tracing context stamped by the sender.
    #[serde(default)]
    pub ctx: Option<TraceCtx>,
}

/// A clean goodbye.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bye {
    /// Sending worker.
    pub worker_id: u32,
    /// Why the worker is leaving (diagnostics).
    pub reason: String,
}

/// Every message of the actor–learner protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Worker → learner: introduction.
    Hello(Hello),
    /// Learner → worker: admission + state.
    Welcome(Box<Welcome>),
    /// Worker → learner: transition batch.
    Steps(Steps),
    /// Learner → worker: parameter broadcast.
    Params(Box<Params>),
    /// Worker → learner: liveness beacon.
    Heartbeat(Heartbeat),
    /// Worker → learner: episode boundary.
    EpisodeEnd(EpisodeEnd),
    /// Worker → learner: clean shutdown.
    Bye(Bye),
    /// Learner → worker: heartbeat echo (RTT / clock-offset probe).
    HeartbeatAck(HeartbeatAck),
}

impl Msg {
    /// Wire discriminant (the header `kind` field). Kinds 8–11 are the
    /// raw binary serve frames; new JSON kinds continue from 12.
    pub fn kind(&self) -> u16 {
        match self {
            Msg::Hello(_) => 1,
            Msg::Welcome(_) => 2,
            Msg::Steps(_) => 3,
            Msg::Params(_) => 4,
            Msg::Heartbeat(_) => 5,
            Msg::EpisodeEnd(_) => 6,
            Msg::Bye(_) => 7,
            Msg::HeartbeatAck(_) => 12,
        }
    }

    /// Short label for logs and supervision counters.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::Hello(_) => "hello",
            Msg::Welcome(_) => "welcome",
            Msg::Steps(_) => "steps",
            Msg::Params(_) => "params",
            Msg::Heartbeat(_) => "heartbeat",
            Msg::EpisodeEnd(_) => "episode-end",
            Msg::Bye(_) => "bye",
            Msg::HeartbeatAck(_) => "heartbeat-ack",
        }
    }
}

/// Encodes a message into one self-delimiting `MARD` frame.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    begin_raw_frame(&mut out);
    match msg {
        Msg::Hello(m) => put_json(&mut out, m),
        Msg::Welcome(m) => put_welcome(&mut out, m),
        Msg::Steps(m) => put_steps(&mut out, m),
        Msg::Params(m) => put_params(&mut out, m),
        Msg::Heartbeat(m) => put_json(&mut out, m),
        Msg::EpisodeEnd(m) => put_json(&mut out, m),
        Msg::Bye(m) => put_json(&mut out, m),
        Msg::HeartbeatAck(m) => put_json(&mut out, m),
    }
    finish_raw_frame(msg.kind(), &mut out);
    out
}

fn put_json<T: Serialize>(out: &mut Vec<u8>, value: &T) {
    let text = serde_json::to_string(value).expect("wire messages always serialize");
    out.extend_from_slice(text.as_bytes());
}

fn get_json<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload does not parse: {e}"))
}

const STEPS_SYNC: u8 = 1;
const STEPS_RNG: u8 = 2;
const STEPS_CTX: u8 = 4;
const PARAMS_RNG: u8 = 1;
const PARAMS_CTX: u8 = 2;

fn flag(set: bool, bit: u8) -> u8 {
    u8::from(set) * bit
}

fn put_rng(out: &mut Vec<u8>, state: &[u64; 4]) {
    for word in state {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

fn put_welcome(out: &mut Vec<u8>, w: &Welcome) {
    let head = serde_json::to_string(w).expect("a welcome head always serializes");
    out.extend_from_slice(&(head.len() as u32).to_le_bytes());
    out.extend_from_slice(head.as_bytes());
    w.actors.write(out);
}

fn put_steps(out: &mut Vec<u8>, s: &Steps) {
    out.reserve(128 + 8 * s.rows.dims.len() + 4 * s.rows.data.len());
    out.extend_from_slice(&s.worker_id.to_le_bytes());
    out.extend_from_slice(&s.epoch.to_le_bytes());
    out.extend_from_slice(&s.seq.to_le_bytes());
    out.push(
        flag(s.sync, STEPS_SYNC)
            | flag(s.rng.is_some(), STEPS_RNG)
            | flag(s.ctx.is_some(), STEPS_CTX),
    );
    if let Some(state) = &s.rng {
        put_rng(out, state);
    }
    if let Some(ctx) = &s.ctx {
        ctx.write_to(out);
    }
    out.extend_from_slice(&(s.rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(s.rows.dims.len() as u32).to_le_bytes());
    for &(obs_dim, act_dim) in &s.rows.dims {
        out.extend_from_slice(&obs_dim.to_le_bytes());
        out.extend_from_slice(&act_dim.to_le_bytes());
    }
    record::put_f32s(out, &s.rows.data);
}

fn put_params(out: &mut Vec<u8>, p: &Params) {
    out.reserve(128);
    out.extend_from_slice(&p.epoch.to_le_bytes());
    out.push(flag(p.master_rng.is_some(), PARAMS_RNG) | flag(p.ctx.is_some(), PARAMS_CTX));
    if let Some(state) = &p.master_rng {
        put_rng(out, state);
    }
    if let Some(ctx) = &p.ctx {
        ctx.write_to(out);
    }
    p.actors.write(out);
}

fn get_rng(r: &mut Reader<'_>) -> Result<[u64; 4], String> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn get_ctx(r: &mut Reader<'_>) -> Result<TraceCtx, String> {
    Ok(TraceCtx::read_from(r.take(TRACE_CTX_WIRE_LEN)?).expect("exactly one context"))
}

fn check_flags(flags: u8, known: u8) -> Result<(), String> {
    if flags & !known == 0 {
        Ok(())
    } else {
        Err(format!("unknown payload flags 0x{flags:02X}"))
    }
}

/// The head is parsed before the actor section is read, so a JSON
/// payload (whose first bytes make a huge head length) or a head that
/// does not parse is refused before anything is allocated for actors.
fn get_welcome(payload: &[u8]) -> Result<Welcome, String> {
    let mut r = Reader::new(payload);
    let head_len = r.u32()? as usize;
    let head = r.take(head_len).map_err(|e| format!("welcome head of {head_len} bytes: {e}"))?;
    let mut welcome: Welcome = get_json(head)?;
    welcome.actors = ActorParams::read(&mut r)?;
    r.finish()?;
    Ok(welcome)
}

fn get_steps(payload: &[u8]) -> Result<Steps, String> {
    let mut r = Reader::new(payload);
    let worker_id = r.u32()?;
    let epoch = r.u64()?;
    let seq = r.u64()?;
    let flags = r.u8()?;
    check_flags(flags, STEPS_SYNC | STEPS_RNG | STEPS_CTX)?;
    let rng = if flags & STEPS_RNG != 0 { Some(get_rng(&mut r)?) } else { None };
    let ctx = if flags & STEPS_CTX != 0 { Some(get_ctx(&mut r)?) } else { None };
    let n_steps = r.u32()? as usize;
    let n_agents = r.u32()? as usize;
    // `values` refuses a count the payload cannot back, so the dims
    // vector is never sized from an unchecked field.
    let dims: Vec<(u32, u32)> = r
        .values(n_agents, 8)?
        .chunks_exact(8)
        .map(|d| {
            let word = |at: usize| u32::from_le_bytes(d[at..at + 4].try_into().expect("4 bytes"));
            (word(0), word(4))
        })
        .collect();
    let width = dims.iter().try_fold(0usize, |sum, &(o, a)| {
        (o as usize).checked_mul(2)?.checked_add(a as usize)?.checked_add(2)?.checked_add(sum)
    });
    let floats = width.and_then(|w| w.checked_mul(n_steps)).ok_or_else(overflow)?;
    if floats.checked_mul(4) != Some(r.rest().len()) {
        return Err(format!(
            "{n_steps} steps of {n_agents} agents do not fill the {} row bytes",
            r.rest().len()
        ));
    }
    let mut data = Vec::new();
    r.f32s(floats, &mut data)?;
    Ok(Steps {
        worker_id,
        epoch,
        seq,
        rows: StepRows { dims, data },
        rng,
        sync: flags & STEPS_SYNC != 0,
        ctx,
    })
}

fn get_params(payload: &[u8]) -> Result<Params, String> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    let flags = r.u8()?;
    check_flags(flags, PARAMS_RNG | PARAMS_CTX)?;
    let master_rng = if flags & PARAMS_RNG != 0 { Some(get_rng(&mut r)?) } else { None };
    let ctx = if flags & PARAMS_CTX != 0 { Some(get_ctx(&mut r)?) } else { None };
    let actors = ActorParams::read(&mut r)?;
    r.finish()?;
    Ok(Params { epoch, actors, master_rng, ctx })
}

/// CRC-32 over the routing fields and payload (everything a receiver
/// acts on past the magic/version). Incremental, so the raw-frame path
/// can validate without staging the covered bytes in a fresh buffer.
fn frame_crc(kind: u16, payload: &[u8]) -> u32 {
    Crc32::new()
        .update(&kind.to_le_bytes())
        .update(&(payload.len() as u32).to_le_bytes())
        .update(payload)
        .finish()
}

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Message discriminant.
    pub kind: u16,
    /// Payload byte length.
    pub len: usize,
    /// Declared CRC-32.
    pub crc: u32,
}

/// Decodes and validates a frame header.
///
/// # Errors
///
/// Typed [`DistError`]s for truncation, bad magic, bad version, and
/// oversized payloads.
pub fn decode_header(bytes: &[u8]) -> Result<Header, DistError> {
    if bytes.len() < HEADER_LEN {
        return Err(DistError::Truncated { needed: HEADER_LEN, got: bytes.len() });
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(DistError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(DistError::UnsupportedVersion { found: version });
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(DistError::Protocol(format!("payload of {len} bytes exceeds {MAX_PAYLOAD}")));
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    Ok(Header { kind, len, crc })
}

/// Decodes one complete frame (header + payload) from a byte buffer.
///
/// # Errors
///
/// Typed [`DistError`]s for every corruption mode: truncation, bad
/// magic/version, CRC mismatch, and undecodable payloads.
pub fn decode_frame(bytes: &[u8]) -> Result<Msg, DistError> {
    let (kind, payload) = decode_raw_frame(bytes)?;
    let msg = match kind {
        1 => get_json(payload).map(Msg::Hello),
        2 => get_welcome(payload).map(|w| Msg::Welcome(Box::new(w))),
        3 => get_steps(payload).map(Msg::Steps),
        4 => get_params(payload).map(|p| Msg::Params(Box::new(p))),
        5 => get_json(payload).map(Msg::Heartbeat),
        6 => get_json(payload).map(Msg::EpisodeEnd),
        7 => get_json(payload).map(Msg::Bye),
        12 => get_json(payload).map(Msg::HeartbeatAck),
        other => Err(format!("unknown message kind {other}")),
    };
    msg.map_err(DistError::Protocol)
}

/// Resets `frame` to a header-sized placeholder so a raw (binary)
/// payload can be appended directly after it.
///
/// The serve path builds frames into per-connection reusable buffers:
/// `begin_raw_frame` + `extend_from_slice` the payload +
/// [`finish_raw_frame`]. `clear` + `resize` reuse the buffer's existing
/// capacity, so steady-state encoding allocates nothing once the buffer
/// has grown to its working size.
pub fn begin_raw_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
}

/// Patches a complete `MARD` header (magic, version, `kind`, length,
/// CRC) over the placeholder bytes at the front of `frame`.
///
/// `frame` must hold [`HEADER_LEN`] placeholder bytes followed by the
/// payload (the [`begin_raw_frame`] layout). Works in place — no
/// intermediate buffer — so the encode path stays allocation-free.
///
/// # Panics
///
/// If `frame` is shorter than a header or the payload exceeds
/// [`MAX_PAYLOAD`]; both are caller bugs, not wire conditions.
pub fn finish_raw_frame(kind: u16, frame: &mut [u8]) {
    assert!(frame.len() >= HEADER_LEN, "finish_raw_frame: no header placeholder");
    let payload_len = frame.len() - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD, "finish_raw_frame: payload exceeds MAX_PAYLOAD");
    let crc = frame_crc(kind, &frame[HEADER_LEN..]);
    frame[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    frame[4..6].copy_from_slice(&VERSION.to_le_bytes());
    frame[6..8].copy_from_slice(&kind.to_le_bytes());
    frame[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Validates a raw frame and returns its kind plus a borrowed payload.
///
/// The counterpart of [`finish_raw_frame`]: same header and CRC checks
/// as [`decode_frame`], but the payload stays opaque bytes (no JSON
/// decode, no copy), which is what the binary serve protocol wants.
///
/// # Errors
///
/// Typed [`DistError`]s for truncation, bad magic/version, oversized
/// lengths, and CRC mismatches.
pub fn decode_raw_frame(frame: &[u8]) -> Result<(u16, &[u8]), DistError> {
    let header = decode_header(frame)?;
    let body = &frame[HEADER_LEN..];
    if body.len() < header.len {
        return Err(DistError::Truncated { needed: header.len, got: body.len() });
    }
    let payload = &body[..header.len];
    let found = frame_crc(header.kind, payload);
    if found != header.crc {
        return Err(DistError::CrcMismatch { expected: header.crc, found });
    }
    Ok((header.kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat() -> Msg {
        Msg::Heartbeat(Heartbeat { worker_id: 3, seq: 9, env_steps: 125, send_ns: 7_000 })
    }

    #[test]
    fn roundtrip_preserves_message() {
        let bytes = encode_frame(&heartbeat());
        let back = decode_frame(&bytes).unwrap();
        match back {
            Msg::Heartbeat(h) => {
                assert_eq!(h, Heartbeat { worker_id: 3, seq: 9, env_steps: 125, send_ns: 7_000 })
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    fn welcome() -> Welcome {
        use marl_algo::{Algorithm, Task};
        let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let mut rng = marl_nn::rng::seeded(4);
        let actors: Vec<Mlp> = (0..3).map(|_| Mlp::two_layer_relu(16, 5, &mut rng)).collect();
        Welcome {
            worker_id: 0,
            epoch: 7,
            config,
            actors: ActorParams::capture(&actors),
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

    /// A `Welcome` frame of `payload`.
    fn welcome_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(payload);
        finish_raw_frame(2, &mut frame);
        frame
    }

    #[test]
    fn welcome_roundtrips_with_its_actors_after_a_json_head() {
        let sent = welcome();
        let bytes = encode_frame(&Msg::Welcome(Box::new(sent.clone())));
        let (_, payload) = decode_raw_frame(&bytes).unwrap();
        let head_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let head = std::str::from_utf8(&payload[4..4 + head_len]).unwrap();
        assert!(head.starts_with("{\"worker_id\":0,\"epoch\":7,\"config\":"), "{head}");
        assert!(!head.contains("actors"), "{head}");
        // The actor section is exactly the one a `Params` frame carries.
        let params = Params { epoch: 7, actors: sent.actors.clone(), master_rng: None, ctx: None };
        let params_frame = encode_frame(&Msg::Params(Box::new(params)));
        assert_eq!(payload[4 + head_len..], params_frame[HEADER_LEN + 9..]);
        match decode_frame(&bytes).unwrap() {
            Msg::Welcome(got) => {
                assert_eq!(got.actors, sent.actors);
                assert_eq!((got.epoch, got.master_rng, got.config), (7, [1, 2, 3, 4], sent.config));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// A JSON `Welcome`, as the first version-2 learners sent it, is
    /// refused and never misread: its first bytes `{"wo` read as a head
    /// length of about 1.9 GB, which the payload cannot back.
    #[test]
    fn a_json_welcome_is_refused_as_a_protocol_error() {
        let json = serde_json::to_string(&welcome()).unwrap();
        assert!(json.starts_with("{\"wo"));
        assert_eq!(u32::from_le_bytes(*b"{\"wo"), 1_870_078_587);
        match decode_frame(&welcome_frame(json.as_bytes())) {
            Err(DistError::Protocol(msg)) => {
                assert!(msg.contains("welcome head of 1870078587 bytes"), "{msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// A `Welcome` from a learner whose `TrainConfig` still had
    /// `sampling_threads` is refused with a protocol error naming the
    /// field.
    #[test]
    fn a_welcome_naming_sampling_threads_is_refused() {
        let bytes = encode_frame(&Msg::Welcome(Box::new(welcome())));
        assert!(matches!(decode_frame(&bytes), Ok(Msg::Welcome(_))));
        let (_, payload) = decode_raw_frame(&bytes).unwrap();
        let head_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let head = std::str::from_utf8(&payload[4..4 + head_len]).unwrap();
        let old =
            head.replacen(",\"update_threads\":", ",\"sampling_threads\":1,\"update_threads\":", 1);
        assert_ne!(old, head);
        let mut edited = (old.len() as u32).to_le_bytes().to_vec();
        edited.extend_from_slice(old.as_bytes());
        edited.extend_from_slice(&payload[4 + head_len..]);
        match decode_frame(&welcome_frame(&edited)) {
            Err(DistError::Protocol(msg)) => {
                assert!(msg.contains("unknown field `sampling_threads`"), "{msg}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn heartbeat_ack_roundtrips_at_kind_12() {
        let ack = Msg::HeartbeatAck(HeartbeatAck {
            worker_id: 3,
            seq: 9,
            send_ns: 7_000,
            recv_ns: 1_000_000,
        });
        assert_eq!(ack.kind(), 12);
        let bytes = encode_frame(&ack);
        match decode_frame(&bytes).unwrap() {
            Msg::HeartbeatAck(a) => {
                assert_eq!(a.send_ns, 7_000);
                assert_eq!(a.recv_ns, 1_000_000);
                assert_eq!((a.worker_id, a.seq), (3, 9));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn trace_context_rides_steps_and_survives_roundtrip() {
        use marl_obs::context::span_id;
        let msg = Msg::Steps(Steps {
            worker_id: 1,
            epoch: 2,
            seq: 4,
            rows: StepRows::default(),
            rng: None,
            sync: false,
            ctx: Some(TraceCtx { trace_id: 0xAB, span_id: span_id(1, 4), send_ns: 123 }),
        });
        let bytes = encode_frame(&msg);
        match decode_frame(&bytes).unwrap() {
            Msg::Steps(s) => {
                let ctx = s.ctx.expect("ctx survives");
                assert_eq!(ctx.span_id, span_id(1, 4));
                assert_eq!(ctx.send_ns, 123);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn a_version_1_frame_is_refused_as_unsupported_not_as_a_parse_error() {
        let mut bytes = encode_frame(&heartbeat());
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(DistError::UnsupportedVersion { found: 1 })));
    }

    #[test]
    fn serve_kinds_and_unknown_kinds_are_not_messages() {
        for kind in [0, KIND_INFER_REQ, KIND_SERVE_CTL, 13] {
            let mut frame = Vec::new();
            begin_raw_frame(&mut frame);
            frame.extend_from_slice(b"{}");
            finish_raw_frame(kind, &mut frame);
            assert!(matches!(decode_frame(&frame), Err(DistError::Protocol(_))), "kind {kind}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_frame(&heartbeat());
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bytes), Err(DistError::BadMagic { .. })));
        let mut bytes = encode_frame(&heartbeat());
        bytes[4] = 0x7F;
        assert!(matches!(decode_frame(&bytes), Err(DistError::UnsupportedVersion { found: 0x7F })));
    }

    #[test]
    fn every_body_bit_flip_is_detected() {
        let clean = encode_frame(&heartbeat());
        // Flip every bit past the magic/version, one at a time; each must
        // surface as a typed error, never as a silently different message.
        for bit in (6 * 8)..(clean.len() * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bytes) {
                Err(
                    DistError::CrcMismatch { .. }
                    | DistError::Truncated { .. }
                    | DistError::Protocol(_),
                ) => {}
                Ok(_) => panic!("bit {bit}: corrupt frame decoded"),
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let clean = encode_frame(&heartbeat());
        for cut in 0..clean.len() {
            let err = decode_frame(&clean[..cut]).unwrap_err();
            assert!(
                matches!(err, DistError::Truncated { .. } | DistError::BadMagic { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&heartbeat());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(DistError::Protocol(_))));
    }

    #[test]
    fn raw_frame_roundtrip_preserves_kind_and_payload() {
        let payload = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00, 0x42];
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&payload);
        finish_raw_frame(KIND_INFER_REQ, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_REQ);
        assert_eq!(body, payload);
    }

    #[test]
    fn raw_frame_empty_payload_roundtrips() {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        finish_raw_frame(KIND_SERVE_CTL, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_SERVE_CTL);
        assert!(body.is_empty());
    }

    #[test]
    fn raw_frame_buffer_reuse_does_not_leak_previous_payload() {
        let mut frame = Vec::new();
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        finish_raw_frame(KIND_INFER_RESP, &mut frame);
        // Re-encode a shorter payload into the same buffer.
        begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[9, 9]);
        finish_raw_frame(KIND_INFER_ERR, &mut frame);
        let (kind, body) = decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_ERR);
        assert_eq!(body, [9, 9]);
        assert_eq!(frame.len(), HEADER_LEN + 2);
    }

    #[test]
    fn raw_frame_every_bit_flip_is_detected() {
        let mut clean = Vec::new();
        begin_raw_frame(&mut clean);
        clean.extend_from_slice(&[0x11, 0x22, 0x33]);
        finish_raw_frame(KIND_INFER_REQ, &mut clean);
        for bit in (6 * 8)..(clean.len() * 8) {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode_raw_frame(&bytes) {
                Err(
                    DistError::CrcMismatch { .. }
                    | DistError::Truncated { .. }
                    | DistError::Protocol(_),
                ) => {}
                Ok((kind, body)) => {
                    panic!("bit {bit}: corrupt raw frame decoded as kind {kind} ({body:?})")
                }
                Err(e) => panic!("bit {bit}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn raw_frame_truncation_is_detected_at_every_length() {
        let mut clean = Vec::new();
        begin_raw_frame(&mut clean);
        clean.extend_from_slice(&[7; 13]);
        finish_raw_frame(KIND_INFER_RESP, &mut clean);
        for cut in 0..clean.len() {
            let err = decode_raw_frame(&clean[..cut]).unwrap_err();
            assert!(
                matches!(err, DistError::Truncated { .. } | DistError::BadMagic { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn raw_and_json_framing_share_one_header_discipline() {
        // A JSON frame decodes through the raw path too: the framing is
        // one format, the payload interpretation is the only difference.
        let bytes = encode_frame(&heartbeat());
        let (kind, payload) = decode_raw_frame(&bytes).unwrap();
        assert_eq!(kind, 5);
        assert!(std::str::from_utf8(payload).unwrap().contains("\"env_steps\":125"));
    }
}
