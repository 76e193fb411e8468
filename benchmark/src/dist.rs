//! `dist-lockstep`: `Learner::serve_lockstep` on this thread and one
//! `run_worker` thread over `loopback_pair`, exactly the topology of
//! `marl-learner --lockstep`. Both ends of the loopback are wrapped in a
//! timing decorator over the `Transport` trait, so every number about the
//! wire, the waits and the two busy times is taken at that boundary and
//! `marl-dist` itself is untouched.
//!
//! The worker runs the episode budget the learner's `Welcome` carries, so
//! the timed session's length is fixed in advance: a short calibration
//! session (which is also the equivalence check) gives the rate, and the
//! budget is that rate times `--seconds`.

use crate::probes::{probe, ProbeBudget};
use crate::report::{Gate, Outcome};
use crate::trace::Tracer;
use crate::{common, stats, RunArgs};
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{self, Bye, Heartbeat, HeartbeatAck, Msg};
use marl_dist::worker::RunOutcome;
use marl_dist::{
    loopback_pair, run_worker, Backoff, DistError, Learner, LearnerOptions, StreamTransport,
    Transport,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wire kinds are small integers (`Msg::kind`); index counters by them.
const KINDS: usize = 13;
const KIND_STEPS: usize = 3;
const KIND_PARAMS: usize = 4;
const KIND_EPISODE_END: usize = 6;

/// One frame in this many is re-encoded to learn its size on the wire.
const SIZE_SAMPLE_EVERY: u64 = 64;

/// Tolerated difference between a side's wall time and the sum of its
/// busy, wait and send times.
const ACCOUNTING_LIMIT: f64 = 0.01;

fn config(seed: u64, episodes: usize) -> TrainConfig {
    // A small batch keeps the update cheap, so the wire path dominates.
    let mut c = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
        .with_episodes(episodes)
        .with_batch_size(64)
        .with_seed(seed);
    c.warmup = 128;
    c
}

/// What one end of the connection saw.
#[derive(Debug, Default)]
struct SideLog {
    first_call: Option<Instant>,
    last_return: Option<Instant>,
    /// Time inside `recv_timeout` (the wait for the peer, plus decoding).
    recv_ns: u64,
    /// Time inside `send` (encoding plus the queue push).
    send_ns: u64,
    /// Time between transport calls: this side's own work.
    busy_ns: u64,
    sent: [u64; KINDS],
    size_sum: [u64; KINDS],
    size_samples: [u64; KINDS],
    /// When the first `Steps` frame arrived (end of set-up).
    first_steps: Option<Instant>,
    /// Every `EpisodeEnd` frame: when it arrived (learner end) or left
    /// (worker end).
    episode_ends: Vec<Instant>,
    /// Every `Params` frame (one per update), same convention.
    params: Vec<Instant>,
    /// First frame of each kind, kept for the codec probes.
    captured: Vec<Msg>,
}

impl SideLog {
    fn wall_ns(&self) -> u64 {
        match (self.first_call, self.last_return) {
            (Some(a), Some(b)) => (b - a).as_nanos() as u64,
            _ => 0,
        }
    }

    fn mean_size(&self, kind: usize) -> f64 {
        self.size_sum[kind] as f64 / self.size_samples[kind].max(1) as f64
    }

    /// Stamps the frames the end-to-end metrics are built from; the clock
    /// is read only for those.
    fn note_frame(&mut self, kind: usize, now: impl FnOnce() -> Instant) {
        if kind == KIND_STEPS && self.first_steps.is_none() {
            self.first_steps = Some(now());
        } else if kind == KIND_EPISODE_END {
            self.episode_ends.push(now());
        } else if kind == KIND_PARAMS {
            self.params.push(now());
        }
    }

    /// Bytes sent, estimated as frames of each kind times their mean
    /// sampled size.
    fn bytes_sent(&self) -> f64 {
        (0..KINDS).map(|k| self.sent[k] as f64 * self.mean_size(k)).sum()
    }
}

/// Where a decorator leaves its log and spans when it is dropped (the
/// worker's end lives and dies on the worker thread).
type Deposit = Arc<Mutex<Option<(SideLog, Tracer)>>>;

/// The timing decorator. Untraced it stamps only the two frame kinds the
/// end-to-end metrics need (first `Steps`, every `EpisodeEnd`); traced it
/// times every call, records a span for it, and samples frame sizes.
struct Timed<T: Transport> {
    inner: T,
    log: SideLog,
    tracer: Tracer,
    deposit: Deposit,
}

impl<T: Transport> Timed<T> {
    fn new(inner: T, tracer: Tracer) -> (Self, Deposit) {
        let deposit: Deposit = Arc::new(Mutex::new(None));
        (Timed { inner, log: SideLog::default(), tracer, deposit: Arc::clone(&deposit) }, deposit)
    }

    fn enter(&mut self) -> Instant {
        let now = Instant::now();
        match self.log.last_return {
            Some(prev) => self.log.busy_ns += (now - prev).as_nanos() as u64,
            None => self.log.first_call = Some(now),
        }
        now
    }
}

impl<T: Transport> Drop for Timed<T> {
    fn drop(&mut self) {
        let log = std::mem::take(&mut self.log);
        let tracer = std::mem::replace(&mut self.tracer, Tracer::new(Instant::now(), "", false));
        // A poisoned deposit means the reader already panicked; nothing
        // useful is left to hand over.
        if let Ok(mut slot) = self.deposit.lock() {
            *slot = Some((log, tracer));
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        let kind = msg.kind() as usize;
        if !self.tracer.enabled() {
            self.log.sent[kind] += 1;
            let result = self.inner.send(msg);
            self.log.note_frame(kind, Instant::now);
            return result;
        }
        if self.log.sent[kind].is_multiple_of(SIZE_SAMPLE_EVERY) {
            self.log.size_sum[kind] += wire::encode_frame(msg).len() as u64;
            self.log.size_samples[kind] += 1;
        }
        if self.log.sent[kind] == 0 && matches!(kind, KIND_STEPS | KIND_PARAMS | KIND_EPISODE_END) {
            self.log.captured.push(msg.clone());
        }
        let seq = self.log.sent[kind];
        self.log.sent[kind] += 1;
        let start = self.enter();
        let result = self.inner.send(msg);
        let end = Instant::now();
        self.log.note_frame(kind, || end);
        self.log.send_ns += (end - start).as_nanos() as u64;
        self.log.last_return = Some(end);
        self.tracer.record(send_span(kind), seq, start, end);
        self.tracer.count("dist.frames_sent", 1);
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        if !self.tracer.enabled() {
            let result = self.inner.recv_timeout(timeout);
            let kind = result.as_ref().map_or(0, |m| m.kind() as usize);
            self.log.note_frame(kind, Instant::now);
            return result;
        }
        let start = self.enter();
        let result = self.inner.recv_timeout(timeout);
        let end = Instant::now();
        let kind = result.as_ref().map_or(0, |m| m.kind() as usize);
        self.log.note_frame(kind, || end);
        self.log.recv_ns += (end - start).as_nanos() as u64;
        self.log.last_return = Some(end);
        self.tracer.record(recv_span(kind), 0, start, end);
        result
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn split_recv(&self) -> Option<Box<dyn Transport>> {
        self.inner.split_recv()
    }
}

fn send_span(kind: usize) -> &'static str {
    match kind {
        KIND_STEPS => "dist.send.steps",
        KIND_PARAMS => "dist.send.params",
        KIND_EPISODE_END => "dist.send.episode_end",
        _ => "dist.send.control",
    }
}

fn recv_span(kind: usize) -> &'static str {
    match kind {
        0 => "dist.recv.timeout",
        KIND_STEPS => "dist.recv.steps",
        KIND_PARAMS => "dist.recv.params",
        KIND_EPISODE_END => "dist.recv.episode_end",
        _ => "dist.recv.control",
    }
}

/// One complete lockstep session.
struct Session {
    started: Instant,
    trainer: Trainer,
    learner: SideLog,
    worker: SideLog,
    lanes: [Tracer; 2],
    /// Durations of the `serve_lockstep` and `run_worker` calls, timed
    /// around the calls rather than at the transport.
    learner_call_ns: u64,
    worker_call_ns: u64,
    quarantined: u64,
    worker_outcome: Result<RunOutcome, DistError>,
}

impl Session {
    /// Process-visible set-up: learner and worker construction, the
    /// `Hello`/`Welcome` handshake, up to the first `Steps` frame.
    fn set_up_s(&self) -> f64 {
        self.learner.first_steps.map_or(0.0, |t| (t - self.started).as_secs_f64())
    }

    /// The streaming section: first `Steps` frame to the last frame.
    fn stream_wall_s(&self) -> f64 {
        match (self.learner.first_steps, self.learner.episode_ends.last()) {
            (Some(a), Some(&b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn session(cfg: TrainConfig, clock: &Tracer) -> Result<Session, String> {
    let started = Instant::now();
    let mut learner = Learner::new(cfg, LearnerOptions::default()).map_err(|e| e.to_string())?;
    let (learner_end, worker_end) = loopback_pair(1024, Duration::from_secs(10));
    let (mut learner_end, learner_deposit) = Timed::new(learner_end, clock.fork("learner"));
    let (worker_end, worker_deposit) = Timed::new(worker_end, clock.fork("worker"));
    let worker = std::thread::spawn(move || {
        let mut slot = Some(worker_end);
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 0);
        let t0 = Instant::now();
        let outcome = run_worker(
            0,
            move || {
                slot.take()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .ok_or(DistError::Disconnected)
            },
            &mut backoff,
            1,
        );
        (outcome, t0.elapsed().as_nanos() as u64)
    });
    let t0 = Instant::now();
    let served = learner.serve_lockstep(&mut learner_end);
    let learner_call_ns = t0.elapsed().as_nanos() as u64;
    drop(learner_end);
    let (worker_outcome, worker_call_ns) =
        worker.join().map_err(|_| "worker thread panicked".to_owned())?;
    served.map_err(|e| format!("serve_lockstep: {e}"))?;
    let take = |d: Deposit| d.lock().ok().and_then(|mut s| s.take());
    let (learner_log, learner_lane) = take(learner_deposit).ok_or("learner log missing")?;
    let (worker_log, worker_lane) = take(worker_deposit).ok_or("worker log missing")?;
    let quarantined = learner.supervisor().total_quarantined();
    Ok(Session {
        started,
        trainer: learner.into_trainer(),
        learner: learner_log,
        worker: worker_log,
        lanes: [learner_lane, worker_lane],
        learner_call_ns,
        worker_call_ns,
        quarantined,
        worker_outcome,
    })
}

fn states_json(trainer: &Trainer) -> String {
    serde_json::to_string(&trainer.agent_states()).expect("agent states serialize")
}

/// Heartbeat ping-pong round trips over a connected transport pair, in
/// nanoseconds: the floor under any request/response exchange.
fn heartbeat_rtt_ns<A: Transport, B: Transport>(mut near: A, mut far: B, rounds: u64) -> Vec<u64> {
    let wait = Duration::from_secs(2);
    let mut rtts = Vec::with_capacity(rounds as usize);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(Msg::Heartbeat(h)) = far.recv_timeout(wait) {
                let ack = HeartbeatAck { worker_id: 0, seq: h.seq, send_ns: h.send_ns, recv_ns: 0 };
                if far.send(&Msg::HeartbeatAck(ack)).is_err() {
                    break;
                }
            }
        });
        for seq in 0..rounds {
            let beat = Heartbeat { worker_id: 0, seq, env_steps: 0, send_ns: 0 };
            let t0 = Instant::now();
            if near.send(&Msg::Heartbeat(beat)).is_err() || near.recv_timeout(wait).is_err() {
                break;
            }
            rtts.push(t0.elapsed().as_nanos() as u64);
        }
        // Anything but a heartbeat ends the echo thread.
        let _ = near.send(&Msg::Bye(Bye { worker_id: 0, reason: "probe-done".into() }));
    });
    rtts.sort_unstable();
    rtts
}

pub fn run(
    args: &RunArgs,
    tracer: &mut Tracer,
    lanes: &mut Vec<Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let quiet = Tracer::new(Instant::now(), "untimed", false);

    // Equivalence + calibration: a short prefix through the wire must
    // leave the learner's trainer in exactly the single-process state.
    let prefix = if args.smoke { 10 } else { 40 };
    let mut single = Trainer::new(config(args.seed, prefix)).map_err(|e| e.to_string())?;
    single.train().map_err(|e| e.to_string())?;
    let calib = session(config(args.seed, prefix), &quiet)?;
    out.check(states_json(&single) == states_json(&calib.trainer), || {
        format!("{prefix}-episode lockstep prefix differs from the single-process trainer")
    });
    let rate = calib.trainer.env_steps() as f64 / calib.stream_wall_s().max(1e-6);
    let max_len = config(args.seed, 1).max_episode_len as f64;
    let episodes = ((rate * args.seconds / max_len).round() as usize).max(2);

    let mut set_ups = vec![calib.set_up_s()];
    for _ in 0..if args.smoke { 0 } else { 3 } {
        set_ups.push(session(config(args.seed, 1), &quiet)?.set_up_s());
    }

    let run = session(config(args.seed, episodes), tracer)?;
    set_ups.push(run.set_up_s());
    let wall = run.stream_wall_s();
    let steps = run.trainer.env_steps();
    let updates = run.trainer.update_iterations();

    out.check(matches!(run.worker_outcome, Ok(RunOutcome::EpisodesDone)), || {
        format!("worker exited with {:?}", run.worker_outcome)
    });
    out.check(run.quarantined == 0, || format!("{} frames quarantined", run.quarantined));
    out.check(run.learner.episode_ends.len() == episodes, || {
        format!("{} EpisodeEnd frames for {episodes} episodes", run.learner.episode_ends.len())
    });
    let want_steps = episodes as u64 * max_len as u64;
    out.check(steps == want_steps, || format!("env_steps {steps}, expected {want_steps}"));
    let cfg = *run.trainer.config();
    let want_updates = (steps - cfg.warmup as u64) / cfg.update_every as u64 + 1;
    out.check(updates == want_updates, || {
        format!("update_iterations {updates}, expected {want_updates}")
    });

    out.attempted = steps;
    out.size("episodes", episodes as f64, "count");
    out.size("env_steps", steps as f64, "count");
    out.size("updates", updates as f64, "count");
    out.size("calibration_steps_per_s", rate, "1/s");

    // The unit of work is one update cycle as the worker lives it, from
    // one `Params` arrival to the next: `update_every` steps of rollout,
    // the learner catching up, the update, and the parameter handoff. A
    // single worker episode is no steady unit here: its median sits at 450
    // or 770 µs for a whole session, depending on where the two threads
    // landed.
    let gaps = |at: &[Instant]| {
        let mut ns: Vec<u64> = at.windows(2).map(|w| (w[1] - w[0]).as_nanos() as u64).collect();
        ns.sort_unstable();
        ns
    };
    let cycle_ns = gaps(&run.worker.params);
    let p50_us = stats::percentile(&cycle_ns, 0.50) as f64 / 1e3;
    out.size("units_of_work", cycle_ns.len() as f64, "count");
    let ops_per_s = steps as f64 / wall;
    if !args.trace {
        out.set("ops_per_s", ops_per_s);
        out.set("op_p50_us", p50_us);
        out.set("setup_s", stats::median(&set_ups));
        return Ok(out);
    }

    let (l, w) = (&run.learner, &run.worker);
    let frames: u64 = l.sent.iter().chain(&w.sent).sum();
    out.set("dist.frames_per_step", frames as f64 / steps as f64);
    out.set("dist.bytes_per_step", (l.bytes_sent() + w.bytes_sent()) / steps as f64);
    out.set("dist.steps_frame_bytes", w.mean_size(KIND_STEPS));
    out.set("dist.params_frame_bytes", l.mean_size(KIND_PARAMS));
    out.set("dist.episode_end_frame_bytes", w.mean_size(KIND_EPISODE_END));

    let (l_wall, w_wall) = (l.wall_ns() as f64, w.wall_ns() as f64);
    out.set("dist.learner_recv_wait_share", l.recv_ns as f64 / l_wall);
    out.set("dist.worker_recv_wait_share", w.recv_ns as f64 / w_wall);
    out.set("dist.learner_send_share", l.send_ns as f64 / l_wall);
    out.set("dist.worker_send_share", w.send_ns as f64 / w_wall);
    let update_ns = run.trainer.profile().update_all_trainers().as_nanos() as f64;
    out.set("dist.learner_update_share", update_ns / l_wall);
    out.set("dist.learner_ingest_us_per_step", (l.busy_ns as f64 - update_ns) / 1e3 / steps as f64);
    out.set("dist.worker_busy_us_per_step", w.busy_ns as f64 / 1e3 / steps as f64);
    // Additivity: what the decorator attributed (busy + wait + send) must
    // add up to the whole call it sat inside, timed independently.
    let gap = |s: &SideLog, call_ns: u64| {
        ((s.busy_ns + s.recv_ns + s.send_ns) as f64 - call_ns as f64).abs() / call_ns as f64
    };
    let accounting = gap(l, run.learner_call_ns).max(gap(w, run.worker_call_ns));
    out.set("dist.accounting_gap_share", accounting);
    out.gates.push(Gate::at_most("dist.busy_plus_wait_vs_wall", accounting, ACCOUNTING_LIMIT));
    out.set("dist.quarantined_frames", run.quarantined as f64);

    out.set("algo.updates", updates as f64);
    out.set("algo.env_steps", steps as f64);
    let episode_ns = gaps(&run.worker.episode_ends);
    out.set("algo.episode_p50_us", stats::percentile(&episode_ns, 0.50) as f64 / 1e3);
    out.set("algo.episode_p95_us", common::tail_us(&episode_ns, 0.95, "algo.episode_p95_us"));
    out.set("obs.traced_ops_per_s", ops_per_s);
    out.set("obs.traced_op_p50_us", p50_us);
    out.set("obs.timed_wall_s", wall);

    // Codec probes on frames the decorators captured from the real run.
    let budget = ProbeBudget::new(args.smoke);
    let root = tracer.begin("probe.dist", 0);
    for msg in l.captured.iter().chain(&w.captured) {
        let (encode, decode) = match msg.kind() as usize {
            KIND_STEPS => ("dist.encode_steps_us", "dist.decode_steps_us"),
            KIND_PARAMS => ("dist.encode_params_us", "dist.decode_params_us"),
            _ => continue,
        };
        let ns = probe(tracer, budget, encode.trim_end_matches("_us"), || {
            std::hint::black_box(wire::encode_frame(msg));
        });
        out.set(encode, ns / 1e3);
        let bytes = wire::encode_frame(msg);
        let ns = probe(tracer, budget, decode.trim_end_matches("_us"), || {
            std::hint::black_box(wire::decode_frame(&bytes).expect("own frame decodes"));
        });
        out.set(decode, ns / 1e3);
    }
    let rounds = if args.smoke { 20 } else { 300 };
    let (a, b) = loopback_pair(16, Duration::from_secs(2));
    let span = tracer.begin("dist.loopback_rtt", 0);
    let rtts = heartbeat_rtt_ns(a, b, rounds);
    tracer.end(span);
    out.set("dist.loopback_rtt_us", stats::percentile(&rtts, 0.5) as f64 / 1e3);
    let (a, b) = std::os::unix::net::UnixStream::pair().map_err(|e| e.to_string())?;
    let span = tracer.begin("dist.socket_rtt", 0);
    let rtts = heartbeat_rtt_ns(StreamTransport::unix(a), StreamTransport::unix(b), rounds);
    tracer.end(span);
    out.set("dist.socket_rtt_us", stats::percentile(&rtts, 0.5) as f64 / 1e3);
    tracer.end(root);

    lanes.extend(run.lanes);
    Ok(out)
}
