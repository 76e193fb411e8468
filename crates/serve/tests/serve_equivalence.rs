//! End-to-end serve correctness over a real Unix socket:
//!
//! * **Bitwise equivalence** — for any interleaving of concurrent
//!   clients into micro-batches, every response's logits and action are
//!   bit-identical to a batch-of-one inference of that request alone.
//! * **Hot reload under load** — swapping the checkpoint mid-stream
//!   loses no request, and every response is bitwise attributable to
//!   exactly one model generation (the `epoch` it reports).
//! * **Clean shutdown** — a `CTL_SHUTDOWN` frame drains every admitted
//!   request before the server exits.
//! * **Typed rejection** — bad agent ids and wrong observation widths
//!   come back as error frames, not dropped connections.
//! * **Joint actions** — on heads with a communication factor the served
//!   `action` is the mixed-radix joint index `Trainer::evaluate` takes.

use marl_algo::checkpoint::{write_checkpoint_file, Checkpoint};
use marl_algo::{Algorithm, Rollout, Task, TrainConfig, Trainer};
use marl_dist::wire::{KIND_INFER_ERR, KIND_INFER_RESP};
use marl_dist::StreamTransport;
use marl_obs::metrics::MetricsRegistry;
use marl_serve::batcher::RequestSlot;
use marl_serve::{proto, InferenceEngine, PolicyModel, ServeConfig, ServeListener, Server};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_checkpoint(seed: u64) -> Checkpoint {
    let config =
        TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3).with_seed(seed);
    Trainer::new(config).expect("trainer").checkpoint()
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("marl-serve-{tag}-{}.sock", std::process::id()))
}

fn connect(path: &PathBuf) -> StreamTransport {
    // The server's accept loop polls every few ms; retry briefly.
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(path) {
            return StreamTransport::unix(s).with_frame_deadline(Duration::from_secs(5));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never came up on {}", path.display());
}

fn deterministic_obs(dim: usize, salt: usize) -> Vec<f32> {
    (0..dim).map(|c| ((salt * 31 + c * 17) % 23) as f32 * 0.05 - 0.5).collect()
}

/// Batch-of-one reference answer straight through the engine.
fn reference(model: &PolicyModel, agent: u32, obs: &[f32]) -> (u32, Vec<f32>) {
    let mut engine = InferenceEngine::new();
    let mut batch =
        vec![Box::new(RequestSlot { agent, obs: obs.to_vec(), ..RequestSlot::default() })];
    engine.infer(model, &mut batch);
    (batch[0].action, std::mem::take(&mut batch[0].logits))
}

fn start_server(
    path: &Path,
    ckpt: &Checkpoint,
    config: ServeConfig,
    watch: Option<PathBuf>,
) -> Server {
    let model = PolicyModel::from_checkpoint(ckpt, 0);
    let listener = ServeListener::unix(path).expect("bind");
    Server::start(listener, model, config, Arc::new(MetricsRegistry::new()), watch)
}

/// Four concurrent clients send 25 requests each to a server on `ckpt`;
/// every answer must equal a batch-of-one reference bitwise. With
/// `reference_flushes` the references run on client threads that already
/// have flush-to-zero set, while the server's threads do not.
fn assert_concurrent_answers_match_serial(ckpt: &Checkpoint, tag: &str, reference_flushes: bool) {
    let model = PolicyModel::from_checkpoint(ckpt, 0);
    let path = sock_path(tag);
    // Small batches: requests from different clients that land during
    // one forward coalesce into the next.
    let config = ServeConfig { max_batch: 8, queue_capacity: 64, ..ServeConfig::default() };
    let server = start_server(&path, ckpt, config, None);

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    let model = Arc::new(model);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let path = path.clone();
            let model = Arc::clone(&model);
            std::thread::spawn(move || {
                let _caller = reference_flushes.then(marl_nn::fp::flush_to_zero);
                let mut conn = connect(&path);
                let mut frame = Vec::new();
                let mut logits = Vec::new();
                for i in 0..PER_CLIENT {
                    let agent = ((client + i) % model.num_agents()) as u32;
                    let obs = deterministic_obs(model.obs_dim(agent as usize), client * 1000 + i);
                    let req_id = (client * PER_CLIENT + i) as u64;
                    proto::encode_request(
                        req_id,
                        agent,
                        &obs,
                        marl_obs::context::TraceCtx::NONE,
                        &mut frame,
                    );
                    conn.send_raw(&frame).expect("send");
                    let kind = conn
                        .recv_raw_into(&mut frame, Duration::from_secs(5))
                        .expect("response arrives");
                    assert_eq!(kind, KIND_INFER_RESP);
                    let resp = proto::decode_response_into(
                        &frame[marl_dist::wire::HEADER_LEN..],
                        &mut logits,
                    )
                    .expect("decodes");
                    assert_eq!(resp.req_id, req_id, "response routed to the right request");
                    assert_eq!(resp.agent, agent);
                    assert_eq!(resp.epoch, 0);
                    let (want_action, want_logits) = reference(&model, agent, &obs);
                    assert_eq!(resp.action, want_action, "req {req_id} action");
                    assert_eq!(logits, want_logits, "req {req_id} logits must match bitwise");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers() {
    assert_concurrent_answers_match_serial(&tiny_checkpoint(7), "equiv", false);
}

/// Batched == serial under subnormal pressure: with every actor's output
/// layer scaled by 1e-37, many of its weights and most of its products
/// are subnormal under IEEE arithmetic. The answers still match the
/// references made under the clients' flush-to-zero mode only if the
/// engine's own `marl_nn::fp` scope decides the arithmetic.
#[test]
fn batched_answers_match_serial_under_subnormal_pressure() {
    let mut ckpt = tiny_checkpoint(7);
    for agent in &mut ckpt.agents {
        // The output layer is the tail of the parameter slab.
        let &[.., fan_in, fan_out] = agent.actor.widths() else { unreachable!() };
        let params = agent.actor.params_mut();
        let head = params.len() - (fan_in * fan_out + fan_out);
        params[head..].iter_mut().for_each(|x| *x *= 1e-37);
    }
    assert_concurrent_answers_match_serial(&ckpt, "equiv-subnormal", true);
}

/// Communication scenarios give agents segmented heads (movement ⊕
/// utterance) with per-agent logits widths — world-comm's leader speaks
/// while the rest only move, so the served model is genuinely
/// heterogeneous. Micro-batched answers for every agent must still be
/// bit-identical to batch-of-one inference, and each agent's logits must
/// come back at exactly its declared flat action width.
#[test]
fn comm_scenario_heads_serve_bitwise_across_heterogeneous_widths() {
    let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::WorldComm, 3).with_seed(29);
    let env = Task::WorldComm.make_env(3, 25, 29);
    let widths: Vec<usize> = env.action_spaces().iter().map(|s| s.flat_dim()).collect();
    assert!(
        widths.iter().any(|&w| w != widths[0]),
        "world-comm must declare heterogeneous per-agent action widths, got {widths:?}"
    );
    let ckpt = Trainer::new(config).expect("trainer").checkpoint();
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("comm-heads");
    let serve_config = ServeConfig { max_batch: 8, queue_capacity: 64, ..ServeConfig::default() };
    let server = start_server(&path, &ckpt, serve_config, None);

    let mut conn = connect(&path);
    let mut frame = Vec::new();
    let mut logits = Vec::new();
    for round in 0..10usize {
        for (agent, &width) in widths.iter().enumerate() {
            let obs = deterministic_obs(model.obs_dim(agent), round * 100 + agent);
            let req_id = (round * model.num_agents() + agent) as u64;
            proto::encode_request(
                req_id,
                agent as u32,
                &obs,
                marl_obs::context::TraceCtx::NONE,
                &mut frame,
            );
            conn.send_raw(&frame).expect("send");
            let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("reply");
            assert_eq!(kind, KIND_INFER_RESP);
            let resp =
                proto::decode_response_into(&frame[marl_dist::wire::HEADER_LEN..], &mut logits)
                    .expect("decodes");
            assert_eq!(resp.req_id, req_id);
            assert_eq!(logits.len(), width, "agent {agent} logits width vs declared action space");
            let (want_action, want_logits) = reference(&model, agent as u32, &obs);
            assert_eq!(resp.action, want_action, "agent {agent} action");
            assert_eq!(logits, want_logits, "agent {agent} logits must match bitwise");
            assert!(
                (resp.action as usize) < env.action_spaces()[agent].joint_count(),
                "agent {agent} action {} within its joint space",
                resp.action
            );
        }
    }
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_requests_get_typed_error_frames() {
    let ckpt = tiny_checkpoint(3);
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("errors");
    let server = start_server(&path, &ckpt, ServeConfig::default(), None);

    let mut conn = connect(&path);
    let mut frame = Vec::new();
    // Agent out of range.
    proto::encode_request(
        1,
        model.num_agents() as u32,
        &[0.0; 4],
        marl_obs::context::TraceCtx::NONE,
        &mut frame,
    );
    conn.send_raw(&frame).expect("send");
    let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("reply");
    assert_eq!(kind, KIND_INFER_ERR);
    let (req_id, code) = proto::decode_error(&frame[marl_dist::wire::HEADER_LEN..]).unwrap();
    assert_eq!((req_id, code), (1, proto::ERR_BAD_AGENT));
    // Wrong observation width for a valid agent.
    let bad_dim = model.obs_dim(0) + 1;
    proto::encode_request(2, 0, &vec![0.0; bad_dim], marl_obs::context::TraceCtx::NONE, &mut frame);
    conn.send_raw(&frame).expect("send");
    let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("reply");
    assert_eq!(kind, KIND_INFER_ERR);
    let (req_id, code) = proto::decode_error(&frame[marl_dist::wire::HEADER_LEN..]).unwrap();
    assert_eq!((req_id, code), (2, proto::ERR_BAD_OBS_DIM));
    // The connection survives errors: a valid request still answers.
    let obs = deterministic_obs(model.obs_dim(0), 9);
    proto::encode_request(3, 0, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
    conn.send_raw(&frame).expect("send");
    let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("reply");
    assert_eq!(kind, KIND_INFER_RESP);

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_frame_drains_every_admitted_request() {
    let ckpt = tiny_checkpoint(11);
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("drain");
    // The requests and the shutdown frame go out back to back. How many
    // are still queued when the frame lands depends on scheduling (the
    // work-conserving batcher may have answered them all already), so
    // this checks the end-to-end contract — every admitted request is
    // answered exactly once — and `batcher_props` covers the drain of a
    // backlog queued behind an in-flight forward deterministically.
    let config = ServeConfig { max_batch: 64, queue_capacity: 128, ..ServeConfig::default() };
    let server = start_server(&path, &ckpt, config, None);

    let mut conn = connect(&path);
    let mut frame = Vec::new();
    const N: u64 = 40;
    for req_id in 0..N {
        let obs = deterministic_obs(model.obs_dim(0), req_id as usize);
        proto::encode_request(req_id, 0, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
        conn.send_raw(&frame).expect("send");
    }
    proto::encode_ctl(proto::CTL_SHUTDOWN, &mut frame);
    conn.send_raw(&frame).expect("send ctl");

    let mut logits = Vec::new();
    let mut seen = vec![false; N as usize];
    for _ in 0..N {
        let kind = conn
            .recv_raw_into(&mut frame, Duration::from_secs(10))
            .expect("drained response arrives");
        assert_eq!(kind, KIND_INFER_RESP);
        let resp = proto::decode_response_into(&frame[marl_dist::wire::HEADER_LEN..], &mut logits)
            .expect("decodes");
        assert!(!seen[resp.req_id as usize], "req {} answered twice", resp.req_id);
        seen[resp.req_id as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "every admitted request was answered");
    server.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hot_reload_under_load_drops_nothing_and_versions_every_answer() {
    let ckpt0 = tiny_checkpoint(0);
    let ckpt1 = tiny_checkpoint(1);
    let model0 = PolicyModel::from_checkpoint(&ckpt0, 0);
    let model1 = PolicyModel::from_checkpoint(&ckpt1, 1);
    assert!(model0.same_architecture(&model1));

    let dir = std::env::temp_dir().join(format!("marl-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt_path = dir.join("model.marc");
    write_checkpoint_file(&ckpt_path, &ckpt0, &[]).expect("write v0");

    let path = sock_path("reload");
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 64,
        reload_poll: Some(Duration::from_millis(5)),
        ..ServeConfig::default()
    };
    let model_boot = PolicyModel::load(&ckpt_path, 0).expect("load").0;
    let listener = ServeListener::unix(&path).expect("bind");
    let server = Server::start(
        listener,
        model_boot,
        config,
        Arc::new(MetricsRegistry::new()),
        Some(ckpt_path.clone()),
    );

    let mut conn = connect(&path);
    let mut frame = Vec::new();
    let mut logits = Vec::new();
    // The budget for observing the reload is wall time, not a request
    // count: the work-conserving batcher answers hundreds of requests in
    // the few milliseconds a poll and a load take.
    let mut swapped_at: Option<Instant> = None;
    let mut answered = 0u64;
    let mut epochs_seen = [0u64; 2];
    for req_id in 0u64.. {
        let agent = (req_id % model0.num_agents() as u64) as u32;
        let obs = deterministic_obs(model0.obs_dim(agent as usize), req_id as usize);
        proto::encode_request(req_id, agent, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
        conn.send_raw(&frame).expect("send");
        let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("reply");
        assert_eq!(kind, KIND_INFER_RESP);
        let resp = proto::decode_response_into(&frame[marl_dist::wire::HEADER_LEN..], &mut logits)
            .expect("decodes");
        assert_eq!(resp.req_id, req_id, "no request lost across the reload");
        // Each answer is bitwise attributable to the generation it names.
        let generation = match resp.epoch {
            0 => &model0,
            1 => &model1,
            other => panic!("unexpected epoch {other}"),
        };
        epochs_seen[resp.epoch as usize] += 1;
        let (want_action, want_logits) = reference(generation, agent, &obs);
        assert_eq!(resp.action, want_action);
        assert_eq!(logits, want_logits, "req {req_id}: logits must match epoch {}", resp.epoch);
        answered += 1;
        if req_id == 50 {
            // Swap the checkpoint mid-stream; keep the request flow up.
            write_checkpoint_file(&ckpt_path, &ckpt1, &[]).expect("write v1");
            swapped_at = Some(Instant::now());
        }
        if resp.epoch == 1 && req_id > 120 {
            break; // reload observed end-to-end
        }
        if swapped_at.is_some_and(|t| t.elapsed() > Duration::from_secs(10)) {
            break;
        }
    }
    assert!(swapped_at.is_some());
    assert!(epochs_seen[0] > 0, "some answers from the boot generation");
    assert!(epochs_seen[1] > 0, "reload was picked up under load, got {answered} answers");

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// On world-comm's leader ([5, 4]) and cooperative-reference ([5, 10])
/// the served `action` is the greedy joint action the rollout steps the
/// environment with — the per-factor arg-max, mixed-radix encoded — not
/// an index into the concatenated logits.
#[test]
fn served_action_is_the_rollouts_greedy_joint_action() {
    for (task, agents) in [(Task::WorldComm, 3), (Task::CooperativeReference, 2)] {
        let config = TrainConfig::paper_defaults(Algorithm::Maddpg, task, agents).with_seed(11);
        let ckpt = Trainer::new(config).expect("trainer").checkpoint();
        let model = PolicyModel::from_checkpoint(&ckpt, 0);
        let worlds = 16;
        let mut rollout = Rollout::new(&config, worlds);
        rollout.reset();
        rollout.select_greedy(ckpt.agents.iter().map(|a| &a.actor));
        let n = ckpt.agents.len();
        let mut with_comm = 0;
        for w in 0..worlds {
            for (a, space) in rollout.env().action_spaces().iter().enumerate() {
                let (served, _) = reference(&model, a as u32, rollout.transition(w, a).obs);
                let greedy = rollout.actions()[w * n + a];
                assert_eq!(served as usize, greedy, "{task}: world {w} agent {a}");
                with_comm += usize::from(greedy >= space.segments()[0]);
            }
        }
        assert!(with_comm > 0, "{task}: no greedy action used a comm symbol");
    }
}

/// A pipelining client: 64 requests leave in one send, then 64 answers
/// are read. One read admits many frames, each connection's answers
/// leave in coalesced sends, and every answer is still bitwise the
/// batch-of-one reference.
#[test]
fn pipelined_requests_in_one_send_match_serial_answers() {
    let ckpt = tiny_checkpoint(17);
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("pipelined");
    let config = ServeConfig { max_batch: 8, queue_capacity: 64, ..ServeConfig::default() };
    let server = start_server(&path, &ckpt, config, None);

    const N: usize = 64;
    let mut conn = connect(&path);
    let (mut burst, mut frame) = (Vec::new(), Vec::new());
    let mut sent = Vec::new();
    for i in 0..N {
        let agent = (i % model.num_agents()) as u32;
        let obs = deterministic_obs(model.obs_dim(agent as usize), 500 + i);
        proto::encode_request(i as u64, agent, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
        burst.extend_from_slice(&frame);
        sent.push((agent, obs));
    }
    conn.send_raw(&burst).expect("one send");
    let mut logits = Vec::new();
    let mut seen = [false; N];
    for _ in 0..N {
        let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("answer");
        assert_eq!(kind, KIND_INFER_RESP);
        let resp = proto::decode_response_into(&frame[marl_dist::wire::HEADER_LEN..], &mut logits)
            .expect("decodes");
        let i = resp.req_id as usize;
        assert!(!std::mem::replace(&mut seen[i], true), "req {i} answered twice");
        let (agent, obs) = &sent[i];
        let (want_action, want_logits) = reference(&model, *agent, obs);
        assert_eq!((resp.agent, resp.action), (*agent, want_action), "req {i}");
        assert_eq!(logits, want_logits, "req {i} logits must match bitwise");
    }
    let fill = &server.metrics().serve_batch_fill;
    assert!(fill.count() < N as u64, "{} forwards for {N} pipelined requests", fill.count());
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}

/// The frame deadline bounds a partly received frame, not the quiet
/// between frames: a connection idle for several deadlines is still
/// served, and so is a frame whose halves arrive within one deadline.
#[test]
fn a_connection_idle_past_the_frame_deadline_stays_open() {
    let ckpt = tiny_checkpoint(5);
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("idle");
    let deadline = Duration::from_millis(100);
    let config = ServeConfig { frame_deadline: deadline, ..ServeConfig::default() };
    let server = start_server(&path, &ckpt, config, None);

    let mut conn = connect(&path);
    let mut frame = Vec::new();
    let obs = deterministic_obs(model.obs_dim(0), 3);
    let mut ask = |conn: &mut StreamTransport, req_id: u64, split: Option<usize>| {
        proto::encode_request(req_id, 0, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
        let cut = split.unwrap_or(frame.len());
        conn.send_raw(&frame[..cut]).expect("send");
        if cut < frame.len() {
            std::thread::sleep(deadline / 5);
            conn.send_raw(&frame[cut..]).expect("send the rest");
        }
        let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("answer");
        assert_eq!(kind, KIND_INFER_RESP, "req {req_id}");
    };
    ask(&mut conn, 0, None);
    std::thread::sleep(deadline * 4);
    ask(&mut conn, 1, None);
    ask(&mut conn, 2, Some(10));
    std::thread::sleep(deadline * 4);
    ask(&mut conn, 3, None);
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}

/// The resident set of this process, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    let kib: u64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("kB value");
    kib * 1024
}

/// One 16-byte header declaring a 256 MiB payload, body never sent: the
/// server refuses it from the header alone (no allocation, no wait for
/// the frame deadline), closes that connection only, and keeps serving.
#[test]
fn a_header_declaring_a_huge_frame_closes_only_its_connection() {
    let ckpt = tiny_checkpoint(13);
    let model = PolicyModel::from_checkpoint(&ckpt, 0);
    let path = sock_path("huge-header");
    // Far longer than the test's bound: waiting for the body would fail.
    let config = ServeConfig { frame_deadline: Duration::from_secs(10), ..ServeConfig::default() };
    let server = start_server(&path, &ckpt, config, None);

    let mut bystander = connect(&path);
    let mut hostile = connect(&path);
    let rss_before = rss_bytes();
    let mut header = Vec::new();
    proto::encode_ctl(proto::CTL_PING, &mut header);
    header[6..8].copy_from_slice(&marl_dist::wire::KIND_INFER_REQ.to_le_bytes());
    header[8..12].copy_from_slice(&(marl_dist::wire::MAX_PAYLOAD as u32).to_le_bytes());
    let sent = Instant::now();
    hostile.send_raw(&header[..marl_dist::wire::HEADER_LEN]).expect("send header");
    let mut frame = Vec::new();
    let err = hostile.recv_raw_into(&mut frame, Duration::from_secs(5)).expect_err("closed");
    assert_eq!(err, marl_dist::DistError::Disconnected, "the server closed the connection");
    assert!(sent.elapsed() < Duration::from_secs(2), "closed after {:?}", sent.elapsed());
    let grown = rss_bytes().saturating_sub(rss_before);
    assert!(grown < 64 << 20, "the header cost the server {grown} bytes of memory");

    let obs = deterministic_obs(model.obs_dim(0), 1);
    proto::encode_request(1, 0, &obs, marl_obs::context::TraceCtx::NONE, &mut frame);
    bystander.send_raw(&frame).expect("send");
    let kind = bystander.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("answer");
    assert_eq!(kind, KIND_INFER_RESP, "the other connection is still served");
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}
