//! Layer probes: direct, timed calls into the public functions of
//! `marl-nn`, `marl-core` and `marl-env` at the shapes a workload uses.
//! They run after the timed section of a traced run, each under a span, so
//! a per-layer number is a measurement of that layer alone and the
//! end-to-end loop is never instrumented from inside.

use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use marl_algo::checkpoint::AgentState;
use marl_algo::TrainConfig;
use marl_core::indices::SamplePlan;
use marl_core::multi::MultiAgentReplay;
use marl_core::transition::{MultiBatch, Transition, TransitionLayout};
use marl_nn::adam::Adam;
use marl_nn::gumbel::softmax_relaxation_segments_into;
use marl_nn::kernels;
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How much probing a run affords: `batches` spans per probe, each long
/// enough (`batch_time`) that the two clock reads around it vanish.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBudget {
    pub batches: usize,
    pub batch_time: Duration,
}

impl ProbeBudget {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            ProbeBudget { batches: 3, batch_time: Duration::from_micros(200) }
        } else {
            ProbeBudget { batches: 15, batch_time: Duration::from_millis(2) }
        }
    }
}

/// Times `f` and returns the median nanoseconds per call. One untimed
/// call warms caches and sizes scratch; its cost picks how many calls
/// share a span.
pub fn probe(
    tracer: &mut Tracer,
    budget: ProbeBudget,
    name: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let reps = (budget.batch_time.as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;
    let mut per_call = Vec::with_capacity(budget.batches);
    for b in 0..budget.batches {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let end = Instant::now();
        tracer.record(name, b as u64, start, end);
        per_call.push((end - start).as_nanos() as f64 / reps as f64);
    }
    tracer.count(name, (budget.batches * reps) as u64);
    stats::median(&per_call)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

/// The shapes `marl-nn` is probed at.
#[derive(Debug, Clone, Copy)]
pub struct NnShapes<'a> {
    /// Rows of the training-side calls (the workload's batch size).
    pub batch: usize,
    /// Rows of the inference forward (K worlds, or a serve batch).
    pub infer_rows: usize,
    /// Agent 0's action factor widths.
    pub segments: &'a [usize],
}

/// `marl-nn` at the workload's shapes: the critic's first-layer matmul,
/// a full critic forward and backward, an actor forward, one Adam step,
/// the segmented Gumbel relaxation and a batched inference forward, on
/// copies of agent 0's networks.
pub fn nn(
    tracer: &mut Tracer,
    budget: ProbeBudget,
    out: &mut Outcome,
    agent: &AgentState,
    shapes: NnShapes<'_>,
    seed: u64,
) {
    let NnShapes { batch, infer_rows, segments } = shapes;
    let root = tracer.begin("probe.nn", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut critic = agent.critic.clone();
    let mut actor = agent.actor.clone();
    let joint = critic.input_dim();
    let obs_dim = actor.input_dim();
    let act_dim = actor.output_dim();
    let hidden = 64;

    let a = random_matrix(batch, joint, &mut rng);
    let b = random_matrix(joint, hidden, &mut rng);
    let mut c = vec![0.0f32; batch * hidden];
    let kind = kernels::active();
    let ns = probe(tracer, budget, "nn.matmul", || {
        kernels::matmul_with(kind, a.as_slice(), b.as_slice(), &mut c, batch, joint, hidden);
        black_box(&c);
    });
    out.set("nn.matmul_gflops", 2.0 * (batch * joint * hidden) as f64 / ns);

    let mut q = Matrix::default();
    let ns = probe(tracer, budget, "nn.critic_forward", || {
        critic.forward_into(black_box(&a), &mut q);
    });
    out.set("nn.critic_forward_us", ns / 1e3);

    let grad_q = Matrix::full(batch, 1, 1.0 / batch as f32);
    let mut grad_in = Matrix::default();
    let mut scratch = Scratch::new();
    let ns = probe(tracer, budget, "nn.critic_backward", || {
        critic.zero_grad();
        critic.backward_into(black_box(&grad_q), &mut grad_in, &mut scratch);
    });
    out.set("nn.critic_backward_us", ns / 1e3);

    let mut opt = Adam::with_learning_rate(1e-4);
    let ns = probe(tracer, budget, "nn.adam_step", || opt.step(&mut critic));
    out.set("nn.adam_step_us", ns / 1e3);

    let obs = random_matrix(batch, obs_dim, &mut rng);
    let mut logits = Matrix::default();
    let ns = probe(tracer, budget, "nn.actor_forward", || {
        actor.forward_into(black_box(&obs), &mut logits);
    });
    out.set("nn.actor_forward_us", ns / 1e3);

    let mut relaxed = Matrix::default();
    debug_assert_eq!(segments.iter().sum::<usize>(), act_dim);
    let ns = probe(tracer, budget, "nn.gumbel_seg", || {
        softmax_relaxation_segments_into(black_box(&logits), segments, 1.0, &mut relaxed);
    });
    out.set("nn.gumbel_seg_us", ns / 1e3);

    let infer_obs = random_matrix(infer_rows, obs_dim, &mut rng);
    let ns = probe(tracer, budget, "nn.infer_batch", || {
        actor.forward_inference_into(black_box(&infer_obs), &mut logits, &mut scratch);
    });
    out.set("nn.infer_batch_us", ns / 1e3);
    tracer.end(root);
}

/// `marl-core` on the replay the run filled: one plan, one joint gather,
/// one priority write-back (prioritized samplers only) and one joint
/// insert. Rows and bytes per update are computed from the layouts, not
/// counted: each of the N trainers gathers `batch` rows from all N
/// buffers.
pub fn core(
    tracer: &mut Tracer,
    budget: ProbeBudget,
    out: &mut Outcome,
    config: &TrainConfig,
    replay: &MultiAgentReplay,
    seed: u64,
) {
    let root = tracer.begin("probe.core", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let len = replay.len();
    let batch = config.batch_size.min(len);
    let layouts = replay.layouts();
    let n = layouts.len();

    if batch > 0 {
        let mut sampler = config.sampler.build(replay.capacity());
        for slot in 0..len {
            sampler.observe_push(slot);
        }
        let mut plan = SamplePlan::new();
        let ns = probe(tracer, budget, "core.plan", || {
            sampler.plan_into(len, batch, &mut rng, &mut plan).expect("plan over a filled replay");
        });
        out.set("core.plan_us", ns / 1e3);
        out.set("core.mean_run_len", plan.batch_len() as f64 / plan.segments.len().max(1) as f64);

        let mut gathered = MultiBatch::preallocate(&layouts, batch);
        let ns = probe(tracer, budget, "core.gather", || {
            replay.sample_into(black_box(&plan), &mut gathered).expect("gather a valid plan");
        });
        out.set("core.gather_us", ns / 1e3);

        if config.sampler.is_prioritized() {
            let tds: Vec<f32> = (0..batch).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            let indices = gathered.indices.clone();
            let ns = probe(tracer, budget, "core.priority_update", || {
                sampler.update_priorities(black_box(&indices), &tds);
            });
            out.set("core.priority_update_us", ns / 1e3);
        }
    }
    let rows = (n * n * batch) as f64;
    let bytes: usize = layouts.iter().map(TransitionLayout::row_bytes).sum::<usize>() * n * batch;
    out.set("core.gather_rows", rows);
    out.set("core.gather_bytes", bytes as f64);

    let mut sink = MultiAgentReplay::new(&layouts, 4096);
    let step: Vec<Transition> = layouts
        .iter()
        .map(|l| Transition {
            obs: vec![0.25; l.obs_dim],
            action: vec![0.0; l.act_dim],
            reward: 0.5,
            next_obs: vec![0.5; l.obs_dim],
            done: 0.0,
        })
        .collect();
    let ns = probe(tracer, budget, "core.push_step", || {
        sink.push_step(black_box(&step)).expect("one transition per agent");
    });
    out.set("core.push_step_us", ns / 1e3);
    tracer.end(root);
}

/// `marl-env` for the workload's scenario: scalar reset and step, and the
/// K=8 vectorized step, driven with uniformly random valid actions.
pub fn env(
    tracer: &mut Tracer,
    budget: ProbeBudget,
    out: &mut Outcome,
    config: &TrainConfig,
    seed: u64,
) {
    let root = tracer.begin("probe.env", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = config.task.make_env(config.agents, config.max_episode_len, seed);
    let joint_counts: Vec<usize> = env.action_spaces().iter().map(|s| s.joint_count()).collect();
    let n = joint_counts.len();

    let ns = probe(tracer, budget, "env.reset", || {
        black_box(env.reset());
    });
    out.set("env.reset_us", ns / 1e3);

    // A step past the horizon is still a full physics step, so the probe
    // does not have to interleave resets.
    let mut actions = vec![0usize; n];
    let ns = probe(tracer, budget, "env.step", || {
        for (a, &count) in actions.iter_mut().zip(&joint_counts) {
            *a = rng.gen_range(0..count);
        }
        black_box(env.step(&actions).expect("valid actions"));
    });
    out.set("env.step_us", ns / 1e3);

    const K: usize = 8;
    let mut venv = config.task.make_vec_env(config.agents, config.max_episode_len, seed, K);
    venv.reset();
    let mut vactions = vec![0usize; K * n];
    let mut rewards = vec![0.0f32; K * n];
    let ns = probe(tracer, budget, "env.vec_step", || {
        for (i, a) in vactions.iter_mut().enumerate() {
            *a = rng.gen_range(0..joint_counts[i % n]);
        }
        black_box(venv.step(&vactions, &mut rewards).expect("valid actions"));
    });
    out.set("env.vec_step_us_per_world", ns / 1e3 / K as f64);
    tracer.end(root);
}
