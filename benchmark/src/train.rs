//! The four single-process workloads: two that train (`train-pp3`,
//! `train-cn12-per`) and two that only collect experience
//! (`rollout-wc-k1`, `rollout-wc-k8`). One operation is one environment
//! step. The unit of work whose median time is reported is one
//! `Trainer::run_episode` call on the rollout workloads and one full
//! update cycle on the train workloads: the episodes between two updates
//! and the update itself (two of each under MATD3's policy delay, whose
//! updates alternate between critic-only and critic-plus-policy).

use crate::probes::{self, ProbeBudget};
use crate::report::{Gate, Outcome};
use crate::trace::Tracer;
use crate::{common, stats, RunArgs};
use marl_algo::trace::{UpdateDigest, UpdateTraceRecorder};
use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_core::config::SamplerConfig;
use marl_nn::kernels;
use marl_perf::phase::Phase;
use std::hint::black_box;
use std::time::Instant;

/// Share of the timed wall the trainer's own phase profile may leave
/// unexplained before the phase breakdown counts as unreliable.
const UNATTRIBUTED_LIMIT: f64 = 0.05;

struct Spec {
    config: TrainConfig,
    /// No update ever runs (`warmup = usize::MAX`).
    rollout_only: bool,
    /// Updates in the same-seed digest check (each costs ~0.6 s at N=12).
    digest_updates: u64,
    /// Direct `update_all_trainers` calls timed after the run.
    update_probes: usize,
}

fn spec(name: &str, seed: u64, smoke: bool) -> Option<Spec> {
    let spec = match name {
        "train-pp3" => Spec {
            config: TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3),
            rollout_only: false,
            digest_updates: if smoke { 2 } else { 5 },
            update_probes: if smoke { 2 } else { 30 },
        },
        "train-cn12-per" => Spec {
            config: TrainConfig::paper_defaults(Algorithm::Matd3, Task::CooperativeNavigation, 12)
                .with_sampler(SamplerConfig::Per),
            rollout_only: false,
            digest_updates: if smoke { 1 } else { 2 },
            update_probes: if smoke { 1 } else { 6 },
        },
        "rollout-wc-k1" | "rollout-wc-k8" => {
            let mut config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::WorldComm, 3)
                .with_num_envs(if name.ends_with("k8") { 8 } else { 1 });
            config.warmup = usize::MAX;
            Spec { config, rollout_only: true, digest_updates: 0, update_probes: 0 }
        }
        _ => return None,
    };
    Some(Spec { config: spec.config.with_seed(seed), ..spec })
}

pub fn handles(name: &str) -> bool {
    spec(name, 0, false).is_some()
}

/// Everything before the first timed episode: model build, replay prefill
/// past `warmup`, and warm-up episodes up to and including the first
/// update, which sizes every scratch arena.
fn set_up(spec: &Spec) -> Result<Trainer, String> {
    let mut trainer = Trainer::new(spec.config).map_err(|e| e.to_string())?;
    if spec.rollout_only {
        trainer.run_episode().map_err(|e| e.to_string())?;
    } else {
        trainer.prefill(spec.config.warmup).map_err(|e| e.to_string())?;
        while trainer.update_iterations() == 0 {
            trainer.run_episode().map_err(|e| e.to_string())?;
        }
    }
    Ok(trainer)
}

fn update_digests(config: TrainConfig, updates: u64) -> Result<Vec<UpdateDigest>, String> {
    let mut trainer = Trainer::new(config).map_err(|e| e.to_string())?;
    trainer.prefill(config.warmup).map_err(|e| e.to_string())?;
    trainer.attach_trace_recorder(UpdateTraceRecorder::new());
    while trainer.update_iterations() < updates {
        trainer.run_episode().map_err(|e| e.to_string())?;
    }
    Ok(trainer.detach_trace_recorder().expect("recorder attached above").into_digests())
}

/// Same-seed determinism (train) or K=1 vectorized == scalar (rollout),
/// checked on fresh trainers before anything is timed.
fn pre_checks(spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    if spec.rollout_only {
        let config = spec.config.with_num_envs(1);
        let scalar =
            Trainer::new(config).and_then(|mut t| t.run_episode()).map_err(|e| e.to_string())?;
        let vector = Trainer::new(config)
            .and_then(|mut t| t.run_episode_vec())
            .map_err(|e| e.to_string())?;
        out.check(scalar.to_bits() == vector.to_bits(), || {
            format!("K=1 vectorized first-episode reward {vector} != scalar {scalar}")
        });
    } else {
        let updates = spec.digest_updates;
        let a = update_digests(spec.config, updates)?;
        let b = update_digests(spec.config, updates)?;
        out.check(a.len() as u64 == updates && a == b, || {
            format!("same-seed {updates}-update digest chains differ ({} vs {})", a.len(), b.len())
        });
    }
    Ok(())
}

pub fn run(name: &str, args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    let spec =
        spec(name, args.seed, args.smoke).ok_or_else(|| format!("unknown workload {name}"))?;
    let cfg = spec.config;
    let mut out = Outcome::default();

    let (mut trainer, setup_s) = common::median_set_up(args, || set_up(&spec))?;
    pre_checks(&spec, &mut out)?;

    let profile0 = trainer.profile().clone();
    let steps0 = trainer.env_steps();
    let updates0 = trainer.update_iterations();
    let pending0 = trainer.samples_since_update() as u64;
    kernels::reset_dispatch_tally();

    // A cycle of the update schedule: `update_every` samples, times the
    // policy delay where updates alternate. The section starts and stops
    // on a cycle boundary, so it holds whole cycles: with ~16 updates in a
    // run of `train-cn12-per`, one more or fewer would move the rate 6%.
    let cycle_updates = match cfg.algorithm {
        Algorithm::Matd3 => cfg.policy_delay.max(1) as u64,
        Algorithm::Maddpg => 1,
    };
    let start = Instant::now();
    let deadline = start + args.timed();
    let mut episode_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut cycle_ns: Vec<u64> = Vec::new();
    let (mut last, mut cycle_start) = (start, start);
    loop {
        let span = tracer.begin("algo.run_episode", episode_ns.len() as u64);
        let reward = trainer.run_episode().map_err(|e| e.to_string())?;
        tracer.end(span);
        let now = Instant::now();
        episode_ns.push((now - last).as_nanos() as u64);
        last = now;
        if !black_box(reward).is_finite() {
            out.errors.push(format!("episode {} returned reward {reward}", episode_ns.len()));
        }
        let on_boundary = spec.rollout_only
            || (trainer.samples_since_update() as u64 == pending0
                && (trainer.update_iterations() - updates0) % cycle_updates == 0);
        if on_boundary && !spec.rollout_only {
            cycle_ns.push((now - cycle_start).as_nanos() as u64);
            cycle_start = now;
        }
        if now >= deadline && on_boundary {
            break;
        }
    }
    let wall = (last - start).as_secs_f64();
    let (scalar_calls, simd_calls) = kernels::dispatch_tally();

    let episodes = episode_ns.len() as u64;
    let steps = trainer.env_steps() - steps0;
    let updates = trainer.update_iterations() - updates0;
    let want_steps = episodes * (cfg.max_episode_len * cfg.num_envs()) as u64;
    let want_updates =
        if spec.rollout_only { 0 } else { (pending0 + steps) / cfg.update_every as u64 };
    out.check(steps == want_steps, || format!("env_steps {steps}, expected {want_steps}"));
    out.check(updates == want_updates, || {
        format!("update_iterations {updates}, expected {want_updates}")
    });
    let states = trainer.agent_states();
    let finite = states.iter().all(|a| {
        [&a.actor, &a.target_actor, &a.critic, &a.target_critic]
            .iter()
            .all(|net| net.max_abs_param().is_finite())
    });
    out.check(finite, || "a network parameter is not finite after the run".to_owned());

    out.attempted = steps;
    out.size("episodes", episodes as f64, "count");
    out.size("env_steps", steps as f64, "count");
    out.size("updates", updates as f64, "count");
    out.size("agents", cfg.agents as f64, "count");
    out.size("batch_size", cfg.batch_size as f64, "rows");
    out.size("num_envs", cfg.num_envs() as f64, "count");
    out.size("replay_len", trainer.replay_len() as f64, "rows");

    let ops_per_s = steps as f64 / wall;
    episode_ns.sort_unstable();
    cycle_ns.sort_unstable();
    let unit_ns = if spec.rollout_only { &episode_ns } else { &cycle_ns };
    let p50_us = stats::percentile(unit_ns, 0.50) as f64 / 1e3;
    out.size("units_of_work", unit_ns.len() as f64, "count");
    if !args.trace {
        out.set("ops_per_s", ops_per_s);
        out.set("op_p50_us", p50_us);
        out.set("setup_s", setup_s);
        return Ok(out);
    }

    // Phase shares come from the trainer's own `PhaseProfile`
    // (`marl-perf`), read from outside over the timed section.
    let profile = trainer.profile();
    let delta = |p: Phase| (profile.get(p).as_secs_f64() - profile0.get(p).as_secs_f64()) / wall;
    let shares = [
        ("algo.phase.action_selection_share", Phase::ActionSelection),
        ("algo.phase.environment_step_share", Phase::EnvironmentStep),
        ("algo.phase.bookkeeping_share", Phase::Bookkeeping),
        ("algo.phase.mini_batch_sampling_share", Phase::MiniBatchSampling),
        ("algo.phase.target_q_share", Phase::TargetQ),
        ("algo.phase.q_loss_p_loss_share", Phase::QLossPLoss),
        ("algo.phase.soft_update_share", Phase::SoftUpdate),
    ];
    let mut attributed = 0.0;
    for (metric, phase) in shares {
        let share = delta(phase);
        attributed += share;
        out.set(metric, share);
    }
    let unattributed = 1.0 - attributed;
    out.set("algo.unattributed_share", unattributed);
    out.gates.push(Gate::at_most("algo.unattributed_share", unattributed, UNATTRIBUTED_LIMIT));
    out.set("algo.episode_p50_us", stats::percentile(&episode_ns, 0.50) as f64 / 1e3);
    out.set("algo.episode_p95_us", common::tail_us(&episode_ns, 0.95, "algo.episode_p95_us"));
    out.set("algo.updates", updates as f64);
    out.set("algo.env_steps", steps as f64);
    out.set(
        "nn.simd_dispatch_share",
        simd_calls as f64 / ((scalar_calls + simd_calls).max(1)) as f64,
    );
    out.set("obs.traced_ops_per_s", ops_per_s);
    out.set("obs.traced_op_p50_us", p50_us);
    out.set("obs.timed_wall_s", wall);

    let budget = ProbeBudget::new(args.smoke);
    if spec.update_probes > 0 {
        let root = tracer.begin("probe.algo", 0);
        let mut update_ns: Vec<u64> = Vec::with_capacity(spec.update_probes);
        for i in 0..spec.update_probes {
            let t0 = Instant::now();
            let span = tracer.begin("algo.update_all_trainers", i as u64);
            trainer.update_all_trainers().map_err(|e| e.to_string())?;
            tracer.end(span);
            update_ns.push(t0.elapsed().as_nanos() as u64);
        }
        tracer.end(root);
        update_ns.sort_unstable();
        out.set("algo.update_p50_ms", stats::percentile(&update_ns, 0.50) as f64 / 1e6);
        out.set("algo.update_p90_ms", stats::percentile(&update_ns, 0.90) as f64 / 1e6);
    }
    let env = cfg.task.make_env(cfg.agents, cfg.max_episode_len, cfg.seed);
    let segments = env.action_spaces()[0].segments().to_vec();
    let infer_rows = if cfg.num_envs() > 1 { cfg.num_envs() } else { 32 };
    let shapes = probes::NnShapes { batch: cfg.batch_size, infer_rows, segments: &segments };
    probes::nn(tracer, budget, &mut out, &states[0], shapes, args.seed);
    if let Some(replay) = trainer.replay() {
        probes::core(tracer, budget, &mut out, &cfg, replay, args.seed);
    }
    probes::env(tracer, budget, &mut out, &cfg, args.seed);
    Ok(out)
}
