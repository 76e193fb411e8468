//! # marl-bench
//!
//! The paper's evaluation (Table I; Figures 2–4, 6, 8–14; the §VI-A and
//! §VI-C claims) as one sweep, plus the `marl-fleet` multi-process trace
//! orchestrator:
//!
//! * [`cells`] — one [`cells::Cell`] per distinct configuration (a
//!   training run, a timed gather, a cache/TLB simulation, a layout
//!   reshape), each keyed by its own JSON and run once into
//!   `results/cells.jsonl`;
//! * [`views`] — one pure function per `results/<view>.txt`, rendering
//!   a paper table or figure from the cells it lists.
//!
//! `cargo run -p marl-bench --release --bin repro [VIEW…]` runs the cells
//! the views need that the file does not hold yet, then renders the views.
//!
//! This crate reproduces the paper's figures; it does not measure the
//! system for regressions. That is `bench_e2e` (`benchmark/run.sh`), the
//! one harness whose workloads and per-layer metrics every performance
//! claim is compared on.

#![warn(missing_docs)]

pub mod cells;
pub mod views;

use cells::TrainRun;
use marl_algo::TrainConfig;
use marl_core::multi::MultiAgentReplay;
use marl_core::sampler::Sampler;
use marl_core::transition::{Transition, TransitionLayout};
use marl_perf::phase::Phase;
use marl_perf::platform::TransferModel;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Batch size used throughout the paper.
pub(crate) const PAPER_BATCH: usize = 1024;

/// Observation dimension of the trained agents for a task at `n` agents
/// (taken from a freshly constructed environment, so it always matches the
/// env crate).
pub(crate) fn obs_dim(task: marl_algo::Task, n: usize) -> usize {
    let env = task.make_env(n, 25, 0);
    // Widths can be heterogeneous (physical deception); use the widest,
    // which bounds the gather traffic.
    env.observation_spaces().iter().map(|s| s.dim).max().unwrap_or(0)
}

/// Builds a filled synthetic multi-agent replay shaped like `task` at `n`
/// agents: realistic row widths, `rows` aligned transitions.
pub(crate) fn synthetic_replay(task: marl_algo::Task, n: usize, rows: usize) -> MultiAgentReplay {
    let od = obs_dim(task, n);
    let layouts = vec![TransitionLayout::new(od, 5); n];
    let mut replay = MultiAgentReplay::new(&layouts, rows);
    let mut rng = StdRng::seed_from_u64(7);
    let mut step: Vec<Transition> = layouts
        .iter()
        .map(|l| Transition {
            obs: vec![0.0; l.obs_dim],
            action: vec![0.0; l.act_dim],
            reward: 0.0,
            next_obs: vec![0.0; l.obs_dim],
            done: 0.0,
        })
        .collect();
    for _ in 0..rows {
        for t in &mut step {
            // Cheap variation so rows are not trivially identical.
            t.obs[0] = rng.gen();
            t.reward = rng.gen();
        }
        replay.push_step(&step).expect("synthetic push");
    }
    replay
}

/// Times `iters` full update-iteration gathers (each of the `trainers`
/// trainers plans and samples from all buffers) and returns the total
/// duration.
pub(crate) fn time_sampling_iterations(
    replay: &MultiAgentReplay,
    sampler: &mut dyn Sampler,
    trainers: usize,
    batch: usize,
    iters: usize,
    seed: u64,
) -> Duration {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    for _ in 0..iters {
        for _ in 0..trainers {
            let plan = sampler.plan(replay.len(), batch, &mut rng).expect("plan");
            std::hint::black_box(replay.sample(&plan).expect("sample"));
        }
    }
    t0.elapsed()
}

/// Converts simulated cache-hierarchy counters into an estimated access
/// time using textbook per-level latencies (L1 1 ns, L2 3.5 ns, L3 12.5 ns,
/// DRAM 62.5 ns at ~4 GHz). Used by the cross-platform figures where the
/// paper measured on hardware we do not have.
pub(crate) fn estimated_access_time(c: &marl_perf::cache::CacheCounters) -> Duration {
    let l1_hits = c.accesses.saturating_sub(c.l1_misses) as f64;
    let l2_hits = c.l1_misses.saturating_sub(c.l2_misses) as f64;
    let l3_hits = c.l2_misses.saturating_sub(c.l3_misses) as f64;
    let dram = c.l3_misses as f64;
    Duration::from_secs_f64((l1_hits * 1.0 + l2_hits * 3.5 + l3_hits * 12.5 + dram * 62.5) * 1e-9)
}

/// Dense-math speedup of an RTX-class GPU over one CPU core on the
/// update's matmuls.
const GPU_SPEEDUP: f64 = 100.0;

/// Python/NumPy per-row gather cost (µs) in the sampling phase: the
/// paper's baseline gathers `N²·B` rows per update with fancy indexing.
const PY_ROW_US: f64 = 4.0;

/// Per-call framework costs of the TF1-era stack the paper measured, in
/// µs. Two hosts need different values, hence two presets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FrameworkCosts {
    /// `session.run` launch latency per agent per environment step (why
    /// action selection costs 20–60 % in the paper despite tiny networks).
    pub launch_us: f64,
    /// Per-target-actor `session.run` cost inside one trainer's target-Q
    /// calculation (N calls per trainer).
    pub net_call_us: f64,
}

impl FrameworkCosts {
    /// The paper's primary host (RTX 3090), calibrated to TF
    /// `session.run` latency.
    pub const RTX3090: FrameworkCosts = FrameworkCosts { launch_us: 300.0, net_call_us: 500.0 };

    /// The GTX 1070 cross-validation host: every call additionally
    /// launches a kernel and synchronizes the device across PCIe,
    /// roughly doubling the per-call overheads.
    pub const GTX1070: FrameworkCosts = FrameworkCosts { launch_us: 600.0, net_call_us: 1000.0 };
}

/// The GPU-substrate model used to reinterpret measured CPU phase times as
/// the paper's TensorFlow + GPU stack would see them (Figures 2/3/6/12/13).
///
/// * Dense network phases (action-selection inference, target-Q,
///   Q-loss/P-loss) run 100× faster than our CPU.
/// * Each per-step action selection pays a framework launch per agent
///   ([`FrameworkCosts::launch_us`]).
/// * Each update iteration uploads the joint mini-batch over PCIe 4.0.
/// * Mini-batch sampling stays on the CPU unchanged — the paper's central
///   premise — plus 4 µs of Python/NumPy dispatch per gathered row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpuModeledBreakdown {
    /// Modeled action-selection seconds.
    pub action_selection: f64,
    /// Measured (CPU) mini-batch sampling seconds.
    pub sampling: f64,
    /// Modeled target-Q seconds.
    pub target_q: f64,
    /// Modeled Q-loss/P-loss (+soft update) seconds.
    pub q_loss_p_loss: f64,
    /// Environment + bookkeeping seconds (unchanged).
    pub other: f64,
}

impl GpuModeledBreakdown {
    /// Derives the modeled breakdown of the run `config` produced, under
    /// one host's framework `costs`. The loss phase also pays a fixed 2 ms
    /// critic/optimizer call per trainer per update.
    pub fn from_run(config: &TrainConfig, run: &TrainRun, costs: FrameworkCosts) -> Self {
        let transfer = TransferModel::pcie4_x16();
        let p = &run.profile;
        let n = config.agents as f64;
        let updates = run.updates as f64;
        let batch = config.batch_size as f64;
        let od = obs_dim(config.task, config.agents) as f64;
        let batch_bytes = (batch * n * (od + 5.0) * 4.0) as usize;
        // One upload per agent trainer per update.
        let per_update_transfer = transfer.transfer_time(batch_bytes).as_secs_f64() * n;
        let action_selection = p.get(Phase::ActionSelection).as_secs_f64() / GPU_SPEEDUP
            + run.env_steps as f64 * n * costs.launch_us * 1e-6;
        // Sampling stays on the CPU; the framework pays per-row dispatch
        // over the N buffers of each of the N trainers.
        let sampling = p.get(Phase::MiniBatchSampling).as_secs_f64()
            + updates * n * n * batch * PY_ROW_US * 1e-6;
        let target_q = p.get(Phase::TargetQ).as_secs_f64() / GPU_SPEEDUP
            + updates * n * n * costs.net_call_us * 1e-6 // N trainers × N target actors
            + updates * per_update_transfer * 0.5;
        let q_loss_p_loss = (p.get(Phase::QLossPLoss) + p.get(Phase::SoftUpdate)).as_secs_f64()
            / GPU_SPEEDUP
            + updates * n * 2_000.0 * 1e-6 // critic/actor optimizer calls per trainer
            + updates * per_update_transfer * 0.5;
        GpuModeledBreakdown {
            action_selection,
            sampling,
            target_q,
            q_loss_p_loss,
            other: (p.get(Phase::EnvironmentStep) + p.get(Phase::Bookkeeping)).as_secs_f64(),
        }
    }

    /// Modeled total seconds.
    pub fn total(&self) -> f64 {
        self.action_selection + self.sampling + self.target_q + self.q_loss_p_loss + self.other
    }

    /// Modeled update-all-trainers seconds.
    pub fn update_all_trainers(&self) -> f64 {
        self.sampling + self.target_q + self.q_loss_p_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_algo::Task;
    use marl_core::config::SamplerConfig;

    #[test]
    fn obs_dims_match_paper() {
        assert_eq!(obs_dim(Task::PredatorPrey, 3), 16);
        assert_eq!(obs_dim(Task::PredatorPrey, 24), 98);
        assert_eq!(obs_dim(Task::CooperativeNavigation, 3), 18);
        assert_eq!(obs_dim(Task::CooperativeNavigation, 24), 144);
    }

    #[test]
    fn synthetic_replay_fills() {
        let r = synthetic_replay(Task::PredatorPrey, 3, 500);
        assert_eq!(r.len(), 500);
        assert_eq!(r.agent_count(), 3);
    }

    #[test]
    fn sampling_iterations_take_time() {
        let r = synthetic_replay(Task::CooperativeNavigation, 3, 2000);
        let mut s = SamplerConfig::Uniform.build(2000);
        let d = time_sampling_iterations(&r, s.as_mut(), 3, 256, 2, 0);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn gpu_model_scales_with_counts() {
        use marl_algo::{Algorithm, TrainConfig};
        let model = |agents: usize, steps: u64, updates: u64, costs: FrameworkCosts| {
            let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, agents);
            let run = TrainRun { env_steps: steps, updates, ..TrainRun::default() };
            GpuModeledBreakdown::from_run(&config, &run, costs)
        };
        let small = model(3, 1000, 10, FrameworkCosts::RTX3090);
        let big = model(12, 1000, 10, FrameworkCosts::RTX3090);
        // More agents => more launches, more gathers, more net calls.
        assert!(big.action_selection > small.action_selection);
        assert!(big.sampling > small.sampling);
        assert!(big.target_q > small.target_q);
        // Update share rises with agent count at fixed steps/updates.
        let share = |m: &GpuModeledBreakdown| m.update_all_trainers() / m.total();
        assert!(share(&big) > share(&small));
        // And with update frequency at fixed agents.
        let busy = model(3, 1000, 40, FrameworkCosts::RTX3090);
        assert!(share(&busy) > share(&small));
        // The GTX 1070 host pays more per framework call.
        let gtx = model(3, 1000, 10, FrameworkCosts::GTX1070);
        assert!(gtx.action_selection > small.action_selection);
        assert!(gtx.target_q > small.target_q);
    }
}
