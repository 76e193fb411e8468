//! The evaluation's configurations as cells, each run once.
//!
//! A [`Cell`] is one measurement: a training run, a timed plan+gather, a
//! cache/TLB simulation or a layout reshape. Its key is its own JSON, so a
//! `Train` key embeds its [`TrainConfig`] exactly as the golden headers
//! do, and two views that need the same configuration share one cell.
//! Every run parameter a cell does not carry is a constant of this module.
//!
//! A [`Store`] is `results/cells.jsonl`: one `{"cell":…,"result":…}` line
//! per cell, sorted by key, so re-running a cell rewrites its line in
//! place.

use crate::{obs_dim, synthetic_replay, time_sampling_iterations, PAPER_BATCH};
use marl_algo::eval::RewardCurve;
use marl_algo::{Algorithm, SamplingTelemetry, Task, TrainConfig, Trainer};
use marl_core::config::SamplerConfig;
use marl_core::multi::{LayoutMode, MultiAgentReplay};
use marl_core::transition::TransitionLayout;
use marl_perf::cache::CacheCounters;
use marl_perf::counters::HwCounters;
use marl_perf::phase::PhaseProfile;
use marl_perf::platform::PlatformSpec;
use marl_perf::trace::{BufferGeometry, GatherSegment, MemoryModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Replay capacity of the scaled training runs.
const TRAIN_CAPACITY: usize = 60_000;

/// Rows in the synthetic replay each `Gather` cell times.
pub(crate) const GATHER_ROWS: usize = 100_000;

/// Update iterations each `Gather` cell times, after one warm-up.
pub(crate) const GATHER_ITERS: usize = 20;

/// Rows per simulated buffer: the paper's full-scale capacity (synthetic
/// addresses need no real memory).
const SIM_CAPACITY: usize = 1_000_000;

/// Sampler seed of every simulation, on every platform preset.
const SIM_SEED: u64 = 42;

/// Update iterations each simulation counts, after one warm-up.
const SIM_ITERS: usize = 3;

/// Rows in the synthetic replay each `Layout` cell reshapes.
const LAYOUT_ROWS: usize = 60_000;

/// Update iterations one reshape amortizes over.
pub(crate) const LAYOUT_ITERS: usize = 16;

/// Measured windows per `Layout` cell, after one warm-up window.
pub(crate) const LAYOUT_WINDOWS: usize = 5;

/// A cache/TLB preset of the paper's evaluation platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Platform {
    /// AMD Ryzen Threadripper PRO 3975WX, the primary host.
    Ryzen,
    /// Intel i7-9700K, the Section VI-B cross-validation host.
    I7,
}

impl Platform {
    fn spec(self) -> PlatformSpec {
        match self {
            Platform::Ryzen => PlatformSpec::ryzen_3975wx(),
            Platform::I7 => PlatformSpec::i7_9700k(),
        }
    }
}

/// One distinct configuration of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// A training run: `prefill` random-policy rows, then `config`.
    Train {
        /// Everything the run needs, its episode budget included.
        config: TrainConfig,
        /// Rows pre-filled before training.
        prefill: usize,
    },
    /// Timed plan-only and plan+gather over a synthetic replay.
    Gather {
        /// Shapes the rows.
        task: Task,
        /// Buffers, and trainers per update iteration.
        agents: usize,
        /// The strategy timed.
        sampler: SamplerConfig,
    },
    /// The cache/TLB simulator replaying one sampler's gathers.
    Simulate {
        /// Cache and dTLB geometry.
        platform: Platform,
        /// Shapes the rows.
        task: Task,
        /// Buffers, and trainers per update iteration.
        agents: usize,
        /// The strategy replayed.
        sampler: SamplerConfig,
    },
    /// Uniform gathers on both address maps, and the reshape between them.
    Layout {
        /// Shapes the rows.
        task: Task,
        /// Buffers, and trainers per update iteration.
        agents: usize,
    },
}

/// What a `Train` cell records of its run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainRun {
    /// Wall-clock seconds of the training loop.
    pub wall_s: f64,
    /// Environment steps executed.
    pub env_steps: u64,
    /// Update-all-trainers iterations performed.
    pub updates: u64,
    /// Accumulated phase timings.
    pub profile: PhaseProfile,
    /// Per-episode mean rewards.
    pub curve: RewardCurve,
    /// Sampling-phase access statistics.
    pub sampling: SamplingTelemetry,
}

/// What a `Gather` cell records: per-batch microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatherTimes {
    /// Drawing one plan.
    pub plan_us: f64,
    /// Drawing one plan and gathering it from every buffer.
    pub plan_gather_us: f64,
}

/// What a `Simulate` cell records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimCounters {
    /// The `perf`-style counter snapshot.
    pub hw: HwCounters,
    /// Per-level cache counters.
    pub cache: CacheCounters,
}

/// What a `Layout` cell records: milliseconds per measured window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayoutWindows {
    /// Gathers on the agent-major map.
    pub baseline_ms: Vec<f64>,
    /// Gathers on the time-major (interleaved) map.
    pub interleaved_ms: Vec<f64>,
    /// The reshape from one map to the other.
    pub reshape_ms: Vec<f64>,
}

/// A cell's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Of a `Train` cell.
    Train(TrainRun),
    /// Of a `Gather` cell.
    Gather(GatherTimes),
    /// Of a `Simulate` cell.
    Simulate(SimCounters),
    /// Of a `Layout` cell.
    Layout(LayoutWindows),
}

/// The scaled training budget: the paper's hyper-parameters, with
/// episodes shrinking as agents grow so the large configurations stay
/// tractable (the reported quantities are shares and ratios, which
/// converge quickly).
fn scaled(
    algorithm: Algorithm,
    task: Task,
    agents: usize,
    sampler: SamplerConfig,
    seed: u64,
) -> TrainConfig {
    let episodes = match agents {
        0..=3 => 120,
        4..=6 => 80,
        7..=12 => 40,
        13..=24 => 16,
        _ => 8,
    };
    let mut config = TrainConfig::paper_defaults(algorithm, task, agents)
        .with_sampler(sampler)
        .with_episodes(episodes)
        .with_batch_size(256)
        .with_buffer_capacity(TRAIN_CAPACITY)
        .with_seed(seed);
    // Updates must actually run at every scale: warm up after exactly one
    // batch and update twice as often as the paper's cadence (its
    // 100-sample cadence assumes 60k-episode runs).
    config.warmup = config.batch_size;
    config.update_every = 50;
    config
}

impl Cell {
    /// A timed training run at the scaled budget, its replay pre-filled
    /// to 4/5 of capacity: the paper samples from up-to-1M-row buffers,
    /// so the gathers must not run against a cache-resident buffer.
    pub fn timed(
        algorithm: Algorithm,
        task: Task,
        agents: usize,
        sampler: SamplerConfig,
        seed: u64,
    ) -> Cell {
        let config = scaled(algorithm, task, agents, sampler, seed);
        Cell::Train { config, prefill: TRAIN_CAPACITY * 4 / 5 }
    }

    /// A MADDPG reward-curve run: the scaled budget on an empty replay,
    /// so the curve measures learning rather than random-policy data.
    pub fn learning(task: Task, agents: usize, sampler: SamplerConfig) -> Cell {
        Cell::Train { config: scaled(Algorithm::Maddpg, task, agents, sampler, 0), prefill: 0 }
    }

    /// The cell's identity: its own compact JSON.
    pub fn key(&self) -> String {
        serde_json::to_string(self).expect("a cell serializes")
    }

    /// Runs the measurement.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; every cell the views build
    /// is valid.
    pub fn run(&self) -> Outcome {
        match *self {
            Cell::Train { config, prefill } => {
                let mut trainer = Trainer::new(config).expect("valid training config");
                trainer.prefill(prefill).expect("prefill");
                let report = trainer.train().expect("training run");
                Outcome::Train(TrainRun {
                    wall_s: report.wall_time.as_secs_f64(),
                    env_steps: report.env_steps,
                    updates: report.update_iterations,
                    profile: report.profile,
                    curve: report.curve,
                    sampling: report.sampling,
                })
            }
            Cell::Gather { task, agents, sampler: cfg } => {
                let replay = synthetic_replay(task, agents, GATHER_ROWS);
                let mut sampler = cfg.build(GATHER_ROWS);
                if cfg.is_prioritized() {
                    // One push per stored row, so the trees cover the buffer.
                    (0..GATHER_ROWS).for_each(|slot| sampler.observe_push(slot));
                }
                let mut time = |iters, seed| {
                    time_sampling_iterations(
                        &replay,
                        sampler.as_mut(),
                        agents,
                        PAPER_BATCH,
                        iters,
                        seed,
                    )
                };
                time(1, 1);
                let plan_gather = time(GATHER_ITERS, 2);
                let batches = GATHER_ITERS * agents;
                let mut rng = StdRng::seed_from_u64(3);
                let t0 = Instant::now();
                for _ in 0..batches {
                    std::hint::black_box(
                        sampler.plan(GATHER_ROWS, PAPER_BATCH, &mut rng).expect("plan"),
                    );
                }
                let per_batch_us = |d: Duration| d.as_secs_f64() * 1e6 / batches as f64;
                Outcome::Gather(GatherTimes {
                    plan_us: per_batch_us(t0.elapsed()),
                    plan_gather_us: per_batch_us(plan_gather),
                })
            }
            Cell::Simulate { platform, task, agents, sampler: cfg } => {
                let row_bytes = TransitionLayout::new(obs_dim(task, agents), 5).row_bytes();
                let geometry = BufferGeometry::layout(agents, SIM_CAPACITY, row_bytes);
                let mut model = MemoryModel::new(&platform.spec());
                let mut sampler = cfg.build(SIM_CAPACITY);
                let mut rng = StdRng::seed_from_u64(SIM_SEED);
                for iter in 0..=SIM_ITERS {
                    if iter == 1 {
                        // Iteration 0 warmed the caches; count from here.
                        model.reset_counters();
                    }
                    for _ in 0..agents {
                        let plan = sampler.plan(SIM_CAPACITY, PAPER_BATCH, &mut rng).expect("plan");
                        let segments: Vec<GatherSegment> = plan
                            .segments
                            .iter()
                            .map(|s| GatherSegment { start_row: s.start, rows: s.len })
                            .collect();
                        for geom in &geometry {
                            model.replay_gather(geom, &segments);
                        }
                    }
                }
                Outcome::Simulate(SimCounters {
                    hw: model.counters(),
                    cache: model.cache_counters(),
                })
            }
            Cell::Layout { task, agents } => {
                let replay = synthetic_replay(task, agents, LAYOUT_ROWS);
                let mut sampler = SamplerConfig::Uniform.build(LAYOUT_ROWS);
                let mut time = |store: &MultiAgentReplay| {
                    let d = time_sampling_iterations(
                        store,
                        sampler.as_mut(),
                        agents,
                        PAPER_BATCH,
                        LAYOUT_ITERS,
                        1,
                    );
                    d.as_secs_f64() * 1e3
                };
                let mut windows = LayoutWindows::default();
                // Window 0 warms the caches and the allocator, and is not
                // recorded.
                for window in 0..=LAYOUT_WINDOWS {
                    let baseline = time(&replay);
                    let t0 = Instant::now();
                    let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
                    let reshape = t0.elapsed().as_secs_f64() * 1e3;
                    let interleaved = time(&store);
                    if window > 0 {
                        windows.baseline_ms.push(baseline);
                        windows.interleaved_ms.push(interleaved);
                        windows.reshape_ms.push(reshape);
                    }
                }
                Outcome::Layout(windows)
            }
        }
    }
}

/// One line of the cells file.
#[derive(Serialize, Deserialize)]
struct Line {
    cell: Cell,
    result: Outcome,
}

/// The recorded cells: each key's outcome, in key order.
#[derive(Debug, Default)]
pub struct Store {
    outcomes: BTreeMap<String, Outcome>,
}

impl Store {
    /// Parses a cells file.
    ///
    /// # Errors
    ///
    /// Names the first line that does not parse, pairs a cell with
    /// another kind's result, or repeats a cell.
    pub fn parse(text: &str) -> Result<Store, String> {
        let mut store = Store::default();
        for (i, line) in text.lines().enumerate() {
            let Line { cell, result } =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let same_kind = matches!(
                (&cell, &result),
                (Cell::Train { .. }, Outcome::Train(_))
                    | (Cell::Gather { .. }, Outcome::Gather(_))
                    | (Cell::Simulate { .. }, Outcome::Simulate(_))
                    | (Cell::Layout { .. }, Outcome::Layout(_))
            );
            if !same_kind {
                return Err(format!("line {}: the result is another kind of cell's", i + 1));
            }
            if store.outcomes.insert(cell.key(), result).is_some() {
                return Err(format!("line {}: cell {} is recorded twice", i + 1, cell.key()));
            }
        }
        Ok(store)
    }

    /// The cells file: one line per cell, sorted by key.
    pub fn to_jsonl(&self) -> String {
        self.outcomes
            .iter()
            .map(|(key, outcome)| {
                let result = serde_json::to_string(outcome).expect("an outcome serializes");
                format!("{{\"cell\":{key},\"result\":{result}}}\n")
            })
            .collect()
    }

    /// Whether `cell` is recorded.
    pub fn contains(&self, cell: &Cell) -> bool {
        self.outcomes.contains_key(&cell.key())
    }

    /// Records (or replaces) `cell`'s outcome.
    pub fn insert(&mut self, cell: &Cell, outcome: Outcome) {
        self.outcomes.insert(cell.key(), outcome);
    }

    fn get(&self, cell: &Cell) -> &Outcome {
        self.outcomes
            .get(&cell.key())
            .unwrap_or_else(|| panic!("cell {} is not recorded", cell.key()))
    }

    /// A `Train` cell's run.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not recorded or is not a `Train` cell.
    pub(crate) fn train(&self, cell: Cell) -> &TrainRun {
        match self.get(&cell) {
            Outcome::Train(run) => run,
            other => panic!("{} recorded {other:?}", cell.key()),
        }
    }

    /// A `Gather` cell's times (panics as [`Store::train`] does).
    pub(crate) fn gather(&self, cell: Cell) -> GatherTimes {
        match self.get(&cell) {
            Outcome::Gather(times) => *times,
            other => panic!("{} recorded {other:?}", cell.key()),
        }
    }

    /// A `Simulate` cell's counters (panics as [`Store::train`] does).
    pub(crate) fn simulate(&self, cell: Cell) -> SimCounters {
        match self.get(&cell) {
            Outcome::Simulate(counters) => *counters,
            other => panic!("{} recorded {other:?}", cell.key()),
        }
    }

    /// A `Layout` cell's windows (panics as [`Store::train`] does).
    pub(crate) fn layout(&self, cell: Cell) -> &LayoutWindows {
        match self.get(&cell) {
            Outcome::Layout(windows) => windows,
            other => panic!("{} recorded {other:?}", cell.key()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_refuses_repeated_cells_and_mismatched_results() {
        let cell =
            Cell::Gather { task: Task::PredatorPrey, agents: 3, sampler: SamplerConfig::Uniform };
        let mut store = Store::default();
        store.insert(&cell, Outcome::Gather(GatherTimes { plan_us: 1.5, plan_gather_us: 2.25 }));
        let line = store.to_jsonl();
        assert_eq!(Store::parse(&line).expect("a written line parses").to_jsonl(), line);
        let twice = Store::parse(&line.repeat(2)).expect_err("a repeated cell is refused");
        assert!(twice.contains("recorded twice"), "{twice}");
        let layout = line.replace(
            r#"{"Gather":{"task":"predator-prey","agents":3,"sampler":"Uniform"}}"#,
            r#"{"Layout":{"task":"predator-prey","agents":3}}"#,
        );
        let mismatched = Store::parse(&layout).expect_err("a Layout cell needs Layout windows");
        assert!(mismatched.contains("another kind"), "{mismatched}");
    }
}
