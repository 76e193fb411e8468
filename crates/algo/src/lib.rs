//! # marl-algo
//!
//! MADDPG and MATD3 trainers with centralized-training decentralized-
//! execution over the particle environments, instrumented with the phase
//! timers the paper's characterization uses.
//!
//! * [`config`] — the paper's hyper-parameters (two-layer 64-unit ReLU
//!   MLPs, Adam @ 0.01, γ = 0.95, τ = 0.01, batch 1024, updates every 100
//!   samples) plus builder-style overrides for scaled runs.
//! * [`agent`] — the four (six for MATD3) networks of one agent.
//! * [`rollout`] — the one rollout loop's state (K worlds, noise streams,
//!   step buffers), shared by the trainer and the dist worker.
//! * [`trainer`] — the training loop, decomposed into the paper's phases:
//!   action selection / environment step / bookkeeping / mini-batch
//!   sampling / target-Q / Q-loss–P-loss / soft updates.
//! * [`eval`] — reward-curve recording for Figures 10–11.
//!
//! Swapping the mini-batch sampling strategy is a one-liner via
//! [`marl_core::config::SamplerConfig`], which is how the paper's
//! optimizations are evaluated:
//!
//! ```no_run
//! use marl_algo::config::{Algorithm, Task, TrainConfig};
//! use marl_algo::trainer::train;
//! use marl_core::config::SamplerConfig;
//!
//! let baseline = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
//! let optimized = baseline.with_sampler(SamplerConfig::LocalityN64R16);
//! let a = train(baseline)?;
//! let b = train(optimized)?;
//! println!("speedup: {:.2}x", a.wall_time.as_secs_f64() / b.wall_time.as_secs_f64());
//! # Ok::<(), marl_algo::error::TrainError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod eval;
pub mod explore;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod rollout;
pub mod sentinel;
pub mod trace;
pub mod trainer;
mod update;

pub use agent::AgentNets;
pub use checkpoint::{
    load_checkpoint_with_fallback, read_checkpoint_file, write_checkpoint_file, AgentState,
    Checkpoint, RunState,
};
pub use config::{Algorithm, LayoutMode, Task, TrainConfig};
pub use error::TrainError;
pub use eval::RewardCurve;
pub use explore::{ExplorationSchedule, LinearSchedule};
pub use rollout::Rollout;
pub use sentinel::{DivergenceReport, SentinelConfig};
pub use trace::{UpdateDigest, UpdateTraceRecorder};
pub use trainer::{train, SamplingTelemetry, TrainReport, Trainer};
