//! # marl-repro
//!
//! End-to-end reproduction of *"Characterizing and Optimizing the
//! End-to-End Performance of Multi-Agent Reinforcement Learning Systems"*
//! (IISWC 2024) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`nn`] — dense network substrate (matrices, MLPs, Adam,
//!   Gumbel-softmax);
//! * [`env`](mod@env) — the multi-agent particle environments (predator-prey,
//!   cooperative navigation);
//! * [`core`] — replay storage plus the paper's sampling optimizations
//!   (locality-aware, PER, information-prioritized, layout reorganization);
//! * [`perf`] — phase timers and the cache/TLB simulator standing in for
//!   hardware counters;
//! * [`obs`] — runtime telemetry: zero-allocation span tracing, the
//!   metrics registry with JSONL/Prometheus exporters, and the live
//!   `perf_event` counter backend;
//! * [`algo`] — MADDPG / MATD3 / PER-MADDPG trainers;
//! * [`dist`] — the fault-tolerant distributed actor–learner runtime
//!   (CRC-framed transports, heartbeat supervision, quarantine,
//!   reconnect with backoff, worker-process restart);
//! * [`serve`] — micro-batched policy inference serving over the MARD
//!   wire format (adaptive batching, zero-allocation request path, hot
//!   checkpoint reload).
//!
//! It also owns [`cli`], the training and telemetry flag parser the
//! `marl-train` and `marl-learner` binaries share.
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```no_run
//! use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
//! use marl_repro::core::SamplerConfig;
//!
//! let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
//!     .with_sampler(SamplerConfig::LocalityN64R16)
//!     .with_episodes(100);
//! let mut trainer = Trainer::new(config)?;
//! let report = trainer.train()?;
//! println!("trained {} episodes in {:?}", report.curve.len(), report.wall_time);
//! # Ok::<(), marl_repro::algo::TrainError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use marl_algo as algo;
pub use marl_core as core;
pub use marl_dist as dist;
pub use marl_env as env;
pub use marl_nn as nn;
pub use marl_obs as obs;
pub use marl_perf as perf;
pub use marl_serve as serve;
