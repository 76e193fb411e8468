//! # marl-core
//!
//! The paper's primary contribution as a library: multi-agent replay
//! storage and the mini-batch sampling optimizations evaluated in
//! *"Characterizing and Optimizing the End-to-End Performance of
//! Multi-Agent Reinforcement Learning Systems"* (IISWC 2024).
//!
//! * [`multi`] — the replay store: every agent's ring of transitions,
//!   pushed in lockstep and sampled with a common indices array
//!   (Figure 5). Its address map is chosen at construction: agent-major
//!   (the baseline) or time-major, the paper's transition data layout
//!   reorganization into an interleaved key-value store (Section IV-B2,
//!   `O(N·m)` → `O(m)` gathers).
//! * [`sampler::uniform`] — the baseline random mini-batch sampling.
//! * [`sampler::locality`] — intra-agent cache locality-aware neighbor
//!   sampling (Algorithm 1).
//! * [`sampler::per`] — proportional prioritized replay (the PER-MADDPG
//!   baseline) with Lemma-1 importance weights.
//! * [`sampler::ip_locality`] — information-prioritized locality-aware
//!   sampling: priority-chosen reference points + the threshold neighbor
//!   predictor.
//! * [`snapshot`] — the layout-free binary replay snapshot, restored in
//!   place into either address map.
//! * [`stats`] — access-pattern statistics feeding the cache/TLB model.
//!
//! ## Quickstart
//!
//! ```
//! use marl_core::config::SamplerConfig;
//! use marl_core::multi::MultiAgentReplay;
//! use marl_core::transition::{Transition, TransitionLayout};
//! use rand::SeedableRng;
//!
//! let layouts = vec![TransitionLayout::new(16, 5); 3]; // 3 predators
//! let mut replay = MultiAgentReplay::new(&layouts, 100_000);
//! for t in 0..2048 {
//!     let step: Vec<Transition> = layouts
//!         .iter()
//!         .map(|l| Transition {
//!             obs: vec![t as f32; l.obs_dim],
//!             action: vec![0.0; l.act_dim],
//!             reward: 0.0,
//!             next_obs: vec![0.0; l.obs_dim],
//!             done: 0.0,
//!         })
//!         .collect();
//!     replay.push_step(&step)?;
//! }
//!
//! let mut sampler = SamplerConfig::LocalityN64R16.build(replay.capacity());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let plan = sampler.plan(replay.len(), 1024, &mut rng)?;
//! let batch = replay.sample(&plan)?;
//! assert_eq!(batch.len(), 1024);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod crc32;
pub mod error;
pub mod indices;
pub mod multi;
pub mod sampler;
pub mod snapshot;
pub mod stats;
pub mod sumtree;
pub mod transition;

pub use config::SamplerConfig;
pub use error::ReplayError;
pub use indices::{SamplePlan, Segment};
pub use multi::{LayoutMode, MultiAgentReplay};
pub use sampler::{Sampler, SamplerState};
pub use transition::{AgentBatch, MultiBatch, Transition, TransitionLayout, TransitionRef};
