//! # marl-perf
//!
//! The measurement substrate of the reproduction:
//!
//! * [`phase`] — wall-clock phase timers matching the paper's training-time
//!   decomposition (action selection / update-all-trainers / sub-phases);
//! * [`cache`], [`tlb`], [`trace`] — a trace-driven cache + dTLB simulator
//!   that stands in for the `perf` hardware counters (see DESIGN.md for the
//!   substitution argument);
//! * [`platform`] — presets for the paper's two CPUs (Ryzen 3975WX,
//!   i7-9700K) and the PCIe host↔device transfer model used in the
//!   cross-platform study;
//! * [`counters`] — counter snapshots and Figure-4 growth-rate arithmetic;
//! * [`report`] — plain-text tables for the `repro` views and the CLI.
//!
//! ## Quickstart
//!
//! ```
//! use marl_perf::platform::PlatformSpec;
//! use marl_perf::trace::{BufferGeometry, GatherSegment, MemoryModel};
//!
//! let mut model = MemoryModel::new(&PlatformSpec::ryzen_3975wx());
//! let geom = BufferGeometry { base_addr: 0, row_bytes: 156 };
//! model.replay_gather(&geom, &[GatherSegment { start_row: 0, rows: 1024 }]);
//! assert!(model.counters().instructions > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod counters;
pub mod phase;
pub mod platform;
pub mod report;
pub mod tlb;
pub mod trace;

pub use cache::{CacheConfig, CacheHierarchy};
pub use counters::{growth_rates, GrowthRates, HwCounters};
pub use phase::{Phase, PhaseProfile};
pub use platform::{PlatformSpec, TransferModel};
pub use report::Table;
pub use tlb::{Tlb, TlbConfig};
pub use trace::{BufferGeometry, GatherSegment, MemoryModel};
