//! # marl-conform
//!
//! The conformance harness of the workspace: shared machinery for the
//! three test pillars that keep the reproduction honest (see the
//! "Testing & conformance" section of `DESIGN.md`).
//!
//! * [`golden`] — golden-trace regression: serialize, parse, and diff the
//!   committed `results/golden/*.trace` digest chains, reporting the
//!   *first divergent update step and field*, with a `MARL_BLESS=1`
//!   re-bless path for intended behaviour changes.
//! * [`stats`] — statistical oracles: chi-square goodness-of-fit with a
//!   deterministic Wilson–Hilferty critical value, so the suites can
//!   assert that samplers draw what their priorities promise without
//!   flaky hand-tuned tolerances.
//! * [`fuzz`] — structured mutators for checkpoint and replay-snapshot
//!   frames: truncation, splices, duplicated sections, length-field
//!   corruption (CRC re-patched so the corrupt length actually reaches
//!   the parser), and CRC-preserving payload swaps.
//!
//! This crate is test-support machinery: it is a workspace member so the
//! integration suites under `tests/` can share one implementation, but it
//! is not part of the reproduction's runtime dependency graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fuzz;
pub mod golden;
pub mod stats;

pub use fuzz::{apply_mutation, length_field_offsets, patch_crc, Format, Mutation};
pub use golden::{
    check_or_bless, first_divergence, golden_dir, load_trace, parse_trace, record_run,
    serialize_trace, Divergence,
};
pub use stats::{chi_square_critical, chi_square_statistic, Z_P999};
