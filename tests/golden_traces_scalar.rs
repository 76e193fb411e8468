//! All 27 golden traces replayed on the scalar kernel, forced through
//! `kernels::set_active`.
//!
//! The goldens are recorded on the kernel a default run resolves (AVX2 or
//! AVX-512 on a capable host). Every kernel computes each product as the
//! same fused multiply-add chain, so the scalar code must reproduce each
//! committed digest chain byte for byte. `set_active` is process-global,
//! which is why this is a binary of its own with one test: in
//! `golden_traces.rs` another test's first kernel use would resolve and
//! store the host's widest kernel over it.

use marl_repro::nn::kernels::{self, KernelKind};

mod common;

#[test]
fn every_golden_replays_on_the_scalar_kernel() {
    assert_eq!(kernels::set_active(KernelKind::Scalar), KernelKind::Scalar);
    common::goldens::check_cases(common::goldens::all_cases());
    let (scalar, simd) = kernels::dispatch_tally();
    assert!(scalar > 0 && simd == 0, "dispatches (scalar, simd) = ({scalar}, {simd})");
}
