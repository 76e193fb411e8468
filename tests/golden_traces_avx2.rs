//! All 27 golden traces replayed on the AVX2 kernel, forced through
//! `kernels::set_active`.
//!
//! On a host with AVX-512F a default run resolves the AVX-512 kernel,
//! whose training-sized products run 16-lane tiles, so `golden_traces.rs`
//! no longer replays the 8-lane tiles there. Every kernel computes each
//! product as the same fused multiply-add chain, so the AVX2 code must
//! reproduce each committed digest chain byte for byte too. `set_active`
//! is process-global, which is why this is a binary of its own with one
//! test (as `golden_traces_scalar.rs` is). On a host without AVX2+FMA the
//! request downgrades to scalar and this replays the scalar code.

use marl_repro::nn::kernels::{self, KernelKind};

mod common;

#[test]
fn every_golden_replays_on_the_avx2_kernel() {
    let installed = kernels::set_active(KernelKind::Avx2);
    assert_eq!(installed, KernelKind::Avx2.min(kernels::widest()));
    common::goldens::check_cases(common::goldens::all_cases());
    let (scalar, simd) = kernels::dispatch_tally();
    if installed == KernelKind::Avx2 {
        assert!(scalar == 0 && simd > 0, "dispatches (scalar, simd) = ({scalar}, {simd})");
    }
}
