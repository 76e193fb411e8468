//! A training run at a batch past `kernels::WIDE_MIN_ROWS` records one
//! digest chain on every kernel.
//!
//! The 27 goldens train at batch 32, below the row count at which the
//! AVX-512 kernel runs its 16-lane tiles, so on an AVX-512 host they
//! replay the 8-lane ones. This run's critic and actor products (forward,
//! `dX` and `dW`, 62- and 64-wide layers) take the wide tiles there, and
//! its update digests must equal the AVX2 and scalar runs' bit for bit.
//! `set_active` is process-global, so this is a binary of its own with one
//! test. Where the host lacks a body, its request downgrades and the
//! comparison is with the narrower code; the test says so.

use marl_repro::algo::{Algorithm, LayoutMode};
use marl_repro::core::SamplerConfig;
use marl_repro::nn::kernels::{self, KernelKind};

mod common;

#[test]
fn a_training_sized_batch_records_one_digest_chain_on_every_kernel() {
    let mut cfg =
        common::golden_config(Algorithm::Matd3, SamplerConfig::Uniform, LayoutMode::PerAgent)
            .with_batch_size(kernels::WIDE_MIN_ROWS + 32)
            .with_episodes(8);
    cfg.warmup = 128;
    let mut chains = Vec::new();
    for kind in [KernelKind::Avx512, KernelKind::Avx2, KernelKind::Scalar] {
        let installed = kernels::set_active(kind);
        if installed != kind {
            eprintln!("note: {kind:?} runs as {installed:?} on this host");
        }
        let digests = marl_conform::golden::record_run(cfg).expect("training failed");
        assert!(digests.len() >= 3, "{installed:?}: {} updates", digests.len());
        chains.push((installed, digests));
    }
    for (kind, digests) in &chains[1..] {
        assert_eq!(digests, &chains[0].1, "{kind:?} vs {:?}", chains[0].0);
    }
}
