//! Scalar-vs-SIMD equivalence of the dispatched NN kernels on *float*
//! valued inputs, where FMA and 8-lane reassociation in the AVX2 path are
//! allowed to differ from the scalar ascending-order reduction.
//!
//! Numeric contract checked here (documented in DESIGN.md):
//!
//! * matmul family (`A·B`, `A·Bᵀ`, `Aᵀ·B`, `C += Aᵀ·B`): per output
//!   element, `|simd − scalar| ≤ K·ε·Σₖ|aᵢₖ·bₖⱼ|` with `K = kd` (one
//!   rounding per partial sum is a safe over-estimate; FMA only *removes*
//!   roundings) plus a small absolute floor for results near zero.
//! * element-wise ops (bias-add, ReLU fwd/bwd, Adam step): bitwise
//!   identical — the AVX2 implementations deliberately avoid FMA so both
//!   paths perform the same arithmetic.
//! * within one kernel, `A·Bᵀ` on a row slice of `B` is bitwise the
//!   matching columns of the full product (what a column-block backward
//!   request relies on).
//!
//! The scalar-vs-SIMD tests are no-ops (trivially pass) on hosts without
//! AVX2+FMA; the CI `simd` leg only asserts real coverage on capable
//! runners.

use marl_nn::kernels::{self, KernelKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Deterministic float matrix with values in roughly [-4, 4], including
/// non-representable fractions so reassociation actually changes bits.
fn float_data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32 as f32 / u32::MAX as f32 - 0.5) * 8.0
        })
        .collect()
}

/// Checks `|got − want| ≤ kd·ε·(Σ|terms| + floor)` element-wise, where the
/// magnitude sum is recomputed per element from the inputs.
fn assert_within_bound(
    got: &[f32],
    want: &[f32],
    kd: usize,
    mag: impl Fn(usize) -> f32,
) -> Result<(), TestCaseError> {
    let eps = f32::EPSILON;
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let bound = kd as f32 * eps * (mag(i) + 1.0);
        prop_assert!(
            (g - w).abs() <= bound,
            "element {}: simd {} vs scalar {} exceeds bound {}",
            i,
            g,
            w,
            bound
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `A·B`: SIMD within the documented reduction-error bound of scalar.
    #[test]
    fn matmul_simd_within_tolerance(
        m in 1usize..48,
        kd in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let a = float_data(m * kd, seed);
        let b = float_data(kd * n, seed ^ 0xdead_beef);
        let mut c_scalar = vec![f32::NAN; m * n];
        let mut c_simd = vec![f32::NAN; m * n];
        kernels::matmul_with(KernelKind::Scalar, &a, &b, &mut c_scalar, m, kd, n);
        kernels::matmul_with(KernelKind::Simd, &a, &b, &mut c_simd, m, kd, n);
        assert_within_bound(&c_simd, &c_scalar, kd, |i| {
            let (r, col) = (i / n, i % n);
            (0..kd).map(|k| (a[r * kd + k] * b[k * n + col]).abs()).sum()
        })?;
    }

    /// `A·Bᵀ`: SIMD within tolerance of scalar.
    #[test]
    fn matmul_transpose_simd_within_tolerance(
        m in 1usize..48,
        kd in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let a = float_data(m * kd, seed);
        let b = float_data(n * kd, seed ^ 0xf00d);
        let mut c_scalar = vec![f32::NAN; m * n];
        let mut c_simd = vec![f32::NAN; m * n];
        kernels::matmul_transpose_with(KernelKind::Scalar, &a, &b, &mut c_scalar, m, kd, n);
        kernels::matmul_transpose_with(KernelKind::Simd, &a, &b, &mut c_simd, m, kd, n);
        assert_within_bound(&c_simd, &c_scalar, kd, |i| {
            let (r, col) = (i / n, i % n);
            (0..kd).map(|k| (a[r * kd + k] * b[col * kd + k]).abs()).sum()
        })?;
    }

    /// `Aᵀ·B` (overwrite) and `C += Aᵀ·B` (accumulate): both within
    /// tolerance, and the accumulate form equals overwrite + add exactly.
    #[test]
    fn transpose_matmul_simd_within_tolerance(
        m in 1usize..48,
        kd in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let a = float_data(m * kd, seed);
        let b = float_data(m * n, seed ^ 0x5eed);
        let mut c_scalar = vec![f32::NAN; kd * n];
        let mut c_simd = vec![f32::NAN; kd * n];
        kernels::transpose_matmul_with(KernelKind::Scalar, &a, &b, &mut c_scalar, m, kd, n);
        kernels::transpose_matmul_with(KernelKind::Simd, &a, &b, &mut c_simd, m, kd, n);
        // Reduction length here is m (rows of A).
        assert_within_bound(&c_simd, &c_scalar, m, |i| {
            let (r, col) = (i / n, i % n);
            (0..m).map(|row| (a[row * kd + r] * b[row * n + col]).abs()).sum()
        })?;

        // acc form: C += Aᵀ·B must equal "compute product, then add once".
        let base = float_data(kd * n, seed ^ 0xacc);
        let mut acc = base.clone();
        kernels::transpose_matmul_acc_with(KernelKind::Simd, &a, &b, &mut acc, m, kd, n);
        for (i, ((&got, &prod), &b0)) in acc.iter().zip(&c_simd).zip(&base).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                (b0 + prod).to_bits(),
                "acc element {} is not single-add", i
            );
        }
    }

    /// Element-wise kernels are bitwise identical across dispatch paths on
    /// arbitrary float inputs (no FMA in the AVX2 implementations).
    #[test]
    fn elementwise_simd_bitwise_equal(
        rows in 1usize..16,
        cols in 1usize..65,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let n = rows * cols;

        // bias-add
        let bias = float_data(cols, seed ^ 0xb1a5);
        let mut xs = float_data(n, seed);
        let mut xv = xs.clone();
        kernels::add_bias_with(KernelKind::Scalar, &mut xs, &bias);
        kernels::add_bias_with(KernelKind::Simd, &mut xv, &bias);
        prop_assert_eq!(&xs, &xv);

        // ReLU forward/backward
        let mut fs = float_data(n, seed ^ 0x0f0f);
        let mut fv = fs.clone();
        kernels::relu_forward_with(KernelKind::Scalar, &mut fs);
        kernels::relu_forward_with(KernelKind::Simd, &mut fv);
        prop_assert_eq!(&fs, &fv);
        let mut gs = float_data(n, seed ^ 0x1111);
        let mut gv = gs.clone();
        kernels::relu_backward_with(KernelKind::Scalar, &mut gs, &fs);
        kernels::relu_backward_with(KernelKind::Simd, &mut gv, &fv);
        prop_assert_eq!(&gs, &gv);

        // Adam step (3 consecutive steps so moments evolve)
        let g = float_data(n, seed ^ 0xada);
        let mut ps = float_data(n, seed ^ 0x2222);
        let mut pv = ps.clone();
        let (mut ms, mut vs) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (mut mv, mut vv) = (vec![0.0f32; n], vec![0.0f32; n]);
        for t in 1..=3i32 {
            let bc1 = 1.0 - 0.9f32.powi(t);
            let bc2 = 1.0 - 0.999f32.powi(t);
            kernels::adam_step_with(
                KernelKind::Scalar, &mut ps, &g, &mut ms, &mut vs,
                0.7, 0.01, 0.9, 0.999, 1e-8, bc1, bc2,
            );
            kernels::adam_step_with(
                KernelKind::Simd, &mut pv, &g, &mut mv, &mut vv,
                0.7, 0.01, 0.9, 0.999, 1e-8, bc1, bc2,
            );
        }
        prop_assert_eq!(&ps, &pv);
        prop_assert_eq!(&ms, &mv);
        prop_assert_eq!(&vs, &vv);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `A·Bᵀ` on a row slice `B[s..s+w]` is **bitwise** columns `s..s+w`
    /// of the full product, on each kernel: what lets a backward pass ask
    /// for a column block of `dL/dx` and get the bits the full pass holds.
    /// Scalar reduces ascending-`k` on both sides of `BLOCK_THRESHOLD`
    /// (the full product and its slice may land on different sides); AVX2
    /// reduces 8 lanes over `k`, then `hsum`, then the scalar tail, in the
    /// 4-wide j-tile and the 1-wide remainder alike. Shapes cover
    /// `kd % 8 ≠ 0`, `w` on both sides of the tile, unaligned `s` and
    /// `m % 4 ≠ 0`.
    #[test]
    fn matmul_transpose_row_slice_is_bitwise_the_full_products_columns(
        m in 1usize..14,
        kd in 1usize..41,
        n in 1usize..25,
        start in 0usize..24,
        w in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let w = w.min(n);
        let s = start % (n - w + 1);
        let a = float_data(m * kd, seed);
        let b = float_data(n * kd, seed ^ 0x51ce);
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let mut full = vec![f32::NAN; m * n];
            let mut block = vec![f32::NAN; m * w];
            kernels::matmul_transpose_with(kind, &a, &b, &mut full, m, kd, n);
            let rows = &b[s * kd..(s + w) * kd];
            kernels::matmul_transpose_with(kind, &a, rows, &mut block, m, kd, w);
            for i in 0..m {
                for j in 0..w {
                    prop_assert_eq!(
                        block[i * w + j].to_bits(),
                        full[i * n + s + j].to_bits(),
                        "{:?} m={} kd={} n={} s={} w={}: row {} column {}",
                        kind, m, kd, n, s, w, i, s + j
                    );
                }
            }
        }
    }
}
