//! Scalar-vs-SIMD equivalence of the dispatched NN kernels on *float*
//! valued inputs, and the exact operation order of each kernel.
//!
//! Numeric contract checked here (documented in the `kernels` module):
//!
//! * matmul family (`A·B`, `C += Aᵀ·B`): per output element,
//!   `|simd − scalar| ≤ K·ε·Σₖ|aᵢₖ·bₖⱼ|` with `K` the reduction length
//!   (one rounding per partial sum is a safe over-estimate; FMA only
//!   *removes* roundings) plus a small absolute floor for results near
//!   zero.
//! * AVX2 `A·B` is **bitwise** the k-order `f32::mul_add` chain from
//!   `+0.0` on every element, and AVX2 `C += Aᵀ·B` the r-order chain
//!   followed by one add into `C` — in the 16-wide, 8-wide and masked
//!   tail columns, the 4-row tiles and the remainder rows alike.
//! * element-wise ops (bias-add, ReLU fwd/bwd, Adam step): bitwise
//!   identical — the AVX2 implementations deliberately avoid FMA so both
//!   paths perform the same arithmetic.
//! * within one kernel, row `i` of an `m`-row `A·B` is bitwise the 1-row
//!   product of row `i` (what serve batched == serial and K = 1 vec ==
//!   scalar rest on); the column counterpart, a backward column block
//!   against the full input gradient, is pinned in
//!   `gradient_properties.rs`.
//!
//! The SIMD tests are no-ops (trivially pass) on hosts without AVX2+FMA;
//! `simd_pin_resolves_to_simd_on_a_capable_host` makes the CI `simd` leg
//! fail if a capable runner resolves to anything else. Nothing in this
//! binary calls `kernels::set_active`, so that check sees the kernel
//! `MARL_KERNEL` resolves to.

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

    /// `C += Aᵀ·B` into a zeroed `C`: SIMD within tolerance of scalar.
    #[test]
    fn transpose_matmul_acc_simd_within_tolerance(
        m in 1usize..48,
        kd in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let a = float_data(m * kd, seed);
        let b = float_data(m * n, seed ^ 0x5eed);
        let mut c_scalar = vec![0.0f32; kd * n];
        let mut c_simd = vec![0.0f32; kd * n];
        kernels::transpose_matmul_acc_with(KernelKind::Scalar, &a, &b, &mut c_scalar, m, kd, n);
        kernels::transpose_matmul_acc_with(KernelKind::Simd, &a, &b, &mut c_simd, m, kd, n);
        // Reduction length here is m (rows of A).
        assert_within_bound(&c_simd, &c_scalar, m, |i| {
            let (r, col) = (i / n, i % n);
            (0..m).map(|row| (a[row * kd + r] * b[row * n + col]).abs()).sum()
        })?;
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

/// `1`, `5` (the thin heads) or anything below 41: with `m` below 14
/// that covers 16-wide, 8-wide and masked tail columns, 4-row tiles and
/// every remainder row count.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..4, 1usize..41).prop_map(|(pick, d)| [1, 5, d, d][pick])
}

/// `C = A·B` with every element the k-order `mul_add` chain from `+0.0`.
fn mul_add_matmul(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..kd).fold(0.0f32, |acc, k| a[i * kd + k].mul_add(b[k * n + j], acc));
        }
    }
    c
}

/// `C += Aᵀ·B` with every element the r-order `mul_add` chain from `+0.0`,
/// then one add into `C`.
fn mul_add_transpose_matmul_acc(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    for i in 0..kd {
        for j in 0..n {
            c[i * n + j] += (0..m).fold(0.0f32, |acc, r| a[r * kd + i].mul_add(b[r * n + j], acc));
        }
    }
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{} element {}: {} vs {}", what, i, g, w);
    }
    Ok(())
}

/// AVX2 `A·B` against the k-order `mul_add` reference on one shape.
fn check_simd_matmul(m: usize, kd: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let a = float_data(m * kd, seed);
    let b = float_data(kd * n, seed ^ 0xdead_beef);
    let mut c = vec![f32::NAN; m * n];
    kernels::matmul_with(KernelKind::Simd, &a, &b, &mut c, m, kd, n);
    assert_bits(&c, &mul_add_matmul(&a, &b, m, kd, n), &format!("A·B {m}x{kd}x{n}"))
}

/// AVX2 `C += Aᵀ·B` against the r-order `mul_add` reference plus one add.
fn check_simd_transpose_matmul_acc(
    m: usize,
    kd: usize,
    n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a = float_data(m * kd, seed);
    let b = float_data(m * n, seed ^ 0x5eed);
    let mut c = float_data(kd * n, seed ^ 0xacc);
    let mut want = c.clone();
    kernels::transpose_matmul_acc_with(KernelKind::Simd, &a, &b, &mut c, m, kd, n);
    mul_add_transpose_matmul_acc(&a, &b, &mut want, m, kd, n);
    assert_bits(&c, &want, &format!("C += Aᵀ·B {m}x{kd}x{n}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// AVX2 `A·B` is bitwise the k-order `mul_add` chain on every element.
    #[test]
    fn simd_matmul_is_the_k_order_mul_add_chain(
        m in 1usize..14, kd in dim(), n in dim(), seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        check_simd_matmul(m, kd, n, seed)?;
    }

    /// AVX2 `C += Aᵀ·B` is bitwise the r-order `mul_add` chain plus one add;
    /// here `kd` is the output row count, so it spans the 4-row tiles, the
    /// remainder rows and the 32-, 8- and masked row blocks of the column
    /// tail.
    #[test]
    fn simd_transpose_matmul_acc_is_the_r_order_mul_add_chain(
        m in dim(), kd in 1usize..70, n in dim(), seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        check_simd_transpose_matmul_acc(m, kd, n, seed)?;
    }

    /// Row `i` of an `m`-row `A·B` is bitwise the 1-row product of row `i`
    /// on each kernel, across `BLOCK_THRESHOLD` (the `m`-row product and
    /// the 1-row one may land on different sides) and every column tail.
    #[test]
    fn matmul_rows_are_the_one_row_products(
        m in 1usize..24, kd in dim(), n in dim(), seed in 0u64..1_000_000,
    ) {
        let a = float_data(m * kd, seed);
        let b = float_data(kd * n, seed ^ 0x0123);
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let mut full = vec![f32::NAN; m * n];
            kernels::matmul_with(kind, &a, &b, &mut full, m, kd, n);
            let mut row = vec![f32::NAN; n];
            for i in 0..m {
                kernels::matmul_with(kind, &a[i * kd..(i + 1) * kd], &b, &mut row, 1, kd, n);
                assert_bits(&full[i * n..(i + 1) * n], &row, &format!("{kind:?} row {i}"))?;
            }
        }
    }
}

/// The contract at the shape the update spends most on: the joint critic's
/// layer 0 at cooperative-navigation N = 12 (B = 1024, J = 924, 64 wide),
/// forward and `dW`.
#[test]
fn simd_products_keep_their_order_at_the_widest_critic_layer() {
    if !kernels::simd_available() {
        return;
    }
    check_simd_matmul(1024, 924, 64, 7).unwrap();
    check_simd_transpose_matmul_acc(1024, 924, 64, 7).unwrap();
}

/// The CI `simd` leg must really run SIMD: under `MARL_KERNEL=simd`, on a
/// host whose `/proc/cpuinfo` lists avx2 and fma, the resolved kernel is
/// `Simd` — otherwise every SIMD test above would pass vacuously. Anywhere
/// else this checks nothing.
#[test]
fn simd_pin_resolves_to_simd_on_a_capable_host() {
    if std::env::var("MARL_KERNEL").as_deref() != Ok("simd") {
        return;
    }
    let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else { return };
    let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    if has("avx2") && has("fma") {
        assert_eq!(kernels::active(), KernelKind::Simd, "MARL_KERNEL=simd on an AVX2+FMA host");
    }
}
