//! Equivalence of the dispatched NN kernels — scalar, AVX2 and AVX-512 —
//! on *float* valued inputs, and the exact operation order they share.
//!
//! Numeric contract checked here (documented in the `kernels` module):
//!
//! * `A·B` is **bitwise** the k-order `f32::mul_add` chain from `+0.0` on
//!   every element, and `C += Aᵀ·B` the r-order chain followed by one add
//!   into `C`, on all three kernels — in the AVX2 16-wide, 8-wide and
//!   masked tail columns; in the AVX-512 64-, 32- and 16-wide tiles, its
//!   masked 16-lane tail and the hand-off of narrower or shorter products
//!   to AVX2; and in every strip height the tiles split rows into (6-row
//!   tiles, the 5/4/3/2/1-row strips, and the 4 + 3 and 4 + 4 splits of 7
//!   and 8 rows). So AVX-512 == AVX2 == scalar bitwise, with
//!   flush-to-zero in force too.
//! * element-wise ops (bias-add, ReLU fwd/bwd, Adam step): bitwise
//!   identical — no path uses FMA for them.
//! * row `i` of an `m`-row `A·B` is bitwise the 1-row product of row `i`
//!   (what serve batched == serial and K = 1 vec == scalar rest on), also
//!   where the batch runs the wide tiles and the single row the narrow
//!   ones; the column counterpart, a backward column block against the
//!   full input gradient, is pinned in `gradient_properties.rs`.
//!
//! On hosts without AVX2+FMA an AVX2 request runs the scalar code, so
//! the cross-kernel checks compare scalar with itself there; on hosts
//! without AVX-512F the AVX-512 comparisons print a note and skip rather
//! than compare AVX2 with itself. `simd_pin_resolves_to_simd_on_a_capable_host`
//! fails if a host whose `/proc/cpuinfo` lists the flags resolves to a
//! narrower body, and prints the bodies this binary exercised. Nothing in
//! this binary calls `kernels::set_active`, so that check sees the kernel
//! the process resolves by itself.

use marl_nn::kernels::{self, KernelKind, WIDE_MIN_COLS, WIDE_MIN_ROWS};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Once;

/// Every kernel, narrowest first: index 0 is the scalar reference.
const KINDS: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Avx2, KernelKind::Avx512];

/// The kernels a cross-kernel check compares: all three on a host that
/// runs AVX-512, else the narrower two after a one-time note — an
/// `Avx512` request would run (and so compare) the AVX2 code there.
fn kinds() -> &'static [KernelKind] {
    static NOTE: Once = Once::new();
    if kernels::widest() == KernelKind::Avx512 {
        &KINDS
    } else {
        NOTE.call_once(|| eprintln!("note: no AVX-512F on this host; AVX-512 cases skipped"));
        &KINDS[..2]
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Element-wise kernels are bitwise identical across dispatch paths on
    /// arbitrary float inputs (no FMA in the AVX2 implementations, which
    /// the AVX-512 kernel runs too).
    #[test]
    fn elementwise_simd_bitwise_equal(
        rows in 1usize..16,
        cols in 1usize..65,
        seed in 0u64..1_000_000,
    ) {
        if !kernels::simd_available() { return Ok(()); }
        let n = rows * cols;
        for &kind in &kinds()[1..] {
            // bias-add
            let bias = float_data(cols, seed ^ 0xb1a5);
            let mut xs = float_data(n, seed);
            let mut xv = xs.clone();
            kernels::add_bias_with(KernelKind::Scalar, &mut xs, &bias);
            kernels::add_bias_with(kind, &mut xv, &bias);
            prop_assert_eq!(&xs, &xv);

            // ReLU forward/backward
            let mut fs = float_data(n, seed ^ 0x0f0f);
            let mut fv = fs.clone();
            kernels::relu_forward_with(KernelKind::Scalar, &mut fs);
            kernels::relu_forward_with(kind, &mut fv);
            prop_assert_eq!(&fs, &fv);
            let mut gs = float_data(n, seed ^ 0x1111);
            let mut gv = gs.clone();
            kernels::relu_backward_with(KernelKind::Scalar, &mut gs, &fs);
            kernels::relu_backward_with(kind, &mut gv, &fv);
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
                    kind, &mut pv, &g, &mut mv, &mut vv,
                    0.7, 0.01, 0.9, 0.999, 1e-8, bc1, bc2,
                );
            }
            prop_assert_eq!(&ps, &pv);
            prop_assert_eq!(&ms, &mv);
            prop_assert_eq!(&vs, &vv);
        }
    }
}

/// `1`, `5` (the thin heads) or anything below 41: with `m` below 27
/// that covers 16-wide, 8-wide and masked tail columns, 6-row tiles and
/// every strip composition up to four 6-row strips and a remainder.
fn dim() -> impl Strategy<Value = usize> {
    (0usize..4, 1usize..41).prop_map(|(pick, d)| [1, 5, d, d][pick])
}

/// Output widths around the AVX-512 tiles: the thin heads and the widths
/// just below [`WIDE_MIN_COLS`] (handed to AVX2), one to four 16-lane
/// vectors with and without a masked tail, so the 64-, 32- and 16-wide
/// tiles each run alone and after one another, or anything below 160.
fn wide_cols() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 16] =
        [1, 5, WIDE_MIN_COLS - 1, WIDE_MIN_COLS, 17, 31, 32, 33, 48, 63, 64, 65, 80, 112, 128, 141];
    (0usize..3, 0usize..EDGES.len(), 1usize..160)
        .prop_map(|(pick, e, any)| if pick == 0 { any } else { EDGES[e] })
}

/// Batch rows at and just past [`WIDE_MIN_ROWS`] (where the AVX-512
/// tiles take over: every 6-row strip count with each of the 3-, 4-, 5-,
/// 6-, 4 + 3- and 4 + 4-row remainders), just below it (AVX2), or up to
/// two and a half times it.
fn wide_rows() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..12, 1usize..4, WIDE_MIN_ROWS..WIDE_MIN_ROWS * 5 / 2).prop_map(
        |(pick, past, below, any)| match pick {
            0 | 1 => WIDE_MIN_ROWS + past,
            2 => WIDE_MIN_ROWS - below,
            _ => any,
        },
    )
}

/// One of two draws, evenly.
fn either(
    a: impl Strategy<Value = usize>,
    b: impl Strategy<Value = usize>,
) -> impl Strategy<Value = usize> {
    (any::<bool>(), a, b).prop_map(|(first, a, b)| if first { a } else { b })
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

/// `A·B` on each kernel of [`kinds`], in that order.
fn matmuls(a: &[f32], b: &[f32], m: usize, kd: usize, n: usize) -> Vec<Vec<f32>> {
    kinds()
        .iter()
        .map(|&kind| {
            let mut c = vec![f32::NAN; m * n]; // stale scratch must be overwritten
            kernels::matmul_with(kind, a, b, &mut c, m, kd, n);
            c
        })
        .collect()
}

/// `C += Aᵀ·B` into copies of `c` on each kernel of [`kinds`], in that
/// order.
fn transpose_matmul_accs(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    m: usize,
    kd: usize,
    n: usize,
) -> Vec<Vec<f32>> {
    kinds()
        .iter()
        .map(|&kind| {
            let mut out = c.to_vec();
            kernels::transpose_matmul_acc_with(kind, a, b, &mut out, m, kd, n);
            out
        })
        .collect()
}

/// Every kernel's result bitwise the scalar one, and that one `want`.
fn assert_all_bits(got: &[Vec<f32>], want: &[f32], shape: &str) -> Result<(), TestCaseError> {
    for (kind, out) in kinds().iter().zip(got).skip(1) {
        assert_bits(out, &got[0], &format!("{shape} {kind:?} vs scalar"))?;
    }
    assert_bits(&got[0], want, shape)
}

/// AVX-512 == AVX2 == scalar bitwise, and all are the k-order `mul_add`
/// reference.
fn check_matmul(m: usize, kd: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let a = float_data(m * kd, seed);
    let b = float_data(kd * n, seed ^ 0xdead_beef);
    let shape = format!("A·B {m}x{kd}x{n}");
    assert_all_bits(&matmuls(&a, &b, m, kd, n), &mul_add_matmul(&a, &b, m, kd, n), &shape)
}

/// AVX-512 == AVX2 == scalar bitwise, and all are the r-order `mul_add`
/// reference plus one add.
fn check_transpose_matmul_acc(
    m: usize,
    kd: usize,
    n: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a = float_data(m * kd, seed);
    let b = float_data(m * n, seed ^ 0x5eed);
    let c = float_data(kd * n, seed ^ 0xacc);
    let got = transpose_matmul_accs(&a, &b, &c, m, kd, n);
    let mut want = c;
    mul_add_transpose_matmul_acc(&a, &b, &mut want, m, kd, n);
    assert_all_bits(&got, &want, &format!("C += Aᵀ·B {m}x{kd}x{n}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `A·B` is bitwise the same on every kernel: the k-order `mul_add`
    /// chain on every element. Below 27 rows every product runs the AVX2
    /// tiles, whatever the kernel.
    #[test]
    fn matmul_scalar_is_bitwise_simd(
        m in 1usize..27, kd in dim(), n in dim(), seed in 0u64..1_000_000,
    ) {
        check_matmul(m, kd, n, seed)?;
    }

    /// `A·B` at batch sizes where the AVX-512 kernel runs its own tiles
    /// (or, below [`WIDE_MIN_ROWS`] rows or [`WIDE_MIN_COLS`] columns,
    /// hands the product to AVX2): the same chains, bitwise.
    #[test]
    fn wide_matmul_is_bitwise_the_narrow_ones(
        m in wide_rows(), kd in dim(), n in wide_cols(), seed in 0u64..1_000_000,
    ) {
        check_matmul(m, kd, n, seed)?;
    }

    /// `C += Aᵀ·B` is bitwise the same on every kernel: the r-order
    /// `mul_add` chain plus one add. Here `kd` is the output row count, so
    /// it spans the 6-row tiles, every shorter strip and the 32-, 8- and
    /// masked row blocks of the AVX2 column tail.
    #[test]
    fn transpose_matmul_acc_scalar_is_bitwise_simd(
        m in dim(), kd in 1usize..70, n in dim(), seed in 0u64..1_000_000,
    ) {
        check_transpose_matmul_acc(m, kd, n, seed)?;
    }

    /// `C += Aᵀ·B` over a batch long enough for the AVX-512 tiles: output
    /// rows `kd` through every strip height 1–8 and past the 64- and
    /// 16-row blocks of the column tail, widths across every zmm tile.
    #[test]
    fn wide_transpose_matmul_acc_is_bitwise_the_narrow_ones(
        m in wide_rows(), kd in either(1usize..9, 1usize..90), n in wide_cols(),
        seed in 0u64..1_000_000,
    ) {
        check_transpose_matmul_acc(m, kd, n, seed)?;
    }

    /// Row `i` of an `m`-row `A·B` is bitwise the 1-row product of row `i`
    /// on each kernel, across every remainder row count and column tail —
    /// and from a batch on the AVX-512 tiles to a single row on AVX2's.
    #[test]
    fn matmul_rows_are_the_one_row_products(
        m in either(1usize..24, wide_rows()), kd in dim(), n in wide_cols(),
        seed in 0u64..1_000_000,
    ) {
        let a = float_data(m * kd, seed);
        let b = float_data(kd * n, seed ^ 0x0123);
        for &kind in kinds() {
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

/// Column counts for [`every_strip_composition_is_the_mul_add_chain`]:
/// the single-column and thin heads, one 8-wide block with and without a
/// masked tail, one and two 16-wide tiles with a tail, and a hidden layer.
const SWEEP_COLS: [usize; 8] = [1, 5, 8, 9, 16, 17, 33, 64];

/// Column counts for the AVX-512 sweep: each ladder of 64-, 32- and
/// 16-wide tiles with and without the masked 16-lane tail, and the widest
/// head handed to AVX2.
const WIDE_SWEEP_COLS: [usize; 9] = [15, 16, 29, 32, 48, 64, 93, 112, 127];

/// Every row count up to 26 on every kernel, against the `mul_add`
/// references: `m` for `A·B`, and the output row count `kd` for
/// `C += Aᵀ·B`. That is every sequence of strip heights through four
/// 6-row strips and each remainder after them, so a tile that drops,
/// repeats or misplaces a row fails here whatever proptest draws. The
/// AVX-512 products need [`WIDE_MIN_ROWS`] batch rows, so they sweep `m`
/// over the twelve counts from there (every remainder after the 6-row
/// strips) and `kd` at that batch.
#[test]
fn every_strip_composition_is_the_mul_add_chain() {
    for rows in 1..=26 {
        for (c, &n) in SWEEP_COLS.iter().enumerate() {
            let seed = (rows * SWEEP_COLS.len() + c) as u64;
            check_matmul(rows, 13, n, seed).unwrap();
            check_transpose_matmul_acc(11, rows, n, seed).unwrap();
        }
        for (c, &n) in WIDE_SWEEP_COLS.iter().enumerate() {
            let seed = (rows * WIDE_SWEEP_COLS.len() + c) as u64;
            if rows <= 12 {
                check_matmul(WIDE_MIN_ROWS - 1 + rows, 7, n, seed).unwrap();
            }
            check_transpose_matmul_acc(WIDE_MIN_ROWS, rows, n, seed).unwrap();
        }
    }
}

/// The contract at the shape the update spends most on: the joint critic's
/// layer 0 at cooperative-navigation N = 12 (B = 1024, J = 924, 64 wide),
/// forward and `dW`.
#[test]
fn both_products_agree_at_the_widest_critic_layer() {
    check_matmul(1024, 924, 64, 7).unwrap();
    check_transpose_matmul_acc(1024, 924, 64, 7).unwrap();
}

/// Operands around 2⁻⁶⁴, so products and partial sums straddle the
/// smallest normal 2⁻¹²⁶, with every fifth operand a subnormal (2⁻¹³⁰).
fn tiny_data(len: usize, seed: u64) -> Vec<f32> {
    let mut v: Vec<f32> = float_data(len, seed).iter().map(|x| x * 2f32.powi(-64)).collect();
    for x in v.iter_mut().step_by(5) {
        *x *= 2f32.powi(-66);
    }
    v
}

/// Both products under [`marl_nn::fp::flush_to_zero`], the mode every
/// update, rollout step and serve batch runs in: subnormal operands read
/// as zero and subnormal results flush, identically on every kernel.
/// Shapes cover the 16-wide, 8-wide and masked columns, the remainder
/// rows and the column tail's row blocks — once below [`WIDE_MIN_ROWS`]
/// batch rows, once above it, where the AVX-512 kernel runs a 16-wide
/// tile and its masked tail, and its column tail's 16-row blocks.
#[test]
fn both_products_agree_under_flush_to_zero_on_subnormals() {
    for m in [13, WIDE_MIN_ROWS + 6] {
        let (kd, n) = (45, 29);
        let a = tiny_data(m * kd, 1);
        let b = tiny_data(kd * n, 2);
        let g = tiny_data(m * n, 3);
        let c = tiny_data(kd * n, 4);
        assert!(a.iter().any(|x| x.is_subnormal()) && c.iter().any(|x| x.is_subnormal()));
        let (fwd, dw) = {
            let _fp = marl_nn::fp::flush_to_zero();
            (matmuls(&a, &b, m, kd, n), transpose_matmul_accs(&a, &g, &c, m, kd, n))
        };
        for (kind, (f, d)) in kinds().iter().zip(fwd.iter().zip(&dw)).skip(1) {
            assert_bits(f, &fwd[0], &format!("A·B {m} rows {kind:?} vs scalar under FTZ")).unwrap();
            assert_bits(d, &dw[0], &format!("dW {m} rows {kind:?} vs scalar under FTZ")).unwrap();
        }
        // Not vacuous: the mode changes these products.
        if cfg!(target_arch = "x86_64") {
            assert_ne!(fwd[0], matmuls(&a, &b, m, kd, n)[0], "A·B never met a subnormal");
            assert_ne!(dw[0], transpose_matmul_accs(&a, &g, &c, m, kd, n)[0], "dW never met one");
        }
    }
}

/// With AVX2 and FMA in `/proc/cpuinfo`, the kernel the process resolves
/// by itself is AVX2 — or AVX-512 where avx512f is listed too. Otherwise
/// every cross-kernel test above would compare a body with itself and pass
/// vacuously. Anywhere else this checks nothing. It prints the bodies the
/// cross-kernel tests compare on this host.
#[test]
fn simd_pin_resolves_to_simd_on_a_capable_host() {
    let bodies: Vec<String> = kinds().iter().map(|k| format!("{k:?}")).collect();
    println!(
        "kernel_equivalence compares: {} (resolved: {:?})",
        bodies.join(", "),
        kernels::active()
    );
    let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else { return };
    let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    if has("avx2") && has("fma") {
        let want = if has("avx512f") { KernelKind::Avx512 } else { KernelKind::Avx2 };
        assert_eq!(
            kernels::active(),
            want,
            "host flags avx2 fma{}",
            if has("avx512f") { " avx512f" } else { "" }
        );
    }
}
