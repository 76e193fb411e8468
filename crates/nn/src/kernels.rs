//! Runtime-dispatched compute kernels: blocked scalar and AVX2+FMA SIMD.
//!
//! Every dense op the update phase spends time in — the three matmul
//! variants, bias-add, ReLU forward/backward, and the Adam parameter
//! step — funnels through this module. The kernel is selected **once**
//! (from `TrainConfig::kernel`, the `MARL_KERNEL` environment variable, or
//! CPU feature detection) and cached in an atomic, so dispatch costs one
//! relaxed load per op.
//!
//! ## Numeric contract
//!
//! * [`KernelKind::Scalar`] accumulates every output element in ascending
//!   reduction order and is bitwise identical to the naive triple loop at
//!   every size (the register-blocked tiles preserve the order).
//! * [`KernelKind::Simd`] uses FMA and 8-lane reassociation for the matmul
//!   family, so those results differ from scalar by bounded rounding error:
//!   `|simd − scalar| ≤ K·ε·Σ|aᵢ·bᵢ|` with `K` the reduction length (see
//!   `tests/kernel_equivalence.rs`). The element-wise ops (bias-add, ReLU,
//!   Adam) avoid FMA and are **bitwise identical** to scalar.
//! * Both kernels are individually deterministic: the same inputs on the
//!   same kernel produce the same bits on every run, thread count, and
//!   resume.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which kernel implementation executes the dense ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Register-blocked scalar loops; bitwise-stable reference path.
    Scalar,
    /// AVX2+FMA vectorized loops (x86-64 only; falls back to scalar
    /// elsewhere or when the CPU lacks the features).
    Simd,
}

/// User-facing kernel selection for `TrainConfig` / `--kernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Detect at startup: SIMD when the CPU supports AVX2+FMA, else scalar.
    #[default]
    Auto,
    /// Force the scalar kernels.
    Scalar,
    /// Request the SIMD kernels (downgraded to scalar without AVX2+FMA).
    Simd,
}

impl KernelChoice {
    /// Parses the CLI / env spelling (`auto`, `scalar`, `simd`).
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "auto" => Some(KernelChoice::Auto),
            "scalar" => Some(KernelChoice::Scalar),
            "simd" => Some(KernelChoice::Simd),
            _ => None,
        }
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
            KernelChoice::Simd => "simd",
        }
    }
}

/// Whether this host can run the AVX2+FMA kernels.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Cached process-wide kernel: 0 = unresolved, 1 = scalar, 2 = simd.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(k: KernelKind) -> u8 {
    match k {
        KernelKind::Scalar => 1,
        KernelKind::Simd => 2,
    }
}

/// First-use default: `MARL_KERNEL` env override, else feature detection.
fn resolve_default() -> KernelKind {
    let choice = std::env::var("MARL_KERNEL")
        .ok()
        .and_then(|v| KernelChoice::parse(&v))
        .unwrap_or(KernelChoice::Auto);
    match choice {
        KernelChoice::Scalar => KernelKind::Scalar,
        KernelChoice::Simd | KernelChoice::Auto => {
            if simd_available() {
                KernelKind::Simd
            } else {
                KernelKind::Scalar
            }
        }
    }
}

/// The kernel currently in force, resolving and caching it on first use.
pub fn active() -> KernelKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => KernelKind::Scalar,
        2 => KernelKind::Simd,
        _ => {
            let k = resolve_default();
            ACTIVE.store(encode(k), Ordering::Relaxed);
            k
        }
    }
}

/// Forces the process-wide kernel; `Simd` downgrades to `Scalar` when the
/// CPU lacks AVX2+FMA. Returns the kernel actually installed.
pub fn set_active(kind: KernelKind) -> KernelKind {
    let k = if kind == KernelKind::Simd && !simd_available() { KernelKind::Scalar } else { kind };
    ACTIVE.store(encode(k), Ordering::Relaxed);
    k
}

/// Applies a config-level choice: `Auto` keeps (or lazily resolves) the
/// current kernel, explicit choices install it. Returns the effective kind.
pub fn configure(choice: KernelChoice) -> KernelKind {
    match choice {
        KernelChoice::Auto => active(),
        KernelChoice::Scalar => set_active(KernelKind::Scalar),
        KernelChoice::Simd => set_active(KernelKind::Simd),
    }
}

/// Process-wide dispatch tallies (telemetry): how many kernel-op calls
/// resolved to each path since the last [`reset_dispatch_tally`].
static DISPATCH_SCALAR: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SIMD: AtomicU64 = AtomicU64::new(0);

/// Records one dispatched kernel call on its *effective* path (a `Simd`
/// request without AVX2+FMA executes — and tallies — as scalar).
#[inline]
fn tally(kind: KernelKind) {
    let simd = kind == KernelKind::Simd && simd_available();
    if simd {
        DISPATCH_SIMD.fetch_add(1, Ordering::Relaxed);
    } else {
        DISPATCH_SCALAR.fetch_add(1, Ordering::Relaxed);
    }
}

/// Kernel calls dispatched since the last reset, as `(scalar, simd)`.
pub fn dispatch_tally() -> (u64, u64) {
    (DISPATCH_SCALAR.load(Ordering::Relaxed), DISPATCH_SIMD.load(Ordering::Relaxed))
}

/// Zeroes the dispatch tallies (benchmarks and tests).
pub fn reset_dispatch_tally() {
    DISPATCH_SCALAR.store(0, Ordering::Relaxed);
    DISPATCH_SIMD.store(0, Ordering::Relaxed);
}

/// Multiply-add count above which the blocked scalar kernels dispatch;
/// below it the simple loops win (no tile bookkeeping) and tiny test
/// matrices stay on the historically exact path.
pub const BLOCK_THRESHOLD: usize = 4096;

// ---------------------------------------------------------------------------
// Dispatched entry points. `C` buffers may hold stale scratch data: every op
// fully overwrites its output (or documents accumulation). Each entry point
// asserts its slice-length contract in every build: the AVX2 bodies index
// through raw pointers, and the shapes can come from decoded files.
// ---------------------------------------------------------------------------

/// `C = A·B` for row-major `A (m×kd)`, `B (kd×n)`, `C (m×n)`.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    matmul_with(active(), a, b, c, m, kd, n);
}

/// `C = A·B` on an explicit kernel (tests and benchmarks).
pub fn matmul_with(
    kind: KernelKind,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    tally(kind);
    assert_eq!(a.len(), m * kd, "matmul lhs length");
    assert_eq!(b.len(), kd * n, "matmul rhs length");
    assert_eq!(c.len(), m * n, "matmul output length");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::matmul(a, b, c, m, kd, n) };
        return;
    }
    let _ = kind;
    scalar::matmul(a, b, c, m, kd, n);
}

/// `C = A·Bᵀ` for row-major `A (m×kd)`, `B (n×kd)`, `C (m×n)`.
pub fn matmul_transpose(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    matmul_transpose_with(active(), a, b, c, m, kd, n);
}

/// `C = A·Bᵀ` on an explicit kernel.
pub fn matmul_transpose_with(
    kind: KernelKind,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    tally(kind);
    assert_eq!(a.len(), m * kd, "matmul_transpose lhs length");
    assert_eq!(b.len(), n * kd, "matmul_transpose rhs length");
    assert_eq!(c.len(), m * n, "matmul_transpose output length");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::matmul_transpose(a, b, c, m, kd, n) };
        return;
    }
    let _ = kind;
    scalar::matmul_transpose(a, b, c, m, kd, n);
}

/// `C = Aᵀ·B` for row-major `A (m×kd)`, `B (m×n)`, `C (kd×n)`.
pub fn transpose_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    transpose_matmul_with(active(), a, b, c, m, kd, n);
}

/// `C = Aᵀ·B` on an explicit kernel.
pub fn transpose_matmul_with(
    kind: KernelKind,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    tally(kind);
    transpose_matmul_impl::<false>(kind, a, b, c, m, kd, n);
}

/// `C += Aᵀ·B` — the gradient-accumulation fusion used by
/// [`crate::linear::Linear`]: each product element is reduced into a local
/// accumulator and added to `C` once, so accumulation order matches
/// computing the product separately and adding it.
pub fn transpose_matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    transpose_matmul_acc_with(active(), a, b, c, m, kd, n);
}

/// `C += Aᵀ·B` on an explicit kernel.
pub fn transpose_matmul_acc_with(
    kind: KernelKind,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    tally(kind);
    transpose_matmul_impl::<true>(kind, a, b, c, m, kd, n);
}

fn transpose_matmul_impl<const ACC: bool>(
    kind: KernelKind,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * kd, "transpose_matmul lhs length");
    assert_eq!(b.len(), m * n, "transpose_matmul rhs length");
    assert_eq!(c.len(), kd * n, "transpose_matmul output length");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::transpose_matmul::<ACC>(a, b, c, m, kd, n) };
        return;
    }
    let _ = kind;
    scalar::transpose_matmul::<ACC>(a, b, c, m, kd, n);
}

/// Adds the broadcast row `bias` to every `bias.len()`-wide row of `x`.
/// Bitwise identical across kernels (pure element-wise additions).
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    add_bias_with(active(), x, bias);
}

/// Bias-add on an explicit kernel.
pub fn add_bias_with(kind: KernelKind, x: &mut [f32], bias: &[f32]) {
    tally(kind);
    assert!(bias.is_empty() || x.len().is_multiple_of(bias.len()), "bias does not tile the rows");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::add_bias(x, bias) };
        return;
    }
    let _ = kind;
    scalar::add_bias(x, bias);
}

/// In-place ReLU: `x = max(x, 0)` (NaN maps to 0, matching `x > 0` tests).
/// Bitwise identical across kernels.
pub fn relu_forward(x: &mut [f32]) {
    relu_forward_with(active(), x);
}

/// ReLU forward on an explicit kernel.
pub fn relu_forward_with(kind: KernelKind, x: &mut [f32]) {
    tally(kind);
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::relu_forward(x) };
        return;
    }
    let _ = kind;
    scalar::relu_forward(x);
}

/// In-place ReLU backward: zeroes `g[i]` wherever the activated output
/// `a[i] <= 0`. Bitwise identical across kernels.
pub fn relu_backward(g: &mut [f32], a: &[f32]) {
    relu_backward_with(active(), g, a);
}

/// ReLU backward on an explicit kernel.
pub fn relu_backward_with(kind: KernelKind, g: &mut [f32], a: &[f32]) {
    tally(kind);
    assert_eq!(g.len(), a.len(), "relu_backward length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::relu_backward(g, a) };
        return;
    }
    let _ = kind;
    scalar::relu_backward(g, a);
}

/// One Adam update over a parameter slice:
/// `m ← β₁m + (1−β₁)g·s`, `v ← β₂v + (1−β₂)(g·s)²`,
/// `p ← p − lr·(m/bc₁)/(√(v/bc₂)+ε)`.
/// Bitwise identical across kernels (the SIMD path avoids FMA on purpose).
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    scale: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    bc1: f32,
    bc2: f32,
) {
    adam_step_with(active(), p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2);
}

/// Adam step on an explicit kernel.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_with(
    kind: KernelKind,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    scale: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    bc1: f32,
    bc2: f32,
) {
    tally(kind);
    assert!(
        g.len() == p.len() && m.len() == p.len() && v.len() == p.len(),
        "adam_step slice lengths differ"
    );
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::adam_step(p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2) };
        return;
    }
    let _ = kind;
    scalar::adam_step(p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2);
}

// ---------------------------------------------------------------------------
// Scalar kernels: ascending-reduction order, bitwise-stable at every size.
// ---------------------------------------------------------------------------

mod scalar {
    use super::BLOCK_THRESHOLD;

    /// Side length of the register-blocked micro-kernel tile.
    const TILE: usize = 4;

    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        if m * kd * n >= BLOCK_THRESHOLD {
            matmul_blocked(a, b, c, m, kd, n);
            return;
        }
        c.fill(0.0);
        for i in 0..m {
            let arow = &a[i * kd..(i + 1) * kd];
            let orow = &mut c[i * n..(i + 1) * n];
            for (k, &av) in arow.iter().enumerate() {
                let brow = &b[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub fn matmul_transpose(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        if m * kd * n >= BLOCK_THRESHOLD {
            matmul_transpose_blocked(a, b, c, m, kd, n);
            return;
        }
        for i in 0..m {
            let arow = &a[i * kd..(i + 1) * kd];
            for j in 0..n {
                let brow = &b[j * kd..(j + 1) * kd];
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                c[i * n + j] = acc;
            }
        }
    }

    pub fn transpose_matmul<const ACC: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        if m * kd * n >= BLOCK_THRESHOLD {
            transpose_matmul_blocked::<ACC>(a, b, c, m, kd, n);
            return;
        }
        // Per-element local accumulator in ascending-`r` order, added to `C`
        // once: matches the blocked tile and the "compute product, then
        // add_assign" formulation bitwise.
        for i in 0..kd {
            for j in 0..n {
                let mut acc = 0.0f32;
                for r in 0..m {
                    acc += a[r * kd + i] * b[r * n + j];
                }
                if ACC {
                    c[i * n + j] += acc;
                } else {
                    c[i * n + j] = acc;
                }
            }
        }
    }

    /// `C = A · B` with a 4×4 register tile: the 16 partial sums live in
    /// registers across the whole `k` sweep, so `C` sees no memory traffic
    /// in the inner loop and each `a` load feeds four multiply-adds.
    ///
    /// Each output element accumulates in ascending-`k` order — the same
    /// order as the naive `i,k,j` loop — so the two paths agree bitwise.
    fn matmul_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        let mut i0 = 0;
        while i0 < m {
            let ib = TILE.min(m - i0);
            let mut j0 = 0;
            while j0 < n {
                let jb = TILE.min(n - j0);
                let mut acc = [[0.0f32; TILE]; TILE];
                if ib == TILE && jb == TILE {
                    for k in 0..kd {
                        let brow = &b[k * n + j0..k * n + j0 + TILE];
                        for di in 0..TILE {
                            let av = a[(i0 + di) * kd + k];
                            for dj in 0..TILE {
                                acc[di][dj] += av * brow[dj];
                            }
                        }
                    }
                } else {
                    for k in 0..kd {
                        let brow = &b[k * n + j0..k * n + j0 + jb];
                        for (di, row) in acc.iter_mut().enumerate().take(ib) {
                            let av = a[(i0 + di) * kd + k];
                            for (dj, &bv) in brow.iter().enumerate() {
                                row[dj] += av * bv;
                            }
                        }
                    }
                }
                for (di, row) in acc.iter().enumerate().take(ib) {
                    let off = (i0 + di) * n + j0;
                    c[off..off + jb].copy_from_slice(&row[..jb]);
                }
                j0 += jb;
            }
            i0 += ib;
        }
    }

    /// `C (+)= Aᵀ · B` (`A` is `m×kd` traversed column-wise, output `kd×n`)
    /// with the same 4×4 register tile; the reduction runs over the shared
    /// row axis `r` in ascending order, matching the naive loop bitwise.
    fn transpose_matmul_blocked<const ACC: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let mut i0 = 0;
        while i0 < kd {
            let ib = TILE.min(kd - i0);
            let mut j0 = 0;
            while j0 < n {
                let jb = TILE.min(n - j0);
                let mut acc = [[0.0f32; TILE]; TILE];
                if ib == TILE && jb == TILE {
                    for r in 0..m {
                        let arow = &a[r * kd + i0..r * kd + i0 + TILE];
                        let brow = &b[r * n + j0..r * n + j0 + TILE];
                        for di in 0..TILE {
                            let av = arow[di];
                            for dj in 0..TILE {
                                acc[di][dj] += av * brow[dj];
                            }
                        }
                    }
                } else {
                    for r in 0..m {
                        let arow = &a[r * kd + i0..r * kd + i0 + ib];
                        let brow = &b[r * n + j0..r * n + j0 + jb];
                        for (di, row) in acc.iter_mut().enumerate().take(ib) {
                            let av = arow[di];
                            for (dj, &bv) in brow.iter().enumerate() {
                                row[dj] += av * bv;
                            }
                        }
                    }
                }
                for (di, row) in acc.iter().enumerate().take(ib) {
                    let off = (i0 + di) * n + j0;
                    if ACC {
                        for (cell, &v) in c[off..off + jb].iter_mut().zip(row.iter()) {
                            *cell += v;
                        }
                    } else {
                        c[off..off + jb].copy_from_slice(&row[..jb]);
                    }
                }
                j0 += jb;
            }
            i0 += ib;
        }
    }

    /// `C = A · Bᵀ` (both operands `…×kd` row-major, output `m×n` where `n`
    /// is `B`'s row count): 16 dot products advance together over `k`,
    /// reusing each loaded `a`/`b` value four times. Ascending-`k`
    /// accumulation keeps the result bitwise equal to the naive loop.
    fn matmul_transpose_blocked(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let mut i0 = 0;
        while i0 < m {
            let ib = TILE.min(m - i0);
            let mut j0 = 0;
            while j0 < n {
                let jb = TILE.min(n - j0);
                let mut acc = [[0.0f32; TILE]; TILE];
                if ib == TILE && jb == TILE {
                    for k in 0..kd {
                        for di in 0..TILE {
                            let av = a[(i0 + di) * kd + k];
                            for dj in 0..TILE {
                                acc[di][dj] += av * b[(j0 + dj) * kd + k];
                            }
                        }
                    }
                } else {
                    for k in 0..kd {
                        for (di, row) in acc.iter_mut().enumerate().take(ib) {
                            let av = a[(i0 + di) * kd + k];
                            for (dj, cell) in row.iter_mut().enumerate().take(jb) {
                                *cell += av * b[(j0 + dj) * kd + k];
                            }
                        }
                    }
                }
                for (di, row) in acc.iter().enumerate().take(ib) {
                    let off = (i0 + di) * n + j0;
                    c[off..off + jb].copy_from_slice(&row[..jb]);
                }
                j0 += jb;
            }
            i0 += ib;
        }
    }

    pub fn add_bias(x: &mut [f32], bias: &[f32]) {
        if bias.is_empty() {
            return;
        }
        for row in x.chunks_exact_mut(bias.len()) {
            for (xv, &bv) in row.iter_mut().zip(bias.iter()) {
                *xv += bv;
            }
        }
    }

    pub fn relu_forward(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    pub fn relu_backward(g: &mut [f32], a: &[f32]) {
        for (gv, &av) in g.iter_mut().zip(a.iter()) {
            if av <= 0.0 {
                *gv = 0.0;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn adam_step(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        scale: f32,
        lr: f32,
        beta1: f32,
        beta2: f32,
        epsilon: f32,
        bc1: f32,
        bc2: f32,
    ) {
        for i in 0..p.len() {
            let gi = g[i] * scale;
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            p[i] -= lr * mhat / (vhat.sqrt() + epsilon);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels. Callers verify feature support before dispatching here.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of an 8-lane vector.
    #[target_feature(enable = "avx2,fma")]
    fn hsum(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    /// `C = A·B`: 4-row × 16-column register tile (8 FMA chains) with
    /// 8-wide and scalar column remainders, then single-row remainder.
    #[target_feature(enable = "avx2,fma")]
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= m {
            let mut j = 0;
            while j + 16 <= n {
                let mut acc = [_mm256_setzero_ps(); 8];
                for k in 0..kd {
                    // SAFETY: k < kd, j+16 <= n, i+4 <= m keep every index
                    // inside the asserted m×kd / kd×n bounds.
                    let (b0, b1) = unsafe {
                        (_mm256_loadu_ps(bp.add(k * n + j)), _mm256_loadu_ps(bp.add(k * n + j + 8)))
                    };
                    for r in 0..4 {
                        // SAFETY: (i+r)*kd + k < m*kd.
                        let av = unsafe { _mm256_broadcast_ss(&*ap.add((i + r) * kd + k)) };
                        acc[r * 2] = _mm256_fmadd_ps(av, b0, acc[r * 2]);
                        acc[r * 2 + 1] = _mm256_fmadd_ps(av, b1, acc[r * 2 + 1]);
                    }
                }
                for r in 0..4 {
                    // SAFETY: (i+r)*n + j + 16 <= m*n.
                    unsafe {
                        _mm256_storeu_ps(cp.add((i + r) * n + j), acc[r * 2]);
                        _mm256_storeu_ps(cp.add((i + r) * n + j + 8), acc[r * 2 + 1]);
                    }
                }
                j += 16;
            }
            while j + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); 4];
                for k in 0..kd {
                    // SAFETY: in-bounds per the same argument as above.
                    let b0 = unsafe { _mm256_loadu_ps(bp.add(k * n + j)) };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        // SAFETY: (i+r)*kd + k < m*kd.
                        let av = unsafe { _mm256_broadcast_ss(&*ap.add((i + r) * kd + k)) };
                        *accr = _mm256_fmadd_ps(av, b0, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    // SAFETY: (i+r)*n + j + 8 <= m*n.
                    unsafe { _mm256_storeu_ps(cp.add((i + r) * n + j), *accr) };
                }
                j += 8;
            }
            while j < n {
                for r in i..i + 4 {
                    let mut acc = 0.0f32;
                    for k in 0..kd {
                        acc += a[r * kd + k] * b[k * n + j];
                    }
                    c[r * n + j] = acc;
                }
                j += 1;
            }
            i += 4;
        }
        while i < m {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for k in 0..kd {
                    // SAFETY: i < m, k < kd, j+8 <= n.
                    let av = unsafe { _mm256_broadcast_ss(&*ap.add(i * kd + k)) };
                    let b0 = unsafe { _mm256_loadu_ps(bp.add(k * n + j)) };
                    acc = _mm256_fmadd_ps(av, b0, acc);
                }
                // SAFETY: i*n + j + 8 <= m*n.
                unsafe { _mm256_storeu_ps(cp.add(i * n + j), acc) };
                j += 8;
            }
            while j < n {
                let mut acc = 0.0f32;
                for k in 0..kd {
                    acc += a[i * kd + k] * b[k * n + j];
                }
                c[i * n + j] = acc;
                j += 1;
            }
            i += 1;
        }
    }

    /// `C = A·Bᵀ`: four dot products share each 8-wide `A` load; the
    /// reduction tail over `kd % 8` runs scalar after the horizontal sum.
    #[target_feature(enable = "avx2,fma")]
    pub fn matmul_transpose(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let kv = kd - kd % 8;
        for i in 0..m {
            let mut j = 0;
            while j + 4 <= n {
                let mut acc = [_mm256_setzero_ps(); 4];
                let mut k = 0;
                while k < kv {
                    // SAFETY: i < m, j+4 <= n, k+8 <= kd.
                    let av = unsafe { _mm256_loadu_ps(ap.add(i * kd + k)) };
                    for (jj, accj) in acc.iter_mut().enumerate() {
                        let bv = unsafe { _mm256_loadu_ps(bp.add((j + jj) * kd + k)) };
                        *accj = _mm256_fmadd_ps(av, bv, *accj);
                    }
                    k += 8;
                }
                for (jj, accj) in acc.iter().enumerate() {
                    let mut sum = hsum(*accj);
                    for kk in kv..kd {
                        sum += a[i * kd + kk] * b[(j + jj) * kd + kk];
                    }
                    c[i * n + j + jj] = sum;
                }
                j += 4;
            }
            while j < n {
                let mut acc = _mm256_setzero_ps();
                let mut k = 0;
                while k < kv {
                    // SAFETY: i < m, j < n, k+8 <= kd.
                    let av = unsafe { _mm256_loadu_ps(ap.add(i * kd + k)) };
                    let bv = unsafe { _mm256_loadu_ps(bp.add(j * kd + k)) };
                    acc = _mm256_fmadd_ps(av, bv, acc);
                    k += 8;
                }
                let mut sum = hsum(acc);
                for kk in kv..kd {
                    sum += a[i * kd + kk] * b[j * kd + kk];
                }
                c[i * n + j] = sum;
                j += 1;
            }
        }
    }

    /// `C (+)= Aᵀ·B`: 4 rows of `C` × 8 columns per tile; the four `A`
    /// column values per `r` are contiguous in memory.
    #[target_feature(enable = "avx2,fma")]
    pub fn transpose_matmul<const ACC: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= kd {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); 4];
                for r in 0..m {
                    // SAFETY: r < m, j+8 <= n, i+4 <= kd.
                    let bv = unsafe { _mm256_loadu_ps(bp.add(r * n + j)) };
                    for (di, acci) in acc.iter_mut().enumerate() {
                        let av = unsafe { _mm256_broadcast_ss(&*ap.add(r * kd + i + di)) };
                        *acci = _mm256_fmadd_ps(av, bv, *acci);
                    }
                }
                for (di, acci) in acc.iter().enumerate() {
                    // SAFETY: (i+di)*n + j + 8 <= kd*n.
                    unsafe {
                        let dst = cp.add((i + di) * n + j);
                        let out =
                            if ACC { _mm256_add_ps(_mm256_loadu_ps(dst), *acci) } else { *acci };
                        _mm256_storeu_ps(dst, out);
                    }
                }
                j += 8;
            }
            while j < n {
                for di in 0..4 {
                    let mut acc = 0.0f32;
                    for r in 0..m {
                        acc += a[r * kd + i + di] * b[r * n + j];
                    }
                    let cell = &mut c[(i + di) * n + j];
                    if ACC {
                        *cell += acc;
                    } else {
                        *cell = acc;
                    }
                }
                j += 1;
            }
            i += 4;
        }
        while i < kd {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = _mm256_setzero_ps();
                for r in 0..m {
                    // SAFETY: r < m, i < kd, j+8 <= n.
                    let av = unsafe { _mm256_broadcast_ss(&*ap.add(r * kd + i)) };
                    let bv = unsafe { _mm256_loadu_ps(bp.add(r * n + j)) };
                    acc = _mm256_fmadd_ps(av, bv, acc);
                }
                // SAFETY: i*n + j + 8 <= kd*n.
                unsafe {
                    let dst = cp.add(i * n + j);
                    let out = if ACC { _mm256_add_ps(_mm256_loadu_ps(dst), acc) } else { acc };
                    _mm256_storeu_ps(dst, out);
                }
                j += 8;
            }
            while j < n {
                let mut acc = 0.0f32;
                for r in 0..m {
                    acc += a[r * kd + i] * b[r * n + j];
                }
                let cell = &mut c[i * n + j];
                if ACC {
                    *cell += acc;
                } else {
                    *cell = acc;
                }
                j += 1;
            }
            i += 1;
        }
    }

    /// Broadcast row add; element-wise `add_ps` keeps it bitwise equal to
    /// the scalar loop.
    #[target_feature(enable = "avx2,fma")]
    pub fn add_bias(x: &mut [f32], bias: &[f32]) {
        if bias.is_empty() {
            return;
        }
        let cols = bias.len();
        let bp = bias.as_ptr();
        let cv = cols - cols % 8;
        for row in x.chunks_exact_mut(cols) {
            let rp = row.as_mut_ptr();
            let mut j = 0;
            while j < cv {
                // SAFETY: j+8 <= cols bounds both the row and bias loads.
                unsafe {
                    let xv = _mm256_loadu_ps(rp.add(j));
                    let bv = _mm256_loadu_ps(bp.add(j));
                    _mm256_storeu_ps(rp.add(j), _mm256_add_ps(xv, bv));
                }
                j += 8;
            }
            for jj in j..cols {
                row[jj] += bias[jj];
            }
        }
    }

    /// `x = max(x, 0)`; `max_ps(x, 0)` returns 0 when `x` is NaN, matching
    /// the scalar `if x > 0.0 { x } else { 0.0 }` exactly.
    #[target_feature(enable = "avx2,fma")]
    pub fn relu_forward(x: &mut [f32]) {
        let zero = _mm256_setzero_ps();
        let xp = x.as_mut_ptr();
        let nv = x.len() - x.len() % 8;
        let mut i = 0;
        while i < nv {
            // SAFETY: i+8 <= x.len().
            unsafe {
                let v = _mm256_loadu_ps(xp.add(i));
                _mm256_storeu_ps(xp.add(i), _mm256_max_ps(v, zero));
            }
            i += 8;
        }
        for v in &mut x[nv..] {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    /// Zeroes `g` where `a <= 0`; `_CMP_NLE_UQ` keeps the gradient when `a`
    /// is NaN, matching the scalar `if a <= 0.0 { g = 0.0 }` exactly.
    #[target_feature(enable = "avx2,fma")]
    pub fn relu_backward(g: &mut [f32], a: &[f32]) {
        let zero = _mm256_setzero_ps();
        let gp = g.as_mut_ptr();
        let ap = a.as_ptr();
        let nv = g.len() - g.len() % 8;
        let mut i = 0;
        while i < nv {
            // SAFETY: i+8 <= g.len() == a.len().
            unsafe {
                let av = _mm256_loadu_ps(ap.add(i));
                let gv = _mm256_loadu_ps(gp.add(i));
                let keep = _mm256_cmp_ps::<_CMP_NLE_UQ>(av, zero);
                _mm256_storeu_ps(gp.add(i), _mm256_and_ps(gv, keep));
            }
            i += 8;
        }
        for (gv, &av) in g[nv..].iter_mut().zip(&a[nv..]) {
            if av <= 0.0 {
                *gv = 0.0;
            }
        }
    }

    /// Vectorized Adam update. Deliberately mul+add (no FMA): every lane
    /// performs the identical rounding sequence as the scalar kernel, so
    /// scalar and SIMD optimizer steps agree bitwise.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub fn adam_step(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        scale: f32,
        lr: f32,
        beta1: f32,
        beta2: f32,
        epsilon: f32,
        bc1: f32,
        bc2: f32,
    ) {
        let n = p.len();
        let nv = n - n % 8;
        let (pp, gp, mp, vp) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
        let vscale = _mm256_set1_ps(scale);
        let vlr = _mm256_set1_ps(lr);
        let vb1 = _mm256_set1_ps(beta1);
        let vb2 = _mm256_set1_ps(beta2);
        let vomb1 = _mm256_set1_ps(1.0 - beta1);
        let vomb2 = _mm256_set1_ps(1.0 - beta2);
        let veps = _mm256_set1_ps(epsilon);
        let vbc1 = _mm256_set1_ps(bc1);
        let vbc2 = _mm256_set1_ps(bc2);
        let mut i = 0;
        while i < nv {
            // SAFETY: i+8 <= n bounds every slice access.
            unsafe {
                let gi = _mm256_mul_ps(_mm256_loadu_ps(gp.add(i)), vscale);
                let mi = _mm256_add_ps(
                    _mm256_mul_ps(vb1, _mm256_loadu_ps(mp.add(i))),
                    _mm256_mul_ps(vomb1, gi),
                );
                let vi = _mm256_add_ps(
                    _mm256_mul_ps(vb2, _mm256_loadu_ps(vp.add(i))),
                    _mm256_mul_ps(_mm256_mul_ps(vomb2, gi), gi),
                );
                _mm256_storeu_ps(mp.add(i), mi);
                _mm256_storeu_ps(vp.add(i), vi);
                let mhat = _mm256_div_ps(mi, vbc1);
                let vhat = _mm256_div_ps(vi, vbc2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
                let upd = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
                _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), upd));
            }
            i += 8;
        }
        for i in nv..n {
            let gi = g[i] * scale;
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            p[i] -= lr * mhat / (vhat.sqrt() + epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, salt: u32) -> Vec<f32> {
        (0..len).map(|i| ((i as u32 ^ salt) % 17) as f32 - 8.0).collect()
    }

    #[test]
    fn choice_parse_roundtrip() {
        for c in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Simd] {
            assert_eq!(KernelChoice::parse(c.label()), Some(c));
        }
        assert_eq!(KernelChoice::parse("avx512"), None);
    }

    #[test]
    fn scalar_matmul_matches_reference_across_threshold() {
        for (m, kd, n) in [(3, 5, 4), (17, 19, 23), (16, 16, 16)] {
            let a = patterned(m * kd, 3);
            let b = patterned(kd * n, 7);
            let mut c = vec![f32::NAN; m * n]; // stale scratch must be overwritten
            matmul_with(KernelKind::Scalar, &a, &b, &mut c, m, kd, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for k in 0..kd {
                        acc += a[i * kd + k] * b[k * n + j];
                    }
                    assert_eq!(c[i * n + j].to_bits(), acc.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn transpose_matmul_acc_adds_complete_products() {
        let (m, kd, n) = (6, 5, 4);
        let a = patterned(m * kd, 11);
        let b = patterned(m * n, 13);
        let mut base = vec![0.0f32; kd * n];
        transpose_matmul_with(KernelKind::Scalar, &a, &b, &mut base, m, kd, n);
        let mut acc = patterned(kd * n, 17);
        let expect: Vec<f32> = acc.iter().zip(&base).map(|(x, y)| x + y).collect();
        transpose_matmul_acc_with(KernelKind::Scalar, &a, &b, &mut acc, m, kd, n);
        assert_eq!(acc, expect);
    }

    #[test]
    fn elementwise_ops_bitwise_equal_across_kernels() {
        if !simd_available() {
            return;
        }
        let mut xs = patterned(37, 23);
        xs[5] = f32::NAN;
        let mut scalar_relu = xs.clone();
        relu_forward_with(KernelKind::Scalar, &mut scalar_relu);
        let mut simd_relu = xs.clone();
        relu_forward_with(KernelKind::Simd, &mut simd_relu);
        assert_eq!(
            scalar_relu.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            simd_relu.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        let acts = patterned(37, 29);
        let mut gs = patterned(37, 31);
        let mut gv = gs.clone();
        relu_backward_with(KernelKind::Scalar, &mut gs, &acts);
        relu_backward_with(KernelKind::Simd, &mut gv, &acts);
        assert_eq!(gs, gv);

        let bias = patterned(5, 37);
        let mut rows_s = patterned(20, 41);
        let mut rows_v = rows_s.clone();
        add_bias_with(KernelKind::Scalar, &mut rows_s, &bias);
        add_bias_with(KernelKind::Simd, &mut rows_v, &bias);
        assert_eq!(rows_s, rows_v);
    }

    #[test]
    fn adam_step_bitwise_equal_across_kernels() {
        if !simd_available() {
            return;
        }
        let n = 203; // odd: exercises the scalar tail
        let g: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin()).collect();
        let mut ps = vec![0.5f32; n];
        let mut ms = vec![0.01f32; n];
        let mut vs = vec![0.002f32; n];
        let (mut pv, mut mv, mut vv) = (ps.clone(), ms.clone(), vs.clone());
        for t in 1..=3 {
            let bc1 = 1.0 - 0.9f32.powi(t);
            let bc2 = 1.0 - 0.999f32.powi(t);
            adam_step_with(
                KernelKind::Scalar,
                &mut ps,
                &g,
                &mut ms,
                &mut vs,
                0.7,
                0.01,
                0.9,
                0.999,
                1e-8,
                bc1,
                bc2,
            );
            adam_step_with(
                KernelKind::Simd,
                &mut pv,
                &g,
                &mut mv,
                &mut vv,
                0.7,
                0.01,
                0.9,
                0.999,
                1e-8,
                bc1,
                bc2,
            );
        }
        assert_eq!(
            ps.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            pv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "matmul rhs length")]
    fn short_operand_is_refused_in_every_build() {
        // 2×3 · 3×2 needs six rhs values; the SIMD body would read past five.
        let (a, b, mut c) = (vec![1.0f32; 6], vec![1.0f32; 5], vec![0.0f32; 4]);
        matmul_with(KernelKind::Simd, &a, &b, &mut c, 2, 3, 2);
    }

    #[test]
    fn dispatch_tally_counts_effective_path() {
        // Tallies are process-global; measure deltas so parallel tests
        // only ever inflate them.
        let (s0, v0) = dispatch_tally();
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![0.0f32; 4];
        matmul_with(KernelKind::Scalar, &a, &b, &mut c, 2, 2, 2);
        let (s1, _) = dispatch_tally();
        assert!(s1 > s0, "scalar dispatch must tally");
        if simd_available() {
            matmul_with(KernelKind::Simd, &a, &b, &mut c, 2, 2, 2);
            let (_, v1) = dispatch_tally();
            assert!(v1 > v0, "simd dispatch must tally");
        } else {
            // Simd request downgrades to scalar — and tallies as scalar.
            matmul_with(KernelKind::Simd, &a, &b, &mut c, 2, 2, 2);
            let (s2, v1) = dispatch_tally();
            assert!(s2 > s1);
            assert_eq!(v1, v0);
        }
    }
}
