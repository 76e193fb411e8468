//! Runtime-dispatched compute kernels: scalar reference loops and AVX2+FMA
//! SIMD.
//!
//! Every dense op the update phase spends time in — the two matmul
//! variants (`C = A·B` and the gradient accumulation `C += Aᵀ·B`),
//! bias-add, ReLU forward/backward, and the Adam parameter step — funnels
//! through this module. An input gradient `dX = G·Wᵀ` is `A·B` against a
//! transposed weight block (see [`crate::linear::Linear`]), so it needs no
//! product of its own. The kernel is resolved **once**, by CPU feature
//! detection (SIMD when the host has AVX2+FMA, scalar otherwise), and
//! cached in an atomic, so dispatch costs one relaxed load per op. There
//! is nothing to select: both kernels compute the same bits, and
//! [`set_active`] exists only so tests can run the scalar code on a SIMD
//! host.
//!
//! ## Numeric contract: one arithmetic
//!
//! * Both kernels compute every output element of `C = A·B` as a chain of
//!   fused multiply-adds in ascending `k` from `+0.0`
//!   (`acc = a[i][k].mul_add(b[k][j], acc)`), and every element of
//!   `C += Aᵀ·B` as the same chain in ascending `r`
//!   (`acc = a[r][i].mul_add(b[r][j], acc)`) followed by one add into
//!   `C`. The scalar kernel is those loops written out with
//!   [`f32::mul_add`]; the AVX2 kernel runs one chain per lane, in the
//!   full-width tiles, the masked column tails and every strip height
//!   alike. So an element's bits depend only on its own row of `A` and
//!   column of `B` — never on the shape around it, and never on the
//!   kernel: scalar and SIMD are **bitwise identical**
//!   (`tests/kernel_equivalence.rs` pins both against `mul_add`
//!   references, also with flush-to-zero in force).
//! * The element-wise ops (bias-add, ReLU, Adam) avoid FMA on both paths
//!   and are bitwise identical too.
//! * [`f32::mul_add`] rounds once, on every target: where the CPU has no
//!   FMA instruction it lowers to the C library's `fmaf`, which is
//!   correct but slow. Bitwise agreement on such a host rests on that
//!   `fmaf` being correctly rounded (and honouring flush-to-zero like the
//!   hardware instruction); it has not been checked on one.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which kernel implementation executes the dense ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Plain `mul_add` reference loops: hosts without AVX2+FMA, and the
    /// tests' reference.
    Scalar,
    /// AVX2+FMA vectorized loops (x86-64 only; falls back to scalar
    /// elsewhere or when the CPU lacks the features).
    Simd,
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

/// First-use default: SIMD when the CPU has AVX2+FMA, else scalar.
fn resolve_default() -> KernelKind {
    if simd_available() {
        KernelKind::Simd
    } else {
        KernelKind::Scalar
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

/// Forces the process-wide kernel — a test hook, since both kernels give
/// the same bits; `Simd` downgrades to `Scalar` when the CPU lacks
/// AVX2+FMA. Returns the kernel actually installed.
pub fn set_active(kind: KernelKind) -> KernelKind {
    let k = if kind == KernelKind::Simd && !simd_available() { KernelKind::Scalar } else { kind };
    ACTIVE.store(encode(k), Ordering::Relaxed);
    k
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

/// `C += Aᵀ·B` for row-major `A (m×kd)`, `B (m×n)`, `C (kd×n)` — the
/// gradient accumulation of [`crate::linear::Linear`]: each product
/// element is reduced into a local accumulator and added to `C` once, so
/// the result matches computing the product separately and adding it.
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
    assert_eq!(a.len(), m * kd, "transpose_matmul lhs length");
    assert_eq!(b.len(), m * n, "transpose_matmul rhs length");
    assert_eq!(c.len(), kd * n, "transpose_matmul output length");
    #[cfg(target_arch = "x86_64")]
    if kind == KernelKind::Simd && simd_available() {
        // SAFETY: AVX2+FMA verified above.
        unsafe { avx2::transpose_matmul_acc(a, b, c, m, kd, n) };
        return;
    }
    let _ = kind;
    scalar::transpose_matmul_acc(a, b, c, m, kd, n);
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
// Scalar kernels: the reference loops of the numeric contract.
// ---------------------------------------------------------------------------

mod scalar {
    /// `C = A·B`: each element of row `i` is the k-order `mul_add` chain
    /// from `+0.0`, run for the whole row at once.
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        c.fill(0.0);
        for i in 0..m {
            let arow = &a[i * kd..(i + 1) * kd];
            let orow = &mut c[i * n..(i + 1) * n];
            for (k, &av) in arow.iter().enumerate() {
                let brow = &b[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }

    /// `C += Aᵀ·B`: each element is the r-order `mul_add` chain from
    /// `+0.0`, then one add into `C`.
    pub fn transpose_matmul_acc(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        for i in 0..kd {
            for j in 0..n {
                c[i * n + j] +=
                    (0..m).fold(0.0f32, |acc, r| a[r * kd + i].mul_add(b[r * n + j], acc));
            }
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

/// Height of the next AVX2 row strip when `rows` output rows remain.
///
/// A 6-row × 16-column tile holds 12 accumulators, 2 `B` vectors and 1
/// broadcast: 15 of the 16 ymm registers, and 12 independent FMA chains,
/// enough to keep both FMA ports busy across an L2 wait on `B`. So strips
/// are 6 rows high wherever at least 9 rows remain or exactly 6 do; 5, 4,
/// 3, 2 or 1 remaining rows run as one strip of that height; and 7 or 8
/// remaining rows run as 4 + 3 or 4 + 4. No 1- or 2-row strip, whose
/// tiles keep only 4 chains, ever follows a taller one.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn strip_height(rows: usize) -> usize {
    match rows {
        7 | 8 => 4,
        r => r.min(6),
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels. Callers verify feature support before dispatching here.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Lanes `0..len` set, the rest clear: the `n % 8` column tail.
    #[target_feature(enable = "avx2,fma")]
    fn tail_mask(len: usize) -> __m256i {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// `C = A·B` in row strips of [`strip_height`](super::strip_height)
    /// rows: 6-row × 16-column register tiles (12 FMA chains), a 6 × 8
    /// tile, then the `n % 8` columns as one masked 6 × 8 tile, with
    /// shorter strips only where fewer rows remain. Every lane is one
    /// output's k-order FMA chain, so the strip height only decides which
    /// outputs share a broadcast, and no shape changes an element.
    #[target_feature(enable = "avx2,fma")]
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mask = tail_mask(n % 8);
        let mut i = 0;
        while i < m {
            // SAFETY: the strip reads A rows i..i+R (R ≤ m − i) over k < kd,
            // B rows k < kd and writes C rows i..i+R, every column < n.
            i += unsafe {
                strip::<false, true>(ap.add(i * kd), kd, 1, bp, cp.add(i * n), n, kd, mask, m - i)
            };
        }
    }

    /// `C += Aᵀ·B` (`C` is `kd × n`, the reduction runs over A's `m`
    /// rows): the same strips and 6-row tiles as [`matmul`] over the
    /// `n − n % 8` full columns, where output row `i` reads A's column `i`
    /// (a tile's 6 broadcasts at step `r` are adjacent in A's row `r`).
    /// The `n % 8` columns go one at a time with eight output rows per
    /// lane vector, since A's row `r` holds those rows contiguously.
    #[target_feature(enable = "avx2,fma")]
    pub fn transpose_matmul_acc(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let nv = n - n % 8;
        let unused = _mm256_setzero_si256();
        let mut i = 0;
        while i < kd {
            // SAFETY: output row i + t reads A at r·kd + i + t < m·kd for
            // r < m, t < R ≤ kd − i; B and C columns stay below nv ≤ n.
            i += unsafe {
                strip::<true, false>(ap.add(i), 1, kd, bp, cp.add(i * n), n, m, unused, kd - i)
            };
        }
        for j in nv..n {
            let mut i = 0;
            // SAFETY: column j < n; the row blocks cover output rows
            // i..i+rows ≤ kd.
            unsafe {
                let b = bp.add(j);
                while i + 32 <= kd {
                    column::<4, false>(ap.add(i), kd, b, n, cp.add(i * n + j), m, 32);
                    i += 32;
                }
                while i + 8 <= kd {
                    column::<1, false>(ap.add(i), kd, b, n, cp.add(i * n + j), m, 8);
                    i += 8;
                }
                if i < kd {
                    column::<1, true>(ap.add(i), kd, b, n, cp.add(i * n + j), m, kd - i);
                }
            }
        }
    }

    /// Every column of the next [`strip_height`](super::strip_height)
    /// output rows, which it returns: 6-, 5-, 4-, 3- and 2-row strips in
    /// 16-wide tiles, a single row in 32-wide ones, so every strip keeps
    /// at least 4 FMA chains in flight. Arguments as [`tile`]'s.
    ///
    /// # Safety
    ///
    /// As [`tiles`] for the rows it covers.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn strip<const ACC: bool, const TAIL: bool>(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: __m256i,
        rows: usize,
    ) -> usize {
        let height = super::strip_height(rows);
        match height {
            1 => tiles::<1, 4, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            2 => tiles::<2, 2, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            3 => tiles::<3, 2, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            4 => tiles::<4, 2, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            5 => tiles::<5, 2, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            _ => tiles::<6, 2, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
        }
        height
    }

    /// Every column of `R` output rows: `V`-block tiles, 8-wide tiles,
    /// then (with `TAIL`) the `n % 8` columns as one masked tile. An
    /// `R × 8V` tile holds `R·V` accumulators, `V` `B` vectors and one
    /// broadcast, so `R·V + V + 1 ≤ 16` keeps it in the ymm registers
    /// (15 at the widest, `6 × 2`). Arguments as [`tile`]'s.
    ///
    /// # Safety
    ///
    /// As [`tile`], for every column `< n` (`< n − n % 8` without `TAIL`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tiles<const R: usize, const V: usize, const ACC: bool, const TAIL: bool>(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: __m256i,
    ) {
        let mut j = 0;
        while j + 8 * V <= n {
            tile::<R, V, ACC, false>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
            j += 8 * V;
        }
        while j + 8 <= n {
            tile::<R, 1, ACC, false>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
            j += 8;
        }
        if TAIL && j < n {
            tile::<R, 1, ACC, true>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
        }
    }

    /// One `R × 8V` register tile of `C (+)= Â·B`, where `Â`'s element for
    /// tile row `t` at reduction step `k` is `a[t·a_row + k·a_step]` and
    /// `B`'s step-`k` row starts at `b + k·n`. Each lane is one output's
    /// FMA chain from `+0.0` in step order; `ACC` adds it into `C` once,
    /// `MASKED` (with `V = 1`) limits loads and stores to `mask`'s lanes.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` must be valid for every element the tile reads or
    /// writes over `steps` steps, with `C`'s rows `n` apart.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const R: usize, const V: usize, const ACC: bool, const MASKED: bool>(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: __m256i,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for k in 0..steps {
            let brow = b.add(k * n);
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = if MASKED {
                    _mm256_maskload_ps(brow.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(brow.add(8 * v))
                };
            }
            for (t, acct) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(t * a_row + k * a_step));
                for (accv, &bvv) in acct.iter_mut().zip(&bv) {
                    *accv = _mm256_fmadd_ps(av, bvv, *accv);
                }
            }
        }
        for (t, acct) in acc.iter().enumerate() {
            for (v, &accv) in acct.iter().enumerate() {
                let dst = c.add(t * n + 8 * v);
                if MASKED {
                    let out =
                        if ACC { _mm256_add_ps(_mm256_maskload_ps(dst, mask), accv) } else { accv };
                    _mm256_maskstore_ps(dst, mask, out);
                } else {
                    let out = if ACC { _mm256_add_ps(_mm256_loadu_ps(dst), accv) } else { accv };
                    _mm256_storeu_ps(dst, out);
                }
            }
        }
    }

    /// Output rows `0..rows` (`rows ≤ 8V`) of one column of `C += Aᵀ·B`, a
    /// lane per output row: at step `r` the rows' `A` values are contiguous
    /// at `a + r·kd` and share the broadcast `b[r·n]`. Each lane is the
    /// same r-order FMA chain [`tile`] computes, added into `C` (`c`, rows
    /// `n` apart) once; `MASKED` (with `V = 1`) loads only `rows` lanes.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` must be valid for the `m` steps and the `rows` rows.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn column<const V: usize, const MASKED: bool>(
        a: *const f32,
        kd: usize,
        b: *const f32,
        n: usize,
        c: *mut f32,
        m: usize,
        rows: usize,
    ) {
        let mask = tail_mask(rows);
        let mut acc = [_mm256_setzero_ps(); V];
        for r in 0..m {
            let bv = _mm256_broadcast_ss(&*b.add(r * n));
            let arow = a.add(r * kd);
            for (v, accv) in acc.iter_mut().enumerate() {
                let av = if MASKED {
                    _mm256_maskload_ps(arow.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(arow.add(8 * v))
                };
                *accv = _mm256_fmadd_ps(av, bv, *accv);
            }
        }
        let mut lanes = [0.0f32; 8];
        for (v, &accv) in acc.iter().enumerate() {
            _mm256_storeu_ps(lanes.as_mut_ptr(), accv);
            for (l, &x) in lanes.iter().enumerate().take(rows - 8 * v) {
                *c.add((8 * v + l) * n) += x;
            }
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
    fn scalar_matmul_overwrites_stale_output_with_the_k_order_chain() {
        for (m, kd, n) in [(3, 5, 4), (17, 19, 23), (1, 1, 1)] {
            let a = patterned(m * kd, 3);
            let b = patterned(kd * n, 7);
            let mut c = vec![f32::NAN; m * n]; // stale scratch must be overwritten
            matmul_with(KernelKind::Scalar, &a, &b, &mut c, m, kd, n);
            for i in 0..m {
                for j in 0..n {
                    let acc =
                        (0..kd).fold(0.0f32, |acc, k| a[i * kd + k].mul_add(b[k * n + j], acc));
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
        transpose_matmul_acc_with(KernelKind::Scalar, &a, &b, &mut base, m, kd, n);
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
    fn strip_heights_cover_every_row_with_no_thin_strip_after_a_tall_one() {
        for m in 1..=256 {
            let mut heights = Vec::new();
            let mut rows = m;
            while rows > 0 {
                let h = strip_height(rows);
                assert!((1..=6).contains(&h) && h <= rows, "m = {m}: height {h} at {rows} rows");
                heights.push(h);
                rows -= h;
            }
            assert_eq!(heights.iter().sum::<usize>(), m);
            for pair in heights.windows(2) {
                assert!(
                    pair[1] >= 3 || pair[1] >= pair[0],
                    "m = {m}: {heights:?} puts a thin strip after a taller one"
                );
            }
        }
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
