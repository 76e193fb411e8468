//! Runtime-dispatched compute kernels: scalar reference loops, AVX2+FMA,
//! and AVX-512F products.
//!
//! Every dense op the update phase spends time in — the two matmul
//! variants (`C = A·B` and the gradient accumulation `C += Aᵀ·B`),
//! bias-add, ReLU forward/backward, and the Adam parameter step — funnels
//! through this module. An input gradient `dX = G·Wᵀ` is `A·B` against a
//! transposed weight block (see [`crate::mlp::Mlp::backward_need_into`]),
//! so it needs no product of its own.
//!
//! ## Three bodies, one route
//!
//! The kernel is resolved **once**, by CPU feature detection, and cached
//! in an atomic: [`KernelKind::Avx512`] when the host has AVX-512F, AVX2
//! and FMA, [`KernelKind::Avx2`] with AVX2+FMA alone, scalar otherwise. So
//! picking a body costs one relaxed load per op. There is nothing to
//! select: every body computes the same bits, and [`set_active`] exists
//! only so tests can run the narrower code on a wider host.
//!
//! The two products are one register-tile micro-kernel (`strip` / `tiles`
//! / `tile`, written once over a lane-vector type), instantiated at
//! `__m256` (6 × 16 tiles, 15 of the 16 ymm registers) and at `__m512`
//! (6 × 64 tiles, 29 of the 32 zmm registers). Under `Avx512` a product
//! runs the wide instance only when it has at least [`WIDE_MIN_ROWS`]
//! batch rows and (for `A·B`) [`WIDE_MIN_COLS`] output columns; the rest,
//! and every element-wise op, run the AVX2 code. Measured on a 2-vCPU
//! Xeon (family 6 model 207): in one process, alternating the bodies, the
//! wide tiles run the training products 1.7–2.1× faster (the
//! 1024 × 924 × 64 critic forward 86 → 163 GF/s) but a masked 16-lane
//! tile over a 1- or 5-column head at 0.90×. End to end the row limit
//! matters more than a tight loop shows: the K = 1 rollout's one-row
//! products, 1.5× faster in a loop, lost ~10 % of rollout throughput on
//! the wide tiles, while 64-row serve batches and batch-64 updates gained
//! (see [`WIDE_MIN_ROWS`]). So every rollout and small serve batch stays
//! on the AVX2 tiles.
//!
//! ## Numeric contract: one arithmetic
//!
//! * Every body computes every output element of `C = A·B` as a chain of
//!   fused multiply-adds in ascending `k` from `+0.0`
//!   (`acc = a[i][k].mul_add(b[k][j], acc)`), and every element of
//!   `C += Aᵀ·B` as the same chain in ascending `r`
//!   (`acc = a[r][i].mul_add(b[r][j], acc)`) followed by one add into
//!   `C`. The scalar kernel is those loops written out with
//!   [`f32::mul_add`]; the vector bodies run one chain per lane, in the
//!   full-width tiles, the masked column tails and every strip height
//!   alike, at either width. So an element's bits depend only on its own
//!   row of `A` and column of `B` — never on the shape around it, and
//!   never on the kernel: scalar, AVX2 and AVX-512 are **bitwise
//!   identical** (`tests/kernel_equivalence.rs` pins all three against
//!   `mul_add` references, also with flush-to-zero in force).
//! * The element-wise ops (bias-add, ReLU, Adam) avoid FMA on every path
//!   and are bitwise identical too.
//! * [`f32::mul_add`] rounds once, on every target: where the CPU has no
//!   FMA instruction it lowers to the C library's `fmaf`, which is
//!   correct but slow. Bitwise agreement on such a host rests on that
//!   `fmaf` being correctly rounded (and honouring flush-to-zero like the
//!   hardware instruction); it has not been checked on one.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which kernel implementation executes the dense ops, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelKind {
    /// Plain `mul_add` reference loops: hosts without AVX2+FMA, and the
    /// tests' reference.
    Scalar,
    /// AVX2+FMA vectorized loops (x86-64 only).
    Avx2,
    /// AVX-512F products for training-sized shapes, AVX2 for every other
    /// op (x86-64 with AVX-512F, AVX2 and FMA).
    Avx512,
}

/// Fewest output columns an `A·B` needs to run the `__m512` tiles: a
/// narrower head (64 → 1, 64 → 5) is one masked tile per strip, which ran
/// at 0.90× the 8-lane one. `C += Aᵀ·B` has no column limit: its columns
/// past the last full vector run a lane per output row, 16 rows to a zmm,
/// 1.24–1.27× the AVX2 rate at those heads.
pub const WIDE_MIN_COLS: usize = 16;

/// Fewest batch rows (`m`, the rows of `A` in both products) a product
/// needs to run the `__m512` tiles: training batches, and a full serve
/// batch. Measured end to end on the host of the module doc: with no row
/// limit the K = 1 rollout lost ~10 % (3 of 3 paired runs against this
/// limit); one row more (65) kept serving's 64-row batches and the
/// batch-64 distributed update on AVX2 and lost 8 of 10 `serve-capacity`
/// pairs and 5 of 5 `dist-lockstep` pairs against this limit.
pub const WIDE_MIN_ROWS: usize = 64;

/// Codes of the two caches: 0 = unresolved, else `1 + KernelKind as u8`.
fn encode(k: KernelKind) -> u8 {
    k as u8 + 1
}

fn decode(code: u8) -> KernelKind {
    match code {
        1 => KernelKind::Scalar,
        2 => KernelKind::Avx2,
        _ => KernelKind::Avx512,
    }
}

/// The widest body this CPU runs, detected on first use.
static HOST: AtomicU8 = AtomicU8::new(0);

/// The body in force, never wider than [`HOST`].
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn detect() -> KernelKind {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            return if has!("avx512f") { KernelKind::Avx512 } else { KernelKind::Avx2 };
        }
    }
    KernelKind::Scalar
}

/// The widest kernel this host runs, detecting it on first use.
pub fn widest() -> KernelKind {
    match HOST.load(Ordering::Relaxed) {
        0 => {
            let k = detect();
            HOST.store(encode(k), Ordering::Relaxed);
            k
        }
        code => decode(code),
    }
}

/// Whether this host runs a vector body (AVX2+FMA at least).
pub fn simd_available() -> bool {
    widest() != KernelKind::Scalar
}

/// The kernel currently in force, resolving it to [`widest`] on first use.
pub fn active() -> KernelKind {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let k = widest();
            ACTIVE.store(encode(k), Ordering::Relaxed);
            k
        }
        code => decode(code),
    }
}

/// Forces the process-wide kernel — a test hook, since every kernel gives
/// the same bits. A kernel this CPU cannot run downgrades to the widest
/// one it can (`Avx512` to `Avx2` without AVX-512F, either to `Scalar`
/// without AVX2+FMA). Returns the kernel actually installed.
pub fn set_active(kind: KernelKind) -> KernelKind {
    let k = kind.min(widest());
    ACTIVE.store(encode(k), Ordering::Relaxed);
    k
}

/// Process-wide dispatch tallies (telemetry): how many kernel-op calls
/// resolved to each path since the last [`reset_dispatch_tally`]. Both
/// vector bodies count as SIMD.
static DISPATCH_SCALAR: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SIMD: AtomicU64 = AtomicU64::new(0);

/// Records one dispatched kernel call on its effective path.
#[inline]
fn tally(kind: KernelKind) {
    if kind == KernelKind::Scalar {
        DISPATCH_SCALAR.fetch_add(1, Ordering::Relaxed);
    } else {
        DISPATCH_SIMD.fetch_add(1, Ordering::Relaxed);
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

/// The body a product runs on under the effective kernel `kind`: the
/// `__m512` tiles only where its shape is `wide`, the shapes they were
/// measured to win at.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn product_body(kind: KernelKind, wide: bool) -> KernelKind {
    if kind == KernelKind::Avx512 && !wide {
        KernelKind::Avx2
    } else {
        kind
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points. `C` buffers may hold stale scratch data: every op
// fully overwrites its output (or documents accumulation). Each op asserts
// its slice-length contract in every build: the vector bodies index through
// raw pointers, and the shapes can come from decoded files. A public op runs
// on [`active`]; its `_with` twin on an explicit kernel (tests and
// benchmarks), downgraded to [`widest`]. Either way the private `_on` body
// receives a kernel this CPU runs.
// ---------------------------------------------------------------------------

/// `C = A·B` for row-major `A (m×kd)`, `B (kd×n)`, `C (m×n)`.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    matmul_on(active(), a, b, c, m, kd, n);
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
    matmul_on(kind.min(widest()), a, b, c, m, kd, n);
}

fn matmul_on(kind: KernelKind, a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    tally(kind);
    assert_eq!(a.len(), m * kd, "matmul lhs length");
    assert_eq!(b.len(), kd * n, "matmul rhs length");
    assert_eq!(c.len(), m * n, "matmul output length");
    #[cfg(target_arch = "x86_64")]
    match product_body(kind, m >= WIDE_MIN_ROWS && n >= WIDE_MIN_COLS) {
        // SAFETY: `kind` is never wider than `widest()` (`active` resolves
        // to it, `set_active` and the `_with` twin clamp to it), and the
        // slice lengths are the shapes asserted above.
        KernelKind::Avx512 => return unsafe { avx512::matmul(a, b, c, m, kd, n) },
        // SAFETY: as for the `Avx512` arm.
        KernelKind::Avx2 => return unsafe { avx2::matmul(a, b, c, m, kd, n) },
        KernelKind::Scalar => {}
    }
    scalar::matmul(a, b, c, m, kd, n);
}

/// `C += Aᵀ·B` for row-major `A (m×kd)`, `B (m×n)`, `C (kd×n)` — the
/// gradient accumulation of a layer's `dL/dW`: each product
/// element is reduced into a local accumulator and added to `C` once, so
/// the result matches computing the product separately and adding it.
pub fn transpose_matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
    transpose_matmul_acc_on(active(), a, b, c, m, kd, n);
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
    transpose_matmul_acc_on(kind.min(widest()), a, b, c, m, kd, n);
}

fn transpose_matmul_acc_on(
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
    match product_body(kind, m >= WIDE_MIN_ROWS) {
        // SAFETY: as in `matmul_on`.
        KernelKind::Avx512 => return unsafe { avx512::transpose_matmul_acc(a, b, c, m, kd, n) },
        // SAFETY: as in `matmul_on`.
        KernelKind::Avx2 => return unsafe { avx2::transpose_matmul_acc(a, b, c, m, kd, n) },
        KernelKind::Scalar => {}
    }
    scalar::transpose_matmul_acc(a, b, c, m, kd, n);
}

/// Adds the broadcast row `bias` to every `bias.len()`-wide row of `x`.
/// Bitwise identical across kernels (pure element-wise additions).
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    add_bias_on(active(), x, bias);
}

/// Bias-add on an explicit kernel.
pub fn add_bias_with(kind: KernelKind, x: &mut [f32], bias: &[f32]) {
    add_bias_on(kind.min(widest()), x, bias);
}

fn add_bias_on(kind: KernelKind, x: &mut [f32], bias: &[f32]) {
    tally(kind);
    assert!(bias.is_empty() || x.len().is_multiple_of(bias.len()), "bias does not tile the rows");
    #[cfg(target_arch = "x86_64")]
    if kind != KernelKind::Scalar {
        // SAFETY: a vector kernel in force implies AVX2+FMA.
        unsafe { avx2::add_bias(x, bias) };
        return;
    }
    scalar::add_bias(x, bias);
}

/// In-place ReLU: `x = max(x, 0)` (NaN maps to 0, matching `x > 0` tests).
/// Bitwise identical across kernels.
pub fn relu_forward(x: &mut [f32]) {
    relu_forward_on(active(), x);
}

/// ReLU forward on an explicit kernel.
pub fn relu_forward_with(kind: KernelKind, x: &mut [f32]) {
    relu_forward_on(kind.min(widest()), x);
}

fn relu_forward_on(kind: KernelKind, x: &mut [f32]) {
    tally(kind);
    #[cfg(target_arch = "x86_64")]
    if kind != KernelKind::Scalar {
        // SAFETY: a vector kernel in force implies AVX2+FMA.
        unsafe { avx2::relu_forward(x) };
        return;
    }
    scalar::relu_forward(x);
}

/// In-place ReLU backward: zeroes `g[i]` wherever the activated output
/// `a[i] <= 0`. Bitwise identical across kernels.
pub fn relu_backward(g: &mut [f32], a: &[f32]) {
    relu_backward_on(active(), g, a);
}

/// ReLU backward on an explicit kernel.
pub fn relu_backward_with(kind: KernelKind, g: &mut [f32], a: &[f32]) {
    relu_backward_on(kind.min(widest()), g, a);
}

fn relu_backward_on(kind: KernelKind, g: &mut [f32], a: &[f32]) {
    tally(kind);
    assert_eq!(g.len(), a.len(), "relu_backward length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kind != KernelKind::Scalar {
        // SAFETY: a vector kernel in force implies AVX2+FMA.
        unsafe { avx2::relu_backward(g, a) };
        return;
    }
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
    adam_step_on(active(), p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2);
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
    let kind = kind.min(widest());
    adam_step_on(kind, p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2);
}

#[allow(clippy::too_many_arguments)]
fn adam_step_on(
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
    if kind != KernelKind::Scalar {
        // SAFETY: a vector kernel in force implies AVX2+FMA.
        unsafe { avx2::adam_step(p, g, m, v, scale, lr, beta1, beta2, epsilon, bc1, bc2) };
        return;
    }
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

/// Height of the next row strip when `rows` output rows remain.
///
/// A 6-row tile keeps 6·V independent FMA chains (12 at AVX2's 6 × 16, 24
/// at AVX-512's 6 × 64), enough to keep both FMA ports busy across an L2
/// wait on `B`. So strips are 6 rows high wherever at least 9 rows remain
/// or exactly 6 do; 5, 4, 3, 2 or 1 remaining rows run as one strip of
/// that height; and 7 or 8 remaining rows run as 4 + 3 or 4 + 4. No 1- or
/// 2-row strip, whose tiles keep only a few chains, ever follows a taller
/// one.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn strip_height(rows: usize) -> usize {
    match rows {
        7 | 8 => 4,
        r => r.min(6),
    }
}

// ---------------------------------------------------------------------------
// The product micro-kernel, written once over a lane vector. Its functions
// are `#[inline(always)]` and carry no target feature of their own: each
// instance is inlined into an entry point of `avx2` or `avx512` that enables
// its width's features, and the `Lanes` methods, `#[inline]` under the same
// features, inline into that. Callers verify feature support first.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod tiled {
    use std::arch::x86_64::*;

    /// One register of `WIDTH` f32 lanes. Every method is one instruction
    /// applied lane by lane, so a lane's value depends only on its own
    /// inputs, whatever the width.
    ///
    /// # Safety
    ///
    /// Each method needs its implementation's target features; the
    /// pointer methods read or write `WIDTH` floats (the masked ones only
    /// the lanes the mask sets).
    pub(super) trait Lanes: Copy {
        const WIDTH: usize;
        /// Which lanes a masked load or store touches.
        type Mask: Copy;
        /// Lanes `0..len` set (`len ≤ WIDTH`).
        unsafe fn mask(len: usize) -> Self::Mask;
        unsafe fn zero() -> Self;
        unsafe fn splat(p: *const f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        /// Unset lanes read as zero and never fault.
        unsafe fn load_masked(p: *const f32, mask: Self::Mask) -> Self;
        unsafe fn store(self, p: *mut f32);
        unsafe fn store_masked(self, p: *mut f32, mask: Self::Mask);
        /// `self·b + c`, rounded once per lane.
        unsafe fn fmadd(self, b: Self, c: Self) -> Self;
        unsafe fn add(self, b: Self) -> Self;
    }

    impl Lanes for __m256 {
        const WIDTH: usize = 8;
        type Mask = __m256i;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mask(len: usize) -> __m256i {
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(len as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(p: *const f32) -> Self {
            _mm256_broadcast_ss(&*p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_masked(p: *const f32, mask: __m256i) -> Self {
            _mm256_maskload_ps(p, mask)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store_masked(self, p: *mut f32, mask: __m256i) {
            _mm256_maskstore_ps(p, mask, self)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(self, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
    }

    impl Lanes for __m512 {
        const WIDTH: usize = 16;
        type Mask = __mmask16;
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn mask(len: usize) -> __mmask16 {
            ((1u32 << len) - 1) as __mmask16
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn splat(p: *const f32) -> Self {
            _mm512_set1_ps(*p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_masked(p: *const f32, mask: __mmask16) -> Self {
            _mm512_maskz_loadu_ps(mask, p)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_masked(self, p: *mut f32, mask: __mmask16) {
            _mm512_mask_storeu_ps(p, mask, self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(self, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn add(self, b: Self) -> Self {
            _mm512_add_ps(self, b)
        }
    }

    /// `C = A·B` in row strips of [`strip_height`](super::strip_height)
    /// rows: `6 × V·WIDTH` register tiles, narrower tiles, then the
    /// `n % WIDTH` columns as one masked tile, with shorter strips only
    /// where fewer rows remain. Every lane is one output's k-order FMA
    /// chain, so the strip height only decides which outputs share a
    /// broadcast, and no shape changes an element.
    ///
    /// # Safety
    ///
    /// The CPU has `L`'s features; `a`, `b` and `c` hold `m·kd`, `kd·n`
    /// and `m·n` floats.
    #[inline(always)]
    pub(super) unsafe fn matmul<L: Lanes, const V: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mask = L::mask(n % L::WIDTH);
        let mut i = 0;
        while i < m {
            // The strip reads A rows i..i+R (R ≤ m − i) over k < kd, B rows
            // k < kd and writes C rows i..i+R, every column < n.
            i += strip::<L, V, false, true>(
                ap.add(i * kd),
                kd,
                1,
                bp,
                cp.add(i * n),
                n,
                kd,
                mask,
                m - i,
            );
        }
    }

    /// `C += Aᵀ·B` (`C` is `kd × n`, the reduction runs over A's `m`
    /// rows): the same strips and tiles as [`matmul`] over the
    /// `n − n % WIDTH` full columns, where output row `i` reads A's
    /// column `i` (a tile's 6 broadcasts at step `r` are adjacent in A's
    /// row `r`). The `n % WIDTH` columns go one at a time with `WIDTH`
    /// output rows per lane vector, since A's row `r` holds those rows
    /// contiguously.
    ///
    /// # Safety
    ///
    /// The CPU has `L`'s features; `a`, `b` and `c` hold `m·kd`, `m·n`
    /// and `kd·n` floats.
    #[inline(always)]
    pub(super) unsafe fn transpose_matmul_acc<L: Lanes, const V: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let w = L::WIDTH;
        let unused = L::mask(0);
        let mut i = 0;
        while i < kd {
            // Output row i + t reads A at r·kd + i + t < m·kd for r < m,
            // t < R ≤ kd − i; B and C columns stay below n − n % WIDTH.
            i += strip::<L, V, true, false>(
                ap.add(i),
                1,
                kd,
                bp,
                cp.add(i * n),
                n,
                m,
                unused,
                kd - i,
            );
        }
        for j in n - n % w..n {
            // Column j < n; the row blocks cover output rows i..i+rows ≤ kd.
            let b = bp.add(j);
            let mut i = 0;
            while i + 4 * w <= kd {
                column::<L, 4, false>(ap.add(i), kd, b, n, cp.add(i * n + j), m, 4 * w);
                i += 4 * w;
            }
            while i + w <= kd {
                column::<L, 1, false>(ap.add(i), kd, b, n, cp.add(i * n + j), m, w);
                i += w;
            }
            if i < kd {
                column::<L, 1, true>(ap.add(i), kd, b, n, cp.add(i * n + j), m, kd - i);
            }
        }
    }

    /// Every column of the next [`strip_height`](super::strip_height)
    /// output rows, which it returns: 2- to 6-row strips in `V`-vector
    /// tiles, a single row in 4-vector ones, so every strip keeps at least
    /// 4 FMA chains in flight. Arguments as [`tile`]'s.
    ///
    /// # Safety
    ///
    /// As [`tiles`] for the rows it covers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn strip<L: Lanes, const V: usize, const ACC: bool, const TAIL: bool>(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: L::Mask,
        rows: usize,
    ) -> usize {
        let height = super::strip_height(rows);
        match height {
            1 => tiles::<L, 1, 4, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            2 => tiles::<L, 2, V, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            3 => tiles::<L, 3, V, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            4 => tiles::<L, 4, V, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            5 => tiles::<L, 5, V, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
            _ => tiles::<L, 6, V, ACC, TAIL>(a, a_row, a_step, b, c, n, steps, mask),
        }
        height
    }

    /// Every column of `R` output rows: `V`-vector tiles, then (when `V`
    /// is wider) one 2-vector tile, 1-vector tiles, and (with `TAIL`) the
    /// `n % WIDTH` columns as one masked tile. An `R × V·WIDTH` tile
    /// holds `R·V` accumulators, `V` `B` vectors and one broadcast, so
    /// `R·V + V + 1` registers: 15 of the 16 ymm at AVX2's `6 × 2`, 29 of
    /// the 32 zmm at AVX-512's `6 × 4`. Arguments as [`tile`]'s.
    ///
    /// # Safety
    ///
    /// As [`tile`], for every column `< n` (`< n − n % WIDTH` without
    /// `TAIL`).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tiles<L: Lanes, const R: usize, const V: usize, const ACC: bool, const TAIL: bool>(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: L::Mask,
    ) {
        let w = L::WIDTH;
        let mut j = 0;
        while j + V * w <= n {
            tile::<L, R, V, ACC, false>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
            j += V * w;
        }
        if V > 2 && j + 2 * w <= n {
            tile::<L, R, 2, ACC, false>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
            j += 2 * w;
        }
        while j + w <= n {
            tile::<L, R, 1, ACC, false>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
            j += w;
        }
        if TAIL && j < n {
            tile::<L, R, 1, ACC, true>(a, a_row, a_step, b.add(j), c.add(j), n, steps, mask);
        }
    }

    /// One `R × V·WIDTH` register tile of `C (+)= Â·B`, where `Â`'s
    /// element for tile row `t` at reduction step `k` is
    /// `a[t·a_row + k·a_step]` and `B`'s step-`k` row starts at
    /// `b + k·n`. Each lane is one output's FMA chain from `+0.0` in step
    /// order; `ACC` adds it into `C` once, `MASKED` (with `V = 1`) limits
    /// loads and stores to `mask`'s lanes.
    ///
    /// # Safety
    ///
    /// The CPU has `L`'s features; `a`, `b` and `c` must be valid for
    /// every element the tile reads or writes over `steps` steps, with
    /// `C`'s rows `n` apart.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn tile<
        L: Lanes,
        const R: usize,
        const V: usize,
        const ACC: bool,
        const MASKED: bool,
    >(
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
        steps: usize,
        mask: L::Mask,
    ) {
        let w = L::WIDTH;
        let mut acc = [[L::zero(); V]; R];
        for k in 0..steps {
            let brow = b.add(k * n);
            let mut bv = [L::zero(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                *bvv = if MASKED {
                    L::load_masked(brow.add(w * v), mask)
                } else {
                    L::load(brow.add(w * v))
                };
            }
            for (t, acct) in acc.iter_mut().enumerate() {
                let av = L::splat(a.add(t * a_row + k * a_step));
                for (accv, &bvv) in acct.iter_mut().zip(&bv) {
                    *accv = av.fmadd(bvv, *accv);
                }
            }
        }
        for (t, acct) in acc.iter().enumerate() {
            for (v, &accv) in acct.iter().enumerate() {
                let dst = c.add(t * n + w * v);
                if MASKED {
                    let out = if ACC { L::load_masked(dst, mask).add(accv) } else { accv };
                    out.store_masked(dst, mask);
                } else {
                    let out = if ACC { L::load(dst).add(accv) } else { accv };
                    out.store(dst);
                }
            }
        }
    }

    /// Output rows `0..rows` (`rows ≤ V·WIDTH`) of one column of
    /// `C += Aᵀ·B`, a lane per output row: at step `r` the rows' `A`
    /// values are contiguous at `a + r·kd` and share the broadcast
    /// `b[r·n]`. Each lane is the same r-order FMA chain [`tile`]
    /// computes, added into `C` (`c`, rows `n` apart) once; `MASKED`
    /// (with `V = 1`) loads only `rows` lanes.
    ///
    /// # Safety
    ///
    /// The CPU has `L`'s features; `a`, `b` and `c` must be valid for the
    /// `m` steps and the `rows` rows.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn column<L: Lanes, const V: usize, const MASKED: bool>(
        a: *const f32,
        kd: usize,
        b: *const f32,
        n: usize,
        c: *mut f32,
        m: usize,
        rows: usize,
    ) {
        let w = L::WIDTH;
        let mask = L::mask(if MASKED { rows } else { 0 });
        let mut acc = [L::zero(); V];
        for r in 0..m {
            let bv = L::splat(b.add(r * n));
            let arow = a.add(r * kd);
            for (v, accv) in acc.iter_mut().enumerate() {
                let av = if MASKED {
                    L::load_masked(arow.add(w * v), mask)
                } else {
                    L::load(arow.add(w * v))
                };
                *accv = av.fmadd(bv, *accv);
            }
        }
        // Wide enough for the widest lane vector.
        let mut lanes = [0.0f32; 16];
        for (v, &accv) in acc.iter().enumerate() {
            accv.store(lanes.as_mut_ptr());
            for (l, &x) in lanes.iter().enumerate().take(w.min(rows - w * v)) {
                *c.add((w * v + l) * n) += x;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F product entry points: the tiled body at `__m512`, 6 × 64 tiles.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::__m512;

    /// `C = A·B` on the `__m512` tiles.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` hold `m·kd`, `kd·n` and `m·n` floats.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        // SAFETY: this function enables the lane type's features; the
        // caller guarantees the lengths.
        unsafe { super::tiled::matmul::<__m512, 4>(a, b, c, m, kd, n) }
    }

    /// `C += Aᵀ·B` on the `__m512` tiles.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` hold `m·kd`, `m·n` and `kd·n` floats.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn transpose_matmul_acc(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        // SAFETY: as in `matmul`.
        unsafe { super::tiled::transpose_matmul_acc::<__m512, 4>(a, b, c, m, kd, n) }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels: the tiled body at `__m256` (6 × 16 tiles) and the
// element-wise ops. Callers verify feature support before dispatching here.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `C = A·B` on the `__m256` tiles.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` hold `m·kd`, `kd·n` and `m·n` floats.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, kd: usize, n: usize) {
        // SAFETY: this function enables the lane type's features; the
        // caller guarantees the lengths.
        unsafe { super::tiled::matmul::<__m256, 2>(a, b, c, m, kd, n) }
    }

    /// `C += Aᵀ·B` on the `__m256` tiles.
    ///
    /// # Safety
    ///
    /// `a`, `b` and `c` hold `m·kd`, `m·n` and `kd·n` floats.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn transpose_matmul_acc(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        kd: usize,
        n: usize,
    ) {
        // SAFETY: as in `matmul`.
        unsafe { super::tiled::transpose_matmul_acc::<__m256, 2>(a, b, c, m, kd, n) }
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
        relu_forward_with(KernelKind::Avx2, &mut simd_relu);
        assert_eq!(
            scalar_relu.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            simd_relu.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        let acts = patterned(37, 29);
        let mut gs = patterned(37, 31);
        let mut gv = gs.clone();
        relu_backward_with(KernelKind::Scalar, &mut gs, &acts);
        relu_backward_with(KernelKind::Avx2, &mut gv, &acts);
        assert_eq!(gs, gv);

        let bias = patterned(5, 37);
        let mut rows_s = patterned(20, 41);
        let mut rows_v = rows_s.clone();
        add_bias_with(KernelKind::Scalar, &mut rows_s, &bias);
        add_bias_with(KernelKind::Avx2, &mut rows_v, &bias);
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
                KernelKind::Avx2,
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
        matmul_with(KernelKind::Avx2, &a, &b, &mut c, 2, 3, 2);
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
        for kind in [KernelKind::Avx2, KernelKind::Avx512] {
            let (s1, v1) = dispatch_tally();
            matmul_with(kind, &a, &b, &mut c, 2, 2, 2);
            let (s2, v2) = dispatch_tally();
            if simd_available() {
                assert!(v2 > v1, "{kind:?} dispatch must tally as SIMD");
            } else {
                // The request downgrades to scalar — and tallies as scalar.
                assert!(s2 > s1);
                assert_eq!(v2, v0);
            }
        }
    }

    #[test]
    fn requests_downgrade_to_the_widest_body_the_host_runs() {
        let host = widest();
        for kind in [KernelKind::Scalar, KernelKind::Avx2, KernelKind::Avx512] {
            assert_eq!(kind.min(host), if kind <= host { kind } else { host });
        }
        assert!(active() <= host);
        assert_eq!(simd_available(), host >= KernelKind::Avx2);
    }

    #[test]
    fn only_wide_shapes_take_the_wide_tiles() {
        assert_eq!(product_body(KernelKind::Avx512, true), KernelKind::Avx512);
        assert_eq!(product_body(KernelKind::Avx512, false), KernelKind::Avx2);
        for narrow in [KernelKind::Scalar, KernelKind::Avx2] {
            assert_eq!(product_body(narrow, true), narrow);
        }
    }
}
