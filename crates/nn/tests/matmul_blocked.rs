//! Property-based equivalence of the register-blocked matmul kernels and
//! a naive triple-loop reference, through the three `Matrix` entry points
//! the network layers call.
//!
//! Inputs are small-integer-valued floats, so every product and partial
//! sum is exactly representable in `f32`: any summation reordering or
//! dropped term in the blocked kernels would surface as a bitwise (0 ULP)
//! mismatch, not a tolerance failure. Because the arithmetic is exact,
//! these properties hold under *both* dispatch kernels (scalar and AVX2)
//! — FMA and lane reassociation cannot change an exact sum — so this file
//! runs on whatever kernel `MARL_KERNEL` selects. Float-valued
//! scalar-vs-SIMD tolerance checks live in `kernel_equivalence.rs`.

use marl_nn::matrix::Matrix;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Reference `A·B` accumulating each output element in ascending-`k`
/// order — the contract both dispatch paths promise.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.at(i, k) * b.at(k, j);
            }
            *out.at_mut(i, j) = acc;
        }
    }
    out
}

/// Fills a matrix with integers in [-8, 8] derived from a seed, keeping
/// all kernel arithmetic exact.
fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for v in m.as_mut_slice() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 33) % 17) as f32 - 8.0;
    }
    m
}

fn assert_bitwise_eq(got: &Matrix, expect: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), expect.shape());
    for (i, (g, e)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
        prop_assert_eq!(g.to_bits(), e.to_bits(), "element {} differs: {} vs {}", i, g, e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `A·B` is 0 ULP from the reference for shapes spanning the
    /// dispatch threshold and every remainder-tile combination.
    #[test]
    fn blocked_matmul_is_exact(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = int_matrix(m, k, seed);
        let b = int_matrix(k, n, seed ^ 0xdead_beef);
        let mut got = Matrix::default();
        a.matmul_into(&b, &mut got);
        assert_bitwise_eq(&got, &reference_matmul(&a, &b))?;
    }

    /// Blocked `C += Aᵀ·B` into a zeroed `C` is 0 ULP from the reference.
    #[test]
    fn blocked_transpose_matmul_is_exact(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = int_matrix(m, k, seed);
        let b = int_matrix(m, n, seed ^ 0x5eed);
        let mut got = Matrix::zeros(k, n);
        a.transpose_matmul_acc_into(&b, &mut got);
        assert_bitwise_eq(&got, &reference_matmul(&a.transpose(), &b))?;
    }

    /// Blocked `A·Bᵀ` is 0 ULP from the reference.
    #[test]
    fn blocked_matmul_transpose_is_exact(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = int_matrix(m, k, seed);
        let b = int_matrix(n, k, seed ^ 0xf00d);
        let mut got = Matrix::default();
        a.matmul_transpose_rows_into(&b, 0, n, &mut got);
        assert_bitwise_eq(&got, &reference_matmul(&a, &b.transpose()))?;
    }
}
