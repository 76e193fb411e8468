//! Property-based equivalence of the matmul kernels' tiles and tails and
//! a naive triple-loop reference, through the two products the network
//! layers call (`Matrix::matmul_into` and `kernels::transpose_matmul_acc`).
//!
//! Inputs are small-integer-valued floats, so every product and partial
//! sum is exactly representable in `f32`: a dropped or doubled term in
//! any 6-row tile, shorter row strip (the AVX2 kernel's strip heights run
//! 6, 5, 4, 3, 2 and 1) or column tail would surface as a bitwise (0 ULP)
//! mismatch, while fusing a multiply-add cannot change an exact
//! sum. So the plain `acc += a * b` reference holds on whatever kernel
//! the process resolves. The float-valued operation-order checks, where
//! the fused `mul_add` chain is what makes scalar and SIMD agree, live in
//! `kernel_equivalence.rs`.

use marl_nn::kernels;
use marl_nn::matrix::Matrix;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Reference `A·B` accumulating each output element in ascending-`k`
/// order, exact on the integer inputs below.
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

    /// `A·B` is 0 ULP from the reference for shapes spanning every tile,
    /// column tail and strip-height combination.
    #[test]
    fn matmul_is_exact(
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

    /// `C += Aᵀ·B` into a zeroed `C` is 0 ULP from the reference.
    #[test]
    fn transpose_matmul_is_exact(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = int_matrix(m, k, seed);
        let b = int_matrix(m, n, seed ^ 0x5eed);
        let mut got = Matrix::zeros(k, n);
        kernels::transpose_matmul_acc(a.as_slice(), b.as_slice(), got.as_mut_slice(), m, k, n);
        assert_bitwise_eq(&got, &reference_matmul(&a.transpose(), &b))?;
    }
}
