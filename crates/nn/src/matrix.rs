//! Dense row-major `f32` matrix used as the tensor type of the network
//! substrate.
//!
//! The reproduction deliberately avoids external tensor libraries: the
//! paper's bottleneck analysis concerns the CPU-side sampling phase, so a
//! small, predictable matrix kernel keeps the actor/critic phases realistic
//! without pulling in a BLAS dependency.

use crate::kernels;
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// `Matrix` is the only tensor type used by [`crate::mlp::Mlp`] and friends.
/// Rows index batch elements, columns index features.
///
/// # Examples
///
/// ```
/// use marl_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
/// let mut c = Matrix::default();
/// a.matmul_into(&b, &mut c);
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices; all rows must share a length.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length in from_rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// A 1×n row-vector matrix.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to `rows × cols`, zero-filling the contents and
    /// reusing the backing allocation whenever capacity suffices.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Becomes a copy of `src` (shape and contents), reusing storage.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes to `rows × cols` and copies `data` in, reusing the backing
    /// allocation whenever capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn assign_from_slice(&mut self, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(data.len(), rows * cols, "assign_from_slice shape mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Copies `src` into the column range `[start, start + src.cols)` of
    /// `self` — how a preallocated centralized-critic input
    /// `[o_1..o_N, a_1..a_N]` is assembled.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch or if the column range overflows.
    pub fn copy_columns_from(&mut self, src: &Matrix, start: usize) {
        assert_eq!(self.rows, src.rows, "copy_columns_from row mismatch");
        assert!(start + src.cols <= self.cols, "copy_columns_from column overflow");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + start..r * self.cols + start + src.cols];
            dst.copy_from_slice(src.row(r));
        }
    }

    /// `out = self · rhs`, reusing `out`'s backing storage.
    ///
    /// Dispatches to the process-wide kernel ([`crate::kernels::active`]).
    /// Every output element is one k-order fused multiply-add chain from
    /// `+0.0` on either kernel, so the bits do not depend on which runs.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        kernels::matmul(&self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols);
    }

    /// Returns an explicit transpose (the kernel tests build their
    /// reference products from it).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        transpose_into(&self.data, self.rows, self.cols, &mut out);
        out
    }

    /// Subtracts `rhs` element-wise in place.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }
}

/// `out = srcᵀ` for a row-major `rows × cols` slice, reusing `out`'s
/// storage — how a layer turns an input-gradient column block
/// `G · W[s..s+w, :]ᵀ` into a plain product.
///
/// # Panics
///
/// Panics if `src.len() != rows * cols`.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut Matrix) {
    assert_eq!(src.len(), rows * cols, "transpose source length");
    out.resize(cols, rows);
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out.data[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{self, KernelKind};

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = Matrix::default();
        a.matmul_into(&b, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::default());
    }

    #[test]
    fn scale_and_sub_assign_are_elementwise() {
        let mut a = Matrix::from_rows(&[&[-1.0, 0.5, 1.0]]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[-2.0, 1.0, 2.0]);
        a.sub_assign(&Matrix::full(1, 3, 1.0));
        assert_eq!(a.as_slice(), &[-3.0, 0.0, 1.0]);
    }

    /// `A·B` pinned to the scalar kernel, regardless of the process-wide
    /// dispatch.
    fn matmul_scalar(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        kernels::matmul_with(
            KernelKind::Scalar,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            a.rows(),
            a.cols(),
            b.cols(),
        );
        out
    }

    /// `0 + Aᵀ·B` pinned to the scalar kernel.
    fn transpose_matmul_scalar(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        kernels::transpose_matmul_acc_with(
            KernelKind::Scalar,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            a.rows(),
            a.cols(),
            b.cols(),
        );
        out
    }

    /// Triple-loop reference with ascending-`k` accumulation. On the
    /// small-integer [`patterned`] inputs every product and partial sum is
    /// exact, so fusing the multiply-add changes nothing and every kernel
    /// must match it bitwise.
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

    /// Deterministic non-trivial fill covering signs and magnitudes.
    fn patterned(rows: usize, cols: usize, salt: u32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let x = (r * cols + c) as u32 ^ salt;
                // Small integers: every product and partial sum is exact,
                // so reorderings would be visible as bitwise differences.
                *m.at_mut(r, c) = (x % 17) as f32 - 8.0;
            }
        }
        m
    }

    #[test]
    fn odd_shape_matmul_matches_reference_bitwise() {
        // Odd dimensions, none a multiple of a SIMD lane count or tile.
        let a = patterned(17, 19, 3);
        let b = patterned(19, 23, 7);
        assert_eq!(matmul_scalar(&a, &b).as_slice(), reference_matmul(&a, &b).as_slice());
    }

    #[test]
    fn odd_shape_transpose_matmul_matches_reference_bitwise() {
        let a = patterned(23, 17, 5);
        let b = patterned(23, 19, 11);
        let expect = reference_matmul(&a.transpose(), &b);
        assert_eq!(transpose_matmul_scalar(&a, &b).as_slice(), expect.as_slice());
    }

    #[test]
    fn exact_tile_multiple_shapes_match_reference() {
        let a = patterned(16, 16, 23);
        let b = patterned(16, 16, 29);
        assert_eq!(matmul_scalar(&a, &b).as_slice(), reference_matmul(&a, &b).as_slice());
        assert_eq!(
            transpose_matmul_scalar(&a, &b).as_slice(),
            reference_matmul(&a.transpose(), &b).as_slice()
        );
    }

    #[test]
    fn into_variants_reuse_storage_and_match_the_reference() {
        // Small integers keep every product exact, so both kernels must
        // reproduce the reference bit for bit.
        let a = patterned(9, 7, 31);
        let b = patterned(7, 5, 37);
        let mut out = Matrix::full(40, 40, f32::NAN); // larger stale buffer
        a.matmul_into(&b, &mut out);
        assert_eq!(out, reference_matmul(&a, &b));

        let w = patterned(6, 4, 41);
        transpose_into(&w.as_slice()[4..16], 3, 4, &mut out);
        assert_eq!(out.shape(), (4, 3));
        for (r, c) in (0..3).flat_map(|r| (0..4).map(move |c| (r, c))) {
            assert_eq!(out.at(c, r), w.at(1 + r, c));
        }

        let g = patterned(9, 4, 43);
        let mut acc = patterned(7, 4, 47);
        let mut expect = reference_matmul(&a.transpose(), &g);
        for (e, &c) in expect.as_mut_slice().iter_mut().zip(acc.as_slice()) {
            *e += c;
        }
        kernels::transpose_matmul_acc(a.as_slice(), g.as_slice(), acc.as_mut_slice(), 9, 7, 4);
        assert_eq!(acc, expect);
    }

    #[test]
    fn copy_columns_writes_only_its_block() {
        let a = patterned(4, 3, 53);
        let b = patterned(4, 2, 59);
        let mut joint = Matrix::zeros(4, 5);
        joint.copy_columns_from(&a, 0);
        joint.copy_columns_from(&b, 3);
        for r in 0..4 {
            assert_eq!(&joint.row(r)[..3], a.row(r));
            assert_eq!(&joint.row(r)[3..], b.row(r));
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernels skipped zero multiplicands, silently swallowing
        // NaN/Inf in the other operand; 0·NaN must poison the output.
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let mut b = Matrix::from_rows(&[&[f32::NAN, 2.0], &[3.0, f32::INFINITY]]);
        let mut c = Matrix::default();
        a.matmul_into(&b, &mut c);
        assert!(c.as_slice().iter().all(|x| x.is_nan()));
        let mut t = Matrix::zeros(2, 2);
        kernels::transpose_matmul_acc(a.as_slice(), b.as_slice(), t.as_mut_slice(), 2, 2, 2);
        assert!(t.at(0, 0).is_nan() && t.at(1, 1).is_nan());
        // Same contract on a shape that fills whole SIMD tiles.
        let big_a = Matrix::full(32, 32, 0.0);
        let mut big_b = Matrix::full(32, 32, 1.0);
        *big_b.at_mut(0, 0) = f32::NAN;
        big_a.matmul_into(&big_b, &mut c);
        assert!(c.at(0, 0).is_nan());
        // Inf: 1·Inf reaches the output even when paired with zeros.
        *b.at_mut(0, 0) = 1.0;
        a.matmul_into(&b, &mut c);
        assert!(!c.at(1, 1).is_finite());
    }
}
