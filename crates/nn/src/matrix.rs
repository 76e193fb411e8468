//! Dense row-major `f32` matrix used as the tensor type of the network
//! substrate.
//!
//! The reproduction deliberately avoids external tensor libraries: the
//! paper's bottleneck analysis concerns the CPU-side sampling phase, so a
//! small, predictable matrix kernel keeps the actor/critic phases realistic
//! without pulling in a BLAS dependency.

use crate::kernels;
use serde::{Deserialize, Serialize};
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
/// let b = Matrix::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
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

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// Consumes the matrix and returns its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
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
    /// `self`; the row counterpart of [`Matrix::hstack`] for preallocated
    /// destinations.
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

    /// Matrix product `self · rhs`.
    ///
    /// Dispatches to the process-wide kernel selected by
    /// [`crate::kernels::active`]: the blocked-scalar path accumulates each
    /// output element in ascending-`k` order (bitwise-stable at every
    /// size), the SIMD path uses AVX2+FMA and agrees within the documented
    /// ULP tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `out = self · rhs`, reusing `out`'s backing storage.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        kernels::matmul(&self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols);
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        kernels::transpose_matmul(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        out
    }

    /// `out += selfᵀ · rhs` — the fused gradient accumulation used by
    /// [`crate::linear::Linear::backward_into`]. Each product element is
    /// reduced completely before the single add into `out`, so the result
    /// matches `out.add_assign(&self.transpose_matmul(rhs))` without the
    /// temporary.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch or if `out` is not `self.cols × rhs.cols`.
    pub fn transpose_matmul_acc_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "transpose_matmul_acc output shape");
        kernels::transpose_matmul_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_into(rhs, &mut out);
        out
    }

    /// `out = self · rhsᵀ`, reusing `out`'s backing storage.
    pub fn matmul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_transpose_rows_into(rhs, 0, rhs.rows, out);
    }

    /// `out = self · rhs[start..start + width, :]ᵀ` — columns
    /// `start..start + width` of [`Matrix::matmul_transpose_into`], as a
    /// `self.rows × width` matrix. The rows of a row-major `rhs` are
    /// contiguous, so this is the same kernel on a sub-slice, and each
    /// output element is reduced in an order that does not depend on which
    /// other rows of `rhs` take part: the block is bitwise the matching
    /// columns of the full product.
    ///
    /// # Panics
    ///
    /// Panics on column mismatch or if the row range exceeds `rhs.rows`.
    pub fn matmul_transpose_rows_into(
        &self,
        rhs: &Matrix,
        start: usize,
        width: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose shape mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert!(
            start.checked_add(width).is_some_and(|end| end <= rhs.rows),
            "matmul_transpose row range out of bounds"
        );
        out.resize(self.rows, width);
        kernels::matmul_transpose(
            &self.data,
            &rhs.data[start * rhs.cols..(start + width) * rhs.cols],
            &mut out.data,
            self.rows,
            self.cols,
            width,
        );
    }

    /// Returns an explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `rhs` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
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

    /// Element-wise product in place (Hadamard).
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a *= b;
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Adds a broadcast row vector `bias` (len == cols) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Sums each column into a vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (s, x) in sums.iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
        sums
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Horizontally concatenates matrices that share a row count.
    ///
    /// This is how the centralized critic input `[o_1..o_N, a_1..a_N]` is
    /// assembled.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree on row count or `parts` is empty.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let orow = &mut out.data[r * cols..(r + 1) * cols];
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                orow[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Extracts the column range `[start, start+width)` into a new matrix.
    ///
    /// Used to slice the critic-input gradient belonging to one agent's
    /// action during the policy update.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn columns(&self, start: usize, width: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, width);
        self.columns_into(start, width, &mut out);
        out
    }

    /// Extracts the column range `[start, start+width)` into `out`,
    /// reusing its backing storage.
    pub fn columns_into(&self, start: usize, width: usize, out: &mut Matrix) {
        assert!(start + width <= self.cols, "column range out of bounds");
        out.resize(self.rows, width);
        for r in 0..self.rows {
            out.data[r * width..(r + 1) * width]
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + start + width]);
        }
    }

    /// Vertically stacks matrices that share a column count.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of zero matrices");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_assign(&mut self, lo: f32, hi: f32) {
        for x in &mut self.data {
            *x = x.clamp(lo, hi);
        }
    }

    /// Writes the argmax of each row into `out[row]` (ties break to the
    /// lowest index, strict `>` scan — the greedy-action convention used
    /// everywhere a discrete head is decoded).
    ///
    /// `out` must already hold `rows` elements: the serve path calls
    /// this per batch with a preallocated index buffer, so it does not
    /// resize.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows` or the matrix has zero columns with
    /// nonzero rows.
    pub fn argmax_rows(&self, out: &mut [usize]) {
        assert_eq!(out.len(), self.rows, "argmax_rows output length mismatch");
        assert!(self.cols > 0 || self.rows == 0, "argmax_rows on zero-width matrix");
        for (r, slot) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut best = 0usize;
            let mut best_v = row[0];
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > best_v {
                    best = i;
                    best_v = v;
                }
            }
            *slot = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn hstack_and_columns_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[7.0]]);
        let s = Matrix::hstack(&[&a, &b]);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.columns(0, 2), a);
        assert_eq!(s.columns(2, 1), b);
    }

    #[test]
    fn vstack_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::full(1, 3, 2.0);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.at(2, 1), 2.0);
    }

    #[test]
    fn column_sums_and_broadcast() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
        a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn clamp_and_scale() {
        let mut a = Matrix::from_rows(&[&[-2.0, 0.5, 3.0]]);
        a.clamp_assign(-1.0, 1.0);
        assert_eq!(a.as_slice(), &[-1.0, 0.5, 1.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[-2.0, 1.0, 2.0]);
    }

    use crate::kernels::{self, KernelKind};

    /// `A·B` pinned to the scalar kernel, regardless of the process-wide
    /// dispatch (these bitwise tests must hold under `MARL_KERNEL=simd`).
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

    fn transpose_matmul_scalar(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        kernels::transpose_matmul_with(
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

    fn matmul_transpose_scalar(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        kernels::matmul_transpose_with(
            KernelKind::Scalar,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            a.rows(),
            a.cols(),
            b.rows(),
        );
        out
    }

    /// Triple-loop reference with ascending-`k` accumulation; every kernel
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
    fn blocked_matmul_matches_reference_bitwise() {
        // 17·19·23 multiply-adds exceed BLOCK_THRESHOLD, and the odd
        // dimensions exercise every remainder-tile path.
        let a = patterned(17, 19, 3);
        let b = patterned(19, 23, 7);
        const { assert!(17 * 19 * 23 >= kernels::BLOCK_THRESHOLD) };
        assert_eq!(matmul_scalar(&a, &b).as_slice(), reference_matmul(&a, &b).as_slice());
    }

    #[test]
    fn blocked_transpose_matmul_matches_reference_bitwise() {
        let a = patterned(23, 17, 5);
        let b = patterned(23, 19, 11);
        let expect = reference_matmul(&a.transpose(), &b);
        assert_eq!(transpose_matmul_scalar(&a, &b).as_slice(), expect.as_slice());
    }

    #[test]
    fn blocked_matmul_transpose_matches_reference_bitwise() {
        let a = patterned(17, 23, 13);
        let b = patterned(19, 23, 17);
        let expect = reference_matmul(&a, &b.transpose());
        assert_eq!(matmul_transpose_scalar(&a, &b).as_slice(), expect.as_slice());
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
        assert_eq!(
            matmul_transpose_scalar(&a, &b).as_slice(),
            reference_matmul(&a, &b.transpose()).as_slice()
        );
    }

    #[test]
    fn into_variants_reuse_storage_and_match() {
        let a = patterned(9, 7, 31);
        let b = patterned(7, 5, 37);
        let mut out = Matrix::zeros(40, 40); // larger stale buffer
        out.fill(f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let bt = patterned(5, 7, 41);
        a.matmul_transpose_into(&bt, &mut out);
        assert_eq!(out, a.matmul_transpose(&bt));

        let g = patterned(9, 4, 43);
        let mut acc = patterned(7, 4, 47);
        let mut expect = acc.clone();
        expect.add_assign(&a.transpose_matmul(&g));
        a.transpose_matmul_acc_into(&g, &mut acc);
        assert_eq!(acc, expect);
    }

    #[test]
    fn copy_columns_and_columns_into_roundtrip() {
        let a = patterned(4, 3, 53);
        let b = patterned(4, 2, 59);
        let mut joint = Matrix::zeros(4, 5);
        joint.copy_columns_from(&a, 0);
        joint.copy_columns_from(&b, 3);
        assert_eq!(joint, Matrix::hstack(&[&a, &b]));
        let mut back = Matrix::zeros(1, 1);
        joint.columns_into(3, 2, &mut back);
        assert_eq!(back, b);
    }

    #[test]
    fn argmax_rows_matches_scan_and_breaks_ties_low() {
        let m = Matrix::from_rows(&[
            &[0.5, 2.0, 2.0, -1.0], // tie: lowest index wins
            &[-3.0, -1.0, -2.0, -1.5],
            &[7.0, 0.0, 0.0, 0.0],
        ]);
        let mut out = [99usize; 3];
        m.argmax_rows(&mut out);
        assert_eq!(out, [1, 1, 0]);
        // Empty matrix: nothing written, no panic.
        Matrix::zeros(0, 0).argmax_rows(&mut []);
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernels skipped zero multiplicands, silently swallowing
        // NaN/Inf in the other operand; 0·NaN must poison the output.
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let mut b = Matrix::from_rows(&[&[f32::NAN, 2.0], &[3.0, f32::INFINITY]]);
        let c = a.matmul(&b);
        assert!(c.as_slice().iter().all(|x| x.is_nan()));
        let t = a.transpose_matmul(&b);
        assert!(t.at(0, 0).is_nan() && t.at(1, 1).is_nan());
        // Same contract on the blocked path.
        let mut big_a = Matrix::full(32, 32, 0.0);
        *big_a.at_mut(0, 0) = 0.0;
        let mut big_b = Matrix::full(32, 32, 1.0);
        *big_b.at_mut(0, 0) = f32::NAN;
        assert!(big_a.matmul(&big_b).at(0, 0).is_nan());
        // Inf: 1·Inf reaches the output even when paired with zeros.
        *b.at_mut(0, 0) = 1.0;
        let c = a.matmul(&b);
        assert!(!c.at(1, 1).is_finite());
    }
}
