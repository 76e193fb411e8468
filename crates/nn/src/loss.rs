//! Loss functions used by the critic (MSE / weighted MSE) and utilities for
//! temporal-difference targets. Each writes into caller-owned buffers, so
//! the update loop's steady state allocates nothing.

use crate::matrix::Matrix;

/// Mean-squared error between `pred` and `target`: writes `dL/dpred`
/// (with the conventional `2/n` scale, `n` the element count) into
/// `grad` and returns the loss.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    grad.copy_from(pred);
    grad.sub_assign(target);
    let loss = grad.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
    grad.scale(2.0 / n);
    loss
}

/// Importance-weighted MSE used by prioritized replay (Lemma 1 of the
/// paper): each row `i` is scaled by `weights[i]`. Writes `dL/dpred` into
/// `grad` and returns the loss.
///
/// # Panics
///
/// Panics if shapes mismatch or `weights.len() != pred.rows()`.
pub fn weighted_mse_into(
    pred: &Matrix,
    target: &Matrix,
    weights: &[f32],
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(pred.shape(), target.shape(), "weighted_mse shape mismatch");
    assert_eq!(weights.len(), pred.rows(), "weight/row mismatch");
    let n = pred.len().max(1) as f32;
    grad.copy_from(pred);
    grad.sub_assign(target);
    let mut loss = 0.0;
    for (r, &w) in weights.iter().enumerate().take(pred.rows()) {
        let row = grad.row_mut(r);
        for d in row.iter_mut() {
            loss += w * *d * *d;
            *d *= 2.0 * w;
        }
    }
    grad.scale(1.0 / n);
    loss / n
}

/// Per-row absolute TD error `|pred − target|` (mean over columns), used
/// to refresh priorities in prioritized replay; clears `out` and appends
/// one value per row.
pub fn td_errors_into(pred: &Matrix, target: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(pred.shape(), target.shape(), "td_errors shape mismatch");
    out.clear();
    for r in 0..pred.rows() {
        let e = pred.row(r).iter().zip(target.row(r)).map(|(a, b)| (a - b).abs()).sum::<f32>()
            / pred.cols().max(1) as f32;
        out.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_equal() {
        let a = Matrix::full(3, 2, 1.5);
        let mut g = Matrix::default();
        assert_eq!(mse_into(&a, &a, &mut g), 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]);
        let target = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let (mut g, mut scratch) = (Matrix::default(), Matrix::default());
        mse_into(&pred, &target, &mut g);
        let eps = 1e-3f32;
        for i in 0..pred.len() {
            let mut pp = pred.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = pred.clone();
            pm.as_mut_slice()[i] -= eps;
            let fd = (mse_into(&pp, &target, &mut scratch) - mse_into(&pm, &target, &mut scratch))
                / (2.0 * eps);
            assert!((fd - g.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn weighted_mse_reduces_to_mse_with_unit_weights() {
        let pred = Matrix::from_rows(&[&[1.0], &[3.0]]);
        let target = Matrix::from_rows(&[&[0.0], &[0.0]]);
        let (mut gw, mut g) = (Matrix::default(), Matrix::default());
        let lw = weighted_mse_into(&pred, &target, &[1.0, 1.0], &mut gw);
        let l = mse_into(&pred, &target, &mut g);
        assert!((lw - l).abs() < 1e-6);
        for (a, b) in gw.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_mse_scales_rows() {
        let pred = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let target = Matrix::zeros(2, 1);
        let mut g = Matrix::default();
        weighted_mse_into(&pred, &target, &[0.0, 1.0], &mut g);
        assert_eq!(g.at(0, 0), 0.0);
        assert!(g.at(1, 0) > 0.0);
    }

    #[test]
    fn td_errors_are_absolute_means() {
        let pred = Matrix::from_rows(&[&[1.0, -1.0]]);
        let target = Matrix::from_rows(&[&[0.0, 0.0]]);
        let mut out = vec![7.0];
        td_errors_into(&pred, &target, &mut out);
        assert_eq!(out, vec![1.0]);
    }
}
