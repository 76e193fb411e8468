//! Activation functions with explicit forward/backward passes.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Activation applied after each hidden layer of an [`crate::mlp::Mlp`].
///
/// The paper's networks are "two-layer ReLU MLPs with 64 units per layer";
/// `Tanh` and `Identity` are provided for output heads and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (linear output head).
    Identity,
}

impl Activation {
    /// Every activation, in the order of its record byte.
    const BY_BYTE: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];

    /// The activation's byte in a network record.
    pub(crate) fn to_byte(self) -> u8 {
        Activation::BY_BYTE.iter().position(|&a| a == self).expect("listed") as u8
    }

    /// The activation a record byte names.
    pub(crate) fn from_byte(byte: u8) -> Result<Activation, String> {
        Activation::BY_BYTE
            .get(byte as usize)
            .copied()
            .ok_or_else(|| format!("unknown activation byte {byte}"))
    }

    /// Applies the activation in place (allocation-free; ReLU dispatches to
    /// the active kernel).
    pub fn forward_inplace(self, z: &mut Matrix) {
        match self {
            Activation::Relu => crate::kernels::relu_forward(z.as_mut_slice()),
            Activation::Tanh => {
                for x in z.as_mut_slice() {
                    *x = x.tanh();
                }
            }
            Activation::Identity => {}
        }
    }

    /// Transforms `dL/da` into `dL/dz` in place given the activated output
    /// `a`. All three activations admit a backward pass expressed in terms
    /// of their own output, which avoids caching pre-activations.
    pub fn backward_inplace(self, grad: &mut Matrix, activated: &Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                crate::kernels::relu_backward(grad.as_mut_slice(), activated.as_slice());
            }
            Activation::Tanh => {
                for (g, &a) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
                    *g *= 1.0 - a * a;
                }
            }
        }
    }
}

/// Softmax over one raw slice, in place. Rows and row segments (composite
/// action spaces normalize each segment independently) share this exact
/// arithmetic.
///
/// # Examples
///
/// ```
/// use marl_nn::activation::softmax_slice_inplace;
/// let mut p = [0.0, 0.0];
/// softmax_slice_inplace(&mut p);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_slice_inplace(row: &mut [f32]) {
    let cols = row.len();
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    } else {
        for x in row.iter_mut() {
            *x = 1.0 / cols as f32;
        }
    }
}

/// Backward pass of softmax over one raw slice (one row, or one segment
/// of a composite action space): given `y = softmax(z)` and `g = dL/dy`,
/// writes `dL/dz = y ⊙ (g − (g · y))` into `out`.
pub fn softmax_backward_slice(g: &[f32], y: &[f32], out: &mut [f32]) {
    let dot: f32 = g.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
    for ((o, &gi), &yi) in out.iter_mut().zip(g.iter()).zip(y.iter()) {
        *o = yi * (gi - dot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut a = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        Activation::Relu.forward_inplace(&mut a);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 2.0]);
        let mut g = Matrix::row_vector(&[1.0, 1.0, 1.0]);
        Activation::Relu.backward_inplace(&mut g, &a);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let z = Matrix::row_vector(&[0.3, -0.7]);
        let tanh = |mut m: Matrix| {
            Activation::Tanh.forward_inplace(&mut m);
            m
        };
        let a = tanh(z.clone());
        let mut g = Matrix::row_vector(&[1.0, 1.0]);
        Activation::Tanh.backward_inplace(&mut g, &a);
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut zp = z.clone();
            zp.as_mut_slice()[i] += eps;
            let mut zm = z.clone();
            zm.as_mut_slice()[i] -= eps;
            let fd = (tanh(zp).as_slice()[i] - tanh(zm).as_slice()[i]) / (2.0 * eps);
            assert!((fd - g.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        for mut row in [[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]] {
            softmax_slice_inplace(&mut row);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0, 2.0];
        let mut b = [101.0, 102.0];
        softmax_slice_inplace(&mut a);
        softmax_slice_inplace(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let z = [0.2f32, -0.4, 0.9];
        // Loss L = sum(w * softmax(z)) for arbitrary w.
        let w = [0.7, -1.3, 0.5];
        let loss = |mut z: [f32; 3]| -> f32 {
            softmax_slice_inplace(&mut z);
            z.iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let mut y = z;
        softmax_slice_inplace(&mut y);
        let mut g = [0.0; 3];
        softmax_backward_slice(&w, &y, &mut g);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut zp = z;
            zp[i] += eps;
            let mut zm = z;
            zm[i] -= eps;
            let fd = (loss(zp) - loss(zm)) / (2.0 * eps);
            assert!((fd - g[i]).abs() < 1e-2, "i={i} fd={fd} g={}", g[i]);
        }
    }
}
