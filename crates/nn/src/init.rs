//! Weight initialization schemes for dense layers.

use crate::matrix::Matrix;
use rand::Rng;

/// Initialization scheme applied to a freshly created [`crate::linear::Linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Init {
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    #[default]
    XavierUniform,
    /// He/Kaiming uniform for ReLU networks: `U(-a, a)`, `a = sqrt(6 / fan_in)`.
    HeUniform,
    /// All-zero weights (useful for tests and bias-only layers).
    Zeros,
}

impl Init {
    /// Builds a `fan_in × fan_out` weight matrix under this scheme.
    pub fn weights<R: Rng + ?Sized>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
        match self {
            Init::Zeros => Matrix::zeros(fan_in, fan_out),
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                uniform_matrix(fan_in, fan_out, a, rng)
            }
            Init::HeUniform => {
                let a = (6.0 / fan_in.max(1) as f32).sqrt();
                uniform_matrix(fan_in, fan_out, a, rng)
            }
        }
    }
}

fn uniform_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, a: f32, rng: &mut R) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for x in m.as_mut_slice() {
        *x = rng.gen_range(-a..=a);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn xavier_bounds_hold() {
        let mut r = rng::seeded(5);
        let m = Init::XavierUniform.weights(64, 64, &mut r);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(m.as_slice().iter().all(|x| x.abs() <= a));
        // and they are not degenerate
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn zeros_is_zero() {
        let mut r = rng::seeded(5);
        let m = Init::Zeros.weights(4, 3, &mut r);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn he_scales_with_fan_in() {
        let mut r = rng::seeded(6);
        let wide = Init::HeUniform.weights(1000, 4, &mut r);
        let a = (6.0 / 1000.0f32).sqrt();
        assert!(wide.as_slice().iter().all(|x| x.abs() <= a));
    }
}
