//! Weight initialization schemes for dense layers.

use rand::Rng;

/// Initialization scheme for the weights of each layer of a freshly built
/// [`crate::mlp::Mlp`].
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
    /// Fills `out` with a `fan_in × fan_out` row-major weight matrix under
    /// this scheme, drawing in row-major order.
    pub fn fill<R: Rng + ?Sized>(
        self,
        fan_in: usize,
        fan_out: usize,
        out: &mut [f32],
        rng: &mut R,
    ) {
        let a = match self {
            Init::Zeros => return out.fill(0.0),
            Init::XavierUniform => (6.0 / (fan_in + fan_out) as f32).sqrt(),
            Init::HeUniform => (6.0 / fan_in.max(1) as f32).sqrt(),
        };
        for x in out {
            *x = rng.gen_range(-a..=a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn weights(init: Init, fan_in: usize, fan_out: usize, r: &mut impl Rng) -> Vec<f32> {
        let mut out = vec![f32::NAN; fan_in * fan_out];
        init.fill(fan_in, fan_out, &mut out, r);
        out
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut r = rng::seeded(5);
        let m = weights(Init::XavierUniform, 64, 64, &mut r);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(m.iter().all(|x| x.abs() <= a));
        // and they are not degenerate
        assert!(m.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn zeros_is_zero() {
        let mut r = rng::seeded(5);
        let m = weights(Init::Zeros, 4, 3, &mut r);
        assert!(m.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn he_scales_with_fan_in() {
        let mut r = rng::seeded(6);
        let wide = weights(Init::HeUniform, 1000, 4, &mut r);
        let a = (6.0 / 1000.0f32).sqrt();
        assert!(wide.iter().all(|x| x.abs() <= a));
    }
}
