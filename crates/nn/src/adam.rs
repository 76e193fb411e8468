//! Adam optimizer (Kingma & Ba, 2014), matching the paper's settings
//! (`lr = 0.01` by default).

use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Configuration of an [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (paper default 0.01).
    pub learning_rate: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
    /// Optional global gradient-norm clip (disabled when `None`).
    pub grad_clip: Option<f32>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            learning_rate: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            grad_clip: Some(0.5),
        }
    }
}

/// Adam state for one network.
///
/// The optimizer lazily sizes its moment buffers on the first
/// [`Adam::step`], so it can be constructed before the network.
///
/// # Examples
///
/// ```
/// use marl_nn::{Adam, AdamConfig, BackwardNeed, InputGrad, Matrix, Mlp, Scratch, rng};
/// let mut rng = rng::seeded(0);
/// let mut net = Mlp::two_layer_relu(4, 2, &mut rng);
/// let mut opt = Adam::new(AdamConfig::default());
/// let (mut out, mut unused, mut scratch) = (Matrix::default(), Matrix::default(), Scratch::new());
/// net.zero_grad();
/// net.forward_into(&Matrix::zeros(1, 4), &mut out);
/// let need = BackwardNeed { params: true, input: InputGrad::None };
/// net.backward_need_into(&Matrix::full(1, 2, 0.5), need, &mut unused, &mut scratch);
/// opt.step(&mut net);
/// assert_eq!(opt.steps(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Adam { config, m: Vec::new(), v: Vec::new(), t: 0 }
    }

    /// Convenience constructor with only the learning rate overridden.
    pub fn with_learning_rate(lr: f32) -> Self {
        Adam::new(AdamConfig { learning_rate: lr, ..AdamConfig::default() })
    }

    /// The active configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update using the gradients accumulated on `net`.
    ///
    /// Gradients are *not* cleared; call [`Mlp::zero_grad`] before the next
    /// backward pass.
    pub fn step(&mut self, net: &mut Mlp) {
        // Size moments lazily.
        let mut total = 0;
        net.visit_params(|p, _| total += p.len());
        if self.m.len() != total {
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
            self.t = 0;
        }
        self.t += 1;

        // Optional global-norm clip.
        let mut scale = 1.0f32;
        if let Some(clip) = self.config.grad_clip {
            let mut sq = 0.0f32;
            net.visit_params(|_, g| sq += g.iter().map(|x| x * x).sum::<f32>());
            let norm = sq.sqrt();
            if norm > clip && norm > 0.0 {
                scale = clip / norm;
            }
        }

        let AdamConfig { learning_rate, beta1, beta2, epsilon, .. } = self.config;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        let mut off = 0;
        let (m, v) = (&mut self.m, &mut self.v);
        // The element-wise update runs on the dispatched kernel; scalar and
        // SIMD paths are bitwise identical (no FMA reassociation).
        net.visit_params(|p, g| {
            let len = p.len();
            crate::kernels::adam_step(
                p,
                g,
                &mut m[off..off + len],
                &mut v[off..off + len],
                scale,
                learning_rate,
                beta1,
                beta2,
                epsilon,
                bc1,
                bc2,
            );
            off += len;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::rng;
    use crate::scratch::Scratch;

    /// Trains y = 2x on a tiny net and checks the loss shrinks.
    #[test]
    fn adam_reduces_regression_loss() {
        let mut r = rng::seeded(11);
        let mut net = Mlp::new(
            &[1, 8, 1],
            crate::activation::Activation::Tanh,
            crate::init::Init::XavierUniform,
            &mut r,
        );
        let mut opt = Adam::with_learning_rate(0.01);
        let x = Matrix::from_rows(&[&[-1.0], &[-0.5], &[0.0], &[0.5], &[1.0]]);
        let mut y = x.clone();
        y.scale(2.0);
        let loss_of = |net: &Mlp| {
            let mut p = Matrix::default();
            net.forward_inference_into(&x, &mut p, &mut Scratch::new());
            p.as_slice().iter().zip(y.as_slice()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
                / x.rows() as f32
        };
        let initial = loss_of(&net);
        let (mut pred, mut grad, mut grad_in, mut scratch) =
            (Matrix::default(), Matrix::default(), Matrix::default(), Scratch::new());
        for _ in 0..300 {
            net.zero_grad();
            net.forward_into(&x, &mut pred);
            grad.copy_from(&pred);
            grad.sub_assign(&y);
            grad.scale(2.0 / x.rows() as f32);
            net.backward_into(&grad, &mut grad_in, &mut scratch);
            opt.step(&mut net);
        }
        let fin = loss_of(&net);
        assert!(fin < initial * 0.05, "initial {initial} final {fin}");
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut r = rng::seeded(12);
        let mut net = Mlp::new(
            &[1, 1],
            crate::activation::Activation::Identity,
            crate::init::Init::Zeros,
            &mut r,
        );
        let mut opt = Adam::new(AdamConfig {
            learning_rate: 1.0,
            grad_clip: Some(0.001),
            ..AdamConfig::default()
        });
        let (mut y, mut grad_in) = (Matrix::default(), Matrix::default());
        net.zero_grad();
        net.forward_into(&Matrix::full(1, 1, 1000.0), &mut y);
        net.backward_into(&Matrix::full(1, 1, 1000.0), &mut grad_in, &mut Scratch::new());
        opt.step(&mut net);
        // with clipping the first Adam step is bounded by lr regardless of
        // raw gradient magnitude
        let mut params = vec![];
        net.visit_params(|p, _| params.extend_from_slice(p));
        assert!(params.iter().all(|p| p.abs() <= 1.5), "{params:?}");
    }

    #[test]
    fn step_counter_advances() {
        let mut r = rng::seeded(13);
        let mut net = Mlp::two_layer_relu(2, 1, &mut r);
        let mut opt = Adam::new(AdamConfig::default());
        assert_eq!(opt.steps(), 0);
        let (mut y, mut grad_in) = (Matrix::default(), Matrix::default());
        net.zero_grad();
        net.forward_into(&Matrix::zeros(1, 2), &mut y);
        net.backward_into(&Matrix::zeros(1, 1), &mut grad_in, &mut Scratch::new());
        opt.step(&mut net);
        assert_eq!(opt.steps(), 1);
    }
}
