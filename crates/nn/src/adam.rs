//! Adam optimizer (Kingma & Ba, 2014), matching the paper's settings
//! (`lr = 0.01` by default).

use crate::mlp::Mlp;
use crate::record::{self, Reader};
use crate::slab::Slab;
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

/// Adam state for one network: the two moment slabs, in the network's
/// parameter layout.
///
/// The optimizer sizes its moments on the first [`Adam::step`], so it can
/// be constructed before the network.
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
/// assert_eq!(opt.validate_for(&net), Ok(()));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Adam {
    config: AdamConfig,
    m: Slab,
    v: Slab,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: AdamConfig) -> Self {
        Adam { config, m: Slab::default(), v: Slab::default(), t: 0 }
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

    /// Checks what an optimizer read from a record may violate: its two
    /// moment slabs are equally long, and either empty (sized on the first
    /// step) or one value per parameter of `net`.
    ///
    /// # Errors
    ///
    /// A message naming both lengths and the network's.
    pub fn validate_for(&self, net: &Mlp) -> Result<(), String> {
        moments_fit(self.m.len(), self.v.len(), net.parameter_count())
    }

    /// Appends this optimizer's record: the step count (`u64`), then the
    /// moments `m` and `v`, each a `u32` count and its values. The
    /// configuration is not written; it belongs to the training run.
    pub fn write_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.t.to_le_bytes());
        record::put_slab(out, &self.m);
        record::put_slab(out, &self.v);
    }

    /// Reads a record [`Adam::write_record`] wrote, under `config`. The
    /// moments are not checked against a network: see
    /// [`Adam::validate_for`].
    ///
    /// # Errors
    ///
    /// A count the bytes do not back; nothing is allocated for it.
    pub fn read_record(r: &mut Reader<'_>, config: AdamConfig) -> Result<Adam, String> {
        let t = r.u64()?;
        let m = Slab(r.slab()?);
        let v = Slab(r.slab()?);
        Ok(Adam { config, m, v, t })
    }

    /// Moves `r` past one optimizer record, copying nothing, and checks
    /// its moments as [`Adam::validate_for`] checks them against a network
    /// of `parameters` parameters.
    ///
    /// # Errors
    ///
    /// A count the bytes do not back, or moments that do not fit.
    pub fn skip_record(r: &mut Reader<'_>, parameters: usize) -> Result<(), String> {
        r.u64()?;
        let mut moment = || -> Result<usize, String> {
            let n = r.u32()? as usize;
            r.values(n, 4)?;
            Ok(n)
        };
        let (m, v) = (moment()?, moment()?);
        moments_fit(m, v, parameters)
    }

    /// Applies one Adam update using the gradients accumulated on `net`.
    ///
    /// Gradients are *not* cleared; call [`Mlp::zero_grad`] before the next
    /// backward pass.
    ///
    /// # Panics
    ///
    /// Panics if the moments were sized for a network with a different
    /// parameter count ([`Adam::validate_for`] refuses such a pair).
    pub fn step(&mut self, net: &mut Mlp) {
        if self.m.is_empty() {
            self.m = Slab(vec![0.0; net.parameter_count()]);
            self.v = Slab(vec![0.0; net.parameter_count()]);
        }
        self.t += 1;
        let (widths, params, grads) = net.slabs();

        // Optional global-norm clip. The squared norm is summed per tensor
        // (each layer's weights, then its bias) and the partial sums added
        // in layer order: one pass over the slab would round differently.
        let mut scale = 1.0f32;
        if let Some(clip) = self.config.grad_clip {
            let tensors = widths.windows(2).flat_map(|w| [w[0] * w[1], w[1]]);
            let partial = tensors.scan(grads, |rest, len| {
                let (g, tail) = rest.split_at(len);
                *rest = tail;
                Some(g.iter().map(|x| x * x).sum::<f32>())
            });
            let norm = partial.fold(0.0f32, |sq, s| sq + s).sqrt();
            if norm > clip && norm > 0.0 {
                scale = clip / norm;
            }
        }

        let AdamConfig { learning_rate, beta1, beta2, epsilon, .. } = self.config;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        // One element-wise pass over the whole slab on the dispatched
        // kernel: each element's bits depend on nothing around it, so where
        // the slab is cut never matters, and scalar and SIMD paths are
        // bitwise identical (no FMA reassociation).
        crate::kernels::adam_step(
            params,
            grads,
            &mut self.m,
            &mut self.v,
            scale,
            learning_rate,
            beta1,
            beta2,
            epsilon,
            bc1,
            bc2,
        );
    }
}

/// Moments of `m` and `v` values fit a network of `n` parameters when
/// they are equally long and either empty or one value per parameter.
fn moments_fit(m: usize, v: usize, n: usize) -> Result<(), String> {
    if m == v && (m == 0 || m == n) {
        Ok(())
    } else {
        Err(format!("moments hold {m} and {v} values, the network has {n} parameters"))
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
        let params = net.params();
        assert!(params.iter().all(|p| p.abs() <= 1.5), "{params:?}");
    }

    /// Pins the clip's norm: each tensor's squared-gradient sum, added in
    /// tensor order. These gradients round differently when summed in one
    /// pass over all parameters, and the scale that difference leaves in
    /// the moments reaches the outputs within four steps; the pin sees
    /// only the public API, so it holds across storage layouts.
    #[test]
    fn clip_norm_sums_each_tensor_then_adds_in_tensor_order() {
        let mut r = rng::seeded(21);
        let mut net = Mlp::new(
            &[5, 7, 3],
            crate::activation::Activation::Tanh,
            crate::init::Init::XavierUniform,
            &mut r,
        );
        let mut opt = Adam::new(AdamConfig { grad_clip: Some(0.05), ..AdamConfig::default() });
        let wave = |rows: usize, cols: usize, phase: f32| {
            let mut m = Matrix::zeros(rows, cols);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as f32 + phase) * 0.731).sin() * (1.0 + i as f32 * 0.173);
            }
            m
        };
        let (mut y, mut grad_in, mut scratch) =
            (Matrix::default(), Matrix::default(), Scratch::new());
        for step in 0..4 {
            net.zero_grad();
            net.forward_into(&wave(6, 5, step as f32), &mut y);
            net.backward_into(&wave(6, 3, 10.0 + step as f32), &mut grad_in, &mut scratch);
            opt.step(&mut net);
        }
        net.forward_inference_into(&wave(16, 5, 0.5), &mut y, &mut scratch);
        // FNV-1a over the output bits.
        let digest = y.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 2_298_657_482_755_832_343, "outputs after four clipped steps");
    }

    /// The record carries the step count and both moments bit for bit;
    /// skipping it checks the moments against the network it names.
    #[test]
    fn record_round_trips_and_skipping_checks_the_moments() {
        let mut r = rng::seeded(14);
        let mut net = Mlp::two_layer_relu(3, 2, &mut r);
        let mut opt = Adam::new(AdamConfig::default());
        let (mut y, mut grad_in) = (Matrix::default(), Matrix::default());
        net.zero_grad();
        net.forward_into(&Matrix::full(2, 3, 0.5), &mut y);
        net.backward_into(&Matrix::full(2, 2, 1.0), &mut grad_in, &mut Scratch::new());
        opt.step(&mut net);
        opt.m[0] = f32::from_bits(0x7FC0_1234);
        let mut bytes = Vec::new();
        opt.write_record(&mut bytes);
        let n = net.parameter_count();
        assert_eq!(bytes.len(), 8 + 2 * (4 + 4 * n));
        let mut reader = Reader::new(&bytes);
        let back = Adam::read_record(&mut reader, AdamConfig::default()).unwrap();
        reader.finish().unwrap();
        let bits = |s: &Slab| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((back.t, bits(&back.m), bits(&back.v)), (1, bits(&opt.m), bits(&opt.v)));
        assert_eq!(back.validate_for(&net), Ok(()));
        assert_eq!(Adam::skip_record(&mut Reader::new(&bytes), n), Ok(()));
        let want = format!("moments hold {n} and {n} values, the network has {} parameters", n + 1);
        assert_eq!(Adam::skip_record(&mut Reader::new(&bytes), n + 1), Err(want));
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            assert!(Adam::read_record(&mut Reader::new(short), AdamConfig::default()).is_err());
            assert!(Adam::skip_record(&mut Reader::new(short), n).is_err());
        }
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
