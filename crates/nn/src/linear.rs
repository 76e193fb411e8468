//! Fully-connected layer with explicit backpropagation.

use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How much of the input gradient `dL/dx` a backward pass must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputGrad {
    /// Nobody reads `dL/dx`: the product is skipped and the destination
    /// matrix is left untouched.
    None,
    /// Only columns `start..start + width` of `dL/dx`, written as a
    /// `batch × width` matrix.
    Columns {
        /// First input column wanted.
        start: usize,
        /// Number of input columns wanted.
        width: usize,
    },
    /// The whole `batch × fan_in` gradient.
    Full,
}

/// What the caller of a backward pass will read afterwards; everything
/// else is not computed.
///
/// # Examples
///
/// ```
/// use marl_nn::{BackwardNeed, InputGrad, Matrix, Mlp, Scratch, rng};
/// let mut rng = rng::seeded(0);
/// let mut critic = Mlp::two_layer_relu(10, 1, &mut rng);
/// let mut q = Matrix::default();
/// critic.forward_into(&Matrix::zeros(4, 10), &mut q);
/// // Policy pass: only dQ/d(columns 6..9) is read, no parameter gradients.
/// let need = BackwardNeed { params: false, input: InputGrad::Columns { start: 6, width: 3 } };
/// let (mut grad_action, mut scratch) = (Matrix::default(), Scratch::new());
/// critic.backward_need_into(&Matrix::full(4, 1, 1.0), need, &mut grad_action, &mut scratch);
/// assert_eq!(grad_action.shape(), (4, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackwardNeed {
    /// Accumulate `dL/dW` and `dL/db` into the stored gradients.
    pub params: bool,
    /// Which part of `dL/dx` to write.
    pub input: InputGrad,
}

impl BackwardNeed {
    /// Parameter gradients and the whole input gradient — what the plain
    /// `backward` / `backward_into` wrappers pass.
    pub const FULL: BackwardNeed = BackwardNeed { params: true, input: InputGrad::Full };
}

/// A dense layer `y = x · W + b` with cached forward state and accumulated
/// gradients.
///
/// Gradients accumulate across [`Linear::backward`] calls until
/// [`Linear::zero_grad`] resets them, mirroring the usual
/// `zero_grad → forward → backward → step` optimizer loop.
///
/// # Examples
///
/// ```
/// use marl_nn::{linear::Linear, init::Init, matrix::Matrix, rng};
/// let mut rng = rng::seeded(0);
/// let mut layer = Linear::new(3, 2, Init::XavierUniform, &mut rng);
/// let x = Matrix::zeros(4, 3);
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
    grad_weight: Matrix,
    grad_bias: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Creates a layer mapping `fan_in` features to `fan_out` features.
    pub fn new<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, init: Init, rng: &mut R) -> Self {
        Linear {
            weight: init.weights(fan_in, fan_out, rng),
            bias: vec![0.0; fan_out],
            grad_weight: Matrix::zeros(fan_in, fan_out),
            grad_bias: vec![0.0; fan_out],
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.weight.cols()
    }

    /// Number of trainable scalars (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Immutable view of the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Immutable view of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Forward pass, caching the input for the subsequent backward pass.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    /// Forward pass writing into `out`, caching the input (into a reused
    /// buffer) for the subsequent backward pass. Allocation-free once the
    /// cache and `out` have steady-state capacity.
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weight, out);
        crate::kernels::add_bias(out.as_mut_slice(), &self.bias);
        match &mut self.cached_input {
            Some(c) => c.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
    }

    /// Forward pass without caching (inference only; `backward` afterwards
    /// would panic).
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_inference_into(input, &mut out);
        out
    }

    /// Inference forward pass writing into `out` (no cache, no allocation).
    pub fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weight, out);
        crate::kernels::add_bias(out.as_mut_slice(), &self.bias);
    }

    /// Backward pass: accumulates `dL/dW`, `dL/db` and returns `dL/dx`
    /// (the [`BackwardNeed::FULL`] request, allocating).
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Linear::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::default();
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// [`Linear::backward_need_into`] with the [`BackwardNeed::FULL`]
    /// request: parameter gradients accumulate and `grad_in` receives the
    /// whole `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before any forward pass cached an input.
    pub fn backward_into(&mut self, grad_out: &Matrix, grad_in: &mut Matrix) {
        self.backward_need_into(grad_out, BackwardNeed::FULL, grad_in);
    }

    /// The backward pass, computing only what `need` asks for.
    ///
    /// With `need.params`, `dL/dW` accumulates through the fused
    /// [`Matrix::transpose_matmul_acc_into`] kernel (no temporary product
    /// matrix) and `dL/db` sums straight into the stored gradient; without
    /// it the accumulated gradients are left exactly as they were.
    /// `need.input` selects how much of `dL/dx = G · Wᵀ` lands in
    /// `grad_in`: nothing (`grad_in` is not touched), a column block
    /// (`grad_in` becomes `batch × width`) or all of it. `W` is stored
    /// `fan_in × fan_out`, so a column block of `dL/dx` is the same
    /// product against a contiguous row slice of `W`, and every kept
    /// element is bitwise the one the full product holds. The steady state
    /// performs zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if called before any forward pass cached an input, or if a
    /// requested column block does not fit in `fan_in`.
    pub fn backward_need_into(
        &mut self,
        grad_out: &Matrix,
        need: BackwardNeed,
        grad_in: &mut Matrix,
    ) {
        let input = self.cached_input.as_ref().expect("Linear::backward called before forward");
        assert_eq!(grad_out.rows(), input.rows(), "backward batch mismatch");
        if need.params {
            input.transpose_matmul_acc_into(grad_out, &mut self.grad_weight);
            let cols = grad_out.cols();
            for r in 0..grad_out.rows() {
                for (gb, &g) in self.grad_bias.iter_mut().zip(&grad_out.row(r)[..cols]) {
                    *gb += g;
                }
            }
        }
        let fan_in = self.fan_in();
        let (start, width) = match need.input {
            InputGrad::None => return,
            InputGrad::Columns { start, width } => (start, width),
            InputGrad::Full => (0, fan_in),
        };
        assert!(
            start.checked_add(width).is_some_and(|end| end <= fan_in),
            "input-gradient column block (start {start}, width {width}) exceeds the layer's fan_in {fan_in}"
        );
        grad_out.matmul_transpose_rows_into(&self.weight, start, width, grad_in);
    }

    /// Clears accumulated gradients to `+0.0` (a fill, not a scale: a
    /// NaN/Inf accumulator would survive multiplication by zero).
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    /// Visits `(parameter, gradient)` pairs; used by the optimizer.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        // Split borrows: weight/grad_weight then bias/grad_bias.
        let Linear { weight, grad_weight, bias, grad_bias, .. } = self;
        f(weight.as_mut_slice(), grad_weight.as_slice());
        f(bias.as_mut_slice(), grad_bias.as_slice());
    }

    /// Moves this layer's parameters toward `source` by factor `tau`
    /// (Polyak averaging): `θ ← τ·θ_src + (1−τ)·θ`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn soft_update_from(&mut self, source: &Linear, tau: f32) {
        assert_eq!(self.weight.shape(), source.weight.shape(), "soft update shape mismatch");
        for (t, s) in self.weight.as_mut_slice().iter_mut().zip(source.weight.as_slice()) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, s) in self.bias.iter_mut().zip(source.bias.iter()) {
            *t = tau * s + (1.0 - tau) * *t;
        }
    }

    /// Copies parameters verbatim from `source`.
    pub fn hard_update_from(&mut self, source: &Linear) {
        self.soft_update_from(source, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn forward_shapes() {
        let mut r = rng::seeded(0);
        let mut l = Linear::new(5, 3, Init::XavierUniform, &mut r);
        let y = l.forward(&Matrix::zeros(7, 5));
        assert_eq!(y.shape(), (7, 3));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut r = rng::seeded(1);
        let mut l = Linear::new(4, 3, Init::XavierUniform, &mut r);
        let mut x = Matrix::zeros(2, 4);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        // L = sum of outputs
        let ones = Matrix::full(2, 3, 1.0);
        let _y = l.forward(&x);
        let gin = l.backward(&ones);

        let eps = 1e-3f32;
        // check dL/dx numerically
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp: f32 = l.forward_inference(&xp).as_slice().iter().sum();
            let lm: f32 = l.forward_inference(&xm).as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin.as_slice()[i]).abs() < 1e-2, "input grad {i}");
        }
        // check dL/db analytically: each bias receives batch-size gradient
        let mut seen = vec![];
        l.visit_params(|_, g| seen.push(g.to_vec()));
        assert_eq!(seen[1], vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut r = rng::seeded(2);
        let mut l = Linear::new(2, 2, Init::XavierUniform, &mut r);
        let x = Matrix::full(1, 2, 1.0);
        let g = Matrix::full(1, 2, 1.0);
        l.forward(&x);
        l.backward(&g);
        l.forward(&x);
        l.backward(&g);
        let mut bias_grad = vec![];
        l.visit_params(|_, gr| bias_grad.push(gr.to_vec()));
        assert_eq!(bias_grad[1], vec![2.0, 2.0]);
        l.zero_grad();
        let mut bias_grad2 = vec![];
        l.visit_params(|_, gr| bias_grad2.push(gr.to_vec()));
        assert_eq!(bias_grad2[1], vec![0.0, 0.0]);
    }

    #[test]
    fn zero_grad_clears_a_poisoned_accumulator() {
        let mut r = rng::seeded(5);
        let mut l = Linear::new(2, 3, Init::XavierUniform, &mut r);
        // NaN·0 and Inf·0 are NaN and −x·0 is −0.0: only a fill clears them.
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0, -0.0, 1.0];
        l.grad_weight.as_mut_slice().copy_from_slice(&poison);
        l.grad_bias.copy_from_slice(&poison[..3]);
        l.zero_grad();
        let grads = l.grad_weight.as_slice().iter().chain(&l.grad_bias);
        for (i, g) in grads.enumerate() {
            assert_eq!(g.to_bits(), 0, "gradient {i} is {g:?}, not +0.0");
        }
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut r = rng::seeded(3);
        let src = Linear::new(2, 2, Init::XavierUniform, &mut r);
        let mut dst = Linear::new(2, 2, Init::Zeros, &mut r);
        dst.soft_update_from(&src, 0.5);
        for (d, s) in dst.weight.as_slice().iter().zip(src.weight.as_slice()) {
            assert!((d - 0.5 * s).abs() < 1e-6);
        }
        dst.hard_update_from(&src);
        assert_eq!(dst.weight(), src.weight());
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut r = rng::seeded(4);
        let mut l = Linear::new(2, 2, Init::Zeros, &mut r);
        l.backward(&Matrix::zeros(1, 2));
    }
}
