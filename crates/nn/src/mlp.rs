//! Multi-layer perceptron assembled from [`Linear`] layers.

use crate::activation::Activation;
use crate::init::Init;
use crate::linear::{BackwardNeed, InputGrad, Linear};
use crate::matrix::Matrix;
use crate::scratch::Scratch;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network: hidden layers use a shared activation, the output
/// layer is linear.
///
/// The paper parameterizes actors and critics as "two-layer ReLU MLPs with
/// 64 units per layer"; [`Mlp::two_layer_relu`] builds exactly that.
///
/// # Examples
///
/// ```
/// use marl_nn::{mlp::Mlp, matrix::Matrix, rng};
/// let mut rng = rng::seeded(0);
/// let mut net = Mlp::two_layer_relu(8, 5, &mut rng);
/// let out = net.forward(&Matrix::zeros(3, 8));
/// assert_eq!(out.shape(), (3, 5));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    #[serde(skip)]
    activations: Vec<Matrix>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[in, 64, 64, out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden_activation: Activation,
        init: Init,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let layers = sizes.windows(2).map(|w| Linear::new(w[0], w[1], init, rng)).collect();
        Mlp { layers, hidden_activation, activations: Vec::new() }
    }

    /// The paper's default architecture: `input → 64 → 64 → output` with
    /// ReLU hidden activations and He initialization.
    pub fn two_layer_relu<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        Mlp::new(&[input, 64, 64, output], Activation::Relu, Init::HeUniform, rng)
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::fan_in)
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// Total trainable scalar count.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Linear::parameter_count).sum()
    }

    /// Number of dense layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass that caches intermediate activations for `backward`.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    /// Forward pass writing the output into `out`; hidden activations are
    /// cached into persistent per-layer buffers (reused across calls), so
    /// the steady state performs zero heap allocations.
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let n = self.layers.len();
        if self.activations.len() != n - 1 {
            self.activations.resize_with(n - 1, Matrix::default);
        }
        let Mlp { layers, hidden_activation, activations } = self;
        for i in 0..n - 1 {
            let (done, rest) = activations.split_at_mut(i);
            let prev: &Matrix = if i == 0 { input } else { &done[i - 1] };
            let a = &mut rest[0];
            layers[i].forward_into(prev, a);
            hidden_activation.forward_inplace(a);
        }
        let prev: &Matrix = if n == 1 { input } else { &activations[n - 2] };
        layers[n - 1].forward_into(prev, out);
    }

    /// Forward pass without caching; usable on `&self` for inference.
    pub fn forward_inference(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        let mut scratch = Scratch::new();
        self.forward_inference_into(input, &mut out, &mut scratch);
        out
    }

    /// Inference forward pass writing into `out`, ping-ponging hidden
    /// activations through two [`Scratch`] buffers (allocation-free once
    /// the arena is warm).
    pub fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_inference_into(input, out);
            return;
        }
        let mut cur = scratch.take();
        let mut next = scratch.take();
        self.layers[0].forward_inference_into(input, &mut cur);
        self.hidden_activation.forward_inplace(&mut cur);
        for i in 1..n - 1 {
            self.layers[i].forward_inference_into(&cur, &mut next);
            self.hidden_activation.forward_inplace(&mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        self.layers[n - 1].forward_inference_into(&cur, out);
        scratch.put(cur);
        scratch.put(next);
    }

    /// Backward pass from `dL/dy`; accumulates parameter gradients and
    /// returns `dL/dx` (the [`BackwardNeed::FULL`] request, allocating).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward`].
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad_in = Matrix::default();
        let mut scratch = Scratch::new();
        self.backward_into(grad_out, &mut grad_in, &mut scratch);
        grad_in
    }

    /// [`Mlp::backward_need_into`] with the [`BackwardNeed::FULL`]
    /// request: every layer's parameter gradients accumulate and `grad_in`
    /// receives the whole `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward_into`] cached activations.
    pub fn backward_into(
        &mut self,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        self.backward_need_into(grad_out, BackwardNeed::FULL, grad_in, scratch);
    }

    /// The backward pass, computing only what `need` asks for and
    /// ping-ponging the inter-layer gradient through two [`Scratch`]
    /// buffers.
    ///
    /// Hidden layers always propagate their full input gradient (the layer
    /// below needs it) and accumulate `dL/dW`/`dL/db` only under
    /// `need.params`; `need.input` applies to the first layer alone, whose
    /// input is the network's: [`InputGrad::None`] leaves `grad_in`
    /// untouched, [`InputGrad::Columns`] makes it `batch × width`. Every
    /// output a request keeps is bitwise what the full request produces.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Mlp::forward_into`] cached activations,
    /// or if a requested column block does not fit in the input width.
    pub fn backward_need_into(
        &mut self,
        grad_out: &Matrix,
        need: BackwardNeed,
        grad_in: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        let n = self.layers.len();
        assert_eq!(self.activations.len() + 1, n, "Mlp::backward called before forward");
        let hidden = BackwardNeed { params: need.params, input: InputGrad::Full };
        let mut g = scratch.take();
        let mut g2 = scratch.take();
        g.copy_from(grad_out);
        for i in (0..n).rev() {
            if i + 1 < n {
                self.hidden_activation.backward_inplace(&mut g, &self.activations[i]);
            }
            if i == 0 {
                self.layers[0].backward_need_into(&g, need, grad_in);
            } else {
                self.layers[i].backward_need_into(&g, hidden, &mut g2);
                std::mem::swap(&mut g, &mut g2);
            }
        }
        scratch.put(g);
        scratch.put(g2);
    }

    /// Clears accumulated gradients on every layer.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visits every `(parameter slice, gradient slice)` pair in a stable
    /// order; the optimizer relies on this ordering being deterministic.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        for l in &mut self.layers {
            l.visit_params(&mut f);
        }
    }

    /// Visits every parameter slice read-only, in the same stable order as
    /// [`Mlp::visit_params`] (per layer: weights, then bias) — for
    /// checksumming and fingerprinting without mutable access.
    pub fn visit_params_ref(&self, mut f: impl FnMut(&[f32])) {
        for l in &self.layers {
            f(l.weight().as_slice());
            f(l.bias());
        }
    }

    /// Largest absolute parameter value across every layer, or `NaN` as
    /// soon as any weight or bias is non-finite — a cheap health probe for
    /// divergence sentinels (one linear scan, no allocation).
    pub fn max_abs_param(&self) -> f32 {
        let mut m = 0.0f32;
        for l in &self.layers {
            for &x in l.weight().as_slice().iter().chain(l.bias()) {
                if !x.is_finite() {
                    return f32::NAN;
                }
                m = m.max(x.abs());
            }
        }
        m
    }

    /// Polyak-averages parameters toward `source` with rate `tau`.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), source.layers.len(), "network depth mismatch");
        for (t, s) in self.layers.iter_mut().zip(source.layers.iter()) {
            t.soft_update_from(s, tau);
        }
    }

    /// Copies all parameters from `source`.
    pub fn hard_update_from(&mut self, source: &Mlp) {
        self.soft_update_from(source, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn loss_sum(m: &Mlp, x: &Matrix) -> f32 {
        m.forward_inference(x).as_slice().iter().sum()
    }

    #[test]
    fn shapes_flow_through() {
        let mut r = rng::seeded(0);
        let mut net = Mlp::two_layer_relu(10, 4, &mut r);
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 4);
        assert_eq!(net.layer_count(), 3);
        let y = net.forward(&Matrix::zeros(6, 10));
        assert_eq!(y.shape(), (6, 4));
    }

    #[test]
    fn max_abs_param_flags_poisoned_weights() {
        let mut r = rng::seeded(1);
        let mut net = Mlp::new(&[3, 8, 2], Activation::Relu, Init::XavierUniform, &mut r);
        let healthy = net.max_abs_param();
        assert!(healthy.is_finite() && healthy > 0.0);
        // Poison one weight; the probe must report NaN, not mask it.
        let mut poisoned = false;
        net.visit_params(|p, _| {
            if !poisoned {
                p[0] = f32::NAN;
                poisoned = true;
            }
        });
        assert!(net.max_abs_param().is_nan());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut r = rng::seeded(0);
        let net = Mlp::two_layer_relu(10, 4, &mut r);
        // (10*64+64) + (64*64+64) + (64*4+4)
        assert_eq!(net.parameter_count(), 10 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng::seeded(7);
        let mut net = Mlp::new(&[3, 8, 2], Activation::Tanh, Init::XavierUniform, &mut r);
        let mut x = Matrix::zeros(2, 3);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13) as f32 * 0.1).cos();
        }
        net.forward(&x);
        let gin = net.backward(&Matrix::full(2, 2, 1.0));
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss_sum(&net, &xp) - loss_sum(&net, &xm)) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[i]).abs() < 2e-2,
                "i={i} fd={fd} got={}",
                gin.as_slice()[i]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut r = rng::seeded(8);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Init::XavierUniform, &mut r);
        let x = Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.9]]);
        net.zero_grad();
        net.forward(&x);
        net.backward(&Matrix::full(2, 1, 1.0));
        let mut analytic: Vec<f32> = Vec::new();
        net.visit_params(|_, g| analytic.extend_from_slice(g));

        // Finite differences on every parameter.
        let eps = 1e-3f32;
        let mut idx = 0;
        let mut fds = Vec::new();
        // Collect param count first to iterate with perturbation via closure.
        let mut total = 0;
        net.visit_params(|p, _| total += p.len());
        for k in 0..total {
            let perturb = |k: usize, delta: f32, net: &mut Mlp| {
                let mut seen = 0;
                net.visit_params(|p, _| {
                    if k >= seen && k < seen + p.len() {
                        p[k - seen] += delta;
                    }
                    seen += p.len();
                });
            };
            perturb(k, eps, &mut net);
            let lp = loss_sum(&net, &x);
            perturb(k, -2.0 * eps, &mut net);
            let lm = loss_sum(&net, &x);
            perturb(k, eps, &mut net);
            fds.push((lp - lm) / (2.0 * eps));
            idx += 1;
        }
        assert_eq!(idx, analytic.len());
        for (k, (fd, an)) in fds.iter().zip(analytic.iter()).enumerate() {
            assert!((fd - an).abs() < 2e-2, "param {k}: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn visit_params_ref_matches_mutable_visitor_order() {
        let mut r = rng::seeded(3);
        let mut net = Mlp::new(&[3, 8, 2], Activation::Relu, Init::XavierUniform, &mut r);
        let mut via_mut: Vec<f32> = Vec::new();
        net.visit_params(|p, _| via_mut.extend_from_slice(p));
        let mut via_ref: Vec<f32> = Vec::new();
        net.visit_params_ref(|p| via_ref.extend_from_slice(p));
        assert_eq!(via_ref, via_mut);
        assert_eq!(via_ref.len(), net.parameter_count());
    }

    #[test]
    fn hard_update_clones_behaviour() {
        let mut r = rng::seeded(9);
        let src = Mlp::two_layer_relu(4, 2, &mut r);
        let mut dst = Mlp::two_layer_relu(4, 2, &mut r);
        dst.hard_update_from(&src);
        let x = Matrix::full(1, 4, 0.3);
        assert_eq!(src.forward_inference(&x), dst.forward_inference(&x));
    }
}
