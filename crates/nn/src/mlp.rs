//! Multi-layer perceptron over one parameter slab, with explicit
//! backpropagation.

use crate::activation::Activation;
use crate::init::Init;
use crate::kernels;
use crate::matrix::Matrix;
use crate::record::{self, Reader};
use crate::scratch::Scratch;
use crate::slab::Slab;
use rand::Rng;
use serde::Serialize;
use std::ops::Range;

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
    /// Accumulate `dL/dW` and `dL/db` into the gradient slab.
    pub params: bool,
    /// Which part of `dL/dx` to write.
    pub input: InputGrad,
}

impl BackwardNeed {
    /// Parameter gradients and the whole input gradient — what
    /// [`Mlp::backward_into`] passes.
    pub const FULL: BackwardNeed = BackwardNeed { params: true, input: InputGrad::Full };
}

/// The magnitude bits of `+∞`: every NaN's lie above, every finite
/// value's below.
const NON_FINITE_BITS: u32 = 0x7F80_0000;

/// The largest magnitude bits `x.to_bits() & 0x7FFF_FFFF` over `xs`, `0`
/// for an empty slice.
///
/// The masked bits of an `f32` order like `|x|` (sign cleared, then
/// exponent before mantissa), with `±0` at `0`, subnormals next, and
/// every `±∞` and NaN at or above `0x7F80_0000`. So one integer
/// maximum answers both "is anything non-finite?" and "how large is the
/// largest finite magnitude?". The fold keeps sixteen independent lanes
/// and no branch, which the compiler turns into whole-register integer
/// maxima (signed `i32`: the masked bits fit, and SSE2 compares signed
/// lanes only).
pub fn max_abs_bits(xs: &[f32]) -> u32 {
    const LANES: usize = 16;
    let abs_bits = |x: f32| (x.to_bits() & 0x7FFF_FFFF) as i32;
    let chunks = xs.chunks_exact(LANES);
    let tail = chunks.remainder().iter().fold(0, |m, &x| m.max(abs_bits(x)));
    let lanes = chunks.fold([0i32; LANES], |mut acc, c| {
        for (m, &x) in acc.iter_mut().zip(c) {
            *m = (*m).max(abs_bits(x));
        }
        acc
    });
    lanes.into_iter().fold(tail, i32::max) as u32
}

/// A feed-forward network: dense layers `y = x · W + b`, hidden layers
/// followed by a shared activation, the output layer linear.
///
/// The network is its layer widths `[in, h1, …, out]` and one parameter
/// slab laid out `[W0|b0|W1|b1|…]`, each `W` row-major `fan_in × fan_out`.
/// Parameter gradients accumulate in a second slab of the same layout
/// until [`Mlp::zero_grad`] clears it (the usual
/// `zero_grad → forward → backward → step` loop), so every whole-network
/// operation — an Adam step, a Polyak update, a copy onto the wire — is
/// one pass over one slice.
///
/// The paper parameterizes actors and critics as "two-layer ReLU MLPs with
/// 64 units per layer"; [`Mlp::two_layer_relu`] builds exactly that.
///
/// # Examples
///
/// ```
/// use marl_nn::{mlp::Mlp, matrix::Matrix, rng, scratch::Scratch};
/// let mut rng = rng::seeded(0);
/// let net = Mlp::two_layer_relu(8, 5, &mut rng);
/// assert_eq!(net.widths(), [8, 64, 64, 5]);
/// let (mut out, mut scratch) = (Matrix::default(), Scratch::new());
/// net.forward_inference_into(&Matrix::zeros(3, 8), &mut out, &mut scratch);
/// assert_eq!(out.shape(), (3, 5));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    hidden_activation: Activation,
    widths: Vec<usize>,
    params: Slab,
    /// Not state: every parameter backward follows a `zero_grad`, so a
    /// network read from a record starts without one and sizes it on
    /// first use.
    #[serde(skip)]
    grads: Slab,
    /// Layer 0's input of the last training forward; hidden layers read
    /// `activations` instead.
    #[serde(skip)]
    input: Option<Matrix>,
    /// Each hidden layer's activated output of the last training forward.
    #[serde(skip)]
    activations: Vec<Matrix>,
    /// `W[s..s+w, :]ᵀ` of the last input-gradient product, reused.
    #[serde(skip)]
    weight_block_t: Matrix,
}

/// Layer `i`'s view into the slabs: `fan_in × fan_out` weights from
/// `offset`, then `fan_out` biases.
#[derive(Clone, Copy)]
struct Layer {
    offset: usize,
    fan_in: usize,
    fan_out: usize,
}

impl Layer {
    fn nth(widths: &[usize], i: usize) -> Layer {
        let offset = widths[..=i].windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        Layer { offset, fan_in: widths[i], fan_out: widths[i + 1] }
    }

    fn weights(self) -> Range<usize> {
        self.offset..self.offset + self.fan_in * self.fan_out
    }

    fn bias(self) -> Range<usize> {
        let start = self.weights().end;
        start..start + self.fan_out
    }

    /// `out = input · W + b`, reusing `out`'s storage.
    fn forward(self, params: &[f32], input: &Matrix, out: &mut Matrix) {
        out.resize(input.rows(), self.fan_out);
        let (a, w, c) = (input.as_slice(), &params[self.weights()], out.as_mut_slice());
        kernels::matmul(a, w, c, input.rows(), self.fan_in, self.fan_out);
        kernels::add_bias(c, &params[self.bias()]);
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, 64, 64, out]`:
    /// each layer's weights drawn from `init` in layer order, every bias
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(
        widths: &[usize],
        hidden_activation: Activation,
        init: Init,
        rng: &mut R,
    ) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output sizes");
        let mut params = vec![0.0; widths.windows(2).map(|w| w[0] * w[1] + w[1]).sum()];
        for i in 0..widths.len() - 1 {
            let l = Layer::nth(widths, i);
            init.fill(l.fan_in, l.fan_out, &mut params[l.weights()], rng);
        }
        Mlp {
            hidden_activation,
            widths: widths.to_vec(),
            grads: Slab(vec![0.0; params.len()]),
            params: Slab(params),
            input: None,
            activations: Vec::new(),
            weight_block_t: Matrix::default(),
        }
    }

    /// The paper's default architecture: `input → 64 → 64 → output` with
    /// ReLU hidden activations and He initialization.
    pub fn two_layer_relu<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        Mlp::new(&[input, 64, 64, output], Activation::Relu, Init::HeUniform, rng)
    }

    /// Layer widths `[in, h1, …, out]`.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.widths.first().copied().unwrap_or(0)
    }

    /// Output feature count.
    pub fn output_dim(&self) -> usize {
        self.widths.last().copied().unwrap_or(0)
    }

    /// Total trainable scalar count.
    pub fn parameter_count(&self) -> usize {
        self.params.len()
    }

    /// The parameter slab, `[W0|b0|W1|b1|…]`.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The parameter slab, writable.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The gradient slab, in the parameters' layout (empty on a decoded
    /// network until its first [`Mlp::zero_grad`] or backward pass).
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// The widths, the parameter slab and the gradient slab (sized on
    /// first use) — what an optimizer step reads and writes.
    pub(crate) fn slabs(&mut self) -> (&[usize], &mut [f32], &[f32]) {
        self.size_grads();
        (&self.widths, &mut self.params, &self.grads)
    }

    fn size_grads(&mut self) {
        if self.grads.len() != self.params.len() {
            self.grads = Slab(vec![0.0; self.params.len()]);
        }
    }

    /// Training forward pass writing the output into `out`. Layer 0's
    /// input and every hidden activation are cached into persistent
    /// buffers (reused across calls) for the backward pass, so the steady
    /// state performs zero heap allocations.
    pub fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let n = self.widths.len() - 1;
        if self.activations.len() != n - 1 {
            self.activations.resize_with(n - 1, Matrix::default);
        }
        self.input.get_or_insert_with(Matrix::default).copy_from(input);
        let Mlp { widths, params, hidden_activation, activations, .. } = self;
        for i in 0..n {
            let (done, rest) = activations.split_at_mut(i);
            let (x, dst) = (
                if i == 0 { input } else { &done[i - 1] },
                if i + 1 == n { &mut *out } else { &mut rest[0] },
            );
            Layer::nth(widths, i).forward(params, x, dst);
            if i + 1 < n {
                hidden_activation.forward_inplace(dst);
            }
        }
    }

    /// Inference forward pass on `&self` writing into `out`, ping-ponging
    /// hidden activations through two [`Scratch`] buffers (allocation-free
    /// once the arena is warm). Caches nothing, and each output row
    /// depends only on its own input row.
    pub fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix, scratch: &mut Scratch) {
        let n = self.widths.len() - 1;
        let (mut cur, mut next) = (scratch.take(), scratch.take());
        for i in 0..n {
            let (x, dst) =
                (if i == 0 { input } else { &cur }, if i + 1 == n { &mut *out } else { &mut next });
            Layer::nth(&self.widths, i).forward(&self.params, x, dst);
            if i + 1 < n {
                self.hidden_activation.forward_inplace(dst);
                std::mem::swap(&mut cur, &mut next);
            }
        }
        scratch.put(cur);
        scratch.put(next);
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
    /// Under `need.params` each layer's `dL/dW` accumulates into the
    /// gradient slab through the fused [`kernels::transpose_matmul_acc`]
    /// (no temporary product) and `dL/db` sums straight into it; without
    /// it the slab is left exactly as it was. Hidden layers always
    /// propagate their full input gradient (the layer below needs it);
    /// `need.input` applies to the first layer alone, whose input is the
    /// network's: [`InputGrad::None`] leaves `grad_in` untouched,
    /// [`InputGrad::Columns`] makes it `batch × width`. `W` is stored
    /// `fan_in × fan_out`, so a column block of `dL/dx` is
    /// `G · W[s..s+w, :]ᵀ`: the row block is transposed into a reused
    /// buffer and multiplied with the forward kernel, whose elements
    /// depend only on their own row and column. So every output a request
    /// keeps is bitwise what the full request produces.
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
        if need.params {
            self.size_grads();
        }
        let n = self.widths.len() - 1;
        let Mlp { widths, params, grads, hidden_activation, input, activations, weight_block_t } =
            self;
        let input = input.as_ref().expect("Mlp backward called before forward");
        let mut g = scratch.take();
        let mut g2 = scratch.take();
        g.copy_from(grad_out);
        for i in (0..n).rev() {
            if i + 1 < n {
                hidden_activation.backward_inplace(&mut g, &activations[i]);
            }
            let (l, x) = (Layer::nth(widths, i), if i == 0 { input } else { &activations[i - 1] });
            let rows = g.rows();
            assert_eq!(rows, x.rows(), "backward batch mismatch");
            if need.params {
                let dw = &mut grads[l.weights()];
                kernels::transpose_matmul_acc(
                    x.as_slice(),
                    g.as_slice(),
                    dw,
                    rows,
                    l.fan_in,
                    l.fan_out,
                );
                let db = &mut grads[l.bias()];
                for r in 0..rows {
                    db.iter_mut().zip(g.row(r)).for_each(|(b, &d)| *b += d);
                }
            }
            let (start, width) = match (i, need.input) {
                (0, InputGrad::None) => break,
                (0, InputGrad::Columns { start, width }) => (start, width),
                _ => (0, l.fan_in),
            };
            assert!(
                start.checked_add(width).is_some_and(|end| end <= l.fan_in),
                "input-gradient column block (start {start}, width {width}) exceeds the layer's fan_in {}",
                l.fan_in
            );
            let block = &params[l.weights()][start * l.fan_out..(start + width) * l.fan_out];
            crate::matrix::transpose_into(block, width, l.fan_out, weight_block_t);
            g.matmul_into(weight_block_t, if i == 0 { &mut *grad_in } else { &mut g2 });
            std::mem::swap(&mut g, &mut g2);
        }
        scratch.put(g);
        scratch.put(g2);
    }

    /// Appends this network's record: its hidden activation as one byte,
    /// then its widths and slab in the [`crate::record`] layout. The
    /// gradient slab is not state and is not written.
    pub fn write_record(&self, out: &mut Vec<u8>) {
        out.push(self.hidden_activation.to_byte());
        record::write_net(out, self.widths.windows(2).map(|w| (w[0], w[1])), &self.params);
    }

    /// Reads a record [`Mlp::write_record`] wrote. The network comes back
    /// bit for bit, without a gradient slab (sized on first use).
    ///
    /// # Errors
    ///
    /// An unknown activation byte, a layer whose inputs are not the
    /// previous layer's outputs, a count the bytes do not back, or a
    /// network [`Mlp::validate`] refuses. Nothing is allocated for a
    /// record that does not fit the bytes.
    pub fn read_record(r: &mut Reader<'_>) -> Result<Mlp, String> {
        let mut body = r.clone();
        let (hidden_activation, layers, parameters) = Mlp::scan_record(r)?;
        body.u8()?;
        let mut widths = Vec::with_capacity(layers + 1);
        let mut params = Vec::with_capacity(parameters);
        record::read_net(&mut body, |rows, cols, values| {
            if widths.is_empty() {
                widths.push(rows as usize);
            }
            widths.push(cols as usize);
            record::extend_f32s(&mut params, values);
            Ok(())
        })?;
        let net = Mlp {
            hidden_activation,
            widths,
            params: Slab(params),
            grads: Slab::default(),
            input: None,
            activations: Vec::new(),
            weight_block_t: Matrix::default(),
        };
        net.validate()?;
        Ok(net)
    }

    /// Moves `r` past one network record, checking it as
    /// [`Mlp::read_record`] does but copying nothing. Returns the
    /// network's parameter count.
    ///
    /// # Errors
    ///
    /// As [`Mlp::read_record`], except that a record of no layers is
    /// accepted.
    pub fn skip_record(r: &mut Reader<'_>) -> Result<usize, String> {
        Mlp::scan_record(r).map(|(_, _, parameters)| parameters)
    }

    /// The activation, layer count and parameter count of the record at
    /// `r`, which moves past it; each layer must take the previous one's
    /// outputs.
    fn scan_record(r: &mut Reader<'_>) -> Result<(Activation, usize, usize), String> {
        let activation = Activation::from_byte(r.u8()?)?;
        let (mut outputs, mut parameters) = (None, 0usize);
        let layers = record::read_net(r, |rows, cols, values| {
            match outputs {
                Some(prev) if prev != rows => {
                    return Err(format!("a layer takes {rows} inputs after a layer of {prev}"));
                }
                _ => outputs = Some(cols),
            }
            parameters += values.len() / 4;
            Ok(())
        })?;
        Ok((activation, layers as usize, parameters))
    }

    /// Checks the invariants a network built from outside bytes can
    /// break: at least two widths, and exactly `Σ (wᵢ·wᵢ₊₁ + wᵢ₊₁)`
    /// parameters. [`Mlp::read_record`] runs this before a network can
    /// reach the kernels, whose loops trust those sizes.
    ///
    /// # Errors
    ///
    /// A message naming what does not fit.
    pub fn validate(&self) -> Result<(), String> {
        let widths = &self.widths;
        if widths.len() < 2 {
            return Err(format!("{} widths, a network needs at least 2", widths.len()));
        }
        let want = widths
            .windows(2)
            .try_fold(0usize, |n, w| w[0].checked_mul(w[1])?.checked_add(w[1])?.checked_add(n))
            .ok_or_else(|| format!("widths {widths:?} overflow"))?;
        match self.params.len() {
            len if len == want => Ok(()),
            len => Err(format!("params hold {len} values, widths {widths:?} need {want}")),
        }
    }

    /// Whether `other` has the same hidden activation and widths.
    pub fn same_shape(&self, other: &Mlp) -> bool {
        self.hidden_activation == other.hidden_activation && self.widths == other.widths
    }

    /// Clears accumulated gradients to `+0.0` (a fill, not a scale: a
    /// NaN/Inf accumulator would survive multiplication by zero).
    pub fn zero_grad(&mut self) {
        self.size_grads();
        self.grads.fill(0.0);
    }

    /// Largest absolute parameter value (`+0.0` for an all-zero slab), or
    /// `NaN` when any weight or bias is non-finite — the health probe the
    /// divergence sentinel runs on every network after every update.
    ///
    /// One branch-free pass of [`max_abs_bits`] over the slab, at memory
    /// speed, with no allocation: every non-finite value's magnitude bits
    /// lie above every finite value's, so the slab holds a NaN or an
    /// infinity exactly when the maximum is at least `0x7F80_0000`.
    pub fn max_abs_param(&self) -> f32 {
        match max_abs_bits(&self.params) {
            bits if bits < NON_FINITE_BITS => f32::from_bits(bits),
            _ => f32::NAN,
        }
    }

    /// Polyak-averages parameters toward `source` with rate `tau`:
    /// `θ ← τ·θ_src + (1−τ)·θ`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f32) {
        assert_eq!(self.widths, source.widths, "soft update shape mismatch");
        for (t, s) in self.params.iter_mut().zip(source.params.iter()) {
            *t = tau * s + (1.0 - tau) * *t;
        }
    }

    /// Copies every parameter verbatim from `source`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn hard_update_from(&mut self, source: &Mlp) {
        assert_eq!(self.widths, source.widths, "hard update shape mismatch");
        self.params.copy_from_slice(&source.params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn loss_sum(m: &Mlp, x: &Matrix) -> f32 {
        let mut out = Matrix::default();
        m.forward_inference_into(x, &mut out, &mut Scratch::new());
        out.as_slice().iter().sum()
    }

    #[test]
    fn shapes_flow_through() {
        let mut r = rng::seeded(0);
        let mut net = Mlp::two_layer_relu(10, 4, &mut r);
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 4);
        assert_eq!(net.widths(), [10, 64, 64, 4]);
        let mut y = Matrix::default();
        net.forward_into(&Matrix::zeros(6, 10), &mut y);
        assert_eq!(y.shape(), (6, 4));
    }

    /// The scan `Mlp::max_abs_param` ran before the bits fold: the
    /// reference oracle of the equivalence properties below.
    fn max_abs_reference(params: &[f32]) -> f32 {
        let max = params.iter().try_fold(0.0f32, |m, &x| x.is_finite().then(|| m.max(x.abs())));
        max.unwrap_or(f32::NAN)
    }

    /// One slab value from a `(kind, payload)` draw: at density `rate`
    /// (0 next to never … 3 one in four) a special value — `±0`, a subnormal,
    /// `±f32::MAX`, `±∞` or a NaN of either sign with a random payload —
    /// else a finite value of any exponent.
    fn slab_value(rate: u32, (kind, bits): (u32, u32)) -> f32 {
        let every = [u32::MAX, 512, 32, 4][rate as usize];
        let sign = bits & 0x8000_0000;
        if (kind >> 3) % every != 0 {
            // Any finite value: an all-ones exponent loses its low bit.
            let finite = if bits & 0x7F80_0000 == 0x7F80_0000 { bits ^ 0x0080_0000 } else { bits };
            return f32::from_bits(finite);
        }
        f32::from_bits(match kind & 7 {
            0 => sign,
            1 => sign | (bits & 0x007F_FFFF),
            2 => sign | f32::MAX.to_bits(),
            3 => sign | 0x7F80_0000,
            _ => 0x7F80_0000 | bits | u32::from(bits & 0x007F_FFFF == 0),
        })
    }

    fn slab(rate: u32, draws: &[(u32, u32)]) -> Vec<f32> {
        draws.iter().map(|&d| slab_value(rate, d)).collect()
    }

    /// A network whose slab is exactly `params` (`[len - 1, 1]` widths).
    fn net_holding(params: &[f32]) -> Mlp {
        let mut net =
            Mlp::new(&[params.len() - 1, 1], Activation::Relu, Init::Zeros, &mut rng::seeded(0));
        net.params_mut().copy_from_slice(params);
        net
    }

    fn assert_scan_matches(params: &[f32]) -> Result<(), TestCaseError> {
        let masked = params.iter().map(|x| x.to_bits() & 0x7FFF_FFFF).max().unwrap_or(0);
        prop_assert_eq!(max_abs_bits(params), masked);
        if !params.is_empty() {
            let got = net_holding(params).max_abs_param();
            prop_assert_eq!(got.to_bits(), max_abs_reference(params).to_bits(), "{params:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Lengths 0..=40 cross every tail of the 16-lane fold.
        #[test]
        fn max_abs_param_equals_the_fold_on_short_slabs(
            rate in 0u32..4,
            draws in prop::collection::vec((any::<u32>(), any::<u32>()), 0..41),
        ) {
            assert_scan_matches(&slab(rate, &draws))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn max_abs_param_equals_the_fold_on_long_slabs(
            rate in 0u32..4,
            draws in prop::collection::vec((any::<u32>(), any::<u32>()), 2000..5000),
        ) {
            assert_scan_matches(&slab(rate, &draws))?;
        }
    }

    #[test]
    fn max_abs_param_edges() {
        assert_eq!(max_abs_bits(&[]), 0);
        assert_eq!(net_holding(&[-0.0, 0.0]).max_abs_param().to_bits(), 0);
        assert_eq!(net_holding(&[1.0, -f32::MAX]).max_abs_param(), f32::MAX);
        let inf = net_holding(&[1.0, f32::NEG_INFINITY]).max_abs_param();
        assert_eq!(inf.to_bits(), f32::NAN.to_bits(), "an infinity reports the canonical NaN");
        let nan = net_holding(&[f32::from_bits(0xFFC0_0001), 2.0]).max_abs_param();
        assert_eq!(nan.to_bits(), f32::NAN.to_bits(), "so does a NaN of any sign and payload");
    }

    #[test]
    fn max_abs_param_flags_poisoned_weights() {
        let mut r = rng::seeded(1);
        let mut net = Mlp::new(&[3, 8, 2], Activation::Relu, Init::XavierUniform, &mut r);
        let healthy = net.max_abs_param();
        assert!(healthy.is_finite() && healthy > 0.0);
        // Poison one weight; the probe must report NaN, not mask it.
        net.params_mut()[0] = f32::NAN;
        assert!(net.max_abs_param().is_nan());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut r = rng::seeded(0);
        let net = Mlp::two_layer_relu(10, 4, &mut r);
        // (10*64+64) + (64*64+64) + (64*4+4)
        assert_eq!(net.parameter_count(), 10 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4);
    }

    /// The slab is `[W0|b0|W1|b1|…]`: each layer's weights drawn in layer
    /// order, each bias zero.
    #[test]
    fn slab_layout_is_weights_then_bias_per_layer() {
        let net = Mlp::new(&[3, 4, 2], Activation::Relu, Init::XavierUniform, &mut rng::seeded(4));
        let mut r = rng::seeded(4);
        let (mut w0, mut w1) = ([0.0; 12], [0.0; 8]);
        Init::XavierUniform.fill(3, 4, &mut w0, &mut r);
        Init::XavierUniform.fill(4, 2, &mut w1, &mut r);
        let p = net.params();
        assert_eq!(p[..12], w0);
        assert_eq!(p[12..16], [0.0; 4]);
        assert_eq!(p[16..24], w1);
        assert_eq!(&p[24..], [0.0; 2]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng::seeded(7);
        let mut net = Mlp::new(&[3, 8, 2], Activation::Tanh, Init::XavierUniform, &mut r);
        let mut x = Matrix::zeros(2, 3);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13) as f32 * 0.1).cos();
        }
        let (mut y, mut gin) = (Matrix::default(), Matrix::default());
        net.forward_into(&x, &mut y);
        net.backward_into(&Matrix::full(2, 2, 1.0), &mut gin, &mut Scratch::new());
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
        let (mut y, mut gin) = (Matrix::default(), Matrix::default());
        net.forward_into(&x, &mut y);
        net.backward_into(&Matrix::full(2, 1, 1.0), &mut gin, &mut Scratch::new());
        let analytic = net.grads().to_vec();
        assert_eq!(analytic.len(), net.parameter_count());
        let eps = 1e-3f32;
        for (k, an) in analytic.iter().enumerate() {
            net.params_mut()[k] += eps;
            let lp = loss_sum(&net, &x);
            net.params_mut()[k] -= 2.0 * eps;
            let lm = loss_sum(&net, &x);
            net.params_mut()[k] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - an).abs() < 2e-2, "param {k}: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn bias_grads_sum_the_batch_and_accumulate_until_zeroed() {
        let mut net =
            Mlp::new(&[2, 2], Activation::Identity, Init::XavierUniform, &mut rng::seeded(2));
        let (x, g) = (Matrix::full(2, 2, 1.0), Matrix::full(2, 2, 1.0));
        let (mut y, mut gin) = (Matrix::default(), Matrix::default());
        for _ in 0..2 {
            net.forward_into(&x, &mut y);
            net.backward_into(&g, &mut gin, &mut Scratch::new());
        }
        assert_eq!(net.grads()[4..], [4.0, 4.0]);
        net.zero_grad();
        assert_eq!(net.grads(), [0.0; 6]);
    }

    #[test]
    fn zero_grad_clears_a_poisoned_accumulator() {
        let mut net =
            Mlp::new(&[2, 3], Activation::Identity, Init::XavierUniform, &mut rng::seeded(5));
        // NaN·0 and Inf·0 are NaN and −x·0 is −0.0: only a fill clears them.
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0, -0.0, 1.0];
        net.grads.copy_from_slice(&[poison.as_slice(), &poison[..3]].concat());
        net.zero_grad();
        for (i, g) in net.grads().iter().enumerate() {
            assert_eq!(g.to_bits(), 0, "gradient {i} is {g:?}, not +0.0");
        }
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut r = rng::seeded(3);
        let src = Mlp::new(&[2, 2], Activation::Identity, Init::XavierUniform, &mut r);
        let mut dst = Mlp::new(&[2, 2], Activation::Identity, Init::Zeros, &mut r);
        dst.soft_update_from(&src, 0.5);
        for (d, s) in dst.params().iter().zip(src.params()) {
            assert!((d - 0.5 * s).abs() < 1e-6);
        }
    }

    /// A hard update is a copy: `−0.0` stays `−0.0` and a NaN already in
    /// the target is overwritten (`1·s + 0·t` kept neither).
    #[test]
    fn hard_update_copies_verbatim() {
        let mut r = rng::seeded(9);
        let mut src = Mlp::two_layer_relu(4, 2, &mut r);
        let mut dst = Mlp::two_layer_relu(4, 2, &mut r);
        src.params_mut()[0] = -0.0;
        dst.params_mut()[0] = f32::NAN;
        dst.params_mut()[1] = f32::INFINITY;
        dst.hard_update_from(&src);
        let bits = |net: &Mlp| net.params().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst), bits(&src));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut net = Mlp::new(&[2, 2], Activation::Identity, Init::Zeros, &mut rng::seeded(4));
        let need = BackwardNeed::FULL;
        net.backward_need_into(
            &Matrix::zeros(1, 2),
            need,
            &mut Matrix::default(),
            &mut Scratch::new(),
        );
    }

    #[test]
    fn validate_and_same_shape_see_every_width() {
        let mut r = rng::seeded(10);
        let net = Mlp::new(&[3, 8, 2], Activation::Relu, Init::XavierUniform, &mut r);
        assert_eq!(net.validate(), Ok(()));
        assert!(net.same_shape(&net.clone()));
        let wider = Mlp::new(&[3, 9, 2], Activation::Relu, Init::XavierUniform, &mut r);
        assert!(!net.same_shape(&wider));
        let tanh = Mlp::new(&[3, 8, 2], Activation::Tanh, Init::XavierUniform, &mut r);
        assert!(!net.same_shape(&tanh));
    }

    #[test]
    fn validate_names_a_slab_that_does_not_fit_its_widths() {
        let net = Mlp::new(&[3, 8, 2], Activation::Relu, Init::XavierUniform, &mut rng::seeded(6));
        let with = |widths: Vec<usize>, extra: isize| {
            let mut bad = net.clone();
            bad.widths = widths;
            let len = bad.params.len().checked_add_signed(extra).unwrap();
            bad.params.resize(len, 0.0);
            bad.validate()
        };
        assert_eq!(with(vec![3], 0), Err("1 widths, a network needs at least 2".into()));
        assert_eq!(with(vec![], 0), Err("0 widths, a network needs at least 2".into()));
        assert_eq!(
            with(vec![3, 8, 2], -1),
            Err("params hold 49 values, widths [3, 8, 2] need 50".into())
        );
        assert_eq!(
            with(vec![3, 8, 2], 1),
            Err("params hold 51 values, widths [3, 8, 2] need 50".into())
        );
        let huge = vec![3, usize::MAX / 2, 4];
        assert_eq!(with(huge.clone(), 0), Err(format!("widths {huge:?} overflow")));
    }

    /// The record is the activation, the widths and the parameter bits:
    /// NaN payloads, infinities, −0.0 and subnormals come back bit for
    /// bit, and the gradient slab is not carried.
    #[test]
    fn record_round_trip_is_bitwise() {
        let mut net =
            Mlp::new(&[3, 4, 2], Activation::Tanh, Init::XavierUniform, &mut rng::seeded(11));
        let awkward =
            [0x7FC0_1234, 0xFFA5_5AA5, 0x8000_0000, 0x0000_0001, 0x807F_FFFF, 0x7F80_0000];
        for (p, bits) in net.params_mut().iter_mut().zip(awkward) {
            *p = f32::from_bits(bits);
        }
        net.grads[0] = 1.0;
        let mut bytes = Vec::new();
        net.write_record(&mut bytes);
        // Activation, 2 layers, (3, 4), 16 floats, (4, 2), 10 floats.
        assert_eq!(bytes.len(), 1 + 4 + 2 * 8 + 4 * net.parameter_count());
        assert_eq!(bytes[..13], [1, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0]);
        let mut r = Reader::new(&bytes);
        let back = Mlp::read_record(&mut r).unwrap();
        r.finish().unwrap();
        let bits = |net: &Mlp| net.params().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&net));
        assert!(back.same_shape(&net) && back.grads().is_empty());
        assert_eq!(Mlp::skip_record(&mut Reader::new(&bytes)), Ok(net.parameter_count()));
    }

    /// Every way a record can fail to be a network is an error, and each
    /// shorter prefix of a good record is refused.
    #[test]
    fn malformed_records_are_refused() {
        let net = Mlp::new(&[3, 4, 2], Activation::Relu, Init::XavierUniform, &mut rng::seeded(1));
        let mut good = Vec::new();
        net.write_record(&mut good);
        for cut in 0..good.len() {
            assert!(Mlp::read_record(&mut Reader::new(&good[..cut])).is_err(), "cut {cut}");
        }
        let with = |at: usize, byte: u8| {
            let mut bad = good.clone();
            bad[at] = byte;
            Mlp::read_record(&mut Reader::new(&bad)).map(|_| ())
        };
        assert_eq!(with(0, 3), Err("unknown activation byte 3".into()));
        // A layer of 5 inputs after a layer of 4 outputs, every count backed.
        let mut unchained = vec![0u8];
        for word in [2u32, 3, 4].into_iter().chain([0; 16]).chain([5, 2]).chain([0; 12]) {
            unchained.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(
            Mlp::read_record(&mut Reader::new(&unchained)).map(|_| ()),
            Err("a layer takes 5 inputs after a layer of 4".into())
        );
        // A record of no layers is no network.
        let empty = [0u8, 0, 0, 0, 0];
        let refused = Mlp::read_record(&mut Reader::new(&empty)).map(|_| ());
        assert_eq!(refused, Err("0 widths, a network needs at least 2".into()));
        // A hostile count is refused before anything is allocated for it.
        let huge = [0u8, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(Mlp::read_record(&mut Reader::new(&huge)).is_err());
    }
}
