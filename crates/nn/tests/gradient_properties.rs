//! Property-based verification of the network substrate: analytic
//! gradients must match finite differences for arbitrary small networks
//! and inputs, optimizer/soft-update algebra must hold, and every
//! narrower [`BackwardNeed`] must keep the bits of the full backward pass.

use marl_nn::activation::Activation;
use marl_nn::adam::{Adam, AdamConfig};
use marl_nn::init::Init;
use marl_nn::kernels::{self, KernelKind};
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::rng::seeded;
use marl_nn::scratch::Scratch;
use marl_nn::{BackwardNeed, InputGrad};
use proptest::prelude::*;
use std::sync::Mutex;

/// `L = Σ net(x)`, the scalar the finite-difference checks perturb.
fn loss_sum(net: &Mlp, x: &Matrix) -> f32 {
    let mut out = Matrix::default();
    net.forward_inference_into(x, &mut out, &mut Scratch::new());
    out.as_slice().iter().sum()
}

/// Held by the one test that switches the process-wide kernel, so its
/// bitwise comparisons never straddle a switch. The other tests here
/// compare within tolerances that hold on either kernel.
static KERNEL_SWITCH: Mutex<()> = Mutex::new(());

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every accumulated parameter gradient of `net`, as bits, in slab order.
fn grad_bits(net: &Mlp) -> Vec<u32> {
    bits(net.grads())
}

/// Deterministic values in roughly [-1, 1] with non-representable
/// fractions, so a reordered reduction would change bits.
fn patterned(rows: usize, cols: usize, salt: f32) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        *v = (i as f32 * 0.37 + salt).sin();
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// dL/dx from backprop matches central finite differences for random
    /// architectures, activations, and inputs.
    #[test]
    fn input_gradients_match_finite_differences(
        seed in 0u64..1000,
        input_dim in 1usize..5,
        hidden in 1usize..8,
        batch in 1usize..4,
        activation_pick in 0usize..2,
        scale in 0.1f32..2.0,
    ) {
        let activation = [Activation::Tanh, Activation::Identity][activation_pick];
        let mut rng = seeded(seed);
        let mut net = Mlp::new(&[input_dim, hidden, 2], activation, Init::XavierUniform, &mut rng);
        let mut x = Matrix::zeros(batch, input_dim);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 * 0.7 + seed as f32 * 0.13).sin()) * scale;
        }
        let (mut y, mut analytic, mut scratch) = (Matrix::default(), Matrix::default(), Scratch::new());
        net.forward_into(&x, &mut y);
        net.backward_into(&Matrix::full(batch, 2, 1.0), &mut analytic, &mut scratch);
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss_sum(&net, &xp) - loss_sum(&net, &xm)) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            prop_assert!(
                (fd - got).abs() < 3e-2 * (1.0 + fd.abs()),
                "elem {}: fd={} analytic={}", i, fd, got
            );
        }
    }

    /// Soft update is a convex combination: after `1/tau`-ish steps the
    /// target approaches the source, and tau=1 copies exactly.
    #[test]
    fn soft_update_algebra(seed in 0u64..1000, tau in 0.01f32..1.0) {
        let mut rng = seeded(seed);
        let src = Mlp::two_layer_relu(3, 2, &mut rng);
        let mut dst = Mlp::two_layer_relu(3, 2, &mut rng);
        let x = Matrix::full(1, 3, 0.5);
        let (mut target, mut got, mut scratch) = (Matrix::default(), Matrix::default(), Scratch::new());
        src.forward_inference_into(&x, &mut target, &mut scratch);
        for _ in 0..2000 {
            dst.soft_update_from(&src, tau);
        }
        dst.forward_inference_into(&x, &mut got, &mut scratch);
        for (a, b) in got.as_slice().iter().zip(target.as_slice()) {
            prop_assert!((a - b).abs() < 1e-2, "{} vs {}", a, b);
        }
    }

    /// Adam with a gradient of zero never changes parameters.
    #[test]
    fn adam_fixed_point_at_zero_gradient(seed in 0u64..1000) {
        let mut rng = seeded(seed);
        let mut net = Mlp::two_layer_relu(2, 2, &mut rng);
        let before = net.params().to_vec();
        let mut opt = Adam::new(AdamConfig::default());
        let (mut y, mut grad_in, mut scratch) = (Matrix::default(), Matrix::default(), Scratch::new());
        net.zero_grad();
        net.forward_into(&Matrix::zeros(1, 2), &mut y);
        net.backward_into(&Matrix::zeros(1, 2), &mut grad_in, &mut scratch);
        // hidden grads may be nonzero? backward with zero grad_out yields
        // zero everywhere.
        opt.step(&mut net);
        prop_assert_eq!(before, net.params());
    }

    /// Adam drives a random scalar quadratic toward its minimum.
    #[test]
    fn adam_minimizes_random_quadratic(seed in 0u64..200, target in -2.0f32..2.0) {
        let mut rng = seeded(seed);
        let mut net = Mlp::new(&[1, 1], Activation::Identity, Init::XavierUniform, &mut rng);
        let mut opt = Adam::new(AdamConfig { learning_rate: 0.05, ..AdamConfig::default() });
        let x = Matrix::full(1, 1, 1.0);
        let (mut y, mut grad, mut grad_in, mut scratch) =
            (Matrix::default(), Matrix::default(), Matrix::default(), Scratch::new());
        for _ in 0..400 {
            net.zero_grad();
            net.forward_into(&x, &mut y);
            grad.copy_from(&y);
            grad.as_mut_slice()[0] -= target;
            grad.scale(2.0);
            net.backward_into(&grad, &mut grad_in, &mut scratch);
            opt.step(&mut net);
        }
        let y = loss_sum(&net, &x);
        prop_assert!((y - target).abs() < 0.1, "y={} target={}", y, target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a request keeps is bitwise what the full backward pass
    /// produces on a clone, and whatever it does not ask for is not
    /// touched — for random depths, widths, ReLU and Tanh, on both kernels.
    /// `dX` is the forward kernel against a transposed weight block, so
    /// widths up to 40 pin that kernel's column independence: a column's
    /// bits do not depend on whether it lands in a 16-wide, 8-wide or
    /// masked tail block.
    #[test]
    fn every_request_keeps_the_bits_of_the_full_backward(
        seed in 0u64..10_000,
        sizes in proptest::collection::vec(1usize..41, 2..6),
        batch in 1usize..9,
        relu in any::<bool>(),
        start in 0usize..40,
        width in 1usize..41,
    ) {
        let _guard = KERNEL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let fan_in = sizes[0];
        let width = width.min(fan_in);
        let start = start % (fan_in - width + 1);
        let activation = if relu { Activation::Relu } else { Activation::Tanh };
        let x = patterned(batch, fan_in, seed as f32);
        let grad_out = patterned(batch, *sizes.last().unwrap(), 0.5 + seed as f32);
        let mut scratch = Scratch::new();

        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            let previous = kernels::set_active(kind);
            let mut rng = seeded(seed);
            let mut net = Mlp::new(&sizes, activation, Init::XavierUniform, &mut rng);
            // One full pass first, so the accumulators a request must
            // leave alone hold something other than zero.
            let mut out = Matrix::default();
            net.forward_into(&x, &mut out);
            let mut full_in = Matrix::default();
            net.backward_into(&grad_out, &mut full_in, &mut scratch);
            let before = grad_bits(&net);

            let mut full = net.clone();
            full.backward_into(&grad_out, &mut full_in, &mut scratch);
            let full_grads = grad_bits(&full);
            prop_assert_ne!(&full_grads, &before);

            // Parameters only: the gradients of the full pass, and a
            // destination nobody wrote to.
            let sentinel = patterned(2, 3, 9.0);
            let mut untouched = sentinel.clone();
            let mut params_only = net.clone();
            let need = BackwardNeed { params: true, input: InputGrad::None };
            params_only.backward_need_into(&grad_out, need, &mut untouched, &mut scratch);
            prop_assert_eq!(&grad_bits(&params_only), &full_grads);
            prop_assert_eq!(untouched.shape(), sentinel.shape());
            prop_assert_eq!(bits(untouched.as_slice()), bits(sentinel.as_slice()));

            // A column block without parameters: those columns of the full
            // input gradient, every accumulator bit as it was.
            let mut block = Matrix::default();
            let mut columns_only = net.clone();
            let need = BackwardNeed { params: false, input: InputGrad::Columns { start, width } };
            columns_only.backward_need_into(&grad_out, need, &mut block, &mut scratch);
            prop_assert_eq!(&grad_bits(&columns_only), &before);
            prop_assert_eq!(block.shape(), (batch, width));
            for r in 0..batch {
                prop_assert_eq!(
                    bits(block.row(r)),
                    bits(&full_in.row(r)[start..start + width]),
                    "{:?} row {} columns {}..{} of {:?}", kind, r, start, start + width, sizes
                );
            }

            // Every column is the full request.
            let mut all_in = Matrix::default();
            let mut all_columns = net.clone();
            let need =
                BackwardNeed { params: true, input: InputGrad::Columns { start: 0, width: fan_in } };
            all_columns.backward_need_into(&grad_out, need, &mut all_in, &mut scratch);
            prop_assert_eq!(&grad_bits(&all_columns), &full_grads);
            prop_assert_eq!(all_in.shape(), full_in.shape());
            prop_assert_eq!(bits(all_in.as_slice()), bits(full_in.as_slice()));

            kernels::set_active(previous);
        }
    }
}

#[test]
#[should_panic(expected = "exceeds the layer's fan_in 5")]
fn out_of_range_column_block_names_the_fan_in() {
    let mut rng = seeded(0);
    let mut net = Mlp::new(&[5, 4, 1], Activation::Relu, Init::XavierUniform, &mut rng);
    let mut out = Matrix::default();
    net.forward_into(&Matrix::zeros(2, 5), &mut out);
    let need = BackwardNeed { params: false, input: InputGrad::Columns { start: 3, width: 3 } };
    net.backward_need_into(&Matrix::zeros(2, 1), need, &mut out, &mut Scratch::new());
}
