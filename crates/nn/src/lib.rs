//! # marl-nn
//!
//! Minimal dense neural-network substrate for the MARL systems
//! reproduction: row-major `f32` matrices, fully-connected layers with
//! explicit backpropagation, Adam, losses, and the Gumbel-softmax
//! relaxation used for discrete particle-environment actions.
//!
//! The paper's networks are small ("two-layer ReLU MLP with 64 units per
//! layer"), so a hand-rolled substrate keeps the end-to-end phase structure
//! (action selection, target-Q calculation, Q-loss/P-loss backprop) intact
//! without external tensor dependencies.
//!
//! ## Quickstart
//!
//! One API: every pass writes into caller-owned buffers, and a
//! [`Scratch`] arena holds the temporaries, so a warmed-up loop never
//! touches the heap. A backward pass computes only what its
//! [`BackwardNeed`] asks for.
//!
//! ```
//! use marl_nn::{Adam, BackwardNeed, Matrix, Mlp, Scratch, rng};
//!
//! let mut rng = rng::seeded(0);
//! let mut actor = Mlp::two_layer_relu(16, 5, &mut rng); // Box(16,) -> 5 actions
//! let mut opt = Adam::with_learning_rate(0.01);
//! let (mut logits, mut grad_obs) = (Matrix::default(), Matrix::default());
//! let mut scratch = Scratch::new(); // temporaries, reused across passes
//!
//! let obs = Matrix::zeros(1024, 16); // a mini-batch of observations
//! actor.zero_grad();
//! actor.forward_into(&obs, &mut logits);
//! let grad_logits = Matrix::zeros(1024, 5); // dL/dlogits from the critic
//! actor.backward_need_into(&grad_logits, BackwardNeed::FULL, &mut grad_obs, &mut scratch);
//! opt.step(&mut actor);
//! assert_eq!(logits.shape(), (1024, 5));
//!
//! // Acting: inference on `&self`, caching nothing.
//! actor.forward_inference_into(&obs, &mut logits, &mut scratch);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod adam;
pub mod fp;
pub mod gumbel;
pub mod init;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod rng;
pub mod scratch;

pub use activation::Activation;
pub use adam::{Adam, AdamConfig};
pub use init::Init;
pub use kernels::KernelKind;
pub use linear::{BackwardNeed, InputGrad, Linear};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use scratch::Scratch;
