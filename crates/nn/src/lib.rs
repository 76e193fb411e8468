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
//! ```
//! use marl_nn::{adam::Adam, matrix::Matrix, mlp::Mlp, rng};
//!
//! let mut rng = rng::seeded(0);
//! let mut actor = Mlp::two_layer_relu(16, 5, &mut rng); // Box(16,) -> 5 actions
//! let mut opt = Adam::with_learning_rate(0.01);
//!
//! let obs = Matrix::zeros(1024, 16); // a mini-batch of observations
//! actor.zero_grad();
//! let logits = actor.forward(&obs);
//! actor.backward(&Matrix::zeros(1024, 5)); // dL/dlogits from the critic
//! opt.step(&mut actor);
//! assert_eq!(logits.shape(), (1024, 5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod adam;
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
pub use kernels::{KernelChoice, KernelKind};
pub use linear::{BackwardNeed, InputGrad, Linear};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use scratch::Scratch;
