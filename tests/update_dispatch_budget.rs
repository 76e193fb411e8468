//! Pins the exact number of kernel dispatches of one
//! `update_all_trainers` and of one rollout episode, so a product nobody
//! reads cannot creep back into either unnoticed: a count is noise-free
//! where a timing is not.
//!
//! One test, its own binary: `kernels::dispatch_tally` is process-global
//! (the reason `alloc_steady_state.rs` is its own binary too).
//!
//! Every network is the paper's `in → 64 → 64 → out` MLP — 3 dense
//! layers, 2 ReLUs — and each of these is one dispatch: a product (`A·B`
//! or `C += Aᵀ·B`), a bias add, a ReLU forward or backward, an Adam step
//! over the network's whole parameter slab. A full layer backward is 2
//! products (`dW` as `C += Aᵀ·B`; `dX` as `A·B` against a transposed
//! weight block, the transpose itself dispatching nothing), params-only 1,
//! input-only 1; hidden layers always propagate `dX`.
//!
//! | pass                                | dispatches                     |
//! |-------------------------------------|--------------------------------|
//! | forward, training or inference      | 3 matmul + 3 bias + 2 ReLU = 8 |
//! | backward, full request              | 2 ReLU + 3·2 products = 8      |
//! | backward `{params: true, None}`     | 2 ReLU + 3 `dW` + 2 `dX` = 7   |
//! | backward `{params: false, Columns}` | 2 ReLU + 3 `dX` = 5            |
//! | Adam step                           | 1 (one slab)                   |
//!
//! Per update of N agents:
//!
//! * shared target actions: N batches × N target actors × 8 = 8N²
//! * per agent, target Q: 8 per target critic
//! * per agent, Q loss: forward 8 + backward 7 + Adam 1 = 16 per critic
//! * per agent, P loss: actor forward 8 + critic forward 8 + critic
//!   backward 5 + actor backward 7 + Adam 1 = 29
//!
//! So MADDPG predator-prey at N = 3 dispatches 72 + 3·(8 + 16 + 29) =
//! 231 per update; MATD3 cooperative navigation at N = 3 dispatches
//! 72 + 3·(2·8 + 2·16 + 29) = 303 on a policy iteration and
//! 72 + 3·(2·8 + 2·16) = 216 on a critic-only one.
//!
//! Soft updates, losses and the Gumbel relaxation dispatch nothing.
//!
//! A rollout step is one batched actor forward per agent over all K
//! worlds, and Gumbel sampling and the env step dispatch nothing, so one
//! episode (no updates) is `max_episode_len × N × 8` at every K.

use marl_repro::algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_repro::nn::kernels;

const N: u64 = 3;
const FORWARD: u64 = 8;
const TARGET_ACTIONS: u64 = FORWARD * N * N;
const TARGET_Q: u64 = FORWARD;
const ADAM: u64 = 1;
const Q_LOSS: u64 = FORWARD + 7 + ADAM;
const P_LOSS: u64 = FORWARD + FORWARD + 5 + 7 + ADAM;

fn trainer(algorithm: Algorithm, task: Task) -> Trainer {
    let cfg = TrainConfig::paper_defaults(algorithm, task, N as usize)
        .with_batch_size(32)
        .with_buffer_capacity(4096)
        .with_update_threads(1)
        .with_seed(5);
    let mut t = Trainer::new(cfg).expect("config is valid");
    t.prefill(256).expect("prefill succeeds");
    t
}

/// Dispatches made by `f`, on whichever path they resolved to.
fn dispatches_of(f: impl FnOnce()) -> u64 {
    let (scalar0, simd0) = kernels::dispatch_tally();
    f();
    let (scalar1, simd1) = kernels::dispatch_tally();
    (scalar1 - scalar0) + (simd1 - simd0)
}

/// Dispatches of the next update.
fn dispatches_of_one_update(t: &mut Trainer) -> u64 {
    dispatches_of(|| t.update_all_trainers().expect("update succeeds"))
}

#[test]
fn update_dispatches_exactly_the_products_it_reads() {
    // MADDPG: one critic, a policy step in every update.
    let mut maddpg = trainer(Algorithm::Maddpg, Task::PredatorPrey);
    let per_agent = TARGET_Q + Q_LOSS + P_LOSS;
    assert_eq!(dispatches_of_one_update(&mut maddpg), TARGET_ACTIONS + N * per_agent);
    assert_eq!(TARGET_ACTIONS + N * per_agent, 231);

    // MATD3: twin critics, the policy step on every `policy_delay`-th
    // update counted from 0.
    let mut matd3 = trainer(Algorithm::Matd3, Task::CooperativeNavigation);
    let critics_only = 2 * TARGET_Q + 2 * Q_LOSS;
    assert_eq!(matd3.update_iterations(), 0);
    assert_eq!(
        dispatches_of_one_update(&mut matd3),
        TARGET_ACTIONS + N * (critics_only + P_LOSS),
        "policy iteration"
    );
    assert_eq!(
        dispatches_of_one_update(&mut matd3),
        TARGET_ACTIONS + N * critics_only,
        "critic-only iteration"
    );
    assert_eq!(
        (TARGET_ACTIONS + N * (critics_only + P_LOSS), TARGET_ACTIONS + N * critics_only),
        (303, 216)
    );

    // Rollout: one batched actor forward per agent per step, whatever the
    // world count — K = 8 costs the dispatches of K = 1.
    for k in [1, 8] {
        let mut cfg =
            TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, N as usize)
                .with_num_envs(k)
                .with_seed(5);
        cfg.warmup = usize::MAX;
        let mut t = Trainer::new(cfg).expect("config is valid");
        let episode = dispatches_of(|| {
            t.run_episode().expect("episode succeeds");
        });
        assert_eq!(episode, cfg.max_episode_len as u64 * N * FORWARD, "K={k} episode");
    }
}
