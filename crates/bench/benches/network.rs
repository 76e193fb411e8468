//! Criterion benchmarks of the network substrate at the paper's
//! dimensions: actor and centralized-critic forward/backward passes, and
//! the scaling of the critic input with agent count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::rng::seeded;
use marl_nn::scratch::Scratch;

fn bench_actor(c: &mut Criterion) {
    let mut rng = seeded(0);
    let mut group = c.benchmark_group("network/actor-forward");
    for (label, obs_dim, batch) in
        [("act-select-1", 16usize, 1usize), ("batch-256", 16, 256), ("batch-1024", 16, 1024)]
    {
        let mut actor = Mlp::two_layer_relu(obs_dim, 5, &mut rng);
        let x = Matrix::zeros(batch, obs_dim);
        let mut logits = Matrix::default();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                actor.forward_into(&x, &mut logits);
                std::hint::black_box(&logits);
            })
        });
    }
    group.finish();
}

fn bench_critic_scaling(c: &mut Criterion) {
    let mut rng = seeded(1);
    let mut group = c.benchmark_group("network/critic-joint-dim");
    group.sample_size(20);
    // Joint input grows with N: N agents × (obs + 5 one-hot action).
    for agents in [3usize, 6, 12, 24] {
        let obs = match agents {
            3 => 16,
            6 => 26,
            12 => 50,
            _ => 98,
        };
        let joint = agents * (obs + 5);
        let mut critic = Mlp::two_layer_relu(joint, 1, &mut rng);
        let x = Matrix::zeros(256, joint);
        let (mut q, mut grad_x, mut scratch) =
            (Matrix::default(), Matrix::default(), Scratch::new());
        group.bench_function(BenchmarkId::from_parameter(agents), |b| {
            b.iter(|| {
                critic.zero_grad();
                critic.forward_into(&x, &mut q);
                critic.backward_into(&q, &mut grad_x, &mut scratch);
                std::hint::black_box(&grad_x);
            })
        });
    }
    group.finish();
}

fn bench_soft_update(c: &mut Criterion) {
    let mut rng = seeded(2);
    let src = Mlp::two_layer_relu(144, 5, &mut rng);
    let mut dst = Mlp::two_layer_relu(144, 5, &mut rng);
    c.bench_function("network/soft-update", |b| {
        b.iter(|| dst.soft_update_from(std::hint::black_box(&src), 0.01))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_actor, bench_critic_scaling, bench_soft_update
}
criterion_main!(benches);
