//! Per-agent networks: decentralized actor + centralized critic, each with
//! a target copy (plus twin critics for MATD3).

use marl_nn::adam::Adam;
use marl_nn::gumbel::{gumbel_softmax_sample, harden, GumbelSample};
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use rand::rngs::StdRng;

/// The four (or six, for MATD3) networks of one agent plus optimizers.
#[derive(Debug)]
pub struct AgentNets {
    /// Decentralized actor π_i: obs → action logits.
    pub actor: Mlp,
    /// Target actor.
    pub target_actor: Mlp,
    /// Centralized critic Q_i: joint obs+actions → scalar.
    pub critic: Mlp,
    /// Target critic.
    pub target_critic: Mlp,
    /// Second critic (MATD3 twin), with its target.
    pub critic2: Option<(Mlp, Mlp)>,
    /// Actor optimizer.
    pub actor_opt: Adam,
    /// Critic optimizer (shared by both twins; gradients are applied per
    /// network via separate state below).
    pub critic_opt: Adam,
    /// Optimizer for the twin critic.
    pub critic2_opt: Option<Adam>,
}

impl AgentNets {
    /// Builds the networks for an agent with `obs_dim` observations,
    /// `act_dim` discrete actions, and a centralized critic over
    /// `joint_dim` inputs.
    pub fn new(
        obs_dim: usize,
        act_dim: usize,
        joint_dim: usize,
        twin_critics: bool,
        learning_rate: f32,
        rng: &mut StdRng,
    ) -> Self {
        let actor = Mlp::two_layer_relu(obs_dim, act_dim, rng);
        let mut target_actor = Mlp::two_layer_relu(obs_dim, act_dim, rng);
        target_actor.hard_update_from(&actor);
        let critic = Mlp::two_layer_relu(joint_dim, 1, rng);
        let mut target_critic = Mlp::two_layer_relu(joint_dim, 1, rng);
        target_critic.hard_update_from(&critic);
        let critic2 = twin_critics.then(|| {
            let c2 = Mlp::two_layer_relu(joint_dim, 1, rng);
            let mut t2 = Mlp::two_layer_relu(joint_dim, 1, rng);
            t2.hard_update_from(&c2);
            (c2, t2)
        });
        AgentNets {
            actor,
            target_actor,
            critic,
            target_critic,
            critic2,
            actor_opt: Adam::with_learning_rate(learning_rate),
            critic_opt: Adam::with_learning_rate(learning_rate),
            critic2_opt: twin_critics.then(|| Adam::with_learning_rate(learning_rate)),
        }
    }

    /// Exploration action for a single observation: Gumbel-softmax sample
    /// from the actor's logits. Returns `(action index, one-hot)`.
    pub fn act_explore(
        &self,
        obs: &[f32],
        temperature: f32,
        rng: &mut StdRng,
    ) -> (usize, Vec<f32>) {
        let logits = self.actor.forward_inference(&Matrix::row_vector(obs));
        let sample = gumbel_softmax_sample(&logits, temperature, rng);
        let hard = harden(&sample.value);
        let idx =
            hard.as_slice().iter().position(|&x| x == 1.0).expect("harden produces a one-hot row");
        (idx, hard.into_vec())
    }

    /// Batched exploration actions for `K` worlds: one inference pass over
    /// `obs` (row `w` = world `w`'s observation), then a per-row
    /// Gumbel-softmax sample drawing noise from `rngs[w]`.
    ///
    /// Row `w` consumes exactly the RNG draws, in exactly the order, that
    /// [`AgentNets::act_explore`] would consume from `rngs[w]` — so with a
    /// single world and the master RNG this is bit-identical to the scalar
    /// path. Writes the arg-max action index of world `w` into
    /// `indices[w]` and its one-hot row into row `w` of `onehot`.
    /// `logits`, `sample_row`, and `scratch` are reusable working storage
    /// (allocation-free once warmed).
    #[allow(clippy::too_many_arguments)]
    pub fn act_explore_batch(
        &self,
        obs: &Matrix,
        temperature: f32,
        rngs: &mut [StdRng],
        logits: &mut Matrix,
        sample_row: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
        indices: &mut [usize],
        onehot: &mut Matrix,
    ) {
        assert!(temperature > 0.0, "temperature must be positive");
        let worlds = obs.rows();
        assert_eq!(rngs.len(), worlds, "one RNG stream per world");
        assert_eq!(indices.len(), worlds, "one action index per world");
        let act_dim = self.actor.output_dim();
        self.actor.forward_inference_into(obs, logits, scratch);
        sample_row.resize(1, act_dim);
        onehot.resize(worlds, act_dim);
        for w in 0..worlds {
            // Replicates `gumbel_softmax_sample` + `harden` on this row:
            // (x + g)/temperature, row softmax, then first-max arg-max.
            let row = sample_row.row_mut(0);
            row.copy_from_slice(logits.row(w));
            for x in row.iter_mut() {
                *x = (*x + marl_nn::rng::standard_gumbel(&mut rngs[w])) / temperature;
            }
            marl_nn::activation::softmax_inplace(sample_row);
            let mut best = [0usize];
            sample_row.argmax_rows(&mut best);
            let best = best[0];
            indices[w] = best;
            let out = onehot.row_mut(w);
            out.fill(0.0);
            out[best] = 1.0;
        }
    }

    /// Segmented counterpart of [`AgentNets::act_explore_batch`]: one
    /// inference pass, then per-row Gumbel noise, per-factor softmax and
    /// arg-max. Writes world `w`'s mixed-radix joint index (first factor
    /// least significant, matching `ActionSpace::encode` in marl-env) into
    /// `indices[w]` and its multi-hot row into row `w` of `onehot`.
    ///
    /// Per row this draws `flat_dim` Gumbels from `rngs[w]`, like the
    /// one-row reference the tests compare it with; with a single
    /// full-width segment it is bitwise-identical to
    /// [`AgentNets::act_explore_batch`].
    #[allow(clippy::too_many_arguments)]
    pub fn act_explore_batch_seg(
        &self,
        obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        rngs: &mut [StdRng],
        logits: &mut Matrix,
        sample_row: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
        indices: &mut [usize],
        onehot: &mut Matrix,
    ) {
        assert!(temperature > 0.0, "temperature must be positive");
        let worlds = obs.rows();
        assert_eq!(rngs.len(), worlds, "one RNG stream per world");
        assert_eq!(indices.len(), worlds, "one action index per world");
        let act_dim = self.actor.output_dim();
        assert_eq!(segments.iter().sum::<usize>(), act_dim, "segments must tile the actor head");
        self.actor.forward_inference_into(obs, logits, scratch);
        sample_row.resize(1, act_dim);
        onehot.resize(worlds, act_dim);
        for w in 0..worlds {
            let row = sample_row.row_mut(0);
            row.copy_from_slice(logits.row(w));
            for x in row.iter_mut() {
                *x = (*x + marl_nn::rng::standard_gumbel(&mut rngs[w])) / temperature;
            }
            let out = onehot.row_mut(w);
            out.fill(0.0);
            let mut idx = 0;
            let mut stride = 1;
            let mut off = 0;
            for &s in segments {
                marl_nn::activation::softmax_slice_inplace(&mut row[off..off + s]);
                let c = marl_nn::gumbel::argmax_slice(&row[off..off + s]);
                out[off + c] = 1.0;
                idx += c * stride;
                stride *= s;
                off += s;
            }
            indices[w] = idx;
        }
    }

    /// Batched greedy joint actions over a segmented head (one inference
    /// pass, per-row per-factor arg-max). `logits`/`scratch` are reusable
    /// working storage.
    pub fn act_greedy_batch_seg(
        &self,
        obs: &Matrix,
        segments: &[usize],
        logits: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
        indices: &mut [usize],
    ) {
        assert_eq!(indices.len(), obs.rows(), "one action index per observation row");
        self.actor.forward_inference_into(obs, logits, scratch);
        assert_eq!(
            segments.iter().sum::<usize>(),
            logits.cols(),
            "segments must tile the actor head"
        );
        for (r, slot) in indices.iter_mut().enumerate() {
            let row = logits.row(r);
            let mut idx = 0;
            let mut stride = 1;
            let mut off = 0;
            for &s in segments {
                idx += marl_nn::gumbel::argmax_slice(&row[off..off + s]) * stride;
                stride *= s;
                off += s;
            }
            *slot = idx;
        }
    }

    /// Greedy action (arg-max logits) for evaluation.
    pub fn act_greedy(&self, obs: &[f32]) -> usize {
        let logits = self.actor.forward_inference(&Matrix::row_vector(obs));
        let mut best = [0usize];
        logits.argmax_rows(&mut best);
        best[0]
    }

    /// Batched greedy actions: one inference pass over `obs` (row `r` =
    /// one observation), arg-max per row into `indices[r]`.
    ///
    /// Because [`Mlp::forward_inference_into`] is row-independent, row
    /// `r` of the batched logits is bitwise-identical to the 1-row
    /// inference [`AgentNets::act_greedy`] runs — the serve-path
    /// batched==serial equivalence gate rests on this. `logits` and
    /// `scratch` are reusable working storage (allocation-free once
    /// warmed).
    pub fn act_greedy_batch(
        &self,
        obs: &Matrix,
        logits: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
        indices: &mut [usize],
    ) {
        assert_eq!(indices.len(), obs.rows(), "one action index per observation row");
        self.actor.forward_inference_into(obs, logits, scratch);
        logits.argmax_rows(indices);
    }

    /// Target-policy relaxed actions for a batch of next observations.
    ///
    /// For MATD3, clipped Gaussian noise (`target_noise`, `noise_clip`) is
    /// added to the logits before the softmax — target-policy smoothing.
    pub fn target_actions(
        &self,
        next_obs: &Matrix,
        temperature: f32,
        target_noise: f32,
        noise_clip: f32,
        rng: &mut StdRng,
    ) -> GumbelSample {
        let mut logits = Matrix::default();
        let mut value = Matrix::default();
        let mut scratch = marl_nn::scratch::Scratch::new();
        self.target_actions_into(
            next_obs,
            temperature,
            target_noise,
            noise_clip,
            rng,
            &mut logits,
            &mut value,
            &mut scratch,
        );
        GumbelSample { value, temperature }
    }

    /// [`AgentNets::target_actions`] writing the relaxed actions into
    /// `value`, with `logits` and `scratch` as reusable working storage
    /// (allocation-free once warmed). Consumes RNG draws identically to
    /// the allocating variant.
    #[allow(clippy::too_many_arguments)]
    pub fn target_actions_into(
        &self,
        next_obs: &Matrix,
        temperature: f32,
        target_noise: f32,
        noise_clip: f32,
        rng: &mut StdRng,
        logits: &mut Matrix,
        value: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
    ) {
        self.target_actor.forward_inference_into(next_obs, logits, scratch);
        if target_noise > 0.0 {
            for x in logits.as_mut_slice() {
                let n = (marl_nn::rng::standard_normal(rng) * target_noise)
                    .clamp(-noise_clip, noise_clip);
                *x += n;
            }
        }
        marl_nn::gumbel::softmax_relaxation_into(logits, temperature, value);
    }

    /// Segmented counterpart of [`AgentNets::target_actions_into`]: noise
    /// on every logit (identical draws, in order), then a per-factor
    /// softmax relaxation so each factor of the multi-discrete head is its
    /// own distribution. With a single full-width segment this is bitwise
    /// identical to the unsegmented variant.
    #[allow(clippy::too_many_arguments)]
    pub fn target_actions_seg_into(
        &self,
        next_obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        target_noise: f32,
        noise_clip: f32,
        rng: &mut StdRng,
        logits: &mut Matrix,
        value: &mut Matrix,
        scratch: &mut marl_nn::scratch::Scratch,
    ) {
        self.target_actor.forward_inference_into(next_obs, logits, scratch);
        if target_noise > 0.0 {
            for x in logits.as_mut_slice() {
                let n = (marl_nn::rng::standard_normal(rng) * target_noise)
                    .clamp(-noise_clip, noise_clip);
                *x += n;
            }
        }
        marl_nn::gumbel::softmax_relaxation_segments_into(logits, segments, temperature, value);
    }

    /// Polyak-averages all target networks toward the live networks.
    pub fn soft_update_targets(&mut self, tau: f32) {
        self.target_actor.soft_update_from(&self.actor, tau);
        self.target_critic.soft_update_from(&self.critic, tau);
        if let Some((c2, t2)) = &mut self.critic2 {
            t2.soft_update_from(c2, tau);
        }
    }

    /// Total trainable parameters across all live networks.
    pub fn parameter_count(&self) -> usize {
        self.actor.parameter_count()
            + self.critic.parameter_count()
            + self.critic2.as_ref().map_or(0, |(c, _)| c.parameter_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_nn::rng::seeded;

    /// Per-row references for the batched segmented paths: one-row
    /// inference and allocating outputs, what the batch-vs-row tests compare
    /// the batched functions against.
    impl AgentNets {
        /// Exploration action over a segmented (multi-discrete) head: Gumbel
        /// noise on every logit, per-factor softmax, per-factor arg-max.
        /// Returns the mixed-radix joint index (first factor least
        /// significant, matching `ActionSpace::encode` in marl-env) plus the
        /// multi-hot encoding of width Σ segments.
        ///
        /// With a single segment spanning the whole head this consumes
        /// identical RNG draws and computes bitwise-identical floats to
        /// [`AgentNets::act_explore`]: the noise expression, the per-slice
        /// softmax, and the strict-`>` first-max arg-max all coincide.
        fn act_explore_seg(
            &self,
            obs: &[f32],
            segments: &[usize],
            temperature: f32,
            rng: &mut StdRng,
        ) -> (usize, Vec<f32>) {
            assert!(temperature > 0.0, "temperature must be positive");
            let logits = self.actor.forward_inference(&Matrix::row_vector(obs));
            let mut row = logits.into_vec();
            assert_eq!(
                segments.iter().sum::<usize>(),
                row.len(),
                "segments must tile the actor head"
            );
            for x in row.iter_mut() {
                *x = (*x + marl_nn::rng::standard_gumbel(rng)) / temperature;
            }
            let mut hot = vec![0.0; row.len()];
            let mut idx = 0;
            let mut stride = 1;
            let mut off = 0;
            for &s in segments {
                marl_nn::activation::softmax_slice_inplace(&mut row[off..off + s]);
                let c = marl_nn::gumbel::argmax_slice(&row[off..off + s]);
                hot[off + c] = 1.0;
                idx += c * stride;
                stride *= s;
                off += s;
            }
            (idx, hot)
        }

        /// Greedy joint action over a segmented head: per-factor arg-max of
        /// the raw logits, mixed-radix encoded. With a single segment this is
        /// [`AgentNets::act_greedy`].
        fn act_greedy_seg(&self, obs: &[f32], segments: &[usize]) -> usize {
            let logits = self.actor.forward_inference(&Matrix::row_vector(obs));
            let row = logits.row(0);
            assert_eq!(
                segments.iter().sum::<usize>(),
                row.len(),
                "segments must tile the actor head"
            );
            let mut idx = 0;
            let mut stride = 1;
            let mut off = 0;
            for &s in segments {
                idx += marl_nn::gumbel::argmax_slice(&row[off..off + s]) * stride;
                stride *= s;
                off += s;
            }
            idx
        }
    }

    fn nets(twin: bool) -> AgentNets {
        let mut rng = seeded(0);
        AgentNets::new(16, 5, 3 * 16 + 3 * 5, twin, 0.01, &mut rng)
    }

    #[test]
    fn construction_wires_dimensions() {
        let a = nets(false);
        assert_eq!(a.actor.input_dim(), 16);
        assert_eq!(a.actor.output_dim(), 5);
        assert_eq!(a.critic.input_dim(), 63);
        assert_eq!(a.critic.output_dim(), 1);
        assert!(a.critic2.is_none());
        let b = nets(true);
        assert!(b.critic2.is_some());
        assert!(b.critic2_opt.is_some());
        assert!(b.parameter_count() > a.parameter_count());
    }

    #[test]
    fn targets_start_identical() {
        let a = nets(true);
        let x = Matrix::full(1, 16, 0.2);
        assert_eq!(
            a.actor.forward_inference(&x).as_slice(),
            a.target_actor.forward_inference(&x).as_slice()
        );
        let j = Matrix::full(1, 63, 0.1);
        assert_eq!(
            a.critic.forward_inference(&j).as_slice(),
            a.target_critic.forward_inference(&j).as_slice()
        );
        let (c2, t2) = a.critic2.as_ref().unwrap();
        assert_eq!(c2.forward_inference(&j).as_slice(), t2.forward_inference(&j).as_slice());
    }

    #[test]
    fn explore_returns_valid_one_hot() {
        let a = nets(false);
        let mut rng = seeded(1);
        let (idx, onehot) = a.act_explore(&[0.0; 16], 1.0, &mut rng);
        assert!(idx < 5);
        assert_eq!(onehot.len(), 5);
        assert_eq!(onehot.iter().sum::<f32>(), 1.0);
        assert_eq!(onehot[idx], 1.0);
    }

    #[test]
    fn explore_is_stochastic_greedy_is_not() {
        let a = nets(false);
        let mut rng = seeded(2);
        let obs = vec![0.3; 16];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(a.act_explore(&obs, 1.0, &mut rng).0);
        }
        assert!(seen.len() > 1, "exploration should visit several actions");
        assert_eq!(a.act_greedy(&obs), a.act_greedy(&obs));
    }

    #[test]
    fn batched_explore_matches_scalar_per_row_bitwise() {
        let a = nets(false);
        for worlds in [1usize, 3, 8] {
            let mut obs = Matrix::zeros(worlds, 16);
            for w in 0..worlds {
                for (c, x) in obs.row_mut(w).iter_mut().enumerate() {
                    *x = (w as f32 * 0.13) - (c as f32 * 0.07);
                }
            }
            let mut rngs: Vec<_> = (0..worlds).map(|w| seeded(100 + w as u64)).collect();
            let mut scalar_rngs = rngs.clone();
            let mut logits = Matrix::default();
            let mut sample_row = Matrix::default();
            let mut scratch = marl_nn::scratch::Scratch::new();
            let mut indices = vec![0usize; worlds];
            let mut onehot = Matrix::default();
            a.act_explore_batch(
                &obs,
                0.8,
                &mut rngs,
                &mut logits,
                &mut sample_row,
                &mut scratch,
                &mut indices,
                &mut onehot,
            );
            for w in 0..worlds {
                let (idx, hot) = a.act_explore(obs.row(w), 0.8, &mut scalar_rngs[w]);
                assert_eq!(indices[w], idx, "worlds={worlds} w={w}");
                assert_eq!(onehot.row(w), hot.as_slice(), "worlds={worlds} w={w}");
                // Both paths must consume identical RNG draws.
                assert_eq!(rngs[w].state(), scalar_rngs[w].state(), "worlds={worlds} w={w}");
            }
        }
    }

    #[test]
    fn batched_greedy_matches_scalar_per_row_bitwise() {
        let a = nets(false);
        for batch in [1usize, 4, 32] {
            let mut obs = Matrix::zeros(batch, 16);
            for r in 0..batch {
                for (c, x) in obs.row_mut(r).iter_mut().enumerate() {
                    *x = ((r * 31 + c * 7) % 13) as f32 * 0.11 - 0.6;
                }
            }
            let mut logits = Matrix::default();
            let mut scratch = marl_nn::scratch::Scratch::new();
            let mut indices = vec![0usize; batch];
            a.act_greedy_batch(&obs, &mut logits, &mut scratch, &mut indices);
            for (r, &idx) in indices.iter().enumerate() {
                assert_eq!(idx, a.act_greedy(obs.row(r)), "batch={batch} r={r}");
                // The logits themselves must match the 1-row pass bitwise,
                // not just the arg-max — the serve equivalence gate
                // compares full logit vectors.
                let solo = a.actor.forward_inference(&Matrix::row_vector(obs.row(r)));
                assert_eq!(logits.row(r), solo.row(0), "batch={batch} r={r}");
            }
        }
    }

    #[test]
    fn single_segment_seg_paths_are_bitwise_identical_to_legacy() {
        let a = nets(false);
        let obs: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1 - 0.8).collect();
        let mut rng_seg = seeded(9);
        let mut rng_old = seeded(9);
        let (idx_seg, hot_seg) = a.act_explore_seg(&obs, &[5], 0.7, &mut rng_seg);
        let (idx_old, hot_old) = a.act_explore(&obs, 0.7, &mut rng_old);
        assert_eq!(idx_seg, idx_old);
        assert_eq!(hot_seg, hot_old);
        assert_eq!(rng_seg.state(), rng_old.state(), "identical RNG consumption");
        assert_eq!(a.act_greedy_seg(&obs, &[5]), a.act_greedy(&obs));
        // Batched: seg with one full-width segment vs the legacy batch.
        let mut m = Matrix::zeros(3, 16);
        for w in 0..3 {
            for (c, x) in m.row_mut(w).iter_mut().enumerate() {
                *x = (w as f32 * 0.21) - (c as f32 * 0.05);
            }
        }
        let mut rngs_seg: Vec<_> = (0..3).map(|w| seeded(50 + w)).collect();
        let mut rngs_old = rngs_seg.clone();
        let (mut l1, mut s1, mut sc1) =
            (Matrix::default(), Matrix::default(), marl_nn::scratch::Scratch::new());
        let (mut l2, mut s2, mut sc2) =
            (Matrix::default(), Matrix::default(), marl_nn::scratch::Scratch::new());
        let mut i1 = vec![0usize; 3];
        let mut i2 = vec![0usize; 3];
        let mut h1 = Matrix::default();
        let mut h2 = Matrix::default();
        a.act_explore_batch_seg(
            &m,
            &[5],
            0.7,
            &mut rngs_seg,
            &mut l1,
            &mut s1,
            &mut sc1,
            &mut i1,
            &mut h1,
        );
        a.act_explore_batch(&m, 0.7, &mut rngs_old, &mut l2, &mut s2, &mut sc2, &mut i2, &mut h2);
        assert_eq!(i1, i2);
        assert_eq!(h1.as_slice(), h2.as_slice());
        // Segmented target actions with one segment == legacy relaxation.
        let mut rng_a = seeded(77);
        let mut rng_b = seeded(77);
        let (mut la, mut va) = (Matrix::default(), Matrix::default());
        let (mut lb, mut vb) = (Matrix::default(), Matrix::default());
        a.target_actions_seg_into(&m, &[5], 1.0, 0.2, 0.5, &mut rng_a, &mut la, &mut va, &mut sc1);
        a.target_actions_into(&m, 1.0, 0.2, 0.5, &mut rng_b, &mut lb, &mut vb, &mut sc2);
        assert_eq!(va.as_slice(), vb.as_slice());
        assert_eq!(rng_a.state(), rng_b.state());
    }

    #[test]
    fn segmented_explore_yields_joint_indices_and_multi_hots() {
        // A comm-augmented head: [5, 4] → flat width 9, joint count 20.
        let mut rng = seeded(0);
        let a = AgentNets::new(16, 9, 2 * 16 + 2 * 9, false, 0.01, &mut rng);
        let mut r = seeded(4);
        let obs = vec![0.2; 16];
        for _ in 0..50 {
            let (idx, hot) = a.act_explore_seg(&obs, &[5, 4], 1.0, &mut r);
            assert!(idx < 20, "joint index within mixed-radix range");
            assert_eq!(hot.len(), 9);
            assert_eq!(hot.iter().filter(|&&x| x == 1.0).count(), 2, "one hot per factor");
            // The multi-hot must agree with the mixed-radix decode.
            assert_eq!(hot[idx % 5], 1.0, "movement is least significant");
            assert_eq!(hot[5 + idx / 5], 1.0, "comm factor");
        }
        let g = a.act_greedy_seg(&obs, &[5, 4]);
        assert!(g < 20);
        // Batched variant agrees with the scalar variant bitwise.
        let mut m = Matrix::zeros(4, 16);
        for w in 0..4 {
            for (c, x) in m.row_mut(w).iter_mut().enumerate() {
                *x = (w as f32 * 0.3) - (c as f32 * 0.02);
            }
        }
        let mut rngs: Vec<_> = (0..4).map(|w| seeded(200 + w)).collect();
        let mut scalar_rngs = rngs.clone();
        let (mut l, mut s, mut sc) =
            (Matrix::default(), Matrix::default(), marl_nn::scratch::Scratch::new());
        let mut idxs = vec![0usize; 4];
        let mut hots = Matrix::default();
        a.act_explore_batch_seg(
            &m,
            &[5, 4],
            0.9,
            &mut rngs,
            &mut l,
            &mut s,
            &mut sc,
            &mut idxs,
            &mut hots,
        );
        for w in 0..4 {
            let (idx, hot) = a.act_explore_seg(m.row(w), &[5, 4], 0.9, &mut scalar_rngs[w]);
            assert_eq!(idxs[w], idx, "w={w}");
            assert_eq!(hots.row(w), hot.as_slice(), "w={w}");
        }
        // Segmented target actions: each factor normalizes independently.
        let mut rng_t = seeded(5);
        let (mut lt, mut vt) = (Matrix::default(), Matrix::default());
        a.target_actions_seg_into(
            &m,
            &[5, 4],
            1.0,
            0.2,
            0.5,
            &mut rng_t,
            &mut lt,
            &mut vt,
            &mut sc,
        );
        for r in 0..4 {
            let row = vt.row(r);
            assert!((row[..5].iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!((row[5..].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn target_actions_are_distributions() {
        let a = nets(true);
        let mut rng = seeded(3);
        let next_obs = Matrix::zeros(4, 16);
        let s = a.target_actions(&next_obs, 1.0, 0.2, 0.5, &mut rng);
        for r in 0..4 {
            let sum: f32 = s.value.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn soft_update_converges_to_live() {
        let mut a = nets(false);
        // Perturb the actor, then repeatedly soft-update.
        let x = Matrix::full(1, 16, 0.5);
        a.actor.zero_grad();
        a.actor.forward(&x);
        a.actor.backward(&Matrix::full(1, 5, 1.0));
        a.actor_opt.step(&mut a.actor);
        let live = a.actor.forward_inference(&x);
        for _ in 0..600 {
            a.soft_update_targets(0.05);
        }
        let tgt = a.target_actor.forward_inference(&x);
        for (l, t) in live.as_slice().iter().zip(tgt.as_slice()) {
            assert!((l - t).abs() < 1e-3);
        }
    }
}
