//! Per-agent networks: decentralized actor + centralized critic, each with
//! a target copy (plus twin critics for MATD3).

use marl_nn::adam::Adam;
use marl_nn::gumbel::{
    argmax_segments_into, softmax_relaxation_segments_into, softmax_segments_inplace,
};
use marl_nn::matrix::Matrix;
use marl_nn::mlp::Mlp;
use marl_nn::rng::{standard_gumbel, standard_normal};
use marl_nn::scratch::Scratch;
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

    /// Batched exploration actions for `K` worlds over a segmented
    /// (multi-discrete) head: one inference pass over `obs` (row `w` =
    /// world `w`'s observation), then per row `flat_dim` Gumbel draws from
    /// `rngs[w]`, a per-factor softmax and a per-factor arg-max. Writes
    /// world `w`'s mixed-radix joint index (first factor least
    /// significant, matching `ActionSpace::encode` in marl-env) into
    /// `indices[w]`.
    ///
    /// `logits` and `scratch` are reusable working storage
    /// (allocation-free once warmed); `logits` is left holding the relaxed
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`, the stream or index count is not the
    /// row count, or the segments do not tile the actor head.
    #[allow(clippy::too_many_arguments)]
    pub fn act_explore_batch(
        &self,
        obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        rngs: &mut [StdRng],
        logits: &mut Matrix,
        scratch: &mut Scratch,
        indices: &mut [usize],
    ) {
        assert!(temperature > 0.0, "temperature must be positive");
        assert_eq!(rngs.len(), obs.rows(), "one RNG stream per world");
        self.actor.forward_inference_into(obs, logits, scratch);
        for (w, rng) in rngs.iter_mut().enumerate() {
            for x in logits.row_mut(w) {
                *x = (*x + standard_gumbel(rng)) / temperature;
            }
        }
        softmax_segments_inplace(logits, segments);
        argmax_segments_into(logits, segments, indices);
    }

    /// Batched greedy joint actions: one inference pass over `obs` (row
    /// `r` = one observation), then the per-factor arg-max of each logit
    /// row, mixed-radix encoded into `indices[r]`.
    ///
    /// Because [`Mlp::forward_inference_into`] is row-independent, row
    /// `r`'s logits are bitwise the ones a 1-row inference produces — the
    /// serve path's batched==serial gate rests on this. `logits` and
    /// `scratch` are reusable working storage (allocation-free once
    /// warmed).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not one slot per row or the segments do not
    /// tile the actor head.
    pub fn act_greedy_batch(
        &self,
        obs: &Matrix,
        segments: &[usize],
        logits: &mut Matrix,
        scratch: &mut Scratch,
        indices: &mut [usize],
    ) {
        self.actor.forward_inference_into(obs, logits, scratch);
        argmax_segments_into(logits, segments, indices);
    }

    /// Target-policy relaxed actions for a batch of next observations,
    /// written into `value`: the target actor's logits, then (MATD3's
    /// target-policy smoothing, `target_noise > 0`) clipped Gaussian noise
    /// on every logit drawn row-major from `rng`, then a per-factor softmax
    /// relaxation so each factor of the multi-discrete head is its own
    /// distribution. `logits` and `scratch` are reusable working storage
    /// (allocation-free once warmed).
    #[allow(clippy::too_many_arguments)]
    pub fn target_actions_into(
        &self,
        next_obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        target_noise: f32,
        noise_clip: f32,
        rng: &mut StdRng,
        logits: &mut Matrix,
        value: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        self.target_actor.forward_inference_into(next_obs, logits, scratch);
        if target_noise > 0.0 {
            for x in logits.as_mut_slice() {
                let n = (standard_normal(rng) * target_noise).clamp(-noise_clip, noise_clip);
                *x += n;
            }
        }
        softmax_relaxation_segments_into(logits, segments, temperature, value);
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

    /// Per-row references for the batched paths: one-row inference, then
    /// the per-factor work written out longhand — what the batch-vs-row
    /// tests compare the batched functions against.
    impl AgentNets {
        /// Exploration action for one observation: Gumbel noise on every
        /// logit, per-factor softmax, per-factor arg-max, mixed-radix
        /// encoded.
        fn act_explore_row(
            &self,
            obs: &[f32],
            segments: &[usize],
            temperature: f32,
            rng: &mut StdRng,
        ) -> usize {
            let mut logits = Matrix::default();
            self.actor.forward_inference_into(
                &Matrix::row_vector(obs),
                &mut logits,
                &mut Scratch::new(),
            );
            let mut row = logits.row(0).to_vec();
            for x in row.iter_mut() {
                *x = (*x + standard_gumbel(rng)) / temperature;
            }
            let mut idx = 0;
            let mut stride = 1;
            let mut off = 0;
            for &s in segments {
                marl_nn::activation::softmax_slice_inplace(&mut row[off..off + s]);
                idx += marl_nn::gumbel::argmax_slice(&row[off..off + s]) * stride;
                stride *= s;
                off += s;
            }
            idx
        }

        /// Greedy joint action for one observation: per-factor arg-max of
        /// the raw logits, mixed-radix encoded.
        fn act_greedy_row(&self, obs: &[f32], segments: &[usize]) -> usize {
            let mut logits = Matrix::default();
            self.actor.forward_inference_into(
                &Matrix::row_vector(obs),
                &mut logits,
                &mut Scratch::new(),
            );
            let row = logits.row(0);
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

    /// A comm-augmented head: [5, 4] → flat width 9, joint count 20.
    fn comm_nets() -> AgentNets {
        let mut rng = seeded(0);
        AgentNets::new(16, 9, 2 * 16 + 2 * 9, false, 0.01, &mut rng)
    }

    /// `rows × 16` observations, distinct per row.
    fn observations(rows: usize, salt: f32) -> Matrix {
        let mut obs = Matrix::zeros(rows, 16);
        for r in 0..rows {
            for (c, x) in obs.row_mut(r).iter_mut().enumerate() {
                *x = (r as f32 * salt) - (c as f32 * 0.07);
            }
        }
        obs
    }

    /// One `act_explore_batch` call with fresh working storage.
    fn explore(
        a: &AgentNets,
        obs: &Matrix,
        segments: &[usize],
        temperature: f32,
        rngs: &mut [StdRng],
    ) -> Vec<usize> {
        let mut indices = vec![0usize; obs.rows()];
        a.act_explore_batch(
            obs,
            segments,
            temperature,
            rngs,
            &mut Matrix::default(),
            &mut Scratch::new(),
            &mut indices,
        );
        indices
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
        let (mut live, mut target, mut scratch) =
            (Matrix::default(), Matrix::default(), Scratch::new());
        let x = Matrix::full(1, 16, 0.2);
        a.actor.forward_inference_into(&x, &mut live, &mut scratch);
        a.target_actor.forward_inference_into(&x, &mut target, &mut scratch);
        assert_eq!(live, target);
        let j = Matrix::full(1, 63, 0.1);
        a.critic.forward_inference_into(&j, &mut live, &mut scratch);
        a.target_critic.forward_inference_into(&j, &mut target, &mut scratch);
        assert_eq!(live, target);
        let (c2, t2) = a.critic2.as_ref().unwrap();
        c2.forward_inference_into(&j, &mut live, &mut scratch);
        t2.forward_inference_into(&j, &mut target, &mut scratch);
        assert_eq!(live, target);
    }

    #[test]
    fn explore_is_stochastic_greedy_is_not() {
        let a = nets(false);
        let obs = Matrix::full(1, 16, 0.3);
        let mut rng = [seeded(2)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(explore(&a, &obs, &[5], 1.0, &mut rng)[0]);
        }
        assert!(seen.len() > 1, "exploration should visit several actions");
        let (mut logits, mut scratch) = (Matrix::default(), Scratch::new());
        let (mut first, mut second) = ([0usize], [0usize]);
        a.act_greedy_batch(&obs, &[5], &mut logits, &mut scratch, &mut first);
        a.act_greedy_batch(&obs, &[5], &mut logits, &mut scratch, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn explore_frequencies_follow_the_softmax_of_the_logits() {
        // Gumbel-max: argmax(l + g) is distributed as softmax(l), whatever
        // the temperature. 4000 worlds on one observation, one stream each.
        let a = nets(false);
        let worlds = 4000;
        let obs = Matrix::full(worlds, 16, 0.3);
        let mut rngs: Vec<_> = (0..worlds).map(|w| seeded(7_000 + w as u64)).collect();
        let indices = explore(&a, &obs, &[5], 0.7, &mut rngs);
        let mut logits = Matrix::default();
        a.actor.forward_inference_into(&obs, &mut logits, &mut Scratch::new());
        let mut p = logits.row(0).to_vec();
        marl_nn::activation::softmax_slice_inplace(&mut p);
        for (k, &pk) in p.iter().enumerate() {
            let freq = indices.iter().filter(|&&i| i == k).count() as f32 / worlds as f32;
            assert!((freq - pk).abs() < 0.04, "action {k}: frequency {freq} vs p {pk}");
        }
    }

    #[test]
    fn batched_explore_matches_row_reference_bitwise() {
        for (a, segments) in [(nets(false), &[5][..]), (comm_nets(), &[5, 4][..])] {
            for worlds in [1usize, 3, 8] {
                let obs = observations(worlds, 0.13);
                let mut rngs: Vec<_> = (0..worlds).map(|w| seeded(100 + w as u64)).collect();
                let mut row_rngs = rngs.clone();
                let indices = explore(&a, &obs, segments, 0.8, &mut rngs);
                for w in 0..worlds {
                    let idx = a.act_explore_row(obs.row(w), segments, 0.8, &mut row_rngs[w]);
                    let at = format!("{segments:?} worlds={worlds} w={w}");
                    assert_eq!(indices[w], idx, "{at}");
                    // Both paths must consume identical RNG draws.
                    assert_eq!(rngs[w].state(), row_rngs[w].state(), "{at}");
                }
            }
        }
    }

    #[test]
    fn batched_greedy_matches_one_row_inference_bitwise() {
        for (a, segments) in [(nets(false), &[5][..]), (comm_nets(), &[5, 4][..])] {
            for batch in [1usize, 4, 32] {
                let mut obs = Matrix::zeros(batch, 16);
                for r in 0..batch {
                    for (c, x) in obs.row_mut(r).iter_mut().enumerate() {
                        *x = ((r * 31 + c * 7) % 13) as f32 * 0.11 - 0.6;
                    }
                }
                let (mut logits, mut solo, mut scratch) =
                    (Matrix::default(), Matrix::default(), Scratch::new());
                let mut indices = vec![0usize; batch];
                a.act_greedy_batch(&obs, segments, &mut logits, &mut scratch, &mut indices);
                for (r, &idx) in indices.iter().enumerate() {
                    let at = format!("{segments:?} batch={batch} r={r}");
                    assert_eq!(idx, a.act_greedy_row(obs.row(r), segments), "{at}");
                    // The logits themselves must match the 1-row pass
                    // bitwise, not just the arg-max — the serve equivalence
                    // gate compares full logit vectors.
                    let one = Matrix::row_vector(obs.row(r));
                    a.actor.forward_inference_into(&one, &mut solo, &mut scratch);
                    assert_eq!(logits.row(r), solo.row(0), "{at}");
                }
            }
        }
    }

    #[test]
    fn segmented_explore_and_target_actions_cover_every_factor() {
        let a = comm_nets();
        let obs = Matrix::full(50, 16, 0.2);
        let mut rngs: Vec<_> = (0..50).map(|w| seeded(4 + w)).collect();
        let indices = explore(&a, &obs, &[5, 4], 1.0, &mut rngs);
        assert!(indices.iter().all(|&idx| idx < 20), "joint index within mixed-radix range");
        // Movement is least significant; both factors are sampled.
        let comm: std::collections::HashSet<_> = indices.iter().map(|idx| idx / 5).collect();
        let movement: std::collections::HashSet<_> = indices.iter().map(|idx| idx % 5).collect();
        assert!(comm.len() > 1 && movement.len() > 1, "{indices:?}");
        // Segmented target actions: each factor normalizes independently.
        let mut rng_t = seeded(5);
        let (mut lt, mut vt) = (Matrix::default(), Matrix::default());
        let next_obs = observations(4, 0.3);
        a.target_actions_into(
            &next_obs,
            &[5, 4],
            1.0,
            0.2,
            0.5,
            &mut rng_t,
            &mut lt,
            &mut vt,
            &mut Scratch::new(),
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
        let (mut logits, mut value) = (Matrix::default(), Matrix::default());
        let next_obs = Matrix::zeros(4, 16);
        a.target_actions_into(
            &next_obs,
            &[5],
            1.0,
            0.2,
            0.5,
            &mut rng,
            &mut logits,
            &mut value,
            &mut Scratch::new(),
        );
        for r in 0..4 {
            let sum: f32 = value.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn soft_update_converges_to_live() {
        let mut a = nets(false);
        // Perturb the actor, then repeatedly soft-update.
        let x = Matrix::full(1, 16, 0.5);
        let (mut live, mut tgt, mut grad_in, mut scratch) =
            (Matrix::default(), Matrix::default(), Matrix::default(), Scratch::new());
        a.actor.zero_grad();
        a.actor.forward_into(&x, &mut live);
        a.actor.backward_into(&Matrix::full(1, 5, 1.0), &mut grad_in, &mut scratch);
        a.actor_opt.step(&mut a.actor);
        a.actor.forward_inference_into(&x, &mut live, &mut scratch);
        for _ in 0..600 {
            a.soft_update_targets(0.05);
        }
        a.target_actor.forward_inference_into(&x, &mut tgt, &mut scratch);
        for (l, t) in live.as_slice().iter().zip(tgt.as_slice()) {
            assert!((l - t).abs() < 1e-3);
        }
    }
}
