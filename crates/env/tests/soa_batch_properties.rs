//! Property-based tests of the struct-of-arrays physics batch: for
//! arbitrary world states and action forces, gather → scatter is an
//! exact round trip and one scalar [`SoaBatch::step`] is bit-identical
//! to [`World::step`] on every world independently. The unit tests in
//! `soa.rs` pin a handful of fixed states; these drive randomized
//! positions, velocities, and forces through the same contract.

use marl_env::scenario::Scenario;
use marl_env::scenarios::simple_spread::{CooperativeNavigation, CooperativeNavigationConfig};
use marl_env::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};
use marl_env::soa::SoaBatch;
use marl_env::vec2::Vec2;
use marl_env::World;
use marl_nn::kernels::{self, KernelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds `k` worlds of one scenario topology, randomizes them from
/// `seed`, and overwrites positions/velocities/forces with the proptest
/// draws so every float is adversarial, not just scenario-typical.
fn sample_worlds(pp: bool, agents: usize, k: usize, seed: u64, raw: &[f32]) -> Vec<World> {
    let scenario: Box<dyn Scenario> = if pp {
        Box::new(PredatorPrey::new(PredatorPreyConfig::scaled(agents)))
    } else {
        Box::new(CooperativeNavigation::new(CooperativeNavigationConfig::scaled(agents)))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws = raw.iter().copied().cycle();
    let mut next = || draws.next().unwrap();
    (0..k)
        .map(|_| {
            let mut w = scenario.make_world();
            scenario.reset_world(&mut w, &mut rng);
            for a in &mut w.agents {
                a.state.position = Vec2::new(next(), next());
                a.state.velocity = Vec2::new(next(), next());
                a.action_force = Vec2::new(next(), next());
            }
            w
        })
        .collect()
}

fn pos_vel_bits(w: &World) -> Vec<u32> {
    w.agents
        .iter()
        .flat_map(|a| {
            [
                a.state.position.x.to_bits(),
                a.state.position.y.to_bits(),
                a.state.velocity.x.to_bits(),
                a.state.velocity.y.to_bits(),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// gather → scatter is a pure transposed copy: every position and
    /// velocity round-trips exactly, including -0.0 and denormals.
    #[test]
    fn gather_scatter_roundtrips_arbitrary_state(
        seed in any::<u64>(),
        pp in prop::bool::ANY,
        k in 1usize..9,
        raw in proptest::collection::vec(-10.0f32..10.0, 16..17),
    ) {
        let worlds = sample_worlds(pp, 3, k, seed, &raw);
        let mut batch = SoaBatch::new(&worlds[0], k);
        batch.gather(&worlds);
        // Scatter into differently-initialized worlds of the same shape.
        let mut other = sample_worlds(pp, 3, k, seed.wrapping_add(1), &raw);
        batch.scatter(&mut other);
        for (got, want) in other.iter().zip(&worlds) {
            prop_assert_eq!(pos_vel_bits(got), pos_vel_bits(want));
        }
    }

    /// One scalar SoA step equals one AoS `World::step` per world, bit
    /// for bit, for arbitrary states — worlds do not contaminate each
    /// other and the lane transposition changes nothing numerically.
    /// When AVX2 is available the SIMD kernel must agree bitwise too.
    #[test]
    fn soa_step_matches_world_step_for_arbitrary_state(
        seed in any::<u64>(),
        pp in prop::bool::ANY,
        k in 1usize..9,
        steps in 1usize..4,
        raw in proptest::collection::vec(-10.0f32..10.0, 16..17),
    ) {
        let worlds = sample_worlds(pp, 3, k, seed, &raw);
        let mut reference = worlds.clone();
        for w in &mut reference {
            for _ in 0..steps {
                w.step();
            }
        }
        let mut batch = SoaBatch::new(&worlds[0], k);
        let mut scalar = worlds.clone();
        batch.gather(&scalar);
        for _ in 0..steps {
            batch.step_with(KernelKind::Scalar);
        }
        batch.scatter(&mut scalar);
        for (w, (got, want)) in scalar.iter().zip(&reference).enumerate() {
            prop_assert_eq!(pos_vel_bits(got), pos_vel_bits(want), "scalar world {}", w);
        }
        if kernels::simd_available() {
            let mut batch = SoaBatch::new(&worlds[0], k);
            let mut simd = worlds.clone();
            batch.gather(&simd);
            for _ in 0..steps {
                batch.step_with(KernelKind::Avx2);
            }
            batch.scatter(&mut simd);
            for (w, (got, want)) in simd.iter().zip(&reference).enumerate() {
                prop_assert_eq!(pos_vel_bits(got), pos_vel_bits(want), "simd world {}", w);
            }
        }
    }
}
