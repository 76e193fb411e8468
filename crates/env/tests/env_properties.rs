//! Property-based tests of the particle physics and scenarios: finiteness,
//! determinism, damping, and observation-space consistency under arbitrary
//! action sequences.

use marl_env::entity::DiscreteAction;
use marl_env::ScenarioId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary action sequences never produce NaN/∞ states or rewards,
    /// and observations always match the advertised spaces.
    #[test]
    fn rollouts_stay_finite(
        seed in any::<u64>(),
        pp in prop::bool::ANY,
        n_pick in 0usize..3,
        actions in proptest::collection::vec(0usize..5, 1..60),
    ) {
        let n = [3, 6, 12][n_pick];
        let mut env = if pp {
            ScenarioId::PredatorPrey.make_env(n, 25, seed)
        } else {
            ScenarioId::CooperativeNavigation.make_env(n, 25, seed)
        };
        let spaces = env.observation_spaces();
        let mut obs = env.reset();
        for &a in &actions {
            let acts = vec![a; env.trained_agents()];
            let step = env.step(&acts).unwrap();
            prop_assert!(step.rewards.iter().all(|r| r.is_finite()));
            for (o, s) in step.observations.iter().zip(&spaces) {
                prop_assert!(s.contains(o), "obs out of space");
            }
            obs = step.observations;
            if step.done {
                obs = env.reset();
            }
        }
        prop_assert_eq!(obs.len(), env.trained_agents());
    }

    /// Two environments with the same seed and the same actions evolve
    /// identically.
    #[test]
    fn deterministic_under_seed(
        seed in any::<u64>(),
        actions in proptest::collection::vec(0usize..5, 1..40),
    ) {
        let mut a = ScenarioId::PredatorPrey.make_env(3, 25, seed);
        let mut b = ScenarioId::PredatorPrey.make_env(3, 25, seed);
        let oa = a.reset();
        let ob = b.reset();
        prop_assert_eq!(oa, ob);
        for &act in &actions {
            let sa = a.step(&[act, act, act]).unwrap();
            let sb = b.step(&[act, act, act]).unwrap();
            prop_assert_eq!(&sa.rewards, &sb.rewards);
            prop_assert_eq!(&sa.observations, &sb.observations);
        }
    }

    /// With no control input, kinetic energy decays (damping) for
    /// non-colliding agents.
    #[test]
    fn velocities_damp_without_input(seed in any::<u64>()) {
        let mut env = ScenarioId::CooperativeNavigation.make_env(3, 1000, seed);
        env.reset();
        // Give the system a kick, then coast.
        for _ in 0..3 {
            env.step(&[2, 2, 2]).unwrap();
        }
        let speed = |env: &marl_env::ParticleEnv| -> f32 {
            env.world().agents.iter().map(|a| a.state.velocity.norm()).sum()
        };
        let v0 = speed(&env);
        for _ in 0..30 {
            env.step(&[0, 0, 0]).unwrap();
        }
        let v1 = speed(&env);
        prop_assert!(v1 <= v0 + 1e-3, "residual speed grew: {} -> {}", v0, v1);
    }

    /// Discrete actions map to the expected displacement signs from rest.
    #[test]
    fn action_directions_are_respected(seed in any::<u64>(), action in 1usize..5) {
        let mut env = ScenarioId::CooperativeNavigation.make_env(1, 25, seed);
        env.reset();
        let before = env.world().agents[0].state.position;
        env.step(&[action]).unwrap();
        let after = env.world().agents[0].state.position;
        let delta = after - before;
        match DiscreteAction::from_index(action).unwrap() {
            DiscreteAction::Left => prop_assert!(delta.x < 0.0),
            DiscreteAction::Right => prop_assert!(delta.x > 0.0),
            DiscreteAction::Down => prop_assert!(delta.y < 0.0),
            DiscreteAction::Up => prop_assert!(delta.y > 0.0),
            DiscreteAction::Stay => {}
        }
    }
}

#[test]
fn prey_survival_improves_when_predators_idle() {
    // Scripted prey should collide less when predators do not chase.
    let collisions = |chase: bool| -> usize {
        let mut env = ScenarioId::PredatorPrey.make_env(3, 25, 42);
        env.reset();
        let mut count = 0;
        for t in 0..200 {
            let act = if chase {
                // crude chase: all predators move toward the prey's side
                let prey = env.world().agents[3].state.position;
                let me = env.world().agents[0].state.position;
                let dir = prey - me;
                DiscreteAction::closest_to(dir).index()
            } else {
                0
            };
            let step = env.step(&[act, act, act]).unwrap();
            if step.rewards[0] > 5.0 {
                count += 1; // predator collision bonus fired
            }
            if step.done || t % 25 == 24 {
                env.reset();
            }
        }
        count
    };
    assert!(collisions(true) >= collisions(false));
}
