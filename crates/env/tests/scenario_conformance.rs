//! Cross-scenario conformance suite: every scenario in the registry —
//! built-ins and future plug-ins alike — inherits the same invariant
//! checks, driven per [`ScenarioId`] so a newly registered scenario is
//! covered without writing a single new test.
//!
//! The invariants:
//!
//! * resets are a pure function of the seed (bitwise);
//! * observations and actions match the declared spaces exactly;
//! * rewards stay finite under seeded random play;
//! * every agent's observation, scripted agents' included, is exactly
//!   `Scenario::observation_dim` wide;
//! * world 0 of a K-world env is bit-identical to a one-world env;
//! * a rejected step leaves every world's observations unchanged;
//! * one scalar SoA batch step equals [`World::step`] per world, bit for
//!   bit, with comm state surviving the gather/scatter transposition.

use marl_env::registry::ScenarioId;
use marl_env::soa::SoaBatch;
use marl_env::{VecParticleEnv, World};
use marl_nn::kernels::{self, KernelKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPISODE_LEN: usize = 25;
const AGENTS: usize = 3;

fn all_scenarios() -> Vec<ScenarioId> {
    let all = ScenarioId::all();
    assert!(all.len() >= 6, "all six built-in scenarios must be registered");
    all
}

/// Seeded random joint actions, valid for each agent's declared space.
fn random_actions(env: &marl_env::ParticleEnv, rng: &mut StdRng) -> Vec<usize> {
    env.action_spaces().iter().map(|s| rng.gen_range(0..s.joint_count())).collect()
}

fn obs_bits(obs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    obs.iter().map(|o| o.iter().map(|x| x.to_bits()).collect()).collect()
}

fn world_bits(w: &World) -> Vec<u32> {
    let mut bits = Vec::new();
    for a in &w.agents {
        bits.push(a.state.position.x.to_bits());
        bits.push(a.state.position.y.to_bits());
        bits.push(a.state.velocity.x.to_bits());
        bits.push(a.state.velocity.y.to_bits());
        bits.extend(a.comm.iter().map(|c| c.to_bits()));
    }
    bits
}

/// Resets (and full episodes) are a pure function of the seed.
#[test]
fn reset_and_rollout_are_deterministic_per_seed() {
    for id in all_scenarios() {
        let run = |seed: u64| {
            let mut env = id.make_env(AGENTS, EPISODE_LEN, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let mut trace = vec![obs_bits(&env.reset())];
            loop {
                let actions = random_actions(&env, &mut rng);
                let step = env.step(&actions).expect("step in range");
                trace.push(obs_bits(&step.observations));
                if step.done {
                    break;
                }
            }
            trace
        };
        assert_eq!(run(7), run(7), "{id}: same seed must replay bitwise");
        assert_ne!(run(7), run(8), "{id}: different seeds must differ");
    }
}

/// Observation widths match the declared spaces on reset and on every
/// step, and the action-space list covers exactly the trained agents.
#[test]
fn observations_and_actions_match_declared_spaces() {
    for id in all_scenarios() {
        let mut env = id.make_env(AGENTS, EPISODE_LEN, 3);
        let spaces = env.observation_spaces().to_vec();
        let action_spaces = env.action_spaces().to_vec();
        assert_eq!(spaces.len(), env.trained_agents(), "{id}: one obs space per trained agent");
        assert_eq!(action_spaces.len(), env.trained_agents(), "{id}: one action space each");
        for s in &action_spaces {
            let segs = s.segments();
            assert_eq!(segs[0], 5, "{id}: movement factor is always the 5-way discrete");
            assert_eq!(s.flat_dim(), 5 + s.comm_dim(), "{id}: flat width = movement + comm");
        }
        let mut rng = StdRng::seed_from_u64(17);
        let mut obs = env.reset();
        for _ in 0..EPISODE_LEN {
            for (o, s) in obs.iter().zip(&spaces) {
                assert_eq!(o.len(), s.dim, "{id}: observation width vs declared space");
            }
            let actions = random_actions(&env, &mut rng);
            let step = env.step(&actions).expect("in-range actions step");
            obs = step.observations;
            if step.done {
                break;
            }
        }
        // Out-of-range joint actions are rejected, not silently wrapped.
        env.reset();
        let mut bad: Vec<usize> = action_spaces.iter().map(|s| s.joint_count()).collect();
        bad[0] = action_spaces[0].joint_count();
        assert!(env.step(&bad).is_err(), "{id}: out-of-range action must error");
    }
}

/// Rewards stay finite for every agent on every step of seeded random
/// play across several episodes.
#[test]
fn rewards_are_finite_under_random_play() {
    for id in all_scenarios() {
        let mut env = id.make_env(AGENTS, EPISODE_LEN, 11);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..3 {
            env.reset();
            loop {
                let actions = random_actions(&env, &mut rng);
                let step = env.step(&actions).expect("step");
                for (i, r) in step.rewards.iter().enumerate() {
                    assert!(r.is_finite(), "{id}: agent {i} reward {r} not finite");
                }
                if step.done {
                    break;
                }
            }
        }
    }
}

/// Every trained agent's observation in every world, as bits.
fn vec_obs_bits(env: &VecParticleEnv) -> Vec<Vec<u32>> {
    let spaces = env.observation_spaces();
    let mut out = Vec::new();
    for w in 0..env.world_count() {
        for (a, space) in spaces.iter().enumerate() {
            let mut o = vec![0.0f32; space.dim];
            env.observe_into(a, w, &mut o);
            out.push(o.iter().map(|x| x.to_bits()).collect());
        }
    }
    out
}

/// `observation_dim` is the width `observation_into` fills, for every
/// agent (scripted prey included) at every scale: the allocating
/// `observation` sizes its buffer by the formula and the body asserts it
/// filled exactly that many floats.
#[test]
fn observation_dim_matches_the_observation_body() {
    for id in all_scenarios() {
        for n in [1, 2, 3, 4, 6, 12, 24] {
            // Some scenarios need two or more agents; their factories
            // reject smaller teams.
            let Ok(scenario) = std::panic::catch_unwind(|| id.build(n)) else {
                continue;
            };
            let mut world = scenario.make_world();
            scenario.reset_world(&mut world, &mut StdRng::seed_from_u64(n as u64));
            for i in 0..world.agents.len() {
                let dim = scenario.observation_dim(&world, i);
                assert_eq!(scenario.observation(&world, i).len(), dim, "{id} N={n} agent {i}");
            }
        }
    }
}

/// World 0 does not depend on K: a same-seed one-world env replays it
/// bit for bit (observations, rewards, `done`) across episodes. The
/// checkpoint's single `env_rng` slot and every K = 1 pin rest on this.
#[test]
fn world_zero_matches_a_one_world_env_bitwise() {
    let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for id in all_scenarios() {
        for k in [3, 8] {
            let mut one = id.make_env(AGENTS, EPISODE_LEN, 5);
            let mut many = id.make_vec_env(AGENTS, EPISODE_LEN, 5, k);
            let n = one.trained_agents();
            let counts: Vec<usize> = one.action_spaces().iter().map(|s| s.joint_count()).collect();
            let mut rng = StdRng::seed_from_u64(23);
            let mut actions = vec![0usize; k * n];
            let mut rewards = vec![0.0f32; k * n];
            for episode in 0..2 {
                let mut obs = one.reset();
                many.reset();
                let mut done = false;
                for t in 0.. {
                    let world0 = &vec_obs_bits(&many)[..n];
                    assert_eq!(obs_bits(&obs), world0, "{id} K={k} ep {episode} t={t}: obs");
                    if done {
                        break;
                    }
                    for (i, a) in actions.iter_mut().enumerate() {
                        *a = rng.gen_range(0..counts[i % n]);
                    }
                    let step = one.step(&actions[..n]).expect("one-world step");
                    assert_eq!(many.step(&actions, &mut rewards), Ok(step.done), "{id} K={k}");
                    let want = bits(&step.rewards);
                    assert_eq!(bits(&rewards[..n]), want, "{id} K={k} ep {episode} t={t}: reward");
                    (obs, done) = (step.observations, step.done);
                }
            }
        }
    }
}

/// A step with one invalid action, in the last world, changes nothing:
/// no world's observations or state move, so the earlier agents'
/// utterances must not have been written.
#[test]
fn rejected_step_leaves_every_world_unchanged() {
    const K: usize = 2;
    for id in all_scenarios() {
        let mut env = id.make_vec_env(AGENTS, EPISODE_LEN, 9, K);
        let n = env.trained_agents();
        let counts: Vec<usize> = env.action_spaces().iter().map(|s| s.joint_count()).collect();
        let mut rewards = vec![0.0f32; K * n];
        env.reset();
        env.step(&vec![0; K * n], &mut rewards).expect("valid step");
        let obs = vec_obs_bits(&env);
        let worlds: Vec<Vec<u32>> = (0..K).map(|w| world_bits(env.world(w))).collect();
        // Every agent moves and says its last symbol, except the last
        // agent of the last world, whose action is out of range.
        let mut bad: Vec<usize> = (0..K * n).map(|i| counts[i % n] - 1).collect();
        bad[K * n - 1] = counts[n - 1];
        assert!(env.step(&bad, &mut rewards).is_err(), "{id}: out-of-range action must error");
        assert_eq!(vec_obs_bits(&env), obs, "{id}: a rejected step changed an observation");
        for (w, want) in worlds.iter().enumerate() {
            assert_eq!(&world_bits(env.world(w)), want, "{id}: a rejected step changed world {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One scalar SoA batch step equals one AoS [`World::step`] per
    /// world, bit for bit, for every registered scenario topology —
    /// including heterogeneous comm lanes, which must survive the
    /// gather → step → scatter transposition untouched. The SIMD kernel
    /// must agree bitwise when available.
    #[test]
    fn soa_step_matches_world_step_for_every_scenario(
        seed in any::<u64>(),
        scenario_pick in 0usize..6,
        k in 1usize..5,
        steps in 1usize..4,
    ) {
        let id = all_scenarios()[scenario_pick % all_scenarios().len()];
        let scenario = id.build(AGENTS);
        let mut rng = StdRng::seed_from_u64(seed);
        let worlds: Vec<World> = (0..k)
            .map(|w| {
                let mut world = scenario.make_world();
                scenario.reset_world(&mut world, &mut rng);
                // Exercise the comm lanes with per-agent distinct values.
                for (a, agent) in world.agents.iter_mut().enumerate() {
                    agent.action_force = marl_env::vec2::Vec2::new(
                        ((w * 7 + a) as f32).sin(),
                        ((w * 11 + a) as f32).cos(),
                    );
                    for (c, x) in agent.comm.iter_mut().enumerate() {
                        *x = (w * 100 + a * 10 + c) as f32 * 0.125;
                    }
                }
                world
            })
            .collect();
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
            prop_assert_eq!(world_bits(got), world_bits(want), "{} scalar world {}", id, w);
        }
        if kernels::simd_available() {
            let mut batch = SoaBatch::new(&worlds[0], k);
            let mut simd = worlds.clone();
            batch.gather(&simd);
            for _ in 0..steps {
                batch.step_with(KernelKind::Simd);
            }
            batch.scatter(&mut simd);
            for (w, (got, want)) in simd.iter().zip(&reference).enumerate() {
                prop_assert_eq!(world_bits(got), world_bits(want), "{} simd world {}", id, w);
            }
        }
    }
}
