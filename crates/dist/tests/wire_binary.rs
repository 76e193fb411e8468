//! The binary hot-path frames (`Steps`, `Params`): bit-exact round trips,
//! all-or-nothing in-place installs, and the zero-allocation steady state
//! of the worker's two per-step/per-update operations.
//!
//! The allocation counter is per thread, so the suites of this binary
//! can run side by side.

use marl_algo::agent::AgentNets;
use marl_core::transition::TransitionRef;
use marl_dist::wire::{decode_frame, encode_frame, ActorParams, Msg, Params, StepRows, Steps};
use marl_dist::DistError;
use marl_env::spaces::ActionSpace;
use marl_env::ScenarioId;
use marl_nn::activation::Activation;
use marl_nn::init::Init;
use marl_nn::mlp::Mlp;
use marl_obs::context::TraceCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations and reallocations this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.take()).expect("counter was armed")
}

/// Per-agent `(obs_dim, act_dim)` of a 3-agent scenario.
fn dims_of(id: ScenarioId) -> Vec<(usize, usize)> {
    let env = id.make_env(3, 25, 0);
    let obs = env.observation_spaces().into_iter().map(|s| s.dim);
    obs.zip(env.action_spaces().iter().map(ActionSpace::flat_dim)).collect()
}

/// Fresh networks for every agent of `dims`, as a worker builds them.
fn agents_for(dims: &[(usize, usize)], seed: u64) -> Vec<AgentNets> {
    let joint: usize = dims.iter().map(|&(o, a)| o + a).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    dims.iter().map(|&(o, a)| AgentNets::new(o, a, joint, false, 0.01, &mut rng)).collect()
}

/// The live actors of fresh networks for `dims`: what a worker holds.
fn actors_for(dims: &[(usize, usize)], seed: u64) -> Vec<Mlp> {
    agents_for(dims, seed).into_iter().map(|a| a.actor).collect()
}

fn bits(net: &Mlp) -> Vec<u32> {
    net.params().iter().map(|x| x.to_bits()).collect()
}

fn actor_bits<'a>(actors: impl IntoIterator<Item = &'a Mlp>) -> Vec<Vec<u32>> {
    actors.into_iter().map(bits).collect()
}

fn agent_actor_bits(agents: &[AgentNets]) -> Vec<Vec<u32>> {
    actor_bits(agents.iter().map(|a| &a.actor))
}

fn roundtrip(msg: &Msg) -> Msg {
    decode_frame(&encode_frame(msg)).expect("own frame decodes")
}

/// Values a text codec loses or normalizes: NaNs with payloads, negative
/// zero, subnormals, infinities.
const AWKWARD: [u32; 6] =
    [0x7FC0_1234, 0xFFA5_5AA5, 0x8000_0000, 0x0000_0001, 0x807F_FFFF, 0x7F80_0000];

fn check_params_roundtrip(dims: &[(usize, usize)]) {
    let mut src = agents_for(dims, 1);
    for nets in &mut src {
        // Awkward values at both ends of every weight and bias tensor.
        let widths = nets.actor.widths().to_vec();
        let tensors = widths.windows(2).flat_map(|w| [w[0] * w[1], w[1]]);
        let (mut k, mut start) = (0, 0);
        for len in tensors {
            for at in [start, start + len - 1] {
                nets.actor.params_mut()[at] = f32::from_bits(AWKWARD[k % AWKWARD.len()]);
                k += 1;
            }
            start += len;
        }
    }
    let sent = Params {
        epoch: 41,
        actors: ActorParams::capture(src.iter().map(|a| &a.actor)),
        master_rng: Some([9, 8, 7, 6]),
        ctx: None,
    };
    let Msg::Params(got) = roundtrip(&Msg::Params(Box::new(sent))) else {
        panic!("params decoded as another kind");
    };
    assert_eq!((got.epoch, got.master_rng, got.ctx), (41, Some([9, 8, 7, 6]), None));
    assert_eq!(got.actors.agent_count(), dims.len());

    let mut dst = actors_for(dims, 2);
    assert_ne!(actor_bits(&dst), agent_actor_bits(&src));
    got.actors.install(&mut dst).expect("same architecture installs");
    assert_eq!(actor_bits(&dst), agent_actor_bits(&src), "every weight and bias bit-for-bit");
}

#[test]
fn params_roundtrip_is_bit_exact_for_predator_prey() {
    let dims = dims_of(ScenarioId::PredatorPrey);
    assert_eq!(dims, [(16, 5); 3]);
    check_params_roundtrip(&dims);
}

#[test]
fn params_roundtrip_is_bit_exact_for_world_comm_heterogeneous_heads() {
    let dims = dims_of(ScenarioId::WorldComm);
    assert_eq!(dims, [(16, 9), (20, 5), (20, 5)]);
    check_params_roundtrip(&dims);
}

/// The CRC-32 and length of a whole encoded `Params` frame for freshly
/// seeded actors: the frame's bytes are the wire contract, so a change
/// to how actors are stored or captured must leave them exactly here.
fn params_frame_pin(id: ScenarioId) -> (u32, usize) {
    let agents = agents_for(&dims_of(id), 17);
    let msg = Msg::Params(Box::new(Params {
        epoch: 3,
        actors: ActorParams::capture(agents.iter().map(|a| &a.actor)),
        master_rng: Some([11, 12, 13, 14]),
        ctx: None,
    }));
    let frame = encode_frame(&msg);
    (marl_core::crc32::crc32(&frame), frame.len())
}

#[test]
fn params_frame_bytes_are_pinned() {
    assert_eq!(params_frame_pin(ScenarioId::PredatorPrey), (0xB889_6BA0, 67_021), "predator-prey");
    assert_eq!(params_frame_pin(ScenarioId::WorldComm), (0x25B3_38E3, 70_109), "world-comm");
}

#[test]
fn params_optional_blocks_roundtrip_independently() {
    let src = agents_for(&[(4, 3)], 5);
    let ctx = TraceCtx { trace_id: 1, span_id: 2, send_ns: 3 };
    for (master_rng, ctx) in [
        (None, None),
        (Some([1, 2, 3, 4]), None),
        (None, Some(ctx)),
        (Some([1, 2, 3, 4]), Some(ctx)),
    ] {
        let sent = Params {
            epoch: u64::MAX,
            actors: ActorParams::capture(src.iter().map(|a| &a.actor)),
            master_rng,
            ctx,
        };
        let Msg::Params(got) = roundtrip(&Msg::Params(Box::new(sent.clone()))) else {
            panic!("params decoded as another kind");
        };
        assert_eq!(*got, sent);
    }
}

/// A block of `n` joint steps whose every float is distinct, with the
/// awkward bit patterns mixed in.
fn numbered_rows(dims: &[(usize, usize)], n: usize) -> StepRows {
    let mut rows = StepRows::new(dims.iter().copied());
    let mut next = 0u32;
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                next += 1;
                if next.is_multiple_of(7) {
                    f32::from_bits(AWKWARD[next as usize % AWKWARD.len()])
                } else {
                    next as f32 * 0.25
                }
            })
            .collect()
    };
    for step in 0..n {
        let parts: Vec<[Vec<f32>; 3]> =
            dims.iter().map(|&(o, a)| [fill(o), fill(a), fill(o)]).collect();
        rows.push_step(|agent| TransitionRef {
            obs: &parts[agent][0],
            action: &parts[agent][1],
            reward: -(step as f32),
            next_obs: &parts[agent][2],
            done: f32::from(step + 1 == n),
        });
    }
    rows
}

fn row_bits(rows: &StepRows) -> Vec<Vec<u32>> {
    rows.steps().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
}

#[test]
fn steps_roundtrip_rows_of_unequal_width_and_every_optional_block() {
    // World-comm: observation and action widths both differ by agent.
    let dims = dims_of(ScenarioId::WorldComm);
    let rows = numbered_rows(&dims, 10);
    assert_eq!(rows.len(), 10);
    let ctx = TraceCtx { trace_id: 0xAB, span_id: 0xCD, send_ns: 123 };
    for (rng, ctx, sync) in [
        (None, None, false),
        (Some([11, 12, 13, 14]), None, true),
        (None, Some(ctx), false),
        (Some([11, 12, 13, 14]), Some(ctx), true),
    ] {
        let sent = Steps { worker_id: 6, epoch: 17, seq: 99, rows: rows.clone(), rng, sync, ctx };
        let Msg::Steps(got) = roundtrip(&Msg::Steps(sent.clone())) else {
            panic!("steps decoded as another kind");
        };
        assert_eq!(
            (got.worker_id, got.epoch, got.seq, got.rng, got.sync, got.ctx),
            (6, 17, 99, rng, sync, ctx)
        );
        assert_eq!(got.rows.dims(), sent.rows.dims());
        assert_eq!(got.rows.len(), 10);
        // Bitwise, not `==`: the rows carry NaNs.
        assert_eq!(row_bits(&got.rows), row_bits(&sent.rows));
    }
    // The empty block (a heartbeat-sized frame) round-trips too.
    let empty = Steps {
        worker_id: 1,
        epoch: 0,
        seq: 1,
        rows: StepRows::default(),
        rng: None,
        sync: false,
        ctx: None,
    };
    let Msg::Steps(got) = roundtrip(&Msg::Steps(empty.clone())) else {
        panic!("steps decoded as another kind");
    };
    assert_eq!(got, empty);
}

/// Every class of f32 bit pattern the bulk float copy must carry
/// untouched: quiet and signalling NaNs of both signs with payload bits,
/// ±0, ±∞, subnormals of both signs, and the largest finite value.
const SPECIALS: [u32; 14] = [
    0x7FC0_0000, // quiet NaN, no payload
    0x7FC0_1234, // quiet NaN with payload
    0xFFC0_0001, // negative quiet NaN with payload
    0x7F80_0001, // signalling NaN, lowest payload
    0x7FA5_5AA5, // signalling NaN with payload
    0xFFA5_5AA5, // negative signalling NaN with payload
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x0000_0001, // smallest subnormal
    0x807F_FFFF, // largest negative subnormal
    0x0040_0000, // mid subnormal
    0x7F7F_FFFF, // f32::MAX
];

/// The next value of `SPECIALS`, cycling.
fn special(next: &mut usize) -> f32 {
    *next += 1;
    f32::from_bits(SPECIALS[*next % SPECIALS.len()])
}

#[test]
fn every_float_of_params_and_steps_survives_bit_for_bit() {
    let dims = dims_of(ScenarioId::WorldComm);
    let mut next = 0;

    // Params: every weight and bias of every actor is a special value.
    let mut src = agents_for(&dims, 1);
    for nets in &mut src {
        nets.actor.params_mut().iter_mut().for_each(|x| *x = special(&mut next));
    }
    let Msg::Params(got) = roundtrip(&Msg::Params(Box::new(Params {
        epoch: 3,
        actors: ActorParams::capture(src.iter().map(|a| &a.actor)),
        master_rng: None,
        ctx: None,
    }))) else {
        panic!("params decoded as another kind");
    };
    let mut dst = actors_for(&dims, 2);
    got.actors.install(&mut dst).expect("same architecture installs");
    assert_eq!(actor_bits(&dst), agent_actor_bits(&src));

    // Steps: every observation, action, reward and done is a special value.
    let mut rows = StepRows::new(dims.iter().copied());
    for _ in 0..7 {
        let mut fill = |len: usize| -> Vec<f32> { (0..len).map(|_| special(&mut next)).collect() };
        let parts: Vec<[Vec<f32>; 4]> =
            dims.iter().map(|&(o, a)| [fill(o), fill(a), fill(o), fill(2)]).collect();
        rows.push_step(|agent| TransitionRef {
            obs: &parts[agent][0],
            action: &parts[agent][1],
            reward: parts[agent][3][0],
            next_obs: &parts[agent][2],
            done: parts[agent][3][1],
        });
    }
    let sent = Steps { worker_id: 2, epoch: 3, seq: 4, rows, rng: None, sync: false, ctx: None };
    let Msg::Steps(got) = roundtrip(&Msg::Steps(sent.clone())) else {
        panic!("steps decoded as another kind");
    };
    assert_eq!(row_bits(&got.rows), row_bits(&sent.rows));
    let seen: std::collections::BTreeSet<u32> = row_bits(&got.rows).into_iter().flatten().collect();
    assert!(SPECIALS.iter().all(|b| seen.contains(b)), "every pattern was on the wire");
}

#[test]
fn a_misfit_install_is_a_protocol_error_and_writes_nothing() {
    let dims = dims_of(ScenarioId::PredatorPrey);
    let donor = agents_for(&dims, 1);
    let actor = |i: usize| &donor[i].actor;
    let mut rng = StdRng::seed_from_u64(3);
    // Same input/output widths as agent 2's actor, one hidden layer fewer.
    let shallow = Mlp::new(&[16, 64, 5], Activation::Relu, Init::HeUniform, &mut rng);
    // Same depth as agent 2's actor, a narrower observation.
    let narrow = Mlp::two_layer_relu(12, 5, &mut rng);
    // In each misfit the *last* actor is the wrong one, so an install that
    // wrote as it went would have overwritten agents 0 and 1 by then.
    let misfits = [
        ("agent count", ActorParams::capture([actor(0), actor(1)])),
        ("agent count", ActorParams::capture([actor(0), actor(1), actor(2), actor(2)])),
        ("layer count", ActorParams::capture([actor(0), actor(1), &shallow])),
        ("layer shape", ActorParams::capture([actor(0), actor(1), &narrow])),
    ];
    for (what, params) in misfits {
        let mut worker_nets = actors_for(&dims, 2);
        let before = actor_bits(&worker_nets);
        let err = params.install(&mut worker_nets).expect_err(what);
        assert!(matches!(err, DistError::Protocol(_)), "{what}: {err}");
        assert_eq!(actor_bits(&worker_nets), before, "{what}: nets must be untouched");
    }
}

#[test]
fn steady_state_install_and_step_accumulate_allocate_nothing() {
    let dims = dims_of(ScenarioId::PredatorPrey);
    let learner_nets = agents_for(&dims, 1);
    let mut worker_nets = actors_for(&dims, 2);
    let Msg::Params(params) = roundtrip(&Msg::Params(Box::new(Params {
        epoch: 1,
        actors: ActorParams::capture(learner_nets.iter().map(|a| &a.actor)),
        master_rng: None,
        ctx: None,
    }))) else {
        panic!("params decoded as another kind");
    };
    let mut pending = StepRows::new(dims.iter().copied());
    let (obs, action) = ([0.5f32; 16], [0.0, 1.0, 0.0, 0.0, 0.0]);
    let one_update_cycle = |pending: &mut StepRows, nets: &mut [Mlp]| {
        // What a lockstep worker does between two broadcasts: 100 joint
        // steps into the pending block, a flush, an install.
        for step in 0..100 {
            pending.push_step(|a| TransitionRef {
                obs: &obs[..dims[a].0],
                action: &action,
                reward: step as f32,
                next_obs: &obs[..dims[a].0],
                done: 0.0,
            });
        }
        assert_eq!(pending.len(), 100);
        pending.clear();
        params.actors.install(nets).expect("same architecture installs");
    };
    // The first cycle sizes the row buffer.
    one_update_cycle(&mut pending, &mut worker_nets);
    let allocations = allocations_in(|| {
        for _ in 0..3 {
            one_update_cycle(&mut pending, &mut worker_nets);
        }
    });
    assert_eq!(allocations, 0, "steady-state accumulate + install must not touch the heap");
    assert_eq!(actor_bits(&worker_nets), agent_actor_bits(&learner_nets));
    // The counter is live: the same work from cold does allocate.
    let mut cold = StepRows::new(dims.iter().copied());
    assert!(allocations_in(|| one_update_cycle(&mut cold, &mut worker_nets)) > 0);
}
