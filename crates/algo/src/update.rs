//! The update pipeline: one *update all trainers* iteration — mini-batch
//! sampling, shared target actions, and the per-agent critic/actor
//! updates — with the persistent scratch it runs in.
//!
//! Work that is independent per plan or per agent (the gathers, the
//! agent updates) runs on `min(update_threads, N)` *lanes*: the N items
//! are cut in agent order into `⌈N / lanes⌉`-long chunks, and each lane
//! owns the state its chunk needs (one [`AgentScratch`], one phase
//! profile). One lane runs on the calling thread.

use crate::agent::AgentNets;
use crate::config::{Algorithm, TrainConfig};
use crate::error::TrainError;
use crate::trainer::Trainer;
use marl_core::indices::SamplePlan;
use marl_core::transition::{JointBatch, JointLayout, JointRows};
use marl_nn::gumbel::{relaxation_backward_segments_into, softmax_relaxation_segments_into};
use marl_nn::loss::{mse_into, td_errors_into, weighted_mse_into};
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;
use marl_nn::{BackwardNeed, InputGrad};
use marl_obs::metrics::{IS_WEIGHT_SCALE, PRIORITY_SCALE};
use marl_obs::Telemetry;
use marl_perf::phase::{Phase, PhaseProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::convert::Infallible;
use std::time::Instant;

impl Trainer {
    /// Runs one full *update all trainers* iteration (all N agent
    /// trainers) as a three-phase pipeline:
    ///
    /// 1. **Stage** — draw all N sampling plans (serially, on the master
    ///    RNG) and gather all N mini-batches straight into the critics'
    ///    joint rows, whole plans fanned out over the update lanes.
    /// 2. **Share** — compute every agent's target actions once per
    ///    staged batch and write them into the action columns of the
    ///    batch's joint next-state rows (the gather wrote the
    ///    observation columns). Target-policy smoothing noise comes from
    ///    per-agent RNG streams derived from the master seed, so the draw
    ///    sequence does not depend on the thread count.
    /// 3. **Fan out** — run the N per-agent critic/actor updates on the
    ///    `min(`[`TrainConfig::update_threads`]`, N)` update lanes. Each
    ///    lane takes a disjoint split-borrowed chunk of the agents, works
    ///    in its own scratch and accumulates phase timings in its own
    ///    profile, merged into the trainer's afterwards.
    ///
    /// Results are bitwise identical for every `update_threads` value.
    ///
    /// All working storage (plans, one staged batch per plan in the
    /// critic's layout, actor-input copies, one scratch per lane) lives
    /// in a persistent `UpdateScratch` arena: after the first iteration
    /// sizes every buffer, steady-state iterations perform no heap
    /// allocations on one lane.
    ///
    /// # Errors
    ///
    /// Propagates replay/sampler failures.
    pub fn update_all_trainers(&mut self) -> Result<(), TrainError> {
        let _fp = marl_nn::fp::flush_to_zero();
        let n = self.agents.len();
        let cfg = self.config;
        let matd3 = cfg.algorithm == Algorithm::Matd3;
        // Field-level borrow of the telemetry handle: every recording
        // below is wait-free and allocation-free (span ring + atomics),
        // preserving the steady-state zero-allocation guarantee.
        let tel = self.obs.as_deref();
        let update_start = tel.map(|t| t.tracer.now_ns());

        // --- Phase 1: mini-batch sampling. The common indices array of
        // each plan is applied to every agent's buffer (O(N·B) reads per
        // trainer, O(N²·B) for the full iteration). All N plans are drawn
        // up front so the gathers become embarrassingly parallel.
        let t0 = Instant::now();
        let sampling_start = tel.map(|t| {
            t.hw_window_begin();
            t.tracer.now_ns()
        });
        let replay_len = self.replay.len();
        for k in 0..n {
            self.sampler.plan_into(
                replay_len,
                cfg.batch_size,
                &mut self.rng,
                &mut self.scratch.plans[k],
            )?;
            let plan = &self.scratch.plans[k];
            self.telemetry.plans += 1;
            self.telemetry.random_jumps += plan.random_jumps() as u64;
            let rows = plan.batch_len() as u64;
            self.telemetry.rows_gathered += rows * n as u64;
            let bytes: u64 =
                self.replay.layouts().iter().map(|l| rows * l.row_bytes() as u64).sum();
            self.telemetry.bytes_gathered += bytes;
            if let Some(t) = tel {
                t.metrics.random_jumps.add(plan.random_jumps() as u64);
                t.metrics.gather_rows.add(rows * n as u64);
                t.metrics.gather_bytes.add(bytes);
                for seg in &plan.segments {
                    t.metrics.run_length.record(seg.len as u64);
                }
                if let Some(weights) = &plan.weights {
                    for &w in weights {
                        t.metrics.is_weight.record_scaled(w as f64, IS_WEIGHT_SCALE);
                    }
                }
            }
        }
        // Whole-plan gathers fan out over the update lanes.
        let replay = &self.replay;
        let UpdateScratch { plans, batches, lanes, .. } = &mut self.scratch;
        on_lanes(lanes, batches.iter_mut(), |_, k, batch| replay.sample_into(&plans[k], batch))?;
        if let Some(rec) = self.trace.as_mut() {
            for plan in &self.scratch.plans {
                rec.record_plan(plan);
            }
        }
        if let (Some(t), Some(start)) = (tel, sampling_start) {
            t.hw_window_end();
            t.metrics.replay_len.set(replay_len as f64);
            t.metrics.replay_occupancy.set(self.replay.occupancy());
            // Normalized priorities of the sampled rows (prioritized
            // strategies only — the first `None` ends the scan).
            let sampled =
                self.scratch.plans.iter().flat_map(|p| &p.segments).flat_map(|s| s.iter());
            for idx in sampled {
                match self.sampler.normalized_priority_of(idx, replay_len) {
                    Some(p) => t.metrics.norm_priority.record_scaled(f64::from(p), PRIORITY_SCALE),
                    None => break,
                }
            }
            t.tracer.record("mini-batch-sampling", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::MiniBatchSampling, t0.elapsed());

        // --- Phase 2: shared target actions. Every agent's target actor
        // proposes next actions for each staged batch exactly once (the
        // N×(N−1) cross-agent reads), instead of once per consuming
        // trainer; the lanes then only touch their own networks.
        let t0 = Instant::now();
        let targetq_start = tel.map(|t| t.tracer.now_ns());
        let noise = if matd3 { cfg.target_noise } else { 0.0 };
        let update_seed =
            marl_nn::rng::derive_seed(marl_nn::rng::derive_seed(cfg.seed, 2), self.updates);
        let cols = self.replay.joint_layout();
        let action_spaces = self.rollout.env().action_spaces();
        let agents = &self.agents;
        let UpdateScratch {
            batches, noise_streams, ta_obs, ta_logits, ta_value, ta_scratch, ..
        } = &mut self.scratch;
        for (j, stream) in noise_streams.iter_mut().enumerate() {
            // Reseeding in place draws the same sequence as a freshly
            // constructed stream, without allocating.
            *stream = StdRng::seed_from_u64(marl_nn::rng::derive_seed(update_seed, j as u64));
        }
        for batch in batches.iter_mut() {
            for (j, (a, stream)) in agents.iter().zip(noise_streams.iter_mut()).enumerate() {
                columns_into(&batch.joint_next, cols.obs_cols(j), ta_obs);
                a.target_actions_into(
                    ta_obs,
                    action_spaces[j].segments(),
                    cfg.temperature,
                    noise,
                    cfg.noise_clip,
                    stream,
                    ta_logits,
                    ta_value,
                    ta_scratch,
                );
                batch.joint_next.copy_columns_from(ta_value, cols.act_cols(j).start);
            }
        }
        self.telemetry.target_action_passes += n as u64;
        if let (Some(t), Some(start)) = (tel, targetq_start) {
            t.tracer.record("target-q-shared", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::TargetQ, t0.elapsed());

        // --- Phase 3: per-agent updates on the update lanes.
        let updates = self.updates;
        let UpdateScratch { plans, batches, indices, tds, losses, lanes, .. } = &mut self.scratch;
        let work = self
            .agents
            .iter_mut()
            .zip(batches.iter_mut())
            .zip(tds.iter_mut().zip(losses.iter_mut()));
        let Ok(()) = on_lanes(lanes, work, |lane, i, ((agent, batch), (td, loss))| {
            update_agent(
                agent,
                i,
                batch,
                plans[i].weights.as_deref(),
                &cfg,
                cols,
                action_spaces[i].segments(),
                updates,
                lane,
                td,
                loss,
                tel,
            );
            Ok::<(), Infallible>(())
        });
        for lane in lanes.iter_mut() {
            self.profile.merge(&std::mem::take(&mut lane.profile));
        }

        #[cfg(feature = "failpoints")]
        if crate::failpoint::take("update::tds") == Some(crate::failpoint::Fault::Nan) {
            tds[0][0] = f32::NAN;
        }

        // The sentinel vets TD errors *before* the priority refresh: a
        // NaN reaching a prioritized sampler's sum tree would abort the
        // process, whereas a Diverged error is recoverable.
        crate::sentinel::check_tds(tds, &cfg.sentinel, self.updates)
            .map_err(TrainError::Diverged)?;

        if let Some(rec) = self.trace.as_mut() {
            rec.record_losses(losses);
            rec.record_tds(tds);
        }

        // Priority refreshes happen in agent order after the lanes join,
        // so the sampler stays single-threaded.
        for (plan, td) in plans.iter().zip(tds.iter()) {
            plan.flatten_into(indices);
            self.sampler.update_priorities(indices, td);
        }

        // --- Target-network soft updates ---
        let t0 = Instant::now();
        let soft_start = tel.map(|t| t.tracer.now_ns());
        let do_target_update = self.config.algorithm == Algorithm::Maddpg
            || self.updates.is_multiple_of(self.config.policy_delay as u64);
        if do_target_update {
            for a in &mut self.agents {
                a.soft_update_targets(self.config.tau);
            }
        }
        if let (Some(t), Some(start)) = (tel, soft_start) {
            t.tracer.record("soft-update", 0, start, t.tracer.now_ns());
        }
        self.profile.add(Phase::SoftUpdate, t0.elapsed());
        crate::sentinel::check_agents(&self.agents, &cfg.sentinel, self.updates)
            .map_err(TrainError::Diverged)?;
        if let Some(rec) = self.trace.as_mut() {
            rec.record_params(&self.agents);
            rec.end_update(self.updates);
        }
        self.updates += 1;
        if let (Some(t), Some(start)) = (tel, update_start) {
            let end = t.tracer.now_ns();
            t.tracer.record("update-all-trainers", 0, start, end);
            t.metrics.update_ns.record(end.saturating_sub(start));
            t.metrics.updates.inc();
        }
        Ok(())
    }
}

/// Target-Q tail plus critic/actor update for one agent trainer.
///
/// Pure per-agent work: it reads its plan's staged mini-batch (the joint
/// next-state rows completed by phase 2) and importance weights, and
/// mutates only `agent`, the batch and the lane, so the N calls of one
/// iteration produce bitwise-identical results on any lane layout. The
/// P-loss writes agent i's policy actions into the batch's action
/// columns (see [`StagedBatch`]). Phase timings accumulate into the
/// lane's profile. The batch TD errors for the sampler's priority
/// refresh land in `td`, the scalar critic loss (twin included) in
/// `loss`; the refresh stays on the coordinating thread.
///
/// Every temporary lives in the lane's [`AgentScratch`], so a warmed
/// call touches no heap.
#[allow(clippy::too_many_arguments)]
fn update_agent(
    agent: &mut AgentNets,
    i: usize,
    batch: &mut StagedBatch,
    weights: Option<&[f32]>,
    cfg: &TrainConfig,
    cols: &JointLayout,
    segments: &[usize],
    updates: u64,
    lane: &mut Lane,
    td: &mut Vec<f32>,
    loss: &mut f32,
    tel: Option<&Telemetry>,
) {
    // Per-agent lane span: tid `1 + i` matches the trace lane metadata.
    let _span = tel.map(|t| t.tracer.span("agent-update", 1 + i as u32));
    let Lane { scratch: s, profile } = lane;
    let StagedBatch { joint, joint_next, rewards, dones } = batch;
    let rows = joint.rows();
    let matd3 = cfg.algorithm == Algorithm::Matd3;

    // --- Target Q calculation (per-agent tail) ---
    let t0 = Instant::now();
    agent.target_critic.forward_inference_into(joint_next, &mut s.tq, &mut s.nn);
    if let Some((_, t2)) = &agent.critic2 {
        t2.forward_inference_into(joint_next, &mut s.tq2, &mut s.nn);
        // Twin-critic minimum combats overestimation bias.
        for (a, b) in s.tq.as_mut_slice().iter_mut().zip(s.tq2.as_slice()) {
            *a = a.min(*b);
        }
    }
    s.y.resize(rows, 1);
    let own_rewards = &rewards[i * rows..(i + 1) * rows];
    for (r, (&reward, &done)) in own_rewards.iter().zip(dones.iter()).enumerate() {
        *s.y.at_mut(r, 0) = reward + cfg.gamma * (1.0 - done) * s.tq.at(r, 0);
    }
    profile.add(Phase::TargetQ, t0.elapsed());

    // --- Q loss (critic) + P loss (actor) ---
    let t0 = Instant::now();
    // The Q-loss critics and the actor are stepped and nobody reads their
    // input gradient: `InputGrad::None` never writes its destination, so
    // an empty (unallocated) matrix stands in for it.
    const PARAMS_ONLY: BackwardNeed = BackwardNeed { params: true, input: InputGrad::None };
    let mut unwritten = Matrix::default();

    // Critic 1.
    agent.critic.zero_grad();
    agent.critic.forward_into(joint, &mut s.q);
    *loss = match weights {
        Some(w) => weighted_mse_into(&s.q, &s.y, w, &mut s.grad),
        None => mse_into(&s.q, &s.y, &mut s.grad),
    };
    agent.critic.backward_need_into(&s.grad, PARAMS_ONLY, &mut unwritten, &mut s.nn);
    agent.critic_opt.step(&mut agent.critic);

    // Twin critic (MATD3).
    if let Some((c2, _)) = &mut agent.critic2 {
        c2.zero_grad();
        c2.forward_into(joint, &mut s.q2);
        let l2 = match weights {
            Some(w) => weighted_mse_into(&s.q2, &s.y, w, &mut s.grad),
            None => mse_into(&s.q2, &s.y, &mut s.grad),
        };
        *loss += l2;
        c2.backward_need_into(&s.grad, PARAMS_ONLY, &mut unwritten, &mut s.nn);
        agent.critic2_opt.as_mut().expect("twin optimizer").step(c2);
    }

    td_errors_into(&s.q, &s.y, td);

    // Policy update (delayed for MATD3).
    let do_policy = !matd3 || updates.is_multiple_of(cfg.policy_delay as u64);
    if do_policy {
        columns_into(joint, cols.obs_cols(i), &mut s.obs);
        agent.actor.forward_into(&s.obs, &mut s.logits);
        softmax_relaxation_segments_into(&s.logits, segments, cfg.temperature, &mut s.action);
        // Joint input with agent i's action replaced by its relaxed
        // current-policy action (each factor normalized on its own),
        // written in place: nothing reads the sampled actions again.
        let act = cols.act_cols(i);
        joint.copy_columns_from(&s.action, act.start);
        agent.critic.forward_into(joint, &mut s.q_pol);
        // Maximize Q ⇒ gradient −1/B on every Q output. Only dQ/da_i is
        // read: no critic step follows, so no parameter gradients, and of
        // the joint input gradient just agent i's action columns.
        s.grad_q.resize(rows, 1);
        s.grad_q.fill(-1.0 / rows as f32);
        let action_cols = InputGrad::Columns { start: act.start, width: act.len() };
        agent.critic.backward_need_into(
            &s.grad_q,
            BackwardNeed { params: false, input: action_cols },
            &mut s.grad_action,
            &mut s.nn,
        );
        relaxation_backward_segments_into(
            &s.grad_action,
            &s.action,
            segments,
            cfg.temperature,
            &mut s.grad_logits,
        );
        agent.actor.zero_grad();
        agent.actor.backward_need_into(&s.grad_logits, PARAMS_ONLY, &mut unwritten, &mut s.nn);
        agent.actor_opt.step(&mut agent.actor);
    }
    profile.add(Phase::QLossPLoss, t0.elapsed());
}

/// Persistent working storage for [`Trainer::update_all_trainers`].
///
/// Sized by the first iteration and refilled in place every iteration;
/// steady-state updates reuse all backing buffers instead of allocating.
#[derive(Debug)]
pub(crate) struct UpdateScratch {
    /// One sampling plan per agent trainer (its IS weights included).
    plans: Vec<SamplePlan>,
    /// One staged mini-batch per plan.
    batches: Vec<StagedBatch>,
    /// One plan's flattened indices, for the priority refresh.
    indices: Vec<usize>,
    /// Per-agent target-noise RNG streams, reseeded in place per update.
    noise_streams: Vec<StdRng>,
    /// Target-action working buffers (phase 2 runs on the coordinator):
    /// one agent's next observations, its target logits and actions.
    ta_obs: Matrix,
    ta_logits: Matrix,
    ta_value: Matrix,
    ta_scratch: Scratch,
    /// Per-agent TD errors of the current round.
    tds: Vec<Vec<f32>>,
    /// Per-agent critic losses of the current round (twin loss summed in
    /// for MATD3) — written by every update, read by the trace recorder.
    losses: Vec<f32>,
    /// `update_threads.clamp(1, N)` lanes, each serving a contiguous
    /// chunk of the agents.
    lanes: Vec<Lane>,
}

impl UpdateScratch {
    pub(crate) fn new(n: usize, update_threads: usize) -> Self {
        UpdateScratch {
            plans: (0..n).map(|_| SamplePlan::new()).collect(),
            batches: (0..n).map(|_| StagedBatch::default()).collect(),
            indices: Vec::new(),
            noise_streams: (0..n).map(|_| StdRng::seed_from_u64(0)).collect(),
            ta_obs: Matrix::default(),
            ta_logits: Matrix::default(),
            ta_value: Matrix::default(),
            ta_scratch: Scratch::new(),
            tds: (0..n).map(|_| Vec::new()).collect(),
            losses: vec![0.0; n],
            lanes: (0..update_threads.clamp(1, n)).map(|_| Lane::default()).collect(),
        }
    }
}

/// One plan's mini-batch in the critics' layout, as the replay gather
/// writes it ([`JointRows`]): `B × J` joint rows, `B × J` next-step joint
/// rows whose action columns phase 2 fills with target actions, `N × B`
/// agent-major rewards and agent 0's `B` done flags.
///
/// Phase 3 leaves agent i's action columns of plan i's `joint` holding
/// agent i's relaxed policy actions (its P-loss input), not the sampled
/// ones: agent i is the batch's only phase-3 reader, nothing reads it
/// afterwards, and the next gather overwrites every element.
#[derive(Debug, Default)]
struct StagedBatch {
    joint: Matrix,
    joint_next: Matrix,
    rewards: Vec<f32>,
    dones: Vec<f32>,
}

impl JointBatch for StagedBatch {
    fn rows_for(&mut self, plan: &SamplePlan, cols: &JointLayout) -> JointRows<'_> {
        let shape = (plan.batch_len(), cols.width());
        // Reshaped only when the shape changes: the gather and phase 2
        // overwrite every element, so no zero fill is needed.
        for m in [&mut self.joint, &mut self.joint_next] {
            if m.shape() != shape {
                m.resize(shape.0, shape.1);
            }
        }
        self.rewards.resize(cols.agents() * shape.0, 0.0);
        self.dones.resize(shape.0, 0.0);
        JointRows {
            joint: self.joint.as_mut_slice(),
            joint_next: self.joint_next.as_mut_slice(),
            rewards: &mut self.rewards,
            dones: &mut self.dones,
        }
    }
}

/// Copies the column block `cols` of `src` into `out` (`src.rows() ×
/// cols.len()`): an actor's dense input cut from joint rows.
fn columns_into(src: &Matrix, cols: std::ops::Range<usize>, out: &mut Matrix) {
    if out.shape() != (src.rows(), cols.len()) {
        out.resize(src.rows(), cols.len());
    }
    for r in 0..src.rows() {
        out.row_mut(r).copy_from_slice(&src.row(r)[cols.clone()]);
    }
}

/// Temporaries of one [`update_agent`] call, reused by every agent of
/// the lane that owns it, so lanes share nothing.
#[derive(Debug, Default)]
struct AgentScratch {
    /// Arena for MLP forward/backward temporaries.
    nn: Scratch,
    tq: Matrix,
    tq2: Matrix,
    y: Matrix,
    q: Matrix,
    q2: Matrix,
    grad: Matrix,
    /// The agent's own observations, its actor's input.
    obs: Matrix,
    logits: Matrix,
    action: Matrix,
    q_pol: Matrix,
    grad_q: Matrix,
    grad_action: Matrix,
    grad_logits: Matrix,
}

/// One update lane's own state: the scratch of the agent update it is
/// running and the phase timings it accumulates, merged into the
/// trainer's profile after each fan-out.
#[derive(Debug, Default)]
struct Lane {
    scratch: AgentScratch,
    profile: PhaseProfile,
}

/// Runs `f(lane, i, item)` for every item, in order, with item `i` on
/// `lanes[i / chunk]` where `chunk = ⌈N / lanes⌉`: the items are cut in
/// agent order into contiguous chunks, each paired with its lane's state.
/// When one chunk holds everything the call runs inline on the caller —
/// no spawn, no allocation. Otherwise each non-empty chunk runs on its
/// own scoped thread. Returns the error of the first failing lane (lane
/// order), after every lane has finished.
///
/// # Panics
///
/// Panics if `lanes` is empty while there are items, or if a lane
/// panicked.
fn on_lanes<L, T, E>(
    lanes: &mut [L],
    items: impl ExactSizeIterator<Item = T>,
    f: impl Fn(&mut L, usize, T) -> Result<(), E> + Sync,
) -> Result<(), E>
where
    L: Send,
    T: Send,
    E: Send,
{
    let n = items.len();
    if n == 0 {
        return Ok(());
    }
    let chunk = n.div_ceil(lanes.len());
    let mut items = items.enumerate();
    if chunk == n {
        let lane = &mut lanes[0];
        return items.try_for_each(|(i, item)| f(lane, i, item));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .take(n.div_ceil(chunk))
            .map(|lane| {
                let mine: Vec<(usize, T)> = items.by_ref().take(chunk).collect();
                scope.spawn(move || {
                    // The lane's own scope: whether a new thread inherits
                    // the mode is up to the OS.
                    let _fp = marl_nn::fp::flush_to_zero();
                    mine.into_iter().try_for_each(|(i, item)| f(lane, i, item))
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("update lane panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_take_contiguous_chunks_in_agent_order() {
        for n in [0usize, 1, 2, 5, 7, 12] {
            for lanes in [1usize, 2, 3, 4, 16] {
                let mut seen: Vec<Vec<(usize, usize)>> = vec![Vec::new(); lanes];
                let items = (0..n).map(|i| 100 + i);
                on_lanes(&mut seen, items, |lane, i, item| {
                    lane.push((i, item));
                    Ok::<(), Infallible>(())
                })
                .unwrap();
                let chunk = n.div_ceil(lanes).max(1);
                for (l, got) in seen.iter().enumerate() {
                    let want: Vec<_> =
                        (0..n).filter(|i| i / chunk == l).map(|i| (i, 100 + i)).collect();
                    assert_eq!(got, &want, "n={n} lanes={lanes} lane={l}");
                }
            }
        }
    }

    #[test]
    fn a_failing_item_fails_the_fan_out_and_stops_its_lane() {
        // Items 0..6 on 1 or 3 lanes; items 1 and 4 fail.
        for (lanes, visits) in [(1usize, vec![2usize]), (3, vec![2, 2, 1])] {
            let mut state = vec![0usize; lanes];
            let out = on_lanes(&mut state, 0..6usize, |visits, i, _| {
                *visits += 1;
                if i % 3 == 1 {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            // The first failing lane's error; later lanes still ran.
            assert_eq!(out, Err(1), "lanes={lanes}");
            assert_eq!(state, visits, "lanes={lanes}");
        }
    }

    #[test]
    fn the_scratch_holds_one_agent_scratch_per_lane() {
        for (threads, lanes) in [(0usize, 1usize), (1, 1), (2, 2), (3, 3), (16, 3)] {
            assert_eq!(UpdateScratch::new(3, threads).lanes.len(), lanes, "threads={threads}");
        }
    }
}
