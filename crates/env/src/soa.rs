//! Struct-of-arrays physics over K worlds at once.
//!
//! [`World::step`] walks `Vec<Agent>` pointer-chasing one world at a time;
//! the O(E²) pairwise contact loop dominates rollout once the update path
//! is SIMD-accelerated. [`SoaBatch`] transposes the *same* physics into
//! contiguous per-component lanes across K worlds (lane index `e·K + w`),
//! so one pass over a pair `(i, j)` evaluates the contact force for every
//! world with 8-wide AVX2 arithmetic.
//!
//! ## Bitwise equivalence contract
//!
//! The batch is an accelerator, not a reimplementation: for every world
//! `w`, one [`SoaBatch::step`] produces bit-identical positions and
//! velocities to one [`World::step`] on that world alone, on both the
//! scalar and the SIMD path. The golden traces depend on this. The rules
//! that make it hold:
//!
//! * **No FMA.** `a*b + c` contracted to one fused op rounds differently;
//!   every kernel uses separate IEEE mul/add (`avx2` feature only).
//! * **No value-dependent skips.** Entity metadata (collide/movable/
//!   max_speed) is identical across worlds, so entity-level branches are
//!   uniform and mirror the scalar loop's `continue`s exactly; nothing is
//!   skipped based on per-world values (e.g. near-zero forces are still
//!   added, preserving `-0.0` accumulator behaviour).
//! * **Branchy scalar math stays scalar.** `softplus` has fast-path
//!   compares, so the SIMD kernel evaluates it per lane on a stack array;
//!   everything around it (sub/mul/div/sqrt/max/blend) is exact in vector
//!   form.
//! * **Same accumulation order.** Control forces, then agent pairs in
//!   `(i, j>i)` order, then agent × landmark in declaration order — float
//!   addition is not associative, so the order is part of the contract.

use crate::entity::Agent;
use crate::world::{softplus, Physics, World};
use marl_nn::kernels::{self, KernelKind};

/// Struct-of-arrays state for K identically-shaped worlds.
///
/// Built once from a template world; per step the caller [`gather`]s the
/// live AoS state, [`step`]s the batch, and [`scatter`]s positions and
/// velocities back. All buffers are allocated up front — the per-step
/// path never touches the heap.
///
/// [`gather`]: SoaBatch::gather
/// [`step`]: SoaBatch::step
/// [`scatter`]: SoaBatch::scatter
#[derive(Debug, Clone)]
pub struct SoaBatch {
    worlds: usize,
    agents: usize,
    landmarks: usize,
    physics: Physics,
    // Per-agent lanes, length `agents * worlds`, index `a * worlds + w`.
    px: Vec<f32>,
    py: Vec<f32>,
    vx: Vec<f32>,
    vy: Vec<f32>,
    afx: Vec<f32>,
    afy: Vec<f32>,
    fx: Vec<f32>,
    fy: Vec<f32>,
    // Per-landmark lanes, length `landmarks * worlds`.
    lpx: Vec<f32>,
    lpy: Vec<f32>,
    // Communication lanes: agent `a`'s comm channel `c` lives at
    // `(comm_off[a] + c) * worlds + w`. Comm widths may differ per agent
    // (heterogeneous action spaces), hence the prefix-sum offsets.
    // Physics never reads these — they are pure gather/scatter copies, so
    // vectorized comm is bitwise-trivially equal to the scalar path.
    comm: Vec<f32>,
    comm_off: Vec<usize>,
    // Per-agent metadata, identical across worlds (length `agents`).
    accel: Vec<f32>,
    size: Vec<f32>,
    max_speed: Vec<f32>, // `None` encoded as +∞: `n > ∞` is never true
    collide: Vec<bool>,
    movable: Vec<bool>,
    // Per-landmark metadata (length `landmarks`).
    lsize: Vec<f32>,
    lcollide: Vec<bool>,
}

impl SoaBatch {
    /// Builds the batch for `worlds` copies of `template`'s topology,
    /// capturing entity metadata and physics constants.
    ///
    /// # Panics
    ///
    /// Panics if `worlds == 0`.
    pub fn new(template: &World, worlds: usize) -> Self {
        assert!(worlds > 0, "need at least one world");
        let agents = template.agents.len();
        let landmarks = template.landmarks.len();
        let meta = |f: fn(&Agent) -> f32| template.agents.iter().map(f).collect::<Vec<_>>();
        let mut comm_off = Vec::with_capacity(agents + 1);
        let mut total_comm = 0;
        for a in &template.agents {
            comm_off.push(total_comm);
            total_comm += a.comm.len();
        }
        comm_off.push(total_comm);
        SoaBatch {
            worlds,
            agents,
            landmarks,
            physics: template.physics,
            px: vec![0.0; agents * worlds],
            py: vec![0.0; agents * worlds],
            vx: vec![0.0; agents * worlds],
            vy: vec![0.0; agents * worlds],
            afx: vec![0.0; agents * worlds],
            afy: vec![0.0; agents * worlds],
            fx: vec![0.0; agents * worlds],
            fy: vec![0.0; agents * worlds],
            lpx: vec![0.0; landmarks * worlds],
            lpy: vec![0.0; landmarks * worlds],
            comm: vec![0.0; total_comm * worlds],
            comm_off,
            accel: meta(|a| a.accel),
            size: meta(|a| a.size),
            max_speed: meta(|a| a.max_speed.unwrap_or(f32::INFINITY)),
            collide: template.agents.iter().map(|a| a.collide).collect(),
            movable: template.agents.iter().map(|a| a.movable).collect(),
            lsize: template.landmarks.iter().map(|l| l.size).collect(),
            lcollide: template.landmarks.iter().map(|l| l.collide).collect(),
        }
    }

    /// Number of worlds (K).
    pub fn world_count(&self) -> usize {
        self.worlds
    }

    /// Agents per world.
    pub fn agent_count(&self) -> usize {
        self.agents
    }

    /// Landmarks per world.
    pub fn landmark_count(&self) -> usize {
        self.landmarks
    }

    /// Copies positions, velocities, action forces and landmark positions
    /// from the AoS worlds into the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` disagrees with the batch topology.
    pub fn gather(&mut self, worlds: &[World]) {
        let k = self.worlds;
        assert_eq!(worlds.len(), k, "world count mismatch");
        for (w, world) in worlds.iter().enumerate() {
            assert_eq!(world.agents.len(), self.agents, "agent count mismatch");
            assert_eq!(world.landmarks.len(), self.landmarks, "landmark count mismatch");
            for (a, agent) in world.agents.iter().enumerate() {
                let i = a * k + w;
                self.px[i] = agent.state.position.x;
                self.py[i] = agent.state.position.y;
                self.vx[i] = agent.state.velocity.x;
                self.vy[i] = agent.state.velocity.y;
                self.afx[i] = agent.action_force.x;
                self.afy[i] = agent.action_force.y;
                debug_assert_eq!(
                    agent.comm.len(),
                    self.comm_off[a + 1] - self.comm_off[a],
                    "comm width mismatch for agent {a}"
                );
                for (c, &v) in agent.comm.iter().enumerate() {
                    self.comm[(self.comm_off[a] + c) * k + w] = v;
                }
            }
            for (l, landmark) in world.landmarks.iter().enumerate() {
                let i = l * k + w;
                self.lpx[i] = landmark.state.position.x;
                self.lpy[i] = landmark.state.position.y;
            }
        }
    }

    /// Writes positions and velocities back into the AoS worlds (the exact
    /// inverse of [`SoaBatch::gather`] for those components).
    ///
    /// # Panics
    ///
    /// Panics if `worlds` disagrees with the batch topology.
    pub fn scatter(&self, worlds: &mut [World]) {
        let k = self.worlds;
        assert_eq!(worlds.len(), k, "world count mismatch");
        for (w, world) in worlds.iter_mut().enumerate() {
            assert_eq!(world.agents.len(), self.agents, "agent count mismatch");
            for (a, agent) in world.agents.iter_mut().enumerate() {
                let i = a * k + w;
                agent.state.position.x = self.px[i];
                agent.state.position.y = self.py[i];
                agent.state.velocity.x = self.vx[i];
                agent.state.velocity.y = self.vy[i];
                for (c, v) in agent.comm.iter_mut().enumerate() {
                    *v = self.comm[(self.comm_off[a] + c) * k + w];
                }
            }
        }
    }

    /// Advances all K worlds by one physics step on the process-wide active
    /// kernel (see [`marl_nn::kernels::active`]).
    pub fn step(&mut self) {
        self.step_with(kernels::active());
    }

    /// Advances all K worlds on an explicit kernel (tests and benchmarks).
    pub fn step_with(&mut self, kind: KernelKind) {
        #[cfg(target_arch = "x86_64")]
        if kind != KernelKind::Scalar && kernels::simd_available() {
            // SAFETY: AVX2 verified above.
            unsafe { self.step_avx2() };
            return;
        }
        let _ = kind;
        self.step_scalar();
    }

    fn step_scalar(&mut self) {
        let k = self.worlds;
        let Physics { dt, damping, contact_force, contact_margin } = self.physics;
        self.fx.fill(0.0);
        self.fy.fill(0.0);

        // Control forces.
        for a in 0..self.agents {
            if !self.movable[a] {
                continue;
            }
            let acc = self.accel[a];
            let base = a * k;
            for w in 0..k {
                self.fx[base + w] += self.afx[base + w] * acc;
                self.fy[base + w] += self.afy[base + w] * acc;
            }
        }

        // Agent-agent soft contact forces.
        for i in 0..self.agents {
            if !self.collide[i] {
                continue;
            }
            for j in (i + 1)..self.agents {
                if !self.collide[j] {
                    continue;
                }
                let dmin = self.size[i] + self.size[j];
                let (bi, bj) = (i * k, j * k);
                for w in 0..k {
                    let dx = self.px[bi + w] - self.px[bj + w];
                    let dy = self.py[bi + w] - self.py[bj + w];
                    let dist = (dx * dx + dy * dy).sqrt().max(1e-8);
                    let pen = softplus(-(dist - dmin) / contact_margin) * contact_margin;
                    let coef = contact_force * pen / dist;
                    let fxi = dx * coef;
                    let fyi = dy * coef;
                    self.fx[bi + w] += fxi;
                    self.fy[bi + w] += fyi;
                    self.fx[bj + w] += -fxi;
                    self.fy[bj + w] += -fyi;
                }
            }
        }

        // Agent-landmark contact forces (agent side only).
        for a in 0..self.agents {
            if !self.collide[a] {
                continue;
            }
            let ba = a * k;
            for l in 0..self.landmarks {
                if !self.lcollide[l] {
                    continue;
                }
                let dmin = self.size[a] + self.lsize[l];
                let bl = l * k;
                for w in 0..k {
                    let dx = self.px[ba + w] - self.lpx[bl + w];
                    let dy = self.py[ba + w] - self.lpy[bl + w];
                    let dist = (dx * dx + dy * dy).sqrt().max(1e-8);
                    let pen = softplus(-(dist - dmin) / contact_margin) * contact_margin;
                    let coef = contact_force * pen / dist;
                    self.fx[ba + w] += dx * coef;
                    self.fy[ba + w] += dy * coef;
                }
            }
        }

        // Integrate: damped Euler with norm clamping.
        for a in 0..self.agents {
            if !self.movable[a] {
                continue;
            }
            let ms = self.max_speed[a];
            let base = a * k;
            for w in 0..k {
                let mut vx = self.vx[base + w] * (1.0 - damping) + self.fx[base + w] * dt;
                let mut vy = self.vy[base + w] * (1.0 - damping) + self.fy[base + w] * dt;
                let n = (vx * vx + vy * vy).sqrt();
                if n > ms && n > 0.0 {
                    let s = ms / n;
                    vx *= s;
                    vy *= s;
                }
                self.vx[base + w] = vx;
                self.vy[base + w] = vy;
                self.px[base + w] += vx * dt;
                self.py[base + w] += vy * dt;
            }
        }
    }

    /// 8-wide AVX2 step across worlds. Only `avx2` is enabled — no FMA —
    /// so every vector op rounds identically to its scalar counterpart
    /// (see the module docs for the full equivalence argument).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn step_avx2(&mut self) {
        use std::arch::x86_64::*;

        /// `contact_force * softplus(-(dist - dmin)/margin) * margin / dist`
        /// for 8 worlds; `softplus` runs per lane (it branches).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn contact_coef(
            dx: __m256,
            dy: __m256,
            dmin: __m256,
            cf: __m256,
            cm: __m256,
        ) -> __m256 {
            let d2 = _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy));
            let dist = _mm256_max_ps(_mm256_sqrt_ps(d2), _mm256_set1_ps(1e-8));
            let neg = _mm256_xor_ps(_mm256_sub_ps(dist, dmin), _mm256_set1_ps(-0.0));
            let arg = _mm256_div_ps(neg, cm);
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), arg);
            for v in &mut lanes {
                *v = softplus(*v);
            }
            let pen = _mm256_mul_ps(_mm256_loadu_ps(lanes.as_ptr()), cm);
            _mm256_div_ps(_mm256_mul_ps(cf, pen), dist)
        }

        let k = self.worlds;
        let Physics { dt, damping, contact_force, contact_margin } = self.physics;
        self.fx.fill(0.0);
        self.fy.fill(0.0);
        let cf = _mm256_set1_ps(contact_force);
        let cm = _mm256_set1_ps(contact_margin);
        let dtv = _mm256_set1_ps(dt);
        let dampv = _mm256_set1_ps(1.0 - damping);
        let neg0 = _mm256_set1_ps(-0.0);

        // Control forces.
        for a in 0..self.agents {
            if !self.movable[a] {
                continue;
            }
            let acc = self.accel[a];
            let accv = _mm256_set1_ps(acc);
            let base = a * k;
            let mut w = 0;
            while w + 8 <= k {
                let i = base + w;
                let fx = _mm256_loadu_ps(self.fx.as_ptr().add(i));
                let fy = _mm256_loadu_ps(self.fy.as_ptr().add(i));
                let ax = _mm256_mul_ps(_mm256_loadu_ps(self.afx.as_ptr().add(i)), accv);
                let ay = _mm256_mul_ps(_mm256_loadu_ps(self.afy.as_ptr().add(i)), accv);
                _mm256_storeu_ps(self.fx.as_mut_ptr().add(i), _mm256_add_ps(fx, ax));
                _mm256_storeu_ps(self.fy.as_mut_ptr().add(i), _mm256_add_ps(fy, ay));
                w += 8;
            }
            for w in w..k {
                self.fx[base + w] += self.afx[base + w] * acc;
                self.fy[base + w] += self.afy[base + w] * acc;
            }
        }

        // Agent-agent soft contact forces.
        for i in 0..self.agents {
            if !self.collide[i] {
                continue;
            }
            for j in (i + 1)..self.agents {
                if !self.collide[j] {
                    continue;
                }
                let dmin = self.size[i] + self.size[j];
                let dminv = _mm256_set1_ps(dmin);
                let (bi, bj) = (i * k, j * k);
                let mut w = 0;
                while w + 8 <= k {
                    let (ii, ij) = (bi + w, bj + w);
                    let dx = _mm256_sub_ps(
                        _mm256_loadu_ps(self.px.as_ptr().add(ii)),
                        _mm256_loadu_ps(self.px.as_ptr().add(ij)),
                    );
                    let dy = _mm256_sub_ps(
                        _mm256_loadu_ps(self.py.as_ptr().add(ii)),
                        _mm256_loadu_ps(self.py.as_ptr().add(ij)),
                    );
                    let coef = contact_coef(dx, dy, dminv, cf, cm);
                    let fxi = _mm256_mul_ps(dx, coef);
                    let fyi = _mm256_mul_ps(dy, coef);
                    let acc_fx = _mm256_loadu_ps(self.fx.as_ptr().add(ii));
                    let acc_fy = _mm256_loadu_ps(self.fy.as_ptr().add(ii));
                    _mm256_storeu_ps(self.fx.as_mut_ptr().add(ii), _mm256_add_ps(acc_fx, fxi));
                    _mm256_storeu_ps(self.fy.as_mut_ptr().add(ii), _mm256_add_ps(acc_fy, fyi));
                    let rev_fx = _mm256_loadu_ps(self.fx.as_ptr().add(ij));
                    let rev_fy = _mm256_loadu_ps(self.fy.as_ptr().add(ij));
                    _mm256_storeu_ps(
                        self.fx.as_mut_ptr().add(ij),
                        _mm256_add_ps(rev_fx, _mm256_xor_ps(fxi, neg0)),
                    );
                    _mm256_storeu_ps(
                        self.fy.as_mut_ptr().add(ij),
                        _mm256_add_ps(rev_fy, _mm256_xor_ps(fyi, neg0)),
                    );
                    w += 8;
                }
                for w in w..k {
                    let dx = self.px[bi + w] - self.px[bj + w];
                    let dy = self.py[bi + w] - self.py[bj + w];
                    let dist = (dx * dx + dy * dy).sqrt().max(1e-8);
                    let pen = softplus(-(dist - dmin) / contact_margin) * contact_margin;
                    let coef = contact_force * pen / dist;
                    let fxi = dx * coef;
                    let fyi = dy * coef;
                    self.fx[bi + w] += fxi;
                    self.fy[bi + w] += fyi;
                    self.fx[bj + w] += -fxi;
                    self.fy[bj + w] += -fyi;
                }
            }
        }

        // Agent-landmark contact forces (agent side only).
        for a in 0..self.agents {
            if !self.collide[a] {
                continue;
            }
            let ba = a * k;
            for l in 0..self.landmarks {
                if !self.lcollide[l] {
                    continue;
                }
                let dmin = self.size[a] + self.lsize[l];
                let dminv = _mm256_set1_ps(dmin);
                let bl = l * k;
                let mut w = 0;
                while w + 8 <= k {
                    let (ia, il) = (ba + w, bl + w);
                    let dx = _mm256_sub_ps(
                        _mm256_loadu_ps(self.px.as_ptr().add(ia)),
                        _mm256_loadu_ps(self.lpx.as_ptr().add(il)),
                    );
                    let dy = _mm256_sub_ps(
                        _mm256_loadu_ps(self.py.as_ptr().add(ia)),
                        _mm256_loadu_ps(self.lpy.as_ptr().add(il)),
                    );
                    let coef = contact_coef(dx, dy, dminv, cf, cm);
                    let acc_fx = _mm256_loadu_ps(self.fx.as_ptr().add(ia));
                    let acc_fy = _mm256_loadu_ps(self.fy.as_ptr().add(ia));
                    _mm256_storeu_ps(
                        self.fx.as_mut_ptr().add(ia),
                        _mm256_add_ps(acc_fx, _mm256_mul_ps(dx, coef)),
                    );
                    _mm256_storeu_ps(
                        self.fy.as_mut_ptr().add(ia),
                        _mm256_add_ps(acc_fy, _mm256_mul_ps(dy, coef)),
                    );
                    w += 8;
                }
                for w in w..k {
                    let dx = self.px[ba + w] - self.lpx[bl + w];
                    let dy = self.py[ba + w] - self.lpy[bl + w];
                    let dist = (dx * dx + dy * dy).sqrt().max(1e-8);
                    let pen = softplus(-(dist - dmin) / contact_margin) * contact_margin;
                    let coef = contact_force * pen / dist;
                    self.fx[ba + w] += dx * coef;
                    self.fy[ba + w] += dy * coef;
                }
            }
        }

        // Integrate: damped Euler with norm clamping. The clamp is a
        // cmp-mask + blend; the masked-off `ms / n` may divide by zero but
        // those lanes are discarded.
        for a in 0..self.agents {
            if !self.movable[a] {
                continue;
            }
            let ms = self.max_speed[a];
            let msv = _mm256_set1_ps(ms);
            let zero = _mm256_setzero_ps();
            let base = a * k;
            let mut w = 0;
            while w + 8 <= k {
                let i = base + w;
                let mut vx = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(self.vx.as_ptr().add(i)), dampv),
                    _mm256_mul_ps(_mm256_loadu_ps(self.fx.as_ptr().add(i)), dtv),
                );
                let mut vy = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(self.vy.as_ptr().add(i)), dampv),
                    _mm256_mul_ps(_mm256_loadu_ps(self.fy.as_ptr().add(i)), dtv),
                );
                let n2 = _mm256_add_ps(_mm256_mul_ps(vx, vx), _mm256_mul_ps(vy, vy));
                let n = _mm256_sqrt_ps(n2);
                let mask = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GT_OQ>(n, msv),
                    _mm256_cmp_ps::<_CMP_GT_OQ>(n, zero),
                );
                let s = _mm256_div_ps(msv, n);
                vx = _mm256_blendv_ps(vx, _mm256_mul_ps(vx, s), mask);
                vy = _mm256_blendv_ps(vy, _mm256_mul_ps(vy, s), mask);
                _mm256_storeu_ps(self.vx.as_mut_ptr().add(i), vx);
                _mm256_storeu_ps(self.vy.as_mut_ptr().add(i), vy);
                let px = _mm256_loadu_ps(self.px.as_ptr().add(i));
                let py = _mm256_loadu_ps(self.py.as_ptr().add(i));
                _mm256_storeu_ps(
                    self.px.as_mut_ptr().add(i),
                    _mm256_add_ps(px, _mm256_mul_ps(vx, dtv)),
                );
                _mm256_storeu_ps(
                    self.py.as_mut_ptr().add(i),
                    _mm256_add_ps(py, _mm256_mul_ps(vy, dtv)),
                );
                w += 8;
            }
            for w in w..k {
                let mut vx = self.vx[base + w] * (1.0 - damping) + self.fx[base + w] * dt;
                let mut vy = self.vy[base + w] * (1.0 - damping) + self.fy[base + w] * dt;
                let n = (vx * vx + vy * vy).sqrt();
                if n > ms && n > 0.0 {
                    let s = ms / n;
                    vx *= s;
                    vy *= s;
                }
                self.vx[base + w] = vx;
                self.vy[base + w] = vy;
                self.px[base + w] += vx * dt;
                self.py[base + w] += vy * dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::simple_tag::{PredatorPrey, PredatorPreyConfig};
    use crate::Scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_worlds(k: usize, seed: u64) -> Vec<World> {
        let s = PredatorPrey::new(PredatorPreyConfig::scaled(3));
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| {
                let mut w = s.make_world();
                s.reset_world(&mut w, &mut rng);
                for (i, a) in w.agents.iter_mut().enumerate() {
                    a.action_force = crate::vec2::Vec2::new(0.3 * i as f32 - 0.5, 0.2);
                }
                w
            })
            .collect()
    }

    /// Per world, one SoA scalar step must be bit-identical to World::step.
    #[test]
    fn soa_scalar_step_matches_world_step_bitwise() {
        for k in [1, 3, 8, 11] {
            let worlds = sample_worlds(k, 42 + k as u64);
            let mut reference = worlds.clone();
            for w in &mut reference {
                w.step();
            }
            let mut batch = SoaBatch::new(&worlds[0], k);
            let mut vec_worlds = worlds.clone();
            batch.gather(&vec_worlds);
            batch.step_with(KernelKind::Scalar);
            batch.scatter(&mut vec_worlds);
            for (w, (got, want)) in vec_worlds.iter().zip(&reference).enumerate() {
                for (a, (ga, wa)) in got.agents.iter().zip(&want.agents).enumerate() {
                    assert_eq!(
                        ga.state.position.x.to_bits(),
                        wa.state.position.x.to_bits(),
                        "world {w} agent {a} pos.x (K={k})"
                    );
                    assert_eq!(ga.state.position.y.to_bits(), wa.state.position.y.to_bits());
                    assert_eq!(ga.state.velocity.x.to_bits(), wa.state.velocity.x.to_bits());
                    assert_eq!(ga.state.velocity.y.to_bits(), wa.state.velocity.y.to_bits());
                }
            }
        }
    }

    /// The AVX2 kernel carries no FMA and no skips, so it is bit-identical
    /// to the scalar path (stronger than the nn crate's ε policy).
    #[test]
    fn soa_simd_step_matches_scalar_bitwise() {
        if !kernels::simd_available() {
            eprintln!("skipping: AVX2 not available");
            return;
        }
        for k in [1, 4, 8, 13] {
            let worlds = sample_worlds(k, 7 + k as u64);
            let mut scalar = SoaBatch::new(&worlds[0], k);
            scalar.gather(&worlds);
            // Several steps so trajectories diverge if any op rounds off.
            for _ in 0..5 {
                scalar.step_with(KernelKind::Scalar);
            }
            let mut simd = SoaBatch::new(&worlds[0], k);
            simd.gather(&worlds);
            for _ in 0..5 {
                simd.step_with(KernelKind::Avx2);
            }
            assert_eq!(bits(&scalar.px), bits(&simd.px), "px (K={k})");
            assert_eq!(bits(&scalar.py), bits(&simd.py), "py (K={k})");
            assert_eq!(bits(&scalar.vx), bits(&simd.vx), "vx (K={k})");
            assert_eq!(bits(&scalar.vy), bits(&simd.vy), "vy (K={k})");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Comm lanes are pure gather/scatter copies — physics never touches
    /// them — so utterances round-trip bitwise through the batch.
    #[test]
    fn comm_lanes_roundtrip_bitwise_through_a_step() {
        let mut worlds = sample_worlds(3, 17);
        for (w, world) in worlds.iter_mut().enumerate() {
            for (a, agent) in world.agents.iter_mut().enumerate() {
                for (c, v) in agent.comm.iter_mut().enumerate() {
                    *v = (w * 100 + a * 10 + c) as f32 + 0.5;
                }
            }
        }
        let mut batch = SoaBatch::new(&worlds[0], 3);
        batch.gather(&worlds);
        batch.step_with(KernelKind::Scalar);
        let mut out = sample_worlds(3, 1);
        batch.scatter(&mut out);
        for (got, want) in out.iter().zip(&worlds) {
            for (ga, wa) in got.agents.iter().zip(&want.agents) {
                let got_bits: Vec<u32> = ga.comm.iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u32> = wa.comm.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got_bits, want_bits);
            }
        }
    }

    /// gather → scatter is a pure copy: round-trips exactly (incl. -0.0).
    #[test]
    fn gather_scatter_roundtrip_is_exact() {
        let worlds = sample_worlds(4, 99);
        let mut batch = SoaBatch::new(&worlds[0], 4);
        batch.gather(&worlds);
        let mut copy = sample_worlds(4, 1); // same topology, different state
        batch.scatter(&mut copy);
        for (got, want) in copy.iter().zip(&worlds) {
            for (ga, wa) in got.agents.iter().zip(&want.agents) {
                assert_eq!(ga.state.position, wa.state.position);
                assert_eq!(ga.state.velocity, wa.state.velocity);
            }
        }
    }
}
