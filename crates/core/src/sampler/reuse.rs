//! Transition-reuse sampling (the AccMER direction the paper cites):
//! reuse the same mini-batch plan for a window of consecutive plans, so
//! the gathered rows stay cache-hot across agent trainers and update
//! iterations instead of being re-fetched from random locations.
//!
//! Wraps any inner strategy; the paper's citation targets *prioritized*
//! workloads, where replanning is also expensive (B sum-tree traversals).

use crate::error::ReplayError;
use crate::indices::SamplePlan;
use crate::sampler::{CachedPlan, Sampler, SamplerState};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of the reuse window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseConfig {
    /// How many consecutive plans share one drawn batch (1 = no reuse).
    pub window: usize,
}

impl ReuseConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "reuse window must be positive");
        ReuseConfig { window }
    }
}

/// A sampler adapter that replans only every `window` calls.
///
/// # Examples
///
/// ```
/// use marl_core::sampler::{ReuseConfig, ReuseWindowSampler, Sampler, UniformSampler};
/// use rand::SeedableRng;
///
/// let mut s = ReuseWindowSampler::new(Box::new(UniformSampler::new()), ReuseConfig::new(3));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let a = s.plan(1000, 64, &mut rng)?;
/// let b = s.plan(1000, 64, &mut rng)?;
/// assert_eq!(a, b); // second call reuses the first plan
/// # Ok::<(), marl_core::error::ReplayError>(())
/// ```
#[derive(Debug)]
pub struct ReuseWindowSampler {
    inner: Box<dyn Sampler>,
    config: ReuseConfig,
    cached: Option<(SamplePlan, usize, usize)>, // (plan, len-at-plan, uses left)
}

impl ReuseWindowSampler {
    /// Wraps `inner` with a reuse window.
    pub fn new(inner: Box<dyn Sampler>, config: ReuseConfig) -> Self {
        ReuseWindowSampler { inner, config, cached: None }
    }

    /// The reuse configuration.
    pub fn config(&self) -> &ReuseConfig {
        &self.config
    }
}

impl Sampler for ReuseWindowSampler {
    fn name(&self) -> String {
        format!("{}-reuse{}", self.inner.name(), self.config.window)
    }

    fn plan(
        &mut self,
        len: usize,
        batch: usize,
        rng: &mut StdRng,
    ) -> Result<SamplePlan, ReplayError> {
        if let Some((plan, plan_len, uses)) = &mut self.cached {
            // Reuse only while the batch shape matches and the buffer has
            // not shrunk below what the plan references.
            if *uses > 0 && plan.batch_len() == batch && *plan_len <= len {
                *uses -= 1;
                return Ok(plan.clone());
            }
        }
        let plan = self.inner.plan(len, batch, rng)?;
        self.cached = Some((plan.clone(), len, self.config.window - 1));
        Ok(plan)
    }

    fn observe_push(&mut self, slot: usize) {
        self.inner.observe_push(slot);
    }

    fn update_priorities(&mut self, indices: &[usize], td_errors: &[f32]) {
        self.inner.update_priorities(indices, td_errors);
    }

    fn normalized_priority_of(&self, idx: usize, len: usize) -> Option<f32> {
        self.inner.normalized_priority_of(idx, len)
    }

    fn export_state(&self) -> SamplerState {
        SamplerState::Reuse {
            inner: Box::new(self.inner.export_state()),
            cached: self.cached.as_ref().map(|(plan, len, uses)| CachedPlan {
                plan: plan.clone(),
                len: *len,
                uses_left: *uses,
            }),
        }
    }

    fn import_state(&mut self, state: &SamplerState) -> Result<(), ReplayError> {
        let SamplerState::Reuse { inner, cached } = state else {
            return Err(ReplayError::BadSamplerState {
                reason: "reuse-window sampler requires Reuse checkpoint state".into(),
            });
        };
        self.inner.import_state(inner)?;
        self.cached = cached.as_ref().map(|c| (c.plan.clone(), c.len, c.uses_left));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{PerConfig, PerSampler, UniformSampler};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn window_replans_after_expiry() {
        let mut s = ReuseWindowSampler::new(Box::new(UniformSampler::new()), ReuseConfig::new(2));
        let mut r = rng();
        let a = s.plan(1000, 32, &mut r).unwrap();
        let b = s.plan(1000, 32, &mut r).unwrap();
        let c = s.plan(1000, 32, &mut r).unwrap();
        assert_eq!(a, b, "second call within the window reuses");
        assert_ne!(b, c, "third call replans");
    }

    #[test]
    fn batch_change_invalidates_cache() {
        let mut s = ReuseWindowSampler::new(Box::new(UniformSampler::new()), ReuseConfig::new(4));
        let mut r = rng();
        let a = s.plan(1000, 32, &mut r).unwrap();
        let b = s.plan(1000, 64, &mut r).unwrap();
        assert_ne!(a.batch_len(), b.batch_len());
        assert_eq!(b.batch_len(), 64);
    }

    #[test]
    fn priorities_flow_through_to_inner() {
        let mut per = PerSampler::new(PerConfig::with_capacity(128));
        for i in 0..128 {
            per.observe_push(i);
        }
        let mut s = ReuseWindowSampler::new(Box::new(per), ReuseConfig::new(2));
        s.update_priorities(&[5], &[1000.0]);
        let mut r = rng();
        let plan = s.plan(128, 64, &mut r).unwrap();
        let hits = plan.flatten().iter().filter(|&&i| i == 5).count();
        assert!(hits >= 1, "inner PER must see the priority update");
        assert!(plan.weights.is_some());
    }

    #[test]
    fn state_roundtrip_preserves_reuse_schedule() {
        let mut per = PerSampler::new(PerConfig::with_capacity(128));
        for i in 0..128 {
            per.observe_push(i);
        }
        let mut a = ReuseWindowSampler::new(Box::new(per), ReuseConfig::new(3));
        let mut r = rng();
        let plan = a.plan(128, 16, &mut r).unwrap(); // window active, 2 uses left
        let state = a.export_state();

        let mut per_b = PerSampler::new(PerConfig::with_capacity(128));
        let mut b = ReuseWindowSampler::new(Box::new(per_b.clone()), ReuseConfig::new(3));
        b.import_state(&state).unwrap();
        assert_eq!(b.export_state(), state);
        // The restored sampler continues the same window: next plan is the
        // cached one, regardless of RNG.
        let mut other_rng = StdRng::seed_from_u64(999);
        assert_eq!(b.plan(128, 16, &mut other_rng).unwrap(), plan);
        // Wrong variant is rejected and leaves the inner sampler coherent.
        assert!(per_b.import_state(&state).is_err());
    }

    #[test]
    fn name_reflects_composition() {
        let s = ReuseWindowSampler::new(Box::new(UniformSampler::new()), ReuseConfig::new(3));
        assert_eq!(s.name(), "uniform-reuse3");
    }

    #[test]
    #[should_panic(expected = "reuse window must be positive")]
    fn zero_window_rejected() {
        let _ = ReuseConfig::new(0);
    }
}
