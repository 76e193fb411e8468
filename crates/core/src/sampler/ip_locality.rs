//! Information-prioritized locality-aware sampling (Section IV-B1 of the
//! paper).
//!
//! Reference points are drawn proportionally to priority (PER); a
//! *neighbor predictor* maps each reference's **normalized priority** to a
//! neighbor count — below `T1 = 0.33` one neighbor, between `T1` and
//! `T2 = 0.66` two, above `T2` four — so the neighbors of *important*
//! transitions are captured (per the paper's abstract), and consecutive
//! transitions are gathered from each reference until the batch is
//! filled. Lemma 1 importance weights de-bias the TD update.

use crate::error::ReplayError;
use crate::indices::{SamplePlan, Segment};
use crate::sampler::per::{PerConfig, PriorityCore};
use crate::sampler::{check_batch, Sampler, SamplerState};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of the information-prioritized locality-aware sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpLocalityConfig {
    /// Underlying prioritization parameters.
    pub per: PerConfig,
    /// Normalized-priority thresholds `[T1, T2]` (paper: 0.33 / 0.66).
    pub thresholds: [f32; 2],
    /// Neighbor counts `[N1, N2, N3]` chosen below `T1`, between `T1` and
    /// `T2`, and above `T2` (paper: 1 / 2 / 4).
    pub neighbor_counts: [usize; 3],
}

impl IpLocalityConfig {
    /// The paper's parameters over a buffer of `capacity` rows.
    pub fn with_capacity(capacity: usize) -> Self {
        IpLocalityConfig {
            per: PerConfig::with_capacity(capacity),
            thresholds: [0.33, 0.66],
            neighbor_counts: [1, 2, 4],
        }
    }

    /// The neighbor predictor: neighbor count for a normalized priority
    /// ("more neighbors for more important references").
    ///
    /// The input contract matches
    /// [`PriorityCore::normalized_priority`][per]: a degenerate buffer
    /// (empty, or all-zero priority mass) normalizes to `0.0` and thus
    /// lands in the smallest class. Non-finite input — which no in-repo
    /// caller produces, but a NaN here would previously have fallen
    /// through every `<` comparison into the *largest* class — is defined
    /// to mean "no priority information" and also maps to the smallest
    /// class, keeping the predictor and the normalizer in agreement on
    /// degenerate buffers.
    ///
    /// [per]: crate::sampler::per::PriorityCore::normalized_priority
    fn predict_neighbors(&self, normalized_priority: f32) -> usize {
        if !normalized_priority.is_finite() || normalized_priority < self.thresholds[0] {
            self.neighbor_counts[0]
        } else if normalized_priority < self.thresholds[1] {
            self.neighbor_counts[1]
        } else {
            self.neighbor_counts[2]
        }
    }
}

/// Information-prioritized cache locality-aware sampler.
///
/// # Examples
///
/// ```
/// use marl_core::sampler::{IpLocalityConfig, IpLocalitySampler, Sampler};
/// use rand::SeedableRng;
///
/// let mut s = IpLocalitySampler::new(IpLocalityConfig::with_capacity(1 << 14));
/// for slot in 0..2000 { s.observe_push(slot); }
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let plan = s.plan(2000, 1024, &mut rng)?;
/// assert_eq!(plan.batch_len(), 1024);
/// assert!(plan.random_jumps() < 1024); // fewer jumps than PER's 1024
/// # Ok::<(), marl_core::error::ReplayError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IpLocalitySampler {
    core: PriorityCore,
    config: IpLocalityConfig,
}

impl IpLocalitySampler {
    /// Creates the sampler.
    pub fn new(config: IpLocalityConfig) -> Self {
        IpLocalitySampler { core: PriorityCore::new(config.per), config }
    }

    /// The active configuration.
    pub fn config(&self) -> &IpLocalityConfig {
        &self.config
    }

    /// Access to the prioritization core (tests/diagnostics).
    pub fn core(&self) -> &PriorityCore {
        &self.core
    }
}

impl Sampler for IpLocalitySampler {
    fn name(&self) -> String {
        "ip-locality".to_owned()
    }

    fn plan(
        &mut self,
        len: usize,
        batch: usize,
        rng: &mut StdRng,
    ) -> Result<SamplePlan, ReplayError> {
        check_batch(len, batch)?;
        if self.core.total_mass() <= 0.0 {
            return Err(ReplayError::InvalidBatch {
                reason: "priority tree is empty; push transitions first".into(),
            });
        }
        self.core.advance_beta();
        let w_max = self.core.max_weight(len);
        let mut segments = Vec::new();
        let mut weights = Vec::with_capacity(batch);
        let mut filled = 0;
        let total = self.core.total_mass();
        // "This process continues until the batch size is reached."
        while filled < batch {
            let (idx, prob) = self.core.sample_stratum(0.0, total, rng);
            let idx = idx.min(len.saturating_sub(1));
            let w = self.core.importance_weight(prob, len, w_max);
            let priority = self.core.normalized_priority(idx, len);
            let want = self.config.predict_neighbors(priority).min(batch - filled);
            // Clamp the run so `D[idx : idx + n]` stays within the stored
            // prefix.
            let start = idx.min(len - want.min(len));
            let run = want.min(len - start);
            segments.push(Segment::run(start, run));
            // Neighbors inherit the reference's importance weight: they are
            // gathered *because of* the reference, so its sampling
            // probability is the correction the TD update needs.
            weights.extend(std::iter::repeat_n(w, run));
            filled += run;
        }
        Ok(SamplePlan { segments, weights: Some(weights) })
    }

    fn observe_push(&mut self, slot: usize) {
        self.core.observe_push(slot);
    }

    fn update_priorities(&mut self, indices: &[usize], td_errors: &[f32]) {
        self.core.update_priorities(indices, td_errors);
    }

    fn normalized_priority_of(&self, idx: usize, len: usize) -> Option<f32> {
        if self.core.is_degenerate(len) {
            return None;
        }
        Some(self.core.normalized_priority(idx, len))
    }

    fn export_state(&self) -> SamplerState {
        self.core.export_state()
    }

    fn import_state(&mut self, state: &SamplerState) -> Result<(), ReplayError> {
        self.core.import_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sampler(n: usize) -> IpLocalitySampler {
        let mut s = IpLocalitySampler::new(IpLocalityConfig::with_capacity(1 << 12));
        for i in 0..n {
            s.observe_push(i);
        }
        s
    }

    #[test]
    fn predictor_thresholds_match_paper() {
        let c = IpLocalityConfig::with_capacity(16);
        assert_eq!(c.predict_neighbors(0.1), 1);
        assert_eq!(c.predict_neighbors(0.33), 2);
        assert_eq!(c.predict_neighbors(0.5), 2);
        assert_eq!(c.predict_neighbors(0.66), 4);
        assert_eq!(c.predict_neighbors(1.0), 4);
    }

    #[test]
    fn plan_fills_batch_exactly() {
        let mut s = sampler(2000);
        let mut rng = StdRng::seed_from_u64(0);
        for batch in [64usize, 100, 1024] {
            let p = s.plan(2000, batch, &mut rng).unwrap();
            assert_eq!(p.batch_len(), batch);
            assert_eq!(p.weights.as_ref().unwrap().len(), batch);
        }
    }

    #[test]
    fn fewer_jumps_than_per() {
        // With uniform priorities every reference sits at the mean
        // (normalized 0.5) → 2 neighbors per ref → jumps ≈ batch/2.
        let mut s = sampler(4000);
        let mut rng = StdRng::seed_from_u64(1);
        let p = s.plan(4000, 1024, &mut rng).unwrap();
        assert!(p.random_jumps() <= 1024 / 2 + 1, "jumps={}", p.random_jumps());
        assert!(p.random_jumps() < 1024, "must jump less than PER");
    }

    #[test]
    fn important_references_get_long_runs() {
        let mut s = sampler(512);
        s.update_priorities(&[100], &[1000.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let p = s.plan(512, 256, &mut rng).unwrap();
        // index 100's alpha-dampened mass share is ~11%, far above the
        // uniform 1/512; it is drawn repeatedly as a reference point and —
        // being the *most important* reference — captures the maximum
        // neighbor run (paper: "capture the neighbors of important
        // transitions").
        let hits = p.flatten().iter().filter(|&&i| (100..104).contains(&i)).count();
        assert!(hits >= 4, "hits={hits}");
        // All-but-the-last such segments take the full 4-neighbor run (the
        // final segment of a plan may be truncated to fit the batch).
        let runs: Vec<usize> =
            p.segments.iter().filter(|seg| seg.start == 100).map(|seg| seg.len).collect();
        assert!(!runs.is_empty());
        assert_eq!(
            runs.iter().copied().max().unwrap(),
            4,
            "max-priority reference takes 4 neighbors: {runs:?}"
        );
        // Its importance weight is small (it is over-sampled), de-biasing
        // the update.
        let w = p.weights.unwrap();
        assert!(w.iter().copied().fold(f32::INFINITY, f32::min) < 0.33);
    }

    #[test]
    fn runs_stay_in_bounds() {
        let mut s = sampler(64);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = s.plan(64, 32, &mut rng).unwrap();
            for seg in &p.segments {
                assert!(seg.start + seg.len <= 64, "{seg:?}");
            }
        }
    }

    #[test]
    fn empty_tree_rejected() {
        let mut s = IpLocalitySampler::new(IpLocalityConfig::with_capacity(8));
        let mut rng = StdRng::seed_from_u64(4);
        assert!(s.plan(8, 4, &mut rng).is_err());
    }

    #[test]
    fn predictor_and_normalizer_agree_on_degenerate_buffers() {
        let c = IpLocalityConfig::with_capacity(16);
        // Non-finite "priority" means no information — the smallest class,
        // not a fall-through into the largest one.
        assert_eq!(c.predict_neighbors(f32::NAN), 1);
        assert_eq!(c.predict_neighbors(f32::INFINITY), 1);
        assert_eq!(c.predict_neighbors(f32::NEG_INFINITY), 1);
        // A degenerate buffer normalizes to 0.0, which lands in the same
        // smallest class: both halves of the pipeline tell one story.
        let s = IpLocalitySampler::new(c.clone());
        assert!(s.core().is_degenerate(8));
        assert_eq!(s.normalized_priority_of(3, 8), None);
        assert_eq!(c.predict_neighbors(s.core().normalized_priority(3, 8)), 1);
        // With mass in the tree the hook reports a thresholdable value.
        let mut s = s;
        for i in 0..8 {
            s.observe_push(i);
        }
        let p = s.normalized_priority_of(3, 8).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }
}
