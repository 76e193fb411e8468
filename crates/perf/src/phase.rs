//! Training-phase taxonomy and accumulated phase timings.
//!
//! The paper decomposes end-to-end training into *action selection*,
//! *update all trainers* (further split into mini-batch sampling, target-Q
//! calculation, and Q-loss/P-loss backprop) and *other segments*
//! (environment interaction, buffer pushes, bookkeeping).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One measured phase of MARL training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Actor forward passes choosing actions (GPU-bound in the paper).
    ActionSelection,
    /// Environment stepping and reward computation.
    EnvironmentStep,
    /// Replay-buffer pushes and episode bookkeeping.
    Bookkeeping,
    /// Mini-batch sampling over all agents' replay buffers (CPU-bound).
    MiniBatchSampling,
    /// Target-action + target-Q computation over the joint space.
    TargetQ,
    /// Critic loss backprop + policy loss backprop + optimizer steps.
    QLossPLoss,
    /// Target-network soft updates.
    SoftUpdate,
    /// Checkpoint capture + serialization + atomic write (autosave), so
    /// crash-safety overhead is visible in the breakdown instead of
    /// silently inflating "other".
    Checkpoint,
}

impl Phase {
    /// All phases in display (= declaration) order, so
    /// `Phase::ALL[p as usize] == p`.
    pub const ALL: [Phase; 8] = [
        Phase::ActionSelection,
        Phase::EnvironmentStep,
        Phase::Bookkeeping,
        Phase::MiniBatchSampling,
        Phase::TargetQ,
        Phase::QLossPLoss,
        Phase::SoftUpdate,
        Phase::Checkpoint,
    ];

    /// Whether the phase belongs to the paper's *update all trainers*
    /// super-phase.
    pub fn in_update_all_trainers(self) -> bool {
        matches!(
            self,
            Phase::MiniBatchSampling | Phase::TargetQ | Phase::QLossPLoss | Phase::SoftUpdate
        )
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ActionSelection => "action-selection",
            Phase::EnvironmentStep => "environment-step",
            Phase::Bookkeeping => "bookkeeping",
            Phase::MiniBatchSampling => "mini-batch-sampling",
            Phase::TargetQ => "target-q",
            Phase::QLossPLoss => "q-loss-p-loss",
            Phase::SoftUpdate => "soft-update",
            Phase::Checkpoint => "checkpoint",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated wall-clock time per phase.
///
/// # Examples
///
/// ```
/// use marl_perf::phase::{Phase, PhaseProfile};
/// use std::time::Duration;
///
/// let mut p = PhaseProfile::new();
/// p.add(Phase::MiniBatchSampling, Duration::from_millis(30));
/// p.add(Phase::TargetQ, Duration::from_millis(10));
/// assert_eq!(p.update_all_trainers(), Duration::from_millis(40));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    nanos: [u128; 8],
}

impl PhaseProfile {
    /// An all-zero profile.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Adds `d` to `phase`.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.nanos[phase.index()] += d.as_nanos();
    }

    /// Accumulated time in one phase.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase.index()] as u64)
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum::<u128>() as u64)
    }

    /// Sum over the *update all trainers* sub-phases.
    pub fn update_all_trainers(&self) -> Duration {
        Duration::from_nanos(
            Phase::ALL
                .iter()
                .filter(|p| p.in_update_all_trainers())
                .map(|&p| self.nanos[p.index()])
                .sum::<u128>() as u64,
        )
    }

    /// Fraction of total time spent in `phase` (0 when the profile is empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.nanos.iter().sum::<u128>();
        if total == 0 {
            return 0.0;
        }
        self.nanos[phase.index()] as f64 / total as f64
    }

    /// Fraction of the update-all-trainers time spent in `phase`.
    pub fn fraction_of_update(&self, phase: Phase) -> f64 {
        let upd = self.update_all_trainers().as_nanos();
        if upd == 0 {
            return 0.0;
        }
        self.nanos[phase.index()] as f64 / upd as f64
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += b;
        }
    }

    /// Renders the full end-of-training breakdown: accumulated time plus
    /// percent-of-total per phase (Figure 2's decomposition), with a
    /// closing `total` row.
    pub fn breakdown_table(&self) -> crate::report::Table {
        let mut t = crate::report::Table::new(&["phase", "time", "share"]);
        for phase in Phase::ALL {
            t.row_owned(vec![
                phase.label().to_owned(),
                crate::report::seconds(self.get(phase).as_secs_f64()),
                crate::report::percent(self.fraction(phase)),
            ]);
        }
        t.row_owned(vec![
            "total".to_owned(),
            crate::report::seconds(self.total().as_secs_f64()),
            crate::report::percent(if self.total().is_zero() { 0.0 } else { 1.0 }),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_fractions() {
        let mut p = PhaseProfile::new();
        p.add(Phase::ActionSelection, Duration::from_millis(25));
        p.add(Phase::MiniBatchSampling, Duration::from_millis(50));
        p.add(Phase::TargetQ, Duration::from_millis(25));
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.fraction(Phase::MiniBatchSampling) - 0.5).abs() < 1e-9);
        assert_eq!(p.update_all_trainers(), Duration::from_millis(75));
        assert!((p.fraction_of_update(Phase::MiniBatchSampling) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn update_membership() {
        assert!(Phase::MiniBatchSampling.in_update_all_trainers());
        assert!(Phase::SoftUpdate.in_update_all_trainers());
        assert!(!Phase::ActionSelection.in_update_all_trainers());
        assert!(!Phase::EnvironmentStep.in_update_all_trainers());
        assert!(!Phase::Checkpoint.in_update_all_trainers());
    }

    #[test]
    fn all_is_in_declaration_order() {
        for p in Phase::ALL {
            assert_eq!(Phase::ALL[p as usize], p);
        }
    }

    #[test]
    fn breakdown_table_has_time_share_and_total() {
        let mut p = PhaseProfile::new();
        p.add(Phase::MiniBatchSampling, Duration::from_millis(75));
        p.add(Phase::TargetQ, Duration::from_millis(25));
        let t = p.breakdown_table();
        assert_eq!(t.len(), Phase::ALL.len() + 1);
        let rendered = t.to_string();
        assert!(rendered.contains("mini-batch-sampling"));
        assert!(rendered.contains("75.0%"));
        assert!(rendered.contains("75.00ms"));
        assert!(rendered.contains("total"));
        assert!(rendered.contains("100.0%"));
    }

    #[test]
    fn empty_breakdown_table_renders() {
        let rendered = PhaseProfile::new().breakdown_table().to_string();
        assert!(rendered.contains("total"));
        assert!(rendered.contains("0.0%"));
    }

    #[test]
    fn merge_adds_profiles() {
        let mut a = PhaseProfile::new();
        a.add(Phase::TargetQ, Duration::from_millis(5));
        let mut b = PhaseProfile::new();
        b.add(Phase::TargetQ, Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.get(Phase::TargetQ), Duration::from_millis(12));
    }

    #[test]
    fn empty_profile_has_zero_fractions() {
        let p = PhaseProfile::new();
        assert_eq!(p.fraction(Phase::TargetQ), 0.0);
        assert_eq!(p.fraction_of_update(Phase::TargetQ), 0.0);
    }
}
