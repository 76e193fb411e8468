//! Divergence sentinel: numeric health checks over each
//! *update all trainers* round.
//!
//! Long runs can blow up silently — a NaN TD error poisons the PER sum
//! tree (whose `update` asserts on non-finite priorities and would abort
//! the process), exploding critics corrupt every subsequent update, and
//! days of compute are lost. The sentinel scans TD errors and network
//! parameters after each update round and reports a structured
//! [`DivergenceReport`] through [`crate::error::TrainError::Diverged`]
//! instead of panicking, so the crash-safe runtime can roll back to the
//! last good checkpoint.

use crate::agent::AgentNets;
use serde::{Deserialize, Serialize};

/// Thresholds and retry budget of the divergence sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SentinelConfig {
    /// Master switch. Disabled, updates run unchecked (NaN TD errors will
    /// then abort inside the sum tree for prioritized samplers).
    pub enabled: bool,
    /// Largest tolerated |TD error| before the update counts as diverged.
    pub max_abs_td: f32,
    /// Largest tolerated |parameter| across any network.
    pub max_abs_param: f32,
    /// How many rollbacks to the last good checkpoint the crash-safe
    /// runtime attempts before aborting with the report. Deterministic
    /// divergence (same state, same batch, same blow-up) exhausts this
    /// budget and surfaces the report; transient corruption (e.g. an
    /// injected fault) recovers.
    pub max_retries: u32,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        // Generous thresholds: the paper's tasks keep rewards in O(10),
        // so any healthy TD error is orders of magnitude below 1e6. The
        // sentinel is a tripwire for numeric blow-ups, not a tuning knob.
        SentinelConfig { enabled: true, max_abs_td: 1e6, max_abs_param: 1e6, max_retries: 2 }
    }
}

/// Structured diagnostic of a tripped sentinel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Update iteration (0-based) during which the trip occurred.
    pub update_iteration: u64,
    /// Index of the first offending agent trainer.
    pub agent: usize,
    /// What diverged (e.g. `"TD error"`, `"network parameter"`).
    pub what: String,
    /// The offending value (`NaN`, `inf`, or beyond its threshold).
    pub value: f32,
    /// The threshold in force for that quantity.
    pub threshold: f32,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} diverged on agent {} at update {} (value {}, threshold {})",
            self.what, self.agent, self.update_iteration, self.value, self.threshold
        )
    }
}

/// Scans the per-agent TD errors of one update round. Runs *before* the
/// sampler's priority refresh so a NaN never reaches the sum tree.
///
/// # Errors
///
/// Returns the report of the first non-finite or out-of-bounds TD error.
pub fn check_tds(
    tds: &[Vec<f32>],
    config: &SentinelConfig,
    update_iteration: u64,
) -> Result<(), DivergenceReport> {
    if !config.enabled {
        return Ok(());
    }
    for (agent, td) in tds.iter().enumerate() {
        for &v in td {
            if !v.is_finite() || v.abs() > config.max_abs_td {
                return Err(DivergenceReport {
                    update_iteration,
                    agent,
                    what: "TD error".into(),
                    value: v,
                    threshold: config.max_abs_td,
                });
            }
        }
    }
    Ok(())
}

/// Scans every agent's live and target networks for non-finite or
/// exploding parameters after the round's optimizer/soft-update steps.
///
/// # Errors
///
/// Returns the report of the first offending network.
pub fn check_agents(
    agents: &[AgentNets],
    config: &SentinelConfig,
    update_iteration: u64,
) -> Result<(), DivergenceReport> {
    if !config.enabled {
        return Ok(());
    }
    for (i, a) in agents.iter().enumerate() {
        // Fixed-size check list: this runs after every update round and
        // must stay allocation-free on the healthy path.
        let nets: [(&str, Option<f32>); 6] = [
            ("actor", Some(a.actor.max_abs_param())),
            ("target actor", Some(a.target_actor.max_abs_param())),
            ("critic", Some(a.critic.max_abs_param())),
            ("target critic", Some(a.target_critic.max_abs_param())),
            ("twin critic", a.critic2.as_ref().map(|(c2, _)| c2.max_abs_param())),
            ("twin target critic", a.critic2.as_ref().map(|(_, t2)| t2.max_abs_param())),
        ];
        for (name, m) in nets {
            let Some(m) = m else { continue };
            if !m.is_finite() || m > config.max_abs_param {
                return Err(DivergenceReport {
                    update_iteration,
                    agent: i,
                    what: format!("network parameter ({name})"),
                    value: m,
                    threshold: config.max_abs_param,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_nn::rng::seeded;

    fn nets() -> AgentNets {
        let mut rng = seeded(3);
        AgentNets::new(8, 5, 3 * 8 + 3 * 5, true, 0.01, &mut rng)
    }

    #[test]
    fn healthy_tds_pass() {
        let cfg = SentinelConfig::default();
        let tds = vec![vec![0.1, -3.0, 42.0], vec![0.0; 8]];
        assert!(check_tds(&tds, &cfg, 0).is_ok());
    }

    #[test]
    fn nan_td_trips_with_agent_attribution() {
        let cfg = SentinelConfig::default();
        let tds = vec![vec![0.1, 0.2], vec![0.3, f32::NAN]];
        let report = check_tds(&tds, &cfg, 7).unwrap_err();
        assert_eq!(report.agent, 1);
        assert_eq!(report.update_iteration, 7);
        assert!(report.value.is_nan());
        assert!(report.to_string().contains("TD error"));
    }

    #[test]
    fn exploding_td_trips() {
        let cfg = SentinelConfig { max_abs_td: 100.0, ..SentinelConfig::default() };
        let tds = vec![vec![99.0, -101.0]];
        let report = check_tds(&tds, &cfg, 0).unwrap_err();
        assert_eq!(report.value, -101.0);
        assert_eq!(report.threshold, 100.0);
    }

    #[test]
    fn disabled_sentinel_checks_nothing() {
        let cfg = SentinelConfig { enabled: false, ..SentinelConfig::default() };
        assert!(check_tds(&[vec![f32::NAN]], &cfg, 0).is_ok());
        assert!(check_agents(&[nets()], &cfg, 0).is_ok());
    }

    #[test]
    fn healthy_agents_pass() {
        let cfg = SentinelConfig::default();
        assert!(check_agents(&[nets()], &cfg, 0).is_ok());
    }

    #[test]
    fn poisoned_network_trips() {
        let cfg = SentinelConfig::default();
        let mut a = nets();
        a.critic.params_mut()[0] = f32::INFINITY;
        let report = check_agents(&[a], &cfg, 3).unwrap_err();
        assert_eq!(report.agent, 0);
        assert!(report.what.contains("critic"));
    }

    #[test]
    fn report_serializes() {
        let r = DivergenceReport {
            update_iteration: 5,
            agent: 2,
            what: "TD error".into(),
            value: 1e9,
            threshold: 1e6,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: DivergenceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
