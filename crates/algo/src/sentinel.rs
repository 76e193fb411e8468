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
use marl_nn::mlp::max_abs_bits;
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
/// Each agent's errors pass on one compare: their largest magnitude bits
/// ([`max_abs_bits`]) against the threshold's, which orders exactly like
/// `|td| ≤ max_abs_td` and fails every non-finite error. Only an agent that
/// fails it is scanned element by element, for the first offending value.
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
    let t = config.max_abs_td;
    // The largest magnitude bits that pass: `|v| > NaN` is false, so a NaN
    // threshold lets every finite value through; a negative one none.
    let limit = match t {
        t if t.is_nan() => Some(f32::MAX.to_bits()),
        t if t >= 0.0 => Some(t.abs().to_bits().min(f32::MAX.to_bits())),
        _ => None,
    };
    for (agent, td) in tds.iter().enumerate() {
        if limit.is_some_and(|limit| max_abs_bits(td) <= limit) {
            continue;
        }
        if let Some(&v) = td.iter().find(|v| !v.is_finite() || v.abs() > t) {
            return Err(DivergenceReport {
                update_iteration,
                agent,
                what: "TD error".into(),
                value: v,
                threshold: t,
            });
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
    use proptest::prelude::*;

    fn nets() -> AgentNets {
        let mut rng = seeded(3);
        AgentNets::new(8, 5, 3 * 8 + 3 * 5, true, 0.01, &mut rng)
    }

    /// The TD scan before the bits compare: the reference oracle.
    fn check_tds_reference(
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

    /// The parameter scan before the bits fold: the reference oracle.
    fn max_abs_reference(params: &[f32]) -> f32 {
        let max = params.iter().try_fold(0.0f32, |m, &x| x.is_finite().then(|| m.max(x.abs())));
        max.unwrap_or(f32::NAN)
    }

    fn check_agents_reference(
        agents: &[AgentNets],
        config: &SentinelConfig,
        update_iteration: u64,
    ) -> Result<(), DivergenceReport> {
        if !config.enabled {
            return Ok(());
        }
        for (i, a) in agents.iter().enumerate() {
            for (name, net) in named_nets(a) {
                let m = max_abs_reference(net.params());
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

    fn named_nets(a: &AgentNets) -> Vec<(&'static str, &marl_nn::Mlp)> {
        let mut nets = vec![
            ("actor", &a.actor),
            ("target actor", &a.target_actor),
            ("critic", &a.critic),
            ("target critic", &a.target_critic),
        ];
        if let Some((c2, t2)) = &a.critic2 {
            nets.extend([("twin critic", c2), ("twin target critic", t2)]);
        }
        nets
    }

    fn named_nets_mut(a: &mut AgentNets) -> Vec<&mut marl_nn::Mlp> {
        let mut nets = vec![&mut a.actor, &mut a.target_actor, &mut a.critic, &mut a.target_critic];
        if let Some((c2, t2)) = &mut a.critic2 {
            nets.extend([c2, t2]);
        }
        nets
    }

    /// A report as comparable bits: `NaN != NaN` would hide an equal one.
    fn key(r: Result<(), DivergenceReport>) -> Option<(u64, usize, String, u32, u32)> {
        r.err().map(|r| {
            (r.update_iteration, r.agent, r.what, r.value.to_bits(), r.threshold.to_bits())
        })
    }

    /// One value from a `(kind, payload)` draw: at density `rate` (0 next
    /// to never … 3 one in four) a special value — `±0`, a subnormal,
    /// `±f32::MAX`, `±∞` or a NaN of either sign with a random payload —
    /// else a finite value of any exponent.
    fn special_value(rate: u32, (kind, bits): (u32, u32)) -> f32 {
        let every = [u32::MAX, 512, 32, 4][rate as usize];
        let sign = bits & 0x8000_0000;
        if (kind >> 3) % every != 0 {
            let finite = if bits & 0x7F80_0000 == 0x7F80_0000 { bits ^ 0x0080_0000 } else { bits };
            return f32::from_bits(finite);
        }
        f32::from_bits(match kind & 7 {
            0 => sign,
            1 => sign | (bits & 0x007F_FFFF),
            2 => sign | f32::MAX.to_bits(),
            3 => sign | 0x7F80_0000,
            _ => 0x7F80_0000 | bits | u32::from(bits & 0x007F_FFFF == 0),
        })
    }

    /// A threshold: mostly the magnitude of one of `values` (the compare's
    /// boundary), else any value, `±0`, `±∞` or NaN included.
    fn threshold(values: &[f32], (pick, bits): (u32, u32)) -> f32 {
        match pick % 4 {
            0 | 1 if !values.is_empty() => values[bits as usize % values.len()].abs(),
            2 => special_value(3, (pick >> 2, bits)),
            _ => special_value(0, (pick >> 2 | 8, bits)).abs(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Up to four agents of 0..=40 errors each cross every tail of the
        /// 16-lane fold.
        #[test]
        fn check_tds_reports_equal_the_loop(
            rate in 0u32..4,
            agents in prop::collection::vec(
                prop::collection::vec((any::<u32>(), any::<u32>()), 0..41),
                0..5,
            ),
            pick in (any::<u32>(), any::<u32>()),
        ) {
            let tds: Vec<Vec<f32>> =
                agents.iter().map(|a| a.iter().map(|&d| special_value(rate, d)).collect()).collect();
            let flat: Vec<f32> = tds.concat();
            let cfg = SentinelConfig { max_abs_td: threshold(&flat, pick), ..SentinelConfig::default() };
            prop_assert_eq!(key(check_tds(&tds, &cfg, 9)), key(check_tds_reference(&tds, &cfg, 9)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn check_tds_reports_equal_the_loop_on_long_batches(
            rate in 0u32..4,
            agents in prop::collection::vec(
                prop::collection::vec((any::<u32>(), any::<u32>()), 2000..5000),
                1..4,
            ),
            pick in (any::<u32>(), any::<u32>()),
        ) {
            let tds: Vec<Vec<f32>> =
                agents.iter().map(|a| a.iter().map(|&d| special_value(rate, d)).collect()).collect();
            let flat: Vec<f32> = tds.concat();
            let cfg = SentinelConfig { max_abs_td: threshold(&flat, pick), ..SentinelConfig::default() };
            prop_assert_eq!(key(check_tds(&tds, &cfg, 9)), key(check_tds_reference(&tds, &cfg, 9)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Poisons at random positions of random networks (twin critics
        /// included) against a threshold at or near the healthy maxima.
        #[test]
        fn check_agents_reports_equal_the_loop(
            rate in 0u32..4,
            poisons in prop::collection::vec(
                (any::<u32>(), any::<u32>(), (any::<u32>(), any::<u32>())),
                0..4,
            ),
            pick in (any::<u32>(), any::<u32>()),
        ) {
            let mut rng = seeded(11);
            let mut agents = vec![
                AgentNets::new(4, 3, 14, false, 0.01, &mut rng),
                AgentNets::new(4, 3, 14, true, 0.01, &mut rng),
            ];
            for &(which, at, draw) in &poisons {
                let nets = named_nets_mut(&mut agents[which as usize % 2]);
                let len = nets.len();
                let params = nets.into_iter().nth((which >> 1) as usize % len).unwrap().params_mut();
                let len = params.len();
                params[at as usize % len] = special_value(rate, draw);
            }
            let maxima: Vec<f32> = agents
                .iter()
                .flat_map(named_nets)
                .map(|(_, net)| max_abs_reference(net.params()))
                .collect();
            let cfg = SentinelConfig { max_abs_param: threshold(&maxima, pick), ..SentinelConfig::default() };
            prop_assert_eq!(
                key(check_agents(&agents, &cfg, 4)),
                key(check_agents_reference(&agents, &cfg, 4))
            );
        }
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
