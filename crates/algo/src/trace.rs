//! Deterministic update-trace recording for the conformance harness.
//!
//! An attached [`UpdateTraceRecorder`] folds every *update all trainers*
//! iteration into a compact [`UpdateDigest`]: CRC-32 checksums over the
//! drawn sample indices, segment run lengths, IS weight bits, per-agent
//! critic losses, per-agent TD errors, and the post-update parameters of
//! every network — chained so that a single drifted update poisons every
//! later digest. The golden-trace regression suite
//! (`tests/golden_traces.rs`) compares recorded digest sequences against
//! committed `results/golden/*.trace` files and reports the first
//! divergent update step and field.
//!
//! Like [`Trainer::attach_telemetry`][crate::trainer::Trainer], the
//! recorder is an observer with the zero-cost-when-detached shape: the
//! trainer holds an `Option<UpdateTraceRecorder>` that is `None` in
//! normal runs (one branch per tap site), is never checkpointed, and
//! never feeds back into training state — attaching it cannot change a
//! single trained bit.

use marl_core::crc32::Crc32;
use serde::{Deserialize, Serialize};

use crate::agent::AgentNets;

/// The digest of one *update all trainers* iteration.
///
/// Every field is a CRC-32 over exact little-endian bit patterns (`u64`
/// indices/run lengths, `f32::to_bits` floats) — never over formatted
/// decimals — so equality means bitwise-identical update inputs and
/// outputs, and the digests are identical across thread counts and data
/// layouts that are bitwise-equivalent by contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateDigest {
    /// The update iteration this digest covers (`Trainer::update_iterations`
    /// at tap time, i.e. 0 for the first update).
    pub step: u64,
    /// CRC-32 over all agents' drawn row indices, in agent order.
    pub indices: u32,
    /// CRC-32 over all plans' segment run lengths, in agent order.
    pub runs: u32,
    /// CRC-32 over all plans' IS weight bits; `0` (the empty CRC) for
    /// unweighted strategies.
    pub weights: u32,
    /// CRC-32 over the per-agent critic losses (twin loss included for
    /// MATD3), in agent order.
    pub losses: u32,
    /// CRC-32 over the per-agent TD error vectors, in agent order.
    pub tds: u32,
    /// CRC-32 over every agent's post-update network parameters (actor,
    /// target actor, critic, target critic, twins), in agent order.
    pub params: u32,
    /// Chain value: CRC-32 over the previous chain value and every field
    /// above. Two traces agree at step `k` iff they agree at every step
    /// `≤ k`, so the first chain mismatch *is* the first divergence.
    pub chain: u32,
}

/// The digest field names, in serialization order (everything except
/// `step` and the derived `chain`).
pub const DIGEST_FIELDS: [&str; 6] = ["indices", "runs", "weights", "losses", "tds", "params"];

impl UpdateDigest {
    /// The named checksum field (`DIGEST_FIELDS` plus `"chain"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown field name.
    pub fn field(&self, name: &str) -> u32 {
        match name {
            "indices" => self.indices,
            "runs" => self.runs,
            "weights" => self.weights,
            "losses" => self.losses,
            "tds" => self.tds,
            "params" => self.params,
            "chain" => self.chain,
            other => panic!("unknown digest field {other:?}"),
        }
    }
}

/// Records one [`UpdateDigest`] per update iteration; see the module docs.
///
/// # Examples
///
/// ```no_run
/// use marl_algo::config::{Algorithm, Task, TrainConfig};
/// use marl_algo::trace::UpdateTraceRecorder;
/// use marl_algo::trainer::Trainer;
///
/// let cfg = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3)
///     .with_episodes(4);
/// let mut t = Trainer::new(cfg)?;
/// t.attach_trace_recorder(UpdateTraceRecorder::new());
/// t.train()?;
/// let trace = t.detach_trace_recorder().unwrap();
/// println!("{} updates digested", trace.digests().len());
/// # Ok::<(), marl_algo::error::TrainError>(())
/// ```
#[derive(Debug, Default)]
pub struct UpdateTraceRecorder {
    digests: Vec<UpdateDigest>,
    chain: u32,
    indices: Crc32,
    runs: Crc32,
    weights: Crc32,
    losses: Crc32,
    tds: Crc32,
    params: Crc32,
}

impl UpdateTraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        UpdateTraceRecorder::default()
    }

    /// The digests recorded so far, one per completed update iteration.
    pub fn digests(&self) -> &[UpdateDigest] {
        &self.digests
    }

    /// Consumes the recorder, returning the recorded digests.
    pub fn into_digests(self) -> Vec<UpdateDigest> {
        self.digests
    }

    /// Folds one agent trainer's sampling plan into the pending digest
    /// (called once per agent, in agent order).
    pub fn record_plan(&mut self, plan: &marl_core::indices::SamplePlan) {
        plan.digest_into(&mut self.indices, &mut self.runs, &mut self.weights);
    }

    /// Folds the per-agent critic losses of the current iteration into the
    /// pending digest.
    pub fn record_losses(&mut self, losses: &[f32]) {
        for &l in losses {
            self.losses.update(&l.to_bits().to_le_bytes());
        }
    }

    /// Folds the per-agent TD error vectors into the pending digest.
    pub fn record_tds(&mut self, tds: &[Vec<f32>]) {
        for td in tds {
            for &x in td {
                self.tds.update(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Folds every network parameter of every agent into the pending
    /// digest (call after the soft updates, so the digest captures the
    /// iteration's final parameters).
    pub fn record_params(&mut self, agents: &[AgentNets]) {
        let h = &mut self.params;
        let mut hash_net = |net: &marl_nn::mlp::Mlp| {
            for &x in net.params() {
                h.update(&x.to_bits().to_le_bytes());
            }
        };
        for a in agents {
            hash_net(&a.actor);
            hash_net(&a.target_actor);
            hash_net(&a.critic);
            hash_net(&a.target_critic);
            if let Some((c2, t2)) = &a.critic2 {
                hash_net(c2);
                hash_net(t2);
            }
        }
    }

    /// Discards any partially recorded, un-sealed update state. The
    /// trainer calls this on divergence rollback: the aborted iteration's
    /// plan/loss hashes must not leak into the digest of the retried
    /// iteration.
    pub fn reset_pending(&mut self) {
        self.indices = Crc32::new();
        self.runs = Crc32::new();
        self.weights = Crc32::new();
        self.losses = Crc32::new();
        self.tds = Crc32::new();
        self.params = Crc32::new();
    }

    /// Seals the pending field hashes into an [`UpdateDigest`] for update
    /// iteration `step`, extends the digest chain, and resets the field
    /// hashes for the next iteration.
    pub fn end_update(&mut self, step: u64) {
        let digest = UpdateDigest {
            step,
            indices: std::mem::take(&mut self.indices).finish(),
            runs: std::mem::take(&mut self.runs).finish(),
            weights: std::mem::take(&mut self.weights).finish(),
            losses: std::mem::take(&mut self.losses).finish(),
            tds: std::mem::take(&mut self.tds).finish(),
            params: std::mem::take(&mut self.params).finish(),
            chain: 0,
        };
        let mut chain = Crc32::new();
        chain.update(&self.chain.to_le_bytes());
        chain.update(&digest.step.to_le_bytes());
        for f in DIGEST_FIELDS {
            chain.update(&digest.field(f).to_le_bytes());
        }
        self.chain = chain.finish();
        self.digests.push(UpdateDigest { chain: self.chain, ..digest });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_core::indices::SamplePlan;

    #[test]
    fn chain_depends_on_every_prior_step() {
        let run = |second_weights: Vec<f32>| {
            let mut r = UpdateTraceRecorder::new();
            let mut p = SamplePlan::from_indices(&[1, 2, 3]);
            r.record_plan(&p);
            r.record_losses(&[0.5]);
            r.record_tds(&[vec![0.1, -0.2]]);
            r.end_update(0);
            p.weights = Some(second_weights);
            r.record_plan(&p);
            r.end_update(1);
            r.into_digests()
        };
        let a = run(vec![1.0, 1.0, 1.0]);
        let b = run(vec![1.0, 1.0, 0.5]);
        // Step 0 matches; step 1 differs only in the weight field, and the
        // chain diverges from there on.
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1].indices, b[1].indices);
        assert_eq!(a[1].runs, b[1].runs);
        assert_ne!(a[1].weights, b[1].weights);
        assert_ne!(a[1].chain, b[1].chain);
    }

    #[test]
    fn field_hashes_reset_between_updates() {
        let mut r = UpdateTraceRecorder::new();
        let p = SamplePlan::from_indices(&[7]);
        r.record_plan(&p);
        r.end_update(0);
        r.record_plan(&p);
        r.end_update(1);
        let d = r.digests();
        // Identical per-update inputs give identical field digests (no
        // cross-update accumulation), while the chain still advances.
        assert_eq!(d[0].indices, d[1].indices);
        assert_ne!(d[0].chain, d[1].chain);
    }

    #[test]
    fn field_lookup_covers_all_names() {
        let mut r = UpdateTraceRecorder::new();
        r.end_update(0);
        let d = r.digests()[0];
        for f in DIGEST_FIELDS {
            let _ = d.field(f);
        }
        assert_eq!(d.field("chain"), d.chain);
    }
}
