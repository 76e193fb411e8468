//! The batched inference engine: one `forward_inference_into` per agent
//! per micro-batch, then scatter actions/logits back into the slots.
//!
//! A slot's `action` is the greedy joint action: the per-factor arg-max of
//! its logit row, mixed-radix encoded over the agent's action factors
//! ([`marl_nn::gumbel::argmax_segments_into`]) — the index
//! `Trainer::evaluate` steps the environment with.
//!
//! All working storage (per-agent observation/logit matrices, row maps,
//! arg-max buffers, `Scratch`) is owned by the engine and reused across
//! batches, so a warmed engine runs the whole gather → forward → scatter
//! cycle without allocating.
//!
//! Bitwise contract: the SIMD and scalar kernels compute each output row
//! of a batched forward pass independently of the other rows (enforced
//! by `batched_greedy_matches_one_row_inference_bitwise` in `marl-algo`),
//! so the logits written back into a slot are bit-identical to what a
//! batch-of-one inference for that request alone would produce — for
//! *any* interleaving of requests into batches. The serve equivalence
//! test rests on this.

use crate::batcher::RequestSlot;
use crate::model::PolicyModel;
use marl_nn::gumbel::argmax_segments_into;
use marl_nn::matrix::Matrix;
use marl_nn::scratch::Scratch;

/// Reusable per-agent working storage.
#[derive(Debug, Default)]
struct AgentBuffers {
    /// Batch indices (into the flush) routed to this agent.
    members: Vec<usize>,
    /// Gathered observations, one row per member.
    obs: Matrix,
    /// Forward output, one logit row per member.
    logits: Matrix,
    /// Per-row greedy joint actions.
    argmax: Vec<usize>,
}

/// The batched inference engine.
#[derive(Debug, Default)]
pub struct InferenceEngine {
    agents: Vec<AgentBuffers>,
    scratch: Scratch,
}

impl InferenceEngine {
    /// A fresh engine (buffers warm up over the first batches).
    pub fn new() -> Self {
        InferenceEngine::default()
    }

    /// Runs one micro-batch through `model`, filling each slot's
    /// `action`, `logits`, and `epoch`. Slots with a nonzero `error`
    /// code are passed over (their response is the error frame).
    ///
    /// Requests are grouped by agent and each group runs as one batched
    /// forward pass; results scatter back by the recorded row maps, so
    /// response-to-request attribution is positional and exact.
    pub fn infer(&mut self, model: &PolicyModel, batch: &mut [Box<RequestSlot>]) {
        if self.agents.len() < model.num_agents() {
            self.agents.resize_with(model.num_agents(), AgentBuffers::default);
        }
        for a in 0..model.num_agents() {
            let buf = &mut self.agents[a];
            buf.members.clear();
            for (i, slot) in batch.iter().enumerate() {
                if slot.error == 0 && slot.agent as usize == a {
                    buf.members.push(i);
                }
            }
            if buf.members.is_empty() {
                continue;
            }
            let obs_dim = model.obs_dim(a);
            buf.obs.resize(buf.members.len(), obs_dim);
            for (row, &i) in buf.members.iter().enumerate() {
                buf.obs.row_mut(row).copy_from_slice(&batch[i].obs);
            }
            model.actors[a].forward_inference_into(&buf.obs, &mut buf.logits, &mut self.scratch);
            buf.argmax.clear();
            buf.argmax.resize(buf.members.len(), 0);
            argmax_segments_into(&buf.logits, model.segments(a), &mut buf.argmax);
            for (row, &i) in buf.members.iter().enumerate() {
                let slot = &mut batch[i];
                slot.action = buf.argmax[row] as u32;
                slot.epoch = model.epoch;
                slot.logits.clear();
                slot.logits.extend_from_slice(buf.logits.row(row));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::RequestSlot;
    use marl_algo::checkpoint::Checkpoint;
    use marl_algo::{Algorithm, Task, TrainConfig, Trainer};

    fn tiny_model() -> PolicyModel {
        let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
        let trainer = Trainer::new(config).expect("trainer");
        let ckpt: Checkpoint = trainer.checkpoint();
        PolicyModel::from_checkpoint(&ckpt, 0)
    }

    fn request(agent: u32, obs: Vec<f32>) -> Box<RequestSlot> {
        Box::new(RequestSlot { agent, obs, ..RequestSlot::default() })
    }

    #[test]
    fn batched_equals_batch_of_one_bitwise_across_agents() {
        let model = tiny_model();
        let obs_dim = model.obs_dim(0);
        let mut engine = InferenceEngine::new();
        // A mixed batch: several requests per agent, interleaved.
        let mut batch: Vec<Box<RequestSlot>> = (0..10)
            .map(|i| {
                let agent = (i % model.num_agents()) as u32;
                let obs: Vec<f32> =
                    (0..obs_dim).map(|c| ((i * 13 + c * 7) % 11) as f32 * 0.09 - 0.4).collect();
                request(agent, obs)
            })
            .collect();
        engine.infer(&model, &mut batch);
        // Each request alone must produce bit-identical logits + action.
        for slot in &batch {
            let mut solo = vec![request(slot.agent, slot.obs.clone())];
            let mut solo_engine = InferenceEngine::new();
            solo_engine.infer(&model, &mut solo);
            assert_eq!(solo[0].logits, slot.logits, "agent {} logits differ", slot.agent);
            assert_eq!(solo[0].action, slot.action);
            assert_eq!(slot.epoch, 0);
        }
    }

    #[test]
    fn errored_slots_are_skipped() {
        let model = tiny_model();
        let obs_dim = model.obs_dim(0);
        let mut engine = InferenceEngine::new();
        let mut batch = vec![
            request(0, vec![0.1; obs_dim]),
            Box::new(RequestSlot {
                agent: 0,
                error: crate::proto::ERR_BAD_OBS_DIM,
                ..RequestSlot::default()
            }),
        ];
        engine.infer(&model, &mut batch);
        assert!(!batch[0].logits.is_empty());
        assert!(batch[1].logits.is_empty(), "errored slot must not be inferred");
    }
}
