//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is `bench_e2e spec` verbatim (a unit test compares them), and
//! every run prints exactly these metrics, so the three cannot drift.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 4242;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// The end-to-end metric tracing overhead is judged on: the rate,
    /// except where an open loop fixes the rate and only latency can move.
    pub primary: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "train-pp3",
        why: "paper Table-I cell: MADDPG predator-prey N=3 batch 1024 uniform; nn is ~90% of the work, so kernel/MLP/Adam changes show here and env/wire/serve changes must not",
        primary: "ops_per_s",
    },
    WorkloadSpec {
        name: "train-cn12-per",
        why: "the N-scaling wall: MATD3 cooperative-navigation N=12 with PER; N^2 gathers, sum-tree draws and priority writes, wide joint critic rows, twin critics",
        primary: "ops_per_s",
    },
    WorkloadSpec {
        name: "rollout-wc-k1",
        why: "experience collection only (no update ever runs), world-comm heterogeneous heads, scalar K=1 loop; the bypass workload for every update-side optimisation",
        primary: "ops_per_s",
    },
    WorkloadSpec {
        name: "rollout-wc-k8",
        why: "same collection through the K=8 vectorized SoA path, so K=1 and K=8 cannot be traded for one another when the rollout loops are merged",
        primary: "ops_per_s",
    },
    WorkloadSpec {
        name: "dist-lockstep",
        why: "learner + one worker over loopback, batch 64: cheap updates make JSON frames, CRC, ingest and the lockstep handoff dominate; closed loop by construction",
        primary: "ops_per_s",
    },
    WorkloadSpec {
        name: "serve-light",
        why: "open-loop Poisson 2000 req/s on an idle engine: isolates the batcher's wait-for-deadline cost in request latency, timed from each request's due instant; traced run adds a 40000 req/s phase",
        primary: "op_p50_us",
    },
    WorkloadSpec {
        name: "serve-capacity",
        why: "closed loop, 128 requests outstanding on each of 2 connections: the answered rate batching buys; a flush-policy change must keep it",
        primary: "ops_per_s",
    },
];

/// Metrics a user of the system sees. Every workload reports every one;
/// what an "op" and a "unit of work" are on each workload is in
/// `benchmark/README.md`. The bounds are what this host's run-to-run
/// noise supports (see the README's noise-floor table), not a statement
/// of how small a regression matters.
pub const END_TO_END: [MetricSpec; 3] = [
    MetricSpec { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    MetricSpec { name: "op_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    MetricSpec { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Metrics of single layers, from the traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 88] = [
    // nn
    layer("nn.matmul_gflops", "gflop/s", Higher),
    layer("nn.critic_forward_us", "us", Lower),
    layer("nn.critic_backward_us", "us", Lower),
    layer("nn.actor_forward_us", "us", Lower),
    layer("nn.adam_step_us", "us", Lower),
    layer("nn.gumbel_seg_us", "us", Lower),
    layer("nn.infer_batch_us", "us", Lower),
    layer("nn.simd_dispatch_share", "ratio", Higher),
    // core
    layer("core.plan_us", "us", Lower),
    layer("core.gather_us", "us", Lower),
    layer("core.gather_rows", "count", Lower),
    layer("core.gather_bytes", "bytes", Lower),
    layer("core.priority_update_us", "us", Lower),
    layer("core.push_step_us", "us", Lower),
    layer("core.mean_run_len", "rows", Higher),
    // env
    layer("env.step_us", "us", Lower),
    layer("env.vec_step_us_per_world", "us", Lower),
    layer("env.reset_us", "us", Lower),
    // algo
    layer("algo.phase.action_selection_share", "ratio", Lower),
    layer("algo.phase.environment_step_share", "ratio", Lower),
    layer("algo.phase.bookkeeping_share", "ratio", Lower),
    layer("algo.phase.mini_batch_sampling_share", "ratio", Lower),
    layer("algo.phase.target_q_share", "ratio", Lower),
    layer("algo.phase.q_loss_p_loss_share", "ratio", Lower),
    layer("algo.phase.soft_update_share", "ratio", Lower),
    layer("algo.update_p50_ms", "ms", Lower),
    layer("algo.update_p90_ms", "ms", Lower),
    layer("algo.episode_p50_us", "us", Lower),
    layer("algo.episode_p95_us", "us", Lower),
    layer("algo.updates", "count", Higher),
    layer("algo.env_steps", "count", Higher),
    layer("algo.unattributed_share", "ratio", Lower),
    // dist
    layer("dist.frames_per_step", "count", Lower),
    layer("dist.bytes_per_step", "bytes", Lower),
    layer("dist.steps_frame_bytes", "bytes", Lower),
    layer("dist.params_frame_bytes", "bytes", Lower),
    layer("dist.episode_end_frame_bytes", "bytes", Lower),
    layer("dist.encode_steps_us", "us", Lower),
    layer("dist.decode_steps_us", "us", Lower),
    layer("dist.encode_params_us", "us", Lower),
    layer("dist.decode_params_us", "us", Lower),
    layer("dist.learner_recv_wait_share", "ratio", Lower),
    layer("dist.worker_recv_wait_share", "ratio", Lower),
    layer("dist.learner_send_share", "ratio", Lower),
    layer("dist.worker_send_share", "ratio", Lower),
    layer("dist.learner_update_share", "ratio", Lower),
    layer("dist.learner_ingest_us_per_step", "us", Lower),
    layer("dist.worker_busy_us_per_step", "us", Lower),
    layer("dist.accounting_gap_share", "ratio", Lower),
    layer("dist.loopback_rtt_us", "us", Lower),
    layer("dist.socket_rtt_us", "us", Lower),
    layer("dist.quarantined_frames", "count", Lower),
    // serve
    layer("serve.offered_rps", "1/s", Higher),
    layer("serve.sent", "count", Higher),
    layer("serve.answered", "count", Higher),
    layer("serve.errors", "count", Lower),
    layer("serve.batch_fill", "count", Higher),
    layer("serve.generator_late_p50_us", "us", Lower),
    layer("serve.generator_late_p99_us", "us", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.server_latency_p50_us", "us", Lower),
    layer("serve.server_latency_p99_us", "us", Lower),
    layer("serve.client_p90_us", "us", Lower),
    layer("serve.client_p99_us", "us", Lower),
    layer("serve.client_max_us", "us", Lower),
    layer("serve.heavy_offered_rps", "1/s", Higher),
    layer("serve.heavy_answered", "count", Higher),
    layer("serve.heavy_p50_us", "us", Lower),
    layer("serve.heavy_p99_us", "us", Lower),
    layer("serve.heavy_batch_fill", "count", Higher),
    layer("serve.heavy_generator_late_p99_us", "us", Lower),
    layer("serve.engine_infer_us_b1", "us", Lower),
    layer("serve.engine_infer_us_b8", "us", Lower),
    layer("serve.engine_infer_us_b32", "us", Lower),
    layer("serve.encode_req_ns", "ns", Lower),
    layer("serve.decode_req_ns", "ns", Lower),
    layer("serve.encode_resp_ns", "ns", Lower),
    layer("serve.decode_resp_ns", "ns", Lower),
    layer("serve.batcher_push_drain_ns", "ns", Lower),
    layer("serve.socket_rtt_us", "us", Lower),
    layer("serve.unattributed_us", "us", Lower),
    // obs: the validity check on every row above.
    layer("obs.spans_recorded", "count", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("obs.span_record_ns", "ns", Lower),
    layer("obs.traced_ops_per_s", "1/s", Higher),
    layer("obs.traced_op_p50_us", "us", Lower),
    layer("obs.timed_wall_s", "s", Lower),
    layer("obs.peak_rss_mb", "MiB", Lower),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `bench_e2e spec`");
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
