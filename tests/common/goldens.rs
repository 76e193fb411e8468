//! The 27 committed golden traces and the configurations they are
//! recorded under, shared by the default-kernel replay
//! (`golden_traces.rs`) and the forced-AVX2 and forced-scalar ones
//! (`golden_traces_avx2.rs`, `golden_traces_scalar.rs`).

use marl_conform::golden;
use marl_repro::algo::{Algorithm, LayoutMode, Task, TrainConfig};
use marl_repro::core::SamplerConfig;

const ALGORITHMS: [(Algorithm, &str); 2] =
    [(Algorithm::Maddpg, "maddpg"), (Algorithm::Matd3, "matd3")];
const SAMPLERS: [(SamplerConfig, &str); 4] = [
    (SamplerConfig::Uniform, "uniform"),
    (SamplerConfig::Per, "per"),
    (SamplerConfig::LocalityN16R64, "locality"),
    (SamplerConfig::IpLocality, "ip"),
];
const LAYOUTS: [(LayoutMode, &str); 2] =
    [(LayoutMode::PerAgent, "per_agent"), (LayoutMode::Interleaved, "interleaved")];

const SCENARIOS: [(Task, &str); 4] = [
    (Task::PhysicalDeception, "physical_deception"),
    (Task::KeepAway, "keep_away"),
    (Task::CooperativeReference, "cooperative_reference"),
    (Task::WorldComm, "world_comm"),
];

/// The algorithm × sampler × layout matrix on predator-prey: 16 traces.
pub fn matrix_cases() -> Vec<(String, TrainConfig)> {
    let mut cases = Vec::new();
    for (algorithm, algo_tag) in ALGORITHMS {
        for (sampler, sampler_tag) in SAMPLERS {
            for (layout, layout_tag) in LAYOUTS {
                cases.push((
                    format!("{algo_tag}_{sampler_tag}_{layout_tag}"),
                    super::golden_config(algorithm, sampler, layout),
                ));
            }
        }
    }
    cases
}

/// One trace per scenario × algorithm for the rest of the registered MPE
/// suite: 8 traces.
pub fn scenario_cases() -> Vec<(String, TrainConfig)> {
    let mut cases = Vec::new();
    for (task, tag) in SCENARIOS {
        for (algorithm, algo_tag) in ALGORITHMS {
            cases.push((
                format!("{algo_tag}_{tag}"),
                super::scenario_golden_config(algorithm, task),
            ));
        }
    }
    cases
}

/// K = 8 worlds of predator-prey; one vectorized episode.
pub fn k8_case() -> TrainConfig {
    super::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent)
        .with_num_envs(8)
        .with_episodes(8)
}

/// The annealed exploration schedule (ε 0.1 → 0.01 over 500 steps).
pub fn annealed_case() -> TrainConfig {
    let mut cfg =
        super::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent);
    cfg.exploration = marl_repro::algo::explore::ExplorationSchedule::annealed(500);
    cfg
}

/// K = 8 worlds of cooperative-reference (comm actions).
pub fn comm_k8_case() -> TrainConfig {
    super::scenario_golden_config(Algorithm::Maddpg, Task::CooperativeReference)
        .with_num_envs(8)
        .with_episodes(8)
}

/// Every committed golden and the configuration it is recorded under.
pub fn all_cases() -> Vec<(String, TrainConfig)> {
    let mut cases = matrix_cases();
    cases.extend(scenario_cases());
    cases.push(("maddpg_uniform_per_agent_k8".into(), k8_case()));
    cases.push(("maddpg_uniform_per_agent_annealed".into(), annealed_case()));
    cases.push(("maddpg_cooperative_reference_k8".into(), comm_k8_case()));
    cases
}

/// Records every case and diffs it against its committed trace (or
/// re-blesses under `MARL_BLESS=1`); failures accumulate so one report
/// lists every diverged trace.
pub fn check_cases(cases: Vec<(String, TrainConfig)>) {
    let mut failures = Vec::new();
    for (name, cfg) in cases {
        let digests = golden::record_run(cfg).expect("training failed");
        assert!(!digests.is_empty(), "{name}: run recorded no updates");
        if let Err(report) = golden::check_or_bless(&name, &cfg, &digests) {
            failures.push(report);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Whether `/proc/cpuinfo` lists avx2 and fma: the hosts where the
/// process must resolve the SIMD kernel by itself.
pub fn simd_host() -> bool {
    let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else { return false };
    let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    has("avx2") && has("fma")
}
