//! Golden-trace regression suite (conformance pillar 1).
//!
//! Replays one fixed small configuration per algorithm × sampler ×
//! layout combination with an attached `UpdateTraceRecorder` and diffs
//! the recorded digest chain against the committed
//! `results/golden/*.trace` file. A mismatch names the first divergent
//! update step and digest field; a trace whose `# config:` header (the
//! run's `TrainConfig` as JSON) is not the configuration it is replayed
//! under fails too.
//!
//! Regenerate after an *intended* numeric change with
//! `MARL_BLESS=1 cargo test -q golden` (and record it in CHANGELOG.md —
//! CI enforces that pairing), then run it once more without `MARL_BLESS`:
//! the header check skips itself while the traces are being rewritten.

use common::goldens::{
    self, all_cases, annealed_case, comm_k8_case, k8_case, matrix_cases, scenario_cases,
};
use marl_conform::golden;
use marl_repro::algo::{Algorithm, LayoutMode, TrainConfig};
use marl_repro::core::SamplerConfig;
use marl_repro::nn::kernels;

mod common;

/// Replays `cases` on the kernel the process resolves by itself. On a
/// host whose `/proc/cpuinfo` lists avx2 and fma every dispatch must be
/// SIMD (AVX2, or AVX-512 where avx512f is listed too), so these goldens
/// pin what a default run computes there; `golden_traces_avx2.rs` and
/// `golden_traces_scalar.rs` replay the same traces on the narrower code.
fn check_cases(cases: Vec<(String, TrainConfig)>) {
    goldens::check_cases(cases);
    if goldens::simd_host() {
        let (scalar, simd) = kernels::dispatch_tally();
        assert!(scalar == 0 && simd > 0, "dispatches (scalar, simd) = ({scalar}, {simd})");
    }
}

/// All 16 committed combinations, replayed and diffed. One test so a
/// bless run regenerates the whole set atomically.
#[test]
fn golden_traces_match_committed_digests() {
    check_cases(matrix_cases());
}

/// The vectorized-rollout golden: the 17th committed trace pins the
/// K = 8 engine (SoA physics, batched inference, per-world RNG streams),
/// so any numeric drift in the multi-world path is
/// caught even though the 16 scalar-rollout goldens never exercise it.
/// Episodes = 8 with K = 8 means exactly one vectorized episode: 25
/// steps x 8 worlds x 3 agents = 600 samples past warmup 64 with
/// update_every 10 ⇒ a healthy digest chain.
#[test]
fn vectorized_k8_golden_trace_matches_committed_digest() {
    check_cases(vec![("maddpg_uniform_per_agent_k8".into(), k8_case())]);
}

/// The ε-greedy golden: every other golden runs the paper's default
/// exploration (ε = 0), so none reaches the branch that replaces a
/// sampled action with a uniformly random one. An annealed schedule
/// (ε 0.1 → 0.01, temperature 1.0 → 0.5 over 500 steps) pins that branch
/// and its extra master-stream draws.
#[test]
fn annealed_exploration_golden_trace_matches_committed_digest() {
    check_cases(vec![("maddpg_uniform_per_agent_annealed".into(), annealed_case())]);
}

/// One golden per scenario × algorithm for the rest of the registered
/// MPE suite (the 16-combo matrix above already covers predator-prey and
/// the sampler/layout axes on it; cooperative-navigation is pinned by
/// the end-to-end suites). Communication scenarios exercise segmented
/// Gumbel heads and — for world-comm — heterogeneous per-agent action
/// widths through the whole update pipeline, so these traces pin exactly
/// the numerics the scalar matrix cannot reach.
#[test]
fn per_scenario_golden_traces_match_committed_digests() {
    check_cases(scenario_cases());
}

/// The vectorized comm golden: K = 8 worlds of cooperative-reference,
/// whose actions are movement ⊕ a 10-way utterance. This pins the SoA
/// comm gather/scatter lanes, the batched segmented exploration path,
/// and the per-world RNG streams together in one committed digest chain.
#[test]
fn vectorized_k8_comm_golden_trace_matches_committed_digest() {
    check_cases(vec![("maddpg_cooperative_reference_k8".into(), comm_k8_case())]);
}

/// Every committed trace's `# config:` header deserializes to exactly the
/// configuration it is recorded from, no two traces share a header, and
/// the directory holds no trace without a case.
///
/// Skipped (with a note on stderr) under `MARL_BLESS`: the blessing tests
/// rewrite these files in parallel, so the headers read here could be
/// half-old. The plain run that must follow every bless checks them all.
#[test]
fn every_golden_header_is_the_config_it_was_recorded_from() {
    if golden::bless_requested() {
        eprintln!("skipped under MARL_BLESS: rerun without it to check the blessed headers");
        return;
    }
    let cases = all_cases();
    let mut headers = std::collections::BTreeSet::new();
    for (name, cfg) in &cases {
        let (recorded, _) = golden::load_trace(name).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(recorded, *cfg, "{name}: header is not its config");
        assert!(headers.insert(serde_json::to_string(cfg).unwrap()), "{name}: duplicate header");
    }
    let mut on_disk: Vec<String> = std::fs::read_dir(golden::golden_dir())
        .expect("golden dir")
        .filter_map(|e| e.ok()?.file_name().to_str()?.strip_suffix(".trace").map(String::from))
        .collect();
    on_disk.sort();
    let mut names: Vec<String> = cases.into_iter().map(|(n, _)| n).collect();
    names.sort();
    assert_eq!(on_disk, names);
}

/// The replay's address map changes no bit: for each of the 8
/// algorithm × sampler pairs, the committed time-major trace carries the
/// same digest lines (line 3 on) as its agent-major twin; only the
/// `# config:` header, which names the layout, differs.
#[test]
fn interleaved_goldens_carry_their_per_agent_twins_digests() {
    let read = |name: &str| {
        let path = golden::golden_dir().join(format!("{name}.trace"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let mut pairs = 0;
    for (name, cfg) in matrix_cases() {
        let Some(stem) = name.strip_suffix("_per_agent") else {
            assert_eq!(cfg.layout, LayoutMode::Interleaved, "{name}");
            continue;
        };
        let (per, tm) = (read(&name), read(&format!("{stem}_interleaved")));
        let digests = |text: &str| text.lines().skip(2).map(String::from).collect::<Vec<_>>();
        assert!(!digests(&per).is_empty(), "{name}: no digest lines");
        assert_eq!(digests(&tm), digests(&per), "{stem}: the layout moved a digest");
        assert_ne!(per.lines().nth(1), tm.lines().nth(1), "{stem}: headers must name the layout");
        pairs += 1;
    }
    assert_eq!(pairs, 8);
}

/// Recording twice under one configuration yields identical digest
/// chains — the trace is a pure function of the config, so the committed
/// goldens can only fail when behaviour actually changes.
#[test]
fn recording_is_deterministic() {
    let cfg =
        common::golden_config(Algorithm::Matd3, SamplerConfig::IpLocality, LayoutMode::Interleaved);
    let a = golden::record_run(cfg).unwrap();
    let b = golden::record_run(cfg).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Perturbing a hyper-parameter is *pinpointed*: γ enters through the
/// target-Q computation, so the first divergence is at update step 0 in
/// the `losses` field — while the drawn indices, run lengths, and IS
/// weights of that update still match (sampling state cannot depend on
/// γ before the first priority feedback).
#[test]
fn perturbed_gamma_is_named_step_and_field() {
    let cfg = common::golden_config(Algorithm::Maddpg, SamplerConfig::Per, LayoutMode::PerAgent);
    let base = golden::record_run(cfg).unwrap();
    let mut bumped = cfg;
    bumped.gamma = 0.9;
    let alt = golden::record_run(bumped).unwrap();
    let d = golden::first_divergence(&base, &alt).expect("gamma must change the trace");
    let golden::Divergence::Field { step, field, expected, actual } = d else {
        panic!("expected a field divergence, got {d:?}");
    };
    assert_eq!(step, 0, "gamma bites at the very first update");
    assert_eq!(field, "losses", "the critic loss is the first digest field gamma touches");
    assert_ne!(expected, actual);
    // The report a failing golden run prints carries both coordinates.
    let msg = d.to_string();
    assert!(msg.contains("update step 0") && msg.contains("`losses`"), "{msg}");
}

/// Perturbing the seed diverges immediately too — at the drawn indices,
/// the first field of the digest, since the sampling RNG stream itself
/// changed.
#[test]
fn perturbed_seed_diverges_at_the_first_update() {
    let cfg =
        common::golden_config(Algorithm::Maddpg, SamplerConfig::Uniform, LayoutMode::PerAgent);
    let base = golden::record_run(cfg).unwrap();
    let alt = golden::record_run(cfg.with_seed(4243)).unwrap();
    let d = golden::first_divergence(&base, &alt).expect("seed must change the trace");
    let golden::Divergence::Field { step, field, .. } = d else {
        panic!("expected a field divergence, got {d:?}");
    };
    assert_eq!(step, 0);
    assert_eq!(field, "indices");
}
