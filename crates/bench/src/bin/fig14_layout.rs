//! Figure 14: transition data layout reorganization — change in
//! mini-batch sampling time (including the reshape cost) for predator-prey
//! and cooperative navigation at 3–24 agents, plus the pure inter-agent
//! sampling speedups with the reshape excluded (paper: 1.36×–9.55× PP,
//! 1.18×–7.03× CN).
//!
//! The buffer keeps growing during training, so the reorganized layout is
//! rebuilt periodically; one reshape amortizes over `MARL_ITERS`
//! update-all-trainers iterations (default 16). Small agent counts cannot
//! amortize the reshape (slowdown); large ones can (speedup) — the
//! paper's crossover.

use marl_algo::Task;
use marl_bench::{env_agents, env_usize, maybe_json, synthetic_replay, PAPER_BATCH};
use marl_core::config::SamplerConfig;
use marl_core::multi::{LayoutMode, MultiAgentReplay};
use marl_perf::report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    task: &'static str,
    agents: usize,
    baseline_ms: f64,
    layout_ms: f64,
    reshape_ms: f64,
    improvement_with_reshape: f64,
    speedup_without_reshape: f64,
}

fn main() {
    println!("== Figure 14: transition data layout reorganization ==\n");
    let agents = env_agents(&[3, 6, 12, 24]);
    let rows = env_usize("MARL_CAPACITY", 60_000);
    let iters = env_usize("MARL_ITERS", 16);
    let batch = env_usize("MARL_BATCH", PAPER_BATCH);

    let mut table = Table::new(&[
        "task",
        "agents",
        "baseline (ms)",
        "interleaved (ms)",
        "reshape (ms)",
        "improvement incl. reshape",
        "speedup excl. reshape",
    ]);
    let mut out = Vec::new();
    for task in [Task::PredatorPrey, Task::CooperativeNavigation] {
        for &n in &agents {
            let replay = synthetic_replay(task, n, rows);
            let mut sampler = SamplerConfig::Uniform.build(rows);

            // Each timing takes the best of two measured windows after a
            // warm-up window, so allocator page faults and scheduling
            // noise do not masquerade as layout effects.
            let mut time_iterations = |sample: &mut dyn FnMut(&marl_core::indices::SamplePlan)| {
                let mut best = std::time::Duration::MAX;
                for rep in 0..3 {
                    let mut rng = StdRng::seed_from_u64(1);
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        for _ in 0..n {
                            let plan = sampler.plan(rows, batch, &mut rng).expect("plan");
                            sample(&plan);
                        }
                    }
                    let d = t0.elapsed();
                    if rep > 0 {
                        best = best.min(d);
                    }
                }
                best
            };

            // Baseline: the agent-major map, common indices, O(N·m) row
            // reads per trainer.
            let baseline = time_iterations(&mut |plan| {
                std::hint::black_box(replay.sample(plan).expect("sample"));
            });

            // The time-major map (the interleaved key-value layout): a
            // periodic reshape, then O(m) fat-row gathers. Reshape cost =
            // best of three (first run pays allocator page faults that a
            // steady-state trainer would not).
            let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
            let mut reshape = std::time::Duration::MAX;
            for _ in 0..3 {
                let t0 = Instant::now();
                std::hint::black_box(MultiAgentReplay::reorganize_from(
                    &replay,
                    LayoutMode::Interleaved,
                ));
                reshape = reshape.min(t0.elapsed());
            }
            let layout = time_iterations(&mut |plan| {
                std::hint::black_box(store.sample(plan).expect("sample"));
            });

            let with_reshape = layout + reshape;
            let improvement = (1.0 - with_reshape.as_secs_f64() / baseline.as_secs_f64()) * 100.0;
            let speedup = baseline.as_secs_f64() / layout.as_secs_f64();
            table.row_owned(vec![
                task.label().into(),
                n.to_string(),
                format!("{:.1}", baseline.as_secs_f64() * 1e3),
                format!("{:.1}", layout.as_secs_f64() * 1e3),
                format!("{:.1}", reshape.as_secs_f64() * 1e3),
                format!("{improvement:+.1}%"),
                format!("{speedup:.2}x"),
            ]);
            out.push(Row {
                task: task.label(),
                agents: n,
                baseline_ms: baseline.as_secs_f64() * 1e3,
                layout_ms: layout.as_secs_f64() * 1e3,
                reshape_ms: reshape.as_secs_f64() * 1e3,
                improvement_with_reshape: improvement,
                speedup_without_reshape: speedup,
            });
        }
    }
    println!("{table}");
    maybe_json("fig14", &out);

    // Shape checks: improvement (incl. reshape) rises with N (paper:
    // −63.8% at 3 agents → +25.8% at 24 for PP); pure speedups are
    // monotone in N.
    for task in ["predator-prey", "cooperative-navigation"] {
        let series: Vec<&Row> = out.iter().filter(|r| r.task == task).collect();
        let rising = series
            .windows(2)
            .all(|w| w[1].improvement_with_reshape >= w[0].improvement_with_reshape);
        let speedups: Vec<String> =
            series.iter().map(|r| format!("{:.2}x", r.speedup_without_reshape)).collect();
        println!(
            "{task}: improvement trend rising with N: {} | pure inter-agent speedups: {}",
            if rising { "✓" } else { "✗" },
            speedups.join(", ")
        );
    }
}
