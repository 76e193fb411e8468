//! Figure 11 and the §VI-C speed claim: PER-MADDPG (the prioritization
//! baseline) vs IP-MADDPG (the paper's information-prioritized
//! locality-aware sampling on top of PER).
//!
//! 1. **§VI-C — IP samples ≈ 2× faster than PER.** Per-batch plan-only and
//!    plan+gather time for PER, IP-locality and PER-reuse (window 6) at the
//!    paper's scale (100 000-row buffers, batch 1 024, N ∈ {3, 6, 12}), over
//!    synthetic predator-prey replays, with the IP/PER time ratio per N and
//!    its mean.
//! 2. **Figure 11 — reward curves** for PP-6, CN-6 and CN-12: learning
//!    quality should be comparable.

use marl_algo::{Algorithm, Task};
use marl_bench::{
    env_agents, env_usize, maybe_json, prime_sampler, run_scaled_training, synthetic_replay,
    time_sampling_iterations, PAPER_BATCH,
};
use marl_core::config::SamplerConfig;
use marl_perf::phase::Phase;
use marl_perf::report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// The three prioritized strategies the speed table compares.
const STRATEGIES: [SamplerConfig; 3] =
    [SamplerConfig::Per, SamplerConfig::IpLocality, SamplerConfig::PerReuse { window: 6 }];

#[derive(Debug, Serialize)]
struct SpeedRow {
    agents: usize,
    strategy: String,
    plan_us: f64,
    plan_gather_us: f64,
}

#[derive(Debug, Serialize)]
struct Curve {
    scenario: String,
    variant: String,
    final_score: f32,
    sampling_seconds: f64,
    series: Vec<(usize, f32)>,
}

/// Per-batch sampling cost of every strategy in [`STRATEGIES`] at each
/// agent count: one update iteration is N plans, each gathered from all
/// N buffers, so per batch is the iteration time over N.
fn speed_table() -> Vec<SpeedRow> {
    let agents = env_agents(&[3, 6, 12]);
    let rows = env_usize("MARL_CAPACITY", 100_000);
    let iters = env_usize("MARL_ITERS", 20);
    let batch = env_usize("MARL_BATCH", PAPER_BATCH);
    println!(
        "-- §VI-C: per-batch sampling time, {rows}-row buffers, batch {batch}, {iters} iterations --"
    );
    let mut table = Table::new(&["agents", "strategy", "plan-only (us)", "plan+gather (us)"]);
    let mut out = Vec::new();
    for &n in &agents {
        let replay = synthetic_replay(Task::PredatorPrey, n, rows);
        let batches = (iters * n) as f64;
        for cfg in STRATEGIES {
            let mut sampler = cfg.build(rows);
            prime_sampler(sampler.as_mut(), rows);
            // Warm-up pass, then the measured passes.
            time_sampling_iterations(&replay, sampler.as_mut(), n, batch, 1, 1);
            let plan_gather =
                time_sampling_iterations(&replay, sampler.as_mut(), n, batch, iters, 2);
            let mut rng = StdRng::seed_from_u64(3);
            let t0 = Instant::now();
            for _ in 0..iters * n {
                std::hint::black_box(sampler.plan(rows, batch, &mut rng).expect("plan"));
            }
            let plan = t0.elapsed();
            let row = SpeedRow {
                agents: n,
                strategy: cfg.label(),
                plan_us: plan.as_secs_f64() * 1e6 / batches,
                plan_gather_us: plan_gather.as_secs_f64() * 1e6 / batches,
            };
            table.row_owned(vec![
                n.to_string(),
                row.strategy.clone(),
                format!("{:.1}", row.plan_us),
                format!("{:.1}", row.plan_gather_us),
            ]);
            out.push(row);
        }
    }
    println!("{table}");

    let time_of = |n: usize, cfg: SamplerConfig| {
        out.iter()
            .find(|r| r.agents == n && r.strategy == cfg.label())
            .expect("every strategy is timed at every agent count")
            .plan_gather_us
    };
    let ratios: Vec<f64> = agents
        .iter()
        .map(|&n| {
            let ratio = time_of(n, SamplerConfig::IpLocality) / time_of(n, SamplerConfig::Per);
            println!(
                "N={n}: IP/PER plan+gather time ratio {ratio:.2} ({:.2}x faster)",
                1.0 / ratio
            );
            ratio
        })
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("mean IP/PER ratio {mean:.2} (paper: ≈0.5, IP ≈2x faster)\n");
    out
}

fn main() {
    println!("== Figure 11: PER-MADDPG vs IP-MADDPG ==\n");
    let speed = speed_table();
    maybe_json("fig11_speed", &speed);

    // Reward-curve experiments measure learning, not gather throughput:
    // do not pre-fill the replay with random-policy data unless the user
    // explicitly asks for it.
    if std::env::var("MARL_PREFILL").is_err() {
        std::env::set_var("MARL_PREFILL", "0");
    }
    let points = env_usize("MARL_POINTS", 8);
    let scenarios = [
        ("PP-6", Task::PredatorPrey, 6usize),
        ("CN-6", Task::CooperativeNavigation, 6),
        ("CN-12", Task::CooperativeNavigation, 12),
    ];
    let mut curves = Vec::new();
    for (name, task, n) in scenarios {
        println!("-- {name} --");
        let mut table =
            Table::new(&["variant", "final score", "sampling (s)", "curve (episode:reward)"]);
        for (vname, sampler) in
            [("PER-MADDPG", SamplerConfig::Per), ("IP-MADDPG", SamplerConfig::IpLocality)]
        {
            let report = run_scaled_training(Algorithm::Maddpg, task, n, sampler, 23);
            let window = (report.curve.len() / 5).max(1);
            let series = report.curve.series(window, points);
            let final_score = report.curve.final_score(window);
            let sampling = report.profile.get(Phase::MiniBatchSampling).as_secs_f64();
            let curve_str =
                series.iter().map(|(e, v)| format!("{e}:{v:.0}")).collect::<Vec<_>>().join(" ");
            table.row_owned(vec![
                vname.into(),
                format!("{final_score:.1}"),
                format!("{sampling:.2}"),
                curve_str,
            ]);
            curves.push(Curve {
                scenario: name.into(),
                variant: vname.into(),
                final_score,
                sampling_seconds: sampling,
                series,
            });
        }
        println!("{table}");
    }
    maybe_json("fig11", &curves);

    // Shape checks: comparable learning. In-training sampling time is
    // reported too, but at the scaled runs' small buffers the sum-tree
    // costs vanish; the speed table above is the paper-scale comparison.
    for (name, _, _) in scenarios {
        let per = curves.iter().find(|c| c.scenario == name && c.variant == "PER-MADDPG");
        let ip = curves.iter().find(|c| c.scenario == name && c.variant == "IP-MADDPG");
        if let (Some(per), Some(ip)) = (per, ip) {
            let speedup = per.sampling_seconds / ip.sampling_seconds.max(1e-9);
            println!(
                "{name}: in-training IP sampling speedup over PER {:.2}x; final scores {:.1} vs {:.1}",
                speedup, ip.final_score, per.final_score
            );
        }
    }
}
