//! Every paper table and figure as a pure function of recorded cells.
//!
//! A [`View`] lists the cells it reads and renders `results/<name>.txt`
//! from their outcomes alone, so a rendered file changes only when a cell
//! is re-measured.

use crate::cells::{
    Cell, Platform, Store, TrainRun, GATHER_ITERS, GATHER_ROWS, LAYOUT_ITERS, LAYOUT_WINDOWS,
};
use crate::{estimated_access_time, obs_dim, FrameworkCosts, GpuModeledBreakdown, PAPER_BATCH};
use marl_algo::{Algorithm, Task};
use marl_core::config::SamplerConfig;
use marl_perf::counters::{growth_rates, miss_reduction_percent, HwCounters};
use marl_perf::phase::{Phase, PhaseProfile};
use marl_perf::platform::TransferModel;
use marl_perf::report::{percent, Table};
use std::path::PathBuf;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! put {
    ($out:expr, $($fmt:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($fmt)*).expect("writing to a String cannot fail");
    }};
}

/// One output file, `results/<name>.txt`.
#[derive(Debug)]
pub struct View {
    /// File stem, and the name `repro` takes on its command line.
    pub name: &'static str,
    /// The cells the view reads.
    pub cells: fn() -> Vec<Cell>,
    /// Renders the file from those cells' outcomes.
    pub render: fn(&Store) -> String,
}

/// Every view, in the paper's order.
pub const VIEWS: [View; 14] = [
    View { name: "table1", cells: grid_cells, render: table1 },
    View { name: "fig2_breakdown", cells: grid_cells, render: fig2 },
    View { name: "fig3_update_breakdown", cells: grid_cells, render: fig3 },
    View { name: "fig4", cells: fig4_cells, render: fig4 },
    View { name: "fig6_scalability", cells: fig6_cells, render: fig6 },
    View { name: "sampling_telemetry", cells: telemetry_cells, render: telemetry },
    View { name: "fig8_sampling_reduction", cells: fig8_cells, render: fig8 },
    View { name: "miss_reduction", cells: miss_cells, render: miss_reduction },
    View { name: "fig9_e2e_reduction", cells: fig9_cells, render: fig9 },
    View { name: "fig10_rewards", cells: fig10_cells, render: fig10 },
    View { name: "fig11_per_rewards", cells: fig11_cells, render: fig11 },
    View { name: "fig12_cpu_platform", cells: host_cells, render: fig12 },
    View { name: "fig13_gpu_platform", cells: host_cells, render: fig13 },
    View { name: "fig14_layout", cells: fig14_cells, render: fig14 },
];

/// The committed `results/` directory the views render into.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Whether a series rises from one agent count to the next, given each
/// side's repeated measurements: `✓` or `✗` only where the medians differ
/// by more than both sides' spread (max − min), since a smaller difference
/// is within what the host's run-to-run noise produces; `unresolved`
/// otherwise.
fn trend(lower_n: &[f64], higher_n: &[f64]) -> &'static str {
    let diff = median(higher_n) - median(lower_n);
    if diff.abs() <= spread(lower_n).max(spread(higher_n)) {
        "unresolved"
    } else if diff > 0.0 {
        "✓"
    } else {
        "✗"
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

fn spread(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `3→6 ✓, 6→12 unresolved, …` over a series' per-N samples.
fn trends(agents: &[usize], samples: &[Vec<f64>]) -> String {
    let steps: Vec<String> = (1..agents.len())
        .map(|i| format!("{}→{} {}", agents[i - 1], agents[i], trend(&samples[i - 1], &samples[i])))
        .collect();
    steps.join(", ")
}

const MADDPG: Algorithm = Algorithm::Maddpg;
const PP: Task = Task::PredatorPrey;
const CN: Task = Task::CooperativeNavigation;
const ALGORITHMS: [Algorithm; 2] = [MADDPG, Algorithm::Matd3];
const TASKS: [Task; 2] = [PP, CN];
const SMALL: [usize; 3] = [3, 6, 12];
const SWEEP: [usize; 4] = [3, 6, 12, 24];
const UNIFORM: SamplerConfig = SamplerConfig::Uniform;
const N16: SamplerConfig = SamplerConfig::LocalityN16R64;
const N64: SamplerConfig = SamplerConfig::LocalityN64R16;
const LOCALITY: [SamplerConfig; 3] = [UNIFORM, N16, N64];
/// The §VI-C strategies: PER, IP and PER with a reuse window of 6.
const PRIORITIZED: [SamplerConfig; 3] =
    [SamplerConfig::Per, SamplerConfig::IpLocality, SamplerConfig::PerReuse { window: 6 }];
/// Figures 10 and 11's reward-curve scenarios.
const CURVES: [(&str, Task, usize); 3] = [("PP-6", PP, 6), ("CN-6", CN, 6), ("CN-12", CN, 12)];
/// Points printed per reward curve.
const CURVE_POINTS: usize = 8;

/// Seed-0 uniform training run.
fn base(algorithm: Algorithm, task: Task, agents: usize) -> Cell {
    Cell::timed(algorithm, task, agents, UNIFORM, 0)
}

fn gather(task: Task, agents: usize, sampler: SamplerConfig) -> Cell {
    Cell::Gather { task, agents, sampler }
}

fn simulate(platform: Platform, task: Task, agents: usize, sampler: SamplerConfig) -> Cell {
    Cell::Simulate { platform, task, agents, sampler }
}

/// Per-60k-episode extrapolation of a run's wall time.
fn per_60k(run: &TrainRun) -> f64 {
    run.wall_s * 60_000.0 / run.curve.len().max(1) as f64
}

/// A run's modeled TF/GPU breakdown under one host's framework costs.
fn modeled(s: &Store, cell: Cell, costs: FrameworkCosts) -> GpuModeledBreakdown {
    let Cell::Train { config, .. } = cell else { panic!("only training runs are modeled") };
    GpuModeledBreakdown::from_run(&config, s.train(cell), costs)
}

/// Measured shares of total time: action selection, update-all-trainers,
/// everything else.
fn shares(p: &PhaseProfile) -> [f64; 3] {
    let update = p.update_all_trainers().as_secs_f64() / p.total().as_secs_f64();
    let action = p.fraction(Phase::ActionSelection);
    [action, update, (1.0 - update - action).max(0.0)]
}

fn reduction(baseline: f64, optimized: f64) -> f64 {
    (1.0 - optimized / baseline) * 100.0
}

fn grid_cells() -> Vec<Cell> {
    ALGORITHMS
        .into_iter()
        .flat_map(|a| TASKS.into_iter().flat_map(move |t| SMALL.map(|n| base(a, t, n))))
        .collect()
}

/// Table I (60k-episode seconds), indexed `[algorithm][task][agents]`
/// like [`ALGORITHMS`], [`TASKS`] and [`SMALL`].
const PAPER_TABLE1: [[[f64; 3]; 2]; 2] = [
    [[3365.99, 8504.99, 23406.16], [2403.64, 5888.64, 15722.43]],
    [[3838.97, 9039.11, 24678.43], [2785.53, 6369.42, 17081.71]],
];

fn table1(s: &Store) -> String {
    let mut out = String::from("== Table I: end-to-end training times ==\n\n");
    let mut table = Table::new(&[
        "algorithm",
        "environment",
        "agents",
        "episodes",
        "measured (s)",
        "per-60k extrapolation (s)",
        "paper @60k (s)",
    ]);
    for (a, algorithm) in ALGORITHMS.into_iter().enumerate() {
        for (t, task) in TASKS.into_iter().enumerate() {
            for (i, n) in SMALL.into_iter().enumerate() {
                let run = s.train(base(algorithm, task, n));
                table.row_owned(vec![
                    algorithm.label().into(),
                    task.label().into(),
                    n.to_string(),
                    run.curve.len().to_string(),
                    format!("{:.2}", run.wall_s),
                    format!("{:.0}", per_60k(run)),
                    format!("{:.0}", PAPER_TABLE1[a][t][i]),
                ]);
            }
        }
    }
    put!(out, "{table}");
    // Per-episode growth (the budget shrinks as N grows).
    for algorithm in ALGORITHMS {
        let time = SMALL.map(|n| per_60k(s.train(base(algorithm, PP, n))));
        for i in 1..SMALL.len() {
            let ratio = time[i] / time[i - 1];
            let agents = SMALL[i] as f64 / SMALL[i - 1] as f64;
            put!(
                out,
                "{} PP {} -> {} agents: {ratio:.2}x time for {agents:.0}x agents ({})",
                algorithm.label(),
                SMALL[i - 1],
                SMALL[i],
                if ratio > agents { "super-linear ✓" } else { "sub-linear" }
            );
        }
    }
    out
}

fn fig2(s: &Store) -> String {
    let mut out = String::from("== Figure 2: end-to-end training-time breakdown ==\n\n");
    let mut checks = String::new();
    for algorithm in ALGORITHMS {
        for task in TASKS {
            put!(out, "-- {} / {} --", algorithm.label(), task.label());
            let mut table = Table::new(&[
                "agents",
                "action selection",
                "update all trainers",
                "other",
                "action (TF/GPU model)",
                "update (TF/GPU model)",
                "other (TF/GPU model)",
            ]);
            let mut update = Vec::new();
            for n in SMALL {
                let measured = shares(&s.train(base(algorithm, task, n)).profile);
                let m = modeled(s, base(algorithm, task, n), FrameworkCosts::RTX3090);
                let model =
                    [m.action_selection, m.update_all_trainers(), m.other].map(|x| x / m.total());
                let mut row = vec![n.to_string()];
                row.extend(measured.iter().chain(&model).map(|&x| percent(x)));
                table.row_owned(row);
                update.push((measured[1], model[1]));
            }
            put!(out, "{table}");
            let (first, last) = (update[0], update[update.len() - 1]);
            put!(
                checks,
                "{} {}: update share {} -> {} (measured) | {} -> {} (TF/GPU model, paper: 36% -> 76%+) {}",
                algorithm.label(),
                task.label(),
                percent(first.0),
                percent(last.0),
                percent(first.1),
                percent(last.1),
                if last.1 > first.1 { "✓" } else { "" }
            );
        }
    }
    out + &checks
}

fn fig3(s: &Store) -> String {
    let mut out = String::from("== Figure 3: breakdown within update-all-trainers ==\n\n");
    let (mut dominant, mut configs) = (0, 0);
    for algorithm in ALGORITHMS {
        for task in TASKS {
            put!(out, "-- {} / {} --", algorithm.label(), task.label());
            let mut table = Table::new(&[
                "agents",
                "mini-batch sampling",
                "target-Q",
                "Q-loss + P-loss",
                "sampling (TF/GPU model)",
                "target-Q (TF/GPU model)",
                "Q/P-loss (TF/GPU model)",
            ]);
            for n in SMALL {
                let p = &s.train(base(algorithm, task, n)).profile;
                let m = modeled(s, base(algorithm, task, n), FrameworkCosts::RTX3090);
                let model =
                    [m.sampling, m.target_q, m.q_loss_p_loss].map(|x| x / m.update_all_trainers());
                let mut row = vec![n.to_string()];
                row.extend(
                    [Phase::MiniBatchSampling, Phase::TargetQ, Phase::QLossPLoss]
                        .map(|phase| p.fraction_of_update(phase))
                        .iter()
                        .chain(&model)
                        .map(|&x| percent(x)),
                );
                table.row_owned(row);
                dominant += usize::from(model[0] > model[1] && model[0] > model[2]);
                configs += 1;
            }
            put!(out, "{table}");
        }
    }
    put!(
        out,
        "mini-batch sampling dominant (TF/GPU model) in {dominant}/{configs} configurations {}",
        if dominant * 2 > configs { "✓" } else { "(expected majority)" }
    );
    put!(
        out,
        "(measured pure-CPU substrate: dense math dominates instead — the paper's balance\n\
         assumes GPU-offloaded networks; see DESIGN.md substitutions)"
    );
    out
}

fn fig4_cells() -> Vec<Cell> {
    TASKS
        .into_iter()
        .flat_map(|t| SWEEP.map(|n| simulate(Platform::Ryzen, t, n, UNIFORM)))
        .collect()
}

fn fig4(s: &Store) -> String {
    let mut out = String::from(
        "== Figure 4: counter growth rates of update-all-trainers ==\n\
         (trace-driven cache/TLB simulation at 1M-row buffers, batch 1024)\n\n",
    );
    let mut table = Table::new(&[
        "transition",
        "task",
        "instructions (x)",
        "cache misses (x)",
        "dTLB misses (x)",
        "iTLB misses (x)",
        "branch misses (x)",
    ]);
    let mut superlinear = true;
    for task in TASKS {
        let counters: Vec<HwCounters> = SWEEP
            .iter()
            .map(|&n| s.simulate(simulate(Platform::Ryzen, task, n, UNIFORM)).hw)
            .collect();
        for i in 1..SWEEP.len() {
            let g = growth_rates(&counters[i - 1], &counters[i]);
            let rates =
                [g.instructions, g.cache_misses, g.dtlb_misses, g.itlb_misses, g.branch_misses];
            let mut row = vec![format!("{} to {}", SWEEP[i - 1], SWEEP[i]), task.label().into()];
            row.extend(rates.iter().map(|r| format!("{r:.2}")));
            table.row_owned(row);
            superlinear &= rates[..3].iter().all(|&r| r > 2.0);
        }
    }
    put!(out, "{table}");
    // The paper: instructions grow 3–4x, cache misses 2.5–4.5x, dTLB
    // misses 3–4x per agent doubling.
    put!(
        out,
        "all counters grow super-linearly (>2x per agent doubling): {}",
        if superlinear { "✓" } else { "✗" }
    );
    out
}

fn fig6_cells() -> Vec<Cell> {
    SWEEP.map(|n| base(MADDPG, PP, n)).to_vec()
}

fn fig6(s: &Store) -> String {
    let mut out = String::from("== Figure 6: MADDPG predator-prey scalability ==\n\n");
    let mut table = Table::new(&[
        "agents",
        "measured (s)",
        "per-60k extrapolation (s)",
        "action selection",
        "update all trainers",
        "other",
        "update (TF/GPU model)",
    ]);
    let mut modeled_update = Vec::new();
    let mut time = Vec::new();
    for n in SWEEP {
        let run = s.train(base(MADDPG, PP, n));
        let m = modeled(s, base(MADDPG, PP, n), FrameworkCosts::RTX3090);
        modeled_update.push(m.update_all_trainers() / m.total());
        time.push(per_60k(run));
        let mut row =
            vec![n.to_string(), format!("{:.2}", run.wall_s), format!("{:.0}", per_60k(run))];
        row.extend(shares(&run.profile).map(percent));
        row.push(percent(m.update_all_trainers() / m.total()));
        table.row_owned(row);
    }
    put!(out, "{table}");
    let monotone = modeled_update.windows(2).all(|w| w[1] >= w[0]);
    put!(
        out,
        "update-all-trainers share (TF/GPU model) rises monotonically with N (paper: 34% -> 87%): {}",
        if monotone { "✓" } else { "✗" }
    );
    let superlinear =
        (1..SWEEP.len()).all(|i| time[i] / time[i - 1] > SWEEP[i] as f64 / SWEEP[i - 1] as f64);
    put!(
        out,
        "per-episode training time grows super-linearly in N: {}",
        if superlinear { "✓" } else { "✗" }
    );
    out
}

/// The samplers whose live access statistics the telemetry view shows.
const TELEMETRY_SAMPLERS: [SamplerConfig; 4] = [UNIFORM, N16, N64, SamplerConfig::IpLocality];

fn telemetry_cells() -> Vec<Cell> {
    [3, 6]
        .into_iter()
        .flat_map(|n| TELEMETRY_SAMPLERS.map(|sampler| Cell::timed(MADDPG, PP, n, sampler, 0)))
        .collect()
}

fn telemetry(s: &Store) -> String {
    let mut out =
        String::from("== Sampling telemetry during training (MADDPG, predator-prey) ==\n\n");
    let mut table = Table::new(&[
        "sampler",
        "agents",
        "plans",
        "target passes",
        "rows gathered",
        "MiB gathered",
        "random jumps",
        "jumps/plan",
    ]);
    for cell in telemetry_cells() {
        let Cell::Train { config, .. } = cell else { unreachable!("telemetry cells train") };
        let t = s.train(cell).sampling;
        table.row_owned(vec![
            config.sampler.label(),
            config.agents.to_string(),
            t.plans.to_string(),
            t.target_action_passes.to_string(),
            t.rows_gathered.to_string(),
            format!("{:.1}", t.bytes_gathered as f64 / (1024.0 * 1024.0)),
            t.random_jumps.to_string(),
            format!("{:.0}", t.random_jumps as f64 / t.plans.max(1) as f64),
        ]);
    }
    put!(out, "{table}");
    put!(out, "expected: baseline jumps/plan == batch size; n16/r64 -> 64; n64/r16 -> 16;");
    put!(out, "bytes gathered scale with N x row-width while jumps depend only on the strategy;");
    put!(
        out,
        "target passes == plans (one shared cross-agent pass per plan, not one per trainer)."
    );
    out
}

fn fig8_cells() -> Vec<Cell> {
    TASKS
        .into_iter()
        .flat_map(|t| SWEEP.into_iter().flat_map(move |n| LOCALITY.map(|x| gather(t, n, x))))
        .collect()
}

fn fig8(s: &Store) -> String {
    let mut out = String::from(
        "== Figure 8: sampling-phase reduction from cache locality-aware sampling ==\n\n",
    );
    let mut table = Table::new(&["task", "agents", "n16/r64 reduction", "n64/r16 reduction"]);
    let (mut configs, mut faster, mut more_locality_wins) = (0, 0, 0);
    for task in TASKS {
        for n in SWEEP {
            let time = |sampler| s.gather(gather(task, n, sampler)).plan_gather_us;
            let [r16, r64] = [N16, N64].map(|x| reduction(time(UNIFORM), time(x)));
            table.row_owned(vec![
                task.label().into(),
                n.to_string(),
                format!("{r16:.1}%"),
                format!("{r64:.1}%"),
            ]);
            configs += 1;
            faster += usize::from(r16 > 0.0 && r64 > 0.0);
            more_locality_wins += usize::from(r64 >= r16);
        }
    }
    put!(out, "{table}");
    put!(
        out,
        "locality-aware sampling faster than baseline in {faster}/{configs} configs (paper: ~28-38% reductions) {}",
        if faster == configs { "✓" } else { "" }
    );
    put!(
        out,
        "n64/r16 (max locality) ≥ n16/r64 in {more_locality_wins}/{configs} configs (paper shows the same ordering)"
    );
    out
}

fn miss_cells() -> Vec<Cell> {
    SWEEP.into_iter().flat_map(|n| LOCALITY.map(|x| simulate(Platform::Ryzen, PP, n, x))).collect()
}

fn miss_reduction(s: &Store) -> String {
    let mut out = String::from(
        "== Section VI-A: simulated LLC-miss reduction from locality-aware sampling ==\n\n",
    );
    let mut table = Table::new(&[
        "agents",
        "LLC-miss reduction n16/r64",
        "LLC-miss reduction n64/r16",
        "dTLB-miss reduction n16/r64",
        "paper (n16/r64)",
    ]);
    let paper = [16.1, 21.8, 25.0, 29.0];
    let mut all_fewer = true;
    for (n, paper) in SWEEP.into_iter().zip(paper) {
        let [base, n16, n64] = LOCALITY.map(|x| s.simulate(simulate(Platform::Ryzen, PP, n, x)).hw);
        let r16 = miss_reduction_percent(&base, &n16);
        let dtlb = reduction(base.dtlb_misses.max(1) as f64, n16.dtlb_misses as f64);
        table.row_owned(vec![
            n.to_string(),
            format!("{r16:.1}%"),
            format!("{:.1}%", miss_reduction_percent(&base, &n64)),
            format!("{dtlb:.1}%"),
            format!("{paper:.1}%"),
        ]);
        all_fewer &= r16 > 0.0;
    }
    put!(out, "{table}");
    put!(
        out,
        "locality-aware sampling reduces simulated LLC misses at every N: {}",
        if all_fewer { "✓" } else { "✗" }
    );
    out
}

/// Figure 9's two training seeds per configuration.
const FIG9_SEEDS: [u64; 2] = [0, 1];

fn fig9_cells() -> Vec<Cell> {
    TASKS
        .into_iter()
        .flat_map(|t| {
            SMALL.into_iter().flat_map(move |n| {
                LOCALITY
                    .into_iter()
                    .flat_map(move |x| FIG9_SEEDS.map(|seed| Cell::timed(MADDPG, t, n, x, seed)))
            })
        })
        .collect()
}

fn fig9(s: &Store) -> String {
    let mut out = String::from(
        "== Figure 9: end-to-end training-time reduction (MADDPG) ==\n\
         (medians of seeds 0 and 1; a trend is ✓/✗ only where adjacent medians differ by more than both seeds' spread)\n\n",
    );
    let mut table =
        Table::new(&["task", "agents", "baseline (s)", "n16/r64 reduction", "n64/r16 reduction"]);
    let mut checks = String::new();
    for task in TASKS {
        let wall =
            |n, x| FIG9_SEEDS.map(|seed| s.train(Cell::timed(MADDPG, task, n, x, seed)).wall_s);
        // Per N and locality sampler, one reduction per seed.
        let samples: Vec<[Vec<f64>; 2]> = SMALL
            .iter()
            .map(|&n| {
                let base = wall(n, UNIFORM);
                [N16, N64]
                    .map(|x| base.iter().zip(wall(n, x)).map(|(&b, w)| reduction(b, w)).collect())
            })
            .collect();
        for (&n, [r16, r64]) in SMALL.iter().zip(&samples) {
            table.row_owned(vec![
                task.label().into(),
                n.to_string(),
                format!("{:.2}", median(&wall(n, UNIFORM))),
                format!("{:.1}%", median(r16)),
                format!("{:.1}%", median(r64)),
            ]);
        }
        // The paper: 8.2 % at 3 agents -> 20.5 % at 24 for predator-prey.
        for (i, label) in ["n16/r64", "n64/r16"].into_iter().enumerate() {
            let series: Vec<Vec<f64>> = samples.iter().map(|pair| pair[i].clone()).collect();
            put!(
                checks,
                "{}: {label} e2e reduction rising with N: {}",
                task.label(),
                trends(&SMALL, &series)
            );
        }
    }
    put!(out, "{table}");
    out + &checks
}

fn fig10_cells() -> Vec<Cell> {
    CURVES.into_iter().flat_map(|(_, t, n)| LOCALITY.map(|x| Cell::learning(t, n, x))).collect()
}

/// A reward curve's final score and its `episode:reward` series.
fn curve(run: &TrainRun) -> (f32, String) {
    let window = (run.curve.len() / 5).max(1);
    let series: Vec<String> =
        run.curve.series(window, CURVE_POINTS).iter().map(|(e, v)| format!("{e}:{v:.0}")).collect();
    (run.curve.final_score(window), series.join(" "))
}

fn fig10(s: &Store) -> String {
    let mut out =
        String::from("== Figure 10: reward curves, baseline vs cache-aware sampling ==\n\n");
    let mut checks = String::new();
    for (name, task, n) in CURVES {
        put!(out, "-- {name} --");
        let mut table = Table::new(&["variant", "final score", "curve (episode:reward)"]);
        let finals = LOCALITY.map(|x| curve(s.train(Cell::learning(task, n, x))).0);
        let spread = spread(&finals.map(f64::from));
        for sampler in LOCALITY {
            let (final_score, series) = curve(s.train(Cell::learning(task, n, sampler)));
            table.row_owned(vec![sampler.label(), format!("{final_score:.1}"), series]);
        }
        put!(out, "{table}");
        // The paper reports preserved rewards, with slight degradation
        // possible at CN-12.
        for (sampler, score) in LOCALITY.iter().zip(finals).skip(1) {
            put!(
                checks,
                "{name} {}: final {score:.1} vs baseline {:.1} (variant spread {spread:.1})",
                sampler.label(),
                finals[0]
            );
        }
    }
    out + &checks
}

/// Figure 11's two prioritized variants.
const PER_VS_IP: [(&str, SamplerConfig); 2] =
    [("PER-MADDPG", SamplerConfig::Per), ("IP-MADDPG", SamplerConfig::IpLocality)];

fn fig11_cells() -> Vec<Cell> {
    let speed = SMALL.into_iter().flat_map(|n| PRIORITIZED.map(|x| gather(PP, n, x)));
    let curves =
        CURVES.into_iter().flat_map(|(_, t, n)| PER_VS_IP.map(|(_, x)| Cell::learning(t, n, x)));
    speed.chain(curves).collect()
}

fn fig11(s: &Store) -> String {
    let mut out = String::from("== Figure 11: PER-MADDPG vs IP-MADDPG ==\n\n");
    put!(
        out,
        "-- §VI-C: per-batch sampling time, {GATHER_ROWS}-row buffers, batch {PAPER_BATCH}, {GATHER_ITERS} iterations --"
    );
    let mut table = Table::new(&["agents", "strategy", "plan-only (us)", "plan+gather (us)"]);
    for n in SMALL {
        for sampler in PRIORITIZED {
            let t = s.gather(gather(PP, n, sampler));
            table.row_owned(vec![
                n.to_string(),
                sampler.label(),
                format!("{:.1}", t.plan_us),
                format!("{:.1}", t.plan_gather_us),
            ]);
        }
    }
    put!(out, "{table}");
    let ratios = SMALL.map(|n| {
        let time = |x| s.gather(gather(PP, n, x)).plan_gather_us;
        time(SamplerConfig::IpLocality) / time(SamplerConfig::Per)
    });
    for (n, ratio) in SMALL.into_iter().zip(ratios) {
        put!(out, "N={n}: IP/PER plan+gather time ratio {ratio:.2} ({:.2}x faster)", 1.0 / ratio);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    put!(out, "mean IP/PER ratio {mean:.2} (paper: ≈0.5, IP ≈2x faster)\n");

    // In-training sampling time is reported too, but at the scaled runs'
    // small buffers the sum-tree costs vanish; the table above is the
    // paper-scale comparison.
    let mut checks = String::new();
    for (name, task, n) in CURVES {
        put!(out, "-- {name} --");
        let mut table =
            Table::new(&["variant", "final score", "sampling (s)", "curve (episode:reward)"]);
        let [per, ip] = PER_VS_IP.map(|(_, x)| s.train(Cell::learning(task, n, x)));
        for ((variant, _), run) in PER_VS_IP.iter().zip([per, ip]) {
            let (final_score, series) = curve(run);
            let sampling = run.profile.get(Phase::MiniBatchSampling).as_secs_f64();
            table.row_owned(vec![
                variant.to_string(),
                format!("{final_score:.1}"),
                format!("{sampling:.2}"),
                series,
            ]);
        }
        put!(out, "{table}");
        let sampling = |run: &TrainRun| run.profile.get(Phase::MiniBatchSampling).as_secs_f64();
        put!(
            checks,
            "{name}: in-training IP sampling speedup over PER {:.2}x; final scores {:.1} vs {:.1}",
            sampling(per) / sampling(ip).max(1e-9),
            curve(ip).0,
            curve(per).0
        );
    }
    out + &checks
}

fn host_cells() -> Vec<Cell> {
    let simulated =
        SMALL.into_iter().flat_map(|n| LOCALITY.map(|x| simulate(Platform::I7, PP, n, x)));
    simulated.chain(SMALL.map(|n| base(MADDPG, PP, n))).collect()
}

/// Figures 12 and 13: mini-batch sampling (MBS) savings from the i7
/// preset's simulated access time, and total-time (TT) savings as the
/// MBS saving times the sampling share of the modeled total (plus a
/// host↔device `upload` of each update's batch on a GPU host).
fn host_savings(s: &Store, costs: FrameworkCosts, upload: Option<TransferModel>) -> Table {
    let mut table =
        Table::new(&["agents", "MBS n16/r64", "MBS n64/r16", "TT n16/r64", "TT n64/r16"]);
    for n in SMALL {
        let time = |x| estimated_access_time(&s.simulate(simulate(Platform::I7, PP, n, x)).cache);
        let mbs = [N16, N64].map(|x| reduction(time(UNIFORM).as_secs_f64(), time(x).as_secs_f64()));
        let m = modeled(s, base(MADDPG, PP, n), costs);
        let batch_bytes = PAPER_BATCH * n * (obs_dim(PP, n) + 5) * 4;
        let uploads = s.train(base(MADDPG, PP, n)).updates as f64 * n as f64;
        let transfer =
            upload.map_or(0.0, |link| link.transfer_time(batch_bytes).as_secs_f64() * uploads);
        let share = m.sampling / (m.total() + transfer);
        let mut row = vec![n.to_string()];
        row.extend(mbs.iter().chain(&mbs.map(|x| x * share)).map(|x| format!("{x:.1}%")));
        table.row_owned(row);
    }
    table
}

fn fig12(s: &Store) -> String {
    format!(
        "== Figure 12: i7-9700K CPU-only MBS and TT savings (MADDPG, predator-prey) ==\n\n{}\n\
         paper reference: MBS 18.5-38.4%, TT 9.9-18.5% from 3 to 12 agents (CPU-only).\n",
        host_savings(s, FrameworkCosts::RTX3090, None)
    )
}

fn fig13(s: &Store) -> String {
    format!(
        "== Figure 13: CPU + GTX 1070 MBS and TT savings (MADDPG, predator-prey) ==\n\n{}\n\
         paper reference: MBS 25.2-39.2%, TT 2.9-13.3% from 3 to 12 agents (CPU+GTX1070);\n\
         TT savings are smaller than CPU-only (Fig. 12) because transfers dilute the sampling share.\n",
        host_savings(s, FrameworkCosts::GTX1070, Some(TransferModel::pcie3_x16()))
    )
}

fn fig14_cells() -> Vec<Cell> {
    TASKS.into_iter().flat_map(|task| SWEEP.map(|agents| Cell::Layout { task, agents })).collect()
}

fn fig14(s: &Store) -> String {
    let mut out = format!(
        "== Figure 14: transition data layout reorganization ==\n\
         (medians of {LAYOUT_WINDOWS} windows, each one reshape amortized over {LAYOUT_ITERS} update iterations;\n\
         a trend is ✓/✗ only where adjacent medians differ by more than both windows' spread)\n\n"
    );
    let mut table = Table::new(&[
        "task",
        "agents",
        "baseline (ms)",
        "interleaved (ms)",
        "reshape (ms)",
        "improvement incl. reshape",
        "improvement spread",
        "speedup excl. reshape",
    ]);
    let mut checks = String::new();
    for task in TASKS {
        let mut improvements = Vec::new();
        let mut speedups = Vec::new();
        for agents in SWEEP {
            let w = s.layout(Cell::Layout { task, agents });
            let windows = || w.baseline_ms.iter().zip(&w.interleaved_ms).zip(&w.reshape_ms);
            let improvement: Vec<f64> =
                windows().map(|((&b, &i), &r)| reduction(b, i + r)).collect();
            let speedup: Vec<f64> = windows().map(|((&b, &i), _)| b / i).collect();
            table.row_owned(vec![
                task.label().into(),
                agents.to_string(),
                format!("{:.1}", median(&w.baseline_ms)),
                format!("{:.1}", median(&w.interleaved_ms)),
                format!("{:.1}", median(&w.reshape_ms)),
                format!("{:+.1}%", median(&improvement)),
                format!("{:.1}%", spread(&improvement)),
                format!("{:.2}x", median(&speedup)),
            ]);
            speedups.push(format!("{:.2}x", median(&speedup)));
            improvements.push(improvement);
        }
        // The paper: −63.8 % at 3 agents → +25.8 % at 24 for PP.
        put!(
            checks,
            "{}: improvement incl. reshape rising with N: {} | pure inter-agent speedups: {}",
            task.label(),
            trends(&SWEEP, &improvements),
            speedups.join(", ")
        );
    }
    put!(out, "{table}");
    out + &checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn trend_needs_a_difference_beyond_both_spreads() {
        assert_eq!(trend(&[1.0, 2.0], &[5.0, 6.0]), "✓");
        assert_eq!(trend(&[5.0, 6.0], &[1.0, 2.0]), "✗");
        // Medians 1.5 apart, but one side spreads 2.
        assert_eq!(trend(&[1.0, 2.0], &[2.0, 4.0]), "unresolved");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn views_render_the_committed_cells() {
        let dir = results_dir();
        let text = std::fs::read_to_string(dir.join("cells.jsonl")).expect("results/cells.jsonl");
        let store = Store::parse(&text).expect("the cells file parses, each cell once");
        assert_eq!(store.to_jsonl(), text, "the file is in canonical order");
        let mut recorded = BTreeSet::new();
        for line in text.lines() {
            let key = &line["{\"cell\":".len()..line.find(",\"result\":").expect("a result")];
            let cell: Cell = serde_json::from_str(key).expect("a key parses");
            assert_eq!(cell.key(), key, "keys round-trip");
            if let Cell::Train { config, .. } = cell {
                let json = serde_json::to_string(&config).expect("config serializes");
                let back: marl_algo::TrainConfig = serde_json::from_str(&json).expect("parses");
                assert_eq!(serde_json::to_string(&back).expect("config serializes"), json);
                assert!(key.contains(&json), "a Train key embeds its TrainConfig JSON");
            }
            recorded.insert(key.to_owned());
        }
        let needed: BTreeSet<String> =
            VIEWS.iter().flat_map(|v| (v.cells)()).map(|c| c.key()).collect();
        let missing: Vec<_> = needed.difference(&recorded).collect();
        assert!(missing.is_empty(), "cells the views need are not recorded: {missing:?}");
        let unused: Vec<_> = recorded.difference(&needed).collect();
        assert!(unused.is_empty(), "no view reads these cells: {unused:?}");
        for view in &VIEWS {
            let committed = std::fs::read_to_string(dir.join(format!("{}.txt", view.name)))
                .unwrap_or_else(|e| panic!("results/{}.txt: {e}", view.name));
            assert_eq!((view.render)(&store), committed, "results/{}.txt is stale", view.name);
        }
    }
}
