//! Compares the paper's mini-batch sampling strategies head-to-head on a
//! synthetic multi-agent replay buffer: baseline uniform, the two
//! cache locality-aware operating points, PER, information-prioritized
//! locality-aware sampling, and the reorganized interleaved layout.
//!
//! Run with:
//! ```text
//! cargo run --release --example sampling_strategies
//! ```

use marl_repro::core::config::SamplerConfig;
use marl_repro::core::multi::{LayoutMode, MultiAgentReplay};
use marl_repro::core::transition::{Transition, TransitionLayout};
use marl_repro::perf::report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const AGENTS: usize = 12;
const OBS_DIM: usize = 72; // cooperative navigation at N = 12
const ROWS: usize = 60_000;
const BATCH: usize = 1024;
const ITERS: usize = 30;

fn filled_replay() -> MultiAgentReplay {
    let layouts = vec![TransitionLayout::new(OBS_DIM, 5); AGENTS];
    let mut replay = MultiAgentReplay::new(&layouts, ROWS);
    let proto = Transition {
        obs: vec![0.1; OBS_DIM],
        action: vec![0.0, 1.0, 0.0, 0.0, 0.0],
        reward: 0.0,
        next_obs: vec![0.2; OBS_DIM],
        done: 0.0,
    };
    let step: Vec<Transition> = vec![proto; AGENTS];
    for _ in 0..ROWS {
        replay.push_step(&step).expect("push");
    }
    replay
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "sampling {ITERS} update iterations of {AGENTS} trainers x batch {BATCH} over {ROWS}-row buffers\n"
    );
    let replay = filled_replay();
    let mut table = Table::new(&["strategy", "time (ms)", "jumps/plan", "vs baseline"]);
    let mut baseline_ms = None;

    for cfg in [
        SamplerConfig::Uniform,
        SamplerConfig::LocalityN16R64,
        SamplerConfig::LocalityN64R16,
        SamplerConfig::Per,
        SamplerConfig::IpLocality,
    ] {
        let mut sampler = cfg.build(ROWS);
        if cfg.is_prioritized() {
            for slot in 0..ROWS {
                sampler.observe_push(slot);
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut jumps = 0usize;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            // One full update-all-trainers iteration: every trainer draws
            // a plan and gathers from every agent's buffer.
            for _ in 0..AGENTS {
                let plan = sampler.plan(replay.len(), BATCH, &mut rng)?;
                jumps += plan.random_jumps();
                std::hint::black_box(replay.sample(&plan)?);
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let base = *baseline_ms.get_or_insert(ms);
        table.row_owned(vec![
            sampler.name(),
            format!("{ms:.1}"),
            format!("{}", jumps / (ITERS * AGENTS)),
            format!("{:+.1}%", (1.0 - ms / base) * 100.0),
        ]);
    }

    // Layout reorganization: the time-major map, O(m) fat-row gathers.
    {
        let t_reorg = Instant::now();
        let store = MultiAgentReplay::reorganize_from(&replay, LayoutMode::Interleaved);
        let reorg_ms = t_reorg.elapsed().as_secs_f64() * 1e3;
        let mut sampler = SamplerConfig::Uniform.build(ROWS);
        let mut rng = StdRng::seed_from_u64(0);
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for _ in 0..AGENTS {
                let plan = sampler.plan(store.len(), BATCH, &mut rng)?;
                std::hint::black_box(store.sample(&plan)?);
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let base = baseline_ms.unwrap_or(ms);
        table.row_owned(vec![
            "interleaved-layout".into(),
            format!("{ms:.1}"),
            format!("{BATCH}"),
            format!("{:+.1}%", (1.0 - ms / base) * 100.0),
        ]);
        println!(
            "(one-time layout reorganization: {:.1} ms for {} rows x {} agents)",
            reorg_ms,
            store.len(),
            store.agent_count()
        );
    }

    println!("\n{table}");
    Ok(())
}
