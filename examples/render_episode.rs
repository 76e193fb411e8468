//! Renders one predator-prey episode as an SVG film-strip — a quick visual
//! sanity check of the environment port.
//!
//! Run with:
//! ```text
//! cargo run --release --example render_episode
//! ```
//! Writes `episode.svg` in the current directory.

use marl_repro::env::render::{render_strip, RenderOptions};
use marl_repro::env::{ScenarioId, World};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut env = ScenarioId::PredatorPrey.make_env(3, 25, 7);
    env.reset();
    let mut frames: Vec<World> = vec![env.world().clone()];
    // Simple chase: each predator moves toward the prey's quadrant.
    for _ in 0..24 {
        let prey = env.world().agents[3].state.position;
        let actions: Vec<usize> = (0..3)
            .map(|i| {
                let me = env.world().agents[i].state.position;
                marl_repro::env::DiscreteAction::closest_to(prey - me).index()
            })
            .collect();
        let step = env.step(&actions)?;
        frames.push(env.world().clone());
        if step.done {
            break;
        }
    }
    // Render every 4th frame.
    let picks: Vec<&World> = frames.iter().step_by(4).collect();
    let svg = render_strip(&picks, &RenderOptions { size_px: 256, ..Default::default() });
    std::fs::write("episode.svg", &svg)?;
    println!("wrote episode.svg ({} frames, {} bytes)", picks.len(), svg.len());
    Ok(())
}
