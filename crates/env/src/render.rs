//! SVG rendering of world states — a lightweight stand-in for the MPE
//! viewer, useful for debugging scenarios and documenting episodes.

use crate::entity::Role;
use crate::world::World;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Output width/height in pixels (the world is square).
    pub size_px: u32,
    /// World half-extent mapped to the viewport (MPE arena is ±1).
    pub extent: f32,
    /// Draw velocity vectors.
    pub velocities: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { size_px: 512, extent: 1.2, velocities: true }
    }
}

/// Renders a single world state to an SVG document.
///
/// Cooperating agents are blue, scripted prey green, landmarks grey; the
/// arena boundary (±1) is drawn as a dashed square.
///
/// # Examples
///
/// ```
/// use marl_env::render::{render_svg, RenderOptions};
/// let env = marl_env::ScenarioId::PredatorPrey.make_env(3, 25, 0);
/// let svg = render_svg(env.world(), &RenderOptions::default());
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("</svg>"));
/// ```
pub fn render_svg(world: &World, options: &RenderOptions) -> String {
    let s = options.size_px as f32;
    let map = |x: f32| (x / options.extent + 1.0) * 0.5 * s;
    let scale = |r: f32| r / (2.0 * options.extent) * s;
    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{0}" height="{0}" viewBox="0 0 {0} {0}">"#,
        options.size_px
    );
    let _ = write!(out, r##"<rect width="{0}" height="{0}" fill="#ffffff"/>"##, options.size_px);
    // Arena boundary at ±1.
    let b0 = map(-1.0);
    let b1 = map(1.0) - b0;
    let _ = write!(
        out,
        r##"<rect x="{b0:.1}" y="{b0:.1}" width="{b1:.1}" height="{b1:.1}" fill="none" stroke="#999999" stroke-dasharray="6 4"/>"##
    );
    for l in &world.landmarks {
        let _ = write!(
            out,
            r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="#b0b0b0"/>"##,
            map(l.state.position.x),
            map(-l.state.position.y),
            scale(l.size).max(2.0)
        );
    }
    for a in &world.agents {
        let color = match a.role {
            Role::Cooperator => "#3366cc",
            Role::Prey => "#33aa55",
        };
        let cx = map(a.state.position.x);
        let cy = map(-a.state.position.y);
        let _ = write!(
            out,
            r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{:.1}" fill="{color}"/>"#,
            scale(a.size).max(3.0)
        );
        if options.velocities && a.state.velocity.norm() > 1e-3 {
            let vx = cx + scale(a.state.velocity.x) * 2.0;
            let vy = cy - scale(a.state.velocity.y) * 2.0;
            let _ = write!(
                out,
                r#"<line x1="{cx:.1}" y1="{cy:.1}" x2="{vx:.1}" y2="{vy:.1}" stroke="{color}" stroke-width="1.5"/>"#
            );
        }
    }
    out.push_str("</svg>");
    out
}

/// Renders a sequence of world snapshots into a single SVG film-strip
/// (frames side by side), handy for episode documentation.
pub fn render_strip(frames: &[&World], options: &RenderOptions) -> String {
    let n = frames.len().max(1) as u32;
    let w = options.size_px;
    let mut out =
        format!(r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}">"#, w * n, w);
    for (i, world) in frames.iter().enumerate() {
        let inner = render_svg(world, options);
        let _ = write!(out, r#"<g transform="translate({},0)">{}</g>"#, i as u32 * w, inner);
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioId;

    #[test]
    fn svg_contains_all_entities() {
        let env = ScenarioId::PredatorPrey.make_env(3, 25, 1);
        let svg = render_svg(env.world(), &RenderOptions::default());
        // 3 predators + 1 prey + 2 landmarks = 6 circles minimum.
        assert!(svg.matches("<circle").count() >= 6);
        assert!(svg.contains("#33aa55"), "prey color present");
        assert!(svg.contains("#3366cc"), "predator color present");
    }

    #[test]
    fn coordinates_map_into_viewport() {
        let env = ScenarioId::CooperativeNavigation.make_env(3, 25, 2);
        let opts = RenderOptions { size_px: 100, extent: 1.2, velocities: false };
        let svg = render_svg(env.world(), &opts);
        // No coordinate may exceed the viewport (crude but effective check:
        // parse all cx values).
        for part in svg.split("cx=\"").skip(1) {
            let v: f32 = part.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=100.0).contains(&v), "cx={v}");
        }
    }

    #[test]
    fn strip_tiles_frames() {
        let env = ScenarioId::PredatorPrey.make_env(3, 25, 3);
        let opts = RenderOptions { size_px: 64, extent: 1.2, velocities: false };
        let w1 = env.world().clone();
        let strip = render_strip(&[&w1, &w1, &w1], &opts);
        assert!(strip.contains(r#"width="192""#));
        assert_eq!(strip.matches("translate(").count(), 3);
    }

    #[test]
    fn velocity_vectors_togglable() {
        let mut env = ScenarioId::PredatorPrey.make_env(3, 25, 4);
        env.reset();
        for _ in 0..3 {
            env.step(&[2, 2, 2]).unwrap();
        }
        let with =
            render_svg(env.world(), &RenderOptions { velocities: true, ..Default::default() });
        let without =
            render_svg(env.world(), &RenderOptions { velocities: false, ..Default::default() });
        assert!(with.matches("<line").count() > without.matches("<line").count());
    }
}
