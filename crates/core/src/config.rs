//! Declarative sampler configuration, so trainers and benches can select a
//! strategy by value.

use crate::sampler::{
    IpLocalityConfig, IpLocalitySampler, LocalityConfig, LocalitySampler, PerConfig, PerSampler,
    Sampler, UniformSampler,
};
use serde::{Deserialize, Serialize};

/// Which mini-batch sampling strategy to use.
///
/// # Examples
///
/// ```
/// use marl_core::config::SamplerConfig;
/// let sampler = SamplerConfig::LocalityN64R16.build(1_000_000);
/// assert_eq!(sampler.name(), "locality-n64");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SamplerConfig {
    /// Baseline uniform random sampling.
    Uniform,
    /// Cache locality-aware, 16 neighbors × 64 reference points.
    LocalityN16R64,
    /// Cache locality-aware, 64 neighbors × 16 reference points.
    LocalityN64R16,
    /// Cache locality-aware with an arbitrary neighbor count.
    Locality {
        /// Neighbors per reference point.
        neighbors: usize,
    },
    /// Prioritized experience replay (the PER-MADDPG baseline).
    Per,
    /// Information-prioritized locality-aware sampling (the paper's
    /// contribution combining PER with the neighbor predictor).
    IpLocality,
    /// PER wrapped in a transition-reuse window (the AccMER direction the
    /// paper cites): the same prioritized batch is reused for `window`
    /// consecutive plans.
    PerReuse {
        /// Plans sharing one drawn batch.
        window: usize,
    },
}

impl SamplerConfig {
    /// Instantiates the strategy for a buffer of `capacity` rows.
    pub fn build(self, capacity: usize) -> Box<dyn Sampler> {
        match self {
            SamplerConfig::Uniform => Box::new(UniformSampler::new()),
            SamplerConfig::LocalityN16R64 => {
                Box::new(LocalitySampler::new(LocalityConfig::N16_R64))
            }
            SamplerConfig::LocalityN64R16 => {
                Box::new(LocalitySampler::new(LocalityConfig::N64_R16))
            }
            SamplerConfig::Locality { neighbors } => {
                Box::new(LocalitySampler::new(LocalityConfig::new(neighbors)))
            }
            SamplerConfig::Per => Box::new(PerSampler::new(PerConfig::with_capacity(capacity))),
            SamplerConfig::IpLocality => {
                Box::new(IpLocalitySampler::new(IpLocalityConfig::with_capacity(capacity)))
            }
            SamplerConfig::PerReuse { window } => {
                Box::new(crate::sampler::ReuseWindowSampler::new(
                    Box::new(PerSampler::new(PerConfig::with_capacity(capacity))),
                    crate::sampler::ReuseConfig::new(window),
                ))
            }
        }
    }

    /// Whether the strategy maintains priorities (needs TD feedback).
    pub fn is_prioritized(self) -> bool {
        matches!(
            self,
            SamplerConfig::Per | SamplerConfig::IpLocality | SamplerConfig::PerReuse { .. }
        )
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> String {
        match self {
            SamplerConfig::Uniform => "baseline".into(),
            SamplerConfig::LocalityN16R64 => "n16-r64".into(),
            SamplerConfig::LocalityN64R16 => "n64-r16".into(),
            SamplerConfig::Locality { neighbors } => format!("n{neighbors}"),
            SamplerConfig::Per => "per".into(),
            SamplerConfig::IpLocality => "ip".into(),
            SamplerConfig::PerReuse { window } => format!("per-reuse{window}"),
        }
    }

    /// Parses a sampler name: every [`label`](Self::label) reads back to
    /// its strategy, and the command-line spellings `uniform`, `n16r64`,
    /// `n64r16` and `per-reuse:W` are accepted too.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "baseline" | "uniform" => SamplerConfig::Uniform,
            "n16-r64" | "n16r64" => SamplerConfig::LocalityN16R64,
            "n64-r16" | "n64r16" => SamplerConfig::LocalityN64R16,
            "per" => SamplerConfig::Per,
            "ip" => SamplerConfig::IpLocality,
            other => match other.strip_prefix("per-reuse") {
                Some(w) => SamplerConfig::PerReuse {
                    window: w.strip_prefix(':').unwrap_or(w).parse().ok()?,
                },
                None => {
                    SamplerConfig::Locality { neighbors: other.strip_prefix('n')?.parse().ok()? }
                }
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn build_produces_working_samplers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for cfg in [
            SamplerConfig::Uniform,
            SamplerConfig::LocalityN16R64,
            SamplerConfig::LocalityN64R16,
            SamplerConfig::Locality { neighbors: 8 },
        ] {
            let mut s = cfg.build(10_000);
            let p = s.plan(10_000, 1024, &mut rng).unwrap();
            assert_eq!(p.batch_len(), 1024, "{cfg:?}");
        }
    }

    #[test]
    fn prioritized_samplers_need_pushes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for cfg in [SamplerConfig::Per, SamplerConfig::IpLocality] {
            assert!(cfg.is_prioritized());
            let mut s = cfg.build(4096);
            assert!(s.plan(100, 10, &mut rng).is_err(), "empty tree must error");
            for i in 0..100 {
                s.observe_push(i);
            }
            let p = s.plan(100, 10, &mut rng).unwrap();
            assert_eq!(p.batch_len(), 10);
            assert!(p.weights.is_some());
        }
    }

    #[test]
    fn per_reuse_builds_and_reuses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cfg = SamplerConfig::PerReuse { window: 3 };
        assert!(cfg.is_prioritized());
        let mut s = cfg.build(4096);
        for i in 0..256 {
            s.observe_push(i);
        }
        let a = s.plan(256, 32, &mut rng).unwrap();
        let b = s.plan(256, 32, &mut rng).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.name(), "per-reuse3");
        assert_eq!(cfg.label(), "per-reuse3");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SamplerConfig::Uniform.label(), "baseline");
        assert_eq!(SamplerConfig::LocalityN16R64.label(), "n16-r64");
        assert_eq!(SamplerConfig::Locality { neighbors: 32 }.label(), "n32");
    }

    #[test]
    fn every_label_reads_back() {
        for cfg in [
            SamplerConfig::Uniform,
            SamplerConfig::LocalityN16R64,
            SamplerConfig::LocalityN64R16,
            SamplerConfig::Locality { neighbors: 16 },
            SamplerConfig::Per,
            SamplerConfig::IpLocality,
            SamplerConfig::PerReuse { window: 3 },
        ] {
            assert_eq!(SamplerConfig::from_name(&cfg.label()), Some(cfg), "{}", cfg.label());
        }
    }

    #[test]
    fn command_line_spellings_parse() {
        assert_eq!(SamplerConfig::from_name("uniform"), Some(SamplerConfig::Uniform));
        assert_eq!(SamplerConfig::from_name("n16r64"), Some(SamplerConfig::LocalityN16R64));
        assert_eq!(SamplerConfig::from_name("n64r16"), Some(SamplerConfig::LocalityN64R16));
        assert_eq!(SamplerConfig::from_name("n8"), Some(SamplerConfig::Locality { neighbors: 8 }));
        assert_eq!(
            SamplerConfig::from_name("per-reuse:4"),
            Some(SamplerConfig::PerReuse { window: 4 })
        );
        for bad in ["", "n", "nx", "n16-r32", "per-reuse", "per-reuse:", "per-reuse:x", "lru"] {
            assert_eq!(SamplerConfig::from_name(bad), None, "{bad:?}");
        }
    }
}
