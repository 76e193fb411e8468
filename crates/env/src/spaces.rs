//! Observation and action space descriptors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A continuous box observation space of fixed dimension, matching the
/// paper's `Box(16,)`-style notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxSpace {
    /// Feature dimension.
    pub dim: usize,
}

impl BoxSpace {
    /// Creates a box space of `dim` float features.
    pub fn new(dim: usize) -> Self {
        BoxSpace { dim }
    }

    /// Whether `obs` belongs to the space (finite, right length).
    pub fn contains(&self, obs: &[f32]) -> bool {
        obs.len() == self.dim && obs.iter().all(|x| x.is_finite())
    }
}

impl fmt::Display for BoxSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Box({},)", self.dim)
    }
}

/// A discrete action space with `n` actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscreteSpace {
    /// Number of actions.
    pub n: usize,
}

impl DiscreteSpace {
    /// Creates a discrete space with `n` actions.
    pub fn new(n: usize) -> Self {
        DiscreteSpace { n }
    }

    /// Whether `action` is a valid index.
    pub fn contains(&self, action: usize) -> bool {
        action < self.n
    }
}

impl fmt::Display for DiscreteSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Discrete({})", self.n)
    }
}

/// A composite discrete action space: one or more independent factors
/// ("segments"), the first always the 5-way movement set, optionally
/// followed by communication factors whose one-hot utterances are
/// broadcast into teammates' next observations.
///
/// Two views of the same action coexist:
///
/// * the **joint index** — one `usize` in `0..joint_count()`, mixed-radix
///   encoded with the movement factor least significant (so a
///   movement-only space's joint index *is* the [`crate::entity::DiscreteAction`]
///   index) — what [`crate::vecenv::VecParticleEnv::step`] consumes;
/// * the **multi-hot vector** of width `flat_dim()` — the concatenated
///   per-factor one-hots that replay buffers and centralized critics see.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSpace {
    /// Factor widths, movement first (e.g. `[5]` or `[5, 10]`).
    segments: Vec<usize>,
}

impl ActionSpace {
    /// The movement-only space `[5]` every scenario starts from.
    pub fn movement() -> Self {
        ActionSpace { segments: vec![crate::entity::DiscreteAction::COUNT] }
    }

    /// Movement plus one `comm`-way communication factor.
    ///
    /// # Panics
    ///
    /// Panics when `comm == 0` (a silent agent is movement-only).
    pub fn movement_with_comm(comm: usize) -> Self {
        assert!(comm > 0, "a comm factor needs at least one symbol");
        ActionSpace { segments: vec![crate::entity::DiscreteAction::COUNT, comm] }
    }

    /// Builds a space from raw factor widths (movement first).
    ///
    /// # Panics
    ///
    /// Panics on an empty segment list, a zero-width factor, or a first
    /// factor that is not the 5-way movement set.
    pub fn from_segments(segments: Vec<usize>) -> Self {
        assert!(!segments.is_empty(), "an action space needs at least one factor");
        assert!(segments.iter().all(|&s| s > 0), "factors must be non-empty");
        assert_eq!(
            segments[0],
            crate::entity::DiscreteAction::COUNT,
            "the first factor is always the movement set"
        );
        ActionSpace { segments }
    }

    /// Factor widths, movement first.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// Width of the concatenated multi-hot encoding (Σ segments) — the
    /// actor head / replay action width.
    pub fn flat_dim(&self) -> usize {
        self.segments.iter().sum()
    }

    /// Number of joint actions (Π segments) — the env index space.
    pub fn joint_count(&self) -> usize {
        self.segments.iter().product()
    }

    /// Width of the communication payload (Σ segments after movement);
    /// zero for movement-only spaces.
    pub fn comm_dim(&self) -> usize {
        self.segments.iter().skip(1).sum()
    }

    /// Whether `action` is a valid joint index.
    pub fn contains(&self, action: usize) -> bool {
        action < self.joint_count()
    }

    /// Mixed-radix encodes per-factor choices into the joint index
    /// (movement least significant).
    ///
    /// # Panics
    ///
    /// Panics when `choices` has the wrong arity or a choice is out of
    /// range for its factor.
    pub fn encode(&self, choices: &[usize]) -> usize {
        assert_eq!(choices.len(), self.segments.len(), "one choice per factor");
        let mut idx = 0;
        let mut stride = 1;
        for (&c, &s) in choices.iter().zip(&self.segments) {
            assert!(c < s, "choice {c} out of range for a {s}-way factor");
            idx += c * stride;
            stride *= s;
        }
        idx
    }

    /// Decodes a joint index into per-factor choices (inverse of
    /// [`ActionSpace::encode`]).
    ///
    /// # Panics
    ///
    /// Panics when `action` is out of range or `choices` has the wrong
    /// arity.
    pub fn decode(&self, action: usize, choices: &mut [usize]) {
        assert!(self.contains(action), "joint action {action} out of range");
        assert_eq!(choices.len(), self.segments.len(), "one slot per factor");
        let mut rest = action;
        for (c, &s) in choices.iter_mut().zip(&self.segments) {
            *c = rest % s;
            rest /= s;
        }
    }

    /// Writes the multi-hot encoding of a joint index into `out`
    /// (one 1.0 per factor, everything else 0.0).
    ///
    /// # Panics
    ///
    /// Panics when `action` is out of range or `out` is not `flat_dim()`
    /// wide.
    pub fn multi_hot(&self, action: usize, out: &mut [f32]) {
        assert!(self.contains(action), "joint action {action} out of range");
        assert_eq!(out.len(), self.flat_dim(), "multi-hot buffer width mismatch");
        out.fill(0.0);
        let mut rest = action;
        let mut off = 0;
        for &s in &self.segments {
            out[off + rest % s] = 1.0;
            rest /= s;
            off += s;
        }
    }
}

impl fmt::Display for ActionSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.len() == 1 {
            write!(f, "Discrete({})", self.segments[0])
        } else {
            write!(f, "MultiDiscrete(")?;
            for (i, s) in self.segments.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_membership() {
        let s = BoxSpace::new(3);
        assert!(s.contains(&[0.0, 1.0, -2.0]));
        assert!(!s.contains(&[0.0, 1.0]));
        assert!(!s.contains(&[0.0, f32::NAN, 0.0]));
    }

    #[test]
    fn discrete_membership_and_display() {
        let s = DiscreteSpace::new(5);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert_eq!(s.to_string(), "Discrete(5)");
        assert_eq!(BoxSpace::new(16).to_string(), "Box(16,)");
    }

    #[test]
    fn movement_space_matches_discrete_five() {
        let s = ActionSpace::movement();
        assert_eq!(s.flat_dim(), 5);
        assert_eq!(s.joint_count(), 5);
        assert_eq!(s.comm_dim(), 0);
        assert_eq!(s.to_string(), "Discrete(5)");
        // Single-factor encode is the identity: the joint index IS the
        // DiscreteAction index, and the multi-hot IS the one-hot.
        for a in 0..5 {
            assert_eq!(s.encode(&[a]), a);
            let mut hot = [0.0f32; 5];
            s.multi_hot(a, &mut hot);
            let mut want = [0.0f32; 5];
            want[a] = 1.0;
            assert_eq!(hot, want);
        }
        assert!(!s.contains(5));
    }

    #[test]
    fn comm_space_mixed_radix_roundtrip() {
        let s = ActionSpace::movement_with_comm(10);
        assert_eq!(s.flat_dim(), 15);
        assert_eq!(s.joint_count(), 50);
        assert_eq!(s.comm_dim(), 10);
        assert_eq!(s.to_string(), "MultiDiscrete(5, 10)");
        let mut choices = [0usize; 2];
        for a in 0..50 {
            s.decode(a, &mut choices);
            assert_eq!(s.encode(&choices), a);
            assert_eq!(choices[0], a % 5, "movement is least significant");
            assert_eq!(choices[1], a / 5);
            let mut hot = vec![0.0f32; 15];
            s.multi_hot(a, &mut hot);
            assert_eq!(hot.iter().filter(|&&x| x == 1.0).count(), 2);
            assert_eq!(hot[choices[0]], 1.0);
            assert_eq!(hot[5 + choices[1]], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn joint_index_out_of_range_rejected() {
        let mut hot = [0.0f32; 5];
        ActionSpace::movement().multi_hot(5, &mut hot);
    }
}
