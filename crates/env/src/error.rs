//! Error types of the environment crate.

use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::vecenv::VecParticleEnv`] (and so by
/// [`crate::env::ParticleEnv`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The caller supplied a different number of actions than there are
    /// trained agents.
    ActionCountMismatch {
        /// Number of trained agents.
        expected: usize,
        /// Number of actions supplied.
        got: usize,
    },
    /// An action index outside the discrete action space.
    InvalidAction {
        /// Agent world-index the action was destined for.
        agent: usize,
        /// The offending action index.
        action: usize,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::ActionCountMismatch { expected, got } => {
                write!(f, "expected {expected} actions but received {got}")
            }
            EnvError::InvalidAction { agent, action } => {
                write!(f, "invalid action index {action} for agent {agent}")
            }
        }
    }
}

impl Error for EnvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = EnvError::ActionCountMismatch { expected: 3, got: 1 };
        assert_eq!(e.to_string(), "expected 3 actions but received 1");
        let e = EnvError::InvalidAction { agent: 2, action: 7 };
        assert!(e.to_string().contains("action index 7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnvError>();
    }
}
