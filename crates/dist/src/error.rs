//! Typed errors of the distributed runtime.
//!
//! Every failure mode the supervision layer reacts to has its own
//! variant, because the *reaction* differs: corrupt and stale frames are
//! quarantined (dropped + counted, the stream continues), timeouts and
//! I/O failures trigger reconnect-with-backoff, and protocol or training
//! errors are fatal. [`DistError::is_quarantine`] encodes that split.

use marl_algo::TrainError;
use std::error::Error;
use std::fmt;

/// Errors produced by the distributed actor–learner runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// An underlying transport I/O operation failed.
    Io(String),
    /// A deadline-based I/O operation timed out.
    Timeout {
        /// The operation that timed out (e.g. `"recv"`, `"send"`).
        site: &'static str,
        /// The deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// A frame did not start with the `MARD` magic.
    BadMagic {
        /// The 32-bit value found where the magic was expected.
        found: u32,
    },
    /// A frame carried an unknown wire-format version.
    UnsupportedVersion {
        /// The version field found.
        found: u16,
    },
    /// A frame ended before its declared length (torn write).
    Truncated {
        /// Bytes the header declared.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A frame's CRC-32 did not match its payload (corrupt in flight).
    CrcMismatch {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        found: u32,
    },
    /// A frame carried a parameter epoch too far behind the learner's.
    StaleEpoch {
        /// Epoch recorded in the frame.
        frame: u64,
        /// The learner's current epoch.
        current: u64,
        /// Maximum tolerated lag.
        max_lag: u64,
    },
    /// A bounded backpressure queue stayed full past the push deadline.
    QueueFull {
        /// The queue's capacity in frames.
        capacity: usize,
    },
    /// A frame header declared more payload than the receiver's fixed
    /// buffer holds; refused before any of the body is read.
    FrameTooLarge {
        /// Payload bytes the header declared.
        len: usize,
        /// Largest payload the buffer holds.
        max: usize,
    },
    /// The peer closed the connection (or its queue was dropped).
    Disconnected,
    /// The peer violated the frame protocol (unexpected message, bad
    /// payload, mismatched configuration).
    Protocol(String),
    /// The learner-side trainer failed.
    Train(TrainError),
}

impl DistError {
    /// Whether this error quarantines a single frame (drop it, count it,
    /// keep the stream alive) rather than failing the connection: CRC
    /// mismatches, bad magic/version, torn frames, and stale epochs.
    pub fn is_quarantine(&self) -> bool {
        matches!(
            self,
            DistError::BadMagic { .. }
                | DistError::UnsupportedVersion { .. }
                | DistError::Truncated { .. }
                | DistError::CrcMismatch { .. }
                | DistError::StaleEpoch { .. }
        )
    }

    /// Whether this error should trigger reconnect-with-backoff on the
    /// worker side: timeouts, I/O failures, and disconnects.
    pub fn is_reconnect(&self) -> bool {
        matches!(self, DistError::Io(_) | DistError::Timeout { .. } | DistError::Disconnected)
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            DistError::Timeout { site, after_ms } => {
                write!(f, "transport {site} timed out after {after_ms} ms")
            }
            DistError::BadMagic { found } => {
                write!(f, "bad frame magic 0x{found:08X} (expected MARD)")
            }
            DistError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found}")
            }
            DistError::Truncated { needed, got } => {
                write!(f, "truncated frame: declared {needed} bytes, got {got}")
            }
            DistError::CrcMismatch { expected, found } => {
                write!(f, "frame CRC mismatch: header 0x{expected:08X}, payload 0x{found:08X}")
            }
            DistError::StaleEpoch { frame, current, max_lag } => {
                write!(f, "stale parameter epoch {frame} (learner at {current}, max lag {max_lag})")
            }
            DistError::QueueFull { capacity } => {
                write!(f, "backpressure queue full ({capacity} frames)")
            }
            DistError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte receive buffer")
            }
            DistError::Disconnected => write!(f, "peer disconnected"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::Train(e) => write!(f, "learner training error: {e}"),
        }
    }
}

impl Error for DistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DistError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for DistError {
    fn from(e: TrainError) -> Self {
        DistError::Train(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                DistError::Timeout { site: "io", after_ms: 0 }
            }
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => DistError::Disconnected,
            _ => DistError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_and_reconnect_partitions() {
        assert!(DistError::CrcMismatch { expected: 1, found: 2 }.is_quarantine());
        assert!(DistError::StaleEpoch { frame: 1, current: 5, max_lag: 2 }.is_quarantine());
        assert!(DistError::BadMagic { found: 0 }.is_quarantine());
        assert!(!DistError::Disconnected.is_quarantine());
        assert!(DistError::Disconnected.is_reconnect());
        assert!(DistError::Timeout { site: "recv", after_ms: 50 }.is_reconnect());
        assert!(!DistError::Protocol("x".into()).is_reconnect());
    }

    #[test]
    fn io_error_kinds_map_to_variants() {
        use std::io::{Error, ErrorKind};
        let e: DistError = Error::new(ErrorKind::WouldBlock, "t").into();
        assert!(matches!(e, DistError::Timeout { .. }));
        let e: DistError = Error::new(ErrorKind::BrokenPipe, "p").into();
        assert_eq!(e, DistError::Disconnected);
        let e: DistError = Error::new(ErrorKind::PermissionDenied, "d").into();
        assert!(matches!(e, DistError::Io(_)));
    }

    #[test]
    fn display_carries_context() {
        let e = DistError::StaleEpoch { frame: 3, current: 9, max_lag: 2 };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9'), "{s}");
        assert!(DistError::QueueFull { capacity: 64 }.to_string().contains("64"));
    }
}
