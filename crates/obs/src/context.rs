//! Compact binary trace context carried on cross-process frames.
//!
//! A [`TraceCtx`] is three little-endian `u64`s — trace id, sending span
//! id, and the sender's send timestamp — stamped onto MARD frames
//! (`EpisodeEnd` as an optional JSON field, `Steps`/`Params` as an
//! optional 24-byte block behind a flag bit, serve's
//! `InferReq`/`InferResp` as a fixed 24-byte binary trailer). It is
//! `Copy` and fixed-size, so stamping and echoing it costs no
//! steady-state allocation, and the receiver can pair its local `recv`
//! span with the sender's `send` span through the shared span id
//! (rendered as Chrome-trace flow events by [`crate::chrome`]).

use serde::{Deserialize, Serialize};

/// Trace context stamped on a cross-process frame.
///
/// `span_id` doubles as the Chrome-trace flow-event id: the sender
/// records its `send` span with `flow = Out, flow_id = span_id`, the
/// receiver records its `recv` span with `flow = In` and the same id,
/// and the merged timeline draws an arrow between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceCtx {
    /// End-to-end trace identifier (stable across hops of one flow).
    pub trace_id: u64,
    /// Id of the span that sent this frame; unique per sender via
    /// [`span_id`].
    pub span_id: u64,
    /// Send timestamp, nanoseconds on the *sender's* process clock.
    pub send_ns: u64,
}

/// Encoded size of a [`TraceCtx`] in the binary serve trailer.
pub const TRACE_CTX_WIRE_LEN: usize = 24;

impl TraceCtx {
    /// The absent context (all zero); receivers treat it as "untraced".
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, span_id: 0, send_ns: 0 };

    /// Whether this context carries a real span id.
    pub fn is_set(&self) -> bool {
        self.span_id != 0
    }

    /// Appends the 24-byte little-endian encoding to `buf`.
    pub fn write_to(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.trace_id.to_le_bytes());
        buf.extend_from_slice(&self.span_id.to_le_bytes());
        buf.extend_from_slice(&self.send_ns.to_le_bytes());
    }

    /// Decodes a context from the last [`TRACE_CTX_WIRE_LEN`] bytes of
    /// `tail`. Returns `None` when `tail` is shorter than that.
    pub fn read_from(tail: &[u8]) -> Option<TraceCtx> {
        if tail.len() < TRACE_CTX_WIRE_LEN {
            return None;
        }
        let t = &tail[tail.len() - TRACE_CTX_WIRE_LEN..];
        Some(TraceCtx {
            trace_id: u64::from_le_bytes(t[0..8].try_into().expect("8 bytes")),
            span_id: u64::from_le_bytes(t[8..16].try_into().expect("8 bytes")),
            send_ns: u64::from_le_bytes(t[16..24].try_into().expect("8 bytes")),
        })
    }
}

/// Builds a fleet-unique span id from an actor id and a per-actor
/// sequence number. The actor occupies the top 24 bits (offset by one so
/// id 0 never collides with the "untraced" sentinel), leaving 40 bits —
/// about 10^12 frames — of sequence space.
pub fn span_id(actor: u32, seq: u64) -> u64 {
    ((actor as u64 + 1) << 40) | (seq & ((1u64 << 40) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let ctx = TraceCtx { trace_id: 7, span_id: span_id(3, 99), send_ns: 123_456_789 };
        let mut buf = vec![0xAA; 5]; // existing payload prefix
        ctx.write_to(&mut buf);
        assert_eq!(buf.len(), 5 + TRACE_CTX_WIRE_LEN);
        assert_eq!(TraceCtx::read_from(&buf), Some(ctx));
        assert_eq!(TraceCtx::read_from(&buf[..10]), None);
    }

    #[test]
    fn span_ids_are_unique_across_actors() {
        assert_ne!(span_id(0, 1), span_id(1, 1));
        assert_ne!(span_id(0, 0), 0, "actor 0 must not collide with the untraced sentinel");
        assert!(TraceCtx { span_id: span_id(0, 0), ..TraceCtx::NONE }.is_set());
        assert!(!TraceCtx::NONE.is_set());
    }
}
