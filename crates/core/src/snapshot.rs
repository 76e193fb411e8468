//! Compact binary snapshots of replay buffers.
//!
//! Long characterization runs (the paper's take days) need their replay
//! state persisted and restored; JSON is impractical at 1 M rows ×
//! hundreds of floats, so snapshots use a versioned little-endian binary
//! framing.
//!
//! The body is layout-free: an agent count, then per agent a header
//! (`obs_dim`, `act_dim` as `u32`; `capacity`, `len`, `next` as `u64`) and
//! its `len` rows in slot order. The encoder reads each agent's rows in
//! place, so either address map of a [`MultiAgentReplay`] writes the same
//! bytes, and a snapshot restores into either map.
//!
//! Version 2 protects the body with a CRC-32, so a torn or bit-flipped
//! snapshot is *detected* instead of silently mis-loaded. It is the only
//! version read: a frame of any other version, among them the unchecked
//! version 1, is refused with [`SnapshotError::BadVersion`].

use crate::crc32::crc32;
use crate::error::ReplayError;
use crate::multi::MultiAgentReplay;
use crate::transition::TransitionLayout;

/// Magic prefix of a snapshot frame.
const MAGIC: u32 = 0x4D41_524C; // "MARL"
/// Framing version: body is followed by a leading CRC-32.
const VERSION: u16 = 2;
/// Bytes of a V2 frame header: magic, version, CRC-32.
const FRAME_HEADER: usize = 10;
/// Bytes of one agent header: two `u32` dims and three `u64` counters.
const AGENT_HEADER: usize = 32;
/// Largest replay a snapshot header may ask [`decode_replay`] to allocate,
/// per agent and in total: 2^31 floats (8 GiB). Hostile headers cannot
/// demand more.
const MAX_FLOATS: usize = 1 << 31;

/// Errors from decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// Unsupported framing version.
    BadVersion(u16),
    /// The frame ended before the declared payload.
    Truncated,
    /// Internal inconsistency (e.g. length exceeding capacity).
    Corrupt(&'static str),
    /// The payload checksum does not match (bit rot / torn write).
    ChecksumMismatch {
        /// CRC-32 declared in the frame header.
        expected: u32,
        /// CRC-32 computed over the received payload.
        actual: u32,
    },
    /// A well-formed snapshot whose geometry (agent count, an agent's
    /// layout, or the capacity) differs from the destination replay's.
    Mismatch(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a replay snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot geometry does not match the replay: {what} differs")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes a multi-agent replay into a framed binary snapshot.
///
/// # Examples
///
/// ```
/// use marl_core::multi::MultiAgentReplay;
/// use marl_core::snapshot::{decode_replay, encode_replay};
/// use marl_core::transition::TransitionLayout;
///
/// let replay = MultiAgentReplay::new(&[TransitionLayout::new(4, 2); 2], 16);
/// let bytes = encode_replay(&replay);
/// let restored = decode_replay(&bytes).unwrap();
/// assert_eq!(restored.agent_count(), 2);
/// ```
pub fn encode_replay(replay: &MultiAgentReplay) -> Vec<u8> {
    let body: usize = 4 + replay
        .layouts()
        .iter()
        .map(|l| AGENT_HEADER + replay.len() * l.row_bytes())
        .sum::<usize>();
    let mut out = Vec::with_capacity(FRAME_HEADER + body);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC-32, patched below
    encode_body(replay, &mut out);
    let crc = crc32(&out[FRAME_HEADER..]);
    out[6..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Appends the version-independent body (agent count + per-agent rows).
fn encode_body(replay: &MultiAgentReplay, out: &mut Vec<u8>) {
    out.extend_from_slice(&(replay.agent_count() as u32).to_le_bytes());
    for (a, l) in replay.layouts().iter().enumerate() {
        out.extend_from_slice(&(l.obs_dim as u32).to_le_bytes());
        out.extend_from_slice(&(l.act_dim as u32).to_le_bytes());
        for v in [replay.capacity(), replay.len(), replay.next_slot()] {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for slot in 0..replay.len() {
            for &x in replay.row(a, slot) {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

/// Decodes a snapshot produced by [`encode_replay`] into a new
/// agent-major replay sized by the snapshot's own header.
///
/// # Errors
///
/// Returns a [`SnapshotError`] for malformed input.
pub fn decode_replay(buf: &[u8]) -> Result<MultiAgentReplay, SnapshotError> {
    let body = frame_body(buf)?;
    let mut layouts = Vec::new();
    let (_, first) = walk_headers(body, |_, h| {
        layouts.push(h.layout);
        Ok(())
    })?;
    let floats = layouts.iter().map(TransitionLayout::row_width).sum::<usize>() * first.capacity;
    if floats > MAX_FLOATS {
        return Err(SnapshotError::Corrupt("implausible capacity"));
    }
    let mut replay = MultiAgentReplay::new(&layouts, first.capacity);
    decode_body_into(&mut replay, body)?;
    Ok(replay)
}

/// Decodes a snapshot into an existing replay of either address map,
/// replacing its rows, length and ring cursor. Allocates nothing.
///
/// Every check comes before the first write: the frame's checksum, each
/// agent header against `dst`'s layouts and capacity, and the exact body
/// length. A refused frame therefore leaves `dst` untouched.
///
/// # Errors
///
/// [`SnapshotError::Mismatch`] when the snapshot is well-formed but was
/// taken from a replay of another geometry; any other [`SnapshotError`]
/// for malformed input.
pub fn decode_replay_into(dst: &mut MultiAgentReplay, buf: &[u8]) -> Result<(), SnapshotError> {
    decode_body_into(dst, frame_body(buf)?)
}

/// Checks the frame's magic, version and checksum; returns its body.
fn frame_body(buf: &[u8]) -> Result<&[u8], SnapshotError> {
    let mut r = Reader(buf);
    if r.u32()? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let expected = r.u32()?;
    let actual = crc32(r.0);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(r.0)
}

/// The body's agent headers checked against `dst`, then its rows written
/// into `dst`.
fn decode_body_into(dst: &mut MultiAgentReplay, body: &[u8]) -> Result<(), SnapshotError> {
    let (agents, first) = walk_headers(body, |a, h| {
        if a >= dst.agent_count() {
            Err(SnapshotError::Mismatch("agent count"))
        } else if h.layout != dst.layouts()[a] {
            Err(SnapshotError::Mismatch("an agent's row layout"))
        } else if h.capacity != dst.capacity() {
            Err(SnapshotError::Mismatch("capacity"))
        } else {
            Ok(())
        }
    })?;
    if agents != dst.agent_count() {
        return Err(SnapshotError::Mismatch("agent count"));
    }
    // The walk proved every length below.
    let mut rest = &body[4..];
    for a in 0..agents {
        rest = &rest[AGENT_HEADER..];
        for slot in 0..first.len {
            let row = dst.row_mut(a, slot);
            let (bytes, tail) = rest.split_at(4 * row.len());
            for (x, b) in row.iter_mut().zip(bytes.chunks_exact(4)) {
                *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
            rest = tail;
        }
    }
    dst.set_cursor(first.len, first.next);
    Ok(())
}

/// One agent's header.
#[derive(Debug, Clone, Copy)]
struct AgentHeader {
    layout: TransitionLayout,
    capacity: usize,
    len: usize,
    next: usize,
}

/// Walks every agent header of `body`, handing each to `visit`, and
/// returns the agent count and agent 0's header. Each header must be internally consistent and agree
/// with agent 0 on capacity, length and cursor; the rows must fill the
/// body exactly.
fn walk_headers(
    body: &[u8],
    mut visit: impl FnMut(usize, &AgentHeader) -> Result<(), SnapshotError>,
) -> Result<(usize, AgentHeader), SnapshotError> {
    let mut r = Reader(body);
    let agents = r.u32()? as usize;
    if agents == 0 {
        return Err(SnapshotError::Corrupt("zero agents"));
    }
    // An agent count beyond the bytes left for its headers is certainly
    // corrupt.
    if agents > r.0.len() / AGENT_HEADER {
        return Err(SnapshotError::Truncated);
    }
    let mut first: Option<AgentHeader> = None;
    for a in 0..agents {
        let layout = TransitionLayout::new(r.u32()? as usize, r.u32()? as usize);
        let (capacity, len, next) = (r.count()?, r.count()?, r.count()?);
        if capacity == 0 {
            return Err(SnapshotError::Corrupt("zero capacity"));
        }
        if len > capacity || next >= capacity {
            return Err(SnapshotError::Corrupt("length/cursor out of range"));
        }
        if capacity.checked_mul(layout.row_width()).is_none_or(|f| f > MAX_FLOATS) {
            return Err(SnapshotError::Corrupt("implausible capacity"));
        }
        let h = AgentHeader { layout, capacity, len, next };
        let f = *first.get_or_insert(h);
        if (h.capacity, h.len, h.next) != (f.capacity, f.len, f.next) {
            return Err(SnapshotError::Corrupt("agents disagree on length/capacity"));
        }
        visit(a, &h)?;
        r.take(len * layout.row_bytes())?;
    }
    if !r.0.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes after the last agent"));
    }
    Ok((agents, first.expect("at least one agent")))
}

/// A little-endian cursor over a byte slice.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.0.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A `u64` count, as a `usize`.
    fn count(&mut self) -> Result<usize, SnapshotError> {
        let b = self.take(8)?;
        usize::try_from(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .map_err(|_| SnapshotError::Corrupt("count exceeds the address space"))
    }
}

/// The fallible-conversion error alias used by replay snapshot helpers.
impl From<SnapshotError> for ReplayError {
    fn from(e: SnapshotError) -> Self {
        ReplayError::InvalidBatch { reason: format!("snapshot: {e}") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::Transition;

    fn transition(l: &TransitionLayout, v: f32) -> Transition {
        Transition {
            obs: vec![v; l.obs_dim],
            action: vec![v * 0.5; l.act_dim],
            reward: v,
            next_obs: vec![v + 1.0; l.obs_dim],
            done: 0.0,
        }
    }

    /// Agent `a`'s rows are `3 + a` observations wide.
    fn filled(agents: usize, capacity: usize, pushes: usize) -> MultiAgentReplay {
        let layouts: Vec<TransitionLayout> =
            (0..agents).map(|a| TransitionLayout::new(3 + a, 2)).collect();
        let mut r = MultiAgentReplay::new(&layouts, capacity);
        for t in 0..pushes {
            let step: Vec<Transition> =
                (0..agents).map(|a| transition(&layouts[a], (t * 10 + a) as f32)).collect();
            r.push_step(&step).unwrap();
        }
        r
    }

    fn assert_same_rows(a: &MultiAgentReplay, b: &MultiAgentReplay) {
        assert_eq!((a.len(), a.next_slot(), a.capacity()), (b.len(), b.next_slot(), b.capacity()));
        for agent in 0..a.agent_count() {
            for slot in 0..a.len() {
                assert_eq!(a.row(agent, slot), b.row(agent, slot), "agent {agent} slot {slot}");
            }
        }
    }

    #[test]
    fn roundtrip_partial_buffer() {
        let r = filled(3, 32, 10);
        let restored = decode_replay(&encode_replay(&r)).unwrap();
        assert_eq!(restored.agent_count(), 3);
        assert_same_rows(&restored, &r);
    }

    #[test]
    fn roundtrip_wrapped_ring() {
        let r = filled(2, 8, 21); // wraps twice
        let restored = decode_replay(&encode_replay(&r)).unwrap();
        assert_eq!(restored.len(), 8);
        assert_same_rows(&restored, &r);
    }

    #[test]
    fn a_snapshot_of_another_geometry_is_refused_before_any_write() {
        let bytes = encode_replay(&filled(2, 8, 5));
        let mut other_capacity = filled(2, 16, 3);
        let mut other_agents = filled(3, 8, 3);
        let before = encode_replay(&other_capacity);
        assert_eq!(
            decode_replay_into(&mut other_capacity, &bytes),
            Err(SnapshotError::Mismatch("capacity"))
        );
        assert_eq!(encode_replay(&other_capacity), before);
        assert_eq!(
            decode_replay_into(&mut other_agents, &bytes),
            Err(SnapshotError::Mismatch("agent count"))
        );
        let mut narrower = MultiAgentReplay::new(&[TransitionLayout::new(3, 1); 2], 8);
        assert!(matches!(
            decode_replay_into(&mut narrower, &bytes),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    /// `body` in a frame with a valid CRC-32, so a test body reaches the
    /// body checks.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let r = filled(1, 4, 2);
        let mut body = Vec::new();
        encode_body(&r, &mut body);
        body.push(0);
        let err = decode_replay(&framed(&body)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_replay(b"not a snapshot....").unwrap_err();
        assert_eq!(err, SnapshotError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let r = filled(2, 8, 5);
        let full = encode_replay(&r);
        for cut in [0usize, 5, 12, full.len() - 3] {
            let err = decode_replay(&full[..cut]).unwrap_err();
            // A cut inside the checksummed payload surfaces as a checksum
            // mismatch; either way the decoder errors instead of mis-loading.
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let r = filled(2, 16, 9);
        let full = encode_replay(&r);
        // Flip one bit in bytes across the payload (past the 10-byte
        // header); each must be caught by the CRC.
        for byte in [10usize, 20, full.len() / 2, full.len() - 1] {
            let mut bad = full.clone();
            bad[byte] ^= 0x10;
            let err = decode_replay(&bad).unwrap_err();
            assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "byte={byte}: {err:?}");
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let r = filled(1, 4, 1);
        let mut bad = encode_replay(&r);
        bad[4] = 99; // version byte
        let err = decode_replay(&bad).unwrap_err();
        assert!(matches!(err, SnapshotError::BadVersion(_)));
    }

    #[test]
    fn hostile_capacity_rejected_without_allocation() {
        // A valid checksum, so the bomb reaches the capacity guard.
        let mut body = 1u32.to_le_bytes().to_vec(); // one agent
        body.extend_from_slice(&1000u32.to_le_bytes()); // obs_dim
        body.extend_from_slice(&5u32.to_le_bytes()); // act_dim
        body.extend_from_slice(&u64::MAX.to_le_bytes()); // capacity bomb
        body.extend_from_slice(&[0; 16]);
        let err = decode_replay(&framed(&body)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn snapshot_error_converts_to_replay_error() {
        let e: ReplayError = SnapshotError::BadMagic.into();
        assert!(e.to_string().contains("snapshot"));
    }
}
