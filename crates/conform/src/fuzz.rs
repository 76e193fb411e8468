//! Structured mutators for the snapshot/checkpoint fuzzing suite.
//!
//! Random byte noise almost always dies at the outermost CRC check, which
//! exercises one code path out of dozens. These mutators are *format
//! aware* instead: they know where the headers, checksums, and length
//! fields of the MARC checkpoint frame, the replay-snapshot frame and
//! the two binary MARD wire frames (`Steps`, `Params`) live, so a drawn
//! mutation can place corruption *behind* the checksum (re-patching the
//! CRC) and reach the interior bounds checks that a naive fuzzer never
//! touches.
//!
//! Every mutator is a pure function of `(bytes, mutation, format)` with
//! all positions reduced modulo the valid range, so any
//! proptest-generated parameter tuple is a valid mutation and the suites
//! stay deterministic under proptest's fixed per-test seeds.
//!
//! The oracle the suites assert: decoding any mutated frame must return
//! a *typed* error or a structurally valid value — never panic, hang, or
//! silently mis-load.

use marl_core::crc32::{crc32, Crc32};
use marl_core::transition::TransitionLayout;

/// Which on-disk frame format a byte buffer claims to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// MARC checkpoint frame (`marl_algo::checkpoint`): 12-byte header
    /// (magic u32, version u16, reserved u16, CRC-32 u32) then the
    /// checksummed payload `json_len u64 | json | replay_len u64 | replay`.
    Checkpoint,
    /// Replay snapshot V2 (`marl_core::snapshot`): 10-byte header (magic
    /// u32, version u16, CRC-32 u32) then the checksummed body.
    SnapshotV2,
    /// Legacy replay snapshot V1: 6-byte header (magic u32, version u16),
    /// no checksum, same body as V2.
    SnapshotV1,
    /// MARD `Steps` wire frame (`marl_dist::wire`, kind 3): 16-byte
    /// header (magic u32, version u16, kind u16, len u32, CRC-32 u32 over
    /// `kind | len | payload`) then the raw little-endian payload.
    MardSteps,
    /// MARD `Params` wire frame (kind 4): same header, actor-only payload.
    MardParams,
}

/// MARD header layout: `kind` at 6, `len` at 8, CRC at 12, payload at 16.
const MARD_KIND: usize = 6;
const MARD_LEN: usize = 8;
const MARD_CRC: usize = 12;
const MARD_PAYLOAD: usize = 16;

impl Format {
    /// Offset where the checksummed payload (or unchecksummed V1 body)
    /// begins.
    pub fn payload_offset(self) -> usize {
        match self {
            Format::Checkpoint => 12,
            Format::SnapshotV2 => 10,
            Format::SnapshotV1 => 6,
            Format::MardSteps | Format::MardParams => MARD_PAYLOAD,
        }
    }

    /// Byte width of this format's length/count fields.
    fn length_field_width(self) -> usize {
        match self {
            Format::Checkpoint | Format::SnapshotV2 | Format::SnapshotV1 => 8,
            Format::MardSteps | Format::MardParams => 4,
        }
    }

    fn is_mard(self) -> bool {
        matches!(self, Format::MardSteps | Format::MardParams)
    }

    /// `(crc_offset, payload_offset)` for formats that carry a CRC-32.
    fn crc_site(self) -> Option<(usize, usize)> {
        match self {
            Format::Checkpoint => Some((8, 12)),
            Format::SnapshotV2 => Some((6, 10)),
            Format::SnapshotV1 => None,
            Format::MardSteps | Format::MardParams => Some((MARD_CRC, MARD_PAYLOAD)),
        }
    }
}

/// One structured mutation. All positions/lengths are reduced modulo the
/// valid range by [`apply_mutation`], so arbitrary drawn values are safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Keep only a prefix (torn write / partial download).
    Truncate {
        /// Bytes to keep, reduced modulo `len + 1`.
        keep: usize,
    },
    /// Insert foreign bytes at a position (framing slip / concatenation).
    Splice {
        /// Insertion point, reduced modulo `len + 1`.
        at: usize,
        /// The bytes to insert.
        bytes: Vec<u8>,
    },
    /// Re-insert a copy of an existing section elsewhere (duplicated
    /// block from a botched recovery).
    DuplicateSection {
        /// Section start, reduced modulo `len`.
        src: usize,
        /// Section length, reduced into `1..=len - src`.
        len: usize,
        /// Insertion point for the copy, reduced modulo `len + 1`.
        dst: usize,
    },
    /// Overwrite one of the frame's length fields with an arbitrary
    /// value, then re-patch the CRC so the hostile length actually
    /// reaches the parser's bounds checks instead of dying at the
    /// checksum.
    CorruptLengthField {
        /// Which length field, reduced modulo the field count (no-op on
        /// frames too short to locate any length field).
        field: usize,
        /// The replacement little-endian value (MARD fields are u32 and
        /// take its low half).
        value: u64,
    },
    /// Swap two payload bytes and re-patch the CRC: a checksum-valid
    /// frame whose interior is inconsistent, exercising every validation
    /// layer *behind* the CRC.
    CrcPreservingSwap {
        /// First payload position, reduced modulo the payload length.
        a: usize,
        /// Second payload position, reduced modulo the payload length.
        b: usize,
    },
    /// Relabel a MARD `Steps` frame as `Params` or the reverse (header
    /// kind 3 ↔ 4) and re-patch the CRC, so each binary decoder meets
    /// the other's payload. No-op on the other formats.
    KindConfusion,
}

fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Recomputes and re-writes the frame's CRC-32 over its current payload
/// (no-op for V1 snapshots and frames shorter than their header). A MARD
/// CRC also covers the header's `kind` and `len` fields.
pub fn patch_crc(bytes: &mut [u8], fmt: Format) {
    if let Some((crc_off, payload_off)) = fmt.crc_site() {
        if bytes.len() >= payload_off {
            let crc = if fmt.is_mard() {
                Crc32::new()
                    .update(&bytes[MARD_KIND..MARD_CRC])
                    .update(&bytes[payload_off..])
                    .finish()
            } else {
                crc32(&bytes[payload_off..])
            };
            bytes[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Offsets of the u32 count fields of a MARD `Steps`/`Params` frame: the
/// header's payload length, then the step/agent/layer counts and every
/// dimension, found by walking the payload as its decoder does.
fn mard_field_offsets(bytes: &[u8], fmt: Format) -> Vec<usize> {
    let mut out = Vec::new();
    // Fixed prefix, then the flags byte whose bits say which optional
    // blocks (32-byte RNG state, 24-byte trace context) precede the counts.
    let (flags_at, rng_bit, ctx_bit) = match fmt {
        Format::MardSteps => (MARD_PAYLOAD + 20, 2, 4),
        _ => (MARD_PAYLOAD + 8, 1, 2),
    };
    let Some(&flags) = bytes.get(flags_at) else {
        return out;
    };
    out.push(MARD_LEN);
    let mut off = flags_at + 1;
    if flags & rng_bit != 0 {
        off += 32;
    }
    if flags & ctx_bit != 0 {
        off += 24;
    }
    let mut field = |off: &mut usize| -> Option<usize> {
        let end = off.checked_add(4).filter(|&end| end <= bytes.len())?;
        out.push(*off);
        let value = u32_at(bytes, *off) as usize;
        *off = end;
        Some(value)
    };
    if fmt == Format::MardSteps {
        // n_steps, n_agents, then (obs_dim, act_dim) per agent.
        let _ = field(&mut off);
        let Some(agents) = field(&mut off) else {
            return out;
        };
        for _ in 0..agents.saturating_mul(2) {
            if field(&mut off).is_none() {
                break;
            }
        }
        return out;
    }
    // n_agents; per actor n_layers; per layer rows, cols, then the floats.
    let Some(agents) = field(&mut off) else {
        return out;
    };
    for _ in 0..agents {
        let Some(layers) = field(&mut off) else {
            return out;
        };
        for _ in 0..layers {
            let (Some(rows), Some(cols)) = (field(&mut off), field(&mut off)) else {
                return out;
            };
            let floats = rows.checked_mul(cols).and_then(|w| w.checked_add(cols));
            match floats.and_then(|f| f.checked_mul(4)).and_then(|b| off.checked_add(b)) {
                Some(next) => off = next,
                None => return out,
            }
        }
    }
    out
}

/// Byte offsets of every length/cursor field reachable by walking the
/// frame as its parser would: the two section lengths of a checkpoint
/// payload, capacity/len/next of every per-agent storage frame in a
/// snapshot body, or the counts and dimensions of a MARD frame (u32
/// there, u64 elsewhere). Walks defensively (checked arithmetic,
/// stops at the first out-of-bounds frame), so it accepts already-mutated
/// input.
pub fn length_field_offsets(bytes: &[u8], fmt: Format) -> Vec<usize> {
    let mut out = Vec::new();
    match fmt {
        Format::Checkpoint => {
            if bytes.len() >= 20 {
                out.push(12);
                let json_len = usize::try_from(u64_at(bytes, 12)).unwrap_or(usize::MAX);
                if let Some(off) = 20usize.checked_add(json_len) {
                    if off.checked_add(8).is_some_and(|end| end <= bytes.len()) {
                        out.push(off);
                    }
                }
            }
        }
        Format::SnapshotV2 | Format::SnapshotV1 => {
            let base = fmt.payload_offset();
            if bytes.len() < base + 4 {
                return out;
            }
            let agents = u32_at(bytes, base);
            let mut off = base + 4;
            for _ in 0..agents {
                // Per-agent frame: obs u32, act u32, capacity u64,
                // len u64, next u64, then len·row_width f32 rows.
                if off.checked_add(32).is_none_or(|end| end > bytes.len()) {
                    break;
                }
                let obs = u32_at(bytes, off) as usize;
                let act = u32_at(bytes, off + 4) as usize;
                out.push(off + 8);
                out.push(off + 16);
                out.push(off + 24);
                let len = usize::try_from(u64_at(bytes, off + 16)).unwrap_or(usize::MAX);
                let w = TransitionLayout::new(obs, act).row_width();
                let Some(rows) = len.checked_mul(w).and_then(|x| x.checked_mul(4)) else {
                    break;
                };
                let Some(next) = off.checked_add(32).and_then(|x| x.checked_add(rows)) else {
                    break;
                };
                off = next;
            }
        }
        Format::MardSteps | Format::MardParams => return mard_field_offsets(bytes, fmt),
    }
    out
}

/// Applies one structured mutation, returning the mutated frame.
pub fn apply_mutation(bytes: &[u8], m: &Mutation, fmt: Format) -> Vec<u8> {
    match m {
        Mutation::Truncate { keep } => bytes[..keep % (bytes.len() + 1)].to_vec(),
        Mutation::Splice { at, bytes: ins } => {
            let mut out = bytes.to_vec();
            let at = at % (bytes.len() + 1);
            out.splice(at..at, ins.iter().copied());
            out
        }
        Mutation::DuplicateSection { src, len, dst } => {
            if bytes.is_empty() {
                return Vec::new();
            }
            let src = src % bytes.len();
            let l = 1 + len % (bytes.len() - src);
            let dst = dst % (bytes.len() + 1);
            let mut out = bytes.to_vec();
            let section = bytes[src..src + l].to_vec();
            out.splice(dst..dst, section);
            out
        }
        Mutation::CorruptLengthField { field, value } => {
            let offsets = length_field_offsets(bytes, fmt);
            let mut out = bytes.to_vec();
            if let Some(&off) = offsets.get(field % offsets.len().max(1)) {
                let width = fmt.length_field_width();
                out[off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
                patch_crc(&mut out, fmt);
            }
            out
        }
        Mutation::CrcPreservingSwap { a, b } => {
            let base = fmt.payload_offset();
            let mut out = bytes.to_vec();
            if bytes.len() > base {
                let n = bytes.len() - base;
                out.swap(base + a % n, base + b % n);
                patch_crc(&mut out, fmt);
            }
            out
        }
        Mutation::KindConfusion => {
            let mut out = bytes.to_vec();
            if fmt.is_mard() && bytes.len() >= MARD_PAYLOAD {
                let other: u16 = if out[MARD_KIND] == 3 { 4 } else { 3 };
                out[MARD_KIND..MARD_KIND + 2].copy_from_slice(&other.to_le_bytes());
                patch_crc(&mut out, fmt);
            }
            out
        }
    }
}

/// Re-frames a V2 snapshot as a legacy V1 frame (same body, 6-byte
/// header, no checksum), for fuzzing the unchecksummed legacy path.
///
/// # Panics
///
/// Panics if `v2` is shorter than the 10-byte V2 header.
pub fn snapshot_v1_from_v2(v2: &[u8]) -> Vec<u8> {
    assert!(v2.len() >= 10, "not a V2 snapshot frame");
    let mut out = Vec::with_capacity(v2.len() - 4);
    out.extend_from_slice(&v2[0..4]);
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&v2[10..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use marl_core::multi::MultiAgentReplay;
    use marl_core::snapshot::{decode_replay, encode_replay, SnapshotError};
    use marl_core::transition::Transition;

    fn snapshot_bytes(agents: usize, pushes: usize) -> Vec<u8> {
        let layouts = vec![TransitionLayout::new(3, 2); agents];
        let mut r = MultiAgentReplay::new(&layouts, 8);
        for t in 0..pushes {
            let step: Vec<Transition> = (0..agents)
                .map(|a| Transition {
                    obs: vec![(t + a) as f32; 3],
                    action: vec![0.5; 2],
                    reward: t as f32,
                    next_obs: vec![(t + a + 1) as f32; 3],
                    done: 0.0,
                })
                .collect();
            r.push_step(&step).unwrap();
        }
        encode_replay(&r).to_vec()
    }

    #[test]
    fn offsets_walk_every_agent_frame() {
        let bytes = snapshot_bytes(3, 5);
        let offsets = length_field_offsets(&bytes, Format::SnapshotV2);
        // capacity/len/next per agent.
        assert_eq!(offsets.len(), 9);
        // The second offset of each triple is the len field; verify by
        // reading it back.
        assert_eq!(u64_at(&bytes, offsets[1]), 5);
    }

    #[test]
    fn corrupt_length_reaches_the_parser_not_the_checksum() {
        let bytes = snapshot_bytes(2, 4);
        let m = Mutation::CorruptLengthField { field: 1, value: u64::MAX };
        let bad = apply_mutation(&bytes, &m, Format::SnapshotV2);
        assert_ne!(bad, bytes);
        let err = decode_replay(bad.into()).unwrap_err();
        // The CRC was re-patched, so the error must come from a bounds
        // check behind the checksum, not the checksum itself.
        assert!(!matches!(err, SnapshotError::ChecksumMismatch { .. }), "{err:?}");
    }

    #[test]
    fn crc_preserving_swap_passes_the_checksum() {
        let bytes = snapshot_bytes(2, 4);
        let m = Mutation::CrcPreservingSwap { a: 3, b: 47 };
        let bad = apply_mutation(&bytes, &m, Format::SnapshotV2);
        match decode_replay(bad.into()) {
            Ok(_) => {} // a swap can be structurally harmless
            Err(e) => {
                assert!(!matches!(e, SnapshotError::ChecksumMismatch { .. }), "{e:?}");
            }
        }
    }

    #[test]
    fn patch_crc_restores_validity() {
        let mut bytes = snapshot_bytes(1, 3);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_replay(bytes.clone().into()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        patch_crc(&mut bytes, Format::SnapshotV2);
        // Checksum-valid again; the flipped float decodes fine.
        decode_replay(bytes.into()).unwrap();
    }

    #[test]
    fn truncate_splice_duplicate_are_total() {
        let bytes = snapshot_bytes(1, 2);
        for m in [
            Mutation::Truncate { keep: usize::MAX },
            Mutation::Splice { at: usize::MAX, bytes: vec![1, 2, 3] },
            Mutation::DuplicateSection { src: usize::MAX, len: usize::MAX, dst: usize::MAX },
        ] {
            // Arbitrary positions are reduced into range — no panics.
            let out = apply_mutation(&bytes, &m, Format::SnapshotV2);
            let _ = decode_replay(out.into());
        }
        assert!(apply_mutation(
            &[],
            &Mutation::DuplicateSection { src: 0, len: 0, dst: 0 },
            Format::SnapshotV2
        )
        .is_empty());
    }

    #[test]
    fn v1_reframe_decodes_and_walks() {
        let v2 = snapshot_bytes(2, 3);
        let v1 = snapshot_v1_from_v2(&v2);
        assert_eq!(decode_replay(v1.clone().into()).unwrap().agent_count(), 2);
        assert_eq!(length_field_offsets(&v1, Format::SnapshotV1).len(), 6);
    }

    #[test]
    fn short_frames_yield_no_offsets_and_mutate_safely() {
        for fmt in [
            Format::Checkpoint,
            Format::SnapshotV2,
            Format::SnapshotV1,
            Format::MardSteps,
            Format::MardParams,
        ] {
            assert!(length_field_offsets(&[0u8; 4], fmt).is_empty());
            let out = apply_mutation(
                &[0u8; 4],
                &Mutation::CorruptLengthField { field: 7, value: 9 },
                fmt,
            );
            assert_eq!(out, vec![0u8; 4]);
            let _ = apply_mutation(&[0u8; 4], &Mutation::CrcPreservingSwap { a: 1, b: 2 }, fmt);
            assert_eq!(apply_mutation(&[0u8; 4], &Mutation::KindConfusion, fmt), vec![0u8; 4]);
        }
    }
}
