//! Structured snapshot fuzzing (conformance pillar 3).
//!
//! Draws ≥ 256 structured mutations per format — MARC checkpoint
//! frames, V2 replay snapshots, the two binary MARD wire frames
//! (`Steps`, `Params`) and a stream of serve request frames — and
//! asserts the decoding oracle: every mutated
//! frame yields a *typed* error or a structurally valid value; never a
//! panic, hang, or mis-load. The mutators are format aware
//! (`marl_conform::fuzz`), so corruption lands both in front of and
//! *behind* the checksums: truncations, splices, duplicated sections,
//! hostile length fields with a re-patched CRC, CRC-preserving payload
//! swaps, and `Steps`↔`Params` kind confusion. The wire decoders are
//! additionally held to an allocation bound: whatever a hostile count
//! says, decoding never asks the heap for more than the frame is long.
//! The serve stream goes through the socket path's own parser — the
//! fixed-buffer frame splitter, fed in drawn read sizes so frames split
//! across reads, then `decode_request_into` — which may allocate nothing
//! beyond its fixed buffer.
//!
//! A final test drives structured corruption through the crash-safety
//! path: a checksum-valid-but-hostile live checkpoint must fall back to
//! the rotated `.prev` file.

use marl_conform::fuzz::{apply_mutation, length_field_offsets, Format, Mutation};
use marl_repro::algo::checkpoint::{
    decode_checkpoint_file, encode_checkpoint_file, load_checkpoint_with_fallback,
    write_checkpoint_file, Checkpoint,
};
use marl_repro::algo::{Algorithm, Task, TrainError, Trainer};
use marl_repro::core::multi::{LayoutMode, MultiAgentReplay};
use marl_repro::core::snapshot::{decode_replay, decode_replay_into, encode_replay, SnapshotError};
use marl_repro::core::transition::{Transition, TransitionLayout};
use marl_repro::core::SamplerConfig;
use marl_repro::dist::wire::{self, ActorParams, Msg, Params, Steps};
use marl_repro::dist::{DistError, FrameReader};
use marl_repro::obs::context::TraceCtx;
use marl_repro::serve::proto;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

mod common;

/// Totals the bytes the *current thread* requests from the heap while
/// armed (the other tests of this binary run on their own threads).
struct MeteredAlloc;

thread_local! {
    static METER: Cell<Option<usize>> = const { Cell::new(None) };
}

fn meter(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = METER.try_with(|m| m.set(m.get().map(|total| total + bytes)));
}

unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        meter(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        meter(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: MeteredAlloc = MeteredAlloc;

/// Runs `f` and returns its result with the heap bytes it requested.
fn heap_requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    METER.with(|m| m.set(Some(0)));
    let out = f();
    let total = METER.with(|m| m.take()).expect("meter was armed");
    (out, total)
}

/// One short prefilled run, captured once: a realistic checkpoint with a
/// prioritized-sampler run state and a populated replay section.
fn trained_checkpoint() -> &'static (Checkpoint, Vec<u8>) {
    static STATE: OnceLock<(Checkpoint, Vec<u8>)> = OnceLock::new();
    STATE.get_or_init(|| {
        let cfg = common::seeded_config(
            Algorithm::Maddpg,
            Task::PredatorPrey,
            3,
            SamplerConfig::Per,
            2,
            32,
            256,
            4242,
        );
        let mut t = Trainer::new(cfg).unwrap();
        t.prefill(120).unwrap();
        t.checkpoint_full()
    })
}

fn checkpoint_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (ckpt, replay) = trained_checkpoint();
        encode_checkpoint_file(ckpt, replay).unwrap()
    })
}

/// A wrapped multi-agent replay (ring has lapped once) encoded as a V2
/// snapshot frame.
fn snapshot_v2_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let layouts = vec![TransitionLayout::new(4, 2); 3];
        let mut r = MultiAgentReplay::new(&layouts, 16);
        for t in 0..21 {
            let step: Vec<Transition> = (0..3)
                .map(|a| Transition {
                    obs: vec![(t * 10 + a) as f32; 4],
                    action: vec![0.25; 2],
                    reward: t as f32,
                    next_obs: vec![(t * 10 + a + 1) as f32; 4],
                    done: f32::from(t % 25 == 24),
                })
                .collect();
            r.push_step(&step).unwrap();
        }
        encode_replay(&r)
    })
}

/// A `Params` broadcast of a real predator-prey trainer, with the
/// lockstep RNG handoff and a trace context: every optional
/// block of the layout is present.
fn mard_params_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = common::seeded_config(
            Algorithm::Maddpg,
            Task::PredatorPrey,
            3,
            SamplerConfig::Uniform,
            1,
            32,
            256,
            4242,
        );
        let t = Trainer::new(cfg).unwrap();
        wire::encode_frame(&Msg::Params(Box::new(Params {
            epoch: 9,
            actors: ActorParams::capture(t.actors()),
            master_rng: Some([1, 2, 3, 4]),
            ctx: Some(TraceCtx { trace_id: 7, span_id: 8, send_ns: 9 }),
        })))
    })
}

/// A sync `Steps` frame of ten joint steps, every optional block present.
fn mard_steps_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        wire::encode_frame(&Msg::Steps(Steps {
            worker_id: 3,
            epoch: 5,
            seq: 11,
            rows: common::zero_step_rows(10),
            rng: Some([5, 6, 7, 8]),
            sync: true,
            ctx: Some(TraceCtx { trace_id: 7, span_id: 8, send_ns: 9 }),
        }))
    })
}

/// Observation widths of the serve stream's requests: every width a
/// predator-prey actor takes, and an empty one.
const SERVE_OBS_LENS: [usize; 5] = [16, 14, 0, 16, 3];

/// The serve splitter's buffer: room for four of the stream's widest
/// requests, as the server sizes its buffer from the widest request the
/// model accepts.
fn serve_rx_capacity() -> usize {
    4 * proto::request_frame_len(16)
}

/// Serve request frames back to back, as one pipelining client sends
/// them; traced and untraced requests alternate.
fn serve_stream_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (mut stream, mut frame) = (Vec::new(), Vec::new());
        for (i, &len) in SERVE_OBS_LENS.iter().enumerate() {
            let obs: Vec<f32> = (0..len).map(|c| (i * 31 + c) as f32 * 0.125 - 1.0).collect();
            let ctx = match i % 2 {
                0 => TraceCtx::NONE,
                _ => TraceCtx { trace_id: 7, span_id: i as u64, send_ns: 9 },
            };
            proto::encode_request(100 + i as u64, i as u32 % 3, &obs, ctx, &mut frame);
            stream.extend_from_slice(&frame);
        }
        stream
    })
}

/// What the serve splitter made of a stream.
#[derive(Debug, PartialEq)]
enum Parsed {
    /// Every whole frame decoded; this many requests.
    Requests(usize),
    /// Stopped at a typed error, as the server closes the connection.
    Refused,
}

/// The serve socket oracle: feed `stream` to a fixed-buffer frame
/// splitter in reads of the drawn sizes, decode every request it yields,
/// and stop at the first error, as a reader closes its connection. Every
/// error must be typed, every decoded request must encode back to the
/// payload it came from, and nothing may allocate beyond the buffers set
/// up before the stream arrives.
fn serve_stream_oracle(stream: &[u8], reads: &[usize]) -> Result<Parsed, String> {
    let capacity = serve_rx_capacity();
    let mut frames = FrameReader::new(capacity);
    let mut obs = Vec::with_capacity(capacity / 4);
    let mut again = Vec::with_capacity(capacity);
    let (parsed, heap) = heap_requested(|| {
        let mut rest = stream;
        let mut sizes = reads.iter().cycle();
        let mut requests = 0;
        while !rest.is_empty() {
            let free = frames.unfilled();
            if free.is_empty() {
                return Err("the buffer filled up without a whole frame".to_owned());
            }
            let n = (1 + sizes.next().copied().unwrap_or(0) % free.len()).min(rest.len());
            free[..n].copy_from_slice(&rest[..n]);
            frames.filled(n);
            rest = &rest[n..];
            loop {
                let refused = match frames.next_frame() {
                    Ok(None) => break,
                    Ok(Some((wire::KIND_INFER_REQ, payload))) => {
                        match proto::decode_request_into(payload, &mut obs) {
                            Ok((req_id, agent, ctx)) => {
                                proto::encode_request(req_id, agent, &obs, ctx, &mut again);
                                if &again[wire::HEADER_LEN..] != payload {
                                    return Err("a request decoded to something it does not \
                                                encode to"
                                        .to_owned());
                                }
                                requests += 1;
                                continue;
                            }
                            Err(e) => e,
                        }
                    }
                    Ok(Some((wire::KIND_SERVE_CTL, payload))) => match proto::decode_ctl(payload) {
                        Ok(_) => continue,
                        Err(e) => e,
                    },
                    Ok(Some(_)) => return Ok(Parsed::Refused), // not a serve request
                    Err(e) => e,
                };
                return match refused {
                    DistError::BadMagic { .. }
                    | DistError::UnsupportedVersion { .. }
                    | DistError::CrcMismatch { .. }
                    | DistError::FrameTooLarge { .. }
                    | DistError::Protocol(_) => Ok(Parsed::Refused),
                    other => Err(format!("untyped serve stream error: {other:?}")),
                };
            }
        }
        Ok(Parsed::Requests(requests))
    });
    if heap > DECODE_HEAP_SLACK {
        return Err(format!("parsing a {}-byte stream requested {heap} heap bytes", stream.len()));
    }
    parsed
}

/// Maps drawn parameters onto one of the structured mutation kinds (the
/// stub proptest has no `prop_oneof!`; a drawn discriminant is the same
/// distribution). Kind 5 only means something to the MARD formats.
fn build_mutation(kind: usize, a: usize, b: usize, value: u64, payload: Vec<u8>) -> Mutation {
    match kind {
        0 => Mutation::Truncate { keep: a },
        1 => Mutation::Splice { at: a, bytes: payload },
        2 => Mutation::DuplicateSection { src: a, len: b, dst: value as usize },
        3 => Mutation::CorruptLengthField { field: a, value },
        4 => Mutation::CrcPreservingSwap { a, b },
        _ => Mutation::KindConfusion,
    }
}

/// Fixed heap allowance of one decode on top of the frame's own length:
/// the boxed message and the text of a typed error.
const DECODE_HEAP_SLACK: usize = 512;

/// The wire decoding oracle: a typed error, or a message that encodes
/// back to exactly the bytes it was decoded from (so nothing was
/// silently reinterpreted) — and either way within the heap bound.
fn mard_oracle(mutated: &[u8]) -> Result<(), String> {
    let (decoded, heap) = heap_requested(|| wire::decode_frame(mutated));
    if heap > mutated.len() + DECODE_HEAP_SLACK {
        return Err(format!("decoding a {}-byte frame requested {heap} heap bytes", mutated.len()));
    }
    match decoded {
        Err(
            DistError::Truncated { .. }
            | DistError::BadMagic { .. }
            | DistError::UnsupportedVersion { .. }
            | DistError::CrcMismatch { .. }
            | DistError::Protocol(_),
        ) => Ok(()),
        Err(other) => Err(format!("untyped decode error: {other:?}")),
        Ok(msg) => {
            let again = wire::encode_frame(&msg);
            if mutated.starts_with(&again) {
                Ok(())
            } else {
                Err(format!("a {} frame decoded to something it does not encode to", msg.label()))
            }
        }
    }
}

/// The snapshot decoding oracle: typed error, or a replay whose
/// structural invariants hold and which encodes back to exactly the body
/// it was decoded from (so nothing was skipped or reinterpreted).
fn snapshot_oracle(mutated: Vec<u8>) -> Result<(), String> {
    match decode_replay(&mutated) {
        Err(_typed) => Ok(()), // every SnapshotError variant is acceptable
        Ok(r) => {
            if r.agent_count() == 0 {
                return Err("decoded a replay with zero agents".into());
            }
            if r.len() > r.capacity() || r.next_slot() >= r.capacity() {
                return Err(format!(
                    "len {} / next {} out of range for capacity {}",
                    r.len(),
                    r.next_slot(),
                    r.capacity()
                ));
            }
            // The body starts after magic, version and CRC.
            if encode_replay(&r)[10..] != mutated[10..] {
                return Err("the decoded replay does not encode to its own body".into());
            }
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MARC checkpoint frames: every structured mutation decodes to a
    /// typed `TrainError::Checkpoint` or a valid checkpoint whose replay
    /// section itself decodes totally.
    #[test]
    fn checkpoint_mutations_never_panic_or_misload(
        kind in 0usize..5,
        a in any::<usize>(),
        b in any::<usize>(),
        value in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1usize..24),
    ) {
        let m = build_mutation(kind, a, b, value, payload);
        let mutated = apply_mutation(checkpoint_bytes(), &m, Format::Checkpoint);
        match decode_checkpoint_file(&mutated) {
            Err(TrainError::Checkpoint(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "untyped error variant: {other:?}"),
            Ok((ckpt, replay)) => {
                // A CRC-preserving mutation may decode; the embedded
                // replay section must then decode totally as well.
                prop_assert!(!ckpt.agents.is_empty(), "checkpoint lost its agents");
                let inner = snapshot_oracle(replay);
                prop_assert!(inner.is_ok(), "embedded replay: {}", inner.unwrap_err());
            }
        }
    }

    /// V2 replay snapshots: typed `SnapshotError` or a structurally
    /// valid replay, for every structured mutation.
    #[test]
    fn snapshot_v2_mutations_never_panic_or_misload(
        kind in 0usize..5,
        a in any::<usize>(),
        b in any::<usize>(),
        value in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1usize..24),
    ) {
        let m = build_mutation(kind, a, b, value, payload);
        let mutated = apply_mutation(snapshot_v2_bytes(), &m, Format::SnapshotV2);
        let verdict = snapshot_oracle(mutated);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary `Steps` frames: typed error or the identical message, and
    /// never more heap than the frame is long.
    #[test]
    fn mard_steps_mutations_never_panic_or_overallocate(
        kind in 0usize..6,
        a in any::<usize>(),
        b in any::<usize>(),
        value in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1usize..24),
    ) {
        let m = build_mutation(kind, a, b, value, payload);
        let mutated = apply_mutation(mard_steps_bytes(), &m, Format::MardSteps);
        let verdict = mard_oracle(&mutated);
        prop_assert!(verdict.is_ok(), "{m:?}: {}", verdict.unwrap_err());
    }

    /// Binary `Params` frames, same oracle.
    #[test]
    fn mard_params_mutations_never_panic_or_overallocate(
        kind in 0usize..6,
        a in any::<usize>(),
        b in any::<usize>(),
        value in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1usize..24),
    ) {
        let m = build_mutation(kind, a, b, value, payload);
        let mutated = apply_mutation(mard_params_bytes(), &m, Format::MardParams);
        let verdict = mard_oracle(&mutated);
        prop_assert!(verdict.is_ok(), "{m:?}: {}", verdict.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stream of serve request frames, split across drawn read sizes
    /// into the fixed receive buffer: a typed error or the identical
    /// requests, never a panic, and no heap beyond the fixed buffers.
    #[test]
    fn serve_stream_mutations_split_across_reads_never_panic_or_allocate(
        kind in 0usize..6,
        a in any::<usize>(),
        b in any::<usize>(),
        value in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1usize..24),
        reads in prop::collection::vec(0usize..200, 1..8),
    ) {
        let m = build_mutation(kind, a, b, value, payload);
        let mutated = apply_mutation(serve_stream_bytes(), &m, Format::ServeRequests);
        let verdict = serve_stream_oracle(&mutated, &reads);
        prop_assert!(verdict.is_ok(), "{m:?}: {}", verdict.unwrap_err());
    }
}

/// Every header length and `obs_len` of the serve stream is reachable
/// behind the re-sealed CRCs: a hostile header length is refused from
/// the header alone, a hostile `obs_len` by the payload decoder, and the
/// stream before the corrupted frame is still served.
#[test]
fn serve_stream_length_fields_are_all_reachable_behind_the_crc() {
    let stream = serve_stream_bytes();
    let frames = SERVE_OBS_LENS.len();
    // The meter is live: the splitter's one allocation is its buffer.
    let (_, heap) = heap_requested(|| FrameReader::new(serve_rx_capacity()));
    assert!(heap >= serve_rx_capacity(), "FrameReader::new metered {heap}");
    let one_byte_reads = [0usize];
    assert_eq!(serve_stream_oracle(stream, &one_byte_reads), Ok(Parsed::Requests(frames)));
    assert_eq!(serve_stream_oracle(stream, &[usize::MAX - 1]), Ok(Parsed::Requests(frames)));
    // Header len and obs_len per frame.
    assert_eq!(length_field_offsets(stream, Format::ServeRequests).len(), 2 * frames);
    for field in 0..2 * frames {
        for value in [0, 1, 0x7FFF_FFFF, u64::from(u32::MAX), serve_rx_capacity() as u64] {
            let m = Mutation::CorruptLengthField { field, value };
            let bad = apply_mutation(stream, &m, Format::ServeRequests);
            if bad == stream {
                continue;
            }
            let verdict = serve_stream_oracle(&bad, &[7, 64, 1]);
            assert!(verdict.is_ok(), "{m:?}: {}", verdict.unwrap_err());
        }
        // A header length past the buffer is refused before its body.
        if field % 2 == 0 {
            let m = Mutation::CorruptLengthField { field, value: serve_rx_capacity() as u64 };
            let bad = apply_mutation(stream, &m, Format::ServeRequests);
            let mut rx = FrameReader::new(serve_rx_capacity());
            let start = length_field_offsets(stream, Format::ServeRequests)[field] - 8;
            let header = &bad[start..start + wire::HEADER_LEN];
            rx.unfilled()[..header.len()].copy_from_slice(header);
            rx.filled(header.len());
            assert!(matches!(rx.next_frame(), Err(DistError::FrameTooLarge { .. })), "{m:?}");
        }
    }
    let confused = apply_mutation(stream, &Mutation::KindConfusion, Format::ServeRequests);
    assert_eq!(serve_stream_oracle(&confused, &[3]), Ok(Parsed::Refused));
}

/// The MARD walkers find every count of the fixtures, each hostile count
/// gets past the re-sealed CRC to the decoder's own bounds checks, and a
/// relabelled frame is refused by the other kind's decoder.
#[test]
fn mard_count_fields_are_all_reachable_behind_the_crc() {
    // Header len, n_steps, n_agents, 3 × (obs_dim, act_dim).
    assert_eq!(length_field_offsets(mard_steps_bytes(), Format::MardSteps).len(), 9);
    // Header len, n_agents, 3 × (n_layers, 3 × (rows, cols)).
    assert_eq!(length_field_offsets(mard_params_bytes(), Format::MardParams).len(), 23);
    for (bytes, fmt, fields) in
        [(mard_steps_bytes(), Format::MardSteps, 9), (mard_params_bytes(), Format::MardParams, 23)]
    {
        assert!(mard_oracle(bytes).is_ok(), "fixture must decode");
        // The meter is live: a clean decode owns roughly its payload.
        let (_, heap) = heap_requested(|| wire::decode_frame(bytes));
        assert!(heap > bytes.len() / 2, "decode of {} bytes metered {heap}", bytes.len());
        // Field 0 is the header length, which the framing itself checks.
        for field in 1..fields {
            for value in [0, 1, 0x7FFF_FFFF, u64::from(u32::MAX)] {
                let m = Mutation::CorruptLengthField { field, value };
                let bad = apply_mutation(bytes, &m, fmt);
                if bad == bytes {
                    continue; // the drawn value is the field's own
                }
                let err = wire::decode_frame(&bad).expect_err("hostile count accepted");
                assert!(matches!(err, DistError::Protocol(_)), "{m:?}: {err}");
                assert!(mard_oracle(&bad).is_ok(), "{m:?} broke the heap bound");
            }
        }
        let confused = apply_mutation(bytes, &Mutation::KindConfusion, fmt);
        assert!(matches!(wire::decode_frame(&confused), Err(DistError::Protocol(_))));
    }
}

/// Unmutated baselines decode cleanly — the fuzz fixtures are valid, so
/// every failure above is attributable to the mutation.
#[test]
fn baselines_are_valid() {
    let (ckpt, replay) = decode_checkpoint_file(checkpoint_bytes()).unwrap();
    assert_eq!(ckpt.agents.len(), 3);
    assert!(!replay.is_empty());
    assert_eq!(decode_replay(snapshot_v2_bytes()).unwrap().len(), 16);
}

/// Version-1 snapshot frames (magic, version 1, then the body with no
/// checksum) are no longer read: the fixture's body framed as version 1
/// is refused with a typed `BadVersion(1)` by both decoders, and the
/// in-place refusal writes nothing, under either address map.
#[test]
fn snapshot_v1_frames_are_refused() {
    let v2 = snapshot_v2_bytes();
    let mut v1 = v2[..4].to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&v2[10..]);
    assert_eq!(decode_replay(&v1).unwrap_err(), SnapshotError::BadVersion(1));
    for mode in [LayoutMode::PerAgent, LayoutMode::Interleaved] {
        let mut dst = MultiAgentReplay::with_mode(&[TransitionLayout::new(4, 2); 3], 16, mode);
        let before = encode_replay(&dst);
        let refused = decode_replay_into(&mut dst, &v1);
        assert_eq!(refused, Err(SnapshotError::BadVersion(1)), "{mode:?}");
        assert_eq!(encode_replay(&dst), before, "{mode:?}: a refusal wrote to the replay");
    }
}

/// `decode_replay_into` restores into the caller's arena, under either
/// address map: it requests no heap when it succeeds, nor when it refuses
/// a snapshot of another capacity or row layout or a corrupt one, and a
/// refusal leaves every destination row and the cursor as they were.
#[test]
fn decode_replay_into_allocates_nothing_and_a_refusal_writes_nothing() {
    let bytes = snapshot_v2_bytes();
    let (layouts, capacity) = (vec![TransitionLayout::new(4, 2); 3], 16);
    let mut corrupt = bytes.to_vec();
    corrupt[40] ^= 1;
    for mode in [LayoutMode::PerAgent, LayoutMode::Interleaved] {
        let mut dst = MultiAgentReplay::with_mode(&layouts, capacity, mode);
        let (result, heap) = heap_requested(|| decode_replay_into(&mut dst, bytes));
        result.unwrap();
        assert_eq!(heap, 0, "{mode:?}: a restore requested {heap} heap bytes");
        assert_eq!(encode_replay(&dst), bytes, "{mode:?}");

        let other_layouts = vec![TransitionLayout::new(5, 2); 3];
        for (dst_layouts, dst_capacity, frame) in [
            (&layouts, 2 * capacity, bytes),
            (&other_layouts, capacity, bytes),
            (&layouts, capacity, &corrupt[..]),
        ] {
            // Every slot holds a row, so an encode sees all of them.
            let mut other = MultiAgentReplay::with_mode(dst_layouts, dst_capacity, mode);
            for t in 0..dst_capacity + 3 {
                let step: Vec<Transition> = dst_layouts
                    .iter()
                    .map(|l| Transition {
                        obs: vec![-(t as f32); l.obs_dim],
                        action: vec![0.5; l.act_dim],
                        reward: 1.0,
                        next_obs: vec![t as f32; l.obs_dim],
                        done: 0.0,
                    })
                    .collect();
                other.push_step(&step).unwrap();
            }
            let before = encode_replay(&other);
            let (result, heap) = heap_requested(|| decode_replay_into(&mut other, frame));
            let err = result.expect_err("a mismatched or corrupt snapshot must be refused");
            assert!(
                matches!(err, SnapshotError::Mismatch(_) | SnapshotError::ChecksumMismatch { .. }),
                "{mode:?}: {err:?}"
            );
            assert_eq!(heap, 0, "{mode:?}: a refusal requested {heap} heap bytes");
            assert_eq!(encode_replay(&other), before, "{mode:?}: a refusal wrote to the replay");
        }
    }
}

/// Structured corruption through the crash-safety path: a hostile
/// length field with a *valid* checksum in the live file must be caught
/// by the decoder's bounds checks and fall back to `.prev`.
#[test]
fn crc_valid_hostile_live_file_falls_back_to_prev() {
    let dir = std::env::temp_dir().join(format!("marl_snapshot_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hostile.bin");
    let (ckpt, replay) = trained_checkpoint();
    write_checkpoint_file(&path, ckpt, replay).unwrap();
    write_checkpoint_file(&path, ckpt, replay).unwrap(); // rotates to .prev

    let live = std::fs::read(&path).unwrap();
    let hostile = apply_mutation(
        &live,
        &Mutation::CorruptLengthField { field: 0, value: u64::MAX / 2 },
        Format::Checkpoint,
    );
    assert_ne!(hostile, live);
    std::fs::write(&path, &hostile).unwrap();

    let (recovered, recovered_replay, from_prev) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(from_prev, "hostile live frame must be rejected in favour of .prev");
    assert_eq!(recovered.agents.len(), 3);
    assert_eq!(recovered_replay, *replay);
    std::fs::remove_dir_all(&dir).ok();
}
