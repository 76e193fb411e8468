//! The binary serve protocol riding inside `MARD` frames.
//!
//! The actor–learner protocol serializes JSON because its messages are
//! large and rare; a serve request is a few hundred bytes at high rate,
//! so these payloads are fixed-layout little-endian binary and every
//! encode/decode works against caller-owned reusable buffers — the
//! steady-state request path never allocates.
//!
//! Payload layouts (all integers little-endian). Request and response
//! payloads end in a fixed 24-byte trace-context trailer
//! (`trace_id u64 | span_id u64 | send_ns u64`) so cross-process flow
//! arrows can pair a client's send with the batched forward that served
//! it; untraced callers write [`TraceCtx::NONE`]:
//!
//! ```text
//! KIND_INFER_REQ   req_id u64 | agent u32 | obs_len u32 | obs f32 × obs_len
//!                  | ctx 24 B
//! KIND_INFER_RESP  req_id u64 | epoch u64 | agent u32 | action u32
//!                  | logit_len u32 | logits f32 × logit_len | ctx 24 B
//! KIND_INFER_ERR   req_id u64 | code u32
//! KIND_SERVE_CTL   op u32
//! ```

use marl_dist::wire::{self, KIND_INFER_ERR, KIND_INFER_REQ, KIND_INFER_RESP, KIND_SERVE_CTL};
use marl_dist::DistError;
use marl_obs::context::{TraceCtx, TRACE_CTX_WIRE_LEN};

/// Control op: drain in-flight requests and shut the server down.
pub const CTL_SHUTDOWN: u32 = 1;
/// Control op: liveness probe (acknowledged, otherwise ignored).
pub const CTL_PING: u32 = 2;

/// Error code: the request named an agent index the model does not have.
pub const ERR_BAD_AGENT: u32 = 1;
/// Error code: the observation length does not match the agent's input.
pub const ERR_BAD_OBS_DIM: u32 = 2;

/// Bytes of an inference-request frame carrying `obs_len` floats.
pub fn request_frame_len(obs_len: usize) -> usize {
    wire::HEADER_LEN + 16 + 4 * obs_len + TRACE_CTX_WIRE_LEN
}

/// Builds a complete inference-request frame into `frame` (cleared and
/// refilled; capacity is reused, so a warmed buffer allocates nothing).
/// Untraced callers pass [`TraceCtx::NONE`].
pub fn encode_request(req_id: u64, agent: u32, obs: &[f32], ctx: TraceCtx, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    frame.extend_from_slice(&req_id.to_le_bytes());
    frame.extend_from_slice(&agent.to_le_bytes());
    frame.extend_from_slice(&(obs.len() as u32).to_le_bytes());
    for x in obs {
        frame.extend_from_slice(&x.to_le_bytes());
    }
    ctx.write_to(frame);
    wire::finish_raw_frame(KIND_INFER_REQ, frame);
}

/// Decodes an inference-request payload, copying the observation into
/// `obs` (cleared and refilled in place). Returns
/// `(req_id, agent, ctx)`.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated or inconsistent payloads.
pub fn decode_request_into(
    payload: &[u8],
    obs: &mut Vec<f32>,
) -> Result<(u64, u32, TraceCtx), DistError> {
    if payload.len() < 16 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!("infer request too short: {}", payload.len())));
    }
    let req_id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let agent = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    let obs_len = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes")) as usize;
    let body = &payload[16..];
    if body.len() != obs_len * 4 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!(
            "infer request obs: declared {obs_len} floats, got {} bytes",
            body.len()
        )));
    }
    let ctx = TraceCtx::read_from(body).expect("length checked above");
    obs.clear();
    obs.extend(
        body[..obs_len * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
    );
    Ok((req_id, agent, ctx))
}

/// Builds a complete inference-response frame into `frame`. The trailer
/// echoes the request's trace context so the client can close the flow.
pub fn encode_response(
    req_id: u64,
    epoch: u64,
    agent: u32,
    action: u32,
    logits: &[f32],
    ctx: TraceCtx,
    frame: &mut Vec<u8>,
) {
    frame.clear();
    append_response(req_id, epoch, agent, action, logits, ctx, frame);
}

/// [`encode_response`] appended after the frames already in `out`, so a
/// run of responses leaves in one send.
pub fn append_response(
    req_id: u64,
    epoch: u64,
    agent: u32,
    action: u32,
    logits: &[f32],
    ctx: TraceCtx,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.resize(start + wire::HEADER_LEN, 0);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&agent.to_le_bytes());
    out.extend_from_slice(&action.to_le_bytes());
    out.extend_from_slice(&(logits.len() as u32).to_le_bytes());
    for x in logits {
        out.extend_from_slice(&x.to_le_bytes());
    }
    ctx.write_to(out);
    wire::finish_raw_frame(KIND_INFER_RESP, &mut out[start..]);
}

/// A decoded inference response (logits land in a caller buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub req_id: u64,
    /// Model generation that answered.
    pub epoch: u64,
    /// Echoed agent index.
    pub agent: u32,
    /// Greedy (arg-max) action index.
    pub action: u32,
    /// Echoed trace context ([`TraceCtx::NONE`] for untraced requests).
    pub ctx: TraceCtx,
}

/// Decodes an inference-response payload, copying the logits into
/// `logits` (cleared and refilled in place).
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated or inconsistent payloads.
pub fn decode_response_into(payload: &[u8], logits: &mut Vec<f32>) -> Result<Response, DistError> {
    if payload.len() < 28 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!("infer response too short: {}", payload.len())));
    }
    let req_id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let epoch = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let agent = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
    let action = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes"));
    let logit_len = u32::from_le_bytes(payload[24..28].try_into().expect("4 bytes")) as usize;
    let body = &payload[28..];
    if body.len() != logit_len * 4 + TRACE_CTX_WIRE_LEN {
        return Err(DistError::Protocol(format!(
            "infer response logits: declared {logit_len} floats, got {} bytes",
            body.len()
        )));
    }
    let ctx = TraceCtx::read_from(body).expect("length checked above");
    logits.clear();
    logits.extend(
        body[..logit_len * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
    );
    Ok(Response { req_id, epoch, agent, action, ctx })
}

/// Builds a complete inference-error frame into `frame`.
pub fn encode_error(req_id: u64, code: u32, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    frame.extend_from_slice(&req_id.to_le_bytes());
    frame.extend_from_slice(&code.to_le_bytes());
    wire::finish_raw_frame(KIND_INFER_ERR, frame);
}

/// Decodes an inference-error payload into `(req_id, code)`.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated payloads.
pub fn decode_error(payload: &[u8]) -> Result<(u64, u32), DistError> {
    if payload.len() != 12 {
        return Err(DistError::Protocol(format!("infer error payload: {} bytes", payload.len())));
    }
    let req_id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let code = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    Ok((req_id, code))
}

/// Builds a complete control frame into `frame`.
pub fn encode_ctl(op: u32, frame: &mut Vec<u8>) {
    wire::begin_raw_frame(frame);
    frame.extend_from_slice(&op.to_le_bytes());
    wire::finish_raw_frame(KIND_SERVE_CTL, frame);
}

/// Decodes a control payload into its op.
///
/// # Errors
///
/// [`DistError::Protocol`] on truncated payloads.
pub fn decode_ctl(payload: &[u8]) -> Result<u32, DistError> {
    if payload.len() != 4 {
        return Err(DistError::Protocol(format!("ctl payload: {} bytes", payload.len())));
    }
    Ok(u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_reuses_buffers() {
        let mut frame = Vec::new();
        let mut obs = Vec::new();
        for round in 0..3u32 {
            let sent: Vec<f32> = (0..5).map(|i| (round * 10 + i) as f32 * 0.5 - 1.0).collect();
            let sent_ctx =
                TraceCtx { trace_id: 7, span_id: round as u64 + 1, send_ns: round as u64 * 10 };
            encode_request(round as u64 + 7, round, &sent, sent_ctx, &mut frame);
            let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
            assert_eq!(kind, KIND_INFER_REQ);
            let (req_id, agent, ctx) = decode_request_into(payload, &mut obs).unwrap();
            assert_eq!(req_id, round as u64 + 7);
            assert_eq!(agent, round);
            assert_eq!(obs, sent);
            assert_eq!(ctx, sent_ctx);
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut frame = Vec::new();
        let mut logits = Vec::new();
        let sent = [0.25f32, -1.5, 3.75];
        let sent_ctx = TraceCtx { trace_id: 11, span_id: 42, send_ns: 1_000 };
        encode_response(99, 4, 2, 1, &sent, sent_ctx, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_RESP);
        let r = decode_response_into(payload, &mut logits).unwrap();
        assert_eq!(r, Response { req_id: 99, epoch: 4, agent: 2, action: 1, ctx: sent_ctx });
        assert_eq!(logits, sent);
    }

    #[test]
    fn untraced_requests_carry_the_none_context() {
        let mut frame = Vec::new();
        let mut obs = Vec::new();
        encode_request(1, 0, &[1.0], TraceCtx::NONE, &mut frame);
        let (_, payload) = wire::decode_raw_frame(&frame).unwrap();
        let (_, _, ctx) = decode_request_into(payload, &mut obs).unwrap();
        assert!(!ctx.is_set());
    }

    #[test]
    fn error_and_ctl_roundtrip() {
        let mut frame = Vec::new();
        encode_error(5, ERR_BAD_OBS_DIM, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_INFER_ERR);
        assert_eq!(decode_error(payload).unwrap(), (5, ERR_BAD_OBS_DIM));

        encode_ctl(CTL_SHUTDOWN, &mut frame);
        let (kind, payload) = wire::decode_raw_frame(&frame).unwrap();
        assert_eq!(kind, KIND_SERVE_CTL);
        assert_eq!(decode_ctl(payload).unwrap(), CTL_SHUTDOWN);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let mut obs = Vec::new();
        assert!(decode_request_into(&[0; 8], &mut obs).is_err());
        // Long enough for the fixed fields but missing the ctx trailer.
        assert!(decode_request_into(&[0; 16], &mut obs).is_err());
        // Declared 3 floats, carries 2.
        let mut frame = Vec::new();
        encode_request(1, 0, &[1.0, 2.0, 3.0], TraceCtx::NONE, &mut frame);
        let (_, payload) = wire::decode_raw_frame(&frame).unwrap();
        let cut = &payload[..payload.len() - 4];
        assert!(decode_request_into(cut, &mut obs).is_err());
        assert!(decode_error(&[0; 3]).is_err());
        assert!(decode_ctl(&[0; 5]).is_err());
    }
}
