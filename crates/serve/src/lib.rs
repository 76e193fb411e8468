//! `marl-serve`: micro-batched policy inference serving.
//!
//! A serve process loads a MARC checkpoint, lifts out the actor networks
//! ([`model::PolicyModel`]), and answers observation → action requests
//! over the MARD wire format (raw binary frames, [`proto`]) on a Unix
//! socket or TCP — the same transports the distributed runtime uses.
//!
//! The throughput lever is **work-conserving micro-batching**
//! ([`batcher`]): the batcher thread flushes the moment it is free and a
//! request is queued, so a request that finds the engine idle is answered
//! at once, and the requests from any number of connections that pile up
//! during a forward coalesce into the next batched
//! `forward_inference_into` call on the SIMD kernels (at most
//! `max_batch`). Load sets the batch size; no request ever waits for
//! company. Batching changes throughput, never the answers: batched rows
//! are bitwise identical to batch-of-one inference ([`engine`]).
//!
//! The steady-state request path is allocation-free: pooled request
//! slots, reusable per-connection frame buffers, and engine-owned
//! gather/forward/scatter storage (enforced by an allocator-counting
//! test). Hot checkpoint reload swaps the model `Arc` between batches
//! without dropping in-flight requests ([`server`]).

#![warn(missing_docs)]

pub mod batcher;
pub mod engine;
pub mod model;
pub mod proto;
pub mod server;

pub use batcher::{BatcherConfig, MicroBatcher, RequestSlot};
pub use engine::InferenceEngine;
pub use model::PolicyModel;
pub use server::{ServeConfig, ServeListener, Server};
