//! `marl-serve`: micro-batched policy inference serving.
//!
//! A serve process loads a MARC checkpoint, lifts out the actor networks
//! ([`model::PolicyModel`]), and answers observation → action requests
//! over the MARD wire format (raw binary frames, [`proto`]) on a Unix
//! socket or TCP — the same transports the distributed runtime uses.
//!
//! The throughput lever is **work-conserving micro-batching**
//! ([`batcher`]) by flat combining ([`server`]): the connection reader
//! that finds the engine free runs the batch itself, so a request that
//! finds the engine idle is answered at once by its own reader, and the
//! requests from any number of connections that pile up during a forward
//! coalesce into the next batched
//! `forward_inference_into` call on the SIMD kernels (at most
//! `max_batch`). Load sets the batch size; no request ever waits for
//! company. Batching changes throughput, never the answers: batched rows
//! are bitwise identical to batch-of-one inference ([`engine`]).
//!
//! The steady-state request path is allocation-free: pooled request
//! slots, a fixed receive buffer and reusable send buffers per reader
//! thread, and engine-owned
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
