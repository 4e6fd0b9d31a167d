//! # hrdm-net — the HRDM wire protocol, server, and client
//!
//! PRs 1–4 built indexes, WAL durability, snapshot-isolated group-commit
//! concurrency, and partition pruning — all in-process. This crate is the
//! network front end that makes them servable: a length-prefixed,
//! versioned binary protocol over plain `std::net` TCP (no external
//! dependencies), a thread-per-connection server (`hrdmd`) running every
//! read against a per-request [`hrdm_storage::DbSnapshot`] and funnelling
//! every write into the group-commit queue, and a synchronous [`Client`]
//! that shares the frame codec with the server by construction.
//!
//! ```text
//!   client A ──┐                        ┌─ snapshot() ── Query pipeline
//!   client B ──┼── TCP frames ── hrdmd ─┤
//!   client C ──┘                        └─ write() ──── group commit ─ WAL
//! ```
//!
//! * [`frame`] — the wire format: frames, errors, the shared codec.
//! * [`server`] — [`Server`]/[`ServerHandle`], session management, limits.
//! * [`client`] — [`Client`]/[`Canceller`].
//! * `http` — the scrape plane: `GET /metrics` and `GET /healthz` over a
//!   minimal std-only HTTP/1.1 responder (`hrdmd --http-metrics`).
//!
//! Every request frame carries a 128-bit trace id minted by the client
//! ([`hrdm_obs::TraceContext`]); the server installs it as the serving
//! thread's ambient trace and echoes it on every response, so `EXPLAIN
//! ANALYZE` output, the slow-query log, flight-recorder events, and
//! `Error` frames all report the id the client already holds.
//!
//! The `hrdmq` shell (this crate's second binary) speaks the same
//! protocol via `\connect <addr>`, and the whole query pipeline —
//! optimizer rewrites, index scans, partition pruning, `EXPLAIN` — works
//! identically over the wire because the server answers from the exact
//! same snapshots an in-process reader would use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
mod http;
pub mod server;

pub use client::{Canceller, Client, NetError};
pub use frame::{
    assemble_relation, decode_frame_traced, encode_frame_into, encode_frame_traced,
    read_frame_traced, write_frame_traced, Frame, FrameError, ServerStats, WireError, WireEvent,
    WriteOp, MAX_FRAME_BYTES, PROTO_VERSION, WIRE_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
