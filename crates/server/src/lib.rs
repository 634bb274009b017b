//! # ermia-server — network service layer for the ERMIA engine
//!
//! Everything the embedded engine exposes in-process, over a socket:
//!
//! * [`protocol`] — the framed, checksummed wire format (length-prefixed
//!   payload + CRC-32), request/response codecs, an incremental
//!   [`FrameAssembler`](protocol::FrameAssembler) for non-blocking
//!   transports, and hardening against malformed input.
//! * [`poll`] — a std-only epoll shim (raw syscalls against the libc
//!   std already links): readiness poller, cross-thread wake fd, and an
//!   `RLIMIT_NOFILE` helper for high-fan-in harnesses.
//! * [`Server`] — an event-driven TCP front end: N epoll shards each
//!   multiplexing thousands of non-blocking sessions, a bounded
//!   [`ShardedWorkerPool`](ermia::ShardedWorkerPool) mapping requests to engine
//!   workers per transaction, explicit `Busy` load shedding, in-order
//!   pipelined replies with write-interest-driven partial-write state,
//!   sync commits that wait for durability on the event loop itself,
//!   and graceful shutdown that drains in-flight commits.
//! * [`Client`] — a pipelined client library used by the loopback bench
//!   harness and the examples.
//!
//! The layer is std-only (plus the workspace's vendored `parking_lot`):
//! no async runtime, no serialization framework, no `libc` crate.
//! Threads scale with shards + workers, never with connections — the
//! engine, not the front end, is meant to be the bottleneck.

pub mod client;
pub mod poll;
pub mod protocol;

mod conn;
mod server;
mod session;
mod sys;

pub use client::{Client, ClientError, ClientResult, HealthInfo, RetryPolicy};
pub use protocol::{
    BatchOp, ErrorCode, FrameError, ReplStatus, Request, Response, WireDdl, WireIsolation,
};
pub use server::{Server, ServerConfig, StatsSnapshot};
// Clients mint and install these; re-exported so callers don't need a
// direct ermia-telemetry dependency to trace a session.
pub use ermia_telemetry::TraceContext;
