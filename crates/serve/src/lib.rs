//! # ecohmem-serve — placement as a service
//!
//! The paper's advisor is a batch tool: one application, one trace, one
//! placement. The online crate closed the loop for a single in-process
//! stream. This crate hosts *many* independent streams behind one
//! daemon: N tenants connect over TCP, stream event batches, and receive
//! [`PlacementRevision`](ecohmem_online::PlacementRevision)s back —
//! placement as a shared cluster service instead of a per-job library.
//!
//! Layers, bottom up:
//!
//! * [`proto`] — the framed wire protocol: `[u32 len][tag][body]` with a
//!   hard frame cap, versioned handshake, binfmt or JSONL event bodies.
//! * [`core`] — the transport-free service: tenant registry, a fixed
//!   worker pool multiplexing per-tenant engines, bounded inboxes with
//!   deadline admission (shed, don't stall), bounded outboxes that
//!   isolate stalled readers, and read-mostly interned site tables
//!   shared across tenants.
//! * [`sys`] — hand-rolled `poll(2)`/`epoll(2)` readiness wrapper
//!   (direct `extern "C"` against the libc std already links; scalar
//!   `poll` fallback for portability).
//! * `reactor` — the sharded event loop: `--io-threads N` shards own
//!   nonblocking sockets, decode frames incrementally, and batch outbox
//!   drains into coalesced writes. Thread count is fixed at
//!   `io_threads + workers`, independent of tenant count.
//! * [`server`] — the TCP front end: binds, boots the core, and hands
//!   both to the reactor.
//! * [`client`] — the `stream` side: replay a trace against a daemon and
//!   collect the revision log.
//! * [`blast`] — a poll-driven load driver that holds thousands of
//!   concurrent sessions open from one thread (bench + storm tests).
//!
//! The load-bearing guarantee, pinned by `tests/serve.rs` at the
//! workspace root: a tenant's revision log is **byte-identical** to an
//! isolated single-stream run of the same batches and ticks, regardless
//! of how many workers or co-tenants the daemon has. Per-tenant FIFO
//! scheduling (one worker owns a tenant at a time) plus fully private
//! engine state is what makes that hold.

pub mod blast;
pub mod client;
pub mod core;
pub mod proto;
pub(crate) mod reactor;
pub mod server;
pub mod sys;

pub use client::{ClientOutcome, RetryPolicy, StreamClient};
pub use core::{Admitted, Outbound, OutboxNotify, ServeConfig, ServiceCore, TenantClient};
pub use proto::{Frame, FrameReader, Mode, MAX_FRAME_BYTES, PROTO_VERSION};
pub use server::{Server, ServerConfig, ServerStats, DEFAULT_IDLE_TIMEOUT};

use memtrace::TraceError;

/// Everything that can go wrong on the service seam.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The peer violated the wire protocol.
    Protocol(String),
    /// A trace codec rejected the payload.
    Trace(TraceError),
    /// The server refused the session (capacity, duplicate tenant,
    /// version mismatch) or tore it down; carries the peer's message.
    Refused(String),
    /// The tenant's engine is gone (shut down or failed).
    TenantGone,
    /// A bounded wait expired (reader-thread join, retry budget);
    /// carries what was being waited for.
    Deadline(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Trace(e) => write!(f, "trace error: {e}"),
            ServeError::Refused(m) => write!(f, "session refused: {m}"),
            ServeError::TenantGone => write!(f, "tenant engine is gone"),
            ServeError::Deadline(m) => write!(f, "deadline expired: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<TraceError> for ServeError {
    fn from(e: TraceError) -> Self {
        ServeError::Trace(e)
    }
}
