//! The TCP front end of the advisor daemon.
//!
//! Since the reactor rework this file is the *configuration* surface:
//! [`Server::bind`] sets up the listener and the [`ServiceCore`], then
//! [`Server::run`] hands both to the `reactor` module, which multiplexes
//! every connection across `io_threads` event-driven shards. The daemon
//! runs exactly `io_threads + workers` threads no matter how many
//! tenants connect — there are no per-connection threads anywhere.
//!
//! Semantics preserved from the thread-per-connection transport:
//!
//! * the handshake (one Hello, answered before any other traffic), the
//!   framed protocol, and every refusal message;
//! * admission shedding on the core's deadline — the socket is never
//!   blocked to apply backpressure;
//! * stalled readers lose revisions by outbox drops (with accounting),
//!   never by stalling a shard;
//! * a torn connection (EOF or read error mid-stream) still runs the
//!   tenant's `finish` path, so durable tenants flush their journal and
//!   a final checkpoint even when the client vanishes;
//! * an idle connection (`idle_timeout`, default 120 s) is torn down
//!   the same way, now with a `serve.idle_closed` counter.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use crate::core::{ServeConfig, ServiceCore};
use crate::reactor::{self, ReactorConfig};
use crate::ServeError;

/// Idle guard default: a connection silent for this long is torn down
/// (its tenant still gets a clean finish).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// How the daemon listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub listen: String,
    /// Exit after this many sessions complete (CI and tests); `None`
    /// serves forever.
    pub once: Option<usize>,
    /// Reactor shards multiplexing the sockets. `0` means one per
    /// available core.
    pub io_threads: usize,
    /// Tear down connections silent for this long.
    pub idle_timeout: Duration,
    /// Core tuning.
    pub serve: ServeConfig,
}

impl ServerConfig {
    /// A config with reactor defaults (`io_threads: 0` → per-core,
    /// 120 s idle guard).
    pub fn new(listen: impl Into<String>, once: Option<usize>, serve: ServeConfig) -> ServerConfig {
        ServerConfig {
            listen: listen.into(),
            once,
            io_threads: 0,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            serve,
        }
    }

    /// Resolves `io_threads: 0` to the machine's core count.
    pub fn resolved_io_threads(&self) -> usize {
        if self.io_threads > 0 {
            self.io_threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// What a bounded (`once`) run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions accepted and completed.
    pub sessions: usize,
    /// Frames read across all sessions.
    pub frames: u64,
}

/// A bound listener plus its service core.
pub struct Server {
    listener: TcpListener,
    core: ServiceCore,
    cfg: ServerConfig,
}

impl Server {
    /// Binds the listen address and boots the worker pool.
    pub fn bind(cfg: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let core = ServiceCore::new(cfg.serve.clone());
        Ok(Server { listener, core, cfg })
    }

    /// The actual bound address (resolves `:0`).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The core, for in-process inspection (tests, metrics dumps).
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Serves until `once` sessions complete (forever when `None`).
    pub fn run(self) -> Result<ServerStats, ServeError> {
        let reactor_cfg = ReactorConfig {
            io_threads: self.cfg.resolved_io_threads(),
            idle_timeout: self.cfg.idle_timeout,
            once: self.cfg.once,
        };
        let stats = reactor::run_reactor(self.listener, self.core.clone(), reactor_cfg)?;
        self.core.shutdown();
        Ok(stats)
    }
}
