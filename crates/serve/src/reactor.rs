//! The sharded, event-driven TCP front end.
//!
//! PR 8's transport spawned a reader thread *and* a writer thread per
//! connection — ~20k OS threads at 10k tenants, plus a sleep-polled
//! accept loop. This module replaces all of that with `--io-threads N`
//! **reactor shards**: each shard owns a disjoint set of nonblocking
//! sockets and multiplexes them with level-triggered readiness
//! ([`crate::sys::Poller`] — epoll on Linux, scalar `poll(2)` anywhere
//! else). The daemon's thread count is `io_threads + workers`,
//! independent of tenant count.
//!
//! Per shard:
//!
//! * **read side** — a resumable [`FrameReader`] per connection decodes
//!   whatever bytes are available *now* and keeps partial frames
//!   buffered (reusing one per-connection buffer instead of a fresh
//!   `Vec` per frame). Decoded frames feed the same [`ServiceCore`]
//!   admission paths the thread-per-connection transport used, so
//!   deadline shedding, FIFO queued-token scheduling, and the
//!   byte-identical revision-log guarantee are untouched.
//! * **write side** — outbound items are drained from the tenant's
//!   bounded outbox and coalesced into one per-connection write buffer
//!   (a batched write replaces the per-tenant writer thread). The
//!   buffer is capped: once it holds [`OUT_SOFT_CAP`] bytes the shard
//!   stops draining, the outbox fills, and the worker-side
//!   stalled-reader drop accounting takes over exactly as before.
//! * **wakeups** — workers push revisions from the pool, so each shard
//!   pairs its poll set with a nonblocking socketpair: the
//!   [`OutboxNotify`] hook enqueues the connection token and nudges the
//!   shard, which drains tokens on the next wakeup. The listener sits
//!   in shard 0's poll set, so accept is readiness-driven — the 5 ms
//!   sleepy accept loop is gone.
//! * **idle guard** — a peer that goes quiet (including the slow-loris
//!   case: a length prefix then silence) is torn down after
//!   `idle_timeout` with its tenant's finish path run, its buffers
//!   freed, and `serve.idle_closed` incremented.
//!
//! * **event batches** — an Events frame is decoded into a batch its
//!   tenant's worker handed back after ingesting it
//!   ([`TenantClient::recycled_batch`]), so while the shard keeps pace
//!   with the worker it allocates no columns and the worker frees none.
//!
//! Counters: `serve.reactor.wakeups`, `serve.reactor.frames_per_wakeup`
//! (histogram), `serve.reactor.partial_reads`,
//! `serve.reactor.batched_writes`, `serve.idle_closed`, and
//! `serve.batches.recycled` / `serve.batches.fresh` (Events frames
//! decoded into a handed-back batch / a new one).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::core::{Outbound, ServiceCore, TenantClient};
use crate::proto::{self, Fill, Frame, FrameReader, PROTO_VERSION};
use crate::server::ServerStats;
use crate::sys::{Event, Poller, Ready};
use ecohmem_online::durability::queue;
use memtrace::EventBatch;

/// Token of the listening socket (shard 0 only).
const TOKEN_LISTENER: usize = usize::MAX;
/// Token of the shard's wake socketpair.
const TOKEN_WAKE: usize = usize::MAX - 1;

/// Per-connection fairness budget: how many bytes one readiness event
/// may consume before the shard moves on (level-triggered readiness
/// re-reports the remainder).
const READ_BUDGET: usize = 256 * 1024;
/// Write-buffer soft cap: when a connection's pending bytes exceed this,
/// outbox draining pauses so the bounded outbox (and its stalled-reader
/// drop accounting) stays the backpressure authority.
const OUT_SOFT_CAP: usize = 256 * 1024;

/// Reactor tuning, derived from [`crate::ServerConfig`].
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Number of shards (≥ 1).
    pub io_threads: usize,
    /// Tear down a connection silent for this long.
    pub idle_timeout: Duration,
    /// Exit after this many sessions complete.
    pub once: Option<usize>,
}

/// Cross-thread wake channel into one shard: a token list plus a
/// nonblocking socketpair byte to interrupt the poll wait.
struct NotifyQueue {
    pending: Mutex<Vec<usize>>,
    wake_tx: UnixStream,
}

impl NotifyQueue {
    /// Enqueues a connection token; writes the wake byte only when the
    /// queue was empty (one byte per wakeup batch, not per push).
    fn push(&self, token: usize) {
        let was_empty = {
            let mut p = self.pending.lock().expect("notify pending lock");
            let was = p.is_empty();
            p.push(token);
            was
        };
        if was_empty {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// Unconditional nudge (shutdown, connection handoff).
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.pending.lock().expect("notify pending lock"))
    }
}

/// A shard's cross-thread face: wake channel + handed-off connections.
struct ShardHandle {
    notify: Arc<NotifyQueue>,
    incoming: Mutex<Vec<TcpStream>>,
}

/// State shared by every shard.
struct Shared {
    core: ServiceCore,
    cfg: ReactorConfig,
    shutdown: AtomicBool,
    accepted: AtomicUsize,
    completed: AtomicUsize,
    frames: AtomicU64,
    handles: Vec<Arc<ShardHandle>>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for h in &self.handles {
            h.notify.wake();
        }
    }

    /// Counts one closed connection; trips shutdown at the `once` bound.
    fn session_done(&self) {
        let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if self.cfg.once == Some(done) {
            self.request_shutdown();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before a valid Hello.
    Handshake,
    /// Session live: events/ticks in, revisions out.
    Streaming,
    /// Read side done (Shutdown, EOF, or error); draining the outbox
    /// until Finished/Error, then flushing and closing.
    Closing,
}

struct Conn {
    sock: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    client: Option<TenantClient>,
    outbox: Option<queue::Receiver<Outbound>>,
    phase: Phase,
    last_read: Instant,
    interest: Ready,
    /// The terminal outbound (Finished/Error) is encoded; close once the
    /// write buffer drains.
    close_after_flush: bool,
    /// `client.finish()` already queued — never queue it twice.
    finish_sent: bool,
}

impl Conn {
    /// `reader` comes from the shard's recycle pool (or fresh) so a
    /// churn of short sessions reuses read buffers instead of paying a
    /// zeroed allocation per connection.
    fn new(sock: TcpStream, reader: FrameReader) -> Conn {
        Conn {
            sock,
            reader,
            out: Vec::new(),
            out_pos: 0,
            client: None,
            outbox: None,
            phase: Phase::Handshake,
            last_read: Instant::now(),
            interest: Ready::READ,
            close_after_flush: false,
            finish_sent: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn queue_frame(&mut self, frame: &Frame) {
        proto::encode_into(frame, &mut self.out);
    }

    /// Queues the tenant's final flush exactly once and stops reading.
    fn begin_finish(&mut self) {
        if !self.finish_sent {
            self.finish_sent = true;
            if let Some(client) = &self.client {
                let _ = client.finish();
            }
        }
        self.phase = Phase::Closing;
        if self.client.is_none() {
            // Nothing will ever arrive on an outbox we don't have; close
            // as soon as the pending bytes (if any) are flushed.
            self.close_after_flush = true;
        }
    }
}

struct Shard {
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    reader_pool: Vec<FrameReader>,
    next_idle_check: Instant,
    idle_step: Duration,
}

impl Shard {
    fn new(
        id: usize,
        shared: Arc<Shared>,
        wake_rx: UnixStream,
        listener: Option<TcpListener>,
    ) -> Result<Shard, std::io::Error> {
        let mut poller = Poller::new()?;
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Ready::READ)?;
        if let Some(l) = &listener {
            poller.register(l.as_raw_fd(), TOKEN_LISTENER, Ready::READ)?;
        }
        let idle_step =
            (shared.cfg.idle_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        Ok(Shard {
            id,
            shared,
            poller,
            wake_rx,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            reader_pool: Vec::new(),
            next_idle_check: Instant::now() + idle_step,
            idle_step,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            let timeout = self.next_idle_check.saturating_duration_since(Instant::now());
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            ecohmem_obs::incr("serve.reactor.wakeups");
            let mut frames_now = 0u64;
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_WAKE => self.on_wake(),
                    TOKEN_LISTENER => self.on_accept(),
                    token => self.on_conn_event(token, ev, &mut frames_now),
                }
                if self.shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            events = batch;
            if frames_now > 0 {
                ecohmem_obs::observe("serve.reactor.frames_per_wakeup", frames_now);
            }
            if Instant::now() >= self.next_idle_check {
                self.close_idle();
                self.next_idle_check = Instant::now() + self.idle_step;
            }
        }
        // Shutdown: every connection still open gets its tenant's finish
        // path so durable engines flush, then the socket closes.
        for token in 0..self.conns.len() {
            if let Some(conn) = self.conns[token].take() {
                self.finalize_close(token, conn, false);
            }
        }
    }

    /// Drains the wake socketpair, adopts handed-off connections, and
    /// services notified tokens.
    fn on_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
        let incoming = std::mem::take(
            &mut *self.shared.handles[self.id].incoming.lock().expect("incoming lock"),
        );
        for sock in incoming {
            self.adopt(sock);
        }
        for token in self.shared.handles[self.id].notify.take() {
            self.poke(token);
        }
    }

    /// Readiness-driven accept: drain the backlog, hand connections to
    /// shards round-robin, stop for good once the `once` bound is hit.
    fn on_accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            if let Some(limit) = self.shared.cfg.once {
                if self.shared.accepted.load(Ordering::Acquire) >= limit {
                    let _ = self.poller.deregister(listener.as_raw_fd());
                    self.listener = None;
                    return;
                }
            }
            match listener.accept() {
                Ok((sock, _peer)) => {
                    let n = self.shared.accepted.fetch_add(1, Ordering::AcqRel);
                    let target = n % self.shared.cfg.io_threads;
                    if target == self.id {
                        self.adopt(sock);
                    } else {
                        let handle = &self.shared.handles[target];
                        handle.incoming.lock().expect("incoming lock").push(sock);
                        handle.notify.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Registers a fresh connection in this shard's poll set.
    fn adopt(&mut self, sock: TcpStream) {
        if sock.set_nonblocking(true).is_err() || sock.set_nodelay(true).is_err() {
            self.shared.session_done();
            return;
        }
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.poller.register(sock.as_raw_fd(), token, Ready::READ).is_err() {
            self.free.push(token);
            self.shared.session_done();
            return;
        }
        let reader = self.reader_pool.pop().unwrap_or_default();
        self.conns[token] = Some(Conn::new(sock, reader));
    }

    /// Services an outbox-notify (or adopted-token) poke.
    fn poke(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else { return };
        let dead = self.drain_and_flush(&mut conn);
        self.restore_or_close(token, conn, dead);
    }

    fn on_conn_event(&mut self, token: usize, ev: &Event, frames_now: &mut u64) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else { return };
        let mut dead = false;
        if ev.readable && conn.phase != Phase::Closing {
            dead = self.conn_readable(token, &mut conn, frames_now);
        }
        if !dead && (ev.writable || ev.hangup) {
            dead = self.drain_and_flush(&mut conn);
        }
        self.restore_or_close(token, conn, dead);
    }

    fn restore_or_close(&mut self, token: usize, mut conn: Conn, dead: bool) {
        if dead {
            self.finalize_close(token, conn, true);
            return;
        }
        let want =
            Ready { readable: conn.phase != Phase::Closing, writable: conn.pending_out() > 0 };
        if want != conn.interest
            && self.poller.reregister(conn.sock.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
        self.conns[token] = Some(conn);
    }

    /// Reads and dispatches until WouldBlock, EOF, or the fairness
    /// budget. Returns true when the connection must close now.
    fn conn_readable(&mut self, token: usize, conn: &mut Conn, frames_now: &mut u64) -> bool {
        let mut read_total = 0usize;
        let mut eof = false;
        'fill: while read_total < READ_BUDGET {
            match conn.reader.fill_from(&mut conn.sock) {
                Ok(Fill::Read(n)) => {
                    conn.last_read = Instant::now();
                    read_total += n;
                    loop {
                        let client = conn.client.as_ref();
                        match conn.reader.next_frame_with(|| events_storage(client)) {
                            Ok(Some(frame)) => {
                                *frames_now += 1;
                                self.shared.frames.fetch_add(1, Ordering::Relaxed);
                                ecohmem_obs::incr("serve.frames");
                                self.dispatch(token, conn, frame);
                                if conn.phase == Phase::Closing {
                                    break 'fill;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // Unframeable input: refuse loudly, then
                                // run the finish path and close.
                                conn.queue_frame(&Frame::Error { message: e.to_string() });
                                conn.begin_finish();
                                break 'fill;
                            }
                        }
                    }
                }
                Ok(Fill::WouldBlock) => break,
                Ok(Fill::Eof) | Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if conn.reader.has_partial() {
            ecohmem_obs::incr("serve.reactor.partial_reads");
        }
        if eof {
            // Torn or cleanly closed peer: the tenant still gets its
            // final flush (durable engines checkpoint), then we close —
            // the Bye has nowhere to go.
            conn.begin_finish();
            conn.close_after_flush = true;
        }
        self.drain_and_flush(conn)
    }

    /// One protocol frame, post-framing. Mirrors the old per-connection
    /// reader thread's dispatch exactly.
    fn dispatch(&mut self, token: usize, conn: &mut Conn, frame: Frame) {
        match (conn.phase, frame) {
            (Phase::Handshake, Frame::Hello { version, tenant, mode: _mode, header }) => {
                if version != PROTO_VERSION {
                    conn.queue_frame(&Frame::Error {
                        message: format!(
                            "protocol version {version} unsupported, server speaks {PROTO_VERSION}"
                        ),
                    });
                    conn.begin_finish();
                    return;
                }
                let header = match proto::decode_header(&header) {
                    Ok(h) => h,
                    Err(e) => {
                        conn.queue_frame(&Frame::Error { message: format!("bad header: {e}") });
                        conn.begin_finish();
                        return;
                    }
                };
                match self.shared.core.register(&tenant, &header) {
                    Ok((client, outbox)) => {
                        conn.queue_frame(&Frame::HelloAck { tenant_id: client.id() });
                        conn.client = Some(client);
                        conn.outbox = Some(outbox);
                        conn.phase = Phase::Streaming;
                        // Wake hook: worker pushes → token lands on this
                        // shard's notify queue. The post-install drain
                        // happens in the caller's drain_and_flush.
                        if let Some(client) = &conn.client {
                            let notify = Arc::clone(&self.shared.handles[self.id].notify);
                            client.set_notify(Arc::new(move || notify.push(token)));
                        }
                    }
                    Err(e) => {
                        conn.queue_frame(&Frame::Error { message: e.to_string() });
                        conn.begin_finish();
                    }
                }
            }
            (Phase::Handshake, _) => {
                conn.queue_frame(&Frame::Error { message: "first frame must be Hello".into() });
                conn.begin_finish();
            }
            (Phase::Streaming, Frame::Events(events)) => {
                let failed = match &conn.client {
                    Some(client) => client.ingest_batch(events).is_err(),
                    None => true,
                };
                if failed {
                    conn.begin_finish();
                }
            }
            (Phase::Streaming, Frame::Tick { now }) => {
                let failed = match &conn.client {
                    Some(client) => client.tick(now).is_err(),
                    None => true,
                };
                if failed {
                    conn.begin_finish();
                }
            }
            (Phase::Streaming, Frame::Shutdown) => {
                conn.begin_finish();
            }
            (Phase::Streaming, other) => {
                conn.queue_frame(&Frame::Error {
                    message: format!("unexpected frame after handshake: {other:?}"),
                });
                conn.begin_finish();
            }
            (Phase::Closing, _) => {}
        }
    }

    /// Coalesces queued outbox items into the write buffer, then flushes
    /// as much as the socket accepts. Returns true when the connection
    /// must close now.
    fn drain_and_flush(&mut self, conn: &mut Conn) -> bool {
        let mut coalesced = 0u32;
        if let Some(outbox) = &conn.outbox {
            while !conn.close_after_flush && conn.pending_out() < OUT_SOFT_CAP {
                let Some(item) = outbox.try_recv() else { break };
                coalesced += 1;
                match item {
                    Outbound::Revisions(revs) => {
                        proto::encode_into(&Frame::Revisions(revs), &mut conn.out);
                    }
                    Outbound::Shed { dropped } => {
                        proto::encode_into(&Frame::Shed { dropped }, &mut conn.out);
                    }
                    Outbound::Finished { revisions } => {
                        proto::encode_into(&Frame::Bye { revisions }, &mut conn.out);
                        conn.close_after_flush = true;
                        conn.phase = Phase::Closing;
                    }
                    Outbound::Error(message) => {
                        proto::encode_into(&Frame::Error { message }, &mut conn.out);
                        conn.close_after_flush = true;
                        conn.phase = Phase::Closing;
                    }
                }
            }
        }
        if coalesced >= 2 {
            ecohmem_obs::incr("serve.reactor.batched_writes");
        }
        self.flush(conn)
    }

    /// Writes pending bytes until WouldBlock or empty. Returns true when
    /// the connection must close (flushed terminal frame, or dead peer).
    fn flush(&mut self, conn: &mut Conn) -> bool {
        while conn.out_pos < conn.out.len() {
            match conn.sock.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return true,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_after_flush {
                return true;
            }
        }
        false
    }

    /// Tears down connections whose peer has been silent past the idle
    /// deadline — the slow-loris guard. The tenant's finish path still
    /// runs, so durable engines flush before the socket dies.
    fn close_idle(&mut self) {
        let now = Instant::now();
        let idle = self.shared.cfg.idle_timeout;
        for token in 0..self.conns.len() {
            let expired = match &self.conns[token] {
                Some(conn) => now.duration_since(conn.last_read) > idle,
                None => false,
            };
            if expired {
                if let Some(conn) = self.conns[token].take() {
                    ecohmem_obs::incr("serve.idle_closed");
                    self.finalize_close(token, conn, true);
                }
            }
        }
    }

    /// Deregisters, finishes the tenant if the read side never did, and
    /// counts the session. The connection (buffers, outbox receiver,
    /// socket) drops here.
    fn finalize_close(&mut self, token: usize, mut conn: Conn, reuse_slot: bool) {
        let _ = self.poller.deregister(conn.sock.as_raw_fd());
        if !conn.finish_sent {
            if let Some(client) = conn.client.take() {
                let _ = client.finish();
            }
        }
        let mut reader = std::mem::take(&mut conn.reader);
        reader.reset();
        self.reader_pool.push(reader);
        drop(conn);
        if reuse_slot {
            self.free.push(token);
        }
        self.shared.session_done();
    }
}

/// The batch a connection decodes its next Events frame into: one its
/// tenant's worker handed back, else a fresh one. A connection that keeps
/// pace with its worker decodes every frame into recycled columns, so
/// none is allocated here and freed on a worker; a burst that runs ahead
/// of the worker decodes into fresh ones.
fn events_storage(client: Option<&TenantClient>) -> EventBatch {
    match client.and_then(TenantClient::recycled_batch) {
        Some(batch) => {
            ecohmem_obs::incr("serve.batches.recycled");
            batch
        }
        None => {
            ecohmem_obs::incr("serve.batches.fresh");
            EventBatch::default()
        }
    }
}

/// Boots `io_threads` shards (shard 0 on the calling thread, owning the
/// listener) and runs until the `once` bound trips. Returns the stats
/// the old transport reported.
pub(crate) fn run_reactor(
    listener: TcpListener,
    core: ServiceCore,
    cfg: ReactorConfig,
) -> Result<ServerStats, crate::ServeError> {
    listener.set_nonblocking(true)?;
    // std's bind hardcodes a backlog of 128; a fleet reconnecting at
    // once would hit SYN-retransmit stalls. Best-effort widen it (the
    // kernel clamps to somaxconn).
    {
        use std::os::unix::io::AsRawFd;
        let _ = crate::sys::set_listen_backlog(listener.as_raw_fd(), 4096);
    }
    let io_threads = cfg.io_threads.max(1);
    let mut handles = Vec::with_capacity(io_threads);
    let mut wake_rxs = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        handles.push(Arc::new(ShardHandle {
            notify: Arc::new(NotifyQueue { pending: Mutex::new(Vec::new()), wake_tx }),
            incoming: Mutex::new(Vec::new()),
        }));
        wake_rxs.push(wake_rx);
    }
    let shared = Arc::new(Shared {
        core,
        cfg: ReactorConfig { io_threads, ..cfg },
        shutdown: AtomicBool::new(false),
        accepted: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        frames: AtomicU64::new(0),
        handles,
    });
    if shared.cfg.once == Some(0) {
        shared.request_shutdown();
    }

    let mut joins = Vec::new();
    let mut rx_iter = wake_rxs.into_iter();
    let rx0 = rx_iter.next().expect("shard 0 wake rx");
    for (i, rx) in rx_iter.enumerate() {
        let shard = Shard::new(i + 1, Arc::clone(&shared), rx, None)?;
        joins.push(
            std::thread::Builder::new()
                .name(format!("serve-io-{}", i + 1))
                .spawn(move || shard.run())
                .expect("spawn reactor shard"),
        );
    }
    let shard0 = Shard::new(0, Arc::clone(&shared), rx0, Some(listener))?;
    shard0.run();
    for j in joins {
        let _ = j.join();
    }
    Ok(ServerStats {
        sessions: shared.completed.load(Ordering::Acquire),
        frames: shared.frames.load(Ordering::Acquire),
    })
}
