//! A poll-driven load driver: thousands of concurrent daemon sessions
//! from **one** thread.
//!
//! [`StreamClient`](crate::StreamClient) spawns a reader thread per
//! session — perfect for one tenant, useless for benchmarking a
//! 10,000-tenant fleet from the same small machine the daemon runs on.
//! This driver is the client-side mirror of the server's reactor: every
//! session is a nonblocking socket in a [`Poller`] set, writes stream
//! pre-encoded bytes (the Hello plus a body that co-tenants of the same
//! shape share via `Arc` — no per-tenant re-encoding), and reads run
//! through the same resumable [`FrameReader`] the server uses.
//!
//! Sessions beyond `max_concurrency` wait their turn; each completion
//! admits the next pending tenant, so a 10k-tenant scenario runs as a
//! rolling window that never exceeds the file-descriptor budget.
//!
//! Revision logs are only retained for tenants marked `collect` (the
//! divergence probes) — retaining 10k full logs would measure the
//! driver's allocator, not the daemon.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::proto::{
    self, Fill, Frame, FrameReader, Mode, PROTO_VERSION, TAG_BYE, TAG_ERROR, TAG_HELLO_ACK,
    TAG_REVISIONS, TAG_SHED,
};
use crate::sys::{Event, Poller, Ready};
use crate::ServeError;
use ecohmem_online::PlacementRevision;
use memtrace::TraceFile;

/// One scripted session.
pub struct BlastTenant {
    /// Tenant name (for the error report).
    pub name: String,
    /// Pre-encoded Hello frame ([`hello_bytes`]).
    pub hello: Vec<u8>,
    /// Pre-encoded post-handshake stream: Events/Tick frames ending in
    /// Shutdown. Shared across same-shape tenants.
    pub body: Arc<Vec<u8>>,
    /// Retain this tenant's revision log (divergence probe).
    pub collect: bool,
}

/// What the whole blast observed.
#[derive(Debug, Default)]
pub struct BlastOutcome {
    /// Sessions that reached Bye.
    pub completed: usize,
    /// Sessions that ended any other way (server Error frame, torn
    /// socket, refused connect); first few messages retained.
    pub failed: usize,
    /// Up to 8 failure descriptions.
    pub errors: Vec<String>,
    /// Revision logs of the `collect` tenants, by name.
    pub revisions: HashMap<String, Vec<PlacementRevision>>,
    /// Total shed items reported across all sessions.
    pub shed: u64,
    /// Total revision frames received across all sessions.
    pub revision_frames: u64,
    /// Wall-clock time from first connect to last close.
    pub elapsed: Duration,
}

/// Encodes the Hello for one tenant (only the trace *header* travels).
pub fn hello_bytes(
    tenant: &str,
    mode: Mode,
    header_trace: &TraceFile,
) -> Result<Vec<u8>, ServeError> {
    let header = proto::encode_header(&proto::header_of(header_trace))?;
    Ok(proto::encode(&Frame::Hello {
        version: PROTO_VERSION,
        tenant: tenant.to_string(),
        mode,
        header,
    }))
}

enum SendStage {
    Hello(usize),
    Body(usize),
    Done,
}

struct Session {
    tenant: usize,
    sock: TcpStream,
    stage: SendStage,
    reader: FrameReader,
    revisions: Vec<PlacementRevision>,
    interest: Ready,
}

/// Runs every tenant's scripted session against `addr`, at most
/// `max_concurrency` sockets open at a time, all on the calling thread.
pub fn run_blast(
    addr: &str,
    tenants: Vec<BlastTenant>,
    max_concurrency: usize,
) -> Result<BlastOutcome, ServeError> {
    let max_concurrency = max_concurrency.max(1);
    let mut poller = Poller::new()?;
    let mut out = BlastOutcome::default();
    let started = Instant::now();

    let mut next = 0usize; // next tenant to connect
    let mut slots: Vec<Option<Session>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut reader_pool: Vec<FrameReader> = Vec::new();
    let mut live = 0usize;
    let mut events: Vec<Event> = Vec::new();

    while out.completed + out.failed < tenants.len() {
        // Top up the window. Loopback connects complete synchronously;
        // the cap per pass keeps reads draining under connect storms.
        let mut topped = 0;
        while live < max_concurrency && next < tenants.len() && topped < 64 {
            let idx = next;
            next += 1;
            topped += 1;
            match TcpStream::connect(addr) {
                Ok(sock) => {
                    if sock.set_nonblocking(true).is_err() || sock.set_nodelay(true).is_err() {
                        fail(&mut out, &tenants[idx], "socket setup failed");
                        continue;
                    }
                    let token = free.pop().unwrap_or_else(|| {
                        slots.push(None);
                        slots.len() - 1
                    });
                    if poller.register(sock.as_raw_fd(), token, Ready::BOTH).is_err() {
                        free.push(token);
                        fail(&mut out, &tenants[idx], "poller register failed");
                        continue;
                    }
                    slots[token] = Some(Session {
                        tenant: idx,
                        sock,
                        stage: SendStage::Hello(0),
                        reader: reader_pool.pop().unwrap_or_default(),
                        revisions: Vec::new(),
                        interest: Ready::BOTH,
                    });
                    live += 1;
                }
                Err(e) => fail(&mut out, &tenants[idx], &format!("connect: {e}")),
            }
        }
        if live == 0 {
            continue;
        }

        events.clear();
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        let batch = std::mem::take(&mut events);
        for ev in &batch {
            let token = ev.token;
            let Some(mut sess) = slots.get_mut(token).and_then(Option::take) else { continue };
            let t = &tenants[sess.tenant];
            let mut done = false;
            if ev.writable {
                done = pump_writes(&mut sess, t, &mut out);
            }
            if !done && (ev.readable || ev.hangup) {
                done = pump_reads(&mut sess, t, &mut out);
            }
            if done {
                let _ = poller.deregister(sess.sock.as_raw_fd());
                if t.collect {
                    out.revisions.insert(t.name.clone(), std::mem::take(&mut sess.revisions));
                }
                let mut reader = std::mem::take(&mut sess.reader);
                reader.reset();
                reader_pool.push(reader);
                free.push(token);
                live -= 1;
            } else {
                let want =
                    Ready { readable: true, writable: !matches!(sess.stage, SendStage::Done) };
                if want != sess.interest
                    && poller.reregister(sess.sock.as_raw_fd(), token, want).is_ok()
                {
                    sess.interest = want;
                }
                slots[token] = Some(sess);
            }
        }
        events = batch;
    }

    out.elapsed = started.elapsed();
    Ok(out)
}

fn fail(out: &mut BlastOutcome, tenant: &BlastTenant, why: &str) {
    out.failed += 1;
    if out.errors.len() < 8 {
        out.errors.push(format!("{}: {why}", tenant.name));
    }
}

/// Streams hello then body until WouldBlock or fully sent. Returns true
/// when the session must end (write error → count as failed).
fn pump_writes(sess: &mut Session, t: &BlastTenant, out: &mut BlastOutcome) -> bool {
    loop {
        let (buf, pos) = match &mut sess.stage {
            SendStage::Hello(pos) => (t.hello.as_slice(), pos),
            SendStage::Body(pos) => (t.body.as_slice(), pos),
            SendStage::Done => return false,
        };
        if *pos < buf.len() {
            match sess.sock.write(&buf[*pos..]) {
                Ok(0) => {
                    fail(out, t, "write returned 0");
                    return true;
                }
                Ok(n) => {
                    *pos += n;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    fail(out, t, &format!("write: {e}"));
                    return true;
                }
            }
        }
        sess.stage = match sess.stage {
            SendStage::Hello(_) => SendStage::Body(0),
            SendStage::Body(_) | SendStage::Done => SendStage::Done,
        };
        if matches!(sess.stage, SendStage::Done) {
            return false;
        }
    }
}

/// Consumes whatever arrived, routing on raw frame tags so the bulk of
/// the stream — Revisions frames for the 99% of tenants whose logs we
/// don't retain — is never decoded. Returns true when the session ended
/// (Bye, server Error, EOF, or read error) — accounting happens here.
fn pump_reads(sess: &mut Session, t: &BlastTenant, out: &mut BlastOutcome) -> bool {
    loop {
        match sess.reader.fill_from(&mut sess.sock) {
            Ok(Fill::Read(_)) => loop {
                match sess.reader.next_frame_raw() {
                    Ok(Some(payload)) => {
                        let (tag, body) = (payload[0], &payload[1..]);
                        match tag {
                            TAG_HELLO_ACK => {}
                            TAG_REVISIONS => {
                                out.revision_frames += 1;
                                if t.collect {
                                    let mut pos = 0usize;
                                    match proto::decode_revisions(body, &mut pos) {
                                        Ok(revs) => sess.revisions.extend(revs),
                                        Err(e) => {
                                            fail(out, t, &format!("decode: {e}"));
                                            return true;
                                        }
                                    }
                                }
                            }
                            TAG_SHED => match proto::decode(payload) {
                                Ok(Frame::Shed { dropped }) => out.shed += dropped,
                                _ => {
                                    fail(out, t, "decode: garbled shed frame");
                                    return true;
                                }
                            },
                            TAG_BYE => {
                                out.completed += 1;
                                return true;
                            }
                            TAG_ERROR => {
                                let msg = match proto::decode(payload) {
                                    Ok(Frame::Error { message }) => message,
                                    _ => "<garbled error frame>".to_string(),
                                };
                                fail(out, t, &format!("server error: {msg}"));
                                return true;
                            }
                            other => {
                                fail(out, t, &format!("unexpected frame tag {other}"));
                                return true;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        fail(out, t, &format!("decode: {e}"));
                        return true;
                    }
                }
            },
            Ok(Fill::WouldBlock) => return false,
            Ok(Fill::Eof) => {
                fail(out, t, "server closed before Bye");
                return true;
            }
            Err(e) => {
                fail(out, t, &format!("read: {e}"));
                return true;
            }
        }
    }
}
