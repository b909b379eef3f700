//! The framed wire protocol between `stream` clients and the `serve`
//! daemon.
//!
//! Every message is one frame:
//!
//! ```text
//! [len: u32 LE][tag: u8][body: len-1 bytes]
//! ```
//!
//! `len` covers the tag byte plus the body, so a reader can size its
//! buffer from the fixed four-byte prefix alone. `len` is bounded by
//! [`MAX_FRAME_BYTES`]; a frame declaring more is rejected *before* any
//! allocation — a four-byte header must never be able to command a
//! multi-gigabyte allocation. Bodies are decoded through
//! [`memtrace::wire::Reader`], the cursor every decoder of untrusted bytes
//! shares: it bounds each declared count before allocating, refuses a
//! value too wide for its field, and refuses a body with trailing bytes.
//!
//! The conversation:
//!
//! 1. Client sends [`Frame::Hello`] — protocol version, tenant name,
//!    event encoding ([`Mode`]), and the tenant's trace *header* (an
//!    events-free [`TraceFile`] carrying the site table and binary map).
//! 2. Server answers [`Frame::HelloAck`] (or [`Frame::Error`] and closes:
//!    version mismatch, capacity, duplicate tenant).
//! 3. Client streams [`Frame::Events`] and [`Frame::Tick`]; server pushes
//!    [`Frame::Revisions`] (one per tick, possibly empty — the tick ack)
//!    and [`Frame::Shed`] notices whenever backpressure dropped work.
//! 4. Client sends [`Frame::Shutdown`]; server flushes, answers
//!    [`Frame::Bye`] with the total revision count, and closes.
//!
//! Event bodies reuse the `memtrace` codecs verbatim: [`Mode::Bin`]
//! frames are `binfmt::write_frame` bytes (varints, times as exact `f64`
//! bits: the bytes the durability journal records), [`Mode::Jsonl`]
//! frames are newline-separated compact JSON events via
//! `memtrace::jsonio` — the thin debugging encoding.

use ecohmem_online::PlacementRevision;
use memtrace::binfmt::{self, put_varint};
use memtrace::wire::Reader;
use memtrace::{EventBatch, SiteId, TierId, TraceError, TraceEvent, TraceFile};
use std::io::{Read, Write};

use crate::ServeError;

/// Protocol revision carried in [`Frame::Hello`]. The server rejects any
/// other value — explicit version negotiation instead of silent garbage.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on `len` (tag + body). Anything larger is a protocol error
/// rejected before allocation. 8 MiB comfortably holds the largest legal
/// event frame (`binfmt::MAX_FRAME_EVENTS` is a separate, tighter guard
/// applied when the body is decoded).
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// How a tenant encodes its event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `binfmt::write_frame` bytes — compact and exact, the default.
    Bin,
    /// Newline-separated compact JSON events — human-greppable, slow.
    Jsonl,
}

impl Mode {
    fn to_byte(self) -> u8 {
        match self {
            Mode::Bin => 0,
            Mode::Jsonl => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Mode, ServeError> {
        match b {
            0 => Ok(Mode::Bin),
            1 => Ok(Mode::Jsonl),
            other => Err(ServeError::Protocol(format!("unknown mode byte {other}"))),
        }
    }

    /// Parses the CLI spelling (`bin` / `jsonl`).
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "bin" => Some(Mode::Bin),
            "jsonl" => Some(Mode::Jsonl),
            _ => None,
        }
    }
}

/// One protocol message. See the module docs for the conversation.
// Events frames are most of the traffic, so boxing the batch would only
// add an allocation per frame.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a tenant session.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u32,
        /// Tenant name — the registry key; must be unique on the server.
        tenant: String,
        /// Event encoding for subsequent [`Frame::Events`].
        mode: Mode,
        /// Events-free [`TraceFile`] (site table + binary map + run
        /// metadata), encoded with `binfmt::write_trace`.
        header: Vec<u8>,
    },
    /// Server → client: session accepted.
    HelloAck {
        /// Server-assigned tenant id (diagnostics only).
        tenant_id: u64,
    },
    /// Client → server: a batch of trace events, decoded straight into
    /// columns.
    Events(EventBatch),
    /// Client → server: advance the advisor epoch clock.
    Tick {
        /// Stream time in seconds, same clock as event timestamps.
        now: f64,
    },
    /// Client → server: flush and close the session cleanly.
    Shutdown,
    /// Server → client: plan diffs from one tick (may be empty — every
    /// tick is acked by exactly one `Revisions` frame).
    Revisions(Vec<PlacementRevision>),
    /// Server → client: backpressure dropped `dropped` items since the
    /// last notice (event batches on admission, revision frames on a
    /// stalled reader).
    Shed {
        /// Items dropped since the previous `Shed` frame.
        dropped: u64,
    },
    /// Server → client: clean end of session.
    Bye {
        /// Total revisions emitted over the session's lifetime.
        revisions: u64,
    },
    /// Server → client: the session is being refused or torn down.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Wire tag of [`Frame::Hello`]. Public so zero-copy readers
/// ([`FrameReader::next_frame_raw`]) can route on the tag byte without
/// paying for a full decode.
pub const TAG_HELLO: u8 = 1;
/// Wire tag of [`Frame::HelloAck`].
pub const TAG_HELLO_ACK: u8 = 2;
/// Wire tag of [`Frame::Events`].
pub const TAG_EVENTS: u8 = 3;
/// Wire tag of [`Frame::Tick`].
pub const TAG_TICK: u8 = 4;
/// Wire tag of [`Frame::Shutdown`].
pub const TAG_SHUTDOWN: u8 = 5;
/// Wire tag of [`Frame::Revisions`].
pub const TAG_REVISIONS: u8 = 6;
/// Wire tag of [`Frame::Shed`].
pub const TAG_SHED: u8 = 7;
/// Wire tag of [`Frame::Bye`].
pub const TAG_BYE: u8 = 8;
/// Wire tag of [`Frame::Error`].
pub const TAG_ERROR: u8 = 9;

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a revision list — the same varint layout the durability
/// journal uses, so a revision log is byte-stable across both seams.
pub fn encode_revisions(revs: &[PlacementRevision], out: &mut Vec<u8>) {
    put_varint(out, revs.len() as u64);
    for r in revs {
        put_varint(out, r.epoch);
        put_varint(out, r.time.to_bits());
        put_varint(out, r.site.0 as u64);
        out.push(r.from.0);
        out.push(r.to.0);
    }
}

/// Decodes [`encode_revisions`] output at `pos`, advancing it.
pub fn decode_revisions(
    data: &[u8],
    pos: &mut usize,
) -> Result<Vec<PlacementRevision>, ServeError> {
    let mut r = Reader::new(data.get(*pos..).unwrap_or_default());
    let revs = read_revisions(&mut r)?;
    *pos += r.pos();
    Ok(revs)
}

fn read_revisions(r: &mut Reader) -> Result<Vec<PlacementRevision>, TraceError> {
    // Each revision is ≥ 5 bytes.
    let n = r.count("revisions", 5, usize::MAX)?;
    let mut revs = Vec::with_capacity(n);
    for _ in 0..n {
        let epoch = r.varint()?;
        let time = r.f64_bits()?;
        let site = SiteId(r.field("site id")?);
        let from = TierId(r.byte()?);
        let to = TierId(r.byte()?);
        revs.push(PlacementRevision { epoch, time, site, from, to });
    }
    Ok(revs)
}

/// Builds the events-free header trace a [`Frame::Hello`] carries.
pub fn header_of(trace: &TraceFile) -> TraceFile {
    trace.header()
}

/// Encodes the Hello header blob.
pub fn encode_header(header: &TraceFile) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::new();
    binfmt::write_trace(header, &mut out)?;
    Ok(out)
}

/// Decodes a Hello header blob back into an events-free trace, in place:
/// the blob is not copied first.
pub fn decode_header(bytes: &[u8]) -> Result<TraceFile, ServeError> {
    let trace = binfmt::decode_trace(bytes).map_err(ServeError::Trace)?;
    if !trace.events.is_empty() {
        return Err(ServeError::Protocol(format!(
            "hello header carries {} events; events travel in Events frames",
            trace.events.len()
        )));
    }
    Ok(trace)
}

fn encode_events(events: &EventBatch, mode: Mode, out: &mut Vec<u8>) {
    out.push(mode.to_byte());
    match mode {
        Mode::Bin => binfmt::write_frame(events, out),
        Mode::Jsonl => {
            let mut text = String::new();
            for e in events.iter_events() {
                text.push_str(&memtrace::event_to_json(&e));
                text.push('\n');
            }
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// Decodes an Events body into `events`, which is emptied first.
fn decode_events(r: &mut Reader, events: &mut EventBatch) -> Result<(), ServeError> {
    match Mode::from_byte(r.byte()?)? {
        Mode::Bin => Ok(binfmt::read_frame_into(r, events)?),
        Mode::Jsonl => {
            events.clear();
            let rest = r.remaining();
            let text = std::str::from_utf8(r.bytes(rest)?)
                .map_err(|e| ServeError::Protocol(format!("invalid utf-8 in jsonl body: {e}")))?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let e = memtrace::event_from_json(line)
                    .map_err(|e| ServeError::Protocol(format!("bad jsonl event: {e:?}")))?;
                events.push(&e);
            }
            Ok(())
        }
    }
}

/// Serializes one frame (length prefix included) straight into `out` —
/// the reactor's write side appends to per-connection buffers without an
/// intermediate allocation per frame. The length prefix is backpatched
/// once the body size is known.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    match frame {
        Frame::Hello { version, tenant, mode, header } => {
            out.push(TAG_HELLO);
            put_varint(out, *version as u64);
            put_str(out, tenant);
            out.push(mode.to_byte());
            put_varint(out, header.len() as u64);
            out.extend_from_slice(header);
        }
        Frame::HelloAck { tenant_id } => {
            out.push(TAG_HELLO_ACK);
            put_varint(out, *tenant_id);
        }
        Frame::Events(events) => {
            // Mode travels inside the body so both encodings share a tag.
            out.push(TAG_EVENTS);
            encode_events(events, Mode::Bin, out);
        }
        Frame::Tick { now } => {
            out.push(TAG_TICK);
            put_varint(out, now.to_bits());
        }
        Frame::Shutdown => out.push(TAG_SHUTDOWN),
        Frame::Revisions(revs) => {
            out.push(TAG_REVISIONS);
            encode_revisions(revs, out);
        }
        Frame::Shed { dropped } => {
            out.push(TAG_SHED);
            put_varint(out, *dropped);
        }
        Frame::Bye { revisions } => {
            out.push(TAG_BYE);
            put_varint(out, *revisions);
        }
        Frame::Error { message } => {
            out.push(TAG_ERROR);
            put_str(out, message);
        }
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Serializes one frame (length prefix included).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

/// Serializes an Events frame in an explicit [`Mode`].
pub fn encode_events_frame(events: &[TraceEvent], mode: Mode) -> Vec<u8> {
    let mut body = Vec::new();
    encode_events(&EventBatch::from_events(events), mode, &mut body);
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    out.push(TAG_EVENTS);
    out.extend_from_slice(&body);
    out
}

/// Parses one frame body (tag + payload, length prefix already
/// stripped and bounds-checked by the reader).
pub fn decode(data: &[u8]) -> Result<Frame, ServeError> {
    decode_with(data, EventBatch::default)
}

/// [`decode`], with an Events body decoded into the batch `storage`
/// returns instead of into fresh columns: the batch is emptied first, and
/// one that already held a frame of this size allocates nothing (see
/// [`binfmt::read_frame_into`]). `storage` is called only for an Events
/// frame. The result, and the error of a bad frame, equal [`decode`]'s.
pub fn decode_with(data: &[u8], storage: impl FnOnce() -> EventBatch) -> Result<Frame, ServeError> {
    let Some((&tag, body)) = data.split_first() else {
        return Err(ServeError::Protocol("empty frame".into()));
    };
    let mut r = Reader::new(body);
    let frame = match tag {
        TAG_HELLO => {
            let version = r.field("protocol version")?;
            let tenant = r.str("tenant name")?.to_string();
            let mode = Mode::from_byte(r.byte()?)?;
            let header_len = r.field("hello header length")?;
            let header = r.bytes(header_len)?.to_vec();
            Frame::Hello { version, tenant, mode, header }
        }
        TAG_HELLO_ACK => Frame::HelloAck { tenant_id: r.varint()? },
        TAG_EVENTS => {
            let mut events = storage();
            decode_events(&mut r, &mut events)?;
            Frame::Events(events)
        }
        TAG_TICK => Frame::Tick { now: r.f64_bits()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_REVISIONS => Frame::Revisions(read_revisions(&mut r)?),
        TAG_SHED => Frame::Shed { dropped: r.varint()? },
        TAG_BYE => Frame::Bye { revisions: r.varint()? },
        TAG_ERROR => Frame::Error { message: r.str("error message")?.to_string() },
        other => return Err(ServeError::Protocol(format!("unknown frame tag {other}"))),
    };
    r.expect_end(|pos, len| format!("{} trailing bytes after tag-{tag} frame", len - pos))?;
    Ok(frame)
}

/// Writes one frame to a byte sink.
pub fn write_frame_to<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ServeError> {
    w.write_all(&encode(frame)).map_err(ServeError::Io)
}

/// Reads one frame from a byte source. Returns `Ok(None)` on a clean EOF
/// at a frame boundary; a mid-frame EOF is an error. The declared length
/// is checked against [`MAX_FRAME_BYTES`] *before* the body buffer is
/// allocated.
pub fn read_frame_from<R: Read>(r: &mut R) -> Result<Option<Frame>, ServeError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ServeError::Protocol("eof inside frame length".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(ServeError::Protocol("zero-length frame".into()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame declares {len} bytes, cap is {MAX_FRAME_BYTES}"
        )));
    }
    let mut data = vec![0u8; len];
    r.read_exact(&mut data).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Protocol("eof inside frame body".into())
        } else {
            ServeError::Io(e)
        }
    })?;
    decode(&data).map(Some)
}

/// What one [`FrameReader::fill_from`] call observed on the byte source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// `n` fresh bytes were appended to the buffer.
    Read(usize),
    /// The source would block; try again on the next readiness event.
    WouldBlock,
    /// The peer closed the stream.
    Eof,
}

/// A resumable, allocation-reusing frame decoder — the reactor's read
/// side.
///
/// The blocking [`read_frame_from`] allocates a fresh body buffer per
/// frame and cannot survive a partial read. `FrameReader` instead owns
/// one growable buffer per connection: [`fill_from`](Self::fill_from)
/// appends whatever bytes are available right now (returning
/// [`Fill::WouldBlock`] instead of stalling on a nonblocking socket), and
/// [`next_frame`](Self::next_frame) peels off complete frames, leaving a
/// trailing partial frame buffered for the next readiness event. The
/// length prefix is still validated against [`MAX_FRAME_BYTES`] *before*
/// the body is buffered, so a hostile prefix can never command a large
/// allocation.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Grows on demand, never shrinks, and is zero-initialized only when
    /// it grows — steady-state fills write over old bytes instead of
    /// paying a memset per read.
    buf: Vec<u8>,
    /// Bytes `[..start]` are already consumed; compacted on refill.
    start: usize,
    /// Bytes `[start..end]` are buffered and unconsumed.
    end: usize,
}

/// How many bytes one `fill_from` reads at most — pairs with the
/// reactor's per-connection fairness budget.
const READ_CHUNK: usize = 64 * 1024;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Empties the reader but keeps its buffer allocation — connection
    /// pools recycle readers so a churn of short sessions doesn't pay a
    /// fresh (zeroed) `READ_CHUNK` allocation per connection.
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Bytes buffered but not yet consumed by [`next_frame`](Self::next_frame).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True when a frame prefix or body is sitting incomplete in the
    /// buffer — the "partial read" the reactor counts.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Appends up to `READ_CHUNK` bytes from `r`. A nonblocking source
    /// reports [`Fill::WouldBlock`]; EINTR is retried internally.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> Result<Fill, ServeError> {
        self.compact();
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..self.end + READ_CHUNK]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.end += n;
                    return Ok(Fill::Read(n));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(Fill::WouldBlock)
                }
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }

    /// Decodes the next complete frame, or `None` when only a partial
    /// frame (or nothing) is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ServeError> {
        self.next_frame_with(EventBatch::default)
    }

    /// [`next_frame`](Self::next_frame), decoding an Events frame into
    /// the batch `storage` returns ([`decode_with`]).
    pub fn next_frame_with(
        &mut self,
        storage: impl FnOnce() -> EventBatch,
    ) -> Result<Option<Frame>, ServeError> {
        match self.next_frame_raw()? {
            // The payload is still in the buffer; `start` has just moved
            // past it.
            Some(payload) => decode_with(payload, storage).map(Some),
            None => Ok(None),
        }
    }

    /// Like [`next_frame`](Self::next_frame) but returns the raw payload
    /// (`[tag][body]`, length prefix stripped) without decoding — for
    /// readers that route on [`TAG_REVISIONS`]-style constants and only
    /// decode the frames they keep. The payload stays valid until the
    /// next `fill_from` compacts the buffer.
    pub fn next_frame_raw(&mut self) -> Result<Option<&[u8]>, ServeError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len == 0 {
            return Err(ServeError::Protocol("zero-length frame".into()));
        }
        if len > MAX_FRAME_BYTES {
            return Err(ServeError::Protocol(format!(
                "frame declares {len} bytes, cap is {MAX_FRAME_BYTES}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start += 4 + len;
        Ok(Some(&self.buf[at..at + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{BinaryMap, CallStack, Frame as StackFrame, FuncId, ModuleId, ObjectId};

    fn header() -> TraceFile {
        TraceFile {
            app_name: "proto-test".into(),
            seed: 7,
            ranks: 2,
            sampling_hz: 1000.0,
            load_sample_period: 100.0,
            store_sample_period: 200.0,
            duration: 1.5,
            stacks: vec![(SiteId(0), CallStack::new(vec![StackFrame::new(ModuleId(0), 0x10)]))],
            binmap: BinaryMap::default(),
            events: EventBatch::default(),
        }
    }

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Alloc {
                time: 0.1,
                object: ObjectId(1),
                site: SiteId(0),
                size: 64,
                address: 0x1000,
            },
            TraceEvent::LoadMissSample {
                time: 0.2,
                address: 0x1008,
                latency_cycles: 300.0,
                function: FuncId(0),
            },
            TraceEvent::Free { time: 0.9, object: ObjectId(1) },
        ]
    }

    fn roundtrip(f: Frame) {
        let bytes = encode(&f);
        let mut cur = std::io::Cursor::new(bytes);
        let back = read_frame_from(&mut cur).unwrap().unwrap();
        assert_eq!(back, f);
        assert!(read_frame_from(&mut cur).unwrap().is_none(), "clean EOF after one frame");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let hdr = encode_header(&header()).unwrap();
        roundtrip(Frame::Hello {
            version: PROTO_VERSION,
            tenant: "t0".into(),
            mode: Mode::Bin,
            header: hdr,
        });
        roundtrip(Frame::HelloAck { tenant_id: 42 });
        roundtrip(Frame::Events(EventBatch::from_events(&events())));
        roundtrip(Frame::Tick { now: 0.75 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Revisions(vec![PlacementRevision {
            epoch: 3,
            time: 1.25,
            site: SiteId(9),
            from: TierId::PMEM,
            to: TierId::DRAM,
        }]));
        roundtrip(Frame::Shed { dropped: 17 });
        roundtrip(Frame::Bye { revisions: 12 });
        roundtrip(Frame::Error { message: "no room".into() });
    }

    #[test]
    fn jsonl_events_round_trip_through_the_same_tag() {
        let bytes = encode_events_frame(&events(), Mode::Jsonl);
        let mut cur = std::io::Cursor::new(bytes);
        let back = read_frame_from(&mut cur).unwrap().unwrap();
        assert_eq!(back, Frame::Events(EventBatch::from_events(&events())));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        bytes.push(TAG_SHUTDOWN);
        let err = read_frame_from(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(err.to_string().contains("cap is"), "{err}");
    }

    #[test]
    fn truncated_body_is_a_protocol_error_not_a_hang() {
        let full = encode(&Frame::Tick { now: 2.0 });
        let cut = &full[..full.len() - 1];
        let err = read_frame_from(&mut std::io::Cursor::new(cut.to_vec())).unwrap_err();
        assert!(err.to_string().contains("eof inside frame body"), "{err}");
    }

    #[test]
    fn header_with_events_is_refused() {
        let mut t = header();
        t.events = EventBatch::from_events(&events());
        let bytes = encode_header(&t).unwrap();
        let err = decode_header(&bytes).unwrap_err();
        assert!(err.to_string().contains("events travel in Events frames"), "{err}");
    }

    #[test]
    fn header_with_a_trailing_byte_is_refused() {
        let mut bytes = encode_header(&header()).unwrap();
        decode_header(&bytes).unwrap();
        bytes.push(0);
        let err = decode_header(&bytes).unwrap_err().to_string();
        assert!(err.contains(&format!("ends at byte {}", bytes.len() - 1)), "{err}");
    }

    #[test]
    fn values_too_wide_for_their_field_are_refused() {
        let hello = |version: u64| {
            let mut body = vec![TAG_HELLO];
            put_varint(&mut body, version);
            put_str(&mut body, "t0");
            body.push(Mode::Bin.to_byte());
            put_varint(&mut body, 0);
            body
        };
        assert!(matches!(decode(&hello(1)), Ok(Frame::Hello { version: 1, .. })));
        let err = decode(&hello((1 << 32) + 1)).unwrap_err().to_string();
        assert!(err.contains("protocol version 4294967297 out of range"), "{err}");

        let revision = |site: u64| {
            let mut body = vec![TAG_REVISIONS];
            for v in [1, 3, 1.25f64.to_bits(), site] {
                put_varint(&mut body, v);
            }
            body.extend([TierId::PMEM.0, TierId::DRAM.0]);
            body
        };
        assert!(matches!(decode(&revision(9)), Ok(Frame::Revisions(r)) if r[0].site == SiteId(9)));
        let err = decode(&revision(1 << 32)).unwrap_err().to_string();
        assert!(err.contains("site id 4294967296 out of range"), "{err}");
    }

    #[test]
    fn frame_reader_decodes_byte_dribble_identically_to_whole_frames() {
        let frames = vec![
            Frame::Hello {
                version: PROTO_VERSION,
                tenant: "dribble".into(),
                mode: Mode::Bin,
                header: encode_header(&header()).unwrap(),
            },
            Frame::Events(EventBatch::from_events(&events())),
            Frame::Tick { now: 1.5 },
            Frame::Shed { dropped: 3 },
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode(f));
        }
        // Deliver 1 byte at a time through a reader that reports
        // WouldBlock between bytes — the reactor's worst case.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &b in &wire {
            let mut cur = std::io::Cursor::new(vec![b]);
            assert_eq!(reader.fill_from(&mut cur).unwrap(), Fill::Read(1));
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames, "1-byte dribble must decode identically to whole frames");
        assert!(!reader.has_partial(), "nothing may linger after the last frame");
    }

    #[test]
    fn frame_reader_rejects_oversized_prefix_before_buffering() {
        let mut reader = FrameReader::new();
        let bytes = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let mut cur = std::io::Cursor::new(bytes.to_vec());
        reader.fill_from(&mut cur).unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(err.to_string().contains("cap is"), "{err}");
    }

    #[test]
    fn frame_reader_chunked_random_splits_round_trip() {
        let frames: Vec<Frame> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    Frame::Tick { now: i as f64 }
                } else {
                    Frame::Events(EventBatch::from_events(&events()))
                }
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode(f));
        }
        // Deterministic pseudo-random split sizes.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = |max: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize % max) + 1
        };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let n = next(97).min(wire.len() - pos);
            let mut cur = std::io::Cursor::new(wire[pos..pos + n].to_vec());
            reader.fill_from(&mut cur).unwrap();
            pos += n;
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn bin_and_jsonl_decode_to_identical_batches() {
        let evs = events();
        let bin = encode_events_frame(&evs, Mode::Bin);
        let jsonl = encode_events_frame(&evs, Mode::Jsonl);
        let a = read_frame_from(&mut std::io::Cursor::new(bin)).unwrap().unwrap();
        let b = read_frame_from(&mut std::io::Cursor::new(jsonl)).unwrap().unwrap();
        assert_eq!(a, b);
    }
}
