//! Compact binary trace encoding.
//!
//! Real Extrae traces are binary — a JSON trace of a 100 Hz × minutes run
//! is an order of magnitude larger than it needs to be. This module
//! provides a compact, versioned binary encoding of [`TraceFile`]:
//! a magic/version header, the metadata and site/binary tables encoded via
//! JSON (they are tiny), and the event stream as a tagged, varint-packed
//! record sequence with delta-coded timestamps.
//!
//! Timestamps are stored as `u64` microseconds, delta-coded against the
//! previous event — a lossy (µs-granular) but faithful representation of
//! what a real tracer records. Delta coding requires time-sorted input:
//! [`write_trace`] rejects out-of-order events (a silent `saturating_sub`
//! would decode them *reordered*; [`TraceFile::sanitize`] first drops
//! the events of a damaged trace that break the order). [`read_trace`]
//! rejects wrong magics, wrong versions, and truncated streams; every
//! reader here decodes through [`crate::wire::Reader`].
//!
//! Two on-disk versions share the magic and header encoding:
//!
//! * **v1** — one flat event stream, decoded in full by [`read_trace`].
//! * **v2** — the event stream is split into fixed-size buckets with a
//!   `(count, byte length, base timestamp)` index section up front; delta
//!   coding restarts at each bucket's base. [`TraceBuf`] keeps the file
//!   bytes as one owned buffer (the moral equivalent of an `mmap`) and
//!   decodes buckets lazily into [`EventBatch`]es; any bucket decodes
//!   without the ones before it. [`read_trace`] decodes a v2 file
//!   through it.

use crate::columns::{EventBatch, OpKind, MAX_ROWS};
use crate::error::TraceError;
use crate::events::TraceEvent;
use crate::ids::{FuncId, ObjectId, SiteId};
use crate::trace::TraceFile;
use crate::wire::Reader;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ECOHMEM\0";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;

/// Events per v2 bucket. Small enough that one bucket decodes in-cache,
/// large enough that the index section stays negligible.
pub const V2_BUCKET_EVENTS: usize = 8192;

/// Hard ceiling on the event count any single [`read_frame`] frame may
/// declare. Frames travel over sockets (the serve daemon's wire protocol,
/// the durability journal), where a poisoned length prefix must be
/// rejected *before* `Vec::with_capacity` — the relative
/// bytes-remaining check alone scales with whatever buffer the attacker
/// managed to send.
pub const MAX_FRAME_EVENTS: usize = 1 << 22;

/// Hard ceiling on the declared byte length of the JSON header section.
pub const MAX_HEADER_BYTES: usize = 1 << 26;

/// Hard ceiling on the total event count a trace file may declare. It
/// equals [`MAX_ROWS`], so no kind of a decoded trace can pass the row
/// cap of its [`EventBatch`].
pub const MAX_DECLARED_EVENTS: usize = MAX_ROWS;

/// Writes a varint (LEB128). Public so downstream binary formats (the
/// online engine's journal and checkpoints) share one integer encoding.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint at `pos` and advances it: [`Reader::varint`] for a
/// caller holding a bare slice and offset.
#[inline]
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut r = Reader::new(data.get(*pos..).unwrap_or_default());
    let v = r.varint()?;
    *pos += r.pos();
    Ok(v)
}

fn micros(t: f64) -> u64 {
    (t.max(0.0) * 1e6).round() as u64
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

const TAG_ALLOC: u8 = 1;
const TAG_FREE: u8 = 2;
const TAG_LOAD: u8 = 3;
const TAG_STORE_HIT: u8 = 4;
const TAG_STORE_MISS: u8 = 5;
const TAG_PHASE: u8 = 6;

/// Encodes one event as a tagged record with a pre-computed time delta.
fn encode_record(out: &mut Vec<u8>, e: &TraceEvent, delta: u64) {
    match e {
        TraceEvent::Alloc { object, site, size, address, .. } => {
            out.push(TAG_ALLOC);
            put_varint(out, delta);
            put_varint(out, object.0);
            put_varint(out, u64::from(site.0));
            put_varint(out, *size);
            put_varint(out, *address);
        }
        TraceEvent::Free { object, .. } => {
            out.push(TAG_FREE);
            put_varint(out, delta);
            put_varint(out, object.0);
        }
        TraceEvent::LoadMissSample { address, latency_cycles, function, .. } => {
            out.push(TAG_LOAD);
            put_varint(out, delta);
            put_varint(out, *address);
            put_varint(out, latency_cycles.round() as u64);
            put_varint(out, u64::from(function.0));
        }
        TraceEvent::StoreSample { address, l1d_miss, function, .. } => {
            out.push(if *l1d_miss { TAG_STORE_MISS } else { TAG_STORE_HIT });
            put_varint(out, delta);
            put_varint(out, *address);
            put_varint(out, u64::from(function.0));
        }
        TraceEvent::PhaseMarker { phase, .. } => {
            out.push(TAG_PHASE);
            put_varint(out, delta);
            put_varint(out, u64::from(*phase));
        }
    }
}

/// Decodes one tagged record, advancing the running timestamp.
fn decode_record(r: &mut Reader, last_us: &mut u64) -> Result<TraceEvent, TraceError> {
    let tag = r.byte()?;
    let delta = r.varint()?;
    *last_us = last_us.checked_add(delta).ok_or_else(|| {
        TraceError::Malformed(format!("timestamp delta {delta} overflows the µs clock"))
    })?;
    let time = seconds(*last_us);
    Ok(match tag {
        TAG_ALLOC => TraceEvent::Alloc {
            time,
            object: ObjectId(r.varint()?),
            site: SiteId(r.field("site id")?),
            size: r.varint()?,
            address: r.varint()?,
        },
        TAG_FREE => TraceEvent::Free { time, object: ObjectId(r.varint()?) },
        TAG_LOAD => TraceEvent::LoadMissSample {
            time,
            address: r.varint()?,
            latency_cycles: r.varint()? as f64,
            function: FuncId(r.field("function id")?),
        },
        TAG_STORE_HIT | TAG_STORE_MISS => TraceEvent::StoreSample {
            time,
            address: r.varint()?,
            l1d_miss: tag == TAG_STORE_MISS,
            function: FuncId(r.field("function id")?),
        },
        TAG_PHASE => TraceEvent::PhaseMarker { time, phase: r.field("phase")? },
        other => return Err(TraceError::Malformed(format!("unknown event tag {other}"))),
    })
}

/// The out-of-order rejection both writers share: delta coding against the
/// previous µs timestamp cannot represent a step backwards, and
/// `saturating_sub` would silently collapse it to delta 0 — the round trip
/// would *reorder* events instead of failing.
fn order_error(i: usize, t: f64) -> TraceError {
    TraceError::Malformed(format!(
        "event {i} at t={t} precedes the previous event: delta coding requires time-sorted \
         input (sort first, or use TraceFile::sanitize)"
    ))
}

/// Serializes a trace to the v1 binary format. Fails on out-of-order
/// events — [`TraceFile::sanitize`] drops them from a damaged trace first.
pub fn write_trace<W: Write>(trace: &TraceFile, mut w: W) -> Result<(), TraceError> {
    let mut out = Vec::with_capacity(trace.events.len() * 8 + 4096);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());

    // Header: everything but the events, as length-prefixed JSON (small).
    let header_json = trace.header().to_json()?;
    put_varint(&mut out, header_json.len() as u64);
    out.extend_from_slice(header_json.as_bytes());

    // Events: tagged records with delta-coded µs timestamps.
    put_varint(&mut out, trace.events.len() as u64);
    let mut last_us = 0u64;
    for (i, e) in trace.events.iter_events().enumerate() {
        let t_us = micros(e.time());
        if t_us < last_us {
            return Err(order_error(i, e.time()));
        }
        let delta = t_us - last_us;
        last_us = t_us;
        encode_record(&mut out, &e, delta);
    }
    w.write_all(&out)?;
    Ok(())
}

/// Serializes a trace to the v2 (bucketed) binary format. Same strict
/// ordering contract as [`write_trace`].
pub fn write_trace_v2<W: Write>(trace: &TraceFile, mut w: W) -> Result<(), TraceError> {
    let header_json = trace.header().to_json()?;
    let n_events = trace.events.len();
    // Bucket payloads, encoded first so the index can carry byte lengths.
    // Delta coding restarts at each bucket's base timestamp, which is what
    // lets a reader decode any bucket without touching the ones before it.
    let mut payload = Vec::with_capacity(n_events * 8);
    let mut metas: Vec<(u64, u64, u64)> = Vec::with_capacity(n_events / V2_BUCKET_EVENTS + 1);
    let mut bucket_start = 0usize;
    let mut in_bucket = 0usize;
    let mut base_us = 0u64;
    let mut last_us = 0u64;
    let mut prev_us = 0u64;
    for (i, e) in trace.events.iter_events().enumerate() {
        let t_us = micros(e.time());
        if t_us < prev_us {
            return Err(order_error(i, e.time()));
        }
        prev_us = t_us;
        if in_bucket == 0 {
            base_us = t_us;
            last_us = t_us;
            bucket_start = payload.len();
        }
        let delta = t_us - last_us;
        last_us = t_us;
        encode_record(&mut payload, &e, delta);
        in_bucket += 1;
        if in_bucket == V2_BUCKET_EVENTS {
            metas.push((in_bucket as u64, (payload.len() - bucket_start) as u64, base_us));
            in_bucket = 0;
        }
    }
    if in_bucket > 0 {
        metas.push((in_bucket as u64, (payload.len() - bucket_start) as u64, base_us));
    }

    let mut out = Vec::with_capacity(header_json.len() + metas.len() * 12 + 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V2.to_le_bytes());
    put_varint(&mut out, header_json.len() as u64);
    out.extend_from_slice(header_json.as_bytes());
    put_varint(&mut out, n_events as u64);
    put_varint(&mut out, metas.len() as u64);
    for &(count, len, base) in &metas {
        put_varint(&mut out, count);
        put_varint(&mut out, len);
        put_varint(&mut out, base);
    }
    w.write_all(&out)?;
    w.write_all(&payload)?;
    Ok(())
}

/// Reads the magic and the version both layouts start with.
fn read_version(r: &mut Reader) -> Result<u32, TraceError> {
    match r.bytes(12) {
        Ok(head) if head[..8] == MAGIC[..] => {
            Ok(u32::from_le_bytes(head[8..].try_into().expect("12-byte head")))
        }
        _ => Err(TraceError::Malformed("bad magic".into())),
    }
}

#[cold]
fn unsupported(version: u32) -> TraceError {
    TraceError::Malformed(format!("unsupported version {version}"))
}

/// Reads what both layouts carry after the version: the length-prefixed
/// JSON header and the declared event count. Each event costs ≥ 2 bytes
/// (tag + delta varint) in either layout, so an absurd count means
/// corruption, not a huge trace.
fn read_header(r: &mut Reader) -> Result<(TraceFile, usize), TraceError> {
    let len = r.count("header bytes", 1, MAX_HEADER_BYTES)?;
    let text = std::str::from_utf8(r.bytes(len)?)
        .map_err(|_| TraceError::Malformed("header is not utf-8".into()))?;
    let header = TraceFile::from_json(text)?;
    let n_events = r.count("trace events", 2, MAX_DECLARED_EVENTS)?;
    Ok((header, n_events))
}

/// Deserializes a trace from the binary format, either version: v1 decodes
/// the flat stream directly, v2 goes through [`TraceBuf`].
pub fn read_trace<R: Read>(mut input: R) -> Result<TraceFile, TraceError> {
    let mut data = Vec::new();
    input.read_to_end(&mut data)?;
    let mut r = Reader::new(&data);
    match read_version(&mut r)? {
        VERSION_V1 => {
            let (mut trace, n_events) = read_header(&mut r)?;
            trace.events.ops.reserve(n_events);
            let mut last_us = 0u64;
            for _ in 0..n_events {
                trace.events.push(&decode_record(&mut r, &mut last_us)?);
            }
            r.expect_end(|pos, len| format!("event stream ends at byte {pos}, file has {len}"))?;
            Ok(trace)
        }
        VERSION_V2 => TraceBuf::from_bytes(data)?.to_trace_file(),
        v => Err(unsupported(v)),
    }
}

/// One bucket of a [`TraceBuf`]: where its payload lives and the timestamp
/// its delta coding restarts from.
#[derive(Debug, Clone, Copy)]
struct BucketMeta {
    count: usize,
    base_us: u64,
    off: usize,
    len: usize,
}

/// A v2 binary trace held as one owned byte buffer with the header and
/// bucket index parsed eagerly and the event stream decoded *lazily*, one
/// time-bucket at a time.
///
/// This is the zero-copy read path: [`TraceBuf::open`] reads the file
/// once (the owned-buffer equivalent of an `mmap`), and no event is
/// decoded or allocated until a consumer asks for its bucket. Buckets are
/// mutually independent — delta coding restarts at each bucket's base
/// timestamp — so callers can decode them in any order or in parallel
/// (`&TraceBuf` is `Sync`). Construction validates the section layout:
/// bucket byte ranges must tile the payload exactly and per-bucket event
/// counts must respect the 2-bytes-per-event floor, so a corrupt index
/// fails loudly at open time, not mid-decode.
#[derive(Debug, Clone)]
pub struct TraceBuf {
    data: Vec<u8>,
    header: TraceFile,
    n_events: usize,
    buckets: Vec<BucketMeta>,
}

impl TraceBuf {
    /// Reads a v2 trace file into memory and parses its header and index.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceBuf, TraceError> {
        TraceBuf::from_bytes(std::fs::read(path)?)
    }

    /// Wraps an in-memory v2 encoding. Rejects v1 files with a pointer to
    /// the eager reader — the flat v1 stream has no index to seek by.
    pub fn from_bytes(data: Vec<u8>) -> Result<TraceBuf, TraceError> {
        let mut r = Reader::new(&data);
        match read_version(&mut r)? {
            VERSION_V2 => {}
            VERSION_V1 => {
                return Err(TraceError::Malformed(
                    "version 1 trace: the flat pre-v2 layout cannot be streamed per bucket; \
                     read it with read_trace (or re-encode with write_trace_v2)"
                        .into(),
                ))
            }
            v => return Err(unsupported(v)),
        }
        let (header, n_events) = read_header(&mut r)?;
        // Each index entry costs ≥ 3 bytes.
        let n_buckets = r.count("index buckets", 3, usize::MAX)?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let count = r.count("events in a bucket", 2, MAX_DECLARED_EVENTS)?;
            let len: usize = r.field("bucket length")?;
            let base_us = r.varint()?;
            // Each event costs ≥ 2 bytes (tag + delta varint).
            if count > len / 2 {
                return Err(TraceError::Malformed(format!(
                    "bucket claims {count} events in {len} bytes"
                )));
            }
            buckets.push(BucketMeta { count, base_us, off: 0, len });
        }
        let mut off = r.pos();
        for b in &mut buckets {
            b.off = off;
            off = off
                .checked_add(b.len)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| TraceError::Malformed("bucket section out of bounds".into()))?;
        }
        if off != data.len() {
            return Err(TraceError::Malformed(format!(
                "bucket sections end at byte {off}, file has {}",
                data.len()
            )));
        }
        // The sections tile the file and hold ≥ 2 bytes per event, so the
        // sum cannot overflow.
        let total: usize = buckets.iter().map(|b| b.count).sum();
        if total != n_events {
            return Err(TraceError::Malformed(format!(
                "index counts {total} events, header claims {n_events}"
            )));
        }
        Ok(TraceBuf { data, header, n_events, buckets })
    }

    /// The trace header, as an events-free [`TraceFile`].
    pub fn header(&self) -> &TraceFile {
        &self.header
    }

    /// Total events across all buckets.
    pub fn event_count(&self) -> usize {
        self.n_events
    }

    /// Number of lazily-decodable buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Decodes bucket `i` into a columnar batch. Bounds-checked against
    /// the index; a payload that decodes short or long is rejected.
    pub fn bucket(&self, i: usize) -> Result<EventBatch, TraceError> {
        let m = self.buckets[i];
        let mut r = Reader::new(&self.data[m.off..m.off + m.len]);
        let mut last_us = m.base_us;
        let mut batch = EventBatch::with_capacity(m.count);
        for _ in 0..m.count {
            batch.push(&decode_record(&mut r, &mut last_us)?);
        }
        r.expect_end(|pos, len| format!("bucket {i} decoded {pos} of {len} payload bytes"))?;
        Ok(batch)
    }

    /// Decodes every bucket, in order, into one trace.
    pub fn to_trace_file(&self) -> Result<TraceFile, TraceError> {
        let mut trace = self.header.clone();
        trace.events.ops.reserve(self.n_events);
        for i in 0..self.buckets.len() {
            trace.events.append(&self.bucket(i)?);
        }
        Ok(trace)
    }
}

/// CRC-32 (IEEE 802.3, poly 0xEDB88320), the checksum guarding journal
/// records and checkpoint payloads against torn writes and bit rot.
///
/// Slice-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight bytes fold in one step with eight independent
/// table lookups instead of a serial per-byte dependency chain. Same
/// polynomial, bit-identical output to the classic byte-at-a-time loop
/// (which still handles the tail).
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Exact-time event frames.
//
// The trace format above delta-codes timestamps at µs granularity — right
// for archival traces, wrong for a write-ahead journal whose replay must be
// *bit-identical* to the run it recovers. Frames encode every `f64` as its
// raw IEEE-754 bits, so `read_frame(write_frame(batch)) == batch` exactly.

/// Appends an exact, self-delimiting encoding of a batch of events to
/// `out`, reading the batch's columns directly.
pub fn write_frame(batch: &EventBatch, out: &mut Vec<u8>) {
    put_varint(out, batch.ops.len() as u64);
    for &op in &batch.ops {
        let r = op.row();
        match op.kind() {
            OpKind::Alloc => {
                out.push(TAG_ALLOC);
                put_varint(out, batch.alloc_times[r].to_bits());
                put_varint(out, batch.alloc_objects[r].0);
                put_varint(out, u64::from(batch.alloc_sites[r].0));
                put_varint(out, batch.alloc_sizes[r]);
                put_varint(out, batch.alloc_addresses[r]);
            }
            OpKind::Free => {
                out.push(TAG_FREE);
                put_varint(out, batch.free_times[r].to_bits());
                put_varint(out, batch.free_objects[r].0);
            }
            OpKind::Load => {
                out.push(TAG_LOAD);
                put_varint(out, batch.load_times[r].to_bits());
                put_varint(out, batch.load_addresses[r]);
                put_varint(out, batch.load_latencies[r].to_bits());
                put_varint(out, u64::from(batch.load_functions[r].0));
            }
            OpKind::Store => {
                out.push(if batch.store_l1d_miss[r] { TAG_STORE_MISS } else { TAG_STORE_HIT });
                put_varint(out, batch.store_times[r].to_bits());
                put_varint(out, batch.store_addresses[r]);
                put_varint(out, u64::from(batch.store_functions[r].0));
            }
            OpKind::Phase => {
                out.push(TAG_PHASE);
                put_varint(out, batch.phase_times[r].to_bits());
                put_varint(out, u64::from(batch.phase_ids[r]));
            }
        }
    }
}

/// Decodes one frame written by [`write_frame`] straight into a columnar
/// batch — no per-event enum in between.
pub fn read_frame(r: &mut Reader) -> Result<EventBatch, TraceError> {
    // Each event costs ≥ 2 bytes (tag + varint time).
    let n = r.count("frame events", 2, MAX_FRAME_EVENTS)?;
    let mut batch = EventBatch::with_capacity(n);
    for _ in 0..n {
        let tag = r.byte()?;
        let time = r.f64_bits()?;
        match tag {
            TAG_ALLOC => {
                let object = ObjectId(r.varint()?);
                let site = SiteId(r.field("site id")?);
                let size = r.varint()?;
                let address = r.varint()?;
                batch.push_alloc(time, object, site, size, address);
            }
            TAG_FREE => batch.push_free(time, ObjectId(r.varint()?)),
            TAG_LOAD => {
                let address = r.varint()?;
                let latency = r.f64_bits()?;
                let function = FuncId(r.field("function id")?);
                batch.push_load(time, address, latency, function);
            }
            TAG_STORE_HIT | TAG_STORE_MISS => {
                let address = r.varint()?;
                let function = FuncId(r.field("function id")?);
                batch.push_store(time, address, tag == TAG_STORE_MISS, function);
            }
            TAG_PHASE => batch.push_phase(time, r.field("phase")?),
            other => return Err(TraceError::Malformed(format!("unknown frame tag {other}"))),
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::BinaryMap;
    use crate::callstack::{CallStack, Frame};
    use crate::ids::ModuleId;

    fn sample_trace() -> TraceFile {
        trace_of(&sample_events())
    }

    fn trace_of(events: &[TraceEvent]) -> TraceFile {
        TraceFile {
            app_name: "bin".into(),
            seed: 9,
            ranks: 2,
            sampling_hz: 100.0,
            load_sample_period: 10.0,
            store_sample_period: 20.0,
            duration: 3.0,
            stacks: vec![(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)]))],
            binmap: BinaryMap::default(),
            events: EventBatch::from_events(events),
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseMarker { time: 0.0, phase: 0 },
            TraceEvent::Alloc {
                time: 0.25,
                object: ObjectId(1),
                site: SiteId(0),
                size: 1 << 20,
                address: 1 << 44,
            },
            TraceEvent::LoadMissSample {
                time: 0.5,
                address: (1 << 44) + 128,
                latency_cycles: 412.0,
                function: FuncId(3),
            },
            TraceEvent::StoreSample {
                time: 1.0,
                address: (1 << 44) + 256,
                l1d_miss: true,
                function: FuncId(3),
            },
            TraceEvent::StoreSample {
                time: 1.5,
                address: (1 << 44) + 320,
                l1d_miss: false,
                function: FuncId(3),
            },
            TraceEvent::Free { time: 2.5, object: ObjectId(1) },
        ]
    }

    #[test]
    fn round_trips_with_microsecond_fidelity() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.app_name, t.app_name);
        assert_eq!(back.events.len(), t.events.len());
        let (sent, got) = (t.events.to_events(), back.events.to_events());
        for (a, b) in sent.iter().zip(&got) {
            assert!((a.time() - b.time()).abs() < 1e-6, "µs fidelity");
        }
        back.validate().unwrap();
        // Event payloads survive exactly.
        match (&sent[1], &got[1]) {
            (
                TraceEvent::Alloc { object: a, size: sa, address: aa, .. },
                TraceEvent::Alloc { object: b, size: sb, address: ab, .. },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
                assert_eq!(aa, ab);
            }
            _ => panic!("event kind changed"),
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        // Build a trace with many samples and compare encodings.
        let mut t = sample_trace();
        for i in 0..20_000u64 {
            t.events.push(&TraceEvent::LoadMissSample {
                time: 2.5 + i as f64 * 1e-5,
                address: (1 << 44) + i * 64,
                latency_cycles: 300.0,
                function: FuncId(1),
            });
        }
        t.duration = 3.5;
        let json = t.to_json().unwrap();
        let mut bin = Vec::new();
        write_trace(&t, &mut bin).unwrap();
        let ratio = json.len() as f64 / bin.len() as f64;
        assert!(ratio > 5.0, "binary must be much denser: {ratio:.1}x");
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(read_trace(&bad[..]).is_err());
        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(read_trace(&bad[..]).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        for cut in [10, 13, buf.len() / 2, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        // Adversarial times: values µs quantization would destroy.
        let events = vec![
            TraceEvent::PhaseMarker { time: 0.1 + 0.2, phase: 7 },
            TraceEvent::Alloc {
                time: 1.0 / 3.0,
                object: ObjectId(u64::MAX),
                site: SiteId(u32::MAX),
                size: u64::MAX,
                address: 1 << 44,
            },
            TraceEvent::LoadMissSample {
                time: f64::MIN_POSITIVE,
                address: 42,
                latency_cycles: 412.000_000_001,
                function: FuncId(u16::MAX),
            },
            TraceEvent::StoreSample {
                time: 2.5e-7,
                address: 64,
                l1d_miss: true,
                function: FuncId(0),
            },
            TraceEvent::Free { time: 1e9 + 1e-9, object: ObjectId(3) },
        ];
        let mut buf = Vec::new();
        write_frame(&EventBatch::from_events(&events), &mut buf);
        write_frame(&EventBatch::default(), &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(read_frame(&mut r).unwrap().to_events(), events);
        assert!(read_frame(&mut r).unwrap().is_empty());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn frames_reject_truncation_and_junk() {
        let mut buf = Vec::new();
        write_frame(&sample_trace().events, &mut buf);
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            assert!(read_frame(&mut Reader::new(&buf[..cut])).is_err(), "cut at {cut}");
        }
        let mut junk = buf.clone();
        junk[1] = 99; // first tag byte (after the count varint)
        assert!(read_frame(&mut Reader::new(&junk)).is_err());
    }

    #[test]
    fn varints_round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varints_reject_a_tenth_byte_above_one() {
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(get_varint(&max, &mut 0).unwrap(), u64::MAX);
        let mut top = vec![0x80; 9];
        top.push(0x01);
        assert_eq!(get_varint(&top, &mut 0).unwrap(), 1 << 63);
        for last in [0x02, 0x7f, 0x81] {
            let mut bad = vec![0xff; 9];
            bad.extend([last, 0x01]);
            let err = get_varint(&bad, &mut 0).unwrap_err().to_string();
            assert!(err.contains("oversized varint"), "10th byte {last:#x}: {err}");
        }
    }

    /// One hand-encoded frame holding a single `tag` record.
    fn frame_with(tag: u8, fields: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1);
        buf.push(tag);
        put_varint(&mut buf, 0.5f64.to_bits());
        for &f in fields {
            put_varint(&mut buf, f);
        }
        buf
    }

    /// A v1 trace file holding a single hand-encoded `tag` record.
    fn v1_with(tag: u8, fields: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&sample_trace().header(), &mut buf).unwrap();
        assert_eq!(buf.pop(), Some(0), "the empty trace ends with its zero event count");
        put_varint(&mut buf, 1);
        buf.push(tag);
        put_varint(&mut buf, 500_000);
        for &f in fields {
            put_varint(&mut buf, f);
        }
        buf
    }

    #[test]
    fn decoders_reject_ids_that_overflow_their_field() {
        let (u32_max, u16_max) = (u64::from(u32::MAX), u64::from(u16::MAX));
        // (tag, fields with the largest value that fits, index of the
        // field under test, its name in the error)
        let cases: [(u8, Vec<u64>, usize, &str); 4] = [
            (TAG_ALLOC, vec![1, u32_max, 64, 0x1000], 1, "site id"),
            (TAG_LOAD, vec![0x1000, 300, u16_max], 2, "function id"),
            (TAG_STORE_MISS, vec![0x1000, u16_max], 1, "function id"),
            (TAG_PHASE, vec![u32_max], 0, "phase"),
        ];
        for (tag, fits, field, what) in cases {
            let mut over = fits.clone();
            over[field] += 1;
            assert!(
                read_frame(&mut Reader::new(&frame_with(tag, &fits))).is_ok(),
                "{what} at its max"
            );
            assert!(read_trace(&v1_with(tag, &fits)[..]).is_ok(), "v1 {what} at its max");
            let errors = [
                read_frame(&mut Reader::new(&frame_with(tag, &over))).unwrap_err(),
                read_trace(&v1_with(tag, &over)[..]).unwrap_err(),
            ];
            for err in errors {
                let err = err.to_string();
                assert!(err.contains(&format!("{what} {} out of range", over[field])), "{err}");
            }
        }
    }

    #[test]
    fn a_timestamp_past_u64_is_malformed_not_a_panic() {
        // Two phase records of delta 2^63 each carry the µs clock past u64.
        let mut records = Vec::new();
        for _ in 0..2 {
            records.push(TAG_PHASE);
            put_varint(&mut records, 1 << 63);
            put_varint(&mut records, 0);
        }
        let header = sample_trace().header();
        let mut v1 = Vec::new();
        write_trace(&header, &mut v1).unwrap();
        assert_eq!(v1.pop(), Some(0), "the empty trace ends with its zero event count");
        put_varint(&mut v1, 2);
        v1.extend_from_slice(&records);
        let mut v2 = Vec::new();
        write_trace_v2(&header, &mut v2).unwrap();
        assert_eq!(v2.split_off(v2.len() - 2), [0, 0], "zero events in zero buckets");
        // 2 events in 1 bucket: (count, byte length, base timestamp).
        for v in [2, 1, 2, records.len() as u64, 0] {
            put_varint(&mut v2, v);
        }
        v2.extend_from_slice(&records);
        let bucket = TraceBuf::from_bytes(v2.clone()).unwrap().bucket(0).unwrap_err();
        for err in [read_trace(&v1[..]).unwrap_err(), bucket, read_trace(&v2[..]).unwrap_err()] {
            assert!(err.to_string().contains("overflows the µs clock"), "{err}");
        }
    }

    #[test]
    fn strict_write_rejects_unsorted_input() {
        let mut events = sample_events();
        events.swap(2, 4); // store@1.5 now precedes load@0.5
        let t = trace_of(&events);
        let err = write_trace(&t, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("time-sorted"), "unexpected error: {err}");
        let err = write_trace_v2(&t, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("time-sorted"), "unexpected error: {err}");
    }

    #[test]
    fn frames_reject_a_hostile_count_just_under_the_buffer_length() {
        let mut buf = Vec::new();
        write_frame(&sample_trace().events, &mut buf);
        // Overwrite the count varint with one claiming nearly as many
        // events as there are bytes — the 2-bytes-per-event floor must
        // reject it before any allocation happens.
        let hostile = buf.len() as u64 - 2;
        let mut corrupt = Vec::new();
        put_varint(&mut corrupt, hostile);
        corrupt.extend_from_slice(&buf[1..]); // original count was 1 byte (6 events)
        let err = read_frame(&mut Reader::new(&corrupt)).unwrap_err().to_string();
        assert!(err.contains("short buffer"), "unexpected error: {err}");
    }

    #[test]
    fn frames_reject_a_poisoned_count_before_allocating() {
        // A length prefix straight off a socket: the declared count is
        // absurd regardless of how many payload bytes follow, so the
        // absolute cap must fire first — no allocation, no dependence on
        // the buffer the peer chose to send.
        let mut poisoned = Vec::new();
        put_varint(&mut poisoned, 1u64 << 40);
        let err = read_frame(&mut Reader::new(&poisoned)).unwrap_err().to_string();
        assert!(err.contains("cap is"), "unexpected error: {err}");

        // Exactly at the cap the absolute guard stays quiet and the
        // relative bytes-remaining guard takes over.
        let mut at_cap = Vec::new();
        put_varint(&mut at_cap, MAX_FRAME_EVENTS as u64);
        let err = read_frame(&mut Reader::new(&at_cap)).unwrap_err().to_string();
        assert!(err.contains("short buffer"), "unexpected error: {err}");
    }

    #[test]
    fn poisoned_header_lengths_are_rejected_in_both_versions() {
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_trace(&t, &mut v1).unwrap();
        write_trace_v2(&t, &mut v2).unwrap();
        for buf in [v1, v2] {
            // Rewrite the header-length varint to a multi-GB claim; the
            // reader must reject it on the declared value alone.
            let mut corrupt = buf[..12].to_vec();
            put_varint(&mut corrupt, (MAX_HEADER_BYTES as u64) + 1);
            let mut pos = 12;
            let orig_len = get_varint(&buf, &mut pos).unwrap();
            corrupt.extend_from_slice(&buf[12 + varint_len(orig_len)..]);
            let err = read_trace(&corrupt[..]).unwrap_err().to_string();
            assert!(err.contains("cap is"), "unexpected error: {err}");
        }
    }

    #[test]
    fn declared_event_counts_stop_at_the_row_cap() {
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_trace(&t, &mut v1).unwrap();
        write_trace_v2(&t, &mut v2).unwrap();
        for buf in [v1, v2] {
            // Rewrite the event-count varint that follows the header.
            let mut pos = 12;
            let header_len = get_varint(&buf, &mut pos).unwrap() as usize;
            let count_at = pos + header_len;
            let mut rest = count_at;
            get_varint(&buf, &mut rest).unwrap();
            let with_count = |n: usize| {
                let mut corrupt = buf[..count_at].to_vec();
                put_varint(&mut corrupt, n as u64);
                corrupt.extend_from_slice(&buf[rest..]);
                read_trace(&corrupt[..]).unwrap_err().to_string()
            };
            // Past the cap the declared value alone is refused; at the cap
            // the absolute guard stays quiet and a relative one (the short
            // buffer, the index total) refuses it, before any allocation.
            let err = with_count(MAX_DECLARED_EVENTS + 1);
            assert!(err.contains("cap is"), "unexpected error: {err}");
            let err = with_count(MAX_DECLARED_EVENTS);
            assert!(!err.contains("cap is"), "unexpected error: {err}");
            assert!(err.contains(&MAX_DECLARED_EVENTS.to_string()), "unexpected error: {err}");
        }
    }

    fn varint_len(v: u64) -> usize {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf.len()
    }

    fn big_trace(n: usize) -> TraceFile {
        let mut t = sample_trace();
        for i in 0..n as u64 {
            t.events.push(&TraceEvent::LoadMissSample {
                time: 2.5 + i as f64 * 1e-5,
                address: (1 << 44) + i * 64,
                latency_cycles: 250.0 + (i % 7) as f64,
                function: FuncId((i % 5) as u16),
            });
        }
        t.duration = 2.5 + n as f64 * 1e-5 + 1.0;
        t
    }

    #[test]
    fn v2_round_trips_and_matches_v1() {
        let t = big_trace(20_000); // > 2 buckets
        let mut v1 = Vec::new();
        write_trace(&t, &mut v1).unwrap();
        let mut v2 = Vec::new();
        write_trace_v2(&t, &mut v2).unwrap();
        assert_eq!(read_trace(&v2[..]).unwrap(), read_trace(&v1[..]).unwrap());
    }

    #[test]
    fn trace_buf_decodes_buckets_lazily_and_consistently() {
        let t = big_trace(20_000);
        let mut v2 = Vec::new();
        write_trace_v2(&t, &mut v2).unwrap();
        let buf = TraceBuf::from_bytes(v2).unwrap();
        assert_eq!(buf.event_count(), t.events.len());
        assert!(buf.bucket_count() >= 2, "want multiple buckets");
        assert_eq!(buf.header().app_name, t.app_name);
        assert!(buf.header().events.is_empty());

        // Per-bucket decode, concatenated, equals the full decode — and
        // buckets decode independently, in any order.
        let mut concat = EventBatch::default();
        for i in (0..buf.bucket_count()).rev() {
            buf.bucket(i).unwrap();
        }
        for i in 0..buf.bucket_count() {
            concat.append(&buf.bucket(i).unwrap());
        }
        assert_eq!(concat, buf.to_trace_file().unwrap().events);
    }

    #[test]
    fn trace_buf_rejects_v1_files_with_a_clear_error() {
        let mut v1 = Vec::new();
        write_trace(&sample_trace(), &mut v1).unwrap();
        let err = TraceBuf::from_bytes(v1).unwrap_err().to_string();
        assert!(err.contains("version 1"), "unexpected error: {err}");
        assert!(err.contains("read_trace"), "should point at the eager reader: {err}");
    }

    #[test]
    fn v2_rejects_truncation_anywhere() {
        let t = big_trace(10_000);
        let mut v2 = Vec::new();
        write_trace_v2(&t, &mut v2).unwrap();
        for cut in [10, 13, 40, v2.len() / 2, v2.len() - 1] {
            assert!(TraceBuf::from_bytes(v2[..cut].to_vec()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn v2_rejects_corrupt_section_index() {
        let t = big_trace(10_000);
        let mut v2 = Vec::new();
        write_trace_v2(&t, &mut v2).unwrap();
        let ok = TraceBuf::from_bytes(v2.clone()).unwrap();
        assert!(ok.bucket_count() >= 2);

        // Locate the start of the index: magic+version, header, two varints.
        let mut pos = 12usize;
        let hlen = get_varint(&v2, &mut pos).unwrap() as usize;
        pos += hlen;
        let _n_events = get_varint(&v2, &mut pos).unwrap();
        let _n_buckets = get_varint(&v2, &mut pos).unwrap();
        let index_at = pos;

        // Hostile per-bucket event count: more events than half the bucket
        // bytes can hold.
        let mut bad = v2.clone();
        let mut w = Vec::new();
        put_varint(&mut w, u64::MAX >> 2);
        bad.splice(index_at..index_at + 1, w); // count varint was 2 bytes (8192)
        let err = TraceBuf::from_bytes(bad).unwrap_err().to_string();
        assert!(err.contains("events in"), "unexpected error: {err}");

        // Hostile byte length: sections no longer tile the payload.
        let mut pos2 = index_at;
        let _count = get_varint(&v2, &mut pos2).unwrap();
        let len_at = pos2;
        let len_end = {
            let mut p = pos2;
            get_varint(&v2, &mut p).unwrap();
            p
        };
        let mut bad = v2.clone();
        let mut w = Vec::new();
        put_varint(&mut w, u64::MAX >> 1);
        bad.splice(len_at..len_end, w);
        assert!(TraceBuf::from_bytes(bad).is_err(), "oversized section accepted");

        // Shrunken length: sections end before the file does.
        let mut bad = v2.clone();
        let mut w = Vec::new();
        put_varint(&mut w, 0);
        bad.splice(len_at..len_end, w);
        assert!(TraceBuf::from_bytes(bad).is_err(), "short section accepted");
    }

    #[test]
    fn v2_handles_the_empty_trace() {
        let mut v2 = Vec::new();
        write_trace_v2(&sample_trace().header(), &mut v2).unwrap();
        let buf = TraceBuf::from_bytes(v2).unwrap();
        assert_eq!(buf.event_count(), 0);
        assert_eq!(buf.bucket_count(), 0);
        assert!(buf.to_trace_file().unwrap().events.is_empty());
    }

    #[test]
    fn v1_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        let len = buf.len();
        buf.extend_from_slice(b"garbage");
        let err = read_trace(&buf[..]).unwrap_err().to_string();
        assert!(err.contains(&format!("ends at byte {len}, file has {}", len + 7)), "{err}");
    }

    #[test]
    fn every_v2_reader_rejects_a_bucket_with_an_undecoded_tail() {
        // One byte appended to the last bucket's payload, with that
        // bucket's indexed length raised to cover it: the index still
        // tiles the file, but the bucket's events end one byte short.
        let t = big_trace(20_000);
        let mut v2 = Vec::new();
        write_trace_v2(&t, &mut v2).unwrap();
        let mut pos = 12usize;
        pos += get_varint(&v2, &mut pos).unwrap() as usize;
        get_varint(&v2, &mut pos).unwrap();
        let n_buckets = get_varint(&v2, &mut pos).unwrap();
        for _ in 1..n_buckets {
            for _ in 0..3 {
                get_varint(&v2, &mut pos).unwrap();
            }
        }
        get_varint(&v2, &mut pos).unwrap();
        let (len_at, mut len_end) = (pos, pos);
        let len = get_varint(&v2, &mut len_end).unwrap();
        let mut longer = Vec::new();
        put_varint(&mut longer, len + 1);
        v2.splice(len_at..len_end, longer);
        v2.push(0);

        let buf = TraceBuf::from_bytes(v2.clone()).expect("the index itself is consistent");
        let last = buf.bucket_count() - 1;
        let want = format!("bucket {last} decoded {len} of {} payload bytes", len + 1);
        for err in [
            buf.bucket(last).unwrap_err(),
            buf.to_trace_file().unwrap_err(),
            read_trace(&v2[..]).unwrap_err(),
        ] {
            assert_eq!(err.to_string(), format!("malformed trace: {want}"));
        }
    }
}
