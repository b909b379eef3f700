//! A deterministic no-panic sweep over every decoder of untrusted bytes.
//!
//! One encoded instance of each input — a v1 and a v2 binary trace, the
//! JSON trace text (strict and lenient), the serve protocol's Hello,
//! Events, Revisions and Error frames, a journal record and the committed
//! ingest checkpoint fixture — is cut at every
//! byte, has each bit flipped, and has each byte set to 0x00, 0x7f, 0x80
//! and 0xff. Every decode must return `Ok` or `Err`; a panic fails the
//! test. Single-byte mutations cannot build a 10-byte varint, so the
//! overflow and narrowing cases that need one are unit tests beside
//! their decoders (`binfmt`, `proto`, `journal`).
//!
//! The frame decoders also decode into a recycled batch
//! (`binfmt::read_frame_into`, `proto::decode_with`). Over the same
//! mutations, each starts from a batch that holds rows of every kind and
//! must give exactly what the fresh decoder gives: the same frame or the
//! same error.

use ecohmem_online::durability::codec::{decode_advisor, decode_ingestor};
use ecohmem_online::durability::Record;
use ecohmem_online::PlacementRevision;
use ecohmem_serve::proto::{self, encode, encode_header, Frame, FrameReader, Mode, PROTO_VERSION};
use memtrace::binfmt;
use memtrace::wire::Reader;
use memtrace::{
    BinaryMap, CallStack, EventBatch, Frame as StackFrame, FuncId, ModuleId, ObjectId, SiteId,
    TierId, TraceEvent, TraceFile,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn trace() -> TraceFile {
    let events = [
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
        TraceEvent::Free { time: 2.5, object: ObjectId(1) },
    ];
    TraceFile {
        app_name: "sweep".into(),
        seed: 9,
        ranks: 1,
        sampling_hz: 100.0,
        load_sample_period: 10.0,
        store_sample_period: 20.0,
        duration: 3.0,
        stacks: vec![(SiteId(0), CallStack::new(vec![StackFrame::new(ModuleId(0), 0x40)]))],
        binmap: BinaryMap::default(),
        events: EventBatch::from_events(&events),
    }
}

type Decode = fn(&[u8]) -> bool;

fn read_trace(b: &[u8]) -> bool {
    memtrace::read_trace(b).is_ok()
}

/// A mutation that is not UTF-8 is read lossily, as the tools' lenient
/// path reads a trace file.
fn read_json(b: &[u8]) -> bool {
    TraceFile::from_json(&String::from_utf8_lossy(b)).is_ok()
}

fn read_json_lenient(b: &[u8]) -> bool {
    TraceFile::from_json_lenient(&String::from_utf8_lossy(b)).is_ok()
}

fn read_frame(b: &[u8]) -> bool {
    matches!(proto::read_frame_from(&mut std::io::Cursor::new(b)), Ok(Some(_)))
}

fn read_record(b: &[u8]) -> bool {
    Record::decode(b).is_ok()
}

fn read_checkpoint(b: &[u8]) -> bool {
    let mut r = Reader::new(b);
    decode_ingestor(&mut r).is_ok()
        && decode_advisor(&mut r).is_ok()
        && r.expect_end(|_, _| String::new()).is_ok()
}

/// Every mutated copy of `bytes` the sweep decodes.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|k| bytes[..k].to_vec());
    let flips = (0..bytes.len() * 8).map(|b| {
        let mut m = bytes.to_vec();
        m[b / 8] ^= 1 << (b % 8);
        m
    });
    let sets = (0..bytes.len() * 4).map(|k| {
        let mut m = bytes.to_vec();
        m[k / 4] = [0x00, 0x7f, 0x80, 0xff][k % 4];
        m
    });
    cuts.chain(flips).chain(sets)
}

/// One encoded wire frame of each kind the sweep mutates.
fn wire_frames(t: &TraceFile) -> [(&'static str, Vec<u8>); 4] {
    let hello = encode(&Frame::Hello {
        version: PROTO_VERSION,
        tenant: "t0".into(),
        mode: Mode::Bin,
        header: encode_header(&t.header()).unwrap(),
    });
    let revision = |epoch, site| PlacementRevision {
        epoch,
        time: 0.75,
        site: SiteId(site),
        from: TierId::PMEM,
        to: TierId::DRAM,
    };
    [
        ("Hello frame", hello),
        ("Events frame", encode(&Frame::Events(t.events.clone()))),
        ("Revisions frame", encode(&Frame::Revisions(vec![revision(1, 0), revision(2, 300)]))),
        ("Error frame", encode(&Frame::Error { message: "no room".into() })),
    ]
}

#[test]
fn no_decoder_panics_on_a_cut_flipped_or_overwritten_byte() {
    let t = trace();
    let (mut v1, mut v2) = (Vec::new(), Vec::new());
    memtrace::write_trace(&t, &mut v1).unwrap();
    memtrace::write_trace_v2(&t, &mut v2).unwrap();
    let json = t.to_json().unwrap().into_bytes();
    let [hello, events, revisions, error] = wire_frames(&t).map(|(_, bytes)| bytes);
    let inputs: [(&str, Vec<u8>, Decode); 10] = [
        ("v1 trace", v1, read_trace),
        ("v2 trace", v2, read_trace),
        ("JSON trace", json.clone(), read_json),
        ("JSON trace, lenient", json, read_json_lenient),
        ("Hello frame", hello, read_frame),
        ("Events frame", events, read_frame),
        ("Revisions frame", revisions, read_frame),
        ("Error frame", error, read_frame),
        ("journal record", Record::Events(t.events.clone()).encode(), read_record),
        (
            "checkpoint fixture",
            include_bytes!("../crates/online/tests/fixtures/ingest_checkpoint.bin").to_vec(),
            read_checkpoint,
        ),
    ];

    let (mut cases, mut panics) = (0usize, Vec::new());
    for (name, bytes, decode) in &inputs {
        assert!(decode(bytes), "the unmutated {name} decodes");
        for (i, m) in mutations(bytes).enumerate() {
            cases += 1;
            if catch_unwind(AssertUnwindSafe(|| decode(&m))).is_err() {
                panics.push(format!("{name} mutation {i}: {m:02x?}"));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {cases} cases panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    assert!(cases > 10_000, "the sweep ran {cases} cases");
}

/// A batch that last held other frames: rows of every kind, more of them
/// than the swept frames carry.
fn dirty_batch() -> EventBatch {
    let mut batch = trace().events;
    for _ in 0..3 {
        let copy = batch.clone();
        batch.append(&copy);
    }
    batch
}

/// A frame decoder run fresh (`None`) or into a copy of a given batch,
/// with its result as text.
type DecodeInto = fn(&[u8], Option<&EventBatch>) -> String;

/// The first frame a [`FrameReader`] decodes from `bytes`, decoded into a
/// copy of `storage` when one is given, as text: the frame's every column
/// or the error.
fn first_frame(bytes: &[u8], storage: Option<&EventBatch>) -> String {
    let mut reader = FrameReader::new();
    let fill = reader.fill_from(&mut &bytes[..]);
    let frame = match storage {
        None => reader.next_frame(),
        Some(batch) => reader.next_frame_with(|| batch.clone()),
    };
    format!("{fill:?} {frame:?}")
}

/// `binfmt`'s frame decoder on `bytes`, into a copy of `storage` when one
/// is given, as text.
fn binfmt_frame(bytes: &[u8], storage: Option<&EventBatch>) -> String {
    let mut r = Reader::new(bytes);
    let decoded = match storage {
        None => binfmt::read_frame(&mut r),
        Some(batch) => {
            let mut batch = batch.clone();
            binfmt::read_frame_into(&mut r, &mut batch).map(|()| batch)
        }
    };
    format!("{decoded:?} at {}", r.pos())
}

#[test]
fn decoding_into_a_dirty_batch_matches_the_fresh_decoder_on_every_mutation() {
    let t = trace();
    let dirty = dirty_batch();
    let mut raw = Vec::new();
    binfmt::write_frame(&t.events, &mut raw);
    let mut inputs: Vec<(&str, Vec<u8>, DecodeInto)> =
        wire_frames(&t).into_iter().map(|(name, bytes)| (name, bytes, first_frame as _)).collect();
    inputs.push(("binfmt frame", raw, binfmt_frame));

    let (mut cases, mut diffs) = (0usize, Vec::new());
    for (name, bytes, decode) in &inputs {
        for (i, m) in std::iter::once(bytes.clone()).chain(mutations(bytes)).enumerate() {
            cases += 1;
            let fresh = catch_unwind(AssertUnwindSafe(|| decode(&m, None)));
            let recycled = catch_unwind(AssertUnwindSafe(|| decode(&m, Some(&dirty))));
            match (fresh, recycled) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(a), Ok(b)) => diffs.push(format!("{name} case {i}: {a} against {b}")),
                _ => diffs.push(format!("{name} case {i} panicked: {m:02x?}")),
            }
        }
    }
    assert!(diffs.is_empty(), "{} of {cases} cases differ:\n{}", diffs.len(), diffs.join("\n"));
    assert!(cases > 5_000, "the sweep ran {cases} cases");
}
