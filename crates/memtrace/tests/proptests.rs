//! Property tests over memtrace's formats: any structurally-valid trace or
//! report must survive every supported encoding.

use memtrace::{
    read_trace, write_trace, BinaryMap, BinaryMapBuilder, CallStack, EventBatch, FaultKind,
    FaultSpec, Frame, FuncId, ModuleId, ObjectId, PlacementReport, ReportEntry, ReportStack,
    SiteId, StackFormat, TierId, TraceEvent, TraceFile,
};
use proptest::prelude::*;

fn image() -> BinaryMap {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into(), "aux.c".into()]);
    b.add_module("libx.so", 128 * 1024, 2 << 20, vec!["x.c".into()]);
    b.build()
}

/// Generates a structurally valid event stream: allocations with unique
/// ids/addresses, frees only of live objects, samples inside live objects,
/// monotone timestamps.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..4, 0.0f64..1.0, any::<u16>()), 0..60).prop_map(|ops| {
        let mut t = 0.0;
        let mut next_obj = 1u64;
        let mut live: Vec<(u64, u64, u64)> = Vec::new(); // (obj, addr, size)
        let mut cursor = 1u64 << 44;
        let mut events = Vec::new();
        for (kind, dt, salt) in ops {
            t += dt;
            match kind {
                0 => {
                    let size = 64 * (u64::from(salt) % 512 + 1);
                    let addr = cursor;
                    cursor += size;
                    events.push(TraceEvent::Alloc {
                        time: t,
                        object: ObjectId(next_obj),
                        site: SiteId(u32::from(salt) % 4),
                        size,
                        address: addr,
                    });
                    live.push((next_obj, addr, size));
                    next_obj += 1;
                }
                1 => {
                    if !live.is_empty() {
                        let (obj, _, _) = live.remove(usize::from(salt) % live.len());
                        events.push(TraceEvent::Free { time: t, object: ObjectId(obj) });
                    }
                }
                2 => {
                    if let Some(&(_, addr, size)) = live.first() {
                        events.push(TraceEvent::LoadMissSample {
                            time: t,
                            address: addr + u64::from(salt) % size / 64 * 64,
                            latency_cycles: f64::from(salt % 1000) + 90.0,
                            function: FuncId(salt % 8),
                        });
                    }
                }
                _ => {
                    events.push(TraceEvent::PhaseMarker { time: t, phase: u32::from(salt) % 100 });
                }
            }
        }
        events
    })
}

fn trace_with(events: Vec<TraceEvent>) -> TraceFile {
    let duration = events.last().map(|e| e.time() + 1.0).unwrap_or(1.0);
    TraceFile {
        app_name: "prop".into(),
        seed: 7,
        ranks: 2,
        sampling_hz: 100.0,
        load_sample_period: 12.5,
        store_sample_period: 8.0,
        duration,
        stacks: (0..4)
            .map(|i| {
                (
                    SiteId(i),
                    CallStack::new(vec![Frame::new(ModuleId((i % 2) as u16), 64 * u64::from(i))]),
                )
            })
            .collect(),
        binmap: image(),
        events: EventBatch::from_events(&events),
    }
}

/// A valid trace passes validation and survives the JSON and binary
/// encodings (binary with µs timestamp fidelity).
fn check_survives_both_encodings(events: Vec<TraceEvent>) {
    let t = trace_with(events);
    t.validate().unwrap();

    let json = t.to_json().unwrap();
    assert_eq!(&TraceFile::from_json(&json).unwrap(), &t);

    let mut bin = Vec::new();
    write_trace(&t, &mut bin).unwrap();
    let back = read_trace(&bin[..]).unwrap();
    back.validate().unwrap();
    assert_eq!(back.events.len(), t.events.len());
    for (a, b) in t.events.iter_events().zip(back.events.iter_events()) {
        assert!((a.time() - b.time()).abs() < 2e-6);
    }
}

/// The saved failure case in `proptests.proptest-regressions`: two
/// adjacent 64-byte allocations at 2^44. Runs on every build, whichever
/// proptest implementation resolves and whether or not it replays that
/// file.
#[test]
fn adjacent_allocs_survive_both_encodings() {
    check_survives_both_encodings(vec![
        TraceEvent::Alloc {
            time: 0.797570312830688,
            object: ObjectId(1),
            site: SiteId(0),
            size: 64,
            address: 17592186044416,
        },
        TraceEvent::Alloc {
            time: 1.3169581004571467,
            object: ObjectId(2),
            site: SiteId(0),
            size: 64,
            address: 17592186044480,
        },
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid generated traces pass validation and survive the JSON and
    /// binary encodings (binary with µs timestamp fidelity).
    #[test]
    fn traces_survive_both_encodings(events in arb_events()) {
        check_survives_both_encodings(events);
    }

    /// Binary decoding never panics on arbitrary corruption — it returns
    /// errors (or, for payload-only corruption, a decoded trace).
    #[test]
    fn binary_decoder_is_panic_free(
        events in arb_events(),
        flip in 0usize..4096,
        byte in any::<u8>(),
    ) {
        let t = trace_with(events);
        let mut bin = Vec::new();
        write_trace(&t, &mut bin).unwrap();
        if !bin.is_empty() {
            let i = flip % bin.len();
            bin[i] ^= byte;
            let _ = read_trace(&bin[..]); // must not panic
        }
    }

    /// Text report rendering and parsing are inverse for any BOM report
    /// over the image.
    #[test]
    fn text_reports_round_trip(offsets in proptest::collection::hash_set((0u16..2, 0u64..1000), 1..20)) {
        let map = image();
        let mut report = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
        for (i, (m, o)) in offsets.iter().enumerate() {
            report.push(ReportEntry {
                stack: ReportStack::Bom(CallStack::new(vec![Frame::new(
                    ModuleId(*m),
                    o * 64,
                )])),
                tier: if i % 2 == 0 { TierId::DRAM } else { TierId::PMEM },
                max_size: 64 + i as u64,
            });
        }
        let text = report.render_text(&map, |t| {
            if t == TierId::DRAM { "dram".into() } else { "pmem".into() }
        });
        let parsed = memtrace::parse_report(&text, &map, &|n| match n {
            "dram" => Some(TierId::DRAM),
            "pmem" => Some(TierId::PMEM),
            _ => None,
        })
        .unwrap();
        prop_assert_eq!(parsed, report);
    }

    /// Lenient JSON loading never panics on a truncated document: it
    /// either salvages a sanitizable prefix (flagging the truncation) or
    /// returns the original parse error.
    #[test]
    fn lenient_load_survives_truncation(events in arb_events(), keep in 0.0f64..1.0) {
        let t = trace_with(events);
        let json = t.to_json().unwrap();
        let cut = (json.len() as f64 * keep) as usize; // to_json output is ASCII
        if let Ok((mut tr, warnings)) = TraceFile::from_json_lenient(&json[..cut]) {
            prop_assert!(!warnings.is_empty(), "a truncated document must be flagged");
            tr.sanitize();
            prop_assert!(tr.validate().is_ok());
        }
    }

    /// Lenient JSON loading never panics when any byte is corrupted, and
    /// whatever it salvages sanitizes into a valid trace.
    #[test]
    fn lenient_load_survives_byte_corruption(
        events in arb_events(),
        flip in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        let t = trace_with(events);
        let mut raw = t.to_json().unwrap().into_bytes();
        let i = flip % raw.len();
        raw[i] ^= byte;
        let text = String::from_utf8_lossy(&raw);
        if let Ok((mut tr, _)) = TraceFile::from_json_lenient(&text) {
            tr.sanitize();
            prop_assert!(tr.validate().is_ok());
        }
    }

    /// `sanitize` warns exactly when it changed the trace, and always
    /// leaves it valid — under every fault injector at any severity.
    #[test]
    fn sanitize_warns_iff_it_changed_something(
        events in arb_events(),
        kind_idx in 0usize..FaultKind::ALL.len(),
        severity in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut mutated = trace_with(events);
        let spec = FaultSpec::with_seed(FaultKind::ALL[kind_idx], severity, seed);
        spec.apply_to_trace(&mut mutated);
        let before = mutated.clone();
        let warnings = mutated.sanitize();
        prop_assert_eq!(warnings.is_empty(), mutated == before);
        prop_assert!(mutated.validate().is_ok());
    }
}
