//! The trace JSON codec: `memtrace::jsonio` writes through
//! `ecohmem_obs::json::JsonWriter` and reads through one pull decoder,
//! with no `Json` tree in between. These tests pin that this changed
//! nothing a reader of the files can see: the writer prints the bytes the
//! tree printed, decoding gives back equal values, malformed texts keep
//! their error strings, and the serve interner keys a Hello header by its
//! two tables alone.

use ecohmem_obs::Json;
use ecohmem_serve::core::{ServeConfig, ServiceCore};
use memsim::AppModel;
use memtrace::{
    BinaryMapBuilder, CallStack, EventBatch, FaultKind, FaultSpec, Frame as StackFrame, FuncId,
    ModuleId, ObjectId, SiteId, TraceEvent, TraceFile,
};

/// The `Json` tree of a trace in the schema's field order: the reference
/// the streaming writer must match byte for byte.
fn tree_of(t: &TraceFile) -> Json {
    let stack = |s: &CallStack| {
        let frames = s.frames().iter().map(|f| {
            Json::obj(vec![
                ("module", Json::U64(u64::from(f.module.0))),
                ("offset", Json::U64(f.offset)),
            ])
        });
        Json::obj(vec![("frames", Json::Arr(frames.collect()))])
    };
    let modules = t.binmap.modules().iter().map(|m| {
        let lines = m.line_table.iter().map(|e| {
            Json::obj(vec![
                ("start", Json::U64(e.start)),
                ("end", Json::U64(e.end)),
                ("file", Json::U64(u64::from(e.file))),
                ("line", Json::U64(u64::from(e.line))),
            ])
        });
        Json::obj(vec![
            ("id", Json::U64(u64::from(m.id.0))),
            ("name", Json::str(m.name.clone())),
            ("text_size", Json::U64(m.text_size)),
            ("debug_info_size", Json::U64(m.debug_info_size)),
            ("files", Json::Arr(m.files.iter().map(|f| Json::str(f.clone())).collect())),
            ("line_table", Json::Arr(lines.collect())),
        ])
    });
    let events = t.events.iter_events().map(|e| {
        let (tag, body) = match e {
            TraceEvent::Alloc { time, object, site, size, address } => (
                "Alloc",
                vec![
                    ("time", Json::f64(time)),
                    ("object", Json::U64(object.0)),
                    ("site", Json::U64(u64::from(site.0))),
                    ("size", Json::U64(size)),
                    ("address", Json::U64(address)),
                ],
            ),
            TraceEvent::Free { time, object } => {
                ("Free", vec![("time", Json::f64(time)), ("object", Json::U64(object.0))])
            }
            TraceEvent::LoadMissSample { time, address, latency_cycles, function } => (
                "LoadMissSample",
                vec![
                    ("time", Json::f64(time)),
                    ("address", Json::U64(address)),
                    ("latency_cycles", Json::f64(latency_cycles)),
                    ("function", Json::U64(u64::from(function.0))),
                ],
            ),
            TraceEvent::StoreSample { time, address, l1d_miss, function } => (
                "StoreSample",
                vec![
                    ("time", Json::f64(time)),
                    ("address", Json::U64(address)),
                    ("l1d_miss", Json::Bool(l1d_miss)),
                    ("function", Json::U64(u64::from(function.0))),
                ],
            ),
            TraceEvent::PhaseMarker { time, phase } => (
                "PhaseMarker",
                vec![("time", Json::f64(time)), ("phase", Json::U64(u64::from(phase)))],
            ),
        };
        Json::obj(vec![(tag, Json::obj(body))])
    });
    Json::obj(vec![
        ("app_name", Json::str(t.app_name.clone())),
        ("seed", Json::U64(t.seed)),
        ("ranks", Json::U64(u64::from(t.ranks))),
        ("sampling_hz", Json::f64(t.sampling_hz)),
        ("load_sample_period", Json::f64(t.load_sample_period)),
        ("store_sample_period", Json::f64(t.store_sample_period)),
        ("duration", Json::f64(t.duration)),
        (
            "stacks",
            Json::Arr(
                t.stacks
                    .iter()
                    .map(|(site, s)| Json::Arr(vec![Json::U64(u64::from(site.0)), stack(s)]))
                    .collect(),
            ),
        ),
        ("binmap", Json::obj(vec![("modules", Json::Arr(modules.collect()))])),
        ("events", Json::Arr(events.collect())),
    ])
}

/// Every shipped model: the paper's seven applications and PhaseShift.
fn shipped_models() -> Vec<AppModel> {
    let mut models = workloads::all_models();
    models.push(workloads::phaseshift::model());
    models
}

/// The events-free header a tenant of `model` sends in its Hello.
fn header_of(model: &AppModel) -> TraceFile {
    TraceFile {
        app_name: model.name.clone(),
        seed: 7,
        ranks: model.ranks,
        sampling_hz: 1000.0,
        load_sample_period: 1000.0,
        store_sample_period: 5000.0,
        duration: 12.5,
        stacks: model.sites.clone(),
        binmap: model.binmap.clone(),
        events: EventBatch::default(),
    }
}

fn small_trace() -> TraceFile {
    let mut b = BinaryMapBuilder::new();
    b.add_module("app", 4096, 512, vec!["main.c".into(), "solver.c".into()]);
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
            latency_cycles: 412.5,
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
        app_name: "corpus".into(),
        seed: 9,
        ranks: 1,
        sampling_hz: 100.0,
        load_sample_period: 10.0,
        store_sample_period: 20.0,
        duration: 3.0,
        stacks: vec![(SiteId(0), CallStack::new(vec![StackFrame::new(ModuleId(0), 0x40)]))],
        binmap: b.build(),
        events: EventBatch::from_events(&events),
    }
}

/// `base` with the first `from` replaced by `to`; the pattern must occur.
fn edit(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "{from:?} is not in the trace text");
    base.replacen(from, to, 1)
}

/// Damaged and rearranged copies of a trace's JSON text.
fn corpus(base: &str) -> Vec<(&'static str, String)> {
    let entry = base.find("\"line_table\":[{\"start\":").expect("a line table") + 23;
    let deep = format!("{{\"deep\":{}{},", "[".repeat(200), "]".repeat(200));
    vec![
        ("truncated", base[..base.len() / 2].to_string()),
        ("truncated in a line entry", base[..entry].to_string()),
        ("truncated in an event", base[..base.len() - 12].to_string()),
        ("wrong type", edit(base, "\"seed\":9", "\"seed\":\"9\"")),
        ("wrong type in a line entry", edit(base, "\"file\":0,\"line\"", "\"file\":-1,\"line\"")),
        ("wrong type in a frame", edit(base, "\"offset\":64", "\"offset\":6.5")),
        ("missing field", edit(base, "\"duration\":3.0,", "")),
        ("missing event field", edit(base, "{\"time\":2.5,\"object\":1}", "{\"time\":2.5}")),
        ("unknown event variant", edit(base, "PhaseMarker", "Marker")),
        ("two variant tags", edit(base, "{\"Free\":", "{\"Free\":{},\"Free\":")),
        ("out of range", edit(base, "\"ranks\":1", "\"ranks\":4294967296")),
        ("module id out of range", edit(base, "\"module\":0", "\"module\":65536")),
        ("stack entry not a pair", edit(base, "[0,{\"frames\"", "[0,1,{\"frames\"")),
        ("nesting past the limit", edit(base, "{", &deep)),
        ("not an object", "[1,2]".to_string()),
        ("empty", String::new()),
        ("trailing characters", format!("{base} x")),
        (
            "syntax error after a schema error",
            edit(&format!("{base} x"), "\"seed\":9", "\"seed\":\"9\""),
        ),
        (
            "two schema errors",
            edit(&edit(base, "\"duration\":3.0,", ""), "\"seed\":9", "\"seed\":\"9\""),
        ),
        (
            "a late field outranked by an early one",
            edit(&edit(base, "\"app_name\":\"corpus\"", "\"app_name\":7"), "\"ranks\":1,", ""),
        ),
        ("bad escape", edit(base, "\"corpus\"", "\"cor\\qpus\"")),
        ("unknown field", edit(base, "{", "{\"note\":{\"a\":[1,{\"b\":null}],\"c\":\"\\u00e9\"},")),
        ("repeated field", edit(base, "{", "{\"seed\":10,")),
        ("fields in any order", {
            let mut t = edit(base, "\"app_name\":\"corpus\",", "");
            t.insert_str(t.len() - 1, ",\"app_name\":\"corpus\"");
            let binmap = t.find("\"binmap\"").expect("a binmap");
            let stacks = t.find("\"stacks\"").expect("a stack table");
            let moved = t[stacks..binmap].to_string();
            t.replacen(&moved, "", 1).replacen("{", &format!("{{{moved}"), 1)
        }),
    ]
}

#[test]
fn the_writer_prints_what_the_tree_prints_for_every_shipped_header() {
    for model in shipped_models() {
        let header = header_of(&model);
        let text = header.to_json().unwrap();
        assert!(text == tree_of(&header).to_string_compact(), "{}: bytes differ", model.name);
        let back = TraceFile::from_json(&text).unwrap();
        assert_eq!(back, header, "{}: decode round trip", model.name);
    }
}

#[test]
fn the_writer_prints_what_the_tree_prints_for_a_fault_injected_trace() {
    let mut trace = small_trace();
    let mut more = trace.events.clone();
    // A NaN time and an orphan free: the damage lenient readers repair.
    more.push(&TraceEvent::PhaseMarker { time: f64::NAN, phase: 1 });
    trace.events = more;
    let warnings =
        FaultSpec::with_seed(FaultKind::FreeBeforeAlloc, 1.0, 3).apply_to_trace(&mut trace);
    assert!(!warnings.is_empty(), "the injector changed the trace");
    let text = trace.to_json().unwrap();
    assert_eq!(text, tree_of(&trace).to_string_compact());
    let back = TraceFile::from_json(&text).unwrap();
    // NaN != NaN, so compare through the text.
    assert_eq!(back.to_json().unwrap(), text);
    assert_eq!(back.events.len(), trace.events.len());
}

#[test]
fn decoding_gives_back_equal_values() {
    let trace = small_trace();
    assert_eq!(TraceFile::from_json(&trace.to_json().unwrap()).unwrap(), trace);
    let (lenient, warnings) = TraceFile::from_json_lenient(&trace.to_json().unwrap()).unwrap();
    assert_eq!((lenient, warnings.len()), (trace.clone(), 0));
    for e in trace.events.iter_events() {
        assert_eq!(memtrace::event_from_json(&memtrace::event_to_json(&e)).unwrap(), e);
    }
}

/// Error strings of each corpus text as `TraceFile::from_json` and
/// `TraceFile::from_json_lenient` report them; recorded from the codec
/// that decoded through a full `Json` tree.
const EXPECTED: [(&str, &str, &str); 24] = [
        ("truncated", "trace parse error at line 1 column 1741: unterminated string at line 1 column 1741", "trace parse error at line 1 column 1741: unterminated string at line 1 column 1741"),
        ("truncated in a line entry", "trace parse error at line 1 column 316: unexpected end of input at line 1 column 316", "trace parse error at line 1 column 316: unexpected end of input at line 1 column 316"),
        ("truncated in an event", "trace parse error at line 1 column 3469: unterminated string at line 1 column 3469", "ok 4 events 1 warnings"),
        ("wrong type", "trace parse error at line 0 column 0: field `seed` is not an unsigned integer at line 0 column 0", "trace parse error at line 0 column 0: field `seed` is not an unsigned integer at line 0 column 0"),
        ("wrong type in a line entry", "trace parse error at line 0 column 0: field `file` is not an unsigned integer at line 0 column 0", "trace parse error at line 0 column 0: field `file` is not an unsigned integer at line 0 column 0"),
        ("wrong type in a frame", "trace parse error at line 0 column 0: field `offset` is not an unsigned integer at line 0 column 0", "trace parse error at line 0 column 0: field `offset` is not an unsigned integer at line 0 column 0"),
        ("missing field", "trace parse error at line 0 column 0: missing field `duration` at line 0 column 0", "trace parse error at line 0 column 0: missing field `duration` at line 0 column 0"),
        ("missing event field", "trace parse error at line 0 column 0: missing field `object` at line 0 column 0", "trace parse error at line 0 column 0: missing field `object` at line 0 column 0"),
        ("unknown event variant", "trace parse error at line 0 column 0: unknown event variant `Marker` at line 0 column 0", "trace parse error at line 0 column 0: unknown event variant `Marker` at line 0 column 0"),
        ("two variant tags", "trace parse error at line 0 column 0: event must have exactly one variant tag at line 0 column 0", "trace parse error at line 0 column 0: event must have exactly one variant tag at line 0 column 0"),
        ("out of range", "trace parse error at line 0 column 0: ranks out of range at line 0 column 0", "trace parse error at line 0 column 0: ranks out of range at line 0 column 0"),
        ("module id out of range", "trace parse error at line 0 column 0: module id out of range at line 0 column 0", "trace parse error at line 0 column 0: module id out of range at line 0 column 0"),
        ("stack entry not a pair", "trace parse error at line 0 column 0: stack table entry must be a [site, stack] pair at line 0 column 0", "trace parse error at line 0 column 0: stack table entry must be a [site, stack] pair at line 0 column 0"),
        ("nesting past the limit", "trace parse error at line 1 column 137: nesting too deep at line 1 column 137", "trace parse error at line 1 column 137: nesting too deep at line 1 column 137"),
        ("not an object", "trace parse error at line 0 column 0: missing field `ranks` at line 0 column 0", "trace parse error at line 0 column 0: missing field `ranks` at line 0 column 0"),
        ("empty", "trace parse error at line 1 column 1: unexpected end of input at line 1 column 1", "trace parse error at line 1 column 1: unexpected end of input at line 1 column 1"),
        ("trailing characters", "trace parse error at line 1 column 3482: trailing characters after document at line 1 column 3482", "trace parse error at line 1 column 3482: trailing characters after document at line 1 column 3482"),
        ("syntax error after a schema error", "trace parse error at line 1 column 3484: trailing characters after document at line 1 column 3484", "trace parse error at line 1 column 3484: trailing characters after document at line 1 column 3484"),
        ("two schema errors", "trace parse error at line 0 column 0: field `seed` is not an unsigned integer at line 0 column 0", "trace parse error at line 0 column 0: field `seed` is not an unsigned integer at line 0 column 0"),
        ("a late field outranked by an early one", "trace parse error at line 0 column 0: missing field `ranks` at line 0 column 0", "trace parse error at line 0 column 0: missing field `ranks` at line 0 column 0"),
        ("bad escape", r#"trace parse error at line 1 column 19: bad escape '\q' at line 1 column 19"#, r#"trace parse error at line 1 column 19: bad escape '\q' at line 1 column 19"#),
        ("unknown field", "ok 5 events", "ok 5 events 0 warnings"),
        ("repeated field", "ok 5 events", "ok 5 events 0 warnings"),
        ("fields in any order", "ok 5 events", "ok 5 events 0 warnings"),
];

#[test]
fn malformed_texts_keep_their_exact_error_strings() {
    let base = small_trace().to_json().unwrap();
    let corpus = corpus(&base);
    assert_eq!(corpus.len(), EXPECTED.len());
    for ((name, text), (want_name, strict, lenient)) in corpus.iter().zip(EXPECTED) {
        assert_eq!(*name, want_name);
        let got = match TraceFile::from_json(text) {
            Ok(t) => format!("ok {} events", t.events.len()),
            Err(e) => e.to_string(),
        };
        assert_eq!(got, strict, "{name}: strict");
        let got = match TraceFile::from_json_lenient(text) {
            Ok((t, w)) => format!("ok {} events {} warnings", t.events.len(), w.len()),
            Err(e) => e.to_string(),
        };
        assert_eq!(got, lenient, "{name}: lenient");
    }
}

#[test]
fn rearranged_and_annotated_texts_decode_to_the_same_trace() {
    let trace = small_trace();
    let base = trace.to_json().unwrap();
    for (name, text) in corpus(&base) {
        if ["unknown field", "fields in any order"].contains(&name) {
            assert_eq!(TraceFile::from_json(&text).unwrap(), trace, "{name}");
        }
    }
}

#[test]
fn headers_that_differ_only_in_run_metadata_intern_to_one_table() {
    let core = ServiceCore::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    let model = workloads::minife::model();
    let a = header_of(&model);
    let b = TraceFile { duration: 99.0, seed: 8, ..header_of(&model) };
    let c = TraceFile { load_sample_period: 1.0, store_sample_period: 2.0, ..header_of(&model) };
    // Each tenant decodes its own header: equal tables, distinct images.
    let decode = |t: &TraceFile| TraceFile::from_json(&t.to_json().unwrap()).unwrap();
    let mut sessions = Vec::new();
    for (name, header) in [("a", &a), ("b", &b), ("c", &c)] {
        sessions.push(core.register(name, &decode(header)).unwrap());
    }
    assert_eq!(core.interned_tables(), 1, "one table for three run metadata variants");
    assert_eq!(core.intern_hits(), 2);
    // A different stack table is a different entry.
    let mut d = header_of(&model);
    d.stacks.truncate(1);
    sessions.push(core.register("d", &d).unwrap());
    assert_eq!(core.interned_tables(), 2);
    drop(sessions);
    core.shutdown();
}
