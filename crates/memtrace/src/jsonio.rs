//! JSON codecs for the persisted trace artifacts.
//!
//! The on-disk schema deliberately mirrors the derive-style layout the
//! crate has always documented (externally tagged enums, field order =
//! declaration order) so existing tooling and the truncation-repair
//! heuristics in [`crate::trace`] keep working: `events` is the last
//! field of a trace, so a torn write loses trailing events, never
//! metadata. The implementation sits on [`ecohmem_obs::json`], the
//! workspace's zero-dependency JSON layer.
//!
//! Structural problems (missing field, wrong type) are reported as
//! [`JsonError`]s with position 0:0 — the document parsed, so there is no
//! single offending byte to point at.

use crate::binmap::{BinaryMap, LineEntry, ModuleInfo};
use crate::callstack::{CallStack, CodeLocation, Frame, HumanStack, StackFormat};
use crate::columns::EventBatch;
use crate::events::TraceEvent;
use crate::ids::{FuncId, ModuleId, ObjectId, SiteId, TierId};
use crate::report::{PlacementReport, ReportEntry, ReportStack};
use crate::trace::TraceFile;
use ecohmem_obs::json::{Json, JsonError};

fn schema(msg: impl Into<String>) -> JsonError {
    JsonError { line: 0, column: 0, message: msg.into() }
}

fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, JsonError> {
    v.get(k).ok_or_else(|| schema(format!("missing field `{k}`")))
}

fn u64_field(v: &Json, k: &str) -> Result<u64, JsonError> {
    field(v, k)?.as_u64().ok_or_else(|| schema(format!("field `{k}` is not an unsigned integer")))
}

/// Floats read `null` back as NaN: the schema writes non-finite values as
/// `null`, and callers (`validate`/`sanitize`) treat NaN as the damage it
/// is rather than having the parser invent a number.
fn f64_field(v: &Json, k: &str) -> Result<f64, JsonError> {
    field(v, k)?.as_f64().ok_or_else(|| schema(format!("field `{k}` is not a number")))
}

fn str_field<'a>(v: &'a Json, k: &str) -> Result<&'a str, JsonError> {
    field(v, k)?.as_str().ok_or_else(|| schema(format!("field `{k}` is not a string")))
}

fn arr_field<'a>(v: &'a Json, k: &str) -> Result<&'a [Json], JsonError> {
    field(v, k)?.as_arr().ok_or_else(|| schema(format!("field `{k}` is not an array")))
}

fn frame_to_json(f: &Frame) -> Json {
    Json::obj(vec![("module", Json::U64(f.module.0 as u64)), ("offset", Json::U64(f.offset))])
}

fn frame_from_json(v: &Json) -> Result<Frame, JsonError> {
    let module = u64_field(v, "module")?;
    let module = u16::try_from(module).map_err(|_| schema("module id out of range"))?;
    Ok(Frame::new(ModuleId(module), u64_field(v, "offset")?))
}

pub(crate) fn stack_to_json(s: &CallStack) -> Json {
    Json::obj(vec![("frames", Json::Arr(s.frames().iter().map(frame_to_json).collect()))])
}

pub(crate) fn stack_from_json(v: &Json) -> Result<CallStack, JsonError> {
    let frames =
        arr_field(v, "frames")?.iter().map(frame_from_json).collect::<Result<Vec<_>, _>>()?;
    Ok(CallStack::new(frames))
}

fn human_to_json(s: &HumanStack) -> Json {
    Json::obj(vec![(
        "locations",
        Json::Arr(
            s.locations()
                .iter()
                .map(|l| {
                    Json::obj(vec![
                        ("file", Json::str(l.file.clone())),
                        ("line", Json::U64(l.line as u64)),
                    ])
                })
                .collect(),
        ),
    )])
}

fn human_from_json(v: &Json) -> Result<HumanStack, JsonError> {
    let locations = arr_field(v, "locations")?
        .iter()
        .map(|l| {
            let line = u64_field(l, "line")?;
            let line = u32::try_from(line).map_err(|_| schema("line number out of range"))?;
            Ok(CodeLocation::new(str_field(l, "file")?, line))
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(HumanStack::new(locations))
}

/// Encodes one event in the trace schema's externally-tagged layout.
/// Public (re-exported as [`crate::event_to_json`]) so wire protocols
/// layered on the trace schema — the serve daemon's JSONL mode — emit
/// byte-identical event objects.
pub fn event_to_json(e: &TraceEvent) -> Json {
    let (tag, body) = match e {
        TraceEvent::Alloc { time, object, site, size, address } => (
            "Alloc",
            vec![
                ("time", Json::f64(*time)),
                ("object", Json::U64(object.0)),
                ("site", Json::U64(site.0 as u64)),
                ("size", Json::U64(*size)),
                ("address", Json::U64(*address)),
            ],
        ),
        TraceEvent::Free { time, object } => {
            ("Free", vec![("time", Json::f64(*time)), ("object", Json::U64(object.0))])
        }
        TraceEvent::LoadMissSample { time, address, latency_cycles, function } => (
            "LoadMissSample",
            vec![
                ("time", Json::f64(*time)),
                ("address", Json::U64(*address)),
                ("latency_cycles", Json::f64(*latency_cycles)),
                ("function", Json::U64(function.0 as u64)),
            ],
        ),
        TraceEvent::StoreSample { time, address, l1d_miss, function } => (
            "StoreSample",
            vec![
                ("time", Json::f64(*time)),
                ("address", Json::U64(*address)),
                ("l1d_miss", Json::Bool(*l1d_miss)),
                ("function", Json::U64(function.0 as u64)),
            ],
        ),
        TraceEvent::PhaseMarker { time, phase } => {
            ("PhaseMarker", vec![("time", Json::f64(*time)), ("phase", Json::U64(*phase as u64))])
        }
    };
    Json::obj(vec![(tag, Json::obj(body))])
}

/// Decodes one event written by [`event_to_json`].
pub fn event_from_json(v: &Json) -> Result<TraceEvent, JsonError> {
    let Json::Obj(pairs) = v else {
        return Err(schema("event is not an object"));
    };
    let [(tag, body)] = pairs.as_slice() else {
        return Err(schema("event must have exactly one variant tag"));
    };
    let func = |b: &Json| -> Result<FuncId, JsonError> {
        let f = u64_field(b, "function")?;
        Ok(FuncId(u16::try_from(f).map_err(|_| schema("function id out of range"))?))
    };
    match tag.as_str() {
        "Alloc" => {
            let site = u64_field(body, "site")?;
            let site = u32::try_from(site).map_err(|_| schema("site id out of range"))?;
            Ok(TraceEvent::Alloc {
                time: f64_field(body, "time")?,
                object: ObjectId(u64_field(body, "object")?),
                site: SiteId(site),
                size: u64_field(body, "size")?,
                address: u64_field(body, "address")?,
            })
        }
        "Free" => Ok(TraceEvent::Free {
            time: f64_field(body, "time")?,
            object: ObjectId(u64_field(body, "object")?),
        }),
        "LoadMissSample" => Ok(TraceEvent::LoadMissSample {
            time: f64_field(body, "time")?,
            address: u64_field(body, "address")?,
            latency_cycles: f64_field(body, "latency_cycles")?,
            function: func(body)?,
        }),
        "StoreSample" => Ok(TraceEvent::StoreSample {
            time: f64_field(body, "time")?,
            address: u64_field(body, "address")?,
            l1d_miss: field(body, "l1d_miss")?
                .as_bool()
                .ok_or_else(|| schema("field `l1d_miss` is not a bool"))?,
            function: func(body)?,
        }),
        "PhaseMarker" => {
            let phase = u64_field(body, "phase")?;
            Ok(TraceEvent::PhaseMarker {
                time: f64_field(body, "time")?,
                phase: u32::try_from(phase).map_err(|_| schema("phase out of range"))?,
            })
        }
        other => Err(schema(format!("unknown event variant `{other}`"))),
    }
}

fn binmap_to_json(map: &BinaryMap) -> Json {
    Json::obj(vec![(
        "modules",
        Json::Arr(
            map.modules()
                .iter()
                .map(|m| {
                    Json::obj(vec![
                        ("id", Json::U64(m.id.0 as u64)),
                        ("name", Json::str(m.name.clone())),
                        ("text_size", Json::U64(m.text_size)),
                        ("debug_info_size", Json::U64(m.debug_info_size)),
                        (
                            "files",
                            Json::Arr(m.files.iter().map(|f| Json::str(f.clone())).collect()),
                        ),
                        (
                            "line_table",
                            Json::Arr(
                                m.line_table
                                    .iter()
                                    .map(|e| {
                                        Json::obj(vec![
                                            ("start", Json::U64(e.start)),
                                            ("end", Json::U64(e.end)),
                                            ("file", Json::U64(e.file as u64)),
                                            ("line", Json::U64(e.line as u64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

fn binmap_from_json(v: &Json) -> Result<BinaryMap, JsonError> {
    let u32_of =
        |v: u64, what: &str| u32::try_from(v).map_err(|_| schema(format!("{what} out of range")));
    let modules = arr_field(v, "modules")?
        .iter()
        .map(|m| {
            let id = u64_field(m, "id")?;
            let id = u16::try_from(id).map_err(|_| schema("module id out of range"))?;
            let files = arr_field(m, "files")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(String::from)
                        .ok_or_else(|| schema("module file name is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let line_table = arr_field(m, "line_table")?
                .iter()
                .map(|e| {
                    Ok(LineEntry {
                        start: u64_field(e, "start")?,
                        end: u64_field(e, "end")?,
                        file: u32_of(u64_field(e, "file")?, "file index")?,
                        line: u32_of(u64_field(e, "line")?, "line number")?,
                    })
                })
                .collect::<Result<Vec<_>, JsonError>>()?;
            Ok(ModuleInfo {
                id: ModuleId(id),
                name: str_field(m, "name")?.to_string(),
                text_size: u64_field(m, "text_size")?,
                debug_info_size: u64_field(m, "debug_info_size")?,
                files,
                line_table,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(BinaryMap::from_modules(modules))
}

pub(crate) fn trace_to_json(t: &TraceFile) -> Json {
    Json::obj(vec![
        ("app_name", Json::str(t.app_name.clone())),
        ("seed", Json::U64(t.seed)),
        ("ranks", Json::U64(t.ranks as u64)),
        ("sampling_hz", Json::f64(t.sampling_hz)),
        ("load_sample_period", Json::f64(t.load_sample_period)),
        ("store_sample_period", Json::f64(t.store_sample_period)),
        ("duration", Json::f64(t.duration)),
        (
            "stacks",
            Json::Arr(
                t.stacks
                    .iter()
                    .map(|(site, stack)| {
                        Json::Arr(vec![Json::U64(site.0 as u64), stack_to_json(stack)])
                    })
                    .collect(),
            ),
        ),
        ("binmap", binmap_to_json(&t.binmap)),
        // `events` stays the last field: truncation repair depends on a
        // torn write losing only trailing events.
        ("events", Json::Arr(t.events.iter_events().map(|e| event_to_json(&e)).collect())),
    ])
}

pub(crate) fn trace_from_json(v: &Json) -> Result<TraceFile, JsonError> {
    let ranks = u64_field(v, "ranks")?;
    let stacks = arr_field(v, "stacks")?
        .iter()
        .map(|pair| {
            let items = pair.as_arr().ok_or_else(|| schema("stack table entry not an array"))?;
            let [site, stack] = items else {
                return Err(schema("stack table entry must be a [site, stack] pair"));
            };
            let site = site.as_u64().ok_or_else(|| schema("site id is not an integer"))?;
            let site = u32::try_from(site).map_err(|_| schema("site id out of range"))?;
            Ok((SiteId(site), stack_from_json(stack)?))
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    // Legacy traces omit the sample-period fields; they default to 1.
    let period = |k: &str| match v.get(k) {
        Some(p) => p.as_f64().ok_or_else(|| schema(format!("field `{k}` is not a number"))),
        None => Ok(1.0),
    };
    let mut trace = TraceFile {
        app_name: str_field(v, "app_name")?.to_string(),
        seed: u64_field(v, "seed")?,
        ranks: u32::try_from(ranks).map_err(|_| schema("ranks out of range"))?,
        sampling_hz: f64_field(v, "sampling_hz")?,
        load_sample_period: period("load_sample_period")?,
        store_sample_period: period("store_sample_period")?,
        duration: f64_field(v, "duration")?,
        stacks,
        binmap: binmap_from_json(field(v, "binmap")?)?,
        events: EventBatch::default(),
    };
    for e in arr_field(v, "events")? {
        trace.events.push(&event_from_json(e)?);
    }
    Ok(trace)
}

fn format_to_json(f: StackFormat) -> Json {
    Json::str(match f {
        StackFormat::Bom => "Bom",
        StackFormat::HumanReadable => "HumanReadable",
    })
}

fn format_from_json(v: &Json) -> Result<StackFormat, JsonError> {
    match v.as_str() {
        Some("Bom") => Ok(StackFormat::Bom),
        Some("HumanReadable") => Ok(StackFormat::HumanReadable),
        _ => Err(schema("unknown stack format")),
    }
}

pub(crate) fn report_to_json(r: &PlacementReport) -> Json {
    Json::obj(vec![
        ("format", format_to_json(r.format)),
        (
            "entries",
            Json::Arr(
                r.entries
                    .iter()
                    .map(|e| {
                        let stack = match &e.stack {
                            ReportStack::Bom(s) => Json::obj(vec![("Bom", stack_to_json(s))]),
                            ReportStack::Human(h) => Json::obj(vec![("Human", human_to_json(h))]),
                        };
                        Json::obj(vec![
                            ("stack", stack),
                            ("tier", Json::U64(e.tier.0 as u64)),
                            ("max_size", Json::U64(e.max_size)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fallback", Json::U64(r.fallback.0 as u64)),
    ])
}

pub(crate) fn report_from_json(v: &Json) -> Result<PlacementReport, JsonError> {
    let tier = |v: u64| -> Result<TierId, JsonError> {
        Ok(TierId(u8::try_from(v).map_err(|_| schema("tier id out of range"))?))
    };
    let entries = arr_field(v, "entries")?
        .iter()
        .map(|e| {
            let stack = field(e, "stack")?;
            let stack = if let Some(bom) = stack.get("Bom") {
                ReportStack::Bom(stack_from_json(bom)?)
            } else if let Some(h) = stack.get("Human") {
                ReportStack::Human(human_from_json(h)?)
            } else {
                return Err(schema("entry stack is neither Bom nor Human"));
            };
            Ok(ReportEntry {
                stack,
                tier: tier(u64_field(e, "tier")?)?,
                max_size: u64_field(e, "max_size")?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(PlacementReport {
        format: format_from_json(field(v, "format")?)?,
        entries,
        fallback: tier(u64_field(v, "fallback")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            TraceEvent::Alloc {
                time: 0.25,
                object: ObjectId(u64::MAX),
                site: SiteId(3),
                size: 1 << 40,
                address: 0xffff_8000_0000_1000,
            },
            TraceEvent::Free { time: 1.0, object: ObjectId(1) },
            TraceEvent::LoadMissSample {
                time: 0.5,
                address: 0x2000,
                latency_cycles: 412.5,
                function: FuncId(7),
            },
            TraceEvent::StoreSample {
                time: 0.75,
                address: 0x2040,
                l1d_miss: true,
                function: FuncId(7),
            },
            TraceEvent::PhaseMarker { time: 2.0, phase: 3 },
        ];
        for e in &events {
            let j = event_to_json(e).to_string_compact();
            let back = event_from_json(&Json::parse(&j).unwrap()).unwrap();
            assert_eq!(*e, back, "{j}");
        }
    }

    #[test]
    fn nan_time_round_trips_as_nan() {
        let e = TraceEvent::PhaseMarker { time: f64::NAN, phase: 0 };
        let j = event_to_json(&e).to_string_compact();
        assert!(j.contains("null"), "{j}");
        match event_from_json(&Json::parse(&j).unwrap()).unwrap() {
            TraceEvent::PhaseMarker { time, .. } => assert!(time.is_nan()),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let v = Json::parse(r#"{"Explode":{"time":0.0}}"#).unwrap();
        assert!(event_from_json(&v).is_err());
    }
}
