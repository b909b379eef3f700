//! JSON codecs for the persisted trace artifacts.
//!
//! The on-disk schema deliberately mirrors the derive-style layout the
//! crate has always documented (externally tagged enums, field order =
//! declaration order) so existing tooling and the truncation-repair
//! heuristics in [`crate::trace`] keep working: `events` is the last
//! field of a trace, so a torn write loses trailing events, never
//! metadata.
//!
//! Both directions stream. Writers print through
//! [`ecohmem_obs::json::JsonWriter`], whose output is byte for byte what
//! the [`Json`] tree would print. Readers pull the document once through
//! [`JsonReader`] and fill the trace's own structures as they go: a line
//! table or an event costs no allocation of its own. A header carries the
//! whole program image, so this is what a trace header's encode and
//! decode cost.
//!
//! Decoding follows one error contract:
//! * A syntax error anywhere in the text wins, with the parser's message
//!   and line/column, exactly as if the whole text had been parsed first.
//! * Otherwise structural problems (missing field, wrong type, value out
//!   of range) are [`JsonError`]s with position 0:0 — the document parsed,
//!   so there is no single offending byte to point at. Fields may come in
//!   any order and unknown fields are skipped. When a document has several
//!   structural problems, the one reported is fixed by the schema's field
//!   order (each object's fields are checked after the whole object is
//!   read), not by where the fields sit in the text. The first occurrence
//!   of a repeated key counts.

use crate::binmap::{BinaryMap, LineEntry, ModuleInfo};
use crate::callstack::{CallStack, CodeLocation, Frame, HumanStack, StackFormat};
use crate::columns::EventBatch;
use crate::events::TraceEvent;
use crate::ids::{FuncId, ModuleId, ObjectId, SiteId, TierId};
use crate::report::{PlacementReport, ReportEntry, ReportStack};
use crate::trace::TraceFile;
use ecohmem_obs::json::{Json, JsonError, JsonReader, JsonWriter};
use std::borrow::Cow;

type Res<T> = Result<T, JsonError>;

fn schema(msg: impl Into<String>) -> JsonError {
    JsonError { line: 0, column: 0, message: msg.into() }
}

fn is_schema(e: &JsonError) -> bool {
    e.line == 0
}

fn missing(k: &str) -> JsonError {
    schema(format!("missing field `{k}`"))
}

fn field<'a>(v: Option<&'a Json>, k: &str) -> Res<&'a Json> {
    v.ok_or_else(|| missing(k))
}

fn u64_field(v: Option<&Json>, k: &str) -> Res<u64> {
    field(v, k)?.as_u64().ok_or_else(|| schema(format!("field `{k}` is not an unsigned integer")))
}

/// Floats read `null` back as NaN: the schema writes non-finite values as
/// `null`, and callers (`validate`/`sanitize`) treat NaN as the damage it
/// is rather than having the parser invent a number.
fn f64_field(v: Option<&Json>, k: &str) -> Res<f64> {
    field(v, k)?.as_f64().ok_or_else(|| schema(format!("field `{k}` is not a number")))
}

fn str_field<'a>(v: Option<&'a Json>, k: &str) -> Res<&'a str> {
    field(v, k)?.as_str().ok_or_else(|| schema(format!("field `{k}` is not a string")))
}

fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Res<T> {
    T::try_from(v).map_err(|_| schema(format!("{what} out of range")))
}

/// A container field's decoded value or its deferred structural error;
/// `None` while the field has not been seen.
type Slot<T> = Option<Res<T>>;

/// Reads the field's value if the slot is still empty (the first
/// occurrence of a key counts), else skips it.
fn fill<'a, T>(
    r: &mut JsonReader<'a>,
    depth: usize,
    slot: &mut Slot<T>,
    decode: impl FnOnce(&mut JsonReader<'a>) -> Res<T>,
) -> Res<()> {
    if slot.is_some() {
        return r.skip(depth);
    }
    *slot = Some(deferred(r, depth, decode)?);
    Ok(())
}

/// Runs `decode` on the value at `depth`. A structural error is deferred:
/// the reader goes back and skips the whole value, and the error comes
/// back as the inner result, so the caller can read the rest of its
/// object and report its fields in schema order. A syntax error ends the
/// decode.
fn deferred<'a, T>(
    r: &mut JsonReader<'a>,
    depth: usize,
    decode: impl FnOnce(&mut JsonReader<'a>) -> Res<T>,
) -> Res<Res<T>> {
    let start = r.position();
    match decode(r) {
        Err(e) if is_schema(&e) => {
            r.rewind(start);
            r.skip(depth)?;
            Ok(Err(e))
        }
        other => other.map(Ok),
    }
}

/// Reads the scalar-valued fields `names` of the object at `depth` into
/// slots, skipping every other field. A value that is not an object is
/// skipped and leaves every slot empty, which reads as a missing field.
fn scalars<const N: usize>(
    r: &mut JsonReader,
    depth: usize,
    names: [&str; N],
) -> Res<[Option<Json>; N]> {
    let mut slots = std::array::from_fn(|_| None);
    fields(r, depth, &names, &mut slots)?;
    Ok(slots)
}

fn fields(r: &mut JsonReader, depth: usize, names: &[&str], slots: &mut [Option<Json>]) -> Res<()> {
    object(r, depth, |r, key| scalar(r, depth + 1, names, slots, &key))
}

/// Reads the object at `depth` field by field, as
/// [`JsonReader::each_field`] does. A value that is not an object is
/// skipped without a call: to the caller, every field is missing.
fn object<'a>(
    r: &mut JsonReader<'a>,
    depth: usize,
    field: impl FnMut(&mut JsonReader<'a>, Cow<'a, str>) -> Res<()>,
) -> Res<()> {
    if r.peek() != Some(b'{') {
        return r.skip(depth);
    }
    r.each_field(depth, field)
}

/// Reads the value of field `key` at `depth` into its slot when `key` is
/// one of `names` seen for the first time, else skips it.
fn scalar(
    r: &mut JsonReader,
    depth: usize,
    names: &[&str],
    slots: &mut [Option<Json>],
    key: &str,
) -> Res<()> {
    match names.iter().position(|n| *n == key) {
        Some(i) if slots[i].is_none() => {
            slots[i] = Some(r.value(depth)?);
            Ok(())
        }
        _ => r.skip(depth),
    }
}

/// Reads the array field `k` at `depth`, one element at a time.
fn array<'a>(
    r: &mut JsonReader<'a>,
    depth: usize,
    k: &str,
    item: impl FnMut(&mut JsonReader<'a>) -> Res<()>,
) -> Res<()> {
    if r.peek() != Some(b'[') {
        return Err(schema(format!("field `{k}` is not an array")));
    }
    r.each_item(depth, item)
}

/// Reads the array field `k` at `depth` into a vector, with `item`
/// reading each element (at `depth + 1`).
fn array_of<'a, T>(
    r: &mut JsonReader<'a>,
    depth: usize,
    k: &str,
    mut item: impl FnMut(&mut JsonReader<'a>, usize) -> Res<T>,
) -> Res<Vec<T>> {
    let mut out = Vec::new();
    array(r, depth, k, |r| {
        out.push(item(r, depth + 1)?);
        Ok(())
    })?;
    Ok(out)
}

/// Decodes a whole document with `decode`, which reads the root value at
/// depth 0. A structural error stands only if the whole text is valid
/// JSON: a syntax error anywhere outranks it.
fn document<'a, T>(text: &'a str, decode: impl FnOnce(&mut JsonReader<'a>) -> Res<T>) -> Res<T> {
    let mut r = JsonReader::new(text);
    match decode(&mut r) {
        Ok(v) => {
            r.finish()?;
            Ok(v)
        }
        Err(e) if is_schema(&e) => {
            let mut r = JsonReader::new(text);
            r.skip(0)?;
            r.finish()?;
            Err(e)
        }
        Err(e) => Err(e),
    }
}

fn write_stack(w: &mut JsonWriter, s: &CallStack) {
    w.begin_object().key("frames").begin_array();
    for f in s.frames() {
        w.begin_object();
        w.key("module").u64(u64::from(f.module.0));
        w.key("offset").u64(f.offset);
        w.end_object();
    }
    w.end_array().end_object();
}

fn read_frame(r: &mut JsonReader, depth: usize) -> Res<Frame> {
    let [module, offset] = scalars(r, depth, ["module", "offset"])?;
    let module = narrow::<u16>(u64_field(module.as_ref(), "module")?, "module id")?;
    Ok(Frame::new(ModuleId(module), u64_field(offset.as_ref(), "offset")?))
}

fn read_stack(r: &mut JsonReader, depth: usize) -> Res<CallStack> {
    let mut frames: Slot<Vec<Frame>> = None;
    object(r, depth, |r, key| match &*key {
        "frames" => {
            fill(r, depth + 1, &mut frames, |r| array_of(r, depth + 1, "frames", read_frame))
        }
        _ => r.skip(depth + 1),
    })?;
    Ok(CallStack::new(frames.unwrap_or_else(|| Err(missing("frames")))?))
}

fn write_human(w: &mut JsonWriter, s: &HumanStack) {
    w.begin_object().key("locations").begin_array();
    for l in s.locations() {
        w.begin_object();
        w.key("file").str(&l.file);
        w.key("line").u64(u64::from(l.line));
        w.end_object();
    }
    w.end_array().end_object();
}

fn read_human(r: &mut JsonReader, depth: usize) -> Res<HumanStack> {
    let mut locations: Slot<Vec<CodeLocation>> = None;
    object(r, depth, |r, key| match &*key {
        "locations" => fill(r, depth + 1, &mut locations, |r| {
            array_of(r, depth + 1, "locations", |r, depth| {
                let [file, line] = scalars(r, depth, ["file", "line"])?;
                let line = narrow::<u32>(u64_field(line.as_ref(), "line")?, "line number")?;
                Ok(CodeLocation::new(str_field(file.as_ref(), "file")?, line))
            })
        }),
        _ => r.skip(depth + 1),
    })?;
    Ok(HumanStack::new(locations.unwrap_or_else(|| Err(missing("locations")))?))
}

fn write_event(w: &mut JsonWriter, e: &TraceEvent) {
    w.begin_object();
    match *e {
        TraceEvent::Alloc { time, object, site, size, address } => {
            w.key("Alloc").begin_object();
            w.key("time").f64(time);
            w.key("object").u64(object.0);
            w.key("site").u64(u64::from(site.0));
            w.key("size").u64(size);
            w.key("address").u64(address);
        }
        TraceEvent::Free { time, object } => {
            w.key("Free").begin_object();
            w.key("time").f64(time);
            w.key("object").u64(object.0);
        }
        TraceEvent::LoadMissSample { time, address, latency_cycles, function } => {
            w.key("LoadMissSample").begin_object();
            w.key("time").f64(time);
            w.key("address").u64(address);
            w.key("latency_cycles").f64(latency_cycles);
            w.key("function").u64(u64::from(function.0));
        }
        TraceEvent::StoreSample { time, address, l1d_miss, function } => {
            w.key("StoreSample").begin_object();
            w.key("time").f64(time);
            w.key("address").u64(address);
            w.key("l1d_miss").bool(l1d_miss);
            w.key("function").u64(u64::from(function.0));
        }
        TraceEvent::PhaseMarker { time, phase } => {
            w.key("PhaseMarker").begin_object();
            w.key("time").f64(time);
            w.key("phase").u64(u64::from(phase));
        }
    }
    w.end_object().end_object();
}

/// The body fields of each event variant, in the order they are written.
fn variant_fields(tag: &str) -> Option<&'static [&'static str]> {
    Some(match tag {
        "Alloc" => &["time", "object", "site", "size", "address"],
        "Free" => &["time", "object"],
        "LoadMissSample" => &["time", "address", "latency_cycles", "function"],
        "StoreSample" => &["time", "address", "l1d_miss", "function"],
        "PhaseMarker" => &["time", "phase"],
        _ => return None,
    })
}

/// Decodes one event at `depth`.
fn read_event(r: &mut JsonReader, depth: usize) -> Res<TraceEvent> {
    if r.peek() != Some(b'{') {
        return Err(schema("event is not an object"));
    }
    let one_tag = || schema("event must have exactly one variant tag");
    let mut tag = None;
    let mut body: [Option<Json>; 5] = Default::default();
    r.each_field(depth, |r, key| {
        if tag.is_some() {
            return Err(one_tag());
        }
        match variant_fields(&key) {
            Some(names) => fields(r, depth + 1, names, &mut body)?,
            None => r.skip(depth + 1)?,
        }
        tag = Some(key);
        Ok(())
    })?;
    let tag = tag.ok_or_else(one_tag)?;
    let [a, b, c, d, e] = body.each_ref().map(Option::as_ref);
    let func = |f: Option<&Json>| -> Res<FuncId> {
        Ok(FuncId(narrow(u64_field(f, "function")?, "function id")?))
    };
    match &*tag {
        "Alloc" => {
            let site = narrow::<u32>(u64_field(c, "site")?, "site id")?;
            Ok(TraceEvent::Alloc {
                time: f64_field(a, "time")?,
                object: ObjectId(u64_field(b, "object")?),
                site: SiteId(site),
                size: u64_field(d, "size")?,
                address: u64_field(e, "address")?,
            })
        }
        "Free" => Ok(TraceEvent::Free {
            time: f64_field(a, "time")?,
            object: ObjectId(u64_field(b, "object")?),
        }),
        "LoadMissSample" => Ok(TraceEvent::LoadMissSample {
            time: f64_field(a, "time")?,
            address: u64_field(b, "address")?,
            latency_cycles: f64_field(c, "latency_cycles")?,
            function: func(d)?,
        }),
        "StoreSample" => Ok(TraceEvent::StoreSample {
            time: f64_field(a, "time")?,
            address: u64_field(b, "address")?,
            l1d_miss: field(c, "l1d_miss")?
                .as_bool()
                .ok_or_else(|| schema("field `l1d_miss` is not a bool"))?,
            function: func(d)?,
        }),
        "PhaseMarker" => {
            let phase = u64_field(b, "phase")?;
            Ok(TraceEvent::PhaseMarker {
                time: f64_field(a, "time")?,
                phase: narrow(phase, "phase")?,
            })
        }
        other => Err(schema(format!("unknown event variant `{other}`"))),
    }
}

/// Encodes one event in the trace schema's externally-tagged layout, as
/// compact JSON text. Public (re-exported as [`crate::event_to_json`]) so
/// wire protocols layered on the trace schema — the serve daemon's JSONL
/// mode — emit byte-identical event objects.
pub fn event_to_json(e: &TraceEvent) -> String {
    let mut w = JsonWriter::new();
    write_event(&mut w, e);
    w.finish()
}

/// Decodes one event document written by [`event_to_json`].
pub fn event_from_json(text: &str) -> Result<TraceEvent, JsonError> {
    document(text, |r| read_event(r, 0))
}

fn write_binmap(w: &mut JsonWriter, map: &BinaryMap) {
    w.begin_object().key("modules").begin_array();
    for m in map.modules() {
        w.begin_object();
        w.key("id").u64(u64::from(m.id.0));
        w.key("name").str(&m.name);
        w.key("text_size").u64(m.text_size);
        w.key("debug_info_size").u64(m.debug_info_size);
        w.key("files").begin_array();
        for f in &m.files {
            w.str(f);
        }
        w.end_array();
        w.key("line_table").begin_array();
        for e in &m.line_table {
            w.begin_object();
            w.key("start").u64(e.start);
            w.key("end").u64(e.end);
            w.key("file").u64(u64::from(e.file));
            w.key("line").u64(u64::from(e.line));
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array().end_object();
}

fn read_line_entry(r: &mut JsonReader, depth: usize) -> Res<LineEntry> {
    let [start, end, file, line] = scalars(r, depth, ["start", "end", "file", "line"])?;
    Ok(LineEntry {
        start: u64_field(start.as_ref(), "start")?,
        end: u64_field(end.as_ref(), "end")?,
        file: narrow(u64_field(file.as_ref(), "file")?, "file index")?,
        line: narrow(u64_field(line.as_ref(), "line")?, "line number")?,
    })
}

fn read_module(r: &mut JsonReader, depth: usize) -> Res<ModuleInfo> {
    const SCALARS: [&str; 4] = ["id", "name", "text_size", "debug_info_size"];
    let mut scalars: [Option<Json>; 4] = Default::default();
    let (mut files, mut line_table): (Slot<Vec<String>>, Slot<Vec<LineEntry>>) = (None, None);
    object(r, depth, |r, key| match &*key {
        "files" => fill(r, depth + 1, &mut files, |r| {
            array_of(r, depth + 1, "files", |r, depth| match r.value(depth)? {
                Json::Str(s) => Ok(s),
                _ => Err(schema("module file name is not a string")),
            })
        }),
        "line_table" => fill(r, depth + 1, &mut line_table, |r| {
            array_of(r, depth + 1, "line_table", read_line_entry)
        }),
        k => scalar(r, depth + 1, &SCALARS, &mut scalars, k),
    })?;
    let [id, name, text_size, debug_info_size] = scalars.each_ref().map(Option::as_ref);
    let id = narrow::<u16>(u64_field(id, "id")?, "module id")?;
    let files = files.unwrap_or_else(|| Err(missing("files")))?;
    let line_table = line_table.unwrap_or_else(|| Err(missing("line_table")))?;
    Ok(ModuleInfo {
        id: ModuleId(id),
        name: str_field(name, "name")?.to_string(),
        text_size: u64_field(text_size, "text_size")?,
        debug_info_size: u64_field(debug_info_size, "debug_info_size")?,
        files,
        line_table,
    })
}

fn read_binmap(r: &mut JsonReader, depth: usize) -> Res<BinaryMap> {
    let mut modules: Slot<Vec<ModuleInfo>> = None;
    object(r, depth, |r, key| match &*key {
        "modules" => {
            fill(r, depth + 1, &mut modules, |r| array_of(r, depth + 1, "modules", read_module))
        }
        _ => r.skip(depth + 1),
    })?;
    Ok(BinaryMap::from_modules(modules.unwrap_or_else(|| Err(missing("modules")))?))
}

/// Writes the trace; with `events` false the events array is left empty,
/// which is the trace's header.
fn write_trace(w: &mut JsonWriter, t: &TraceFile, events: bool) {
    w.begin_object();
    w.key("app_name").str(&t.app_name);
    w.key("seed").u64(t.seed);
    w.key("ranks").u64(u64::from(t.ranks));
    w.key("sampling_hz").f64(t.sampling_hz);
    w.key("load_sample_period").f64(t.load_sample_period);
    w.key("store_sample_period").f64(t.store_sample_period);
    w.key("duration").f64(t.duration);
    w.key("stacks").begin_array();
    for (site, stack) in &t.stacks {
        w.begin_array().u64(u64::from(site.0));
        write_stack(w, stack);
        w.end_array();
    }
    w.end_array();
    w.key("binmap");
    write_binmap(w, &t.binmap);
    // `events` stays the last field: truncation repair depends on a torn
    // write losing only trailing events.
    w.key("events").begin_array();
    if events {
        for e in t.events.iter_events() {
            write_event(w, &e);
        }
    }
    w.end_array();
    w.end_object();
}

pub(crate) fn trace_to_json(t: &TraceFile) -> String {
    let mut w = JsonWriter::new();
    write_trace(&mut w, t, true);
    w.finish()
}

/// The JSON of [`TraceFile::header`], written without cloning the trace.
pub(crate) fn header_to_json(t: &TraceFile) -> String {
    let mut w = JsonWriter::new();
    write_trace(&mut w, t, false);
    w.finish()
}

fn read_stack_entry(r: &mut JsonReader, depth: usize) -> Res<(SiteId, CallStack)> {
    if r.peek() != Some(b'[') {
        return Err(schema("stack table entry not an array"));
    }
    let mut site = None;
    let mut stack: Slot<CallStack> = None;
    let mut items = 0;
    r.each_item(depth, |r| {
        items += 1;
        match items {
            1 => site = Some(r.value(depth + 1)?),
            2 => stack = Some(deferred(r, depth + 1, |r| read_stack(r, depth + 1))?),
            _ => return Err(schema("stack table entry must be a [site, stack] pair")),
        }
        Ok(())
    })?;
    let (Some(site), Some(stack)) = (site, stack) else {
        return Err(schema("stack table entry must be a [site, stack] pair"));
    };
    let site = site.as_u64().ok_or_else(|| schema("site id is not an integer"))?;
    Ok((SiteId(narrow(site, "site id")?), stack?))
}

/// Reads the events array into a batch. With `drop_last`, its last
/// element is dropped unread and it must have one.
fn read_events(r: &mut JsonReader, depth: usize, drop_last: bool) -> Res<EventBatch> {
    let mut batch = EventBatch::default();
    let mut held: Option<Res<TraceEvent>> = None;
    array(r, depth, "events", |r| {
        if !drop_last {
            batch.push(&read_event(r, depth + 1)?);
            return Ok(());
        }
        if let Some(e) = held.take() {
            batch.push(&e?);
        }
        held = Some(deferred(r, depth + 1, |r| read_event(r, depth + 1))?);
        Ok(())
    })?;
    if drop_last && held.is_none() {
        return Err(schema("no event to drop"));
    }
    Ok(batch)
}

/// Decodes a trace. With `drop_last_event`, the last element of `events`
/// is dropped unread and must exist: a cut that bracket repair closed can
/// leave that one event structurally whole but missing fields.
pub(crate) fn trace_from_json(text: &str, drop_last_event: bool) -> Res<TraceFile> {
    document(text, |r| read_trace(r, drop_last_event))
}

fn read_trace(r: &mut JsonReader, drop_last_event: bool) -> Res<TraceFile> {
    const SCALARS: [&str; 7] = [
        "app_name",
        "seed",
        "ranks",
        "sampling_hz",
        "load_sample_period",
        "store_sample_period",
        "duration",
    ];
    let mut scalars: [Option<Json>; 7] = Default::default();
    let mut stacks: Slot<Vec<(SiteId, CallStack)>> = None;
    let mut binmap: Slot<BinaryMap> = None;
    let mut events: Slot<EventBatch> = None;
    object(r, 0, |r, key| match &*key {
        "stacks" => fill(r, 1, &mut stacks, |r| array_of(r, 1, "stacks", read_stack_entry)),
        "binmap" => fill(r, 1, &mut binmap, |r| read_binmap(r, 1)),
        "events" => fill(r, 1, &mut events, |r| read_events(r, 1, drop_last_event)),
        k => scalar(r, 1, &SCALARS, &mut scalars, k),
    })?;
    let [app_name, seed, ranks, sampling_hz, load_period, store_period, duration] =
        scalars.each_ref().map(Option::as_ref);
    let ranks = u64_field(ranks, "ranks")?;
    let stacks = stacks.unwrap_or_else(|| Err(missing("stacks")))?;
    // Legacy traces omit the sample-period fields; they default to 1.
    let period = |p: Option<&Json>, k: &str| match p {
        Some(p) => p.as_f64().ok_or_else(|| schema(format!("field `{k}` is not a number"))),
        None => Ok(1.0),
    };
    Ok(TraceFile {
        app_name: str_field(app_name, "app_name")?.to_string(),
        seed: u64_field(seed, "seed")?,
        ranks: narrow(ranks, "ranks")?,
        sampling_hz: f64_field(sampling_hz, "sampling_hz")?,
        load_sample_period: period(load_period, "load_sample_period")?,
        store_sample_period: period(store_period, "store_sample_period")?,
        duration: f64_field(duration, "duration")?,
        stacks,
        binmap: binmap.unwrap_or_else(|| Err(missing("binmap")))?,
        events: events.unwrap_or_else(|| Err(missing("events")))?,
    })
}

fn format_name(f: StackFormat) -> &'static str {
    match f {
        StackFormat::Bom => "Bom",
        StackFormat::HumanReadable => "HumanReadable",
    }
}

pub(crate) fn report_to_json(r: &PlacementReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("format").str(format_name(r.format));
    w.key("entries").begin_array();
    for e in &r.entries {
        w.begin_object().key("stack").begin_object();
        match &e.stack {
            ReportStack::Bom(s) => write_stack(w.key("Bom"), s),
            ReportStack::Human(h) => write_human(w.key("Human"), h),
        }
        w.end_object();
        w.key("tier").u64(u64::from(e.tier.0));
        w.key("max_size").u64(e.max_size);
        w.end_object();
    }
    w.end_array();
    w.key("fallback").u64(u64::from(r.fallback.0));
    w.end_object();
    w.finish()
}

fn read_report_stack(r: &mut JsonReader, depth: usize) -> Res<ReportStack> {
    let (mut bom, mut human): (Slot<CallStack>, Slot<HumanStack>) = (None, None);
    object(r, depth, |r, key| match &*key {
        "Bom" => fill(r, depth + 1, &mut bom, |r| read_stack(r, depth + 1)),
        "Human" => fill(r, depth + 1, &mut human, |r| read_human(r, depth + 1)),
        _ => r.skip(depth + 1),
    })?;
    match (bom, human) {
        (Some(bom), _) => Ok(ReportStack::Bom(bom?)),
        (None, Some(human)) => Ok(ReportStack::Human(human?)),
        (None, None) => Err(schema("entry stack is neither Bom nor Human")),
    }
}

fn read_report_entry(r: &mut JsonReader, depth: usize) -> Res<ReportEntry> {
    let mut stack: Slot<ReportStack> = None;
    let mut scalars: [Option<Json>; 2] = Default::default();
    object(r, depth, |r, key| match &*key {
        "stack" => fill(r, depth + 1, &mut stack, |r| read_report_stack(r, depth + 1)),
        k => scalar(r, depth + 1, &["tier", "max_size"], &mut scalars, k),
    })?;
    let [tier, max_size] = scalars.each_ref().map(Option::as_ref);
    Ok(ReportEntry {
        stack: stack.unwrap_or_else(|| Err(missing("stack")))?,
        tier: TierId(narrow(u64_field(tier, "tier")?, "tier id")?),
        max_size: u64_field(max_size, "max_size")?,
    })
}

pub(crate) fn report_from_json(text: &str) -> Res<PlacementReport> {
    document(text, |r| {
        let mut entries: Slot<Vec<ReportEntry>> = None;
        let mut scalars: [Option<Json>; 2] = Default::default();
        object(r, 0, |r, key| match &*key {
            "entries" => fill(r, 1, &mut entries, |r| array_of(r, 1, "entries", read_report_entry)),
            k => scalar(r, 1, &["format", "fallback"], &mut scalars, k),
        })?;
        let [format, fallback] = scalars.each_ref().map(Option::as_ref);
        let entries = entries.unwrap_or_else(|| Err(missing("entries")))?;
        let format = match field(format, "format")?.as_str() {
            Some("Bom") => StackFormat::Bom,
            Some("HumanReadable") => StackFormat::HumanReadable,
            _ => return Err(schema("unknown stack format")),
        };
        Ok(PlacementReport {
            format,
            entries,
            fallback: TierId(narrow(u64_field(fallback, "fallback")?, "tier id")?),
        })
    })
}

#[cfg(test)]
pub(crate) fn stack_to_json(s: &CallStack) -> String {
    let mut w = JsonWriter::new();
    write_stack(&mut w, s);
    w.finish()
}

#[cfg(test)]
pub(crate) fn stack_from_json(text: &str) -> Res<CallStack> {
    document(text, |r| read_stack(r, 0))
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
            let j = event_to_json(e);
            let back = event_from_json(&j).unwrap();
            assert_eq!(*e, back, "{j}");
        }
    }

    #[test]
    fn nan_time_round_trips_as_nan() {
        let e = TraceEvent::PhaseMarker { time: f64::NAN, phase: 0 };
        let j = event_to_json(&e);
        assert!(j.contains("null"), "{j}");
        match event_from_json(&j).unwrap() {
            TraceEvent::PhaseMarker { time, .. } => assert!(time.is_nan()),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let e = event_from_json(r#"{"Explode":{"time":0.0}}"#).unwrap_err();
        assert_eq!(e.message, "unknown event variant `Explode`");
    }

    #[test]
    fn event_fields_come_in_any_order_and_unknown_ones_are_skipped() {
        let e = event_from_json(r#"{"Free":{"note":[1,{"x":null}],"object":4,"time":0.5}}"#);
        assert_eq!(e.unwrap(), TraceEvent::Free { time: 0.5, object: ObjectId(4) });
    }

    #[test]
    fn structural_errors_follow_the_schema_order_not_the_text_order() {
        // `site` is checked before `size`, wherever the two sit.
        let e = event_from_json(
            r#"{"Alloc":{"size":"big","time":0.0,"object":1,"site":-1,"address":0}}"#,
        )
        .unwrap_err();
        assert_eq!(e.message, "field `site` is not an unsigned integer");
        // A trace's `ranks` outranks a bad stack table later in the schema.
        let e = trace_from_json(r#"{"stacks":7,"ranks":"x"}"#, false).unwrap_err();
        assert_eq!(e.message, "field `ranks` is not an unsigned integer");
    }

    #[test]
    fn a_syntax_error_anywhere_outranks_a_structural_one() {
        for text in [r#"{"Free":{"time":"x","object":1}} x"#, r#"{"Free":{"time":"x"},"#] {
            assert_eq!(event_from_json(text).unwrap_err(), Json::parse(text).unwrap_err());
        }
        let text = r#"{"ranks":"x","stacks":[[0,{"frames":[}]]]}"#;
        let e = trace_from_json(text, false).unwrap_err();
        assert_eq!(e.message, "unexpected character '}'");
        assert_eq!(e, Json::parse(text).unwrap_err());
    }

    #[test]
    fn the_writer_prints_what_the_tree_prints() {
        let e =
            TraceEvent::StoreSample { time: 3.0, address: 7, l1d_miss: false, function: FuncId(2) };
        let tree = Json::obj(vec![(
            "StoreSample",
            Json::obj(vec![
                ("time", Json::f64(3.0)),
                ("address", Json::U64(7)),
                ("l1d_miss", Json::Bool(false)),
                ("function", Json::U64(2)),
            ]),
        )]);
        assert_eq!(event_to_json(&e), tree.to_string_compact());
    }
}
