//! The trace file: the artifact a profiling run writes and the analyzer
//! (Paramedir in the paper) reads.

use crate::binmap::BinaryMap;
use crate::callstack::CallStack;
use crate::columns::EventBatch;
use crate::error::TraceError;
use crate::ids::SiteId;
use crate::integrity::{self, Validator};
use crate::warn::{DegradationPolicy, DroppedWindow, Warning, WarningKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;

/// A complete profiling trace: run metadata, the site table mapping
/// allocation sites to their call stacks, the program image description,
/// and the time-ordered event stream, stored column by column.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    /// Application name, e.g. `lulesh`.
    pub app_name: String,
    /// Seed used for the profiled run (for reproducibility bookkeeping).
    pub seed: u64,
    /// Number of MPI ranks the model represents.
    pub ranks: u32,
    /// PEBS sampling rate in Hz that produced the sample events.
    pub sampling_hz: f64,
    /// LLC load misses represented by each load-miss sample (the effective
    /// PEBS period). Consumers multiply sample counts by this to estimate
    /// absolute miss counts.
    pub load_sample_period: f64,
    /// Stores represented by each store sample.
    pub store_sample_period: f64,
    /// Wall-clock duration of the profiled run, seconds.
    pub duration: f64,
    /// Call stack of each allocation site, indexed by `SiteId`.
    pub stacks: Vec<(SiteId, CallStack)>,
    /// The program image (modules + debug metadata).
    pub binmap: BinaryMap,
    /// Events ordered by time (ties broken by emission order).
    pub events: EventBatch,
}

impl TraceFile {
    /// Looks up the call stack recorded for a site.
    pub fn stack_of(&self, site: SiteId) -> Option<&CallStack> {
        self.stacks.iter().find(|(s, _)| *s == site).map(|(_, st)| st)
    }

    /// Site table as a map.
    pub fn stack_map(&self) -> HashMap<SiteId, &CallStack> {
        self.stacks.iter().map(|(s, st)| (*s, st)).collect()
    }

    /// The header alone: every field but the events, which are left
    /// empty. This is what the binary codecs serialize up front.
    pub fn header(&self) -> TraceFile {
        TraceFile {
            app_name: self.app_name.clone(),
            seed: self.seed,
            ranks: self.ranks,
            sampling_hz: self.sampling_hz,
            load_sample_period: self.load_sample_period,
            store_sample_period: self.store_sample_period,
            duration: self.duration,
            stacks: self.stacks.clone(),
            binmap: self.binmap.clone(),
            events: EventBatch::default(),
        }
    }

    /// Returns the trace itself: a forward kept for perfbench, which
    /// still calls it. ROADMAP item 1 deletes it.
    #[doc(hidden)]
    pub fn into_trace_file(self) -> TraceFile {
        self
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of sample events in the trace.
    pub fn sample_count(&self) -> usize {
        self.events.load_times.len() + self.events.store_times.len()
    }

    /// Number of allocation events in the trace.
    pub fn alloc_count(&self) -> usize {
        self.events.alloc_times.len()
    }

    /// Structural validation under the [`crate::integrity`] rules: events
    /// have finite, non-decreasing times, every `Alloc` references a known
    /// site, every `Free` follows a matching `Alloc`, and no object is
    /// freed twice. The analyzer calls this before
    /// aggregating so that truncated or corrupted traces are rejected
    /// loudly instead of silently producing a bad placement.
    pub fn validate(&self) -> Result<(), TraceError> {
        let b = &self.events;
        let times = b.time_columns();
        let mut v = Validator::new(&self.stacks);
        for &op in &b.ops {
            v.offer_op(DegradationPolicy::Strict, b, op, times.at(op))?;
        }
        Ok(())
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> Result<String, TraceError> {
        Ok(crate::jsonio::trace_to_json(self).to_string_compact())
    }

    /// Deserializes a trace from JSON.
    pub fn from_json(json: &str) -> Result<Self, TraceError> {
        let value = ecohmem_obs::json::Json::parse(json)?;
        Ok(crate::jsonio::trace_from_json(&value)?)
    }

    /// Writes the trace to a writer as JSON.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        let json = self.to_json()?;
        w.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Reads a trace from a reader.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, TraceError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        Self::from_json(&buf)
    }

    /// Writes the trace to a file path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))
    }

    /// Loads a trace from a file path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let f = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(f))
    }

    /// Repairs the trace in place so that [`Self::validate`] passes:
    /// events strict validation would reject are dropped and broken run
    /// metadata is reset. Returns one warning per class of repair; the list
    /// is empty if and only if the trace was left untouched.
    ///
    /// A profiler killed mid-run (or a fault injector — see
    /// [`crate::fault`]) leaves exactly this kind of damage: out-of-order
    /// or non-finite timestamps, frees of never-allocated objects,
    /// references to missing sites. Dropping the damaged events degrades
    /// the eventual placement, which is the graceful half of the contract;
    /// the loud half is the warning list.
    pub fn sanitize(&mut self) -> Vec<Warning> {
        self.sanitize_verbose().0
    }

    /// Like [`Self::sanitize`], but also reports *which window* of the run
    /// the dropped events covered, so a degraded placement is auditable:
    /// a profile blind to the first 10 s is a different risk than one
    /// missing scattered milliseconds.
    pub fn sanitize_verbose(&mut self) -> (Vec<Warning>, DroppedWindow) {
        let repairs = integrity::repair_metadata(
            &mut self.duration,
            &mut self.sampling_hz,
            &mut self.load_sample_period,
            &mut self.store_sample_period,
        );
        let mut v = Validator::new(&self.stacks);
        // A lenient policy drops what it rejects and never fails.
        let lenient = DegradationPolicy::BestEffort;
        self.events.retain(|b, op| matches!(v.offer_op(lenient, b, op, b.time_of(op)), Ok(true)));
        (integrity::sanitize_warnings(&v, repairs), v.window)
    }

    /// Deserializes a trace from JSON, salvaging a valid prefix when the
    /// input was cut off mid-stream (a torn write). Because `events` is the
    /// last serialized field, a truncated trace keeps its metadata, site
    /// table and image and loses only trailing events. Returns the original
    /// parse error when nothing can be salvaged. The warning list is
    /// nonempty if and only if repair was needed.
    pub fn from_json_lenient(json: &str) -> Result<(Self, Vec<Warning>), TraceError> {
        let original = match Self::from_json(json) {
            Ok(t) => return Ok((t, Vec::new())),
            Err(e) => e,
        };
        let Some(repaired) = repair_truncated_json(json) else {
            return Err(original);
        };
        let truncation_warning = || {
            vec![Warning::new(
                WarningKind::TruncatedInput,
                format!(
                    "input truncated: salvaged a {}-byte valid prefix of {} bytes",
                    repaired.len(),
                    json.len()
                ),
            )]
        };
        match Self::from_json(&repaired) {
            Ok(t) => Ok((t, truncation_warning())),
            Err(_) => {
                // Bracket repair can leave the *last* event structurally
                // closed but missing fields (the cut fell inside it). That
                // single event is part of the torn tail: drop it and retry
                // once. If the schema problem is anywhere else, repair
                // cannot help and the original error stands.
                let Ok(mut value) = ecohmem_obs::json::Json::parse(&repaired) else {
                    return Err(original);
                };
                let popped = match value.get_mut("events") {
                    Some(ecohmem_obs::json::Json::Arr(events)) => events.pop().is_some(),
                    _ => false,
                };
                if !popped {
                    return Err(original);
                }
                match crate::jsonio::trace_from_json(&value) {
                    Ok(t) => Ok((t, truncation_warning())),
                    Err(_) => Err(original),
                }
            }
        }
    }

    /// Loads a trace from a file leniently: tolerates non-UTF-8 bytes,
    /// salvages truncated JSON, and sanitizes the result so it passes
    /// [`Self::validate`]. The warning list describes every repair.
    pub fn load_lenient(path: impl AsRef<Path>) -> Result<(Self, Vec<Warning>), TraceError> {
        let data = std::fs::read(path)?;
        let text = String::from_utf8_lossy(&data);
        let (mut trace, mut warnings) = Self::from_json_lenient(&text)?;
        warnings.extend(trace.sanitize());
        Ok((trace, warnings))
    }
}

/// Repairs JSON cut off mid-stream: scans for the last position at which
/// the innermost open container had just completed a full element, cuts
/// there, and closes every open bracket. Returns `None` when the text is
/// not salvageable this way — including when it is already complete JSON,
/// in which case the caller's parse failure has some other cause that
/// truncation repair cannot fix.
fn repair_truncated_json(s: &str) -> Option<String> {
    #[derive(Clone, Copy)]
    enum Ctx {
        /// An object; `true` while the next string token is a member key.
        Obj(bool),
        Arr,
    }
    let closers = |stack: &[Ctx]| -> String {
        stack
            .iter()
            .rev()
            .map(|c| match c {
                Ctx::Obj(_) => '}',
                Ctx::Arr => ']',
            })
            .collect()
    };

    let b = s.as_bytes();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut best: Option<(usize, String)> = None;
    let mut root_done = false;
    let mut i = 0;
    // Records that a complete value just ended at byte `end` (exclusive).
    macro_rules! value_done {
        ($end:expr) => {
            if stack.is_empty() {
                root_done = true;
            } else {
                best = Some(($end, closers(&stack)));
            }
        };
    }
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'"' => {
                i += 1;
                let mut closed = false;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            closed = true;
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                if !closed {
                    break; // cut mid-string; fall back to the last safe point
                }
                if matches!(stack.last(), Some(Ctx::Obj(true))) {
                    // The string was a member key; a colon and value follow.
                    if let Some(Ctx::Obj(next_is_key)) = stack.last_mut() {
                        *next_is_key = false;
                    }
                } else {
                    value_done!(i);
                }
            }
            b'{' => {
                stack.push(Ctx::Obj(true));
                i += 1;
            }
            b'[' => {
                stack.push(Ctx::Arr);
                i += 1;
            }
            b'}' | b']' => {
                stack.pop()?; // unbalanced close: damage beyond truncation
                i += 1;
                value_done!(i);
            }
            b':' => i += 1,
            b',' => {
                if let Some(Ctx::Obj(next_is_key)) = stack.last_mut() {
                    *next_is_key = true;
                }
                i += 1;
            }
            _ => {
                // Primitive token (number / true / false / null). It only
                // counts as complete if a delimiter follows — a primitive
                // running into end-of-input may itself be cut short.
                while i < b.len()
                    && !matches!(b[i], b',' | b':' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
                {
                    i += 1;
                }
                if i == b.len() {
                    break;
                }
                value_done!(i);
            }
        }
    }
    if root_done {
        return None;
    }
    let (end, closers) = best?;
    let mut out = String::with_capacity(end + closers.len());
    out.push_str(&s[..end]);
    out.push_str(&closers);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::Frame;
    use crate::events::TraceEvent;
    use crate::ids::{ModuleId, ObjectId};

    fn minimal_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Alloc {
                time: 0.0,
                object: ObjectId(1),
                site: SiteId(0),
                size: 128,
                address: 0x1000,
            },
            TraceEvent::Free { time: 1.0, object: ObjectId(1) },
        ]
    }

    fn minimal_trace() -> TraceFile {
        trace_of(&minimal_events())
    }

    fn trace_of(events: &[TraceEvent]) -> TraceFile {
        TraceFile {
            app_name: "toy".into(),
            seed: 1,
            ranks: 1,
            sampling_hz: 100.0,
            load_sample_period: 1.0,
            store_sample_period: 1.0,
            duration: 2.0,
            stacks: vec![(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)]))],
            binmap: BinaryMap::default(),
            events: EventBatch::from_events(events),
        }
    }

    #[test]
    fn valid_trace_passes() {
        minimal_trace().validate().unwrap();
    }

    #[test]
    fn counts() {
        let t = minimal_trace();
        assert_eq!(t.alloc_count(), 1);
        assert_eq!(t.sample_count(), 0);
        assert!(t.stack_of(SiteId(0)).is_some());
        assert!(t.stack_of(SiteId(9)).is_none());
    }

    #[test]
    fn rejects_unordered_events() {
        let mut events = minimal_events();
        events.swap(0, 1);
        assert!(trace_of(&events).validate().is_err());
    }

    #[test]
    fn rejects_unknown_site() {
        let mut t = minimal_trace();
        t.stacks.clear();
        assert!(matches!(t.validate(), Err(TraceError::UnknownSite(_))));
    }

    #[test]
    fn rejects_double_free() {
        let mut t = minimal_trace();
        t.events.push(&TraceEvent::Free { time: 1.5, object: ObjectId(1) });
        let err = t.validate().unwrap_err().to_string();
        assert!(err.contains("double free"), "{err}");
    }

    #[test]
    fn rejects_free_of_unallocated() {
        let t = trace_of(&[TraceEvent::Free { time: 0.5, object: ObjectId(7) }]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_zero_size_alloc() {
        let t = trace_of(&[TraceEvent::Alloc {
            time: 0.0,
            object: ObjectId(2),
            site: SiteId(0),
            size: 0,
            address: 0x2000,
        }]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        let t = minimal_trace();
        let j = t.to_json().unwrap();
        let back = TraceFile::from_json(&j).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn truncated_json_is_an_error() {
        let t = minimal_trace();
        let j = t.to_json().unwrap();
        let truncated = &j[..j.len() / 2];
        assert!(TraceFile::from_json(truncated).is_err());
    }

    #[test]
    fn sanitize_is_identity_on_valid_traces() {
        let mut t = minimal_trace();
        let before = t.clone();
        assert!(t.sanitize().is_empty());
        assert_eq!(t, before);
    }

    #[test]
    fn sanitize_drops_exactly_what_validate_rejects() {
        let mut events = minimal_events();
        events.insert(0, TraceEvent::Free { time: 0.0, object: ObjectId(77) });
        events.push(TraceEvent::Free { time: 1.5, object: ObjectId(1) });
        events.push(TraceEvent::PhaseMarker { time: 0.5, phase: 1 });
        events.push(TraceEvent::PhaseMarker { time: f64::NAN, phase: 2 });
        let mut t = trace_of(&events);
        assert!(t.validate().is_err());
        let warnings = t.sanitize();
        t.validate().unwrap();
        assert_eq!(t.events.len(), 2, "only the original alloc/free survive");
        let kinds: Vec<_> = warnings.iter().map(|w| w.kind).collect();
        assert!(kinds.contains(&WarningKind::OrphanFree));
        assert!(kinds.contains(&WarningKind::DoubleFree));
        assert!(kinds.contains(&WarningKind::OutOfOrderEvent));
        assert!(kinds.contains(&WarningKind::NonFiniteTime));
    }

    #[test]
    fn sanitize_allows_realloc_after_free() {
        let mut t = minimal_trace();
        t.events.push(&TraceEvent::Alloc {
            time: 1.5,
            object: ObjectId(1),
            site: SiteId(0),
            size: 64,
            address: 0x3000,
        });
        t.validate().unwrap();
        assert!(t.sanitize().is_empty());
        assert_eq!(t.events.len(), 3);
    }

    #[test]
    fn sanitize_repairs_broken_metadata() {
        let mut t = minimal_trace();
        t.duration = f64::NAN;
        t.load_sample_period = -3.0;
        let warnings = t.sanitize();
        assert_eq!(t.duration, 0.0);
        assert_eq!(t.load_sample_period, 1.0);
        assert!(warnings.iter().all(|w| w.kind == WarningKind::BadMetadata));
        assert_eq!(warnings.len(), 2);
    }

    #[test]
    fn lenient_parse_of_intact_json_is_warning_free() {
        let t = minimal_trace();
        let (back, warnings) = TraceFile::from_json_lenient(&t.to_json().unwrap()).unwrap();
        assert_eq!(back, t);
        assert!(warnings.is_empty());
    }

    #[test]
    fn lenient_parse_salvages_a_truncated_tail() {
        let t = minimal_trace();
        let j = t.to_json().unwrap();
        // Cutting the closing brackets leaves the last event intact; both
        // events must survive the repair.
        let (back, warnings) = TraceFile::from_json_lenient(&j[..j.len() - 2]).unwrap();
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.app_name, t.app_name);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].kind, WarningKind::TruncatedInput);
    }

    #[test]
    fn lenient_parse_never_panics_at_any_cut_point() {
        let t = minimal_trace();
        let j = t.to_json().unwrap();
        for cut in 0..j.len() {
            if let Ok((mut back, _)) = TraceFile::from_json_lenient(&j[..cut]) {
                back.sanitize();
                back.validate().unwrap();
            }
        }
    }

    #[test]
    fn lenient_parse_rejects_non_json_garbage() {
        assert!(TraceFile::from_json_lenient("not a trace at all").is_err());
        assert!(TraceFile::from_json_lenient("").is_err());
        // Complete JSON of the wrong shape is a schema problem, not
        // truncation; repair must not mask it.
        assert!(TraceFile::from_json_lenient("{\"app_name\": \"x\"}").is_err());
    }

    #[test]
    fn load_lenient_reads_a_torn_file() {
        let t = minimal_trace();
        let j = t.to_json().unwrap();
        let path = std::env::temp_dir().join(format!("ecohmem-torn-{}.json", std::process::id()));
        std::fs::write(&path, &j[..j.len() - 10]).unwrap();
        let (back, warnings) = TraceFile::load_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        back.validate().unwrap();
        assert!(!warnings.is_empty());
        assert_eq!(back.app_name, "toy");
    }
}
