//! The placement report: the artifact the HMem Advisor writes and
//! FlexMalloc reads at process initialization.
//!
//! A report lists allocation call stacks and the memory tier each should be
//! served from, plus a fallback tier for unlisted stacks (and for listed
//! ones whose target tier runs out of space). Stacks appear in one of the
//! two Table I formats; which one is a property of the whole report.

use crate::binmap::BinaryMap;
use crate::callstack::{CallStack, HumanStack, StackFormat};
use crate::error::TraceError;
use crate::ids::TierId;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// A call stack in whichever encoding the report uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportStack {
    /// Binary-object-matching form: `(module, offset)` frames.
    Bom(CallStack),
    /// Human-readable form: `file:line` frames.
    Human(HumanStack),
}

impl ReportStack {
    /// The encoding this stack uses.
    pub fn format(&self) -> StackFormat {
        match self {
            ReportStack::Bom(_) => StackFormat::Bom,
            ReportStack::Human(_) => StackFormat::HumanReadable,
        }
    }

    /// Call-stack depth.
    pub fn depth(&self) -> usize {
        match self {
            ReportStack::Bom(s) => s.depth(),
            ReportStack::Human(s) => s.depth(),
        }
    }
}

/// One report line: a call stack, the tier to allocate it in, and the
/// largest size observed during profiling (kept for capacity accounting and
/// debugging, mirroring the Advisor's output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportEntry {
    /// The allocation call stack.
    pub stack: ReportStack,
    /// Assigned memory tier.
    pub tier: TierId,
    /// Largest allocation observed for this stack during profiling (bytes).
    pub max_size: u64,
}

/// A complete placement report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Stack encoding used by every entry.
    pub format: StackFormat,
    /// Placement entries; at most one per distinct call stack.
    pub entries: Vec<ReportEntry>,
    /// Tier for unlisted stacks and out-of-space spills (usually the
    /// largest tier — PMEM on the paper's machine).
    pub fallback: TierId,
}

impl PlacementReport {
    /// Creates an empty report in the given format.
    pub fn new(format: StackFormat, fallback: TierId) -> Self {
        PlacementReport { format, entries: Vec::new(), fallback }
    }

    /// Adds an entry, asserting its format matches the report's.
    pub fn push(&mut self, entry: ReportEntry) {
        assert_eq!(
            entry.stack.format(),
            self.format,
            "report entry format must match report format"
        );
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are present (everything falls back).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries target a given tier.
    pub fn count_for_tier(&self, tier: TierId) -> usize {
        self.entries.iter().filter(|e| e.tier == tier).count()
    }

    /// Validation: entries all match the report format and no call stack
    /// appears twice (duplicate stacks would make matching ambiguous).
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut seen = std::collections::HashSet::new();
        for (i, e) in self.entries.iter().enumerate() {
            if e.stack.format() != self.format {
                return Err(TraceError::Malformed(format!(
                    "entry {i} format {:?} differs from report format {:?}",
                    e.stack.format(),
                    self.format
                )));
            }
            if !seen.insert(&e.stack) {
                return Err(TraceError::Malformed(format!("duplicate call stack at entry {i}")));
            }
        }
        Ok(())
    }

    /// Converts a BOM report to human-readable form using debug info, the
    /// reverse of what contribution VI makes unnecessary. Used by the
    /// §VIII-D experiments to produce the HR variant of the same placement.
    pub fn to_human_readable(&self, binmap: &BinaryMap) -> Result<PlacementReport, TraceError> {
        let mut out = PlacementReport::new(StackFormat::HumanReadable, self.fallback);
        for e in &self.entries {
            let stack = match &e.stack {
                ReportStack::Bom(s) => ReportStack::Human(binmap.translate(s)?),
                ReportStack::Human(h) => ReportStack::Human(h.clone()),
            };
            out.entries.push(ReportEntry { stack, tier: e.tier, max_size: e.max_size });
        }
        Ok(out)
    }

    /// Renders the report in the textual shape of Table I, one line per
    /// entry: `<tier-name> # <max_size> # <stack>`.
    pub fn render_text(&self, binmap: &BinaryMap, tier_name: impl Fn(TierId) -> String) -> String {
        let mut lines = Vec::with_capacity(self.entries.len() + 1);
        for e in &self.entries {
            let stack = match &e.stack {
                ReportStack::Bom(s) => s.render_bom(|m| binmap.module_name(m)),
                ReportStack::Human(h) => h.render(),
            };
            lines.push(format!("{} # {} # {}", tier_name(e.tier), e.max_size, stack));
        }
        lines.push(format!("fallback # {}", tier_name(self.fallback)));
        lines.join("\n")
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, TraceError> {
        Ok(crate::jsonio::report_to_json(self))
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, TraceError> {
        Ok(crate::jsonio::report_from_json(json)?)
    }

    /// Writes the report as JSON.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        w.write_all(self.to_json()?.as_bytes())?;
        Ok(())
    }

    /// Reads a report from JSON.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, TraceError> {
        let mut buf = String::new();
        r.read_to_string(&mut buf)?;
        Self::from_json(&buf)
    }

    /// Saves the report to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let f = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(f))
    }

    /// Loads a report from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let f = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::BinaryMapBuilder;
    use crate::callstack::Frame;
    use crate::ids::ModuleId;

    fn sample_report() -> (PlacementReport, BinaryMap) {
        let mut b = BinaryMapBuilder::new();
        b.add_module("a.out", 4096, 1024, vec!["main.c".into()]);
        let map = b.build();
        let mut r = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
        r.push(ReportEntry {
            stack: ReportStack::Bom(CallStack::new(vec![Frame::new(ModuleId(0), 0x40)])),
            tier: TierId::DRAM,
            max_size: 4096,
        });
        r.push(ReportEntry {
            stack: ReportStack::Bom(CallStack::new(vec![Frame::new(ModuleId(0), 0x80)])),
            tier: TierId::PMEM,
            max_size: 1 << 20,
        });
        (r, map)
    }

    #[test]
    fn counting() {
        let (r, _) = sample_report();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.count_for_tier(TierId::DRAM), 1);
        assert_eq!(r.count_for_tier(TierId::PMEM), 1);
    }

    #[test]
    fn validation_accepts_clean_report() {
        let (r, _) = sample_report();
        r.validate().unwrap();
    }

    #[test]
    fn validation_rejects_duplicate_stack() {
        let (mut r, _) = sample_report();
        let dup = r.entries[0].clone();
        r.entries.push(dup);
        assert!(r.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "format must match")]
    fn push_rejects_mixed_formats() {
        let (mut r, _) = sample_report();
        r.push(ReportEntry {
            stack: ReportStack::Human(HumanStack::default()),
            tier: TierId::DRAM,
            max_size: 1,
        });
    }

    #[test]
    fn hr_conversion_translates_all_entries() {
        let (r, map) = sample_report();
        let hr = r.to_human_readable(&map).unwrap();
        assert_eq!(hr.format, StackFormat::HumanReadable);
        assert_eq!(hr.len(), r.len());
        hr.validate().unwrap();
    }

    #[test]
    fn text_rendering_has_one_line_per_entry_plus_fallback() {
        let (r, map) = sample_report();
        let text =
            r.render_text(&map, |t| if t == TierId::DRAM { "dram".into() } else { "pmem".into() });
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("dram # 4096 # a.out!0x40"));
        assert!(lines[2].contains("fallback # pmem"));
    }

    #[test]
    fn json_round_trip() {
        let (r, _) = sample_report();
        let j = r.to_json().unwrap();
        assert_eq!(PlacementReport::from_json(&j).unwrap(), r);
    }
}
