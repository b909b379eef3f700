//! Call stacks and the two on-disk formats of Table I.
//!
//! The paper supports two encodings of an allocation call stack:
//!
//! * **Human-readable (HR)** — each frame is translated, with the help of
//!   debug information, into a `file:line` pair. This was the only format
//!   supported before the paper's contribution VI, and it requires (a)
//!   loading debug info into memory and (b) translating and string-comparing
//!   every frame on every intercepted allocation.
//! * **Binary Object Matching (BOM)** — each frame is the pair
//!   `(binary object, offset from the object's load base)`. Matching reduces
//!   to integer comparisons and is ASLR-stable by construction.
//!
//! [`CallStack`] is the canonical in-memory form (always BOM-shaped: module
//! + offset); [`HumanStack`] is the translated HR form.

use crate::ids::ModuleId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One call-stack frame in canonical (BOM) form: which binary object the
/// return address falls into, and its offset from that object's load base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// The binary object (executable or shared library) containing the frame.
    pub module: ModuleId,
    /// Offset of the return address from the module's load base.
    pub offset: u64,
}

impl Frame {
    /// Convenience constructor.
    pub fn new(module: ModuleId, offset: u64) -> Self {
        Frame { module, offset }
    }
}

/// A call stack leading to a heap allocation. Frames are ordered from the
/// innermost (the direct caller of `malloc`) to the outermost (`main`),
/// matching Extrae's convention.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CallStack {
    frames: Vec<Frame>,
}

impl CallStack {
    /// Builds a call stack from innermost-first frames.
    pub fn new(frames: Vec<Frame>) -> Self {
        CallStack { frames }
    }

    /// The frames, innermost first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames (call-stack depth).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True for the degenerate empty stack (never produced by the profiler,
    /// but reachable through corrupted input; FlexMalloc treats it as
    /// unmatched).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Renders the stack in the BOM text format of Table I, e.g.
    /// `libfoo.so!0x2e43 > a.out!0x11d0`, given a resolver from module id to
    /// module name.
    pub fn render_bom(&self, module_name: impl Fn(ModuleId) -> String) -> String {
        self.frames
            .iter()
            .map(|f| format!("{}!{:#x}", module_name(f.module), f.offset))
            .collect::<Vec<_>>()
            .join(" > ")
    }
}

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered = self
            .frames
            .iter()
            .map(|fr| format!("{}!{:#x}", fr.module, fr.offset))
            .collect::<Vec<_>>()
            .join(" > ");
        f.write_str(&rendered)
    }
}

/// A source code location (`file:line`), the unit of the human-readable
/// call-stack format.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeLocation {
    /// Source file path as recorded in the (simulated) debug information.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
}

impl CodeLocation {
    /// Convenience constructor.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        CodeLocation { file: file.into(), line }
    }
}

impl fmt::Display for CodeLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A call stack translated to human-readable form (innermost first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct HumanStack {
    locations: Vec<CodeLocation>,
}

impl HumanStack {
    /// Builds a human-readable stack from innermost-first locations.
    pub fn new(locations: Vec<CodeLocation>) -> Self {
        HumanStack { locations }
    }

    /// The locations, innermost first.
    pub fn locations(&self) -> &[CodeLocation] {
        &self.locations
    }

    /// Call-stack depth.
    pub fn depth(&self) -> usize {
        self.locations.len()
    }

    /// Renders the HR text format of Table I, e.g.
    /// `solver.cpp:120 > driver.cpp:88 > main.cpp:12`.
    pub fn render(&self) -> String {
        self.locations.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(" > ")
    }
}

impl fmt::Display for HumanStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Which of the two Table I call-stack encodings an artifact (trace file or
/// placement report) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackFormat {
    /// Binary Object Matching: `(module, offset)` pairs (contribution VI).
    Bom,
    /// Human-readable `file:line` pairs (the pre-existing format).
    HumanReadable,
}

impl fmt::Display for StackFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackFormat::Bom => f.write_str("bom"),
            StackFormat::HumanReadable => f.write_str("human-readable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> CallStack {
        CallStack::new(vec![Frame::new(ModuleId(1), 0x2e43), Frame::new(ModuleId(0), 0x11d0)])
    }

    #[test]
    fn depth_and_frames() {
        let s = stack();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.frames()[0].module, ModuleId(1));
        assert!(!s.is_empty());
        assert!(CallStack::default().is_empty());
    }

    #[test]
    fn bom_rendering_matches_table1_shape() {
        let s = stack();
        let text =
            s.render_bom(|m| if m == ModuleId(0) { "a.out".into() } else { "libfoo.so".into() });
        assert_eq!(text, "libfoo.so!0x2e43 > a.out!0x11d0");
    }

    #[test]
    fn human_rendering_matches_table1_shape() {
        let h = HumanStack::new(vec![
            CodeLocation::new("solver.cpp", 120),
            CodeLocation::new("main.cpp", 12),
        ]);
        assert_eq!(h.render(), "solver.cpp:120 > main.cpp:12");
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(stack(), stack());
        let other = CallStack::new(vec![Frame::new(ModuleId(1), 0x2e44)]);
        assert_ne!(stack(), other);
    }

    #[test]
    fn json_round_trip() {
        let s = stack();
        let j = crate::jsonio::stack_to_json(&s);
        let back = crate::jsonio::stack_from_json(&j).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn format_display() {
        assert_eq!(StackFormat::Bom.to_string(), "bom");
        assert_eq!(StackFormat::HumanReadable.to_string(), "human-readable");
    }
}
