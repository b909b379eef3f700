//! Simulated process image: binary objects, debug line tables, and ASLR.
//!
//! A real execution loads the main executable plus a set of shared
//! libraries, each at a base address that changes between runs because of
//! Address Space Layout Randomization (ASLR). Extrae therefore cannot store
//! raw return addresses in the trace; it stores something ASLR-stable —
//! either `file:line` pairs obtained from debug info (HR format) or
//! `(module, offset)` pairs (BOM format, contribution VI).
//!
//! [`BinaryMap`] is the run-independent description of the program image
//! (module names, sizes, synthetic DWARF line tables). [`LoadMap`] is one
//! run's randomized layout, mapping modules to absolute base addresses. The
//! pair lets us exercise the exact translation paths FlexMalloc performs at
//! initialization and on every intercepted allocation.

use crate::callstack::{CallStack, CodeLocation, Frame, HumanStack};
use crate::error::TraceError;
use crate::ids::ModuleId;
use crate::wordhash::WordHasher;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One entry of a module's synthetic debug line table: a half-open offset
/// range `[start, end)` mapped to a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineEntry {
    /// Start offset of the range (inclusive).
    pub start: u64,
    /// End offset of the range (exclusive).
    pub end: u64,
    /// Index into the module's file table.
    pub file: u32,
    /// Source line number.
    pub line: u32,
}

/// A binary object (executable or shared library) in the simulated process
/// image, with enough synthetic metadata to model both call-stack formats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleInfo {
    /// Module id; equals the module's index within its [`BinaryMap`].
    pub id: ModuleId,
    /// File name, e.g. `a.out` or `libmesh.so`.
    pub name: String,
    /// Size of the mapped text segment in bytes. Drives address-to-line
    /// lookup cost in the HR cost model (larger binaries parse slower).
    pub text_size: u64,
    /// Size of the debug information in bytes. In HR mode this is loaded
    /// into DRAM *per MPI rank*, which is the footprint effect of §VIII-D.
    pub debug_info_size: u64,
    /// Source file names referenced by the line table.
    pub files: Vec<String>,
    /// Sorted, non-overlapping offset ranges mapping code to `file:line`.
    pub line_table: Vec<LineEntry>,
}

impl ModuleInfo {
    /// Looks up the source location for a code offset, as a debugger (or
    /// binutils' `addr2line`) would. Returns `None` for offsets outside any
    /// line-table range (e.g. compiler-generated padding).
    pub fn lookup_line(&self, offset: u64) -> Option<CodeLocation> {
        let idx = self.line_table.partition_point(|e| e.end <= offset);
        let entry = self.line_table.get(idx)?;
        if offset < entry.start || offset >= entry.end {
            return None;
        }
        let file = self.files.get(entry.file as usize)?;
        Some(CodeLocation::new(file.clone(), entry.line))
    }

    /// True if `offset` falls inside the module's text segment.
    pub fn contains_offset(&self, offset: u64) -> bool {
        offset < self.text_size
    }
}

/// The run-independent program image: the fixed set of binary objects an
/// application maps, indexed by [`ModuleId`].
///
/// The image never changes once built, and every trace and profile of an
/// application carries it, so clones share the modules: a line table runs
/// to hundreds of KiB. They share the content [`digest`](Self::digest)
/// too, computed at most once per built or decoded map. Equality is
/// content equality.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct BinaryMap {
    image: Arc<Image>,
}

/// The state every clone of one [`BinaryMap`] shares.
#[derive(Default, Serialize, Deserialize)]
struct Image {
    modules: Vec<ModuleInfo>,
    /// [`digest_modules`] of `modules`, once first asked for.
    #[serde(skip)]
    digest: OnceLock<u64>,
}

impl PartialEq for BinaryMap {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.image, &other.image) || self.modules() == other.modules()
    }
}

impl fmt::Debug for BinaryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryMap").field("modules", &self.modules()).finish()
    }
}

impl BinaryMap {
    /// Rebuilds a map from deserialized modules (crate-internal: the JSON
    /// codec needs it; everyone else goes through [`BinaryMapBuilder`]).
    pub(crate) fn from_modules(modules: Vec<ModuleInfo>) -> Self {
        BinaryMap { image: Arc::new(Image { modules, digest: OnceLock::new() }) }
    }

    /// A 64-bit digest of the modules' entire content. Equal maps have
    /// equal digests. It is computed on the first call and shared by
    /// every clone, so hashing a model's image for a run-cache key costs
    /// one word instead of a walk over its line tables.
    pub fn digest(&self) -> u64 {
        *self.image.digest.get_or_init(|| digest_modules(&self.image.modules))
    }

    /// All modules, in id order.
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.image.modules
    }

    /// Looks up one module.
    pub fn module(&self, id: ModuleId) -> Option<&ModuleInfo> {
        self.modules().get(id.0 as usize)
    }

    /// Module name helper (falls back to `mod<N>` for unknown ids, which can
    /// only happen with corrupted input).
    pub fn module_name(&self, id: ModuleId) -> String {
        self.module(id).map(|m| m.name.clone()).unwrap_or_else(|| id.to_string())
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules().len()
    }

    /// True when the image has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules().is_empty()
    }

    /// Total debug-information bytes across all modules. This is the per-rank
    /// DRAM footprint FlexMalloc pays in human-readable mode (§VIII-D).
    pub fn total_debug_info_bytes(&self) -> u64 {
        self.modules().iter().map(|m| m.debug_info_size).sum()
    }

    /// Translates a canonical call stack to its human-readable form using
    /// the modules' line tables. Fails if any frame points outside a known
    /// module or outside its line table — exactly the situations in which
    /// the paper's HR workflow needed manual fixing.
    pub fn translate(&self, stack: &CallStack) -> Result<HumanStack, TraceError> {
        let mut locations = Vec::with_capacity(stack.depth());
        for frame in stack.frames() {
            let module =
                self.module(frame.module).ok_or(TraceError::UnknownModule(frame.module))?;
            let loc = module
                .lookup_line(frame.offset)
                .ok_or(TraceError::UnmappedOffset { module: frame.module, offset: frame.offset })?;
            locations.push(loc);
        }
        Ok(HumanStack::new(locations))
    }
}

/// The content digest behind [`BinaryMap::digest`]: every field of every
/// module and line entry, as 64-bit words. Each variable-length part is
/// length-prefixed, so distinct contents feed distinct word streams.
/// Field coverage is enforced like memsim's `StableHash` impls: each
/// struct is destructured exhaustively, so a new field fails compilation
/// here until it joins the digest.
fn digest_modules(modules: &[ModuleInfo]) -> u64 {
    let mut h = WordHasher::default();
    h.word(modules.len() as u64);
    for module in modules {
        let ModuleInfo { id, name, text_size, debug_info_size, files, line_table } = module;
        h.word(u64::from(id.0));
        h.bytes(name.as_bytes());
        h.word(*text_size);
        h.word(*debug_info_size);
        h.word(files.len() as u64);
        for file in files {
            h.bytes(file.as_bytes());
        }
        h.word(line_table.len() as u64);
        for entry in line_table {
            let LineEntry { start, end, file, line } = entry;
            h.word(*start);
            h.word(*end);
            h.word(u64::from(*file) << 32 | u64::from(*line));
        }
    }
    h.finish()
}

/// Builder for synthetic binary maps used by the workload models.
///
/// Each added module gets a regular line table: code is split into
/// `text_size / bytes_per_line` ranges attributed round-robin to the
/// module's source files with increasing line numbers. The regularity is
/// irrelevant to the algorithms (they only need *a* consistent mapping) but
/// keeps generation deterministic and cheap.
#[derive(Debug, Default)]
pub struct BinaryMapBuilder {
    modules: Vec<ModuleInfo>,
}

impl BinaryMapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a module and returns its id. `files` is the list of source file
    /// names to attribute code to; it must be non-empty.
    pub fn add_module(
        &mut self,
        name: impl Into<String>,
        text_size: u64,
        debug_info_size: u64,
        files: Vec<String>,
    ) -> ModuleId {
        assert!(!files.is_empty(), "a module needs at least one source file");
        let id = ModuleId(self.modules.len() as u16);
        let bytes_per_line = 64u64;
        let ranges = (text_size / bytes_per_line).max(1);
        let mut line_table = Vec::with_capacity(ranges as usize);
        for r in 0..ranges {
            let start = r * bytes_per_line;
            let end = ((r + 1) * bytes_per_line).min(text_size.max(bytes_per_line));
            line_table.push(LineEntry {
                start,
                end,
                file: (r % files.len() as u64) as u32,
                line: (r / files.len() as u64 + 1) as u32,
            });
        }
        self.modules.push(ModuleInfo {
            id,
            name: name.into(),
            text_size: text_size.max(bytes_per_line),
            debug_info_size,
            files,
            line_table,
        });
        id
    }

    /// Finishes the builder.
    pub fn build(self) -> BinaryMap {
        BinaryMap::from_modules(self.modules)
    }
}

/// One run's ASLR outcome: the absolute base address where each module of a
/// [`BinaryMap`] is loaded. Bases are page-aligned, non-overlapping, and
/// differ from run to run (seed to seed), so raw absolute addresses are
/// *not* comparable across runs — the reason both Table I formats exist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadMap {
    /// `bases[i]` is the load base of module `i`; sorted ascending.
    bases: Vec<u64>,
    /// `sizes[i]` mirrors the module text sizes, for reverse lookup.
    sizes: Vec<u64>,
}

impl LoadMap {
    const PAGE: u64 = 4096;
    /// Code is mapped in the canonical x86-64 user-space range.
    const ASLR_LOW: u64 = 0x5555_0000_0000;
    const ASLR_SPREAD: u64 = 0x0100_0000_0000;

    /// Randomizes a load layout for `map` from an ASLR seed. Layouts from
    /// different seeds differ (with overwhelming probability), layouts from
    /// the same seed are identical.
    pub fn randomize(map: &BinaryMap, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA51A_51A5_1A51_A51A);
        let mut cursor =
            Self::ASLR_LOW + (rng.gen_range(0..Self::ASLR_SPREAD / Self::PAGE)) * Self::PAGE;
        let mut bases = Vec::with_capacity(map.len());
        let mut sizes = Vec::with_capacity(map.len());
        for module in map.modules() {
            bases.push(cursor);
            sizes.push(module.text_size);
            // Leave a random gap between mappings, as the kernel does.
            let gap = (rng.gen_range(1..=4096u64)) * Self::PAGE;
            let span = module.text_size.div_ceil(Self::PAGE) * Self::PAGE;
            cursor += span + gap;
        }
        LoadMap { bases, sizes }
    }

    /// Base address of a module.
    pub fn base(&self, module: ModuleId) -> Option<u64> {
        self.bases.get(module.0 as usize).copied()
    }

    /// Absolute address of a canonical frame under this layout.
    pub fn absolute(&self, frame: Frame) -> Option<u64> {
        Some(self.base(frame.module)? + frame.offset)
    }

    /// Absolute addresses of a whole stack, innermost first. `None` if any
    /// frame refers to an unknown module.
    pub fn absolutize(&self, stack: &CallStack) -> Option<Vec<u64>> {
        stack.frames().iter().map(|&f| self.absolute(f)).collect()
    }

    /// Reverse lookup: which module and offset does an absolute address fall
    /// into? This is what Extrae/FlexMalloc do when they capture a raw
    /// return address and need its BOM form.
    pub fn resolve(&self, address: u64) -> Option<Frame> {
        // Bases are sorted ascending by construction.
        let idx = self.bases.partition_point(|&b| b <= address);
        if idx == 0 {
            return None;
        }
        let m = idx - 1;
        let offset = address - self.bases[m];
        if offset < self.sizes[m] {
            Some(Frame::new(ModuleId(m as u16), offset))
        } else {
            None
        }
    }

    /// Converts a whole absolute stack back to canonical frames.
    pub fn canonicalize(&self, addresses: &[u64]) -> Option<CallStack> {
        let frames: Option<Vec<Frame>> = addresses.iter().map(|&a| self.resolve(a)).collect();
        frames.map(CallStack::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> BinaryMap {
        let mut b = BinaryMapBuilder::new();
        b.add_module("a.out", 64 * 1024, 512 * 1024, vec!["main.cpp".into(), "solver.cpp".into()]);
        b.add_module("libmesh.so", 256 * 1024, 2 * 1024 * 1024, vec!["mesh.cpp".into()]);
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let map = sample_map();
        assert_eq!(map.len(), 2);
        assert_eq!(map.modules()[0].id, ModuleId(0));
        assert_eq!(map.modules()[1].id, ModuleId(1));
        assert_eq!(map.module_name(ModuleId(1)), "libmesh.so");
    }

    #[test]
    fn line_lookup_is_stable_and_in_range() {
        let map = sample_map();
        let m = map.module(ModuleId(0)).unwrap();
        let a = m.lookup_line(0).unwrap();
        let b = m.lookup_line(63).unwrap();
        assert_eq!(a, b, "same 64-byte range, same line");
        let c = m.lookup_line(64).unwrap();
        assert_ne!(a, c);
        assert!(m.lookup_line(m.text_size + 100).is_none());
    }

    #[test]
    fn translate_round_trips_known_frames() {
        let map = sample_map();
        let stack =
            CallStack::new(vec![Frame::new(ModuleId(1), 0x100), Frame::new(ModuleId(0), 0x40)]);
        let human = map.translate(&stack).unwrap();
        assert_eq!(human.depth(), 2);
        assert_eq!(human.locations()[0].file, "mesh.cpp");
    }

    #[test]
    fn translate_rejects_unknown_module() {
        let map = sample_map();
        let stack = CallStack::new(vec![Frame::new(ModuleId(9), 0)]);
        assert!(matches!(map.translate(&stack), Err(TraceError::UnknownModule(_))));
    }

    #[test]
    fn aslr_layouts_differ_across_seeds_but_not_within() {
        let map = sample_map();
        let a = LoadMap::randomize(&map, 1);
        let b = LoadMap::randomize(&map, 1);
        let c = LoadMap::randomize(&map, 2);
        assert_eq!(a, b);
        assert_ne!(a.base(ModuleId(0)), c.base(ModuleId(0)));
    }

    #[test]
    fn resolve_inverts_absolute() {
        let map = sample_map();
        let lm = LoadMap::randomize(&map, 7);
        let frame = Frame::new(ModuleId(1), 0x2e43);
        let abs = lm.absolute(frame).unwrap();
        assert_eq!(lm.resolve(abs), Some(frame));
    }

    #[test]
    fn resolve_rejects_addresses_outside_any_module() {
        let map = sample_map();
        let lm = LoadMap::randomize(&map, 7);
        assert_eq!(lm.resolve(0x10), None);
        // Just past the end of the last module's text.
        let last_base = lm.base(ModuleId(1)).unwrap();
        let m = map.module(ModuleId(1)).unwrap();
        assert_eq!(lm.resolve(last_base + m.text_size), None);
    }

    #[test]
    fn canonicalize_round_trips_stacks() {
        let map = sample_map();
        let lm = LoadMap::randomize(&map, 99);
        let stack =
            CallStack::new(vec![Frame::new(ModuleId(0), 0x11d0), Frame::new(ModuleId(1), 0x2e43)]);
        let abs = lm.absolutize(&stack).unwrap();
        let back = lm.canonicalize(&abs).unwrap();
        assert_eq!(stack, back);
    }

    #[test]
    fn digest_is_computed_once_per_image() {
        let map = sample_map();
        let clone = map.clone();
        assert!(map.image.digest.get().is_none(), "the digest is lazy");
        let d = clone.digest();
        // The clone's first call filled the cell the original reads.
        assert_eq!(map.image.digest.get(), Some(&d));
        assert_eq!(map.digest(), d);
        assert_eq!(map, clone);
    }

    #[test]
    fn debug_info_totals() {
        let map = sample_map();
        assert_eq!(map.total_debug_info_bytes(), 512 * 1024 + 2 * 1024 * 1024);
    }
}
