//! # memtrace — trace data model for the ecoHMEM reproduction
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for allocation sites, objects, modules and memory
//! tiers; call stacks in both supported formats (binary-object-matching and
//! human-readable); the simulated process image (binary map + ASLR load
//! map); the on-disk trace file produced by the profiler; and the placement
//! report exchanged between the HMem Advisor and FlexMalloc.
//!
//! In the paper, these artifacts are produced by Extrae (trace file) and the
//! HMem Advisor (placement report), and consumed by Paramedir and FlexMalloc
//! respectively. Reproducing the *formats* — in particular the two
//! call-stack encodings of Table I — is essential because contribution VI
//! (Binary Object Matching) is precisely about the runtime cost difference
//! between them.

pub mod binfmt;
pub mod binmap;
pub mod callstack;
pub mod columns;
pub mod error;
pub mod events;
pub mod fault;
pub mod ids;
pub mod integrity;
pub mod jsonio;
pub mod report;
pub mod rng;
pub mod textfmt;
pub mod trace;
pub mod warn;
pub mod wire;

pub use binfmt::{read_trace, write_trace, write_trace_v2, TraceBuf};
pub use binmap::{BinaryMap, BinaryMapBuilder, LoadMap, ModuleInfo};
pub use callstack::{CallStack, CodeLocation, Frame, HumanStack, StackFormat};
pub use columns::{EventBatch, ObjectIndex, TraceColumns, SAME_TIER_SPAN};
pub use error::TraceError;
pub use events::TraceEvent;
pub use fault::{FaultKind, FaultSpec, FaultTarget, ProcessFaultKind};
pub use ids::{FuncId, ModuleId, ObjectId, SiteId, TierId};
pub use integrity::{Shape, Validator};
pub use jsonio::{event_from_json, event_to_json};
pub use report::{PlacementReport, ReportEntry, ReportStack};
pub use textfmt::parse_report;
pub use trace::TraceFile;
pub use warn::{DegradationPolicy, DroppedWindow, Warning, WarningKind};
