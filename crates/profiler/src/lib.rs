//! # profiler — data-oriented profiling and trace analysis
//!
//! The paper's workflow starts with Extrae (LD_PRELOAD-injected) recording
//! allocation-routine instrumentation and PEBS hardware samples
//! (`MEM_LOAD_RETIRED.L3_MISS` for LLC load misses,
//! `MEM_INST_RETIRED.ALL_STORES` for stores, both at 100 Hz), and continues
//! with Paramedir aggregating the trace into per-allocation-site statistics
//! for the HMem Advisor.
//!
//! This crate provides both roles over the memsim substrate:
//!
//! * [`sampler`] — runs an application model under the engine and emits a
//!   [`memtrace::TraceFile`]: allocation/free events with call stacks and
//!   addresses, plus randomized (seeded) address samples drawn from each
//!   object's measured miss counts at the configured rate.
//! * [`analyzer`] — consumes a trace file *exactly as Paramedir would*:
//!   validates it, matches sampled data addresses back to live objects via
//!   address-interval search, and aggregates per-site statistics
//!   (allocation count, largest/total size, estimated load/store misses,
//!   lifetimes, bandwidth at allocation vs during execution).
//!
//! The per-site aggregation ([`SiteProfile::aggregate`]), [`peak_live`]
//! and the bandwidth series ([`BwContext`]) live here once: both analyzer
//! paths and the online engine's streaming ingestor build their profiles
//! through them.

pub mod analyzer;
mod bandwidth;
pub mod profile;
pub mod sampler;
pub mod timeline;

pub use analyzer::{
    analyze, analyze_columnar, analyze_legacy, analyze_lenient, analyze_sanitizing,
};
pub use bandwidth::BwContext;
pub use profile::{peak_live, ObjectLifetime, ProfileSet, SiteIndex, SiteProfile};
pub use sampler::{
    profile_run, profile_run_cached, synthesize_columns, synthesize_trace, ProfilerConfig,
};
pub use timeline::{timeline, to_csv, TimelineRow};
