//! Deterministic fault injection for the profiling→placement toolchain.
//!
//! Each injector reproduces a failure the real toolchain meets in the
//! field: a profiler killed mid-run truncates its trace; a full PEBS ring
//! buffer drops samples; broken clock sources corrupt timestamps;
//! instrumentation races emit frees before their allocs; `dlopen`'d
//! plugins put frames in modules the site table never saw; and a binary
//! rebuilt between profiling and deployment leaves the placement report
//! stale — its offsets shifted or its modules gone.
//!
//! Injectors are seeded and severity-parameterized so robustness
//! experiments (`robustness_curve` in the bench crate) are reproducible:
//! the same `(kind, severity, seed)` always mutates an artifact the same
//! way. Severity 0 never changes anything; the returned warnings are
//! nonempty exactly when the artifact was mutated.

use crate::callstack::{CallStack, Frame};
use crate::columns::BatchOp;
use crate::ids::{ModuleId, ObjectId};
use crate::report::{PlacementReport, ReportStack};
use crate::trace::TraceFile;
use crate::warn::{Warning, WarningKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Which artifact a fault kind damages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The profiling trace (between profiling and analysis).
    Trace,
    /// The placement report (between advising and deployment).
    Report,
}

/// The catalogue of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the tail of the event stream (torn write / killed profiler).
    TruncateEvents,
    /// Drop a fraction of PEBS samples (ring-buffer overflow).
    DropSamples,
    /// Re-stamp a fraction of events with bogus times (clock damage);
    /// a small share become NaN.
    CorruptTimestamps,
    /// Prepend frees of objects that are never allocated (instrumentation
    /// races at process start).
    FreeBeforeAlloc,
    /// Point a fraction of site-table stacks at a module absent from the
    /// image (un-tracked `dlopen`).
    UnknownModules,
    /// Shift a fraction of report entries' frame offsets (binary rebuilt
    /// between profiling and deployment — the report silently goes stale).
    StaleOffsets,
    /// Retarget a fraction of report entries at a module absent from the
    /// process image (library removed from the link line).
    DropModules,
}

impl FaultKind {
    /// Every fault kind, trace faults first.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::TruncateEvents,
        FaultKind::DropSamples,
        FaultKind::CorruptTimestamps,
        FaultKind::FreeBeforeAlloc,
        FaultKind::UnknownModules,
        FaultKind::StaleOffsets,
        FaultKind::DropModules,
    ];

    /// The artifact this kind damages.
    pub fn target(self) -> FaultTarget {
        match self {
            FaultKind::StaleOffsets | FaultKind::DropModules => FaultTarget::Report,
            _ => FaultTarget::Trace,
        }
    }

    /// Stable kebab-case name, accepted by [`FaultSpec::parse`].
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TruncateEvents => "truncate-events",
            FaultKind::DropSamples => "drop-samples",
            FaultKind::CorruptTimestamps => "corrupt-timestamps",
            FaultKind::FreeBeforeAlloc => "free-before-alloc",
            FaultKind::UnknownModules => "unknown-modules",
            FaultKind::StaleOffsets => "stale-offsets",
            FaultKind::DropModules => "drop-modules",
        }
    }

    fn by_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-level faults: failures of the *running* online engine rather
/// than of an artifact on disk. Artifact faults above mutate bytes; these
/// describe when and how the engine's process dies or misbehaves, and are
/// interpreted by the chaos harness (`chaos_soak` in the bench crate) and
/// the simulator's kill points (`memsim::runner`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessFaultKind {
    /// Kill the process after N journal records, leaving a torn tail.
    KillAtOffset,
    /// Crash between checkpoint tmp-write and rename, leaving a `.tmp`.
    MidCheckpointCrash,
    /// The consumer thread stops draining; producers hit admission
    /// deadlines and must shed.
    StalledConsumer,
    /// Event timestamps jump backwards or far forwards mid-stream.
    ClockSkew,
}

impl ProcessFaultKind {
    /// Every process fault kind.
    pub const ALL: [ProcessFaultKind; 4] = [
        ProcessFaultKind::KillAtOffset,
        ProcessFaultKind::MidCheckpointCrash,
        ProcessFaultKind::StalledConsumer,
        ProcessFaultKind::ClockSkew,
    ];

    /// Stable kebab-case name, accepted by [`ProcessFaultKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            ProcessFaultKind::KillAtOffset => "kill-at-offset",
            ProcessFaultKind::MidCheckpointCrash => "mid-checkpoint-crash",
            ProcessFaultKind::StalledConsumer => "stalled-consumer",
            ProcessFaultKind::ClockSkew => "clock-skew",
        }
    }

    /// Looks a kind up by its kebab-case name.
    pub fn parse(name: &str) -> Option<ProcessFaultKind> {
        ProcessFaultKind::ALL.iter().copied().find(|k| k.name() == name.trim())
    }
}

impl fmt::Display for ProcessFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault to inject: what, how hard, and under which random seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The failure to reproduce.
    pub kind: FaultKind,
    /// Fraction of the artifact affected, clamped to `[0, 1]`.
    pub severity: f64,
    /// Seed for the injector's private RNG.
    pub seed: u64,
}

/// Default injector seed (any fixed value works; this one is greppable).
const DEFAULT_SEED: u64 = 0xFA_017;

impl FaultSpec {
    /// A spec with the default seed.
    pub fn new(kind: FaultKind, severity: f64) -> Self {
        FaultSpec { kind, severity, seed: DEFAULT_SEED }
    }

    /// A spec with an explicit seed.
    pub fn with_seed(kind: FaultKind, severity: f64, seed: u64) -> Self {
        FaultSpec { kind, severity, seed }
    }

    /// Parses `kind:severity`, e.g. `drop-samples:0.5`. The severity is
    /// optional and defaults to 1.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let (name, sev) = match s.split_once(':') {
            Some((n, v)) => (n, v),
            None => (s, "1"),
        };
        let kind = FaultKind::by_name(name.trim()).ok_or_else(|| {
            let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown fault kind `{name}` (known: {})", known.join(", "))
        })?;
        let severity: f64 = sev
            .trim()
            .parse()
            .map_err(|_| format!("bad severity `{sev}` in `{s}` (want a number in [0,1])"))?;
        if !(0.0..=1.0).contains(&severity) {
            return Err(format!("severity {severity} out of range [0,1]"));
        }
        Ok(FaultSpec::new(kind, severity))
    }

    fn rng(&self) -> StdRng {
        // Mix the kind in so a multi-fault sweep under one seed does not
        // correlate its injectors.
        StdRng::seed_from_u64(self.seed ^ ((self.kind as u64) << 56) ^ 0x5eed)
    }

    /// Injects a trace-targeted fault. Severity 0 (or a report-targeted
    /// kind) is a no-op; the warnings are nonempty exactly when the trace
    /// was mutated. The injector draws its random numbers event by event
    /// in trace order.
    pub fn apply_to_trace(&self, trace: &mut TraceFile) -> Vec<Warning> {
        if self.kind.target() != FaultTarget::Trace || self.severity <= 0.0 {
            return Vec::new();
        }
        let severity = self.severity.min(1.0);
        let mut rng = self.rng();
        let events = &mut trace.events;
        let mutated = match self.kind {
            FaultKind::TruncateEvents => {
                let keep = ((events.len() as f64) * (1.0 - severity)).floor() as usize;
                let dropped = events.len() - keep;
                events.truncate(keep);
                dropped
            }
            FaultKind::DropSamples => {
                // One draw per sample, in trace order; only the sample
                // columns are compacted.
                let before = events.len();
                events.retain(|_, op| !op.is_sample() || rng.gen::<f64>() >= severity);
                before - events.len()
            }
            FaultKind::CorruptTimestamps => {
                let span = if trace.duration.is_finite() && trace.duration > 0.0 {
                    trace.duration
                } else {
                    1.0
                };
                let mut hit = 0usize;
                for i in 0..events.len() {
                    if rng.gen::<f64>() < severity {
                        // Mostly re-stamp inside the run (reordering);
                        // occasionally a NaN, as real clock bugs produce.
                        let t =
                            if rng.gen::<f64>() < 0.2 { f64::NAN } else { rng.gen::<f64>() * span };
                        events.set_time(events.ops[i], t);
                        hit += 1;
                    }
                }
                hit
            }
            FaultKind::FreeBeforeAlloc => {
                let extra = ((events.alloc_times.len().max(1) as f64) * severity).ceil() as usize;
                let t0 = events.ops.first().map_or(0.0, |&op| events.time_of(op));
                let fresh = events.alloc_objects.iter().map(|o| o.0).max().unwrap_or(0) + 1;
                // Each free goes in front of the previous one, so the
                // freshest id leads the stream.
                let first_row = events.free_times.len();
                for i in 0..extra {
                    events.free_times.push(t0);
                    events.free_objects.push(ObjectId(fresh + i as u64));
                }
                let frees = (0..extra).rev().map(|i| BatchOp::free(first_row + i));
                // Exactly the room the frees need: a full op vector would
                // otherwise grow by doubling, onto fresh pages.
                events.ops.reserve_exact(extra);
                events.ops.splice(0..0, frees);
                extra
            }
            FaultKind::UnknownModules => {
                let ghost = ModuleId(trace.binmap.len().max(1) as u16);
                let mut hit = 0usize;
                for (_, stack) in &mut trace.stacks {
                    if rng.gen::<f64>() < severity {
                        *stack = retarget(stack, ghost);
                        hit += 1;
                    }
                }
                hit
            }
            FaultKind::StaleOffsets | FaultKind::DropModules => unreachable!("report faults"),
        };
        if mutated == 0 {
            return Vec::new();
        }
        vec![Warning::new(
            WarningKind::FaultInjected,
            format!("{}@{severity}: mutated {mutated} trace item(s)", self.kind),
        )]
    }

    /// Injects a report-targeted fault. Severity 0 (or a trace-targeted
    /// kind) is a no-op; the warnings are nonempty exactly when the report
    /// was mutated.
    pub fn apply_to_report(&self, report: &mut PlacementReport) -> Vec<Warning> {
        if self.kind.target() != FaultTarget::Report || self.severity <= 0.0 {
            return Vec::new();
        }
        let severity = self.severity.min(1.0);
        let mut rng = self.rng();
        let mut mutated = 0;
        for entry in &mut report.entries {
            if rng.gen::<f64>() >= severity {
                continue;
            }
            match (&mut entry.stack, self.kind) {
                (ReportStack::Bom(stack), FaultKind::StaleOffsets) => {
                    // A rebuild shifts code by whole line-table ranges: the
                    // frames still resolve inside their modules but no
                    // longer match any runtime stack — the silent case.
                    let shift = 64 * (1 + rng.gen::<u64>() % 64);
                    *stack = CallStack::new(
                        stack
                            .frames()
                            .iter()
                            .map(|f| Frame::new(f.module, f.offset.wrapping_add(shift)))
                            .collect(),
                    );
                    mutated += 1;
                }
                (ReportStack::Bom(stack), FaultKind::DropModules) => {
                    // ModuleId::MAX never appears in a real image; matching
                    // fails at interposer initialization, the loud case.
                    *stack = retarget(stack, ModuleId(u16::MAX));
                    mutated += 1;
                }
                (ReportStack::Human(h), FaultKind::StaleOffsets) => {
                    // HR reports go stale by line drift after a rebuild.
                    let drift = 1 + rng.gen::<u32>() % 100;
                    *h = crate::callstack::HumanStack::new(
                        h.locations()
                            .iter()
                            .map(|loc| {
                                crate::callstack::CodeLocation::new(
                                    loc.file.clone(),
                                    loc.line.saturating_add(drift),
                                )
                            })
                            .collect(),
                    );
                    mutated += 1;
                }
                // HR entries carry no module references to drop.
                (ReportStack::Human(_), _) | (ReportStack::Bom(_), _) => {}
            }
        }
        if mutated == 0 {
            return Vec::new();
        }
        vec![Warning::new(
            WarningKind::FaultInjected,
            format!("{}@{severity}: mutated {mutated} report entries", self.kind),
        )]
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.severity)
    }
}

/// Rewrites every frame of a stack to point into `module`, preserving
/// offsets so distinct stacks stay distinct.
fn retarget(stack: &CallStack, module: ModuleId) -> CallStack {
    CallStack::new(stack.frames().iter().map(|f| Frame::new(module, f.offset)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::BinaryMapBuilder;
    use crate::callstack::StackFormat;
    use crate::columns::EventBatch;
    use crate::events::TraceEvent;
    use crate::ids::{SiteId, TierId};
    use crate::report::ReportEntry;

    fn toy_trace() -> TraceFile {
        let mut b = BinaryMapBuilder::new();
        b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
        TraceFile {
            app_name: "toy".into(),
            seed: 1,
            ranks: 1,
            sampling_hz: 100.0,
            load_sample_period: 1.0,
            store_sample_period: 1.0,
            duration: 4.0,
            stacks: vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x80)])),
            ],
            binmap: b.build(),
            events: EventBatch::from_events(&[
                TraceEvent::Alloc {
                    time: 0.0,
                    object: ObjectId(1),
                    site: SiteId(0),
                    size: 4096,
                    address: 0x10000,
                },
                TraceEvent::LoadMissSample {
                    time: 0.5,
                    address: 0x10040,
                    latency_cycles: 300.0,
                    function: crate::ids::FuncId(0),
                },
                TraceEvent::Alloc {
                    time: 1.0,
                    object: ObjectId(2),
                    site: SiteId(1),
                    size: 4096,
                    address: 0x20000,
                },
                TraceEvent::StoreSample {
                    time: 1.5,
                    address: 0x20040,
                    l1d_miss: true,
                    function: crate::ids::FuncId(0),
                },
                TraceEvent::Free { time: 2.0, object: ObjectId(1) },
                TraceEvent::Free { time: 3.0, object: ObjectId(2) },
            ]),
        }
    }

    fn toy_report() -> PlacementReport {
        let mut r = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
        r.push(ReportEntry {
            stack: ReportStack::Bom(CallStack::new(vec![Frame::new(ModuleId(0), 0x40)])),
            tier: TierId::DRAM,
            max_size: 4096,
        });
        r.push(ReportEntry {
            stack: ReportStack::Bom(CallStack::new(vec![Frame::new(ModuleId(0), 0x80)])),
            tier: TierId::DRAM,
            max_size: 4096,
        });
        r
    }

    #[test]
    fn severity_zero_is_a_no_op() {
        for kind in FaultKind::ALL {
            let spec = FaultSpec::new(kind, 0.0);
            let mut t = toy_trace();
            let before = t.clone();
            assert!(spec.apply_to_trace(&mut t).is_empty(), "{kind}");
            assert_eq!(t, before, "{kind}");
            let mut r = toy_report();
            let before = r.clone();
            assert!(spec.apply_to_report(&mut r).is_empty(), "{kind}");
            assert_eq!(r, before, "{kind}");
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        for kind in FaultKind::ALL {
            let spec = FaultSpec::with_seed(kind, 0.7, 99);
            let (mut a, mut b) = (toy_trace(), toy_trace());
            spec.apply_to_trace(&mut a);
            spec.apply_to_trace(&mut b);
            assert_eq!(a, b, "{kind}");
            let (mut ra, mut rb) = (toy_report(), toy_report());
            spec.apply_to_report(&mut ra);
            spec.apply_to_report(&mut rb);
            assert_eq!(ra, rb, "{kind}");
        }
    }

    #[test]
    fn full_truncation_empties_the_event_stream() {
        let mut t = toy_trace();
        let w = FaultSpec::new(FaultKind::TruncateEvents, 1.0).apply_to_trace(&mut t);
        assert!(t.events.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::FaultInjected);
        t.validate().unwrap(); // truncation alone keeps the trace valid
    }

    #[test]
    fn full_sample_drop_keeps_allocation_events() {
        let mut t = toy_trace();
        FaultSpec::new(FaultKind::DropSamples, 1.0).apply_to_trace(&mut t);
        assert_eq!(t.sample_count(), 0);
        assert_eq!(t.alloc_count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn free_before_alloc_breaks_strict_validation() {
        let mut t = toy_trace();
        let w = FaultSpec::new(FaultKind::FreeBeforeAlloc, 0.5).apply_to_trace(&mut t);
        assert!(!w.is_empty());
        assert!(t.validate().is_err());
        let sw = t.sanitize();
        t.validate().unwrap();
        assert!(sw.iter().any(|w| w.kind == WarningKind::OrphanFree));
    }

    #[test]
    fn corrupt_timestamps_are_repaired_by_sanitize() {
        let mut t = toy_trace();
        let w = FaultSpec::new(FaultKind::CorruptTimestamps, 1.0).apply_to_trace(&mut t);
        assert!(!w.is_empty());
        t.sanitize();
        t.validate().unwrap();
    }

    #[test]
    fn stale_offsets_keep_entries_resolvable_but_different() {
        let mut r = toy_report();
        let before = r.clone();
        let w = FaultSpec::new(FaultKind::StaleOffsets, 1.0).apply_to_report(&mut r);
        assert!(!w.is_empty());
        assert_ne!(r, before);
        // Still the same modules: stale offsets resolve at init and simply
        // never match at runtime.
        for e in &r.entries {
            if let ReportStack::Bom(s) = &e.stack {
                assert!(s.frames().iter().all(|f| f.module == ModuleId(0)));
            }
        }
    }

    #[test]
    fn drop_modules_targets_an_impossible_module() {
        let mut r = toy_report();
        FaultSpec::new(FaultKind::DropModules, 1.0).apply_to_report(&mut r);
        for e in &r.entries {
            if let ReportStack::Bom(s) = &e.stack {
                assert!(s.frames().iter().all(|f| f.module == ModuleId(u16::MAX)));
            }
        }
    }

    #[test]
    fn process_fault_names_round_trip() {
        for kind in ProcessFaultKind::ALL {
            assert_eq!(ProcessFaultKind::parse(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(ProcessFaultKind::parse("melt-cpu"), None);
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in FaultKind::ALL {
            let spec = FaultSpec::parse(&format!("{}:0.5", kind.name())).unwrap();
            assert_eq!(spec.kind, kind);
            assert_eq!(spec.severity, 0.5);
        }
        assert_eq!(FaultSpec::parse("truncate-events").unwrap().severity, 1.0);
        assert!(FaultSpec::parse("melt-cpu:0.5").is_err());
        assert!(FaultSpec::parse("drop-samples:2.0").is_err());
        assert!(FaultSpec::parse("drop-samples:x").is_err());
    }
}
