//! Differentials for the columnar trace-repair path: the columnar fault
//! injectors against the original event-vector injectors on profiled
//! traces damaged by every trace fault kind, and sanitize's repair of
//! every such trace.

use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::{
    CallStack, EventBatch, FaultKind, FaultSpec, FaultTarget, Frame, ModuleId, ObjectId, TierId,
    TraceEvent, TraceFile, Warning, WarningKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The event-vector trace injectors as they stood before the columnar
/// port, kept verbatim as the oracle over the trace's AoS view: the same
/// `StdRng` stream, drawn event by event in trace order.
fn oracle_apply(spec: &FaultSpec, trace: &mut TraceFile) -> Vec<Warning> {
    if spec.kind.target() != FaultTarget::Trace || spec.severity <= 0.0 {
        return Vec::new();
    }
    let mut events = trace.events.to_events();
    let severity = spec.severity.min(1.0);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ ((spec.kind as u64) << 56) ^ 0x5eed);
    let mutated = match spec.kind {
        FaultKind::TruncateEvents => {
            let keep = ((events.len() as f64) * (1.0 - severity)).floor() as usize;
            let dropped = events.len() - keep;
            events.truncate(keep);
            dropped
        }
        FaultKind::DropSamples => {
            let before = events.len();
            events.retain(|e| !e.is_sample() || rng.gen::<f64>() >= severity);
            before - events.len()
        }
        FaultKind::CorruptTimestamps => {
            let span = if trace.duration.is_finite() && trace.duration > 0.0 {
                trace.duration
            } else {
                1.0
            };
            let mut hit = 0usize;
            for e in events.iter_mut() {
                if rng.gen::<f64>() < severity {
                    let t = if rng.gen::<f64>() < 0.2 { f64::NAN } else { rng.gen::<f64>() * span };
                    e.set_time(t);
                    hit += 1;
                }
            }
            hit
        }
        FaultKind::FreeBeforeAlloc => {
            let allocs = trace.alloc_count().max(1);
            let extra = ((allocs as f64) * severity).ceil() as usize;
            let t0 = events.first().map(|e| e.time()).unwrap_or(0.0);
            let fresh = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Alloc { object, .. } => Some(object.0),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
                + 1;
            for i in 0..extra {
                events.insert(0, TraceEvent::Free { time: t0, object: ObjectId(fresh + i as u64) });
            }
            extra
        }
        FaultKind::UnknownModules => {
            let ghost = ModuleId(trace.binmap.len().max(1) as u16);
            let mut hit = 0usize;
            for (_, stack) in &mut trace.stacks {
                if rng.gen::<f64>() < severity {
                    *stack = CallStack::new(
                        stack.frames().iter().map(|f| Frame::new(ghost, f.offset)).collect(),
                    );
                    hit += 1;
                }
            }
            hit
        }
        FaultKind::StaleOffsets | FaultKind::DropModules => unreachable!("report faults"),
    };
    trace.events = EventBatch::from_events(&events);
    if mutated == 0 {
        return Vec::new();
    }
    vec![Warning::new(
        WarningKind::FaultInjected,
        format!("{}@{severity}: mutated {mutated} trace item(s)", spec.kind),
    )]
}

/// A small profiled trace (lammps at a tenth of its size: ~28k events,
/// ~300 allocations) with a few recycled object ids appended, so
/// realloc-after-free is covered.
fn profiled_trace() -> TraceFile {
    let app = workloads::scale_model(&workloads::lammps::model(), 0.1);
    let (mut trace, _) = profiler::profile_run(
        &app,
        &MachineConfig::optane_pmem6(),
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
        &profiler::ProfilerConfig::default(),
    );
    let end = trace.events.iter_events().last().map_or(0.0, |e| e.time());
    let (site, _) = trace.stacks[0].clone();
    for (i, id) in [7u64 << 40, 7 << 40, 9 << 40].into_iter().enumerate() {
        let time = end + i as f64;
        let object = ObjectId(id);
        trace.events.push(&TraceEvent::Alloc { time, object, site, size: 64, address: 64 });
        trace.events.push(&TraceEvent::Free { time, object: ObjectId(id) });
    }
    trace.validate().expect("profiled traces are valid");
    assert!(trace.sample_count() > 1000 && trace.alloc_count() > 100);
    trace
}

/// Event-for-event equality that also holds for NaN timestamps: times
/// compare by bit pattern, every other field by value.
fn assert_same_events(a: &EventBatch, b: &EventBatch, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: event count");
    for (i, (x, y)) in a.iter_events().zip(b.iter_events()).enumerate() {
        assert_eq!(x.time().to_bits(), y.time().to_bits(), "{what}: time of event {i}");
        let (mut x, mut y) = (x.clone(), y.clone());
        x.set_time(0.0);
        y.set_time(0.0);
        assert_eq!(x, y, "{what}: event {i}");
    }
}

fn trace_kinds() -> impl Iterator<Item = FaultKind> {
    FaultKind::ALL.into_iter().filter(|k| k.target() == FaultTarget::Trace)
}

#[test]
fn columnar_injectors_match_the_event_vector_oracle() {
    let clean = profiled_trace();
    for kind in trace_kinds() {
        for severity in [0.0, 0.05, 0.5, 1.0] {
            for seed in [1u64, 2, 3] {
                let what = format!("{kind}@{severity} seed {seed}");
                let spec = FaultSpec::with_seed(kind, severity, seed);
                let mut oracle = clean.clone();
                let oracle_warnings = oracle_apply(&spec, &mut oracle);

                let mut damaged = clean.clone();
                let warnings = spec.apply_to_trace(&mut damaged);
                assert_eq!(warnings, oracle_warnings, "{what}: warnings");
                assert_same_events(&damaged.events, &oracle.events, &what);
                assert_eq!(damaged.stacks, oracle.stacks, "{what}: stacks");
            }
        }
    }
}

#[test]
fn sanitize_leaves_a_valid_trace_under_every_fault() {
    let clean = profiled_trace();
    for kind in trace_kinds() {
        for severity in [0.0, 0.05, 0.5, 1.0] {
            for seed in [1u64, 2, 3] {
                let what = format!("{kind}@{severity} seed {seed}");
                let mut damaged = clean.clone();
                FaultSpec::with_seed(kind, severity, seed).apply_to_trace(&mut damaged);
                let before = damaged.len() as u64;
                let (_, window) = damaged.sanitize_verbose();
                assert_eq!(window.count, before - damaged.len() as u64, "{what}: dropped window");
                damaged.validate().unwrap_or_else(|e| panic!("{what}: {e}"));

                let sanitized = damaged.clone();
                let (again, again_window) = damaged.sanitize_verbose();
                assert!(again.is_empty(), "{what}: second sanitize repaired {again:?}");
                assert_eq!(again_window.count, 0, "{what}");
                assert_same_events(&damaged.events, &sanitized.events, &what);
            }
        }
    }
}
