//! Graceful degradation on the streaming path: the same
//! Strict / Warn / BestEffort contract the offline toolchain honors
//! (see the repo-level `tests/degradation.rs`), enforced event-by-event.
//!
//! The cross-validation anchor: for every trace-damaging fault the
//! injection harness knows, lenient streaming must salvage *exactly* the
//! profile the batch path gets from `sanitize` + `analyze`. The online
//! engine is allowed to be incremental; it is not allowed to have its own
//! opinion about what damaged data means.

use ecohmem_online::{stream_profile, DegradationPolicy, OnlineConfig, StreamIngestor, StreamMeta};
use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::{FaultKind, FaultSpec, FaultTarget, TierId, TraceEvent, TraceFile, WarningKind};
use profiler::{analyze, analyze_lenient};

fn profiled_trace() -> TraceFile {
    let app = workloads::minife::model();
    let mach = MachineConfig::optane_pmem6();
    let (trace, _) = profiler::profile_run(
        &app,
        &mach,
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
        &profiler::ProfilerConfig::default(),
    );
    trace
}

/// A smaller profiled trace with many allocations (lammps at a tenth of
/// its size: ~28k events, ~300 allocations).
fn small_trace() -> TraceFile {
    let app = workloads::scale_model(&workloads::lammps::model(), 0.1);
    let (trace, _) = profiler::profile_run(
        &app,
        &MachineConfig::optane_pmem6(),
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
        &profiler::ProfilerConfig::default(),
    );
    trace
}

fn damaged(kind: FaultKind, severity: f64) -> TraceFile {
    let mut trace = profiled_trace();
    FaultSpec::new(kind, severity).apply_to_trace(&mut trace);
    trace
}

/// For every trace fault at partial and full severity, the lenient
/// streaming profile equals the batch lenient profile exactly.
#[test]
fn lenient_streaming_matches_batch_lenient_analysis_under_every_fault() {
    for kind in FaultKind::ALL {
        if kind.target() != FaultTarget::Trace {
            continue;
        }
        for severity in [0.5, 1.0] {
            let trace = damaged(kind, severity);
            let (batch, _) = analyze_lenient(&trace);
            let (streamed, _) =
                stream_profile(&trace, DegradationPolicy::BestEffort, OnlineConfig::default())
                    .unwrap_or_else(|e| panic!("{kind}:{severity}: BestEffort must complete: {e}"));
            assert_eq!(streamed, batch, "{kind}:{severity}");
        }
    }
}

/// Strict streaming fails fast on clock damage, with the same error the
/// batch validator reports; lenient policies salvage the stream.
#[test]
fn policies_order_by_permissiveness_on_a_damaged_stream() {
    // Deterministic clock damage: one event re-stamped before its
    // predecessor (the out-of-order signature CorruptTimestamps leaves).
    let mut trace = profiled_trace();
    assert!(trace.events.len() > 12);
    let ops = &trace.events.ops;
    let (ninth, tenth) = (ops[9], ops[10]);
    let earlier = trace.events.time_of(ninth) - 1.0;
    trace.events.set_time(tenth, earlier);

    let strict_err =
        stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap_err();
    let batch_err = analyze(&trace).unwrap_err();
    assert_eq!(strict_err.to_string(), batch_err.to_string());

    let (warn_p, warn_w) = stream_profile(&trace, DegradationPolicy::Warn, OnlineConfig::default())
        .expect("Warn must salvage a partially damaged stream");
    assert!(!warn_w.is_empty(), "salvage must be reported");

    let (best_p, best_w) =
        stream_profile(&trace, DegradationPolicy::BestEffort, OnlineConfig::default())
            .expect("BestEffort must always complete");
    assert!(!best_w.is_empty());
    // Warn and BestEffort drop the same events; they differ only in when
    // they refuse to continue.
    assert_eq!(warn_p, best_p);
}

/// Per-event drops surface through the aggregate DroppedEvents warning
/// with honest bookkeeping (dropped of seen).
#[test]
fn dropped_events_are_counted_in_the_warnings() {
    let trace = damaged(FaultKind::CorruptTimestamps, 0.5);
    let (_, warnings) =
        stream_profile(&trace, DegradationPolicy::BestEffort, OnlineConfig::default()).unwrap();
    let agg = warnings
        .iter()
        .find(|w| w.detail.contains("streaming ingestion dropped"))
        .expect("aggregate drop warning");
    assert!(agg.detail.contains("trace events"), "{}", agg.detail);
}

/// When *nothing* in the stream is usable, Warn refuses (matching the PR 1
/// exit-code contract: Warn errs when a stage has no usable output) while
/// BestEffort degrades to an empty profile.
#[test]
fn warn_refuses_a_stream_with_nothing_usable() {
    let mut trace = profiled_trace();
    for i in 0..trace.events.len() {
        let op = trace.events.ops[i];
        trace.events.set_time(op, f64::NAN); // total clock failure: every event unusable
    }

    let err = stream_profile(&trace, DegradationPolicy::Warn, OnlineConfig::default())
        .expect_err("Warn must refuse a fully unusable stream");
    assert!(err.to_string().contains("dropped"), "{err}");

    let (p, w) = stream_profile(&trace, DegradationPolicy::BestEffort, OnlineConfig::default())
        .expect("BestEffort never fails");
    assert!(p.sites.is_empty(), "no usable events → empty profile");
    assert!(!w.is_empty());
}

/// Truncated streams (torn write / killed profiler) are the canonical
/// streaming failure: allocations outlive the stream. Lenient streaming
/// must profile the salvageable prefix identically to the batch path.
#[test]
fn truncated_streams_salvage_the_prefix() {
    let mut trace = profiled_trace();
    let keep = trace.events.len() / 3;
    trace.events = trace.events.slice_ops(0..keep);
    // Also simulate mid-record loss: a free for an object whose alloc was
    // cut off by the truncation.
    let t = trace.events.iter_events().last().map_or(0.0, |e| e.time());
    trace.events.push(&TraceEvent::Free { time: t, object: memtrace::ObjectId(u64::MAX) });

    let (batch, _) = analyze_lenient(&trace);
    let (streamed, warnings) =
        stream_profile(&trace, DegradationPolicy::Warn, OnlineConfig::default())
            .expect("a salvageable prefix must satisfy Warn");
    assert_eq!(streamed, batch);
    assert!(!warnings.is_empty(), "the orphan free must be reported");
}

/// The streaming/batch contract, event rule by event rule: for every
/// trace fault at light, heavy and full severity under three seeds, a
/// `Strict` ingestor fails with exactly `TraceFile::validate`'s error
/// (or both accept), and the lenient ingestors drop exactly what
/// `sanitize_verbose` drops — same kinds, counts, first indices and
/// dropped window.
#[test]
fn streaming_applies_the_batch_integrity_rules_under_every_fault() {
    let clean = small_trace();
    for kind in FaultKind::ALL.into_iter().filter(|k| k.target() == FaultTarget::Trace) {
        for severity in [0.05, 0.5, 1.0] {
            for seed in [11u64, 12, 13] {
                let what = format!("{kind}@{severity} seed {seed}");
                let mut damaged = clean.clone();
                FaultSpec::with_seed(kind, severity, seed).apply_to_trace(&mut damaged);
                let feed = |policy| {
                    let mut ing = StreamIngestor::new(
                        StreamMeta::of(&damaged),
                        policy,
                        OnlineConfig::default(),
                    );
                    let mut lo = 0;
                    while lo < damaged.len() {
                        let hi = (lo + 4096).min(damaged.len());
                        ing.push_batch(&damaged.events.slice_ops(lo..hi))?;
                        lo = hi;
                    }
                    Ok::<_, memtrace::TraceError>(ing)
                };

                let strict = feed(DegradationPolicy::Strict).map(|_| ()).map_err(|e| e.to_string());
                let batch = damaged.validate().map_err(|e| e.to_string());
                assert_eq!(strict, batch, "{what}: Strict");

                let mut sanitized = damaged.clone();
                let (warnings, window) = sanitized.sanitize_verbose();
                let drops: Vec<_> =
                    warnings.into_iter().filter(|w| w.kind != WarningKind::BadMetadata).collect();
                for policy in [DegradationPolicy::Warn, DegradationPolicy::BestEffort] {
                    let ing = feed(policy).expect("lenient ingestion never fails mid-stream");
                    assert_eq!(ing.dropped(), window.count, "{what}: {policy:?} dropped");
                    assert_eq!(ing.dropped_window(), window, "{what}: {policy:?} window");
                    let streamed: Vec<_> = ing
                        .warnings()
                        .into_iter()
                        .filter(|w| w.kind != WarningKind::DroppedEvents)
                        .collect();
                    assert_eq!(streamed, drops, "{what}: {policy:?} warnings");
                }
            }
        }
    }
}
