//! Property tests for the durability layer.
//!
//! 1. Checkpoint → restore is the identity: for *arbitrary* ingest
//!    prefixes of arbitrary valid event streams, an engine that crashes
//!    (is dropped without `close`) and recovers produces exactly the
//!    state and revision log of one that never crashed.
//! 2. Journal replay is deterministic under damaged inputs: for every
//!    trace fault the injection harness knows, a `BestEffort` engine
//!    crashed mid-stream and recovered converges on the same revisions
//!    and the same salvage warnings as an uninterrupted run.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{DurabilityConfig, DurableEngine, OnlineConfig, StreamMeta};
use memtrace::{
    BinaryMap, BinaryMapBuilder, CallStack, DegradationPolicy, EventBatch, FaultKind, FaultSpec,
    FaultTarget, Frame, FuncId, ModuleId, ObjectId, SiteId, TraceEvent, TraceFile,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "ecohmem-dur-props-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn image() -> BinaryMap {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
    b.build()
}

/// Structurally valid event streams (same shape as `convergence.rs`).
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..5, 0.001f64..1.0, any::<u16>()), 1..80).prop_map(|ops| {
        let mut t = 0.0;
        let mut next_obj = 1u64;
        let mut live: Vec<(u64, u64, u64)> = Vec::new();
        let mut cursor = 1u64 << 44;
        let mut events = Vec::new();
        for (kind, dt, salt) in ops {
            t += dt;
            match kind {
                0 => {
                    let size = 64 * (u64::from(salt) % 512 + 1);
                    let addr = cursor;
                    cursor += size;
                    events.push(TraceEvent::Alloc {
                        time: t,
                        object: ObjectId(next_obj),
                        site: SiteId(u32::from(salt) % 4),
                        size,
                        address: addr,
                    });
                    live.push((next_obj, addr, size));
                    next_obj += 1;
                }
                1 => {
                    if !live.is_empty() {
                        let (obj, _, _) = live.remove(usize::from(salt) % live.len());
                        events.push(TraceEvent::Free { time: t, object: ObjectId(obj) });
                    }
                }
                2 => {
                    if let Some(&(_, addr, size)) = live.first() {
                        events.push(TraceEvent::LoadMissSample {
                            time: t,
                            address: addr + u64::from(salt) % size / 64 * 64,
                            latency_cycles: f64::from(salt % 1000) + 90.0,
                            function: FuncId(salt % 8),
                        });
                    }
                }
                3 => {
                    if let Some(&(_, addr, size)) = live.last() {
                        events.push(TraceEvent::StoreSample {
                            time: t,
                            address: addr + u64::from(salt) % size / 64 * 64,
                            l1d_miss: salt % 2 == 0,
                            function: FuncId(salt % 8),
                        });
                    }
                }
                _ => {
                    events.push(TraceEvent::PhaseMarker { time: t, phase: u32::from(salt) % 100 });
                }
            }
        }
        events
    })
}

fn trace_with(events: Vec<TraceEvent>) -> TraceFile {
    let duration = events.last().map(|e| e.time() + 1.0).unwrap_or(1.0);
    TraceFile {
        app_name: "prop".into(),
        seed: 7,
        ranks: 1,
        sampling_hz: 100.0,
        load_sample_period: 12.5,
        store_sample_period: 8.0,
        duration,
        stacks: (0..4)
            .map(|i| (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), 64 * u64::from(i))])))
            .collect(),
        binmap: image(),
        events: EventBatch::from_events(&events),
    }
}

fn advisor_cfg() -> AdvisorConfig {
    let mut cfg = AdvisorConfig::loads_and_stores(1);
    cfg.tiers[0].capacity = 64 * 256;
    cfg
}

fn open(
    dir: &std::path::Path,
    trace: &TraceFile,
    policy: DegradationPolicy,
    checkpoint_every: u64,
) -> DurableEngine {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.checkpoint_every = checkpoint_every;
    let (engine, _) = DurableEngine::open(
        cfg,
        StreamMeta::of(trace),
        policy,
        OnlineConfig::default(),
        advisor_cfg(),
        Algorithm::Base,
    )
    .unwrap();
    engine
}

/// Runs the full plan, optionally crashing (drop + reopen) after `crash_at`
/// batches. Returns (revisions, final profile snapshot, warning lines).
fn drive(
    dir: &std::path::Path,
    trace: &TraceFile,
    policy: DegradationPolicy,
    checkpoint_every: u64,
    crash_at: Option<usize>,
) -> (Vec<ecohmem_online::PlacementRevision>, profiler::ProfileSet, usize) {
    let events = trace.events.to_events();
    let chunks: Vec<&[TraceEvent]> = events.chunks(8).collect();
    let mut engine = open(dir, trace, policy, checkpoint_every);
    let mut fed = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        if crash_at == Some(i) {
            drop(engine);
            engine = open(dir, trace, policy, checkpoint_every);
        }
        engine.ingest(chunk.to_vec()).unwrap();
        fed += chunk.len();
        if fed % 24 == 0 {
            engine.tick(chunk.last().unwrap().time()).unwrap();
        }
    }
    engine.tick(trace.duration).unwrap();
    let profile = engine.ingestor().snapshot(trace.duration);
    let warnings = engine.ingestor().warnings().len();
    let revisions = engine.close().unwrap();
    (revisions, profile, warnings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-and-restore at an arbitrary prefix of an arbitrary valid
    /// stream is invisible: identical revisions, identical final profile,
    /// identical warning count.
    #[test]
    fn checkpoint_restore_is_identity_over_arbitrary_prefixes(
        events in arb_events(),
        crash_frac in 0.0f64..1.0,
        checkpoint_every in 0u64..16, // 0 = checkpoint only on close
    ) {
        let trace = trace_with(events);
        let chunk_count = trace.len().div_ceil(8);
        if chunk_count == 0 {
            continue; // an all-no-op stream generated no events
        }
        let crash_at = ((crash_frac * chunk_count as f64) as usize).min(chunk_count - 1);

        let base = tmpdir("prop-base");
        let (ref_revs, ref_profile, ref_warn) =
            drive(&base, &trace, DegradationPolicy::Strict, checkpoint_every, None);
        std::fs::remove_dir_all(&base).unwrap();

        let dir = tmpdir("prop-crash");
        let (revs, profile, warn) =
            drive(&dir, &trace, DegradationPolicy::Strict, checkpoint_every, Some(crash_at));
        std::fs::remove_dir_all(&dir).unwrap();

        prop_assert_eq!(revs, ref_revs);
        prop_assert_eq!(profile, ref_profile);
        prop_assert_eq!(warn, ref_warn);
    }
}

/// Deterministic synthetic stream for the fault matrix: enough structure
/// that every fault kind has something to damage.
fn fixture_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut t = 0.0;
    for i in 0..60u64 {
        t += 0.05;
        events.push(TraceEvent::Alloc {
            time: t,
            object: ObjectId(i + 1),
            site: SiteId((i % 4) as u32),
            size: 4096 * (i % 7 + 1),
            address: (1 << 44) + i * (1 << 20),
        });
        t += 0.01;
        events.push(TraceEvent::LoadMissSample {
            time: t,
            address: (1 << 44) + i * (1 << 20) + 128,
            latency_cycles: 250.0 + i as f64,
            function: FuncId((i % 8) as u16),
        });
        if i % 3 == 0 {
            t += 0.01;
            events.push(TraceEvent::Free { time: t, object: ObjectId(i + 1) });
        }
        if i % 10 == 9 {
            t += 0.01;
            events.push(TraceEvent::PhaseMarker { time: t, phase: (i / 10) as u32 });
        }
    }
    events
}

/// For every trace-damaging fault, `BestEffort` recovery replays to the
/// same salvaged state an uninterrupted run reaches: the journal records
/// what was *offered*, so damage and salvage decisions replay verbatim.
#[test]
fn journal_replay_is_deterministic_under_every_fault_kind() {
    for kind in FaultKind::ALL {
        if kind.target() != FaultTarget::Trace {
            continue;
        }
        for severity in [0.4, 1.0] {
            let mut trace = trace_with(fixture_events());
            FaultSpec::new(kind, severity).apply_to_trace(&mut trace);

            let base = tmpdir("fault-base");
            let (ref_revs, ref_profile, ref_warn) =
                drive(&base, &trace, DegradationPolicy::BestEffort, 4, None);
            std::fs::remove_dir_all(&base).unwrap();

            let chunk_count = trace.len().div_ceil(8).max(1);
            for crash_at in [0, chunk_count / 2, chunk_count - 1] {
                let dir = tmpdir("fault-crash");
                let (revs, profile, warn) =
                    drive(&dir, &trace, DegradationPolicy::BestEffort, 4, Some(crash_at));
                std::fs::remove_dir_all(&dir).unwrap();
                assert_eq!(revs, ref_revs, "{kind}:{severity} crash@{crash_at}");
                assert_eq!(profile, ref_profile, "{kind}:{severity} crash@{crash_at}");
                assert_eq!(warn, ref_warn, "{kind}:{severity} crash@{crash_at}");
            }
        }
    }
}
