//! Acceptance: crash-safe online placement. Killing the durable engine at
//! arbitrary points and recovering must be *invisible* in the final
//! placement-revision sequence — byte-identical to an uninterrupted run —
//! and `BestEffort` degradation must keep serving the last good placement,
//! marked stale, when the worker dies for good.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{
    DurabilityConfig, DurableEngine, OnlineConfig, PlacementRevision, StreamMeta, Supervisor,
    SupervisorConfig,
};
use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::rng::SplitMix64;
use memtrace::{DegradationPolicy, TraceEvent, TraceFile};
use profiler::{profile_run, ProfilerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "ecohmem-crash-accept-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn golden_trace(app_name: &str) -> TraceFile {
    let app = ecohmem::workloads::model_by_name(app_name).unwrap();
    let machine = MachineConfig::optane_pmem6();
    let (trace, _) = profile_run(
        &app,
        &machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(machine.largest_tier()),
        &ProfilerConfig::default(),
    );
    trace
}

/// The deterministic feed plan: the same op sequence drives the
/// uninterrupted run and every crashed run, so the only variable is
/// *where* the kill lands.
enum Op {
    Batch(Vec<TraceEvent>),
    Tick(f64),
}

fn feed_plan(trace: &TraceFile) -> Vec<Op> {
    let mut ops = Vec::new();
    let events = trace.events.to_events();
    let chunks: Vec<&[TraceEvent]> = events.chunks(512).collect();
    let stride = (chunks.len() / 6).max(1);
    for (i, chunk) in chunks.iter().enumerate() {
        ops.push(Op::Batch(chunk.to_vec()));
        if (i + 1) % stride == 0 {
            ops.push(Op::Tick(chunk.last().unwrap().time()));
        }
    }
    ops.push(Op::Tick(trace.duration));
    ops
}

fn open_engine(dir: &std::path::Path, trace: &TraceFile) -> (DurableEngine, bool) {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.checkpoint_every = 8; // small: crashes land both before and after checkpoints
    let (engine, report) = DurableEngine::open(
        cfg,
        StreamMeta::of(trace),
        DegradationPolicy::Strict,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(12),
        Algorithm::Base,
    )
    .unwrap();
    (engine, report.resumed)
}

fn apply(engine: &mut DurableEngine, op: &Op) {
    match op {
        Op::Batch(events) => engine.ingest(events.clone()).unwrap(),
        Op::Tick(now) => {
            engine.tick(*now).unwrap();
        }
    }
}

#[test]
fn kill_and_restart_is_invisible_in_the_revision_log() {
    for (ai, app_name) in ["minife", "lulesh", "hpcg"].iter().enumerate() {
        let trace = golden_trace(app_name);
        let ops = feed_plan(&trace);
        assert!(ops.len() > 4, "{app_name}: plan too short to crash inside");

        // Uninterrupted reference run.
        let base_dir = tmpdir(&format!("{app_name}-base"));
        let (mut engine, resumed) = open_engine(&base_dir, &trace);
        assert!(!resumed);
        for op in &ops {
            apply(&mut engine, op);
        }
        let reference: Vec<PlacementRevision> = engine.close().unwrap();
        assert!(!reference.is_empty(), "{app_name}: the run must replan at least once");
        std::fs::remove_dir_all(&base_dir).unwrap();

        // Seeded kill offsets: ≥3 distinct interior points per workload.
        let mut rng = SplitMix64::new(0xC0FF_EE00u64 + ai as u64);
        let mut offsets = Vec::new();
        while offsets.len() < 3 {
            let k = 1 + (rng.next_u64() as usize) % (ops.len() - 1);
            if !offsets.contains(&k) {
                offsets.push(k);
            }
        }

        for kill_at in offsets {
            let dir = tmpdir(&format!("{app_name}-kill{kill_at}"));
            let (mut engine, _) = open_engine(&dir, &trace);
            for op in &ops[..kill_at] {
                apply(&mut engine, op);
            }
            // The kill: the process dies — no close, no final checkpoint.
            drop(engine);
            // Restart: recover from checkpoint + journal suffix, finish the
            // stream from exactly where the feed left off.
            let (mut engine, resumed) = open_engine(&dir, &trace);
            assert!(resumed, "{app_name}@{kill_at}: recovery must see prior state");
            for op in &ops[kill_at..] {
                apply(&mut engine, op);
            }
            let recovered = engine.close().unwrap();
            assert_eq!(
                recovered,
                reference,
                "{app_name}: crash at op {kill_at}/{} changed the revision log",
                ops.len(),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn best_effort_serves_the_stale_placement_after_a_fatal_crash() {
    let trace = golden_trace("minife");
    let dir = tmpdir("minife-besteffort");
    let sup_cfg = SupervisorConfig {
        restart_budget: 0, // first panic is fatal: forces degradation
        backoff_base_ms: 1,
        admit_deadline: Duration::from_secs(30),
        ..SupervisorConfig::default()
    };
    let supervisor = Supervisor::spawn(
        DurabilityConfig::new(&dir),
        StreamMeta::of(&trace),
        DegradationPolicy::BestEffort,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(12),
        Algorithm::Base,
        sup_cfg,
        |_| {},
    );
    let events = trace.events.to_events();
    let half = events.len() / 2;
    for chunk in events[..half].chunks(512) {
        supervisor.offer(chunk.to_vec()).unwrap();
    }
    supervisor.tick(events[half - 1].time()).unwrap();
    let mut live = None;
    for _ in 0..600 {
        if let Some(v) = supervisor.placement() {
            live = Some(v);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let live = live.expect("a live placement after the first epoch");
    assert!(!live.stale);

    supervisor.inject_panic("fatal chaos").unwrap();
    // Within one epoch (no further ticks complete), the stale view appears.
    let mut stale = None;
    for _ in 0..600 {
        match supervisor.placement() {
            Some(v) if v.stale => {
                stale = Some(v);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let stale = stale.expect("BestEffort serves a stale-marked placement");
    assert_eq!(stale.epoch, live.epoch, "it is the last completed epoch's plan");
    assert_eq!(stale.tiers, live.tiers, "the plan itself is unchanged");
    let outcome = supervisor.finish().unwrap();
    assert!(outcome.degraded, "the outcome records the degradation");
    std::fs::remove_dir_all(&dir).unwrap();
}
