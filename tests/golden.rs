//! Golden snapshot tests: the advisor's placement report and the run's
//! normalized metrics document for the three reference workloads, pinned
//! byte-for-byte against `tests/golden/*.json`, and digests of full engine
//! and fleet results in `tests/golden/engine_runs.txt`.
//!
//! The pipeline is deterministic (seeded sampling, analytic simulation,
//! insertion-ordered JSON), so these artifacts must not drift without an
//! intentional change. When behaviour *does* change on purpose,
//! regenerate the goldens and review the diff like any other code change:
//!
//! ```text
//! ECOHMEM_BLESS=1 cargo test --test golden
//! git diff tests/golden/
//! ```
//!
//! The metrics golden is *normalized*: wall-clock and nanosecond span
//! timings are volatile and excluded; what is pinned are the span counts
//! per stage, every named counter, and every gauge — the numbers a
//! placement decision can be audited against.
//!
//! Everything runs inside one test function in a fixed order: the obs
//! registry and the memoization cache are process-global, so ordering is
//! part of determinism.

use ecohmem::prelude::*;
use ecohmem_obs::Json;

mod support;

const APPS: [&str; 3] = ["minife", "lulesh", "hpcg"];

/// The normalized metrics document: span counts per stage, all counters,
/// all gauges — no wall-clock, no nanoseconds.
fn normalized_metrics(label: &str) -> String {
    let snap = ecohmem_obs::snapshot();
    let stages: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix("span.")?.strip_suffix(".ns")?;
            Some((stage.to_string(), Json::U64(h.count)))
        })
        .collect();
    let counters: Vec<(String, Json)> =
        snap.counters.iter().map(|(n, v)| (n.clone(), Json::U64(*v))).collect();
    let gauges: Vec<(String, Json)> =
        snap.gauges.iter().map(|(n, v)| (n.clone(), Json::f64(*v))).collect();
    Json::Obj(vec![
        ("schema".into(), Json::str("ecohmem.golden_metrics/1")),
        ("label".into(), Json::str(label)),
        ("stages".into(), Json::Obj(stages)),
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
    ])
    .to_string_pretty()
        + "\n"
}

/// The durability metrics document: span counts and counters only. The
/// durability gauges (`online.channel.depth_hwm`, `online.staleness_ms`)
/// reflect how far the producer raced ahead of the worker — load-dependent
/// by design — so they are observed live, not pinned.
fn durability_metrics(label: &str) -> String {
    let snap = ecohmem_obs::snapshot();
    let stages: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix("span.")?.strip_suffix(".ns")?;
            Some((stage.to_string(), Json::U64(h.count)))
        })
        .collect();
    let counters: Vec<(String, Json)> =
        snap.counters.iter().map(|(n, v)| (n.clone(), Json::U64(*v))).collect();
    Json::Obj(vec![
        ("schema".into(), Json::str("ecohmem.golden_metrics/1")),
        ("label".into(), Json::str(label)),
        ("stages".into(), Json::Obj(stages)),
        ("counters".into(), Json::Obj(counters)),
    ])
    .to_string_pretty()
        + "\n"
}

/// Drives the supervised durable engine through two injected crashes and a
/// deterministic overload episode, then pins `online.recoveries` and
/// `online.shed_events` (plus every other counter the episode produced).
fn durability_scenario() -> String {
    use advisor::{AdvisorConfig, Algorithm};
    use ecohmem_online::{Admission, DurabilityConfig, StreamMeta, Supervisor, SupervisorConfig};
    use memsim::{ExecMode, FixedTier, MachineConfig};
    use memtrace::{DegradationPolicy, TraceEvent};
    use profiler::{profile_run, ProfilerConfig};
    use std::time::Duration;

    let app = ecohmem::workloads::model_by_name("minife").unwrap();
    let machine = MachineConfig::optane_pmem6();
    let (trace, _) = profile_run(
        &app,
        &machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(machine.largest_tier()),
        &ProfilerConfig::default(),
    );

    // Profiling spans stay out of the durability snapshot.
    ecohmem_obs::reset();
    ecohmem_obs::set_enabled(true);

    // Two injected crashes inside the stream; the patient deadline rides
    // out each restart, so nothing sheds and every counter downstream of
    // the queue is a pure function of the (fixed) envelope order.
    let dir = std::env::temp_dir().join(format!("ecohmem-golden-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_every = 64;
    let sup_cfg = SupervisorConfig {
        backoff_base_ms: 1,
        backoff_max_ms: 2,
        admit_deadline: Duration::from_secs(60),
        ..SupervisorConfig::default()
    };
    let s = Supervisor::spawn(
        durability,
        StreamMeta::of(&trace),
        DegradationPolicy::Strict,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(12),
        Algorithm::Base,
        sup_cfg,
        |_| {},
    );
    let events = trace.events.to_events();
    let chunks: Vec<&[TraceEvent]> = events.chunks(512).collect();
    let crashes = [chunks.len() / 3, 2 * chunks.len() / 3];
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 && crashes.contains(&i) {
            s.inject_panic("golden chaos").unwrap();
        }
        match s.offer(chunk.to_vec()).unwrap() {
            Admission::Admitted => {}
            Admission::Shed => panic!("the golden feed must not shed"),
        }
        if (i + 1) % 8 == 0 {
            s.tick(chunk.last().unwrap().time()).unwrap();
        }
    }
    s.tick(trace.duration).unwrap();
    let out = s.finish().unwrap();
    assert_eq!(out.recoveries, 2, "both injected crashes recovered");
    assert_eq!(out.shed_events, 0, "the patient feed never shed");
    std::fs::remove_dir_all(&dir).unwrap();

    // Deterministic overload: a stalled single-slot queue with a zero
    // admission deadline, offered identical phase-marker batches until
    // exactly 3 of them (48 events) shed. How many batches get *admitted*
    // varies with scheduling, but admitted markers are counter-silent, so
    // the snapshot stays exact.
    let dir2 = std::env::temp_dir().join(format!("ecohmem-golden-shed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let mut durability2 = DurabilityConfig::new(&dir2);
    durability2.checkpoint_every = 0; // close-only: admitted count must not leak into span counts
    let sup_cfg2 = SupervisorConfig {
        queue_capacity: 1,
        admit_deadline: Duration::ZERO,
        ..SupervisorConfig::default()
    };
    let s2 = Supervisor::spawn(
        durability2,
        StreamMeta::of(&trace),
        DegradationPolicy::BestEffort,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(12),
        Algorithm::Base,
        sup_cfg2,
        |_| {},
    );
    let markers: Vec<TraceEvent> =
        (0..16).map(|_| TraceEvent::PhaseMarker { time: 1.0, phase: 0 }).collect();
    s2.inject_stall(Duration::from_millis(300)).unwrap();
    let (mut shed, mut admitted_since_stall) = (0u64, 0u64);
    while shed < 3 {
        match s2.offer(markers.clone()).unwrap() {
            Admission::Shed => shed += 1,
            Admission::Admitted => {
                admitted_since_stall += 1;
                if admitted_since_stall >= 64 {
                    // The worker outran the hot loop; stall it again.
                    s2.inject_stall(Duration::from_millis(300)).unwrap();
                    admitted_since_stall = 0;
                }
            }
        }
    }
    let out2 = s2.finish().unwrap();
    assert_eq!(out2.shed_events, 48, "3 shed batches of 16 markers");
    std::fs::remove_dir_all(&dir2).unwrap();

    durability_metrics("durability")
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// One line per engine case: a label and the FNV digest of the result's
/// full `Debug` rendering, which prints every float in its exact
/// shortest round-trip form, so any bit of drift changes the digest.
///
/// Cases: every model at two input scales under Memory Mode, App Direct
/// DRAM-first with PMem fallback, and App Direct under the migrating
/// kernel-tiering baseline; then one 4 × 4 mixed-colocation fleet cell
/// per scheduler. Nothing here draws from `rand`.
fn engine_fingerprints() -> String {
    use baselines::KernelTiering;
    use memsim::fleet::{self, ChurnConfig, FleetConfig, SchedulerPolicy};
    use memsim::{ExecMode, FixedTier, MachineConfig, RunCache};
    use memtrace::TierId;

    let machine = MachineConfig::optane_pmem6();
    let mut models = ecohmem::workloads::all_models();
    models.push(ecohmem::workloads::model_by_name("phaseshift").unwrap());
    let mut out = String::new();
    let mut line = |label: String, debug: String| {
        out.push_str(&format!("{label} {:016x}\n", fnv1a(debug.as_bytes())));
    };
    for model in &models {
        for scale in [0.6, 1.0] {
            let app = ecohmem::workloads::scale_model(model, scale);
            let runs = [
                (
                    "memory-mode",
                    memsim::run(
                        &app,
                        &machine,
                        ExecMode::MemoryMode,
                        &mut FixedTier::new(machine.largest_tier()),
                    ),
                ),
                (
                    "dram>pmem",
                    memsim::run(
                        &app,
                        &machine,
                        ExecMode::AppDirect,
                        &mut FixedTier::with_fallback(TierId::DRAM, TierId::PMEM),
                    ),
                ),
                (
                    "kernel-tiering",
                    memsim::run(
                        &app,
                        &machine,
                        ExecMode::AppDirect,
                        &mut KernelTiering::new(&machine),
                    ),
                ),
            ];
            for (policy, r) in runs {
                line(format!("{} {policy}", app.name), format!("{r:?}"));
            }
        }
    }
    for scheduler in [
        SchedulerPolicy::Priority,
        SchedulerPolicy::ProportionalShare,
        SchedulerPolicy::PaperGreedy,
    ] {
        let mut cfg = FleetConfig::new(machine.clone(), 4, scheduler);
        cfg.quantum_bytes = 1 << 30;
        cfg.churn = ChurnConfig { seed: 0xEC0, arrival_spread_s: 5.0 };
        let tenants = ecohmem::workloads::colocations::mixed_colocations(4, 4);
        let r = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 1).unwrap();
        line(format!("fleet-4x4 {}", scheduler.name()), format!("{r:?}"));
    }
    out
}

/// Length and FNV digest of every trace encoding, one line per codec per
/// app: the JSON codec, binfmt v1 and v2, and the serve `Hello` header.
/// Then, per trace fault kind at two severities, the v2 digest of the
/// faulted-then-sanitized trace and the warnings both steps reported.
fn trace_codec_digests() -> String {
    use ecohmem_serve::proto;
    use memsim::{ExecMode, FixedTier, MachineConfig};
    use memtrace::{binfmt, FaultTarget};
    use profiler::{profile_run, ProfilerConfig};

    let machine = MachineConfig::optane_pmem6();
    let mut out = String::new();
    let mut line = |label: String, bytes: &[u8], notes: &[String]| {
        out.push_str(&format!("{label} {} {:016x}\n", bytes.len(), fnv1a(bytes)));
        for note in notes {
            out.push_str(&format!("  {note}\n"));
        }
    };
    let v2 = |t: &memtrace::TraceFile| {
        let mut buf = Vec::new();
        binfmt::write_trace_v2(t, &mut buf).unwrap();
        buf
    };
    for app_name in APPS {
        let app = ecohmem::workloads::model_by_name(app_name).unwrap();
        let (trace, _) = profile_run(
            &app,
            &machine,
            ExecMode::MemoryMode,
            &mut FixedTier::new(machine.largest_tier()),
            &ProfilerConfig::default(),
        );
        line(format!("{app_name} json"), trace.to_json().unwrap().as_bytes(), &[]);
        let mut v1 = Vec::new();
        binfmt::write_trace(&trace, &mut v1).unwrap();
        line(format!("{app_name} v1"), &v1, &[]);
        line(format!("{app_name} v2"), &v2(&trace), &[]);
        let hello = proto::encode_header(&proto::header_of(&trace)).unwrap();
        line(format!("{app_name} hello"), &hello, &[]);
        for kind in FaultKind::ALL.into_iter().filter(|k| k.target() == FaultTarget::Trace) {
            for severity in [0.25, 1.0] {
                let mut t = trace.clone();
                let warnings = FaultSpec::with_seed(kind, severity, 7).apply_to_trace(&mut t);
                let (repairs, window) = t.sanitize_verbose();
                let mut notes: Vec<String> =
                    warnings.iter().chain(&repairs).map(|w| w.to_string()).collect();
                notes.push(format!("dropped {}{}", window.count, window.describe()));
                line(format!("{app_name} {kind}@{severity} v2"), &v2(&t), &notes);
            }
        }
    }
    out
}

/// Runs the three golden apps through `run_pipeline`, from an empty run
/// cache, and checks each one's report and metrics against its goldens.
fn golden_apps_pass() {
    memsim::global_cache().clear();
    for app_name in APPS {
        let app = ecohmem::workloads::model_by_name(app_name).unwrap();
        let cfg = PipelineConfig::paper_default();

        ecohmem_obs::reset();
        ecohmem_obs::set_enabled(true);
        let out = run_pipeline(&app, &cfg).unwrap();

        let mut report_json = out.report.to_json().expect("report serializes");
        if !report_json.ends_with('\n') {
            report_json.push('\n');
        }
        support::assert_matches_golden(
            &format!("tests/golden/{app_name}.report.json"),
            &report_json,
        );
        support::assert_matches_golden(
            &format!("tests/golden/{app_name}.metrics.json"),
            &normalized_metrics(app_name),
        );
    }
}

#[test]
fn pipeline_artifacts_match_goldens() {
    golden_apps_pass();

    // A second pass on this thread synthesizes every trace into storage
    // recycled from the traces before it (`EventBatch::take_spare`),
    // still holding their events, and one lenient request with a damaged
    // trace runs in between. None of that may show in an artifact.
    let mut lenient = PipelineConfig::paper_default();
    lenient.policy = DegradationPolicy::Warn;
    lenient.faults = vec![FaultSpec::with_seed(FaultKind::CorruptTimestamps, 0.25, 7)];
    let app = ecohmem::workloads::model_by_name("lulesh").unwrap();
    assert!(run_pipeline(&app, &lenient).unwrap().degraded);
    golden_apps_pass();

    // The crash-recovery and overload counters ride the same snapshot
    // discipline: supervised restarts and explicit shedding are part of
    // the audited surface, not best-effort logging.
    support::assert_matches_golden("tests/golden/durability.metrics.json", &durability_scenario());

    // Last, so its engine counters cannot leak into the snapshots above.
    support::assert_matches_golden("tests/golden/engine_runs.txt", &engine_fingerprints());
    support::assert_matches_golden("tests/golden/trace_codecs.txt", &trace_codec_digests());
}
