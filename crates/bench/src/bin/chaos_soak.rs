//! Chaos/soak harness for the crash-safe online placement engine.
//!
//! Runs a seeded matrix of failure scenarios against the durability
//! layer — torn journal tails, corrupt checkpoints, interrupted
//! checkpoint writes, kills at random offsets, stalled consumers, clock
//! skew, panic storms, simulator kill points, and a crash-every-cycle
//! soak — and exits nonzero if *any* scenario fails to recover to the
//! exact state an uninterrupted run reaches. This is the CI `chaos` job's
//! entry point.
//!
//! ```text
//! cargo run --release -p bench --bin chaos_soak -- [--seed N] [--budget-secs N]
//! ```
//!
//! The seed drives every random choice (kill offsets, corruption bytes,
//! skew points), so a failing run reproduces with the same `--seed`. The
//! budget caps wall-clock: scenarios already started always finish, but
//! no new scenario launches past the budget (the run then reports the
//! skipped ones — skipping is visible, never silent).

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{
    Admission, DurabilityConfig, DurableEngine, OnlineConfig, PlacementRevision, StreamMeta,
    Supervisor, SupervisorConfig,
};
use memtrace::rng::SplitMix64;
use memtrace::{
    BinaryMap, BinaryMapBuilder, CallStack, DegradationPolicy, EventBatch, Frame, FuncId, ModuleId,
    ObjectId, ProcessFaultKind, SiteId, TraceEvent, TraceFile,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ecohmem-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn image() -> BinaryMap {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
    b.build()
}

/// Deterministic synthetic stream: four sites with distinct heat so the
/// advisor has real placement decisions to revise.
fn fixture_trace(seed: u64) -> TraceFile {
    let mut rng = SplitMix64::new(seed);
    let mut events = Vec::new();
    let mut t = 0.0;
    for i in 0..400u64 {
        t += 0.01 + (rng.next_u64() % 10) as f64 * 0.001;
        let site = (i % 4) as u32;
        events.push(TraceEvent::Alloc {
            time: t,
            object: ObjectId(i + 1),
            site: SiteId(site),
            size: 4096 << site,
            address: (1 << 44) + i * (1 << 24),
        });
        // Hotter sites draw more samples.
        for _ in 0..=site {
            t += 0.002;
            events.push(TraceEvent::LoadMissSample {
                time: t,
                address: (1 << 44) + i * (1 << 24) + (rng.next_u64() % 4096),
                latency_cycles: 200.0 + (rng.next_u64() % 300) as f64,
                function: FuncId((i % 8) as u16),
            });
        }
        if i % 5 == 4 {
            t += 0.002;
            events.push(TraceEvent::Free { time: t, object: ObjectId(i + 1) });
        }
    }
    TraceFile {
        app_name: "chaos".into(),
        seed,
        ranks: 1,
        sampling_hz: 100.0,
        load_sample_period: 10.0,
        store_sample_period: 10.0,
        duration: t + 1.0,
        stacks: (0..4)
            .map(|i| (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), 64 * u64::from(i))])))
            .collect(),
        binmap: image(),
        events: EventBatch::from_events(&events),
    }
}

fn open(
    dir: &Path,
    trace: &TraceFile,
    policy: DegradationPolicy,
) -> (DurableEngine, ecohmem_online::RecoveryReport) {
    let mut cfg = DurabilityConfig::new(dir);
    cfg.checkpoint_every = 16;
    cfg.segment_bytes = 16 * 1024; // small segments: rotation happens in-scenario
    DurableEngine::open(
        cfg,
        StreamMeta::of(trace),
        policy,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(1),
        Algorithm::Base,
    )
    .expect("engine open")
}

/// The trace's events in batches of 16, sliced off its own columns.
fn batches(trace: &TraceFile) -> impl Iterator<Item = EventBatch> + '_ {
    (0..trace.len()).step_by(16).map(|lo| trace.events.slice_ops(lo..(lo + 16).min(trace.len())))
}

/// Timestamp of a nonempty batch's last event.
fn last_time(batch: &EventBatch) -> f64 {
    batch.time_of(*batch.ops.last().expect("a nonempty batch"))
}

/// Feeds ops `[from, to)` of the fixed plan: batches of 16 with a tick
/// every 4 batches. Returns the op count.
fn feed(engine: &mut DurableEngine, trace: &TraceFile, from: usize, to: usize) -> usize {
    let mut op = 0;
    for (i, chunk) in batches(trace).enumerate() {
        if op >= to {
            break;
        }
        let t = last_time(&chunk);
        if op >= from {
            engine.ingest_batch(chunk).expect("ingest");
        }
        op += 1;
        if (i + 1) % 4 == 0 {
            if op >= from && op < to {
                engine.tick(t).expect("tick");
            }
            op += 1;
        }
    }
    op
}

fn plan_len(trace: &TraceFile) -> usize {
    let chunks = trace.len().div_ceil(16);
    chunks + chunks / 4
}

/// The uninterrupted reference: full plan + final tick, closed cleanly.
fn reference(trace: &TraceFile, policy: DegradationPolicy) -> Vec<PlacementRevision> {
    let dir = tmpdir("reference");
    let (mut engine, _) = open(&dir, trace, policy);
    let n = plan_len(trace);
    feed(&mut engine, trace, 0, n);
    engine.tick(trace.duration).expect("final tick");
    let revs = engine.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
    revs
}

/// Crash at `kill_at` ops (drop without close), recover, finish the plan.
fn crashed_run(
    trace: &TraceFile,
    policy: DegradationPolicy,
    kill_at: usize,
    mutate: impl FnOnce(&Path),
) -> (Vec<PlacementRevision>, ecohmem_online::RecoveryReport) {
    let dir = tmpdir("crashed");
    let (mut engine, _) = open(&dir, trace, policy);
    let n = plan_len(trace);
    feed(&mut engine, trace, 0, kill_at.min(n));
    drop(engine); // the kill
    mutate(&dir); // scenario-specific damage to the on-disk state
    let (mut engine, report) = open(&dir, trace, policy);
    feed(&mut engine, trace, kill_at.min(n), n);
    engine.tick(trace.duration).expect("final tick");
    let revs = engine.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
    (revs, report)
}

fn newest_file(dir: &Path, ext: &str) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    files.sort();
    files.pop()
}

struct Outcome {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Outcome {
    Outcome { name, ok, detail }
}

/// kill-at-offset: N seeded kills; recovery must be invisible in the log.
fn scenario_kill_at_offset(trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let n = plan_len(trace);
    for _ in 0..3 {
        let kill_at = 1 + (rng.next_u64() as usize) % (n - 1);
        let (revs, report) = crashed_run(trace, DegradationPolicy::Strict, kill_at, |_| {});
        if !report.resumed {
            return check("kill-at-offset", false, format!("kill@{kill_at}: not resumed"));
        }
        if revs != reference {
            return check(
                "kill-at-offset",
                false,
                format!("kill@{kill_at}: revision log diverged"),
            );
        }
    }
    check("kill-at-offset", true, "3 seeded kills, identical revision logs".into())
}

/// wal-torn-tail: truncate the newest segment mid-record; recovery must
/// drop the torn suffix and the re-fed stream must still converge.
fn scenario_wal_torn_tail(trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let n = plan_len(trace);
    let kill_at = n / 2;
    let chop = 1 + (rng.next_u64() as usize) % 64;
    let (revs, report) = crashed_run(trace, DegradationPolicy::Strict, kill_at, |dir| {
        let seg = newest_file(&dir.join("wal"), "seg").expect("a wal segment exists");
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len.saturating_sub(chop as u64).max(20)).unwrap(); // keep the header
    });
    // The torn tail loses up to `chop` bytes of journaled-but-unapplied
    // suffix; the re-feed re-offers those same ops (they were never
    // acknowledged applied past the checkpoint), so the log still matches
    // unless truncation corrupted an *applied* record — which recovery
    // must detect as a shorter replay, not an error.
    if revs != reference {
        return check("wal-torn-tail", false, format!("chop {chop}B: revision log diverged"));
    }
    check(
        "wal-torn-tail",
        true,
        format!("chop {chop}B, {} torn bytes truncated, log identical", report.torn_bytes),
    )
}

/// ckpt-corrupt-crc: flip a payload byte in the newest checkpoint; load
/// must fall back to the previous one and replay further.
fn scenario_ckpt_corrupt(trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let n = plan_len(trace);
    let kill_at = (2 * n) / 3;
    let flip = rng.next_u64();
    let (revs, report) = crashed_run(trace, DegradationPolicy::Strict, kill_at, |dir| {
        if let Some(ck) = newest_file(&dir.join("ckpt"), "ck") {
            let mut data = std::fs::read(&ck).unwrap();
            if data.len() > 16 {
                let i = 16 + (flip as usize) % (data.len() - 16);
                data[i] ^= 0xff;
                std::fs::write(&ck, &data).unwrap();
            }
        }
    });
    if report.corrupt_checkpoints == 0 {
        return check("ckpt-corrupt-crc", false, "corruption was not detected".into());
    }
    if revs != reference {
        return check("ckpt-corrupt-crc", false, "revision log diverged".into());
    }
    check(
        "ckpt-corrupt-crc",
        true,
        format!(
            "{} corrupt checkpoint(s) skipped, {} records replayed, log identical",
            report.corrupt_checkpoints, report.replayed_records
        ),
    )
}

/// mid-checkpoint-crash: a junk `.tmp` from an interrupted checkpoint
/// write must be swept, previous state intact.
fn scenario_mid_checkpoint(trace: &TraceFile, _rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let n = plan_len(trace);
    let (revs, report) = crashed_run(trace, DegradationPolicy::Strict, n / 2, |dir| {
        std::fs::write(dir.join("ckpt").join("ckpt-ffffffffffffffff.ck.tmp"), b"ECOHCKP\0torn")
            .unwrap();
    });
    if !report.resumed || revs != reference {
        return check("mid-checkpoint-crash", false, "recovery diverged".into());
    }
    check("mid-checkpoint-crash", true, "junk .tmp swept, log identical".into())
}

/// stalled-consumer: the worker sleeps; deadline admission must shed
/// explicitly and account every dropped batch.
fn scenario_stalled_consumer(trace: &TraceFile, _rng: &mut SplitMix64) -> Outcome {
    let dir = tmpdir("stalled");
    let sup = SupervisorConfig {
        queue_capacity: 1,
        admit_deadline: Duration::from_millis(5),
        ..SupervisorConfig::default()
    };
    let s = Supervisor::spawn(
        DurabilityConfig::new(&dir),
        StreamMeta::of(trace),
        DegradationPolicy::BestEffort,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(1),
        Algorithm::Base,
        sup,
        |_| {},
    );
    s.inject_stall(Duration::from_millis(200)).expect("stall injected");
    let mut shed = 0u64;
    for chunk in batches(trace).take(16) {
        match s.offer(chunk) {
            Ok(Admission::Admitted) => {}
            Ok(Admission::Shed) => shed += 1,
            Err(e) => return check("stalled-consumer", false, format!("unexpected error: {e}")),
        }
    }
    let _ = s.tick(trace.duration);
    let out = match s.finish() {
        Ok(o) => o,
        Err(e) => return check("stalled-consumer", false, format!("finish failed: {e}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if shed == 0 {
        return check("stalled-consumer", false, "nothing shed under a stalled consumer".into());
    }
    if out.shed_window.first_time.is_none() {
        return check("stalled-consumer", false, "shed window not recorded".into());
    }
    check(
        "stalled-consumer",
        true,
        format!(
            "{} batches shed, {} events accounted{}",
            shed,
            out.shed_events,
            out.shed_window.describe()
        ),
    )
}

/// clock-skew: timestamps jump backwards mid-stream; BestEffort salvage
/// plus crash recovery must replay to the identical salvaged state.
fn scenario_clock_skew(trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    let mut skewed = trace.clone();
    let n_ev = skewed.events.len();
    for _ in 0..5 {
        let i = 1 + (rng.next_u64() as usize) % (n_ev - 1);
        let (prev, op) = (skewed.events.ops[i - 1], skewed.events.ops[i]);
        let earlier = skewed.events.time_of(prev) - 2.0;
        skewed.events.set_time(op, earlier);
    }
    let reference = reference(&skewed, DegradationPolicy::BestEffort);
    let n = plan_len(&skewed);
    let kill_at = 1 + (rng.next_u64() as usize) % (n - 1);
    let (revs, _) = crashed_run(&skewed, DegradationPolicy::BestEffort, kill_at, |_| {});
    if revs != reference {
        return check("clock-skew", false, format!("kill@{kill_at}: salvage diverged"));
    }
    check("clock-skew", true, format!("5 skew points, kill@{kill_at}, salvage identical"))
}

/// panic-storm: repeated injected panics within the restart budget; every
/// recovery must land on the uninterrupted log.
fn scenario_panic_storm(trace: &TraceFile, _rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let dir = tmpdir("storm");
    let sup = SupervisorConfig {
        restart_budget: 8,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        admit_deadline: Duration::from_secs(30),
        ..SupervisorConfig::default()
    };
    let s = Supervisor::spawn(
        DurabilityConfig::new(&dir),
        StreamMeta::of(trace),
        DegradationPolicy::Strict,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(1),
        Algorithm::Base,
        sup,
        |_| {},
    );
    let storm_every = (trace.len().div_ceil(16) / 4).max(1);
    let mut op = 0;
    for (i, chunk) in batches(trace).enumerate() {
        if i > 0 && i % storm_every == 0 {
            s.inject_panic("storm").expect("panic injected");
        }
        let t = last_time(&chunk);
        // A Strict storm must not shed: a dropped alloc batch would break
        // the stream (and the identical-log check) after recovery. The 30s
        // deadline rides out every restart backoff.
        match s.offer(chunk).expect("offer") {
            Admission::Admitted => {}
            Admission::Shed => {
                return check("panic-storm", false, format!("batch {i} shed during a restart"));
            }
        }
        op += 1;
        if (i + 1) % 4 == 0 {
            s.tick(t).expect("tick");
            op += 1;
        }
    }
    let _ = op;
    s.tick(trace.duration).expect("final tick");
    let out = match s.finish() {
        Ok(o) => o,
        Err(e) => return check("panic-storm", false, format!("did not survive the storm: {e}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if out.recoveries < 3 {
        return check("panic-storm", false, format!("only {} recoveries", out.recoveries));
    }
    if out.revisions != reference {
        return check("panic-storm", false, "revision log diverged across restarts".into());
    }
    check("panic-storm", true, format!("{} recoveries, log identical", out.recoveries))
}

/// restart-budget: one panic past the budget; Strict must fail fast (an
/// *unrecoverable* fault must be loud, not absorbed).
fn scenario_restart_budget(trace: &TraceFile, _rng: &mut SplitMix64) -> Outcome {
    let dir = tmpdir("budget");
    let sup = SupervisorConfig {
        restart_budget: 1,
        backoff_base_ms: 1,
        admit_deadline: Duration::from_secs(30),
        ..SupervisorConfig::default()
    };
    let s = Supervisor::spawn(
        DurabilityConfig::new(&dir),
        StreamMeta::of(trace),
        DegradationPolicy::Strict,
        OnlineConfig::default(),
        AdvisorConfig::loads_only(1),
        Algorithm::Base,
        sup,
        |_| {},
    );
    s.offer(trace.events.slice_ops(0..16.min(trace.len()))).expect("offer");
    s.inject_panic("one").expect("inject");
    s.inject_panic("two").expect("inject");
    let failed = s.finish().is_err();
    let _ = std::fs::remove_dir_all(&dir);
    if !failed {
        return check("restart-budget", false, "Strict absorbed a budget-exhausting storm".into());
    }
    check("restart-budget", true, "budget exhausted → Strict failed fast".into())
}

/// sim-kill-point: an armed simulator kill point crashes the run at a
/// deterministic phase; after disarm, the rerun is bit-identical to a
/// never-crashed run (the injection leaves no residue).
fn scenario_sim_kill_point(_trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    use memsim::{ExecMode, FixedTier, MachineConfig};
    let app = workloads::minife::model();
    let machine = MachineConfig::optane_pmem6();
    let clean = memsim::run(
        &app,
        &machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(memtrace::TierId::PMEM),
    );
    let phase = (rng.next_u64() as usize) % app.phases.len().max(1);
    memsim::arm_kill_point(phase as u64);
    let crash = std::panic::catch_unwind(|| {
        let mut p = FixedTier::new(memtrace::TierId::PMEM);
        memsim::run(&app, &machine, ExecMode::MemoryMode, &mut p)
    });
    memsim::disarm_kill_point();
    let Err(payload) = crash else {
        return check("sim-kill-point", false, format!("armed kill at phase {phase} did not fire"));
    };
    if payload.downcast_ref::<&str>() != Some(&memsim::KILL_POINT_PAYLOAD) {
        return check("sim-kill-point", false, "crash payload was not the kill point's".into());
    }
    let rerun = memsim::run(
        &app,
        &machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(memtrace::TierId::PMEM),
    );
    if rerun != clean {
        return check("sim-kill-point", false, "rerun after injected crash diverged".into());
    }
    check("sim-kill-point", true, format!("killed at phase {phase}, rerun bit-identical"))
}

/// soak: crash on *every* cycle of a long feed; the final state must
/// still equal the uninterrupted run's.
fn scenario_soak(trace: &TraceFile, rng: &mut SplitMix64) -> Outcome {
    let reference = reference(trace, DegradationPolicy::Strict);
    let dir = tmpdir("soak");
    let n = plan_len(trace);
    let cycles = 6;
    let mut at = 0usize;
    let mut kills = 0;
    for c in 0..cycles {
        let (mut engine, _) = open(&dir, trace, DegradationPolicy::Strict);
        let stop = if c == cycles - 1 {
            n
        } else {
            (at + 1 + (rng.next_u64() as usize) % ((n - at).max(2) / 2).max(1)).min(n)
        };
        feed(&mut engine, trace, at, stop);
        at = stop;
        if c == cycles - 1 {
            engine.tick(trace.duration).expect("final tick");
            let revs = engine.close().expect("close");
            let _ = std::fs::remove_dir_all(&dir);
            if revs != reference {
                return check("soak", false, format!("diverged after {kills} kills"));
            }
        } else {
            drop(engine); // kill, every cycle
            kills += 1;
        }
    }
    check("soak", true, format!("{kills} kill/recover cycles, log identical"))
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("chaos_soak: {msg}");
    std::process::exit(2)
}

/// The integer value of `flag`; a missing or malformed value exits with
/// status 2 rather than falling back to the default.
fn flag_value(flag: &str, value: Option<String>) -> u64 {
    let Some(v) = value else { usage_exit(&format!("missing value for {flag}")) };
    v.parse().unwrap_or_else(|_| usage_exit(&format!("invalid value `{v}` for {flag}")))
}

fn main() {
    let mut seed = 0xec0_c4a05u64;
    let mut budget = Duration::from_secs(60);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = flag_value(&a, args.next()),
            "--budget-secs" => budget = Duration::from_secs(flag_value(&a, args.next())),
            other => usage_exit(&format!("unknown argument `{other}`")),
        }
    }

    // Injected panics are the *point* of this harness; keep their default
    // backtraces out of the report so real failures stand out.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected fault:"))
            || info.payload().downcast_ref::<&str>() == Some(&memsim::KILL_POINT_PAYLOAD);
        if !injected {
            default_hook(info);
        }
    }));

    // The scenario matrix covers every process-fault kind the injection
    // vocabulary names, plus the supervisor- and simulator-level faults.
    let covered: Vec<&str> = ProcessFaultKind::ALL.iter().map(|k| k.name()).collect();
    println!(
        "chaos_soak: seed={seed:#x} budget={}s faults=[{}]",
        budget.as_secs(),
        covered.join(", ")
    );

    type Scenario = (&'static str, fn(&TraceFile, &mut SplitMix64) -> Outcome);
    let scenarios: [Scenario; 9] = [
        ("kill-at-offset", scenario_kill_at_offset),
        ("wal-torn-tail", scenario_wal_torn_tail),
        ("ckpt-corrupt-crc", scenario_ckpt_corrupt),
        ("mid-checkpoint-crash", scenario_mid_checkpoint),
        ("stalled-consumer", scenario_stalled_consumer),
        ("clock-skew", scenario_clock_skew),
        ("panic-storm", scenario_panic_storm),
        ("restart-budget", scenario_restart_budget),
        ("sim-kill-point", scenario_sim_kill_point),
    ];

    let trace = fixture_trace(seed);
    let mut rng = SplitMix64::new(seed);
    let start = Instant::now();
    let mut failures = 0;
    let mut skipped = 0;
    let mut ran = 0;
    for (name, run) in scenarios {
        if start.elapsed() > budget {
            println!("SKIP {name} (budget exhausted)");
            skipped += 1;
            continue;
        }
        let o = run(&trace, &mut rng);
        ran += 1;
        if o.ok {
            println!("PASS {:<22} {}", o.name, o.detail);
        } else {
            failures += 1;
            println!("FAIL {:<22} {}", o.name, o.detail);
        }
    }
    // The soak always runs last and always runs: it is the gate's core.
    if start.elapsed() <= budget * 2 {
        let o = scenario_soak(&trace, &mut rng);
        ran += 1;
        if o.ok {
            println!("PASS {:<22} {}", o.name, o.detail);
        } else {
            failures += 1;
            println!("FAIL {:<22} {}", o.name, o.detail);
        }
    } else {
        println!("SKIP soak (budget exhausted twice over)");
        skipped += 1;
    }

    println!(
        "chaos_soak: {ran} scenarios, {failures} failures, {skipped} skipped, {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
