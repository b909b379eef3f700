//! Acceptance: the multi-tenant advisor daemon is *invisible* in the
//! revision log. K tenants streaming the golden workloads through one
//! shared `ServiceCore` must each produce a revision log byte-identical
//! to an isolated single-stream run of the same batches and ticks —
//! with one worker and with four. Per-tenant FIFO scheduling plus fully
//! private engine state is the mechanism; this test is the contract.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{
    IncrementalAdvisor, OnlineConfig, PlacementRevision, StreamIngestor, StreamMeta,
};
use ecohmem_serve::core::{Admitted, Outbound, ServeConfig, ServiceCore};
use ecohmem_serve::proto;
use ecohmem_serve::{Mode, Server, ServerConfig, StreamClient};
use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::{DegradationPolicy, EventBatch, TraceEvent, TraceFile};
use profiler::{profile_run, ProfilerConfig};
use std::time::Duration;

const GOLDEN_APPS: [&str; 3] = ["minife", "lulesh", "hpcg"];
const DRAM_GIB: u64 = 12;

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

enum Op {
    Batch(Vec<TraceEvent>),
    Tick(f64),
}

/// The same deterministic cadence `tests/crash_recovery.rs` uses: 512-
/// event batches with six evenly spread ticks plus a final one.
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

/// The reference: one ingestor + one advisor, no daemon, constructed
/// exactly the way `ServiceCore::register` builds a tenant engine.
fn isolated_run(trace: &TraceFile) -> Vec<PlacementRevision> {
    let cfg = OnlineConfig::default();
    let mut ingestor = StreamIngestor::new(StreamMeta::of(trace), DegradationPolicy::Strict, cfg);
    let mut advisor = IncrementalAdvisor::new(AdvisorConfig::loads_only(DRAM_GIB), Algorithm::Base)
        .with_hysteresis(cfg.hysteresis);
    let mut revisions = Vec::new();
    for op in feed_plan(trace) {
        match op {
            Op::Batch(events) => {
                ingestor.push_batch(&EventBatch::from_events(&events)).unwrap();
            }
            Op::Tick(now) => revisions.extend(advisor.tick(&mut ingestor, now)),
        }
    }
    revisions
}

/// Streams one tenant's plan through the core and returns its revision
/// log. Asserts nothing was shed — shedding would change the log.
fn tenant_run(core: &ServiceCore, name: &str, trace: &TraceFile) -> Vec<PlacementRevision> {
    let (client, outbox) = core.register(name, &proto::header_of(trace)).unwrap();
    for op in feed_plan(trace) {
        match op {
            Op::Batch(events) => {
                assert_eq!(client.ingest(events).unwrap(), Admitted::Accepted, "{name}: shed");
            }
            Op::Tick(now) => {
                assert_eq!(client.tick(now).unwrap(), Admitted::Accepted, "{name}: shed");
            }
        }
    }
    client.finish().unwrap();
    let mut revisions = Vec::new();
    loop {
        match outbox.recv_deadline(Duration::from_secs(60)) {
            Ok(Outbound::Revisions(revs)) => revisions.extend(revs),
            Ok(Outbound::Finished { .. }) => return revisions,
            Ok(other) => panic!("{name}: unexpected outbound {other:?}"),
            Err(e) => panic!("{name}: outbox went quiet: {e:?}"),
        }
    }
}

fn revision_bytes(revs: &[PlacementRevision]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::encode_revisions(revs, &mut out);
    out
}

/// Config sized so the determinism run never sheds: inboxes hold a full
/// feed plan and admission waits long enough for a busy 1-core box.
fn no_shed_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        inbox_capacity: 4096,
        outbox_capacity: 4096,
        admission_timeout: Duration::from_secs(30),
        dram_gib: DRAM_GIB,
        ..ServeConfig::default()
    }
}

fn assert_tenants_match_isolated(workers: usize) {
    let traces: Vec<TraceFile> = GOLDEN_APPS.iter().map(|a| golden_trace(a)).collect();
    let isolated: Vec<Vec<PlacementRevision>> = traces.iter().map(isolated_run).collect();

    let core = ServiceCore::new(no_shed_config(workers));
    // Two tenants per golden app, all live at once, driven concurrently
    // so their work genuinely interleaves across the pool.
    let served: Vec<(String, Vec<PlacementRevision>, usize)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for round in 0..2 {
            for (i, trace) in traces.iter().enumerate() {
                let name = format!("{}-{round}", GOLDEN_APPS[i]);
                let core = &core;
                handles.push(s.spawn(move || (name.clone(), tenant_run(core, &name, trace), i)));
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (name, revs, app_idx) in &served {
        assert_eq!(
            revision_bytes(revs),
            revision_bytes(&isolated[*app_idx]),
            "{name} (workers={workers}): served revision log diverged from the isolated run"
        );
    }
    // Both tenants of an app presented identical site tables — the
    // interner must have shared them instead of copying.
    assert!(
        core.intern_hits() >= GOLDEN_APPS.len() as u64,
        "expected ≥{} intern hits, saw {}",
        GOLDEN_APPS.len(),
        core.intern_hits()
    );
    assert_eq!(core.tenants(), 0, "every tenant finished and deregistered");
    core.shutdown();
}

#[test]
fn six_tenants_match_isolated_runs_with_one_worker() {
    assert_tenants_match_isolated(1);
}

#[test]
fn six_tenants_match_isolated_runs_with_four_workers() {
    assert_tenants_match_isolated(4);
}

/// End-to-end over real TCP: one daemon, one `StreamClient`, the minife
/// golden trace — the served log must match the isolated run and the
/// Bye frame must carry the full count.
#[test]
fn tcp_session_round_trips_the_golden_trace() {
    let trace = golden_trace("minife");
    let isolated = isolated_run(&trace);

    let server =
        Server::bind(ServerConfig::new("127.0.0.1:0", Some(1), no_shed_config(2))).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = StreamClient::connect(&addr, "minife-tcp", Mode::Bin, &trace).unwrap();
    for op in feed_plan(&trace) {
        match op {
            Op::Batch(events) => client.send_events(&events).unwrap(),
            Op::Tick(now) => client.tick(now).unwrap(),
        }
    }
    let outcome = client.finish().unwrap();

    assert_eq!(outcome.shed, 0, "nothing may be shed on an idle box");
    assert_eq!(
        revision_bytes(&outcome.revisions),
        revision_bytes(&isolated),
        "TCP-served revision log diverged from the isolated run"
    );
    assert_eq!(outcome.bye_revisions, Some(isolated.len() as u64));

    let stats = daemon.join().unwrap();
    assert_eq!(stats.sessions, 1);
    assert!(stats.frames > 0);
}
