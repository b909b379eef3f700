//! Acceptance for the event-driven serve reactor.
//!
//! `tests/serve.rs` pins the core guarantee (served revision logs are
//! byte-identical to isolated runs); this suite pins the *transport*
//! properties the reactor rework added:
//!
//! * frames fragmented arbitrarily on the wire decode identically to
//!   whole frames (TCP dribble);
//! * connection storms (500 sessions at once; 1000 through a 64-wide
//!   rolling window; 10,000 as an `--ignored` release run) complete with
//!   zero divergence;
//! * daemon thread count is `io_threads + workers + const`, independent
//!   of connection count;
//! * a slow-loris peer (length prefix, then silence) is idle-closed and
//!   counted, instead of pinning a shard;
//! * revision logs are byte-identical between `io_threads = 1` and `4`;
//! * the client's `finish` deadline surfaces a structured error instead
//!   of hanging when the server never says Bye;
//! * the client's reconnect backoff honours its retry budget.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{
    IncrementalAdvisor, OnlineConfig, PlacementRevision, StreamIngestor, StreamMeta,
};
use ecohmem_serve::blast::{self, BlastTenant};
use ecohmem_serve::core::ServeConfig;
use ecohmem_serve::proto::{self, Frame as WireFrame};
use ecohmem_serve::{
    Mode, RetryPolicy, ServeError, Server, ServerConfig, ServerStats, StreamClient,
};
use memtrace::{
    BinaryMap, CallStack, DegradationPolicy, EventBatch, Frame as StackFrame, FuncId, ModuleId,
    ObjectId, SiteId, TraceEvent, TraceFile,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Duration;

const DRAM_GIB: u64 = 12;
const SHAPES: usize = 4;
const SITES: usize = 8;
const SAMPLES: usize = 512;
const BATCH: usize = 128;
const MIB: u64 = 1 << 20;

/// The daemon thread census counts every thread of this process, so it
/// holds this lock exclusively while every other test holds it shared:
/// another test's servers and clients must not start or stop threads
/// between the census's two samples.
static CENSUS: RwLock<()> = RwLock::new(());

fn beside_other_tests() -> RwLockReadGuard<'static, ()> {
    CENSUS.read().unwrap_or_else(|e| e.into_inner())
}

/// Small deterministic trace: four hot-set shapes over a few sites,
/// sized for test time, not throughput.
fn synth_trace(shape: usize) -> TraceFile {
    let stacks: Vec<(SiteId, CallStack)> = (0..SITES)
        .map(|i| {
            (
                SiteId(i as u32),
                CallStack::new(vec![StackFrame::new(ModuleId(0), 0x100 + 0x10 * i as u64)]),
            )
        })
        .collect();
    let base = |site: usize| ((site as u64) + 1) << 33;
    let size = |site: usize| (1 + ((site + shape) % 4) as u64) * 512 * MIB;
    let mut events = Vec::new();
    for i in 0..SITES {
        events.push(TraceEvent::Alloc {
            time: 0.001 * i as f64,
            object: ObjectId(i as u64 + 1),
            site: SiteId(i as u32),
            size: size(i),
            address: base(i),
        });
    }
    for k in 0..SAMPLES {
        let site = match shape {
            0 => k % 3,
            1 => 4 + k % 4,
            2 => (k / 64) % SITES,
            _ => {
                if k % 3 == 0 {
                    k % SITES
                } else {
                    k % 2
                }
            }
        };
        events.push(TraceEvent::LoadMissSample {
            time: 0.1 + 3.8 * (k as f64) / SAMPLES as f64,
            address: base(site) + 64 * ((k % 50) as u64),
            latency_cycles: 300.0,
            function: FuncId(0),
        });
    }
    TraceFile {
        app_name: format!("rsynth{shape}"),
        seed: shape as u64,
        ranks: 1,
        sampling_hz: 1000.0,
        load_sample_period: 100.0,
        store_sample_period: 200.0,
        duration: 4.0,
        stacks,
        binmap: BinaryMap::default(),
        events: EventBatch::from_events(&events),
    }
}

enum Op {
    Batch(Vec<TraceEvent>),
    Tick(f64),
}

fn feed_plan(trace: &TraceFile) -> Vec<Op> {
    let mut ops = Vec::new();
    let events = trace.events.to_events();
    let chunks: Vec<&[TraceEvent]> = events.chunks(BATCH).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        ops.push(Op::Batch(chunk.to_vec()));
        if (i + 1) % 2 == 0 {
            ops.push(Op::Tick(chunk.last().unwrap().time()));
        }
    }
    ops.push(Op::Tick(trace.duration));
    ops
}

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

fn revision_bytes(revs: &[PlacementRevision]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::encode_revisions(revs, &mut out);
    out
}

/// The feed plan as pre-encoded wire bytes, Shutdown-terminated.
fn session_body(trace: &TraceFile) -> Vec<u8> {
    let mut body = Vec::new();
    for op in feed_plan(trace) {
        match op {
            Op::Batch(events) => {
                body.extend_from_slice(&proto::encode_events_frame(&events, Mode::Bin))
            }
            Op::Tick(now) => body.extend_from_slice(&proto::encode(&WireFrame::Tick { now })),
        }
    }
    body.extend_from_slice(&proto::encode(&WireFrame::Shutdown));
    body
}

fn no_shed_config(workers: usize, max_tenants: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_tenants,
        inbox_capacity: 4096,
        outbox_capacity: 4096,
        admission_timeout: Duration::from_secs(30),
        dram_gib: DRAM_GIB,
        ..ServeConfig::default()
    }
}

fn boot_server(
    io_threads: usize,
    workers: usize,
    once: usize,
    idle_timeout: Duration,
) -> (String, std::thread::JoinHandle<ServerStats>) {
    boot_server_with(io_threads, once, idle_timeout, no_shed_config(workers, once + 8))
}

fn boot_server_with(
    io_threads: usize,
    once: usize,
    idle_timeout: Duration,
    serve: ServeConfig,
) -> (String, std::thread::JoinHandle<ServerStats>) {
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".into(),
        once: Some(once),
        io_threads,
        idle_timeout,
        serve,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());
    (addr, daemon)
}

/// Frames fragmented into 3-byte wire chunks must decode identically to
/// whole frames: the served revision log still matches the isolated run.
#[test]
fn tcp_dribble_decodes_identically_to_whole_frames() {
    let _census = beside_other_tests();
    let trace = synth_trace(0);
    let isolated = isolated_run(&trace);
    let (addr, daemon) = boot_server(1, 1, 1, Duration::from_secs(120));

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_nodelay(true).unwrap();
    let reader_sock = sock.try_clone().unwrap();
    let collector = std::thread::spawn(move || collect_raw(reader_sock));

    let mut stream = blast::hello_bytes("dribble", Mode::Bin, &trace).unwrap();
    stream.extend_from_slice(&session_body(&trace));
    for chunk in stream.chunks(3) {
        sock.write_all(chunk).unwrap();
    }

    let (revisions, bye) = collector.join().unwrap();
    assert!(bye, "session should end with Bye");
    assert_eq!(
        revision_bytes(&revisions),
        revision_bytes(&isolated),
        "dribbled revision log diverged from the isolated run"
    );
    let stats = daemon.join().unwrap();
    assert_eq!(stats.sessions, 1);
}

/// Blocking-reads one session's server frames to completion.
fn collect_raw(mut sock: TcpStream) -> (Vec<PlacementRevision>, bool) {
    let mut revisions = Vec::new();
    loop {
        match proto::read_frame_from(&mut sock) {
            Ok(Some(WireFrame::HelloAck { .. })) | Ok(Some(WireFrame::Shed { .. })) => {}
            Ok(Some(WireFrame::Revisions(revs))) => revisions.extend(revs),
            Ok(Some(WireFrame::Bye { .. })) => return (revisions, true),
            other => panic!("unexpected read outcome: {other:?}"),
        }
    }
}

/// Throws `sessions` sessions at the daemon from one driver thread, with
/// at most `window` connections open at once and per-tenant inboxes of
/// `inbox_capacity` items: every session completes, and each per-shape
/// probe log stays byte-identical to its isolated run.
fn connect_storm(sessions: usize, window: usize, inbox_capacity: usize) {
    let _census = beside_other_tests();
    let traces: Vec<TraceFile> = (0..SHAPES).map(synth_trace).collect();
    let reference: Vec<Vec<u8>> = traces.iter().map(|t| revision_bytes(&isolated_run(t))).collect();
    let serve = ServeConfig { inbox_capacity, ..no_shed_config(2, sessions + 8) };
    let (addr, daemon) = boot_server_with(2, sessions, Duration::from_secs(120), serve);

    let bodies: Vec<Arc<Vec<u8>>> = traces.iter().map(|t| Arc::new(session_body(t))).collect();
    let plan: Vec<BlastTenant> = (0..sessions)
        .map(|t| {
            let shape = t % SHAPES;
            BlastTenant {
                name: format!("storm-{t}"),
                hello: blast::hello_bytes(&format!("storm-{t}"), Mode::Bin, &traces[shape])
                    .unwrap(),
                body: Arc::clone(&bodies[shape]),
                collect: t < SHAPES,
            }
        })
        .collect();
    let out = blast::run_blast(&addr, plan, window).unwrap();

    assert_eq!(out.failed, 0, "failed sessions: {:?}", out.errors);
    assert_eq!(out.completed, sessions);
    for (shape, want) in reference.iter().enumerate().take(SHAPES) {
        let probe = out.revisions.get(&format!("storm-{shape}")).expect("probe log retained");
        assert_eq!(
            &revision_bytes(probe),
            want,
            "storm probe shape {shape} diverged from the isolated run"
        );
    }
    let stats = daemon.join().unwrap();
    assert_eq!(stats.sessions, sessions);
}

/// 500 sessions all open at once (window = sessions, deep inboxes).
#[test]
fn connect_storm_500_sessions_zero_divergence() {
    connect_storm(500, 500, 4096);
}

/// 1000 sessions through a 64-connection rolling window, so sessions
/// retire and new ones connect mid-run (the 500-session storm opens all
/// at once), into the daemon's default 64-item inboxes.
#[test]
fn connect_storm_1000_sessions_rolling_window_zero_divergence() {
    connect_storm(1000, 64, 64);
}

/// 10,000 tenants over TCP. Each live session pins two fds in this
/// process (client and server end), so the window is sized from the fd
/// limit with headroom for the daemon, capped at 1024. Run it in release:
/// `cargo test --release --test serve_reactor -- --ignored`.
#[test]
#[ignore = "10k-session storm; run with --release -- --ignored"]
fn connect_storm_10k_sessions_zero_divergence() {
    let window = (ecohmem_serve::sys::nofile_limit().saturating_sub(512) / 2).clamp(64, 1024);
    connect_storm(10_000, window, 64);
}

#[cfg(target_os = "linux")]
fn os_threads_of_self() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The reason the reactor exists: thread count must not scale with
/// connection count. 8 idle connections and 40 idle connections must
/// see the same daemon thread census.
#[cfg(target_os = "linux")]
#[test]
fn daemon_thread_count_is_independent_of_connection_count() {
    let _alone = CENSUS.write().unwrap_or_else(|e| e.into_inner());
    const CONNS: usize = 40;
    let (addr, daemon) = boot_server(3, 2, CONNS, Duration::from_secs(120));

    let mut held: Vec<TcpStream> = Vec::new();
    for _ in 0..8 {
        held.push(TcpStream::connect(&addr).unwrap());
    }
    std::thread::sleep(Duration::from_millis(300));
    let with_8 = os_threads_of_self();
    for _ in 8..CONNS {
        held.push(TcpStream::connect(&addr).unwrap());
    }
    std::thread::sleep(Duration::from_millis(300));
    let with_40 = os_threads_of_self();
    // The old transport spawned 2 threads per connection (+64 here);
    // the reactor spawns none. Slack of 2 absorbs unrelated test threads
    // starting or stopping between the two samples.
    assert!(
        with_40 <= with_8 + 2,
        "thread count scaled with connections: {with_8} threads at 8 conns, \
         {with_40} at 40 (io-threads=3, workers=2)"
    );

    drop(held); // EOF x40 → sessions complete → `once` exits the daemon
    let stats = daemon.join().unwrap();
    assert_eq!(stats.sessions, CONNS);
}

/// Slow-loris: a length prefix, then silence. The connection must be
/// torn down on the idle deadline (counted), not pin a shard forever.
#[test]
fn slow_loris_is_idle_closed_and_counted() {
    let _census = beside_other_tests();
    ecohmem_obs::set_enabled(true);
    let before = ecohmem_obs::snapshot().counter("serve.idle_closed");
    let (addr, daemon) = boot_server(1, 1, 1, Duration::from_millis(300));

    let mut sock = TcpStream::connect(&addr).unwrap();
    // A plausible frame length, but the body never comes.
    sock.write_all(&100u32.to_le_bytes()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 64];
    let closed = matches!(sock.read(&mut buf), Ok(0) | Err(_));
    assert!(closed, "server should close the stalled connection");

    let stats = daemon.join().unwrap();
    assert_eq!(stats.sessions, 1, "the loris connection still counts as a session");
    let after = ecohmem_obs::snapshot().counter("serve.idle_closed");
    assert!(after > before, "serve.idle_closed should have incremented");
}

/// The shard count is invisible in the output: revision logs at
/// `io_threads = 1` and `io_threads = 4` are byte-identical (and match
/// the isolated reference).
#[test]
fn io_threads_1_vs_4_serve_byte_identical_logs() {
    let _census = beside_other_tests();
    let traces: Vec<TraceFile> = (0..SHAPES).map(synth_trace).collect();
    let reference: Vec<Vec<u8>> = traces.iter().map(|t| revision_bytes(&isolated_run(t))).collect();
    const TENANTS: usize = 24;
    let bodies: Vec<Arc<Vec<u8>>> = traces.iter().map(|t| Arc::new(session_body(t))).collect();

    let run = |io_threads: usize| -> Vec<Vec<u8>> {
        let (addr, daemon) = boot_server(io_threads, 2, TENANTS, Duration::from_secs(120));
        let plan: Vec<BlastTenant> = (0..TENANTS)
            .map(|t| {
                let shape = t % SHAPES;
                BlastTenant {
                    name: format!("det-{t}"),
                    hello: blast::hello_bytes(&format!("det-{t}"), Mode::Bin, &traces[shape])
                        .unwrap(),
                    body: Arc::clone(&bodies[shape]),
                    collect: true,
                }
            })
            .collect();
        let out = blast::run_blast(&addr, plan, TENANTS).unwrap();
        assert_eq!(out.failed, 0, "failed sessions: {:?}", out.errors);
        daemon.join().unwrap();
        (0..TENANTS)
            .map(|t| revision_bytes(out.revisions.get(&format!("det-{t}")).unwrap()))
            .collect()
    };

    let logs_1 = run(1);
    let logs_4 = run(4);
    for t in 0..TENANTS {
        assert_eq!(logs_1[t], logs_4[t], "tenant det-{t}: io-threads 1 vs 4 logs differ");
        assert_eq!(logs_1[t], reference[t % SHAPES], "tenant det-{t} diverged from isolated run");
    }
}

/// A server that acks the handshake but never says Bye must not hang
/// the client's `finish`: the deadline trips and surfaces a structured
/// error.
#[test]
fn finish_deadline_errors_instead_of_hanging() {
    let _census = beside_other_tests();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mute_server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        match proto::read_frame_from(&mut sock) {
            Ok(Some(WireFrame::Hello { .. })) => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        proto::write_frame_to(&mut sock, &WireFrame::HelloAck { tenant_id: 1 }).unwrap();
        // Swallow everything, answer nothing, never close.
        while let Ok(Some(_)) = proto::read_frame_from(&mut sock) {}
    });

    let trace = synth_trace(0);
    let client = StreamClient::connect(&addr, "muted", Mode::Bin, &trace).unwrap();
    let result = client.finish_deadline(Duration::from_millis(300));
    match result {
        Err(ServeError::Deadline(msg)) => {
            assert!(msg.contains("Bye"), "deadline error should say what was awaited: {msg}")
        }
        other => panic!("expected ServeError::Deadline, got {other:?}"),
    }
    mute_server.join().unwrap();
}

/// The reconnect backoff gives up after its retry budget with a
/// structured error — no spinning until the wall-clock deadline.
#[test]
fn connect_retry_exhausts_its_budget_with_a_structured_error() {
    let _census = beside_other_tests();
    // Bind then drop: a port that refuses immediately.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let trace = synth_trace(0);
    let policy = RetryPolicy {
        initial: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
        retries: 3,
        seed: 9,
    };
    let started = std::time::Instant::now();
    let result = StreamClient::connect_retry_with(
        &dead_addr,
        "nobody",
        Mode::Bin,
        &trace,
        Duration::from_secs(30),
        policy,
    );
    match result {
        Err(ServeError::Deadline(msg)) => {
            assert!(msg.contains("retry budget"), "should name the exhausted budget: {msg}")
        }
        Err(other) => panic!("expected ServeError::Deadline, got {other:?}"),
        Ok(_) => panic!("connect to a dead port should not succeed"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "budget exhaustion must not wait out the 30s deadline"
    );
}
