//! `ecohmem-run` — the FlexMalloc stage: execute an application with its
//! allocations placed per a report, and compare against Memory Mode.
//!
//! ```text
//! ecohmem-run <app> --report FILE [--machine pmem6|pmem2|hbm]
//!             [--aslr N] [--no-baseline] [--jobs N]
//! ecohmem-run <app> --online [--dram-gib N] [--epoch-phases N]
//!             [--machine pmem6|pmem2|hbm] [--no-baseline] [--jobs N]
//! ```
//!
//! With `--jobs` ≥ 2 (or `ECOHMEM_JOBS`), the placed run and the
//! Memory-Mode baseline execute concurrently; the baseline is additionally
//! served from the process-wide memoization cache.
//!
//! `--online` replaces the report-driven FlexMalloc interposer with the
//! online placement engine: no profiling run, no report file — the
//! incremental advisor plans placements from phase observations during the
//! run itself and migrates objects across tiers at phase boundaries, each
//! migration paying bytes/bandwidth plus a fixed overhead.

use cli::{machine_by_name, ok_or_die, usage_error, Args, Flags, MetricsOut};
use ecohmem_online::{
    Admission, DurabilityConfig, OnlineConfig, OnlinePolicy, Supervisor, SupervisorConfig,
};
use flexmalloc::FlexMalloc;
use memsim::{run, ExecMode};
use memtrace::PlacementReport;

const USAGE: &str = "ecohmem-run <app> --report FILE [--machine pmem6|pmem2|hbm] [--aslr N] \
                     [--no-baseline] [--lenient] [--jobs N] [--metrics-out FILE] | ecohmem-run \
                     <app> --online [--dram-gib N] [--epoch-phases N] [--machine ...] \
                     [--no-baseline] [--jobs N] [--metrics-out FILE] [--journal-dir DIR \
                     [--checkpoint-every N] [--lenient]]";

const FLAGS: Flags = Flags {
    options: &[
        "report",
        "machine",
        "aslr",
        "jobs",
        "metrics-out",
        "dram-gib",
        "epoch-phases",
        "journal-dir",
        "checkpoint-every",
    ],
    switches: &["online", "no-baseline", "lenient"],
};

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-run", &args);
    let Some(app_name) = args.positional.first() else {
        usage_error("ecohmem-run", "missing application name", USAGE);
    };
    let Some(app) = workloads::model_by_name(app_name) else {
        usage_error("ecohmem-run", &format!("unknown application `{app_name}`"), USAGE);
    };
    let machine_name = args.opt("machine").unwrap_or("pmem6");
    let Some(machine) = machine_by_name(machine_name) else {
        usage_error("ecohmem-run", &format!("unknown machine `{machine_name}`"), USAGE);
    };

    if args.has("online") {
        if args.opt("journal-dir").is_some() {
            run_durable(&args, app_name, &app, &machine);
        } else {
            run_online(&args, app_name, &app, &machine);
        }
        metrics.finish();
        return;
    }

    let Some(report_path) = args.opt("report") else {
        usage_error("ecohmem-run", "missing --report (or --online)", USAGE);
    };
    let report = ok_or_die("ecohmem-run", PlacementReport::load(report_path));

    // A production run gets a fresh ASLR layout — matching must survive it.
    let aslr = args.opt_or("aslr", 0xec0_u64);
    let mut interposer = if args.has("lenient") {
        // Stale or partially unresolvable reports degrade to fallback
        // placement instead of aborting the run.
        let (fm, warnings) = FlexMalloc::new_lenient(&report, &app.binmap, aslr, app.ranks);
        cli::print_warnings("ecohmem-run", &warnings);
        fm
    } else {
        ok_or_die("ecohmem-run", report.validate());
        ok_or_die("ecohmem-run", FlexMalloc::new(&report, &app.binmap, aslr, app.ranks))
    };
    // Overlap the placed run with the Memory-Mode baseline when allowed;
    // the baseline also hits the memoization cache if already simulated.
    let wants_baseline = !args.has("no-baseline");
    let (placed, baseline) = std::thread::scope(|s| {
        let handle = (wants_baseline && args.jobs() > 1)
            .then(|| s.spawn(|| baselines::run_memory_mode(&app, &machine)));
        let placed = run(&app, &machine, ExecMode::AppDirect, &mut interposer);
        let baseline = match handle {
            Some(h) => Some(h.join().expect("baseline thread panicked")),
            None => wants_baseline.then(|| baselines::run_memory_mode(&app, &machine)),
        };
        (placed, baseline)
    });
    println!(
        "{app_name} under flexmalloc ({}): {:.2}s wall, {} matched / {} fallback allocations",
        interposer.matcher().format(),
        placed.total_time,
        interposer.stats().matched,
        interposer.stats().unmatched,
    );
    println!(
        "tier peaks: dram {:.2} GB, pmem {:.2} GB; interposer overhead {:.3}s",
        placed.tier_peak_bytes[0] as f64 / 1e9,
        placed.tier_peak_bytes.get(1).copied().unwrap_or(0) as f64 / 1e9,
        placed.alloc_overhead,
    );
    if let Some(mm) = baseline {
        println!(
            "memory mode: {:.2}s  →  speedup {:.3}x",
            mm.total_time,
            mm.total_time / placed.total_time
        );
    }
    metrics.finish();
}

/// The `--online --journal-dir DIR` mode: the crash-safe streaming
/// replanner. The app's event stream is fed through a supervised
/// [`ecohmem_online::DurableEngine`] — every batch journaled before it is
/// applied, checkpoints every `--checkpoint-every N` records — so killing
/// the process and re-running with the same `--journal-dir` resumes from
/// the recovered state instead of starting over. `--lenient` selects
/// `BestEffort` degradation (serve the last good placement, marked stale,
/// through worker outages) instead of `Strict` fail-fast.
fn run_durable(
    args: &Args,
    app_name: &str,
    app: &memsim::AppModel,
    machine: &memsim::MachineConfig,
) {
    use ecohmem_online::channel::STREAM_BATCH;
    use ecohmem_online::StreamMeta;
    use memsim::FixedTier;
    use profiler::{profile_run, ProfilerConfig};
    use std::sync::{Arc, Condvar, Mutex};

    let dir = args.opt("journal-dir").expect("checked by caller");
    let mut durability = DurabilityConfig::new(dir);
    durability.checkpoint_every = args.opt_or("checkpoint-every", durability.checkpoint_every);
    let policy = if args.has("lenient") {
        ecohmem_online::DegradationPolicy::BestEffort
    } else {
        ecohmem_online::DegradationPolicy::Strict
    };
    let gib = args.opt_or("dram-gib", 12u64);
    let mut online_cfg = OnlineConfig::default();
    online_cfg.epoch_phases = args.opt_or("epoch-phases", online_cfg.epoch_phases);

    // The event source: a profiled run of the app on the large tier (the
    // stand-in for a live sampling profiler attached to the process).
    let backing = machine.largest_tier();
    let (trace, _) = profile_run(
        app,
        machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(backing),
        &ProfilerConfig::default(),
    );

    // The first recovery callback tells us how many events the recovered
    // state already consumed from the stream, so a re-fed recorded stream
    // can skip exactly that prefix. A count, not a time cutoff: distinct
    // events may legally share a timestamp, and a time filter would skip
    // not-yet-ingested events that tie with the recovered stream time.
    let first_open: Arc<(Mutex<Option<u64>>, Condvar)> =
        Arc::new((Mutex::new(None), Condvar::new()));
    let opened = Arc::clone(&first_open);
    let supervisor = Supervisor::spawn(
        durability,
        StreamMeta::of(&trace),
        policy,
        online_cfg,
        advisor::AdvisorConfig::loads_only(gib),
        advisor::Algorithm::Base,
        SupervisorConfig::default(),
        move |report| {
            if report.resumed {
                eprintln!(
                    "ecohmem-run: recovered prior state (checkpoint {:?}, {} journal records \
                     replayed, {} torn bytes truncated, {} events ingested + {} shed, stream at \
                     t={:?})",
                    report.checkpoint_seq,
                    report.replayed_records,
                    report.torn_bytes,
                    report.events_seen,
                    report.shed_events,
                    report.stream_time,
                );
            }
            let (slot, cv) = &*opened;
            let mut guard = slot.lock().unwrap();
            if guard.is_none() {
                // Shed events never reached the ingestor, but they *were*
                // consumed from the recorded stream — skip both.
                *guard = Some(report.events_seen + report.shed_events);
                cv.notify_all();
            }
        },
    );
    let resume_skip = {
        let (slot, cv) = &*first_open;
        let guard = slot.lock().unwrap();
        let (guard, timed_out) = cv
            .wait_timeout_while(guard, std::time::Duration::from_secs(30), |g| g.is_none())
            .unwrap();
        if timed_out.timed_out() {
            0 // open failed or is stuck; feed everything, errors surface below
        } else {
            guard.unwrap_or(0)
        }
    };

    let events: Vec<memtrace::TraceEvent> =
        trace.events.iter_events().skip(resume_skip as usize).collect();
    let mut shed_batches = 0u64;
    let stride = (events.len() / 8).max(1);
    let mut fed = 0usize;
    'feed: for chunk in events.chunks(STREAM_BATCH) {
        match supervisor.offer(chunk.to_vec()) {
            Ok(Admission::Admitted) => {}
            Ok(Admission::Shed) => shed_batches += 1,
            Err(e) => {
                eprintln!("ecohmem-run: stream stopped early: {e}");
                break 'feed;
            }
        }
        let before = fed / stride;
        fed += chunk.len();
        if fed / stride > before {
            // Mid-stream replan ticks, like a live epoch timer would fire.
            if let Err(e) = supervisor.tick(chunk.last().map(event_time).unwrap_or(0.0)) {
                eprintln!("ecohmem-run: tick failed: {e}");
                break 'feed;
            }
        }
    }
    let _ = supervisor.tick(trace.duration);
    let outcome = ok_or_die("ecohmem-run", supervisor.finish());
    println!(
        "{app_name} durable online replan: {} plan revisions over {} events, {} recoveries{}",
        outcome.revisions.len(),
        events.len(),
        outcome.recoveries,
        if outcome.degraded { " (degraded: serving stale state)" } else { "" },
    );
    if outcome.shed_events > 0 {
        println!(
            "overload: {} events shed in {} batches{}",
            outcome.shed_events,
            shed_batches,
            outcome.shed_window.describe(),
        );
    } else {
        println!("overload: none (0 events shed)");
    }
}

fn event_time(e: &memtrace::TraceEvent) -> f64 {
    e.time()
}

/// The `--online` mode: dynamic placement by the incremental advisor, no
/// prior profiling run and no report file.
fn run_online(
    args: &Args,
    app_name: &str,
    app: &memsim::AppModel,
    machine: &memsim::MachineConfig,
) {
    let gib = args.opt_or("dram-gib", 12u64);
    let cfg = advisor::AdvisorConfig::loads_only(gib);
    let mut online_cfg = OnlineConfig::reactive();
    online_cfg.epoch_phases = args.opt_or("epoch-phases", online_cfg.epoch_phases);
    let mut policy = OnlinePolicy::new(cfg, online_cfg);

    let wants_baseline = !args.has("no-baseline");
    let (placed, baseline) = std::thread::scope(|s| {
        let handle = (wants_baseline && args.jobs() > 1)
            .then(|| s.spawn(|| baselines::run_memory_mode(app, machine)));
        let placed = run(app, machine, ExecMode::AppDirect, &mut policy);
        let baseline = match handle {
            Some(h) => Some(h.join().expect("baseline thread panicked")),
            None => wants_baseline.then(|| baselines::run_memory_mode(app, machine)),
        };
        (placed, baseline)
    });

    println!(
        "{app_name} under online placement: {:.2}s wall, {} epochs, {} plan revisions",
        placed.total_time,
        policy.epochs(),
        policy.revisions().len(),
    );
    println!(
        "migrations: {} applied of {} requested, {:.2} GB moved, {:.3}s migration time",
        placed.migrations,
        policy.migrations_requested(),
        placed.migrated_bytes as f64 / 1e9,
        placed.migration_time,
    );
    println!(
        "tier peaks: dram {:.2} GB, pmem {:.2} GB",
        placed.tier_peak_bytes[0] as f64 / 1e9,
        placed.tier_peak_bytes.get(1).copied().unwrap_or(0) as f64 / 1e9,
    );
    if let Some(mm) = baseline {
        println!(
            "memory mode: {:.2}s  →  speedup {:.3}x",
            mm.total_time,
            mm.total_time / placed.total_time
        );
    }
}
