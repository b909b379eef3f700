//! `ecohmem-stream` — replay a trace against a running advisor daemon.
//!
//! ```text
//! ecohmem-stream <app|trace-file> [--connect ADDR] [--tenant NAME]
//!                [--mode bin|jsonl] [--batch N] [--tick-stride N]
//!                [--machine pmem6|pmem2|hbm] [--revisions-out FILE]
//!                [--metrics-out FILE]
//! ```
//!
//! The positional argument is either a trace file (any on-disk format
//! `ecohmem-inspect` accepts) or a built-in application model name
//! (`minife`, `lulesh`, …), in which case a profiling run generates the
//! trace first — the two-terminal demo needs no files at all.
//!
//! Events stream in `--batch`-sized frames with a tick every
//! `--tick-stride` batches (plus a final tick at the trace end), the
//! same cadence the offline acceptance tests use. Revisions the daemon
//! pushes back are written as JSONL to `--revisions-out` (stdout
//! summary otherwise).

use cli::{machine_by_name, ok_or_die, usage_error, Args, Flags, MetricsOut};
use ecohmem_obs::Json;
use ecohmem_serve::{Mode, StreamClient};
use memsim::{ExecMode, FixedTier};
use memtrace::TraceFile;
use profiler::{profile_run, ProfilerConfig};
use std::io::Write;
use std::time::Duration;

const USAGE: &str = "ecohmem-stream <app|trace-file> [--connect ADDR] [--tenant NAME] \
                     [--mode bin|jsonl] [--batch N] [--tick-stride N] \
                     [--machine pmem6|pmem2|hbm] [--revisions-out FILE] [--metrics-out FILE]";

const FLAGS: Flags = Flags {
    options: &[
        "connect",
        "tenant",
        "mode",
        "batch",
        "tick-stride",
        "machine",
        "revisions-out",
        "metrics-out",
    ],
    switches: &[],
};

fn load_or_profile(args: &Args, source: &str) -> TraceFile {
    if std::path::Path::new(source).is_file() {
        return ok_or_die("ecohmem-stream", cli::load_trace(source));
    }
    let Some(app) = workloads::model_by_name(source) else {
        usage_error(
            "ecohmem-stream",
            &format!("`{source}` is neither a trace file nor a known application"),
            USAGE,
        );
    };
    let machine_name = args.opt("machine").unwrap_or("pmem6");
    let Some(machine) = machine_by_name(machine_name) else {
        usage_error("ecohmem-stream", &format!("unknown machine `{machine_name}`"), USAGE);
    };
    let (trace, _) = profile_run(
        &app,
        &machine,
        ExecMode::MemoryMode,
        &mut FixedTier::new(machine.largest_tier()),
        &ProfilerConfig::default(),
    );
    trace
}

fn revision_json(r: &ecohmem_online::PlacementRevision) -> Json {
    Json::obj(vec![
        ("epoch", Json::U64(r.epoch)),
        ("time", Json::F64(r.time)),
        ("site", Json::U64(r.site.0 as u64)),
        ("from", Json::U64(r.from.0 as u64)),
        ("to", Json::U64(r.to.0 as u64)),
    ])
}

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-stream", &args);
    let Some(source) = args.positional.first() else {
        usage_error("ecohmem-stream", "missing application or trace file", USAGE);
    };
    let mode_name = args.opt("mode").unwrap_or("bin");
    let Some(mode) = Mode::parse(mode_name) else {
        usage_error("ecohmem-stream", &format!("unknown mode `{mode_name}` (bin|jsonl)"), USAGE);
    };
    let addr = args.opt("connect").unwrap_or("127.0.0.1:7878");
    let default_tenant = format!("{source}-{}", std::process::id());
    let tenant = args.opt("tenant").unwrap_or(&default_tenant);
    let batch = args.opt_or("batch", 512usize).max(1);
    let tick_stride = args.opt_or("tick-stride", 6usize).max(1);

    let trace = load_or_profile(&args, source);
    eprintln!(
        "ecohmem-stream: {} events as tenant {tenant:?} → {addr} ({mode_name}, batch {batch})",
        trace.events.len()
    );

    let mut client = ok_or_die(
        "ecohmem-stream",
        StreamClient::connect_retry(addr, tenant, mode, &trace, Duration::from_secs(10)),
    );
    let events = trace.events.to_events();
    let chunks: Vec<&[memtrace::TraceEvent]> = events.chunks(batch).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        ok_or_die("ecohmem-stream", client.send_events(chunk));
        if (i + 1) % tick_stride == 0 {
            ok_or_die("ecohmem-stream", client.tick(chunk.last().unwrap().time()));
        }
    }
    ok_or_die("ecohmem-stream", client.tick(trace.duration));
    let outcome = ok_or_die("ecohmem-stream", client.finish());

    if let Some(path) = args.opt("revisions-out") {
        let mut out = ok_or_die("ecohmem-stream", std::fs::File::create(path));
        for r in &outcome.revisions {
            ok_or_die("ecohmem-stream", writeln!(out, "{}", revision_json(r).to_string_compact()));
        }
        eprintln!("ecohmem-stream: wrote {} revisions to {path}", outcome.revisions.len());
    }
    println!(
        "tenant {tenant:?}: {} revisions over {} ticks, {} shed (server total {})",
        outcome.revisions.len(),
        outcome.revision_frames,
        outcome.shed,
        outcome.bye_revisions.unwrap_or(0),
    );
    metrics.finish();
}
