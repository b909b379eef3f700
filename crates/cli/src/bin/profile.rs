//! `ecohmem-profile` — the Extrae stage: run an application under the
//! sampling profiler and write the trace file.
//!
//! ```text
//! ecohmem-profile <app> [--machine pmem6|pmem2|hbm] [--rate HZ]
//!                 [--seed N] [--out FILE]
//! ```
//!
//! `--binary` writes the v2 bucketed binary format (decodable per
//! time-bucket via `memtrace::TraceBuf`); without it the JSON encoding is
//! used.

use cli::{machine_by_name, ok_or_die, usage_error, Args, Flags, MetricsOut};
use memsim::{ExecMode, FixedTier};
use profiler::{synthesize_trace, ProfilerConfig};

const USAGE: &str = "ecohmem-profile <app> [--machine pmem6|pmem2|hbm] [--rate HZ] \
                     [--seed N] [--out FILE] [--binary] [--metrics-out FILE]";

const FLAGS: Flags =
    Flags { options: &["machine", "rate", "seed", "out", "metrics-out"], switches: &["binary"] };

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-profile", &args);
    let Some(app_name) = args.positional.first() else {
        usage_error("ecohmem-profile", "missing application name", USAGE);
    };
    let Some(app) = workloads::model_by_name(app_name) else {
        usage_error("ecohmem-profile", &format!("unknown application `{app_name}`"), USAGE);
    };
    let machine_name = args.opt("machine").unwrap_or("pmem6");
    let Some(machine) = machine_by_name(machine_name) else {
        usage_error("ecohmem-profile", &format!("unknown machine `{machine_name}`"), USAGE);
    };
    let cfg = ProfilerConfig {
        sampling_hz: args.opt_or("rate", 100.0),
        seed: args.opt_or("seed", ProfilerConfig::default().seed),
    };
    let out = args.opt("out").map(String::from).unwrap_or_else(|| format!("{app_name}.trace.json"));

    eprintln!(
        "profiling {app_name} on {} at {} Hz (memory mode, as a user would)...",
        machine.name, cfg.sampling_hz
    );
    let backing = machine.largest_tier();
    let result = memsim::run(&app, &machine, ExecMode::MemoryMode, &mut FixedTier::new(backing));
    let trace = synthesize_trace(&app, &result, &cfg);
    if args.has("binary") {
        let f = ok_or_die("ecohmem-profile", std::fs::File::create(&out));
        ok_or_die("ecohmem-profile", memtrace::write_trace_v2(&trace, std::io::BufWriter::new(f)));
    } else {
        ok_or_die("ecohmem-profile", trace.save(&out));
    }
    eprintln!(
        "wrote {out}: {} allocation events, {} samples, {:.1}s profiled run",
        trace.alloc_count(),
        trace.sample_count(),
        result.total_time
    );
    metrics.finish();
}
