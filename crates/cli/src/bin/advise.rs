//! `ecohmem-advise` — the HMem Advisor stage: trace file in, placement
//! report out (JSON for the toolchain, or the Table I text format with
//! `--text`).
//!
//! ```text
//! ecohmem-advise <trace.json> [--dram-gib N] [--config advisor.json]
//!                [--stores] [--bw-aware] [--format bom|hr]
//!                [--text] [--out FILE] [--stream]
//! ```
//!
//! `--stream` routes the trace through the online engine's streaming
//! ingestor (`ecohmem_online::stream_profile`) instead of the batch
//! analyzer — same profile, same report (the convergence contract).
//! Degradation follows the toolchain contract: strict by default,
//! salvage-and-warn with `--lenient`.

use advisor::{Advisor, AdvisorConfig, Algorithm};
use cli::{ok_or_die, usage_error, Args, Flags, MetricsOut};
use ecohmem_online::{stream_profile, DegradationPolicy, OnlineConfig};
use memtrace::{StackFormat, TierId};

const USAGE: &str = "ecohmem-advise <trace.json> [--dram-gib N] [--config advisor.json] \
                     [--stores] [--bw-aware] [--format bom|hr] [--text] [--out FILE] \
                     [--stream] [--lenient] [--metrics-out FILE]";

const FLAGS: Flags = Flags {
    options: &["dram-gib", "config", "format", "out", "metrics-out"],
    switches: &["stores", "bw-aware", "text", "stream", "lenient"],
};

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-advise", &args);
    let Some(path) = args.positional.first() else {
        usage_error("ecohmem-advise", "missing trace file", USAGE);
    };
    let profile = match (args.has("stream"), args.has("lenient")) {
        (true, lenient) => {
            // Streaming ingestion. Load leniently only when asked: the
            // loader must not mask what the ingestor would catch.
            let (trace, mut warnings) = if lenient {
                ok_or_die("ecohmem-advise", cli::load_trace_lenient(path))
            } else {
                (ok_or_die("ecohmem-advise", cli::load_trace(path)), Vec::new())
            };
            let policy = if lenient { DegradationPolicy::Warn } else { DegradationPolicy::Strict };
            let (profile, w) = ok_or_die(
                "ecohmem-advise",
                stream_profile(&trace, policy, OnlineConfig::default()),
            );
            warnings.extend(w);
            cli::print_warnings("ecohmem-advise", &warnings);
            profile
        }
        (false, true) => {
            let (trace, mut warnings) = ok_or_die("ecohmem-advise", cli::load_trace_lenient(path));
            let (profile, w) = profiler::analyze_lenient(&trace);
            warnings.extend(w);
            cli::print_warnings("ecohmem-advise", &warnings);
            profile
        }
        (false, false) => {
            let trace = ok_or_die("ecohmem-advise", cli::load_trace(path));
            ok_or_die("ecohmem-advise", profiler::analyze(&trace))
        }
    };

    let config = if let Some(cfg_path) = args.opt("config") {
        let text = ok_or_die("ecohmem-advise", std::fs::read_to_string(cfg_path));
        ok_or_die("ecohmem-advise", AdvisorConfig::from_json(&text))
    } else {
        let gib = args.opt_or("dram-gib", 12u64);
        if args.has("stores") {
            AdvisorConfig::loads_and_stores(gib)
        } else {
            AdvisorConfig::loads_only(gib)
        }
    };
    let algorithm = if args.has("bw-aware") { Algorithm::BandwidthAware } else { Algorithm::Base };
    let format = match args.opt("format").unwrap_or("bom") {
        "bom" => StackFormat::Bom,
        "hr" | "human-readable" => StackFormat::HumanReadable,
        other => usage_error("ecohmem-advise", &format!("unknown format `{other}`"), USAGE),
    };

    let advisor = Advisor::new(config);
    let report = ok_or_die("ecohmem-advise", advisor.advise(&profile, algorithm, format));

    let out = args
        .opt("out")
        .map(String::from)
        .unwrap_or_else(|| format!("{}.report.json", profile.app_name));
    if args.has("text") {
        let text = report.render_text(&profile.binmap, |t| {
            if t == TierId::DRAM {
                "dram".into()
            } else {
                "pmem".into()
            }
        });
        ok_or_die("ecohmem-advise", std::fs::write(&out, text + "\n"));
    } else {
        ok_or_die("ecohmem-advise", report.save(&out));
    }
    eprintln!(
        "wrote {out}: {} sites ({} dram, {} pmem), algorithm {:?}, format {}",
        report.len(),
        report.count_for_tier(TierId::DRAM),
        report.count_for_tier(TierId::PMEM),
        algorithm,
        format,
    );
    metrics.finish();
}
