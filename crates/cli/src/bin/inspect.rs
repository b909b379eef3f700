//! `ecohmem-inspect` — the Paramedir stage: aggregate a trace file into
//! per-site statistics and print them.
//!
//! ```text
//! ecohmem-inspect <trace.json> [--top N] [--bw-series]
//! ```

use cli::{ok_or_die, usage_error, Args, Flags, MetricsOut};

const USAGE: &str = "ecohmem-inspect <trace.json> [--top N] [--bw-series] [--timeline] \
                     [--lenient] [--metrics-out FILE]";

const FLAGS: Flags =
    Flags { options: &["top", "metrics-out"], switches: &["bw-series", "timeline", "lenient"] };

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-inspect", &args);
    let Some(path) = args.positional.first() else {
        usage_error("ecohmem-inspect", "missing trace file", USAGE);
    };
    let (trace, profile) = if args.has("lenient") {
        let (trace, mut warnings) = ok_or_die("ecohmem-inspect", cli::load_trace_lenient(path));
        let (profile, w) = profiler::analyze_lenient(&trace);
        warnings.extend(w);
        cli::print_warnings("ecohmem-inspect", &warnings);
        (trace, profile)
    } else {
        let trace = ok_or_die("ecohmem-inspect", cli::load_trace(path));
        let profile = ok_or_die("ecohmem-inspect", profiler::analyze(&trace));
        (trace, profile)
    };

    println!(
        "application {} — {} ranks, {:.1}s, {} sites, peak off-chip bw {:.2} GB/s",
        profile.app_name,
        trace.ranks,
        profile.duration,
        profile.sites.len(),
        profile.peak_bw / 1e9
    );

    let top = args.opt_or("top", 15usize);
    let mut ranked: Vec<_> = profile.sites.iter().collect();
    ranked.sort_by(|a, b| b.load_misses_est.total_cmp(&a.load_misses_est));
    println!(
        "\n{:>6} {:>8} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "site", "allocs", "maxMB", "totalMB", "loadMiss", "storeMiss", "life_s", "bw@alloc"
    );
    for s in ranked.iter().take(top) {
        println!(
            "{:>6} {:>8} {:>10.1} {:>10.1} {:>12.3e} {:>12.3e} {:>10.1} {:>12.3e}",
            s.site.0,
            s.alloc_count,
            s.max_size as f64 / 1e6,
            s.total_bytes as f64 / 1e6,
            s.load_misses_est,
            s.store_misses_est,
            s.total_lifetime(),
            s.bw_at_alloc,
        );
    }

    if args.has("timeline") {
        let rows = ok_or_die("ecohmem-inspect", profiler::timeline(&trace));
        print!("\n{}", profiler::to_csv(&rows));
    }

    if args.has("bw-series") {
        println!("\nsystem bandwidth series (t_s, GB/s):");
        for &(t, bw) in profile.bw_series.iter().take(50) {
            println!("{t:8.1} {:8.2}", bw / 1e9);
        }
    }
    metrics.finish();
}
