//! `ecohmem-serve` — the placement-as-a-service daemon.
//!
//! ```text
//! ecohmem-serve [--listen ADDR] [--io-threads N] [--workers N]
//!               [--max-tenants N] [--journal-dir DIR] [--dram-gib N]
//!               [--bw-aware] [--once N] [--idle-timeout-secs N]
//!               [--metrics-out FILE]
//! ```
//!
//! Hosts N independent tenant sessions over the framed TCP protocol
//! (see `ecohmem-serve` crate docs): each tenant streams event batches
//! and ticks, and receives placement revisions back. `--journal-dir`
//! threads the crash-safe durability engine under every tenant — each
//! gets its own write-ahead log and checkpoints under
//! `<DIR>/<tenant>/`. `--once N` exits after N sessions complete
//! (for CI and scripted runs); without it the daemon serves forever.
//!
//! Connections are multiplexed across `--io-threads` event-driven
//! reactor shards (default: one per core), so the daemon runs exactly
//! `io-threads + workers` threads no matter how many tenants connect.
//! `--idle-timeout-secs` bounds how long a silent connection may hold
//! its slot (default 120).

use cli::{ok_or_die, Args, Flags, MetricsOut};
use ecohmem_serve::{ServeConfig, Server, ServerConfig};

const USAGE: &str = "ecohmem-serve [--listen ADDR] [--io-threads N] [--workers N] \
                     [--max-tenants N] [--journal-dir DIR] [--dram-gib N] [--bw-aware] \
                     [--once N] [--idle-timeout-secs N] [--metrics-out FILE]";

const FLAGS: Flags = Flags {
    options: &[
        "listen",
        "io-threads",
        "workers",
        "max-tenants",
        "journal-dir",
        "dram-gib",
        "once",
        "idle-timeout-secs",
        "metrics-out",
    ],
    switches: &["bw-aware"],
};

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args("ecohmem-serve", &args);
    if !args.positional.is_empty() {
        cli::usage_error("ecohmem-serve", "unexpected positional argument", USAGE);
    }

    let mut serve = ServeConfig {
        workers: args.opt_or("workers", 2usize),
        max_tenants: args.opt_or("max-tenants", 1024usize),
        dram_gib: args.opt_or("dram-gib", 12u64),
        journal_dir: args.opt("journal-dir").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    if args.has("bw-aware") {
        serve.algorithm = advisor::Algorithm::BandwidthAware;
    }

    let cfg = ServerConfig {
        listen: args.opt("listen").unwrap_or("127.0.0.1:7878").to_string(),
        once: args.opt("once").map(|_| args.opt_or("once", 0)),
        io_threads: args.opt_or("io-threads", 0usize),
        idle_timeout: std::time::Duration::from_secs(args.opt_or("idle-timeout-secs", 120u64)),
        serve,
    };
    let once = cfg.once;
    let io_threads = cfg.resolved_io_threads();
    let server = ok_or_die("ecohmem-serve", Server::bind(cfg));
    let addr = ok_or_die("ecohmem-serve", server.local_addr());
    eprintln!(
        "ecohmem-serve: listening on {addr} (io-threads={io_threads}, workers={n})",
        n = args.opt_or("workers", 2usize)
    );
    if let Some(n) = once {
        eprintln!("ecohmem-serve: will exit after {n} session(s)");
    }
    let stats = ok_or_die("ecohmem-serve", server.run());
    eprintln!("ecohmem-serve: done — {} session(s), {} frame(s)", stats.sessions, stats.frames);
    metrics.finish();
}
