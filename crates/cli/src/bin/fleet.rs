//! `ecohmem-fleet` — simulate M nodes × K co-scheduled tenants.
//!
//! ```text
//! ecohmem-fleet --nodes 4 --colocate minife,lulesh,hpcg,phaseshift \
//!               --scheduler paper-greedy --seed 7 --spread 5 --jobs 4
//! ecohmem-fleet --nodes 16 --colocate mixed:4 --json
//! ```
//!
//! `--colocate` is either a comma-separated workload mix stamped on every
//! node, or `mixed[:K]` for the rotated mixed colocation builder. `--json`
//! prints the full deterministic fleet document; the default output is a
//! human summary plus a per-node table.

use cli::{machine_by_name, ok_or_die, usage_error, Args, Flags, MetricsOut};
use memsim::fleet::{self, ChurnConfig, FleetConfig, SchedulerPolicy};
use memsim::TenantSpec;
use workloads::colocations;

const TOOL: &str = "ecohmem-fleet";
const USAGE: &str = "ecohmem-fleet [--nodes N] [--colocate MIX|mixed[:K]] \
[--scheduler priority|proportional-share|paper-greedy] [--machine pmem6|pmem2|hbm] \
[--seed S] [--spread SECONDS] [--quantum-mib M] [--jobs N] [--json] [--metrics-out PATH]";

const FLAGS: Flags = Flags {
    options: &[
        "nodes",
        "colocate",
        "scheduler",
        "machine",
        "seed",
        "spread",
        "quantum-mib",
        "jobs",
        "metrics-out",
    ],
    switches: &["json"],
};

fn build_tenants(nodes: u32, spec: &str) -> Result<Vec<TenantSpec>, String> {
    if let Some(rest) = spec.strip_prefix("mixed") {
        let per_node = match rest.strip_prefix(':') {
            Some(k) => k.parse::<usize>().map_err(|_| format!("bad mixed count {k:?}"))?,
            None if rest.is_empty() => colocations::MIXED.len(),
            _ => return Err(format!("bad colocation spec {spec:?}")),
        };
        return Ok(colocations::mixed_colocations(nodes, per_node));
    }
    let mix: Vec<&str> = spec.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if mix.is_empty() {
        return Err("empty colocation mix".into());
    }
    colocations::colocate(nodes, &mix)
}

fn main() {
    let args = Args::from_env(&FLAGS);
    let metrics = MetricsOut::from_args(TOOL, &args);

    let nodes = args.opt_or("nodes", 4u32);
    if nodes == 0 {
        usage_error(TOOL, "--nodes must be at least 1", USAGE);
    }
    let machine_name = args.opt("machine").unwrap_or("pmem6");
    let Some(machine) = machine_by_name(machine_name) else {
        usage_error(TOOL, &format!("unknown machine {machine_name:?}"), USAGE);
    };
    let sched_name = args.opt("scheduler").unwrap_or("paper-greedy");
    let Some(scheduler) = SchedulerPolicy::parse(sched_name) else {
        usage_error(TOOL, &format!("unknown scheduler {sched_name:?}"), USAGE);
    };

    let mut cfg = FleetConfig::new(machine, nodes, scheduler);
    cfg.churn = ChurnConfig {
        seed: args.opt_or("seed", ChurnConfig::default().seed),
        arrival_spread_s: args.opt_or("spread", 0.0f64),
    };
    if let Some(mib) = args.opt("quantum-mib") {
        let mib: u64 =
            ok_or_die(TOOL, mib.parse::<u64>().map_err(|e| format!("--quantum-mib: {e}")));
        cfg.quantum_bytes = mib << 20;
    }

    let spec = args.opt("colocate").unwrap_or("mixed");
    let tenants = ok_or_die(TOOL, build_tenants(nodes, spec));
    let result = ok_or_die(TOOL, fleet::simulate(&cfg, &tenants, args.jobs()));

    if args.has("json") {
        println!("{}", result.to_json().to_string_pretty());
    } else {
        println!(
            "fleet: {} nodes, {} tenants, scheduler {}",
            nodes,
            tenants.len(),
            result.scheduler
        );
        println!(
            "makespan {:.3}s  epochs {}  decisions {}  storms {} ({} bytes)  peak pressure {:.2}",
            result.makespan(),
            result.total_epochs(),
            result.scheduler_decisions(),
            result.total_storms(),
            result.total_storm_bytes(),
            result.peak_pressure()
        );
        for n in &result.nodes {
            let last = n.tenants.iter().map(|t| t.completion).fold(0.0f64, f64::max);
            println!(
                "  node {:>3}: {} tenants, {} epochs, {} storms, done at {:.3}s",
                n.node,
                n.tenants.len(),
                n.epochs.len(),
                n.epochs.iter().map(|e| e.storms).sum::<u64>(),
                last
            );
            for t in &n.tenants {
                println!(
                    "    {:<24} arrive {:>7.3}s  finish {:>8.3}s  segments {:>2}  storms {}",
                    t.name,
                    t.arrival,
                    t.completion,
                    t.segments.len(),
                    t.storms
                );
            }
        }
        let cache = memsim::global_cache();
        eprintln!("[fleet] cache hits {} misses {}", cache.hits(), cache.misses());
    }
    metrics.finish();
}
