//! Fleet differential test battery (ISSUE 9).
//!
//! The fleet simulator's correctness story is anchored on exact
//! identities, not tolerances:
//!
//! * **1×1 differential** — a fleet of one node running one tenant must
//!   produce a `RunResult` byte-identical to the standalone memsim run of
//!   the same workload on the same machine, for every scheduler policy,
//!   every golden app, and proptest-random configurations.
//! * **Jobs/order invariance** — fleet tables are byte-identical at
//!   `--jobs` 1 vs 4 and under shuffled tenant insertion order; the same
//!   churn seed always yields the same schedule.
//! * **Cache isolation** — fleet cells carry a `FleetCellKey`, so a
//!   warmed single-node cache never satisfies a fleet lookup and
//!   differing colocation mixes never alias.
//! * **Golden snapshot** — a pinned 4-node mixed colocation with churn,
//!   regenerated with `ECOHMEM_BLESS=1 cargo test --test fleet`.
//!
//! The churn seed for the invariance suites comes from
//! `ECOHMEM_FLEET_SEED` (CI runs a seed matrix); the golden test always
//! uses the default seed so the matrix cannot invalidate the snapshot.

use memsim::fleet::{self, ChurnConfig, FleetConfig, SchedulerPolicy};
use memsim::{ExecMode, MachineConfig, RunCache, RunResult, TenantSpec};
use memtrace::rng::SplitMix64;
use proptest::prelude::*;
use workloads::colocations;

mod support;

const GOLDEN_APPS: [&str; 3] = ["minife", "lulesh", "hpcg"];
const DEFAULT_SEED: u64 = 0xEC0;

fn env_seed() -> u64 {
    std::env::var("ECOHMEM_FLEET_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SEED)
}

fn machine_by_index(i: usize) -> MachineConfig {
    match i % 3 {
        0 => MachineConfig::optane_pmem6(),
        1 => MachineConfig::optane_pmem2(),
        _ => MachineConfig::hbm_ddr(),
    }
}

/// The standalone run the 1×1 fleet must reproduce byte-for-byte: the
/// machine's fast tier preferred, spilling to the capacity tier — exactly
/// what `RunCache::run_fixed` simulates for a whole-node tenant.
fn standalone(app_name: &str, machine: &MachineConfig) -> RunResult {
    let app = workloads::model_by_name(app_name).unwrap();
    let fast = machine.tiers_by_performance()[0];
    let backing = machine.largest_tier();
    let cache = RunCache::new();
    (*cache.run_fixed(&app, machine, ExecMode::AppDirect, fast, Some(backing))).clone()
}

fn fleet_1x1(cfg: &FleetConfig, app_name: &str, work: f64, priority: u8) -> (RunResult, u64, u64) {
    let app = workloads::model_by_name(app_name).unwrap();
    let mut tenant = TenantSpec::new("solo", app, 0);
    tenant.work = work;
    tenant.priority = priority;
    let cache = RunCache::new();
    let r = fleet::simulate_with(&cache, cfg, &[tenant], 1).unwrap();
    let t = &r.nodes[0].tenants[0];
    assert_eq!(t.segments.len(), 1, "a sole tenant runs in one uninterrupted segment");
    ((*t.segments[0].run).clone(), cache.hits(), cache.misses())
}

#[test]
fn fleet_1x1_matches_standalone_for_golden_apps_and_all_policies() {
    for app in GOLDEN_APPS {
        for policy in SchedulerPolicy::all() {
            let machine = MachineConfig::optane_pmem6();
            let cfg = FleetConfig::new(machine.clone(), 1, policy);
            let (got, _, misses) = fleet_1x1(&cfg, app, 1.0, 0);
            let want = standalone(app, &machine);
            assert_eq!(misses, 1, "one engine run for one cell");
            assert_eq!(got, want, "{app}/{policy:?}: fleet(1,1) diverged from standalone");
            // PartialEq on f64 fields is exact, but pin the bytes too: the
            // Debug rendering covers every field of every nested record.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{app}/{policy:?}: byte-level drift"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 1: the 1×1 identity holds across random machines,
    /// schedulers, work sizes, priorities, quanta and churn settings —
    /// none of those knobs may leak into a sole tenant's engine run.
    #[test]
    fn fleet_1x1_differential_random_configs(
        app_idx in 0usize..3,
        machine_idx in 0usize..3,
        policy_idx in 0usize..3,
        work in 0.25f64..3.0,
        priority in 0u8..10,
        quantum_shift in 28u32..31,
        seed in any::<u64>(),
        spread in 0.0f64..10.0,
    ) {
        let app = GOLDEN_APPS[app_idx];
        let machine = machine_by_index(machine_idx);
        let policy = SchedulerPolicy::all()[policy_idx];
        let mut cfg = FleetConfig::new(machine.clone(), 1, policy);
        cfg.quantum_bytes = 1u64 << quantum_shift;
        cfg.churn = ChurnConfig { seed, arrival_spread_s: spread };
        let (got, _, _) = fleet_1x1(&cfg, app, work, priority);
        let want = standalone(app, &machine);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(format!("{:?}", got), format!("{:?}", want));
    }
}

/// A small contended scenario for the invariance suites: 4 nodes × 4
/// mixed tenants with churn.
fn invariance_scenario(policy: SchedulerPolicy, seed: u64) -> (FleetConfig, Vec<TenantSpec>) {
    let mut cfg = FleetConfig::new(MachineConfig::optane_pmem6(), 4, policy);
    cfg.quantum_bytes = 1 << 30;
    cfg.churn = ChurnConfig { seed, arrival_spread_s: 5.0 };
    (cfg, colocations::mixed_colocations(4, 4))
}

/// Deterministic Fisher–Yates driven by splitmix64, so proptest shrinking
/// stays reproducible.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 2a: `--jobs` is unobservable — the fleet table is
    /// byte-identical at jobs 1 and 4.
    #[test]
    fn fleet_tables_invariant_to_jobs(policy_idx in 0usize..3, seed_offset in 0u64..64) {
        let policy = SchedulerPolicy::all()[policy_idx];
        let (cfg, tenants) = invariance_scenario(policy, env_seed() ^ seed_offset);
        let serial = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 1).unwrap();
        let parallel = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 4).unwrap();
        prop_assert_eq!(
            serial.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
    }

    /// Satellite 2b: tenant insertion order is unobservable — shuffling
    /// the spec list changes nothing, because canonical (name) order
    /// drives both scheduling and the churn schedule.
    #[test]
    fn fleet_tables_invariant_to_tenant_order(
        policy_idx in 0usize..3,
        shuffle_seed in any::<u64>(),
    ) {
        let policy = SchedulerPolicy::all()[policy_idx];
        let (cfg, tenants) = invariance_scenario(policy, env_seed());
        let mut shuffled = tenants.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let a = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 2).unwrap();
        let b = fleet::simulate_with(&RunCache::new(), &cfg, &shuffled, 2).unwrap();
        prop_assert_eq!(a.to_json().to_string_pretty(), b.to_json().to_string_pretty());
    }
}

#[test]
fn same_seed_same_schedule_different_seed_diverges() {
    let (cfg, tenants) = invariance_scenario(SchedulerPolicy::PaperGreedy, env_seed());
    let a = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 2).unwrap();
    let b = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 2).unwrap();
    assert_eq!(a.to_json().to_string_pretty(), b.to_json().to_string_pretty());

    let (cfg2, _) = invariance_scenario(SchedulerPolicy::PaperGreedy, env_seed() ^ 0xDEAD_BEEF);
    let c = fleet::simulate_with(&RunCache::new(), &cfg2, &tenants, 2).unwrap();
    let arrivals = |r: &fleet::FleetResult| -> Vec<f64> {
        r.nodes.iter().flat_map(|n| n.tenants.iter()).map(|t| t.arrival).collect()
    };
    assert_ne!(arrivals(&a), arrivals(&c), "different seeds must reshuffle arrivals");
}

/// Satellite 3: a warmed single-node cache must not satisfy a fleet
/// lookup — the fleet cell re-simulates (a miss), because its `RunKey`
/// carries a `FleetCellKey` the standalone key lacks.
#[test]
fn warm_single_node_cache_does_not_satisfy_fleet_lookup() {
    let machine = MachineConfig::optane_pmem6();
    let app = workloads::model_by_name("minife").unwrap();
    let fast = machine.tiers_by_performance()[0];
    let backing = machine.largest_tier();
    let cache = RunCache::new();

    // Warm the standalone entry for exactly the machine/policy the 1×1
    // fleet cell will use.
    cache.run_fixed(&app, &machine, ExecMode::AppDirect, fast, Some(backing));
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    let cfg = FleetConfig::new(machine.clone(), 1, SchedulerPolicy::Priority);
    let r = fleet::simulate_with(&cache, &cfg, &[TenantSpec::new("t", app.clone(), 0)], 1).unwrap();
    assert_eq!(cache.misses(), 2, "the fleet cell must MISS despite the warm standalone entry");
    assert_eq!(cache.len(), 2, "fleet and standalone entries coexist under distinct keys");

    // And the other way: a second fleet run of the same cell is a hit.
    let r2 =
        fleet::simulate_with(&cache, &cfg, &[TenantSpec::new("t", app.clone(), 0)], 1).unwrap();
    assert_eq!(cache.misses(), 2, "same fleet cell re-uses its cached run");
    assert_eq!(
        r.to_json().to_string_pretty(),
        r2.to_json().to_string_pretty(),
        "cached and fresh fleet cells agree"
    );
}

/// Satellite 3 (continued): differing colocation mixes produce distinct
/// cache cells even when they run the same app on the same node type.
#[test]
fn different_colocation_mixes_use_distinct_cache_cells() {
    let machine = MachineConfig::optane_pmem6();
    let mk = |name: &str, app: &str, prio: u8| {
        let mut t = TenantSpec::new(name, workloads::model_by_name(app).unwrap(), 0);
        t.priority = prio;
        t
    };
    let cache = RunCache::new();
    let mut cfg = FleetConfig::new(machine, 1, SchedulerPolicy::Priority);
    cfg.quantum_bytes = 1 << 30;

    // minife colocated with hpcg...
    fleet::simulate_with(&cache, &cfg, &[mk("a", "minife", 5), mk("b", "hpcg", 1)], 1).unwrap();
    let after_first = cache.len();
    // ...then colocated with lulesh: minife's grants/shares and mix hash
    // differ, so its cells must not alias the first run's.
    fleet::simulate_with(&cache, &cfg, &[mk("a", "minife", 5), mk("c", "lulesh", 1)], 1).unwrap();
    assert!(
        cache.len() > after_first,
        "a new colocation mix must add cells, not alias the old mix ({} vs {after_first})",
        cache.len()
    );

    // Same mix again: fully served from cache.
    let misses = cache.misses();
    fleet::simulate_with(&cache, &cfg, &[mk("a", "minife", 5), mk("b", "hpcg", 1)], 1).unwrap();
    assert_eq!(cache.misses(), misses, "replaying a known mix is all hits");
}

/// Satellite 4: the pinned 4-node mixed minife/lulesh/hpcg/phaseshift
/// colocation with churn — scheduler decisions, migration storms and
/// per-node pressure, line-diff clean against `tests/golden/fleet_colo4.json`.
/// Always at the default seed, so the CI seed matrix cannot invalidate it.
#[test]
fn golden_fleet_colo4_snapshot() {
    let mut cfg = FleetConfig::new(MachineConfig::optane_pmem6(), 4, SchedulerPolicy::PaperGreedy);
    cfg.quantum_bytes = 1 << 30;
    cfg.churn = ChurnConfig { seed: DEFAULT_SEED, arrival_spread_s: 5.0 };
    let tenants = colocations::mixed_colocations(4, 4);
    let r = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 2).unwrap();

    // Shape sanity before pinning bytes: everything completed, the
    // scheduler actually decided things, and contention actually bit.
    assert_eq!(r.completed_tenants(), 16);
    assert!(r.scheduler_decisions() > 16);
    assert!(r.peak_pressure() > 1.0, "4 mixed tenants must overcommit 16 GiB DRAM");
    support::assert_matches_golden(
        "tests/golden/fleet_colo4.json",
        &(r.to_json().to_string_pretty() + "\n"),
    );
}

/// The 16-node × 4-tenant mixed colocation under every scheduler: one
/// line per policy with the deterministic totals (makespan and peak
/// pressure as exact f64 bits), line-diff clean against
/// `tests/golden/fleet_sweep16x4.txt`. This is the scenario behind the
/// README's scheduler comparison. Always at the default seed, like
/// [`golden_fleet_colo4_snapshot`].
#[test]
fn golden_fleet_sweep16x4_snapshot() {
    let mut lines = String::new();
    for policy in SchedulerPolicy::all() {
        let mut cfg = FleetConfig::new(MachineConfig::optane_pmem6(), 16, policy);
        cfg.quantum_bytes = 1 << 30;
        cfg.churn = ChurnConfig { seed: DEFAULT_SEED, arrival_spread_s: 5.0 };
        let tenants = colocations::mixed_colocations(16, 4);
        let r = fleet::simulate_with(&RunCache::new(), &cfg, &tenants, 4).unwrap();
        assert_eq!(r.completed_tenants(), 64, "{}: every tenant completes", policy.name());
        lines.push_str(&format!(
            "{} makespan_s={} makespan_bits={:#018x} epochs={} decisions={} storms={} \
             storm_bytes={} peak_pressure={} peak_pressure_bits={:#018x} completed={}\n",
            policy.name(),
            r.makespan(),
            r.makespan().to_bits(),
            r.total_epochs(),
            r.scheduler_decisions(),
            r.total_storms(),
            r.total_storm_bytes(),
            r.peak_pressure(),
            r.peak_pressure().to_bits(),
            r.completed_tenants(),
        ));
    }
    support::assert_matches_golden("tests/golden/fleet_sweep16x4.txt", &lines);
}
