//! Parallel memoized experiment runner core.
//!
//! Reproducing the paper's tables means running the same deterministic
//! simulations over and over: every bench binary re-simulates the
//! Memory-Mode baseline and the unconstrained-DRAM profiling run for each
//! sweep cell, even though the engine is a pure function of its inputs. This
//! module provides the two pieces that remove that redundancy without any
//! new dependencies (the registry is offline):
//!
//! * a content-addressed [`RunCache`]: results are keyed by a stable hash of
//!   `(AppModel, MachineConfig, ExecMode, policy tag)` ([`RunKey`]), so a
//!   run shared across tables is simulated exactly once per process;
//! * a work-stealing [`parallel_map`] built on `std::thread::scope`, used by
//!   `ecohmem-core::experiments` and the bench runner to spread independent
//!   sweep cells over `--jobs N` / `ECOHMEM_JOBS` worker threads.
//!
//! Determinism guarantees: the engine is a pure deterministic function, so a
//! cached result is bit-identical to a fresh `engine::run` with the same
//! inputs, and [`parallel_map`] returns results in submission order no
//! matter how jobs interleave across workers. Output produced from runner
//! results is therefore byte-identical to the serial path.
//!
//! Only deterministic, stateless-config policies should be cached (the
//! `FixedTier` family via [`RunCache::run_fixed`]): the policy tag is the
//! caller's promise that the tag fully determines the policy's behaviour.
//! Stateful or report-driven policies (FlexMalloc deploy runs, reactive
//! tiering) must keep calling [`crate::engine::run`] directly.

use crate::counters::RunResult;
use crate::engine::{self, ExecMode};
use crate::machine::MachineConfig;
use crate::model::AppModel;
use crate::policy::{FixedTier, PlacementPolicy};
use memtrace::TierId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// The cache shares AppModel/MachineConfig references across worker threads;
// keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AppModel>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<ExecMode>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<RunCache>();
};

pub use crate::stablehash::stable_hash;

/// Structural identity of the fleet cell a run was simulated inside.
///
/// A fleet cell is one tenant's slice of one node under one scheduler: the
/// same app on the same *sliced* machine can legitimately produce different
/// results standalone vs inside a colocation (the slice machine differs),
/// but the cache must also never alias two fleet cells whose colocation
/// context differs even when the slice happens to coincide. Both hashes are
/// `stable_hash` values over structural fleet state (see
/// `fleet::cell_key`), so new fleet-config fields flow into the key via
/// `StableHash`'s exhaustive-destructure impls — forgetting one is a
/// compile error there, not a silent cache alias here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetCellKey {
    /// `stable_hash` of the canonical colocation mix the tenant runs in
    /// (resident apps, grants and shares, in canonical resident order).
    pub colocation: u64,
    /// `stable_hash` of the fleet scheduler configuration.
    pub scheduler: u64,
}

/// Content-addressed identity of one engine run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// `stable_hash` of the application model.
    pub app: u64,
    /// `stable_hash` of the machine configuration.
    pub machine: u64,
    /// Execution mode.
    pub mode: ExecMode,
    /// Caller-chosen tag that fully determines the policy's behaviour
    /// (e.g. `fixed:dram`, `fixed:dram>pmem`).
    pub policy: String,
    /// Fleet cell context, `None` for standalone single-machine runs.
    /// Keeps warmed single-node cache entries from ever satisfying a
    /// fleet lookup (and vice versa), and separates colocation mixes.
    pub fleet: Option<FleetCellKey>,
}

impl RunKey {
    /// Derives the key for a standalone `(app, machine, mode, policy)`
    /// combination.
    pub fn new(
        app: &AppModel,
        machine: &MachineConfig,
        mode: ExecMode,
        policy_tag: impl Into<String>,
    ) -> Self {
        RunKey::from_app_hash(stable_hash(app), machine, mode, policy_tag)
    }

    /// [`RunKey::new`] for a caller that already holds `stable_hash(app)`:
    /// hashing a model costs up to milliseconds, hashing a machine under a
    /// microsecond. The `memsim.cache.key` span times this part only.
    pub fn from_app_hash(
        app_hash: u64,
        machine: &MachineConfig,
        mode: ExecMode,
        policy_tag: impl Into<String>,
    ) -> Self {
        let _span = ecohmem_obs::span("memsim.cache.key");
        RunKey {
            app: app_hash,
            machine: stable_hash(machine),
            mode,
            policy: policy_tag.into(),
            fleet: None,
        }
    }

    /// Rekeys this run as belonging to a fleet cell.
    pub fn with_fleet(mut self, cell: FleetCellKey) -> Self {
        self.fleet = Some(cell);
        self
    }
}

type Slot = Arc<OnceLock<Arc<RunResult>>>;

/// Entry cap of [`global_cache`]. The largest in-repo working set, the
/// fleet sweep, touches 166 distinct runs; a long-lived process serving
/// distinct requests would otherwise keep every result forever.
pub const GLOBAL_CACHE_CAPACITY: usize = 256;

/// The slot table plus its insertion order, for oldest-first eviction.
#[derive(Default)]
struct Slots {
    map: HashMap<RunKey, Slot>,
    order: VecDeque<RunKey>,
}

/// In-process memoization table for deterministic engine runs.
///
/// Concurrent requests for the same key are collapsed: the first thread to
/// claim the slot simulates, everyone else blocks on the `OnceLock` and
/// shares the resulting `Arc`. Hit/miss counters feed the bench runner's
/// exit stats and the acceptance test that the memoized path performs
/// strictly fewer `engine::run` invocations than the serial seed path.
///
/// A cache from [`RunCache::new`] is unbounded; [`global_cache`] evicts
/// its oldest entry once it holds [`GLOBAL_CACHE_CAPACITY`] runs. An
/// evicted run is simply simulated again on its next request (callers
/// holding its `Arc` keep it alive).
#[derive(Default)]
pub struct RunCache {
    slots: Mutex<Slots>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        RunCache::default()
    }

    /// An empty cache holding at most `capacity` runs.
    fn bounded(capacity: usize) -> Self {
        RunCache { capacity: Some(capacity), ..RunCache::default() }
    }

    /// The slot for `key`, inserting (and evicting the oldest entry of a
    /// full bounded cache) when it is new.
    fn slot(&self, key: RunKey) -> Slot {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.map.get(&key) {
            return slot.clone();
        }
        if let Some(cap) = self.capacity {
            while slots.map.len() >= cap {
                let Some(oldest) = slots.order.pop_front() else { break };
                slots.map.remove(&oldest);
            }
            slots.order.push_back(key.clone());
        }
        slots.map.entry(key).or_default().clone()
    }

    /// Returns the cached result for `key`, simulating it on first request.
    ///
    /// `make_policy` must construct a policy whose behaviour is fully
    /// determined by `key.policy` — that is the caching contract.
    pub fn run_with(
        &self,
        key: RunKey,
        app: &AppModel,
        machine: &MachineConfig,
        mode: ExecMode,
        make_policy: impl FnOnce() -> Box<dyn PlacementPolicy>,
    ) -> Arc<RunResult> {
        let slot = self.slot(key);
        let mut ran = false;
        let result = slot
            .get_or_init(|| {
                ran = true;
                let mut policy = make_policy();
                Arc::new(engine::run(app, machine, mode, policy.as_mut()))
            })
            .clone();
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
            ecohmem_obs::incr("memsim.cache.misses");
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ecohmem_obs::incr("memsim.cache.hits");
        }
        result
    }

    /// Cached run under a [`FixedTier`] policy — covers the profiling runs
    /// and the Memory-Mode / App-Direct fixed-placement baselines shared
    /// across tables.
    pub fn run_fixed(
        &self,
        app: &AppModel,
        machine: &MachineConfig,
        mode: ExecMode,
        tier: TierId,
        fallback: Option<TierId>,
    ) -> Arc<RunResult> {
        let tag = match fallback {
            Some(f) if f != tier => format!("fixed:{tier}>{f}"),
            _ => format!("fixed:{tier}"),
        };
        let key = RunKey::new(app, machine, mode, tag);
        self.run_with(key, app, machine, mode, || match fallback {
            Some(f) if f != tier => Box::new(FixedTier::with_fallback(tier, f)),
            _ => Box::new(FixedTier::new(tier)),
        })
    }

    /// Number of requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct runs stored.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every stored run, so the next request for any key
    /// simulates again; the hit and miss counters keep counting.
    pub fn clear(&self) {
        let mut slots = self.slots.lock().unwrap();
        slots.map.clear();
        slots.order.clear();
    }
}

/// The process-global run cache shared by all bench binaries, pipelines and
/// baselines in this process.
pub fn global_cache() -> &'static RunCache {
    static CACHE: OnceLock<RunCache> = OnceLock::new();
    CACHE.get_or_init(|| RunCache::bounded(GLOBAL_CACHE_CAPACITY))
}

/// Panic payload used by the kill-point hook; chaos harnesses match on it
/// to tell an injected crash from a real engine bug.
pub const KILL_POINT_PAYLOAD: &str = "memsim.kill_point";

/// Disarmed sentinel for the kill-point counter.
const KILL_DISARMED: i64 = -1;

static KILL_POINT: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(KILL_DISARMED);

/// Arms the process-wide kill point: the `n`-th subsequent
/// [`kill_point_tick`] (0-based) panics with [`KILL_POINT_PAYLOAD`]. The
/// engine calls the tick once per simulated phase, so `n` selects a
/// deterministic crash offset inside a run. Chaos-testing only; the hook
/// costs one relaxed atomic load per phase when disarmed.
pub fn arm_kill_point(n: u64) {
    KILL_POINT.store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
}

/// Disarms the kill point (idempotent). Call from chaos harnesses after a
/// caught injected crash so later runs proceed normally.
pub fn disarm_kill_point() {
    KILL_POINT.store(KILL_DISARMED, Ordering::SeqCst);
}

/// The kill-point probe. A no-op unless armed; when the armed countdown
/// reaches zero it disarms itself and panics with [`KILL_POINT_PAYLOAD`].
pub fn kill_point_tick() {
    let mut cur = KILL_POINT.load(Ordering::Relaxed);
    loop {
        if cur < 0 {
            return; // disarmed
        }
        let next = if cur == 0 { KILL_DISARMED } else { cur - 1 };
        match KILL_POINT.compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                if cur == 0 {
                    std::panic::panic_any(KILL_POINT_PAYLOAD);
                }
                return;
            }
            Err(seen) => cur = seen,
        }
    }
}

/// Worker count from the `ECOHMEM_JOBS` environment variable, defaulting to
/// the machine's available parallelism.
pub fn jobs_from_env() -> usize {
    match std::env::var("ECOHMEM_JOBS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Applies `f` to every item on `jobs` worker threads and returns the
/// results in submission order.
///
/// Items are dealt round-robin into per-worker deques; a worker drains its
/// own deque from the front and steals from the back of its neighbours'
/// when empty. No work is ever enqueued after the workers start, so an
/// all-empty scan means done. Results land at the item's original index,
/// making the output independent of scheduling.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // `jobs` is an upper bound: oversubscribing the machine only adds
    // scheduling and lock contention, never throughput, and results are
    // order-restored so the worker count is unobservable in the output.
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let workers = jobs.max(1).min(n).min(cores);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].lock().unwrap().push_back((i, item));
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    {
        let queues = &queues;
        let results = &results;
        let f = &f;
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || loop {
                    // Pop in its own statement so the own-queue guard drops
                    // before stealing: held across the steal, two idle
                    // workers each keep their own lock while waiting for
                    // the other's (ABBA deadlock).
                    let own = queues[w].lock().unwrap().pop_front();
                    let job = own.or_else(|| {
                        (1..workers)
                            .find_map(|d| queues[(w + d) % workers].lock().unwrap().pop_back())
                    });
                    let Some((i, item)) = job else { break };
                    *results[i].lock().unwrap() = Some(f(item));
                });
            }
        });
    }

    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker completed every job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::tiny_app;

    #[test]
    fn parallel_map_preserves_order() {
        for jobs in [1, 2, 3, 8] {
            let out = parallel_map((0..100).collect(), jobs, |i: i32| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_handles_edge_sizes() {
        assert_eq!(parallel_map(Vec::<i32>::new(), 4, |i| i), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], 4, |i| i + 1), vec![8]);
        // More workers than items must not deadlock or drop work.
        assert_eq!(parallel_map(vec![1, 2], 16, |i| i), vec![1, 2]);
    }

    #[test]
    fn parallel_map_never_deadlocks_between_idle_workers() {
        // Two workers on two items finish their own item and go stealing
        // at nearly the same moment — the window where an own-queue guard
        // held across the steal deadlocked (ABBA). A watchdog turns a hang
        // into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..4000 {
                assert_eq!(
                    parallel_map(vec![round, round + 1], 2, |i| i * 2),
                    vec![round * 2, round * 2 + 2]
                );
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("parallel_map deadlocked (or panicked) within 4000 two-worker rounds");
    }

    #[test]
    fn stable_hash_distinguishes_and_repeats() {
        let a = MachineConfig::optane_pmem6();
        let b = MachineConfig::optane_pmem2();
        assert_eq!(stable_hash(&a), stable_hash(&a));
        assert_ne!(stable_hash(&a), stable_hash(&b));
    }

    #[test]
    fn run_keys_separate_modes_and_policies() {
        let m = MachineConfig::optane_pmem6();
        let mk = |mode, tag: &str| RunKey {
            app: 1,
            machine: stable_hash(&m),
            mode,
            policy: tag.into(),
            fleet: None,
        };
        assert_ne!(mk(ExecMode::AppDirect, "fixed:dram"), mk(ExecMode::MemoryMode, "fixed:dram"));
        assert_ne!(
            mk(ExecMode::AppDirect, "fixed:dram"),
            mk(ExecMode::AppDirect, "fixed:dram>pmem")
        );
        assert_eq!(mk(ExecMode::AppDirect, "fixed:dram"), mk(ExecMode::AppDirect, "fixed:dram"));
        // Fleet cells never alias the standalone key, nor each other.
        let base = mk(ExecMode::AppDirect, "fixed:dram");
        let cell = |c, s| FleetCellKey { colocation: c, scheduler: s };
        assert_ne!(base.clone().with_fleet(cell(1, 2)), base);
        assert_ne!(base.clone().with_fleet(cell(1, 2)), base.clone().with_fleet(cell(3, 2)));
        assert_ne!(base.clone().with_fleet(cell(1, 2)), base.clone().with_fleet(cell(1, 4)));
    }

    #[test]
    fn app_hash_constructor_matches_new() {
        let app = tiny_app("a", 1 << 30, 2e10);
        for m in [MachineConfig::optane_pmem6(), MachineConfig::hbm_ddr()] {
            for mode in [ExecMode::AppDirect, ExecMode::MemoryMode] {
                assert_eq!(
                    RunKey::new(&app, &m, mode, "fixed:dram"),
                    RunKey::from_app_hash(stable_hash(&app), &m, mode, "fixed:dram")
                );
            }
        }
    }

    #[test]
    fn fleet_cells_keep_the_keys_new_derives() {
        // Rebuilds every key of a contended fleet node the way the fleet
        // derived them before it reused its tenant hashes — `RunKey::new`
        // on the tenant's model and slice — and requires the cache to hold
        // exactly those: same entries, so same hits and misses.
        use crate::fleet::{self, FleetConfig, SchedulerPolicy, TenantSpec};
        let m = MachineConfig::optane_pmem6();
        let mut cfg = FleetConfig::new(m.clone(), 1, SchedulerPolicy::ProportionalShare);
        cfg.quantum_bytes = 1 << 30;
        cfg.churn.arrival_spread_s = 1.0;
        let tenants = [
            TenantSpec::new("a", tiny_app("a", 12 << 30, 2e10), 0),
            TenantSpec::new("b", tiny_app("b", 6 << 30, 2e10), 0),
        ];
        let cache = RunCache::new();
        let r = fleet::simulate_with(&cache, &cfg, &tenants, 1).unwrap();

        let fast = m.tiers_by_performance()[0];
        let tag = format!("fixed:{fast}>{}", m.largest_tier());
        let app_of = |name: &str| &tenants.iter().find(|t| t.name == name).unwrap().app;
        let mut expected = std::collections::HashSet::new();
        for e in &r.nodes[0].epochs {
            let total: u64 = e.grants.iter().sum();
            let residents: Vec<(&AppModel, u64, f64)> = e
                .residents
                .iter()
                .zip(&e.grants)
                .map(|(n, &g)| (app_of(n), g, g as f64 / total as f64))
                .collect();
            let mix: Vec<(u64, u64, u64)> =
                residents.iter().map(|&(a, g, s)| (stable_hash(a), g, s.to_bits())).collect();
            let cell = FleetCellKey { colocation: stable_hash(&mix), scheduler: stable_hash(&cfg) };
            for (a, g, s) in residents {
                let slice = fleet::slice_machine(&m, fast, g, s);
                expected.insert(
                    RunKey::new(a, &slice, ExecMode::AppDirect, tag.clone()).with_fleet(cell),
                );
            }
        }
        assert!(r.nodes[0].epochs.iter().any(|e| e.residents.len() == 2), "node is contended");
        let cached: std::collections::HashSet<RunKey> =
            cache.slots.lock().unwrap().map.keys().cloned().collect();
        assert_eq!(cached, expected);
        assert_eq!(cache.misses(), expected.len() as u64);
    }

    #[test]
    fn kill_point_fires_once_at_the_armed_offset() {
        // Serialized with a lock in spirit: this test owns the global
        // counter; nothing else in this crate arms it.
        disarm_kill_point();
        kill_point_tick(); // disarmed: no-op
        arm_kill_point(2);
        kill_point_tick();
        kill_point_tick();
        let hit = std::panic::catch_unwind(kill_point_tick).expect_err("third tick crashes");
        assert_eq!(hit.downcast_ref::<&str>(), Some(&KILL_POINT_PAYLOAD));
        kill_point_tick(); // auto-disarmed after firing
    }
}
