//! Fleet-scale simulation: M nodes × K co-resident tenants contending for
//! one node's DRAM/PMem capacity and bandwidth.
//!
//! Each node runs an epoch-based event loop. Epoch boundaries are tenant
//! arrivals (seeded churn, [`churn::ChurnConfig`]) and tenant completions;
//! at every boundary a [`scheduler::SchedulerPolicy`] re-trades the fast
//! tier's capacity across the residents in integer quanta. A tenant's
//! progress inside an epoch comes from a standalone engine run on its
//! *slice machine* — the node with the fast tier shrunk to the tenant's
//! grant and all bandwidths/cores scaled by its share — so every
//! (app, grant, share) cell is one deterministic, cacheable engine run.
//! Grant shrinks charge a bounded *migration storm* (PR 3's cost model:
//! bytes / min(src read bw, dst write bw) + fixed overhead) as stall time
//! before the tenant makes progress again.
//!
//! Two exact-identity properties anchor correctness, pinned by
//! `tests/fleet.rs`:
//!
//! * **1×1 differential**: a sole resident takes the whole node — its
//!   slice is `machine.clone()` and its policy is constructed exactly as
//!   [`crate::runner::RunCache::run_fixed`] would, so the fleet-cell
//!   `RunResult` is byte-identical to the standalone run.
//! * **Jobs/order invariance**: nodes are independent and `parallel_map`
//!   restores submission order; tenants are canonicalized by name and
//!   churn is keyed by canonical index, so `--jobs` and insertion order
//!   are unobservable in the output.
//!
//! Cache isolation: every fleet engine run is keyed with a
//! [`FleetCellKey`] (`RunKey::with_fleet`), so warmed single-node cache
//! entries never satisfy a fleet lookup and differing colocation mixes
//! never alias — even when the slice machine happens to coincide.

pub mod churn;
pub mod scheduler;

pub use churn::ChurnConfig;
pub use scheduler::{Demand, SchedulerPolicy};

use crate::counters::RunResult;
use crate::engine::ExecMode;
use crate::machine::MachineConfig;
use crate::model::AppModel;
use crate::policy::{FixedTier, PlacementPolicy};
use crate::runner::{parallel_map, FleetCellKey, RunCache, RunKey};
use crate::stablehash::{stable_hash, Hasher, StableHash};
use ecohmem_obs::Json;
use memtrace::TierId;
use std::sync::Arc;

/// One workload instance placed on a fleet node.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name (fleet-wide); also the canonical sort key.
    pub name: String,
    /// The workload model the tenant runs.
    pub app: AppModel,
    /// Node the tenant is placed on (`0..FleetConfig::nodes`).
    pub node: u32,
    /// Scheduling priority (higher wins; weight = priority + 1).
    pub priority: u8,
    /// Work to complete, in units of one full standalone run of `app`.
    pub work: f64,
}

impl TenantSpec {
    /// A tenant running one full pass of `app` on `node`.
    pub fn new(name: impl Into<String>, app: AppModel, node: u32) -> Self {
        TenantSpec { name: name.into(), app, node, priority: 0, work: 1.0 }
    }
}

impl StableHash for TenantSpec {
    fn hash_into(&self, h: &mut Hasher) {
        let TenantSpec { name, app, node, priority, work } = self;
        h.tag_struct();
        name.hash_into(h);
        app.hash_into(h);
        node.hash_into(h);
        priority.hash_into(h);
        work.hash_into(h);
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-node machine (every node is identical hardware).
    pub machine: MachineConfig,
    /// Number of nodes.
    pub nodes: u32,
    /// How fast-tier capacity is traded across co-residents.
    pub scheduler: SchedulerPolicy,
    /// Seeded arrival churn.
    pub churn: ChurnConfig,
    /// Grant granularity in bytes.
    pub quantum_bytes: u64,
    /// Per-storm demotion cap in bytes — storms are *bounded*: a shrink
    /// never moves more than this at one epoch boundary.
    pub storm_bytes_cap: u64,
    /// Fixed per-storm overhead in seconds (the `move_pages`-style remap
    /// cost on top of the bytes/bandwidth transfer term).
    pub migration_overhead_s: f64,
}

impl FleetConfig {
    /// Defaults: 256 MiB quanta, 2 GiB storm cap, 1 ms storm overhead.
    pub fn new(machine: MachineConfig, nodes: u32, scheduler: SchedulerPolicy) -> Self {
        FleetConfig {
            machine,
            nodes,
            scheduler,
            churn: ChurnConfig::default(),
            quantum_bytes: 256 << 20,
            storm_bytes_cap: 2 << 30,
            migration_overhead_s: 1e-3,
        }
    }

    /// Sanity checks; [`simulate_with`] calls this for you.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        if self.nodes == 0 {
            return Err("fleet has no nodes".into());
        }
        if self.quantum_bytes == 0 {
            return Err("quantum_bytes must be positive".into());
        }
        let fast = self.machine.tiers_by_performance()[0];
        if self.quantum_bytes > self.machine.tier(fast).capacity {
            return Err("quantum_bytes exceeds the fast tier".into());
        }
        if !(self.migration_overhead_s >= 0.0 && self.migration_overhead_s.is_finite()) {
            return Err("migration_overhead_s must be finite and non-negative".into());
        }
        Ok(())
    }
}

impl StableHash for FleetConfig {
    fn hash_into(&self, h: &mut Hasher) {
        // Exhaustive destructuring: adding a fleet config field fails to
        // compile here until it joins the hash — and through it, every
        // fleet RunKey (the cache-isolation regression test's contract).
        let FleetConfig {
            machine,
            nodes,
            scheduler,
            churn,
            quantum_bytes,
            storm_bytes_cap,
            migration_overhead_s,
        } = self;
        h.tag_struct();
        machine.hash_into(h);
        nodes.hash_into(h);
        scheduler.hash_into(h);
        churn.hash_into(h);
        quantum_bytes.hash_into(h);
        storm_bytes_cap.hash_into(h);
        migration_overhead_s.hash_into(h);
    }
}

/// One scheduling interval of one tenant: its grant, its bandwidth share,
/// and the (cached) engine run that models its execution rate.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Epoch start time, seconds.
    pub start: f64,
    /// Epoch duration, seconds.
    pub duration: f64,
    /// Fast-tier grant, bytes.
    pub grant: u64,
    /// Bandwidth/core share of the node (grant / Σ grants).
    pub share: f64,
    /// The slice-machine engine run backing this segment.
    pub run: Arc<RunResult>,
}

/// Full lifetime of one tenant in the simulation.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Workload (app) name.
    pub workload: String,
    /// Node the tenant ran on.
    pub node: u32,
    /// Scheduling priority.
    pub priority: u8,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Completion time, seconds.
    pub completion: f64,
    /// Migration storms charged to this tenant.
    pub storms: u64,
    /// Total stall seconds spent in storms.
    pub storm_seconds: f64,
    /// Scheduling segments, in time order.
    pub segments: Vec<Segment>,
}

/// Per-epoch node statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch start time, seconds.
    pub start: f64,
    /// Epoch duration, seconds.
    pub duration: f64,
    /// Resident tenant names, canonical order.
    pub residents: Vec<String>,
    /// Fast-tier grants in bytes, aligned with `residents`.
    pub grants: Vec<u64>,
    /// Capacity pressure: Σ resident high-water marks / fast capacity.
    pub pressure: f64,
    /// Migration storms triggered at this epoch's start.
    pub storms: u64,
    /// Bytes demoted by those storms.
    pub storm_bytes: u64,
}

/// One node's simulation output.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// Node id.
    pub node: u32,
    /// Epochs in time order.
    pub epochs: Vec<EpochStats>,
    /// Tenant outcomes in canonical (name) order.
    pub tenants: Vec<TenantOutcome>,
}

/// The whole fleet's simulation output.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Scheduler policy name.
    pub scheduler: String,
    /// Per-node results, node order.
    pub nodes: Vec<NodeResult>,
}

impl FleetResult {
    /// Latest tenant completion time, seconds (0 for an empty fleet).
    pub fn makespan(&self) -> f64 {
        self.nodes.iter().flat_map(|n| n.tenants.iter()).map(|t| t.completion).fold(0.0, f64::max)
    }

    /// Total scheduling epochs across nodes.
    pub fn total_epochs(&self) -> u64 {
        self.nodes.iter().map(|n| n.epochs.len() as u64).sum()
    }

    /// Total per-tenant grant decisions (Σ residents over epochs).
    pub fn scheduler_decisions(&self) -> u64 {
        self.nodes.iter().flat_map(|n| n.epochs.iter()).map(|e| e.residents.len() as u64).sum()
    }

    /// Total migration storms.
    pub fn total_storms(&self) -> u64 {
        self.nodes.iter().flat_map(|n| n.epochs.iter()).map(|e| e.storms).sum()
    }

    /// Total bytes demoted by storms.
    pub fn total_storm_bytes(&self) -> u64 {
        self.nodes.iter().flat_map(|n| n.epochs.iter()).map(|e| e.storm_bytes).sum()
    }

    /// Number of tenants that ran to completion.
    pub fn completed_tenants(&self) -> u64 {
        self.nodes.iter().map(|n| n.tenants.len() as u64).sum()
    }

    /// Peak capacity pressure across all node-epochs.
    pub fn peak_pressure(&self) -> f64 {
        self.nodes.iter().flat_map(|n| n.epochs.iter()).map(|e| e.pressure).fold(0.0, f64::max)
    }

    /// Deterministic JSON rendering of the full result (the golden
    /// snapshot and the invariance proptests compare this string).
    /// Engine `RunResult`s are summarized by their slice run time, not
    /// dumped wholesale.
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let epochs = n
                    .epochs
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("start", Json::f64(e.start)),
                            ("duration", Json::f64(e.duration)),
                            (
                                "residents",
                                Json::Arr(
                                    e.residents.iter().map(|r| Json::str(r.clone())).collect(),
                                ),
                            ),
                            ("grants", Json::Arr(e.grants.iter().map(|g| Json::U64(*g)).collect())),
                            ("pressure", Json::f64(e.pressure)),
                            ("storms", Json::U64(e.storms)),
                            ("storm_bytes", Json::U64(e.storm_bytes)),
                        ])
                    })
                    .collect();
                let tenants = n
                    .tenants
                    .iter()
                    .map(|t| {
                        let segments = t
                            .segments
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("start", Json::f64(s.start)),
                                    ("duration", Json::f64(s.duration)),
                                    ("grant", Json::U64(s.grant)),
                                    ("share", Json::f64(s.share)),
                                    ("slice_run_time", Json::f64(s.run.total_time)),
                                ])
                            })
                            .collect();
                        Json::obj(vec![
                            ("name", Json::str(t.name.clone())),
                            ("workload", Json::str(t.workload.clone())),
                            ("node", Json::U64(t.node as u64)),
                            ("priority", Json::U64(t.priority as u64)),
                            ("arrival", Json::f64(t.arrival)),
                            ("completion", Json::f64(t.completion)),
                            ("storms", Json::U64(t.storms)),
                            ("storm_seconds", Json::f64(t.storm_seconds)),
                            ("segments", Json::Arr(segments)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("node", Json::U64(n.node as u64)),
                    ("epochs", Json::Arr(epochs)),
                    ("tenants", Json::Arr(tenants)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("ecohmem.fleet/1")),
            ("scheduler", Json::str(self.scheduler.clone())),
            ("makespan", Json::f64(self.makespan())),
            ("epochs", Json::U64(self.total_epochs())),
            ("scheduler_decisions", Json::U64(self.scheduler_decisions())),
            ("migration_storms", Json::U64(self.total_storms())),
            ("storm_bytes", Json::U64(self.total_storm_bytes())),
            ("peak_pressure", Json::f64(self.peak_pressure())),
            ("completed", Json::U64(self.completed_tenants())),
            ("nodes", Json::Arr(nodes)),
        ])
    }
}

/// The tenant's slice of the node: fast tier shrunk to its grant, every
/// tier's bandwidth and the core count scaled by its share. A sole
/// resident (`share == 1`, full-capacity grant) gets `machine.clone()`
/// verbatim — the bit-identity the 1×1 differential test relies on.
pub(crate) fn slice_machine(
    m: &MachineConfig,
    fast: TierId,
    grant: u64,
    share: f64,
) -> MachineConfig {
    let mut s = m.clone();
    if share >= 1.0 && grant == m.tier(fast).capacity {
        return s;
    }
    s.tiers[fast.0 as usize].capacity = grant;
    for t in &mut s.tiers {
        t.peak_read_bw *= share;
        t.peak_write_bw *= share;
    }
    s.cores = ((s.cores as f64 * share).round() as u32).max(1);
    s
}

/// Mirrors [`RunCache::run_fixed`]'s tag/policy construction so a fleet
/// cell's `RunResult.policy` matches the standalone run byte for byte.
fn fixed_tag(fast: TierId, backing: TierId) -> String {
    if backing != fast {
        format!("fixed:{fast}>{backing}")
    } else {
        format!("fixed:{fast}")
    }
}

fn fixed_policy(fast: TierId, backing: TierId) -> Box<dyn PlacementPolicy> {
    if backing != fast {
        Box::new(FixedTier::with_fallback(fast, backing))
    } else {
        Box::new(FixedTier::new(fast))
    }
}

/// Per-tenant bookkeeping inside one node's event loop.
struct TenantState<'a> {
    spec: &'a TenantSpec,
    app_hash: u64,
    hwm: u64,
    density: f64,
    arrival: f64,
    remaining: f64,
    storm_debt: f64,
    prev_grant: Option<u64>,
    used_fast: u64,
    done: bool,
    completion: f64,
    storms: u64,
    storm_seconds: f64,
    segments: Vec<Segment>,
}

/// Completion tolerance on the remaining-work fraction: epoch boundaries
/// are computed from the same f64 expression that advances progress, so
/// residual error is rounding noise many orders below this.
const WORK_EPS: f64 = 1e-9;

/// Static miss density per byte — the paper-greedy ranking signal:
/// total LLC load misses + L1D store misses over the model, per byte of
/// high-water mark.
fn miss_density(app: &AppModel, hwm: u64) -> f64 {
    let misses: f64 = app
        .phases
        .iter()
        .flat_map(|p| p.accesses.iter())
        .map(|a| a.load_misses() + a.store_misses())
        .sum();
    misses / hwm.max(1) as f64
}

fn simulate_node(
    cache: &RunCache,
    cfg: &FleetConfig,
    cfg_hash: u64,
    node: u32,
    tenants: &[&TenantSpec],
) -> NodeResult {
    let _span = ecohmem_obs::span("fleet.node");
    let fast = cfg.machine.tiers_by_performance()[0];
    let backing = cfg.machine.largest_tier();
    let cap = cfg.machine.tier(fast).capacity;
    let quantum = cfg.quantum_bytes;
    let total_quanta = cap / quantum;
    let tag = fixed_tag(fast, backing);

    // Canonical order: by name. Churn keys off this index, so insertion
    // order of the input tenant list is unobservable.
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by(|a, b| tenants[*a].name.cmp(&tenants[*b].name));
    let mut states: Vec<TenantState<'_>> = order
        .iter()
        .enumerate()
        .map(|(canonical_idx, &i)| {
            let spec = tenants[i];
            let hwm = spec.app.high_water_mark().max(1);
            TenantState {
                spec,
                app_hash: stable_hash(&spec.app),
                hwm,
                density: miss_density(&spec.app, hwm),
                arrival: cfg.churn.arrival(node, canonical_idx as u64),
                remaining: spec.work,
                storm_debt: 0.0,
                prev_grant: None,
                used_fast: 0,
                done: false,
                completion: 0.0,
                storms: 0,
                storm_seconds: 0.0,
                segments: Vec::new(),
            }
        })
        .collect();

    let mut now = 0.0f64;
    let mut epochs = Vec::new();
    loop {
        let resident: Vec<usize> =
            (0..states.len()).filter(|&i| !states[i].done && states[i].arrival <= now).collect();
        let next_arrival = states
            .iter()
            .filter(|t| !t.done && t.arrival > now)
            .map(|t| t.arrival)
            .fold(f64::INFINITY, f64::min);
        if resident.is_empty() {
            if next_arrival.is_finite() {
                now = next_arrival;
                continue;
            }
            break;
        }

        // Grants: a sole resident takes the whole node byte-for-byte;
        // contended nodes go through the scheduler in integer quanta.
        let grants_bytes: Vec<u64> = if resident.len() == 1 {
            vec![cap]
        } else {
            let demands: Vec<Demand> = resident
                .iter()
                .map(|&i| Demand {
                    quanta: states[i].hwm.div_ceil(quantum).max(1),
                    weight: states[i].spec.priority as u64 + 1,
                    density: states[i].density,
                })
                .collect();
            scheduler::grants(cfg.scheduler, &demands, total_quanta)
                .into_iter()
                .map(|q| q * quantum)
                .collect()
        };
        let total_grant: u64 = grants_bytes.iter().sum();
        let shares: Vec<f64> =
            grants_bytes.iter().map(|&g| g as f64 / total_grant as f64).collect();

        // Colocation identity of this epoch's cell, canonical order.
        let mix: Vec<(u64, u64, u64)> = resident
            .iter()
            .zip(grants_bytes.iter().zip(shares.iter()))
            .map(|(&i, (&g, &s))| (states[i].app_hash, g, s.to_bits()))
            .collect();
        let cell = FleetCellKey { colocation: stable_hash(&mix), scheduler: cfg_hash };

        // Slices, then storms (storm cost uses the *new* slice bandwidth:
        // the demotion happens under the shrunken share).
        let slices: Vec<MachineConfig> = resident
            .iter()
            .zip(grants_bytes.iter().zip(shares.iter()))
            .map(|(_, (&g, &s))| slice_machine(&cfg.machine, fast, g, s))
            .collect();
        let mut epoch_storms = 0u64;
        let mut epoch_storm_bytes = 0u64;
        if backing != fast {
            for (k, &i) in resident.iter().enumerate() {
                let st = &mut states[i];
                let grant = grants_bytes[k];
                if let Some(prev) = st.prev_grant {
                    if grant < prev && st.used_fast > grant {
                        let bytes = (st.used_fast - grant).min(cfg.storm_bytes_cap);
                        let bw = slices[k]
                            .tier(fast)
                            .peak_read_bw
                            .min(slices[k].tier(backing).peak_write_bw);
                        let t = bytes as f64 / bw + cfg.migration_overhead_s;
                        st.storm_debt += t;
                        st.storm_seconds += t;
                        st.storms += 1;
                        epoch_storms += 1;
                        epoch_storm_bytes += bytes;
                    }
                }
            }
        }

        // One cached engine run per resident cell.
        let runs: Vec<Arc<RunResult>> = resident
            .iter()
            .zip(slices.iter())
            .map(|(&i, slice)| {
                let key = RunKey::from_app_hash(
                    states[i].app_hash,
                    slice,
                    ExecMode::AppDirect,
                    tag.clone(),
                )
                .with_fleet(cell);
                cache.run_with(key, &states[i].spec.app, slice, ExecMode::AppDirect, || {
                    fixed_policy(fast, backing)
                })
            })
            .collect();

        // Epoch end: the next arrival or the earliest resident finish.
        let mut t_next = next_arrival;
        for (k, &i) in resident.iter().enumerate() {
            let st = &states[i];
            let fin = now + st.storm_debt + st.remaining * runs[k].total_time.max(0.0);
            t_next = t_next.min(fin);
        }
        let dt = (t_next - now).max(0.0);

        // Advance: pay storm debt first, then make progress.
        let pressure = resident.iter().map(|&i| states[i].hwm as f64).sum::<f64>() / cap as f64;
        for (k, &i) in resident.iter().enumerate() {
            let st = &mut states[i];
            let pay = st.storm_debt.min(dt);
            st.storm_debt -= pay;
            let t_run = runs[k].total_time;
            if t_run > 0.0 {
                st.remaining -= (dt - pay) / t_run;
            } else {
                st.remaining = 0.0;
            }
            st.used_fast = runs[k]
                .tier_peak_bytes
                .get(fast.0 as usize)
                .copied()
                .unwrap_or(0)
                .min(grants_bytes[k]);
            st.prev_grant = Some(grants_bytes[k]);
            st.segments.push(Segment {
                start: now,
                duration: dt,
                grant: grants_bytes[k],
                share: shares[k],
                run: runs[k].clone(),
            });
            if st.remaining <= WORK_EPS && st.storm_debt <= WORK_EPS {
                st.done = true;
                st.completion = t_next;
            }
        }

        epochs.push(EpochStats {
            start: now,
            duration: dt,
            residents: resident.iter().map(|&i| states[i].spec.name.clone()).collect(),
            grants: grants_bytes,
            pressure,
            storms: epoch_storms,
            storm_bytes: epoch_storm_bytes,
        });
        now = t_next;
    }

    NodeResult {
        node,
        epochs,
        tenants: states
            .into_iter()
            .map(|st| TenantOutcome {
                name: st.spec.name.clone(),
                workload: st.spec.app.name.clone(),
                node,
                priority: st.spec.priority,
                arrival: st.arrival,
                completion: st.completion,
                storms: st.storms,
                storm_seconds: st.storm_seconds,
                segments: st.segments,
            })
            .collect(),
    }
}

/// Simulates the fleet on an explicit cache — tests use private caches to
/// control hit/miss accounting; everything else goes through [`simulate`].
pub fn simulate_with(
    cache: &RunCache,
    cfg: &FleetConfig,
    tenants: &[TenantSpec],
    jobs: usize,
) -> Result<FleetResult, String> {
    let _span = ecohmem_obs::span("fleet.simulate");
    cfg.validate()?;
    let fast = cfg.machine.tiers_by_performance()[0];
    let total_quanta = cfg.machine.tier(fast).capacity / cfg.quantum_bytes;
    let mut seen = std::collections::HashSet::new();
    let mut per_node = vec![0u64; cfg.nodes as usize];
    for t in tenants {
        if !seen.insert(t.name.as_str()) {
            return Err(format!("duplicate tenant name {:?}", t.name));
        }
        if t.node >= cfg.nodes {
            return Err(format!("tenant {:?} on node {} of {}", t.name, t.node, cfg.nodes));
        }
        if !(t.work > 0.0 && t.work.is_finite()) {
            return Err(format!("tenant {:?} has invalid work {}", t.name, t.work));
        }
        t.app.validate().map_err(|e| format!("tenant {:?}: {e}", t.name))?;
        per_node[t.node as usize] += 1;
    }
    if let Some(n) = per_node.iter().position(|&k| k > total_quanta.max(1)) {
        return Err(format!(
            "node {n} hosts {} tenants but the fast tier only holds {} quanta",
            per_node[n],
            total_quanta.max(1)
        ));
    }

    let cfg_hash = stable_hash(cfg);
    let node_ids: Vec<u32> = (0..cfg.nodes).collect();
    let nodes = parallel_map(node_ids, jobs, |node| {
        let mine: Vec<&TenantSpec> = tenants.iter().filter(|t| t.node == node).collect();
        simulate_node(cache, cfg, cfg_hash, node, &mine)
    });
    let result = FleetResult { scheduler: cfg.scheduler.name().to_string(), nodes };

    // Counters in a single post-pass: parallel workers never touch the
    // global registry, so per-test obs snapshots stay race-free.
    ecohmem_obs::count("fleet.scheduler.epochs", result.total_epochs());
    ecohmem_obs::count("fleet.scheduler.decisions", result.scheduler_decisions());
    ecohmem_obs::count("fleet.migration_storms", result.total_storms());
    ecohmem_obs::count("fleet.storm_bytes", result.total_storm_bytes());
    ecohmem_obs::count("fleet.tenants.completed", result.completed_tenants());
    ecohmem_obs::gauge_raise("fleet.node.pressure", result.peak_pressure());
    Ok(result)
}

/// Simulates the fleet on the process-global [`crate::runner::global_cache`].
pub fn simulate(
    cfg: &FleetConfig,
    tenants: &[TenantSpec],
    jobs: usize,
) -> Result<FleetResult, String> {
    simulate_with(crate::runner::global_cache(), cfg, tenants, jobs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{AccessPattern, AccessSpec, AllocOp, FreeOp, PhaseSpec};
    use memtrace::binmap::BinaryMapBuilder;
    use memtrace::{CallStack, Frame, FuncId, ModuleId, SiteId};

    /// One phase streaming `loads` over one `bytes`-sized object.
    pub(crate) fn tiny_app(name: &str, bytes: u64, loads: f64) -> AppModel {
        let mut b = BinaryMapBuilder::new();
        b.add_module("a.out", 4096, 1024, vec!["main.c".into()]);
        AppModel {
            name: name.into(),
            ranks: 1,
            threads_per_rank: 1,
            input_desc: String::new(),
            sites: vec![(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)]))],
            binmap: b.build(),
            function_names: vec!["kernel".into()],
            phases: vec![PhaseSpec {
                label: Some("main".into()),
                compute_instructions: 1e9,
                allocs: vec![AllocOp { site: SiteId(0), size: bytes, count: 1 }],
                frees: vec![FreeOp { site: SiteId(0), count: 1 }],
                accesses: vec![AccessSpec {
                    site: SiteId(0),
                    function: FuncId(0),
                    loads,
                    stores: loads * 0.1,
                    llc_miss_rate: 0.5,
                    store_l1d_miss_rate: 0.5,
                    pattern: AccessPattern::Sequential,
                    instructions: 0.0,
                    reuse_hint: 0.0,
                }],
            }],
        }
    }

    fn base_cfg(scheduler: SchedulerPolicy, nodes: u32) -> FleetConfig {
        FleetConfig::new(MachineConfig::optane_pmem6(), nodes, scheduler)
    }

    #[test]
    fn sole_resident_slice_is_the_whole_machine() {
        let m = MachineConfig::optane_pmem6();
        let fast = m.tiers_by_performance()[0];
        let s = slice_machine(&m, fast, m.tier(fast).capacity, 1.0);
        assert_eq!(s, m);
        assert_eq!(stable_hash(&s), stable_hash(&m));
    }

    #[test]
    fn sliced_machine_scales_capacity_bandwidth_and_cores() {
        let m = MachineConfig::optane_pmem6();
        let fast = m.tiers_by_performance()[0];
        let s = slice_machine(&m, fast, 4 << 30, 0.5);
        assert_eq!(s.tiers[fast.0 as usize].capacity, 4 << 30);
        assert!((s.tiers[0].peak_read_bw - m.tiers[0].peak_read_bw * 0.5).abs() < 1.0);
        assert_eq!(s.cores, 12);
        s.validate().unwrap();
    }

    #[test]
    fn single_tenant_completes_in_one_standalone_run() {
        let cfg = base_cfg(SchedulerPolicy::Priority, 1);
        let app = tiny_app("solo", 1 << 30, 1e10);
        let cache = RunCache::new();
        let r = simulate_with(&cache, &cfg, &[TenantSpec::new("solo", app.clone(), 0)], 1).unwrap();
        assert_eq!(r.completed_tenants(), 1);
        let t = &r.nodes[0].tenants[0];
        assert_eq!(t.segments.len(), 1);
        assert!((t.completion - t.segments[0].run.total_time).abs() < 1e-9);
        assert_eq!(r.total_storms(), 0);
    }

    #[test]
    fn contended_node_splits_capacity_and_slows_everyone() {
        let mut cfg = base_cfg(SchedulerPolicy::ProportionalShare, 1);
        cfg.quantum_bytes = 1 << 30;
        let a = tiny_app("a", 6 << 30, 2e10);
        let b = tiny_app("b", 6 << 30, 2e10);
        let cache = RunCache::new();
        let solo = simulate_with(&cache, &cfg, &[TenantSpec::new("a1", a.clone(), 0)], 1).unwrap();
        let duo = simulate_with(
            &cache,
            &cfg,
            &[TenantSpec::new("a1", a.clone(), 0), TenantSpec::new("b1", b.clone(), 0)],
            1,
        )
        .unwrap();
        assert_eq!(duo.completed_tenants(), 2);
        assert!(duo.makespan() > solo.makespan());
        let e = &duo.nodes[0].epochs[0];
        assert!(e.grants.iter().sum::<u64>() <= cfg.machine.tier(TierId::DRAM).capacity);
        assert_eq!(e.residents, vec!["a1".to_string(), "b1".to_string()]);
    }

    #[test]
    fn churn_spreads_arrivals_and_departures_create_epochs() {
        let mut cfg = base_cfg(SchedulerPolicy::Priority, 1);
        cfg.churn = ChurnConfig { seed: 3, arrival_spread_s: 5.0 };
        cfg.quantum_bytes = 1 << 30;
        let tenants: Vec<TenantSpec> = (0..3)
            .map(|i| TenantSpec::new(format!("t{i}"), tiny_app("w", 4 << 30, 1e10), 0))
            .collect();
        let cache = RunCache::new();
        let r = simulate_with(&cache, &cfg, &tenants, 1).unwrap();
        assert_eq!(r.completed_tenants(), 3);
        assert!(r.total_epochs() >= 3, "arrivals + departures must bound epochs");
        // Completion order respects that everyone finishes after arriving.
        for t in &r.nodes[0].tenants {
            assert!(t.completion > t.arrival);
        }
    }

    #[test]
    fn shrinking_grants_trigger_bounded_storms() {
        let mut cfg = base_cfg(SchedulerPolicy::Priority, 1);
        cfg.quantum_bytes = 1 << 30;
        cfg.churn = ChurnConfig { seed: 1, arrival_spread_s: 2.0 };
        cfg.storm_bytes_cap = 1 << 30;
        // Low-priority early tenant wants lots of DRAM; a high-priority
        // arrival forces its grant down → storm.
        let mut hog = TenantSpec::new("a-hog", tiny_app("hog", 14 << 30, 4e10), 0);
        hog.priority = 0;
        let mut vip = TenantSpec::new("b-vip", tiny_app("vip", 14 << 30, 4e10), 0);
        vip.priority = 9;
        let cache = RunCache::new();
        let r = simulate_with(&cache, &cfg, &[hog, vip], 1).unwrap();
        assert!(r.total_storms() >= 1, "grant shrink must charge a storm");
        assert!(r.total_storm_bytes() <= cfg.storm_bytes_cap * r.total_storms());
        assert!(r.peak_pressure() > 1.0, "two 14 GiB tenants on 16 GiB DRAM");
    }

    #[test]
    fn validation_rejects_bad_fleets() {
        let cfg = base_cfg(SchedulerPolicy::Priority, 1);
        let app = tiny_app("x", 1 << 20, 1e8);
        let cache = RunCache::new();
        let dup = vec![TenantSpec::new("t", app.clone(), 0), TenantSpec::new("t", app.clone(), 0)];
        assert!(simulate_with(&cache, &cfg, &dup, 1).is_err());
        let off = vec![TenantSpec::new("t", app.clone(), 5)];
        assert!(simulate_with(&cache, &cfg, &off, 1).is_err());
        let mut lazy = TenantSpec::new("t", app.clone(), 0);
        lazy.work = 0.0;
        assert!(simulate_with(&cache, &cfg, &[lazy], 1).is_err());
        let mut bad = base_cfg(SchedulerPolicy::Priority, 0);
        bad.nodes = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fleet_config_hash_covers_every_field() {
        let a = base_cfg(SchedulerPolicy::Priority, 4);
        let mut b = a.clone();
        assert_eq!(stable_hash(&a), stable_hash(&b));
        b.quantum_bytes += 1;
        assert_ne!(stable_hash(&a), stable_hash(&b));
        let mut c = a.clone();
        c.scheduler = SchedulerPolicy::PaperGreedy;
        assert_ne!(stable_hash(&a), stable_hash(&c));
        let mut d = a.clone();
        d.churn.seed += 1;
        assert_ne!(stable_hash(&a), stable_hash(&d));
    }

    #[test]
    fn result_json_is_deterministic() {
        let mut cfg = base_cfg(SchedulerPolicy::PaperGreedy, 2);
        cfg.quantum_bytes = 1 << 30;
        cfg.churn = ChurnConfig { seed: 11, arrival_spread_s: 3.0 };
        let tenants: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec::new(format!("t{i}"), tiny_app("w", 3 << 30, 5e9), i % 2))
            .collect();
        let r1 = simulate_with(&RunCache::new(), &cfg, &tenants, 1).unwrap();
        let r2 = simulate_with(&RunCache::new(), &cfg, &tenants, 2).unwrap();
        assert_eq!(
            r1.to_json().to_string_pretty(),
            r2.to_json().to_string_pretty(),
            "jobs must be unobservable"
        );
    }
}
