//! The phase-based execution engine.
//!
//! Executes an [`AppModel`] on a [`MachineConfig`] under a placement policy
//! and returns a [`RunResult`]. The engine is an analytic performance
//! model, not a cycle simulator: each phase's duration is solved by a small
//! fixed point between bandwidth demand (which depends on the duration) and
//! loaded latency (which depends on the bandwidth).
//!
//! Per phase:
//!
//! 1. apply migrations requested by reactive policies (tiering baseline);
//! 2. perform allocations, consulting the policy (App Direct) or forcing
//!    the backing tier (Memory Mode), with fallback on full tiers;
//! 3. convert each access stream into per-tier read/write cache-line
//!    volumes — directly in App Direct, or through the DRAM-cache model in
//!    Memory Mode;
//! 4. solve `duration = max(compute, memory)` where the memory time is the
//!    larger of the latency-bound term (Σ misses × loaded-latency / MLP)
//!    and the bandwidth-bound term (volume / peak). The solve relaxes for
//!    at most 12 steps and stops at the first step that leaves the
//!    duration bit-identical: each step is a pure function of the
//!    duration, so every later step would repeat it exactly;
//! 5. attribute instructions/cycles/latencies to functions and accesses to
//!    objects;
//! 6. hand per-object heat to a policy that observes phases
//!    ([`PlacementPolicy::observes_phases`]), then free what the phase
//!    frees.
//!
//! Live objects are dense: object ids are handed out in the order their
//! records are pushed, so a record's index is its object's id minus one,
//! and per-site FIFO queues of record indices stand in for any map. The
//! phase's live set does not change between steps 3 and 6, so the
//! Memory Mode DRAM-cache split is computed once per phase and shared by
//! the volumes, the timing solve, the hit ratio and function attribution.

use crate::cache::{self, CacheSplit, StreamDemand};
use crate::counters::{FunctionStats, ObjectRecord, PhaseStats, RunResult};
use crate::heap::TierHeap;
use crate::machine::MachineConfig;
use crate::model::{AccessSpec, AppModel, PhaseSpec};
use crate::policy::{AllocContext, Migration, PhaseObservation, PlacementPolicy};
use memtrace::{FuncId, ObjectId, SiteId, TierId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// How the machine serves memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// App Direct: software (the policy) places every allocation in an
    /// explicit tier.
    AppDirect,
    /// Memory Mode: everything lives in the backing (largest) tier and the
    /// fastest tier acts as a hardware-managed direct-mapped cache.
    MemoryMode,
}

impl ExecMode {
    fn label(self) -> &'static str {
        match self {
            ExecMode::AppDirect => "app-direct",
            ExecMode::MemoryMode => "memory-mode",
        }
    }
}

/// The objects currently allocated, by record index.
struct LiveSet {
    /// Whether each record's object is still allocated.
    live: Vec<bool>,
    /// The model's site ids, ascending; a site's queue sits at its position.
    sites: Vec<SiteId>,
    /// Live record indices per site, oldest first.
    by_site: Vec<VecDeque<usize>>,
    /// No record below this index is live.
    first_live: usize,
}

impl LiveSet {
    fn new(app: &AppModel) -> Self {
        let mut sites: Vec<SiteId> = app.sites.iter().map(|(s, _)| *s).collect();
        sites.sort_unstable();
        sites.dedup();
        let by_site = vec![VecDeque::new(); sites.len()];
        LiveSet { live: Vec::new(), sites, by_site, first_live: 0 }
    }

    fn queue(&self, site: SiteId) -> Option<usize> {
        self.sites.binary_search(&site).ok()
    }

    /// The live records of `site`, oldest first; `None` when it has none.
    fn of_site(&self, site: SiteId) -> Option<&VecDeque<usize>> {
        let objs = &self.by_site[self.queue(site)?];
        (!objs.is_empty()).then_some(objs)
    }

    /// Records the object just pushed at `record`.
    fn insert(&mut self, record: usize, site: SiteId) {
        debug_assert_eq!(record, self.live.len(), "records are pushed in id order");
        let q = self.queue(site).expect("validated model allocates only at known sites");
        self.live.push(true);
        self.by_site[q].push_back(record);
    }

    /// Frees the oldest live object of `site`, returning its record.
    fn pop_oldest(&mut self, site: SiteId) -> Option<usize> {
        let q = self.queue(site)?;
        let record = self.by_site[q].pop_front()?;
        self.live[record] = false;
        while self.first_live < self.live.len() && !self.live[self.first_live] {
            self.first_live += 1;
        }
        Some(record)
    }

    /// The record of `object` while it is live.
    fn record_of(&self, object: ObjectId) -> Option<usize> {
        let record = usize::try_from(object.0).ok()?.checked_sub(1)?;
        self.live.get(record).copied().unwrap_or(false).then_some(record)
    }

    /// Live records in id order.
    fn records(&self) -> impl Iterator<Item = usize> + '_ {
        (self.first_live..self.live.len()).filter(|&r| self.live[r])
    }
}

/// One access spec whose site has live objects this phase.
struct Stream<'a> {
    spec: &'a AccessSpec,
    objs: &'a VecDeque<usize>,
}

/// A phase's streams in phase order — the list the cache model and every
/// consumer of its split index by position.
fn phase_streams<'a>(phase: &'a PhaseSpec, live: &'a LiveSet) -> Vec<Stream<'a>> {
    phase
        .accesses
        .iter()
        .filter_map(|spec| Some(Stream { spec, objs: live.of_site(spec.site)? }))
        .collect()
}

/// The DRAM-cache model's verdict for one Memory Mode phase: one demand
/// and one split per stream, by stream position.
struct CacheView {
    demands: Vec<StreamDemand>,
    splits: Vec<CacheSplit>,
}

impl CacheView {
    fn of(machine: &MachineConfig, streams: &[Stream<'_>], records: &[ObjectRecord]) -> Self {
        let demands = memory_mode_demands(streams, records);
        let splits = cache::split_streams(
            &machine.cache_cfg,
            machine.tier(machine.tiers_by_performance()[0]).capacity,
            machine.cacheline,
            &demands,
        );
        CacheView { demands, splits }
    }
}

/// One object's accesses within the current phase.
#[derive(Clone, Copy, Default)]
struct PhaseAccess {
    /// The phase these sums belong to; `None` before the first touch.
    phase: Option<u32>,
    load_misses: f64,
    store_misses: f64,
    stores: f64,
    /// LLC load + store misses, the reactive policies' heat signal.
    heat: f64,
}

/// Numerical guts of one phase's timing solve.
struct PhaseSolution {
    duration: f64,
    compute_time: f64,
    tier_read_bw: Vec<f64>,
    tier_write_bw: Vec<f64>,
    /// Final loaded read latency per tier, ns.
    tier_read_lat: Vec<f64>,
}

const FIXED_POINT_ITERS: usize = 12;
/// Stores retire through write buffers, so their effective parallelism is
/// higher than demand loads'.
const STORE_MLP_BONUS: f64 = 4.0;

/// Process-wide count of [`run`] executions, for measuring how much work the
/// memoizing runner ([`crate::runner`]) actually avoids.
static RUN_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Number of times [`run`] has executed in this process (cache hits in
/// [`crate::runner::RunCache`] do not count — they never reach the engine).
pub fn run_invocations() -> u64 {
    RUN_INVOCATIONS.load(Ordering::Relaxed)
}

/// How far [`solve_phase`] iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Iterations {
    /// Stop at the first step that leaves the duration bit-identical:
    /// each step is a pure function of the duration, so every later step
    /// would repeat it exactly.
    UntilFixed,
    /// Always take all [`FIXED_POINT_ITERS`] steps: the reference the
    /// early exit is pinned against.
    #[cfg(debug_assertions)]
    All,
}

/// Runs an application model to completion.
pub fn run(
    app: &AppModel,
    machine: &MachineConfig,
    mode: ExecMode,
    policy: &mut dyn PlacementPolicy,
) -> RunResult {
    run_iterating(app, machine, mode, policy, Iterations::UntilFixed)
}

/// [`run`] with every phase solve taking all 12 relaxation steps.
/// Debug builds only: the tests compare it with [`run`] bit for bit over
/// the shipped models, pinning the fixed-point exit.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn run_all_iterations(
    app: &AppModel,
    machine: &MachineConfig,
    mode: ExecMode,
    policy: &mut dyn PlacementPolicy,
) -> RunResult {
    run_iterating(app, machine, mode, policy, Iterations::All)
}

fn run_iterating(
    app: &AppModel,
    machine: &MachineConfig,
    mode: ExecMode,
    policy: &mut dyn PlacementPolicy,
    iterations: Iterations,
) -> RunResult {
    RUN_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _span = ecohmem_obs::span("memsim.run");
    ecohmem_obs::incr("memsim.engine.runs");
    app.validate().expect("invalid application model");
    machine.validate().expect("invalid machine configuration");

    let n_tiers = machine.tiers.len();
    let cache_tier = machine.tiers_by_performance()[0];
    let backing_tier = machine.largest_tier();

    let mut heaps: Vec<TierHeap> =
        machine.tiers.iter().map(|t| TierHeap::new(t.id, t.capacity)).collect();
    // Policy-resident data (debug info, kernel metadata) pins DRAM.
    let resident = policy.resident_dram_bytes();
    if resident > 0 {
        heaps[cache_tier.0 as usize].reserve(resident);
    }

    let mut live = LiveSet::new(app);
    let mut records: Vec<ObjectRecord> = Vec::new();
    let mut accessed: Vec<PhaseAccess> = Vec::new();
    let mut functions: HashMap<FuncId, FunctionStats> = HashMap::new();
    let mut phases_out: Vec<PhaseStats> = Vec::new();

    let mut t = 0.0_f64;
    let mut next_object = 1u64;
    let mut fallback_allocs = 0u64;
    let mut oom_events = 0u64;
    let mut alloc_overhead = 0.0_f64;
    let mut total_instructions = 0.0_f64;
    let mut total_compute = 0.0_f64;
    let mut pending_migrations: Vec<Migration> = Vec::new();
    let mut total_migrations = 0u64;
    let mut migration_time = 0.0_f64;
    let mut chain: Vec<TierId> = Vec::with_capacity(n_tiers + 1);
    let mut chain_ends: Option<(TierId, TierId)> = None;
    let observes = mode == ExecMode::AppDirect && policy.observes_phases();

    for (pi, phase) in app.phases.iter().enumerate() {
        // Chaos-testing probe: a no-op unless a kill point was armed, in
        // which case the run panics here at a deterministic phase offset.
        crate::runner::kill_point_tick();
        let pi32 = pi as u32;

        // 1. Migrations requested by a reactive policy at the last phase
        // boundary.
        let mut migrated_bytes = 0u64;
        let used_before: u64 = if cfg!(debug_assertions) { used_bytes(&heaps) } else { 0 };
        for m in pending_migrations.drain(..) {
            let Some(r) = live.record_of(m.object) else { continue };
            let obj = &mut records[r];
            if obj.tier == m.to {
                continue;
            }
            let Some(new_addr) = heaps[m.to.0 as usize].alloc(obj.size) else {
                continue; // destination full: migration skipped
            };
            heaps[obj.tier.0 as usize].free(obj.address, obj.size);
            let src = machine.tier(obj.tier);
            let dst = machine.tier(m.to);
            migrated_bytes += obj.size;
            total_migrations += 1;
            // Cost model: bytes moved at the slower of the two controllers,
            // plus the policy's fixed per-migration (syscall/remap) latency.
            let cost = obj.size as f64 / src.peak_read_bw.min(dst.peak_write_bw)
                + policy.migration_overhead_seconds();
            t += cost;
            migration_time += cost;
            obj.tier = m.to;
            obj.address = new_addr;
        }
        debug_assert_eq!(used_bytes(&heaps), used_before, "migrations conserve bytes");

        // 2. Allocations.
        for op in &phase.allocs {
            let stack = app.stack_of(op.site).expect("validated model has stacks for all sites");
            for _ in 0..op.count {
                let object = ObjectId(next_object);
                next_object += 1;
                let preferred = match mode {
                    ExecMode::MemoryMode => backing_tier,
                    ExecMode::AppDirect => {
                        alloc_overhead += policy.overhead_seconds_per_alloc();
                        policy.place(&AllocContext {
                            site: op.site,
                            stack,
                            size: op.size,
                            phase: pi32,
                            time: t,
                        })
                    }
                };
                // Fallback chain: preferred, policy fallback, then any tier.
                // It depends on nothing else, so consecutive allocations
                // with the same pair reuse it.
                let ends = (preferred, policy.fallback());
                if chain_ends != Some(ends) {
                    chain_ends = Some(ends);
                    chain.clear();
                    chain.push(preferred);
                    if !chain.contains(&ends.1) && mode == ExecMode::AppDirect {
                        chain.push(ends.1);
                    }
                    for i in 0..n_tiers {
                        let tid = TierId(i as u8);
                        if !chain.contains(&tid) {
                            chain.push(tid);
                        }
                    }
                }
                let mut placed = None;
                for (ci, &tid) in chain.iter().enumerate() {
                    if let Some(addr) = heaps[tid.0 as usize].alloc(op.size) {
                        if ci > 0 {
                            fallback_allocs += 1;
                        }
                        placed = Some((tid, addr));
                        break;
                    }
                }
                let (tier, address) = placed.unwrap_or_else(|| {
                    oom_events += 1;
                    let tid = backing_tier;
                    (tid, heaps[tid.0 as usize].force_alloc(op.size))
                });
                live.insert(records.len(), op.site);
                records.push(ObjectRecord {
                    object,
                    site: op.site,
                    size: op.size,
                    address,
                    tier,
                    alloc_time: t,
                    free_time: f64::NAN,
                    alloc_phase: pi32,
                    loads: 0.0,
                    stores: 0.0,
                    load_misses: 0.0,
                    store_misses: 0.0,
                    phase_activity: Vec::new(),
                });
                accessed.push(PhaseAccess::default());
            }
        }

        // Only a forced allocation overcommits a tier, and the engine
        // counts each one as an OOM.
        debug_assert_eq!(
            heaps.iter().map(TierHeap::forced_allocs).sum::<u64>(),
            oom_events,
            "every forced allocation is an OOM event"
        );

        // 3 + 4. Traffic assembly and the timing fixed point, on the one
        // DRAM-cache split of this phase in Memory Mode.
        let streams = phase_streams(phase, &live);
        let cached = match mode {
            ExecMode::MemoryMode => Some(CacheView::of(machine, &streams, &records)),
            ExecMode::AppDirect => None,
        };
        let splits = cached.as_ref().map(|c| c.splits.as_slice());
        let solution = solve_phase(machine, phase, &streams, &records, splits, iterations);

        // 5a. Per-object attribution: run totals, then the phase's activity
        // in id order.
        for s in &streams {
            let spec = s.spec;
            let n = s.objs.len() as f64;
            let heat = (spec.load_misses() + spec.store_misses()) / n;
            for &r in s.objs {
                let rec = &mut records[r];
                rec.loads += spec.loads / n;
                rec.stores += spec.stores / n;
                rec.load_misses += spec.load_misses() / n;
                rec.store_misses += spec.store_misses() / n;
                let a = &mut accessed[r];
                if a.phase != Some(pi32) {
                    *a = PhaseAccess { phase: Some(pi32), ..PhaseAccess::default() };
                }
                a.load_misses += spec.load_misses() / n;
                a.store_misses += spec.store_misses() / n;
                a.stores += spec.stores / n;
                a.heat += heat;
            }
        }
        for r in live.records() {
            let a = &accessed[r];
            if a.phase == Some(pi32) {
                records[r].phase_activity.push((pi32, a.load_misses, a.store_misses, a.stores));
            }
        }

        // 5b. Per-function attribution: each stream gets its instructions'
        // compute time plus its share of the phase's memory time; cycles
        // scale the aggregate slot rate.
        let phase_instr: f64 = phase.compute_instructions
            + phase.accesses.iter().map(|a| a.total_instructions()).sum::<f64>();
        total_instructions += phase_instr;
        let mem_time = (solution.duration - solution.compute_time).max(0.0);
        // Memory time is attributed by each stream's *latency-weighted*
        // miss volume, so functions whose data sits in the slow tier absorb
        // proportionally more stall cycles (the Table VII effect).
        let mut stream_lat: Vec<(&AccessSpec, f64)> = Vec::with_capacity(streams.len());
        let mut total_weight = 0.0;
        for (k, s) in streams.iter().enumerate() {
            let lat = stream_read_latency(
                s,
                &records,
                &solution,
                splits.map(|sp| &sp[k]),
                cache_tier,
                backing_tier,
            );
            let weight = (s.spec.load_misses() + s.spec.store_misses()) * lat.max(1.0);
            stream_lat.push((s.spec, lat));
            total_weight += weight;
        }
        for &(spec, lat) in &stream_lat {
            let weight = (spec.load_misses() + spec.store_misses()) * lat.max(1.0);
            let mem_share = if total_weight > 0.0 { weight / total_weight } else { 0.0 };
            let f = functions.entry(spec.function).or_default();
            f.instructions += spec.total_instructions();
            let stream_time = spec.total_instructions() / machine.peak_ips() + mem_time * mem_share;
            f.cycles += stream_time * machine.cycles_per_second();
            f.load_misses += spec.load_misses();
            f.latency_ns_weighted += spec.load_misses() * lat;
        }

        total_compute += solution.compute_time;
        phases_out.push(PhaseStats {
            index: pi32,
            label: phase.label.clone(),
            start: t,
            duration: solution.duration,
            compute_time: solution.compute_time,
            tier_read_bw: solution.tier_read_bw.clone(),
            tier_write_bw: solution.tier_write_bw.clone(),
            dram_cache_hit_ratio: cached
                .as_ref()
                .map(|c| cache::aggregate_hit_ratio(&c.demands, &c.splits)),
            migrated_bytes,
        });
        t += solution.duration;

        // 6. Reactive policy observation, built only for a policy that
        // reads it.
        if observes {
            let obs = PhaseObservation {
                phase: pi32,
                objects: phase_object_heat(pi32, &live, &records, &accessed),
            };
            pending_migrations = policy.observe_phase(&obs);
        }

        // 7. Frees (oldest first).
        for f in &phase.frees {
            for _ in 0..f.count {
                let Some(r) = live.pop_oldest(f.site) else { break };
                let rec = &mut records[r];
                heaps[rec.tier.0 as usize].free(rec.address, rec.size);
                rec.free_time = t;
            }
        }
    }

    // Objects alive at exit live until the end of the run.
    let end = t + alloc_overhead;
    for r in live.records() {
        records[r].free_time = end;
    }

    let mut functions: Vec<(FuncId, FunctionStats)> = functions.into_iter().collect();
    functions.sort_by_key(|(f, _)| *f);

    // Derived from the per-phase stats so the two can never disagree.
    let total_migrated_bytes: u64 = phases_out.iter().map(|p| p.migrated_bytes).sum();

    ecohmem_obs::count("memsim.engine.migrations", total_migrations);
    ecohmem_obs::count("memsim.engine.migrated_bytes", total_migrated_bytes);
    ecohmem_obs::count("memsim.engine.oom_events", oom_events);
    ecohmem_obs::count("memsim.engine.fallback_allocs", fallback_allocs);
    for h in &heaps {
        ecohmem_obs::gauge_raise(&format!("memsim.{}.peak_bytes", h.tier()), h.peak() as f64);
    }

    RunResult {
        app: app.name.clone(),
        machine: machine.name.clone(),
        mode: mode.label().to_string(),
        policy: policy.name().to_string(),
        total_time: end,
        compute_time: total_compute,
        instructions: total_instructions,
        alloc_overhead,
        cycles: end * machine.cycles_per_second(),
        phases: phases_out,
        functions,
        objects: records,
        tier_peak_bytes: heaps.iter().map(|h| h.peak()).collect(),
        fallback_allocs,
        oom_events,
        migrations: total_migrations,
        migrated_bytes: total_migrated_bytes,
        migration_time,
    }
}

/// Bytes allocated over all tiers.
fn used_bytes(heaps: &[TierHeap]) -> u64 {
    heaps.iter().map(TierHeap::used).sum()
}

/// Per-tier read/write line volumes for a phase under the given placement:
/// straight to the objects' tiers in App Direct, through the phase's
/// DRAM-cache `splits` in Memory Mode.
fn phase_tier_volumes(
    machine: &MachineConfig,
    streams: &[Stream<'_>],
    records: &[ObjectRecord],
    splits: Option<&[CacheSplit]>,
) -> (Vec<f64>, Vec<f64>) {
    let n = machine.tiers.len();
    let cl = machine.cacheline as f64;
    let mut read = vec![0.0; n];
    let mut write = vec![0.0; n];
    match splits {
        None => {
            for s in streams {
                let spec = s.spec;
                let per = 1.0 / s.objs.len() as f64;
                for &r in s.objs {
                    let tier = records[r].tier.0 as usize;
                    let amp = machine.tiers[tier].amplification(spec.pattern);
                    read[tier] += spec.load_misses() * per * cl * amp;
                    write[tier] += spec.store_misses() * per * cl * amp;
                }
            }
        }
        Some(splits) => {
            let cache_tier = machine.tiers_by_performance()[0].0 as usize;
            let backing = machine.largest_tier().0 as usize;
            for (stream, s) in streams.iter().zip(splits) {
                let amp_back = machine.tiers[backing].amplification(stream.spec.pattern);
                let amp_cache = machine.tiers[cache_tier].amplification(stream.spec.pattern);
                read[cache_tier] += s.dram_hits * cl * amp_cache;
                read[backing] += s.pmem_misses * cl * amp_back;
                write[backing] += s.writeback_bytes * amp_back;
                write[cache_tier] += s.dram_store_bytes * amp_cache;
                // A DRAM-cache miss also *fills* the cache (write to DRAM),
                // and a dirty eviction first reads the victim line from
                // DRAM — inclusive write-back cache bookkeeping.
                write[cache_tier] += s.pmem_misses * cl;
                read[cache_tier] += s.writeback_bytes;
            }
        }
    }
    (read, write)
}

/// Builds the DRAM-cache model inputs for a Memory Mode phase.
fn memory_mode_demands(streams: &[Stream<'_>], records: &[ObjectRecord]) -> Vec<StreamDemand> {
    streams
        .iter()
        .map(|s| {
            let spec = s.spec;
            let footprint: f64 = s.objs.iter().map(|&r| records[r].size as f64).sum();
            let touches = spec.load_misses() + spec.store_misses();
            // Touches per unique line this phase: single-sweep streams get
            // reuse ≈ 1 (→ no DRAM-cache hits), iteratively re-read data
            // gets reuse > 1.
            let reuse = if spec.reuse_hint > 0.0 {
                spec.reuse_hint
            } else {
                (touches * 64.0 / footprint.max(64.0)).max(1.0)
            };
            StreamDemand {
                load_misses: spec.load_misses(),
                store_misses: spec.store_misses(),
                footprint,
                pattern: spec.pattern,
                reuse,
            }
        })
        .collect()
}

/// Solves the phase duration fixed point; `splits` is the phase's
/// DRAM-cache split in Memory Mode and `None` in App Direct.
fn solve_phase(
    machine: &MachineConfig,
    phase: &PhaseSpec,
    streams: &[Stream<'_>],
    records: &[ObjectRecord],
    splits: Option<&[CacheSplit]>,
    iterations: Iterations,
) -> PhaseSolution {
    let n = machine.tiers.len();
    let (read_bytes, write_bytes) = phase_tier_volumes(machine, streams, records, splits);

    let phase_instr: f64 = phase.compute_instructions
        + phase.accesses.iter().map(|a| a.total_instructions()).sum::<f64>();
    let compute_time = phase_instr / machine.peak_ips();

    // Per-(stream, tier) miss counts with their MLP factors, for the
    // latency-bound term.
    struct LatTerm {
        tier: usize,
        misses: f64,
        mlp: f64,
        write: bool,
    }
    let mut terms: Vec<LatTerm> = Vec::new();
    match splits {
        None => {
            for s in streams {
                let spec = s.spec;
                let per = 1.0 / s.objs.len() as f64;
                let mlp = machine.mlp_per_core * spec.pattern.mlp_factor();
                for &r in s.objs {
                    let tier = records[r].tier.0 as usize;
                    terms.push(LatTerm {
                        tier,
                        misses: spec.load_misses() * per,
                        mlp,
                        write: false,
                    });
                    terms.push(LatTerm {
                        tier,
                        misses: spec.store_misses() * per,
                        mlp: mlp * STORE_MLP_BONUS,
                        write: true,
                    });
                }
            }
        }
        Some(splits) => {
            let cache_tier = machine.tiers_by_performance()[0].0 as usize;
            let backing = machine.largest_tier().0 as usize;
            for (s, split) in streams.iter().zip(splits) {
                let mlp = machine.mlp_per_core * s.spec.pattern.mlp_factor();
                terms.push(LatTerm {
                    tier: cache_tier,
                    misses: split.dram_hits,
                    mlp,
                    write: false,
                });
                terms.push(LatTerm { tier: backing, misses: split.pmem_misses, mlp, write: false });
                terms.push(LatTerm {
                    tier: backing,
                    misses: split.writeback_bytes / machine.cacheline as f64,
                    mlp: mlp * STORE_MLP_BONUS,
                    write: true,
                });
            }
        }
    }

    // The bandwidth floor does not depend on the duration. A tier whose
    // demand cannot be served (zero peak bandwidth — rejected by
    // `MachineConfig::validate`, but reachable through hand-built configs)
    // yields an infinite floor; pin the solve to the compute time instead of
    // letting NaN/inf leak into the fixed point and poison the run totals.
    let bw_time = (0..n)
        .map(|i| machine.tiers[i].transfer_time(read_bytes[i], write_bytes[i]))
        .fold(0.0, f64::max);
    let bw_time = if bw_time.is_finite() { bw_time } else { 0.0 };

    let cores = machine.cores as f64;
    let mut duration = compute_time.max(bw_time).max(1e-12);
    if !duration.is_finite() {
        duration = 1e-12;
    }
    let mut read_lat = vec![0.0; n];
    let mut write_lat = vec![0.0; n];
    for _ in 0..FIXED_POINT_ITERS {
        for i in 0..n {
            let br = read_bytes[i] / duration;
            let bwr = write_bytes[i] / duration;
            read_lat[i] = machine.tiers[i].read_latency_ns(br, bwr);
            write_lat[i] = machine.tiers[i].write_latency_ns(br, bwr);
        }
        let lat_time: f64 = terms
            .iter()
            .map(|term| {
                let lat = if term.write { write_lat[term.tier] } else { read_lat[term.tier] };
                term.misses * lat * 1e-9 / (cores * term.mlp)
            })
            .sum();
        let mem_time = lat_time.max(bw_time);
        let next = compute_time.max(mem_time).max(1e-12);
        // A non-finite iterate (degenerate latency curve, zero-duration
        // phase dividing out) must not contaminate the relaxation.
        let relaxed = if next.is_finite() { 0.5 * duration + 0.5 * next } else { duration };
        // A step is a pure function of `duration`: once one leaves it
        // bit-identical, every later step repeats this one exactly, and
        // the latencies above are already those of the final duration.
        if relaxed.to_bits() == duration.to_bits() && iterations == Iterations::UntilFixed {
            break;
        }
        duration = relaxed;
    }

    let tier_read_bw: Vec<f64> = (0..n).map(|i| read_bytes[i] / duration).collect();
    let tier_write_bw: Vec<f64> = (0..n).map(|i| write_bytes[i] / duration).collect();
    PhaseSolution { duration, compute_time, tier_read_bw, tier_write_bw, tier_read_lat: read_lat }
}

/// Average loaded read latency seen by one stream's misses, for Table VII
/// function attribution. In Memory Mode `split` is this stream's own
/// DRAM-cache split.
fn stream_read_latency(
    stream: &Stream<'_>,
    records: &[ObjectRecord],
    solution: &PhaseSolution,
    split: Option<&CacheSplit>,
    cache_tier: TierId,
    backing_tier: TierId,
) -> f64 {
    match split {
        None => {
            let per = 1.0 / stream.objs.len() as f64;
            stream
                .objs
                .iter()
                .map(|&r| solution.tier_read_lat[records[r].tier.0 as usize] * per)
                .sum()
        }
        Some(s) => {
            let total = s.dram_hits + s.pmem_misses;
            if total <= 0.0 {
                return solution.tier_read_lat[cache_tier.0 as usize];
            }
            (s.dram_hits * solution.tier_read_lat[cache_tier.0 as usize]
                + s.pmem_misses * solution.tier_read_lat[backing_tier.0 as usize])
                / total
        }
    }
}

/// Per-object heat for reactive policies: every live object in id order,
/// with the LLC misses it took in phase `pi`.
fn phase_object_heat(
    pi: u32,
    live: &LiveSet,
    records: &[ObjectRecord],
    accessed: &[PhaseAccess],
) -> Vec<(ObjectId, SiteId, u64, TierId, f64)> {
    live.records()
        .map(|r| {
            let o = &records[r];
            let heat = if accessed[r].phase == Some(pi) { accessed[r].heat } else { 0.0 };
            (o.object, o.site, o.size, o.tier, heat)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, AccessSpec, AllocOp, FreeOp};
    use crate::policy::FixedTier;
    use memtrace::{BinaryMapBuilder, CallStack, Frame, ModuleId};

    /// A single-site model with heavy streaming traffic.
    fn streaming_model(loads: f64) -> AppModel {
        let mut b = BinaryMapBuilder::new();
        b.add_module("a.out", 4096, 1024, vec!["main.c".into()]);
        AppModel {
            name: "stream".into(),
            ranks: 1,
            threads_per_rank: 1,
            input_desc: String::new(),
            sites: vec![(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)]))],
            binmap: b.build(),
            function_names: vec!["kernel".into()],
            phases: vec![PhaseSpec {
                label: Some("main".into()),
                compute_instructions: 1e9,
                allocs: vec![AllocOp { site: SiteId(0), size: 1 << 30, count: 1 }],
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

    #[test]
    fn dram_beats_pmem_for_heavy_traffic() {
        let app = streaming_model(2e10);
        let m = MachineConfig::optane_pmem6();
        let dram = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        let pmem = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        assert!(
            pmem.total_time > dram.total_time * 1.2,
            "pmem {} vs dram {}",
            pmem.total_time,
            dram.total_time
        );
    }

    #[test]
    fn determinism() {
        let app = streaming_model(1e9);
        let m = MachineConfig::optane_pmem6();
        let a = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        let b = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        assert_eq!(a, b);
    }

    #[test]
    fn memory_mode_between_pure_dram_and_pure_pmem() {
        // Working set (1 GiB) fits in the 16 GiB DRAM cache, so memory mode
        // should be close to DRAM and far from PMem.
        let app = streaming_model(2e10);
        let m = MachineConfig::optane_pmem6();
        let dram = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        let pmem = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        let mm = run(&app, &m, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        assert!(mm.total_time <= pmem.total_time * 1.01);
        // Splitting traffic over both controllers can make the cached run
        // slightly faster than all-DRAM, so only require the right ballpark.
        assert!(mm.total_time >= dram.total_time * 0.85);
        let hit = mm.dram_cache_hit_ratio();
        assert!(hit > 0.85, "small working set should mostly hit, hit={hit}");
    }

    #[test]
    fn zero_compute_zero_access_phase_stays_finite() {
        // Regression (satellite 1): an empty phase — no compute, no allocs,
        // no accesses — must not produce NaN/inf durations that poison the
        // run totals through the fixed-point solve.
        let mut app = streaming_model(1e9);
        app.phases.insert(0, PhaseSpec::default());
        app.phases.push(PhaseSpec::default());
        let m = MachineConfig::optane_pmem6();
        for mode in [ExecMode::AppDirect, ExecMode::MemoryMode] {
            let r = run(&app, &m, mode, &mut FixedTier::new(TierId::DRAM));
            assert!(r.total_time.is_finite() && r.total_time > 0.0, "total={}", r.total_time);
            for p in &r.phases {
                assert!(
                    p.duration.is_finite() && p.duration >= 0.0,
                    "phase {} duration {}",
                    p.index,
                    p.duration
                );
                for bw in p.tier_read_bw.iter().chain(&p.tier_write_bw) {
                    assert!(bw.is_finite(), "phase {} bandwidth {bw}", p.index);
                }
            }
        }
    }

    #[test]
    fn memory_mode_streams_on_one_site_read_their_own_split() {
        // Two functions stream over the same object: a single sweep (no
        // reuse, so every miss goes to PMem) and a re-read kernel that
        // mostly hits the DRAM cache. Each must see its own split's
        // latency, not the first stream's.
        let mut app = streaming_model(1e9);
        app.function_names.push("reread".into());
        let sweep = AccessSpec { reuse_hint: 1.0, ..app.phases[0].accesses[0].clone() };
        let reread = AccessSpec { function: FuncId(1), reuse_hint: 50.0, ..sweep.clone() };
        app.phases[0].accesses = vec![sweep, reread];
        let m = MachineConfig::optane_pmem6();
        let r = run(&app, &m, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let sweep_lat = r.function(FuncId(0)).unwrap().avg_load_latency_ns();
        let reread_lat = r.function(FuncId(1)).unwrap().avg_load_latency_ns();
        assert!(
            reread_lat < sweep_lat,
            "cache-hitting stream {reread_lat} ns vs PMem-bound stream {sweep_lat} ns"
        );
    }

    #[test]
    fn run_invocation_counter_advances() {
        let app = streaming_model(1e8);
        let m = MachineConfig::optane_pmem6();
        let before = run_invocations();
        run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        assert!(run_invocations() > before);
    }

    #[test]
    fn object_records_capture_lifetime_and_traffic() {
        let app = streaming_model(1e9);
        let m = MachineConfig::optane_pmem6();
        let r = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        assert_eq!(r.objects.len(), 1);
        let o = &r.objects[0];
        assert_eq!(o.tier, TierId::DRAM);
        assert!(o.lifetime() > 0.0);
        assert!((o.load_misses - 5e8).abs() < 1.0);
        assert!(!o.free_time.is_nan());
    }

    #[test]
    fn fallback_when_preferred_tier_full() {
        // 2 GiB object into a 16 GiB DRAM, then 15 more: later ones spill.
        let mut app = streaming_model(1e8);
        app.phases[0].allocs[0].count = 17;
        app.phases[0].allocs[0].size = 1 << 30;
        app.phases[0].frees[0].count = 17;
        let m = MachineConfig::optane_pmem6();
        let r = run(
            &app,
            &m,
            ExecMode::AppDirect,
            &mut FixedTier::with_fallback(TierId::DRAM, TierId::PMEM),
        );
        assert!(r.fallback_allocs > 0);
        assert_eq!(r.oom_events, 0);
        let in_pmem = r.objects_in_tier(TierId::PMEM).len();
        assert!(in_pmem >= 1, "spilled objects live in pmem");
    }

    #[test]
    fn function_stats_present() {
        let app = streaming_model(1e9);
        let m = MachineConfig::optane_pmem6();
        let r = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::DRAM));
        let f = r.function(FuncId(0)).unwrap();
        assert!(f.instructions > 0.0);
        assert!(f.ipc() > 0.0);
        assert!(f.avg_load_latency_ns() >= 90.0);
    }

    #[test]
    fn bandwidth_series_reported() {
        let app = streaming_model(2e10);
        let m = MachineConfig::optane_pmem6();
        let r = run(&app, &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        let peak = r.tier_peak_bw(TierId::PMEM);
        assert!(peak > 1e9, "heavy streaming should show bandwidth, peak={peak}");
        assert!(peak <= 32e9, "cannot exceed device peak by much, peak={peak}");
    }

    #[test]
    fn more_traffic_takes_longer() {
        let m = MachineConfig::optane_pmem6();
        let small =
            run(&streaming_model(1e9), &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        let large =
            run(&streaming_model(4e9), &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        assert!(large.total_time > small.total_time);
    }

    #[test]
    fn memory_bound_fraction_reflects_traffic() {
        let m = MachineConfig::optane_pmem6();
        let heavy =
            run(&streaming_model(5e10), &m, ExecMode::AppDirect, &mut FixedTier::new(TierId::PMEM));
        assert!(heavy.memory_bound_fraction() > 0.5);
    }
}
