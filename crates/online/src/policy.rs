//! Dynamic placement in the simulator: a [`memsim::PlacementPolicy`] that
//! runs the incremental advisor *inside* the run.
//!
//! Where the offline pipeline profiles a whole run and places the next one,
//! [`OnlinePolicy`] observes per-phase object heat (the engine's analogue
//! of a PEBS stream), feeds it to the [`IncrementalAdvisor`] as per-site
//! deltas, and on every epoch tick turns plan revisions into object
//! [`Migration`]s the engine applies at the next phase boundary. Each
//! applied migration costs `bytes / min(src read bw, dst write bw)` plus
//! this policy's fixed per-migration overhead (see
//! `OnlineConfig::migration_overhead`).
//!
//! Cold start is bridged by optimistic first-touch: until the first tick
//! that ranks a site with real evidence, allocations go to the fast tier
//! while the advisor's DRAM budget lasts (overflow to the fallback), so a
//! workload that allocates everything up front — the common HPC shape —
//! does not serve its whole first epoch from PMEM. Once the plan is
//! informed, it owns every placement and migrates whatever first-touch got
//! wrong. Demotions are requested before promotions within one boundary so
//! the capacity they release is available to the promotions in the same
//! batch.
//!
//! The time axis on this path is *phases* (the engine's observation has no
//! wall-clock), so `OnlineConfig::window` / `half_life` are in phases here.

use crate::config::OnlineConfig;
use crate::incremental::{IncrementalAdvisor, PlacementRevision, ProfileSource};
use crate::stats::DecayedWindow;
use advisor::{AdvisorConfig, Algorithm};
use memsim::{AllocContext, Migration, PhaseObservation, PlacementPolicy};
use memtrace::{CallStack, SiteId, TierId};
use profiler::{BwContext, SiteProfile};
use std::collections::{HashMap, HashSet};

/// Per-site state reconstructed from allocations and phase observations.
#[derive(Debug, Clone)]
struct SiteState {
    stack: CallStack,
    alloc_count: u64,
    total_bytes: u64,
    max_size: u64,
    live_bytes: u64,
    peak_live_bytes: u64,
    first_alloc: f64,
    heat: DecayedWindow,
}

/// The engine-side profile source: sites described by observed heat rather
/// than attributed samples.
#[derive(Debug, Default)]
struct PhaseSource {
    cfg: OnlineConfig,
    sites: HashMap<SiteId, SiteState>,
    dirty: HashSet<SiteId>,
    now: f64,
}

impl ProfileSource for PhaseSource {
    fn take_dirty(&mut self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.dirty.drain().collect();
        v.sort();
        v
    }

    fn bw_context(&self, _now: f64) -> BwContext<'_> {
        // The engine's observation carries no bandwidth series; the miss
        // density the knapsack ranks by does not need one.
        BwContext::default()
    }

    fn rebuild_site(&self, site: SiteId, now: f64, _bw: &BwContext, out: &mut SiteProfile) -> bool {
        let Some(s) = self.sites.get(&site) else { return false };
        let misses = s.heat.value(&self.cfg, now);
        let lifetime = (now - s.first_alloc).max(0.0);
        *out = SiteProfile {
            site,
            stack: s.stack.clone(),
            alloc_count: s.alloc_count,
            max_size: s.max_size,
            total_bytes: s.total_bytes,
            peak_live_bytes: s.peak_live_bytes,
            load_misses_est: misses,
            store_misses_est: 0.0,
            has_stores: false,
            first_alloc: s.first_alloc,
            last_free: now,
            bw_at_alloc: 0.0,
            avg_bw: if lifetime > 0.0 { misses * 64.0 / lifetime } else { 0.0 },
            objects: Vec::new(),
        };
        true
    }

    fn app_name(&self) -> &str {
        "online"
    }
}

/// The dynamic placement policy.
#[derive(Debug)]
pub struct OnlinePolicy {
    cfg: OnlineConfig,
    advisor: IncrementalAdvisor,
    source: PhaseSource,
    phases_seen: u32,
    revisions: Vec<PlacementRevision>,
    migrations_requested: u64,
    /// First-touch tier per site, used until the plan is informed.
    optimistic: HashMap<SiteId, TierId>,
    /// Bytes optimistically charged against the primary-tier budget.
    optimistic_primary_bytes: u64,
    /// Becomes true at the first tick whose plan ranks any site onto the
    /// primary tier — from then on the advisor owns every placement.
    informed: bool,
    name: String,
}

impl OnlinePolicy {
    /// Builds the policy. `advisor_cfg` carries the DRAM budget and the
    /// fallback tier; `cfg` the aging and epoch cadence (phase units —
    /// [`OnlineConfig::reactive`] is the intended preset).
    pub fn new(advisor_cfg: AdvisorConfig, cfg: OnlineConfig) -> Self {
        OnlinePolicy {
            advisor: IncrementalAdvisor::new(advisor_cfg, Algorithm::Base)
                .with_hysteresis(cfg.hysteresis),
            source: PhaseSource { cfg, ..PhaseSource::default() },
            cfg,
            phases_seen: 0,
            revisions: Vec::new(),
            migrations_requested: 0,
            optimistic: HashMap::new(),
            optimistic_primary_bytes: 0,
            informed: false,
            name: "online-incremental".into(),
        }
    }

    /// The tier the current knowledge puts `site` on: the plan once it is
    /// informed, the first-touch choice before that.
    fn planned_tier(&self, site: SiteId) -> TierId {
        if self.informed {
            self.advisor.tier_of(site)
        } else {
            self.optimistic.get(&site).copied().unwrap_or(self.advisor.config().fallback)
        }
    }

    /// All plan revisions emitted so far.
    pub fn revisions(&self) -> &[PlacementRevision] {
        &self.revisions
    }

    /// Epoch ticks completed.
    pub fn epochs(&self) -> u64 {
        self.advisor.epochs()
    }

    /// Object migrations requested from the engine (the engine may skip
    /// some — full destination, already-freed object).
    pub fn migrations_requested(&self) -> u64 {
        self.migrations_requested
    }

    /// Per-site profile rebuilds spent by the incremental advisor.
    pub fn rebuilt_sites(&self) -> u64 {
        self.advisor.rebuilt_sites()
    }
}

impl PlacementPolicy for OnlinePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, ctx: &AllocContext<'_>) -> TierId {
        let s = self.source.sites.entry(ctx.site).or_insert_with(|| SiteState {
            stack: ctx.stack.clone(),
            alloc_count: 0,
            total_bytes: 0,
            max_size: 0,
            live_bytes: 0,
            peak_live_bytes: 0,
            first_alloc: ctx.time,
            heat: DecayedWindow::default(),
        });
        s.alloc_count += 1;
        s.total_bytes += ctx.size;
        s.max_size = s.max_size.max(ctx.size);
        s.live_bytes += ctx.size;
        s.peak_live_bytes = s.peak_live_bytes.max(s.live_bytes);
        s.first_alloc = s.first_alloc.min(ctx.time);
        self.source.dirty.insert(ctx.site);
        if self.informed {
            return self.advisor.tier_of(ctx.site);
        }
        // Optimistic first-touch: fast tier while the budget lasts.
        if let Some(&tier) = self.optimistic.get(&ctx.site) {
            if tier != self.advisor.config().fallback {
                self.optimistic_primary_bytes += ctx.size;
            }
            return tier;
        }
        let budget = self.advisor.config().primary();
        let tier = if self.optimistic_primary_bytes + ctx.size <= budget.capacity {
            self.optimistic_primary_bytes += ctx.size;
            budget.tier
        } else {
            self.advisor.config().fallback
        };
        self.optimistic.insert(ctx.site, tier);
        tier
    }

    fn fallback(&self) -> TierId {
        self.advisor.config().fallback
    }

    fn observe_phase(&mut self, obs: &PhaseObservation) -> Vec<Migration> {
        // Phase ordinals are the clock here: the observation of phase p is
        // taken at its end, time p+1.
        let now = obs.phase as f64 + 1.0;
        self.source.now = now;

        // Fold per-object heat into per-site deltas; refresh live bytes.
        let mut heat: HashMap<SiteId, f64> = HashMap::new();
        let mut live: HashMap<SiteId, u64> = HashMap::new();
        for &(_, site, size, _, misses) in &obs.objects {
            *heat.entry(site).or_insert(0.0) += misses;
            *live.entry(site).or_insert(0) += size;
        }
        for (site, s) in self.source.sites.iter_mut() {
            let h = heat.get(site).copied().unwrap_or(0.0);
            if h > 0.0 {
                s.heat.push(&self.source.cfg, now, h);
                self.source.dirty.insert(*site);
            }
            let lv = live.get(site).copied().unwrap_or(0);
            if lv != s.live_bytes {
                s.live_bytes = lv;
                s.peak_live_bytes = s.peak_live_bytes.max(lv);
                self.source.dirty.insert(*site);
            }
        }

        self.phases_seen += 1;
        if self.phases_seen.is_multiple_of(self.cfg.epoch()) {
            let revs = self.advisor.tick(&mut self.source, now);
            self.revisions.extend(revs);
        }
        let primary = self.advisor.config().primary().tier;
        if !self.informed {
            // The plan takes over once it ranks real evidence; until then
            // the first-touch placement stands (an uninformed plan would
            // demote every optimistically placed object).
            self.informed =
                self.advisor.assignment().is_some_and(|a| a.tiers.values().any(|t| *t == primary));
        }

        // Ask the engine to move every live object sitting off-plan.
        // Demotions first: the space they free is what lets the promotions
        // in the same batch fit.
        let mut moves: Vec<Migration> = obs
            .objects
            .iter()
            .filter_map(|&(object, site, _, tier, _)| {
                let want = self.planned_tier(site);
                (want != tier).then_some(Migration { object, to: want })
            })
            .collect();
        moves.sort_by_key(|m| (m.to == primary, m.object));
        self.migrations_requested += moves.len() as u64;
        moves
    }

    fn migration_overhead_seconds(&self) -> f64 {
        self.cfg.migration_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Frame, ModuleId, ObjectId};

    fn ctx(stack: &CallStack, site: u32, size: u64, time: f64) -> AllocContext<'_> {
        AllocContext { site: SiteId(site), stack, size, phase: 0, time }
    }

    fn obs(phase: u32, objects: Vec<(u64, u32, u64, TierId, f64)>) -> PhaseObservation {
        PhaseObservation {
            phase,
            objects: objects
                .into_iter()
                .map(|(o, s, sz, t, h)| (ObjectId(o), SiteId(s), sz, t, h))
                .collect(),
        }
    }

    #[test]
    fn cold_start_is_optimistic_first_touch_up_to_the_budget() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let mut p = OnlinePolicy::new(AdvisorConfig::loads_only(12), OnlineConfig::reactive());
        // First touches fill the DRAM budget optimistically...
        assert_eq!(p.place(&ctx(&stack, 0, 8 << 30, 0.0)), TierId::DRAM);
        assert_eq!(p.place(&ctx(&stack, 1, 4 << 30, 0.0)), TierId::DRAM);
        // ...and overflow to the fallback once it is spent.
        assert_eq!(p.place(&ctx(&stack, 2, 1 << 30, 0.0)), TierId::PMEM);
        // A site keeps its first-touch tier for repeat allocations.
        assert_eq!(p.place(&ctx(&stack, 2, 1 << 30, 0.1)), TierId::PMEM);
        assert_eq!(p.fallback(), TierId::PMEM);
        assert!(p.migration_overhead_seconds() > 0.0);
    }

    #[test]
    fn an_uninformed_plan_does_not_demote_first_touch_placements() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let mut p = OnlinePolicy::new(AdvisorConfig::loads_only(12), OnlineConfig::reactive());
        assert_eq!(p.place(&ctx(&stack, 0, 1 << 30, 0.0)), TierId::DRAM);
        // A setup phase with no heat anywhere: the tick learns nothing, so
        // the optimistic placement must stand.
        let moves = p.observe_phase(&obs(0, vec![(1, 0, 1 << 30, TierId::DRAM, 0.0)]));
        assert!(moves.is_empty(), "uninformed plan must not evict first-touch objects");
    }

    #[test]
    fn hot_sites_get_promoted_after_a_tick() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let mut p = OnlinePolicy::new(AdvisorConfig::loads_only(12), OnlineConfig::reactive());
        p.place(&ctx(&stack, 0, 1 << 30, 0.0));
        let moves = p.observe_phase(&obs(0, vec![(1, 0, 1 << 30, TierId::PMEM, 1e8)]));
        assert_eq!(p.epochs(), 1);
        assert_eq!(moves, vec![Migration { object: ObjectId(1), to: TierId::DRAM }]);
        assert!(p.migrations_requested() >= 1);
        assert_eq!(p.revisions().len(), 1);
        // New allocations from the site now go straight to DRAM.
        assert_eq!(p.place(&ctx(&stack, 0, 1 << 20, 1.5)), TierId::DRAM);
    }

    #[test]
    fn demotions_are_ordered_before_promotions() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        // Budget fits one 8 GiB site; two compete.
        let mut p = OnlinePolicy::new(AdvisorConfig::loads_only(9), OnlineConfig::reactive());
        p.place(&ctx(&stack, 0, 8 << 30, 0.0));
        p.place(&ctx(&stack, 1, 8 << 30, 0.0));
        // Site 0 hot first → promoted.
        p.observe_phase(&obs(
            0,
            vec![(1, 0, 8 << 30, TierId::PMEM, 1e9), (2, 1, 8 << 30, TierId::PMEM, 1e3)],
        ));
        // Heat flips; site 0 must vacate before site 1 moves in.
        let mut o =
            obs(1, vec![(1, 0, 8 << 30, TierId::DRAM, 1e3), (2, 1, 8 << 30, TierId::PMEM, 1e9)]);
        let mut moves = Vec::new();
        // A short window needs a couple of phases to forget site 0's past.
        for phase in 1..8 {
            o.phase = phase;
            moves = p.observe_phase(&o);
            if !moves.is_empty() {
                break;
            }
        }
        assert_eq!(moves.len(), 2, "demotion + promotion");
        assert_eq!(moves[0].to, TierId::PMEM, "demotion first");
        assert_eq!(moves[1].to, TierId::DRAM);
    }

    #[test]
    fn quiet_phases_request_nothing() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let mut p = OnlinePolicy::new(AdvisorConfig::loads_only(12), OnlineConfig::reactive());
        p.place(&ctx(&stack, 0, 1 << 30, 0.0));
        p.observe_phase(&obs(0, vec![(1, 0, 1 << 30, TierId::PMEM, 1e8)]));
        // Object now on-plan; no further heat shift.
        let moves = p.observe_phase(&obs(1, vec![(1, 0, 1 << 30, TierId::DRAM, 1e8)]));
        assert!(moves.is_empty());
    }
}
