//! Placement policies: who decides which tier serves an allocation.
//!
//! The engine consults a [`PlacementPolicy`] on every allocation (in
//! App Direct mode). FlexMalloc's report-driven interposer, the ProfDP
//! ranking, and the kernel-tiering baseline all implement this trait; so do
//! the trivial policies below used for profiling runs and tests.

use memtrace::{CallStack, ObjectId, SiteId, TierId};

/// Everything a policy may inspect when placing one allocation — the same
/// information FlexMalloc has when it intercepts a `malloc`.
#[derive(Debug, Clone)]
pub struct AllocContext<'a> {
    /// Allocation site.
    pub site: SiteId,
    /// The site's call stack (canonical form).
    pub stack: &'a CallStack,
    /// Requested bytes.
    pub size: u64,
    /// Phase ordinal in which the allocation happens.
    pub phase: u32,
    /// Simulated time of the allocation, seconds.
    pub time: f64,
}

/// Requested migrations at a phase boundary: move `object` to `tier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// Object to move.
    pub object: ObjectId,
    /// Destination tier.
    pub to: TierId,
}

/// Per-phase observation handed to reactive policies (the kernel-tiering
/// baseline) after each phase: how hot each live object was.
#[derive(Debug, Clone)]
pub struct PhaseObservation {
    /// Phase ordinal that just finished.
    pub phase: u32,
    /// `(object, site, size, tier, llc_misses_this_phase)` per live object.
    pub objects: Vec<(ObjectId, SiteId, u64, TierId, f64)>,
}

/// A placement policy.
pub trait PlacementPolicy {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Chooses the preferred tier for an allocation. The engine falls back
    /// to [`Self::fallback`] (then to any tier with space) when the
    /// preferred tier is full.
    fn place(&mut self, ctx: &AllocContext<'_>) -> TierId;

    /// Tier for out-of-space spills and (for report-driven policies)
    /// unlisted call stacks.
    fn fallback(&self) -> TierId;

    /// Fixed time cost the policy adds to every intercepted allocation
    /// (call-stack capture + matching). Zero for hardware/trivial policies.
    fn overhead_seconds_per_alloc(&self) -> f64 {
        0.0
    }

    /// DRAM bytes the policy itself pins resident (per job): debug
    /// information in human-readable matching mode, kernel page metadata
    /// for the tiering baseline. The engine deducts this from the DRAM
    /// heap capacity.
    fn resident_dram_bytes(&self) -> u64 {
        0
    }

    /// Called after every phase with per-object heat; reactive policies
    /// return migrations to apply before the next phase. Proactive
    /// policies ignore this.
    fn observe_phase(&mut self, _obs: &PhaseObservation) -> Vec<Migration> {
        Vec::new()
    }

    /// Whether [`Self::observe_phase`] reads its observation. The engine
    /// builds the per-object heat only for observing policies; a policy
    /// whose `observe_phase` always returns no migrations may answer
    /// `false` to skip that work. The default is `true`, so a new reactive
    /// policy never silently loses its observations.
    fn observes_phases(&self) -> bool {
        true
    }

    /// Fixed time cost per applied migration, on top of the bytes-moved /
    /// tier-bandwidth transfer term: the syscall + page-table work of a
    /// `move_pages`-style remap. Zero for policies that never migrate.
    fn migration_overhead_seconds(&self) -> f64 {
        0.0
    }
}

/// Places everything in one tier. `FixedTier::new(TierId::DRAM)` models an
/// unconstrained-DRAM profiling run; `FixedTier::new(TierId::PMEM)` models
/// uncached App Direct PMem.
#[derive(Debug, Clone)]
pub struct FixedTier {
    tier: TierId,
    fallback: TierId,
    name: String,
}

impl FixedTier {
    /// Policy that places (and falls back) on `tier`.
    pub fn new(tier: TierId) -> Self {
        FixedTier { tier, fallback: tier, name: format!("fixed-{tier}") }
    }

    /// Policy preferring `tier` but spilling to `fallback`.
    pub fn with_fallback(tier: TierId, fallback: TierId) -> Self {
        FixedTier { tier, fallback, name: format!("fixed-{tier}-fb-{fallback}") }
    }
}

impl PlacementPolicy for FixedTier {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, _ctx: &AllocContext<'_>) -> TierId {
        self.tier
    }

    fn fallback(&self) -> TierId {
        self.fallback
    }

    fn observes_phases(&self) -> bool {
        false
    }
}

/// Places allocations by an explicit site → tier map, with a fallback for
/// unmapped sites. Used for oracle placements in tests and by baselines
/// that reason per site rather than per call stack.
#[derive(Debug, Clone)]
pub struct SiteMapPolicy {
    map: std::collections::HashMap<SiteId, TierId>,
    fallback: TierId,
    name: String,
}

impl SiteMapPolicy {
    /// Builds the policy from `(site, tier)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (SiteId, TierId)>, fallback: TierId) -> Self {
        SiteMapPolicy { map: pairs.into_iter().collect(), fallback, name: "site-map".into() }
    }

    /// Renames the policy for reporting.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }

    /// Tier assigned to a site, if any.
    pub fn tier_for(&self, site: SiteId) -> Option<TierId> {
        self.map.get(&site).copied()
    }
}

impl PlacementPolicy for SiteMapPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, ctx: &AllocContext<'_>) -> TierId {
        self.map.get(&ctx.site).copied().unwrap_or(self.fallback)
    }

    fn fallback(&self) -> TierId {
        self.fallback
    }

    fn observes_phases(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CallStack, Frame, ModuleId};

    #[test]
    fn fixed_tier_places_everything_in_one_tier() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let ctx = AllocContext { site: SiteId(0), stack: &stack, size: 64, phase: 0, time: 0.0 };
        let mut p = FixedTier::new(TierId::PMEM);
        assert_eq!(p.place(&ctx), TierId::PMEM);
        assert_eq!(p.fallback(), TierId::PMEM);
        assert_eq!(p.overhead_seconds_per_alloc(), 0.0);
        assert_eq!(p.resident_dram_bytes(), 0);
    }

    #[test]
    fn with_fallback_differs() {
        let p = FixedTier::with_fallback(TierId::DRAM, TierId::PMEM);
        assert_eq!(p.fallback(), TierId::PMEM);
        assert!(p.name().contains("fixed-tier0"));
    }

    #[test]
    fn site_map_policy_routes_and_falls_back() {
        let stack = CallStack::new(vec![Frame::new(ModuleId(0), 0)]);
        let mut p = SiteMapPolicy::new([(SiteId(1), TierId::DRAM)], TierId::PMEM).named("oracle");
        let ctx1 = AllocContext { site: SiteId(1), stack: &stack, size: 64, phase: 0, time: 0.0 };
        let ctx2 = AllocContext { site: SiteId(2), stack: &stack, size: 64, phase: 0, time: 0.0 };
        assert_eq!(p.place(&ctx1), TierId::DRAM);
        assert_eq!(p.place(&ctx2), TierId::PMEM);
        assert_eq!(p.tier_for(SiteId(1)), Some(TierId::DRAM));
        assert_eq!(p.tier_for(SiteId(9)), None);
        assert_eq!(p.name(), "oracle");
    }
}
