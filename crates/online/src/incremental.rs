//! The incremental advisor: maintains a greedy-knapsack placement under a
//! stream of event deltas.
//!
//! The offline HMem Advisor ranks every site once over a finished profile.
//! Online, most sites' statistics are unchanged between consecutive
//! re-plans, so re-deriving every input would waste the work the dirty-set
//! makes avoidable: the advisor caches each site's [`SiteProfile`] and, on
//! an epoch tick, rebuilds only the sites its [`ProfileSource`] reports as
//! dirtied since the last tick. The greedy pass itself (and the optional
//! bandwidth-aware rebalance) then re-runs over the assembled profile —
//! that solve is cheap next to profile reconstruction, and re-using the
//! offline passes verbatim is what makes online → offline convergence
//! provable: with aging disabled, a final tick over a fully-ingested trace
//! ranks exactly the inputs the batch Advisor ranks.
//!
//! The value function is pinned to the paper's miss density. (The cached
//! profiles of *clean* sites keep their last-built lifetime fields, which
//! density ignores; a lifetime-sensitive value function would need a
//! rebuild-all tick.)
//!
//! Each tick emits the *diff* against the previous plan as
//! [`PlacementRevision`]s — the stream a dynamic placement layer consumes.

use crate::ingest::StreamIngestor;
use advisor::{bandwidth, knapsack, AdvisorConfig, Algorithm, Assignment, BwThresholds};
use memtrace::{BinaryMap, CallStack, SiteId, TierId};
use profiler::{BwContext, ProfileSet, SiteProfile};
use serde::{Deserialize, Serialize};

/// One placement change emitted by an epoch tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRevision {
    /// Tick ordinal that produced this revision.
    pub epoch: u64,
    /// Stream time of the tick, seconds (phases on the policy path).
    pub time: f64,
    /// The re-placed site.
    pub site: SiteId,
    /// Tier the site was assigned before the tick.
    pub from: TierId,
    /// Tier the site is assigned now.
    pub to: TierId,
}

/// Where the incremental advisor gets per-site profiles from: the
/// streaming trace ingestor, or the dynamic policy's phase observations.
pub trait ProfileSource {
    /// Sites whose statistics changed since the last call, sorted.
    fn take_dirty(&mut self) -> Vec<SiteId>;
    /// The bandwidth context as of `now`, built once per tick and shared
    /// by every site rebuild of that tick.
    fn bw_context(&self, now: f64) -> BwContext<'_>;
    /// Rebuilds one site's profile as of `now` into `out`, reusing its
    /// allocations. Returns false, leaving `out` untouched, if the site
    /// has no profile (it vanished).
    fn rebuild_site(&self, site: SiteId, now: f64, bw: &BwContext, out: &mut SiteProfile) -> bool;
    /// Application name for the assembled profile.
    fn app_name(&self) -> &str;
}

impl ProfileSource for StreamIngestor {
    fn take_dirty(&mut self) -> Vec<SiteId> {
        StreamIngestor::take_dirty(self)
    }

    fn bw_context(&self, now: f64) -> BwContext<'_> {
        StreamIngestor::bw_context(self, now)
    }

    fn rebuild_site(&self, site: SiteId, now: f64, bw: &BwContext, out: &mut SiteProfile) -> bool {
        StreamIngestor::rebuild_site(self, site, now, bw, out)
    }

    fn app_name(&self) -> &str {
        &self.meta().app_name
    }
}

/// The incremental advisor.
#[derive(Debug)]
pub struct IncrementalAdvisor {
    // `pub(crate)` so the durability layer's checkpoint codec can capture
    // and restore the advisor's incremental state bit-for-bit.
    pub(crate) config: AdvisorConfig,
    pub(crate) algorithm: Algorithm,
    pub(crate) thresholds: BwThresholds,
    pub(crate) hysteresis: f64,
    /// The assembled profile the solver ranks: one cached profile per
    /// site, sorted by site, kept in place across ticks. Its miss
    /// estimates carry the hysteresis boost of the last tick.
    pub(crate) profile: ProfileSet,
    /// The unboosted `(load_misses_est, store_misses_est)` of each entry
    /// of `profile.sites`, as the source built them.
    pub(crate) estimates: Vec<(f64, f64)>,
    pub(crate) assignment: Option<Assignment>,
    pub(crate) epoch: u64,
    pub(crate) rebuilt_sites: u64,
}

impl IncrementalAdvisor {
    /// Creates an advisor with the paper's bandwidth thresholds and no
    /// hysteresis (the offline-equivalent setting).
    pub fn new(config: AdvisorConfig, algorithm: Algorithm) -> Self {
        config.validate().expect("invalid advisor configuration");
        IncrementalAdvisor {
            config,
            algorithm,
            thresholds: BwThresholds::PAPER,
            hysteresis: 0.0,
            profile: ProfileSet {
                app_name: String::new(),
                duration: 0.0,
                sites: Vec::new(),
                bw_series: Vec::new(),
                peak_bw: 0.0,
                // Reports rendered from an online plan use the live process
                // image; the plan itself never consults it.
                binmap: BinaryMap::default(),
            },
            estimates: Vec::new(),
            assignment: None,
            epoch: 0,
            rebuilt_sites: 0,
        }
    }

    /// Sets the plan hysteresis (see [`crate::OnlineConfig::hysteresis`]):
    /// sites currently planned on the primary tier get their miss estimate
    /// scaled by `1 + h` while ranking, so a challenger must beat the
    /// incumbent by a real margin — not estimator noise — to displace it.
    pub fn with_hysteresis(mut self, h: f64) -> Self {
        self.hysteresis = h.max(0.0);
        self
    }

    /// The advisor configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The current plan, if a tick has run.
    pub fn assignment(&self) -> Option<&Assignment> {
        self.assignment.as_ref()
    }

    /// Tier currently planned for a site (the configured fallback before
    /// the first tick or for unknown sites).
    pub fn tier_of(&self, site: SiteId) -> TierId {
        self.assignment.as_ref().map(|a| a.tier_of(site)).unwrap_or(self.config.fallback)
    }

    /// Ticks completed.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Total per-site profile rebuilds across all ticks — the work the
    /// dirty-set accounting actually spent (vs. `epochs × total sites` for
    /// a naive re-derivation).
    pub fn rebuilt_sites(&self) -> u64 {
        self.rebuilt_sites
    }

    /// Runs one epoch tick: refreshes dirtied sites from `source`,
    /// re-solves the placement, and returns the plan diff (sorted by site).
    pub fn tick(&mut self, source: &mut dyn ProfileSource, now: f64) -> Vec<PlacementRevision> {
        let _span = ecohmem_obs::span("online.tick");
        let rebuilt_before = self.rebuilt_sites;
        let dirty = source.take_dirty();
        let bw = source.bw_context(now);
        for site in dirty {
            self.refresh(&*source, site, now, &bw);
            self.rebuilt_sites += 1;
        }

        // Assemble in place: only the run-level fields and the two
        // hysteresis-boosted estimates change between ticks.
        let profile = &mut self.profile;
        if profile.app_name != source.app_name() {
            profile.app_name = source.app_name().to_string();
        }
        profile.duration = now;
        profile.bw_series = bw.series;
        profile.peak_bw = bw.peak;
        let incumbent = if self.hysteresis > 0.0 { self.assignment.as_ref() } else { None };
        let primary = self.config.primary().tier;
        let mut boosted = 0u64;
        for (s, &(load, store)) in profile.sites.iter_mut().zip(&self.estimates) {
            if incumbent.is_some_and(|prev| prev.tier_of(s.site) == primary) {
                s.load_misses_est = load * (1.0 + self.hysteresis);
                s.store_misses_est = store * (1.0 + self.hysteresis);
                boosted += 1;
            } else {
                s.load_misses_est = load;
                s.store_misses_est = store;
            }
        }
        if incumbent.is_some() {
            ecohmem_obs::count("online.hysteresis.boosted", boosted);
        }

        let mut next = knapsack::assign(&self.profile, &self.config);
        if self.algorithm == Algorithm::BandwidthAware {
            next = bandwidth::rebalance(&self.profile, &next, &self.config, &self.thresholds).0;
        }

        let revisions = self.diff(&next, now);
        ecohmem_obs::count("online.sites.rebuilt", self.rebuilt_sites - rebuilt_before);
        ecohmem_obs::count("online.revisions.emitted", revisions.len() as u64);
        self.assignment = Some(next);
        self.epoch += 1;
        revisions
    }

    /// Rebuilds one dirty site's cached profile in place (inserting a new
    /// site, dropping a vanished one).
    fn refresh(&mut self, source: &dyn ProfileSource, site: SiteId, now: f64, bw: &BwContext) {
        let sites = &mut self.profile.sites;
        match sites.binary_search_by_key(&site, |p| p.site) {
            Ok(i) => {
                if source.rebuild_site(site, now, bw, &mut sites[i]) {
                    self.estimates[i] = (sites[i].load_misses_est, sites[i].store_misses_est);
                } else {
                    sites.remove(i);
                    self.estimates.remove(i);
                }
            }
            Err(i) => {
                let mut p = SiteProfile::empty(site);
                if source.rebuild_site(site, now, bw, &mut p) {
                    self.estimates.insert(i, (p.load_misses_est, p.store_misses_est));
                    sites.insert(i, p);
                }
            }
        }
    }

    /// Stacks of all cached sites, for rendering a [`memtrace::PlacementReport`].
    pub fn stacks(&self) -> Vec<(SiteId, CallStack)> {
        self.profile.sites.iter().map(|p| (p.site, p.stack.clone())).collect()
    }

    fn diff(&self, next: &Assignment, now: f64) -> Vec<PlacementRevision> {
        let mut sites: Vec<SiteId> = next.tiers.keys().copied().collect();
        if let Some(prev) = &self.assignment {
            sites.extend(prev.tiers.keys().copied());
        }
        sites.sort();
        sites.dedup();
        sites
            .into_iter()
            .filter_map(|site| {
                let from = self
                    .assignment
                    .as_ref()
                    .map(|a| a.tier_of(site))
                    .unwrap_or(self.config.fallback);
                let to = next.tier_of(site);
                (from != to).then_some(PlacementRevision {
                    epoch: self.epoch,
                    time: now,
                    site,
                    from,
                    to,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Frame, ModuleId, ObjectId};
    use profiler::ObjectLifetime;
    use std::collections::HashMap;

    /// A hand-driven profile source for unit tests.
    struct FakeSource {
        dirty: Vec<SiteId>,
        profiles: HashMap<SiteId, SiteProfile>,
    }

    impl ProfileSource for FakeSource {
        fn take_dirty(&mut self) -> Vec<SiteId> {
            std::mem::take(&mut self.dirty)
        }
        fn bw_context(&self, _now: f64) -> BwContext<'_> {
            BwContext::default()
        }
        fn rebuild_site(
            &self,
            site: SiteId,
            _now: f64,
            _bw: &BwContext,
            out: &mut SiteProfile,
        ) -> bool {
            match self.profiles.get(&site) {
                Some(p) => {
                    out.clone_from(p);
                    true
                }
                None => false,
            }
        }
        fn app_name(&self) -> &str {
            "fake"
        }
    }

    fn site(id: u32, gib: u64, misses: f64) -> SiteProfile {
        SiteProfile {
            site: SiteId(id),
            stack: CallStack::new(vec![Frame::new(ModuleId(0), 64 * id as u64)]),
            alloc_count: 1,
            max_size: gib << 30,
            total_bytes: gib << 30,
            peak_live_bytes: gib << 30,
            load_misses_est: misses,
            store_misses_est: 0.0,
            has_stores: false,
            first_alloc: 0.0,
            last_free: 10.0,
            bw_at_alloc: 0.0,
            avg_bw: 0.0,
            objects: vec![ObjectLifetime {
                object: ObjectId(id as u64),
                size: gib << 30,
                alloc_time: 0.0,
                free_time: 10.0,
                load_samples: 1,
                store_samples: 0,
                store_l1d_miss_samples: 0,
                bw_at_alloc: 0.0,
            }],
        }
    }

    #[test]
    fn first_tick_emits_promotions_from_fallback() {
        let mut src = FakeSource {
            dirty: vec![SiteId(0), SiteId(1)],
            profiles: [(SiteId(0), site(0, 4, 1e9)), (SiteId(1), site(1, 4, 1e3))]
                .into_iter()
                .collect(),
        };
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(6), Algorithm::Base);
        assert_eq!(adv.tier_of(SiteId(0)), TierId::PMEM, "cold start falls back");
        let revs = adv.tick(&mut src, 1.0);
        // Only the dense site moves; the sparse one stays on the fallback
        // (budget fits one 4 GiB site).
        assert_eq!(revs.len(), 1);
        assert_eq!(revs[0].site, SiteId(0));
        assert_eq!(revs[0].from, TierId::PMEM);
        assert_eq!(revs[0].to, TierId::DRAM);
        assert_eq!(adv.tier_of(SiteId(0)), TierId::DRAM);
        assert_eq!(adv.epochs(), 1);
    }

    #[test]
    fn quiet_ticks_emit_no_revisions_and_rebuild_nothing() {
        let mut src = FakeSource {
            dirty: vec![SiteId(0)],
            profiles: [(SiteId(0), site(0, 4, 1e9))].into_iter().collect(),
        };
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(6), Algorithm::Base);
        adv.tick(&mut src, 1.0);
        let rebuilt = adv.rebuilt_sites();
        let revs = adv.tick(&mut src, 2.0);
        assert!(revs.is_empty(), "nothing dirtied, plan unchanged");
        assert_eq!(adv.rebuilt_sites(), rebuilt, "clean sites are served from cache");
    }

    #[test]
    fn shifting_heat_flips_the_plan() {
        let mut src = FakeSource {
            dirty: vec![SiteId(0), SiteId(1)],
            profiles: [(SiteId(0), site(0, 4, 1e9)), (SiteId(1), site(1, 4, 1e3))]
                .into_iter()
                .collect(),
        };
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(6), Algorithm::Base);
        adv.tick(&mut src, 1.0);
        // The workload's hot set flips.
        src.profiles.get_mut(&SiteId(0)).unwrap().load_misses_est = 1e3;
        src.profiles.get_mut(&SiteId(1)).unwrap().load_misses_est = 1e9;
        src.dirty = vec![SiteId(0), SiteId(1)];
        let revs = adv.tick(&mut src, 2.0);
        assert_eq!(revs.len(), 2, "demotion and promotion");
        assert_eq!(adv.tier_of(SiteId(0)), TierId::PMEM);
        assert_eq!(adv.tier_of(SiteId(1)), TierId::DRAM);
    }

    #[test]
    fn hysteresis_boosts_only_the_current_incumbents() {
        // Two 4 GiB sites fit the budget. With h = 0.5 an incumbent's
        // estimate counts 1.5×, recomputed every tick from the unboosted
        // value — including for a clean site that has just lost its slot.
        let mut src = FakeSource {
            dirty: vec![SiteId(0), SiteId(1), SiteId(2)],
            profiles: [(SiteId(0), site(0, 4, 100.0)), (SiteId(1), site(1, 4, 90.0))]
                .into_iter()
                .chain([(SiteId(2), site(2, 4, 10.0))])
                .collect(),
        };
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(8), Algorithm::Base)
            .with_hysteresis(0.5);
        adv.tick(&mut src, 1.0);
        assert_eq!(adv.assignment().unwrap().sites_in(TierId::DRAM), vec![SiteId(0), SiteId(1)]);
        // Site 2 heats up and takes site 1's slot (200 > 1.5 × 90).
        src.profiles.get_mut(&SiteId(2)).unwrap().load_misses_est = 200.0;
        src.dirty = vec![SiteId(2)];
        adv.tick(&mut src, 2.0);
        assert_eq!(adv.assignment().unwrap().sites_in(TierId::DRAM), vec![SiteId(0), SiteId(2)]);
        // Site 0 cools to 80: boosted to 120 it still beats clean site 1,
        // which is no longer an incumbent and counts its plain 90.
        src.profiles.get_mut(&SiteId(0)).unwrap().load_misses_est = 80.0;
        src.dirty = vec![SiteId(0)];
        assert!(adv.tick(&mut src, 3.0).is_empty());
        assert_eq!(adv.assignment().unwrap().sites_in(TierId::DRAM), vec![SiteId(0), SiteId(2)]);
    }

    #[test]
    fn vanished_sites_leave_the_cache() {
        let mut src = FakeSource {
            dirty: vec![SiteId(0)],
            profiles: [(SiteId(0), site(0, 4, 1e9))].into_iter().collect(),
        };
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(6), Algorithm::Base);
        adv.tick(&mut src, 1.0);
        src.profiles.clear();
        src.dirty = vec![SiteId(0)];
        let revs = adv.tick(&mut src, 2.0);
        assert_eq!(adv.tier_of(SiteId(0)), TierId::PMEM, "unknown again → fallback");
        assert_eq!(revs.len(), 1);
        assert!(adv.stacks().is_empty());
    }
}
