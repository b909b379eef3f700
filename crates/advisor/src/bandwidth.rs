//! The bandwidth-aware placement algorithm (contribution §VII).
//!
//! Step 1 — categorization (Table IV):
//!
//! | initial tier | category    | criterion |
//! |--------------|-------------|-----------|
//! | DRAM         | Fitting     | < T_ALLOC allocations and allocation-time bandwidth below T_PMEMLOW |
//! | DRAM         | Streaming-D | no writes, > T_ALLOC allocations, bandwidth below T_PMEMLOW |
//! | PMEM         | Thrashing   | > T_ALLOC allocations and bandwidth above T_PMEMHIGH |
//!
//! with T_ALLOC = 2, T_PMEMLOW = 20% and T_PMEMHIGH = 40% of the peak
//! observed bandwidth (§VII-B1). The paper's empirical insight: objects
//! with many allocations live briefly and stay in the bandwidth region of
//! their allocation, so allocation-time bandwidth is a reliable label for
//! them; rarely-allocated objects roam regions and are only safe to use as
//! *donors* of DRAM capacity.
//!
//! Step 2 — placement (Algorithm 1): Streaming-D sites are demoted to PMEM
//! outright (releasing DRAM), then Thrashing sites — sorted by bandwidth
//! consumption, then allocation/deallocation time — are moved into DRAM,
//! each evicting the smallest Fitting site(s) that can accommodate it *for
//! its entire lifetime*. Because timestamps are available here, capacity
//! is budgeted by peak live footprint rather than the base algorithm's
//! conservative total-bytes charge; the slack a large evicted Fitting site
//! leaves behind is reused before further evictions (a small refinement of
//! the paper's 1:1 swap that never does worse).

use crate::config::AdvisorConfig;
use crate::knapsack::Assignment;
use memtrace::{SiteId, TierId};
use profiler::ProfileSet;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Classification thresholds (§VII-B1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BwThresholds {
    /// Allocation-count threshold (paper: 2).
    pub t_alloc: u64,
    /// Low-bandwidth fraction of peak (paper: 0.2).
    pub low_frac: f64,
    /// High-bandwidth fraction of peak (paper: 0.4).
    pub high_frac: f64,
}

impl BwThresholds {
    /// The paper's empirically chosen thresholds (§VII-B1): T_ALLOC = 2,
    /// T_PMEMLOW = 20%, T_PMEMHIGH = 40% of peak bandwidth. The single
    /// source of truth — `Default` and the threshold ablation bench both
    /// derive from this constant.
    pub const PAPER: BwThresholds = BwThresholds { t_alloc: 2, low_frac: 0.2, high_frac: 0.4 };
}

impl Default for BwThresholds {
    fn default() -> Self {
        BwThresholds::PAPER
    }
}

/// Step-1 category of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Category {
    /// DRAM resident, few allocations, low allocation-time bandwidth: may
    /// donate its DRAM space.
    Fitting,
    /// DRAM resident, read-only, many allocations, low bandwidth: demote.
    StreamingD,
    /// PMEM resident, many allocations, high bandwidth: promote.
    Thrashing,
    /// Everything else: left where the base algorithm put it.
    Unclassified,
}

/// The classifier's output for one profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Category per site.
    pub categories: HashMap<SiteId, Category>,
    /// The bandwidth thresholds in absolute bytes/s (resolved against the
    /// profile's peak).
    pub low_bw: f64,
    /// Absolute high threshold, bytes/s.
    pub high_bw: f64,
}

impl Classification {
    /// Category of a site.
    pub fn category(&self, site: SiteId) -> Category {
        self.categories.get(&site).copied().unwrap_or(Category::Unclassified)
    }

    /// All sites of one category, sorted.
    pub fn sites_of(&self, cat: Category) -> Vec<SiteId> {
        let mut v: Vec<SiteId> =
            self.categories.iter().filter(|(_, c)| **c == cat).map(|(s, _)| *s).collect();
        v.sort();
        v
    }
}

/// Allocation-time bandwidth made total for classification. A site whose
/// alloc and dealloc timestamps coincide (zero lifetime) divides zero
/// samples by zero seconds and reports NaN; every threshold comparison on
/// NaN is false, so such sites used to silently escape classification. The
/// convention: a degenerate lifetime exerted no measurable bandwidth
/// pressure, so it counts as zero demand — in DRAM with few allocations
/// that makes the site Fitting (a donor), exactly how a zero-traffic site
/// should be treated.
fn effective_bw(bw: f64) -> f64 {
    if bw.is_finite() {
        bw
    } else {
        0.0
    }
}

/// Step 1: classify every site (Table IV).
pub fn classify(
    profile: &ProfileSet,
    base: &Assignment,
    fast_tier: TierId,
    thresholds: &BwThresholds,
) -> Classification {
    let low_bw = thresholds.low_frac * profile.peak_bw;
    let high_bw = thresholds.high_frac * profile.peak_bw;
    let mut categories = HashMap::with_capacity(profile.sites.len());
    for s in &profile.sites {
        let tier = base.tier_of(s.site);
        let in_dram = tier == fast_tier;
        let bw_at_alloc = effective_bw(s.bw_at_alloc);
        let cat = if in_dram && s.alloc_count < thresholds.t_alloc && bw_at_alloc < low_bw {
            Category::Fitting
        } else if in_dram
            && !s.has_stores
            && s.alloc_count > thresholds.t_alloc
            && bw_at_alloc < low_bw
        {
            Category::StreamingD
        } else if !in_dram && s.alloc_count > thresholds.t_alloc && bw_at_alloc > high_bw {
            Category::Thrashing
        } else {
            Category::Unclassified
        };
        categories.insert(s.site, cat);
    }
    let tally = |cat: Category| categories.values().filter(|c| **c == cat).count() as u64;
    ecohmem_obs::count("advisor.class.fitting", tally(Category::Fitting));
    ecohmem_obs::count("advisor.class.streaming_d", tally(Category::StreamingD));
    ecohmem_obs::count("advisor.class.thrashing", tally(Category::Thrashing));
    Classification { categories, low_bw, high_bw }
}

/// Step 2: Algorithm 1. Returns the modified assignment and the
/// classification used.
pub fn rebalance(
    profile: &ProfileSet,
    base: &Assignment,
    config: &AdvisorConfig,
    thresholds: &BwThresholds,
) -> (Assignment, Classification) {
    let _span = ecohmem_obs::span("advisor.rebalance");
    let fast_tier = config.primary().tier;
    let classification = classify(profile, base, fast_tier, thresholds);
    let mut out = base.clone();
    let index = profile.site_index();
    let site = |s: SiteId| index.get(s).expect("classified sites exist");

    // All Streaming-D sites go to the fallback (PMEM), releasing capacity.
    let mut slack: i64 = 0;
    for s in classification.sites_of(Category::StreamingD) {
        out.tiers.insert(s, config.fallback);
        slack += site(s).total_bytes as i64; // base had charged total bytes
    }

    // Thrashing sites, sorted by bandwidth consumption then by allocation
    // and deallocation time (Algorithm 1's ordering).
    let mut thrashing = classification.sites_of(Category::Thrashing);
    thrashing.sort_by(|a, b| {
        let (pa, pb) = (site(*a), site(*b));
        // total_cmp: degenerate-lifetime sites carry NaN bandwidths, which
        // must order deterministically instead of panicking.
        effective_bw(pb.avg_bw)
            .total_cmp(&effective_bw(pa.avg_bw))
            .then(pa.first_alloc.total_cmp(&pb.first_alloc))
            .then(pa.last_free.total_cmp(&pb.last_free))
    });

    // Fitting donors, smallest first ("smallest number in Fitting that can
    // accommodate").
    let mut fitting = classification.sites_of(Category::Fitting);
    fitting.sort_by_key(|s| site(*s).total_bytes);
    let mut fitting_iter = fitting.into_iter();

    for s in thrashing {
        let need = site(s).peak_live_bytes as i64;
        // Use leftover slack first, then evict donors smallest-first until
        // the Thrashing site's live footprint fits for its whole lifetime.
        let mut evicted = Vec::new();
        while slack < need {
            let Some(donor) = fitting_iter.next() else { break };
            slack += site(donor).total_bytes as i64;
            evicted.push(donor);
        }
        if slack >= need {
            slack -= need;
            out.tiers.insert(s, fast_tier);
            ecohmem_obs::incr("advisor.bw.swaps");
            for donor in evicted {
                out.tiers.insert(donor, config.fallback);
                ecohmem_obs::incr("advisor.bw.donors_evicted");
            }
        } else {
            // Not enough Fitting capacity left: the site stays in PMEM and
            // any donors pulled this round keep their DRAM spot.
            break;
        }
    }

    (out, classification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack;
    use memtrace::{BinaryMap, CallStack, Frame, ModuleId, ObjectId};
    use profiler::{ObjectLifetime, SiteProfile};

    /// A profile with one big Fitting DRAM site, one Streaming-D table,
    /// one Thrashing scratch site, and one unclassified PMem site.
    fn scenario() -> (ProfileSet, AdvisorConfig) {
        let mk = |id: u32,
                  alloc_count: u64,
                  total: u64,
                  peak_live: u64,
                  misses: f64,
                  stores: f64,
                  bw_at_alloc: f64,
                  avg_bw: f64| SiteProfile {
            site: SiteId(id),
            stack: CallStack::new(vec![Frame::new(ModuleId(0), 64 * id as u64)]),
            alloc_count,
            max_size: peak_live,
            total_bytes: total,
            peak_live_bytes: peak_live,
            load_misses_est: misses,
            store_misses_est: stores,
            has_stores: stores > 0.0,
            first_alloc: 0.0,
            last_free: 10.0,
            bw_at_alloc,
            avg_bw,
            objects: vec![ObjectLifetime {
                object: ObjectId(id as u64),
                size: peak_live,
                alloc_time: 0.0,
                free_time: 10.0,
                load_samples: 1,
                store_samples: 0,
                store_l1d_miss_samples: 0,
                bw_at_alloc,
            }],
        };
        let gib = 1u64 << 30;
        let profile = ProfileSet {
            app_name: "t".into(),
            duration: 10.0,
            sites: vec![
                // Fitting: dense single-allocation, quiet at alloc.
                mk(0, 1, 3 * gib, 3 * gib, 5e9, 0.0, 0.0, 1e6),
                // Streaming-D: read-only, many allocs, low bw, dense.
                mk(1, 10, gib, gib / 10, 4e9, 0.0, 1e8, 1e6),
                // Thrashing: many allocs, hot at alloc, big totals.
                mk(2, 100, 50 * gib, gib, 3e9, 1e9, 9e9, 5e9),
                // Unclassified PMem site.
                mk(3, 1, 8 * gib, 8 * gib, 1e6, 0.0, 1e8, 1e5),
            ],
            bw_series: vec![(0.0, 1e10)],
            peak_bw: 1e10,
            binmap: BinaryMap::default(),
        };
        (profile, AdvisorConfig::loads_only(4))
    }

    #[test]
    fn classification_matches_table_iv() {
        let (profile, cfg) = scenario();
        let base = knapsack::assign(&profile, &cfg);
        // Base: sites 0 and 1 are dense and fit 4 GiB; 2 and 3 go to PMEM.
        assert_eq!(base.tier_of(SiteId(0)), TierId::DRAM);
        assert_eq!(base.tier_of(SiteId(1)), TierId::DRAM);
        assert_eq!(base.tier_of(SiteId(2)), TierId::PMEM);
        let c = classify(&profile, &base, TierId::DRAM, &BwThresholds::default());
        assert_eq!(c.category(SiteId(0)), Category::Fitting);
        assert_eq!(c.category(SiteId(1)), Category::StreamingD);
        assert_eq!(c.category(SiteId(2)), Category::Thrashing);
        assert_eq!(c.category(SiteId(3)), Category::Unclassified);
    }

    #[test]
    fn algorithm1_swaps_thrashing_into_dram() {
        let (profile, cfg) = scenario();
        let base = knapsack::assign(&profile, &cfg);
        let (out, _) = rebalance(&profile, &base, &cfg, &BwThresholds::default());
        // Streaming-D demoted.
        assert_eq!(out.tier_of(SiteId(1)), TierId::PMEM);
        // Thrashing promoted — its 1 GiB live footprint fits in the slack
        // released by the Streaming-D demotion (1 GiB total bytes).
        assert_eq!(out.tier_of(SiteId(2)), TierId::DRAM);
        // Unclassified untouched.
        assert_eq!(out.tier_of(SiteId(3)), TierId::PMEM);
    }

    #[test]
    fn fitting_donors_are_evicted_when_slack_is_short() {
        let (mut profile, cfg) = scenario();
        // Make the Thrashing site need more than the Streaming-D slack.
        profile.sites[2].peak_live_bytes = 2 << 30;
        let base = knapsack::assign(&profile, &cfg);
        let (out, _) = rebalance(&profile, &base, &cfg, &BwThresholds::default());
        assert_eq!(out.tier_of(SiteId(2)), TierId::DRAM);
        assert_eq!(out.tier_of(SiteId(0)), TierId::PMEM, "Fitting donor evicted");
    }

    #[test]
    fn thrashing_stays_put_without_donors() {
        let (mut profile, cfg) = scenario();
        // No Fitting/Streaming-D at all: make sites 0 and 1 hot at alloc.
        profile.sites[0].bw_at_alloc = 9e9;
        profile.sites[1].bw_at_alloc = 9e9;
        let base = knapsack::assign(&profile, &cfg);
        let (out, c) = rebalance(&profile, &base, &cfg, &BwThresholds::default());
        assert!(c.sites_of(Category::Fitting).is_empty());
        assert_eq!(out.tier_of(SiteId(2)), TierId::PMEM, "nothing to evict");
    }

    #[test]
    fn degenerate_lifetime_site_is_fitting() {
        // Regression (satellite 2), mirroring Table IV: a DRAM site whose
        // alloc and dealloc timestamps coincide reports NaN allocation-time
        // bandwidth (0 samples / 0 seconds). All NaN comparisons are false,
        // so it used to fall through to Unclassified; the pinned convention
        // is that zero-lifetime demand is zero demand → Fitting.
        let (mut profile, cfg) = scenario();
        profile.sites[0].bw_at_alloc = f64::NAN;
        profile.sites[0].avg_bw = f64::NAN;
        profile.sites[0].last_free = profile.sites[0].first_alloc;
        let base = knapsack::assign(&profile, &cfg);
        assert_eq!(base.tier_of(SiteId(0)), TierId::DRAM);
        let c = classify(&profile, &base, TierId::DRAM, &BwThresholds::default());
        assert_eq!(c.category(SiteId(0)), Category::Fitting);
        // The other Table IV rows are unaffected by the convention.
        assert_eq!(c.category(SiteId(1)), Category::StreamingD);
        assert_eq!(c.category(SiteId(2)), Category::Thrashing);
    }

    #[test]
    fn rebalance_orders_nan_bandwidth_sites_without_panicking() {
        // Regression (satellite 2): two Thrashing sites where one carries a
        // NaN average bandwidth used to panic in the promotion sort's
        // `partial_cmp().unwrap()`. NaN orders as zero demand now, so the
        // well-measured site is promoted first.
        let (mut profile, cfg) = scenario();
        profile.sites[3].alloc_count = 100;
        profile.sites[3].bw_at_alloc = 9e9;
        profile.sites[3].avg_bw = f64::NAN;
        let base = knapsack::assign(&profile, &cfg);
        assert_eq!(base.tier_of(SiteId(3)), TierId::PMEM);
        let (out, c) = rebalance(&profile, &base, &cfg, &BwThresholds::default());
        assert_eq!(c.category(SiteId(2)), Category::Thrashing);
        assert_eq!(c.category(SiteId(3)), Category::Thrashing);
        // Site 2 (finite bandwidth) outranks the NaN site for the slack.
        assert_eq!(out.tier_of(SiteId(2)), TierId::DRAM);
    }

    #[test]
    fn thresholds_resolve_against_peak() {
        let (profile, cfg) = scenario();
        let base = knapsack::assign(&profile, &cfg);
        let c = classify(&profile, &base, TierId::DRAM, &BwThresholds::default());
        assert!((c.low_bw - 2e9).abs() < 1.0);
        assert!((c.high_bw - 4e9).abs() < 1.0);
    }

    #[test]
    fn default_thresholds_match_the_paper() {
        let t = BwThresholds::default();
        assert_eq!(t, BwThresholds::PAPER);
        assert_eq!(t.t_alloc, 2);
        assert!((t.low_frac - 0.2).abs() < 1e-12);
        assert!((t.high_frac - 0.4).abs() < 1e-12);
    }
}
