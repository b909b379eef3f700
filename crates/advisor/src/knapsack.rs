//! The base placement algorithm: greedy multiple-knapsack by miss density.
//!
//! §IV-B: tiers are processed in descending performance order, each as a
//! knapsack whose items are allocation sites. A site's value is its miss
//! density — weighted misses divided by its size — so the densest sites
//! (most stall-savings per DRAM byte) go to the fastest memory first.
//!
//! Capacity accounting is deliberately conservative: a site is charged its
//! **total allocated bytes** across the run. The base algorithm has no
//! temporal information (timestamps are only collected for the
//! bandwidth-aware extension, §VII), so it cannot know that the 200
//! instances of a per-iteration scratch buffer never coexist — it must
//! assume they might. This is precisely why frequently-reallocated,
//! bandwidth-hungry scratch sites end up in PMem under the base algorithm
//! (Fig. 4) and why the timestamp-equipped bandwidth-aware pass can do
//! better.

use crate::config::AdvisorConfig;
use memtrace::{SiteId, TierId};
use profiler::{ProfileSet, SiteProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Alternative knapsack value functions, for the design-choice ablation.
/// The paper's Advisor uses [`ValueFunction::MissDensity`]; the others are
/// plausible rivals the ablation bench compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValueFunction {
    /// Weighted misses per byte (the paper, §IV-B: "the ratio of cache
    /// misses divided by object size, to represent the density of misses").
    #[default]
    MissDensity,
    /// Raw weighted misses: big hot objects beat small hot objects even if
    /// they waste budget.
    RawMisses,
    /// Weighted misses per byte-second of occupancy: like density, but a
    /// short-lived site's capacity cost is discounted by its lifetime
    /// share (a *temporal* density — closer to an optimal DRAM-byte rent).
    MissesPerByteSecond,
}

impl ValueFunction {
    /// Evaluates the function for one site under the tier's coefficients.
    pub fn value(self, s: &SiteProfile, load_coeff: f64, store_coeff: f64, duration: f64) -> f64 {
        let weighted = load_coeff * s.load_misses_est + store_coeff * s.store_misses_est;
        match self {
            ValueFunction::MissDensity => {
                if s.total_bytes == 0 {
                    0.0
                } else {
                    weighted / s.total_bytes as f64
                }
            }
            ValueFunction::RawMisses => weighted,
            ValueFunction::MissesPerByteSecond => {
                let occupancy =
                    s.peak_live_bytes as f64 * s.total_lifetime().max(1e-9) / duration.max(1e-9);
                if occupancy <= 0.0 {
                    0.0
                } else {
                    weighted / occupancy
                }
            }
        }
    }
}

/// A placement decision set: site → tier, plus the fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Tier per site (every profiled site is present).
    pub tiers: HashMap<SiteId, TierId>,
    /// Fallback tier.
    pub fallback: TierId,
    /// Bytes the plan charged against each configured tier, in config
    /// order.
    pub charged: Vec<(TierId, u64)>,
}

impl Assignment {
    /// Tier chosen for a site (fallback if unknown).
    pub fn tier_of(&self, site: SiteId) -> TierId {
        self.tiers.get(&site).copied().unwrap_or(self.fallback)
    }

    /// Sites assigned to a given tier.
    pub fn sites_in(&self, tier: TierId) -> Vec<SiteId> {
        let mut v: Vec<SiteId> =
            self.tiers.iter().filter(|(_, t)| **t == tier).map(|(s, _)| *s).collect();
        v.sort();
        v
    }
}

/// Runs the greedy multiple-knapsack placement with the paper's value
/// function.
pub fn assign(profile: &ProfileSet, config: &AdvisorConfig) -> Assignment {
    assign_with(profile, config, ValueFunction::MissDensity)
}

/// Runs the greedy multiple-knapsack placement with a chosen value
/// function (the ablation entry point).
pub fn assign_with(
    profile: &ProfileSet,
    config: &AdvisorConfig,
    value_fn: ValueFunction,
) -> Assignment {
    config.validate().expect("invalid advisor configuration");
    let _span = ecohmem_obs::span("advisor.knapsack");

    let index = profile.site_index();
    let site = |s: SiteId| index.get(s).expect("site came from the profile");
    let mut remaining: Vec<SiteId> = profile.sites.iter().map(|s| s.site).collect();
    let mut tiers: HashMap<SiteId, TierId> = HashMap::new();
    let mut charged = Vec::with_capacity(config.tiers.len());

    for budget in &config.tiers {
        // Rank the still-unplaced sites by density under this tier's
        // coefficients, tie-broken by site id for determinism.
        let mut ranked: Vec<(f64, SiteId)> = remaining
            .iter()
            .map(|&s| {
                let v = value_fn.value(
                    site(s),
                    budget.load_coeff,
                    budget.store_coeff,
                    profile.duration,
                );
                (v, s)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));

        let mut used = 0u64;
        ecohmem_obs::count("advisor.knapsack.evaluations", ranked.len() as u64);
        for (density, s) in ranked {
            // Sites with zero observed misses bring no value; leave them to
            // later tiers / the fallback rather than wasting budget.
            if density <= 0.0 {
                continue;
            }
            let bytes = site(s).total_bytes;
            if used + bytes <= budget.capacity {
                used += bytes;
                tiers.insert(s, budget.tier);
            }
        }
        if budget.capacity > 0 {
            ecohmem_obs::gauge_set(
                &format!("advisor.{}.fill_pct", budget.tier),
                100.0 * used as f64 / budget.capacity as f64,
            );
        }
        charged.push((budget.tier, used));
        // Sites placed on earlier tiers already left `remaining`.
        remaining.retain(|s| !tiers.contains_key(s));
    }

    // Anything left (zero-value sites, or overflow of every budget) goes to
    // the fallback.
    ecohmem_obs::count("advisor.sites.fallback", remaining.len() as u64);
    for s in remaining {
        tiers.insert(s, config.fallback);
    }

    Assignment { tiers, fallback: config.fallback, charged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{BinaryMap, CallStack, Frame, ModuleId, ObjectId};
    use profiler::{ObjectLifetime, SiteProfile};

    fn mk_site(
        id: u32,
        total_bytes: u64,
        load_misses: f64,
        store_misses: f64,
        alloc_count: u64,
    ) -> SiteProfile {
        SiteProfile {
            site: SiteId(id),
            stack: CallStack::new(vec![Frame::new(ModuleId(0), 64 * id as u64)]),
            alloc_count,
            max_size: total_bytes / alloc_count.max(1),
            total_bytes,
            peak_live_bytes: total_bytes / alloc_count.max(1),
            load_misses_est: load_misses,
            store_misses_est: store_misses,
            has_stores: store_misses > 0.0,
            first_alloc: 0.0,
            last_free: 10.0,
            bw_at_alloc: 0.0,
            avg_bw: 0.0,
            objects: vec![ObjectLifetime {
                object: ObjectId(id as u64),
                size: total_bytes / alloc_count.max(1),
                alloc_time: 0.0,
                free_time: 10.0,
                load_samples: 1,
                store_samples: 0,
                store_l1d_miss_samples: 0,
                bw_at_alloc: 0.0,
            }],
        }
    }

    fn mk_profile(sites: Vec<SiteProfile>) -> ProfileSet {
        ProfileSet {
            app_name: "t".into(),
            duration: 10.0,
            sites,
            bw_series: vec![(0.0, 1e9)],
            peak_bw: 1e9,
            binmap: BinaryMap::default(),
        }
    }

    #[test]
    fn densest_sites_win_dram() {
        let profile = mk_profile(vec![
            mk_site(0, 1 << 30, 1e9, 0.0, 1), // density ~0.93
            mk_site(1, 1 << 30, 1e6, 0.0, 1), // density ~0.001
            mk_site(2, 1 << 30, 1e8, 0.0, 1),
        ]);
        let cfg = AdvisorConfig::loads_only(2);
        let a = assign(&profile, &cfg);
        assert_eq!(a.tier_of(SiteId(0)), TierId::DRAM);
        assert_eq!(a.tier_of(SiteId(2)), TierId::DRAM);
        assert_eq!(a.tier_of(SiteId(1)), TierId::PMEM);
    }

    #[test]
    fn capacity_is_respected() {
        let profile = mk_profile(vec![
            mk_site(0, 3 << 30, 1e9, 0.0, 1),
            mk_site(1, 3 << 30, 9e8, 0.0, 1),
            mk_site(2, 3 << 30, 8e8, 0.0, 1),
        ]);
        let cfg = AdvisorConfig::loads_only(4);
        let a = assign(&profile, &cfg);
        let dram_bytes: u64 =
            a.sites_in(TierId::DRAM).iter().map(|s| profile.site(*s).unwrap().total_bytes).sum();
        assert!(dram_bytes <= 4 << 30);
        assert_eq!(a.sites_in(TierId::DRAM).len(), 1);
    }

    #[test]
    fn total_bytes_accounting_excludes_reallocated_scratch() {
        // A scratch site: 100 allocations of 64 MiB (total 6.4 GiB) but
        // only ever 64 MiB live. The base algorithm must charge the total
        // and therefore skip it on a 4 GiB budget, despite high density.
        let mut scratch = mk_site(0, 100 * (64 << 20), 8e9, 0.0, 100);
        scratch.peak_live_bytes = 64 << 20;
        let profile = mk_profile(vec![scratch, mk_site(1, 1 << 30, 1e8, 0.0, 1)]);
        let cfg = AdvisorConfig::loads_only(4);
        let a = assign(&profile, &cfg);
        assert_eq!(a.tier_of(SiteId(0)), TierId::PMEM, "scratch charged by total");
        assert_eq!(a.tier_of(SiteId(1)), TierId::DRAM);
    }

    #[test]
    fn store_coefficient_changes_the_ranking() {
        // Site 0: read-dense. Site 1: write-dense. Budget fits only one.
        let profile =
            mk_profile(vec![mk_site(0, 1 << 30, 5e8, 0.0, 1), mk_site(1, 1 << 30, 1e8, 4e8, 1)]);
        let loads = assign(&profile, &AdvisorConfig::loads_only(1));
        assert_eq!(loads.tier_of(SiteId(0)), TierId::DRAM);
        assert_eq!(loads.tier_of(SiteId(1)), TierId::PMEM);
        let both = assign(&profile, &AdvisorConfig::loads_and_stores(1));
        assert_eq!(both.tier_of(SiteId(1)), TierId::DRAM, "stores now dominate");
        assert_eq!(both.tier_of(SiteId(0)), TierId::PMEM);
    }

    #[test]
    fn zero_value_sites_fall_back() {
        let profile = mk_profile(vec![mk_site(0, 1 << 20, 0.0, 0.0, 1)]);
        let a = assign(&profile, &AdvisorConfig::loads_only(12));
        assert_eq!(a.tier_of(SiteId(0)), TierId::PMEM);
    }

    #[test]
    fn empty_profile_is_fine() {
        let profile = mk_profile(vec![]);
        let a = assign(&profile, &AdvisorConfig::loads_only(12));
        assert!(a.tiers.is_empty());
        assert_eq!(a.fallback, TierId::PMEM);
    }

    #[test]
    fn raw_misses_prefers_big_hot_objects() {
        // Site 0: huge, many misses. Site 1: tiny, dense. Budget fits only
        // one of them by total bytes.
        let profile =
            mk_profile(vec![mk_site(0, 3 << 30, 5e9, 0.0, 1), mk_site(1, 64 << 20, 1e9, 0.0, 1)]);
        let cfg = AdvisorConfig::loads_only(3);
        let density = assign_with(&profile, &cfg, ValueFunction::MissDensity);
        assert_eq!(density.tier_of(SiteId(1)), TierId::DRAM, "density likes the small site");
        let raw = assign_with(&profile, &cfg, ValueFunction::RawMisses);
        assert_eq!(raw.tier_of(SiteId(0)), TierId::DRAM, "raw misses likes the big one");
    }

    #[test]
    fn temporal_density_discounts_short_lived_sites() {
        // A reallocated scratch site occupies its live footprint only
        // briefly; temporal density ranks it above a same-density
        // persistent site.
        let mut scratch = mk_site(0, 100 * (64 << 20), 8e9, 0.0, 100);
        scratch.peak_live_bytes = 64 << 20;
        scratch.objects[0].free_time = 0.5; // short-lived
        let persistent = mk_site(1, 1 << 30, 1.5e9, 0.0, 1);
        let profile = mk_profile(vec![scratch, persistent]);
        let s0 = profile.site(SiteId(0)).unwrap();
        let s1 = profile.site(SiteId(1)).unwrap();
        let v = ValueFunction::MissesPerByteSecond;
        assert!(
            v.value(s0, 1.0, 0.0, profile.duration) > v.value(s1, 1.0, 0.0, profile.duration),
            "temporal density must reward short occupancy"
        );
        // The paper's density does the opposite here.
        assert!(s0.density(1.0, 0.0) < s1.density(1.0, 0.0));
    }

    #[test]
    fn unknown_site_uses_fallback() {
        let profile = mk_profile(vec![]);
        let a = assign(&profile, &AdvisorConfig::loads_only(12));
        assert_eq!(a.tier_of(SiteId(99)), TierId::PMEM);
    }
}
