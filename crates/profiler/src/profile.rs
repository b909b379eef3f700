//! Aggregated profiling results — the analyzer's output and the Advisor's
//! input.

use memtrace::{BinaryMap, CallStack, ObjectId, SiteId};
use serde::{Deserialize, Serialize};

/// One dynamic allocation's observed lifetime and sampled activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectLifetime {
    /// The allocation instance.
    pub object: ObjectId,
    /// Size in bytes.
    pub size: u64,
    /// Allocation timestamp, seconds.
    pub alloc_time: f64,
    /// Free timestamp, seconds (end of trace if never freed).
    pub free_time: f64,
    /// LLC load-miss samples attributed to the object.
    pub load_samples: u64,
    /// Store samples attributed to the object.
    pub store_samples: u64,
    /// Store samples that missed the L1D.
    pub store_l1d_miss_samples: u64,
    /// System off-chip bandwidth (bytes/s, sample-estimated) in the window
    /// right after the allocation — the "Allocation BW" axis of Table II.
    pub bw_at_alloc: f64,
}

impl ObjectLifetime {
    /// Lifetime in seconds.
    pub fn lifetime(&self) -> f64 {
        (self.free_time - self.alloc_time).max(0.0)
    }
}

/// Per-allocation-site aggregate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteProfile {
    /// The allocation site.
    pub site: SiteId,
    /// Its call stack (canonical form).
    pub stack: CallStack,
    /// Number of allocations observed.
    pub alloc_count: u64,
    /// Largest single allocation observed, bytes (the Advisor's reported
    /// size, §IV-A).
    pub max_size: u64,
    /// Total bytes allocated across all the site's allocations. The base
    /// algorithm, having no temporal information, must budget DRAM with
    /// this conservative figure — it cannot know that the 200 instances of
    /// a scratch buffer never coexist. The bandwidth-aware pass, which has
    /// timestamps, can use the true peak live footprint instead.
    pub total_bytes: u64,
    /// Peak simultaneously-live bytes of the site (from timestamps).
    pub peak_live_bytes: u64,
    /// Estimated LLC load misses over the run (samples × period).
    pub load_misses_est: f64,
    /// Estimated L1D store misses over the run.
    pub store_misses_est: f64,
    /// True if any store sample was attributed to the site.
    pub has_stores: bool,
    /// First allocation timestamp.
    pub first_alloc: f64,
    /// Last free timestamp.
    pub last_free: f64,
    /// Mean system bandwidth at the site's allocations, bytes/s.
    pub bw_at_alloc: f64,
    /// The site's own average bandwidth demand while alive: estimated
    /// misses × cacheline / aggregate lifetime (§VII's per-object metric).
    pub avg_bw: f64,
    /// Per-object lifetimes.
    pub objects: Vec<ObjectLifetime>,
}

impl SiteProfile {
    /// A profile of `site` with no objects and every aggregate zero: the
    /// blank an aggregation fills in.
    pub fn empty(site: SiteId) -> SiteProfile {
        SiteProfile {
            site,
            stack: CallStack::default(),
            alloc_count: 0,
            max_size: 0,
            total_bytes: 0,
            peak_live_bytes: 0,
            load_misses_est: 0.0,
            store_misses_est: 0.0,
            has_stores: false,
            first_alloc: 0.0,
            last_free: 0.0,
            bw_at_alloc: 0.0,
            avg_bw: 0.0,
            objects: Vec::new(),
        }
    }

    /// The miss estimates the objects' samples give: load-miss samples ×
    /// `load_period` and L1D store-miss samples × `store_period`.
    pub fn sampled_misses(&self, load_period: f64, store_period: f64) -> (f64, f64) {
        let load_samples: u64 = self.objects.iter().map(|o| o.load_samples).sum();
        let store_miss_samples: u64 = self.objects.iter().map(|o| o.store_l1d_miss_samples).sum();
        (load_samples as f64 * load_period, store_miss_samples as f64 * store_period)
    }

    /// The per-site aggregation: sets every site-level statistic from
    /// [`Self::objects`], which must be in object-id order, plus the two
    /// miss estimates and the peak-live bytes the caller derived. The
    /// analyzer and the streaming ingestor both aggregate here, so their
    /// floating-point sums run in the same order and agree to the bit.
    pub fn aggregate(&mut self, load_misses_est: f64, store_misses_est: f64, peak_live_bytes: u64) {
        let objs = &self.objects;
        let alloc_count = objs.len() as u64;
        self.alloc_count = alloc_count;
        self.max_size = objs.iter().map(|o| o.size).max().unwrap_or(0);
        self.total_bytes = objs.iter().map(|o| o.size).sum();
        self.peak_live_bytes = peak_live_bytes;
        self.load_misses_est = load_misses_est;
        self.store_misses_est = store_misses_est;
        self.has_stores = objs.iter().any(|o| o.store_samples > 0);
        self.first_alloc = objs.iter().map(|o| o.alloc_time).fold(f64::INFINITY, f64::min);
        self.last_free = objs.iter().map(|o| o.free_time).fold(0.0, f64::max);
        self.bw_at_alloc =
            objs.iter().map(|o| o.bw_at_alloc).sum::<f64>() / alloc_count.max(1) as f64;
        let total_lifetime = self.total_lifetime();
        self.avg_bw = if total_lifetime > 0.0 {
            (load_misses_est + store_misses_est) * 64.0 / total_lifetime
        } else {
            0.0
        };
    }

    /// Aggregate lifetime (sum over objects), seconds.
    pub fn total_lifetime(&self) -> f64 {
        self.objects.iter().map(|o| o.lifetime()).sum()
    }

    /// The base Advisor's value density under load/store coefficients:
    /// weighted estimated misses per byte of (conservatively budgeted)
    /// capacity.
    pub fn density(&self, load_coeff: f64, store_coeff: f64) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        (load_coeff * self.load_misses_est + store_coeff * self.store_misses_est)
            / self.total_bytes as f64
    }
}

/// Peak simultaneously-live bytes among one site's objects: the largest
/// running sum over their edges — `(alloc_time, +size)` and
/// `(free_time, -size)` — sorted by time, then by delta.
pub fn peak_live(objects: &[ObjectLifetime]) -> u64 {
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(objects.len() * 2);
    for o in objects {
        edges.push((o.alloc_time, o.size as i64));
        edges.push((o.free_time, -(o.size as i64)));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as u64
}

/// The analyzer's complete output for one profiled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSet {
    /// Application name from the trace.
    pub app_name: String,
    /// Run duration, seconds.
    pub duration: f64,
    /// Per-site statistics, ordered by site id.
    pub sites: Vec<SiteProfile>,
    /// Sample-estimated system off-chip bandwidth time series,
    /// `(bin_start_seconds, bytes_per_second)`.
    pub bw_series: Vec<(f64, f64)>,
    /// Peak of [`Self::bw_series`] — the reference for the bandwidth-aware
    /// thresholds (T_PMEMLOW / T_PMEMHIGH are fractions of this).
    pub peak_bw: f64,
    /// The program image carried over from the trace (needed to emit
    /// human-readable reports and to cost HR matching).
    pub binmap: BinaryMap,
}

impl ProfileSet {
    /// Looks up one site's profile.
    pub fn site(&self, site: SiteId) -> Option<&SiteProfile> {
        self.sites.iter().find(|s| s.site == site)
    }

    /// An index of [`Self::sites`] by site, for callers that resolve
    /// many sites: built once, it answers what [`Self::site`] answers in
    /// O(log sites).
    pub fn site_index(&self) -> SiteIndex<'_> {
        let mut by_site: Vec<(SiteId, usize)> =
            self.sites.iter().enumerate().map(|(i, s)| (s.site, i)).collect();
        // Stable: a repeated site keeps its first entry first.
        by_site.sort_by_key(|&(s, _)| s);
        SiteIndex { profile: self, by_site }
    }

    /// Total estimated load misses across sites.
    pub fn total_load_misses(&self) -> f64 {
        self.sites.iter().map(|s| s.load_misses_est).sum()
    }
}

/// [`ProfileSet::site`] over a sorted index; see [`ProfileSet::site_index`].
#[derive(Debug)]
pub struct SiteIndex<'a> {
    profile: &'a ProfileSet,
    by_site: Vec<(SiteId, usize)>,
}

impl<'a> SiteIndex<'a> {
    /// The profile [`ProfileSet::site`] returns for `site`.
    pub fn get(&self, site: SiteId) -> Option<&'a SiteProfile> {
        let i = self.by_site.partition_point(|&(s, _)| s < site);
        match self.by_site.get(i) {
            Some(&(s, at)) if s == site => Some(&self.profile.sites[at]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CallStack, Frame, ModuleId};

    fn site_profile() -> SiteProfile {
        SiteProfile {
            site: SiteId(0),
            stack: CallStack::new(vec![Frame::new(ModuleId(0), 0x10)]),
            alloc_count: 2,
            max_size: 1000,
            total_bytes: 2000,
            peak_live_bytes: 1000,
            load_misses_est: 4000.0,
            store_misses_est: 1000.0,
            has_stores: true,
            first_alloc: 0.0,
            last_free: 10.0,
            bw_at_alloc: 1e9,
            avg_bw: 2e8,
            objects: vec![
                ObjectLifetime {
                    object: ObjectId(1),
                    size: 1000,
                    alloc_time: 0.0,
                    free_time: 4.0,
                    load_samples: 3,
                    store_samples: 1,
                    store_l1d_miss_samples: 1,
                    bw_at_alloc: 1e9,
                },
                ObjectLifetime {
                    object: ObjectId(2),
                    size: 1000,
                    alloc_time: 5.0,
                    free_time: 10.0,
                    load_samples: 2,
                    store_samples: 0,
                    store_l1d_miss_samples: 0,
                    bw_at_alloc: 1e9,
                },
            ],
        }
    }

    #[test]
    fn density_uses_total_bytes_and_coefficients() {
        let s = site_profile();
        assert!((s.density(1.0, 0.0) - 2.0).abs() < 1e-12);
        assert!((s.density(1.0, 2.0) - 3.0).abs() < 1e-12);
        let mut z = site_profile();
        z.total_bytes = 0;
        assert_eq!(z.density(1.0, 1.0), 0.0);
    }

    #[test]
    fn lifetimes_sum() {
        let s = site_profile();
        assert!((s.total_lifetime() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bw_at_steps_through_series() {
        // One-second bins whose load samples (one miss each, 64 B) make
        // the series 1, 5 and 2 GB/s.
        let bins = [0.0, 1.0, 2.0];
        let loads = [15_625_000, 78_125_000, 31_250_000];
        let bw = crate::BwContext::new(&bins, &loads, &[0, 0, 0], 1.0, 1.0, 3.0);
        assert_eq!(bw.series, vec![(0.0, 1e9), (1.0, 5e9), (2.0, 2e9)]);
        assert_eq!(bw.at(0.5), 1e9);
        assert_eq!(bw.at(1.5), 5e9);
        assert_eq!(bw.at(9.0), 2e9);
        // Before the first bin the answer is bin 0's, as every profile's
        // `bw_at_alloc` records it.
        assert_eq!(bw.at(-1.0), 1e9);
    }

    #[test]
    fn site_index_answers_like_site() {
        // Unsorted, with a repeated site: `site` returns the first entry.
        let ids = [7u32, 2, 9, 2, 4];
        let sites = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| SiteProfile {
                site: SiteId(id),
                alloc_count: i as u64,
                ..site_profile()
            })
            .collect();
        let p = ProfileSet {
            app_name: "t".into(),
            duration: 1.0,
            sites,
            bw_series: vec![],
            peak_bw: 0.0,
            binmap: BinaryMap::default(),
        };
        let index = p.site_index();
        for id in 0..12 {
            assert_eq!(index.get(SiteId(id)), p.site(SiteId(id)), "site {id}");
        }
        assert_eq!(index.get(SiteId(2)).unwrap().alloc_count, 1);
    }
}
