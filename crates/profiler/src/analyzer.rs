//! The trace analyzer — our Paramedir.
//!
//! Consumes a [`TraceFile`] with no access to the engine internals: every
//! statistic is recovered from the events alone, the way the real toolchain
//! recovers them from an Extrae trace. In particular, samples carry only a
//! data linear address, so the analyzer rebuilds the address → object
//! mapping from the allocation events and interval-searches each sample —
//! the same object-matching job Paramedir performs (§IV-A).
//!
//! The analysis is columnar and reads the trace in place. One walk over
//! the trace's [`memtrace::EventBatch`] op stream runs the strict
//! [`memtrace::Validator`] and replays the allocations and frees into the
//! object and site tables ([`memtrace::columns::TraceColumns::build`]);
//! the samples are never copied. An [`memtrace::columns::ObjectIndex`]
//! whose entries inline the liveness window gives zero hash lookups per
//! sample, and sample attribution is fused with bandwidth binning into one
//! pass over each of the batch's own sample columns, accumulating integer
//! sample *counts*. One analysis runs on one thread; parallelism lives
//! where requests are independent (sweep cells, fleet nodes, serve
//! workers).
//!
//! The original event-at-a-time walk over the AoS view
//! ([`memtrace::EventBatch::iter_events`]) survives only as the test
//! oracle [`analyze_legacy`]. The differential suites
//! (`tests/columnar_differential.rs` and the workspace-level
//! `tests/columnar.rs`) prove the two produce identical [`ProfileSet`]s —
//! on the golden workloads, on arbitrary generated traces, and on
//! fault-injected traces after sanitization.

use crate::profile::{ObjectLifetime, ProfileSet, SiteProfile};
use memtrace::columns::{ObjectIndex, TraceColumns};
use memtrace::{BinaryMap, CallStack, EventBatch, ObjectId, SiteId, TraceError, TraceEvent};
use memtrace::{TraceFile, Warning, WarningKind};
use std::collections::HashMap;

/// Same-tier scan bound for interval search, re-exported from the columns
/// module (see there for the derivation from the heap layout).
pub use memtrace::columns::SAME_TIER_SPAN;

/// Analyzes a trace into per-site profiles with the columnar engine.
/// Fails on malformed traces.
pub fn analyze(trace: &TraceFile) -> Result<ProfileSet, TraceError> {
    let _span = ecohmem_obs::span("analyzer.analyze");
    let cols = {
        let _span = ecohmem_obs::span("analyzer.columns.build");
        TraceColumns::build(trace)?
    };
    Ok(analyze_cols(trace, &cols))
}

/// [`analyze`] under its old name: a forward kept for perfbench, which
/// still calls it. ROADMAP item 1 deletes it.
#[doc(hidden)]
pub fn analyze_columnar(trace: &TraceFile) -> Result<ProfileSet, TraceError> {
    analyze(trace)
}

/// The scalar reference analyzer: event-at-a-time over the trace's AoS
/// view. Kept only as the oracle the differential tests compare the
/// columnar engine against.
#[doc(hidden)]
pub fn analyze_legacy(trace: &TraceFile) -> Result<ProfileSet, TraceError> {
    let _span = ecohmem_obs::span("analyzer.analyze.legacy");
    scalar_analyze(trace)
}

/// Lenient analysis: sanitizes the trace — dropping the events strict
/// validation would reject, on a copy only when there is something to
/// drop or repair ([`TraceFile::sanitized`]) — and analyzes the
/// remainder. Never fails: if analysis is still impossible the result is
/// an empty profile (which places everything in the fallback tier
/// downstream) plus a warning saying so. The warning list is nonempty
/// exactly when the trace needed repair or could not be analyzed.
pub fn analyze_lenient(trace: &TraceFile) -> (ProfileSet, Vec<Warning>) {
    let (clean, mut warnings) = trace.sanitized();
    ecohmem_obs::count("analyzer.lenient.repairs", warnings.len() as u64);
    let (profile, failed) =
        profile_or_empty(analyze(&clean), &trace.app_name, clean.duration, &trace.binmap);
    warnings.extend(failed);
    (profile, warnings)
}

/// The lenient policies' last resort: an analysis result, or — when the
/// analysis failed — an empty profile (which places everything in the
/// fallback tier downstream) plus the [`WarningKind::EmptyProfile`]
/// warning saying so.
pub fn profile_or_empty(
    analysis: Result<ProfileSet, TraceError>,
    app_name: &str,
    duration: f64,
    binmap: &BinaryMap,
) -> (ProfileSet, Option<Warning>) {
    match analysis {
        Ok(p) => (p, None),
        Err(e) => (
            ProfileSet {
                app_name: app_name.to_string(),
                duration,
                sites: Vec::new(),
                bw_series: Vec::new(),
                peak_bw: 0.0,
                binmap: binmap.clone(),
            },
            Some(Warning::new(
                WarningKind::EmptyProfile,
                format!(
                    "analysis failed after sanitization: {e}; continuing with an empty profile"
                ),
            )),
        ),
    }
}

/// Converts per-bin sample counts into the `(bin_start, bytes/sec)`
/// bandwidth series plus its peak. Shared by both analyzer paths and the
/// streaming ingestor, so all three derive bit-identical series from the
/// same counts: load misses and L1D store misses each contribute one
/// cacheline per sampling period.
pub fn bandwidth_series(
    bins: &[f64],
    load_counts: &[u64],
    store_miss_counts: &[u64],
    load_period: f64,
    store_period: f64,
    duration: f64,
) -> (Vec<(f64, f64)>, f64) {
    let load_bytes = load_period * 64.0;
    let store_bytes = store_period * 64.0;
    let mut series = Vec::with_capacity(bins.len());
    for (i, &start) in bins.iter().enumerate() {
        let end = bins.get(i + 1).copied().unwrap_or(duration);
        let width = (end - start).max(1e-9);
        let bytes = load_counts[i] as f64 * load_bytes + store_miss_counts[i] as f64 * store_bytes;
        series.push((start, bytes / width));
    }
    let peak = series.iter().map(|&(_, bw)| bw).fold(0.0, f64::max);
    (series, peak)
}

/// Sorted phase-marker bins (at least one, starting at 0 when the trace
/// has no markers) and the bin index of a timestamp.
fn sorted_bins(mut bins: Vec<f64>) -> Vec<f64> {
    if bins.is_empty() {
        bins.push(0.0);
    }
    // total_cmp: a NaN phase-marker time must not panic the analyzer (it
    // sorts last and merely produces a useless bin).
    bins.sort_by(f64::total_cmp);
    bins
}

#[inline]
fn bin_of(bins: &[f64], t: f64) -> usize {
    bins.partition_point(|&b| b <= t).saturating_sub(1)
}

/// [`bin_of`] for scans whose consecutive samples tend to share a bin: it
/// keeps the previous answer's bin `[bins[b], bins[b + 1])` (unbounded
/// above for the last bin or a NaN successor), inside which `bin_of` is
/// constant at `b`. A sample in that bin skips the search; anything else
/// — a bin change, a time below the first bin, a NaN time — falls back to
/// [`bin_of`], so every answer is exactly `bin_of`'s.
struct BinCursor<'a> {
    bins: &'a [f64],
    lo: f64,
    hi: f64,
    bin: usize,
}

impl<'a> BinCursor<'a> {
    /// `bins` as produced by [`sorted_bins`]: nonempty, `total_cmp`-sorted.
    fn new(bins: &'a [f64]) -> BinCursor<'a> {
        let mut c = BinCursor { bins, lo: f64::NAN, hi: f64::NAN, bin: 0 };
        c.remember(0);
        c
    }

    fn remember(&mut self, bin: usize) {
        self.bin = bin;
        // A negative NaN sorts first under `total_cmp`, which leaves the
        // search predicate unpartitioned; a NaN `lo` disables the memo so
        // such bins always take the search path.
        self.lo = if self.bins[0].is_nan() { f64::NAN } else { self.bins[bin] };
        self.hi = match self.bins.get(bin + 1) {
            Some(&next) if !next.is_nan() => next,
            _ => f64::INFINITY,
        };
    }

    #[inline]
    fn bin(&mut self, t: f64) -> usize {
        if !(self.lo <= t && t < self.hi) {
            self.remember(bin_of(self.bins, t));
        }
        self.bin
    }
}

// ---------------------------------------------------------------------------
// Columnar engine
// ---------------------------------------------------------------------------

/// Scan accumulator: integer sample counts per dense object and per
/// bandwidth bin.
struct ScanAcc {
    obj_load: Vec<u64>,
    obj_store: Vec<u64>,
    obj_store_miss: Vec<u64>,
    bin_load: Vec<u64>,
    bin_store_miss: Vec<u64>,
    unmatched: u64,
}

/// Attributes every sample to its object and bins it for the bandwidth
/// series: one pass over each sample column.
fn scan(events: &EventBatch, n_objs: usize, index: &ObjectIndex, bins: &[f64]) -> ScanAcc {
    let mut acc = ScanAcc {
        obj_load: vec![0; n_objs],
        obj_store: vec![0; n_objs],
        obj_store_miss: vec![0; n_objs],
        bin_load: vec![0; bins.len()],
        bin_store_miss: vec![0; bins.len()],
        unmatched: 0,
    };
    // Consecutive samples mostly share a phase bin and often an address
    // gap — time neighbours in a recorded trace, same-object runs in a
    // synthesized one, whose columns are in emission order — so both
    // searches are memoized.
    let mut bin = BinCursor::new(bins);
    let mut objects = index.cursor();
    for i in 0..events.load_times.len() {
        let t = events.load_times[i];
        acc.bin_load[bin.bin(t)] += 1;
        match objects.lookup(events.load_addresses[i], t) {
            Some(d) => acc.obj_load[d as usize] += 1,
            None => acc.unmatched += 1,
        }
    }
    let mut bin = BinCursor::new(bins);
    let mut objects = index.cursor();
    for i in 0..events.store_times.len() {
        let t = events.store_times[i];
        let miss = events.store_l1d_miss[i];
        if miss {
            acc.bin_store_miss[bin.bin(t)] += 1;
        }
        match objects.lookup(events.store_addresses[i], t) {
            Some(d) => {
                acc.obj_store[d as usize] += 1;
                acc.obj_store_miss[d as usize] += u64::from(miss);
            }
            None => acc.unmatched += 1,
        }
    }
    acc
}

/// The columnar analysis core. The trace is already validated and its
/// tables built; the samples are scanned in the trace's own columns.
fn analyze_cols(trace: &TraceFile, cols: &TraceColumns) -> ProfileSet {
    let events = &trace.events;
    let n_objs = cols.objects.len();
    ecohmem_obs::count("analyzer.columns.objects", n_objs as u64);
    ecohmem_obs::count("analyzer.columns.load_samples", events.load_times.len() as u64);
    ecohmem_obs::count("analyzer.columns.store_samples", events.store_times.len() as u64);

    let index = ObjectIndex::build(&cols.objects);
    let bins = sorted_bins(events.phase_times.clone());

    // Fused passes 2+3: attribute samples to objects and bin them for the
    // bandwidth series.
    let total = {
        let _span = ecohmem_obs::span("analyzer.columns.scan");
        scan(events, n_objs, &index, &bins)
    };
    ecohmem_obs::count("analyzer.samples.unmatched", total.unmatched); // not fatal

    let (bw_series, peak_bw) = bandwidth_series(
        &bins,
        &total.bin_load,
        &total.bin_store_miss,
        trace.load_sample_period,
        trace.store_sample_period,
        trace.duration,
    );
    let bw_at =
        |t: f64| -> f64 { bw_series.get(bin_of(&bins, t)).map(|&(_, bw)| bw).unwrap_or(0.0) };

    // Pass 4: aggregate per site, in stack-table order like the scalar
    // path (the final sort by SiteId makes the order moot anyway).
    let o = &cols.objects;
    let mut sites = Vec::with_capacity(cols.site_ids.len());
    let mut views: Vec<ObjView> = Vec::new();
    for (ds, &stack_idx) in cols.site_stacks.iter().enumerate() {
        let objs = &cols.site_objects[ds];
        if objs.is_empty() {
            continue;
        }
        views.clear();
        views.extend(objs.iter().map(|&d| {
            let d = d as usize;
            ObjView {
                id: o.ids[d],
                size: o.sizes[d],
                alloc_time: o.alloc_times[d],
                free_time: o.free_times[d],
                load_samples: total.obj_load[d],
                store_samples: total.obj_store[d],
                store_l1d_miss_samples: total.obj_store_miss[d],
            }
        }));
        let (site, stack) = &trace.stacks[stack_idx];
        sites.push(site_profile(
            *site,
            stack.clone(),
            &views,
            trace.load_sample_period,
            trace.store_sample_period,
            &bw_at,
        ));
    }
    sites.sort_by_key(|s| s.site);
    ecohmem_obs::count("analyzer.sites.aggregated", sites.len() as u64);

    ProfileSet {
        app_name: trace.app_name.to_string(),
        duration: trace.duration,
        sites,
        bw_series,
        peak_bw,
        binmap: trace.binmap.clone(),
    }
}

// ---------------------------------------------------------------------------
// Scalar oracle
// ---------------------------------------------------------------------------

/// Object accumulator built from the allocation events.
struct Obj {
    id: ObjectId,
    site: SiteId,
    size: u64,
    address: u64,
    alloc_time: f64,
    free_time: f64,
    load_samples: u64,
    store_samples: u64,
    store_l1d_miss_samples: u64,
}

/// An address interval with the owner's liveness window inlined, so the
/// search closure never chases a hash map per candidate (freed blocks are
/// recycled at identical addresses, so popular sites produce long
/// candidate runs).
struct Interval {
    start: u64,
    end: u64,
    alloc_time: f64,
    free_time: f64,
    id: ObjectId,
    idx: u32,
}

fn scalar_analyze(trace: &TraceFile) -> Result<ProfileSet, TraceError> {
    trace.validate()?;

    // Pass 1: object table from allocation events — a dense vector in
    // allocation order; the map only resolves ids to slots (an id re-used
    // after free replaces its record, last instance wins).
    let mut objs: Vec<Obj> = Vec::new();
    let mut by_id: HashMap<ObjectId, u32> = HashMap::new();
    for e in trace.events.iter_events() {
        match e {
            TraceEvent::Alloc { time, object, site, size, address } => {
                let rec = Obj {
                    id: object,
                    site,
                    size,
                    address,
                    alloc_time: time,
                    free_time: trace.duration,
                    load_samples: 0,
                    store_samples: 0,
                    store_l1d_miss_samples: 0,
                };
                match by_id.get(&object) {
                    Some(&i) => objs[i as usize] = rec,
                    None => {
                        by_id.insert(object, objs.len() as u32);
                        objs.push(rec);
                    }
                }
            }
            TraceEvent::Free { time, object } => {
                if let Some(&i) = by_id.get(&object) {
                    objs[i as usize].free_time = time;
                }
            }
            _ => {}
        }
    }

    // Address interval index: sorted (start, end, object). Heap addresses
    // are unique per object in the simulated process (freed blocks may be
    // reused, so matching must also check liveness at the sample time).
    let mut intervals: Vec<Interval> = objs
        .iter()
        .enumerate()
        .map(|(i, o)| Interval {
            start: o.address,
            end: o.address + o.size,
            alloc_time: o.alloc_time,
            free_time: o.free_time,
            id: o.id,
            idx: i as u32,
        })
        .collect();
    intervals.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.id));

    let find = |address: u64, time: f64| -> Option<u32> {
        // Candidates share a start ≤ address; scan back from the partition
        // point checking range + liveness against the inlined fields.
        let idx = intervals.partition_point(|iv| iv.start <= address);
        intervals[..idx]
            .iter()
            .rev()
            .take_while(|iv| iv.start + SAME_TIER_SPAN > address) // same-tier guard
            .find(|iv| address < iv.end && time >= iv.alloc_time && time <= iv.free_time)
            .map(|iv| iv.idx)
    };

    // Pass 2: attribute samples.
    let mut unmatched_samples = 0u64;
    for e in trace.events.iter_events() {
        match e {
            TraceEvent::LoadMissSample { time, address, .. } => match find(address, time) {
                Some(i) => objs[i as usize].load_samples += 1,
                None => unmatched_samples += 1,
            },
            TraceEvent::StoreSample { time, address, l1d_miss, .. } => match find(address, time) {
                Some(i) => {
                    let o = &mut objs[i as usize];
                    o.store_samples += 1;
                    o.store_l1d_miss_samples += u64::from(l1d_miss);
                }
                None => unmatched_samples += 1,
            },
            _ => {}
        }
    }
    ecohmem_obs::count("analyzer.samples.unmatched", unmatched_samples); // not fatal

    // Pass 3: system bandwidth series binned by phase markers; integer
    // sample counts per bin, converted by the shared helper so the scalar,
    // columnar and streaming paths agree to the last bit.
    let bins = sorted_bins(
        trace
            .events
            .iter_events()
            .filter_map(|e| match e {
                TraceEvent::PhaseMarker { time, .. } => Some(time),
                _ => None,
            })
            .collect(),
    );
    let mut bin_load = vec![0u64; bins.len()];
    let mut bin_store_miss = vec![0u64; bins.len()];
    for e in trace.events.iter_events() {
        match e {
            TraceEvent::LoadMissSample { time, .. } => bin_load[bin_of(&bins, time)] += 1,
            TraceEvent::StoreSample { time, l1d_miss: true, .. } => {
                bin_store_miss[bin_of(&bins, time)] += 1;
            }
            _ => {}
        }
    }
    let (bw_series, peak_bw) = bandwidth_series(
        &bins,
        &bin_load,
        &bin_store_miss,
        trace.load_sample_period,
        trace.store_sample_period,
        trace.duration,
    );
    let bw_at =
        |t: f64| -> f64 { bw_series.get(bin_of(&bins, t)).map(|&(_, bw)| bw).unwrap_or(0.0) };

    // Pass 4: aggregate per site.
    let mut per_site: HashMap<SiteId, Vec<u32>> = HashMap::new();
    for (i, o) in objs.iter().enumerate() {
        per_site.entry(o.site).or_default().push(i as u32);
    }
    let mut sites = Vec::with_capacity(per_site.len());
    let mut views: Vec<ObjView> = Vec::new();
    for (site, stack) in &trace.stacks {
        let Some(mut list) = per_site.remove(site) else { continue };
        list.sort_unstable_by_key(|&i| objs[i as usize].id);
        views.clear();
        views.extend(list.iter().map(|&i| {
            let o = &objs[i as usize];
            ObjView {
                id: o.id,
                size: o.size,
                alloc_time: o.alloc_time,
                free_time: o.free_time,
                load_samples: o.load_samples,
                store_samples: o.store_samples,
                store_l1d_miss_samples: o.store_l1d_miss_samples,
            }
        }));
        sites.push(site_profile(
            *site,
            stack.clone(),
            &views,
            trace.load_sample_period,
            trace.store_sample_period,
            &bw_at,
        ));
    }
    sites.sort_by_key(|s| s.site);
    ecohmem_obs::count("analyzer.sites.aggregated", sites.len() as u64);

    Ok(ProfileSet {
        app_name: trace.app_name.clone(),
        duration: trace.duration,
        sites,
        bw_series,
        peak_bw,
        binmap: trace.binmap.clone(),
    })
}

// ---------------------------------------------------------------------------
// Shared per-site aggregation
// ---------------------------------------------------------------------------

/// One object's contribution to its site profile. Both analyzer paths
/// materialize these in ObjectId order and fold them through
/// [`site_profile`], which guarantees their floating-point aggregates are
/// computed in the same order — the structural core of the differential
/// guarantee.
struct ObjView {
    id: ObjectId,
    size: u64,
    alloc_time: f64,
    free_time: f64,
    load_samples: u64,
    store_samples: u64,
    store_l1d_miss_samples: u64,
}

fn site_profile(
    site: SiteId,
    stack: CallStack,
    views: &[ObjView],
    load_period: f64,
    store_period: f64,
    bw_at: &dyn Fn(f64) -> f64,
) -> SiteProfile {
    let alloc_count = views.len() as u64;
    let max_size = views.iter().map(|v| v.size).max().unwrap_or(0);
    let total_bytes: u64 = views.iter().map(|v| v.size).sum();
    let peak_live_bytes = peak_live(views.iter().map(|v| (v.alloc_time, v.free_time, v.size)));
    let load_samples: u64 = views.iter().map(|v| v.load_samples).sum();
    let store_miss_samples: u64 = views.iter().map(|v| v.store_l1d_miss_samples).sum();
    let store_samples: u64 = views.iter().map(|v| v.store_samples).sum();
    let load_misses_est = load_samples as f64 * load_period;
    let store_misses_est = store_miss_samples as f64 * store_period;
    let first_alloc = views.iter().map(|v| v.alloc_time).fold(f64::INFINITY, f64::min);
    let last_free = views.iter().map(|v| v.free_time).fold(0.0, f64::max);
    let total_lifetime: f64 = views.iter().map(|v| (v.free_time - v.alloc_time).max(0.0)).sum();
    let bw_at_alloc =
        views.iter().map(|v| bw_at(v.alloc_time)).sum::<f64>() / alloc_count.max(1) as f64;
    let avg_bw = if total_lifetime > 0.0 {
        (load_misses_est + store_misses_est) * 64.0 / total_lifetime
    } else {
        0.0
    };
    let object_lifetimes = views
        .iter()
        .map(|v| ObjectLifetime {
            object: v.id,
            size: v.size,
            alloc_time: v.alloc_time,
            free_time: v.free_time,
            load_samples: v.load_samples,
            store_samples: v.store_samples,
            store_l1d_miss_samples: v.store_l1d_miss_samples,
            bw_at_alloc: bw_at(v.alloc_time),
        })
        .collect();
    SiteProfile {
        site,
        stack,
        alloc_count,
        max_size,
        total_bytes,
        peak_live_bytes,
        load_misses_est,
        store_misses_est,
        has_stores: store_samples > 0,
        first_alloc,
        last_free,
        bw_at_alloc,
        avg_bw,
        objects: object_lifetimes,
    }
}

/// Peak simultaneously-live bytes among one site's objects.
fn peak_live(spans: impl Iterator<Item = (f64, f64, u64)>) -> u64 {
    let mut edges: Vec<(f64, i64)> = Vec::new();
    for (alloc_time, free_time, size) in spans {
        edges.push((alloc_time, size as i64));
        edges.push((free_time, -(size as i64)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{profile_run, ProfilerConfig};
    use memsim::{ExecMode, FixedTier, MachineConfig};
    use memtrace::TierId;

    fn profiled() -> ProfileSet {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        analyze(&trace).unwrap()
    }

    #[test]
    fn all_sites_recovered() {
        let p = profiled();
        let app = workloads::minife::model();
        assert_eq!(p.sites.len(), app.sites.len());
    }

    #[test]
    fn columnar_and_scalar_paths_agree() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        assert_eq!(analyze_legacy(&trace).unwrap(), analyze(&trace).unwrap());
    }

    #[test]
    fn a_v2_round_trip_keeps_the_site_structure() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        let original = analyze(&trace).unwrap();
        let mut bin = Vec::new();
        memtrace::binfmt::write_trace_v2(&trace, &mut bin).unwrap();
        let quantized = analyze(&memtrace::read_trace(&bin[..]).unwrap()).unwrap();
        // µs quantization makes the estimates *nearly* identical; pin the
        // structure exactly.
        assert_eq!(original.sites.len(), quantized.sites.len());
        for (a, q) in original.sites.iter().zip(&quantized.sites) {
            assert_eq!(a.site, q.site);
            assert_eq!(a.alloc_count, q.alloc_count);
            assert_eq!(a.total_bytes, q.total_bytes);
        }
    }

    #[test]
    fn analysis_does_not_depend_on_the_row_layout() {
        // The synthesizer leaves each kind's rows in emission order and
        // the scan reads them in place; rebuilt from its events, the same
        // trace has its rows in op order. Both must analyze identically.
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        let rebuilt = TraceFile {
            events: memtrace::EventBatch::from_events(&trace.events.to_events()),
            ..trace.clone()
        };
        assert_ne!(rebuilt.events.load_times, trace.events.load_times, "rows differ in layout");
        assert_eq!(analyze(&rebuilt).unwrap(), analyze(&trace).unwrap());
    }

    #[test]
    fn bandwidth_series_counts_convert_per_period() {
        let bins = vec![0.0, 1.0];
        let (series, peak) = bandwidth_series(&bins, &[10, 0], &[0, 5], 2.0, 3.0, 3.0);
        // Bin 0: 10 load samples × 2 misses × 64B over 1 s.
        assert_eq!(series[0], (0.0, 10.0 * 2.0 * 64.0));
        // Bin 1: 5 store-miss samples × 3 stores × 64B over 2 s.
        assert_eq!(series[1], (1.0, 5.0 * 3.0 * 64.0 / 2.0));
        assert_eq!(peak, series[0].1);
    }

    #[test]
    fn miss_estimates_track_truth_for_hot_sites() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, result) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        let p = analyze(&trace).unwrap();
        // For each site with substantial true misses, the sampled estimate
        // should be within 25%.
        let mut truth: HashMap<SiteId, f64> = HashMap::new();
        for o in &result.objects {
            *truth.entry(o.site).or_insert(0.0) += o.load_misses;
        }
        let total: f64 = truth.values().sum();
        for s in &p.sites {
            let t = truth[&s.site];
            if t > 0.02 * total {
                let rel = (s.load_misses_est - t).abs() / t;
                assert!(rel < 0.25, "{}: est {:.3e} vs true {:.3e}", s.site, s.load_misses_est, t);
            }
        }
    }

    #[test]
    fn bandwidth_series_has_a_peak() {
        let p = profiled();
        assert!(p.peak_bw > 0.0);
        assert!(!p.bw_series.is_empty());
        assert!(p.bw_at(p.duration * 0.5) >= 0.0);
    }

    #[test]
    fn store_only_sites_flagged() {
        let p = profiled();
        // MiniFE's q vector receives stores.
        let q = p.site(SiteId(5)).unwrap();
        assert!(q.has_stores);
    }

    #[test]
    fn rejects_malformed_trace() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (mut trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        trace.stacks.clear();
        assert!(analyze(&trace).is_err());
        assert!(analyze_legacy(&trace).is_err());
    }

    #[test]
    fn lenient_analysis_matches_strict_on_clean_traces() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        let strict = analyze(&trace).unwrap();
        let (lenient, warnings) = super::analyze_lenient(&trace);
        assert!(warnings.is_empty());
        assert_eq!(strict, lenient);
    }

    #[test]
    fn lenient_analysis_survives_injected_faults() {
        use memtrace::{FaultKind, FaultSpec, FaultTarget};
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        for kind in FaultKind::ALL {
            if kind.target() != FaultTarget::Trace {
                continue;
            }
            for severity in [0.25, 1.0] {
                let mut damaged = trace.clone();
                let injected = FaultSpec::with_seed(kind, severity, 7).apply_to_trace(&mut damaged);
                let (profile, warnings) = super::analyze_lenient(&damaged);
                assert!(profile.sites.len() <= trace.stacks.len(), "{kind}@{severity}");
                // Faults that strict analysis would reject must be
                // reported; valid-but-lossy damage (dropped samples,
                // truncation) may analyze silently.
                if analyze(&damaged).is_err() {
                    assert!(!warnings.is_empty(), "{kind}@{severity}");
                }
                let _ = injected;
            }
        }
    }

    #[test]
    fn sanitize_is_idempotent_under_every_trace_fault() {
        // The lenient pipeline analyzes a sanitized trace without a second
        // sanitize pass; that is only sound if a second pass repairs
        // nothing.
        use memtrace::{FaultKind, FaultSpec, FaultTarget};
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        for kind in FaultKind::ALL.into_iter().filter(|k| k.target() == FaultTarget::Trace) {
            for severity in [0.25, 1.0] {
                let mut damaged = trace.clone();
                FaultSpec::with_seed(kind, severity, 7).apply_to_trace(&mut damaged);
                damaged.sanitize();
                let once = damaged.clone();
                let again = damaged.sanitize();
                assert!(again.is_empty(), "{kind}@{severity}: second pass warned {again:?}");
                assert_eq!(damaged, once, "{kind}@{severity}: second pass changed the trace");
            }
        }
    }

    #[test]
    fn bin_cursor_equals_bin_of() {
        let nan_tail = [0.0, 1.0, 1.0, 2.5, f64::NAN, f64::NAN];
        let layouts: [&[f64]; 6] = [
            &[0.0],
            &[0.0, 1.0, 1.0, 1.0, 2.0, 3.0],
            &[-0.0, 0.0, 0.5, 0.5],
            &nan_tail,
            &[-f64::NAN, -1.0, 0.0, 2.0],
            &[1.0, 2.0, 4.0],
        ];
        let probes = [
            -1.0,
            -0.0,
            0.0,
            0.25,
            0.5,
            1.0,
            1.5,
            2.0,
            2.5,
            3.0,
            4.0,
            9.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = 0x5eed_u64;
        for bins in layouts {
            let bins = sorted_bins(bins.to_vec());
            // Ascending probes (the scan's order), then seeded shuffles.
            for round in 0..64 {
                let mut order: Vec<f64> = probes.to_vec();
                if round > 0 {
                    for i in (1..order.len()).rev() {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        order.swap(i, (rng >> 33) as usize % (i + 1));
                    }
                }
                let mut cursor = BinCursor::new(&bins);
                for t in order {
                    assert_eq!(cursor.bin(t), bin_of(&bins, t), "bins {bins:?}, t {t}");
                }
            }
        }
    }

    #[test]
    fn lifetime_and_peak_live_consistency() {
        let app = workloads::lulesh::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::AppDirect,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        let p = analyze(&trace).unwrap();
        for site in workloads::lulesh::temp_sites() {
            let s = p.site(site).unwrap();
            assert_eq!(s.alloc_count, 200, "Table III");
            assert!(s.peak_live_bytes < s.total_bytes, "temps never all coexist");
            // Temps allocate in the high-bandwidth region.
            assert!(
                s.bw_at_alloc > 0.3 * p.peak_bw,
                "temps allocate at high bw: {:.2e} vs peak {:.2e}",
                s.bw_at_alloc,
                p.peak_bw
            );
        }
    }
}
