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
//! the trace's [`memtrace::EventBatch`] op stream runs the
//! [`memtrace::Validator`] and replays the allocations and frees it
//! accepts into the object and site tables: strict for [`analyze`]
//! ([`memtrace::columns::TraceColumns::build`]), lenient for
//! [`analyze_lenient`] and [`analyze_sanitizing`], which sanitize the
//! trace in the same walk ([`TraceColumns::build_lenient`]). The samples
//! are never copied. An [`memtrace::columns::ObjectIndex`]
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

use crate::bandwidth::{bin_of, sorted_bins, BinCursor, BwContext};
use crate::profile::{peak_live, ObjectLifetime, ProfileSet, SiteProfile};
use memtrace::columns::{LenientBuild, ObjectIndex, TraceColumns};
use memtrace::{CallStack, DroppedWindow, EventBatch, ObjectId, SiteId, TraceError, TraceEvent};
use memtrace::{TraceFile, Warning};
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

/// Lenient analysis of a borrowed trace. One validator walk sanitizes it
/// and builds the analyzer's tables ([`TraceColumns::build_lenient`]). A
/// clean trace is then analyzed in place; a damaged one is copied,
/// sanitized from what the walk found ([`TraceFile::apply_sanitize`]) and
/// analyzed. Never fails: a trace with every event dropped analyzes to an
/// empty profile, which places everything in the fallback tier
/// downstream. The warnings are sanitize's, nonempty exactly when the
/// trace needed repair.
pub fn analyze_lenient(trace: &TraceFile) -> (ProfileSet, Vec<Warning>) {
    let _span = ecohmem_obs::span("analyzer.analyze");
    let built = build_lenient(trace);
    ecohmem_obs::count("analyzer.lenient.repairs", built.warnings.len() as u64);
    let profile = if built.warnings.is_empty() {
        analyze_cols(trace, &built.columns)
    } else {
        let mut copy = trace.clone();
        copy.apply_sanitize(built.dropped.as_ref());
        analyze_cols(&copy, &built.columns)
    };
    (profile, built.warnings)
}

/// Lenient analysis of an owned trace, which it sanitizes in place: the
/// same single walk as [`analyze_lenient`], then a compaction of the
/// trace only if the walk dropped something. Returns the profile, the
/// warnings and dropped window [`TraceFile::sanitize_verbose`] would
/// report, and leaves the trace as that call would.
pub fn analyze_sanitizing(trace: &mut TraceFile) -> (ProfileSet, Vec<Warning>, DroppedWindow) {
    let _span = ecohmem_obs::span("analyzer.analyze");
    let built = build_lenient(trace);
    trace.apply_sanitize(built.dropped.as_ref());
    (analyze_cols(trace, &built.columns), built.warnings, built.window)
}

/// [`TraceColumns::build_lenient`] under the build span.
fn build_lenient(trace: &TraceFile) -> LenientBuild {
    let _span = ecohmem_obs::span("analyzer.columns.build");
    TraceColumns::build_lenient(trace)
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

    let bw = BwContext::new(
        &bins,
        &total.bin_load,
        &total.bin_store_miss,
        trace.load_sample_period,
        trace.store_sample_period,
        trace.duration,
    );

    // Pass 4: aggregate per site, in stack-table order like the scalar
    // path (the final sort by SiteId makes the order moot anyway).
    let o = &cols.objects;
    let mut sites = Vec::with_capacity(cols.site_ids.len());
    for (ds, &stack_idx) in cols.site_stacks.iter().enumerate() {
        let objs = &cols.site_objects[ds];
        if objs.is_empty() {
            continue;
        }
        let mut bw_at = bw.cursor();
        let objects = objs
            .iter()
            .map(|&d| {
                let d = d as usize;
                ObjectLifetime {
                    object: o.ids[d],
                    size: o.sizes[d],
                    alloc_time: o.alloc_times[d],
                    free_time: o.free_times[d],
                    load_samples: total.obj_load[d],
                    store_samples: total.obj_store[d],
                    store_l1d_miss_samples: total.obj_store_miss[d],
                    bw_at_alloc: bw_at(o.alloc_times[d]),
                }
            })
            .collect();
        let (site, stack) = &trace.stacks[stack_idx];
        sites.push(site_profile(trace, *site, stack, objects));
    }
    sites.sort_by_key(|s| s.site);
    ecohmem_obs::count("analyzer.sites.aggregated", sites.len() as u64);

    ProfileSet {
        app_name: trace.app_name.to_string(),
        duration: trace.duration,
        sites,
        bw_series: bw.series,
        peak_bw: bw.peak,
        binmap: trace.binmap.clone(),
    }
}

/// One site's profile from its objects in id order, through the shared
/// aggregation: sampled miss estimates and the sorted peak-live sweep.
fn site_profile(
    trace: &TraceFile,
    site: SiteId,
    stack: &CallStack,
    objects: Vec<ObjectLifetime>,
) -> SiteProfile {
    let mut p = SiteProfile { stack: stack.clone(), objects, ..SiteProfile::empty(site) };
    let (load, store) = p.sampled_misses(trace.load_sample_period, trace.store_sample_period);
    p.aggregate(load, store, peak_live(&p.objects));
    p
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
    // sample counts per bin, converted by the shared context so the scalar,
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
    let bw = BwContext::new(
        &bins,
        &bin_load,
        &bin_store_miss,
        trace.load_sample_period,
        trace.store_sample_period,
        trace.duration,
    );

    // Pass 4: aggregate per site.
    let mut per_site: HashMap<SiteId, Vec<u32>> = HashMap::new();
    for (i, o) in objs.iter().enumerate() {
        per_site.entry(o.site).or_default().push(i as u32);
    }
    let mut sites = Vec::with_capacity(per_site.len());
    for (site, stack) in &trace.stacks {
        let Some(mut list) = per_site.remove(site) else { continue };
        list.sort_unstable_by_key(|&i| objs[i as usize].id);
        let objects = list
            .iter()
            .map(|&i| {
                let o = &objs[i as usize];
                ObjectLifetime {
                    object: o.id,
                    size: o.size,
                    alloc_time: o.alloc_time,
                    free_time: o.free_time,
                    load_samples: o.load_samples,
                    store_samples: o.store_samples,
                    store_l1d_miss_samples: o.store_l1d_miss_samples,
                    bw_at_alloc: bw.at(o.alloc_time),
                }
            })
            .collect();
        sites.push(site_profile(trace, *site, stack, objects));
    }
    sites.sort_by_key(|s| s.site);
    ecohmem_obs::count("analyzer.sites.aggregated", sites.len() as u64);

    Ok(ProfileSet {
        app_name: trace.app_name.clone(),
        duration: trace.duration,
        sites,
        bw_series: bw.series,
        peak_bw: bw.peak,
        binmap: trace.binmap.clone(),
    })
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
        // Each site's `bw_at_alloc` averages `BwContext::at` answers, which
        // are values of the series.
        let low = p.bw_series.iter().map(|&(_, bw)| bw).fold(f64::INFINITY, f64::min);
        for s in p.sites.iter().filter(|s| s.alloc_count > 0) {
            let slack = 1e-9 * p.peak_bw;
            assert!(s.bw_at_alloc >= low - slack && s.bw_at_alloc <= p.peak_bw + slack, "{s:?}");
        }
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
