//! Paraver-like timeline view of a trace.
//!
//! The BSC workflow inspects traces visually with Paraver (§VIII-C uses it
//! to find LAMMPS's communication-phase overhead). This module derives the
//! tabular equivalent from a trace file alone: one row per phase window
//! with sample counts, estimated bandwidth, live heap, and the hottest
//! allocation site — enough to see where the time and traffic go.

use memtrace::{SiteId, TraceError, TraceEvent, TraceFile};
use std::collections::HashMap;

/// One phase window of the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Phase ordinal.
    pub phase: u32,
    /// Window start, seconds.
    pub start: f64,
    /// Window end, seconds.
    pub end: f64,
    /// Load-miss samples in the window.
    pub load_samples: u64,
    /// Store samples in the window.
    pub store_samples: u64,
    /// Sample-estimated off-chip bandwidth, bytes/second.
    pub est_bw: f64,
    /// Live heap bytes at the window's end.
    pub live_bytes: u64,
    /// The site with the most load-miss samples in the window.
    pub top_site: Option<SiteId>,
}

/// Builds the timeline from a trace file alone (the address→site matching
/// is rebuilt from the allocation events, as the analyzer does).
pub fn timeline(trace: &TraceFile) -> Result<Vec<TimelineRow>, TraceError> {
    trace.validate()?;
    let events = trace.events.to_events();

    // Phase windows from the markers.
    let mut marks: Vec<(u32, f64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseMarker { time, phase } => Some((*phase, *time)),
            _ => None,
        })
        .collect();
    marks.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    if marks.is_empty() {
        marks.push((0, 0.0));
    }

    // Address interval index from the alloc/free events: (start, end,
    // site, t_alloc, t_free).
    let mut obj_size: HashMap<u64, u64> = HashMap::new();
    let mut obj_addr: HashMap<u64, u64> = HashMap::new();
    for e in &events {
        if let TraceEvent::Alloc { object, address, size, .. } = e {
            obj_size.insert(object.0, *size);
            obj_addr.insert(object.0, *address);
        }
    }
    let mut free_time: HashMap<u64, f64> = HashMap::new();
    for e in &events {
        if let TraceEvent::Free { time, object } = e {
            free_time.insert(object.0, *time);
        }
    }
    let mut addr_index: Vec<(u64, u64, SiteId, f64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Alloc { time, site, size, address, object } => Some((
                *address,
                address + size,
                *site,
                *time,
                free_time.get(&object.0).copied().unwrap_or(f64::INFINITY),
            )),
            _ => None,
        })
        .collect();
    addr_index.sort_unstable_by_key(|e| e.0);

    let find_site = |address: u64, time: f64| -> Option<SiteId> {
        let idx = addr_index.partition_point(|e| e.0 <= address);
        addr_index[..idx]
            .iter()
            .rev()
            .take(64)
            .find(|&&(lo, hi, _, t0, t1)| address >= lo && address < hi && time >= t0 && time <= t1)
            .map(|&(_, _, s, _, _)| s)
    };

    // Accumulate per window.
    let bin_of = |t: f64| -> usize { marks.partition_point(|&(_, mt)| mt <= t).saturating_sub(1) };
    let mut rows: Vec<TimelineRow> = marks
        .iter()
        .enumerate()
        .map(|(i, &(phase, start))| TimelineRow {
            phase,
            start,
            end: marks.get(i + 1).map(|&(_, t)| t).unwrap_or(trace.duration),
            load_samples: 0,
            store_samples: 0,
            est_bw: 0.0,
            live_bytes: 0,
            top_site: None,
        })
        .collect();
    let mut site_hits: Vec<HashMap<SiteId, u64>> = vec![HashMap::new(); rows.len()];
    let mut live: i64 = 0;
    let mut live_at: Vec<i64> = vec![0; rows.len()];
    let mut last_bin = 0usize;
    for e in &events {
        match e {
            TraceEvent::LoadMissSample { time, address, .. } => {
                let b = bin_of(*time);
                rows[b].load_samples += 1;
                if let Some(site) = find_site(*address, *time) {
                    *site_hits[b].entry(site).or_insert(0) += 1;
                }
            }
            TraceEvent::StoreSample { time, .. } => {
                rows[bin_of(*time)].store_samples += 1;
            }
            TraceEvent::Alloc { time, size, .. } => {
                live += *size as i64;
                last_bin = bin_of(*time);
                live_at[last_bin] = live;
            }
            TraceEvent::Free { time, object } => {
                live -= obj_size.get(&object.0).copied().unwrap_or(0) as i64;
                last_bin = bin_of(*time);
                live_at[last_bin] = live;
            }
            _ => {}
        }
    }
    // Windows with no heap events carry the previous window's level.
    for i in 1..live_at.len() {
        if live_at[i] == 0 && i <= last_bin {
            live_at[i] = live_at[i - 1];
        }
    }
    let _ = obj_addr;
    for (i, row) in rows.iter_mut().enumerate() {
        let width = (row.end - row.start).max(1e-9);
        row.est_bw = (row.load_samples as f64 * trace.load_sample_period
            + row.store_samples as f64 * trace.store_sample_period)
            * 64.0
            / width;
        row.live_bytes = live_at[i].max(0) as u64;
        row.top_site =
            site_hits[i].iter().max_by_key(|(s, n)| (**n, std::cmp::Reverse(s.0))).map(|(s, _)| *s);
    }
    Ok(rows)
}

/// Renders the timeline as CSV.
pub fn to_csv(rows: &[TimelineRow]) -> String {
    let mut out = String::from(
        "phase,start_s,end_s,load_samples,store_samples,est_bw_gbs,live_gb,top_site\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.3},{:.3},{},{},{:.3},{:.3},{}\n",
            r.phase,
            r.start,
            r.end,
            r.load_samples,
            r.store_samples,
            r.est_bw / 1e9,
            r.live_bytes as f64 / 1e9,
            r.top_site.map(|s| s.0.to_string()).unwrap_or_default(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{profile_run, ProfilerConfig};
    use memsim::{ExecMode, FixedTier, MachineConfig};
    use memtrace::TierId;

    fn trace_and_profile() -> TraceFile {
        let app = workloads::lulesh::model();
        let mach = MachineConfig::optane_pmem6();
        let (trace, _) = profile_run(
            &app,
            &mach,
            ExecMode::MemoryMode,
            &mut FixedTier::new(TierId::PMEM),
            &ProfilerConfig::default(),
        );
        trace
    }

    #[test]
    fn one_row_per_phase_in_time_order() {
        let trace = trace_and_profile();
        let rows = timeline(&trace).unwrap();
        assert_eq!(rows.len(), trace.events.phase_times.len());
        for w in rows.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-9);
        }
    }

    #[test]
    fn high_bandwidth_phases_stand_out() {
        let trace = trace_and_profile();
        let rows = timeline(&trace).unwrap();
        // LULESH's lagrange_elems windows (every 3rd starting at index 3)
        // must show more bandwidth than their neighbours on average.
        let avg = |f: &dyn Fn(usize) -> bool| -> f64 {
            let v: Vec<f64> = rows
                .iter()
                .enumerate()
                .skip(2)
                .take(60)
                .filter(|(i, _)| f(*i))
                .map(|(_, r)| r.est_bw)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        // The timeline sees *all* off-chip traffic (both tiers), so compare
        // the element sweep against the quiet constraints tail.
        let high = avg(&|i| (i - 2) % 3 == 1);
        let tail = avg(&|i| (i - 2) % 3 == 2);
        assert!(high > 1.5 * tail, "high {high:.2e} vs tail {tail:.2e}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let trace = trace_and_profile();
        let rows = timeline(&trace).unwrap();
        let csv = to_csv(&rows);
        assert!(csv.starts_with("phase,start_s"));
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }

    #[test]
    fn top_sites_point_at_temporaries_in_burst_windows() {
        let trace = trace_and_profile();
        let rows = timeline(&trace).unwrap();
        // Burst windows' hottest sites are the high-phase population
        // (element fields or temporaries), not the nodal-phase data.
        let mut high_pop = workloads::lulesh::temp_sites();
        let persist = workloads::lulesh::persistent_sites();
        high_pop.extend_from_slice(&persist[persist.len() - 8..]); // element fields
        let burst_rows: Vec<_> = rows
            .iter()
            .enumerate()
            .skip(2)
            .take(60)
            .filter(|(i, _)| (*i - 2) % 3 == 1)
            .map(|(_, r)| r)
            .collect();
        let hits = burst_rows
            .iter()
            .filter(|r| r.top_site.map(|s| high_pop.contains(&s)).unwrap_or(false))
            .count();
        assert!(
            hits * 2 >= burst_rows.len(),
            "high-phase population tops its windows: {hits}/{}",
            burst_rows.len()
        );
    }
}
