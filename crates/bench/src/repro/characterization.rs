//! The paper's motivating measurements: the memory system (Fig. 2), the
//! density placement's blind spot on LULESH (Figs. 3–5, Tables II–IV) and
//! the report's call-stack formats (Table I).

use super::{profile, Report};
use crate::{Runner, Table};
use advisor::{Advisor, AdvisorConfig, Algorithm, Category};
use ecohmem_core::{run_pipeline, PipelineConfig};
use memsim::{mlc_sweep, MachineConfig, PhaseStats, TrafficMix};
use memtrace::{SiteId, StackFormat, TierId};
use viz::{LineChart, Series};

/// LULESH under the density-based placement, as §VII-A deploys it.
fn lulesh_density_run() -> (memsim::AppModel, memsim::RunResult) {
    let app = workloads::lulesh::model();
    let placed = run_pipeline(&app, &PipelineConfig::paper_default()).unwrap().placed;
    (app, placed)
}

/// PMem read + write bandwidth of a phase, in GB/s.
pub(super) fn pmem_gb_s(p: &PhaseStats) -> f64 {
    (p.tier_read_bw[1] + p.tier_write_bw[1]) / 1e9
}

/// Figure 2: loaded latency vs bandwidth for DDR4 DRAM and Intel PMem,
/// read-only (R) and 1-read-1-write (1R1W) traffic, 8–22 GB/s.
///
/// Paper reference points: DRAM 90 → 117 ns, PMem 185 → 239 ns (read-only);
/// at 22 GB/s PMem costs ≈ 2.3× DRAM.
pub(super) fn fig2_mlc(_: &Runner) -> Report {
    let machine = MachineConfig::optane_pmem6();
    let steps = 15;
    let sweep = |tier, mix| mlc_sweep(&machine, tier, mix, 8e9, 22e9, steps);
    let curves = [
        ("DRAM (R)", sweep(TierId::DRAM, TrafficMix::ReadOnly)),
        ("DRAM (1R1W)", sweep(TierId::DRAM, TrafficMix::OneReadOneWrite)),
        ("PMem (R)", sweep(TierId::PMEM, TrafficMix::ReadOnly)),
        ("PMem (1R1W)", sweep(TierId::PMEM, TrafficMix::OneReadOneWrite)),
    ];

    let mut out = String::new();
    let mut t = Table::new(&["bw_gb_s", "dram_R_ns", "dram_1R1W_ns", "pmem_R_ns", "pmem_1R1W_ns"]);
    for i in 0..steps {
        let mut row = vec![format!("{:.1}", curves[0].1[i].bandwidth / 1e9)];
        row.extend(curves.iter().map(|(_, c)| format!("{:.1}", c[i].latency_ns)));
        t.row(row);
    }
    outln!(out, "{}", t.render());
    let last = steps - 1;
    outln!(
        out,
        "\npmem/dram read-latency ratio at 22 GB/s: {:.2} (paper: 2.3x)",
        curves[2].1[last].latency_ns / curves[0].1[last].latency_ns
    );

    let fig = LineChart {
        title: "Fig. 2 — loaded latency vs bandwidth".into(),
        x_label: "injected bandwidth (GB/s)".into(),
        y_label: "read latency (ns)".into(),
        series: curves
            .iter()
            .map(|(label, c)| Series {
                label: label.to_string(),
                points: c.iter().map(|p| (p.bandwidth / 1e9, p.latency_ns)).collect(),
            })
            .collect(),
        size: (680, 420),
    };
    Report { text: out, svgs: vec![("fig2_mlc.svg", fig.render())] }
}

/// Figure 3: PMem bandwidth consumption across LULESH's recurring
/// execution phase under the density-based placement, annotated with the
/// allocations happening along the way.
///
/// Shape to reproduce: low at the phase start, rising to its maximum as
/// the high-bandwidth region's objects are allocated, diminishing toward
/// the end; large allocations cluster at the start, smaller short-lived
/// ones in the middle.
pub(super) fn fig3_lulesh_bw(_: &Runner) -> Report {
    let (app, result) = lulesh_density_run();

    // Six mid-run iterations of three sub-phases each, after the two init
    // phases, like the paper's recurring phase window.
    let window: Vec<_> = result.phases.iter().skip(2).take(3 * 6).collect();
    let mut out = String::new();
    let mut t = Table::new(&["t_s", "sub_phase", "pmem_bw_gb_s", "allocs", "alloc_mb_each"]);
    for p in &window {
        let phase = &app.phases[p.index as usize];
        let allocs: Vec<_> = phase.allocs.iter().map(|a| (a.count, a.size / (1 << 20))).collect();
        let (n, sz) = allocs.first().map(|&(c, s)| (allocs.len() as u32 * c, s)).unwrap_or((0, 0));
        t.row(vec![
            format!("{:.1}", p.start),
            phase.label.clone().unwrap_or_default(),
            format!("{:.2}", pmem_gb_s(p)),
            n.to_string(),
            sz.to_string(),
        ]);
    }
    outln!(out, "{}", t.render());

    // Shape check across sub-phases.
    let avg = |label: &str| -> f64 {
        let v: Vec<f64> = result
            .phases
            .iter()
            .filter(|p| p.label.as_deref() == Some(label))
            .map(|p| p.tier_read_bw[1] + p.tier_write_bw[1])
            .collect();
        v.iter().sum::<f64>() / v.len() as f64 / 1e9
    };
    outln!(
        out,
        "\navg PMem bw: lagrange_nodal {:.2} GB/s → lagrange_elems {:.2} GB/s → calc_constraints {:.2} GB/s",
        avg("lagrange_nodal"),
        avg("lagrange_elems"),
        avg("calc_constraints")
    );

    let fig = LineChart {
        title: "Fig. 3 — LULESH PMem bandwidth (density placement)".into(),
        x_label: "time (s)".into(),
        y_label: "PMem bandwidth (GB/s)".into(),
        series: vec![Series {
            label: "PMem bw".into(),
            points: window.iter().map(|p| (p.start, pmem_gb_s(p))).collect(),
        }],
        size: (680, 360),
    };
    Report { text: out, svgs: vec![("fig3_lulesh_bw.svg", fig.render())] }
}

/// Figures 4 and 5: lifetime and bandwidth of LULESH objects living in the
/// high-bandwidth region (PMem temporaries) vs the low-bandwidth region
/// (DRAM persistents) under the density-based placement.
///
/// Paper reference points: PMem temporaries live a fraction of a phase and
/// consume tens to hundreds of MB/s each (33–206 MB/s, avg 93 MB/s); DRAM
/// objects live essentially the whole run and consume ≤ ~10 MB/s.
pub(super) fn fig45_lifetimes(_: &Runner) -> Report {
    let (_, result) = lulesh_density_run();
    let total = result.total_time;
    let mut out = String::new();

    // Fig. 4: PMem-resident temporaries during one mid-run iteration.
    outln!(out, "== Fig. 4: PMem temporaries (one iteration window) ==");
    let temps = workloads::lulesh::temp_sites();
    let (window_lo, window_hi) = (total * 0.4, total * 0.6);
    let mut t = Table::new(&["object", "site", "alloc_s", "free_s", "lifetime_s", "bw_mb_s"]);
    let mut temp_bws = Vec::new();
    for o in result
        .objects
        .iter()
        .filter(|o| {
            temps.contains(&o.site) && o.alloc_time >= window_lo && o.free_time <= window_hi
        })
        .take(24)
    {
        let bw = o.avg_bandwidth(64) / 1e6;
        temp_bws.push(bw);
        t.row(vec![
            o.object.to_string(),
            o.site.to_string(),
            format!("{:.1}", o.alloc_time),
            format!("{:.1}", o.free_time),
            format!("{:.1}", o.lifetime()),
            format!("{bw:.1}"),
        ]);
    }
    outln!(out, "{}", t.render());

    // Fig. 5: DRAM-resident persistent objects.
    outln!(out, "\n== Fig. 5: DRAM persistents ==");
    let mut t = Table::new(&["object", "site", "lifetime_s", "lifetime_frac", "bw_mb_s"]);
    let mut dram_bws = Vec::new();
    for o in result.objects_in_tier(TierId::DRAM) {
        let bw = o.avg_bandwidth(64) / 1e6;
        dram_bws.push(bw);
        t.row(vec![
            o.object.to_string(),
            o.site.to_string(),
            format!("{:.1}", o.lifetime()),
            format!("{:.2}", o.lifetime() / total),
            format!("{bw:.2}"),
        ]);
    }
    outln!(out, "{}", t.render());

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // Split the hot gather tables (a deliberate modelling addition that
    // carries MiniFE-like latency value) from the cold Fitting/donor
    // population the paper's Fig. 5 describes.
    let donors = workloads::lulesh::donor_sites();
    let donor_bws: Vec<f64> = result
        .objects_in_tier(TierId::DRAM)
        .iter()
        .filter(|o| donors.contains(&o.site))
        .map(|o| o.avg_bandwidth(64) / 1e6)
        .collect();
    outln!(
        out,
        "\ntemporaries: avg {:.0} MB/s (paper avg 93 MB/s, range 33-206)\n\
         DRAM donor objects: avg {:.1} MB/s (paper's Fig. 5 population: avg ~1 MB/s, max 10.5)\n\
         all DRAM objects (incl. hot gather tables): avg {:.1} MB/s",
        avg(&temp_bws),
        avg(&donor_bws),
        avg(&dram_bws)
    );
    Report::from_text(out)
}

/// Table I: the two supported call-stack formats of a placement report
/// (human-readable `file:line` pairs vs binary-object-matching
/// `module!offset` pairs), rendered from the same MiniFE placement.
pub(super) fn table1_formats(_: &Runner) -> Report {
    let app = workloads::minife::model();
    let machine = MachineConfig::optane_pmem6();
    let profile = profile(&app, &machine);
    let advisor = Advisor::new(AdvisorConfig::loads_only(12));
    let tier_name = |t: TierId| machine.tier(t).name.clone();

    let mut out = String::new();
    for (heading, format) in [
        ("== BOM format (contribution VI) ==", StackFormat::Bom),
        ("\n== human-readable format ==", StackFormat::HumanReadable),
    ] {
        let report = advisor.advise(&profile, Algorithm::Base, format).unwrap();
        outln!(out, "{heading}");
        for line in report.render_text(&profile.binmap, tier_name).lines().take(6) {
            outln!(out, "{line}");
        }
    }
    Report::from_text(out)
}

fn region(bw: f64, peak: f64) -> &'static str {
    if bw < 0.2 * peak {
        "B_low"
    } else if bw < 0.4 * peak {
        "B_mid"
    } else {
        "B_high"
    }
}

/// Tables II, III and IV: the bandwidth-aware classifier's view of LULESH.
///
/// * Table II — allocation-time vs execution-time bandwidth region
///   (B_low / B_mid / B_high at <20%, 20–40%, >40% of peak) per object
///   group;
/// * Table III — allocations per object and lifetime per group;
/// * Table IV — the resulting Fitting / Streaming-D / Thrashing categories.
pub(super) fn table234_classify(_: &Runner) -> Report {
    let app = workloads::lulesh::model();
    let profile = profile(&app, &MachineConfig::optane_pmem6());
    let advisor = Advisor::new(AdvisorConfig::loads_only(12));
    let classification = advisor.assign(&profile, Algorithm::BandwidthAware).1.unwrap();

    // Representative groups mirroring the paper's object-id ranges.
    let groups: Vec<(&str, Vec<SiteId>)> = vec![
        ("nodal persistents (paper 114-134)", workloads::lulesh::donor_sites()),
        ("element arrays (paper 139-146)", {
            let d = workloads::lulesh::persistent_sites();
            d[d.len() - 8..].to_vec()
        }),
        ("temporaries (paper 168-179)", workloads::lulesh::temp_sites()),
    ];
    let mut out = String::new();

    outln!(out, "== Table II: bandwidth regions ==");
    let mut t = Table::new(&["group", "alloc_region", "exec_region"]);
    for (name, sites) in &groups {
        let profs: Vec<_> = sites.iter().filter_map(|s| profile.site(*s)).collect();
        let n = profs.len() as f64;
        let alloc_bw = profs.iter().map(|p| p.bw_at_alloc).sum::<f64>() / n;
        let exec_bw = profs.iter().map(|p| p.avg_bw).sum::<f64>() / n;
        // "Execution region" in the paper marks the system regions the
        // object lives through; approximate with the region of the system
        // peak for long-lived objects and the allocation region for the
        // short-lived ones.
        let exec = if profs[0].alloc_count <= 2 {
            "B_low..B_high (roams)".to_string()
        } else {
            region(exec_bw.max(alloc_bw), profile.peak_bw).to_string()
        };
        t.row(vec![name.to_string(), region(alloc_bw, profile.peak_bw).into(), exec]);
    }
    outln!(out, "{}", t.render());

    outln!(out, "\n== Table III: allocations and lifetime ==");
    let mut t = Table::new(&["group", "allocs_per_site", "avg_lifetime_s"]);
    for (name, sites) in &groups {
        let profs: Vec<_> = sites.iter().filter_map(|s| profile.site(*s)).collect();
        let n = profs.len() as f64;
        let allocs = profs.iter().map(|p| p.alloc_count as f64).sum::<f64>() / n;
        let lifetime =
            profs.iter().map(|p| p.total_lifetime() / p.alloc_count as f64).sum::<f64>() / n;
        t.row(vec![name.to_string(), format!("{allocs:.0}"), format!("{lifetime:.1}")]);
    }
    outln!(out, "{}", t.render());

    outln!(out, "\n== Table IV: classification ==");
    let mut t = Table::new(&["category", "sites", "example_sites"]);
    for cat in
        [Category::Fitting, Category::StreamingD, Category::Thrashing, Category::Unclassified]
    {
        let sites = classification.sites_of(cat);
        let examples: Vec<String> = sites.iter().take(5).map(|s| s.to_string()).collect();
        t.row(vec![format!("{cat:?}"), sites.len().to_string(), examples.join(",")]);
    }
    outln!(out, "{}", t.render());
    outln!(
        out,
        "\nthresholds: T_ALLOC=2, T_PMEMLOW={:.2e} B/s (20% of peak), T_PMEMHIGH={:.2e} B/s (40% of peak)",
        classification.low_bw, classification.high_bw
    );
    Report::from_text(out)
}
