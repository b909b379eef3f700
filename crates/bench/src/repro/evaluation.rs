//! The paper's evaluation proper (§VIII): the applications (Tables V–VI),
//! the mini-app sweep against Memory Mode and the baselines (Fig. 6,
//! Table VII), the bandwidth-aware algorithm on the production apps
//! (Fig. 7, Table VIII) and the call-stack format's cost (§VIII-D).

use super::characterization::pmem_gb_s;
use super::Report;
use crate::{Runner, Table};
use advisor::{AdvisorConfig, Algorithm};
use baselines::{run_memory_mode, KernelTiering, ProfDp};
use ecohmem_core::experiments::{run_cell, Metrics, SweepSpec};
use ecohmem_core::{run_pipeline, PipelineConfig};
use memsim::{run, ExecMode, MachineConfig};
use memtrace::{StackFormat, TierId};
use viz::{BarChart, BarGroup, LineChart, Series};

/// Table V: characteristics of the applications used in the evaluation,
/// from the workload models (version, ranks/threads, input, memory
/// high-water mark).
pub(super) fn table5_apps(_: &Runner) -> Report {
    let mut t = Table::new(&[
        "app",
        "version",
        "ranks/threads",
        "input",
        "hwm_mb_rank(paper)",
        "hwm_mb_rank(model)",
    ]);
    for (spec, model) in workloads::all_specs().iter().zip(workloads::all_models()) {
        let model_hwm = model.high_water_mark() / 1_000_000 / spec.ranks as u64;
        t.row(vec![
            spec.name.into(),
            spec.version.into(),
            format!("{}/{}", spec.ranks, spec.threads),
            spec.input.into(),
            spec.hwm_mb_per_rank.to_string(),
            model_hwm.to_string(),
        ]);
    }
    Report::from_text(t.render() + "\n")
}

/// Figure 6: ecoHMEM speedup over Memory Mode for the five
/// mini-applications, sweeping the profiling metrics (Loads vs
/// Loads+stores), the Advisor DRAM limit (4/8/12 GB) and the PMem
/// population (PMem-6 vs PMem-2), plus the kernel-tiering and ProfDP
/// comparison points at the 12 GB limit. The figure draws the PMem-6,
/// 12 GB cells. The shared profiling and Memory-Mode simulations run once
/// per machine.
pub(super) fn fig6_sweep(runner: &Runner) -> Report {
    let apps = workloads::miniapp_models();
    let mut out = String::new();
    let mut groups = Vec::new();
    for machine in [MachineConfig::optane_pmem6(), MachineConfig::optane_pmem2()] {
        outln!(out, "== {} ==", machine.name);
        let mut grid = Vec::new();
        for app in &apps {
            for metrics in [Metrics::Loads, Metrics::LoadsStores] {
                for gib in [4, 8, 12] {
                    grid.push((app, metrics, gib));
                }
            }
        }
        let cells = runner.map(grid, |(app, metrics, gib)| {
            run_cell(
                app,
                &machine,
                SweepSpec { dram_gib: gib, metrics, algorithm: Algorithm::Base },
            )
        });

        let mut t = Table::new(&["app", "metrics", "dram_gib", "speedup_vs_memory_mode"]);
        for cell in &cells {
            t.row(vec![
                cell.app.clone(),
                cell.spec.metrics.label().into(),
                cell.spec.dram_gib.to_string(),
                format!("{:.2}", cell.speedup),
            ]);
        }
        outln!(out, "{}\n", t.render());
        if groups.is_empty() {
            // Six cells per app: Loads at 4/8/12 GB, then Loads+stores.
            groups = cells
                .chunks(6)
                .map(|c| BarGroup {
                    label: c[2].app.clone(),
                    values: vec![c[2].speedup, c[5].speedup],
                })
                .collect();
        }
    }

    // Kernel tiering and ProfDP comparison points (PMem-6, 12 GB).
    let machine = MachineConfig::optane_pmem6();
    let rows = runner.map(apps.iter().collect(), |app| {
        let mm = run_memory_mode(app, &machine);
        let tiering = run(app, &machine, ExecMode::AppDirect, &mut KernelTiering::new(&machine));
        let profdp = ProfDp::profile(app, &machine);
        let (variant, best) = profdp.best_run(app, &machine, 12 << 30);
        vec![
            app.name.clone(),
            format!("{:.2}", mm.total_time / tiering.total_time),
            format!("{:.2}", mm.total_time / best.total_time),
            format!("{variant:?}"),
        ]
    });
    let mut t = Table::new(&["app", "kernel_tiering", "profdp_best", "profdp_variant"]);
    for row in rows {
        t.row(row);
    }
    outln!(out, "== baselines (PMem-6, speedup vs memory mode) ==\n{}", t.render());

    let fig = BarChart {
        title: "Fig. 6 — speedup vs memory mode (PMem-6, 12 GB)".into(),
        y_label: "speedup".into(),
        series_labels: vec!["loads".into(), "loads+stores".into()],
        groups,
        baseline: Some(1.0),
        size: (680, 420),
    };
    Report { text: out, svgs: vec![("fig6_speedups.svg", fig.render())] }
}

/// Table VI: memory-related profiling of the Memory Mode executions —
/// memory-bound pipeline slots and DRAM-cache hit ratio per
/// mini-application (VTune numbers in the paper).
///
/// Paper reference points: MiniFE 90.2%/39.9%, MiniMD 41.5%/61.5%,
/// LULESH 65.5%/61.7%, HPCG 80.5%/54.4%, CloverLeaf3D 93.5%/59.2%
/// (plus LAMMPS 29.2%/63.5% from §VIII-C).
pub(super) fn table6_memstats(runner: &Runner) -> Report {
    let machine = MachineConfig::optane_pmem6();
    let paper: &[(&str, f64, f64)] = &[
        ("minife", 90.2, 39.9),
        ("minimd", 41.5, 61.5),
        ("lulesh", 65.5, 61.7),
        ("hpcg", 80.5, 54.4),
        ("cloverleaf3d", 93.5, 59.2),
        ("lammps", 29.2, 63.5),
    ];
    let rows = runner.map(paper.to_vec(), |(name, p_mb, p_hit)| {
        let app = workloads::model_by_name(name).unwrap();
        let r = run_memory_mode(&app, &machine);
        vec![
            name.into(),
            format!("{:.1}", 100.0 * r.memory_bound_fraction()),
            format!("{p_mb:.1}"),
            format!("{:.1}", 100.0 * r.dram_cache_hit_ratio()),
            format!("{p_hit:.1}"),
        ]
    });
    let mut t =
        Table::new(&["app", "membound_%", "membound_paper_%", "dram_cache_hit_%", "hit_paper_%"]);
    for row in rows {
        t.row(row);
    }
    Report::from_text(t.render() + "\n")
}

/// Table VII: CloverLeaf3D per-function IPC and average load latency of the
/// FlexMalloc execution, relative to memory mode.
///
/// Paper shape: functions whose data landed in DRAM show >100% relative IPC
/// and <100% relative latency (advec_cell, calc_dt, flux_calc, pdv,
/// viscosity); functions stuck on PMem-resident data show the inverse
/// (ideal_gas, pack_message, reset_field, update_halo).
pub(super) fn table7_cloverleaf(_: &Runner) -> Report {
    let app = workloads::cloverleaf3d::model();
    let mut cfg = PipelineConfig::paper_default();
    cfg.advisor = AdvisorConfig::loads_and_stores(12);
    let out = run_pipeline(&app, &cfg).unwrap();

    let mut t = Table::new(&["function", "rel_ipc_%", "rel_latency_%"]);
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for (fid, placed_stats) in &out.placed.functions {
        let Some(mm_stats) = out.memory_mode.function(*fid) else { continue };
        if placed_stats.instructions <= 0.0 || mm_stats.ipc() <= 0.0 {
            continue;
        }
        let rel_ipc = 100.0 * placed_stats.ipc() / mm_stats.ipc();
        let rel_lat = if mm_stats.avg_load_latency_ns() > 0.0 {
            100.0 * placed_stats.avg_load_latency_ns() / mm_stats.avg_load_latency_ns()
        } else {
            f64::NAN
        };
        rows.push((app.function_name(*fid).to_string(), rel_ipc, rel_lat));
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, ipc, lat) in &rows {
        t.row(vec![name.clone(), format!("{ipc:.1}"), format!("{lat:.1}")]);
    }
    let mut text = t.render() + "\n";

    // The paper's observation is the inverse correlation between relative
    // IPC and relative latency across the promoted vs demoted function
    // groups. (Our analytic loaded-latency model saturates DRAM during
    // bandwidth-bound placed phases, so absolute latency ratios compress;
    // the group *ordering* is the preserved signal — see EXPERIMENTS.md.)
    let promoted = [
        "advec_cell_kernel",
        "calc_dt_kernel",
        "flux_calc_kernel",
        "pdv_kernel",
        "viscosity_kernel",
    ];
    let demoted = [
        "ideal_gas_kernel",
        "clover_pack_message_top",
        "clover_pack_message_front",
        "reset_field_kernel",
        "update_halo_kernel",
    ];
    let group = |names: &[&str], idx: usize| -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(n, ..)| names.contains(&n.as_str()))
            .map(|r| if idx == 0 { r.1 } else { r.2 })
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    outln!(
        text,
        "\npromoted group: rel IPC {:.1}%, rel latency {:.1}%\n\
         demoted group:  rel IPC {:.1}%, rel latency {:.1}%\n\
         inverse correlation holds: {} (paper: promoted IPC 122-212%, latency 44-78%)",
        group(&promoted, 0),
        group(&promoted, 1),
        group(&demoted, 0),
        group(&demoted, 1),
        group(&promoted, 0) > group(&demoted, 0) && group(&promoted, 1) < group(&demoted, 1),
    );
    Report::from_text(text)
}

/// Table VIII: speedup of OpenFOAM and LAMMPS w.r.t. memory mode, for the
/// main (density) and bandwidth-aware HMem Advisor algorithms under both
/// metric configurations — plus the §VIII-C LULESH numbers (7% → 19%).
/// The bar chart draws the Loads cells.
///
/// Paper reference points: OpenFOAM main ≈ 0.50/0.52, bandwidth-aware ≈
/// 1.056/1.061; LAMMPS ≈ 0.96–0.97 everywhere; LULESH base 1.07 →
/// bandwidth-aware 1.19.
pub(super) fn table8_full_apps(runner: &Runner) -> Report {
    let machine = MachineConfig::optane_pmem6();
    // DRAM limits per the paper: OpenFOAM 11 GB; LAMMPS 14 GB (main) /
    // 16 GB (bw-aware); LULESH 12 GB.
    let apps: Vec<(memsim::AppModel, u64, u64)> = vec![
        (workloads::openfoam::model(), 11, 11),
        (workloads::lammps::model(), 14, 16),
        (workloads::lulesh::model(), 12, 12),
    ];

    let mut grid = Vec::new();
    for (app, main_gib, bw_gib) in &apps {
        for (algorithm, gib, alg_label) in
            [(Algorithm::Base, *main_gib, "main"), (Algorithm::BandwidthAware, *bw_gib, "bw-aware")]
        {
            for metrics in [Metrics::Loads, Metrics::LoadsStores] {
                grid.push((app, algorithm, gib, alg_label, metrics));
            }
        }
    }
    let cells = runner.map(grid, |(app, algorithm, gib, alg_label, metrics)| {
        (alg_label, run_cell(app, &machine, SweepSpec { dram_gib: gib, metrics, algorithm }))
    });

    let mut t = Table::new(&["app", "algorithm", "metrics", "dram_gib", "speedup"]);
    for (alg_label, cell) in &cells {
        t.row(vec![
            cell.app.clone(),
            alg_label.to_string(),
            cell.spec.metrics.label().into(),
            cell.spec.dram_gib.to_string(),
            format!("{:.3}", cell.speedup),
        ]);
    }
    // Four cells per app: main Loads, main Loads+stores, then bw-aware.
    let groups = cells
        .chunks(4)
        .map(|c| BarGroup {
            label: c[0].1.app.clone(),
            values: vec![c[0].1.speedup, c[2].1.speedup],
        })
        .collect();
    let fig = BarChart {
        title: "Table VIII — main vs bandwidth-aware".into(),
        y_label: "speedup vs memory mode".into(),
        series_labels: vec!["main".into(), "bandwidth-aware".into()],
        groups,
        baseline: Some(1.0),
        size: (680, 420),
    };
    Report { text: t.render() + "\n", svgs: vec![("table8_production.svg", fig.render())] }
}

/// Figure 7: PMem bandwidth usage with the main HMem Advisor algorithm
/// (baseline curve) vs the bandwidth-aware algorithm, for LULESH and
/// OpenFOAM. The figure draws LULESH's recurring-phase window.
///
/// Shape to reproduce: the bandwidth-aware curve tracks the main curve but
/// with the high-bandwidth peaks shaved off — the promoted objects' demand
/// has moved to DRAM.
pub(super) fn fig7_bw_aware(runner: &Runner) -> Report {
    const APPS: [(&str, u64); 2] = [("lulesh", 12), ("openfoam", 11)];
    // All four pipeline runs (2 apps × 2 algorithms) in one parallel
    // batch; the per-app profiling/baseline runs are shared via the cache.
    let mut grid = Vec::new();
    for (name, gib) in APPS {
        for algorithm in [Algorithm::Base, Algorithm::BandwidthAware] {
            grid.push((name, gib, algorithm));
        }
    }
    let outs = runner.map(grid, |(name, gib, algorithm)| {
        let app = workloads::model_by_name(name).unwrap();
        let mut cfg = PipelineConfig::paper_default();
        cfg.advisor = AdvisorConfig::loads_only(gib);
        cfg.algorithm = algorithm;
        run_pipeline(&app, &cfg).unwrap()
    });

    let mut text = String::new();
    for (i, (name, _)) in APPS.iter().enumerate() {
        let base = &outs[2 * i];
        let bwa = &outs[2 * i + 1];

        outln!(text, "== {name} ==");
        let a = base.placed.tier_bw_series(TierId::PMEM);
        let b = bwa.placed.tier_bw_series(TierId::PMEM);
        let mut t = Table::new(&["t_s(main)", "main_gb_s", "t_s(bwa)", "bwa_gb_s"]);
        // Sample every few phases to keep the series readable.
        let stride = (a.len() / 30).max(1);
        for i in (0..a.len().min(b.len())).step_by(stride) {
            t.row(vec![
                format!("{:.0}", a[i].0),
                format!("{:.2}", a[i].1 / 1e9),
                format!("{:.0}", b[i].0),
                format!("{:.2}", b[i].1 / 1e9),
            ]);
        }
        outln!(text, "{}", t.render());
        // Speedups shrink the bw-aware run's wall clock, so GB/s alone can
        // mislead; the paper's "released bandwidth" is clearest as the PMem
        // *volume* the run moves.
        let volume = |r: &memsim::RunResult| -> f64 {
            r.phases
                .iter()
                .map(|p| (p.tier_read_bw[1] + p.tier_write_bw[1]) * p.duration)
                .sum::<f64>()
                / 1e9
        };
        outln!(
            text,
            "peak PMem bw: main {:.2} GB/s → bw-aware {:.2} GB/s\n\
             total PMem volume: main {:.0} GB → bw-aware {:.0} GB\n\
             speedups {:.3} → {:.3}\n",
            base.placed.tier_peak_bw(TierId::PMEM) / 1e9,
            bwa.placed.tier_peak_bw(TierId::PMEM) / 1e9,
            volume(&base.placed),
            volume(&bwa.placed),
            base.speedup(),
            bwa.speedup(),
        );
    }

    let window = |r: &memsim::RunResult, label: &str| Series {
        label: label.into(),
        points: r.phases.iter().skip(2).take(18).map(|p| (p.start, pmem_gb_s(p))).collect(),
    };
    let fig = LineChart {
        title: "Fig. 7 — LULESH PMem bandwidth: main vs bandwidth-aware".into(),
        x_label: "time (s)".into(),
        y_label: "PMem bandwidth (GB/s)".into(),
        series: vec![window(&outs[0].placed, "main"), window(&outs[1].placed, "bandwidth-aware")],
        size: (680, 360),
    };
    Report { text, svgs: vec![("fig7_bw_aware.svg", fig.render())] }
}

/// §VIII-D: impact of the call-stack format on OpenFOAM.
///
/// Paper reference: with human-readable call stacks, the bandwidth-aware
/// Loads+stores speedup drops from ≈1.06 to 0.66 — mostly because the
/// per-process debug information needed for translation shrinks the DRAM
/// available to the application (11 GB → 9 GB across 16 ranks), plus the
/// per-allocation translation cost. BOM (contribution VI) avoids both.
pub(super) fn secd_callstack_format(runner: &Runner) -> Report {
    let app = workloads::openfoam::model();
    let debug_bytes = app.binmap.total_debug_info_bytes() * app.ranks as u64;
    let debug_gib = debug_bytes.div_ceil(1 << 30);

    let formats = vec![
        (StackFormat::Bom, 11u64),
        // HR mode: the Advisor limit must leave room for the per-rank debug
        // info (the paper's 11 → 9 GB adjustment).
        (StackFormat::HumanReadable, 11 - debug_gib.max(1)),
    ];
    let rows = runner.map(formats, |(format, gib)| {
        let mut cfg = PipelineConfig::paper_default();
        cfg.advisor = AdvisorConfig::loads_and_stores(gib);
        cfg.algorithm = Algorithm::BandwidthAware;
        cfg.stack_format = format;
        let out = run_pipeline(&app, &cfg).unwrap();
        vec![
            format.to_string(),
            gib.to_string(),
            format!("{:.3}", out.speedup()),
            format!("{:.3}", out.placed.alloc_overhead),
            format!("{:.2}", debug_bytes as f64 / (1u64 << 30) as f64),
        ]
    });
    let mut t = Table::new(&[
        "format",
        "advisor_dram_gib",
        "speedup",
        "match_overhead_s",
        "resident_debug_gib",
    ]);
    for row in rows {
        t.row(row);
    }
    Report::from_text(t.render() + "\n\npaper: BOM ≈ 1.061, human-readable ≈ 0.66\n")
}
