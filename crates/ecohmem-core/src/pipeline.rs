//! The end-to-end ecoHMEM pipeline for one application.

use advisor::{Advisor, AdvisorConfig, Algorithm, BwThresholds, Classification};
use flexmalloc::{FlexMalloc, MatchStats};
use memsim::{run, AppModel, ExecMode, MachineConfig, RunResult};
use memtrace::{
    FaultSpec, FaultTarget, PlacementReport, StackFormat, TraceError, TraceFile, Warning,
    WarningKind,
};
use profiler::{analyze, analyze_sanitizing, profile_run_cached, ProfileSet, ProfilerConfig};

// The policy is shared with the streaming ingestor (`ecohmem-online`), so
// it lives with the warning vocabulary in `memtrace`; re-exported here to
// keep the original API path working.
pub use memtrace::DegradationPolicy;

/// Everything a pipeline run needs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The machine to run on.
    pub machine: MachineConfig,
    /// Advisor configuration (tier budgets + coefficients).
    pub advisor: AdvisorConfig,
    /// Placement algorithm.
    pub algorithm: Algorithm,
    /// Call-stack format of the placement report (BOM unless reproducing
    /// the §VIII-D comparison).
    pub stack_format: StackFormat,
    /// Profiler settings (rate + sampling seed).
    pub profiler: ProfilerConfig,
    /// Bandwidth-aware thresholds.
    pub thresholds: BwThresholds,
    /// ASLR seed of the profiling execution.
    pub profile_aslr_seed: u64,
    /// ASLR seed of the production (deployed) execution — deliberately
    /// different: matching must survive relocation.
    pub deploy_aslr_seed: u64,
    /// How to react to damaged intermediate artifacts.
    pub policy: DegradationPolicy,
    /// Deterministic faults injected into the intermediate artifacts
    /// (robustness experiments only; empty in production use).
    pub faults: Vec<FaultSpec>,
}

impl PipelineConfig {
    /// The paper's main setup: PMem-6 machine, 12 GB DRAM budget,
    /// loads-only metrics, base algorithm, BOM stacks, 100 Hz sampling.
    pub fn paper_default() -> Self {
        PipelineConfig {
            machine: MachineConfig::optane_pmem6(),
            advisor: AdvisorConfig::loads_only(12),
            algorithm: Algorithm::Base,
            stack_format: StackFormat::Bom,
            profiler: ProfilerConfig::default(),
            thresholds: BwThresholds::default(),
            profile_aslr_seed: 101,
            deploy_aslr_seed: 202,
            policy: DegradationPolicy::Strict,
            faults: Vec::new(),
        }
    }
}

/// The artifacts and results of one pipeline run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The profiling trace (what Extrae wrote), as the analyzer consumed it.
    pub trace: TraceFile,
    /// The analyzed profile (what Paramedir extracted).
    pub profile: ProfileSet,
    /// The Advisor's placement report.
    pub report: PlacementReport,
    /// Bandwidth-aware classification, when that algorithm ran.
    pub classification: Option<Classification>,
    /// The placed (FlexMalloc) execution.
    pub placed: RunResult,
    /// The Memory Mode baseline execution.
    pub memory_mode: RunResult,
    /// FlexMalloc matching statistics of the placed run.
    pub match_stats: MatchStats,
    /// True when any stage degraded: a lenient path repaired or dropped
    /// something, or a fault injector mutated an artifact.
    pub degraded: bool,
    /// Everything the lenient paths repaired, dropped or fell back on
    /// (always empty under [`DegradationPolicy::Strict`] with no faults).
    pub warnings: Vec<Warning>,
}

impl PipelineOutcome {
    /// Speedup of the placed run over the Memory Mode baseline — the
    /// number every paper figure reports.
    pub fn speedup(&self) -> f64 {
        self.placed.speedup_vs(&self.memory_mode)
    }
}

/// Runs the full pipeline for one application.
///
/// Under [`DegradationPolicy::Strict`] any malformed artifact aborts the
/// run, exactly as before. The lenient policies salvage damaged artifacts
/// stage by stage, collect [`Warning`]s, and set
/// [`PipelineOutcome::degraded`]; `BestEffort` always completes — in the
/// worst case with an all-fallback placement, which is a slower run, not a
/// failed one.
pub fn run_pipeline(app: &AppModel, cfg: &PipelineConfig) -> Result<PipelineOutcome, TraceError> {
    let _span = ecohmem_obs::span("pipeline.run");
    let mut warnings: Vec<Warning> = Vec::new();

    // 1. Profile: the paper profiles the production-ready binary on the
    // target machine; the memory mode it runs under does not change the
    // LLC-miss statistics the Advisor consumes. The engine run is memoized:
    // it has the same inputs as the Memory-Mode baseline of step 5, so the
    // two share a single simulation, and sweeps that vary only the advisor
    // configuration re-profile for free.
    let backing = cfg.machine.largest_tier();
    let (mut trace, _profiling_run) = {
        let _span = ecohmem_obs::span("pipeline.profile");
        profile_run_cached(app, &cfg.machine, ExecMode::MemoryMode, backing, &cfg.profiler)
    };
    for f in cfg.faults.iter().filter(|f| f.kind.target() == FaultTarget::Trace) {
        warnings.extend(f.apply_to_trace(&mut trace));
    }

    // 2. Analyze (Paramedir). Strict fails on the first malformed event;
    // the lenient policies sanitize the trace and build the analyzer's
    // tables in one validator walk, and analyze the remainder.
    let analyze_span = ecohmem_obs::span("pipeline.analyze");
    let profile = match cfg.policy {
        DegradationPolicy::Strict => analyze(&trace)?,
        policy => {
            let events_before = trace.len();
            let (profile, sanitize_warnings, window) = analyze_sanitizing(&mut trace);
            warnings.extend(sanitize_warnings);
            // Sanitize warns per damage class; surface the aggregate data
            // loss too — with the time window it covered — so a lenient
            // run can't silently discard events and the blind spot is
            // auditable.
            let dropped = events_before - trace.len();
            if dropped > 0 {
                warnings.push(Warning::new(
                    WarningKind::DroppedEvents,
                    format!(
                        "sanitization dropped {dropped} of {events_before} trace events{}",
                        window.describe()
                    ),
                ));
            }
            if policy == DegradationPolicy::Warn && trace.is_empty() && events_before > 0 {
                return Err(TraceError::Malformed(format!(
                    "trace unusable after sanitization: all {events_before} events dropped"
                )));
            }
            profile
        }
    };
    drop(analyze_span);

    // 3. Advise.
    let _advise_span = ecohmem_obs::span("pipeline.advise");
    let advisor = Advisor::new(cfg.advisor.clone()).with_thresholds(cfg.thresholds);
    let (_, classification) = advisor.assign(&profile, cfg.algorithm);
    let mut report = match advisor.advise(&profile, cfg.algorithm, cfg.stack_format) {
        Ok(r) => r,
        Err(e) if cfg.policy == DegradationPolicy::BestEffort => {
            warnings.push(Warning::new(
                WarningKind::UnusableReport,
                format!("advisor failed ({e}); deploying an all-fallback placement"),
            ));
            PlacementReport::new(cfg.stack_format, cfg.advisor.fallback)
        }
        Err(e) => return Err(e),
    };
    for f in cfg.faults.iter().filter(|f| f.kind.target() == FaultTarget::Report) {
        warnings.extend(f.apply_to_report(&mut report));
    }

    drop(_advise_span);

    // 4. Deploy: same binary, new execution, new ASLR layout, FlexMalloc
    // interposing with the report. A stale report aborts Strict runs; the
    // lenient policies drop unresolvable entries so their allocations take
    // the fallback tier, and Warn still refuses a report with nothing left.
    let mut interposer = match cfg.policy {
        DegradationPolicy::Strict => {
            FlexMalloc::new(&report, &app.binmap, cfg.deploy_aslr_seed, app.ranks)?
        }
        policy => {
            let (fm, w) =
                FlexMalloc::new_lenient(&report, &app.binmap, cfg.deploy_aslr_seed, app.ranks);
            warnings.extend(w);
            if policy == DegradationPolicy::Warn
                && !report.is_empty()
                && fm.stats().unresolvable as usize == report.len()
            {
                return Err(TraceError::Malformed(format!(
                    "placement report unusable: 0 of {} entries resolve in this process image",
                    report.len()
                )));
            }
            fm
        }
    };
    let placed = {
        let _span = ecohmem_obs::span("pipeline.deploy");
        run(app, &cfg.machine, ExecMode::AppDirect, &mut interposer)
    };
    let match_stats = interposer.stats();

    // 5. Baseline for comparison.
    let memory_mode = {
        let _span = ecohmem_obs::span("pipeline.baseline");
        baselines::run_memory_mode(app, &cfg.machine)
    };

    let degraded = !warnings.is_empty();
    Ok(PipelineOutcome {
        trace,
        profile,
        report,
        classification,
        placed,
        memory_mode,
        match_stats,
        degraded,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minife_pipeline_reproduces_the_headline_win() {
        let app = workloads::minife::model();
        let cfg = PipelineConfig::paper_default();
        let out = run_pipeline(&app, &cfg).unwrap();
        let s = out.speedup();
        assert!(s > 1.6, "MiniFE speedup {s:.2} (paper: up to 2.22x)");
        // Every allocation matched: profiling and deployment use the same
        // binary.
        assert_eq!(out.match_stats.unmatched, 0);
        assert!(out.match_stats.matched > 0);
        // A healthy Strict run is never degraded.
        assert!(!out.degraded);
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn best_effort_completes_under_every_injector_at_full_severity() {
        use memtrace::FaultKind;
        let app = workloads::minife::model();
        for kind in FaultKind::ALL {
            for severity in [0.5, 1.0] {
                let mut cfg = PipelineConfig::paper_default();
                cfg.policy = DegradationPolicy::BestEffort;
                cfg.faults = vec![FaultSpec::new(kind, severity)];
                let out = run_pipeline(&app, &cfg)
                    .unwrap_or_else(|e| panic!("{kind}@{severity} failed BestEffort: {e}"));
                if severity == 1.0 {
                    assert!(out.degraded, "{kind}@1.0 should flag degradation");
                    assert!(!out.warnings.is_empty());
                }
                let s = out.speedup();
                assert!(s.is_finite() && s > 0.0, "{kind}@{severity}: speedup {s}");
            }
        }
    }

    #[test]
    fn strict_fails_on_faults_that_break_validation() {
        use memtrace::FaultKind;
        let app = workloads::hpcg::model();
        for kind in
            [FaultKind::CorruptTimestamps, FaultKind::FreeBeforeAlloc, FaultKind::DropModules]
        {
            let mut cfg = PipelineConfig::paper_default();
            cfg.faults = vec![FaultSpec::new(kind, 1.0)];
            assert!(run_pipeline(&app, &cfg).is_err(), "{kind} should abort a Strict run");
        }
    }

    #[test]
    fn warn_salvages_partial_damage_but_rejects_a_dead_report() {
        use memtrace::FaultKind;
        let app = workloads::minife::model();

        let mut cfg = PipelineConfig::paper_default();
        cfg.policy = DegradationPolicy::Warn;
        cfg.faults = vec![FaultSpec::new(FaultKind::DropSamples, 0.5)];
        let out = run_pipeline(&app, &cfg).unwrap();
        assert!(out.degraded);

        cfg.faults = vec![FaultSpec::new(FaultKind::DropModules, 1.0)];
        assert!(
            run_pipeline(&app, &cfg).is_err(),
            "Warn must reject a report with no resolvable entry"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let app = workloads::hpcg::model();
        let cfg = PipelineConfig::paper_default();
        let a = run_pipeline(&app, &cfg).unwrap();
        let b = run_pipeline(&app, &cfg).unwrap();
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn bandwidth_aware_never_collapses_lammps() {
        // §VIII-C: "even in this unfavorable case, the bandwidth-aware
        // algorithm does not introduce any performance penalty, and the
        // slowdown of our framework is kept below 4%". The paper runs the
        // bandwidth-aware algorithm with a 16 GB limit (it is "less
        // aggressive trying to utilize all the DRAM available").
        let app = workloads::lammps::model();
        let mut cfg = PipelineConfig::paper_default();
        cfg.advisor = AdvisorConfig::loads_only(16);
        cfg.algorithm = Algorithm::BandwidthAware;
        let out = run_pipeline(&app, &cfg).unwrap();
        let s = out.speedup();
        assert!(s > 0.9, "LAMMPS bandwidth-aware speedup {s:.3}");
    }
}
