//! The fused lenient path against the composition it replaced.
//!
//! Under a lenient policy, `run_pipeline` sanitizes the trace and builds
//! the analyzer's tables in one validator walk, and compacts the batch
//! only when something was dropped. Before, it ran the steps one after
//! another: `FaultSpec::apply_to_trace`, `TraceFile::sanitize_verbose`,
//! then `analyze`. This suite runs both on every trace fault kind at four
//! severities on three apps, and on the clean trace, under `Warn` and
//! `BestEffort`. They must agree on:
//! - the profile;
//! - the report;
//! - every warning text, the `DroppedEvents` one carrying the dropped
//!   window;
//! - the v2 bytes of the trace `run_pipeline` returns;
//! - the error, where `Warn` refuses a run.

use ecohmem::prelude::*;
use memtrace::{binfmt, FaultTarget, WarningKind};
use profiler::{profile_run_cached, ProfileSet};

const SEVERITIES: [f64; 4] = [0.02, 0.1, 0.5, 1.0];

/// The steps of the lenient branch that do not depend on the policy:
/// fault injection, `sanitize_verbose` and `analyze`, on a copy of the
/// profiled trace.
struct Analyzed {
    trace_v2: Vec<u8>,
    profile: ProfileSet,
    warnings: Vec<Warning>,
    /// Events before sanitizing, when sanitizing dropped them all.
    emptied: Option<usize>,
}

fn v2(trace: &memtrace::TraceFile) -> Vec<u8> {
    let mut buf = Vec::new();
    binfmt::write_trace_v2(trace, &mut buf).expect("a sanitized trace encodes");
    buf
}

fn analyzed(profiled: &memtrace::TraceFile, fault: Option<FaultSpec>) -> Analyzed {
    let mut trace = profiled.clone();
    let mut warnings: Vec<Warning> = Vec::new();
    if let Some(f) = fault {
        warnings.extend(f.apply_to_trace(&mut trace));
    }
    let events_before = trace.len();
    let (sanitize_warnings, window) = trace.sanitize_verbose();
    warnings.extend(sanitize_warnings);
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
    let emptied = (trace.is_empty() && events_before > 0).then_some(events_before);
    let profile = analyze(&trace).expect("a sanitized trace analyzes");
    Analyzed { trace_v2: v2(&trace), profile, warnings, emptied }
}

/// The rest of the composition under `cfg`'s policy: `Warn`'s refusal
/// of an emptied trace, then the advise and match stages. The engine
/// runs are left out: they read only the report. Returns the report and
/// every warning text.
fn composed(
    app: &AppModel,
    cfg: &PipelineConfig,
    a: &Analyzed,
) -> Result<(PlacementReport, Vec<String>), String> {
    let warn = cfg.policy == DegradationPolicy::Warn;
    if let (true, Some(events_before)) = (warn, a.emptied) {
        return Err(format!(
            "malformed trace: trace unusable after sanitization: all {events_before} events dropped"
        ));
    }
    let mut warnings = a.warnings.clone();
    let advisor = Advisor::new(cfg.advisor.clone()).with_thresholds(cfg.thresholds);
    let report = match advisor.advise(&a.profile, cfg.algorithm, cfg.stack_format) {
        Ok(r) => r,
        Err(e) if cfg.policy == DegradationPolicy::BestEffort => {
            warnings.push(Warning::new(
                WarningKind::UnusableReport,
                format!("advisor failed ({e}); deploying an all-fallback placement"),
            ));
            PlacementReport::new(cfg.stack_format, cfg.advisor.fallback)
        }
        Err(e) => return Err(e.to_string()),
    };
    let (fm, w) = FlexMalloc::new_lenient(&report, &app.binmap, cfg.deploy_aslr_seed, app.ranks);
    warnings.extend(w);
    if warn && !report.is_empty() && fm.stats().unresolvable as usize == report.len() {
        return Err(format!(
            "malformed trace: placement report unusable: 0 of {} entries resolve in this \
             process image",
            report.len()
        ));
    }
    Ok((report, warnings.iter().map(Warning::to_string).collect()))
}

/// Runs one request through `run_pipeline` and requires the artifacts
/// the composition made of it.
fn check(app: &AppModel, cfg: &PipelineConfig, a: &Analyzed, label: &str) {
    let fused = run_pipeline(app, cfg).map_err(|e| e.to_string());
    match (fused, composed(app, cfg, a)) {
        (Ok(out), Ok((report, warnings))) => {
            assert!(out.profile == a.profile, "{label}: profile differs");
            assert!(out.report == report, "{label}: report differs");
            let got: Vec<String> = out.warnings.iter().map(Warning::to_string).collect();
            assert_eq!(got, warnings, "{label}: warnings");
            assert!(v2(&out.trace) == a.trace_v2, "{label}: sanitized trace differs");
            assert_eq!(out.degraded, !warnings.is_empty(), "{label}: degraded flag");
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}: error"),
        (got, want) => panic!(
            "{label}: run_pipeline {} but the composition {}",
            if got.is_ok() { "completed" } else { "failed" },
            if want.is_ok() { "completed" } else { "failed" },
        ),
    }
}

/// Every trace fault kind at every severity, and the clean trace, under
/// both lenient policies, on one app.
fn fused_equals_composed(app_name: &str) {
    let app = ecohmem::workloads::model_by_name(app_name).expect("a paper model");
    let mut cfg = PipelineConfig::paper_default();
    // The trace `run_pipeline` profiles: the engine run is memoized and
    // the synthesis is deterministic, so one copy serves every request.
    let backing = cfg.machine.largest_tier();
    let (profiled, _) =
        profile_run_cached(&app, &cfg.machine, ExecMode::MemoryMode, backing, &cfg.profiler);
    let faults = FaultKind::ALL
        .into_iter()
        .filter(|k| k.target() == FaultTarget::Trace)
        .flat_map(|kind| SEVERITIES.map(|severity| Some(FaultSpec::with_seed(kind, severity, 7))));
    for fault in std::iter::once(None).chain(faults) {
        let a = analyzed(&profiled, fault);
        cfg.faults = fault.into_iter().collect();
        for policy in [DegradationPolicy::Warn, DegradationPolicy::BestEffort] {
            cfg.policy = policy;
            let label = match fault {
                Some(f) => format!("{app_name} {f} {policy:?}"),
                None => format!("{app_name} clean {policy:?}"),
            };
            check(&app, &cfg, &a, &label);
        }
    }
}

#[test]
fn minife_fused_equals_composed() {
    fused_equals_composed("minife");
}

#[test]
fn hpcg_fused_equals_composed() {
    fused_equals_composed("hpcg");
}

#[test]
fn lulesh_fused_equals_composed() {
    fused_equals_composed("lulesh");
}
