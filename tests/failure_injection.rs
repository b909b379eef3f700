//! Failure injection across crate boundaries: corrupted artifacts, capacity
//! exhaustion, and image mismatches must fail loudly or degrade safely —
//! never silently misplace data.

use ecohmem::prelude::*;
use memsim::{AccessPattern, AllocOp, FreeOp, PhaseSpec};
use memtrace::{
    BinaryMapBuilder, CallStack, Frame, ModuleId, ReportEntry, ReportStack, SiteId, TraceEvent,
};

fn toy_app() -> AppModel {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
    AppModel {
        name: "toy".into(),
        ranks: 1,
        threads_per_rank: 1,
        input_desc: String::new(),
        sites: vec![
            (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)])),
            (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x240)])),
        ],
        binmap: b.build(),
        function_names: vec!["k".into()],
        phases: vec![PhaseSpec {
            label: None,
            compute_instructions: 1e9,
            allocs: vec![
                AllocOp { site: SiteId(0), size: 1 << 26, count: 2 },
                AllocOp { site: SiteId(1), size: 1 << 26, count: 2 },
            ],
            frees: vec![FreeOp { site: SiteId(0), count: 2 }, FreeOp { site: SiteId(1), count: 2 }],
            accesses: vec![memsim::AccessSpec {
                site: SiteId(0),
                function: memtrace::FuncId(0),
                loads: 1e8,
                stores: 1e7,
                llc_miss_rate: 0.3,
                store_l1d_miss_rate: 0.2,
                pattern: AccessPattern::Sequential,
                instructions: 1e8,
                reuse_hint: 0.0,
            }],
        }],
    }
}

#[test]
fn corrupted_trace_is_rejected_by_the_analyzer() {
    let app = toy_app();
    let machine = MachineConfig::optane_pmem6();
    let (mut trace, _) = profile_run(
        &app,
        &machine,
        memsim::ExecMode::MemoryMode,
        &mut memsim::FixedTier::new(TierId::PMEM),
        &ProfilerConfig::default(),
    );
    // Inject a double free.
    let victim = trace
        .events
        .iter_events()
        .find_map(|e| match e {
            TraceEvent::Free { object, .. } => Some(object),
            _ => None,
        })
        .unwrap();
    trace.events.push(&TraceEvent::Free { time: trace.duration + 1.0, object: victim });
    assert!(analyze(&trace).is_err());
}

#[test]
fn truncated_trace_json_fails_to_parse() {
    let app = toy_app();
    let machine = MachineConfig::optane_pmem6();
    let (trace, _) = profile_run(
        &app,
        &machine,
        memsim::ExecMode::MemoryMode,
        &mut memsim::FixedTier::new(TierId::PMEM),
        &ProfilerConfig::default(),
    );
    let json = trace.to_json().unwrap();
    assert!(memtrace::TraceFile::from_json(&json[..json.len() / 3]).is_err());
}

#[test]
fn report_for_a_different_binary_is_rejected_at_init() {
    // A report whose stacks reference modules the running process never
    // mapped must fail at FlexMalloc initialization, not silently match
    // nothing.
    let app = toy_app();
    let mut report = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
    report.push(ReportEntry {
        stack: ReportStack::Bom(CallStack::new(vec![Frame::new(ModuleId(9), 0x40)])),
        tier: TierId::DRAM,
        max_size: 64,
    });
    assert!(FlexMalloc::new(&report, &app.binmap, 1, 1).is_err());
}

#[test]
fn unknown_stacks_fall_back_and_are_counted() {
    let app = toy_app();
    let machine = MachineConfig::optane_pmem6();
    // Report lists only site 0; site 1's allocations must fall back.
    let mut report = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
    report.push(ReportEntry {
        stack: ReportStack::Bom(app.sites[0].1.clone()),
        tier: TierId::DRAM,
        max_size: 1 << 26,
    });
    let mut fm = FlexMalloc::new(&report, &app.binmap, 7, 1).unwrap();
    let result = run(&app, &machine, memsim::ExecMode::AppDirect, &mut fm);
    assert_eq!(fm.stats().matched, 2);
    assert_eq!(fm.stats().unmatched, 2);
    assert_eq!(result.objects_in_tier(TierId::PMEM).len(), 2);
}

#[test]
fn dram_exhaustion_spills_to_fallback_without_failing() {
    // Plan everything into DRAM, then make the objects too big: the engine
    // must spill to PMEM and count the fallbacks.
    let mut app = toy_app();
    for a in &mut app.phases[0].allocs {
        a.size = 9 << 30; // 4 × 9 GiB > 16 GiB DRAM
    }
    let machine = MachineConfig::optane_pmem6();
    let mut report = PlacementReport::new(StackFormat::Bom, TierId::PMEM);
    for (_, stack) in &app.sites {
        report.push(ReportEntry {
            stack: ReportStack::Bom(stack.clone()),
            tier: TierId::DRAM,
            max_size: 9 << 30,
        });
    }
    let mut fm = FlexMalloc::new(&report, &app.binmap, 7, 1).unwrap();
    let result = run(&app, &machine, memsim::ExecMode::AppDirect, &mut fm);
    assert!(result.fallback_allocs >= 3, "spills counted: {}", result.fallback_allocs);
    assert_eq!(result.oom_events, 0, "PMEM absorbs the spill");
}

#[test]
fn zero_sample_profile_still_produces_a_valid_report() {
    // An idle application (no accesses at all) must yield a report that
    // sends everything to the fallback, not crash the Advisor.
    let mut app = toy_app();
    app.phases[0].accesses.clear();
    let machine = MachineConfig::optane_pmem6();
    let (trace, _) = profile_run(
        &app,
        &machine,
        memsim::ExecMode::MemoryMode,
        &mut memsim::FixedTier::new(TierId::PMEM),
        &ProfilerConfig::default(),
    );
    let profile = analyze(&trace).unwrap();
    let advisor = Advisor::new(AdvisorConfig::loads_only(12));
    let report = advisor.advise(&profile, Algorithm::Base, StackFormat::Bom).unwrap();
    assert_eq!(report.count_for_tier(TierId::DRAM), 0);
}

#[test]
fn stale_report_from_an_older_profile_still_deploys() {
    // The paper's workflow reuses a report across runs of the same binary;
    // adding a *new* allocation site to the app (a code change) must only
    // send the new site to the fallback.
    let app = toy_app();
    let machine = MachineConfig::optane_pmem6();
    let cfg = PipelineConfig::paper_default();
    let out = run_pipeline(&app, &cfg).unwrap();

    let mut evolved = app.clone();
    evolved.sites.push((SiteId(2), CallStack::new(vec![Frame::new(ModuleId(0), 0x500)])));
    evolved.phases[0].allocs.push(AllocOp { site: SiteId(2), size: 1 << 20, count: 1 });
    evolved.phases[0].frees.push(FreeOp { site: SiteId(2), count: 1 });

    let mut fm = FlexMalloc::new(&out.report, &evolved.binmap, 99, 1).unwrap();
    let result = run(&evolved, &machine, memsim::ExecMode::AppDirect, &mut fm);
    assert_eq!(fm.stats().unmatched, 1, "only the new site misses");
    assert!(result.total_time > 0.0);
}
