//! Differential guarantees of the columnar analyzer.
//!
//! The columnar engine is a performance rewrite, not a semantic change:
//! for every trace the scalar path accepts, `analyze` (columnar) must
//! produce the *identical* [`profiler::ProfileSet`] —
//! same sample attribution under the same tie-breaks, same bandwidth
//! series to the last bit, same site ordering. This suite pins that
//! contract on three fronts: arbitrary generated traces, traces damaged
//! by every trace-targeted fault kind and then sanitized, and traces
//! quantized by the binary format's microsecond timestamps.

use memtrace::fault::{FaultKind, FaultSpec, FaultTarget};
use memtrace::{
    BinaryMap, BinaryMapBuilder, CallStack, EventBatch, Frame, FuncId, ModuleId, ObjectId, SiteId,
    TierId, TraceEvent, TraceFile,
};
use profiler::{analyze, analyze_legacy, profile_run, synthesize_trace, ProfilerConfig};
use proptest::prelude::*;

fn image() -> BinaryMap {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
    b.build()
}

/// Structurally valid event streams with strictly increasing timestamps —
/// the same generator shape the online convergence suite uses, so the two
/// differential contracts (columnar vs scalar, streaming vs batch) are
/// exercised over the same trace population.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u8..5, 0.001f64..1.0, any::<u16>()), 0..80).prop_map(|ops| {
        let mut t = 0.0;
        let mut next_obj = 1u64;
        let mut live: Vec<(u64, u64, u64)> = Vec::new(); // (obj, addr, size)
        let mut cursor = 1u64 << 44;
        let mut events = Vec::new();
        for (kind, dt, salt) in ops {
            t += dt;
            match kind {
                0 => {
                    let size = 64 * (u64::from(salt) % 512 + 1);
                    let addr = cursor;
                    cursor += size;
                    events.push(TraceEvent::Alloc {
                        time: t,
                        object: ObjectId(next_obj),
                        site: SiteId(u32::from(salt) % 4),
                        size,
                        address: addr,
                    });
                    live.push((next_obj, addr, size));
                    next_obj += 1;
                }
                1 => {
                    if !live.is_empty() {
                        let (obj, _, _) = live.remove(usize::from(salt) % live.len());
                        events.push(TraceEvent::Free { time: t, object: ObjectId(obj) });
                    }
                }
                2 => {
                    if let Some(&(_, addr, size)) = live.first() {
                        events.push(TraceEvent::LoadMissSample {
                            time: t,
                            address: addr + u64::from(salt) % size / 64 * 64,
                            latency_cycles: f64::from(salt % 1000) + 90.0,
                            function: FuncId(salt % 8),
                        });
                    }
                }
                3 => {
                    if let Some(&(_, addr, size)) = live.last() {
                        events.push(TraceEvent::StoreSample {
                            time: t,
                            address: addr + u64::from(salt) % size / 64 * 64,
                            l1d_miss: salt % 2 == 0,
                            function: FuncId(salt % 8),
                        });
                    }
                }
                _ => {
                    events.push(TraceEvent::PhaseMarker { time: t, phase: u32::from(salt) % 100 });
                }
            }
        }
        events
    })
}

fn trace_with(events: Vec<TraceEvent>) -> TraceFile {
    let duration = events.last().map(|e| e.time() + 1.0).unwrap_or(1.0);
    TraceFile {
        app_name: "prop".into(),
        seed: 7,
        ranks: 1,
        sampling_hz: 100.0,
        load_sample_period: 12.5,
        store_sample_period: 8.0,
        duration,
        stacks: (0..4)
            .map(|i| (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), 64 * u64::from(i))])))
            .collect(),
        binmap: image(),
        events: EventBatch::from_events(&events),
    }
}

fn profiled_trace() -> TraceFile {
    let app = workloads::model_by_name("minife").expect("minife model");
    let machine = memsim::MachineConfig::optane_pmem6();
    let (trace, _) = profile_run(
        &app,
        &machine,
        memsim::ExecMode::MemoryMode,
        &mut memsim::FixedTier::new(memtrace::TierId::PMEM),
        &ProfilerConfig::default(),
    );
    trace
}

fn roundtrip(t: &TraceFile) -> TraceFile {
    let mut buf = Vec::new();
    memtrace::binfmt::write_trace(t, &mut buf).expect("write");
    memtrace::binfmt::read_trace(&buf[..]).expect("read")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hard differential guarantee: columnar analysis equals the
    /// scalar fallback on arbitrary valid traces.
    #[test]
    fn columnar_matches_legacy_on_arbitrary_traces(events in arb_events()) {
        let trace = trace_with(events);
        let legacy = analyze_legacy(&trace).expect("generated traces are valid");
        let columnar = analyze(&trace).expect("columnar");
        prop_assert_eq!(&legacy, &columnar);
    }

    /// Same contract after fault injection + sanitize: either both paths
    /// reject the damaged trace, or both accept it with equal profiles.
    #[test]
    fn columnar_matches_legacy_on_faulted_traces(
        events in arb_events(),
        kind_salt in any::<u8>(),
        severity in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let trace_kinds: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .filter(|k| k.target() == FaultTarget::Trace)
            .collect();
        let kind = trace_kinds[usize::from(kind_salt) % trace_kinds.len()];
        let mut trace = trace_with(events);
        let _ = FaultSpec::with_seed(kind, severity, seed).apply_to_trace(&mut trace);
        let _ = trace.sanitize();
        match (analyze_legacy(&trace), analyze(&trace)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "paths disagree on validity: legacy_ok={} columnar_ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

/// The pipeline's own path — a synthesized trace straight into the
/// columnar analyzer, whose sample columns keep emission order rather
/// than time order — equals the scalar analyzer walking the same trace's
/// events for every shipped workload.
#[test]
fn synthesized_columns_analyze_like_the_legacy_path() {
    use memsim::{ExecMode, FixedTier, MachineConfig};
    let machine = MachineConfig::optane_pmem6();
    let mut apps = workloads::all_models();
    apps.push(workloads::phaseshift::model());
    for app in &apps {
        let result =
            memsim::run(app, &machine, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let trace = synthesize_trace(app, &result, &ProfilerConfig::default());
        let legacy = analyze_legacy(&trace).expect("synthesized traces are valid");
        let profile = analyze(&trace).expect("valid");
        assert!(profile == legacy, "{}: columnar profile differs", app.name);
    }
}

/// Every trace-targeted fault kind, at mild and harsh severity, on a real
/// profiled workload: sanitize, then both analyzer paths must agree.
#[test]
fn fault_injected_profiled_traces_agree_after_sanitize() {
    let trace = profiled_trace();
    for kind in FaultKind::ALL {
        if kind.target() != FaultTarget::Trace {
            continue;
        }
        for &severity in &[0.25, 0.75] {
            let mut t = trace.clone();
            let _ = FaultSpec::with_seed(kind, severity, 0xec0).apply_to_trace(&mut t);
            let _ = t.sanitize();
            match (analyze_legacy(&t), analyze(&t)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{kind} severity {severity}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "paths disagree on validity for {kind} severity {severity}: \
                     legacy_ok={} columnar_ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// The binary format quantizes timestamps to microseconds; quantization
/// is idempotent, so a second round trip must leave the analyzer output
/// exactly unchanged, and one round trip must stay within sampling
/// tolerance of the unquantized profile.
#[test]
fn binfmt_quantization_leaves_analysis_invariant() {
    let trace = profiled_trace();
    let q1 = roundtrip(&trace);
    let q2 = roundtrip(&q1);

    let a1 = analyze(&q1).expect("quantized trace analyzes");
    let a2 = analyze(&q2).expect("double-quantized trace analyzes");
    assert_eq!(a1, a2, "µs quantization must be idempotent under analysis");

    // One quantization step can flip samples sitting exactly on interval
    // boundaries, so compare the original within sampling tolerance.
    let a0 = analyze(&trace).expect("original trace analyzes");
    assert_eq!(a0.sites.len(), a1.sites.len());
    for (s0, s1) in a0.sites.iter().zip(&a1.sites) {
        assert_eq!(s0.site, s1.site);
        assert_eq!(s0.alloc_count, s1.alloc_count);
        assert_eq!(s0.total_bytes, s1.total_bytes);
        let load_delta = (s0.load_misses_est - s1.load_misses_est).abs();
        let store_delta = (s0.store_misses_est - s1.store_misses_est).abs();
        assert!(
            load_delta <= trace.load_sample_period * 2.0 + 1e-9,
            "site {:?}: load estimate moved by {load_delta}",
            s0.site
        );
        assert!(
            store_delta <= trace.store_sample_period * 2.0 + 1e-9,
            "site {:?}: store estimate moved by {store_delta}",
            s0.site
        );
    }
}
