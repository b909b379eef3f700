//! Differential guarantees of the columnar trace generator.
//!
//! The columnar sink is a performance rewrite of synthesis, not a
//! semantic change: for any engine result, the columnar path must
//! produce the *identical* trace the AoS reference generator produces
//! (emission order, one stable sort by time) — same events, same order,
//! same bytes. This suite pins that contract over every shipped workload
//! and arbitrary small application models, and pins the sample-window
//! property: every sample timestamp falls inside its object's
//! `[alloc_time, free_time]` ∩ phase window.

use memsim::{
    AccessPattern, AccessSpec, AllocOp, AppModel, ExecMode, FixedTier, FreeOp, MachineConfig,
    PhaseSpec,
};
use memtrace::{BinaryMapBuilder, CallStack, Frame, FuncId, ModuleId, SiteId, TierId, TraceEvent};
use profiler::sampler::reference::synthesize_trace_reference;
use profiler::{synthesize_trace, ProfilerConfig};
use proptest::prelude::*;
use std::collections::HashMap;

const N_SITES: u32 = 3;

/// One generated phase: allocations, accesses and frees over the three
/// model sites, in raw strategy form.
type RawPhase = (
    Vec<(u32, u64, u32)>,      // allocs: (site, KiB per object, count)
    Vec<(u32, u32)>,           // frees: (site, count — clamped to live)
    Vec<(u32, f64, f64, f64)>, // accesses: (site, loads, llc_miss_rate, store share)
);

fn build_model(raw: Vec<RawPhase>, ranks: u32) -> AppModel {
    let mut b = BinaryMapBuilder::new();
    b.add_module("prop.out", 64 * 1024, 1 << 20, vec!["prop.c".into()]);
    let mut live: HashMap<u32, u32> = HashMap::new();
    let mut phases = Vec::with_capacity(raw.len());
    for (allocs, frees, accesses) in raw {
        let mut phase = PhaseSpec {
            label: None,
            compute_instructions: 5.0e7,
            allocs: Vec::new(),
            frees: Vec::new(),
            accesses: Vec::new(),
        };
        for (site, kib, count) in allocs {
            *live.entry(site).or_insert(0) += count;
            phase.allocs.push(AllocOp { site: SiteId(site), size: kib * 1024, count });
        }
        for (site, loads, llc_miss_rate, store_share) in accesses {
            // Accessing a site with no live objects is a model the engine
            // never sees from the calibrated workloads; keep the generated
            // population inside the supported envelope.
            if live.get(&site).copied().unwrap_or(0) == 0 {
                continue;
            }
            let stores = loads * store_share;
            phase.accesses.push(AccessSpec {
                site: SiteId(site),
                function: FuncId(site as u16),
                loads,
                stores,
                llc_miss_rate,
                store_l1d_miss_rate: store_share * 0.5,
                pattern: match site % 3 {
                    0 => AccessPattern::Sequential,
                    1 => AccessPattern::Strided,
                    _ => AccessPattern::Random,
                },
                instructions: loads * 0.5,
                reuse_hint: 0.0,
            });
        }
        for (site, count) in frees {
            let avail = live.get(&site).copied().unwrap_or(0);
            let count = count.min(avail);
            if count > 0 {
                *live.get_mut(&site).unwrap() -= count;
                phase.frees.push(FreeOp { site: SiteId(site), count });
            }
        }
        phases.push(phase);
    }
    AppModel {
        name: "prop".into(),
        ranks,
        threads_per_rank: 1,
        input_desc: "generated".into(),
        sites: (0..N_SITES)
            .map(|i| (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), 64 * u64::from(i))])))
            .collect(),
        binmap: b.build(),
        function_names: (0..N_SITES).map(|i| format!("f{i}")).collect(),
        phases,
    }
}

fn arb_model() -> impl Strategy<Value = AppModel> {
    let phase = (
        proptest::collection::vec((0u32..N_SITES, 1u64..64, 1u32..4), 0..3),
        proptest::collection::vec((0u32..N_SITES, 1u32..3), 0..2),
        proptest::collection::vec(
            (0u32..N_SITES, 1.0e5f64..1.0e7, 0.01f64..0.9, 0.0f64..1.0),
            0..3,
        ),
    );
    (proptest::collection::vec(phase, 1..4), 1u32..3)
        .prop_map(|(raw, ranks)| build_model(raw, ranks))
}

/// Every shipped workload, at three scales and two seeds: the bucketed
/// columnar sink reproduces the AoS oracle (serial emission order plus a
/// stable time sort) byte for byte.
#[test]
fn every_workload_matches_the_aos_reference() {
    let machine = MachineConfig::optane_pmem6();
    let mut apps = workloads::all_models();
    apps.push(workloads::phaseshift::model());
    assert_eq!(apps.len(), 8);
    for base in &apps {
        for scale in [0.5, 1.0, 2.0] {
            let app = workloads::scale_model(base, scale);
            let result = memsim::run(
                &app,
                &machine,
                ExecMode::MemoryMode,
                &mut FixedTier::new(TierId::PMEM),
            );
            for seed in [3u64, 0xec04_eed0] {
                let cfg = ProfilerConfig { sampling_hz: 100.0, seed };
                let reference = synthesize_trace_reference(&app, &result, &cfg);
                assert!(
                    synthesize_trace(&app, &result, &cfg) == reference,
                    "{} seed {seed}: columnar trace differs from the oracle",
                    app.name
                );
            }
        }
    }
}

/// A hand-built engine result made of ties: zero-duration phases, objects
/// allocated and freed at the same instant (a zero-width sampling window,
/// so every sample of the object lands on one timestamp), and every
/// alloc, free and phase start on a time-bucket edge. Thousands of events
/// share a timestamp, so buckets run far past their expected size and
/// the finalize sweep's stability is all that orders them.
fn tie_heavy_result() -> (AppModel, memsim::RunResult) {
    let app = workloads::minife::model();
    let mut result = memsim::run(
        &app,
        &MachineConfig::optane_pmem6(),
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
    );
    let total = 8.0;
    // Phase starts and object times are multiples of `total / 64`: bucket
    // edges for any power-of-two bucket count of at least 64.
    let edge = |k: u64| k as f64 * total / 64.0;
    let template = result.phases[0].clone();
    let spans = [(0, 16), (16, 0), (16, 16), (32, 0), (32, 32), (64, 0)];
    result.phases = spans
        .iter()
        .enumerate()
        .map(|(i, &(start, len))| memsim::PhaseStats {
            index: i as u32,
            start: edge(start),
            duration: edge(len),
            ..template.clone()
        })
        .collect();
    result.total_time = total;
    let template = result.objects[0].clone();
    let sites: Vec<SiteId> = app.sites.iter().map(|(s, _)| *s).collect();
    result.objects = (0..240u64)
        .map(|i| {
            let (alloc, free, phases): (u64, u64, &[u32]) = match i % 4 {
                // Zero-width window: allocated and freed at one edge.
                0 => (i % 64, i % 64, &[0, 2, 4, 5]),
                // Alive across the zero-duration phases only.
                1 => (8, 40, &[1, 3]),
                // An ordinary window between two edges.
                2 => (i % 32, i % 32 + 16, &[0, 2, 4]),
                // Allocated at the run's end.
                _ => (64, 64, &[5]),
            };
            let activity: Vec<(u32, f64, f64, f64)> =
                phases.iter().map(|&p| (p, 4.0e6, 1.0e6, 4.0e6)).collect();
            memsim::ObjectRecord {
                object: memtrace::ObjectId(1000 + i),
                site: sites[i as usize % sites.len()],
                address: 0x1_0000 * (i + 1),
                alloc_time: edge(alloc),
                free_time: edge(free),
                alloc_phase: 0,
                load_misses: activity.iter().map(|a| a.1).sum(),
                store_misses: activity.iter().map(|a| a.2).sum(),
                stores: activity.iter().map(|a| a.3).sum(),
                phase_activity: activity,
                ..template.clone()
            }
        })
        .collect();
    (app, result)
}

/// Ties everywhere: the in-place finalize sweep keeps emission order among
/// equal timestamps exactly like the oracle's stable sort.
#[test]
fn tie_heavy_synthesis_matches_the_reference() {
    let (app, result) = tie_heavy_result();
    let cfg = ProfilerConfig { sampling_hz: 100.0, seed: 17 };
    let reference = synthesize_trace_reference(&app, &result, &cfg);
    let times: Vec<f64> = reference.events.iter_events().map(|e| e.time()).collect();
    let tied = |t: f64| times.iter().filter(|&&x| x == t).count();
    assert!(tied(2.0) > 1000 && tied(8.0) > 1000, "want heavy ties: {} {}", tied(2.0), tied(8.0));
    let trace = synthesize_trace(&app, &result, &cfg);
    assert_eq!(trace.events, reference.events, "events differ from the oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hard differential guarantee: columnar synthesis reproduces the
    /// pre-columnar AoS generator event for event.
    #[test]
    fn columnar_synthesize_matches_the_aos_reference(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let machine = MachineConfig::optane_pmem6();
        let result =
            memsim::run(&model, &machine, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed };
        let reference = synthesize_trace_reference(&model, &result, &cfg);
        let trace = synthesize_trace(&model, &result, &cfg);
        prop_assert_eq!(&trace, &reference);

        // Equal traces serialize to byte-identical v2 files, whatever
        // their row layout, and the encoding round-trips through the
        // lazily-decoded TraceBuf.
        let mut bytes = Vec::new();
        memtrace::write_trace_v2(&trace, &mut bytes).unwrap();
        let mut reference_bytes = Vec::new();
        memtrace::write_trace_v2(&reference, &mut reference_bytes).unwrap();
        prop_assert_eq!(&bytes, &reference_bytes);
        let buf = memtrace::TraceBuf::from_bytes(bytes).unwrap();
        prop_assert_eq!(buf.event_count(), trace.len());
    }

    /// The clipped-window property (the satellite bugfix): every sample
    /// lands inside `[alloc_time, free_time]` of the object that owns its
    /// address, intersected with a phase the object was active in — and
    /// never past the end of the run.
    #[test]
    fn samples_respect_lifetime_and_phase_windows(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let machine = MachineConfig::optane_pmem6();
        let result =
            memsim::run(&model, &machine, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed };
        let trace = synthesize_trace(&model, &result, &cfg);
        for e in trace.events.iter_events() {
            let (time, address) = match e {
                TraceEvent::LoadMissSample { time, address, .. } => (time, address),
                TraceEvent::StoreSample { time, address, .. } => (time, address),
                _ => continue,
            };
            prop_assert!(time <= result.total_time,
                "sample at {} past run end {}", time, result.total_time);
            let ok = result.objects.iter().any(|o| {
                address >= o.address
                    && address < o.address + o.size.max(1)
                    && o.phase_activity.iter().any(|&(p, ..)| {
                        let p = &result.phases[p as usize];
                        let w0 = p.start.max(o.alloc_time);
                        let w1 = (p.start + p.duration).min(o.free_time);
                        time >= w0.min(w1) && time <= w1.max(w0)
                    })
            });
            prop_assert!(ok, "sample at t={} addr={:#x} outside every lifetime ∩ phase window",
                time, address);
        }
    }
}
