//! Online → offline convergence: the design contract of the streaming
//! engine.
//!
//! With aging disabled (or a single window spanning the whole run), the
//! streaming ingestor fed a complete valid trace must reproduce the batch
//! analyzer's profile exactly, and the incremental advisor — no matter
//! when or how often it ticked mid-stream — must land on the *identical*
//! placement the offline greedy advisor computes. Anything less means the
//! online path silently disagrees with the published methodology it
//! claims to extend.

use advisor::{knapsack, AdvisorConfig};
use ecohmem_online::{
    stream_profile, DegradationPolicy, IncrementalAdvisor, OnlineConfig, StreamIngestor, StreamMeta,
};
use memtrace::{
    BinaryMap, BinaryMapBuilder, CallStack, EventBatch, Frame, FuncId, ModuleId, ObjectId, SiteId,
    TraceEvent, TraceFile,
};
use profiler::analyze;
use proptest::prelude::*;

fn image() -> BinaryMap {
    let mut b = BinaryMapBuilder::new();
    b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
    b.build()
}

/// Structurally valid event streams with strictly increasing timestamps:
/// allocations with unique ids and non-overlapping addresses, frees of
/// live objects only, load and store samples landing inside live blocks,
/// and phase markers to shape the bandwidth series.
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

/// A small DRAM budget so the knapsack has real choices to make.
fn advisor_cfg() -> AdvisorConfig {
    let mut cfg = AdvisorConfig::loads_and_stores(1);
    cfg.tiers[0].capacity = 64 * 256; // a handful of generated objects
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming a full trace with aging disabled reproduces the batch
    /// analyzer's ProfileSet exactly — every site, object, estimate and
    /// bandwidth bin.
    #[test]
    fn streaming_profile_equals_batch_profile(events in arb_events()) {
        let trace = trace_with(events);
        let offline = analyze(&trace).unwrap();
        let (online, warnings) =
            stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap();
        prop_assert!(warnings.is_empty());
        prop_assert_eq!(online, offline);
    }

    /// One sliding window spanning the whole run is the same estimator as
    /// no window: the placement matches the offline advisor's.
    #[test]
    fn whole_run_window_places_like_offline(events in arb_events()) {
        let trace = trace_with(events);
        let cfg = OnlineConfig {
            window: Some(trace.duration + 1.0),
            ..OnlineConfig::default()
        };
        let (online, _) = stream_profile(&trace, DegradationPolicy::Strict, cfg).unwrap();
        let offline = analyze(&trace).unwrap();
        let a_cfg = advisor_cfg();
        prop_assert_eq!(
            knapsack::assign(&online, &a_cfg),
            knapsack::assign(&offline, &a_cfg)
        );
    }

    /// The incremental advisor converges regardless of tick cadence: ticking
    /// every k events (rebuilding only dirtied sites from partial state)
    /// and once more at end-of-stream lands on the identical assignment the
    /// offline pipeline computes from the finished trace.
    #[test]
    fn incremental_ticks_converge_to_the_offline_placement(
        events in arb_events(),
        every in 1usize..7,
    ) {
        let trace = trace_with(events);
        let a_cfg = advisor_cfg();

        let mut ing = StreamIngestor::new(
            StreamMeta::of(&trace),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
        );
        let mut adv = IncrementalAdvisor::new(a_cfg.clone(), advisor::Algorithm::Base);
        for (i, e) in trace.events.iter_events().enumerate() {
            ing.push(e).unwrap();
            if (i + 1) % every == 0 {
                let now = ing.now().max(0.0);
                adv.tick(&mut ing, now);
            }
        }
        adv.tick(&mut ing, trace.duration);

        let offline = knapsack::assign(&analyze(&trace).unwrap(), &a_cfg);
        prop_assert_eq!(adv.assignment().unwrap(), &offline);
        // The dirty-set bookkeeping must have saved work whenever there
        // were ticks with nothing new: rebuilds never exceed events (each
        // event dirties at most one site) plus the final full refresh.
        prop_assert!(adv.rebuilt_sites() <= trace.events.len() as u64 + 4);
    }
}

/// The same convergence on a real profiled workload trace rather than a
/// synthetic one: MiniFE through the simulator's profiler.
#[test]
fn streaming_matches_batch_on_a_profiled_workload() {
    use memsim::{ExecMode, FixedTier, MachineConfig};
    use memtrace::TierId;

    let app = workloads::minife::model();
    let mach = MachineConfig::optane_pmem6();
    let (trace, _) = profiler::profile_run(
        &app,
        &mach,
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
        &profiler::ProfilerConfig::default(),
    );

    let offline = analyze(&trace).unwrap();
    let (online, warnings) =
        stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap();
    assert!(warnings.is_empty());
    assert_eq!(online, offline);

    let cfg = AdvisorConfig::loads_only(12);
    assert_eq!(knapsack::assign(&online, &cfg), knapsack::assign(&offline, &cfg));

    // The bandwidth-aware pass converges too: an incremental tick with
    // Algorithm::BandwidthAware lands on exactly the offline
    // knapsack + rebalance result (the streamed bandwidth series and peak
    // feed the Fitting/Streaming-D/Thrashing classification).
    let mut ing = StreamIngestor::new(
        StreamMeta::of(&trace),
        DegradationPolicy::Strict,
        OnlineConfig::default(),
    );
    for e in trace.events.iter_events() {
        ing.push(e).unwrap();
    }
    let mut adv = IncrementalAdvisor::new(cfg.clone(), advisor::Algorithm::BandwidthAware);
    adv.tick(&mut ing, trace.duration);
    let base = knapsack::assign(&offline, &cfg);
    let expected =
        advisor::bandwidth::rebalance(&offline, &base, &cfg, &advisor::BwThresholds::PAPER).0;
    assert_eq!(adv.assignment().unwrap(), &expected);
}
