//! Differential test for the columnar ingest path.
//!
//! `StreamIngestor::push_batch` reads an [`EventBatch`]'s columns directly
//! over dense object and site slots, with a memoized live-block search and
//! an incrementally maintained peak-live sweep. Pushing the same events one
//! by one through `push` must leave an indistinguishable engine behind: the
//! same revision log tick by tick, the same snapshot, the same warnings and
//! the same checkpoint bytes — for every degradation policy, every trace
//! fault and several seeds, and on a hand-built stream of the edge cases
//! the memo and the dense slots must get right.
//!
//! The last test pins the checkpoint format across the change: a
//! checkpoint written by the previous (hash-map) ingestor and advisor is
//! committed as a fixture and must restore, re-encode byte-identically and
//! continue exactly like an uninterrupted run.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::durability::codec::{
    decode_advisor, decode_ingestor, encode_advisor, encode_ingestor,
};
use ecohmem_online::{
    BwContext, IncrementalAdvisor, OnlineConfig, PlacementRevision, ProfileSource, StreamIngestor,
    StreamMeta,
};
use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::{
    BinaryMap, CallStack, DegradationPolicy, EventBatch, FaultKind, FaultSpec, FaultTarget, Frame,
    FuncId, ModuleId, ObjectId, SiteId, TierId, TraceError, TraceEvent, TraceFile,
};
use profiler::{ProfileSet, SiteProfile};
use std::cell::Cell;
use std::collections::HashSet;

const POLICIES: [DegradationPolicy; 3] =
    [DegradationPolicy::Strict, DegradationPolicy::Warn, DegradationPolicy::BestEffort];

/// A small profiled trace with many allocations and frees (lulesh at a
/// twentieth of its size).
fn profiled_trace() -> TraceFile {
    let app = workloads::scale_model(&workloads::lulesh::model(), 0.05);
    let (trace, _) = profiler::profile_run(
        &app,
        &MachineConfig::optane_pmem6(),
        ExecMode::MemoryMode,
        &mut FixedTier::new(TierId::PMEM),
        &profiler::ProfilerConfig::default(),
    );
    trace
}

fn load(time: f64, address: u64) -> TraceEvent {
    TraceEvent::LoadMissSample { time, address, latency_cycles: 310.0, function: FuncId(1) }
}

fn store(time: f64, address: u64, l1d_miss: bool) -> TraceEvent {
    TraceEvent::StoreSample { time, address, l1d_miss, function: FuncId(2) }
}

fn alloc(time: f64, id: u64, site: u32, size: u64, address: u64) -> TraceEvent {
    TraceEvent::Alloc { time, object: ObjectId(id), site: SiteId(site), size, address }
}

fn free(time: f64, id: u64) -> TraceEvent {
    TraceEvent::Free { time, object: ObjectId(id) }
}

/// A stream of the cases the memo and the dense slots must get right, with
/// some damage for the lenient policies to drop.
fn edge_case_events() -> Vec<TraceEvent> {
    vec![
        // Samples before the first phase marker: one in a block, one not.
        alloc(0.0, 1, 0, 4096, 0x1000),
        load(0.05, 0x1100),
        store(0.06, 0x9_9999, true),
        TraceEvent::PhaseMarker { time: 0.1, phase: 0 },
        alloc(0.1, 2, 1, 8192, 0x4000),
        alloc(0.1, 3, 2, 1 << 20, 0x10_0000),
        load(0.2, 0x4010),
        load(0.2, 0x1010),
        load(0.21, 0x4020),
        store(0.22, 0x10_0040, false),
        // A sample exactly at the free time still belongs to the object
        // (the grace list); one just after it does not.
        free(0.3, 1),
        load(0.3, 0x1200),
        load(0.31, 0x1200),
        // The address reused after the free, by a new object.
        alloc(0.4, 4, 1, 4096, 0x1000),
        load(0.41, 0x1300),
        // An id reused after a free: samples go to the live instance.
        free(0.5, 2),
        alloc(0.6, 2, 2, 2048, 0x20_0000),
        load(0.61, 0x20_0010),
        load(0.62, 0x4010),
        // Two blocks starting at the same address: the later one wins.
        alloc(0.7, 5, 0, 64, 0x30_0000),
        alloc(0.7, 6, 1, 128, 0x30_0000),
        load(0.71, 0x30_0050),
        free(0.72, 6),
        free(0.72, 5),
        load(0.72, 0x30_0020),
        TraceEvent::PhaseMarker { time: 0.8, phase: 1 },
        // Damage: a NaN time, an out-of-order event, an orphan and a
        // double free, a zero-size and a duplicate allocation, an unknown
        // site.
        load(f64::NAN, 0x10_0000),
        load(0.5, 0x10_0000),
        free(0.85, 77),
        free(0.86, 1),
        alloc(0.87, 8, 0, 0, 0x50_0000),
        alloc(0.88, 3, 0, 64, 0x50_0000),
        alloc(0.89, 9, 42, 64, 0x60_0000),
        store(0.9, 0x10_0100, true),
        free(0.95, 3),
        load(0.95, 0x10_0100),
        TraceEvent::PhaseMarker { time: 1.0, phase: 2 },
        load(1.1, 0x20_0020),
        // Equal blocks at one start, freed together, the larger id
        // allocated first: the grace tie goes to the larger id.
        alloc(1.1, 11, 2, 256, 0x70_0000),
        alloc(1.1, 10, 0, 256, 0x70_0000),
        free(1.15, 10),
        free(1.15, 11),
        load(1.15, 0x70_0010),
    ]
}

fn edge_case_trace() -> TraceFile {
    TraceFile {
        app_name: "edge".into(),
        seed: 0,
        ranks: 1,
        sampling_hz: 1000.0,
        load_sample_period: 100.0,
        store_sample_period: 50.0,
        duration: 1.2,
        stacks: (0..3)
            .map(|i| {
                (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), 0x40 * (i as u64 + 1))]))
            })
            .collect(),
        binmap: BinaryMap::default(),
        events: EventBatch::from_events(&edge_case_events()),
    }
}

fn advisor(hysteresis: f64) -> IncrementalAdvisor {
    IncrementalAdvisor::new(AdvisorConfig::loads_only(1), Algorithm::BandwidthAware)
        .with_hysteresis(hysteresis)
}

/// Everything observable about one engine run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Revisions of every tick, and the error that ended the run early.
    revisions: Vec<Vec<PlacementRevision>>,
    error: Option<String>,
    snapshot: profiler::ProfileSet,
    warnings: Vec<memtrace::Warning>,
    checkpoint: Vec<u8>,
    advisor: Vec<u8>,
}

/// Feeds `trace` in batches of `sizes` (cycled), ticking after every
/// third batch, either columnar or one event at a time.
fn run(
    trace: &TraceFile,
    policy: DegradationPolicy,
    cfg: OnlineConfig,
    sizes: &[usize],
    columnar: bool,
) -> Outcome {
    let mut ing = StreamIngestor::new(StreamMeta::of(trace), policy, cfg);
    let mut adv = advisor(cfg.hysteresis);
    let (mut revisions, mut error) = (Vec::new(), None);
    let (events, mut at, mut k) = (trace.events.to_events(), 0, 0);
    while at < events.len() && error.is_none() {
        let n = sizes[k % sizes.len()].min(events.len() - at);
        let chunk = &events[at..at + n];
        let fed: Result<(), TraceError> = if columnar {
            ing.push_batch(&EventBatch::from_events(chunk)).map(|_| ())
        } else {
            chunk.iter().try_for_each(|e| ing.push(e.clone()).map(|_| ()))
        };
        if let Err(e) = fed {
            error = Some(e.to_string());
        }
        at += n;
        k += 1;
        if k % 3 == 0 {
            let now = chunk.last().map(TraceEvent::time).filter(|t| t.is_finite()).unwrap_or(0.0);
            revisions.push(adv.tick(&mut ing, now));
        }
    }
    revisions.push(adv.tick(&mut ing, trace.duration));
    let (mut checkpoint, mut advisor) = (Vec::new(), Vec::new());
    encode_ingestor(&ing, &mut checkpoint);
    encode_advisor(&adv, &mut advisor);
    Outcome {
        revisions,
        error,
        snapshot: ing.snapshot(trace.duration),
        warnings: ing.warnings(),
        checkpoint,
        advisor,
    }
}

fn assert_paths_agree(
    trace: &TraceFile,
    policy: DegradationPolicy,
    cfg: OnlineConfig,
    patterns: &[&[usize]],
    what: &str,
) {
    for &sizes in patterns {
        let columnar = run(trace, policy, cfg, sizes, true);
        let per_event = run(trace, policy, cfg, sizes, false);
        assert!(
            columnar == per_event,
            "{what} {policy:?} batches {sizes:?}: columnar and per-event ingest diverge"
        );
    }
}

/// A profile source that checks every bandwidth context and site rebuild
/// it hands the advisor against a reference profile.
struct Checked<'a> {
    ing: &'a mut StreamIngestor,
    reference: &'a ProfileSet,
    rebuilt: Cell<usize>,
}

impl ProfileSource for Checked<'_> {
    fn take_dirty(&mut self) -> Vec<SiteId> {
        self.ing.take_dirty()
    }

    fn bw_context(&self, now: f64) -> BwContext {
        let bw = ProfileSource::bw_context(&*self.ing, now);
        assert_eq!(bw.series, self.reference.bw_series, "bandwidth series at {now}");
        bw
    }

    fn rebuild_site(&self, site: SiteId, now: f64, bw: &BwContext, out: &mut SiteProfile) -> bool {
        let built = ProfileSource::rebuild_site(&*self.ing, site, now, bw, out);
        assert_eq!(built.then_some(&*out), self.reference.site(site), "{site:?} at {now}");
        self.rebuilt.set(self.rebuilt.get() + 1);
        built
    }

    fn app_name(&self) -> &str {
        &self.ing.meta().app_name
    }
}

/// Feeds `trace` columnar in batches of 1024 events, ticking after each, and
/// checks every site each tick rebuilds against `profiler::analyze` of the
/// events accepted so far — an oracle that shares none of the ingest
/// state. Checking stops at the first re-used object id (from there on
/// streaming attribution is causal by design) and skips ticks stamped
/// before the last accepted event. Returns the number of checked rebuilds.
fn rebuilds_checked_against_analyzer(trace: &TraceFile, policy: DegradationPolicy) -> usize {
    const BATCH: usize = 1024;
    let cfg = OnlineConfig::default();
    // Which events the validator accepts does not depend on the batching.
    let mut probe = StreamIngestor::new(StreamMeta::of(trace), policy, cfg);
    let events = trace.events.to_events();
    let accepted: Vec<bool> =
        events.iter().map(|e| probe.push(e.clone()).unwrap_or(false)).collect();

    let mut ing = StreamIngestor::new(StreamMeta::of(trace), policy, cfg);
    let mut adv = advisor(cfg.hysteresis);
    let (mut prefix, mut ids) = (Vec::new(), HashSet::new());
    let mut rebuilt = 0;
    for (k, chunk) in events.chunks(BATCH).enumerate() {
        if ing.push_batch(&EventBatch::from_events(chunk)).is_err() {
            break;
        }
        let kept = chunk.iter().zip(&accepted[k * BATCH..]).filter(|(_, &a)| a);
        for (e, _) in kept {
            if let TraceEvent::Alloc { object, .. } = e {
                if !ids.insert(*object) {
                    return rebuilt;
                }
            }
            prefix.push(e.clone());
        }
        let now = chunk.last().map(TraceEvent::time).filter(|t| t.is_finite()).unwrap_or(0.0);
        if now < prefix.last().map_or(0.0, TraceEvent::time) {
            adv.tick(&mut ing, now);
            continue;
        }
        let reference = profiler::analyze(&TraceFile {
            events: EventBatch::from_events(&prefix),
            duration: now,
            ..trace.header()
        })
        .expect("accepted events form a valid trace");
        let mut checked = Checked { ing: &mut ing, reference: &reference, rebuilt: Cell::new(0) };
        adv.tick(&mut checked, now);
        rebuilt += checked.rebuilt.get();
    }
    rebuilt
}

#[test]
fn columnar_push_batch_matches_per_event_push_under_every_fault() {
    let base = profiled_trace();
    let mut rebuilt = 0;
    for kind in FaultKind::ALL {
        if kind.target() != FaultTarget::Trace {
            continue;
        }
        for seed in [1, 2, 3] {
            let mut trace = base.clone();
            FaultSpec::with_seed(kind, 0.3, seed).apply_to_trace(&mut trace);
            for policy in POLICIES {
                let what = format!("{kind}/{seed}");
                assert_paths_agree(
                    &trace,
                    policy,
                    OnlineConfig::default(),
                    &[&[5, 64, 3], &[256]],
                    &what,
                );
                rebuilt += rebuilds_checked_against_analyzer(&trace, policy);
            }
        }
    }
    assert!(rebuilt > 10_000, "only {rebuilt} tick rebuilds were checked against the analyzer");
}

#[test]
fn columnar_push_batch_matches_per_event_push_on_the_edge_cases() {
    let trace = edge_case_trace();
    for policy in POLICIES {
        for cfg in [OnlineConfig::default(), OnlineConfig::reactive()] {
            assert_paths_agree(&trace, policy, cfg, &[&[1], &[2, 5], &[64]], "edge cases");
        }
    }
    // The cases themselves resolve as the analyzer's rules say.
    let mut ing = StreamIngestor::new(
        StreamMeta::of(&trace),
        DegradationPolicy::BestEffort,
        OnlineConfig::default(),
    );
    ing.push_batch(&trace.events).unwrap();
    let p = ing.snapshot(trace.duration);
    let samples = |site: u32, id: u64| {
        let s = p.site(SiteId(site)).unwrap();
        s.objects.iter().find(|o| o.object == ObjectId(id)).unwrap().load_samples
    };
    assert_eq!(samples(0, 1), 3, "pre-marker, live and exactly-at-free samples");
    assert_eq!(samples(1, 4), 1, "the reused address belongs to its new owner");
    assert_eq!(samples(2, 2), 2, "the reused id counts only its live instance's samples");
    assert_eq!(samples(1, 6), 2, "the later block at a shared start wins, live and in grace");
    assert_eq!(samples(2, 11), 1, "a grace tie goes to the larger id");
    assert_eq!(samples(0, 10), 0);
}

/// Before the stream re-uses an id (where streaming attribution is causal
/// by design), every prefix snapshots to the batch analyzer's profile —
/// including snapshots taken exactly at an allocation's timestamp, where
/// the peak-live sweep must close the live objects before the new block.
#[test]
fn every_prefix_snapshots_like_the_analyzer() {
    let full = edge_case_trace();
    let events = full.events.to_events();
    let reuse = events
        .iter()
        .position(
            |e| matches!(e, TraceEvent::Alloc { object: ObjectId(2), time, .. } if *time > 0.5),
        )
        .expect("the stream re-uses id 2");
    for k in 1..=reuse {
        let duration = events[k - 1].time();
        let prefix = TraceFile { events: full.events.slice_ops(0..k), duration, ..full.header() };
        let mut ing = StreamIngestor::new(
            StreamMeta::of(&prefix),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
        );
        ing.push_batch(&prefix.events).unwrap();
        assert_eq!(ing.snapshot(duration), profiler::analyze(&prefix).unwrap(), "prefix of {k}");
    }
}

/// The checkpoint fixture: the edge-case stream, BestEffort, up to the
/// second phase marker, then one tick with hysteresis.
const FIXTURE_EVENTS: usize = 26;
const FIXTURE_TICK: f64 = 0.8;

#[test]
fn a_checkpoint_from_the_previous_encoder_restores_and_continues() {
    let fixture: &[u8] = include_bytes!("fixtures/ingest_checkpoint.bin");
    let mut pos = 0;
    let mut ing = decode_ingestor(fixture, &mut pos).unwrap();
    let adv_start = pos;
    let mut adv = decode_advisor(fixture, &mut pos).unwrap();
    assert_eq!(pos, fixture.len(), "the fixture decodes completely");

    // Re-encoding reproduces the previous encoder's bytes.
    let mut again = Vec::new();
    encode_ingestor(&ing, &mut again);
    assert_eq!(again, fixture[..adv_start], "ingestor bytes");
    encode_advisor(&adv, &mut again);
    assert_eq!(again, fixture, "advisor bytes");

    // So does the current engine fed the same prefix.
    let trace = edge_case_trace();
    let cfg = OnlineConfig { hysteresis: 0.5, ..OnlineConfig::default() };
    let mut fresh = StreamIngestor::new(StreamMeta::of(&trace), DegradationPolicy::BestEffort, cfg);
    let mut fresh_adv = advisor(cfg.hysteresis);
    fresh.push_batch(&trace.events.slice_ops(0..FIXTURE_EVENTS)).unwrap();
    fresh_adv.tick(&mut fresh, FIXTURE_TICK);
    let mut now = Vec::new();
    encode_ingestor(&fresh, &mut now);
    encode_advisor(&fresh_adv, &mut now);
    assert_eq!(now, fixture, "the current encoder writes the same checkpoint");

    // The restored engine continues exactly like the uninterrupted one.
    let rest = trace.events.slice_ops(FIXTURE_EVENTS..trace.len());
    ing.push_batch(&rest).unwrap();
    fresh.push_batch(&rest).unwrap();
    assert_eq!(adv.tick(&mut ing, trace.duration), fresh_adv.tick(&mut fresh, trace.duration));
    assert_eq!(ing.snapshot(trace.duration), fresh.snapshot(trace.duration));
    assert_eq!(ing.warnings(), fresh.warnings());
}
