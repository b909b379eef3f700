//! Trace storage recycling, pinned as allocation counts.
//!
//! A thread that synthesizes traces keeps the storage of the last large
//! [`EventBatch`] it dropped, plus the synthesizer's finalize buffers,
//! and the next trace is built in them (`EventBatch::take_spare`). The
//! gain is page faults, which no functional test sees, so this suite
//! counts allocations instead: a counting global allocator, confined to
//! this test binary, tallies each thread's own allocations. The lenient
//! path is pinned the same way: a clean trace costs neither a copy nor a
//! drop mask, and compacting a damaged one allocates only bitsets.
//!
//! The served Events path is pinned the same way: a frame decodes into a
//! batch its tenant already ingested (`proto::decode_with`), which in
//! steady state allocates nothing, and a recycled batch decodes every
//! frame exactly as a fresh one does.

use ecohmem_online::{OnlineConfig, StreamIngestor, StreamMeta};
use ecohmem_serve::proto::{self, Frame, TAG_EVENTS};
use memsim::{ExecMode, FixedTier, MachineConfig, RunCache, RunResult};
use memtrace::columns::SPARE_FLOOR;
use memtrace::{
    BinaryMap, CallStack, DegradationPolicy, EventBatch, FaultKind, FaultSpec, Frame as StackFrame,
    FuncId, ModuleId, ObjectId, SiteId, TierId, TraceColumns, TraceFile,
};
use profiler::{analyze, analyze_lenient, analyze_sanitizing, synthesize_trace, ProfilerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// An allocation at least this large is one glibc serves from fresh
/// pages under its default thresholds.
const LARGE: usize = 256 << 10;

thread_local! {
    /// Allocations this thread made, of any size; a reallocation counts
    /// as one.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`LARGE`] bytes made by this thread.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note_alloc(size: usize) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + u64::from(size >= LARGE)));
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + size as u64));
        let _ = HELD.try_with(|n| n.set(n.get() + size as i64));
    }

    fn note_free(size: usize) {
        let _ = HELD.try_with(|n| n.set(n.get() - size as i64));
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so updating them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note_free(layout.size());
        Counting::note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

fn held() -> i64 {
    HELD.with(Cell::get)
}

/// The golden minife model and its profiling run.
fn minife() -> (memsim::AppModel, RunResult) {
    let app = workloads::minife::model();
    let machine = MachineConfig::optane_pmem6();
    let run = memsim::run(&app, &machine, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
    (app, run)
}

/// Runs `f` on a thread of its own, whose counters and spare start empty.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the thread finishes"))
}

#[test]
fn a_second_synthesis_maps_nothing_large() {
    let (app, run) = minife();
    let cfg = ProfilerConfig::default();
    let (first, second) = on_fresh_thread(|| {
        let before = large_allocs();
        let trace = synthesize_trace(&app, &run, &cfg);
        let first = large_allocs() - before;
        assert!(trace.len() >= SPARE_FLOOR, "minife's trace is large enough to recycle");
        drop(trace);
        let before = large_allocs();
        let trace = synthesize_trace(&app, &run, &cfg);
        let second = large_allocs() - before;
        drop(trace);
        (first, second)
    });
    assert!(first > 0, "a cold thread maps its trace columns fresh");
    assert_eq!(second, 0, "the second trace is built in the first one's storage");
}

#[test]
fn dropped_batches_hold_at_most_one_spare() {
    let (held_after, largest) = on_fresh_thread(|| {
        drop(EventBatch::take_spare());
        let start = held();
        let mut largest = 0;
        for i in 0..12 {
            let before = held();
            let rows = SPARE_FLOOR * (1 + i % 4);
            let mut batch = EventBatch::with_capacity(rows);
            for r in 0..rows {
                batch.push_load(r as f64, 64 * r as u64, 300.0, FuncId(0));
            }
            largest = largest.max(held() - before);
            drop(batch);
        }
        (held() - start, largest)
    });
    assert!(held_after > 0, "the spare is kept");
    assert!(held_after <= largest, "{held_after} bytes held, one batch is at most {largest}");
}

/// Bytes this thread allocates while running `f`.
fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated();
    let out = f();
    (out, allocated() - before)
}

#[test]
fn lenient_analysis_copies_only_a_damaged_trace() {
    let (app, run) = minife();
    let trace = synthesize_trace(&app, &run, &ProfilerConfig::default());
    let (copy, copy_bytes) = bytes_allocated_by(|| trace.clone());
    drop(copy);

    let (strict, strict_bytes) = bytes_allocated_by(|| analyze(&trace).unwrap());
    let ((lenient, warnings), lenient_bytes) = bytes_allocated_by(|| analyze_lenient(&trace));
    assert_eq!((&lenient, warnings.len()), (&strict, 0));
    assert!(
        lenient_bytes < strict_bytes + copy_bytes / 10,
        "a clean trace is analyzed in place: {lenient_bytes} bytes against {strict_bytes} \
         for analyze and {copy_bytes} for a copy"
    );

    // The measure tells a copy apart: a damaged trace is sanitized on one.
    let mut damaged: TraceFile = trace.clone();
    FaultSpec::with_seed(FaultKind::CorruptTimestamps, 0.25, 7).apply_to_trace(&mut damaged);
    let mut sanitized = damaged.clone();
    assert!(!sanitized.sanitize().is_empty());
    let (_, in_place_bytes) = bytes_allocated_by(|| analyze(&sanitized).unwrap());
    let (_, damaged_bytes) = bytes_allocated_by(|| analyze_lenient(&damaged));
    assert!(
        damaged_bytes >= in_place_bytes + copy_bytes / 2,
        "{damaged_bytes} bytes against {in_place_bytes} for analyze and {copy_bytes} for a copy"
    );
}

#[test]
fn the_lenient_stage_on_a_clean_trace_allocates_like_strict_analysis() {
    let (app, run) = minife();
    let trace = synthesize_trace(&app, &run, &ProfilerConfig::default());
    let (mut owned, copy_bytes) = bytes_allocated_by(|| trace.clone());

    let (strict, strict_bytes) = bytes_allocated_by(|| analyze(&trace).unwrap());
    let ((lenient, warnings, window), lenient_bytes) =
        bytes_allocated_by(|| analyze_sanitizing(&mut owned));
    assert_eq!((&lenient, warnings.len(), window.count), (&strict, 0, 0));
    assert!(owned == trace, "a clean trace is left as it was");
    assert!(
        lenient_bytes < strict_bytes + copy_bytes / 10,
        "one walk sanitizes and builds, with no mask: {lenient_bytes} bytes against \
         {strict_bytes} for analyze and {copy_bytes} for a copy"
    );
}

#[test]
fn compacting_a_few_orphan_frees_allocates_a_sliver_of_a_copy() {
    let (app, run) = minife();
    let trace = synthesize_trace(&app, &run, &ProfilerConfig::default());
    let (mut damaged, copy_bytes) = bytes_allocated_by(|| trace.clone());
    let injected = FaultSpec::with_seed(FaultKind::FreeBeforeAlloc, 1.0, 7);
    assert!(!injected.apply_to_trace(&mut damaged).is_empty());
    let built = TraceColumns::build_lenient(&damaged);
    let dropped = built.dropped.expect("the orphan frees are dropped");
    assert_eq!(dropped.count(), damaged.len() - trace.len());

    let ((), compact_bytes) = bytes_allocated_by(|| damaged.events.compact(&dropped));
    assert!(damaged == trace, "only the orphan frees went");
    assert!(
        compact_bytes < copy_bytes / 10,
        "{compact_bytes} bytes to compact, against {copy_bytes} for a copy"
    );
}

/// The payload (tag and body) of every frame in a `[u32 len][payload]`
/// byte stream.
fn payloads(mut body: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    while let Some((len, rest)) = body.split_first_chunk::<4>() {
        let (payload, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        out.push(payload);
        body = rest;
    }
    out
}

/// An Events frame payload of `batch`, as a client sends it.
fn events_payload(batch: &EventBatch) -> Vec<u8> {
    proto::encode(&Frame::Events(batch.clone()))[4..].to_vec()
}

/// [`proto::decode_with`] of an Events payload into `storage`.
fn decode_into(payload: &[u8], storage: EventBatch) -> EventBatch {
    match proto::decode_with(payload, || storage) {
        Ok(Frame::Events(batch)) => batch,
        other => panic!("not an Events frame: {other:?}"),
    }
}

/// Rows each op kind holds, in `OpKind` order.
fn mix(b: &EventBatch) -> [usize; 5] {
    [
        b.alloc_times.len(),
        b.free_times.len(),
        b.load_times.len(),
        b.store_times.len(),
        b.phase_times.len(),
    ]
}

/// Columns of `b` that hold rows, `ops` included: the allocations a
/// count-sized decode of `b` may make.
fn filled_columns(b: &EventBatch) -> u64 {
    // Columns of each kind, in `OpKind` order.
    const COLUMNS: [u64; 5] = [5, 2, 4, 4, 2];
    1 + mix(b).iter().zip(COLUMNS).filter(|(rows, _)| **rows > 0).map(|(_, cols)| cols).sum::<u64>()
}

/// Four 1 MiB blocks, then `frames` frames of 256 load and store samples
/// inside them, in time order.
fn sample_stream(frames: usize) -> Vec<EventBatch> {
    let base = 1u64 << 40;
    let mut allocs = EventBatch::default();
    for i in 0..4u64 {
        allocs.push_alloc(0.0, ObjectId(i + 1), SiteId(i as u32 % 2), 1 << 20, base + (i << 20));
    }
    let mut stream = vec![allocs];
    for f in 0..frames {
        let mut batch = EventBatch::default();
        for k in 0..256u64 {
            let t = 1e-3 * (f * 256 + k as usize + 1) as f64;
            let address = base + ((k * 4099) % (4 << 20));
            if k % 3 == 0 {
                batch.push_store(t, address, k % 2 == 0, FuncId(1));
            } else {
                batch.push_load(t, address, 250.0 + k as f64, FuncId(0));
            }
        }
        stream.push(batch);
    }
    stream
}

#[test]
fn a_recycled_events_frame_decodes_and_ingests_without_allocating() {
    let payloads: Vec<Vec<u8>> = sample_stream(48).iter().map(events_payload).collect();
    let meta = StreamMeta {
        app_name: "recycle".into(),
        sampling_hz: 100.0,
        load_sample_period: 10.0,
        store_sample_period: 20.0,
        stacks: std::sync::Arc::new(
            (0..2)
                .map(|i| (SiteId(i), CallStack::new(vec![StackFrame::new(ModuleId(0), 0x40)])))
                .collect(),
        ),
        binmap: std::sync::Arc::new(BinaryMap::default()),
    };
    let per_frame = on_fresh_thread(|| {
        let mut ingestor =
            StreamIngestor::new(meta, DegradationPolicy::Strict, OnlineConfig::default());
        let mut spare = EventBatch::default();
        let mut per_frame = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let before = allocs();
            let batch = decode_into(payload, std::mem::take(&mut spare));
            ingestor.push_batch(&batch).unwrap();
            spare = batch;
            // The first frames size the spare and the ingestor's tables.
            if i >= 8 {
                per_frame.push(allocs() - before);
            }
        }
        per_frame
    });
    assert!(per_frame.iter().all(|&n| n == 0), "allocations per recycled frame: {per_frame:?}");
}

/// The golden `app` at half scale, as perfbench's `serve` workload
/// streams it: the Events frames of its `serve_scenario::blast_body`.
fn served_frames(app: &str) -> Vec<u8> {
    let model = workloads::scale_model(&workloads::model_by_name(app).unwrap(), 0.5);
    let machine = MachineConfig::optane_pmem6();
    let run = RunCache::new().run_fixed(&model, &machine, ExecMode::MemoryMode, TierId::PMEM, None);
    let trace = profiler::synthesize_trace(&model, &run, &ProfilerConfig::default());
    bench::serve_scenario::blast_body(&trace).to_vec()
}

/// Panics unless `a` and `b` hold equal ops and bit-equal columns.
fn assert_same_columns(a: &EventBatch, b: &EventBatch, what: &str) {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    assert!(a.ops == b.ops, "{what}: ops");
    let floats = [
        ("alloc_times", &a.alloc_times, &b.alloc_times),
        ("free_times", &a.free_times, &b.free_times),
        ("load_times", &a.load_times, &b.load_times),
        ("load_latencies", &a.load_latencies, &b.load_latencies),
        ("store_times", &a.store_times, &b.store_times),
        ("phase_times", &a.phase_times, &b.phase_times),
    ];
    for (name, x, y) in floats {
        assert_eq!(bits(x), bits(y), "{what}: {name}");
    }
    let words = [
        ("alloc_sizes", &a.alloc_sizes, &b.alloc_sizes),
        ("alloc_addresses", &a.alloc_addresses, &b.alloc_addresses),
        ("load_addresses", &a.load_addresses, &b.load_addresses),
        ("store_addresses", &a.store_addresses, &b.store_addresses),
    ];
    for (name, x, y) in words {
        assert_eq!(x, y, "{what}: {name}");
    }
    assert_eq!(a.alloc_objects, b.alloc_objects, "{what}: alloc_objects");
    assert_eq!(a.alloc_sites, b.alloc_sites, "{what}: alloc_sites");
    assert_eq!(a.free_objects, b.free_objects, "{what}: free_objects");
    assert_eq!(a.load_functions, b.load_functions, "{what}: load_functions");
    assert_eq!(a.store_l1d_miss, b.store_l1d_miss, "{what}: store_l1d_miss");
    assert_eq!(a.store_functions, b.store_functions, "{what}: store_functions");
    assert_eq!(a.phase_ids, b.phase_ids, "{what}: phase_ids");
}

#[test]
fn a_recycled_batch_decodes_every_served_frame_as_a_fresh_one_does() {
    for app in ["minife", "lulesh", "hpcg", "phaseshift"] {
        let body = served_frames(app);
        let events: Vec<&[u8]> =
            payloads(&body).into_iter().filter(|p| p[0] == TAG_EVENTS).collect();
        // PhaseShift's trace is short: six frames at this scale.
        assert!(events.len() >= 6, "{app} streams {} Events frames", events.len());
        let (mut spare, mut mixes_changed) = (EventBatch::default(), 0);
        for (i, payload) in events.iter().enumerate() {
            let before = allocs();
            let fresh = match proto::decode(payload) {
                Ok(Frame::Events(batch)) => batch,
                other => panic!("{app} frame {i}: {other:?}"),
            };
            let made = allocs() - before;
            assert!(
                made <= filled_columns(&fresh),
                "{app} frame {i}: a fresh decode made {made} allocations for {} columns",
                filled_columns(&fresh)
            );
            mixes_changed += usize::from(mix(&spare) != mix(&fresh));
            let recycled = decode_into(payload, spare);
            assert_same_columns(&recycled, &fresh, &format!("{app} frame {i}"));
            spare = recycled;
        }
        assert!(mixes_changed > events.len() / 2, "{app}: the frames' mixes differ");
    }
}
