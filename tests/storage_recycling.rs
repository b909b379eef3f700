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

use memsim::{ExecMode, FixedTier, MachineConfig, RunResult};
use memtrace::columns::SPARE_FLOOR;
use memtrace::{EventBatch, FaultKind, FaultSpec, FuncId, TierId, TraceColumns, TraceFile};
use profiler::{analyze, analyze_lenient, analyze_sanitizing, synthesize_trace, ProfilerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// An allocation at least this large is one glibc serves from fresh
/// pages under its default thresholds.
const LARGE: usize = 256 << 10;

thread_local! {
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
