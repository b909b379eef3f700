//! The sampling profiler: runs a model under the engine and emits an
//! Extrae-like trace file.
//!
//! The paper samples `MEM_LOAD_RETIRED.L3_MISS` and
//! `MEM_INST_RETIRED.ALL_STORES` at 100 Hz per rank. We reproduce the
//! statistics of that process: the run produces `rate × ranks × duration`
//! samples of each kind, distributed across objects in proportion to their
//! true miss/store counts, with seeded randomized rounding (so reruns with
//! the same seed give identical traces, and different seeds model run-to-run
//! sampling noise). Sample timestamps land inside the intersection of the
//! phase window and the object's lifetime (PEBS fires while the code runs,
//! on an object that exists), which is what makes allocation-time bandwidth
//! recoverable; sampled addresses are uniform within the object, exercising
//! the analyzer's address-interval matching.
//!
//! Synthesis is batched per object: every object draws from its own
//! splitmix64 stream seeded from `(cfg.seed, ObjectId)`, so the event
//! stream for an object is a pure function of the configuration — chunks
//! of objects can be generated on any number of workers (via
//! [`memsim::parallel_map`]) and concatenated in submission order without
//! changing a single byte of the trace. Events are emitted *straight into*
//! columnar storage ([`memtrace::EventBatch`]): the batch's own
//! emission-order `ops` stream plus one time bucket per event is the key
//! log, 8 bytes per event, over one shared column arena. Finalizing the
//! trace scatters each op straight into its time bucket of the final
//! `ops` array and sweeps every bucket into stable time order in place —
//! the column data never moves and no `Vec<TraceEvent>` is ever built on
//! the hot path. The arena and the finalize buffers are the storage of
//! the last trace synthesized on the same thread, recycled
//! ([`EventBatch::take_spare`]), so a steady stream of requests maps no
//! fresh trace pages. [`reference`](mod@reference) keeps an AoS generator
//! (serial emission plus one stable sort by time) as the
//! differential-testing oracle.

use memsim::RunResult;
use memsim::{AppModel, ExecMode, MachineConfig, ObjectRecord, PhaseStats, PlacementPolicy};
use memtrace::columns::{BatchOp, TimeColumns};
use memtrace::{EventBatch, FuncId, ObjectId, SiteId, TierId, TraceEvent, TraceFile};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Per-rank sampling rate, Hz (the paper uses 100).
    pub sampling_hz: f64,
    /// Seed for sampling noise and timestamp placement.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { sampling_hz: 100.0, seed: 0xec04_eed0 }
    }
}

/// Profiles one run: executes the model and produces the trace file plus
/// the raw engine result (callers often want both; the paper's workflow
/// only ships the trace onward).
pub fn profile_run(
    app: &AppModel,
    machine: &MachineConfig,
    mode: ExecMode,
    policy: &mut dyn PlacementPolicy,
    cfg: &ProfilerConfig,
) -> (TraceFile, RunResult) {
    let result = memsim::run(app, machine, mode, policy);
    let trace = synthesize_trace(app, &result, cfg);
    (trace, result)
}

/// Memoized variant of [`profile_run`] for fixed-tier profiling runs (the
/// paper's unconstrained profiling execution): the engine run is served
/// from [`memsim::global_cache`], so sweeps that re-profile the same
/// `(app, machine, mode, tier)` combination simulate it once per process.
/// Trace synthesis stays outside the cache — it is deterministic per
/// `cfg.seed`, so the produced trace is identical either way.
pub fn profile_run_cached(
    app: &AppModel,
    machine: &MachineConfig,
    mode: ExecMode,
    tier: TierId,
    cfg: &ProfilerConfig,
) -> (TraceFile, Arc<RunResult>) {
    let result = memsim::global_cache().run_fixed(app, machine, mode, tier, None);
    let trace = synthesize_trace(app, &result, cfg);
    (trace, result)
}

/// Dominant function per site, for sample attribution.
pub(crate) fn site_functions(app: &AppModel) -> HashMap<SiteId, FuncId> {
    let mut best: HashMap<SiteId, (f64, FuncId)> = HashMap::new();
    for phase in &app.phases {
        for a in &phase.accesses {
            let e = best.entry(a.site).or_insert((-1.0, a.function));
            let w = a.loads + a.stores;
            if w > e.0 {
                *e = (w, a.function);
            }
        }
    }
    best.into_iter().map(|(s, (_, f))| (s, f)).collect()
}

/// A splitmix64 counter stream — the sampler's noise source. Statistically
/// strong for this purpose (uniform timestamp jitter, address picks,
/// randomized rounding), an order of magnitude cheaper per draw than a
/// cryptographic generator, and trivially seedable per object.
pub(crate) struct SampleRng(u64);

impl SampleRng {
    pub(crate) fn new(seed: u64) -> SampleRng {
        SampleRng(seed)
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` by multiply-shift (`n` ≥ 1). The modulo bias is
    /// ~2⁻⁶⁴ per draw — far below the sampling noise being modeled.
    #[inline]
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Seed of one object's sample stream: a splitmix64 finalizer over the
/// run seed and the object id. Object-granularity seeding is what makes
/// any partition of the object list into generation chunks produce the
/// identical trace.
pub(crate) fn object_seed(seed: u64, object: u64) -> u64 {
    let mut z = seed ^ object.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a (non-NaN) `f64` to a `u64` whose unsigned order is the float's
/// total order — the classic sign-flip transform. Event timestamps are
/// never NaN (`validate` enforces finiteness downstream), so sorting by
/// these bits equals sorting by `partial_cmp`.
#[inline]
fn time_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Destination of the emission loop. Both sinks receive the *same* call
/// sequence from [`emit_objects`] (and therefore the same RNG draw
/// order), which is what lets the differential suite pin the columnar
/// sink against the AoS reference byte for byte.
trait EventSink {
    fn push_alloc(&mut self, t: f64, object: ObjectId, site: SiteId, size: u64, a: u64);
    fn push_free(&mut self, t: f64, object: ObjectId);
    fn push_load(&mut self, t: f64, address: u64, latency_cycles: f64, func: FuncId);
    fn push_store(&mut self, t: f64, address: u64, l1d_miss: bool, func: FuncId);
    fn push_phase(&mut self, t: f64, phase: u32);
}

/// Target keys per time bucket of the finalize scatter. Small buckets
/// keep the per-bucket sort a handful of comparisons.
const KEYS_PER_BUCKET: usize = 8;

/// Buckets longer than this (a burst of events in a short time) are
/// sorted by the library's stable sort instead of by rank placement, so a
/// dense bucket costs `k log k`, not `k²`. Both give the stable time
/// order, so the choice never shows in the trace.
const SMALL_BUCKET: usize = 32;

/// Below this many buckets the finalize sweep runs serially: a parallel
/// split would cost more in thread hand-off than the sweep takes.
const PARALLEL_FINALIZE_BUCKETS: usize = 512;

/// Bucket-count ceiling (the offset table stays a few MiB at most).
const MAX_BUCKETS: usize = 1 << 20;

/// Columnar event sink: events are pushed straight into one shared
/// [`EventBatch`] arena through its `push_*` methods, whose emission-order
/// `ops` stream, together with `bucket_of`, is the key log: 8 bytes per
/// event, one packed op and its time bucket. Finalizing is a counting
/// scatter of the ops into ~8-op time buckets and a stable sweep of each
/// bucket by timestamp; the column data never moves and no 48-byte
/// `TraceEvent` ever exists on this path.
///
/// Emission order already is the total tie-break order: phase markers
/// come first, objects follow in index order (each object's events in
/// draw order), and parallel shards are absorbed in chunk order. The
/// bucket map is monotone in time, so the result is the *identical*
/// permutation a stable sort by timestamp over the emission stream would
/// produce — independent of bucket geometry and of how emission was
/// chunked.
struct ColumnSink {
    scale: f64,
    buckets: usize,
    /// The key log and the finalize buffers.
    scratch: Scratch,
    cols: EventBatch,
}

/// The buffers of a [`ColumnSink`] besides its arena. A thread keeps its
/// set, emptied, from one trace to the next.
#[derive(Default)]
struct Scratch {
    /// Time bucket of each op of `cols.ops`, in emission order.
    bucket_of: Vec<u32>,
    /// The final `ops` of the next finalize.
    ops: Vec<BatchOp>,
    /// Bucket offsets of the finalize.
    starts: Vec<u32>,
}

thread_local! {
    /// This thread's spare [`Scratch`].
    static SCRATCH: Cell<Scratch> = Cell::default();
}

impl ColumnSink {
    /// `expected` fixes the bucket geometry (all sinks that will be
    /// folded together must share it); `fill` is the share of `expected`
    /// this particular sink will receive, used only to pre-size storage.
    /// The arena is this thread's spare batch and the scratch its spare
    /// scratch, so a thread that synthesizes trace after trace reuses the
    /// storage of the last one instead of mapping fresh pages.
    fn new(expected: usize, fill: usize, duration: f64) -> ColumnSink {
        let buckets = (expected / KEYS_PER_BUCKET).next_power_of_two().clamp(1, MAX_BUCKETS);
        // Loads and stores dominate synthesized traces (alloc/free/phase
        // are one-per-object or one-per-phase); splitting the fill hint
        // between the two sample kinds keeps the arena from doubling
        // mid-emission without over-reserving the rare columns.
        let sample = fill / 2 + fill / 8;
        let meta = fill / 16;
        let keys = fill + fill / 8;
        let mut cols = EventBatch::take_spare();
        cols.ops.reserve(keys);
        cols.load_times.reserve(sample);
        cols.load_addresses.reserve(sample);
        cols.load_latencies.reserve(sample);
        cols.load_functions.reserve(sample);
        cols.store_times.reserve(sample);
        cols.store_addresses.reserve(sample);
        cols.store_l1d_miss.reserve(sample);
        cols.store_functions.reserve(sample);
        cols.alloc_times.reserve(meta);
        cols.alloc_objects.reserve(meta);
        cols.alloc_sites.reserve(meta);
        cols.alloc_sizes.reserve(meta);
        cols.alloc_addresses.reserve(meta);
        cols.free_times.reserve(meta);
        cols.free_objects.reserve(meta);
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        scratch.bucket_of.reserve(keys);
        ColumnSink {
            scale: buckets as f64 / duration.max(f64::MIN_POSITIVE),
            buckets,
            scratch,
            cols,
        }
    }

    /// Logs the time bucket of the event just pushed.
    #[inline]
    fn note(&mut self, t: f64) {
        let b = ((t * self.scale) as usize).min(self.buckets - 1);
        self.scratch.bucket_of.push(b as u32);
    }

    /// Folds a sink of identical geometry into this one: the arenas
    /// concatenate (rows rebased past this sink's columns) and so do the
    /// bucket logs. Absorbing shards in chunk order keeps the key log in
    /// emission order.
    fn absorb(&mut self, other: ColumnSink) {
        self.cols.append(&other.cols);
        self.scratch.bucket_of.extend_from_slice(&other.scratch.bucket_of);
    }

    /// Scatters the emission-order ops into their time buckets, straight
    /// into the final `ops` array (a counting sort on the bucket, stable,
    /// so each bucket holds its ops in emission order), then sweeps every
    /// bucket into stable time order in place. The arena itself never
    /// moves. Buckets are mutually independent, so with `jobs > 1`
    /// disjoint ranges of buckets are swept in parallel, each on its own
    /// slice of `ops`; the output does not depend on `jobs`.
    ///
    /// The final `ops` is the scratch's op buffer, and the emission-order
    /// ops become the op buffer of the scratch this thread keeps.
    fn into_sorted(mut self, jobs: usize) -> EventBatch {
        let Scratch { bucket_of, mut ops, mut starts } = self.scratch;
        // `starts[b]..starts[b + 1]` is bucket `b`'s range of `ops`.
        starts.resize(self.buckets + 1, 0);
        for &b in &bucket_of {
            starts[b as usize + 1] += 1;
        }
        for b in 0..self.buckets {
            starts[b + 1] += starts[b];
        }
        // Every slot is overwritten by the scatter, which advances
        // `starts[b]` to the end of bucket `b`; shifting the table up by
        // one restores the starts. The op buffer is made as roomy as the
        // emission buffer, so the two trade places trace after trace
        // without either growing.
        let emitted = std::mem::take(&mut self.cols.ops);
        ops.reserve(emitted.capacity());
        ops.resize(emitted.len(), BatchOp::alloc(0));
        for (&op, &b) in emitted.iter().zip(&bucket_of) {
            let slot = &mut starts[b as usize];
            ops[*slot as usize] = op;
            *slot += 1;
        }
        starts.copy_within(..self.buckets, 1);
        starts[0] = 0;

        let times = self.cols.time_columns();
        if jobs <= 1 || self.buckets < PARALLEL_FINALIZE_BUCKETS {
            sweep(&mut ops, &starts, times);
        } else {
            let group = self.buckets.div_ceil(jobs * 4);
            let mut runs = Vec::with_capacity(self.buckets.div_ceil(group));
            let mut rest: &mut [BatchOp] = &mut ops;
            for g in (0..self.buckets).step_by(group) {
                let bounds = &starts[g..=(g + group).min(self.buckets)];
                let len = (bounds[bounds.len() - 1] - bounds[0]) as usize;
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                runs.push((run, bounds));
            }
            memsim::parallel_map(runs, jobs, |(run, bounds)| sweep(run, bounds, times));
        }
        self.cols.ops = ops;
        let mut spare = Scratch { bucket_of, ops: emitted, starts };
        spare.bucket_of.clear();
        spare.ops.clear();
        spare.starts.clear();
        let _ = SCRATCH.try_with(|s| s.set(spare));
        self.cols
    }
}

/// Ops whose timestamps [`sweep`] gathers in one go, before it sorts
/// the buckets they belong to.
const SWEEP_CHUNK: usize = 256;

/// Sorts each bucket of `ops` (bucket `i` spans `bounds[i]..bounds[i + 1]`,
/// offset by `bounds[0]`) stably by timestamp, reading each op's time
/// through the batch's kind-indexed time columns. No op leaves its bucket:
/// the bucket map is monotone in time.
///
/// The rows an op stream in time order points at are scattered over the
/// columns, so nearly every time read misses the cache. The sweep
/// therefore gathers the keys of a chunk of whole buckets first, in one
/// loop of independent loads the CPU overlaps, and only then places each
/// op of the chunk's buckets at its stable rank among its bucket's keys —
/// counting comparisons instead of branching on them, so the random order
/// inside a bucket costs no mispredicted branches. The library's
/// `sort_by_key` on each bucket instead re-reads both keys on every
/// comparison; with it, perfbench's `pipeline_ms_p50` was about 11 %
/// higher.
fn sweep(ops: &mut [BatchOp], bounds: &[u32], times: TimeColumns<'_>) {
    let key = |op: BatchOp| time_bits(times.at(op));
    let at = |b: usize| (bounds[b] - bounds[0]) as usize;
    let n_buckets = bounds.len() - 1;
    let mut keys = [0u64; SWEEP_CHUNK];
    let mut src = [BatchOp::alloc(0); SWEEP_CHUNK];
    let mut b = 0;
    while b < n_buckets {
        let lo = at(b);
        if at(b + 1) - lo > SMALL_BUCKET {
            ops[lo..at(b + 1)].sort_by_key(|&op| key(op));
            b += 1;
            continue;
        }
        // The chunk: buckets `b..e`, each at most `SMALL_BUCKET` long,
        // together at most `SWEEP_CHUNK`.
        let mut e = b + 1;
        while e < n_buckets && at(e + 1) - at(e) <= SMALL_BUCKET && at(e + 1) - lo <= SWEEP_CHUNK {
            e += 1;
        }
        let run = &mut ops[lo..at(e)];
        let keys = &mut keys[..run.len()];
        for (k, &op) in keys.iter_mut().zip(run.iter()) {
            *k = key(op);
        }
        let src = &mut src[..run.len()];
        src.copy_from_slice(run);
        for bucket in b..e {
            let (first, end) = (at(bucket) - lo, at(bucket + 1) - lo);
            let bucket_keys = &keys[first..end];
            for (i, &k) in bucket_keys.iter().enumerate() {
                // The stable rank: the keys before it that are not
                // greater, and the keys after it that are smaller.
                let before = bucket_keys[..i].iter().filter(|&&x| x <= k).count();
                let after = bucket_keys[i + 1..].iter().filter(|&&x| x < k).count();
                run[first + before + after] = src[first + i];
            }
        }
        b = e;
    }
}

impl EventSink for ColumnSink {
    #[inline]
    fn push_alloc(&mut self, t: f64, object: ObjectId, site: SiteId, size: u64, a: u64) {
        self.cols.push_alloc(t, object, site, size, a);
        self.note(t);
    }

    #[inline]
    fn push_free(&mut self, t: f64, object: ObjectId) {
        self.cols.push_free(t, object);
        self.note(t);
    }

    #[inline]
    fn push_load(&mut self, t: f64, address: u64, latency_cycles: f64, func: FuncId) {
        self.cols.push_load(t, address, latency_cycles, func);
        self.note(t);
    }

    #[inline]
    fn push_store(&mut self, t: f64, address: u64, l1d_miss: bool, func: FuncId) {
        self.cols.push_store(t, address, l1d_miss, func);
        self.note(t);
    }

    #[inline]
    fn push_phase(&mut self, t: f64, phase: u32) {
        self.cols.push_phase(t, phase);
        self.note(t);
    }
}

/// Rounds an expectation to an integer count without bias.
#[inline]
fn randomized_count(expected: f64, rng: &mut SampleRng) -> u64 {
    let base = expected.floor();
    let frac = expected - base;
    base as u64 + u64::from(rng.next_f64() < frac)
}

/// Objects per generation chunk on the parallel path. Chunking is fixed
/// (not derived from the worker count), but determinism does not depend
/// on it: per-object seeding makes any split produce the same events.
const OBJ_CHUNK: usize = 64;

/// Shared inputs of per-object event generation.
struct EmitCtx<'a> {
    seed: u64,
    load_period: f64,
    store_period: f64,
    funcs: &'a HashMap<SiteId, FuncId>,
    phases: &'a [PhaseStats],
}

/// Emits alloc/free events and randomized samples for a run of objects,
/// returning `(load_samples, store_samples)` counts. Each object's events
/// are emitted consecutively and depend only on that object, so
/// concatenating the emissions of consecutive object chunks reproduces
/// the serial emission order exactly.
fn emit_objects<S: EventSink>(objs: &[ObjectRecord], ctx: &EmitCtx, sink: &mut S) -> (u64, u64) {
    let mut n_loads = 0u64;
    let mut n_stores = 0u64;
    for o in objs {
        sink.push_alloc(o.alloc_time, o.object, o.site, o.size, o.address);
        sink.push_free(o.free_time, o.object);

        let func = ctx.funcs.get(&o.site).copied().unwrap_or(FuncId(u16::MAX));
        let tier_lat_cycles = 300.0; // nominal; refined by the engine stats
        let span = o.size.max(1);
        let mut rng = SampleRng::new(object_seed(ctx.seed, o.object.0));

        // Samples are placed inside the phases where the object's accesses
        // actually happened — PEBS fires while the code runs, not smeared
        // over the object's lifetime. This is what makes "bandwidth at
        // allocation time" (§VII) recoverable from the trace.
        for &(phase, load_misses, store_misses, stores) in &o.phase_activity {
            let p = &ctx.phases[phase as usize];
            // The sampling window is the intersection of the phase and the
            // object's lifetime: a sample cannot fire before the object is
            // allocated, after it is freed (the address may already be
            // reused), or after the phase — and therefore the run — ends.
            // Randomized rounding of the count stays unbiased; only where
            // the timestamps land changes.
            let w0 = p.start.max(o.alloc_time);
            let w1 = (p.start + p.duration).min(o.free_time);
            let lo = w0.min(w1);
            let width = (w1 - w0).max(0.0);

            // Load-miss samples: expectation = misses / period, randomized
            // rounding keeps the total unbiased.
            let n_load = randomized_count(load_misses / ctx.load_period, &mut rng);
            for _ in 0..n_load {
                sink.push_load(
                    lo + rng.next_f64() * width,
                    o.address + rng.below(span) / 64 * 64,
                    tier_lat_cycles * (0.8 + 0.4 * rng.next_f64()),
                    func,
                );
            }
            n_loads += n_load;

            // Store samples: ALL_STORES fires on every store; the L1D-miss
            // flag is set with the stream's true store-miss probability.
            let n_store = randomized_count(stores / ctx.store_period, &mut rng);
            let miss_prob = if stores > 0.0 { store_misses / stores } else { 0.0 };
            for _ in 0..n_store {
                sink.push_store(
                    lo + rng.next_f64() * width,
                    o.address + rng.below(span) / 64 * 64,
                    rng.next_f64() < miss_prob,
                    func,
                );
            }
            n_stores += n_store;
        }
    }
    (n_loads, n_stores)
}

/// Sampling-period and event-volume inputs shared by every generator.
struct Budget {
    load_period: f64,
    store_period: f64,
    expected: usize,
}

fn budget(app: &AppModel, result: &RunResult, cfg: &ProfilerConfig) -> Budget {
    let total_load_misses: f64 = result.objects.iter().map(|o| o.load_misses).sum();
    let total_stores: f64 = result.objects.iter().map(|o| o.stores).sum();
    let sample_budget = (cfg.sampling_hz * app.ranks as f64 * result.total_time).max(1.0);
    Budget {
        load_period: (total_load_misses / sample_budget).max(1.0),
        store_period: (total_stores / sample_budget).max(1.0),
        expected: result.phases.len() + result.objects.len() * 2 + (2.2 * sample_budget) as usize,
    }
}

/// Builds the trace from an engine result.
pub fn synthesize_trace(app: &AppModel, result: &RunResult, cfg: &ProfilerConfig) -> TraceFile {
    synthesize_trace_with_jobs(app, result, cfg, memsim::jobs_from_env())
}

/// [`synthesize_trace`] under its old name: a forward kept for perfbench,
/// which still calls it. ROADMAP item 1 deletes it.
#[doc(hidden)]
pub fn synthesize_columns(app: &AppModel, result: &RunResult, cfg: &ProfilerConfig) -> TraceFile {
    synthesize_trace(app, result, cfg)
}

/// [`synthesize_trace`] with an explicit worker count. The trace does
/// not depend on `jobs` (unit-tested); only wall-clock does.
pub fn synthesize_trace_with_jobs(
    app: &AppModel,
    result: &RunResult,
    cfg: &ProfilerConfig,
    jobs: usize,
) -> TraceFile {
    let _span = ecohmem_obs::span("profiler.synthesize");
    // The chunked path pays a fold pass that only parallelism repays; with
    // fewer cores than requested jobs it is strictly overhead, and the
    // trace is jobs-invariant, so clamp to what the machine can run.
    let jobs = jobs.min(std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1));
    let funcs = site_functions(app);
    let b = budget(app, result, cfg);

    let mut sink =
        ColumnSink::new(b.expected, if jobs <= 1 { b.expected } else { 0 }, result.total_time);

    for (i, phase) in result.phases.iter().enumerate() {
        sink.push_phase(phase.start, i as u32);
    }

    let ctx = EmitCtx {
        seed: cfg.seed,
        load_period: b.load_period,
        store_period: b.store_period,
        funcs: &funcs,
        phases: &result.phases,
    };
    let emit_span = ecohmem_obs::span("profiler.synthesize.emit");
    let (n_loads, n_stores) = if jobs <= 1 || result.objects.len() <= OBJ_CHUNK {
        emit_objects(&result.objects, &ctx, &mut sink)
    } else {
        // Per-object seeding makes every chunk independent, and shards
        // are absorbed in chunk order, so the folded key log is the
        // serial emission order for *any* chunking — the chunk size is
        // free to follow the worker count without affecting the trace
        // (pinned by the jobs-invariance test).
        let chunk = (result.objects.len().div_ceil(jobs * 4)).max(OBJ_CHUNK);
        let n_chunks = result.objects.len().div_ceil(chunk);
        let chunks: Vec<&[ObjectRecord]> = result.objects.chunks(chunk).collect();
        let parts = memsim::parallel_map(chunks, jobs, |objs| {
            let mut shard = ColumnSink::new(b.expected, b.expected / n_chunks, result.total_time);
            let counts = emit_objects(objs, &ctx, &mut shard);
            (shard, counts)
        });
        let (mut loads, mut stores) = (0u64, 0u64);
        for (shard, (l, s)) in parts {
            sink.absorb(shard);
            loads += l;
            stores += s;
        }
        (loads, stores)
    };

    drop(emit_span);
    let events = {
        let _span = ecohmem_obs::span("profiler.synthesize.finalize");
        sink.into_sorted(jobs)
    };

    ecohmem_obs::count("profiler.events.emitted", events.len() as u64);
    ecohmem_obs::count("profiler.samples.load_miss", n_loads);
    ecohmem_obs::count("profiler.samples.store", n_stores);
    ecohmem_obs::count("profiler.allocs.recorded", result.objects.len() as u64);

    TraceFile {
        app_name: app.name.clone(),
        seed: cfg.seed,
        ranks: app.ranks,
        sampling_hz: cfg.sampling_hz,
        load_sample_period: b.load_period,
        store_sample_period: b.store_period,
        duration: result.total_time,
        stacks: app.sites.clone(),
        binmap: app.binmap.clone(),
        events,
    }
}

/// The AoS generator kept as the differential-testing oracle for the
/// columnar sink: same emission context, same emission body (and therefore the
/// same RNG draw sequence), but events materialize as `Vec<TraceEvent>`
/// in serial emission order and take one stable sort by timestamp — the
/// definition of the trace order the bucketed sink must reproduce. Not
/// part of the public API.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Collects events in emission order.
    struct EmissionSink(Vec<TraceEvent>);

    impl EventSink for EmissionSink {
        fn push_alloc(&mut self, t: f64, object: ObjectId, site: SiteId, size: u64, a: u64) {
            self.0.push(TraceEvent::Alloc { time: t, object, site, size, address: a });
        }

        fn push_free(&mut self, t: f64, object: ObjectId) {
            self.0.push(TraceEvent::Free { time: t, object });
        }

        fn push_load(&mut self, t: f64, address: u64, latency_cycles: f64, f: FuncId) {
            self.0.push(TraceEvent::LoadMissSample {
                time: t,
                address,
                latency_cycles,
                function: f,
            });
        }

        fn push_store(&mut self, t: f64, address: u64, l1d_miss: bool, f: FuncId) {
            self.0.push(TraceEvent::StoreSample { time: t, address, l1d_miss, function: f });
        }

        fn push_phase(&mut self, t: f64, phase: u32) {
            self.0.push(TraceEvent::PhaseMarker { time: t, phase });
        }
    }

    /// Serial AoS synthesis: emission order, then a stable time sort.
    pub fn synthesize_trace_reference(
        app: &AppModel,
        result: &RunResult,
        cfg: &ProfilerConfig,
    ) -> TraceFile {
        let funcs = site_functions(app);
        let b = budget(app, result, cfg);
        let mut sink = EmissionSink(Vec::with_capacity(b.expected));
        for (i, phase) in result.phases.iter().enumerate() {
            sink.push_phase(phase.start, i as u32);
        }
        let ctx = EmitCtx {
            seed: cfg.seed,
            load_period: b.load_period,
            store_period: b.store_period,
            funcs: &funcs,
            phases: &result.phases,
        };
        emit_objects(&result.objects, &ctx, &mut sink);
        let mut events = sink.0;
        events.sort_by_key(|e| time_bits(e.time()));
        TraceFile {
            app_name: app.name.clone(),
            seed: cfg.seed,
            ranks: app.ranks,
            sampling_hz: cfg.sampling_hz,
            load_sample_period: b.load_period,
            store_sample_period: b.store_period,
            duration: result.total_time,
            stacks: app.sites.clone(),
            binmap: app.binmap.clone(),
            events: EventBatch::from_events(&events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::FixedTier;
    use memtrace::TierId;

    fn trace_for(seed: u64) -> TraceFile {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed };
        let (trace, _) =
            profile_run(&app, &mach, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM), &cfg);
        trace
    }

    #[test]
    fn trace_is_structurally_valid() {
        let t = trace_for(1);
        t.validate().unwrap();
        assert!(t.alloc_count() > 0);
        assert!(t.sample_count() > 100, "got {}", t.sample_count());
    }

    #[test]
    fn sample_volume_matches_rate() {
        let t = trace_for(1);
        // ≈ 2 × hz × ranks × duration samples (loads + stores), within 30%.
        let expected = 2.0 * 100.0 * 12.0 * t.duration;
        let got = t.sample_count() as f64;
        assert!((got / expected - 1.0).abs() < 0.3, "got {got}, expected ≈ {expected}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(trace_for(7), trace_for(7));
    }

    #[test]
    fn generation_is_chunking_invariant() {
        // The same trace must come out whether objects are emitted on one
        // worker or many — per-object seeding and in-order shard absorption
        // are what guarantee it.
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed: 11 };
        let result =
            memsim::run(&app, &mach, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let serial = synthesize_trace_with_jobs(&app, &result, &cfg, 1);
        for jobs in [1, 4] {
            let trace = synthesize_trace_with_jobs(&app, &result, &cfg, jobs);
            // The column layout agrees too, not just the event sequence.
            assert_eq!(trace.events.ops, serial.events.ops, "jobs={jobs}");
            assert_eq!(trace, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn columnar_matches_the_aos_reference() {
        let app = workloads::minife::model();
        let mach = MachineConfig::optane_pmem6();
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed: 5 };
        let result =
            memsim::run(&app, &mach, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
        let reference = reference::synthesize_trace_reference(&app, &result, &cfg);
        for jobs in [1, 4] {
            assert_eq!(synthesize_trace_with_jobs(&app, &result, &cfg, jobs), reference, "{jobs}");
        }
    }

    #[test]
    fn recycled_storage_does_not_show_in_the_trace() {
        // Trace A leaves this thread a spare arena and finalize buffers
        // full of its own events; B, smaller, is synthesized on top.
        let mach = MachineConfig::optane_pmem6();
        let cfg = ProfilerConfig { sampling_hz: 100.0, seed: 13 };
        let engine = |app: &AppModel| {
            memsim::run(app, &mach, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM))
        };
        let (a, b) = (workloads::lulesh::model(), workloads::hpcg::model());
        let (run_a, run_b) = (engine(&a), engine(&b));
        let reference = reference::synthesize_trace_reference(&b, &run_b, &cfg);
        for jobs in [1, 2] {
            let fresh = std::thread::scope(|s| {
                s.spawn(|| synthesize_trace_with_jobs(&b, &run_b, &cfg, jobs)).join().unwrap()
            });
            let (recycled, a_loads) = std::thread::scope(|s| {
                s.spawn(|| {
                    let a_loads =
                        synthesize_trace_with_jobs(&a, &run_a, &cfg, jobs).events.load_times.len();
                    (synthesize_trace_with_jobs(&b, &run_b, &cfg, jobs), a_loads)
                })
                .join()
                .unwrap()
            });
            assert!(a_loads > fresh.events.load_times.len(), "A is the larger trace");
            assert!(recycled.events.load_times.capacity() >= a_loads, "B reused A's arena");
            assert_eq!(recycled.events.ops, fresh.events.ops, "jobs={jobs}");
            assert_eq!(recycled, fresh, "jobs={jobs}");
            assert_eq!(recycled, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn seeds_change_sampling_noise() {
        let a = trace_for(1);
        let b = trace_for(2);
        assert_ne!(a.events, b.events);
        // But the structure (allocations) is identical.
        assert_eq!(a.alloc_count(), b.alloc_count());
    }

    #[test]
    fn periods_reflect_traffic() {
        let t = trace_for(1);
        assert!(t.load_sample_period >= 1.0);
        assert!(t.store_sample_period >= 1.0);
    }

    #[test]
    fn sample_rng_is_uniform_enough() {
        let mut rng = SampleRng::new(42);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let below = (0..n).filter(|_| rng.below(10) < 5).count();
        assert!((below as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn sampled_addresses_fall_inside_objects() {
        let t = trace_for(3);
        // Collect object address ranges.
        let mut ranges = Vec::new();
        for e in t.events.iter_events() {
            if let TraceEvent::Alloc { address, size, .. } = e {
                ranges.push((address, address + size));
            }
        }
        for e in t.events.iter_events() {
            if let TraceEvent::LoadMissSample { address, .. } = e {
                assert!(
                    ranges.iter().any(|&(lo, hi)| address >= lo && address < hi),
                    "sample address {address:#x} outside every object"
                );
            }
        }
    }

    #[test]
    fn samples_stay_inside_lifetime_and_phase_windows() {
        let t = trace_for(9);
        // Reconstruct each object's lifetime from its alloc/free events.
        let mut life: HashMap<u64, (f64, f64)> = HashMap::new();
        for e in t.events.iter_events() {
            match e {
                TraceEvent::Alloc { time, object, .. } => {
                    life.entry(object.0).or_insert((time, f64::INFINITY)).0 = time;
                }
                TraceEvent::Free { time, object } => {
                    life.entry(object.0).or_insert((0.0, time)).1 = time;
                }
                _ => {}
            }
        }
        // Map each sample back to the (unique, non-overlapping) object
        // whose address interval contains it.
        let mut ranges: Vec<(u64, u64, u64)> = Vec::new();
        for e in t.events.iter_events() {
            if let TraceEvent::Alloc { address, size, object, .. } = e {
                ranges.push((address, address + size, object.0));
            }
        }
        let mut checked = 0usize;
        for e in t.events.iter_events() {
            let (time, address) = match e {
                TraceEvent::LoadMissSample { time, address, .. } => (time, address),
                TraceEvent::StoreSample { time, address, .. } => (time, address),
                _ => continue,
            };
            assert!(time <= t.duration, "sample at {time} past run end {}", t.duration);
            let (lo, hi) = ranges
                .iter()
                .find(|&&(lo, hi, _)| address >= lo && address < hi)
                .map(|&(_, _, obj)| life[&obj])
                .expect("sample address inside some object");
            assert!(
                time >= lo && time <= hi,
                "sample at {time} outside its object's lifetime [{lo}, {hi}]"
            );
            checked += 1;
        }
        assert!(checked > 100, "want a meaningful sample population, got {checked}");
    }
}
