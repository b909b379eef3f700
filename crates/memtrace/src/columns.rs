//! Columnar (structure-of-arrays) views of a trace — the analyzer's hot
//! path representation.
//!
//! A [`crate::TraceFile`] stores its events as one `Vec<TraceEvent>`: a
//! 48-byte enum per event, with every consumer pattern-matching its way
//! past the four kinds it does not care about. That layout is faithful to
//! the on-disk format but hostile to the per-sample work the analyzer
//! does half a million times per trace. This module provides the
//! transposed view:
//!
//! * [`TraceColumns`] — one flat column per field per event kind
//!   (timestamps, addresses, store-miss flags, …), built from an
//!   [`EventBatch`] by [`TraceColumns::from_batch`] with one walk over
//!   its op stream.
//! * dense interning — [`crate::ObjectId`]s (sparse `u64`s) and
//!   [`crate::SiteId`]s are mapped to dense `u32` indices, so per-object
//!   and per-site statistics live in flat arrays instead of hash maps.
//! * [`ObjectIndex`] — the address-interval index with the liveness
//!   window *inlined* into each entry: one binary search plus a short
//!   backward scan attributes a sample with zero hash lookups.
//! * [`EventBatch`] — the streaming counterpart: a columnar batch of
//!   events that preserves arrival order, so the online ingestor can
//!   accept events in bulk without touching the enum per field.
//!
//! Consumers shard the columns into fixed-size chunks and scan them in
//! parallel (see `profiler::analyzer`); everything here is plain data
//! with no interior mutability, so `&TraceColumns` is freely `Sync`.

use crate::callstack::CallStack;
use crate::events::TraceEvent;
use crate::ids::{FuncId, ObjectId, SiteId};
use std::collections::HashMap;

/// Two heap blocks can only alias the same sample address when they sit in
/// the same simulated tier: the engine carves the address space into
/// strides of `1 << 44` bytes (16 TiB) per tier, so interval candidates
/// further than this below a sample address can never contain it. The
/// analyzer uses this to bound its backward scan.
///
/// Must equal `memsim::TierHeap::TIER_STRIDE`; a unit test in `memsim`
/// pins the two together (memtrace sits below memsim in the crate DAG, so
/// the constant cannot be imported here).
pub const SAME_TIER_SPAN: u64 = 1 << 44;

/// Dense per-object columns: index `d` holds the `d`-th distinct
/// [`ObjectId`] in allocation order. Re-allocating an id after a free
/// *replaces* its record (last instance wins) — the same semantics as the
/// batch analyzer's object table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectTable {
    /// Dense index → original object id.
    pub ids: Vec<ObjectId>,
    /// Dense index → dense site index (see [`TraceColumns::site_ids`]).
    pub sites: Vec<u32>,
    /// Allocation size in bytes.
    pub sizes: Vec<u64>,
    /// Block start address.
    pub addresses: Vec<u64>,
    /// Allocation timestamp, seconds.
    pub alloc_times: Vec<f64>,
    /// Free timestamp; the trace duration for objects never freed.
    pub free_times: Vec<f64>,
}

impl ObjectTable {
    /// Number of distinct objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the trace allocated nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The SoA view of one trace: per-kind columns plus interning tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceColumns {
    /// Trace duration, seconds.
    pub duration: f64,
    /// Dense site index → site id, in `stacks` order (first occurrence
    /// wins for duplicate table entries, unknown sites referenced by
    /// allocations are appended after the table).
    pub site_ids: Vec<SiteId>,
    /// Dense site index → position in `TraceFile::stacks`, or
    /// `usize::MAX` for sites that appear in events but not in the table.
    pub site_stacks: Vec<usize>,
    /// Interned object records.
    pub objects: ObjectTable,
    /// Dense site index → dense object indices, sorted by [`ObjectId`]
    /// (the order every per-site aggregation folds in).
    pub site_objects: Vec<Vec<u32>>,
    /// Load-miss sample timestamps (ascending for a valid trace).
    pub load_times: Vec<f64>,
    /// Load-miss sample data addresses.
    pub load_addresses: Vec<u64>,
    /// Store sample timestamps (ascending for a valid trace).
    pub store_times: Vec<f64>,
    /// Store sample data addresses.
    pub store_addresses: Vec<u64>,
    /// Store sample L1D-miss flags.
    pub store_l1d_miss: Vec<bool>,
    /// Phase-marker timestamps in arrival order.
    pub phase_times: Vec<f64>,
}

impl TraceColumns {
    /// Transposes a batch into analysis columns. Event order matters only
    /// for the alloc/free replay (an id re-used after free must end up
    /// with its *last* instance, like the scalar analyzer's object
    /// table), so only that replay and site interning walk the op stream;
    /// the sample columns are wholesale copies of the batch columns, in
    /// row order (the analyzer attributes every sample on its own, so
    /// that order never changes a result).
    pub fn from_batch(
        duration: f64,
        stacks: &[(SiteId, CallStack)],
        batch: &EventBatch,
    ) -> TraceColumns {
        let mut cols = TraceColumns { duration, ..TraceColumns::default() };

        let mut site_dense: HashMap<SiteId, u32> = HashMap::with_capacity(stacks.len());
        for (i, (site, _)) in stacks.iter().enumerate() {
            site_dense.entry(*site).or_insert_with(|| {
                cols.site_ids.push(*site);
                cols.site_stacks.push(i);
                (cols.site_ids.len() - 1) as u32
            });
        }

        let mut obj_dense: HashMap<ObjectId, u32> = HashMap::new();
        for op in &batch.ops {
            match *op {
                BatchOp::Alloc(r) => {
                    let r = r as usize;
                    let site = batch.alloc_sites[r];
                    let ds = *site_dense.entry(site).or_insert_with(|| {
                        cols.site_ids.push(site);
                        cols.site_stacks.push(usize::MAX);
                        (cols.site_ids.len() - 1) as u32
                    });
                    let object = batch.alloc_objects[r];
                    let o = &mut cols.objects;
                    match obj_dense.get(&object) {
                        Some(&d) => {
                            let d = d as usize;
                            o.sites[d] = ds;
                            o.sizes[d] = batch.alloc_sizes[r];
                            o.addresses[d] = batch.alloc_addresses[r];
                            o.alloc_times[d] = batch.alloc_times[r];
                            o.free_times[d] = duration;
                        }
                        None => {
                            obj_dense.insert(object, o.ids.len() as u32);
                            o.ids.push(object);
                            o.sites.push(ds);
                            o.sizes.push(batch.alloc_sizes[r]);
                            o.addresses.push(batch.alloc_addresses[r]);
                            o.alloc_times.push(batch.alloc_times[r]);
                            o.free_times.push(duration);
                        }
                    }
                }
                BatchOp::Free(r) => {
                    if let Some(&d) = obj_dense.get(&batch.free_objects[r as usize]) {
                        cols.objects.free_times[d as usize] = batch.free_times[r as usize];
                    }
                }
                _ => {}
            }
        }

        cols.load_times = batch.load_times.clone();
        cols.load_addresses = batch.load_addresses.clone();
        cols.store_times = batch.store_times.clone();
        cols.store_addresses = batch.store_addresses.clone();
        cols.store_l1d_miss = batch.store_l1d_miss.clone();
        cols.phase_times = batch.phase_times.clone();

        cols.site_objects = vec![Vec::new(); cols.site_ids.len()];
        for (d, &ds) in cols.objects.sites.iter().enumerate() {
            cols.site_objects[ds as usize].push(d as u32);
        }
        let ids = &cols.objects.ids;
        for objs in &mut cols.site_objects {
            objs.sort_unstable_by_key(|&d| ids[d as usize]);
        }
        cols
    }
}

/// One interval of the address index: a heap block with its liveness
/// window inlined, so a candidate is accepted or rejected from this entry
/// alone — no lookups into any side table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// Block start address.
    pub start: u64,
    /// Block end address (exclusive).
    pub end: u64,
    /// Allocation time; samples earlier than this do not match.
    pub alloc_time: f64,
    /// Free time (inclusive bound, like the batch analyzer).
    pub free_time: f64,
    /// Dense object index of the owner.
    pub obj: u32,
}

/// Address-interval index over an [`ObjectTable`], sorted by
/// `(start, end, ObjectId)` — the exact candidate order of the scalar
/// analyzer, so tie-breaks between dead blocks sharing a recycled address
/// resolve identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectIndex {
    /// Sorted intervals.
    pub entries: Vec<IndexEntry>,
    /// Smallest interval start; the bucket grid's origin.
    grid_base: u64,
    /// Log2 of the address width of one grid bucket.
    grid_shift: u32,
    /// `grid[h]` = first entry whose start lies in bucket `h` or later;
    /// one trailing sentinel equal to `entries.len()`. Narrows the
    /// per-sample binary search to a handful of entries.
    grid: Vec<u32>,
}

impl ObjectIndex {
    /// Builds the sorted index from an object table.
    pub fn build(objects: &ObjectTable) -> ObjectIndex {
        let mut entries: Vec<IndexEntry> = (0..objects.len())
            .map(|d| IndexEntry {
                start: objects.addresses[d],
                end: objects.addresses[d] + objects.sizes[d],
                alloc_time: objects.alloc_times[d],
                free_time: objects.free_times[d],
                obj: d as u32,
            })
            .collect();
        let ids = &objects.ids;
        entries.sort_unstable_by(|a, b| {
            (a.start, a.end, ids[a.obj as usize]).cmp(&(b.start, b.end, ids[b.obj as usize]))
        });

        // Bucket grid over the start addresses: ~2 entries per bucket,
        // capped so sparse address spaces cannot blow the table up.
        let grid_base = entries.first().map(|e| e.start).unwrap_or(0);
        let span = entries.last().map(|e| e.start - grid_base).unwrap_or(0);
        let buckets = (entries.len() / 2).next_power_of_two().clamp(1, 1 << 20);
        let mut grid_shift = 0u32;
        while grid_shift < 63 && (span >> grid_shift) >= buckets as u64 {
            grid_shift += 1;
        }
        let mut grid = vec![0u32; buckets + 1];
        for e in &entries {
            let h = ((e.start - grid_base) >> grid_shift) as usize;
            grid[h + 1] += 1;
        }
        for h in 0..buckets {
            grid[h + 1] += grid[h];
        }
        ObjectIndex { entries, grid_base, grid_shift, grid }
    }

    /// Index of the first entry with `start > address` — the upper bound
    /// the backward candidate scan starts from. The grid narrows the
    /// binary search to one bucket's worth of entries.
    #[inline]
    fn upper_bound(&self, address: u64) -> usize {
        if self.entries.is_empty() || address < self.grid_base {
            return 0;
        }
        let buckets = self.grid.len() - 1;
        let h = ((address - self.grid_base) >> self.grid_shift) as usize;
        if h >= buckets {
            return self.entries.len();
        }
        let (lo, hi) = (self.grid[h] as usize, self.grid[h + 1] as usize);
        lo + self.entries[lo..hi].partition_point(|e| e.start <= address)
    }

    /// Resolves a sample to the dense object owning `address` at `time`:
    /// binary search for the last interval starting at or below the
    /// address, then a backward scan bounded by [`SAME_TIER_SPAN`],
    /// accepting the first candidate whose range and (inclusive) liveness
    /// window both cover the sample.
    #[inline]
    pub fn lookup(&self, address: u64, time: f64) -> Option<u32> {
        self.scan_back(self.upper_bound(address), address, time)
    }

    /// The backward candidate scan from upper bound `idx`.
    #[inline]
    fn scan_back(&self, idx: usize, address: u64, time: f64) -> Option<u32> {
        self.entries[..idx]
            .iter()
            .rev()
            .take_while(|e| e.start + SAME_TIER_SPAN > address)
            .find(|e| address < e.end && time >= e.alloc_time && time <= e.free_time)
            .map(|e| e.obj)
    }

    /// A lookup cursor for scans where consecutive samples tend to land
    /// in the same address gap (see [`IndexCursor`]).
    pub fn cursor(&self) -> IndexCursor<'_> {
        let mut c = IndexCursor { index: self, lo: 0, hi: 0, upper: 0 };
        c.remember(0);
        c
    }
}

/// [`ObjectIndex::lookup`] that memoizes the upper-bound search: it keeps
/// the previous sample's gap `[entries[i-1].start, entries[i].start)`,
/// over which the upper bound is constant at `i`. A sample inside that
/// gap skips the search; any other address falls back to it. Every answer
/// is therefore exactly [`ObjectIndex::lookup`]'s.
#[derive(Debug, Clone)]
pub struct IndexCursor<'a> {
    index: &'a ObjectIndex,
    /// Inclusive low end of the remembered gap.
    lo: u64,
    /// Exclusive high end; `u64::MAX` stands for "unbounded", so the
    /// address `u64::MAX` itself always takes the search path.
    hi: u64,
    /// Upper bound for every address in `[lo, hi)`.
    upper: usize,
}

impl IndexCursor<'_> {
    fn remember(&mut self, upper: usize) {
        let e = &self.index.entries;
        self.upper = upper;
        self.lo = if upper == 0 { 0 } else { e[upper - 1].start };
        self.hi = e.get(upper).map_or(u64::MAX, |x| x.start);
    }

    /// Resolves a sample exactly like [`ObjectIndex::lookup`].
    #[inline]
    pub fn lookup(&mut self, address: u64, time: f64) -> Option<u32> {
        if !(self.lo <= address && address < self.hi) {
            self.remember(self.index.upper_bound(address));
        }
        self.index.scan_back(self.upper, address, time)
    }
}

/// Operation stream of an [`EventBatch`]: which kind the next event is,
/// and which row of that kind's columns holds its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Allocation at `alloc_*[row]`.
    Alloc(u32),
    /// Free at `free_*[row]`.
    Free(u32),
    /// Load-miss sample at `load_*[row]`.
    Load(u32),
    /// Store sample at `store_*[row]`.
    Store(u32),
    /// Phase marker at `phase_*[row]`.
    Phase(u32),
}

impl BatchOp {
    /// The kind as an index `0..5`, in declaration order.
    #[inline]
    fn kind(self) -> usize {
        match self {
            BatchOp::Alloc(_) => 0,
            BatchOp::Free(_) => 1,
            BatchOp::Load(_) => 2,
            BatchOp::Store(_) => 3,
            BatchOp::Phase(_) => 4,
        }
    }

    /// The row of the op's kind columns.
    #[inline]
    fn row(self) -> usize {
        match self {
            BatchOp::Alloc(r)
            | BatchOp::Free(r)
            | BatchOp::Load(r)
            | BatchOp::Store(r)
            | BatchOp::Phase(r) => r as usize,
        }
    }

    /// The same kind at another row.
    #[inline]
    fn with_row(self, row: u32) -> BatchOp {
        match self {
            BatchOp::Alloc(_) => BatchOp::Alloc(row),
            BatchOp::Free(_) => BatchOp::Free(row),
            BatchOp::Load(_) => BatchOp::Load(row),
            BatchOp::Store(_) => BatchOp::Store(row),
            BatchOp::Phase(_) => BatchOp::Phase(row),
        }
    }

    /// True for load-miss and store samples.
    #[inline]
    pub(crate) fn is_sample(self) -> bool {
        matches!(self, BatchOp::Load(_) | BatchOp::Store(_))
    }
}

/// A columnar batch of trace events that preserves arrival order.
///
/// This is the unit the online path streams: the producer transposes a
/// chunk of events once with [`EventBatch::from_events`], and the
/// ingestor replays [`EventBatch::ops`] against the per-kind columns —
/// consuming plain scalars instead of matching a 48-byte enum per field.
/// The columns are lossless — [`EventBatch::event_of`] reconstructs every
/// event exactly — so the batch is also the storage format of a
/// [`crate::ColumnarTrace`] and of the v2 binary trace's decoded buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    /// Arrival-ordered operation stream.
    pub ops: Vec<BatchOp>,
    /// Allocation timestamps.
    pub alloc_times: Vec<f64>,
    /// Allocation object ids.
    pub alloc_objects: Vec<ObjectId>,
    /// Allocation sites.
    pub alloc_sites: Vec<SiteId>,
    /// Allocation sizes.
    pub alloc_sizes: Vec<u64>,
    /// Allocation addresses.
    pub alloc_addresses: Vec<u64>,
    /// Free timestamps.
    pub free_times: Vec<f64>,
    /// Freed object ids.
    pub free_objects: Vec<ObjectId>,
    /// Load-miss sample timestamps.
    pub load_times: Vec<f64>,
    /// Load-miss sample addresses.
    pub load_addresses: Vec<u64>,
    /// Load-miss sample latencies, cycles.
    pub load_latencies: Vec<f64>,
    /// Load-miss sample functions.
    pub load_functions: Vec<FuncId>,
    /// Store sample timestamps.
    pub store_times: Vec<f64>,
    /// Store sample addresses.
    pub store_addresses: Vec<u64>,
    /// Store sample L1D-miss flags.
    pub store_l1d_miss: Vec<bool>,
    /// Store sample functions.
    pub store_functions: Vec<FuncId>,
    /// Phase-marker timestamps.
    pub phase_times: Vec<f64>,
    /// Phase ordinals.
    pub phase_ids: Vec<u32>,
}

impl EventBatch {
    /// Transposes a slice of events into one batch.
    pub fn from_events(events: &[TraceEvent]) -> EventBatch {
        let mut b = EventBatch { ops: Vec::with_capacity(events.len()), ..EventBatch::default() };
        for e in events {
            b.push(e);
        }
        b
    }

    /// Appends one event to the batch.
    #[inline]
    pub fn push(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::Alloc { time, object, site, size, address } => {
                self.push_alloc(*time, *object, *site, *size, *address);
            }
            TraceEvent::Free { time, object } => self.push_free(*time, *object),
            TraceEvent::LoadMissSample { time, address, latency_cycles, function } => {
                self.push_load(*time, *address, *latency_cycles, *function);
            }
            TraceEvent::StoreSample { time, address, l1d_miss, function } => {
                self.push_store(*time, *address, *l1d_miss, *function);
            }
            TraceEvent::PhaseMarker { time, phase } => self.push_phase(*time, *phase),
        }
    }

    /// Appends an allocation without going through the event enum.
    #[inline]
    pub fn push_alloc(&mut self, time: f64, object: ObjectId, site: SiteId, size: u64, addr: u64) {
        self.ops.push(BatchOp::Alloc(self.alloc_times.len() as u32));
        self.alloc_times.push(time);
        self.alloc_objects.push(object);
        self.alloc_sites.push(site);
        self.alloc_sizes.push(size);
        self.alloc_addresses.push(addr);
    }

    /// Appends a free without going through the event enum.
    #[inline]
    pub fn push_free(&mut self, time: f64, object: ObjectId) {
        self.ops.push(BatchOp::Free(self.free_times.len() as u32));
        self.free_times.push(time);
        self.free_objects.push(object);
    }

    /// Appends a load-miss sample without going through the event enum.
    #[inline]
    pub fn push_load(&mut self, time: f64, address: u64, latency_cycles: f64, function: FuncId) {
        self.ops.push(BatchOp::Load(self.load_times.len() as u32));
        self.load_times.push(time);
        self.load_addresses.push(address);
        self.load_latencies.push(latency_cycles);
        self.load_functions.push(function);
    }

    /// Appends a store sample without going through the event enum.
    #[inline]
    pub fn push_store(&mut self, time: f64, address: u64, l1d_miss: bool, function: FuncId) {
        self.ops.push(BatchOp::Store(self.store_times.len() as u32));
        self.store_times.push(time);
        self.store_addresses.push(address);
        self.store_l1d_miss.push(l1d_miss);
        self.store_functions.push(function);
    }

    /// Appends a phase marker without going through the event enum.
    #[inline]
    pub fn push_phase(&mut self, time: f64, phase: u32) {
        self.ops.push(BatchOp::Phase(self.phase_times.len() as u32));
        self.phase_times.push(time);
        self.phase_ids.push(phase);
    }

    /// Timestamp of one op.
    #[inline]
    pub fn time_of(&self, op: BatchOp) -> f64 {
        match op {
            BatchOp::Alloc(r) => self.alloc_times[r as usize],
            BatchOp::Free(r) => self.free_times[r as usize],
            BatchOp::Load(r) => self.load_times[r as usize],
            BatchOp::Store(r) => self.store_times[r as usize],
            BatchOp::Phase(r) => self.phase_times[r as usize],
        }
    }

    /// Re-stamps one op.
    #[inline]
    pub fn set_time(&mut self, op: BatchOp, t: f64) {
        match op {
            BatchOp::Alloc(r) => self.alloc_times[r as usize] = t,
            BatchOp::Free(r) => self.free_times[r as usize] = t,
            BatchOp::Load(r) => self.load_times[r as usize] = t,
            BatchOp::Store(r) => self.store_times[r as usize] = t,
            BatchOp::Phase(r) => self.phase_times[r as usize] = t,
        }
    }

    /// Keeps the ops `keep` accepts, visiting them in order, and compacts
    /// the columns: every kept row moves down over the dropped rows of its
    /// kind, in row order, and the kept ops are re-pointed at the moved
    /// rows. Rows no op refers to are dropped too.
    pub fn retain(&mut self, mut keep: impl FnMut(&EventBatch, BatchOp) -> bool) {
        let flags: Vec<bool> = self.ops.iter().map(|&op| keep(self, op)).collect();
        if flags.iter().all(|&k| k) {
            return;
        }
        let lens = [
            self.alloc_times.len(),
            self.free_times.len(),
            self.load_times.len(),
            self.store_times.len(),
            self.phase_times.len(),
        ];
        let mut kept_rows = lens.map(|n| vec![false; n]);
        for (&op, &k) in self.ops.iter().zip(&flags) {
            kept_rows[op.kind()][op.row()] = k;
        }
        // New row of each kept row: the number of kept rows below it.
        let new_rows = kept_rows.each_ref().map(|mask| {
            let mut next = 0u32;
            mask.iter()
                .map(|&k| {
                    let r = next;
                    next += u32::from(k);
                    r
                })
                .collect::<Vec<u32>>()
        });
        let mut flag = flags.iter();
        self.ops.retain(|_| *flag.next().expect("one flag per op"));
        for op in &mut self.ops {
            *op = op.with_row(new_rows[op.kind()][op.row()]);
        }

        fn compact<T>(column: &mut Vec<T>, mask: &[bool]) {
            let mut k = mask.iter();
            column.retain(|_| *k.next().expect("one mask bit per row"));
        }
        let [a, f, l, st, p] = &kept_rows;
        compact(&mut self.alloc_times, a);
        compact(&mut self.alloc_objects, a);
        compact(&mut self.alloc_sites, a);
        compact(&mut self.alloc_sizes, a);
        compact(&mut self.alloc_addresses, a);
        compact(&mut self.free_times, f);
        compact(&mut self.free_objects, f);
        compact(&mut self.load_times, l);
        compact(&mut self.load_addresses, l);
        compact(&mut self.load_latencies, l);
        compact(&mut self.load_functions, l);
        compact(&mut self.store_times, st);
        compact(&mut self.store_addresses, st);
        compact(&mut self.store_l1d_miss, st);
        compact(&mut self.store_functions, st);
        compact(&mut self.phase_times, p);
        compact(&mut self.phase_ids, p);
    }

    /// Reconstructs one op as a [`TraceEvent`]. The batch columns are
    /// lossless, so `event_of` inverts [`Self::push`] exactly.
    #[inline]
    pub fn event_of(&self, op: BatchOp) -> TraceEvent {
        match op {
            BatchOp::Alloc(r) => {
                let r = r as usize;
                TraceEvent::Alloc {
                    time: self.alloc_times[r],
                    object: self.alloc_objects[r],
                    site: self.alloc_sites[r],
                    size: self.alloc_sizes[r],
                    address: self.alloc_addresses[r],
                }
            }
            BatchOp::Free(r) => TraceEvent::Free {
                time: self.free_times[r as usize],
                object: self.free_objects[r as usize],
            },
            BatchOp::Load(r) => {
                let r = r as usize;
                TraceEvent::LoadMissSample {
                    time: self.load_times[r],
                    address: self.load_addresses[r],
                    latency_cycles: self.load_latencies[r],
                    function: self.load_functions[r],
                }
            }
            BatchOp::Store(r) => {
                let r = r as usize;
                TraceEvent::StoreSample {
                    time: self.store_times[r],
                    address: self.store_addresses[r],
                    l1d_miss: self.store_l1d_miss[r],
                    function: self.store_functions[r],
                }
            }
            BatchOp::Phase(r) => TraceEvent::PhaseMarker {
                time: self.phase_times[r as usize],
                phase: self.phase_ids[r as usize],
            },
        }
    }

    /// Materializes the batch back into the AoS event vector, in order.
    pub fn to_events(&self) -> Vec<TraceEvent> {
        self.ops.iter().map(|&op| self.event_of(op)).collect()
    }

    /// Iterates the batch as [`TraceEvent`]s in arrival order without
    /// materializing the vector.
    pub fn iter_events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.ops.iter().map(|&op| self.event_of(op))
    }

    /// Appends every event of `other`, re-basing its op rows onto this
    /// batch's columns. Column data moves as bulk extends; only the op
    /// stream is rewritten.
    pub fn append(&mut self, other: &EventBatch) {
        let a0 = self.alloc_times.len() as u32;
        let f0 = self.free_times.len() as u32;
        let l0 = self.load_times.len() as u32;
        let s0 = self.store_times.len() as u32;
        let p0 = self.phase_times.len() as u32;
        self.ops.extend(other.ops.iter().map(|&op| match op {
            BatchOp::Alloc(r) => BatchOp::Alloc(r + a0),
            BatchOp::Free(r) => BatchOp::Free(r + f0),
            BatchOp::Load(r) => BatchOp::Load(r + l0),
            BatchOp::Store(r) => BatchOp::Store(r + s0),
            BatchOp::Phase(r) => BatchOp::Phase(r + p0),
        }));
        self.alloc_times.extend_from_slice(&other.alloc_times);
        self.alloc_objects.extend_from_slice(&other.alloc_objects);
        self.alloc_sites.extend_from_slice(&other.alloc_sites);
        self.alloc_sizes.extend_from_slice(&other.alloc_sizes);
        self.alloc_addresses.extend_from_slice(&other.alloc_addresses);
        self.free_times.extend_from_slice(&other.free_times);
        self.free_objects.extend_from_slice(&other.free_objects);
        self.load_times.extend_from_slice(&other.load_times);
        self.load_addresses.extend_from_slice(&other.load_addresses);
        self.load_latencies.extend_from_slice(&other.load_latencies);
        self.load_functions.extend_from_slice(&other.load_functions);
        self.store_times.extend_from_slice(&other.store_times);
        self.store_addresses.extend_from_slice(&other.store_addresses);
        self.store_l1d_miss.extend_from_slice(&other.store_l1d_miss);
        self.store_functions.extend_from_slice(&other.store_functions);
        self.phase_times.extend_from_slice(&other.phase_times);
        self.phase_ids.extend_from_slice(&other.phase_ids);
    }

    /// Copies the events at `ops[range]` into a fresh batch — the chunking
    /// primitive the streaming producer uses to feed a whole columnar
    /// trace through a bounded channel without materializing events.
    pub fn slice_ops(&self, range: std::ops::Range<usize>) -> EventBatch {
        let mut out = EventBatch { ops: Vec::with_capacity(range.len()), ..EventBatch::default() };
        for &op in &self.ops[range] {
            out.push(&self.event_of(op));
        }
        out
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binmap::BinaryMap;
    use crate::callstack::{CallStack, Frame};
    use crate::ids::{FuncId, ModuleId};
    use crate::trace::TraceFile;

    fn columns(t: &TraceFile) -> TraceColumns {
        TraceColumns::from_batch(t.duration, &t.stacks, &EventBatch::from_events(&t.events))
    }

    fn trace_with(events: Vec<TraceEvent>) -> TraceFile {
        TraceFile {
            app_name: "cols".into(),
            seed: 0,
            ranks: 1,
            sampling_hz: 100.0,
            load_sample_period: 1.0,
            store_sample_period: 1.0,
            duration: 10.0,
            stacks: (0..3)
                .map(|i| (SiteId(i), CallStack::new(vec![Frame::new(ModuleId(0), u64::from(i))])))
                .collect(),
            binmap: BinaryMap::default(),
            events,
        }
    }

    fn alloc(t: f64, id: u64, site: u32, size: u64, addr: u64) -> TraceEvent {
        TraceEvent::Alloc { time: t, object: ObjectId(id), site: SiteId(site), size, address: addr }
    }

    #[test]
    fn realloc_after_free_keeps_the_last_instance() {
        let t = trace_with(vec![
            alloc(0.0, 1, 0, 64, 0x1000),
            TraceEvent::Free { time: 1.0, object: ObjectId(1) },
            alloc(2.0, 1, 2, 128, 0x2000),
        ]);
        let cols = columns(&t);
        assert_eq!(cols.objects.len(), 1);
        assert_eq!(cols.objects.sizes[0], 128);
        assert_eq!(cols.objects.addresses[0], 0x2000);
        assert_eq!(cols.objects.alloc_times[0], 2.0);
        assert_eq!(cols.objects.free_times[0], 10.0, "new instance never freed");
        assert_eq!(cols.site_ids[cols.objects.sites[0] as usize], SiteId(2));
        assert!(cols.site_objects[0].is_empty(), "old site lost the instance");
    }

    #[test]
    fn sample_columns_preserve_trace_order() {
        let t = trace_with(vec![
            alloc(0.0, 1, 0, 4096, 0x1000),
            TraceEvent::LoadMissSample {
                time: 0.5,
                address: 0x1040,
                latency_cycles: 300.0,
                function: FuncId(0),
            },
            TraceEvent::StoreSample {
                time: 0.6,
                address: 0x1080,
                l1d_miss: true,
                function: FuncId(0),
            },
            TraceEvent::PhaseMarker { time: 0.7, phase: 3 },
            TraceEvent::LoadMissSample {
                time: 0.8,
                address: 0x10c0,
                latency_cycles: 200.0,
                function: FuncId(0),
            },
        ]);
        let cols = columns(&t);
        assert_eq!(cols.load_times, vec![0.5, 0.8]);
        assert_eq!(cols.load_addresses, vec![0x1040, 0x10c0]);
        assert_eq!(cols.store_times, vec![0.6]);
        assert_eq!(cols.store_l1d_miss, vec![true]);
        assert_eq!(cols.phase_times, vec![0.7]);
    }

    #[test]
    fn index_matches_liveness_and_range() {
        let t = trace_with(vec![
            alloc(0.0, 1, 0, 4096, 0x1000),
            TraceEvent::Free { time: 1.0, object: ObjectId(1) },
            alloc(2.0, 2, 1, 4096, 0x1000), // address recycled
        ]);
        let cols = columns(&t);
        let idx = ObjectIndex::build(&cols.objects);
        // During the first instance's (inclusive) life.
        assert_eq!(idx.lookup(0x1800, 0.5), Some(0));
        assert_eq!(idx.lookup(0x1800, 1.0), Some(0), "free bound is inclusive");
        // Between the two instances: nothing live.
        assert_eq!(idx.lookup(0x1800, 1.5), None);
        // The recycled address resolves to the new owner.
        assert_eq!(idx.lookup(0x1800, 3.0), Some(1));
        // Outside every block.
        assert_eq!(idx.lookup(0x9000, 0.5), None);
    }

    #[test]
    fn index_tie_break_matches_the_scalar_scan() {
        // Two dead blocks with identical (start, end): the backward scan
        // visits the larger ObjectId first (sorted ascending, scanned in
        // reverse), so it wins when both liveness windows cover the time.
        let t = trace_with(vec![
            alloc(0.0, 5, 0, 64, 0x1000),
            TraceEvent::Free { time: 4.0, object: ObjectId(5) },
            alloc(5.0, 9, 0, 64, 0x2000),
        ]);
        let mut cols = columns(&t);
        // Force the aliasing layout the exact-size free list produces.
        cols.objects.addresses[1] = 0x1000;
        cols.objects.sizes[1] = 64;
        cols.objects.free_times[1] = 4.0;
        cols.objects.alloc_times[1] = 0.0;
        let idx = ObjectIndex::build(&cols.objects);
        assert_eq!(idx.lookup(0x1000, 2.0), Some(1), "larger id wins the tie");
    }

    /// splitmix64 step, for the seeded layout loops below.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn cursor_lookup_equals_lookup_on_recycled_layouts() {
        for seed in 0..200u64 {
            let mut rng = seed;
            // A small address pool forces heavy recycling: many blocks
            // share a start, sizes differ, lifetimes overlap or not.
            let n = 1 + (mix(&mut rng) % 40) as usize;
            let pool = 1 + mix(&mut rng) % 8;
            let mut objects = ObjectTable::default();
            for _ in 0..n {
                let t0 = (mix(&mut rng) % 100) as f64 / 10.0;
                objects.ids.push(ObjectId(mix(&mut rng) % 64));
                objects.sites.push(0);
                objects.sizes.push(64 * (1 + mix(&mut rng) % 4));
                // Some blocks sit in a second tier, 2^44 bytes up.
                let tier = (mix(&mut rng) % 2) << 44;
                objects.addresses.push(tier + 0x1000 + 0x80 * (mix(&mut rng) % pool));
                objects.alloc_times.push(t0);
                objects.free_times.push(t0 + (mix(&mut rng) % 50) as f64 / 10.0);
            }
            let index = ObjectIndex::build(&objects);
            let mut samples: Vec<(u64, f64)> = (0..300)
                .map(|_| {
                    let tier = (mix(&mut rng) % 2) << 44;
                    let a = tier + 0xf80 + mix(&mut rng) % (0x80 * (pool + 3));
                    (a, (mix(&mut rng) % 160) as f64 / 10.0)
                })
                .collect();
            samples.extend([(0, 1.0), (u64::MAX, 1.0), (u64::MAX, 2.0), (0x1000, f64::NAN)]);
            // Time order and arbitrary order alike.
            let mut by_time = samples.clone();
            by_time.sort_by(|a, b| a.1.total_cmp(&b.1));
            for order in [&samples, &by_time] {
                let mut cursor = index.cursor();
                for &(a, t) in order.iter() {
                    assert_eq!(cursor.lookup(a, t), index.lookup(a, t), "seed {seed}: {a:#x}@{t}");
                }
            }
        }
        // An empty index answers None through both paths.
        let empty = ObjectIndex::build(&ObjectTable::default());
        let mut cursor = empty.cursor();
        assert_eq!(cursor.lookup(0x1000, 1.0), None);
        assert_eq!(cursor.lookup(u64::MAX, 1.0), None);
    }

    #[test]
    fn event_batch_round_trips_in_order() {
        let events = vec![
            alloc(0.0, 1, 0, 64, 0x1000),
            TraceEvent::PhaseMarker { time: 0.1, phase: 0 },
            TraceEvent::StoreSample {
                time: 0.2,
                address: 0x1000,
                l1d_miss: false,
                function: FuncId(1),
            },
            TraceEvent::Free { time: 0.3, object: ObjectId(1) },
        ];
        let b = EventBatch::from_events(&events);
        assert_eq!(b.len(), 4);
        assert_eq!(
            b.ops,
            vec![BatchOp::Alloc(0), BatchOp::Phase(0), BatchOp::Store(0), BatchOp::Free(0)]
        );
        assert_eq!(b.store_l1d_miss, vec![false]);
        assert_eq!(b.free_objects, vec![ObjectId(1)]);
    }

    #[test]
    fn retain_compacts_rows_in_any_row_order() {
        let events = vec![
            alloc(0.0, 1, 0, 64, 0x1000),
            TraceEvent::LoadMissSample {
                time: 0.1,
                address: 0x1000,
                latency_cycles: 1.0,
                function: FuncId(0),
            },
            alloc(0.2, 2, 1, 64, 0x2000),
            TraceEvent::LoadMissSample {
                time: 0.3,
                address: 0x2000,
                latency_cycles: 2.0,
                function: FuncId(1),
            },
            TraceEvent::Free { time: 0.4, object: ObjectId(1) },
        ];
        let mut b = EventBatch::from_events(&events);
        // Reverse the rows of every kind under the same events, the way
        // the synthesizer's emission-order rows differ from op order.
        b.alloc_times.reverse();
        b.alloc_objects.reverse();
        b.alloc_sites.reverse();
        b.alloc_sizes.reverse();
        b.alloc_addresses.reverse();
        b.load_times.reverse();
        b.load_addresses.reverse();
        b.load_latencies.reverse();
        b.load_functions.reverse();
        for op in &mut b.ops {
            *op = match *op {
                BatchOp::Alloc(r) => BatchOp::Alloc(1 - r),
                BatchOp::Load(r) => BatchOp::Load(1 - r),
                other => other,
            };
        }
        assert_eq!(b.to_events(), events);

        let mut whole = b.clone();
        whole.retain(|_, _| true);
        assert_eq!(whole, b, "keeping everything changes nothing");

        let mut i = 0;
        b.retain(|_, _| {
            i += 1;
            i != 1 && i != 4
        });
        let expect = vec![events[1].clone(), events[2].clone(), events[4].clone()];
        assert_eq!(b.to_events(), expect);
        assert_eq!(b.alloc_times.len(), 1);
        assert_eq!(b.load_times.len(), 1);

        b.retain(|_, op| !op.is_sample());
        assert_eq!(b.to_events(), vec![events[2].clone(), events[4].clone()]);
        assert!(b.load_times.is_empty() && b.load_functions.is_empty());
    }

    #[test]
    fn set_time_restamps_one_op() {
        let events =
            vec![alloc(0.0, 1, 0, 64, 0x1000), TraceEvent::PhaseMarker { time: 0.5, phase: 0 }];
        let mut b = EventBatch::from_events(&events);
        b.set_time(b.ops[1], f64::NAN);
        b.set_time(b.ops[0], 2.0);
        assert!(b.time_of(b.ops[1]).is_nan());
        assert_eq!(b.time_of(b.ops[0]), 2.0);
    }
}
