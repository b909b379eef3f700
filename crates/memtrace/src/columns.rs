//! Columnar (structure-of-arrays) storage and views of a trace.
//!
//! A [`TraceEvent`] is a 48-byte enum, and a consumer that walks a
//! `Vec<TraceEvent>` pattern-matches its way past the four kinds it does
//! not care about — hostile to the per-sample work the analyzer does half
//! a million times per trace. So a [`crate::TraceFile`] stores its events
//! as one [`EventBatch`], and this module provides the views built on it:
//!
//! * [`EventBatch`] — one column per field per event kind plus an
//!   arrival-ordered op stream. It is the event store of every trace, the
//!   unit the online path streams, and the form the v2 binary trace's
//!   buckets decode into. `TraceEvent` survives as its lossless AoS view
//!   ([`EventBatch::iter_events`], [`EventBatch::to_events`]). A thread
//!   that builds large batches keeps the storage of the last one it
//!   dropped as a spare for the next ([`EventBatch::take_spare`]).
//! * [`BatchOp`] — one entry of the op stream, packed into a `u32`: the
//!   [`OpKind`] in the top 3 bits, the row of that kind's columns in the
//!   low 29 ([`MAX_ROWS`] caps the rows of one kind). A timestamp gather
//!   reads through [`EventBatch::time_columns`], a table indexed by the
//!   kind, so it never branches on the kind.
//! * [`TraceColumns`] — the object and site tables of a trace, built by
//!   [`TraceColumns::build`] in one walk over the op stream that also runs
//!   the strict [`Validator`]. The samples are not copied: the analyzer
//!   scans them in the batch's own columns, in row order.
//! * dense interning — [`crate::ObjectId`]s (sparse `u64`s) and
//!   [`crate::SiteId`]s are mapped to dense `u32` indices, so per-object
//!   and per-site statistics live in flat arrays instead of hash maps.
//! * [`ObjectIndex`] — the address-interval index with the liveness
//!   window *inlined* into each entry: one binary search plus a short
//!   backward scan attributes a sample with zero hash lookups.
//!
//! Consumers shard the columns into fixed-size chunks and scan them in
//! parallel (see `profiler::analyzer`); everything here is plain data
//! with no interior mutability, so `&EventBatch` and `&TraceColumns` are
//! freely `Sync`.

use crate::error::TraceError;
use crate::events::TraceEvent;
use crate::ids::{FuncId, ObjectId, SiteId};
use crate::integrity::Validator;
use crate::trace::TraceFile;
use crate::warn::DegradationPolicy;
use std::cell::RefCell;
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

/// The object and site tables of one trace, built by [`Self::build`].
/// The samples stay in the trace's own [`EventBatch`] columns, which the
/// analyzer scans in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceColumns {
    /// Trace duration, seconds.
    pub duration: f64,
    /// Dense site index → site id, in `stacks` order (first occurrence
    /// wins for duplicate table entries).
    pub site_ids: Vec<SiteId>,
    /// Dense site index → position in `TraceFile::stacks`.
    pub site_stacks: Vec<usize>,
    /// Interned object records.
    pub objects: ObjectTable,
    /// Dense site index → dense object indices, sorted by [`ObjectId`]
    /// (the order every per-site aggregation folds in).
    pub site_objects: Vec<Vec<u32>>,
}

impl TraceColumns {
    /// Validates a trace under the strict [`crate::integrity`] rules and
    /// builds its tables, in one walk over the op stream: every op goes
    /// through the [`Validator`], and the allocations and frees it
    /// accepts are replayed into the object table (an id re-used after
    /// free ends up with its *last* instance, like the scalar analyzer's
    /// object table). Fails with [`TraceFile::validate`]'s error.
    pub fn build(trace: &TraceFile) -> Result<TraceColumns, TraceError> {
        let (duration, batch) = (trace.duration, &trace.events);
        let mut cols = TraceColumns { duration, ..TraceColumns::default() };

        let mut site_dense: HashMap<SiteId, u32> = HashMap::with_capacity(trace.stacks.len());
        for (i, (site, _)) in trace.stacks.iter().enumerate() {
            site_dense.entry(*site).or_insert_with(|| {
                cols.site_ids.push(*site);
                cols.site_stacks.push(i);
                (cols.site_ids.len() - 1) as u32
            });
        }

        let mut v = Validator::new(&trace.stacks);
        let times = batch.time_columns();
        let mut obj_dense: HashMap<ObjectId, u32> = HashMap::new();
        for &op in &batch.ops {
            let t = times.at(op);
            v.offer_op(DegradationPolicy::Strict, batch, op, t)?;
            let r = op.row();
            match op.kind() {
                OpKind::Alloc => {
                    // The validator admits only sites of the table.
                    let ds = site_dense[&batch.alloc_sites[r]];
                    let object = batch.alloc_objects[r];
                    let o = &mut cols.objects;
                    match obj_dense.get(&object) {
                        Some(&d) => {
                            let d = d as usize;
                            o.sites[d] = ds;
                            o.sizes[d] = batch.alloc_sizes[r];
                            o.addresses[d] = batch.alloc_addresses[r];
                            o.alloc_times[d] = t;
                            o.free_times[d] = duration;
                        }
                        None => {
                            obj_dense.insert(object, o.ids.len() as u32);
                            o.ids.push(object);
                            o.sites.push(ds);
                            o.sizes.push(batch.alloc_sizes[r]);
                            o.addresses.push(batch.alloc_addresses[r]);
                            o.alloc_times.push(t);
                            o.free_times.push(duration);
                        }
                    }
                }
                OpKind::Free => {
                    // The validator admits only frees of live objects.
                    let d = obj_dense[&batch.free_objects[r]];
                    cols.objects.free_times[d as usize] = t;
                }
                OpKind::Load | OpKind::Store | OpKind::Phase => {}
            }
        }

        cols.site_objects = vec![Vec::new(); cols.site_ids.len()];
        for (d, &ds) in cols.objects.sites.iter().enumerate() {
            cols.site_objects[ds as usize].push(d as u32);
        }
        let ids = &cols.objects.ids;
        for objs in &mut cols.site_objects {
            objs.sort_unstable_by_key(|&d| ids[d as usize]);
        }
        Ok(cols)
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

/// Rows one kind's columns may hold: a [`BatchOp`] keeps the row in its
/// low 29 bits. Every constructor of an op enforces the cap, in release
/// builds too, so a row past it can never carry into the kind bits.
pub const MAX_ROWS: usize = 1 << 29;

/// Bit position of the kind in a packed [`BatchOp`].
const KIND_SHIFT: u32 = 29;

/// The row bits of a packed [`BatchOp`].
const ROW_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// The event kind of a [`BatchOp`]. The discriminant is the kind's index
/// in [`EventBatch::time_columns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Allocation, at `alloc_*[row]`.
    Alloc = 0,
    /// Free, at `free_*[row]`.
    Free = 1,
    /// Load-miss sample, at `load_*[row]`.
    Load = 2,
    /// Store sample, at `store_*[row]`.
    Store = 3,
    /// Phase marker, at `phase_*[row]`.
    Phase = 4,
}

/// One entry of an [`EventBatch`]'s operation stream: which kind the next
/// event is, and which row of that kind's columns holds its fields.
///
/// Packed into one `u32`: the [`OpKind`] in the top 3 bits, the row in the
/// low 29 (see [`MAX_ROWS`]).
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct BatchOp(u32);

impl BatchOp {
    /// The op for `row` of `kind`'s columns. Panics when `row` is not
    /// below [`MAX_ROWS`].
    #[inline]
    fn new(kind: OpKind, row: usize) -> BatchOp {
        assert!(row < MAX_ROWS, "row {row} of {kind:?} exceeds the cap of {MAX_ROWS} rows");
        BatchOp(((kind as u32) << KIND_SHIFT) | row as u32)
    }

    /// An allocation at `alloc_*[row]`.
    #[inline]
    pub fn alloc(row: usize) -> BatchOp {
        BatchOp::new(OpKind::Alloc, row)
    }

    /// A free at `free_*[row]`.
    #[inline]
    pub fn free(row: usize) -> BatchOp {
        BatchOp::new(OpKind::Free, row)
    }

    /// A load-miss sample at `load_*[row]`.
    #[inline]
    pub fn load(row: usize) -> BatchOp {
        BatchOp::new(OpKind::Load, row)
    }

    /// A store sample at `store_*[row]`.
    #[inline]
    pub fn store(row: usize) -> BatchOp {
        BatchOp::new(OpKind::Store, row)
    }

    /// A phase marker at `phase_*[row]`.
    #[inline]
    pub fn phase(row: usize) -> BatchOp {
        BatchOp::new(OpKind::Phase, row)
    }

    /// The op's kind: one load from a table indexed by the kind bits, so
    /// a time gather through [`EventBatch::time_columns`] never branches.
    #[inline]
    pub fn kind(self) -> OpKind {
        // Constructors only write the first five; the rest pad the table
        // to the 3-bit range so the index needs no bounds check.
        const KINDS: [OpKind; 8] = [
            OpKind::Alloc,
            OpKind::Free,
            OpKind::Load,
            OpKind::Store,
            OpKind::Phase,
            OpKind::Phase,
            OpKind::Phase,
            OpKind::Phase,
        ];
        KINDS[(self.0 >> KIND_SHIFT) as usize]
    }

    /// The row of the op's kind columns.
    #[inline]
    pub fn row(self) -> usize {
        (self.0 & ROW_MASK) as usize
    }

    /// The same kind at another row.
    #[inline]
    pub(crate) fn with_row(self, row: usize) -> BatchOp {
        BatchOp::new(self.kind(), row)
    }

    /// True for load-miss and store samples.
    #[inline]
    pub(crate) fn is_sample(self) -> bool {
        matches!(self.kind(), OpKind::Load | OpKind::Store)
    }

    /// True for the kinds whose only checked field is the timestamp:
    /// samples and phase markers.
    #[inline]
    pub(crate) fn is_timed_only(self) -> bool {
        self.0 >> KIND_SHIFT >= OpKind::Load as u32
    }
}

impl std::fmt::Debug for BatchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({})", self.kind(), self.row())
    }
}

/// The timestamp columns of an [`EventBatch`], indexed by `OpKind as
/// usize` (see [`EventBatch::time_columns`]): reading an op's time is two
/// loads and no branch on the kind.
#[derive(Debug, Clone, Copy)]
pub struct TimeColumns<'a>([&'a [f64]; 5]);

impl TimeColumns<'_> {
    /// Timestamp of one op.
    #[inline]
    pub fn at(&self, op: BatchOp) -> f64 {
        self.0[op.kind() as usize][op.row()]
    }
}

/// A columnar batch of trace events that preserves arrival order.
///
/// This is the event store of a [`crate::TraceFile`] and the unit the
/// online path streams: consumers replay [`EventBatch::ops`] against the
/// per-kind columns — plain scalars instead of a 48-byte enum per field.
/// The columns are lossless — [`EventBatch::event_of`] reconstructs every
/// event exactly.
///
/// Equality is event-sequence equality: two batches are equal when they
/// hold the same events in the same order, whatever row each event sits
/// at. The synthesizer and the fault injectors leave rows in an order
/// other than op order, so a derived, column-by-column comparison would
/// tell apart batches that [`EventBatch::from_events`] of the same
/// events cannot.
///
/// Dropping a batch of at least [`SPARE_FLOOR`] op slots may keep its
/// emptied storage as its thread's spare (see [`EventBatch::take_spare`]).
#[derive(Debug, Clone, Default)]
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
    /// An empty batch with room for `ops` ops and no column rows.
    pub fn with_capacity(ops: usize) -> EventBatch {
        let mut b = EventBatch::default();
        b.ops.reserve_exact(ops);
        b
    }

    /// An empty batch for a large build: this thread's spare when it has
    /// one (the storage of the last large batch dropped here, emptied),
    /// else a fresh one. Marks the thread as one whose dropped batches
    /// become spares.
    pub fn take_spare() -> EventBatch {
        SPARE
            .try_with(|slot| {
                let mut slot = slot.try_borrow_mut().ok()?;
                slot.drawn = true;
                slot.batch.take()
            })
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Empties the batch, keeping the capacity of every column.
    fn clear(&mut self) {
        self.ops.clear();
        self.alloc_times.clear();
        self.alloc_objects.clear();
        self.alloc_sites.clear();
        self.alloc_sizes.clear();
        self.alloc_addresses.clear();
        self.free_times.clear();
        self.free_objects.clear();
        self.load_times.clear();
        self.load_addresses.clear();
        self.load_latencies.clear();
        self.load_functions.clear();
        self.store_times.clear();
        self.store_addresses.clear();
        self.store_l1d_miss.clear();
        self.store_functions.clear();
        self.phase_times.clear();
        self.phase_ids.clear();
    }

    /// Transposes a slice of events into one batch.
    pub fn from_events(events: &[TraceEvent]) -> EventBatch {
        let mut b = EventBatch::with_capacity(events.len());
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
        self.ops.push(BatchOp::alloc(self.alloc_times.len()));
        self.alloc_times.push(time);
        self.alloc_objects.push(object);
        self.alloc_sites.push(site);
        self.alloc_sizes.push(size);
        self.alloc_addresses.push(addr);
    }

    /// Appends a free without going through the event enum.
    #[inline]
    pub fn push_free(&mut self, time: f64, object: ObjectId) {
        self.ops.push(BatchOp::free(self.free_times.len()));
        self.free_times.push(time);
        self.free_objects.push(object);
    }

    /// Appends a load-miss sample without going through the event enum.
    #[inline]
    pub fn push_load(&mut self, time: f64, address: u64, latency_cycles: f64, function: FuncId) {
        self.ops.push(BatchOp::load(self.load_times.len()));
        self.load_times.push(time);
        self.load_addresses.push(address);
        self.load_latencies.push(latency_cycles);
        self.load_functions.push(function);
    }

    /// Appends a store sample without going through the event enum.
    #[inline]
    pub fn push_store(&mut self, time: f64, address: u64, l1d_miss: bool, function: FuncId) {
        self.ops.push(BatchOp::store(self.store_times.len()));
        self.store_times.push(time);
        self.store_addresses.push(address);
        self.store_l1d_miss.push(l1d_miss);
        self.store_functions.push(function);
    }

    /// Appends a phase marker without going through the event enum.
    #[inline]
    pub fn push_phase(&mut self, time: f64, phase: u32) {
        self.ops.push(BatchOp::phase(self.phase_times.len()));
        self.phase_times.push(time);
        self.phase_ids.push(phase);
    }

    /// The five timestamp columns as one kind-indexed table. Loops build
    /// it once and read each op's time through [`TimeColumns::at`].
    #[inline]
    pub fn time_columns(&self) -> TimeColumns<'_> {
        TimeColumns([
            &self.alloc_times,
            &self.free_times,
            &self.load_times,
            &self.store_times,
            &self.phase_times,
        ])
    }

    /// Timestamp of one op.
    #[inline]
    pub fn time_of(&self, op: BatchOp) -> f64 {
        self.time_columns().at(op)
    }

    /// Re-stamps one op.
    #[inline]
    pub fn set_time(&mut self, op: BatchOp, t: f64) {
        let column = match op.kind() {
            OpKind::Alloc => &mut self.alloc_times,
            OpKind::Free => &mut self.free_times,
            OpKind::Load => &mut self.load_times,
            OpKind::Store => &mut self.store_times,
            OpKind::Phase => &mut self.phase_times,
        };
        column[op.row()] = t;
    }

    /// Rows per kind, in `OpKind` order.
    fn kind_lens(&self) -> [usize; 5] {
        self.time_columns().0.map(<[f64]>::len)
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
        let mut kept_rows = self.kind_lens().map(|n| vec![false; n]);
        for (&op, &k) in self.ops.iter().zip(&flags) {
            kept_rows[op.kind() as usize][op.row()] = k;
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
            *op = op.with_row(new_rows[op.kind() as usize][op.row()] as usize);
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
        let r = op.row();
        match op.kind() {
            OpKind::Alloc => TraceEvent::Alloc {
                time: self.alloc_times[r],
                object: self.alloc_objects[r],
                site: self.alloc_sites[r],
                size: self.alloc_sizes[r],
                address: self.alloc_addresses[r],
            },
            OpKind::Free => {
                TraceEvent::Free { time: self.free_times[r], object: self.free_objects[r] }
            }
            OpKind::Load => TraceEvent::LoadMissSample {
                time: self.load_times[r],
                address: self.load_addresses[r],
                latency_cycles: self.load_latencies[r],
                function: self.load_functions[r],
            },
            OpKind::Store => TraceEvent::StoreSample {
                time: self.store_times[r],
                address: self.store_addresses[r],
                l1d_miss: self.store_l1d_miss[r],
                function: self.store_functions[r],
            },
            OpKind::Phase => {
                TraceEvent::PhaseMarker { time: self.phase_times[r], phase: self.phase_ids[r] }
            }
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
    /// stream is rewritten. Panics when a kind would pass [`MAX_ROWS`].
    pub fn append(&mut self, other: &EventBatch) {
        let base = self.kind_lens();
        for (kind, (&mine, theirs)) in base.iter().zip(other.kind_lens()).enumerate() {
            assert!(mine + theirs <= MAX_ROWS, "appending passes {MAX_ROWS} rows of kind {kind}");
        }
        // Every rebased row stays below the cap, so the add never carries
        // into the kind bits.
        let base = base.map(|n| n as u32);
        self.ops.extend(other.ops.iter().map(|&op| BatchOp(op.0 + base[op.kind() as usize])));
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
        let mut out = EventBatch::with_capacity(range.len());
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

impl PartialEq for EventBatch {
    fn eq(&self, other: &EventBatch) -> bool {
        self.len() == other.len() && self.iter_events().eq(other.iter_events())
    }
}

/// Op slots a dropped [`EventBatch`] needs for its storage to be kept as
/// its thread's spare. A profiled trace holds 10^5 to 10^6 events; a serve
/// frame holds at most a few hundred, so frames and other small batches
/// are freed as usual and never touch the thread-local.
pub const SPARE_FLOOR: usize = 1 << 15;

/// A thread's spare batch storage (see [`EventBatch::take_spare`]).
struct Spare {
    /// The thread has called [`EventBatch::take_spare`]: only such a
    /// thread keeps the batches it drops.
    drawn: bool,
    /// The kept storage, emptied.
    batch: Option<EventBatch>,
}

thread_local! {
    /// One slot per thread, so a thread retains at most one batch.
    static SPARE: RefCell<Spare> = const { RefCell::new(Spare { drawn: false, batch: None }) };
}

/// Keeps the storage of a large batch dropped on a drawing thread as that
/// thread's spare, so the next [`EventBatch::take_spare`] maps no fresh
/// pages. Of two candidates the one with more op slots stays. The slot is
/// reached only through `try_with` and `try_borrow_mut`: while the thread
/// exits, or while the slot is busy, a drop just frees the batch.
impl Drop for EventBatch {
    fn drop(&mut self) {
        if self.ops.capacity() < SPARE_FLOOR {
            return;
        }
        let _ = SPARE.try_with(|slot| {
            let Ok(mut slot) = slot.try_borrow_mut() else { return };
            let roomier =
                slot.batch.as_ref().is_none_or(|b| b.ops.capacity() < self.ops.capacity());
            if slot.drawn && roomier {
                let mut kept = std::mem::take(self);
                kept.clear();
                // Declared after `slot`, so it drops first, while the slot
                // is still borrowed: the displaced batch's own drop finds
                // the slot busy and frees it, and displacement cannot
                // recurse.
                let _displaced = slot.batch.replace(kept);
            }
        });
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
        TraceColumns::build(t).unwrap()
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
            events: EventBatch::from_events(&events),
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
    fn build_rejects_what_validate_rejects() {
        let broken = [
            vec![TraceEvent::Free { time: 0.0, object: ObjectId(1) }],
            vec![alloc(1.0, 1, 0, 64, 0x1000), alloc(0.5, 2, 0, 64, 0x2000)],
            vec![alloc(0.0, 1, 9, 64, 0x1000)],
            vec![TraceEvent::PhaseMarker { time: f64::NAN, phase: 0 }],
        ];
        for events in broken {
            let t = trace_with(events);
            let err = t.validate().unwrap_err().to_string();
            assert_eq!(TraceColumns::build(&t).unwrap_err().to_string(), err);
        }
    }

    #[test]
    fn ops_pack_kind_and_row_into_four_bytes() {
        assert_eq!(std::mem::size_of::<BatchOp>(), 4);
        let kinds = [OpKind::Alloc, OpKind::Free, OpKind::Load, OpKind::Store, OpKind::Phase];
        for kind in kinds {
            for row in [0, 1, 12_345, MAX_ROWS - 1] {
                let op = BatchOp::new(kind, row);
                assert_eq!((op.kind(), op.row()), (kind, row));
                assert_eq!(op.with_row(7), BatchOp::new(kind, 7));
                assert_eq!(op.is_timed_only(), kind as usize >= OpKind::Load as usize);
            }
        }
        assert_eq!(format!("{:?}", BatchOp::store(3)), "Store(3)");
    }

    #[test]
    fn ops_enforce_the_row_cap() {
        // A row at the cap would carry into the kind bits; every
        // constructor refuses it, in release builds too.
        assert_eq!(BatchOp::free(MAX_ROWS - 1).kind(), OpKind::Free);
        for kind in [OpKind::Alloc, OpKind::Free, OpKind::Load, OpKind::Store, OpKind::Phase] {
            assert!(std::panic::catch_unwind(|| BatchOp::new(kind, MAX_ROWS)).is_err(), "{kind:?}");
        }
        assert!(std::panic::catch_unwind(|| BatchOp::alloc(0).with_row(MAX_ROWS)).is_err());
    }

    /// Op slots of this thread's spare, if it has one.
    fn spare_slots() -> Option<usize> {
        SPARE.with(|s| s.borrow().batch.as_ref().map(|b| b.ops.capacity()))
    }

    /// A batch of one event with room for `ops` ops.
    fn roomy(ops: usize) -> EventBatch {
        let mut b = EventBatch::with_capacity(ops);
        b.push_phase(0.0, 7);
        b
    }

    /// Runs `f` on a thread of its own, so it starts with an empty slot.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("the thread finishes");
    }

    #[test]
    fn a_roomier_batch_displaces_the_spare() {
        on_fresh_thread(|| {
            drop(roomy(2 * SPARE_FLOOR));
            assert_eq!(spare_slots(), None, "a thread that never drew keeps nothing");
            assert_eq!(EventBatch::take_spare().ops.capacity(), 0);
            drop(roomy(2 * SPARE_FLOOR));
            assert_eq!(spare_slots(), Some(2 * SPARE_FLOOR));
            // The parked batch is displaced, and its own drop frees it
            // instead of displacing the newcomer back.
            drop(roomy(4 * SPARE_FLOOR));
            assert_eq!(spare_slots(), Some(4 * SPARE_FLOOR));
            // A smaller batch leaves the spare alone.
            drop(roomy(3 * SPARE_FLOOR));
            assert_eq!(spare_slots(), Some(4 * SPARE_FLOOR));
            let spare = EventBatch::take_spare();
            assert!(spare.is_empty() && spare.phase_ids.is_empty(), "the spare is emptied");
            assert!(spare.ops.capacity() >= 4 * SPARE_FLOOR && spare.phase_ids.capacity() > 0);
            assert_eq!(spare_slots(), None);
            // A drop while the slot is busy frees the batch.
            SPARE.with(|s| {
                let _busy = s.borrow_mut();
                drop(roomy(8 * SPARE_FLOOR));
            });
            assert_eq!(spare_slots(), None);
        });
    }

    #[test]
    fn a_thread_exits_holding_a_spare() {
        on_fresh_thread(|| {
            drop(EventBatch::take_spare());
            drop(roomy(SPARE_FLOOR));
            assert_eq!(spare_slots(), Some(SPARE_FLOOR));
            // The slot's destructor drops the spare; that drop must find
            // the slot gone and just free it.
        });
    }

    #[test]
    fn a_batch_below_the_floor_is_never_kept() {
        on_fresh_thread(|| {
            drop(EventBatch::take_spare());
            drop(roomy(SPARE_FLOOR - 1));
            assert_eq!(spare_slots(), None);
            drop(roomy(SPARE_FLOOR));
            let mut small = roomy(16);
            small.push_load(1.0, 0x40, 300.0, FuncId(0));
            drop(small);
            assert_eq!(spare_slots(), Some(SPARE_FLOOR), "the spare stays as it was");
        });
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

    #[test]
    fn cursor_lookup_equals_lookup_on_recycled_layouts() {
        for seed in 0..200u64 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            // A small address pool forces heavy recycling: many blocks
            // share a start, sizes differ, lifetimes overlap or not.
            let n = 1 + (rng.next_u64() % 40) as usize;
            let pool = 1 + rng.next_u64() % 8;
            let mut objects = ObjectTable::default();
            for _ in 0..n {
                let t0 = (rng.next_u64() % 100) as f64 / 10.0;
                objects.ids.push(ObjectId(rng.next_u64() % 64));
                objects.sites.push(0);
                objects.sizes.push(64 * (1 + rng.next_u64() % 4));
                // Some blocks sit in a second tier, 2^44 bytes up.
                let tier = (rng.next_u64() % 2) << 44;
                objects.addresses.push(tier + 0x1000 + 0x80 * (rng.next_u64() % pool));
                objects.alloc_times.push(t0);
                objects.free_times.push(t0 + (rng.next_u64() % 50) as f64 / 10.0);
            }
            let index = ObjectIndex::build(&objects);
            let mut samples: Vec<(u64, f64)> = (0..300)
                .map(|_| {
                    let tier = (rng.next_u64() % 2) << 44;
                    let a = tier + 0xf80 + rng.next_u64() % (0x80 * (pool + 3));
                    (a, (rng.next_u64() % 160) as f64 / 10.0)
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
            vec![BatchOp::alloc(0), BatchOp::phase(0), BatchOp::store(0), BatchOp::free(0)]
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
            if matches!(op.kind(), OpKind::Alloc | OpKind::Load) {
                *op = op.with_row(1 - op.row());
            }
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

    /// One event of every kind, with lossy-looking field values.
    fn every_kind() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseMarker { time: 0.0, phase: 0 },
            alloc(0.5, 1, 0, 4096, 0x1000),
            TraceEvent::LoadMissSample {
                time: 1.0,
                address: 0x1100,
                latency_cycles: 321.5,
                function: FuncId(2),
            },
            TraceEvent::StoreSample {
                time: 1.5,
                address: 0x1200,
                l1d_miss: true,
                function: FuncId(2),
            },
            TraceEvent::Free { time: 4.0, object: ObjectId(1) },
        ]
    }

    #[test]
    fn batch_event_reconstruction_is_exact() {
        let events = every_kind();
        let b = EventBatch::from_events(&events);
        assert_eq!(b.to_events(), events);
        assert_eq!(b.iter_events().collect::<Vec<_>>(), events);
        // Lossless fields survive (latency + function were dropped by the
        // pre-v2 batch layout).
        assert_eq!(b.load_latencies, vec![321.5]);
        assert_eq!(b.load_functions, vec![FuncId(2)]);
        assert_eq!(b.store_functions, vec![FuncId(2)]);
    }

    #[test]
    fn append_rebases_rows() {
        let events = every_kind();
        let whole = EventBatch::from_events(&events);
        let mut acc = EventBatch::from_events(&events[..2]);
        acc.append(&EventBatch::from_events(&events[2..]));
        assert_eq!(acc.ops, whole.ops);
        assert_eq!(acc, whole);
    }

    #[test]
    fn slice_ops_round_trips_in_chunks() {
        let whole = EventBatch::from_events(&every_kind());
        let mut acc = EventBatch::default();
        for lo in (0..whole.len()).step_by(2) {
            let hi = (lo + 2).min(whole.len());
            acc.append(&whole.slice_ops(lo..hi));
        }
        assert_eq!(acc.ops, whole.ops);
        assert_eq!(acc, whole);
    }

    #[test]
    fn equality_is_event_sequence_equality() {
        // Emit per object, the way the synthesizer does (each object's
        // alloc, samples and free in turn), then order the ops by time:
        // rows stay in emission order, not op order.
        let mut synthesized = EventBatch::default();
        synthesized.push_phase(0.0, 0);
        for obj in 0..4u64 {
            let (t0, base) = (obj as f64 * 0.25, 0x1000 * (obj + 1));
            synthesized.push_alloc(t0, ObjectId(obj), SiteId(obj as u32 % 3), 256, base);
            synthesized.push_load(2.5 - t0, base + 64, 300.0, FuncId(1));
            synthesized.push_store(t0 + 0.75, base + 128, obj % 2 == 0, FuncId(1));
            synthesized.push_free(t0 + 3.0, ObjectId(obj));
        }
        let times: Vec<f64> = synthesized.ops.iter().map(|&op| synthesized.time_of(op)).collect();
        let mut order: Vec<usize> = (0..times.len()).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        synthesized.ops = order.iter().map(|&i| synthesized.ops[i]).collect();
        let rebuilt = EventBatch::from_events(&synthesized.to_events());
        assert_ne!(rebuilt.load_times, synthesized.load_times, "rows differ in layout");
        assert_eq!(rebuilt, synthesized);

        // The fault injector puts its frees in front of the op stream but
        // at the end of the free rows.
        let mut damaged = trace_with(synthesized.to_events());
        let spec = crate::FaultSpec::with_seed(crate::FaultKind::FreeBeforeAlloc, 0.5, 7);
        assert!(!spec.apply_to_trace(&mut damaged).is_empty());
        let rebuilt = EventBatch::from_events(&damaged.events.to_events());
        assert_ne!(rebuilt.free_objects, damaged.events.free_objects, "rows differ in layout");
        assert_eq!(rebuilt, damaged.events);

        // One differing non-time field in any kind breaks equality.
        let base = every_kind();
        let whole = EventBatch::from_events(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] = match changed[i].clone() {
                TraceEvent::PhaseMarker { time, phase } => {
                    TraceEvent::PhaseMarker { time, phase: phase + 1 }
                }
                TraceEvent::Alloc { time, object, site, size, address } => {
                    TraceEvent::Alloc { time, object, site, size: size + 1, address }
                }
                TraceEvent::LoadMissSample { time, address, latency_cycles, function } => {
                    TraceEvent::LoadMissSample {
                        time,
                        address,
                        latency_cycles,
                        function: FuncId(function.0 + 1),
                    }
                }
                TraceEvent::StoreSample { time, address, l1d_miss, function } => {
                    TraceEvent::StoreSample { time, address, l1d_miss: !l1d_miss, function }
                }
                TraceEvent::Free { time, object } => {
                    TraceEvent::Free { time, object: ObjectId(object.0 + 1) }
                }
            };
            assert_ne!(EventBatch::from_events(&changed), whole, "event {i}");
        }
        let mut shorter = base.clone();
        shorter.pop();
        assert_ne!(EventBatch::from_events(&shorter), whole);
    }
}
