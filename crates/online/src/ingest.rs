//! Streaming trace ingestion: the batch analyzer's job, one event at a
//! time.
//!
//! [`StreamIngestor`] consumes [`TraceEvent`]s incrementally and maintains
//! the same per-site statistics `profiler::analyze` recovers from a
//! complete trace — object lifetimes, attributed samples, phase-binned
//! bandwidth — so a placement can be (re)computed *while the stream is
//! still running*. With aging disabled (the default [`OnlineConfig`]),
//! feeding a full valid trace and snapshotting at the end reproduces the
//! batch analyzer's [`ProfileSet`] exactly; this online → offline
//! convergence is property-tested in `tests/convergence.rs`. The
//! streaming part is the bookkeeping: live blocks, per-site peak-live
//! sweeps and aged miss estimates. A site's profile is then built through
//! the analyzer's own aggregation (`SiteProfile::aggregate`) and
//! bandwidth series (`profiler::BwContext`).
//!
//! Sample → object matching is the streaming version of the analyzer's
//! interval search: a sorted table of block start addresses holds the
//! *live* heap image, and blocks freed at time `t_f` are kept in a small
//! grace list until the stream moves past `t_f`, because the analyzer's
//! liveness test is inclusive (`time <= free_time`). One deliberate
//! divergence: a stream that re-uses an [`ObjectId`] after free is
//! attributed *causally* (samples go to the instance live at sample time),
//! whereas the batch analyzer only ever sees the last instance. The
//! simulator's profiler never re-uses ids, so the two agree on every trace
//! it produces.
//!
//! Damage handling follows the toolchain's [`DegradationPolicy`] contract,
//! through the same [`memtrace::integrity`] state machine the batch paths
//! run: `Strict` fails fast on exactly what `TraceFile::validate` rejects,
//! with the same message; `Warn` and `BestEffort` drop malformed events
//! with per-kind tallies the way `TraceFile::sanitize` does, and `Warn`
//! still fails at the end if *nothing* was usable.

use crate::config::OnlineConfig;
use crate::stats::DecayedWindow;
use memtrace::columns::{EventBatch, OpKind, SAME_TIER_SPAN};
use memtrace::{
    BinaryMap, CallStack, DegradationPolicy, DroppedWindow, ObjectId, Shape, SiteId, TraceError,
    TraceEvent, TraceFile, Validator, Warning, WarningKind,
};
use profiler::{BwContext, ObjectLifetime, ProfileSet, SiteProfile};
use std::collections::HashMap;
use std::sync::Arc;

/// Trace metadata the ingestor needs up front — everything in a
/// [`TraceFile`] except the event stream itself (a real streaming profiler
/// emits exactly this as its header).
///
/// The site table and binary map are behind `Arc`s: they are read-mostly
/// reference data, and a multi-tenant server hosting many ingestors of
/// the same application shares one interned copy instead of cloning
/// per tenant — memory stays flat as tenant count grows.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Application name.
    pub app_name: String,
    /// PEBS sampling rate, Hz.
    pub sampling_hz: f64,
    /// LLC load misses represented by each load-miss sample.
    pub load_sample_period: f64,
    /// Stores represented by each store sample.
    pub store_sample_period: f64,
    /// Call stack of each allocation site (shared, read-only).
    pub stacks: Arc<Vec<(SiteId, CallStack)>>,
    /// The program image (shared, read-only).
    pub binmap: Arc<BinaryMap>,
}

impl StreamMeta {
    /// Extracts the header of an existing trace file.
    pub fn of(trace: &TraceFile) -> StreamMeta {
        StreamMeta {
            app_name: trace.app_name.clone(),
            sampling_hz: trace.sampling_hz,
            load_sample_period: trace.load_sample_period,
            store_sample_period: trace.store_sample_period,
            stacks: Arc::new(trace.stacks.clone()),
            binmap: Arc::new(trace.binmap.clone()),
        }
    }
}

/// One object's accumulating record (the streaming twin of the analyzer's
/// internal `Obj`), held in a dense slot. An object id keeps its slot for
/// the life of the stream; re-allocating the id overwrites the record.
#[derive(Debug, Clone)]
pub(crate) struct ObjAcc {
    pub(crate) id: ObjectId,
    /// Slot of the object's site in [`StreamIngestor::sites`].
    pub(crate) site: u32,
    pub(crate) size: u64,
    pub(crate) address: u64,
    pub(crate) alloc_time: f64,
    /// `None` while live; the free timestamp once freed.
    pub(crate) free_time: Option<f64>,
    pub(crate) load_samples: u64,
    pub(crate) store_samples: u64,
    pub(crate) store_l1d_miss_samples: u64,
}

/// Per-site streaming state beyond what the object records carry, one
/// dense slot per distinct site of the stream header's stack table.
#[derive(Debug, Clone)]
pub(crate) struct SiteAcc {
    pub(crate) id: SiteId,
    /// Index of the site's first entry in the header's stack table.
    pub(crate) stack: usize,
    /// True once the site has seen an allocation; checkpoints record
    /// exactly these sites.
    pub(crate) present: bool,
    /// True while the site is on [`StreamIngestor::dirty`].
    pub(crate) dirty: bool,
    /// Object slots of this site's instances, in arrival order.
    pub(crate) objects: Vec<u32>,
    /// True while `objects` is also in ascending object-id order — the
    /// order a profile lists objects in — so a rebuild need not sort.
    pub(crate) by_id: bool,
    /// Aged LLC load-miss sample counter.
    pub(crate) load_stat: DecayedWindow,
    /// Aged L1D store-miss sample counter.
    pub(crate) store_stat: DecayedWindow,
    /// The peak-live sweep over the site's allocations and frees so far.
    pub(crate) sweep: PeakSweep,
}

/// The analyzer's peak-live edge sweep, run as the stream delivers the
/// edges instead of sorting them per rebuild.
///
/// The analyzer sorts a site's edges — `(alloc_time, +size)` and
/// `(free_time, -size)` — by time, then by delta, and takes the largest
/// running sum. Within one timestamp the sorted deltas fall and then
/// rise, so that maximum is the largest running sum at the *end* of a
/// timestamp group (or 0). The stream delivers edges in time order, so
/// the group ends are known as soon as the clock moves past them; only
/// the open group's end (`cur`) can still change. Objects still live at
/// a snapshot close at `duration`: when that is later than every edge,
/// their frees form one last group whose end is exactly 0, and the peak
/// is `max(0, peak, cur)`. Otherwise — or when a time is `-0.0` (equal
/// to `0.0`, yet ordered before it), or the sizes could overflow the
/// sum — a rebuild falls back to the sorting sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeakSweep {
    /// Time of the open group: the latest edge (`-inf` before any).
    t: f64,
    /// Running sum after every edge so far.
    cur: i64,
    /// Largest running sum at the end of a closed group.
    peak: i64,
    /// Bytes allocated so far; below `i64::MAX` no running sum overflows.
    bytes: u64,
    /// False once an edge rules the streaming answer out.
    exact: bool,
}

impl Default for PeakSweep {
    fn default() -> Self {
        PeakSweep { t: f64::NEG_INFINITY, cur: 0, peak: 0, bytes: 0, exact: true }
    }
}

impl PeakSweep {
    fn edge(&mut self, t: f64, size: u64, alloc: bool) {
        if t != self.t {
            self.peak = self.peak.max(self.cur);
            self.t = t;
        }
        if alloc {
            self.bytes = self.bytes.saturating_add(size);
            self.exact &= self.bytes <= i64::MAX as u64;
        }
        self.exact &= t.to_bits() != (-0.0f64).to_bits();
        if self.exact {
            let d = size as i64;
            self.cur += if alloc { d } else { -d };
        }
    }

    /// The sweep's answer for a snapshot at `duration`, when exact.
    fn peak_at(&self, duration: f64) -> Option<u64> {
        (self.exact && duration > self.t).then(|| self.peak.max(self.cur).max(0) as u64)
    }

    /// The sweep over a site's current objects, edges in analyzer order —
    /// the state a stream of exactly those objects leaves behind.
    pub(crate) fn of(objects: &[ObjAcc], slots: &[u32]) -> PeakSweep {
        let mut edges: Vec<(f64, i64, u64)> = Vec::with_capacity(slots.len() * 2);
        for &s in slots {
            let o = &objects[s as usize];
            edges.push((o.alloc_time, o.size as i64, o.size));
            if let Some(f) = o.free_time {
                edges.push((f, -(o.size as i64), o.size));
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut sweep = PeakSweep::default();
        for (t, d, size) in edges {
            sweep.edge(t, size, d >= 0);
        }
        sweep
    }
}

/// The live heap image: blocks sorted by start address, the starts in a
/// column of their own so the search touches one dense array. A start
/// address holds at most one block — an allocation at the start of a
/// live block replaces it, like a map insert.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveBlocks {
    starts: Vec<u64>,
    /// `(end, object slot)` of each block, parallel to `starts`.
    blocks: Vec<(u64, u32)>,
    /// Search memo, as in the analyzer's `IndexCursor`: every address in
    /// `[lo, hi)` — between two neighbouring live starts — has the same
    /// upper bound. Cleared whenever a block is added or removed.
    gap: Option<Gap>,
}

#[derive(Debug, Clone, Copy)]
struct Gap {
    lo: u64,
    /// Exclusive; `u64::MAX` stands for "unbounded", so the address
    /// `u64::MAX` itself always takes the search path.
    hi: u64,
    upper: usize,
}

impl LiveBlocks {
    /// Number of live blocks.
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// `(start, end, object slot)` of every block, by start address.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.starts.iter().zip(&self.blocks).map(|(&start, &(end, slot))| (start, end, slot))
    }

    /// Adds a block, replacing any block with the same start.
    pub(crate) fn insert(&mut self, start: u64, end: u64, slot: u32) {
        match self.starts.binary_search(&start) {
            Ok(i) => self.blocks[i] = (end, slot),
            Err(i) => {
                self.starts.insert(i, start);
                self.blocks.insert(i, (end, slot));
            }
        }
        self.gap = None;
    }

    /// Removes the block at `start` if it still belongs to `slot`.
    fn unlink(&mut self, start: u64, slot: u32) {
        if let Ok(i) = self.starts.binary_search(&start) {
            if self.blocks[i].1 == slot {
                self.starts.remove(i);
                self.blocks.remove(i);
                self.gap = None;
            }
        }
    }

    /// The live block with the largest start ≤ `address` that contains
    /// it, scanning back no further than [`SAME_TIER_SPAN`]: its
    /// `(start, object slot)`.
    #[inline]
    fn lookup(&mut self, address: u64) -> Option<(u64, u32)> {
        let upper = match self.gap {
            Some(g) if g.lo <= address && address < g.hi => g.upper,
            _ => {
                let upper = self.starts.partition_point(|&s| s <= address);
                let lo = if upper == 0 { 0 } else { self.starts[upper - 1] };
                let hi = self.starts.get(upper).copied().unwrap_or(u64::MAX);
                self.gap = Some(Gap { lo, hi, upper });
                upper
            }
        };
        for i in (0..upper).rev() {
            let start = self.starts[i];
            if start + SAME_TIER_SPAN <= address {
                break;
            }
            if address < self.blocks[i].0 {
                return Some((start, self.blocks[i].1));
            }
        }
        None
    }
}

/// The streaming trace ingestor.
#[derive(Debug)]
pub struct StreamIngestor {
    // Every field is `pub(crate)` so the durability layer's checkpoint
    // codec (`crate::durability::codec`) can capture and restore the full
    // ingestion state bit-for-bit.
    pub(crate) meta: StreamMeta,
    pub(crate) cfg: OnlineConfig,
    pub(crate) policy: DegradationPolicy,

    /// The trace-integrity state machine shared with `validate` and
    /// `sanitize`: known sites, live and freed ids, the stream clock and
    /// the lenient policies' drop accounting.
    pub(crate) integrity: Validator,

    /// Object records, one dense slot per object id. The id → slot map
    /// is consulted on allocations and frees only, never per sample.
    pub(crate) objects: Vec<ObjAcc>,
    pub(crate) object_slots: HashMap<ObjectId, u32>,
    /// Site records, one dense slot per distinct site of the header.
    pub(crate) sites: Vec<SiteAcc>,
    pub(crate) site_slots: HashMap<SiteId, u32>,
    /// Live blocks: start address → (end address, object slot).
    pub(crate) live: LiveBlocks,
    /// Blocks freed at `free_time` ≥ the current stream time, kept for the
    /// analyzer's inclusive `time <= free_time` boundary:
    /// `(start, end, object slot, free_time)`.
    pub(crate) grace: Vec<(u64, u64, u32, f64)>,
    pub(crate) unmatched_samples: u64,

    /// Slots of the sites whose statistics changed since the last
    /// `take_dirty` (each flagged [`SiteAcc::dirty`], listed once).
    pub(crate) dirty: Vec<u32>,

    // Bandwidth binning (one bin per phase marker, like the analyzer):
    // integer sample counts, converted to bytes/sec on demand by the
    // analyzer's own `profiler::BwContext`, so the streaming series
    // matches the batch analyzer's to the last bit under any event
    // grouping.
    pub(crate) bins: Vec<f64>,
    pub(crate) bin_load: Vec<u64>,
    pub(crate) bin_store_miss: Vec<u64>,
    /// Load-miss samples seen before the first phase marker.
    pub(crate) pending_load: u64,
    /// L1D store-miss samples seen before the first phase marker.
    pub(crate) pending_store_miss: u64,
}

impl StreamIngestor {
    /// Creates an ingestor for a stream with the given header.
    pub fn new(meta: StreamMeta, policy: DegradationPolicy, cfg: OnlineConfig) -> Self {
        let mut sites = Vec::new();
        let mut site_slots = HashMap::new();
        for (i, (site, _)) in meta.stacks.iter().enumerate() {
            site_slots.entry(*site).or_insert_with(|| {
                sites.push(SiteAcc {
                    id: *site,
                    stack: i,
                    present: false,
                    dirty: false,
                    objects: Vec::new(),
                    by_id: true,
                    load_stat: DecayedWindow::default(),
                    store_stat: DecayedWindow::default(),
                    sweep: PeakSweep::default(),
                });
                u32::try_from(sites.len() - 1).expect("fewer than 2^32 sites")
            });
        }
        StreamIngestor {
            integrity: Validator::new(&meta.stacks),
            meta,
            cfg,
            policy,
            objects: Vec::new(),
            object_slots: HashMap::new(),
            sites,
            site_slots,
            live: LiveBlocks::default(),
            grace: Vec::new(),
            unmatched_samples: 0,
            dirty: Vec::new(),
            bins: Vec::new(),
            bin_load: Vec::new(),
            bin_store_miss: Vec::new(),
            pending_load: 0,
            pending_store_miss: 0,
        }
    }

    /// Stream header.
    pub fn meta(&self) -> &StreamMeta {
        &self.meta
    }

    /// Timestamp of the last accepted event (`-inf` before the first).
    pub fn now(&self) -> f64 {
        self.integrity.last_t
    }

    /// Events offered so far (accepted + dropped).
    pub fn events_seen(&self) -> u64 {
        self.integrity.seen
    }

    /// Events dropped by the lenient policies.
    pub fn dropped(&self) -> u64 {
        self.integrity.dropped
    }

    /// The time window the dropped events covered.
    pub fn dropped_window(&self) -> DroppedWindow {
        self.integrity.window
    }

    /// Samples that matched no object (ignored, like the analyzer).
    pub fn unmatched_samples(&self) -> u64 {
        self.unmatched_samples
    }

    /// Sites whose statistics changed since the last call, sorted. The
    /// incremental advisor rebuilds exactly these.
    pub fn take_dirty(&mut self) -> Vec<SiteId> {
        let sites = &mut self.sites;
        let mut v: Vec<SiteId> = self
            .dirty
            .drain(..)
            .map(|slot| {
                let s = &mut sites[slot as usize];
                s.dirty = false;
                s.id
            })
            .collect();
        v.sort();
        v
    }

    /// Offers one event. Returns `Ok(true)` if it was accepted, `Ok(false)`
    /// if a lenient policy dropped it, and `Err` under
    /// [`DegradationPolicy::Strict`] on exactly the malformations
    /// `TraceFile::validate` rejects, with the same message.
    pub fn push(&mut self, e: TraceEvent) -> Result<bool, TraceError> {
        if !self.admit(e.time(), Shape::of_event(&e))? {
            return Ok(false);
        }
        match e {
            TraceEvent::Alloc { time, object, site, size, address } => {
                self.record_alloc(time, object, site, size, address);
            }
            TraceEvent::Free { time, object } => self.record_free(time, object),
            TraceEvent::LoadMissSample { time, address, .. } => {
                self.record_sample(time, address, SampleKind::LoadMiss);
            }
            TraceEvent::StoreSample { time, address, l1d_miss, .. } => {
                self.record_sample(time, address, SampleKind::store(l1d_miss));
            }
            TraceEvent::PhaseMarker { time, .. } => self.record_phase(time),
        }
        Ok(true)
    }

    /// Offers a columnar batch in emission order. Equivalent to pushing
    /// every event individually — batch boundaries never change the
    /// resulting profile — but it reads the batch columns directly instead
    /// of rebuilding each event. Returns the number of accepted events;
    /// under `Strict` the first malformation aborts the batch mid-way with
    /// the same error `push` would raise.
    pub fn push_batch(&mut self, b: &EventBatch) -> Result<u64, TraceError> {
        let mut accepted = 0u64;
        let times = b.time_columns();
        for &op in &b.ops {
            let t = times.at(op);
            let before = self.integrity.last_t;
            if !self.integrity.offer_op(self.policy, b, op, t)? {
                continue;
            }
            self.retire_grace(before, t);
            accepted += 1;
            let r = op.row();
            match op.kind() {
                OpKind::Alloc => self.record_alloc(
                    t,
                    b.alloc_objects[r],
                    b.alloc_sites[r],
                    b.alloc_sizes[r],
                    b.alloc_addresses[r],
                ),
                OpKind::Free => self.record_free(t, b.free_objects[r]),
                OpKind::Load => self.record_sample(t, b.load_addresses[r], SampleKind::LoadMiss),
                OpKind::Store => {
                    let kind = SampleKind::store(b.store_l1d_miss[r]);
                    self.record_sample(t, b.store_addresses[r], kind);
                }
                OpKind::Phase => self.record_phase(t),
            }
        }
        Ok(accepted)
    }

    /// Runs the integrity rules on the next event; on acceptance, retires
    /// grace entries the analyzer's inclusive boundary can no longer
    /// reach.
    #[inline]
    fn admit(&mut self, t: f64, shape: Shape) -> Result<bool, TraceError> {
        let before = self.integrity.last_t;
        if !self.integrity.offer(self.policy, t, shape)? {
            return Ok(false);
        }
        self.retire_grace(before, t);
        Ok(true)
    }

    /// Drops the grace entries freed before `t` once an accepted event
    /// has moved the stream past `before`.
    #[inline]
    fn retire_grace(&mut self, before: f64, t: f64) {
        if t > before && !self.grace.is_empty() {
            self.grace.retain(|&(_, _, _, free_time)| free_time >= t);
        }
    }

    fn mark_dirty(&mut self, slot: u32) {
        let s = &mut self.sites[slot as usize];
        if !s.dirty {
            s.dirty = true;
            self.dirty.push(slot);
        }
    }

    fn record_alloc(&mut self, time: f64, object: ObjectId, site: SiteId, size: u64, address: u64) {
        let site = *self.site_slots.get(&site).expect("the validator admits only known sites");
        let acc = ObjAcc {
            id: object,
            site,
            size,
            address,
            alloc_time: time,
            free_time: None,
            load_samples: 0,
            store_samples: 0,
            store_l1d_miss_samples: 0,
        };
        let slot = match self.object_slots.get(&object) {
            Some(&slot) => {
                // An id re-used after free replaces its previous instance,
                // exactly like the analyzer's object table; drop the stale
                // index entries so future samples cannot resolve to the
                // dead record.
                let (old_site, old_address) = {
                    let old = &self.objects[slot as usize];
                    (old.site, old.address)
                };
                self.live.unlink(old_address, slot);
                self.grace.retain(|&(_, _, s, _)| s != slot);
                let old = &mut self.sites[old_site as usize];
                old.objects.retain(|&s| s != slot);
                // The dropped instance's edges leave the sweep with it.
                old.sweep = PeakSweep::of(&self.objects, &old.objects);
                self.mark_dirty(old_site);
                self.objects[slot as usize] = acc;
                slot
            }
            None => {
                let slot = u32::try_from(self.objects.len()).expect("fewer than 2^32 objects");
                self.objects.push(acc);
                self.object_slots.insert(object, slot);
                slot
            }
        };
        self.live.insert(address, address + size, slot);
        let objects = &self.objects;
        let s = &mut self.sites[site as usize];
        s.present = true;
        s.by_id &= s.objects.last().is_none_or(|&last| objects[last as usize].id < object);
        s.objects.push(slot);
        s.sweep.edge(time, size, true);
        self.mark_dirty(site);
    }

    fn record_free(&mut self, time: f64, object: ObjectId) {
        let Some(&slot) = self.object_slots.get(&object) else { return };
        let o = &mut self.objects[slot as usize];
        o.free_time = Some(time);
        let (site, start, end) = (o.site, o.address, o.address + o.size);
        self.sites[site as usize].sweep.edge(time, o.size, false);
        self.live.unlink(start, slot);
        self.grace.push((start, end, slot, time));
        self.mark_dirty(site);
    }

    fn record_phase(&mut self, time: f64) {
        self.bins.push(time);
        let first = self.bins.len() == 1;
        self.bin_load.push(if first { std::mem::take(&mut self.pending_load) } else { 0 });
        self.bin_store_miss.push(if first {
            std::mem::take(&mut self.pending_store_miss)
        } else {
            0
        });
    }

    fn record_sample(&mut self, time: f64, address: u64, kind: SampleKind) {
        // Bandwidth binning (pass 3 of the analyzer, done inline): integer
        // per-kind counts; `BwContext::new` converts to bytes/sec.
        match kind {
            SampleKind::LoadMiss => match self.bin_load.last_mut() {
                Some(b) => *b += 1,
                None => self.pending_load += 1,
            },
            SampleKind::StoreL1dMiss => match self.bin_store_miss.last_mut() {
                Some(b) => *b += 1,
                None => self.pending_store_miss += 1,
            },
            SampleKind::StoreHit => {}
        }

        let Some(slot) = self.match_object(address, time) else {
            self.unmatched_samples += 1;
            return;
        };
        let o = &mut self.objects[slot as usize];
        let site = o.site;
        let acc = &mut self.sites[site as usize];
        match kind {
            SampleKind::LoadMiss => {
                o.load_samples += 1;
                acc.load_stat.push(&self.cfg, time, 1.0);
            }
            SampleKind::StoreL1dMiss => {
                o.store_samples += 1;
                o.store_l1d_miss_samples += 1;
                acc.store_stat.push(&self.cfg, time, 1.0);
            }
            SampleKind::StoreHit => {
                o.store_samples += 1;
            }
        }
        self.mark_dirty(site);
    }

    /// Streaming interval search: the live block with the largest start
    /// ≤ `address` that contains it, or a just-freed block whose inclusive
    /// lifetime still covers `time`.
    fn match_object(&mut self, address: u64, time: f64) -> Option<u32> {
        let mut best = self.live.lookup(address);
        for &(start, end, slot, free_time) in &self.grace {
            if start <= address
                && address < end
                && time <= free_time
                && start + SAME_TIER_SPAN > address
            {
                // Prefer the larger start; on a tie the younger instance —
                // the order the analyzer's backward scan visits intervals.
                let better = best.is_none_or(|(bs, bslot)| {
                    start > bs
                        || (start == bs
                            && self.objects[slot as usize].id > self.objects[bslot as usize].id)
                });
                if better {
                    best = Some((start, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The bandwidth series as of `duration`: the analyzer's pass 3 over
    /// the running bin counts, read in place.
    pub fn bw_context(&self, duration: f64) -> BwContext<'_> {
        let (load_period, store_period) =
            (self.meta.load_sample_period, self.meta.store_sample_period);
        if self.bins.is_empty() {
            let (loads, misses) = ([self.pending_load], [self.pending_store_miss]);
            BwContext::new(&[0.0], &loads, &misses, load_period, store_period, duration)
        } else {
            let (loads, misses) = (&self.bin_load, &self.bin_store_miss);
            BwContext::new(&self.bins, loads, misses, load_period, store_period, duration)
        }
    }

    /// Rebuilds one site's profile as of `duration` into `out`, reusing
    /// its allocations. Returns false, leaving `out` untouched, for sites
    /// with no observed allocations.
    pub(crate) fn rebuild_site(
        &self,
        site: SiteId,
        duration: f64,
        bw: &BwContext,
        out: &mut SiteProfile,
    ) -> bool {
        let Some(&slot) = self.site_slots.get(&site) else { return false };
        let stack = &self.meta.stacks[self.sites[slot as usize].stack].1;
        self.build_site(slot, stack, duration, bw, out)
    }

    fn build_site(
        &self,
        slot: u32,
        stack: &CallStack,
        duration: f64,
        bw: &BwContext,
        out: &mut SiteProfile,
    ) -> bool {
        let acc = &self.sites[slot as usize];
        if acc.objects.is_empty() {
            return false;
        }
        let mut bw_at = bw.cursor();
        let mut lifetime = |o: &ObjAcc| ObjectLifetime {
            object: o.id,
            size: o.size,
            alloc_time: o.alloc_time,
            free_time: o.free_time.unwrap_or(duration),
            load_samples: o.load_samples,
            store_samples: o.store_samples,
            store_l1d_miss_samples: o.store_l1d_miss_samples,
            bw_at_alloc: bw_at(o.alloc_time),
        };
        out.objects.clear();
        if acc.by_id {
            out.objects.extend(acc.objects.iter().map(|&s| lifetime(&self.objects[s as usize])));
        } else {
            let mut order: Vec<&ObjAcc> =
                acc.objects.iter().map(|&s| &self.objects[s as usize]).collect();
            order.sort_by_key(|o| o.id);
            out.objects.extend(order.into_iter().map(lifetime));
        }

        // With aging disabled the sampled totals are the analyzer's
        // estimates; with a window or decay configured the estimates track
        // recent activity instead.
        let (lp, sp) = (self.meta.load_sample_period, self.meta.store_sample_period);
        let (load_misses_est, store_misses_est) =
            if self.cfg.window.is_some() || self.cfg.half_life.is_some() {
                (
                    acc.load_stat.value(&self.cfg, duration) * lp,
                    acc.store_stat.value(&self.cfg, duration) * sp,
                )
            } else {
                out.sampled_misses(lp, sp)
            };
        let peak_live_bytes =
            acc.sweep.peak_at(duration).unwrap_or_else(|| profiler::peak_live(&out.objects));
        out.site = acc.id;
        if out.stack != *stack {
            out.stack = stack.clone();
        }
        out.aggregate(load_misses_est, store_misses_est, peak_live_bytes);
        true
    }

    /// A full profile of everything ingested so far, as of `duration` —
    /// the streaming equivalent of `profiler::analyze`.
    pub fn snapshot(&self, duration: f64) -> ProfileSet {
        let bw = self.bw_context(duration);
        let mut sites = Vec::new();
        for (site, stack) in self.meta.stacks.iter() {
            let mut p = SiteProfile::empty(*site);
            if self.build_site(self.site_slots[site], stack, duration, &bw, &mut p) {
                sites.push(p);
            }
        }
        sites.sort_by_key(|s| s.site);
        ProfileSet {
            app_name: self.meta.app_name.clone(),
            duration,
            sites,
            bw_series: bw.series,
            peak_bw: bw.peak,
            binmap: (*self.meta.binmap).clone(),
        }
    }

    /// Warnings accumulated so far: one per damage kind (like `sanitize`)
    /// plus an aggregate [`WarningKind::DroppedEvents`] tally.
    pub fn warnings(&self) -> Vec<Warning> {
        let v = &self.integrity;
        let mut out = v.tally_warnings();
        if v.dropped > 0 {
            out.push(Warning::new(
                WarningKind::DroppedEvents,
                format!(
                    "streaming ingestion dropped {} of {} trace events{}",
                    v.dropped,
                    v.seen,
                    v.window.describe()
                ),
            ));
        }
        out
    }

    /// Ends the stream: applies the degradation policy's end-of-stream
    /// contract and returns the final profile plus all warnings. `Warn`
    /// fails here when every offered event was dropped (nothing usable);
    /// `BestEffort` never fails; `Strict` failed at the offending event.
    pub fn finish(self, duration: f64) -> Result<(ProfileSet, Vec<Warning>), TraceError> {
        let v = &self.integrity;
        if self.policy == DegradationPolicy::Warn && v.seen > 0 && v.dropped == v.seen {
            return Err(TraceError::Malformed(format!(
                "streaming ingestion dropped all {} events; nothing usable",
                v.seen
            )));
        }
        let profile = self.snapshot(duration);
        let warnings = self.warnings();
        Ok((profile, warnings))
    }
}

#[derive(Clone, Copy)]
enum SampleKind {
    LoadMiss,
    StoreL1dMiss,
    StoreHit,
}

impl SampleKind {
    fn store(l1d_miss: bool) -> SampleKind {
        if l1d_miss {
            SampleKind::StoreL1dMiss
        } else {
            SampleKind::StoreHit
        }
    }
}

/// Streams a whole trace through one [`StreamIngestor`] on the caller's
/// thread, reading the trace's own [`EventBatch`] — the streaming
/// counterpart of `profiler::analyze` (strict) and
/// `profiler::analyze_lenient` (with a lenient policy).
pub fn stream_profile(
    trace: &TraceFile,
    policy: DegradationPolicy,
    cfg: OnlineConfig,
) -> Result<(ProfileSet, Vec<Warning>), TraceError> {
    let mut ingestor = StreamIngestor::new(StreamMeta::of(trace), policy, cfg);
    ingestor.push_batch(&trace.events)?;
    ingestor.finish(trace.duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{Frame, ModuleId};

    fn meta() -> StreamMeta {
        StreamMeta {
            app_name: "toy".into(),
            sampling_hz: 100.0,
            load_sample_period: 10.0,
            store_sample_period: 5.0,
            stacks: Arc::new(vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x20)])),
            ]),
            binmap: Arc::new(BinaryMap::default()),
        }
    }

    fn alloc(t: f64, id: u64, site: u32, size: u64, addr: u64) -> TraceEvent {
        TraceEvent::Alloc { time: t, object: ObjectId(id), site: SiteId(site), size, address: addr }
    }

    fn load(t: f64, addr: u64) -> TraceEvent {
        TraceEvent::LoadMissSample {
            time: t,
            address: addr,
            latency_cycles: 300.0,
            function: memtrace::FuncId(0),
        }
    }

    #[test]
    fn attributes_samples_to_live_objects() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(0.0, 1, 0, 4096, 0x1000)).unwrap();
        ing.push(load(0.5, 0x1800)).unwrap();
        ing.push(load(0.6, 0x9000)).unwrap(); // outside any block
        let p = ing.snapshot(1.0);
        assert_eq!(p.sites.len(), 1);
        assert_eq!(p.sites[0].objects[0].load_samples, 1);
        assert_eq!(p.sites[0].load_misses_est, 10.0);
        assert_eq!(ing.unmatched_samples(), 1);
    }

    #[test]
    fn inclusive_free_boundary_matches_like_the_analyzer() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(0.0, 1, 0, 4096, 0x1000)).unwrap();
        ing.push(TraceEvent::Free { time: 1.0, object: ObjectId(1) }).unwrap();
        // Sample exactly at the free time still belongs to the object
        // (analyzer: time <= free_time); a later one does not.
        ing.push(load(1.0, 0x1000)).unwrap();
        ing.push(load(2.0, 0x1000)).unwrap();
        let p = ing.snapshot(3.0);
        assert_eq!(p.sites[0].objects[0].load_samples, 1);
        assert_eq!(ing.unmatched_samples(), 1);
    }

    #[test]
    fn address_reuse_resolves_to_the_live_instance() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(0.0, 1, 0, 4096, 0x1000)).unwrap();
        ing.push(TraceEvent::Free { time: 1.0, object: ObjectId(1) }).unwrap();
        ing.push(alloc(2.0, 2, 1, 4096, 0x1000)).unwrap();
        ing.push(load(3.0, 0x1100)).unwrap();
        let p = ing.snapshot(4.0);
        let s1 = p.site(SiteId(1)).unwrap();
        assert_eq!(s1.objects[0].load_samples, 1, "sample belongs to the new owner");
        assert_eq!(p.site(SiteId(0)).unwrap().objects[0].load_samples, 0);
    }

    #[test]
    fn strict_rejects_what_validate_rejects() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        assert!(ing.push(TraceEvent::Free { time: 0.0, object: ObjectId(9) }).is_err());
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(1.0, 1, 0, 64, 0x1000)).unwrap();
        assert!(ing.push(alloc(0.5, 2, 0, 64, 0x2000)).is_err(), "out of order");
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        assert!(ing.push(alloc(0.0, 1, 7, 64, 0x1000)).is_err(), "unknown site");
        assert!(ing.push(alloc(0.0, 1, 0, 0, 0x1000)).is_err(), "zero size");
    }

    #[test]
    fn strict_rejects_a_non_finite_time_like_validate() {
        let events = vec![
            alloc(1.0, 1, 0, 64, 0x1000),
            TraceEvent::PhaseMarker { time: f64::NAN, phase: 0 },
            alloc(0.5, 2, 0, 64, 0x2000),
        ];
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(events[0].clone()).unwrap();
        let err = ing.push(events[1].clone()).unwrap_err().to_string();
        assert!(err.contains("event 1 has non-finite timestamp NaN"), "{err}");
        let trace = TraceFile {
            app_name: "toy".into(),
            seed: 0,
            ranks: 1,
            sampling_hz: 100.0,
            load_sample_period: 10.0,
            store_sample_period: 5.0,
            duration: 2.0,
            stacks: (*meta().stacks).clone(),
            binmap: BinaryMap::default(),
            events: EventBatch::from_events(&events),
        };
        assert_eq!(err, trace.validate().unwrap_err().to_string());
    }

    #[test]
    fn lenient_drops_and_tallies() {
        let mut ing = StreamIngestor::new(meta(), DegradationPolicy::Warn, OnlineConfig::default());
        assert!(!ing.push(TraceEvent::Free { time: 0.0, object: ObjectId(9) }).unwrap());
        assert!(ing.push(alloc(1.0, 1, 0, 64, 0x1000)).unwrap());
        assert!(!ing.push(alloc(0.5, 2, 0, 64, 0x2000)).unwrap());
        assert!(!ing.push(TraceEvent::PhaseMarker { time: f64::NAN, phase: 0 }).unwrap());
        assert_eq!(ing.dropped(), 3);
        let kinds: Vec<WarningKind> = ing.warnings().iter().map(|w| w.kind).collect();
        assert!(kinds.contains(&WarningKind::OrphanFree));
        assert!(kinds.contains(&WarningKind::OutOfOrderEvent));
        assert!(kinds.contains(&WarningKind::NonFiniteTime));
        assert!(kinds.contains(&WarningKind::DroppedEvents));
        // Something usable survived, so Warn finishes fine.
        assert!(ing.finish(2.0).is_ok());
    }

    #[test]
    fn warn_fails_when_nothing_is_usable() {
        let mut ing = StreamIngestor::new(meta(), DegradationPolicy::Warn, OnlineConfig::default());
        for _ in 0..3 {
            ing.push(TraceEvent::Free { time: 0.0, object: ObjectId(9) }).unwrap();
        }
        assert!(ing.finish(1.0).is_err());
        // BestEffort degrades to an empty profile instead.
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::BestEffort, OnlineConfig::default());
        for _ in 0..3 {
            ing.push(TraceEvent::Free { time: 0.0, object: ObjectId(9) }).unwrap();
        }
        let (p, w) = ing.finish(1.0).unwrap();
        assert!(p.sites.is_empty());
        assert!(!w.is_empty());
    }

    #[test]
    fn dirty_tracking_is_per_site_and_drains() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(0.0, 1, 0, 4096, 0x1000)).unwrap();
        ing.push(alloc(0.1, 2, 1, 4096, 0x8000)).unwrap();
        assert_eq!(ing.take_dirty(), vec![SiteId(0), SiteId(1)]);
        assert!(ing.take_dirty().is_empty());
        ing.push(load(0.5, 0x1000)).unwrap();
        assert_eq!(ing.take_dirty(), vec![SiteId(0)], "only the sampled site re-dirties");
    }

    #[test]
    fn bandwidth_bins_follow_phase_markers() {
        let mut ing =
            StreamIngestor::new(meta(), DegradationPolicy::Strict, OnlineConfig::default());
        ing.push(alloc(0.0, 1, 0, 1 << 20, 0x1000)).unwrap();
        ing.push(load(0.5, 0x1000)).unwrap(); // before any marker
        ing.push(TraceEvent::PhaseMarker { time: 1.0, phase: 0 }).unwrap();
        ing.push(load(1.5, 0x1000)).unwrap();
        ing.push(TraceEvent::PhaseMarker { time: 2.0, phase: 1 }).unwrap();
        let bw = ing.bw_context(3.0);
        assert_eq!(bw.series.len(), 2);
        // Pre-marker bytes fold into the first bin, like the analyzer.
        assert!(bw.series[0].1 > bw.series[1].1);
        assert!(bw.peak >= bw.series[0].1);
    }
}
