//! Bit-exact binary encoding of the online engine's mutable state.
//!
//! The recovery proof obligation is *byte identity*: a run recovered from
//! `checkpoint + journal suffix` must emit exactly the revision sequence
//! of an uninterrupted run. That rules out any lossy serialization of the
//! floating-point statistics, so every `f64` here travels as its IEEE-754
//! bit pattern (`to_bits`/`from_bits`) varint-encoded with the shared
//! [`memtrace::binfmt`] primitives — including NaN payloads and negative
//! zero, which a decimal round-trip would quietly normalize.
//!
//! Hash containers (`HashMap`/`HashSet`) have no stable iteration order,
//! and the ingestor's dense object and site slots are numbered in arrival
//! order, so both are encoded as vectors sorted by id — the slots are a
//! memory layout, not state, and are rebuilt on decode. The ingestor's
//! per-site `objects` vectors, `grace` list and `tallies` are
//! **order-carrying** state and are encoded verbatim (as ids). The only non-binary section is the
//! stream header ([`StreamMeta`]): stacks and binary map ride the
//! existing `TraceFile` JSON codec (all integer/string fields), while the
//! header's three `f64` scalars are re-pinned bit-exactly beside it.

use crate::config::OnlineConfig;
use crate::incremental::IncrementalAdvisor;
use crate::ingest::{ObjAcc, PeakSweep, SiteAcc, StreamIngestor, StreamMeta};
use crate::stats::DecayedWindow;
use crate::PlacementRevision;
use advisor::{AdvisorConfig, Algorithm, Assignment, BwThresholds, TierBudget};
use memtrace::binfmt::{get_varint, put_varint};
use memtrace::{
    DegradationPolicy, DroppedWindow, ObjectId, SiteId, TierId, TraceError, TraceFile, WarningKind,
};
use profiler::{ObjectLifetime, ProfileSet, SiteProfile};
use std::collections::VecDeque;

/// Every [`WarningKind`], in a frozen order that IS the wire encoding.
/// Append-only: inserting in the middle would re-number checkpoints.
const WARNING_KINDS: [WarningKind; 17] = [
    WarningKind::TruncatedInput,
    WarningKind::NonFiniteTime,
    WarningKind::OutOfOrderEvent,
    WarningKind::UnknownSite,
    WarningKind::ZeroSizeAlloc,
    WarningKind::DuplicateAlloc,
    WarningKind::DoubleFree,
    WarningKind::OrphanFree,
    WarningKind::BadMetadata,
    WarningKind::UnresolvableEntry,
    WarningKind::DuplicateEntry,
    WarningKind::CollidingEntry,
    WarningKind::MixedFormatEntry,
    WarningKind::EmptyProfile,
    WarningKind::UnusableReport,
    WarningKind::FaultInjected,
    WarningKind::DroppedEvents,
];

fn corrupt(what: &str) -> TraceError {
    TraceError::Malformed(format!("corrupt durability record: {what}"))
}

// ---------------------------------------------------------------- scalars

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    put_varint(out, v);
}

pub(crate) fn get_u64(data: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    get_varint(data, pos)
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_varint(out, v.to_bits());
}

pub(crate) fn get_f64(data: &[u8], pos: &mut usize) -> Result<f64, TraceError> {
    Ok(f64::from_bits(get_varint(data, pos)?))
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub(crate) fn get_bool(data: &[u8], pos: &mut usize) -> Result<bool, TraceError> {
    match get_varint(data, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt("boolean out of range")),
    }
}

pub(crate) fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}

pub(crate) fn get_opt_f64(data: &[u8], pos: &mut usize) -> Result<Option<f64>, TraceError> {
    Ok(if get_bool(data, pos)? { Some(get_f64(data, pos)?) } else { None })
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(data: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let n = get_varint(data, pos)? as usize;
    if n > data.len().saturating_sub(*pos) {
        return Err(corrupt("string length exceeds payload"));
    }
    let s = std::str::from_utf8(&data[*pos..*pos + n])
        .map_err(|_| corrupt("string is not UTF-8"))?
        .to_string();
    *pos += n;
    Ok(s)
}

fn checked_len(data: &[u8], pos: &mut usize, item_floor: usize) -> Result<usize, TraceError> {
    let n = get_varint(data, pos)? as usize;
    // Every encoded item costs ≥ `item_floor` bytes; an absurd count means
    // a corrupt length field, caught before any huge allocation.
    if n.saturating_mul(item_floor.max(1)) > data.len().saturating_sub(*pos) {
        return Err(corrupt("collection length exceeds payload"));
    }
    Ok(n)
}

// --------------------------------------------------------- small structs

fn put_window(out: &mut Vec<u8>, w: &DroppedWindow) {
    put_u64(out, w.count);
    put_opt_f64(out, w.first_time);
    put_opt_f64(out, w.last_time);
}

fn get_window(data: &[u8], pos: &mut usize) -> Result<DroppedWindow, TraceError> {
    Ok(DroppedWindow {
        count: get_u64(data, pos)?,
        first_time: get_opt_f64(data, pos)?,
        last_time: get_opt_f64(data, pos)?,
    })
}

/// Encodes a [`DroppedWindow`] (shed-record payloads reuse this).
pub(crate) fn encode_window(out: &mut Vec<u8>, w: &DroppedWindow) {
    put_window(out, w);
}

/// Decodes a [`DroppedWindow`].
pub(crate) fn decode_window(data: &[u8], pos: &mut usize) -> Result<DroppedWindow, TraceError> {
    get_window(data, pos)
}

fn put_decayed(out: &mut Vec<u8>, d: &DecayedWindow) {
    put_f64(out, d.total);
    put_f64(out, d.decayed);
    put_f64(out, d.last);
    put_u64(out, d.samples.len() as u64);
    for &(t, w) in &d.samples {
        put_f64(out, t);
        put_f64(out, w);
    }
}

fn get_decayed(data: &[u8], pos: &mut usize) -> Result<DecayedWindow, TraceError> {
    let total = get_f64(data, pos)?;
    let decayed = get_f64(data, pos)?;
    let last = get_f64(data, pos)?;
    let n = checked_len(data, pos, 2)?;
    let mut samples = VecDeque::with_capacity(n);
    for _ in 0..n {
        let t = get_f64(data, pos)?;
        let w = get_f64(data, pos)?;
        samples.push_back((t, w));
    }
    Ok(DecayedWindow { total, decayed, last, samples })
}

fn put_policy(out: &mut Vec<u8>, p: DegradationPolicy) {
    out.push(match p {
        DegradationPolicy::Strict => 0,
        DegradationPolicy::Warn => 1,
        DegradationPolicy::BestEffort => 2,
    });
}

fn get_policy(data: &[u8], pos: &mut usize) -> Result<DegradationPolicy, TraceError> {
    match get_varint(data, pos)? {
        0 => Ok(DegradationPolicy::Strict),
        1 => Ok(DegradationPolicy::Warn),
        2 => Ok(DegradationPolicy::BestEffort),
        _ => Err(corrupt("degradation policy out of range")),
    }
}

fn put_online_cfg(out: &mut Vec<u8>, cfg: &OnlineConfig) {
    put_opt_f64(out, cfg.window);
    put_opt_f64(out, cfg.half_life);
    put_u64(out, cfg.epoch_phases as u64);
    put_f64(out, cfg.migration_overhead);
    put_u64(out, cfg.channel_capacity as u64);
    put_f64(out, cfg.hysteresis);
}

fn get_online_cfg(data: &[u8], pos: &mut usize) -> Result<OnlineConfig, TraceError> {
    Ok(OnlineConfig {
        window: get_opt_f64(data, pos)?,
        half_life: get_opt_f64(data, pos)?,
        epoch_phases: get_u64(data, pos)? as u32,
        migration_overhead: get_f64(data, pos)?,
        channel_capacity: get_u64(data, pos)? as usize,
        hysteresis: get_f64(data, pos)?,
    })
}

// ---------------------------------------------------------- the ingestor

/// Serializes a [`StreamIngestor`] so that [`decode_ingestor`] rebuilds a
/// behaviorally identical twin (equal snapshots, equal future behavior).
pub fn encode_ingestor(ing: &StreamIngestor, out: &mut Vec<u8>) {
    // Header: stacks + binmap via the TraceFile JSON codec; f64 scalars
    // re-pinned bit-exactly after it (JSON may round them).
    let header = TraceFile {
        app_name: ing.meta.app_name.clone(),
        ranks: 1,
        sampling_hz: ing.meta.sampling_hz,
        load_sample_period: ing.meta.load_sample_period,
        store_sample_period: ing.meta.store_sample_period,
        stacks: (*ing.meta.stacks).clone(),
        binmap: (*ing.meta.binmap).clone(),
        ..TraceFile::default()
    };
    put_str(out, &header.to_json().expect("stream header serializes"));
    put_f64(out, ing.meta.sampling_hz);
    put_f64(out, ing.meta.load_sample_period);
    put_f64(out, ing.meta.store_sample_period);

    put_online_cfg(out, &ing.cfg);
    put_policy(out, ing.policy);

    // Validation state. `known_sites` is derived from the header's stacks.
    let v = &ing.integrity;
    let mut live_ids: Vec<ObjectId> = v.live.iter().copied().collect();
    live_ids.sort();
    put_u64(out, live_ids.len() as u64);
    for id in live_ids {
        put_u64(out, id.0);
    }
    let mut freed_ids: Vec<ObjectId> = v.freed.iter().copied().collect();
    freed_ids.sort();
    put_u64(out, freed_ids.len() as u64);
    for id in freed_ids {
        put_u64(out, id.0);
    }
    put_f64(out, v.last_t);
    put_u64(out, v.seen);
    put_u64(out, v.dropped);
    put_u64(out, v.tallies.len() as u64);
    for &(kind, n, first) in &v.tallies {
        let idx = WARNING_KINDS.iter().position(|&k| k == kind).expect("kind in table");
        put_u64(out, idx as u64);
        put_u64(out, n);
        put_u64(out, first);
    }
    put_window(out, &v.window);

    // Object store, key-sorted by object id.
    let mut by_id: Vec<(ObjectId, u32)> =
        ing.object_slots.iter().map(|(&id, &s)| (id, s)).collect();
    by_id.sort_unstable();
    put_u64(out, by_id.len() as u64);
    for (id, slot) in by_id {
        let o = &ing.objects[slot as usize];
        put_u64(out, id.0);
        put_u64(out, ing.sites[o.site as usize].id.0 as u64);
        put_u64(out, o.size);
        put_u64(out, o.address);
        put_f64(out, o.alloc_time);
        put_opt_f64(out, o.free_time);
        put_u64(out, o.load_samples);
        put_u64(out, o.store_samples);
        put_u64(out, o.store_l1d_miss_samples);
    }

    // Per-site accumulators of every site that has seen an allocation,
    // key-sorted; each site's `objects` vector is arrival-ordered state
    // and is stored verbatim.
    let mut sites: Vec<&SiteAcc> = ing.sites.iter().filter(|s| s.present).collect();
    sites.sort_unstable_by_key(|s| s.id);
    put_u64(out, sites.len() as u64);
    for s in sites {
        put_u64(out, s.id.0 as u64);
        put_u64(out, s.objects.len() as u64);
        for &o in &s.objects {
            put_u64(out, ing.objects[o as usize].id.0);
        }
        put_decayed(out, &s.load_stat);
        put_decayed(out, &s.store_stat);
    }

    // Address index (sorted by start address) and the order-carrying
    // grace list.
    put_u64(out, ing.live.len() as u64);
    for (start, end, slot) in ing.live.iter() {
        put_u64(out, start);
        put_u64(out, end);
        put_u64(out, ing.objects[slot as usize].id.0);
    }
    put_u64(out, ing.grace.len() as u64);
    for &(start, end, slot, free_time) in &ing.grace {
        put_u64(out, start);
        put_u64(out, end);
        put_u64(out, ing.objects[slot as usize].id.0);
        put_f64(out, free_time);
    }
    put_u64(out, ing.unmatched_samples);

    let mut dirty: Vec<SiteId> = ing.dirty.iter().map(|&s| ing.sites[s as usize].id).collect();
    dirty.sort_unstable();
    put_u64(out, dirty.len() as u64);
    for s in dirty {
        put_u64(out, s.0 as u64);
    }

    // Bandwidth bins.
    put_u64(out, ing.bins.len() as u64);
    for &b in &ing.bins {
        put_f64(out, b);
    }
    for counts in [&ing.bin_load, &ing.bin_store_miss] {
        put_u64(out, counts.len() as u64);
        for &c in counts {
            put_u64(out, c);
        }
    }
    put_u64(out, ing.pending_load);
    put_u64(out, ing.pending_store_miss);
}

/// The dense slot of a checkpointed site id; every site a checkpoint
/// names is in the header's stack table.
fn site_slot(ing: &StreamIngestor, raw: u64) -> Result<u32, TraceError> {
    let id = u32::try_from(raw).map_err(|_| corrupt("site id out of range"))?;
    ing.site_slots.get(&SiteId(id)).copied().ok_or_else(|| corrupt("site not in the stack table"))
}

/// The dense slot of a checkpointed object id (decoded objects only).
fn object_slot(ing: &StreamIngestor, raw: u64) -> Result<u32, TraceError> {
    ing.object_slots.get(&ObjectId(raw)).copied().ok_or_else(|| corrupt("unknown object id"))
}

/// Rebuilds the ingestor encoded by [`encode_ingestor`].
pub fn decode_ingestor(data: &[u8], pos: &mut usize) -> Result<StreamIngestor, TraceError> {
    let header = TraceFile::from_json(&get_str(data, pos)?)?;
    let meta = StreamMeta {
        app_name: header.app_name,
        sampling_hz: get_f64(data, pos)?,
        load_sample_period: get_f64(data, pos)?,
        store_sample_period: get_f64(data, pos)?,
        stacks: std::sync::Arc::new(header.stacks),
        binmap: std::sync::Arc::new(header.binmap),
    };
    let cfg = get_online_cfg(data, pos)?;
    let policy = get_policy(data, pos)?;
    let mut ing = StreamIngestor::new(meta, policy, cfg);

    let v = &mut ing.integrity;
    for _ in 0..checked_len(data, pos, 1)? {
        v.live.insert(ObjectId(get_u64(data, pos)?));
    }
    for _ in 0..checked_len(data, pos, 1)? {
        v.freed.insert(ObjectId(get_u64(data, pos)?));
    }
    v.last_t = get_f64(data, pos)?;
    v.seen = get_u64(data, pos)?;
    v.dropped = get_u64(data, pos)?;
    for _ in 0..checked_len(data, pos, 3)? {
        let idx = get_u64(data, pos)? as usize;
        let kind = *WARNING_KINDS.get(idx).ok_or_else(|| corrupt("warning kind out of range"))?;
        let n = get_u64(data, pos)?;
        let first = get_u64(data, pos)?;
        v.tallies.push((kind, n, first));
    }
    v.window = get_window(data, pos)?;

    for _ in 0..checked_len(data, pos, 9)? {
        let id = ObjectId(get_u64(data, pos)?);
        let acc = ObjAcc {
            id,
            site: site_slot(&ing, get_u64(data, pos)?)?,
            size: get_u64(data, pos)?,
            address: get_u64(data, pos)?,
            alloc_time: get_f64(data, pos)?,
            free_time: get_opt_f64(data, pos)?,
            load_samples: get_u64(data, pos)?,
            store_samples: get_u64(data, pos)?,
            store_l1d_miss_samples: get_u64(data, pos)?,
        };
        let slot = u32::try_from(ing.objects.len()).map_err(|_| corrupt("too many objects"))?;
        if ing.object_slots.insert(id, slot).is_some() {
            return Err(corrupt("object recorded twice"));
        }
        ing.objects.push(acc);
    }

    for _ in 0..checked_len(data, pos, 4)? {
        let slot = site_slot(&ing, get_u64(data, pos)?)?;
        let mut objects = Vec::new();
        for _ in 0..checked_len(data, pos, 1)? {
            objects.push(object_slot(&ing, get_u64(data, pos)?)?);
        }
        let all = &ing.objects;
        let acc = &mut ing.sites[slot as usize];
        acc.by_id = objects.windows(2).all(|w| all[w[0] as usize].id < all[w[1] as usize].id);
        acc.sweep = PeakSweep::of(all, &objects);
        acc.objects = objects;
        acc.present = true;
        acc.load_stat = get_decayed(data, pos)?;
        acc.store_stat = get_decayed(data, pos)?;
    }

    for _ in 0..checked_len(data, pos, 3)? {
        let start = get_u64(data, pos)?;
        let end = get_u64(data, pos)?;
        let slot = object_slot(&ing, get_u64(data, pos)?)?;
        ing.live.insert(start, end, slot);
    }
    for _ in 0..checked_len(data, pos, 4)? {
        let start = get_u64(data, pos)?;
        let end = get_u64(data, pos)?;
        let slot = object_slot(&ing, get_u64(data, pos)?)?;
        let free_time = get_f64(data, pos)?;
        ing.grace.push((start, end, slot, free_time));
    }
    ing.unmatched_samples = get_u64(data, pos)?;

    for _ in 0..checked_len(data, pos, 1)? {
        let slot = site_slot(&ing, get_u64(data, pos)?)?;
        let s = &mut ing.sites[slot as usize];
        if !s.dirty {
            s.dirty = true;
            ing.dirty.push(slot);
        }
    }

    for _ in 0..checked_len(data, pos, 1)? {
        ing.bins.push(get_f64(data, pos)?);
    }
    for _ in 0..checked_len(data, pos, 1)? {
        ing.bin_load.push(get_u64(data, pos)?);
    }
    for _ in 0..checked_len(data, pos, 1)? {
        ing.bin_store_miss.push(get_u64(data, pos)?);
    }
    ing.pending_load = get_u64(data, pos)?;
    ing.pending_store_miss = get_u64(data, pos)?;
    Ok(ing)
}

// ----------------------------------------------------------- the advisor

fn put_tier(out: &mut Vec<u8>, t: TierId) {
    put_u64(out, t.0 as u64);
}

fn get_tier(data: &[u8], pos: &mut usize) -> Result<TierId, TraceError> {
    Ok(TierId(get_u64(data, pos)? as u8))
}

fn put_site_profile(
    out: &mut Vec<u8>,
    p: &SiteProfile,
    load_misses_est: f64,
    store_misses_est: f64,
) {
    put_u64(out, p.site.0 as u64);
    put_u64(out, p.stack.frames().len() as u64);
    for f in p.stack.frames() {
        put_u64(out, f.module.0 as u64);
        put_u64(out, f.offset);
    }
    put_u64(out, p.alloc_count);
    put_u64(out, p.max_size);
    put_u64(out, p.total_bytes);
    put_u64(out, p.peak_live_bytes);
    put_f64(out, load_misses_est);
    put_f64(out, store_misses_est);
    put_bool(out, p.has_stores);
    put_f64(out, p.first_alloc);
    put_f64(out, p.last_free);
    put_f64(out, p.bw_at_alloc);
    put_f64(out, p.avg_bw);
    put_u64(out, p.objects.len() as u64);
    for o in &p.objects {
        put_u64(out, o.object.0);
        put_u64(out, o.size);
        put_f64(out, o.alloc_time);
        put_f64(out, o.free_time);
        put_u64(out, o.load_samples);
        put_u64(out, o.store_samples);
        put_u64(out, o.store_l1d_miss_samples);
        put_f64(out, o.bw_at_alloc);
    }
}

fn get_site_profile(data: &[u8], pos: &mut usize) -> Result<SiteProfile, TraceError> {
    let site = SiteId(get_u64(data, pos)? as u32);
    let mut frames = Vec::new();
    for _ in 0..checked_len(data, pos, 2)? {
        let module = memtrace::ModuleId(get_u64(data, pos)? as u16);
        let offset = get_u64(data, pos)?;
        frames.push(memtrace::Frame::new(module, offset));
    }
    let stack = memtrace::CallStack::new(frames);
    let alloc_count = get_u64(data, pos)?;
    let max_size = get_u64(data, pos)?;
    let total_bytes = get_u64(data, pos)?;
    let peak_live_bytes = get_u64(data, pos)?;
    let load_misses_est = get_f64(data, pos)?;
    let store_misses_est = get_f64(data, pos)?;
    let has_stores = get_bool(data, pos)?;
    let first_alloc = get_f64(data, pos)?;
    let last_free = get_f64(data, pos)?;
    let bw_at_alloc = get_f64(data, pos)?;
    let avg_bw = get_f64(data, pos)?;
    let mut objects = Vec::new();
    for _ in 0..checked_len(data, pos, 8)? {
        objects.push(ObjectLifetime {
            object: ObjectId(get_u64(data, pos)?),
            size: get_u64(data, pos)?,
            alloc_time: get_f64(data, pos)?,
            free_time: get_f64(data, pos)?,
            load_samples: get_u64(data, pos)?,
            store_samples: get_u64(data, pos)?,
            store_l1d_miss_samples: get_u64(data, pos)?,
            bw_at_alloc: get_f64(data, pos)?,
        });
    }
    Ok(SiteProfile {
        site,
        stack,
        alloc_count,
        max_size,
        total_bytes,
        peak_live_bytes,
        load_misses_est,
        store_misses_est,
        has_stores,
        first_alloc,
        last_free,
        bw_at_alloc,
        avg_bw,
        objects,
    })
}

fn put_assignment(out: &mut Vec<u8>, a: &Assignment) {
    let mut sites: Vec<SiteId> = a.tiers.keys().copied().collect();
    sites.sort();
    put_u64(out, sites.len() as u64);
    for s in sites {
        put_u64(out, s.0 as u64);
        put_tier(out, a.tiers[&s]);
    }
    put_tier(out, a.fallback);
    put_u64(out, a.charged.len() as u64);
    for &(tier, bytes) in &a.charged {
        put_tier(out, tier);
        put_u64(out, bytes);
    }
}

fn get_assignment(data: &[u8], pos: &mut usize) -> Result<Assignment, TraceError> {
    let mut tiers = std::collections::HashMap::new();
    for _ in 0..checked_len(data, pos, 2)? {
        let s = SiteId(get_u64(data, pos)? as u32);
        let t = get_tier(data, pos)?;
        tiers.insert(s, t);
    }
    let fallback = get_tier(data, pos)?;
    let mut charged = Vec::new();
    for _ in 0..checked_len(data, pos, 2)? {
        let t = get_tier(data, pos)?;
        let b = get_u64(data, pos)?;
        charged.push((t, b));
    }
    Ok(Assignment { tiers, fallback, charged })
}

/// Serializes an [`IncrementalAdvisor`] — configuration, cached site
/// profiles, the incumbent assignment, and epoch counters.
pub fn encode_advisor(adv: &IncrementalAdvisor, out: &mut Vec<u8>) {
    put_u64(out, adv.config.tiers.len() as u64);
    for t in &adv.config.tiers {
        put_tier(out, t.tier);
        put_u64(out, t.capacity);
        put_f64(out, t.load_coeff);
        put_f64(out, t.store_coeff);
    }
    put_tier(out, adv.config.fallback);
    out.push(match adv.algorithm {
        Algorithm::Base => 0,
        Algorithm::BandwidthAware => 1,
    });
    put_u64(out, adv.thresholds.t_alloc);
    put_f64(out, adv.thresholds.low_frac);
    put_f64(out, adv.thresholds.high_frac);
    put_f64(out, adv.hysteresis);
    put_u64(out, adv.epoch);
    put_u64(out, adv.rebuilt_sites);

    // The cached profiles, sorted by site, with their unboosted estimates.
    put_u64(out, adv.profile.sites.len() as u64);
    for (p, &(load, store)) in adv.profile.sites.iter().zip(&adv.estimates) {
        put_site_profile(out, p, load, store);
    }
    match &adv.assignment {
        Some(a) => {
            out.push(1);
            put_assignment(out, a);
        }
        None => out.push(0),
    }
}

/// Rebuilds the advisor encoded by [`encode_advisor`].
pub fn decode_advisor(data: &[u8], pos: &mut usize) -> Result<IncrementalAdvisor, TraceError> {
    let mut tiers = Vec::new();
    for _ in 0..checked_len(data, pos, 4)? {
        tiers.push(TierBudget {
            tier: get_tier(data, pos)?,
            capacity: get_u64(data, pos)?,
            load_coeff: get_f64(data, pos)?,
            store_coeff: get_f64(data, pos)?,
        });
    }
    let fallback = get_tier(data, pos)?;
    let config = AdvisorConfig { tiers, fallback };
    let algorithm = match get_u64(data, pos)? {
        0 => Algorithm::Base,
        1 => Algorithm::BandwidthAware,
        _ => return Err(corrupt("algorithm out of range")),
    };
    let thresholds = BwThresholds {
        t_alloc: get_u64(data, pos)?,
        low_frac: get_f64(data, pos)?,
        high_frac: get_f64(data, pos)?,
    };
    let hysteresis = get_f64(data, pos)?;
    let epoch = get_u64(data, pos)?;
    let rebuilt_sites = get_u64(data, pos)?;
    let mut cache = std::collections::BTreeMap::new();
    for _ in 0..checked_len(data, pos, 8)? {
        let p = get_site_profile(data, pos)?;
        cache.insert(p.site, p);
    }
    let assignment = if get_bool(data, pos)? { Some(get_assignment(data, pos)?) } else { None };
    let estimates = cache.values().map(|p| (p.load_misses_est, p.store_misses_est)).collect();
    Ok(IncrementalAdvisor {
        config,
        algorithm,
        thresholds,
        hysteresis,
        profile: ProfileSet {
            app_name: String::new(),
            duration: 0.0,
            sites: cache.into_values().collect(),
            bw_series: Vec::new(),
            peak_bw: 0.0,
            binmap: memtrace::BinaryMap::default(),
        },
        estimates,
        assignment,
        epoch,
        rebuilt_sites,
    })
}

// --------------------------------------------------------- revision log

/// Serializes the accumulated revision log.
pub fn encode_revisions(revs: &[PlacementRevision], out: &mut Vec<u8>) {
    put_u64(out, revs.len() as u64);
    for r in revs {
        put_u64(out, r.epoch);
        put_f64(out, r.time);
        put_u64(out, r.site.0 as u64);
        put_tier(out, r.from);
        put_tier(out, r.to);
    }
}

/// Decodes the revision log.
pub fn decode_revisions(
    data: &[u8],
    pos: &mut usize,
) -> Result<Vec<PlacementRevision>, TraceError> {
    let mut revs = Vec::new();
    for _ in 0..checked_len(data, pos, 5)? {
        revs.push(PlacementRevision {
            epoch: get_u64(data, pos)?,
            time: get_f64(data, pos)?,
            site: SiteId(get_u64(data, pos)? as u32),
            from: get_tier(data, pos)?,
            to: get_tier(data, pos)?,
        });
    }
    Ok(revs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{CallStack, Frame, ModuleId, TraceEvent};

    fn meta() -> StreamMeta {
        StreamMeta {
            app_name: "codec-test".into(),
            sampling_hz: 1000.0,
            load_sample_period: 7.0,
            store_sample_period: 3.0,
            stacks: std::sync::Arc::new(vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x20)])),
            ]),
            binmap: std::sync::Arc::new(memtrace::BinaryMap::default()),
        }
    }

    fn busy_ingestor(policy: DegradationPolicy) -> StreamIngestor {
        let cfg = OnlineConfig { window: Some(2.0), ..OnlineConfig::default() };
        let mut ing = StreamIngestor::new(meta(), policy, cfg);
        let events = vec![
            TraceEvent::Alloc {
                time: 0.1 + 0.2, // deliberately non-representable sum
                object: ObjectId(1),
                site: SiteId(0),
                size: 4096,
                address: 0x1000,
            },
            TraceEvent::LoadMissSample {
                time: 1.0 / 3.0,
                address: 0x1100,
                latency_cycles: 333.0,
                function: memtrace::FuncId(0),
            },
            TraceEvent::PhaseMarker { time: 0.5, phase: 0 },
            TraceEvent::Alloc {
                time: 0.75,
                object: ObjectId(2),
                site: SiteId(1),
                size: 64,
                address: 0x9000,
            },
            TraceEvent::StoreSample {
                time: 0.8,
                address: 0x9010,
                l1d_miss: true,
                function: memtrace::FuncId(1),
            },
            TraceEvent::Free { time: 0.9, object: ObjectId(1) },
        ];
        for e in events {
            ing.push(e).unwrap();
        }
        if policy != DegradationPolicy::Strict {
            // Exercise the drop bookkeeping too.
            ing.push(TraceEvent::Free { time: 0.95, object: ObjectId(77) }).unwrap();
            ing.push(TraceEvent::PhaseMarker { time: f64::NAN, phase: 1 }).unwrap();
        }
        ing
    }

    #[test]
    fn ingestor_round_trips_to_an_identical_snapshot() {
        for policy in [DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
            let original = busy_ingestor(policy);
            let mut buf = Vec::new();
            encode_ingestor(&original, &mut buf);
            let mut pos = 0;
            let mut restored = decode_ingestor(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len(), "decoder consumed the whole payload");
            assert_eq!(original.snapshot(2.0), restored.snapshot(2.0));
            assert_eq!(original.events_seen(), restored.events_seen());
            assert_eq!(original.dropped(), restored.dropped());
            assert_eq!(original.dropped_window(), restored.dropped_window());
            assert_eq!(original.warnings(), restored.warnings());
            // Dirty-set state survives: both drain the same pending sites.
            let mut a = original;
            assert_eq!(a.take_dirty(), restored.take_dirty());
        }
    }

    #[test]
    fn restored_ingestor_continues_identically() {
        let mut original = busy_ingestor(DegradationPolicy::Strict);
        let mut buf = Vec::new();
        encode_ingestor(&original, &mut buf);
        let mut pos = 0;
        let mut restored = decode_ingestor(&buf, &mut pos).unwrap();
        // Feed both the same suffix; the profiles must stay identical —
        // including the grace-list window behavior around the free at 0.9.
        let suffix = vec![
            TraceEvent::LoadMissSample {
                time: 0.9,
                address: 0x1200,
                latency_cycles: 100.0,
                function: memtrace::FuncId(0),
            },
            TraceEvent::PhaseMarker { time: 1.0, phase: 1 },
        ];
        for e in suffix {
            original.push(e.clone()).unwrap();
            restored.push(e).unwrap();
        }
        assert_eq!(original.snapshot(2.0), restored.snapshot(2.0));
    }

    #[test]
    fn advisor_round_trips_with_assignment_and_cache() {
        let mut ing = busy_ingestor(DegradationPolicy::Strict);
        let mut adv = IncrementalAdvisor::new(AdvisorConfig::loads_only(12), Algorithm::Base)
            .with_hysteresis(0.25);
        let revs = adv.tick(&mut ing, 1.0);
        let mut buf = Vec::new();
        encode_advisor(&adv, &mut buf);
        let mut pos = 0;
        let restored = decode_advisor(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(restored.epochs(), adv.epochs());
        assert_eq!(restored.rebuilt_sites(), adv.rebuilt_sites());
        assert_eq!(
            restored.assignment().map(|a| a.tiers.len()),
            adv.assignment().map(|a| a.tiers.len())
        );
        for (s, _) in meta().stacks.iter() {
            assert_eq!(restored.tier_of(*s), adv.tier_of(*s));
        }
        // Revisions codec.
        let mut rbuf = Vec::new();
        encode_revisions(&revs, &mut rbuf);
        let mut rpos = 0;
        assert_eq!(decode_revisions(&rbuf, &mut rpos).unwrap(), revs);
    }

    #[test]
    fn truncated_payloads_fail_without_panicking() {
        let ing = busy_ingestor(DegradationPolicy::BestEffort);
        let mut buf = Vec::new();
        encode_ingestor(&ing, &mut buf);
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            let mut pos = 0;
            assert!(decode_ingestor(&buf[..cut], &mut pos).is_err(), "cut at {cut}");
        }
    }
}
