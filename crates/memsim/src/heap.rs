//! Per-tier heap managers.
//!
//! FlexMalloc sits on top of one heap manager per memory subsystem (memkind
//! for PMem, POSIX malloc for DRAM on the paper's machine). The simulator
//! equivalent carves each tier a disjoint virtual address range and serves
//! allocations from a bump pointer with an exact-size free list — HPC codes
//! allocate the same sizes repeatedly, so exact-size reuse keeps the model
//! simple without leaking capacity across iterations.

use memtrace::TierId;
use std::collections::BTreeMap;

/// A heap manager bound to one memory tier.
#[derive(Debug, Clone)]
pub struct TierHeap {
    tier: TierId,
    base: u64,
    capacity: u64,
    cursor: u64,
    used: u64,
    peak: u64,
    /// Exact-size free lists: size → addresses available for reuse.
    free: BTreeMap<u64, Vec<u64>>,
    failed_allocs: u64,
    /// Allocations served by [`Self::force_alloc`].
    forced_allocs: u64,
}

impl TierHeap {
    /// Each tier owns a disjoint 16 TiB-aligned slice of the address space,
    /// so an address uniquely identifies its tier (as NUMA-mapped physical
    /// ranges do on the real machine). Trace consumers rely on this layout
    /// to bound address-interval searches; the analyzer-side mirror is
    /// `memtrace::columns::SAME_TIER_SPAN` (pinned by a test below).
    pub const TIER_STRIDE: u64 = 1 << 44;
    const ALIGN: u64 = 64;

    /// Creates the heap for a tier with the given usable capacity.
    pub fn new(tier: TierId, capacity: u64) -> Self {
        TierHeap {
            tier,
            base: (tier.0 as u64 + 1) * Self::TIER_STRIDE,
            capacity,
            cursor: 0,
            used: 0,
            peak: 0,
            free: BTreeMap::new(),
            failed_allocs: 0,
            forced_allocs: 0,
        }
    }

    /// The tier this heap serves.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Which tier an address belongs to, by the address-carving convention.
    pub fn tier_of_address(address: u64) -> Option<TierId> {
        let idx = address / Self::TIER_STRIDE;
        if idx == 0 || idx > u8::MAX as u64 {
            None
        } else {
            Some(TierId((idx - 1) as u8))
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever allocated.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Remaining bytes.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of allocations rejected for lack of space.
    pub fn failed_allocs(&self) -> u64 {
        self.failed_allocs
    }

    /// Number of allocations served by [`Self::force_alloc`].
    pub(crate) fn forced_allocs(&self) -> u64 {
        self.forced_allocs
    }

    /// The heap invariant: `used` never exceeds the capacity unless a
    /// forced allocation overcommitted it.
    fn within_capacity(&self) -> bool {
        self.used <= self.capacity || self.forced_allocs > 0
    }

    /// Shrinks the usable capacity (e.g. debug-info footprint in HR mode,
    /// or kernel page-metadata in the tiering baseline). Saturates at the
    /// currently-used size.
    pub fn reserve(&mut self, bytes: u64) {
        self.capacity = self.capacity.saturating_sub(bytes).max(self.used);
        debug_assert!(self.within_capacity(), "reserve overcommitted the heap");
    }

    /// Allocates `size` bytes; returns the address, or `None` when the tier
    /// is out of space (the caller falls back to another tier, as
    /// FlexMalloc does).
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        assert!(size > 0, "zero-size allocation");
        let size = size.div_ceil(Self::ALIGN) * Self::ALIGN;
        if self.used + size > self.capacity {
            self.failed_allocs += 1;
            return None;
        }
        let addr = if let Some(list) = self.free.get_mut(&size) {
            let a = list.pop().expect("free lists are never left empty");
            if list.is_empty() {
                self.free.remove(&size);
            }
            a
        } else {
            let a = self.base + self.cursor;
            self.cursor += size;
            a
        };
        self.used += size;
        self.peak = self.peak.max(self.used);
        debug_assert!(self.within_capacity(), "alloc overcommitted the heap");
        Some(addr)
    }

    /// Allocates ignoring the capacity limit. Used only as a last resort by
    /// the engine when *every* tier is full (the paper's configurations
    /// never hit this; the engine counts such events as `oom_events`).
    pub fn force_alloc(&mut self, size: u64) -> u64 {
        assert!(size > 0, "zero-size allocation");
        let size = size.div_ceil(Self::ALIGN) * Self::ALIGN;
        let addr = self.base + self.cursor;
        self.cursor += size;
        self.used += size;
        self.peak = self.peak.max(self.used);
        self.forced_allocs += 1;
        addr
    }

    /// Frees a block previously returned by [`Self::alloc`] with the same
    /// size.
    pub fn free(&mut self, address: u64, size: u64) {
        assert!(size > 0);
        let size = size.div_ceil(Self::ALIGN) * Self::ALIGN;
        debug_assert!(
            address >= self.base && address < self.base + self.cursor,
            "freeing an address this heap never produced"
        );
        self.used -= size;
        self.free.entry(size).or_default().push(address);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_stride_matches_the_trace_side_constant() {
        // The analyzer bounds its same-tier interval scan with a mirror of
        // this layout constant; the two must never drift apart.
        assert_eq!(TierHeap::TIER_STRIDE, memtrace::columns::SAME_TIER_SPAN);
    }

    #[test]
    fn alloc_free_reuse() {
        let mut h = TierHeap::new(TierId::DRAM, 1 << 20);
        let a = h.alloc(1000).unwrap();
        assert_eq!(h.used(), 1024); // aligned
        h.free(a, 1000);
        assert_eq!(h.used(), 0);
        let b = h.alloc(1000).unwrap();
        assert_eq!(a, b, "exact-size free list reuses the block");
    }

    #[test]
    fn capacity_enforced_and_fallback_signalled() {
        let mut h = TierHeap::new(TierId::DRAM, 4096);
        assert!(h.alloc(4096).is_some());
        assert!(h.alloc(1).is_none());
        assert_eq!(h.failed_allocs(), 1);
    }

    #[test]
    fn addresses_identify_tier() {
        let mut d = TierHeap::new(TierId::DRAM, 1 << 20);
        let mut p = TierHeap::new(TierId::PMEM, 1 << 20);
        let a = d.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        assert_eq!(TierHeap::tier_of_address(a), Some(TierId::DRAM));
        assert_eq!(TierHeap::tier_of_address(b), Some(TierId::PMEM));
        assert_eq!(TierHeap::tier_of_address(0x10), None);
    }

    #[test]
    fn distinct_live_blocks_never_overlap() {
        let mut h = TierHeap::new(TierId::PMEM, 1 << 20);
        let mut blocks = Vec::new();
        for i in 1..50u64 {
            let size = i * 96 % 2048 + 1;
            if let Some(a) = h.alloc(size) {
                blocks.push((a, size.div_ceil(64) * 64));
            }
        }
        for (i, &(a1, s1)) in blocks.iter().enumerate() {
            for &(a2, s2) in &blocks[i + 1..] {
                assert!(a1 + s1 <= a2 || a2 + s2 <= a1, "blocks overlap");
            }
        }
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut h = TierHeap::new(TierId::DRAM, 1 << 20);
        let a = h.alloc(4096).unwrap();
        h.alloc(4096).unwrap();
        h.free(a, 4096);
        h.alloc(64).unwrap();
        assert_eq!(h.peak(), 8192);
    }

    #[test]
    fn reserve_shrinks_capacity_but_not_below_used() {
        let mut h = TierHeap::new(TierId::DRAM, 8192);
        h.alloc(4096).unwrap();
        h.reserve(1 << 30);
        assert_eq!(h.capacity(), 4096);
        assert!(h.alloc(64).is_none());
    }

    #[test]
    fn only_forced_allocations_overcommit() {
        let mut h = TierHeap::new(TierId::PMEM, 4096);
        h.alloc(4096).unwrap();
        assert_eq!(h.forced_allocs(), 0);
        h.force_alloc(64);
        assert_eq!(h.forced_allocs(), 1);
        assert!(h.used() > h.capacity());
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_alloc_panics() {
        TierHeap::new(TierId::DRAM, 1 << 20).alloc(0);
    }
}
