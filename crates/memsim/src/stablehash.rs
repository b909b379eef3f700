//! Structural content hashing for engine-cache keys.
//!
//! [`stable_hash`] drives [`crate::runner::RunKey`]: the cache must re-run
//! the engine whenever *any* model field changes, so the hash has to cover
//! the full `AppModel`/`MachineConfig` content. The original
//! implementation canonicalized through the `Debug` rendering, which is
//! correct but costs milliseconds per lookup on the large models —
//! shortest-round-trip float formatting over a multi-megabyte string, paid
//! on cache *hits* too. [`StableHash`] walks the same structure directly:
//! every primitive feeds the hash state as machine words (floats as raw
//! bits, strings as bytes), and nothing is ever formatted. Walking every
//! field still cost 0.04 ms (phaseshift) to 1.3 ms (LAMMPS) per shipped
//! `AppModel`, and 5.4 ms for OpenFOAM, and the binary map's line tables
//! were over 90% of it. So the map is not walked here (see below): a
//! model's first hash now costs 0.01–1.8 ms, mostly its image's one-time
//! digest, and every later hash of it or of a clone 0.002–0.04 ms
//! (medians of 20, release build, 2-vCPU Xeon container). A
//! `MachineConfig` takes under a microsecond. Callers that key many runs
//! of one model hash it once and pass the digest to
//! [`crate::runner::RunKey::from_app_hash`].
//!
//! Field coverage is enforced mechanically: every struct impl begins with
//! an exhaustive destructuring pattern, so adding a field to a hashed
//! model type fails compilation here until the new field joins the hash.
//! The two exceptions keep their fields private. [`CallStack`]'s total
//! accessor `frames()` returns its entire state by construction. A
//! [`BinaryMap`] feeds one word, its [`BinaryMap::digest`]: a content
//! digest memtrace computes at most once per image and shares with every
//! clone (and so with every `workloads::scale_model` output). That digest
//! destructures `ModuleInfo` and `LineEntry` exhaustively under the same
//! rule, and two maps with equal content have equal digests, so a decoded
//! image keys like the built one.

use crate::cache::CacheModelCfg;
use crate::curve::LatencyCurve;
use crate::machine::MachineConfig;
use crate::model::{AccessPattern, AccessSpec, AllocOp, AppModel, FreeOp, PhaseSpec};
use crate::tier::{TierKind, TierSpec};
use memtrace::wordhash::WordHasher;
use memtrace::{BinaryMap, CallStack, Frame, FuncId, ModuleId, SiteId, TierId};

/// Stable content hash of a value, used to derive cache keys.
///
/// Deterministic within a process and across runs — everything an
/// in-process cache needs. Collisions only cost a wrong table cell, and
/// 64 bits over dozens of keys makes that vanishingly unlikely.
pub fn stable_hash<T: StableHash + ?Sized>(value: &T) -> u64 {
    let mut h = Hasher::default();
    value.hash_into(&mut h);
    h.finish()
}

/// Feeds a value's full content into a [`Hasher`]. Implementations must
/// cover every field — see the module docs for how that is enforced.
pub trait StableHash {
    fn hash_into(&self, h: &mut Hasher);
}

/// Domain tags keep differently-typed values with equal bit patterns from
/// colliding (e.g. the empty string vs the empty sequence).
const TAG_UINT: u64 = 1;
const TAG_FLOAT: u64 = 2;
const TAG_STR: u64 = 3;
const TAG_NONE: u64 = 4;
const TAG_SOME: u64 = 5;
const TAG_VARIANT: u64 = 6;
const TAG_SEQ: u64 = 7;
const TAG_STRUCT: u64 = 8;

/// The hash state: memtrace's [`WordHasher`] behind the domain tags.
#[derive(Default)]
pub struct Hasher(WordHasher);

impl Hasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0.word(w);
    }

    /// Feeds the struct shape tag. External `StableHash` impls (e.g. the
    /// fleet configuration types) call this before hashing their fields so
    /// they mix exactly like the in-module `hash_fields!` expansions.
    pub fn tag_struct(&mut self) {
        self.word(TAG_STRUCT);
    }

    /// Feeds an enum variant tag with its ordinal.
    pub fn tag_variant(&mut self, ordinal: u64) {
        self.word(TAG_VARIANT);
        self.word(ordinal);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.0.bytes(b);
    }

    fn finish(self) -> u64 {
        self.0.finish()
    }
}

macro_rules! hash_as_uint {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn hash_into(&self, h: &mut Hasher) {
                h.word(TAG_UINT);
                h.word(*self as u64);
            }
        }
    )*};
}

hash_as_uint!(u8, u16, u32, u64, usize, bool);

impl StableHash for f64 {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_FLOAT);
        h.word(self.to_bits());
    }
}

impl StableHash for str {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_STR);
        h.bytes(self.as_bytes());
    }
}

impl StableHash for String {
    fn hash_into(&self, h: &mut Hasher) {
        self.as_str().hash_into(h);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_SEQ);
        h.word(self.len() as u64);
        for item in self {
            item.hash_into(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn hash_into(&self, h: &mut Hasher) {
        self.as_slice().hash_into(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn hash_into(&self, h: &mut Hasher) {
        match self {
            None => h.word(TAG_NONE),
            Some(v) => {
                h.word(TAG_SOME);
                v.hash_into(h);
            }
        }
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_SEQ);
        h.word(2);
        self.0.hash_into(h);
        self.1.hash_into(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_SEQ);
        h.word(3);
        self.0.hash_into(h);
        self.1.hash_into(h);
        self.2.hash_into(h);
    }
}

macro_rules! hash_id_newtype {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn hash_into(&self, h: &mut Hasher) {
                self.0.hash_into(h);
            }
        }
    )*};
}

hash_id_newtype!(SiteId, FuncId, ModuleId, TierId);

/// Hashes a struct: a shape tag, then every field in declaration order.
/// The field list comes from an exhaustive destructuring at the call site,
/// which is what makes forgetting a field a compile error.
macro_rules! hash_fields {
    ($h:ident, $($f:ident),+) => {{
        $h.word(TAG_STRUCT);
        $($f.hash_into($h);)+
    }};
}

impl StableHash for AppModel {
    fn hash_into(&self, h: &mut Hasher) {
        let AppModel {
            name,
            ranks,
            threads_per_rank,
            input_desc,
            sites,
            binmap,
            function_names,
            phases,
        } = self;
        hash_fields!(
            h,
            name,
            ranks,
            threads_per_rank,
            input_desc,
            sites,
            binmap,
            function_names,
            phases
        );
    }
}

impl StableHash for PhaseSpec {
    fn hash_into(&self, h: &mut Hasher) {
        let PhaseSpec { label, compute_instructions, allocs, frees, accesses } = self;
        hash_fields!(h, label, compute_instructions, allocs, frees, accesses);
    }
}

impl StableHash for AllocOp {
    fn hash_into(&self, h: &mut Hasher) {
        let AllocOp { site, size, count } = self;
        hash_fields!(h, site, size, count);
    }
}

impl StableHash for FreeOp {
    fn hash_into(&self, h: &mut Hasher) {
        let FreeOp { site, count } = self;
        hash_fields!(h, site, count);
    }
}

impl StableHash for AccessSpec {
    fn hash_into(&self, h: &mut Hasher) {
        let AccessSpec {
            site,
            function,
            loads,
            stores,
            llc_miss_rate,
            store_l1d_miss_rate,
            pattern,
            instructions,
            reuse_hint,
        } = self;
        hash_fields!(
            h,
            site,
            function,
            loads,
            stores,
            llc_miss_rate,
            store_l1d_miss_rate,
            pattern,
            instructions,
            reuse_hint
        );
    }
}

impl StableHash for AccessPattern {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_VARIANT);
        h.word(match self {
            AccessPattern::Sequential => 0,
            AccessPattern::Strided => 1,
            AccessPattern::Random => 2,
        });
    }
}

impl StableHash for MachineConfig {
    fn hash_into(&self, h: &mut Hasher) {
        let MachineConfig {
            name,
            tiers,
            cores,
            freq_ghz,
            base_ipc,
            cacheline,
            mlp_per_core,
            cache_cfg,
        } = self;
        hash_fields!(h, name, tiers, cores, freq_ghz, base_ipc, cacheline, mlp_per_core, cache_cfg);
    }
}

impl StableHash for TierSpec {
    fn hash_into(&self, h: &mut Hasher) {
        let TierSpec {
            id,
            name,
            kind,
            capacity,
            peak_read_bw,
            peak_write_bw,
            read_curve,
            write_curve,
            amp_strided,
            amp_random,
        } = self;
        hash_fields!(
            h,
            id,
            name,
            kind,
            capacity,
            peak_read_bw,
            peak_write_bw,
            read_curve,
            write_curve,
            amp_strided,
            amp_random
        );
    }
}

impl StableHash for TierKind {
    fn hash_into(&self, h: &mut Hasher) {
        h.word(TAG_VARIANT);
        h.word(match self {
            TierKind::Dram => 0,
            TierKind::Pmem => 1,
            TierKind::Hbm => 2,
            TierKind::Cxl => 3,
        });
    }
}

impl StableHash for LatencyCurve {
    fn hash_into(&self, h: &mut Hasher) {
        let LatencyCurve { base_ns, span_ns, alpha } = self;
        hash_fields!(h, base_ns, span_ns, alpha);
    }
}

impl StableHash for CacheModelCfg {
    fn hash_into(&self, h: &mut Hasher) {
        let CacheModelCfg { effective_fraction } = self;
        hash_fields!(h, effective_fraction);
    }
}

impl StableHash for Frame {
    fn hash_into(&self, h: &mut Hasher) {
        let Frame { module, offset } = self;
        hash_fields!(h, module, offset);
    }
}

impl StableHash for CallStack {
    fn hash_into(&self, h: &mut Hasher) {
        // `frames()` is the stack's entire state.
        self.frames().hash_into(h);
    }
}

impl StableHash for BinaryMap {
    fn hash_into(&self, h: &mut Hasher) {
        // The image's content digest, computed once per shared image (see
        // the module docs).
        h.word(self.digest());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinguishes_values_and_repeats() {
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        assert_ne!(stable_hash(&42u64), stable_hash(&43u64));
        assert_ne!(stable_hash(&1.0f64), stable_hash(&1u64));
        assert_ne!(stable_hash(&Some(0u64)), stable_hash(&0u64));
        assert_ne!(stable_hash(""), stable_hash(&Vec::<u64>::new()));
    }

    #[test]
    fn float_bit_patterns_matter() {
        assert_ne!(stable_hash(&0.0f64), stable_hash(&-0.0f64));
        assert_ne!(stable_hash(&1.0f64), stable_hash(&1.0000000000000002f64));
    }

    #[test]
    fn sequences_hash_by_content_and_shape() {
        assert_eq!(stable_hash(&vec![1u64, 2]), stable_hash(&vec![1u64, 2]));
        assert_ne!(stable_hash(&vec![1u64, 2]), stable_hash(&vec![2u64, 1]));
        assert_ne!(stable_hash(&vec![vec![1u64], vec![]]), stable_hash(&vec![vec![], vec![1u64]]));
    }

    #[test]
    fn model_edits_change_the_hash() {
        let a = MachineConfig::optane_pmem6();
        let mut b = a.clone();
        assert_eq!(stable_hash(&a), stable_hash(&b));
        b.tiers[1].peak_read_bw += 1.0;
        assert_ne!(stable_hash(&a), stable_hash(&b));
    }
}
