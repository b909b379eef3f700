//! Seeded arrival churn for fleet tenants.
//!
//! Arrival times are drawn from a splitmix64 stream keyed by `(seed, node,
//! canonical tenant index)`. The canonical index is the tenant's position
//! in the node's name-sorted resident list, *not* its insertion position,
//! so shuffling the input `Vec<TenantSpec>` cannot change anyone's arrival
//! time — the invariance the order-invariance proptests pin down. The same
//! seed therefore always produces the same churn schedule and the same
//! simulation tables, byte for byte.

use crate::stablehash::{Hasher, StableHash};
use memtrace::rng::SplitMix64;

/// Churn configuration: when tenants show up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Seed for the arrival stream. Same seed ⇒ same schedule.
    pub seed: u64,
    /// Arrivals are spread uniformly over `[0, arrival_spread_s)` seconds.
    /// `0.0` makes every tenant arrive at t = 0 (no churn).
    pub arrival_spread_s: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { seed: 0xEC0, arrival_spread_s: 0.0 }
    }
}

impl StableHash for ChurnConfig {
    fn hash_into(&self, h: &mut Hasher) {
        let ChurnConfig { seed, arrival_spread_s } = self;
        h.tag_struct();
        seed.hash_into(h);
        arrival_spread_s.hash_into(h);
    }
}

/// Uniform `[0, 1)` draw keyed by `(seed, node, canonical index)`: the
/// first draw of a splitmix64 stream seeded from the key.
fn unit(seed: u64, node: u32, canonical_idx: u64) -> f64 {
    let node_key = SplitMix64::new(node as u64 ^ 0xA5A5).next_u64();
    SplitMix64::new(seed ^ node_key.wrapping_add(canonical_idx << 1)).next_f64()
}

impl ChurnConfig {
    /// Arrival time (seconds) of a node's `canonical_idx`-th tenant.
    pub fn arrival(&self, node: u32, canonical_idx: u64) -> f64 {
        if self.arrival_spread_s <= 0.0 {
            return 0.0;
        }
        unit(self.seed, node, canonical_idx) * self.arrival_spread_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let c = ChurnConfig { seed: 7, arrival_spread_s: 10.0 };
        for node in 0..4 {
            for i in 0..8 {
                assert_eq!(c.arrival(node, i), c.arrival(node, i));
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ChurnConfig { seed: 1, arrival_spread_s: 10.0 };
        let b = ChurnConfig { seed: 2, arrival_spread_s: 10.0 };
        let diverged = (0..16).any(|i| a.arrival(0, i) != b.arrival(0, i));
        assert!(diverged);
    }

    #[test]
    fn zero_spread_means_no_churn() {
        let c = ChurnConfig { seed: 9, arrival_spread_s: 0.0 };
        assert_eq!(c.arrival(3, 5), 0.0);
    }

    #[test]
    fn arrivals_stay_in_range() {
        let c = ChurnConfig { seed: 42, arrival_spread_s: 30.0 };
        for node in 0..8 {
            for i in 0..32 {
                let t = c.arrival(node, i);
                assert!((0.0..30.0).contains(&t), "arrival {t} out of range");
            }
        }
    }
}
