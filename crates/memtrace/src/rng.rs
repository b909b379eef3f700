//! splitmix64: the workspace's one seeded noise stream.
//!
//! A 64-bit counter advanced by the golden-ratio increment and passed
//! through a full-avalanche finalizer ([`mix`]). Statistically strong for
//! what it drives here (sampling noise, timestamp jitter, fault sites,
//! shuffles and arrival times), an order of magnitude cheaper per draw
//! than a cryptographic generator, and seedable from any `u64` — so a
//! stream can be keyed by a run seed and an object or node id. Every
//! stream in the workspace is pinned by goldens; the output sequence of a
//! seed must never change.

/// The counter increment: 2⁶⁴ divided by the golden ratio, odd.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective full-avalanche mix of one word.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` by multiply-shift (`n` ≥ 1). The modulo bias is
    /// ~2⁻⁶⁴ per draw — far below the sampling noise being modeled.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_gives_the_reference_outputs() {
        // The published splitmix64 sequence for seed 0.
        let mut rng = SplitMix64::new(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
        assert_eq!(mix(GOLDEN), 0xe220_a839_7b1d_cdaf, "the first output is the mixed increment");
    }

    #[test]
    fn draws_are_uniform_enough() {
        let mut rng = SplitMix64::new(42);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let below = (0..n).filter(|_| rng.below(10) < 5).count();
        assert!((below as f64 / n as f64 - 0.5).abs() < 0.01);
    }
}
