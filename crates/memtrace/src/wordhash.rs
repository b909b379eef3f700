//! The workspace's one content-hashing primitive.
//!
//! [`WordHasher`] digests a stream of 64-bit words. It backs the binary
//! map's content digest ([`crate::BinaryMap::digest`]) and memsim's
//! structural run-cache keys. Not cryptographic: it only has to separate
//! the handful of distinct models and machines one process keys runs by.

use crate::rng::{mix, GOLDEN};

const LANES: usize = 4;

/// Multiply-mix word hasher, eight bytes per multiply. Words are dealt
/// round-robin over four independent lanes, so consecutive words do not
/// wait on each other's multiply; [`Self::finish`] folds the lanes and
/// the word count together through the splitmix64 finalizer.
#[derive(Debug, Clone)]
pub struct WordHasher {
    lanes: [u64; LANES],
    words: u64,
}

impl Default for WordHasher {
    fn default() -> Self {
        // Distinct nonzero seeds: a zero word still moves its lane, and
        // equal words in different lanes mix differently.
        WordHasher {
            lanes: [
                0x243f_6a88_85a3_08d3,
                0x1319_8a2e_0370_7344,
                0xa409_3822_299f_31d0,
                0x082e_fa98_ec4e_6c89,
            ],
            words: 0,
        }
    }
}

impl WordHasher {
    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[self.words as usize % LANES];
        *lane = (*lane ^ w).wrapping_mul(GOLDEN);
        *lane ^= *lane >> 29;
        self.words += 1;
    }

    /// Feeds a byte string: its length, then its bytes as little-endian
    /// words, the last one zero-padded.
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("exact chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(tail));
        }
    }

    /// The digest of every word fed so far.
    pub fn finish(self) -> u64 {
        // Fold the lanes in order (the fold is order-sensitive, so words
        // swapped between lanes change the hash), then avalanche so
        // low-entropy inputs still spread over all 64 output bits.
        let mut z = self.words;
        for lane in self.lanes {
            z = (z ^ lane).wrapping_mul(GOLDEN);
            z ^= z >> 29;
        }
        mix(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(words: &[u64]) -> u64 {
        let mut h = WordHasher::default();
        for &w in words {
            h.word(w);
        }
        h.finish()
    }

    #[test]
    fn every_lane_position_matters() {
        // Words swapped between neighbouring lanes, or a zero word fed to
        // a lane, must still change the hash.
        for len in 2..12u64 {
            let base: Vec<u64> = (0..len).map(|i| i * 0x1234_5678 + 7).collect();
            for i in 0..base.len() - 1 {
                let mut swapped = base.clone();
                swapped.swap(i, i + 1);
                assert_ne!(feed(&base), feed(&swapped), "len {len}, swap at {i}");
            }
            let mut zeros = base.clone();
            zeros.push(0);
            assert_ne!(feed(&base), feed(&zeros), "len {len}, trailing zero word");
        }
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let hash = |parts: &[&[u8]]| {
            let mut h = WordHasher::default();
            for p in parts {
                h.bytes(p);
            }
            h.finish()
        };
        assert_ne!(hash(&[b"ab", b"c"]), hash(&[b"a", b"bc"]));
        assert_ne!(hash(&[b"a"]), hash(&[b"a\0"]));
        assert_eq!(hash(&[b"0123456789"]), hash(&[b"0123456789"]));
    }
}
