//! A fast, deterministic hasher for maps keyed by internal sequential ids.
//!
//! The engine keeps several maps keyed by dense counters it hands out
//! itself: operation instances, hop tokens, sessions and queue job tokens.
//! Most are looked up once or more per routed hop, where std's SipHash
//! costs more than the rest of the lookup. [`IdHasher`] hashes one integer
//! word with a single folded 64×64→128-bit multiply instead.
//!
//! The fold (low half XOR high half of the product) makes the low bits of
//! the hash depend on every bit of the key. A plain multiply would not:
//! its low `k` bits depend only on the key's low `k` bits, so ids with a
//! common low part (say `i << 32`, which a crafted checkpoint could hold)
//! would all fall into one bucket of a power-of-two table.
//!
//! The hasher is not keyed, so it gives no protection against keys
//! chosen to collide after hashing. Maps keyed by user-supplied names
//! keep std's randomly seeded SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2⁶⁴ divided by the golden ratio.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folded-multiply hasher for integer keys. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(MUL);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// A `HashMap` keyed by internal integer ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of internal integer ids, hashed with [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // Keys that differ only above bit 32 must still fill most of a
        // 4096-bucket table; uniform hashing would reach 1 - 1/e ≈ 63%.
        let buckets: IdSet<u64> = (0..4096u64).map(|i| hash(i << 32) & 0xfff).collect();
        assert!(
            buckets.len() > 2400,
            "only {} of 4096 low-12-bit values hit",
            buckets.len()
        );
    }

    #[test]
    fn sequential_keys_do_not_collide() {
        let hashes: IdSet<u64> = (0..100_000u64).map(hash).collect();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn byte_path_matches_the_word_path() {
        let mut word = IdHasher::default();
        word.write_u64(0x0123_4567_89ab_cdef);
        let mut bytes = IdHasher::default();
        bytes.write(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
        assert_eq!(word.finish(), bytes.finish());
    }
}
