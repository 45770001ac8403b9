//! A small deterministic hasher for hot-path tables keyed by integers.
//!
//! The standard library's `HashMap` defaults to SipHash with a random
//! per-process key: collision-resistant against hostile keys, but a
//! dozen rounds per lookup and an iteration order that changes from run
//! to run. The simulator's hot tables (page tables, the TLB index,
//! message reference counts) are keyed by small integers the simulator
//! itself mints, so neither property earns its cost there. [`FxHasher`]
//! is the rotate-xor-multiply word hash popularised by the Rust
//! compiler: one multiply per word, no key, the same order on every run.
//!
//! # Examples
//!
//! ```
//! use fbuf_sim::fxhash::FxHashMap;
//!
//! let mut pages: FxHashMap<(u32, u64), u32> = FxHashMap::default();
//! pages.insert((1, 0x40), 7);
//! assert_eq!(pages.get(&(1, 0x40)), Some(&7));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Firefox word hash that the Rust compiler's
/// `FxHasher` adopted: odd, with well-mixed high bits.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time multiplicative hasher. Not collision-resistant: use
/// it only for keys the simulator chooses, never for tenant-chosen keys
/// that could be aimed at one bucket.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every one starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash_of((3u32, 9u64)), hash_of((3u32, 9u64)));
        let hashes: HashSet<u64> = (0..4096u64).map(|v| hash_of((1u32, v))).collect();
        assert_eq!(hashes.len(), 4096);
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        // A trailing partial word still reaches the hash.
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
        assert_ne!(hash_of("abc"), hash_of("abd"));
    }

    #[test]
    fn map_iteration_order_is_the_same_every_time() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for k in [90u64, 3, 77, 12, 5, 1 << 40] {
                m.insert(k, k * 2);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
