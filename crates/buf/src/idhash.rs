//! A fixed, seedless hasher for maps keyed by kernel-assigned ids.
//!
//! `std`'s default `RandomState` hashes with keyed SipHash: a fresh seed
//! per map, about 20 ns per small key, and an iteration order that
//! differs between two maps built by the same operations. Kernel maps
//! keyed by ids the kernel hands out itself (file ids, connection ids,
//! chunk ids, cache keys) need none of that. A peer cannot choose those
//! keys, so there is no collision attack to defend against, and a
//! seed only makes the state's layout depend on the process.
//!
//! [`IdHasher`] folds each machine word into the state with one 64×64→128
//! multiply, XOR-folding the high half onto the low half (the
//! "multiply-fold" of FxHash's family, without Fx's weak low bits: an
//! aligned key such as a 64 KiB chunk offset still spreads over every
//! bucket). It has no seed, so a map's layout and iteration order are a
//! function of its operations alone.
//!
//! Keys a peer *can* choose — path names, header strings — must keep
//! `std`'s keyed hasher.
//!
//! # Examples
//!
//! ```
//! use iolite_buf::{IdMap, IdSet};
//!
//! let mut pins: IdMap<u64, u32> = IdMap::default();
//! *pins.entry(7).or_insert(0) += 1;
//! assert_eq!(pins[&7], 1);
//!
//! let mut a: IdSet<u64> = IdSet::default();
//! let mut b: IdSet<u64> = IdSet::default();
//! for k in [5, 1 << 16, 3 << 16, 9] {
//!     a.insert(k);
//!     b.insert(k);
//! }
//! // Same operations, same order: no per-map seed.
//! assert!(a.iter().eq(b.iter()));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with no structure (2⁶⁴ / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seedless multiply-fold hasher behind [`IdMap`] and [`IdSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let full = u128::from(self.hash ^ word) * u128::from(K);
        self.hash = (full as u64) ^ ((full >> 64) as u64);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`IdHasher`]s; every one starts from the same state.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by kernel-assigned ids, hashed with [`IdHasher`].
/// Construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of kernel-assigned ids, hashed with [`IdHasher`].
/// Construct with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_across_builders() {
        assert_eq!(hash((3u32, 9u64)), hash((3u32, 9u64)));
        assert_ne!(hash((3u32, 9u64)), hash((9u32, 3u64)));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Chunk-aligned offsets share their low 16 bits; a plain
        // multiply would leave those bits zero and pile every key into
        // one bucket of a small table.
        let buckets: IdSet<u64> = (0..256u64).map(|i| hash(i << 16) & 0xFF).collect();
        assert!(buckets.len() > 128, "{} of 256 buckets hit", buckets.len());
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
