//! A deterministic Fx-style hasher for the DD engine's internal maps.
//!
//! The unique tables, compute caches, the [`ComplexTable`](crate::ComplexTable)
//! buckets and the DD flattener probe hash maps millions of times per
//! compile, and every key is a handful of machine words the program itself
//! produced: arena indices, interned-weight indices, quantised coordinates.
//! SipHash's protection against crafted collisions buys nothing there and
//! dominates the probe cost, so those maps use one multiply-rotate round
//! per word instead (the scheme of rustc's `FxHasher`).
//!
//! **Scope:** only for keys derived from arena indices or quantised
//! coordinates. Anything keyed by bytes a user controls (names, paths,
//! QASM identifiers) keeps the standard library's default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-rotate round per written word; see the module docs for
/// where it may be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
    fn write_i64(&mut self, i: i64) {
        self.add(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the std map
        // indexes buckets by the low ones.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`]: stateless, so two maps (and two runs)
/// hash identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&(3u32, 9u32, 1u32)), hash_of(&(3u32, 9u32, 1u32)));
        assert_ne!(hash_of(&(3u32, 9u32)), hash_of(&(9u32, 3u32)));
    }

    #[test]
    fn sequential_indices_spread_over_low_bits() {
        // Arena indices are sequential; the map's bucket choice reads the
        // low bits, so those must not collapse (a uniformly random function
        // would leave about 2590 distinct patterns).
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..4096 {
            seen.insert(hash_of(&i) & 0xfff);
        }
        assert!(
            seen.len() > 2000,
            "only {} of 4096 low-bit patterns",
            seen.len()
        );
    }

    #[test]
    fn byte_slices_hash_tail_bytes() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
