//! A fast, deterministic hasher for exploration hot paths.
//!
//! The interner hashes every candidate value, store, and pending-async
//! exactly once, and the parallel engine hashes configurations for shard
//! routing and memo keys; profiling shows the standard library's SipHash-1-3
//! spending a double-digit share of exploration time on these. This module
//! reimplements the *Fx* multiply-rotate hash (the algorithm Firefox and
//! rustc use for their internal tables) over `std`'s [`Hasher`] trait.
//!
//! Fx is not DoS-resistant, which is exactly why `std` does not default to
//! it — but we hash *configurations of a model being checked*, not
//! attacker-controlled keys, and every table falls back to full equality on
//! probe, so a collision costs a comparison, never a wrong answer.
//! Determinism across threads is required (every engine worker must agree on
//! which shard owns a configuration), and Fx is keyless, so the same value
//! hashes identically everywhere.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The Fx 64-bit multiply constant (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `HashMap` keyed through [`FxHasher`] — the right table for hot paths
/// keyed by interner ids, which SipHash would dominate.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hashes one value to completion with a fresh [`FxHasher`].
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Combines two 64-bit hashes with one multiply-rotate round (not
/// commutative: `mix(a, b) != mix(b, a)` in general).
pub fn mix(a: u64, b: u64) -> u64 {
    (a.rotate_left(5) ^ b).wrapping_mul(SEED)
}

/// A [`Hasher`] implementing the Fx multiply-rotate scheme.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Mix the tail length in so `"ab" + "c"` and `"a" + "bc"`
            // cannot collide trivially.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
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
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of((1u64, "abc")), hash_of((1u64, "abc")));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
        assert_ne!(hash_of(("ab", "c")), hash_of(("a", "bc")));
    }

    #[test]
    fn tail_bytes_contribute() {
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 10].as_slice()));
    }
}
