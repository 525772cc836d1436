//! A tiny multiplicative hasher for the simulator's small-integer keys.
//!
//! The speculation engine touches its `segments` and `spec` maps on
//! every iteration event, and the live-in profiler probes its address
//! sets on every load and store of every open iteration — millions of
//! lookups per pass. The keys are dense machine integers (execution
//! ordinals, iteration indices, loop target addresses, word addresses,
//! path hashes), for which `std`'s DoS-resistant SipHash costs more than
//! the lookup itself. This is the classic Fx/FNV-style mix: one rotate,
//! one xor, one multiply per word. It is **not** collision-resistant
//! against adversarial keys and must only be used for internal,
//! simulator-generated keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (the rustc `FxHasher` recipe) over 64-bit words.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// Knuth's 64-bit multiplicative-hashing constant (2^64 / φ, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` keyed by trusted small integers, hashed with [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` of trusted small integers, hashed with [`FxHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<(u32, u32), u64> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 2), i as u64);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i * 2)), Some(&(i as u64)));
            assert_eq!(m.get(&(i, i * 2 + 1)), None);
        }
    }

    #[test]
    fn nearby_keys_spread() {
        // Dense consecutive keys must not collapse onto few buckets: the
        // low 7 bits (hashbrown's control bytes use the high bits, the
        // bucket index the low ones) should take many distinct values.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..128u32 {
            let mut h = FxHasher::default();
            h.write_u32(i);
            low_bits.insert(h.finish() & 0x7f);
        }
        assert!(low_bits.len() > 64, "only {} distinct", low_bits.len());
    }
}
