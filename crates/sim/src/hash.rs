//! Fast, deterministic hashing for simulator-internal maps.
//!
//! The std `HashMap` defaults to SipHash with a per-process random seed —
//! DoS resistance the single-process simulator does not need, paid for on
//! every per-packet demux lookup. [`FxHasher`] is the rustc/Firefox "Fx"
//! multiply-rotate hash: a few cycles per word, and *fixed-seeded*, which
//! also makes map iteration order identical across processes (one less
//! source of accidental nondeterminism).
//!
//! Not collision-resistant against adversarial keys — use only for keys the
//! simulation itself generates (tuples, tokens, addresses, ids).

// The one place the std maps may be named: the aliases below give them a
// fixed hasher (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher (fixed seed, word-at-a-time).
#[derive(Default)]
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
    /// The multiply leaves a key's entropy in the *high* bits of the
    /// product, and hashbrown indexes buckets by the *low* bits: keys whose
    /// low bits agree (tokens with zero low bits, addresses ending `.1`)
    /// would all start probing at the same bucket. The rotation (rustc-hash
    /// 2's) moves the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64);
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), None);
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world and more");
        b.write(b"hello world and more");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn spreads_small_keys() {
        // Sequential tokens must not collapse to a few buckets.
        let hashes: FxHashSet<u64> = (0u64..1000)
            .map(|k| {
                let mut h = FxHasher::default();
                h.write_u64(k);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 1000);
    }

    /// Distinct full hashes are not enough: a map picks the bucket from the
    /// hash's low bits. Keys that differ only in high bits (stack timer
    /// identities, whose low 28 bits are zero) or share their low byte (the
    /// fleet's client addresses, all `x.y.z.1`) must still land in many of
    /// a 1024-bucket table's buckets.
    #[test]
    fn aligned_keys_spread_over_low_bucket_bits() {
        use std::hash::BuildHasher;
        let buckets = |hashes: &mut dyn Iterator<Item = u64>| {
            hashes.map(|h| h & 1023).collect::<FxHashSet<u64>>().len()
        };
        let fx = BuildHasherDefault::<FxHasher>::default();
        let shifted = buckets(&mut (0u64..1000).map(|k| fx.hash_one(k << 28)));
        assert!(shifted > 500, "1000 keys k << 28 use {shifted} buckets");
        let clients = buckets(&mut (0u32..800).map(|i| {
            fx.hash_one(crate::Addr::new(
                10,
                16 + (i / 200) as u8,
                (i % 200) as u8,
                1,
            ))
        }));
        assert!(clients > 400, "800 client addresses use {clients} buckets");
    }
}
