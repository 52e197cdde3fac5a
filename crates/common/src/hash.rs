//! Hashing: the stable FNV-1a 64 content hash, and a fast hasher for
//! in-process integer-keyed maps.
//!
//! The serving layer (`dx100-serve`) keys its on-disk result cache by a
//! content hash of the fully resolved job configuration, so the hash
//! function is part of the cache's on-disk format: it must produce the
//! same value on every platform and every build, forever. FNV-1a is the
//! smallest function with well-known published test vectors that meets
//! that bar; the golden vectors below pin this implementation to the
//! reference one, and any change to them is a cache-format break.
//!
//! Not a cryptographic hash: collisions are possible in principle, but
//! with a handful of distinct job configs per deployment the 64-bit space
//! is effectively collision-free, and a collision only ever returns a
//! *wrong cached report*, never corrupts state — acceptable for a
//! memoization cache whose ground truth can always be recomputed.
//!
//! [`FastMap`] / [`FastSet`] are for in-process maps only: FNV-1a stays
//! the on-disk cache-key format, and nothing written to disk or compared
//! across builds may use them. The simulator's hot maps are keyed by
//! request ids, line addresses and page numbers, looked up several times
//! per simulated cycle; std's default SipHash is built to resist
//! adversarial keys, which a simulator fed its own addresses does not
//! need. [`FxHasher`] is the multiply-rotate word hash rustc uses for its
//! own tables: one rotate, xor and multiply per 8-byte word. It is
//! deterministic (no per-process random seed), so iteration order over a
//! `FastMap` is a function of its insertion history — but simulator code
//! must still never let map iteration order reach an output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64 offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64 over `bytes`.
///
/// ```
/// use dx100_common::hash::fnv1a_64;
/// assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a 64 state; feeding bytes in any split produces the
/// same digest as one [`fnv1a_64`] call over the concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Fresh state (offset basis).
    pub fn new() -> Self {
        Fnv64(FNV1A_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV1A_PRIME);
        }
    }

    /// The digest so far (the state itself; FNV has no finalization).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fixed-width lowercase hex form used as the cache file name: 16 digits,
/// zero-padded, so keys sort lexicographically like they sort numerically
/// and every key has the same length.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// `HashMap` with the [`FxHasher`]; for in-process integer-keyed maps.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the [`FxHasher`]; for in-process integer-keyed sets.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiplier of the Fx word hash (from Firefox, as used inside rustc).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hash: per machine word, `h = (h.rotl(5) ^ word) * K`.
/// Fast on the small integer keys the simulator's maps use; not
/// collision-resistant, and not a stable format (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add_to_hash(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors from the reference FNV distribution
    /// (<http://www.isthe.com/chongo/tech/comp/fnv/>). These pin the
    /// on-disk cache key format; a failure here means existing caches
    /// would be silently invalidated.
    #[test]
    fn golden_vectors() {
        for (input, want) in [
            (&b""[..], 0xcbf29ce484222325),
            (&b"a"[..], 0xaf63dc4c8601ec8c),
            (&b"b"[..], 0xaf63df4c8601f1a5),
            (&b"foobar"[..], 0x85944171f73967e8),
            (&b"chongo was here!\n"[..], 0x46810940eff5f915),
        ] {
            assert_eq!(
                fnv1a_64(input),
                want,
                "fnv1a_64({:?})",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Fnv64::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), fnv1a_64(data), "split at {split}");
        }
    }

    #[test]
    fn hex_is_fixed_width_lowercase() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(0xcbf29ce484222325), "cbf29ce484222325");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
        assert_eq!(hex16(0xA), "000000000000000a");
    }

    #[test]
    fn distinct_inputs_disperse() {
        // Not a statistical test, just a guard against a degenerate
        // implementation (e.g. ignoring input bytes).
        let a = fnv1a_64(b"kernel=is");
        let b = fnv1a_64(b"kernel=pr");
        let c = fnv1a_64(b"kernel=is "); // trailing byte matters
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fast_map_behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        // Line-address-like keys: multiples of 64, the worst case for a
        // hash that ignored low-order structure.
        for i in 0..10_000u64 {
            assert!(m.insert(i * 64, i).is_none());
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.get(&65), None);
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(&(i * 64)), Some(i));
        }
        assert_eq!(m.len(), 5_000);

        let mut s: FastSet<(usize, u64)> = FastSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.contains(&(1, 2)) && !s.contains(&(2, 1)));
    }

    #[test]
    fn fx_hash_is_deterministic_and_disperses() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let h = |v: u64| build.hash_one(v);
        // No per-process seed: the same key always hashes the same.
        assert_eq!(h(42), h(42));
        assert_eq!(h(0), 0);
        // Consecutive line addresses land in distinct top-7-bit buckets
        // (hashbrown's control-byte tag) far more often than not.
        let tags: HashSet<u64> = (1..=64u64).map(|i| h(i * 64) >> 57).collect();
        assert!(tags.len() > 32, "only {} distinct tags", tags.len());
        // Byte-slice input folds whole words, then the tail bytes.
        let mut a = FxHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 7]);
        let mut b = FxHasher::default();
        b.write_u64(1);
        b.write_u8(7);
        assert_eq!(a.finish(), b.finish());
    }
}
