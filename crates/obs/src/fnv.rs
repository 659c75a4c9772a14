//! The workspace's one FNV-1a. Shard routing, store placement, retry
//! jitter, run ids and lock striping hash through it, so a placement
//! one process persists is the one the next process computes.
//!
//! Beside it, the one word-at-a-time fold ([`word_fold`]) for the two
//! per-token / per-line hot paths that cannot afford a round per byte
//! and persist nothing.

/// Incremental 64-bit FNV-1a. Steps take and return the hasher by
/// value, so a call site is one expression that inlines to the plain
/// xor-multiply loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// A hasher whose basis is xor-ed with `seed`: equal input under
    /// different seeds hashes differently.
    #[inline]
    pub const fn seeded(seed: u64) -> Fnv1a {
        Fnv1a(Fnv1a::new().0 ^ seed)
    }

    /// Folds `bytes` in, one xor-multiply round per byte.
    #[inline]
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv1a {
        for &byte in bytes {
            self = self.word(u64::from(byte));
        }
        self
    }

    /// Folds a whole word in with a single round — cheaper than its
    /// eight bytes where the word is already well spread (a count, an
    /// id), and equal to [`bytes`](Self::bytes) of one byte below 256.
    #[inline]
    pub const fn word(self, word: u64) -> Fnv1a {
        Fnv1a((self.0 ^ word).wrapping_mul(Fnv1a::PRIME))
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// Rotate–xor–multiply fold of `bytes`, eight bytes a round and seeded
/// with the length: the token interner's and the drift worker's hash.
/// In-process only — the value is not a format.
///
/// **Index with the high bits** (`hash >> (64 - k)`). The last step is
/// one `wrapping_mul`, and the low `k` bits of a product depend only on
/// the low `k` bits of its operands, so `hash & mask` is decided by the
/// last two or three bytes of the input: tokens like `id=<hex>` then
/// share a few hundred home slots. As a whole word (set membership, a
/// tag compare) every bit counts and the fold is sound.
#[inline]
pub fn word_fold(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut hash = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap_or_default());
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
    let mut tail = 0u64;
    for &b in chunks.remainder() {
        tail = tail << 8 | u64::from(b);
    }
    (hash.rotate_left(5) ^ tail).wrapping_mul(SEED)
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_incrementally() {
        // http://www.isthe.com/chongo/tech/comp/fnv/ — 64-bit FNV-1a;
        // "" hashes to the offset basis, the literal in `new`.
        assert_eq!(Fnv1a::new().bytes(b""), Fnv1a::new());
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63dc4c8601ec8c);
        let foobar = Fnv1a::new().bytes(b"foo").bytes(b"bar");
        assert_eq!(foobar.finish(), 0x85944171f73967e8);
        assert_eq!(Fnv1a::new().word(0x61), Fnv1a::new().bytes(b"a"));
        assert_eq!(Fnv1a::seeded(0), Fnv1a::new());
        assert_ne!(Fnv1a::seeded(7).bytes(b"foobar"), foobar);
    }

    #[test]
    fn word_fold_separates_length_and_tail_and_spreads_its_high_bits() {
        assert_ne!(word_fold(b""), word_fold(b"\0"));
        assert_ne!(word_fold(b"12345678"), word_fold(b"12345678\0"));
        assert_ne!(word_fold(b"abcdefgh1"), word_fold(b"abcdefgh2"));
        // Ids that differ only before their last two bytes: the low
        // byte of the fold cannot tell them apart, the high byte can.
        let ids: Vec<u64> = (0..256u32)
            .map(|i| word_fold(format!("id={i:08x}ff").as_bytes()))
            .collect();
        let distinct = |key: fn(u64) -> u64| {
            let mut keys: Vec<u64> = ids.iter().map(|&h| key(h)).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        };
        assert_eq!(distinct(|h| h & 0xff), 1);
        assert!(distinct(|h| h >> 56) > 128);
    }
}
