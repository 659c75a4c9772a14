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
/// The last one to eight bytes are one word read in at most two loads:
/// from four bytes up, the four at the front of that tail and the four
/// at its end (they overlap below eight); under four, its first, middle
/// and last byte. For a given length either word is a one-to-one
/// function of the tail, and every round is one-to-one in the state
/// before it, so two inputs of one length that differ in any one byte
/// fold apart.
///
/// **Index with the high bits** (`hash >> (64 - k)`). The last step is
/// one `wrapping_mul`, and the low `k` bits of a product depend only on
/// the low `k` bits of its operands, so `hash & mask` is decided by a
/// few bytes of the input: tokens like `id=<hex>` then share a few
/// hundred home slots. As a whole word (set membership, a tag compare)
/// every bit counts and the fold is sound.
#[inline]
pub fn word_fold(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    fn load<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
        bytes[at..at + N].try_into().unwrap_or([0; N])
    }
    let mut hash = bytes.len() as u64;
    // Whole words up to a tail of one to eight bytes (none when empty).
    let (words, tail) = bytes.split_at(bytes.len().saturating_sub(1) / 8 * 8);
    for word in words.chunks_exact(8) {
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(load(word, 0))).wrapping_mul(SEED);
    }
    let len = tail.len();
    let tail = if len >= 4 {
        let (lo, hi) = (load(tail, 0), load(tail, len - 4));
        u64::from(u32::from_le_bytes(lo)) | u64::from(u32::from_le_bytes(hi)) << 32
    } else if let Some(&first) = tail.first() {
        u64::from(first) << 16 | u64::from(tail[len / 2]) << 8 | u64::from(tail[len - 1])
    } else {
        0
    };
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

    /// The tail's two loads lose no byte: at every length from the
    /// empty token to three words, changing any one byte changes the
    /// fold, and neither do trailing zero bytes (which a zero-padded
    /// tail word would hide but for the length seed) go unseen.
    #[test]
    fn word_fold_sees_every_byte_and_every_length() {
        let base: Vec<u8> = (0..24u8).map(|i| b'a' + i).collect();
        for len in 0..=base.len() {
            let token = &base[..len];
            let folded = word_fold(token);
            for at in 0..len {
                for flip in [0x01, 0x20, 0x80, 0xff] {
                    let mut changed = token.to_vec();
                    changed[at] ^= flip;
                    assert_ne!(
                        word_fold(&changed),
                        folded,
                        "len {len}, byte {at}, ^{flip:#x}"
                    );
                }
            }
            let mut padded = token.to_vec();
            for zeros in 1..=9 {
                padded.push(0);
                assert_ne!(word_fold(&padded), folded, "len {len} + {zeros} zero bytes");
            }
        }
        // Zero bytes alone, at every length: the length seed keeps them
        // apart.
        let zeros: Vec<u64> = (0..=24).map(|len| word_fold(&vec![0; len])).collect();
        let mut distinct = zeros.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), zeros.len());
    }
}
