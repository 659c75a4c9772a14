//! The workspace's one FNV-1a. Shard routing, store placement, retry
//! jitter, run ids and lock striping hash through it, so a placement
//! one process persists is the one the next process computes.

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
}
