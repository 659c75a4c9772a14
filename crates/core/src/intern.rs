//! Token interning: dense symbols, the string table behind them, and
//! the flat per-corpus token arena.
//!
//! Every parser in the toolkit spends its inner loops comparing and
//! hashing tokens. Interning maps each distinct token string to a dense
//! [`Symbol`] (`u32`) once, at corpus construction, so those loops
//! become integer compares and dense-array indexing instead of repeated
//! byte-string hashing — and token storage collapses from one heap
//! allocation per token (`Vec<Vec<String>>`) into one flat symbol
//! buffer plus a per-record offset table ([`TokenArena`], CSR layout).
//!
//! Symbols are **interner-local**: a `Symbol` is meaningless without
//! the [`Interner`] that produced it, and symbols from different
//! interners must never be compared. The corpus shares its interner
//! behind an `Arc`, so slices handed to parallel chunk workers reuse
//! the parent's table; anything that crosses an interner boundary (the
//! template merge, checkpoint snapshots) is resolved to strings first.
//! DESIGN.md ("Token representation") documents the protocol.

use std::sync::Arc;

/// A dense id for an interned token string.
///
/// Equality of symbols from the *same* [`Interner`] is equivalent to
/// equality of the strings they resolve to; ordering is insertion
/// order, not lexicographic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw dense id (0-based, contiguous per interner).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Reconstructs a symbol from a raw id. The caller is responsible
    /// for the id having come from the interner it will be used with.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

/// Sentinel marking an empty slot in the interner's probe table.
/// Symbol ids are guaranteed strictly below `u32::MAX`, so the all-ones
/// pattern can never collide with a live id.
const EMPTY_SLOT: u32 = u32::MAX;

/// FxHash-style mixer over token bytes, eight bytes per round. The
/// corpus loader interns every token of every line through this, so it
/// trades avalanche quality for two arithmetic ops per word — plenty
/// for a table whose keys are short log tokens.
#[inline]
fn hash_token(bytes: &[u8]) -> u64 {
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

/// A token string table: `&str -> Symbol` on the way in, dense
/// `Symbol -> &str` on the way out.
///
/// Strings are stored once as `Arc<str>`, so cloning an interner (the
/// batch parsers clone the corpus table to extend it privately) is a
/// refcount bump per entry, not a byte copy.
///
/// The lookup side is a hand-rolled open-addressing table of symbol
/// ids (linear probing, power-of-two capacity, ≤7/8 load): one hash
/// and one probe chain per `intern` call whether the token is new or
/// seen, instead of the separate lookup + insert a `HashMap` pays on
/// misses. Corpus construction interns every token of every line, so
/// this probe is the single hottest call in the loader.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    /// Open-addressing probe table of symbol ids; `EMPTY_SLOT` marks a
    /// free slot. Capacity is a power of two (`mask + 1`), zero when
    /// nothing has been interned yet.
    table: Vec<u32>,
    mask: usize,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Doubles the probe table and re-homes every id.
    #[cold]
    fn grow(&mut self) {
        let capacity = (self.table.len() * 2).max(64);
        self.table.clear();
        self.table.resize(capacity, EMPTY_SLOT);
        self.mask = capacity - 1;
        for (id, token) in self.strings.iter().enumerate() {
            let mut slot = hash_token(token.as_bytes()) as usize & self.mask;
            while self.table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = id as u32;
        }
    }

    /// Interns `token`, returning its symbol; existing tokens resolve
    /// without allocating.
    #[inline]
    pub fn intern(&mut self, token: &str) -> Symbol {
        self.intern_inlined(token)
    }

    /// [`intern`](Interner::intern), inlined unconditionally. For the
    /// corpus build's per-token call only: left to the inliner's
    /// heuristics the probe goes out of line as soon as the loader has
    /// more than one sink instantiation, which costs the build ~1.5 %.
    #[inline(always)]
    pub(crate) fn intern_inlined(&mut self, token: &str) -> Symbol {
        if (self.strings.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        let mut slot = hash_token(token.as_bytes()) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY_SLOT {
                // Ids stay strictly below u32::MAX so consumers can use
                // the all-ones pattern as a sentinel (SLCT's length
                // marker, AEL's `$v` slot, this table's empty slot).
                let id = u32::try_from(self.strings.len())
                    .ok()
                    .filter(|&id| id < u32::MAX)
                    .unwrap_or_else(|| panic!("interner overflow: too many distinct tokens"));
                self.strings.push(Arc::from(token));
                self.table[slot] = id;
                return Symbol(id);
            }
            if &*self.strings[id as usize] == token {
                return Symbol(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The symbol of an already-interned token, or `None` when `token`
    /// never occurred. Lets read-only consumers (the oracle's template
    /// literals, AEL's `$v` sentinel) probe without mutating.
    pub fn get(&self, token: &str) -> Option<Symbol> {
        if self.table.is_empty() {
            return None;
        }
        let mut slot = hash_token(token.as_bytes()) as usize & self.mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY_SLOT {
                return None;
            }
            if &*self.strings[id as usize] == token {
                return Some(Symbol(id));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The string behind `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` did not come from this interner (or a clone
    /// ancestor of it).
    pub fn resolve(&self, symbol: Symbol) -> &str {
        &self.strings[symbol.0 as usize]
    }

    /// Number of distinct tokens interned so far. Symbol ids are always
    /// `0..len()`, which is what lets consumers build dense per-symbol
    /// side tables (digit flags, byte lengths, counts).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Resolves a whole symbol row to string slices.
    pub fn resolve_row<'a>(&'a self, row: &[Symbol]) -> Vec<&'a str> {
        row.iter().map(|&s| self.resolve(s)).collect()
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
    }
}

impl Eq for Interner {}

/// Flat CSR-style storage for the token rows of a corpus: one
/// `Vec<Symbol>` holding every token of every record back-to-back,
/// plus an offset per record.
///
/// `row(i)` is two index loads and a slice — no pointer chasing through
/// per-record vectors — and copying rows between arenas (corpus
/// slicing) is a `memcpy` of `u32`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenArena {
    symbols: Vec<Symbol>,
    /// `offsets.len() == rows + 1`; row `i` is `symbols[offsets[i]..offsets[i+1]]`.
    offsets: Vec<usize>,
}

impl TokenArena {
    /// An empty arena.
    pub fn new() -> Self {
        TokenArena {
            symbols: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Appends one record's token row.
    pub fn push_row<I: IntoIterator<Item = Symbol>>(&mut self, row: I) {
        self.symbols.extend(row);
        self.offsets.push(self.symbols.len());
    }

    /// Appends one token to the row currently under construction. The
    /// zero-copy loader builds rows in place with this + [`finish_row`]
    /// instead of collecting a per-row `Vec<Symbol>` first.
    ///
    /// [`finish_row`]: TokenArena::finish_row
    #[inline]
    pub fn push_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// Seals the row currently under construction (possibly empty).
    #[inline]
    pub fn finish_row(&mut self) {
        self.offsets.push(self.symbols.len());
    }

    /// Appends every row of `other`, translating each symbol through
    /// `remap` (indexed by the source symbol's id). The parallel corpus
    /// build merges per-chunk arenas into the global one with this.
    pub(crate) fn append_remapped(&mut self, other: &TokenArena, remap: &[Symbol]) {
        let base = self.symbols.len();
        self.symbols
            .extend(other.symbols.iter().map(|s| remap[s.id() as usize]));
        self.offsets
            .extend(other.offsets[1..].iter().map(|o| o + base));
    }

    /// The symbol row of record `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.rows()`.
    pub fn row(&self, index: usize) -> &[Symbol] {
        &self.symbols[self.offsets[index]..self.offsets[index + 1]]
    }

    /// Number of rows (records).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tokens across all rows.
    pub fn token_count(&self) -> usize {
        self.symbols.len()
    }

    /// Iterates over the rows in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Symbol]> {
        (0..self.rows()).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(i.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!((a.id(), b.id()), (0, 1));
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
    }

    #[test]
    fn clones_share_ids_and_diverge_independently() {
        let mut base = Interner::new();
        let a = base.intern("a");
        let mut fork = base.clone();
        let b = fork.intern("b");
        assert_eq!(fork.resolve(a), "a");
        assert_eq!(fork.resolve(b), "b");
        assert_eq!(base.len(), 1, "cloning must not mutate the original");
        assert_eq!(base, base.clone());
        assert_ne!(base, fork);
    }

    #[test]
    fn arena_rows_are_contiguous_and_aligned() {
        let mut i = Interner::new();
        let mut arena = TokenArena::new();
        arena.push_row(["x", "y"].map(|t| i.intern(t)));
        arena.push_row([]);
        arena.push_row(["y"].map(|t| i.intern(t)));
        assert_eq!(arena.rows(), 3);
        assert_eq!(arena.token_count(), 3);
        assert_eq!(i.resolve_row(arena.row(0)), ["x", "y"]);
        assert!(arena.row(1).is_empty());
        assert_eq!(arena.row(2), &[i.intern("y")]);
        assert_eq!(arena.iter().count(), 3);
    }

    #[test]
    fn symbol_equality_tracks_string_equality_within_one_interner() {
        let mut i = Interner::new();
        let tokens = ["blk", "42", "blk", "src:", "42"];
        let syms: Vec<Symbol> = tokens.iter().map(|t| i.intern(t)).collect();
        for (ta, &sa) in tokens.iter().zip(&syms) {
            for (tb, &sb) in tokens.iter().zip(&syms) {
                assert_eq!(ta == tb, sa == sb);
            }
        }
    }
}
