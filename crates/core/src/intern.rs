//! Token interning: dense symbols, the string table behind them, and
//! the flat per-corpus token arena.
//!
//! Every parser in the toolkit spends its inner loops comparing and
//! hashing tokens. Interning maps each distinct token string to a dense
//! [`Symbol`] (`u32`) once, at corpus construction, so those loops
//! become integer compares and dense-array indexing instead of repeated
//! byte-string hashing — and token storage collapses from one heap
//! allocation per token (`Vec<Vec<String>>`) into one shared store of
//! distinct symbol rows plus a row id per record ([`TokenArena`]).
//!
//! Symbols are **interner-local**: a `Symbol` is meaningless without
//! the [`Interner`] that produced it, and symbols from different
//! interners must never be compared. The corpus shares its interner
//! behind an `Arc`, so slices handed to parallel chunk workers reuse
//! the parent's table; anything that crosses an interner boundary (the
//! template merge, checkpoint snapshots) is resolved to strings first.
//! DESIGN.md ("Token representation") documents the protocol.

use std::sync::Arc;

use logparse_obs::word_fold;

use crate::loader::TokenSpan;

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

/// One slot of the probe table: the high half of the token's
/// [`word_fold`] and the token's index among this table's own strings.
///
/// The tag is what makes a probe cheap (a walk compares tags and only
/// reads string bytes behind an equal one) and what makes growth cheap
/// (the home slot at any capacity is the tag's top bits, so re-homing
/// never reads a string).
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    index: u32,
}

/// A free slot. Symbol ids are strictly below `u32::MAX`, so no live
/// index is all ones.
const EMPTY: Slot = Slot {
    tag: 0,
    index: u32::MAX,
};

impl Slot {
    #[inline(always)]
    fn is_free(self) -> bool {
        self.index == EMPTY.index
    }
}

/// The probe tag of `token`: the high half of its fold. The home slot
/// is the top bits of the tag — never the low bits of the fold, which a
/// token's last two bytes decide (see [`word_fold`]).
#[inline(always)]
fn tag_of(token: &[u8]) -> u32 {
    (word_fold(token) >> 32) as u32
}

/// `a == b` for token-sized slices without the call into `bcmp`: whole
/// words from the front, then one overlapping word at the end.
#[inline(always)]
fn same(a: &[u8], b: &[u8]) -> bool {
    fn word<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
        bytes[at..at + N].try_into().unwrap_or([0; N])
    }
    let len = a.len();
    if len != b.len() {
        return false;
    }
    if len >= 8 {
        let mut at = 0;
        while at + 8 < len {
            if word::<8>(a, at) != word::<8>(b, at) {
                return false;
            }
            at += 8;
        }
        word::<8>(a, len - 8) == word::<8>(b, len - 8)
    } else if len >= 4 {
        word::<4>(a, 0) == word::<4>(b, 0) && word::<4>(a, len - 4) == word::<4>(b, len - 4)
    } else {
        a == b
    }
}

#[cold]
fn overflow(what: &str) -> ! {
    panic!("interner overflow: {what}")
}

/// A token string table: `&str -> Symbol` on the way in, dense
/// `Symbol -> &str` on the way out.
///
/// Strings live back to back in one arena with a `u32` end offset each:
/// a new token is an append, never an allocation of its own, and
/// [`resolve`](Interner::resolve) is a checked slice.
///
/// The lookup side is a hand-rolled open-addressing table (linear
/// probing, power-of-two capacity, ≤7/8 load) of `(tag, index)` slots:
/// one hash and one probe chain per `intern` call whether the token is
/// new or seen. Corpus construction interns every token of every line,
/// so this probe is the single hottest call in the loader.
///
/// A table built [`over`](Interner::over) a shared frozen base answers
/// from the base first and appends only new tokens to itself, with ids
/// continuing at `base.len()` — how a batch parser extends the corpus
/// table without copying it.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// The frozen table this one extends; ids below `first` are its.
    base: Option<Arc<Interner>>,
    /// Id of this table's first own string: `base.len()`, 0 without one.
    first: u32,
    /// This table's own strings, back to back.
    text: String,
    /// `ends[i]` is where own string `i` ends in `text`; it starts where
    /// string `i - 1` ends.
    ends: Vec<u32>,
    /// Probe table over the own strings; capacity is a power of two,
    /// zero when nothing has been interned yet.
    table: Vec<Slot>,
    /// `32 - log2(capacity)`: a tag's home slot is `tag >> shift`.
    shift: u32,
}

/// Where a probe ended.
enum Probe {
    /// The token is own string `index`.
    Found(u32),
    /// The token is absent; this slot is where it would go.
    Vacant(usize),
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An interner that extends `base` without copying it: every token
    /// of `base` keeps its symbol, new tokens get ids from `base.len()`
    /// up, and only those are stored here. Indistinguishable from
    /// `(*base).clone()` through `intern`/`get`/`resolve`/`len`.
    pub fn over(base: Arc<Interner>) -> Interner {
        let first = u32::try_from(base.len()).unwrap_or_else(|_| overflow("base table too large"));
        Interner {
            base: Some(base),
            first,
            ..Interner::default()
        }
    }

    /// Where own string `index` lies in `text`.
    #[inline(always)]
    fn own(&self, index: u32) -> std::ops::Range<usize> {
        let start = match index.checked_sub(1) {
            Some(prev) => self.ends[prev as usize],
            None => 0,
        };
        start as usize..self.ends[index as usize] as usize
    }

    /// Walks `token`'s probe chain. The table is never full, so the walk
    /// ends; an empty table has no slot to land on and every token is
    /// vacant at its first step.
    #[inline(always)]
    fn probe(&self, token: &[u8], tag: u32) -> Probe {
        let mut at = (tag >> self.shift) as usize;
        loop {
            let Some(&slot) = self.table.get(at) else {
                return Probe::Vacant(at);
            };
            if slot.is_free() {
                return Probe::Vacant(at);
            }
            // Raw bytes: the `str` slice's boundary check buys nothing
            // on the way in.
            if slot.tag == tag && same(&self.text.as_bytes()[self.own(slot.index)], token) {
                return Probe::Found(slot.index);
            }
            at = (at + 1) & (self.table.len() - 1);
        }
    }

    /// The symbol of `token` (whose tag is `tag`) here or in the base.
    fn find(&self, token: &[u8], tag: u32) -> Option<Symbol> {
        if let Some(found) = self.base.as_ref().and_then(|base| base.find(token, tag)) {
            return Some(found);
        }
        match self.probe(token, tag) {
            Probe::Found(index) => Some(Symbol(self.first + index)),
            Probe::Vacant(_) => None,
        }
    }

    /// Doubles the probe table and re-homes every slot from its tag.
    #[cold]
    fn grow(&mut self) {
        let capacity = (self.table.len() * 2).max(64);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; capacity]);
        self.shift = 32 - capacity.trailing_zeros();
        // In slot order the old entries land in rising order too (home
        // `h` moves to `2h` or `2h + 1`), so the pass is sequential on
        // both tables.
        for slot in old.into_iter().filter(|slot| !slot.is_free()) {
            let at = self.vacancy(slot.tag);
            self.table[at] = slot;
        }
    }

    /// The first free slot on `tag`'s probe chain.
    fn vacancy(&self, tag: u32) -> usize {
        let mut at = (tag >> self.shift) as usize;
        while !self.table[at].is_free() {
            at = (at + 1) & (self.table.len() - 1);
        }
        at
    }

    /// Interns `token`, returning its symbol; existing tokens resolve
    /// without allocating.
    #[inline]
    pub fn intern(&mut self, token: &str) -> Symbol {
        self.intern_inlined(token)
    }

    /// [`intern`](Interner::intern), inlined unconditionally. For the
    /// per-token calls of the corpus build and [`intern_spans`] only:
    /// left to the inliner's heuristics the probe goes out of line as
    /// soon as the loader has more than one sink instantiation, which
    /// costs the build ~1.5 %.
    ///
    /// [`intern_spans`]: Interner::intern_spans
    #[inline(always)]
    pub(crate) fn intern_inlined(&mut self, token: &str) -> Symbol {
        let tag = tag_of(token.as_bytes());
        if let Some(base) = &self.base {
            if let Some(found) = base.find(token.as_bytes(), tag) {
                return found;
            }
        }
        match self.probe(token.as_bytes(), tag) {
            Probe::Found(index) => Symbol(self.first + index),
            Probe::Vacant(at) => self.insert(token, tag, at),
        }
    }

    /// Appends `token` as the next own string and records it in the
    /// vacant slot `at` its probe ended on.
    #[inline(always)]
    fn insert(&mut self, token: &str, tag: u32, mut at: usize) -> Symbol {
        // Only an insertion can fill the table, so only here is the load
        // checked — a hit never pays for it.
        if (self.ends.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
            at = self.vacancy(tag);
        }
        // Ids stay strictly below u32::MAX so consumers can use the
        // all-ones pattern as a sentinel (SLCT's length marker, AEL's
        // `$v` slot, this table's empty slot). The probe table needs no
        // limit of its own: 2^32 slots hold 3.7 G strings, and that many
        // distinct strings do not fit a 4 GiB arena.
        let index = self.ends.len() as u32;
        let id = match self.first.checked_add(index) {
            Some(id) if id < u32::MAX => id,
            _ => overflow("too many distinct tokens"),
        };
        let end = u32::try_from(self.text.len() + token.len())
            .unwrap_or_else(|_| overflow("more than 4 GiB of distinct tokens"));
        self.text.push_str(token);
        self.ends.push(end);
        self.table[at] = Slot { tag, index };
        Symbol(id)
    }

    /// The symbol of an already-interned token, or `None` when `token`
    /// never occurred. Lets read-only consumers (the oracle's template
    /// literals, AEL's `$v` sentinel) probe without mutating.
    pub fn get(&self, token: &str) -> Option<Symbol> {
        self.find(token.as_bytes(), tag_of(token.as_bytes()))
    }

    /// The string behind `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` did not come from this interner (or the base
    /// or a clone ancestor of it).
    pub fn resolve(&self, symbol: Symbol) -> &str {
        match symbol.0.checked_sub(self.first) {
            Some(index) => &self.text[self.own(index)],
            None => match &self.base {
                Some(base) => base.resolve(symbol),
                None => unreachable!("`first` is 0 without a base"),
            },
        }
    }

    /// Number of distinct tokens interned so far. Symbol ids are always
    /// `0..len()`, which is what lets consumers build dense per-symbol
    /// side tables (digit flags, byte lengths, counts).
    pub fn len(&self) -> usize {
        self.first as usize + self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a whole symbol row to string slices.
    pub fn resolve_row<'a>(&'a self, row: &[Symbol]) -> Vec<&'a str> {
        row.iter().map(|&s| self.resolve(s)).collect()
    }

    /// Starts rebuilding this table down to the tokens a caller still
    /// holds: see [`Compaction`].
    pub fn compaction(&self) -> Compaction<'_> {
        Compaction {
            old: self,
            new: Interner::new(),
            map: vec![u32::MAX; self.len()],
        }
    }

    /// Replaces `row` with the symbols of `line`'s tokens (the token
    /// rule of [`Corpus`](crate::Corpus)), interning each. `spans` are
    /// the tokens a scan of the line already found — a
    /// [`FramedLine`](crate::FramedLine)'s, or
    /// [`line_spans`](crate::line_spans)'s — and are interned as they
    /// are; without them (`None`: a line with a byte ≥ 0x80, repaired or
    /// too long) the line is split here by `split_whitespace`. Spans that
    /// do not cut `line` on character boundaries are not its spans: the
    /// line is split as without them. Allocates only when a token is
    /// seen for the first time or `row` has to grow, so a caller that
    /// keeps one row for every line it sees — a streaming parser —
    /// allocates nothing per line.
    pub fn intern_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>, row: &mut Vec<Symbol>) {
        row.clear();
        if let Some(spans) = spans {
            for &(start, end) in spans {
                match line.get(usize::from(start)..usize::from(end)) {
                    Some(token) => row.push(self.intern_inlined(token)),
                    None => {
                        row.clear();
                        break;
                    }
                }
            }
            if row.len() == spans.len() {
                return;
            }
        }
        row.extend(
            line.split_whitespace()
                .map(|token| self.intern_inlined(token)),
        );
    }
}

/// A rebuild of an [`Interner`] that keeps only the tokens its owner
/// still stores: a fresh table plus an old → new id map.
///
/// The owner walks its state in a fixed order and passes every stored
/// symbol through [`keep`](Compaction::keep), which interns the token
/// into the fresh table the first time it is met and returns its new
/// symbol; [`finish`](Compaction::finish) hands the fresh table over. A
/// token never kept is gone: interned again later, it gets a new id that
/// equals no kept symbol, exactly as a token never seen does. That is
/// what lets a streaming parser, whose state compares a line's symbols
/// only with the ones it keeps, bound its table by its state.
#[derive(Debug)]
pub struct Compaction<'a> {
    old: &'a Interner,
    new: Interner,
    /// `map[old id]` is the kept token's new id; `u32::MAX` until kept.
    map: Vec<u32>,
}

impl Compaction<'_> {
    /// The symbol of `symbol`'s token in the fresh table.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` did not come from the table being rebuilt.
    pub fn keep(&mut self, symbol: Symbol) -> Symbol {
        let new = &mut self.map[symbol.0 as usize];
        if *new == u32::MAX {
            *new = self.new.intern(self.old.resolve(symbol)).0;
        }
        Symbol(*new)
    }

    /// The fresh table: every kept token, in the order first kept.
    pub fn finish(self) -> Interner {
        self.new
    }
}

#[cfg(test)]
impl Interner {
    /// How many slots past its home slot own string `index` is stored:
    /// the length of the walk that inserted it, read back off the table
    /// rather than counted on the hot path.
    fn displacement(&self, index: u32) -> usize {
        let home = (tag_of(&self.text.as_bytes()[self.own(index)]) >> self.shift) as usize;
        let holds =
            |step: &usize| self.table[(home + step) & (self.table.len() - 1)].index == index;
        (0..self.table.len()).find(holds).expect("interned")
    }
}

impl PartialEq for Interner {
    /// Equal strings under equal ids, however they are split between a
    /// base and the table over it.
    fn eq(&self, other: &Self) -> bool {
        let strings =
            |table| (0..self.len() as u32).map(move |id| Interner::resolve(table, Symbol(id)));
        self.len() == other.len() && strings(self).eq(strings(other))
    }
}

impl Eq for Interner {}

/// The token rows of a corpus, each distinct row stored once: a shared
/// store of rows plus one `u32` stored-row id per record.
///
/// `row(i)` is three index loads and a slice. A record whose row equals
/// one already stored costs its 4-byte id and nothing else: sealing a row
/// ([`finish_row`](TokenArena::finish_row)) hashes it and looks it up in a
/// table of 8 192 stored-row ids in sets of two, each beside an 8-bit
/// tag of its row's hash (40 KiB, allocated on the first seal, never
/// grown); a slot whose tag matches and whose row is equal is reused.
/// The table is a cache, not an index: a row missing from its set is
/// stored again and takes the set's first slot, the first slot's row
/// moving to the second, so an arena may store one row more than once,
/// and what it stores is bounded by its records, never by the table.
/// Masked logs repeat a few hundred rows over every line, so their
/// arenas store under 1 % of their tokens.
///
/// The store sits behind an `Arc`: [`Corpus::slice`](crate::Corpus::slice),
/// [`select`](crate::Corpus::select) and [`take`](crate::Corpus::take)
/// copy record ids, not rows, and a corpus and its chunks share one
/// store. Appending to an arena whose store is shared copies the store
/// first.
///
/// Row offsets are `u32`, so an arena holds fewer than `u32::MAX`
/// tokens over all its records, however few it stores; sealing a row
/// past that panics with `token arena overflow`, and the file loader
/// reports it as `InvalidData` instead.
#[derive(Debug, Clone, Default)]
pub struct TokenArena {
    store: Arc<RowStore>,
    /// `ids[i]` is the stored row of record `i`.
    ids: Vec<u32>,
    /// Tokens over all records, each record counting its whole row.
    tokens: usize,
    /// The row under construction.
    open: Vec<Symbol>,
    /// `table[slot]` is one plus the id of the stored row last sealed
    /// into `slot`, 0 when none was; empty until the first seal.
    table: Vec<u32>,
    /// `tags[slot]` is the tag of `table[slot]`'s row: a row whose tag
    /// differs is not read to be compared.
    tags: Vec<u8>,
}

/// Distinct token rows back to back, the layout of the [`Interner`]'s
/// strings: a new row is an append, and row `r` ends at `ends[r]` and
/// starts where row `r - 1` ends.
#[derive(Debug, Clone, Default)]
struct RowStore {
    symbols: Vec<Symbol>,
    ends: Vec<u32>,
}

impl RowStore {
    #[inline]
    fn row(&self, id: u32) -> &[Symbol] {
        let start = match id.checked_sub(1) {
            Some(prev) => self.ends[prev as usize],
            None => 0,
        };
        &self.symbols[start as usize..self.ends[id as usize] as usize]
    }
}

/// Slots of an arena's dedup table, in sets of two.
const SLOTS: usize = 1 << 13;

/// The first of the two dedup table slots `row` may sit in, and its
/// tag: a multiply-xor fold of its length and symbols, finished by
/// MurmurHash3's 64-bit mixer, whose top bits index the table and whose
/// low byte is the tag. The mixer is what makes that byte a hash: a
/// product's low bits depend only on its operands' low bits, so the
/// fold's low byte is a function of the symbols' low bytes alone.
///
/// The tag spares a compare: on rows that never repeat (unmasked
/// `hdfs`), reading each set's stored rows, which sit anywhere in the
/// store, to find them unequal made the build ~30 % slower than the
/// layout that stored every row; with the tag it is ~4–8 % slower
/// (EXPERIMENTS.md, one pinned CPU of a 2-vCPU box).
/// Eight bits spare 255 compares in 256; a wider tag would spare hardly
/// more, and would put a row that shares its set and tag out of a
/// test's reach (2^20 draws find one here), and with it the compare.
#[inline]
fn set_and_tag(row: &[Symbol]) -> (usize, u8) {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (row.len() as u64).wrapping_mul(K);
    for symbol in row {
        h = (h ^ u64::from(symbol.0)).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    ((h >> (64 - SLOTS.trailing_zeros())) as usize & !1, h as u8)
}

/// The offset that ends a row after `tokens` tokens in all, or `None`
/// once the arena reaches `u32::MAX` tokens (symbol ids stop short of
/// `u32::MAX` the same way).
pub(crate) fn row_end(tokens: usize) -> Option<u32> {
    u32::try_from(tokens).ok().filter(|&end| end < u32::MAX)
}

#[cold]
fn arena_overflow(tokens: usize) -> ! {
    panic!("token arena overflow: {tokens} tokens do not fit u32 row offsets")
}

impl TokenArena {
    /// An empty arena.
    pub fn new() -> Self {
        TokenArena::default()
    }

    /// Appends one record's token row.
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena reaches `u32::MAX`
    /// tokens.
    pub fn push_row<I: IntoIterator<Item = Symbol>>(&mut self, row: I) {
        self.open.extend(row);
        self.finish_row();
    }

    /// Appends one token to the row currently under construction. The
    /// zero-copy loader builds rows in place with this + [`finish_row`]
    /// instead of collecting a per-row `Vec<Symbol>` first.
    ///
    /// [`finish_row`]: TokenArena::finish_row
    #[inline]
    pub fn push_symbol(&mut self, symbol: Symbol) {
        self.open.push(symbol);
    }

    /// Seals the row currently under construction (possibly empty) as
    /// the next record's: a stored row in its table set when one is
    /// equal, a newly stored one otherwise.
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena reaches `u32::MAX`
    /// tokens.
    #[inline]
    pub fn finish_row(&mut self) {
        if self.try_finish_row().is_none() {
            arena_overflow(self.tokens + self.open.len());
        }
    }

    /// [`finish_row`](TokenArena::finish_row) that leaves the arena as
    /// it was and returns `None` where that panics — the loader's form,
    /// which reports the overflow as an error.
    #[inline]
    pub(crate) fn try_finish_row(&mut self) -> Option<()> {
        let tokens = self.tokens + self.open.len();
        row_end(tokens)?;
        if self.table.is_empty() {
            self.table = vec![0; SLOTS];
            self.tags = vec![0; SLOTS];
        }
        let (set, tag) = set_and_tag(&self.open);
        let equal = |slot: usize| {
            (self.tags[slot] == tag)
                .then_some(self.table[slot])
                .and_then(|entry| entry.checked_sub(1))
                .filter(|&held| self.store.row(held) == self.open.as_slice())
        };
        let id = match equal(set).or_else(|| equal(set + 1)) {
            Some(held) => held,
            None => {
                let store = Arc::make_mut(&mut self.store);
                // Ids stay below `u32::MAX`, so `id + 1` fits the table.
                let id = u32::try_from(store.ends.len())
                    .ok()
                    .filter(|&id| id < u32::MAX)?;
                let end = row_end(store.symbols.len() + self.open.len())?;
                store.symbols.extend_from_slice(&self.open);
                store.ends.push(end);
                self.table[set + 1] = self.table[set];
                self.tags[set + 1] = self.tags[set];
                self.table[set] = id + 1;
                self.tags[set] = tag;
                id
            }
        };
        self.ids.push(id);
        self.tokens = tokens;
        self.open.clear();
        Some(())
    }

    /// Appends every record of `other`, translating each symbol through
    /// `remap` (indexed by the source symbol's id). The parallel corpus
    /// build merges per-chunk arenas into the global one with this:
    /// `other`'s store is appended whole, remapped, and its record ids
    /// shifted past this store's rows; no row is hashed again, so a row
    /// two chunks both hold is stored twice.
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena would reach
    /// `u32::MAX` tokens.
    pub(crate) fn append_remapped(&mut self, other: &TokenArena, remap: &[Symbol]) {
        debug_assert!(self.open.is_empty() && other.open.is_empty());
        let tokens = self.tokens + other.tokens;
        let store = Arc::make_mut(&mut self.store);
        let stored = store.symbols.len() + other.store.symbols.len();
        let rows = store.ends.len() + other.store.ends.len();
        // The totals fit, so no shifted offset or id can wrap.
        if [tokens, stored, rows]
            .iter()
            .any(|&total| row_end(total).is_none())
        {
            arena_overflow(tokens.max(stored));
        }
        let (base, shift) = (store.symbols.len() as u32, store.ends.len() as u32);
        store
            .symbols
            .extend(other.store.symbols.iter().map(|s| remap[s.id() as usize]));
        store
            .ends
            .extend(other.store.ends.iter().map(|end| end + base));
        self.ids.extend(other.ids.iter().map(|id| id + shift));
        self.tokens = tokens;
    }

    /// The records at `indices`, in that order, over this arena's store:
    /// the ids are copied, the rows shared.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= self.rows()`.
    pub(crate) fn select(&self, indices: impl IntoIterator<Item = usize>) -> TokenArena {
        let ids: Vec<u32> = indices.into_iter().map(|i| self.ids[i]).collect();
        let tokens = ids.iter().map(|&id| self.store.row(id).len()).sum();
        TokenArena {
            store: Arc::clone(&self.store),
            ids,
            tokens,
            ..TokenArena::default()
        }
    }

    /// The symbol row of record `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.rows()`.
    #[inline]
    pub fn row(&self, index: usize) -> &[Symbol] {
        self.store.row(self.ids[index])
    }

    /// Number of rows (records).
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// Total number of tokens across all rows — every record's row
    /// counted whole, however often it is stored — and the row under
    /// construction.
    pub fn token_count(&self) -> usize {
        self.tokens + self.open.len()
    }

    /// Tokens the store holds: each distinct row once (more when rows
    /// crowded a table set or came from different chunks), and the rows
    /// of every arena sharing the store.
    pub fn stored_token_count(&self) -> usize {
        self.store.symbols.len()
    }

    /// Iterates over the rows in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Symbol]> {
        self.ids.iter().map(|&id| self.store.row(id))
    }
}

impl PartialEq for TokenArena {
    /// Equal rows in record order and an equal row under construction;
    /// how the rows are stored, and with whom, is representation.
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows() && self.open == other.open && self.iter().eq(other.iter())
    }
}

impl Eq for TokenArena {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::HashMap;

    /// Tokens built to collide: equal lengths with only the last two
    /// bytes free, shared first words, the empty string, multi-byte
    /// characters and two 100 KiB giants one byte apart.
    fn hostile_token() -> impl Strategy<Value = String> {
        let tail = (0u32..4, 0u32..256);
        prop_oneof![
            tail.clone()
                .prop_map(|(head, tail)| format!("id={:08x}{tail:02x}", head * 0x0101_0101)),
            tail.prop_map(|(head, tail)| format!(
                "blk_{:017}{:02}",
                u64::from(head) << 40,
                tail % 100
            )),
            (0u32..256, 0u32..256, 50_000u32..50_020)
                .prop_map(|(x, y, port)| format!("/10.251.{x}.{y}:{port}")),
            (0usize..3, "[ab]{0,3}").prop_map(|(words, tail)| {
                format!("{}{tail}", &"sharedw1sharedw2"[..8 * words])
            }),
            (0u32..2000).prop_map(|n| format!("t{n}")),
            prop::collection::vec(
                prop_oneof![Just("é"), Just("日本"), Just("🦀"), Just("x")],
                0..4
            )
            .prop_map(|pieces| pieces.concat()),
            (0u8..2).prop_map(|last| format!("{}{last}", "g".repeat(100 << 10))),
        ]
    }

    /// A tag match hides `same` from the table-level properties (a wrong
    /// answer needs a 32-bit collision first), so it is held to `==` on
    /// its own: every length across its three branches, every position
    /// of a single differing byte, and a length mismatch.
    #[test]
    fn same_is_slice_equality() {
        let bytes: Vec<u8> = (0..40).collect();
        for len in 0..bytes.len() {
            let a = &bytes[..len];
            assert!(same(a, a), "len {len}");
            assert!(!same(a, &bytes[..len + 1]), "len {len} against {}", len + 1);
            for flip in 0..len {
                let mut b = a.to_vec();
                b[flip] ^= 0x80;
                assert!(!same(a, &b), "len {len}, byte {flip}");
            }
        }
    }

    /// `true` interns, `false` only looks up. A long list interns enough
    /// distinct tokens for four growths past the first 64 slots.
    fn hostile_calls() -> impl Strategy<Value = Vec<(bool, String)>> {
        let call = || {
            (
                prop_oneof![Just(true), Just(true), Just(false)],
                hostile_token(),
            )
        };
        prop_oneof![
            prop::collection::vec(call(), 0..40),
            prop::collection::vec(call(), 1200..1500),
        ]
    }

    /// The reference: a map for `token -> id`, a list for `id -> token`.
    #[derive(Default)]
    struct Model {
        ids: HashMap<String, u32>,
        order: Vec<String>,
    }

    impl Model {
        fn intern(&mut self, token: &str) -> u32 {
            let next = self.order.len() as u32;
            *self.ids.entry(token.to_owned()).or_insert_with(|| {
                self.order.push(token.to_owned());
                next
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_table_agrees_with_a_hash_map(calls in hostile_calls()) {
            let (mut table, mut model) = (Interner::new(), Model::default());
            for (insert, token) in &calls {
                if *insert {
                    prop_assert_eq!(table.intern(token).id(), model.intern(token));
                } else {
                    prop_assert_eq!(table.get(token).map(Symbol::id), model.ids.get(token).copied());
                }
                prop_assert_eq!(table.len(), model.order.len());
            }
            prop_assert_eq!(table.is_empty(), model.order.is_empty());
            prop_assert!(calls.len() < 1200 || table.table.len() >= 1024);
            for (id, token) in model.order.iter().enumerate() {
                prop_assert_eq!(table.resolve(Symbol(id as u32)), token);
                prop_assert_eq!(table.get(token), Some(Symbol(id as u32)));
            }
            // Equality is the strings in id order, nothing else: not the
            // calls that built the table, not how far it has grown.
            let mut replayed = Interner::new();
            for token in &model.order {
                replayed.intern(token);
            }
            prop_assert_eq!(&replayed, &table);
            replayed.intern("never generated");
            prop_assert!(replayed != table);
        }

        #[test]
        fn an_overlay_is_indistinguishable_from_a_clone(
            seed in hostile_calls(),
            calls in hostile_calls(),
        ) {
            let mut base = Interner::new();
            for (_, token) in &seed {
                base.intern(token);
            }
            let mut cloned = base.clone();
            let mut overlay = Interner::over(Arc::new(base));
            prop_assert_eq!(&overlay, &cloned);
            for (insert, token) in &calls {
                if *insert {
                    prop_assert_eq!(overlay.intern(token), cloned.intern(token));
                } else {
                    prop_assert_eq!(overlay.get(token), cloned.get(token));
                }
                prop_assert_eq!(overlay.len(), cloned.len());
            }
            for id in 0..cloned.len() as u32 {
                prop_assert_eq!(overlay.resolve(Symbol(id)), cloned.resolve(Symbol(id)));
            }
            prop_assert_eq!(&overlay, &cloned);
            // Overlays stack: one over an overlay still answers for all
            // three tables.
            let stacked = Interner::over(Arc::new(overlay));
            prop_assert_eq!(&stacked, &cloned);
            for (_, token) in seed.iter().chain(&calls) {
                prop_assert_eq!(stacked.get(token), cloned.get(token));
            }
        }
    }

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

    /// The fresh table holds the kept tokens in the order first kept; a
    /// dropped token interned again gets a new id that equals no kept one.
    #[test]
    fn a_compaction_keeps_only_what_is_kept_in_the_order_kept() {
        let mut old = Interner::new();
        let [_, b, _, d] = ["a", "b", "c", "d"].map(|t| old.intern(t));
        let mut rebuild = old.compaction();
        let kept = [d, b, d, b].map(|s| rebuild.keep(s));
        let mut new = rebuild.finish();
        assert_eq!(kept.map(Symbol::id), [0, 1, 0, 1]);
        assert_eq!(new.resolve_row(&kept[..2]), ["d", "b"]);
        assert_eq!((new.len(), new.get("a"), new.get("c")), (2, None, None));
        assert!(!kept.contains(&new.intern("a")));
        assert_eq!(new.intern("d"), kept[0]);
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

    /// A 64-bit LCG (Knuth's MMIX constants): the fixed token streams of
    /// the probe-length test.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 11
    }

    /// Mean distance from its home slot at which a new token lands, over
    /// the whole stream (walks lengthen as the table fills between two
    /// growths; ideal hashing at ≤ 7/8 load averages about 7.6).
    fn mean_insert_displacement(tokens: impl Iterator<Item = String>) -> f64 {
        let mut table = Interner::new();
        let mut walked = 0usize;
        for token in tokens {
            let known = table.len();
            let symbol = table.intern(&token);
            if table.len() > known {
                walked += table.displacement(symbol.id());
            }
        }
        walked as f64 / table.len() as f64
    }

    /// The defect this table was rebuilt for, as a count: with the home
    /// slot taken from the fold's low bits, `id=<10 hex>` tokens walked
    /// 232 slots per insert (EXPERIMENTS.md, 2026-10-05).
    #[test]
    fn new_tokens_land_near_their_home_slot() {
        let mut state = 0x5eed;
        let churn = (0..60_000).map(|_| format!("id={:010x}", lcg(&mut state) & 0xff_ffff_ffff));
        let churn = mean_insert_displacement(churn);
        let hdfs = (0..80_000).map(|i| {
            let draw = lcg(&mut state);
            let (a, b, port) = (
                draw >> 8 & 0xff,
                draw >> 16 & 0xff,
                1024 + (draw >> 24 & 0xffff),
            );
            match i % 4 {
                0 => format!("blk_{}{:019}", if draw & 1 == 0 { "" } else { "-" }, draw),
                1 => format!("/10.251.{a}.{b}:{port}"),
                2 => format!("10.251.{a}.{b}:{port}"),
                _ => format!("{}", draw & 0x3ff_ffff),
            }
        });
        let hdfs = mean_insert_displacement(hdfs);
        // The closed vocabulary of the benchmark's `steady` corpus, by
        // shape: 468 short words, names and small numbers.
        let steady = (0..64)
            .map(|n| format!("node-{n:02}"))
            .chain((0..200).map(|n| n.to_string()))
            .chain((100..120).map(|n| format!("E{n}")))
            .chain((0..24).map(|n| format!("/vol/{n:02}/data")))
            .chain((0..160).map(|n| format!("{}{n}", ["svc", "user", "state", "INFO"][n % 4])));
        let steady = mean_insert_displacement(steady);
        for (name, mean) in [("churn", churn), ("hdfs", hdfs), ("steady", steady)] {
            assert!(mean <= 16.0, "{name}: mean insert displacement {mean:.1}");
        }
    }

    /// Interns `line` as a streaming parser does: the spans of one scan
    /// of it, then [`Interner::intern_spans`].
    fn intern_line(interner: &mut Interner, line: &str, row: &mut Vec<Symbol>) {
        let mut spans = Vec::new();
        let spans = crate::line_spans(line, &mut spans);
        interner.intern_spans(line, spans, row);
    }

    #[test]
    fn interned_spans_split_by_the_rule_and_reuse_their_row() {
        let mut interner = Interner::new();
        let mut row = Vec::new();
        for line in [
            "src: a=1, b=xyz →ok",
            "b=xyz",
            "",
            " \x0ba\x0cb\r c\t",
            "x\u{a0}y z\u{3000}w \u{85}v",
        ] {
            intern_line(&mut interner, line, &mut row);
            assert_eq!(
                interner.resolve_row(&row),
                line.split_whitespace().collect::<Vec<_>>()
            );
        }
    }

    /// Spans are trusted only as far as they cut the line on character
    /// boundaries; `None` is the char-level split.
    #[test]
    fn spans_that_are_not_the_lines_fall_back_to_the_char_split() {
        let mut interner = Interner::new();
        let mut row = Vec::new();
        let line = "é ab cd";
        for spans in [
            None,
            Some(&[(0u16, 1u16), (3, 5)][..]),
            Some(&[(3, 5), (9, 12)][..]),
        ] {
            interner.intern_spans(line, spans, &mut row);
            assert_eq!(interner.resolve_row(&row), ["é", "ab", "cd"], "{spans:?}");
        }
        // Spans that do cut the line are interned as given, even when
        // they are not its tokens.
        interner.intern_spans("abcd", Some(&[(1, 3)]), &mut row);
        assert_eq!(interner.resolve_row(&row), ["bc"]);
        interner.intern_spans("abcd", Some(&[]), &mut row);
        assert!(row.is_empty());
    }

    /// Interns `lines` through their spans and with `split_whitespace`
    /// into a second table: the rows, so the ids, must be equal.
    fn split_like_the_char_rule<'a>(lines: impl IntoIterator<Item = &'a str>) {
        let (mut fast, mut reference) = (Interner::new(), Interner::new());
        let mut row = Vec::new();
        for line in lines {
            intern_line(&mut fast, line, &mut row);
            let expected: Vec<Symbol> = line
                .split_whitespace()
                .map(|t| reference.intern(t))
                .collect();
            assert_eq!(row, expected, "{line:?}");
        }
    }

    #[test]
    fn interned_split_holds_past_64_and_128_bytes() {
        let words = "ab\tcd \x0bef\x0cgh\rij  kl ".repeat(8);
        let mut lines = Vec::new();
        for len in (56..=72).chain(120..=136) {
            let ascii = &words[..len];
            lines.push(ascii.to_owned());
            lines.push("t".repeat(len));
            // The first high byte past 64 bytes: the line has no spans
            // and is split at char level.
            lines.push(format!("{ascii}x\u{a0}y z\u{e9}"));
            lines.push(format!("{}\u{3000}w", "q".repeat(len)));
        }
        split_like_the_char_rule(lines.iter().map(String::as_str));
    }

    proptest! {
        /// The scan's spans with the char-level fallback intern the same
        /// tokens, in the same order and so to the same ids, as
        /// interning `split_whitespace` over the same lines.
        #[test]
        fn interned_split_matches_the_char_rule(
            lines in prop::collection::vec(
                "[ a-c\t\x0b\x0c\r\u{85}\u{a0}\u{3000}é]{0,16}",
                0..12,
            ),
        ) {
            split_like_the_char_rule(lines.iter().map(String::as_str));
        }

        /// Lines of up to 192 bytes, most of them ASCII, so the split
        /// runs past 64 and 128 bytes and meets a first high byte late.
        #[test]
        fn interned_split_matches_the_char_rule_on_long_lines(
            lines in prop::collection::vec(
                (
                    prop::collection::vec("[ a-c\t\x0b\x0c\r]{0,16}", 0..12),
                    "[ab\u{85}\u{a0}\u{3000}é]?",
                    0usize..200,
                )
                    .prop_map(|(parts, odd, at)| {
                        // A non-ASCII character in about one line of
                        // three, anywhere in it.
                        let mut line = parts.concat();
                        line.insert_str(at.min(line.len()), &odd);
                        line
                    }),
                0..12,
            ),
        ) {
            split_like_the_char_rule(lines.iter().map(String::as_str));
        }
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

    /// The arena before rows were stored once, kept as the oracle of the
    /// one that stores them once: every record's row back to back, and a
    /// `rows + 1` table of `u32` end offsets (CSR).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct CsrArena {
        symbols: Vec<Symbol>,
        offsets: Vec<u32>,
    }

    impl CsrArena {
        fn new() -> Self {
            CsrArena {
                symbols: Vec::new(),
                offsets: vec![0],
            }
        }

        fn push_row<I: IntoIterator<Item = Symbol>>(&mut self, row: I) {
            self.symbols.extend(row);
            self.finish_row();
        }

        fn push_symbol(&mut self, symbol: Symbol) {
            self.symbols.push(symbol);
        }

        fn finish_row(&mut self) {
            self.offsets
                .push(row_end(self.symbols.len()).expect("fits"));
        }

        fn append_remapped(&mut self, other: &CsrArena, remap: &[Symbol]) {
            let base = row_end(self.symbols.len()).expect("fits");
            self.symbols
                .extend(other.symbols.iter().map(|s| remap[s.id() as usize]));
            self.offsets
                .extend(other.offsets[1..].iter().map(|o| o + base));
        }

        /// What `Corpus::select` and `Corpus::slice` did: copy each row.
        fn select(&self, indices: impl IntoIterator<Item = usize>) -> CsrArena {
            let mut arena = CsrArena::new();
            for i in indices {
                arena.push_row(self.row(i).iter().copied());
            }
            arena
        }

        fn row(&self, index: usize) -> &[Symbol] {
            &self.symbols[self.offsets[index] as usize..self.offsets[index + 1] as usize]
        }

        fn rows(&self) -> usize {
            self.offsets.len() - 1
        }

        fn token_count(&self) -> usize {
            self.symbols.len()
        }

        fn iter(&self) -> impl ExactSizeIterator<Item = &[Symbol]> {
            (0..self.rows()).map(|i| self.row(i))
        }
    }

    /// Rows built to meet in the dedup table, found by search, three to a
    /// set and tag so that each set also evicts and every probe reaches
    /// the row compare: the empty row with two one-token rows, `[a]` with
    /// two `[a, k]` (a prefix of its set mates, so a compare that skips
    /// the length passes them), and three one-token rows (equal lengths,
    /// so only the symbols tell them apart).
    fn set_mates() -> &'static [Vec<Symbol>] {
        static MATES: std::sync::OnceLock<Vec<Vec<Symbol>>> = std::sync::OnceLock::new();
        MATES.get_or_init(|| {
            let with_mates = |row: Vec<Symbol>, extend: &dyn Fn(u32) -> Vec<Symbol>| {
                let mates = (1u32..1 << 26)
                    .map(extend)
                    .filter(|candidate| {
                        set_and_tag(candidate) == set_and_tag(&row) && *candidate != row
                    })
                    .take(2);
                std::iter::once(row.clone())
                    .chain(mates)
                    .collect::<Vec<_>>()
            };
            [
                with_mates(vec![], &|k| vec![Symbol(k)]),
                with_mates(vec![Symbol(7)], &|k| vec![Symbol(7), Symbol(k)]),
                with_mates(vec![Symbol(3)], &|k| vec![Symbol(k)]),
            ]
            .concat()
        })
    }

    /// A row stream from `seed`, of one of four shapes: repeats of a
    /// few dozen short rows with empty rows among them; those mixed with
    /// the set mates; more distinct rows than the table has slots; and
    /// rows of 70 000 tokens, some repeated.
    fn row_stream(seed: u64, shape: u8) -> Vec<Vec<Symbol>> {
        let mut state = seed;
        let mut draw = |below: u64| lcg(&mut state) % below;
        let short: Vec<Vec<Symbol>> = (0..40)
            .map(|_| {
                let len = draw(12) as usize;
                (0..len).map(|_| Symbol(draw(30) as u32)).collect()
            })
            .collect();
        let rows = draw(3000) as usize;
        match shape {
            0 => (0..rows)
                .map(|_| short[draw(40) as usize].clone())
                .collect(),
            1 => (0..rows)
                .map(|_| match draw(2) {
                    0 => short[draw(40) as usize].clone(),
                    _ => set_mates()[draw(9) as usize].clone(),
                })
                .collect(),
            2 => (0..SLOTS + 2000)
                .map(|i| match draw(8) {
                    0 => short[draw(40) as usize].clone(),
                    _ => vec![Symbol(i as u32 & 0xffff), Symbol(i as u32 >> 16)],
                })
                .collect(),
            _ => {
                let giants: Vec<Vec<Symbol>> = (0..2)
                    .map(|_| (0..70_000).map(|_| Symbol(draw(1 << 16) as u32)).collect())
                    .collect();
                (0..draw(40) + 1)
                    .map(|_| match draw(4) {
                        0 => giants[draw(2) as usize].clone(),
                        _ => short[draw(40) as usize].clone(),
                    })
                    .collect()
            }
        }
    }

    /// Feeds `rows` to both arenas alike, each row by `push_row` or by
    /// `push_symbol`s and `finish_row` as `how` picks; `open` is left
    /// unsealed after them.
    fn feed(
        arena: &mut TokenArena,
        oracle: &mut CsrArena,
        rows: &[Vec<Symbol>],
        how: u64,
        open: &[Symbol],
    ) {
        for (i, row) in rows.iter().enumerate() {
            if how >> (i % 64) & 1 == 0 {
                arena.push_row(row.iter().copied());
                oracle.push_row(row.iter().copied());
            } else {
                for &symbol in row {
                    arena.push_symbol(symbol);
                    oracle.push_symbol(symbol);
                }
                arena.finish_row();
                oracle.finish_row();
            }
        }
        for &symbol in open {
            arena.push_symbol(symbol);
            oracle.push_symbol(symbol);
        }
    }

    fn arena_of(rows: &[Vec<Symbol>], how: u64) -> (TokenArena, CsrArena) {
        let (mut arena, mut oracle) = (TokenArena::new(), CsrArena::new());
        feed(&mut arena, &mut oracle, rows, how, &[]);
        (arena, oracle)
    }

    /// Holds `arena` to `oracle` on every read.
    fn same_as(arena: &TokenArena, oracle: &CsrArena) -> Result<(), TestCaseError> {
        prop_assert_eq!(arena.rows(), oracle.rows());
        prop_assert_eq!(arena.token_count(), oracle.token_count());
        for i in 0..oracle.rows() {
            prop_assert_eq!(arena.row(i), oracle.row(i), "row {}", i);
        }
        prop_assert!(arena.iter().eq(oracle.iter()));
        prop_assert_eq!(arena.iter().len(), oracle.iter().len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The stored-once arena ≡ the CSR oracle: built row by row or
        /// symbol by symbol, with a row left open, sliced, selected,
        /// taken, appended to after slicing, and merged from chunks;
        /// and two arenas are equal exactly when their oracles are.
        #[test]
        fn the_arena_reads_as_the_csr_arena(
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
            cuts in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            let rows = row_stream(seed, shape);
            let (how, pick, edit) = cuts;
            let (mut arena, mut oracle) = (TokenArena::new(), CsrArena::new());
            let first = rows.first().cloned().unwrap_or_default();
            let open = &first[..(pick as usize % 3).min(first.len())];
            feed(&mut arena, &mut oracle, &rows, how, open);
            same_as(&arena, &oracle)?;
            prop_assert!(arena.stored_token_count() <= arena.token_count());
            arena.finish_row();
            oracle.finish_row();
            same_as(&arena, &oracle)?;

            // Equality follows the oracle's: the same rows fed the other
            // way, one row changed, one row dropped.
            let mut edited = rows.clone();
            match (edit % 3, edited.len()) {
                (_, 0) => edited.push(vec![]),
                (0, _) => {}
                (1, n) => edited[(edit >> 8) as usize % n].push(Symbol(1)),
                (_, n) => {
                    edited.remove((edit >> 8) as usize % n);
                }
            }
            let (mut other, mut other_oracle) = arena_of(&edited, !how);
            feed(&mut other, &mut other_oracle, &[], 0, open);
            other.finish_row();
            other_oracle.finish_row();
            prop_assert_eq!(arena == other, oracle == other_oracle);

            // Slices, selections and takes copy ids, and read as copies.
            let n = oracle.rows();
            let start = (pick >> 8) as usize % (n + 1);
            let end = start + (pick >> 24) as usize % (n - start + 1);
            let slice = arena.select(start..end);
            same_as(&slice, &oracle.select(start..end))?;
            let take = arena.select(0..((pick >> 40) as usize).min(n));
            same_as(&take, &oracle.select(0..((pick >> 40) as usize).min(n)))?;
            let indices: Vec<usize> = (0..(edit >> 16) % 64)
                .map(|k| (edit.rotate_left(k as u32) as usize) % n.max(1))
                .filter(|_| n > 0)
                .collect();
            let selected = arena.select(indices.iter().copied());
            let selected_oracle = oracle.select(indices.iter().copied());
            same_as(&selected, &selected_oracle)?;
            let inner = (indices.len() / 3)..indices.len();
            same_as(&selected.select(inner.clone()), &selected_oracle.select(inner))?;
            let copied: Vec<Vec<Symbol>> = selected_oracle.iter().map(<[Symbol]>::to_vec).collect();
            prop_assert!(selected == arena_of(&copied, how).0);
            // Appending to a slice copies the shared store and leaves the
            // parent as it was.
            let (mut grown, mut grown_oracle) = (slice, oracle.select(start..end));
            feed(&mut grown, &mut grown_oracle, &rows[..rows.len().min(50)], how, &[]);
            same_as(&grown, &grown_oracle)?;
            same_as(&arena, &oracle)?;

            // A merge of chunk arenas, each remapped, ≡ the oracle's.
            let chunks = 1 + (how % 8) as usize;
            let (mut merged, mut merged_oracle) = (TokenArena::new(), CsrArena::new());
            let step = rows.len().div_ceil(chunks).max(1);
            let ids = rows.iter().flatten().map(|s| s.0 + 1).max().unwrap_or(0);
            for (c, piece) in rows.chunks(step).enumerate() {
                let remap: Vec<Symbol> = (0..ids)
                    .map(|id| Symbol((id + c as u32 * 7919) % ids))
                    .collect();
                let (chunk, chunk_oracle) = arena_of(piece, how.rotate_left(c as u32));
                merged.append_remapped(&chunk, &remap);
                merged_oracle.append_remapped(&chunk_oracle, &remap);
            }
            same_as(&merged, &merged_oracle)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The corpus build at 1..=8 threads, each chunk's arena merged
        /// into one, reads as the oracle over the stream's lines
        /// (symbols in first-occurrence order, as the build numbers
        /// them; blank lines, which the loader skips, left out).
        #[test]
        fn the_parallel_build_reads_as_the_csr_arena(
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
        ) {
            let rows: Vec<Vec<Symbol>> = row_stream(seed, shape)
                .into_iter()
                .filter(|row| !row.is_empty())
                .collect();
            let mut text = String::new();
            let (mut interner, mut oracle) = (Interner::new(), CsrArena::new());
            for row in &rows {
                let tokens: Vec<String> = row.iter().map(|s| format!("t{}", s.0)).collect();
                text.push_str(&tokens.join(" "));
                text.push('\n');
                oracle.push_row(tokens.iter().map(|t| interner.intern(t)));
            }
            for threads in 1..=8 {
                let corpus = crate::Corpus::from_bytes(
                    text.clone().into_bytes(),
                    &crate::Preprocessor::identity(),
                    threads,
                )
                .expect("valid UTF-8");
                same_as(corpus.arena(), &oracle)?;
            }
        }
    }

    #[test]
    fn a_default_arena_is_a_new_one() {
        let mut arena = TokenArena::default();
        assert_eq!(arena, TokenArena::new());
        assert_eq!((arena.rows(), arena.token_count()), (0, 0));
        assert_eq!(arena.iter().count(), 0);
        arena.push_row([]);
        arena.push_row([Symbol(4)]);
        assert_eq!((arena.rows(), arena.token_count()), (2, 1));
        assert_eq!(arena.row(1), &[Symbol(4)]);
    }

    /// Masked logs repeat a few hundred rows: 50 000 rows drawn from 171
    /// ten-token templates (a third of each template's tokens shared
    /// placeholders) store at most 1 % of their tokens.
    #[test]
    fn repeated_rows_store_under_one_percent_of_their_tokens() {
        let templates: Vec<Vec<Symbol>> = (0..171u32)
            .map(|t| {
                (0..10u32)
                    .map(|p| Symbol(if p % 3 == 2 { p } else { 16 + t * 10 + p }))
                    .collect()
            })
            .collect();
        let mut state = 0x5eed;
        let mut arena = TokenArena::new();
        for _ in 0..50_000 {
            arena.push_row(templates[(lcg(&mut state) % 171) as usize].iter().copied());
        }
        assert_eq!(arena.token_count(), 500_000);
        let stored = arena.stored_token_count();
        assert!(
            stored * 100 <= arena.token_count(),
            "stored {stored} tokens"
        );
    }

    /// Rows that never repeat are each stored once, more of them than the
    /// table has slots.
    #[test]
    fn distinct_rows_are_each_stored_once() {
        let mut arena = TokenArena::new();
        for i in 0..3 * SLOTS as u32 {
            arena.push_row([Symbol(i), Symbol(i % 7)]);
        }
        assert_eq!(arena.stored_token_count(), arena.token_count());
        assert_eq!(arena.store.ends.len(), arena.rows());
    }

    #[test]
    fn row_offsets_stop_short_of_u32_max() {
        assert_eq!(row_end(0), Some(0));
        assert_eq!(row_end(u32::MAX as usize - 1), Some(u32::MAX - 1));
        assert_eq!(row_end(u32::MAX as usize), None);
        assert_eq!(row_end(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "token arena overflow: 4294967295 tokens")]
    fn arena_overflow_panics_by_name() {
        arena_overflow(u32::MAX as usize);
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
