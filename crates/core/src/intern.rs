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

/// Flat CSR-style storage for the token rows of a corpus: one
/// `Vec<Symbol>` holding every token of every record back-to-back,
/// plus a `u32` end offset per record.
///
/// `row(i)` is two index loads and a slice — no pointer chasing through
/// per-record vectors — and copying rows between arenas (corpus
/// slicing) is a `memcpy` of `u32`s. The `u32` offsets are why an arena
/// holds fewer than `u32::MAX` tokens; sealing a row past that panics
/// with `token arena overflow`, and the file loader reports it as
/// `InvalidData` instead.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenArena {
    symbols: Vec<Symbol>,
    /// `offsets.len() == rows + 1`; row `i` is `symbols[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
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
        TokenArena {
            symbols: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Appends one record's token row.
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena reaches `u32::MAX`
    /// tokens.
    pub fn push_row<I: IntoIterator<Item = Symbol>>(&mut self, row: I) {
        self.symbols.extend(row);
        self.finish_row();
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
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena reaches `u32::MAX`
    /// tokens.
    #[inline]
    pub fn finish_row(&mut self) {
        if self.try_finish_row().is_none() {
            arena_overflow(self.symbols.len());
        }
    }

    /// [`finish_row`](TokenArena::finish_row) that leaves the arena as
    /// it was and returns `None` where that panics — the loader's form,
    /// which reports the overflow as an error.
    #[inline]
    pub(crate) fn try_finish_row(&mut self) -> Option<()> {
        self.offsets.push(row_end(self.symbols.len())?);
        Some(())
    }

    /// Appends every row of `other`, translating each symbol through
    /// `remap` (indexed by the source symbol's id). The parallel corpus
    /// build merges per-chunk arenas into the global one with this.
    ///
    /// # Panics
    ///
    /// Panics (`token arena overflow`) if the arena would reach
    /// `u32::MAX` tokens.
    pub(crate) fn append_remapped(&mut self, other: &TokenArena, remap: &[Symbol]) {
        let tokens = self.symbols.len() + other.symbols.len();
        // The total fits, so no shifted offset can wrap.
        let (Some(_), Some(base)) = (row_end(tokens), row_end(self.symbols.len())) else {
            arena_overflow(tokens);
        };
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
        &self.symbols[self.offsets[index] as usize..self.offsets[index + 1] as usize]
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
    use proptest::prelude::*;
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
