use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Histogram, Registry};

use crate::error::ParseError;
use crate::intern::{Interner, Symbol, TokenArena};
use crate::preprocess::Preprocessor;

/// The line numbers of a corpus's records. Every loader-built corpus
/// numbers its kept lines consecutively, and so does every contiguous
/// slice of one, so only a hand-picked selection stores them.
#[derive(Debug, Clone)]
enum LineNumbers {
    /// Record `i` is line `first + i`.
    From(usize),
    /// Record `i` is line `listed[i]` ([`Corpus::select`]).
    Listed(Vec<usize>),
}

/// An in-memory log corpus: its messages' line numbers and interned
/// tokenizations, and no text.
///
/// A `Corpus` is what parsers consume. Tokenization *and interning*
/// happen once at construction: every distinct token string is mapped to
/// a dense [`Symbol`] and the rows live in one [`TokenArena`], so the
/// (potentially many) parser runs of an evaluation sweep share both the
/// split work and the integer token representation. Parsers read
/// [`symbols`](Corpus::symbols) on their hot paths and resolve through
/// [`interner`](Corpus::interner) only when rendering output;
/// [`tokens`](Corpus::tokens) remains as the resolved string view. The
/// paper's output contract (§II-C) is a line number and an event per
/// message, so nothing reads a message's text once it is interned, and
/// a corpus keeps none: whoever needs the lines keeps them (a dataset
/// generator's `LabeledCorpus` does).
///
/// **The token rule.** A token is a maximal run of non-whitespace
/// characters (`char::is_whitespace`, so U+00A0, U+3000 and U+0085
/// separate as a space does): a whitespace run yields no empty token
/// and a blank line an empty row. There is nothing to configure.
/// Anything specific to a dataset — the paper's §IV-B domain knowledge
/// — is a [`MaskRule`](crate::MaskRule) over these tokens, not a
/// different split. Every constructor and [`Interner::intern_spans`]
/// split this way.
///
/// Line numbers are the first one plus the index unless records were
/// picked by hand ([`select`](Corpus::select)). There are two ways in:
///
/// * [`from_path`](Corpus::from_path) / [`from_reader`](Corpus::from_reader)
///   / [`from_bytes`](Corpus::from_bytes) — a log file or stream, through
///   the `loader` module: the input is read through one 1 MiB buffer (or
///   scanned as given), blank lines are skipped, tokens are interned
///   straight into the arena, and no byte of it is kept.
///   [`from_path_masked`](Corpus::from_path_masked), `from_reader` and
///   `from_bytes` apply a [`Preprocessor`]'s rules to each token before
///   it is interned.
/// * [`from_lines`](Corpus::from_lines) — lines already in memory
///   (dataset generators, tests): every line is kept, blank ones
///   included, so caller-side arrays stay index-aligned; each line is
///   split by `str::split_whitespace`, the rule's char-level statement,
///   and interned, not copied.
///
/// The interner and the arena's store of distinct rows are shared behind
/// `Arc`s: [`slice`](Corpus::slice), [`select`](Corpus::select) and
/// [`take`](Corpus::take) copy one `u32` row id per record and reuse the
/// parent's table and rows, which is how parallel chunk workers avoid
/// copying token strings or rows.
///
/// # Example
///
/// ```
/// use logparse_core::Corpus;
///
/// let corpus = Corpus::from_lines(["a b c", "a b d"]);
/// assert_eq!(corpus.len(), 2);
/// assert_eq!(corpus.tokens(1), &["a", "b", "d"]);
/// // "a" and "b" are shared symbols; "c" and "d" differ.
/// assert_eq!(corpus.symbols(0)[..2], corpus.symbols(1)[..2]);
/// assert_ne!(corpus.symbols(0)[2], corpus.symbols(1)[2]);
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    lines: LineNumbers,
    arena: TokenArena,
    interner: Arc<Interner>,
}

/// What [`Corpus::from_path`] and [`Corpus::from_path_parallel`] take
/// and ignore: there is one token rule (see [`Corpus`]). The argument
/// stays only while `benchmark/` pins those two signatures; it goes when
/// the benchmark is re-baselined (ROADMAP.md).
#[derive(Default)]
pub struct Tokenizer;

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new()
    }
}

/// Resolves the intern-time and arena-size histogram handles for corpus
/// construction (resolved per build; construction is rare relative to
/// parsing, which never touches the registry).
fn intern_histograms(registry: &Registry) -> (Histogram, Histogram) {
    (
        registry.histogram(
            "core_intern_seconds",
            "Time to tokenize and intern a corpus at construction",
            &Buckets::durations(),
            &[],
        ),
        registry.histogram(
            "core_intern_arena_tokens",
            "Total interned tokens per constructed corpus arena",
            &Buckets::log_linear(1.0, 8, 3),
            &[],
        ),
    )
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Corpus::assemble(1, TokenArena::new(), Arc::new(Interner::new()))
    }

    /// Builds a corpus from raw content lines, splitting each at char
    /// level with `split_whitespace` — not the loader's byte scanner,
    /// which the differential suite checks against this path. Every line
    /// becomes a record (blank lines too) and line numbers are assigned
    /// sequentially from 1. The lines are interned, not copied.
    pub fn from_lines<I, S>(lines: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let registry = logparse_obs::global();
        let (time_hist, size_hist) = intern_histograms(registry);
        let span = registry.span_into(time_hist, "core_intern_build", &[]);
        let mut interner = Interner::new();
        let mut arena = TokenArena::new();
        for line in lines {
            arena.push_row(
                line.as_ref()
                    .split_whitespace()
                    .map(|token| interner.intern(token)),
            );
        }
        span.finish();
        size_hist.observe(arena.token_count() as f64);
        Corpus::assemble(1, arena, Arc::new(interner))
    }

    /// Builds a corpus from a log file: the file is read through one
    /// reused 1 MiB buffer, scanned with the SWAR line/token scanner, and
    /// interned directly into the token arena — no per-line `String`, no
    /// per-row `Vec`, and nothing of the file kept. The build reads the
    /// bytes the file holds when it begins, as far as its length then (a
    /// pipe, to its end). A line is skipped iff
    /// every byte of it is ASCII whitespace (the skip-blank contract in
    /// the `simd` module); output is bit-identical to
    /// [`from_lines`](Corpus::from_lines) over the remaining
    /// `BufRead::lines` of the file.
    ///
    /// The [`Tokenizer`] is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when the file cannot be opened or
    /// read, when it ends short of that length (it was truncated during
    /// the build), or when a line is not valid UTF-8.
    pub fn from_path(path: impl AsRef<Path>, _tokenizer: &Tokenizer) -> Result<Corpus, ParseError> {
        Corpus::from_path_masked(path, &Preprocessor::identity(), 1)
    }

    /// [`from_path`](Corpus::from_path) with a chunked-parallel build:
    /// the file is cut at line starts into up to `threads` byte ranges,
    /// each read on its own thread through a buffer of its own — by
    /// offset, through the one handle the build opened, so a file renamed
    /// onto `path` meanwhile is not read — and the chunk outputs merged
    /// in order. The result is
    /// bit-identical to the sequential build (symbol ids included).
    /// Small inputs, and inputs whose length is unknown (a pipe), build
    /// sequentially.
    ///
    /// # Errors
    ///
    /// As [`from_path`](Corpus::from_path).
    pub fn from_path_parallel(
        path: impl AsRef<Path>,
        _tokenizer: &Tokenizer,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        Corpus::from_path_masked(path, &Preprocessor::identity(), threads)
    }

    /// [`from_path_parallel`](Corpus::from_path_parallel) with masking
    /// fused into the build: each token is classified by
    /// `preprocessor`'s rules *before* interning, and a masked token
    /// becomes its rule's placeholder symbol without ever entering the
    /// table — one pass, vocabulary proportional to templates rather
    /// than to variables. The result is bit-identical (symbol ids
    /// included) to `preprocessor.apply(&Corpus::from_path(..)?)`. A
    /// preprocessor without rules costs nothing.
    ///
    /// # Errors
    ///
    /// As [`from_path`](Corpus::from_path).
    pub fn from_path_masked(
        path: impl AsRef<Path>,
        preprocessor: &Preprocessor,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_path(path.as_ref(), preprocessor, threads)
    }

    /// [`from_path_masked`](Corpus::from_path_masked) over an in-memory
    /// buffer, which is scanned as given and dropped once the build is
    /// done. [`Preprocessor::identity`] masks nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when a line is not valid UTF-8.
    pub fn from_bytes(
        bytes: Vec<u8>,
        preprocessor: &Preprocessor,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_bytes(&bytes, preprocessor, threads)
    }

    /// [`from_path_masked`](Corpus::from_path_masked) over any reader
    /// (stdin), read to its end on one thread through the same reused
    /// 1 MiB buffer: a corpus from a stream holds no more of it than one
    /// from a file does.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when the reader fails or a line is not
    /// valid UTF-8.
    pub fn from_reader(
        mut reader: impl std::io::Read,
        preprocessor: &Preprocessor,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_reader(&mut reader, preprocessor)
    }

    /// Builds the corpus of one byte range of a log file — the kept
    /// lines of `bytes`, numbered from `lines_before + 1` — at the cost
    /// of that range alone: the file is sought, and the range and the
    /// byte before it are read through one reused 1 MiB buffer. When
    /// `bytes` is a
    /// chunk of [`corpus_cuts`] and `lines_before` that chunk's first
    /// line index, the result equals
    /// `Corpus::from_path(path)?.slice(chunk)`: same line numbers, same
    /// tokens (symbol ids are the range's own).
    ///
    /// [`corpus_cuts`]: crate::corpus_cuts
    ///
    /// # Errors
    ///
    /// As [`from_path`](Corpus::from_path), for the lines of the range;
    /// [`ParseError::InvalidConfig`] when `bytes` is not inside the file
    /// or does not start and end at a line start (offset 0, the file's
    /// end, or just past a `\n`).
    pub fn from_path_range(
        path: impl AsRef<Path>,
        bytes: std::ops::Range<usize>,
        lines_before: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_path_range(path.as_ref(), bytes, lines_before)
    }

    /// Assembles a corpus from its token rows, the records of lines
    /// `first_line`, `first_line + 1`, ….
    pub(crate) fn assemble(
        first_line: usize,
        arena: TokenArena,
        interner: Arc<Interner>,
    ) -> Corpus {
        Corpus {
            lines: LineNumbers::From(first_line),
            arena,
            interner,
        }
    }

    /// This corpus's records over different token rows (one row per
    /// record, symbols of `interner`): how [`Preprocessor::apply`]
    /// swaps in the masked rows.
    pub(crate) fn with_tokens(&self, arena: TokenArena, interner: Interner) -> Corpus {
        debug_assert_eq!(arena.rows(), self.len());
        Corpus {
            lines: self.lines.clone(),
            arena,
            interner: Arc::new(interner),
        }
    }

    /// Number of messages in the corpus.
    pub fn len(&self) -> usize {
        self.arena.rows()
    }

    /// Returns `true` when the corpus holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The 1-based line number of the message at `index`: its position
    /// among the kept lines of its source.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn line_no(&self, index: usize) -> usize {
        match &self.lines {
            LineNumbers::From(first) => {
                assert!(index < self.len(), "record {index} of {}", self.len());
                first + index
            }
            LineNumbers::Listed(listed) => listed[index],
        }
    }

    /// Every record's line number, in record order (the structured
    /// writer needs nothing else of the corpus).
    pub fn line_numbers(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.len()).map(|index| self.line_no(index))
    }

    /// The token sequence of the message at `index`, resolved to string
    /// slices. This is the compatibility view; hot paths should use
    /// [`symbols`](Corpus::symbols) instead and resolve lazily.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn tokens(&self, index: usize) -> Vec<&str> {
        self.interner.resolve_row(self.arena.row(index))
    }

    /// The interned token row of the message at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn symbols(&self, index: usize) -> &[Symbol] {
        self.arena.row(index)
    }

    /// The corpus's token table. Symbols from [`symbols`](Corpus::symbols)
    /// resolve here; parsers that need a private extendable table lay
    /// one over [`shared_interner`](Corpus::shared_interner) with
    /// [`Interner::over`] (nothing is copied).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The shared handle to the token table, for consumers that want to
    /// keep it alive independently of the corpus.
    pub fn shared_interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// The token arena: each distinct row stored once, one row id per
    /// record.
    pub fn arena(&self) -> &TokenArena {
        &self.arena
    }

    /// Returns a new corpus containing only the messages at `indices`
    /// (in the given order). Useful for the paper's 2 000-message samples.
    /// The token table and the stored rows are shared; row ids and line
    /// numbers are copied.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Corpus {
        let arena = self.arena.select(indices.iter().copied());
        Corpus {
            lines: LineNumbers::Listed(indices.iter().map(|&i| self.line_no(i)).collect()),
            arena,
            interner: Arc::clone(&self.interner),
        }
    }

    /// Returns a new corpus holding the contiguous `range` of messages.
    /// Used by the parallel driver to hand each worker its chunk; the
    /// token table and the stored rows are shared (no string or row
    /// copied); row ids are copied.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `self.len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Corpus {
        let arena = self.arena.select(range.clone());
        Corpus {
            lines: match &self.lines {
                LineNumbers::From(first) => LineNumbers::From(first + range.start),
                LineNumbers::Listed(listed) => LineNumbers::Listed(listed[range.clone()].to_vec()),
            },
            arena,
            interner: Arc::clone(&self.interner),
        }
    }

    /// Returns a corpus truncated to the first `n` messages (or a clone of
    /// the whole corpus when `n >= len`). Used by the Fig. 2/3 size sweeps.
    pub fn take(&self, n: usize) -> Corpus {
        self.slice(0..n.min(self.len()))
    }
}

impl PartialEq for Corpus {
    /// Corpora compare by *content*: equal line numbers and equal token
    /// text. Symbol ids are representation — a corpus loaded from a file
    /// equals one built from the same lines, and a slice shares its
    /// parent's (larger) interner, so rows are compared resolved unless
    /// the two corpora share one table.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() || !self.line_numbers().eq(other.line_numbers()) {
            return false;
        }
        if Arc::ptr_eq(&self.interner, &other.interner) {
            return self.arena == other.arena;
        }
        self.arena.rows() == other.arena.rows()
            && (0..self.arena.rows()).all(|i| {
                let (a, b) = (self.arena.row(i), other.arena.row(i));
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(&x, &y)| self.interner.resolve(x) == other.interner.resolve(y))
            })
    }
}

impl Eq for Corpus {}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::from_lines(["alpha beta", "alpha gamma", "delta epsilon zeta"])
    }

    #[test]
    fn from_lines_assigns_sequential_line_numbers() {
        let c = corpus();
        assert_eq!(c.line_no(0), 1);
        assert_eq!(c.line_no(2), 3);
    }

    #[test]
    #[should_panic(expected = "record 3 of 3")]
    fn a_line_number_past_the_end_panics() {
        corpus().line_no(3);
    }

    #[test]
    fn from_lines_keeps_blank_lines() {
        let c = Corpus::from_lines(["a   b\t\tc", "", "  ", "b"]);
        assert_eq!(c.len(), 4);
        // A whitespace run yields no empty token, a blank line an empty row.
        assert_eq!(c.tokens(0), ["a", "b", "c"]);
        assert!(c.symbols(1).is_empty());
        assert!(c.symbols(2).is_empty());
        assert_eq!(c.line_no(3), 4);
    }

    #[test]
    fn from_lines_splits_at_every_unicode_space() {
        let c = Corpus::from_lines([
            "PacketResponder 1 for block blk_1 terminating",
            "src: a=1,\u{a0}[b]\u{3000}c\u{85}d",
        ]);
        assert_eq!(
            c.tokens(0),
            [
                "PacketResponder",
                "1",
                "for",
                "block",
                "blk_1",
                "terminating"
            ]
        );
        // Punctuation and `=` stay inside their token.
        assert_eq!(c.tokens(1), ["src:", "a=1,", "[b]", "c", "d"]);
    }

    #[test]
    fn symbols_share_ids_for_repeated_tokens() {
        let c = corpus();
        assert_eq!(c.symbols(0)[0], c.symbols(1)[0], "`alpha` interned once");
        assert_ne!(c.symbols(0)[1], c.symbols(1)[1]);
        assert_eq!(c.interner().resolve(c.symbols(2)[2]), "zeta");
        assert_eq!(c.arena().token_count(), 7);
    }

    #[test]
    fn select_preserves_order_and_duplicates() {
        let c = corpus();
        let s = c.select(&[2, 0, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.tokens(0), &["delta", "epsilon", "zeta"]);
        assert_eq!(s.tokens(1), s.tokens(2));
    }

    #[test]
    fn slice_returns_contiguous_sub_corpus() {
        let c = corpus();
        let s = c.slice(1..3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.tokens(0), &["alpha", "gamma"]);
        assert_eq!(s.tokens(1), &["delta", "epsilon", "zeta"]);
        assert!(c.slice(0..0).is_empty());
        assert_eq!(c.slice(0..c.len()), c);
    }

    #[test]
    fn slices_share_the_token_table() {
        let c = corpus();
        let s = c.slice(1..3);
        assert!(Arc::ptr_eq(&c.shared_interner(), &s.shared_interner()));
        // Symbols are comparable across parent and slice.
        assert_eq!(s.symbols(0), c.symbols(1));
    }

    #[test]
    fn equality_is_content_equality_across_distinct_interners() {
        let c = corpus();
        let rebuilt = Corpus::from_lines(["alpha beta", "alpha gamma", "delta epsilon zeta"]);
        assert_eq!(c, rebuilt);
        // A slice's interner is the parent's full table, a fresh build's
        // is minimal — still equal by content. Line numbers are content:
        // the fresh build's records are lines 2 and 3 only once selected.
        let s = c.slice(1..3);
        let fresh = Corpus::from_lines(["", "alpha gamma", "delta epsilon zeta"]);
        assert_eq!(s.interner().len(), 6);
        assert_eq!(fresh.interner().len(), 5);
        assert_ne!(s, fresh);
        assert_eq!(s, fresh.select(&[1, 2]));
        assert_ne!(s, Corpus::from_lines(["alpha gamma", "delta epsilon zeta"]));
        assert_ne!(c, fresh);
    }

    #[test]
    fn take_clamps_to_length() {
        let c = corpus();
        assert_eq!(c.take(100).len(), 3);
        assert_eq!(c.take(1).len(), 1);
        assert!(c.take(0).is_empty());
    }

    #[test]
    fn from_bytes_matches_from_lines() {
        let bytes = b"alpha beta\n\nalpha gamma\n".to_vec();
        let zero_copy = Corpus::from_bytes(bytes.clone(), &Preprocessor::identity(), 1).unwrap();
        let owned = Corpus::from_lines(["alpha beta", "alpha gamma"]);
        assert_eq!(zero_copy, owned);
        assert_eq!(zero_copy.line_no(1), 2);
        assert_eq!(zero_copy.tokens(1), ["alpha", "gamma"]);
        // Bit-identical representation, not just content equality.
        assert_eq!(zero_copy.symbols(1), owned.symbols(1));
        assert_eq!(zero_copy.interner().len(), owned.interner().len());
        let read = Corpus::from_reader(&bytes[..], &Preprocessor::identity()).unwrap();
        assert_eq!(read, owned);
        assert_eq!(read.symbols(1), owned.symbols(1));
    }

    #[test]
    fn slice_and_select_keep_line_numbers() {
        let c =
            Corpus::from_bytes(b"a b\nc d\ne f\n".to_vec(), &Preprocessor::identity(), 1).unwrap();
        let s = c.slice(1..3);
        assert_eq!(s.tokens(0), ["c", "d"]);
        assert_eq!(s.line_no(0), 2, "slices keep original line numbers");
        let sel = c.select(&[2, 0]);
        assert_eq!(sel.tokens(0), ["e", "f"]);
        assert_eq!(sel.line_no(1), 1);
    }

    #[test]
    fn line_numbers_follow_records_through_slice_and_select() {
        let nine = Corpus::from_lines((1..=9).map(|n| format!("line {n}")));
        let listed = nine.select(&[8, 3, 6, 4]);
        let numbers = |c: &Corpus| c.line_numbers().collect::<Vec<_>>();
        assert_eq!(numbers(&listed), [9, 4, 7, 5]);
        assert_eq!(numbers(&listed.slice(1..3)), [4, 7]);
        assert_eq!(numbers(&listed.select(&[3, 0])), [5, 9]);
        let run =
            Corpus::from_bytes(b"a\n\nb\nc\nd\n".to_vec(), &Preprocessor::identity(), 1).unwrap();
        assert_eq!(numbers(&run.slice(1..4)), [2, 3, 4]);
        assert_eq!(numbers(&run.slice(1..4).slice(1..3)), [3, 4]);
        assert_eq!(numbers(&run.slice(1..4).select(&[2, 0])), [4, 2]);
        assert_eq!(numbers(&run.select(&[3, 1]).slice(1..2)), [2]);
    }
}
