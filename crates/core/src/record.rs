use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Histogram, Registry};

use crate::error::ParseError;
use crate::intern::{Interner, Symbol, TokenArena};
use crate::loader::LineBuffer;
use crate::preprocess::Preprocessor;

/// A single raw log message.
///
/// Only the free-text *content* field participates in parsing, matching the
/// paper's setup ("only the parts of free-text log message contents are
/// used in evaluating the log parsing methods").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// 1-based position of the message in its source file.
    pub line_no: usize,
    /// Free-text message content (the part that is parsed).
    pub content: String,
}

impl LogRecord {
    /// Creates a record.
    pub fn new(line_no: usize, content: impl Into<String>) -> Self {
        LogRecord {
            line_no,
            content: content.into(),
        }
    }
}

/// A borrowed view of one record: a line number and a byte range of the
/// corpus's buffer.
///
/// This is what [`Corpus::record`] and [`Corpus::records`] hand out.
/// Call [`to_owned`](RecordRef::to_owned) when an owned [`LogRecord`]
/// is genuinely needed (it allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// 1-based position of the message in its source file.
    pub line_no: usize,
    /// Free-text message content (the part that is parsed). Always the
    /// raw text: masking ([`crate::Preprocessor`]) replaces tokens in
    /// the corpus's symbol rows, never here, so the variables a
    /// placeholder stands for stay available to structured output.
    pub content: &'a str,
}

impl RecordRef<'_> {
    /// Materializes an owned record (allocates).
    pub fn to_owned(&self) -> LogRecord {
        LogRecord::new(self.line_no, self.content)
    }
}

/// Byte range of one kept line in a shared [`LineBuffer`]: 12 bytes a
/// record (a 64-bit start for files past 4 GiB, a 32-bit length), which
/// is why a single line stops short of 4 GiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub(crate) struct Span {
    start: u64,
    len: u32,
}

impl Span {
    /// The span of bytes `start..end`.
    ///
    /// # Errors
    ///
    /// `InvalidData`, naming `start`, when the line is 4 GiB or longer.
    #[inline]
    pub(crate) fn new(start: usize, end: usize) -> Result<Span, ParseError> {
        match u32::try_from(end - start) {
            Ok(len) => Ok(Span {
                start: start as u64,
                len,
            }),
            Err(_) => Err(ParseError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line at byte offset {start} is 4 GiB or longer"),
            ))),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// The line numbers of a corpus's records. Every loader-built corpus
/// numbers its kept lines consecutively, and so does every contiguous
/// slice of one, so only a hand-picked selection stores them.
#[derive(Debug, Clone)]
enum LineNumbers {
    /// Record `i` is line `first + i`.
    From(usize),
    /// Record `i` is line `listed[i]` ([`Corpus::select`],
    /// [`Corpus::from_records`]).
    Listed(Vec<usize>),
}

/// An in-memory log corpus: raw records plus their interned tokenizations.
///
/// A `Corpus` is what parsers consume. Tokenization *and interning*
/// happen once at construction: every distinct token string is mapped to
/// a dense [`Symbol`] and the rows live in one flat [`TokenArena`], so
/// the (potentially many) parser runs of an evaluation sweep share both
/// the split work and the integer token representation. Parsers read
/// [`symbols`](Corpus::symbols) on their hot paths and resolve through
/// [`interner`](Corpus::interner) only when rendering output;
/// [`tokens`](Corpus::tokens) remains as the resolved string view.
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
/// Storage is one shape however the corpus was built: a single shared
/// byte buffer and one `(start, length)` span per record into it; line
/// numbers are the first one plus the index unless records were picked
/// by hand.
/// There are two ways in:
///
/// * [`from_path`](Corpus::from_path) / [`from_bytes`](Corpus::from_bytes)
///   — a log file or stream, through the `loader` module: the buffer is
///   the mmap'd file (or the bytes as given), blank lines are skipped,
///   tokens are interned straight into the arena.
///   [`from_path_masked`](Corpus::from_path_masked) and `from_bytes`
///   apply a [`Preprocessor`]'s rules to each token before it is
///   interned.
/// * [`from_lines`](Corpus::from_lines) / [`from_records`](Corpus::from_records)
///   — lines already in memory (dataset generators, tests): every line
///   is kept, blank ones included, so caller-side arrays stay
///   index-aligned; the lines are copied into one owned buffer and
///   split by `str::split_whitespace`, the rule's char-level statement.
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
    buffer: Arc<LineBuffer>,
    spans: Vec<Span>,
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
        Corpus::assemble_mapped(
            Arc::new(LineBuffer::Owned(Vec::new())),
            Vec::new(),
            1,
            TokenArena::new(),
            Arc::new(Interner::new()),
        )
    }

    /// Builds a corpus from raw content lines, splitting each at char
    /// level. Every line becomes a record (blank lines too) and line
    /// numbers are assigned sequentially from 1.
    ///
    /// # Panics
    ///
    /// Panics if a single line is 4 GiB or longer.
    pub fn from_lines<I, S>(lines: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Corpus::from_contents(lines.into_iter())
    }

    /// Builds a corpus from pre-constructed records, keeping their line
    /// numbers.
    ///
    /// # Panics
    ///
    /// Panics if a single record's content is 4 GiB or longer.
    pub fn from_records<I>(records: I) -> Self
    where
        I: IntoIterator<Item = LogRecord>,
    {
        let mut numbers = Vec::new();
        let contents = records.into_iter().map(|record| {
            numbers.push(record.line_no);
            record.content
        });
        let mut corpus = Corpus::from_contents(contents);
        corpus.lines = LineNumbers::Listed(numbers);
        corpus
    }

    /// The body of [`from_lines`](Corpus::from_lines) and
    /// [`from_records`](Corpus::from_records), numbering from 1: appends
    /// each line's bytes to one owned buffer and splits it with
    /// `split_whitespace` — not the loader's byte scanner, which the
    /// differential suite checks against this path.
    fn from_contents<S: AsRef<str>>(lines: impl Iterator<Item = S>) -> Self {
        let registry = logparse_obs::global();
        let (time_hist, size_hist) = intern_histograms(registry);
        let span = registry.span_into(time_hist, "core_intern_build", &[]);
        let mut bytes = Vec::new();
        let mut spans = Vec::new();
        let mut interner = Interner::new();
        let mut arena = TokenArena::new();
        for line in lines {
            let content = line.as_ref();
            arena.push_row(
                content
                    .split_whitespace()
                    .map(|token| interner.intern(token)),
            );
            let start = bytes.len();
            bytes.extend_from_slice(content.as_bytes());
            match Span::new(start, bytes.len()) {
                Ok(kept) => spans.push(kept),
                Err(e) => panic!("{e}"),
            }
        }
        span.finish();
        size_hist.observe(arena.token_count() as f64);
        Corpus::assemble_mapped(
            Arc::new(LineBuffer::Owned(bytes)),
            spans,
            1,
            arena,
            Arc::new(interner),
        )
    }

    /// Builds a corpus from a log file with the zero-copy loader: the
    /// file is mmap'd (or read once into a single buffer when mapping
    /// is unavailable), scanned with the SWAR line/token scanner, and
    /// interned directly into the token arena — no per-line `String`,
    /// no per-row `Vec`. A line is skipped iff every byte of it is ASCII
    /// whitespace (the skip-blank contract in the `simd` module); output
    /// is bit-identical to [`from_lines`](Corpus::from_lines) over the
    /// remaining `BufRead::lines` of the file.
    ///
    /// The [`Tokenizer`] is accepted and ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when the file cannot be opened or
    /// read, or when a line is not valid UTF-8.
    pub fn from_path(path: impl AsRef<Path>, _tokenizer: &Tokenizer) -> Result<Corpus, ParseError> {
        Corpus::from_path_masked(path, &Preprocessor::identity(), 1)
    }

    /// [`from_path`](Corpus::from_path) with a chunked-parallel build:
    /// the buffer is split at newline boundaries into up to `threads`
    /// chunks, each scanned on its own thread, and the chunk outputs
    /// merged in order. The result is bit-identical to the sequential
    /// build (symbol ids included). Small inputs build sequentially.
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
    /// included) to `preprocessor.apply(&Corpus::from_path(..)?)`:
    /// tokens are masked, [`record`](Corpus::record) content is the raw
    /// line. A preprocessor without rules costs nothing.
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
    /// buffer (e.g. stdin read to end), which the corpus owns; records
    /// are views into it. [`Preprocessor::identity`] masks nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when a line is not valid UTF-8.
    pub fn from_bytes(
        bytes: Vec<u8>,
        preprocessor: &Preprocessor,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_bytes(bytes, preprocessor, threads)
    }

    /// Builds the corpus of one byte range of a log file — the kept
    /// lines of `bytes`, numbered from `lines_before + 1` — at the cost
    /// of that range alone: the file is mapped and only the range's
    /// pages are read (a file that cannot be mapped costs one seek and
    /// one read of the range and the byte before it). When `bytes` is a
    /// chunk of [`corpus_cuts`] and `lines_before` that chunk's first
    /// line index, the result equals
    /// `Corpus::from_path(path)?.slice(chunk)`: same records, same line
    /// numbers, same tokens (symbol ids are the range's own).
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

    /// Assembles a corpus from a buffer, the spans of its records —
    /// lines `first_line`, `first_line + 1`, … — and their token rows
    /// (one row per span).
    pub(crate) fn assemble_mapped(
        buffer: Arc<LineBuffer>,
        spans: Vec<Span>,
        first_line: usize,
        arena: TokenArena,
        interner: Arc<Interner>,
    ) -> Corpus {
        Corpus {
            buffer,
            spans,
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
            buffer: Arc::clone(&self.buffer),
            spans: self.spans.clone(),
            lines: self.lines.clone(),
            arena,
            interner: Arc::new(interner),
        }
    }

    /// Number of messages in the corpus.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` when the corpus holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at `index`, as a borrowed view. A corpus built from a
    /// mapped file released the mapping's pages as its build passed
    /// them, so the first read of a record after the build may fault its
    /// page back in from the file (the same bytes; a build reads none).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn record(&self, index: usize) -> RecordRef<'_> {
        RecordRef {
            line_no: self.line_no(index),
            // Validated at build (ASCII-classified by the scanner,
            // UTF-8-checked on its slow path, or copied from a `str`).
            content: std::str::from_utf8(&self.buffer[self.spans[index].range()]).unwrap_or(""),
        }
    }

    fn line_no(&self, index: usize) -> usize {
        match &self.lines {
            LineNumbers::From(first) => first + index,
            LineNumbers::Listed(listed) => listed[index],
        }
    }

    /// Every record's line number, without touching a record's bytes
    /// (the structured writer needs nothing else of the corpus).
    pub(crate) fn line_numbers(&self) -> impl Iterator<Item = usize> + '_ {
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

    /// Iterates over the records as borrowed views.
    pub fn records(&self) -> impl ExactSizeIterator<Item = RecordRef<'_>> {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// Returns a new corpus containing only the messages at `indices`
    /// (in the given order). Useful for the paper's 2 000-message samples.
    /// The token table, the stored rows and the backing buffer are
    /// shared; row ids and spans are copied.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Corpus {
        let arena = self.arena.select(indices.iter().copied());
        Corpus {
            buffer: Arc::clone(&self.buffer),
            spans: indices.iter().map(|&i| self.spans[i]).collect(),
            lines: LineNumbers::Listed(indices.iter().map(|&i| self.line_no(i)).collect()),
            arena,
            interner: Arc::clone(&self.interner),
        }
    }

    /// Returns a new corpus holding the contiguous `range` of messages.
    /// Used by the parallel driver to hand each worker its chunk; the
    /// token table, the stored rows and the backing buffer are shared
    /// (no string or row copied); row ids and spans are copied.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `self.len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Corpus {
        let arena = self.arena.select(range.clone());
        Corpus {
            buffer: Arc::clone(&self.buffer),
            lines: match &self.lines {
                LineNumbers::From(first) => LineNumbers::From(first + range.start),
                LineNumbers::Listed(listed) => LineNumbers::Listed(listed[range.clone()].to_vec()),
            },
            spans: self.spans[range].to_vec(),
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
    /// Corpora compare by *content*: equal records and equal token
    /// text. Symbol ids and buffer offsets are representation — a
    /// corpus loaded from a file equals one built from the same lines,
    /// and a slice shares its parent's (larger) interner, so rows are
    /// compared resolved unless the two corpora share one table.
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        if self.records().zip(other.records()).any(|(a, b)| a != b) {
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
        assert_eq!(c.record(0).line_no, 1);
        assert_eq!(c.record(2).line_no, 3);
    }

    #[test]
    fn from_lines_keeps_blank_lines() {
        let c = Corpus::from_lines(["a   b\t\tc", "", "  ", "b"]);
        assert_eq!(c.len(), 4);
        // A whitespace run yields no empty token, a blank line an empty row.
        assert_eq!(c.tokens(0), ["a", "b", "c"]);
        assert!(c.symbols(1).is_empty());
        assert!(c.symbols(2).is_empty());
        assert_eq!(c.record(2).content, "  ");
        assert_eq!(c.record(3).line_no, 4);
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
    fn tokens_align_with_records() {
        let c = corpus();
        assert_eq!(c.tokens(1), &["alpha", "gamma"]);
        assert_eq!(c.record(1).content, "alpha gamma");
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
        assert_eq!(s.record(1).content, "delta epsilon zeta");
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
        // is minimal — still equal by content. (Records carry their
        // original line numbers, so the fresh build replays them.)
        let s = c.slice(1..3);
        let fresh = Corpus::from_records([
            LogRecord::new(2, "alpha gamma"),
            LogRecord::new(3, "delta epsilon zeta"),
        ]);
        assert_eq!(s.interner().len(), 6);
        assert_eq!(fresh.interner().len(), 5);
        assert_eq!(s, fresh);
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
    fn from_records_tokenizes_content() {
        let c = Corpus::from_records([LogRecord::new(7, "Receiving block blk_1")]);
        assert_eq!(c.record(0).line_no, 7);
        assert_eq!(c.tokens(0), &["Receiving", "block", "blk_1"]);
    }

    #[test]
    fn from_bytes_matches_from_lines() {
        let zero_copy = Corpus::from_bytes(
            b"alpha beta\n\nalpha gamma\n".to_vec(),
            &Preprocessor::identity(),
            1,
        )
        .unwrap();
        let owned = Corpus::from_lines(["alpha beta", "alpha gamma"]);
        assert_eq!(zero_copy, owned);
        assert_eq!(zero_copy.record(1).line_no, 2);
        assert_eq!(zero_copy.record(1).content, "alpha gamma");
        // Bit-identical representation, not just content equality.
        assert_eq!(zero_copy.symbols(1), owned.symbols(1));
        assert_eq!(zero_copy.interner().len(), owned.interner().len());
    }

    #[test]
    fn zero_copy_slice_and_select_share_the_buffer() {
        let c =
            Corpus::from_bytes(b"a b\nc d\ne f\n".to_vec(), &Preprocessor::identity(), 1).unwrap();
        let s = c.slice(1..3);
        assert_eq!(s.record(0).content, "c d");
        assert_eq!(s.record(0).line_no, 2, "slices keep original line numbers");
        let sel = c.select(&[2, 0]);
        assert_eq!(sel.record(0).content, "e f");
        assert_eq!(sel.record(1).line_no, 1);
    }

    #[test]
    fn a_span_is_twelve_bytes_and_refuses_a_4_gib_line_by_offset() {
        assert_eq!(std::mem::size_of::<Span>(), 12);
        let far = 5usize << 32;
        let span = Span::new(far, far + u32::MAX as usize).unwrap();
        assert_eq!(span.range(), far..far + u32::MAX as usize);
        let error = Span::new(far, far + (1 << 32)).unwrap_err();
        assert!(matches!(&error, ParseError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData));
        assert_eq!(
            error.to_string(),
            format!("i/o error: line at byte offset {far} is 4 GiB or longer")
        );
    }

    #[test]
    fn line_numbers_follow_records_through_slice_and_select() {
        let records = [9, 4, 7, 5].map(|n| LogRecord::new(n, format!("line {n}")));
        let listed = Corpus::from_records(records);
        let numbers = |c: &Corpus| c.records().map(|r| r.line_no).collect::<Vec<_>>();
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

    #[test]
    fn record_to_owned_round_trips() {
        let c = corpus();
        let owned = c.record(1).to_owned();
        assert_eq!(
            owned,
            LogRecord {
                line_no: 2,
                content: "alpha gamma".into()
            }
        );
    }
}
