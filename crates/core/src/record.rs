use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Histogram, Registry};

use crate::error::ParseError;
use crate::intern::{Interner, Symbol, TokenArena};
use crate::loader::LineBuffer;
use crate::preprocess::Preprocessor;
use crate::Tokenizer;

/// A single raw log message.
///
/// Only the free-text *content* field participates in parsing, matching the
/// paper's setup ("only the parts of free-text log message contents are
/// used in evaluating the log parsing methods"); the timestamp is carried
/// through to the structured output untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// 1-based position of the message in its source file.
    pub line_no: usize,
    /// Raw timestamp text, if the source format carried one.
    pub timestamp: Option<String>,
    /// Free-text message content (the part that is parsed).
    pub content: String,
}

impl LogRecord {
    /// Creates a record with content only (no timestamp).
    pub fn new(line_no: usize, content: impl Into<String>) -> Self {
        LogRecord {
            line_no,
            timestamp: None,
            content: content.into(),
        }
    }

    /// Creates a record carrying a timestamp.
    pub fn with_timestamp(
        line_no: usize,
        timestamp: impl Into<String>,
        content: impl Into<String>,
    ) -> Self {
        LogRecord {
            line_no,
            timestamp: Some(timestamp.into()),
            content: content.into(),
        }
    }
}

/// A borrowed view of one record, independent of how the corpus stores
/// it (owned strings or byte ranges into a shared buffer).
///
/// This is what [`Corpus::record`] and [`Corpus::records`] hand out.
/// Call [`to_owned`](RecordRef::to_owned) when an owned [`LogRecord`]
/// is genuinely needed (it allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// 1-based position of the message in its source file.
    pub line_no: usize,
    /// Raw timestamp text, if the source format carried one.
    pub timestamp: Option<&'a str>,
    /// Free-text message content (the part that is parsed). Always the
    /// raw text: masking ([`crate::Preprocessor`]) replaces tokens in
    /// the corpus's symbol rows, never here, so the variables a
    /// placeholder stands for stay available to structured output.
    pub content: &'a str,
}

impl RecordRef<'_> {
    /// Materializes an owned record (allocates).
    pub fn to_owned(&self) -> LogRecord {
        LogRecord {
            line_no: self.line_no,
            timestamp: self.timestamp.map(str::to_owned),
            content: self.content.to_owned(),
        }
    }
}

/// Byte range of one kept line in a shared [`LineBuffer`], plus its
/// assigned line number (kept-line index + 1 at build; preserved
/// verbatim by [`Corpus::slice`] / [`Corpus::select`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) line_no: usize,
}

/// Record storage: either materialized strings (the classic
/// [`Corpus::from_lines`] path, and any path that carries timestamps)
/// or byte-range views into the zero-copy loader's single buffer.
#[derive(Debug, Clone)]
enum Records {
    Owned(Vec<LogRecord>),
    Mapped {
        buffer: Arc<LineBuffer>,
        spans: Vec<Span>,
    },
}

impl Default for Records {
    fn default() -> Self {
        Records::Owned(Vec::new())
    }
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
/// Two construction families exist:
///
/// * [`from_lines`](Corpus::from_lines) / [`from_records`](Corpus::from_records)
///   — owned strings in, one `LogRecord` per message;
/// * [`from_path`](Corpus::from_path) / [`from_bytes`](Corpus::from_bytes)
///   — the zero-copy loader ([`crate::loader`]): one mmap'd or owned
///   buffer, records as byte-range views, tokens interned straight into
///   the arena. Output is bit-identical to reading the same file with
///   [`crate::read_lines`] and calling `from_lines`. Its
///   [`from_path_masked`](Corpus::from_path_masked) /
///   [`from_bytes_masked`](Corpus::from_bytes_masked) variants apply a
///   [`Preprocessor`]'s rules to each token before it is interned.
///
/// The interner is shared behind an `Arc`: [`slice`](Corpus::slice),
/// [`select`](Corpus::select) and [`take`](Corpus::take) copy symbol
/// rows (plain `u32` memcpy) and reuse the parent's table, which is how
/// parallel chunk workers avoid cloning token strings.
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, Tokenizer};
///
/// let corpus = Corpus::from_lines(["a b c", "a b d"], &Tokenizer::default());
/// assert_eq!(corpus.len(), 2);
/// assert_eq!(corpus.tokens(1), &["a", "b", "d"]);
/// // "a" and "b" are shared symbols; "c" and "d" differ.
/// assert_eq!(corpus.symbols(0)[..2], corpus.symbols(1)[..2]);
/// assert_ne!(corpus.symbols(0)[2], corpus.symbols(1)[2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    records: Records,
    arena: TokenArena,
    interner: Arc<Interner>,
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
        Corpus {
            records: Records::Owned(Vec::new()),
            arena: TokenArena::new(),
            interner: Arc::new(Interner::new()),
        }
    }

    /// Builds a corpus from raw content lines, tokenizing each with
    /// `tokenizer`. Line numbers are assigned sequentially from 1.
    pub fn from_lines<I, S>(lines: I, tokenizer: &Tokenizer) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let registry = logparse_obs::global();
        let (time_hist, size_hist) = intern_histograms(registry);
        let span = registry.span_into(time_hist, "core_intern_build", &[]);
        let mut records = Vec::new();
        let mut interner = Interner::new();
        let mut arena = TokenArena::new();
        for (idx, line) in lines.into_iter().enumerate() {
            let content = line.as_ref();
            arena.push_row(tokenizer.tokenize_interned(content, &mut interner));
            records.push(LogRecord::new(idx + 1, content));
        }
        span.finish();
        size_hist.observe(arena.token_count() as f64);
        Corpus {
            records: Records::Owned(records),
            arena,
            interner: Arc::new(interner),
        }
    }

    /// Builds a corpus from pre-constructed records.
    pub fn from_records<I>(records: I, tokenizer: &Tokenizer) -> Self
    where
        I: IntoIterator<Item = LogRecord>,
    {
        let registry = logparse_obs::global();
        let (time_hist, size_hist) = intern_histograms(registry);
        let span = registry.span_into(time_hist, "core_intern_build", &[]);
        let records: Vec<LogRecord> = records.into_iter().collect();
        let mut interner = Interner::new();
        let mut arena = TokenArena::new();
        for record in &records {
            arena.push_row(tokenizer.tokenize_interned(&record.content, &mut interner));
        }
        span.finish();
        size_hist.observe(arena.token_count() as f64);
        Corpus {
            records: Records::Owned(records),
            arena,
            interner: Arc::new(interner),
        }
    }

    /// Builds a corpus from a log file with the zero-copy loader: the
    /// file is mmap'd (or read once into a single buffer when mapping
    /// is unavailable), scanned with the SWAR line/token scanner, and
    /// interned directly into the token arena — no per-line `String`,
    /// no per-row `Vec`. Blank lines are skipped per the contract on
    /// [`crate::read_lines`]; output is bit-identical to
    /// `Corpus::from_lines(read_lines(File::open(path)?)?, tokenizer)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when the file cannot be opened or
    /// read, or when a line is not valid UTF-8.
    pub fn from_path(path: impl AsRef<Path>, tokenizer: &Tokenizer) -> Result<Corpus, ParseError> {
        Corpus::from_path_masked(path, tokenizer, &Preprocessor::identity(), 1)
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
        tokenizer: &Tokenizer,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        Corpus::from_path_masked(path, tokenizer, &Preprocessor::identity(), threads)
    }

    /// Builds a corpus from an in-memory buffer (e.g. stdin read to
    /// end) with the zero-copy loader. Semantics match
    /// [`from_path`](Corpus::from_path); the buffer is owned by the
    /// corpus, records are views into it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] when a line is not valid UTF-8.
    pub fn from_bytes(bytes: Vec<u8>, tokenizer: &Tokenizer) -> Result<Corpus, ParseError> {
        Corpus::from_bytes_masked(bytes, tokenizer, &Preprocessor::identity(), 1)
    }

    /// [`from_bytes`](Corpus::from_bytes) with the chunked-parallel
    /// build (see [`from_path_parallel`](Corpus::from_path_parallel)).
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](Corpus::from_bytes).
    pub fn from_bytes_parallel(
        bytes: Vec<u8>,
        tokenizer: &Tokenizer,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        Corpus::from_bytes_masked(bytes, tokenizer, &Preprocessor::identity(), threads)
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
        tokenizer: &Tokenizer,
        preprocessor: &Preprocessor,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_path(path.as_ref(), tokenizer, preprocessor, threads)
    }

    /// [`from_path_masked`](Corpus::from_path_masked) over an in-memory
    /// buffer (e.g. stdin read to end).
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](Corpus::from_bytes).
    pub fn from_bytes_masked(
        bytes: Vec<u8>,
        tokenizer: &Tokenizer,
        preprocessor: &Preprocessor,
        threads: usize,
    ) -> Result<Corpus, ParseError> {
        crate::loader::corpus_from_bytes(bytes, tokenizer, preprocessor, threads)
    }

    /// Assembles a zero-copy corpus from loader output.
    pub(crate) fn assemble_mapped(
        buffer: Arc<LineBuffer>,
        spans: Vec<Span>,
        arena: TokenArena,
        interner: Arc<Interner>,
    ) -> Corpus {
        Corpus {
            records: Records::Mapped { buffer, spans },
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
            records: self.records.clone(),
            arena,
            interner: Arc::new(interner),
        }
    }

    /// Number of messages in the corpus.
    pub fn len(&self) -> usize {
        match &self.records {
            Records::Owned(records) => records.len(),
            Records::Mapped { spans, .. } => spans.len(),
        }
    }

    /// Returns `true` when the corpus holds no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at `index`, as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn record(&self, index: usize) -> RecordRef<'_> {
        match &self.records {
            Records::Owned(records) => {
                let r = &records[index];
                RecordRef {
                    line_no: r.line_no,
                    timestamp: r.timestamp.as_deref(),
                    content: &r.content,
                }
            }
            Records::Mapped { buffer, spans } => {
                let span = spans[index];
                RecordRef {
                    line_no: span.line_no,
                    timestamp: None,
                    // Validated at build (ASCII-classified by the
                    // scanner or UTF-8-checked on the slow path).
                    content: std::str::from_utf8(&buffer[span.start..span.end]).unwrap_or(""),
                }
            }
        }
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
    /// resolve here; parsers that need a private extendable table clone
    /// it (cheap: refcount bumps).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The shared handle to the token table, for consumers that want to
    /// keep it alive independently of the corpus.
    pub fn shared_interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// The flat token arena (all rows, CSR layout).
    pub fn arena(&self) -> &TokenArena {
        &self.arena
    }

    /// Iterates over the records as borrowed views.
    pub fn records(&self) -> impl ExactSizeIterator<Item = RecordRef<'_>> {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// Returns a new corpus containing only the messages at `indices`
    /// (in the given order). Useful for the paper's 2 000-message samples.
    /// The token table is shared, symbol rows are copied (and a
    /// zero-copy corpus shares its backing buffer).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Corpus {
        let records = match &self.records {
            Records::Owned(records) => {
                Records::Owned(indices.iter().map(|&i| records[i].clone()).collect())
            }
            Records::Mapped { buffer, spans } => Records::Mapped {
                buffer: Arc::clone(buffer),
                spans: indices.iter().map(|&i| spans[i]).collect(),
            },
        };
        let mut arena = TokenArena::new();
        for &i in indices {
            arena.push_row(self.arena.row(i).iter().copied());
        }
        Corpus {
            records,
            arena,
            interner: Arc::clone(&self.interner),
        }
    }

    /// Returns a new corpus holding the contiguous `range` of messages.
    /// Used by the parallel driver to hand each worker its chunk; the
    /// token table is shared (no string cloning), symbol rows are copied.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `self.len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Corpus {
        let mut arena = TokenArena::new();
        for i in range.clone() {
            arena.push_row(self.arena.row(i).iter().copied());
        }
        let records = match &self.records {
            Records::Owned(records) => Records::Owned(records[range].to_vec()),
            Records::Mapped { buffer, spans } => Records::Mapped {
                buffer: Arc::clone(buffer),
                spans: spans[range].to_vec(),
            },
        };
        Corpus {
            records,
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
    /// text. Symbol ids and record storage are representation — a
    /// zero-copy corpus equals the owned corpus with the same lines,
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
        Corpus::from_lines(
            ["alpha beta", "alpha gamma", "delta epsilon zeta"],
            &Tokenizer::default(),
        )
    }

    #[test]
    fn from_lines_assigns_sequential_line_numbers() {
        let c = corpus();
        assert_eq!(c.record(0).line_no, 1);
        assert_eq!(c.record(2).line_no, 3);
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
        let rebuilt = Corpus::from_lines(
            ["alpha beta", "alpha gamma", "delta epsilon zeta"],
            &Tokenizer::default(),
        );
        assert_eq!(c, rebuilt);
        // A slice's interner is the parent's full table, a fresh build's
        // is minimal — still equal by content. (Records carry their
        // original line numbers, so the fresh build replays them.)
        let s = c.slice(1..3);
        let fresh = Corpus::from_records(
            [
                LogRecord::new(2, "alpha gamma"),
                LogRecord::new(3, "delta epsilon zeta"),
            ],
            &Tokenizer::default(),
        );
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
        let t = Tokenizer::default();
        let c = Corpus::from_records(
            [LogRecord::with_timestamp(
                7,
                "2008-11-11 03:40:58",
                "Receiving block blk_1",
            )],
            &t,
        );
        assert_eq!(c.record(0).timestamp, Some("2008-11-11 03:40:58"));
        assert_eq!(c.tokens(0), &["Receiving", "block", "blk_1"]);
    }

    #[test]
    fn from_bytes_matches_from_lines() {
        let t = Tokenizer::default();
        let zero_copy = Corpus::from_bytes(b"alpha beta\n\nalpha gamma\n".to_vec(), &t).unwrap();
        let owned = Corpus::from_lines(["alpha beta", "alpha gamma"], &t);
        assert_eq!(zero_copy, owned);
        assert_eq!(zero_copy.record(1).line_no, 2);
        assert_eq!(zero_copy.record(1).content, "alpha gamma");
        assert_eq!(zero_copy.record(1).timestamp, None);
        // Bit-identical representation, not just content equality.
        assert_eq!(zero_copy.symbols(1), owned.symbols(1));
        assert_eq!(zero_copy.interner().len(), owned.interner().len());
    }

    #[test]
    fn zero_copy_slice_and_select_share_the_buffer() {
        let t = Tokenizer::default();
        let c = Corpus::from_bytes(b"a b\nc d\ne f\n".to_vec(), &t).unwrap();
        let s = c.slice(1..3);
        assert_eq!(s.record(0).content, "c d");
        assert_eq!(s.record(0).line_no, 2, "slices keep original line numbers");
        let sel = c.select(&[2, 0]);
        assert_eq!(sel.record(0).content, "e f");
        assert_eq!(sel.record(1).line_no, 1);
    }

    #[test]
    fn record_to_owned_round_trips() {
        let c = corpus();
        let owned = c.record(1).to_owned();
        assert_eq!(
            owned,
            LogRecord {
                line_no: 2,
                timestamp: None,
                content: "alpha gamma".into()
            }
        );
    }
}
