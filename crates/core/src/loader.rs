//! Zero-copy corpus construction: mmap'd (or whole-buffer) input, one
//! SWAR scan, arena-direct interning.
//!
//! This module is how a log file or stream becomes a [`Corpus`], behind
//! [`Corpus::from_path`] / [`Corpus::from_bytes`] — no `String` per
//! line, no `Vec<Symbol>` per row:
//!
//! 1. **Buffer** — the file is mapped read-only ([`crate::mmap`]); when
//!    mapping is unavailable (stdin, empty files, non-unix, a failing
//!    syscall) the bytes are read once into a single `Vec<u8>`. Either
//!    way there is exactly one buffer for the whole corpus, shared
//!    behind an `Arc` — records are byte-range views into it, never
//!    per-line strings.
//! 2. **Scan** — [`crate::simd::scan`] finds newline and token
//!    boundaries in one SWAR pass, a 64-byte block of bitmasks per
//!    step, flagging blank lines (all ASCII
//!    whitespace; skipped, per the skip-blank contract in
//!    [`crate::simd`]) and lines containing non-ASCII bytes.
//! 3. **Mask, then intern** — ASCII lines (the overwhelming majority
//!    of machine logs) hand each token slice to the build's
//!    [`Masker`]: a token a [`MaskRule`](crate::MaskRule) claims becomes
//!    the rule's fixed placeholder symbol and is never interned; every
//!    other token is interned straight into the open [`TokenArena`] row
//!    — one hash probe per token, no row vector. Without rules the
//!    masker is the zero-sized [`Identity`] and the step compiles away.
//!    Lines with high bytes take the checked slow path — UTF-8
//!    validation (the same `InvalidData` error `BufRead::lines`
//!    produces) and `split_whitespace`, for which U+00A0 or U+3000
//!    separates tokens as a space does — and mask per token the same
//!    way.
//!
//! The chunked-parallel build splits the buffer at newline boundaries,
//! scans each chunk with a thread-local interner/arena, then merges in
//! chunk order: each chunk's vocabulary is interned into the global
//! table in local-id order and its arena appended through the resulting
//! symbol remap. Because local ids are first-occurrence-ordered and
//! chunks merge in corpus order, the merged table assigns every token
//! the same id the sequential build would — the parallel corpus is
//! **bit-identical**, not merely equivalent (the differential suite
//! asserts this). Masking changes nothing here: a placeholder enters a
//! chunk's table at its first occurrence like any other token, so ids
//! are first-occurrence-ordered over the *masked* stream — the corpus
//! [`Preprocessor::apply`] derives from the unmasked build.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Counter, Histogram, Registry};

use crate::error::ParseError;
use crate::intern::{Interner, Symbol, TokenArena};
use crate::mmap::{ascii_str, Mapping};
use crate::parallel::ParallelDriver;
use crate::preprocess::{MaskRule, Preprocessor};
use crate::record::{Corpus, Span};
use crate::simd::{count_non_blank_lines, find_newline, kept_line_starts, scan, ScanSink};

/// The single backing buffer of a corpus: either a private read-only
/// mapping of the input file or bytes held in memory. Records reference
/// ranges of it.
#[derive(Debug)]
pub(crate) enum LineBuffer {
    /// Bytes owned in memory (stdin, fallback reads, `from_bytes`,
    /// `from_lines`).
    Owned(Vec<u8>),
    /// A read-only file mapping.
    Mapped(Mapping),
}

impl std::ops::Deref for LineBuffer {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            LineBuffer::Owned(bytes) => bytes,
            LineBuffer::Mapped(map) => map.bytes(),
        }
    }
}

/// Maps `file` when possible, otherwise reads it whole.
fn map_or_read(mut file: File) -> Result<LineBuffer, ParseError> {
    if let Some(map) = Mapping::of_file(&file) {
        return Ok(LineBuffer::Mapped(map));
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(LineBuffer::Owned(bytes))
}

/// The `InvalidData` error `BufRead::lines` produces for non-UTF-8
/// input; the zero-copy path reports byte-identical failures.
fn invalid_utf8() -> ParseError {
    ParseError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// What a build does with a token before interning it. A
/// generic parameter of the sink, so the unmasked build carries no
/// trace of it.
trait Masker: Copy + Send {
    /// The rules [`classify`](Masker::classify) indexes into.
    fn rules(&self) -> &[MaskRule];

    /// The first rule that claims `token`, if any.
    fn classify(&self, token: &[u8]) -> Option<usize>;
}

/// Masks nothing; every call folds to a constant.
#[derive(Clone, Copy)]
struct Identity;

impl Masker for Identity {
    fn rules(&self) -> &[MaskRule] {
        &[]
    }

    #[inline(always)]
    fn classify(&self, _token: &[u8]) -> Option<usize> {
        None
    }
}

impl Masker for &Preprocessor {
    fn rules(&self) -> &[MaskRule] {
        Preprocessor::rules(self)
    }

    #[inline]
    fn classify(&self, token: &[u8]) -> Option<usize> {
        Preprocessor::classify(self, token)
    }
}

/// One chunk's build output (the sequential build is the 1-chunk case).
struct ChunkOut {
    interner: Interner,
    arena: TokenArena,
    spans: Vec<Span>,
    /// Tokens each of the masker's rules replaced.
    masked: Vec<u64>,
}

/// The token rows under construction: mask-or-intern each token into
/// the open arena row.
struct Rows<M> {
    masker: M,
    interner: Interner,
    arena: TokenArena,
    /// Tokens each of the masker's rules replaced.
    masked: Vec<u64>,
}

impl<M: Masker> Rows<M> {
    fn new(masker: M) -> Rows<M> {
        Rows {
            masker,
            interner: Interner::new(),
            arena: TokenArena::new(),
            masked: vec![0; masker.rules().len()],
        }
    }

    #[inline(always)]
    fn push_token(&mut self, token: &str) {
        let symbol = match self.masker.classify(token.as_bytes()) {
            Some(rule) => {
                self.masked[rule] += 1;
                // Interned like any token, so ids stay first-occurrence-
                // ordered over the masked stream.
                self.interner.intern(self.masker.rules()[rule].tag())
            }
            None => self.interner.intern_inlined(token),
        };
        self.arena.push_symbol(symbol);
    }
}

/// The scan sink that performs arena-direct interning.
///
/// Token runs are staged as byte ranges in a reusable scratch vector
/// (never a per-row allocation); at each `line` event they are either
/// pushed straight into the arena row (pure-ASCII line — `ascii_str`
/// skips the UTF-8 walk the scanner already did) or discarded in favor
/// of the checked slow path (line with high bytes).
struct BuildSink<'a, M> {
    /// The chunk being scanned (a sub-slice of the full buffer).
    buf: &'a [u8],
    /// Absolute offset of `buf[0]` in the full buffer.
    base: usize,
    rows: Rows<M>,
    spans: Vec<Span>,
    /// Raw token runs of the line currently being scanned.
    scratch: Vec<(usize, usize)>,
}

impl<'a, M: Masker> BuildSink<'a, M> {
    fn new(buf: &'a [u8], base: usize, masker: M, lines_hint: usize) -> BuildSink<'a, M> {
        BuildSink {
            buf,
            base,
            rows: Rows::new(masker),
            spans: Vec::with_capacity(lines_hint),
            scratch: Vec::new(),
        }
    }

    fn into_out(self) -> ChunkOut {
        ChunkOut {
            interner: self.rows.interner,
            arena: self.rows.arena,
            spans: self.spans,
            masked: self.rows.masked,
        }
    }
}

impl<M: Masker> ScanSink for BuildSink<'_, M> {
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        self.scratch.push((start, end));
    }

    fn line(
        &mut self,
        start: usize,
        content_end: usize,
        blank: bool,
        has_high: bool,
    ) -> Result<(), ParseError> {
        if blank {
            return Ok(());
        }
        if has_high {
            self.scratch.clear();
            let content =
                std::str::from_utf8(&self.buf[start..content_end]).map_err(|_| invalid_utf8())?;
            for token in content.split_whitespace() {
                self.rows.push_token(token);
            }
        } else {
            for &(ts, te) in &self.scratch {
                self.rows.push_token(ascii_str(&self.buf[ts..te]));
            }
            self.scratch.clear();
        }
        self.rows.arena.finish_row();
        self.spans
            .push(Span::new(self.base + start, self.base + content_end)?);
        Ok(())
    }
}

/// Scans one byte range of the full buffer into a chunk-local output.
fn build_chunk<M: Masker>(
    bytes: &[u8],
    range: Range<usize>,
    masker: M,
) -> Result<ChunkOut, ParseError> {
    // ~40 bytes/line is typical machine-log density; the hint only
    // sizes the first allocation.
    let lines_hint = range.len() / 40 + 1;
    let mut sink = BuildSink::new(&bytes[range.clone()], range.start, masker, lines_hint);
    scan(&bytes[range], &mut sink)?;
    Ok(sink.into_out())
}

/// Splits `bytes` into up to `threads` ranges, each starting at a line
/// start (boundaries snap forward to just past the next newline).
fn chunk_byte_ranges(bytes: &[u8], threads: usize) -> Vec<Range<usize>> {
    // Below ~64 KiB the thread spawn/merge overhead dominates.
    if threads <= 1 || bytes.len() < 1 << 16 {
        return std::iter::once(0..bytes.len()).collect();
    }
    let ideal = ParallelDriver::chunk_ranges(bytes.len(), threads);
    let mut ranges = Vec::with_capacity(ideal.len());
    let mut start = 0usize;
    for r in &ideal[..ideal.len() - 1] {
        // Searching from `r.end - 1` keeps a boundary already sitting
        // just past a newline where it is.
        let end = match find_newline(bytes, r.end - 1) {
            Some(nl) => nl + 1,
            None => bytes.len(),
        };
        if end > start && end < bytes.len() {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges.push(start..bytes.len());
    ranges
}

/// Runs the per-chunk builds on scoped threads and merges in chunk
/// order. `None` means a worker died (panicked): the caller falls back
/// to the sequential build rather than guessing at partial output.
fn build_parallel<M: Masker>(
    bytes: &[u8],
    ranges: &[Range<usize>],
    masker: M,
) -> Option<Result<ChunkOut, ParseError>> {
    let mut slots: Vec<Option<Result<ChunkOut, ParseError>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let range = r.clone();
                scope.spawn(move || build_chunk(bytes, range, masker))
            })
            .collect();
        for (slot, handle) in slots.iter_mut().zip(handles) {
            *slot = handle.join().ok();
        }
    });

    let mut interner = Interner::new();
    let mut arena = TokenArena::new();
    let mut spans = Vec::new();
    let mut masked = vec![0u64; masker.rules().len()];
    let mut remap: Vec<Symbol> = Vec::new();
    for slot in slots {
        let chunk = match slot {
            Some(Ok(chunk)) => chunk,
            // Chunks merge in corpus order, so the first error seen is
            // the one the sequential build would have hit first.
            Some(Err(e)) => return Some(Err(e)),
            None => return None,
        };
        remap.clear();
        remap.extend((0..chunk.interner.len()).map(|id| {
            // Interning each chunk's vocabulary in local-id order is
            // what makes the merged table identical to the sequential
            // build's: local ids are first-occurrence-ordered, and
            // earlier chunks have already claimed every token that
            // first occurred before this chunk.
            interner.intern(chunk.interner.resolve(Symbol::from_id(id as u32)))
        }));
        arena.append_remapped(&chunk.arena, &remap);
        for (total, hits) in masked.iter_mut().zip(chunk.masked) {
            *total += hits;
        }
        spans.extend(chunk.spans);
    }
    Some(Ok(ChunkOut {
        interner,
        arena,
        spans,
        masked,
    }))
}

/// Resolves the corpus-build metric handles (one registry probe per
/// build; builds are rare relative to the lines they process).
fn build_metrics(registry: &Registry) -> (Histogram, Counter) {
    (
        registry.histogram(
            "core_corpus_build_seconds",
            "Time for a zero-copy corpus build (map/read + scan + intern)",
            &Buckets::durations(),
            &[],
        ),
        registry.counter(
            "core_corpus_build_lines_total",
            "Log lines materialized as records by zero-copy corpus builds",
            &[],
        ),
    )
}

/// Scans and interns `bytes` under one masker: chunk-parallel when the
/// input splits, sequential otherwise (and when a worker died).
fn build<M: Masker>(bytes: &[u8], masker: M, threads: usize) -> Result<ChunkOut, ParseError> {
    let ranges = chunk_byte_ranges(bytes, threads);
    if ranges.len() > 1 {
        if let Some(result) = build_parallel(bytes, &ranges, masker) {
            return result;
        }
    }
    build_chunk(bytes, 0..bytes.len(), masker)
}

/// The shared build entry: one buffer in, one corpus out. Tokens are
/// masked by `preprocessor` before they are interned; with no rules
/// the build is instantiated over [`Identity`] and masks nothing.
fn build_corpus(
    buffer: Arc<LineBuffer>,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    measured_build(buffer, preprocessor, 0, |bytes| {
        if preprocessor.rules().is_empty() {
            build(bytes, Identity, threads)
        } else {
            build(bytes, preprocessor, threads)
        }
    })
}

/// Runs `build` over `buffer` under the corpus-build span and counters
/// and wraps its output and the buffer into the corpus, whose lines are
/// numbered from `lines_before + 1`.
fn measured_build(
    buffer: Arc<LineBuffer>,
    preprocessor: &Preprocessor,
    lines_before: usize,
    build: impl FnOnce(&[u8]) -> Result<ChunkOut, ParseError>,
) -> Result<Corpus, ParseError> {
    let registry = logparse_obs::global();
    let (time_hist, lines_total) = build_metrics(registry);
    let span = registry.span_into(time_hist, "core_corpus_build", &[]);
    let out = build(&buffer)?;
    span.finish();
    lines_total.inc_by(out.spans.len() as u64);
    preprocessor.publish_masked(registry, &out.masked);
    Ok(Corpus::assemble_mapped(
        buffer,
        out.spans,
        lines_before + 1,
        out.arena,
        Arc::new(out.interner),
    ))
}

/// Implementation behind [`Corpus::from_path`] and its parallel and
/// masked variants.
pub(crate) fn corpus_from_path(
    path: &Path,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    let buffer = map_or_read(File::open(path)?)?;
    build_corpus(Arc::new(buffer), preprocessor, threads)
}

/// Implementation behind [`Corpus::from_bytes`].
pub(crate) fn corpus_from_bytes(
    bytes: Vec<u8>,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    build_corpus(Arc::new(LineBuffer::Owned(bytes)), preprocessor, threads)
}

/// Refuses a byte range that is not inside a file of `file_len` bytes.
fn check_range(range: &Range<usize>, file_len: usize) -> Result<(), ParseError> {
    if range.start <= range.end && range.end <= file_len {
        return Ok(());
    }
    Err(ParseError::InvalidConfig {
        parameter: "bytes",
        reason: format!(
            "range {}..{} is not inside a file of {file_len} byte(s)",
            range.start, range.end
        ),
    })
}

/// Builds the kept lines of bytes `range` of a file `file_len` long,
/// numbered from `lines_before + 1`. `buffer` holds the file from byte
/// `offset` on — at least from the byte before the range, which says
/// whether the range begins a line — and spans index into it.
fn build_range(
    buffer: LineBuffer,
    offset: usize,
    range: Range<usize>,
    file_len: usize,
    lines_before: usize,
) -> Result<Corpus, ParseError> {
    let local = range.start - offset..range.end - offset;
    let line_start = |at: usize| at == 0 || buffer[at - 1] == b'\n';
    if !line_start(local.start) || !(range.end == file_len || line_start(local.end)) {
        return Err(ParseError::InvalidConfig {
            parameter: "bytes",
            reason: format!(
                "range {}..{} does not start and end at a line start",
                range.start, range.end
            ),
        });
    }
    let unmasked = &Preprocessor::identity();
    measured_build(Arc::new(buffer), unmasked, lines_before, |bytes| {
        build_chunk(bytes, local, Identity)
    })
}

/// Implementation behind [`Corpus::from_path_range`]: the file is
/// mapped and only the range's pages are touched; a file that cannot be
/// mapped goes through [`corpus_from_reader_range`].
pub(crate) fn corpus_from_path_range(
    path: &Path,
    range: Range<usize>,
    lines_before: usize,
) -> Result<Corpus, ParseError> {
    let file = File::open(path)?;
    let Some(map) = Mapping::of_file(&file) else {
        return corpus_from_reader_range(file, range, lines_before);
    };
    let file_len = map.len();
    check_range(&range, file_len)?;
    let buffer = LineBuffer::Mapped(map);
    build_range(buffer, 0, range, file_len, lines_before)
}

/// [`corpus_from_path_range`] for a file that cannot be mapped: one seek
/// and one read of the range (and the byte before it), never the whole
/// input.
pub(crate) fn corpus_from_reader_range(
    mut reader: impl Read + Seek,
    range: Range<usize>,
    lines_before: usize,
) -> Result<Corpus, ParseError> {
    let file_len = usize::try_from(reader.seek(SeekFrom::End(0))?).unwrap_or(usize::MAX);
    check_range(&range, file_len)?;
    let offset = range.start.saturating_sub(1);
    reader.seek(SeekFrom::Start(offset as u64))?;
    let mut bytes = vec![0; range.end - offset];
    reader.read_exact(&mut bytes)?;
    let buffer = LineBuffer::Owned(bytes);
    build_range(buffer, offset, range, file_len, lines_before)
}

/// Where a corpus file splits into chunks of whole lines: what a job
/// coordinator writes into its manifest so that each worker builds its
/// own bytes and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCuts {
    /// Lines a corpus build would keep (as [`count_corpus_lines`]).
    pub lines: usize,
    /// Chunk `k` of [`ParallelDriver::chunk_ranges`]`(lines, chunks)` is
    /// the kept lines of bytes `cuts[k]..cuts[k + 1]`: the first cut is
    /// 0, the last the file's length, and each one between the offset at
    /// which its chunk's first kept line begins — so no cut splits a
    /// line, and the blank lines between two chunks go to the earlier.
    pub cuts: Vec<usize>,
}

/// Kept lines between two entries of the sparse index [`corpus_cuts`]
/// finds its cuts through: 8 bytes of coordinator memory per 1024
/// lines, and fewer than 1024 lines walked per cut.
const CUT_INDEX_STRIDE: usize = 1024;

/// Counts the kept lines of `path` and cuts it into `chunks` chunks in
/// one pass over one mmap/read: no interning, no record
/// materialization, no UTF-8 check.
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the file cannot be opened or read.
pub fn corpus_cuts(path: impl AsRef<Path>, chunks: usize) -> Result<CorpusCuts, ParseError> {
    let buffer = map_or_read(File::open(path.as_ref())?)?;
    Ok(cuts_through_index(&buffer, chunks, CUT_INDEX_STRIDE))
}

/// [`corpus_cuts`] of `buf`. The one pass counts the kept lines and
/// records where every `stride`-th begins; each chunk's first kept line
/// is then found by walking on from the index entry at or before it,
/// fewer than `stride` lines.
pub(crate) fn cuts_through_index(buf: &[u8], chunks: usize, stride: usize) -> CorpusCuts {
    let stride = stride.max(1);
    let mut index = Vec::new();
    let mut lines = 0usize;
    let mut until_entry = 0usize;
    for start in kept_line_starts(buf, 0) {
        if until_entry == 0 {
            index.push(start);
            until_entry = stride;
        }
        until_entry -= 1;
        lines += 1;
    }
    let mut cuts = vec![0];
    for chunk in ParallelDriver::chunk_ranges(lines, chunks)
        .into_iter()
        .skip(1)
    {
        let entry = index
            .get(chunk.start / stride)
            .copied()
            .unwrap_or(buf.len());
        let first = kept_line_starts(buf, entry).nth(chunk.start % stride);
        cuts.push(first.unwrap_or(buf.len()));
    }
    cuts.push(buf.len());
    CorpusCuts { lines, cuts }
}

/// Counts the lines of `path` a corpus build would keep (non-blank
/// lines, per the skip-blank contract in [`crate::simd`]) without
/// building anything: one mmap/read plus one walk from newline to
/// newline, no interning, no record materialization. ([`corpus_cuts`]
/// is this walk plus the byte offsets a job coordinator shards by.)
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the file cannot be opened or read.
pub fn count_corpus_lines(path: impl AsRef<Path>) -> Result<usize, ParseError> {
    let buffer = map_or_read(File::open(path.as_ref())?)?;
    Ok(count_non_blank_lines(&buffer))
}

/// The longest line, in bytes, a [`LineFramer`] delivers whole.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Bytes [`LineFramer::fill_from`] asks its reader for at a time.
const READ_CHUNK: usize = 64 << 10;

/// Lines a [`LineFramer`] repaired rather than delivered as sent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LineDamage {
    /// Lines holding invalid UTF-8, each bad sequence now U+FFFD.
    pub invalid_utf8: u64,
    /// Lines over [`MAX_LINE_BYTES`], delivered cut to that length.
    pub too_long: u64,
}

/// One line a [`LineFramer`] hands over, with what its scan saw of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramedLine<'a> {
    /// The line without its terminator, repaired if it had to be.
    pub text: &'a str,
    /// The first token of `text` under the scan's byte rule (a maximal
    /// run of bytes that are not ASCII whitespace, `\v` included); empty
    /// when the line holds none.
    pub first_token: &'a str,
    /// How many such tokens `text` holds.
    pub tokens: usize,
}

/// The streaming line cutter: bytes in as they arrive, lines out. Every
/// `logmine serve` entry point cuts its lines here and nowhere else,
/// under the stream column of DESIGN.md's *Line contract* table: blank
/// lines kept, one `\r` stripped before `\n`, a line decoded only once
/// complete, invalid UTF-8 and over-long lines repaired and counted,
/// never refused.
///
/// Callers [`pop_lines`](LineFramer::pop_lines) until it hands over
/// nothing, then [`fill_from`](LineFramer::fill_from) their reader; read
/// that way the framer holds one capped line plus one chunk at most,
/// whatever it is sent. The lines of one pop are borrowed from the
/// framer's buffer: every complete line it holds is UTF-8-checked and
/// scanned as one region, and only a line that fails the check or is
/// over the cap is copied, to be repaired.
#[derive(Debug, Default)]
pub struct LineFramer {
    /// `buf[head..end]` is undelivered input; the rest is spare room.
    buf: Vec<u8>,
    head: usize,
    end: usize,
    /// `buf[head..scanned]` is known to hold no `\n`.
    scanned: usize,
}

impl LineFramer {
    /// Appends one read of at most a chunk from `reader` and returns
    /// its size; `0` is the reader's end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `reader` returned, `Interrupted` retried.
    pub fn fill_from(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        // Undelivered input slides to the front, then exactly one chunk
        // of room opens behind it: the allocation is the bound above.
        self.buf.copy_within(self.head..self.end, 0);
        self.scanned -= self.head;
        self.end -= self.head;
        self.head = 0;
        let len = self.end + READ_CHUNK;
        self.buf.reserve_exact(len.saturating_sub(self.buf.len()));
        self.buf.resize(len, 0);
        let read = loop {
            match reader.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                result => break result?,
            }
        };
        self.end += read;
        Ok(read)
    }

    /// Hands every complete line held to `each`, in order, and returns
    /// how many; `0` until more bytes arrive.
    pub fn pop_lines(
        &mut self,
        damage: &mut LineDamage,
        each: impl FnMut(FramedLine<'_>),
    ) -> usize {
        let held = &self.buf[self.scanned..self.end];
        let Some(last) = held.iter().rposition(|&b| b == b'\n') else {
            // Of a line already over the cap, only enough is kept for
            // `decode` to see that it is: two bytes, as the coming `\n`
            // may strip a `\r`.
            self.end = self.end.min(self.head + MAX_LINE_BYTES + 2);
            self.scanned = self.end;
            return 0;
        };
        let region_end = self.scanned + last + 1;
        let region = &self.buf[self.head..region_end];
        self.head = region_end;
        self.scanned = region_end;
        deliver(region, damage, each)
    }

    /// Hands the unterminated tail at end of stream (EOF, connection
    /// close, rotation), trailing `\r` kept, to `each` if there is one,
    /// and returns how many lines that was; the framer is empty
    /// afterwards. Call once [`pop_lines`](LineFramer::pop_lines) has
    /// handed over nothing.
    pub fn finish(&mut self, damage: &mut LineDamage, each: impl FnMut(FramedLine<'_>)) -> usize {
        let LineFramer { buf, head, end, .. } = std::mem::take(self);
        deliver(&buf[head..end], damage, each)
    }
}

/// Scans `region` — whole lines, the last one perhaps unterminated —
/// once, handing each line to `each`. The region is UTF-8-checked once;
/// a line is checked on its own only when that fails, and copied only
/// to be repaired.
fn deliver(region: &[u8], damage: &mut LineDamage, each: impl FnMut(FramedLine<'_>)) -> usize {
    let mut sink = FramerSink {
        region,
        text: std::str::from_utf8(region).ok(),
        damage,
        each,
        shape: Shape::default(),
        lines: 0,
    };
    // The sink never fails a line, so neither does the scan.
    let _ = scan(region, &mut sink);
    sink.lines
}

/// The first token and the token count of the line being scanned.
#[derive(Default)]
struct Shape {
    first: Range<usize>,
    tokens: usize,
}

impl Shape {
    /// The shape of the line at `start`, relative to it; resets `self`
    /// for the next line.
    fn take(&mut self, start: usize) -> Shape {
        let Shape { first, tokens } = std::mem::take(self);
        match tokens {
            0 => Shape::default(),
            _ => Shape {
                first: first.start - start..first.end - start,
                tokens,
            },
        }
    }

    /// The shape of one repaired line.
    fn of(line: &str) -> Shape {
        let mut shape = Shape::default();
        let _ = scan(line.as_bytes(), &mut shape);
        shape
    }

    fn line<'a>(&self, text: &'a str) -> FramedLine<'a> {
        FramedLine {
            text,
            first_token: text.get(self.first.clone()).unwrap_or_default(),
            tokens: self.tokens,
        }
    }
}

impl ScanSink for Shape {
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        if self.tokens == 0 {
            self.first = start..end;
        }
        self.tokens += 1;
    }

    fn line(&mut self, _: usize, _: usize, _: bool, _: bool) -> Result<(), ParseError> {
        Ok(())
    }
}

/// The scan sink behind [`deliver`].
struct FramerSink<'a, 'd, F> {
    region: &'a [u8],
    /// The whole region, when it is valid UTF-8.
    text: Option<&'a str>,
    damage: &'d mut LineDamage,
    each: F,
    shape: Shape,
    lines: usize,
}

impl<F: FnMut(FramedLine<'_>)> ScanSink for FramerSink<'_, '_, F> {
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        self.shape.token(start, end);
    }

    fn line(
        &mut self,
        start: usize,
        content_end: usize,
        _blank: bool,
        _has_high: bool,
    ) -> Result<(), ParseError> {
        self.lines += 1;
        let shape = self.shape.take(start);
        let bytes = &self.region[start..content_end];
        let text = match self.text {
            Some(text) => text.get(start..content_end),
            None => std::str::from_utf8(bytes).ok(),
        };
        match text.filter(|_| bytes.len() <= MAX_LINE_BYTES) {
            Some(text) => (self.each)(shape.line(text)),
            None => {
                let repaired = decode(bytes, self.damage);
                (self.each)(Shape::of(&repaired).line(&repaired));
            }
        }
        Ok(())
    }
}

/// One line's bytes as the `String` delivered for it: cut to
/// [`MAX_LINE_BYTES`] on a character boundary, invalid UTF-8 replaced,
/// either repair counted.
fn decode(mut line: &[u8], damage: &mut LineDamage) -> String {
    if line.len() > MAX_LINE_BYTES {
        damage.too_long += 1;
        let mut cut = MAX_LINE_BYTES;
        // A character is at most four bytes: three continuation bytes
        // back at the latest, the cut is on its first.
        while cut > MAX_LINE_BYTES - 3 && line[cut] & 0xc0 == 0x80 {
            cut -= 1;
        }
        line = &line[..cut];
    }
    let text = String::from_utf8_lossy(line);
    damage.invalid_utf8 += u64::from(matches!(text, std::borrow::Cow::Owned(_)));
    text.into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufRead as _;

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("logparse-loader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn chunk_ranges_start_at_line_starts() {
        let mut corpus = Vec::new();
        for i in 0..9000 {
            corpus.extend_from_slice(format!("line number {i} with some padding\n").as_bytes());
        }
        for threads in [2, 3, 7] {
            let ranges = chunk_byte_ranges(&corpus, threads);
            assert!(ranges.len() >= 2, "expected a real split at {threads}");
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, corpus.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(corpus[pair[0].end - 1], b'\n', "boundary mid-line");
            }
        }
        // Tiny inputs never split.
        assert_eq!(chunk_byte_ranges(b"a\nb\n", 8), vec![0..4]);
    }

    #[test]
    fn count_corpus_lines_skips_blanks() {
        let path = write_temp("count.log", b"one\n\n  \ntwo\nthree");
        assert_eq!(count_corpus_lines(&path).unwrap(), 3);
    }

    #[test]
    fn cuts_fall_at_the_first_kept_line_of_each_chunk() {
        // Kept: " a" at 1, "b" at 9, "c" at 11; the blank run before
        // "b" stays with the chunk that ends there.
        let path = write_temp("cuts.log", b"\n a\r\n\n  \nb\nc\n\n");
        let cuts = |chunks| corpus_cuts(&path, chunks).unwrap();
        assert_eq!((cuts(1).lines, cuts(1).cuts), (3, vec![0, 14]));
        assert_eq!(cuts(2).cuts, [0, 11, 14]);
        assert_eq!(cuts(3).cuts, [0, 9, 11, 14]);
        assert_eq!(cuts(8), cuts(3), "more chunks than lines");
        let blank = corpus_cuts(write_temp("blank.log", b" \n\n"), 4).unwrap();
        assert_eq!((blank.lines, blank.cuts), (0, vec![0, 3]));
    }

    /// The previous `corpus_cuts`, two passes over the kept lines: count
    /// them, then walk them again to each chunk's first. The reference
    /// the indexed pass is held to.
    fn two_pass_cuts(buf: &[u8], chunks: usize) -> CorpusCuts {
        let lines = count_non_blank_lines(buf);
        let mut firsts = ParallelDriver::chunk_ranges(lines, chunks)
            .into_iter()
            .skip(1)
            .map(|range| range.start)
            .peekable();
        let mut cuts = vec![0];
        for (line, start) in kept_line_starts(buf, 0).enumerate() {
            if firsts.next_if_eq(&line).is_some() {
                cuts.push(start);
            }
        }
        cuts.push(buf.len());
        CorpusCuts { lines, cuts }
    }

    #[test]
    fn cuts_past_the_first_index_stride_match_the_two_pass_cuts() {
        // Three strides and then some: blank, whitespace-only and CRLF
        // lines among the kept ones, and no final newline.
        let mut bytes = Vec::new();
        for i in 0..3 * CUT_INDEX_STRIDE + 17 {
            let line = match i % 5 {
                0 => "\n".to_owned(),
                1 => " \t\r\n".to_owned(),
                2 => format!("crlf line {i}\r\n"),
                _ => format!("line {i}\n"),
            };
            bytes.extend_from_slice(line.as_bytes());
        }
        bytes.extend_from_slice(b"unterminated");
        let path = write_temp("strides.log", &bytes);
        for chunks in 1..10 {
            assert_eq!(
                corpus_cuts(&path, chunks).unwrap(),
                two_pass_cuts(&bytes, chunks),
                "{chunks} chunks"
            );
        }
    }

    /// A seekable input that records which of its bytes were read.
    struct Watched {
        inner: std::io::Cursor<Vec<u8>>,
        /// Lowest and one past the highest offset read, and bytes in all.
        touched: Option<(usize, usize)>,
        read: usize,
    }

    impl Read for Watched {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.inner.position() as usize;
            let n = self.inner.read(buf)?;
            if n > 0 {
                let (low, high) = self.touched.unwrap_or((at, at + n));
                self.touched = Some((low.min(at), high.max(at + n)));
                self.read += n;
            }
            Ok(n)
        }
    }

    impl Seek for Watched {
        fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(to)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// What a file that cannot be mapped costs: a chunk's range and
        /// the byte before it, nothing else of the input — and the
        /// corpus read from there is the chunk's slice of the whole
        /// build. The text is dense in what a cut can get wrong: blank
        /// runs, CRLF, a lone `\r`, multi-byte characters, and often no
        /// final newline.
        #[test]
        fn a_range_read_from_a_reader_is_the_slice_of_the_whole_build(
            pieces in proptest::collection::vec(
                prop_oneof![
                    Just("\n".to_owned()),
                    Just("\r\n".to_owned()),
                    Just("\r".to_owned()),
                    Just(" \t".to_owned()),
                    Just("é=€ ".to_owned()),
                    "[ -~]{1,12}",
                ],
                0..80,
            ),
            shards in 1usize..10,
        ) {
            let bytes = pieces.concat().into_bytes();
            let whole = corpus_from_bytes(bytes.clone(), &Preprocessor::identity(), 1).unwrap();
            let measured = corpus_cuts(write_temp("reader-range.log", &bytes), shards).unwrap();
            let ranges = ParallelDriver::chunk_ranges(whole.len(), shards);
            for (k, range) in ranges.into_iter().enumerate() {
                let cut = measured.cuts[k]..measured.cuts[k + 1];
                let mut input = Watched {
                    inner: std::io::Cursor::new(bytes.clone()),
                    touched: None,
                    read: 0,
                };
                let sought = corpus_from_reader_range(&mut input, cut.clone(), range.start).unwrap();
                prop_assert_eq!(&sought, &whole.slice(range));
                let (low, high) = input.touched.unwrap_or((cut.start, cut.end));
                prop_assert!(low + 1 >= cut.start && high <= cut.end, "read {low}..{high} for {cut:?}");
                prop_assert!(input.read <= cut.len() + 1);
            }
        }

        /// One pass through a sparse index cuts where the two passes
        /// did, at strides small enough that a few dozen lines reach
        /// many index entries: blank, whitespace-only, CRLF and
        /// unterminated last lines.
        #[test]
        fn indexed_cuts_equal_the_two_pass_cuts(
            lines in proptest::collection::vec(
                prop_oneof![
                    Just(""),
                    Just(" \t"),
                    Just("\x0b\x0c\r"),
                    Just("x"),
                    Just("crlf line\r"),
                    Just("a longer line with several tokens"),
                    Just("é ü"),
                ],
                0..60,
            ),
            terminated in prop_oneof![Just(false), Just(true)],
            stride in 1usize..6,
            chunks in 1usize..10,
        ) {
            let mut bytes = lines.join("\n").into_bytes();
            if terminated {
                bytes.push(b'\n');
            }
            prop_assert_eq!(
                cuts_through_index(&bytes, chunks, stride),
                two_pass_cuts(&bytes, chunks)
            );
        }
    }

    /// Collects what the framer hands over, checking each line's shape
    /// against a plain split of its text on the scan's whitespace set.
    fn collect(out: &mut Vec<String>) -> impl FnMut(FramedLine<'_>) + '_ {
        |line| {
            let mut tokens = line
                .text
                .split(|c: char| matches!(c, '\t'..='\r' | ' '))
                .filter(|t| !t.is_empty());
            assert_eq!(line.first_token, tokens.next().unwrap_or(""));
            assert_eq!(
                line.tokens,
                usize::from(!line.first_token.is_empty()) + tokens.count()
            );
            out.push(line.text.to_owned());
        }
    }

    /// Reads `bytes` into `framer` the way every source does — a chunk
    /// once no complete line is held — popping the lines onto `out`.
    fn feed(framer: &mut LineFramer, bytes: &[u8], damage: &mut LineDamage, out: &mut Vec<String>) {
        let mut rest = bytes;
        while !rest.is_empty() {
            framer.fill_from(&mut rest).unwrap();
            while framer.pop_lines(damage, collect(out)) > 0 {}
        }
    }

    /// The lines of `pieces` fed one after another, tail included.
    fn lines_of(pieces: &[&[u8]]) -> (Vec<String>, LineDamage) {
        let (mut framer, mut damage, mut lines) = Default::default();
        for piece in pieces {
            feed(&mut framer, piece, &mut damage, &mut lines);
        }
        framer.finish(&mut damage, collect(&mut lines));
        (lines, damage)
    }

    #[test]
    fn framer_yields_every_line_with_endings_stripped() {
        let (seen, damage) = lines_of(&[b"one\r\ntwo\n\nthree"]);
        assert_eq!(seen, ["one", "two", "", "three"]);
        assert_eq!(damage, LineDamage::default());
    }

    #[test]
    fn framer_cuts_an_over_long_line_on_a_character_boundary() {
        // The cap falls after the first byte of the last `é`.
        let mut line = vec![b'x'; MAX_LINE_BYTES - 3];
        line.extend_from_slice("ééé tail".as_bytes());
        let cases: [(&[u8], &[&str]); 2] = [(b"\r\nnext\n", &["next"]), (b"", &[])];
        for (terminator, after) in cases {
            let (seen, damage) = lines_of(&[&line, terminator]);
            assert_eq!(seen[0].len(), MAX_LINE_BYTES - 1);
            assert!(seen[0].ends_with("xxé"));
            assert_eq!(seen[1..], *after);
            assert_eq!((damage.invalid_utf8, damage.too_long), (0, 1));
        }
        // Exactly at the cap is not over it, CRLF or not — and a `\r`
        // that is the line's last kept byte is not mistaken for one.
        let at_cap = vec![b'x'; MAX_LINE_BYTES];
        let (seen, damage) = lines_of(&[&at_cap, b"\r", b"\n"]);
        assert_eq!((seen[0].len(), seen.len()), (MAX_LINE_BYTES, 1));
        assert_eq!(damage, LineDamage::default());
        let (seen, damage) = lines_of(&[&at_cap, b"\rmore", b"\n"]);
        assert_eq!((seen[0].len(), seen.len()), (MAX_LINE_BYTES, 1));
        assert_eq!(damage.too_long, 1);
    }

    #[test]
    fn framer_memory_is_bounded_whatever_arrives() {
        const CHUNK: usize = 64 << 10;
        const TOTAL: usize = 64 << 20;
        let bound = MAX_LINE_BYTES + 2 * CHUNK;
        let (mut framer, mut damage, mut lines) = Default::default();

        // A peer that never sends a newline: nothing past the cap is
        // kept, and the capped line goes out when the stream ends.
        for _ in 0..TOTAL / CHUNK {
            feed(&mut framer, &[b'A'; CHUNK], &mut damage, &mut lines);
            assert!(framer.buf.capacity() <= bound, "{}", framer.buf.capacity());
        }
        assert_eq!(lines, Vec::<String>::new());
        assert_eq!(framer.finish(&mut damage, collect(&mut lines)), 1);
        assert_eq!((lines[0].len(), damage.too_long), (MAX_LINE_BYTES, 1));
        lines.clear();

        // 40-byte lines, chunk edges inside them.
        const LINES: usize = 100_000;
        let stream: Vec<u8> = (0..LINES)
            .flat_map(|i| format!("{i:039}\n").into_bytes())
            .collect();
        let mut next = 0;
        for chunk in stream.chunks(CHUNK).cycle().take(TOTAL / CHUNK) {
            feed(&mut framer, chunk, &mut damage, &mut lines);
            for line in lines.drain(..) {
                assert_eq!(line.parse(), Ok(next % LINES));
                next += 1;
            }
            assert!(framer.buf.capacity() <= bound, "{}", framer.buf.capacity());
        }
        assert!(next > TOTAL / 41);
    }

    /// The one-shot, per-line statement of the contract: split at `\n`,
    /// strip one `\r` from terminated lines, keep a non-empty tail as it
    /// is, and decode each line on its own, counting the repairs.
    fn reference_lines(bytes: &[u8]) -> (Vec<String>, LineDamage) {
        let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let tail = pieces.pop().filter(|tail| !tail.is_empty());
        let mut damage = LineDamage::default();
        let lines = pieces
            .into_iter()
            .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
            .chain(tail)
            .map(|line| decode(line, &mut damage))
            .collect();
        (lines, damage)
    }

    /// Bytes dense in what a framer can get wrong: terminators, lone
    /// `\r`, whole and broken multi-byte characters.
    fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b"\r".to_vec()),
                Just("é".as_bytes().to_vec()),
                Just("€".as_bytes().to_vec()),
                Just("🪵".as_bytes().to_vec()),
                (0x80u8..=0xff).prop_map(|b| vec![b]),
                "[ -~]{0,12}".prop_map(String::into_bytes),
            ],
            0..40,
        )
        .prop_map(|pieces| pieces.concat())
    }

    proptest! {
        /// However the bytes are cut into pushes — byte by byte, inside
        /// a character, between `\r` and `\n` — the lines and the repairs
        /// counted are the ones the per-line reference finds in the whole
        /// buffer, with or without a line around the cap in front.
        #[test]
        fn framer_lines_do_not_depend_on_chunking(
            hostile in hostile_bytes(),
            long in 0usize..8,
            cuts in proptest::collection::vec(1usize..9, 0..400),
        ) {
            // Half the cases lead with a line from two bytes under the
            // cap to one over it, ending in a two-byte character.
            let mut bytes = Vec::new();
            if long >= 4 {
                bytes.resize(MAX_LINE_BYTES - 8 + long, b'x');
                bytes.extend_from_slice("é".as_bytes());
            }
            bytes.extend_from_slice(&hostile);
            let mut pieces = Vec::new();
            let mut rest = &bytes[..];
            // Past the last cut, the remainder goes in whole.
            for cut in cuts.into_iter().chain([usize::MAX]) {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                pieces.push(piece);
                rest = after;
            }
            let (lines, damage) = lines_of(&pieces);
            let (expected, expected_damage) = reference_lines(&bytes);
            prop_assert_eq!(&lines, &expected);
            prop_assert_eq!(damage, expected_damage);
            let repaired = lines.iter().filter(|l| l.contains('\u{fffd}')).count();
            prop_assert_eq!(damage.invalid_utf8, repaired as u64);
            if std::str::from_utf8(&bytes).is_ok() && damage.too_long == 0 {
                let buffered: Vec<String> = bytes.lines().map(Result::unwrap).collect();
                prop_assert_eq!(&lines, &buffered);
            }
        }
    }
}
