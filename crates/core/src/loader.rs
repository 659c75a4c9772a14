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
//!    per-line strings. Every walk over it goes a window of about
//!    4 MiB at a time ([`walk_windows`]), and a mapping's window is
//!    released once walked: a build keeps one window of the file
//!    resident per thread, and a later read of a record faults its page
//!    back in. An owned buffer stays whole.
//! 2. **Scan** — [`crate::simd::scan`] finds newline and token
//!    boundaries in one SWAR pass, a 64-byte block of bitmasks per
//!    step, flagging blank lines (all ASCII
//!    whitespace; skipped, per the skip-blank contract in
//!    [`crate::simd`]) and lines containing non-ASCII bytes.
//! 3. **Mask, then intern** — ASCII lines (the overwhelming majority
//!    of machine logs) hand each token slice to the build's
//!    [`Masker`]: a token a [`MaskRule`] claims becomes
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
//!
//! [`walk_kept_lines`] is the same buffer-and-scan under the same line
//! contract with no corpus at the end: each kept line, with its token
//! spans, goes to a consumer (`logmine parse --parser drain -j 1` feeds a
//! streaming Drain), and nothing is kept per line.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Counter, Histogram, Registry};

use crate::error::ParseError;
use crate::intern::{row_end, Interner, Symbol, TokenArena};
use crate::mmap::{ascii_str, Mapping};
use crate::parallel::ParallelDriver;
use crate::preprocess::{MaskRule, Preprocessor};
use crate::record::{Corpus, Span};
use crate::simd::{find_newline, kept_line_starts, scan, ScanSink};

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

impl LineBuffer {
    /// Drops bytes `range` of a mapping from the resident set (see
    /// [`Mapping::release`]); an owned buffer is anonymous memory with
    /// no file to fault back from, and keeps them.
    fn release(&self, range: Range<usize>) {
        if let LineBuffer::Mapped(map) = self {
            map.release(range);
        }
    }
}

/// Bytes a walk over a buffer covers between two releases: what of a
/// mapped input is resident at once, per walking thread, whatever the
/// file's size.
const WINDOW: usize = 4 << 20;

/// Walks bytes `range` of `buffer` window by window, handing each
/// window to `each` and then releasing it. A window ends just past the
/// first newline at least `window` bytes into it, or at the range's end,
/// so windows hold whole lines when `range` starts at a line start, and
/// a line longer than `window` is one window of its own.
fn walk_windows<E>(
    buffer: &LineBuffer,
    range: Range<usize>,
    window: usize,
    mut each: impl FnMut(Range<usize>) -> Result<(), E>,
) -> Result<(), E> {
    let bytes = &buffer[..range.end];
    let mut start = range.start;
    while start < range.end {
        let end = match start.checked_add(window.max(1)) {
            // Searching from the window's last byte keeps an end already
            // sitting just past a newline where it is.
            Some(target) if target < range.end => {
                find_newline(bytes, target - 1).map_or(range.end, |nl| nl + 1)
            }
            _ => range.end,
        };
        each(start..end)?;
        buffer.release(start..end);
        start = end;
    }
    Ok(())
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

/// The `InvalidData` error for a corpus of `u32::MAX` tokens or more,
/// which the arena's `u32` row offsets cannot address.
fn too_many_tokens() -> ParseError {
    ParseError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "corpus reaches u32::MAX tokens, past what a token arena holds",
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
    /// The window being scanned (a sub-slice of the full buffer).
    buf: &'a [u8],
    /// Absolute offset of `buf[0]` in the full buffer.
    base: usize,
    rows: Rows<M>,
    spans: Vec<Span>,
    /// Raw token runs of the line currently being scanned.
    scratch: Vec<(usize, usize)>,
}

impl<'a, M: Masker> BuildSink<'a, M> {
    fn new(masker: M, lines_hint: usize) -> BuildSink<'a, M> {
        BuildSink {
            buf: &[],
            base: 0,
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
        self.rows
            .arena
            .try_finish_row()
            .ok_or_else(too_many_tokens)?;
        self.spans
            .push(Span::new(self.base + start, self.base + content_end)?);
        Ok(())
    }
}

/// Scans one byte range of the full buffer into a chunk-local output,
/// `window` bytes at a time (see [`walk_windows`]). Windows hold whole
/// lines and a line's tokens are interned before its window is
/// released, so the output is the one-window scan's whatever `window`.
fn build_chunk<M: Masker>(
    buffer: &LineBuffer,
    range: Range<usize>,
    masker: M,
    window: usize,
) -> Result<ChunkOut, ParseError> {
    // ~40 bytes/line is typical machine-log density; the hint only
    // sizes the first allocation.
    let lines_hint = range.len() / 40 + 1;
    let mut sink = BuildSink::new(masker, lines_hint);
    walk_windows(buffer, range, window, |window| {
        let bytes = &buffer[window.clone()];
        sink.buf = bytes;
        sink.base = window.start;
        scan(bytes, &mut sink)
    })?;
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
    buffer: &LineBuffer,
    ranges: &[Range<usize>],
    masker: M,
    window: usize,
) -> Option<Result<ChunkOut, ParseError>> {
    let mut slots: Vec<Option<Result<ChunkOut, ParseError>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let range = r.clone();
                scope.spawn(move || build_chunk(buffer, range, masker, window))
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
        if row_end(arena.token_count() + chunk.arena.token_count()).is_none() {
            return Some(Err(too_many_tokens()));
        }
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

/// Scans and interns `buffer` under one masker, each thread `window`
/// bytes at a time: chunk-parallel when the input splits, sequential
/// otherwise (and when a worker died).
fn build<M: Masker>(
    buffer: &LineBuffer,
    masker: M,
    threads: usize,
    window: usize,
) -> Result<ChunkOut, ParseError> {
    let ranges = chunk_byte_ranges(buffer, threads);
    if ranges.len() > 1 {
        if let Some(result) = build_parallel(buffer, &ranges, masker, window) {
            return result;
        }
    }
    build_chunk(buffer, 0..buffer.len(), masker, window)
}

/// The shared build entry: one buffer in, one corpus out. Tokens are
/// masked by `preprocessor` before they are interned; with no rules
/// the build is instantiated over [`Identity`] and masks nothing.
fn build_corpus(
    buffer: Arc<LineBuffer>,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    measured_build(buffer, preprocessor, 0, |buffer| {
        if preprocessor.rules().is_empty() {
            build(buffer, Identity, threads, WINDOW)
        } else {
            build(buffer, preprocessor, threads, WINDOW)
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
    build: impl FnOnce(&LineBuffer) -> Result<ChunkOut, ParseError>,
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
/// numbered from `lines_before + 1`, `window` bytes at a time. `buffer`
/// holds the file from byte `offset` on — at least from the byte before
/// the range, which says whether the range begins a line — and spans
/// index into it.
fn build_range(
    buffer: LineBuffer,
    offset: usize,
    range: Range<usize>,
    file_len: usize,
    lines_before: usize,
    window: usize,
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
    measured_build(Arc::new(buffer), unmasked, lines_before, |buffer| {
        build_chunk(buffer, local, Identity, window)
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
    build_range(buffer, 0, range, file_len, lines_before, WINDOW)
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
    build_range(buffer, offset, range, file_len, lines_before, WINDOW)
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
    Ok(cuts_through_index(
        &buffer,
        chunks,
        CUT_INDEX_STRIDE,
        WINDOW,
    ))
}

/// [`corpus_cuts`] of `buffer`. The one pass, `window` bytes at a time,
/// counts the kept lines and records where every `stride`-th begins;
/// each chunk's first kept line is then found by walking on from the
/// index entry at or before it, fewer than `stride` lines. Every walk
/// releases what it read.
pub(crate) fn cuts_through_index(
    buffer: &LineBuffer,
    chunks: usize,
    stride: usize,
    window: usize,
) -> CorpusCuts {
    let stride = stride.max(1);
    let mut index = Vec::new();
    let mut lines = 0usize;
    let mut until_entry = 0usize;
    let Ok(()) = walk_windows(buffer, 0..buffer.len(), window, |window| {
        for start in kept_line_starts(&buffer[..window.end], window.start) {
            if until_entry == 0 {
                index.push(start);
                until_entry = stride;
            }
            until_entry -= 1;
            lines += 1;
        }
        Ok::<(), std::convert::Infallible>(())
    });
    let buf = &buffer[..];
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
        // The walk is short, but a fault may map a whole large folio
        // around it: release the lot, not just the bytes walked.
        buffer.release(0..buf.len());
    }
    cuts.push(buf.len());
    CorpusCuts { lines, cuts }
}

/// Counts the lines of `path` a corpus build would keep (non-blank
/// lines, per the skip-blank contract in the `simd` module) without
/// building anything: [`corpus_cuts`]' one walk from newline to
/// newline, cutting nothing — no interning, no record materialization.
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the file cannot be opened or read.
pub fn count_corpus_lines(path: impl AsRef<Path>) -> Result<usize, ParseError> {
    Ok(corpus_cuts(path, 1)?.lines)
}

/// Where [`walk_kept_lines`] reads a log from.
pub enum LineSource<'a> {
    /// A file: mapped and walked a window of about 4 MiB at a time, each
    /// window released once walked, as a corpus build walks it; a file
    /// that cannot be mapped is read as a [`Reader`](LineSource::Reader)
    /// is.
    Path(&'a Path),
    /// Any reader — stdin — read into one reused window of about 4 MiB,
    /// grown only for a line longer than it.
    Reader(&'a mut dyn Read),
}

/// Hands each line a corpus build of `source` would keep to `each`, in
/// order, and returns how many — without building the corpus: one scan
/// per byte, and nothing held per line. The batch column of DESIGN.md's
/// *Line contract* holds: blank lines are skipped and not counted, one
/// `\r` before `\n` is stripped, and a line with invalid UTF-8 fails the
/// walk with the error a corpus build gives, after `each` has seen the
/// lines before it.
///
/// `each` gets the line and its token spans, as a [`FramedLine`] carries
/// them: `None` for a line with a byte ≥ 0x80 or of
/// [`MAX_SPANNED_LINE_BYTES`] or more, which a consumer splits by
/// `split_whitespace`. With `preprocessor` rules, each line is rebuilt
/// with every token a rule claims replaced by the rule's placeholder, its
/// tokens one space apart, so the line's tokens are the symbols the
/// masked corpus build interns; the per-rule counts are published as a
/// masked build publishes them.
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the source cannot be opened or read,
/// or holds a line that is not valid UTF-8.
pub fn walk_kept_lines(
    source: LineSource<'_>,
    preprocessor: &Preprocessor,
    each: impl FnMut(&str, Option<&[TokenSpan]>),
) -> Result<usize, ParseError> {
    let registry = logparse_obs::global();
    let (seconds, lines_total) = walk_metrics(registry);
    let span = registry.span_into(seconds, "core_kept_line_walk", &[]);
    let (lines, masked) = if preprocessor.rules().is_empty() {
        walk_kept_lines_in(source, Identity, WINDOW, each)?
    } else {
        walk_kept_lines_in(source, preprocessor, WINDOW, each)?
    };
    span.finish();
    lines_total.inc_by(lines as u64);
    preprocessor.publish_masked(registry, &masked);
    Ok(lines)
}

/// Resolves the kept-line walk's metric handles, the walk's stand-ins
/// for the corpus build's.
fn walk_metrics(registry: &Registry) -> (Histogram, Counter) {
    (
        registry.histogram(
            "core_kept_line_walk_seconds",
            "Time for a kept-line walk (read + scan + mask + the consumer's work per line)",
            &Buckets::durations(),
            &[],
        ),
        registry.counter(
            "core_kept_line_walk_lines_total",
            "Log lines kept-line walks handed to their consumer",
            &[],
        ),
    )
}

/// [`walk_kept_lines`] under one masker, `window` bytes at a time;
/// returns the kept lines and the tokens each rule replaced.
fn walk_kept_lines_in<M: Masker>(
    source: LineSource<'_>,
    masker: M,
    window: usize,
    each: impl FnMut(&str, Option<&[TokenSpan]>),
) -> Result<(usize, Vec<u64>), ParseError> {
    let mut kept = KeptLines {
        masked: vec![0; masker.rules().len()],
        masker,
        each,
        line: String::new(),
        line_spans: Vec::new(),
        lines: 0,
    };
    match source {
        LineSource::Path(path) => {
            let mut file = File::open(path)?;
            match Mapping::of_file(&file) {
                Some(map) => {
                    let buffer = LineBuffer::Mapped(map);
                    walk_windows(&buffer, 0..buffer.len(), window, |range| {
                        kept.region(&buffer[range])
                    })?;
                }
                None => walk_reader(&mut file, window, &mut kept)?,
            }
        }
        LineSource::Reader(reader) => walk_reader(reader, window, &mut kept)?,
    }
    Ok((kept.lines, kept.masked))
}

/// Reads `reader` to its end into one buffer of `window` bytes, doubled
/// only while a single line fills it, and hands `kept` every run of
/// whole lines as it arrives: each byte is scanned once, and only the
/// partial line at the buffer's end moves, to its front, when the buffer
/// is full.
fn walk_reader<M: Masker, F: FnMut(&str, Option<&[TokenSpan]>)>(
    reader: &mut (impl Read + ?Sized),
    window: usize,
    kept: &mut KeptLines<M, F>,
) -> Result<(), ParseError> {
    let mut buf = vec![0; window.max(1)];
    // `buf[start..end]` is read and not yet scanned: part of one line.
    let (mut start, mut end) = (0, 0);
    loop {
        if end == buf.len() {
            if start == 0 {
                buf.resize(buf.len() * 2, 0);
            } else {
                buf.copy_within(start..end, 0);
                end -= start;
                start = 0;
            }
        }
        let read = match reader.read(&mut buf[end..]) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            result => result?,
        };
        if read == 0 {
            return kept.region(&buf[start..end]);
        }
        let filled = end + read;
        if let Some(last) = buf[end..filled].iter().rposition(|&b| b == b'\n') {
            let cut = end + last + 1;
            kept.region(&buf[start..cut])?;
            start = cut;
        }
        end = filled;
    }
}

/// What a kept-line walk carries from one region to the next.
struct KeptLines<M, F> {
    masker: M,
    each: F,
    /// The current line masked, and its token spans; reused.
    line: String,
    line_spans: Vec<TokenSpan>,
    /// Tokens each of the masker's rules replaced.
    masked: Vec<u64>,
    lines: usize,
}

impl<M: Masker, F: FnMut(&str, Option<&[TokenSpan]>)> KeptLines<M, F> {
    /// Scans `region` — whole lines, the last one perhaps unterminated —
    /// once, handing on each kept line.
    fn region(&mut self, region: &[u8]) -> Result<(), ParseError> {
        scan(
            region,
            &mut RegionSink {
                region,
                line_start: 0,
                spans: Vec::new(),
                kept: self,
            },
        )
    }

    /// Hands on one kept line, `text` with `spans` where it has them.
    fn hand_on(&mut self, text: &str, spans: Option<&[TokenSpan]>) {
        self.lines += 1;
        if self.masker.rules().is_empty() {
            (self.each)(text, spans);
            return;
        }
        let KeptLines {
            masker,
            each,
            line,
            line_spans,
            masked,
            ..
        } = self;
        line.clear();
        line_spans.clear();
        let mut push = |token: &str| {
            let token = match masker.classify(token.as_bytes()) {
                Some(rule) => {
                    masked[rule] += 1;
                    masker.rules()[rule].tag()
                }
                None => token,
            };
            if !line.is_empty() {
                line.push(' ');
            }
            let start = line.len();
            line.push_str(token);
            if line.len() < MAX_SPANNED_LINE_BYTES {
                line_spans.push((start as u16, line.len() as u16));
            }
        };
        match spans {
            Some(spans) => {
                for &(start, end) in spans {
                    push(&text[usize::from(start)..usize::from(end)]);
                }
            }
            None => text.split_whitespace().for_each(push),
        }
        let spans = (line.len() < MAX_SPANNED_LINE_BYTES).then_some(&line_spans[..]);
        each(line, spans);
    }
}

/// The scan sink of one region of a kept-line walk.
struct RegionSink<'r, 'k, M, F> {
    region: &'r [u8],
    /// Where the current line begins in `region`.
    line_start: usize,
    /// The current line's token spans; a token ending
    /// [`MAX_SPANNED_LINE_BYTES`] or more into its line is not kept, as
    /// the line's spans are dropped anyway.
    spans: Vec<TokenSpan>,
    kept: &'k mut KeptLines<M, F>,
}

impl<M: Masker, F: FnMut(&str, Option<&[TokenSpan]>)> ScanSink for RegionSink<'_, '_, M, F> {
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        if end - self.line_start < MAX_SPANNED_LINE_BYTES {
            self.spans.push((
                (start - self.line_start) as u16,
                (end - self.line_start) as u16,
            ));
        }
    }

    fn line(
        &mut self,
        start: usize,
        content_end: usize,
        blank: bool,
        has_high: bool,
    ) -> Result<(), ParseError> {
        // The next line begins past this one's `\n`, and past a `\r`
        // stripped before it.
        self.line_start =
            content_end + 1 + usize::from(self.region.get(content_end) == Some(&b'\r'));
        if !blank {
            let bytes = &self.region[start..content_end];
            if has_high {
                let text = std::str::from_utf8(bytes).map_err(|_| invalid_utf8())?;
                self.kept.hand_on(text, None);
            } else {
                let whole = bytes.len() < MAX_SPANNED_LINE_BYTES;
                self.kept
                    .hand_on(ascii_str(bytes), whole.then_some(&self.spans[..]));
            }
        }
        self.spans.clear();
        Ok(())
    }
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

/// One token of a line: the byte range `[start, end)` relative to the
/// line's first byte. Four bytes, so a line of `n` tokens carries `4n`
/// bytes of spans.
pub type TokenSpan = (u16, u16);

/// Lines of this many bytes or more carry no [`TokenSpan`]s: a `u16`
/// offset reaches no further.
pub const MAX_SPANNED_LINE_BYTES: usize = 1 << 16;

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
    /// Every token of `text`, in order, when the scan's byte rule is the
    /// corpus's token rule for it: the line is all ASCII, was delivered
    /// as sent, and is shorter than [`MAX_SPANNED_LINE_BYTES`]. `None`
    /// otherwise, and a consumer splits `text` with `split_whitespace`.
    pub spans: Option<&'a [TokenSpan]>,
}

/// The token spans of `line` as a [`LineFramer`] would deliver them, in
/// `spans` (cleared first): `None` when the line holds a byte ≥ 0x80 or
/// is [`MAX_SPANNED_LINE_BYTES`] long or longer, as for a framed line. A
/// `\n` inside `line` separates tokens like any whitespace.
pub fn line_spans<'s>(line: &str, spans: &'s mut Vec<TokenSpan>) -> Option<&'s [TokenSpan]> {
    /// Tokens as spans, and whether any line event saw a high byte.
    struct Spans<'s> {
        spans: &'s mut Vec<TokenSpan>,
        high: bool,
    }
    impl ScanSink for Spans<'_> {
        #[inline]
        fn token(&mut self, start: usize, end: usize) {
            self.spans.push((start as u16, end as u16));
        }

        fn line(&mut self, _: usize, _: usize, _: bool, high: bool) -> Result<(), ParseError> {
            self.high |= high;
            Ok(())
        }
    }
    spans.clear();
    if line.len() >= MAX_SPANNED_LINE_BYTES {
        return None;
    }
    let mut sink = Spans { spans, high: false };
    let _ = scan(line.as_bytes(), &mut sink);
    let Spans { spans, high } = sink;
    (!high).then_some(&spans[..])
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
    /// The token spans of the line being scanned; kept between pops so a
    /// pop allocates nothing.
    spans: Vec<TokenSpan>,
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
        deliver(region, &mut self.spans, damage, each)
    }

    /// Hands the unterminated tail at end of stream (EOF, connection
    /// close, rotation), trailing `\r` kept, to `each` if there is one,
    /// and returns how many lines that was; the framer is empty
    /// afterwards. Call once [`pop_lines`](LineFramer::pop_lines) has
    /// handed over nothing.
    pub fn finish(&mut self, damage: &mut LineDamage, each: impl FnMut(FramedLine<'_>)) -> usize {
        let LineFramer {
            buf,
            head,
            end,
            mut spans,
            ..
        } = std::mem::take(self);
        deliver(&buf[head..end], &mut spans, damage, each)
    }
}

/// Scans `region` — whole lines, the last one perhaps unterminated —
/// once, handing each line to `each`. The region is UTF-8-checked once;
/// a line is checked on its own only when that fails, and copied only
/// to be repaired.
fn deliver(
    region: &[u8],
    spans: &mut Vec<TokenSpan>,
    damage: &mut LineDamage,
    each: impl FnMut(FramedLine<'_>),
) -> usize {
    spans.clear();
    let mut sink = FramerSink {
        region,
        text: std::str::from_utf8(region).ok(),
        damage,
        each,
        spans,
        line_start: 0,
        lines: 0,
    };
    // The sink never fails a line, so neither does the scan.
    let _ = scan(region, &mut sink);
    sink.lines
}

/// The first token and the token count of a line the scan gave no
/// usable spans for: a repaired line, or one too long for `u16` offsets.
#[derive(Default)]
struct Shape {
    first: Range<usize>,
    tokens: usize,
}

impl Shape {
    /// The shape of one such line, scanned again on its own.
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
            spans: None,
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
struct FramerSink<'a, 's, 'd, F> {
    region: &'a [u8],
    /// The whole region, when it is valid UTF-8.
    text: Option<&'a str>,
    damage: &'d mut LineDamage,
    each: F,
    /// The current line's tokens, relative to `line_start`. A token
    /// ending [`MAX_SPANNED_LINE_BYTES`] or more into its line is not
    /// kept: the line's spans are dropped anyway.
    spans: &'s mut Vec<TokenSpan>,
    line_start: usize,
    lines: usize,
}

impl<F: FnMut(FramedLine<'_>)> ScanSink for FramerSink<'_, '_, '_, F> {
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        if end - self.line_start < MAX_SPANNED_LINE_BYTES {
            self.spans.push((
                (start - self.line_start) as u16,
                (end - self.line_start) as u16,
            ));
        }
    }

    fn line(
        &mut self,
        start: usize,
        content_end: usize,
        _blank: bool,
        has_high: bool,
    ) -> Result<(), ParseError> {
        self.lines += 1;
        // The next line begins past this one's `\n`, and past a `\r`
        // stripped before it.
        self.line_start =
            content_end + 1 + usize::from(self.region.get(content_end) == Some(&b'\r'));
        let bytes = &self.region[start..content_end];
        let text = match self.text {
            Some(text) => text.get(start..content_end),
            None => std::str::from_utf8(bytes).ok(),
        };
        match text {
            Some(text) if bytes.len() < MAX_SPANNED_LINE_BYTES => {
                let spans = &self.spans[..];
                let first = spans.first().map_or("", |&(from, to)| {
                    text.get(usize::from(from)..usize::from(to))
                        .unwrap_or_default()
                });
                (self.each)(FramedLine {
                    text,
                    first_token: first,
                    tokens: spans.len(),
                    spans: (!has_high).then_some(spans),
                });
            }
            Some(text) if bytes.len() <= MAX_LINE_BYTES => (self.each)(Shape::of(text).line(text)),
            _ => {
                let repaired = decode(bytes, self.damage);
                (self.each)(Shape::of(&repaired).line(&repaired));
            }
        }
        self.spans.clear();
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
        let lines = kept_line_starts(buf, 0).count();
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
                cuts_through_index(&LineBuffer::Owned(bytes.clone()), chunks, stride, WINDOW),
                two_pass_cuts(&bytes, chunks)
            );
        }
    }

    /// A build's output in the terms two builds of one input must agree
    /// on: the vocabulary in id order, the token rows, the spans and the
    /// masked counts — or the first error.
    type Parts = Result<(Vec<String>, TokenArena, Vec<Span>, Vec<u64>), String>;

    fn parts(out: Result<ChunkOut, ParseError>) -> Parts {
        let out = out.map_err(|e| e.to_string())?;
        Ok((vocabulary(&out.interner), out.arena, out.spans, out.masked))
    }

    /// The same, for a corpus: spans show as its records.
    type CorpusParts = Result<(Vec<String>, TokenArena, Vec<(usize, String)>), String>;

    fn corpus_parts(corpus: Result<Corpus, ParseError>) -> CorpusParts {
        let corpus = corpus.map_err(|e| e.to_string())?;
        let records = corpus
            .records()
            .map(|record| (record.line_no, record.content.to_owned()))
            .collect();
        Ok((
            vocabulary(corpus.interner()),
            corpus.arena().clone(),
            records,
        ))
    }

    /// Every token of `interner`, in id order.
    fn vocabulary(interner: &Interner) -> Vec<String> {
        (0..interner.len() as u32)
            .map(|id| interner.resolve(Symbol::from_id(id)).to_owned())
            .collect()
    }

    /// Lines dense in what a window edge can get wrong: CRLF, blank and
    /// whitespace-only runs (whole windows of them at small sizes), high
    /// bytes, maskable tokens, lines longer than any window drawn, and
    /// now and then an invalid byte.
    fn window_soup() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b" \t \x0b\x0c \n".to_vec()),
                Just("é=€ ü\u{a0}x".as_bytes().to_vec()),
                Just(b"blk_-42 10.0.0.1 7 /var/log".to_vec()),
                "[ -~]{1,12}".prop_map(String::into_bytes),
                (300usize..700).prop_map(|len| b"long ".repeat(len / 5)),
                // One draw in 40 of this variant breaks UTF-8.
                (0u8..40).prop_map(|roll| match roll {
                    0 => b"\xfe\n".to_vec(),
                    _ => b"x y\n".to_vec(),
                }),
            ],
            0..60,
        )
        .prop_map(|pieces| pieces.concat())
    }

    /// Splits `bytes` into `threads` ranges at line starts, the way
    /// `chunk_byte_ranges` does past its 64 KiB floor.
    fn line_ranges(bytes: &[u8], threads: usize) -> Vec<Range<usize>> {
        let mut ranges = Vec::new();
        let mut start = 0;
        for ideal in ParallelDriver::chunk_ranges(bytes.len(), threads) {
            let end = match find_newline(bytes, ideal.end.max(1) - 1) {
                Some(nl) if ideal.end < bytes.len() => nl + 1,
                _ => bytes.len(),
            };
            if end > start {
                ranges.push(start..end);
                start = end;
            }
        }
        ranges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the window — 1 to 300 bytes, so windows of one line,
        /// of blank lines only, and lines longer than a window all occur —
        /// a build, sequential or on 1 to 4 threads, masked or not, is the
        /// one-window build: same vocabulary order, rows, spans, masked
        /// counts, or the same first error. The input is a mapped file, so
        /// every window is released and the one-window reference reads
        /// pages faulted back in.
        #[test]
        fn windowed_builds_equal_the_one_window_build(
            bytes in window_soup(),
            terminated in prop_oneof![Just(false), Just(true)],
            window in 1usize..=300,
            threads in 1usize..=4,
        ) {
            let mut bytes = bytes;
            if terminated {
                bytes.push(b'\n');
            }
            let path = write_temp("windows.log", &bytes);
            let buffer = map_or_read(File::open(&path).unwrap()).unwrap();
            let masker = &Preprocessor::new(MaskRule::ALL.to_vec());
            let whole = parts(build_chunk(&buffer, 0..bytes.len(), masker, usize::MAX));
            prop_assert_eq!(&parts(build_chunk(&buffer, 0..bytes.len(), masker, window)), &whole);
            let ranges = line_ranges(&bytes, threads);
            let parallel = build_parallel(&buffer, &ranges, masker, window).unwrap();
            prop_assert_eq!(&parts(parallel), &whole);
            let unmasked = parts(build_chunk(&buffer, 0..bytes.len(), Identity, usize::MAX));
            prop_assert_eq!(&parts(build(&buffer, Identity, threads, window)), &unmasked);
        }

        /// A jobs worker's range build and a coordinator's cuts do not
        /// depend on the window either: each chunk of the cuts builds to
        /// the one-window corpus, and the windowed cut walk cuts where
        /// the one-window walk does — both over a mapped file.
        #[test]
        fn windowed_ranges_and_cuts_equal_the_one_window_ones(
            bytes in window_soup(),
            window in 1usize..=300,
            chunks in 1usize..=4,
            stride in 1usize..6,
        ) {
            let path = write_temp("window-ranges.log", &bytes);
            let mapped = || map_or_read(File::open(&path).unwrap()).unwrap();
            let whole = cuts_through_index(&mapped(), chunks, stride, usize::MAX);
            prop_assert_eq!(&cuts_through_index(&mapped(), chunks, stride, window), &whole);
            prop_assert_eq!(
                corpus_cuts(&path, chunks).unwrap(),
                cuts_through_index(&mapped(), chunks, CUT_INDEX_STRIDE, usize::MAX)
            );
            let mut lines_before = 0;
            for cut in whole.cuts.windows(2) {
                let range = cut[0]..cut[1];
                let build = |window| {
                    build_range(mapped(), 0, range.clone(), bytes.len(), lines_before, window)
                };
                let one = corpus_parts(build(usize::MAX));
                prop_assert_eq!(&corpus_parts(build(window)), &one);
                lines_before += one.map_or(0, |(_, _, records)| records.len());
            }
        }
    }

    /// A reader that hands over at most `step` bytes a read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Token rows and masked counts, or the first error: what a kept-line
    /// walk and a corpus build of one input must agree on.
    type Rowed = Result<(Vec<Vec<String>>, Vec<u64>), String>;

    /// The rows a walk hands over, each line's spans checked on the way:
    /// where a line has them they are its `split_whitespace` tokens, and
    /// an unmasked line has them exactly when it is ASCII and shorter
    /// than [`MAX_SPANNED_LINE_BYTES`].
    fn walked_rows<M: Masker>(source: LineSource<'_>, masker: M, window: usize) -> Rowed {
        let mut rows = Vec::new();
        let walked = walk_kept_lines_in(source, masker, window, |line, spans| {
            let split: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            if let Some(spans) = spans {
                let spanned: Vec<String> = spans
                    .iter()
                    .map(|&(a, b)| line[usize::from(a)..usize::from(b)].to_owned())
                    .collect();
                assert_eq!(spanned, split, "spans of {line:?}");
            }
            if masker.rules().is_empty() {
                let spanned = line.is_ascii() && line.len() < MAX_SPANNED_LINE_BYTES;
                assert_eq!(spans.is_some(), spanned, "{line:?}");
            }
            rows.push(split);
        });
        let (lines, masked) = walked.map_err(|e| e.to_string())?;
        assert_eq!(lines, rows.len());
        Ok((rows, masked))
    }

    /// The rows of the one-window corpus build of `bytes`.
    fn built_rows<M: Masker>(bytes: &[u8], masker: M) -> Rowed {
        let buffer = LineBuffer::Owned(bytes.to_vec());
        let out =
            build_chunk(&buffer, 0..bytes.len(), masker, usize::MAX).map_err(|e| e.to_string())?;
        let rows = out
            .arena
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&s| out.interner.resolve(s).to_owned())
                    .collect()
            })
            .collect();
        Ok((rows, out.masked))
    }

    /// Lines dense in what a kept-line walk can get wrong: every ASCII
    /// whitespace byte, CRLF, blank and whitespace-only lines, U+00A0 and
    /// U+0085, maskable tokens, lines of 65 530–70 000 bytes and, one
    /// draw in 40 of its variant, an invalid byte.
    fn walk_soup() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b"\r".to_vec()),
                Just(b" \t \x0b\x0c \n".to_vec()),
                Just("\u{a0}".as_bytes().to_vec()),
                Just("\u{85}".as_bytes().to_vec()),
                Just(b"blk_-42 10.0.0.1 7 /var/log".to_vec()),
                "[ -~]{1,12}".prop_map(String::into_bytes),
                (65_530usize..70_000).prop_map(|len| {
                    let mut line = b"\nlong ".repeat(len / 6);
                    line.push(b'\n');
                    line
                }),
                (0u8..40).prop_map(|roll| match roll {
                    0 => b"\xff\n".to_vec(),
                    _ => b"x 1\n".to_vec(),
                }),
            ],
            0..40,
        )
        .prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A kept-line walk hands over the lines a corpus build keeps, each
        /// with the tokens the build interns for it — placeholders where
        /// masked — and the build's masked counts, or fails with its first
        /// error: from a mapped file walked in windows of 1 to 300 bytes,
        /// and from a reader of 1 to 300 bytes a read into a buffer of 1 to
        /// 300 bytes, grown for longer lines.
        #[test]
        fn kept_line_walks_hand_over_the_builds_rows(
            bytes in walk_soup(),
            terminated in prop_oneof![Just(false), Just(true)],
            window in 1usize..=300,
            step in 1usize..=300,
        ) {
            let mut bytes = bytes;
            if terminated {
                bytes.push(b'\n');
            }
            let path = write_temp("kept-walk.log", &bytes);
            let masker = &Preprocessor::new(MaskRule::ALL.to_vec());
            for (built, walk) in [
                (built_rows(&bytes, Identity), None),
                (built_rows(&bytes, masker), Some(masker)),
            ] {
                let walked = |source: LineSource<'_>, window| match walk {
                    Some(masker) => walked_rows(source, masker, window),
                    None => walked_rows(source, Identity, window),
                };
                prop_assert_eq!(&walked(LineSource::Path(&path), window), &built);
                prop_assert_eq!(&walked(LineSource::Path(&path), WINDOW), &built);
                let mut reader = Trickle { bytes: &bytes, step };
                prop_assert_eq!(&walked(LineSource::Reader(&mut reader), window), &built);
            }
        }
    }

    /// The `Rss` and `KernelPageSize` of the mapping holding `at`, both
    /// in KiB, from `/proc/self/smaps`; `None` where that file does not
    /// exist.
    fn resident_kib(at: *const u8) -> Option<(u64, u64)> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let at = at as u64;
        let mut inside = false;
        let (mut rss, mut page) = (None, None);
        for line in smaps.lines() {
            let mut fields = line.split_whitespace();
            let first = fields.next().unwrap_or("");
            if let Some((low, high)) = first.split_once('-') {
                if let (Ok(low), Ok(high)) =
                    (u64::from_str_radix(low, 16), u64::from_str_radix(high, 16))
                {
                    if inside {
                        break;
                    }
                    inside = (low..high).contains(&at);
                    continue;
                }
            }
            let kib = fields.next().and_then(|n| n.parse().ok());
            match first {
                "Rss:" if inside => rss = kib,
                "KernelPageSize:" if inside => page = kib,
                _ => {}
            }
        }
        Some((
            rss.expect("the mapping's Rss"),
            page.expect("its page size"),
        ))
    }

    /// A build and a cut walk over a mapped file leave at most one
    /// window of it resident, and a record read afterwards faults its
    /// page back in with the file's bytes. The file is 24 MiB, six
    /// windows.
    #[test]
    fn a_walk_keeps_one_window_of_a_mapped_file_resident() {
        if !Path::new("/proc/self/smaps").exists() {
            eprintln!("skipped: no /proc/self/smaps to read residency from");
            return;
        }
        let line = |i: usize| format!("{i:08} worker {} took {} ms\n", i % 7, i % 13);
        let mut bytes = Vec::with_capacity(25 << 20);
        let mut lines = 0;
        while bytes.len() < 24 << 20 {
            bytes.extend_from_slice(line(lines).as_bytes());
            lines += 1;
        }
        let path = write_temp("resident.log", &bytes);
        drop(bytes);
        let bound = |page: u64| (WINDOW as u64 >> 10) + 2 * page;

        let corpus = Corpus::from_path(&path, &crate::Tokenizer).unwrap();
        assert_eq!(corpus.len(), lines);
        let (rss, page) = resident_kib(corpus.record(0).content.as_ptr()).unwrap();
        assert!(
            rss <= bound(page),
            "{rss} KiB of the mapping resident after the build"
        );
        for i in [0, lines / 2, lines - 1] {
            let record = corpus.record(i);
            assert_eq!(format!("{}\n", record.content), line(i));
            assert_eq!(record.line_no, i + 1);
        }
        drop(corpus);

        // One chunk is the counting walk alone; four add the walks to
        // each chunk's first line.
        for chunks in [1, 4] {
            let buffer = map_or_read(File::open(&path).unwrap()).unwrap();
            assert!(matches!(buffer, LineBuffer::Mapped(_)));
            let cuts = cuts_through_index(&buffer, chunks, CUT_INDEX_STRIDE, WINDOW);
            let (rss, page) = resident_kib(buffer.as_ptr()).unwrap();
            assert!(
                rss <= bound(page),
                "{rss} KiB of the mapping resident after the cuts into {chunks}"
            );
            assert_eq!(cuts.lines, lines);
            let parts = ParallelDriver::chunk_ranges(lines, chunks);
            for (cut, part) in cuts.cuts.iter().zip(&parts) {
                let text = line(part.start);
                assert_eq!(&buffer[*cut..*cut + text.len()], text.as_bytes());
            }
        }
        std::fs::remove_file(&path).unwrap();
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
            if let Some(spans) = line.spans {
                assert_eq!(spans, char_split_spans(line.text), "{:?}", line.text);
            }
            out.push(line.text.to_owned());
        }
    }

    /// The byte ranges of `text`'s `split_whitespace` tokens.
    fn char_split_spans(text: &str) -> Vec<TokenSpan> {
        text.split_whitespace()
            .map(|token| {
                let start = token.as_ptr() as usize - text.as_ptr() as usize;
                (start as u16, (start + token.len()) as u16)
            })
            .collect()
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

    /// Lines dense in what the spans can get wrong: every ASCII
    /// whitespace byte, CRLF, U+00A0 and U+0085 (whitespace to the char
    /// rule, not to the byte scan), an invalid byte, and lines from just
    /// under to just over [`MAX_SPANNED_LINE_BYTES`].
    fn span_soup() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b"\r".to_vec()),
                Just(b"\x0b".to_vec()),
                Just(b"\x0c".to_vec()),
                Just(b"\t".to_vec()),
                Just(b" ".to_vec()),
                Just("\u{a0}".as_bytes().to_vec()),
                Just("\u{85}".as_bytes().to_vec()),
                Just(b"\xff".to_vec()),
                "[a-d]{1,3}".prop_map(String::into_bytes),
                (
                    MAX_SPANNED_LINE_BYTES - 3..MAX_SPANNED_LINE_BYTES + 3,
                    0usize..4
                )
                    .prop_map(|(len, gap)| {
                        // A line of `len` bytes of tokens, the last one
                        // ending near the `u16` limit.
                        let mut line = b"\nword ".to_vec();
                        line.extend(b"tok ".iter().cycle().take(len - 5 - gap));
                        line.extend(std::iter::repeat_n(b'z', gap));
                        line.push(b'\n');
                        line
                    }),
            ],
            0..40,
        )
        .prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the bytes are cut into reads, a line's spans are the
        /// byte ranges of its `split_whitespace` tokens, and they are
        /// missing exactly from lines with a high byte, repaired lines and
        /// lines of [`MAX_SPANNED_LINE_BYTES`] or more.
        #[test]
        fn framer_spans_are_the_char_split_where_present(
            bytes in span_soup(),
            cuts in proptest::collection::vec(1usize..9, 0..200),
        ) {
            let mut pieces = Vec::new();
            let mut rest = &bytes[..];
            for cut in cuts.into_iter().chain([usize::MAX]) {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                pieces.push(piece);
                rest = after;
            }
            let mut seen: Vec<(String, Option<Vec<TokenSpan>>)> = Vec::new();
            let mut keep = |line: FramedLine<'_>| {
                seen.push((line.text.to_owned(), line.spans.map(<[_]>::to_vec)));
            };
            let (mut framer, mut damage) = (LineFramer::default(), LineDamage::default());
            for piece in &pieces {
                let mut piece = *piece;
                while !piece.is_empty() {
                    framer.fill_from(&mut piece).unwrap();
                    while framer.pop_lines(&mut damage, &mut keep) > 0 {}
                }
            }
            framer.finish(&mut damage, &mut keep);

            let mut raw: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
            let tail = raw.pop().filter(|tail| !tail.is_empty());
            let raw: Vec<&[u8]> = raw
                .into_iter()
                .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
                .chain(tail)
                .collect();
            prop_assert_eq!(seen.len(), raw.len());
            for ((text, spans), raw) in seen.iter().zip(raw) {
                let repaired = text.as_bytes() != raw;
                let high = raw.iter().any(|&b| b >= 0x80);
                let long = raw.len() >= MAX_SPANNED_LINE_BYTES;
                prop_assert_eq!(spans.is_some(), !(repaired || high || long), "{:?}", raw.len());
                if let Some(spans) = spans {
                    prop_assert_eq!(spans, &char_split_spans(text));
                }
            }
        }

        /// A streaming parser's [`line_spans`] are a framed line's.
        #[test]
        fn line_spans_are_the_framers(bytes in span_soup()) {
            let mut framed: Vec<(String, Option<Vec<TokenSpan>>)> = Vec::new();
            let mut keep = |line: FramedLine<'_>| {
                framed.push((line.text.to_owned(), line.spans.map(<[_]>::to_vec)));
            };
            let (mut framer, mut damage) = (LineFramer::default(), LineDamage::default());
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                framer.fill_from(&mut rest).unwrap();
                while framer.pop_lines(&mut damage, &mut keep) > 0 {}
            }
            framer.finish(&mut damage, &mut keep);
            let mut spans = Vec::new();
            for (text, expected) in &framed {
                let found = line_spans(text, &mut spans).map(<[_]>::to_vec);
                // A repaired line holds U+FFFD, so neither side has spans.
                prop_assert_eq!(&found, expected, "{:?}", text.len());
            }
        }
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
