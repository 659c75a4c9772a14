//! Corpus construction: one read loop, one SWAR scan, arena-direct
//! interning, and no text kept.
//!
//! This module is how a log file or stream becomes a [`Corpus`], behind
//! [`Corpus::from_path`], [`Corpus::from_reader`] and
//! [`Corpus::from_bytes`] — no `String` per line, no `Vec<Symbol>` per
//! row, and no byte of the input once its line is interned:
//!
//! 1. **Read** — the input is read into one reused buffer of [`WINDOW`]
//!    bytes (1 MiB), doubled only while a single line fills it, and each
//!    run of whole lines a read completes goes on as one region
//!    ([`walk_reader`]); only the partial line at the buffer's end moves,
//!    to its front. A file built on N threads is cut into up to N byte
//!    ranges at line starts, each cut found by a short read past its ideal
//!    offset ([`chunk_byte_ranges`]), and each thread reads its own range
//!    through a buffer of its own, by offset through the one handle the
//!    build opened ([`ReadAt`]).
//! 2. **Scan** — [`crate::simd::scan`] finds newline and token
//!    boundaries in one SWAR pass, a 64-byte block of bitmasks per
//!    step, flagging blank lines (all ASCII whitespace) and lines
//!    containing non-ASCII bytes. Its one sink, [`SpanSink`], tracks
//!    where each line begins and stages the line's tokens as `u16`
//!    [`TokenSpan`]s; [`scan_kept`] applies the batch line contract to
//!    what it hands over: blank lines skipped (the skip-blank contract
//!    in [`crate::simd`]), and a line with high bytes UTF-8-checked —
//!    the same `InvalidData` error `BufRead::lines` produces — and left
//!    without spans, as is a line of [`MAX_SPANNED_LINE_BYTES`] or more.
//! 3. **Mask, then intern** — each token of a kept line, cut by its
//!    spans or, without them, by `split_whitespace` (for which U+00A0
//!    or U+3000 separates tokens as a space does), goes through the
//!    build's [`Masker`]: a token a [`MaskRule`] claims becomes the
//!    rule's fixed placeholder symbol and is never interned; every
//!    other token is interned straight into the open [`TokenArena`] row
//!    — one hash probe per token, no row vector. Without rules the
//!    masker is the zero-sized [`Identity`] and the step compiles away.
//!
//! The chunked-parallel build scans each range with a thread-local
//! interner/arena, then merges in range order: each chunk's vocabulary
//! is interned into the global table in local-id order and its arena
//! appended through the resulting symbol remap. Because local ids are
//! first-occurrence-ordered and chunks merge in corpus order, the merged
//! table assigns every token the same id the sequential build would —
//! the parallel corpus is **bit-identical**, not merely equivalent (the
//! differential suite asserts this). Masking changes nothing here: a
//! placeholder enters a chunk's table at its first occurrence like any
//! other token, so ids are first-occurrence-ordered over the *masked*
//! stream — the corpus [`Preprocessor::apply`] derives from the
//! unmasked build.
//!
//! [`walk_kept_lines`] is the other consumer of [`scan_kept`] and of the
//! same read loop: each kept line, with its token spans, goes to a caller
//! (`logmine parse --parser drain -j 1` and a `jobs` worker's Drain chunk
//! feed a streaming Drain), rebuilt with placeholders when masked, and
//! nothing is kept per line. The stream cutter, [`LineFramer`], scans
//! through the same [`SpanSink`] under the stream column instead: blank
//! lines kept, invalid UTF-8 and over-long lines repaired, each line's
//! first token named.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use logparse_obs::{Buckets, Counter, Histogram, Registry};

use crate::ascii_str::ascii_str;
use crate::error::ParseError;
use crate::intern::{row_end, Interner, Symbol, TokenArena};
use crate::parallel::ParallelDriver;
use crate::preprocess::{MaskRule, Preprocessor};
use crate::record::Corpus;
use crate::simd::{find_newline, kept_line_starts, scan, ScanSink};

/// Bytes of the one buffer a read walk — a corpus build, a kept-line
/// walk, a cut walk — reads its input into, per reading thread. A
/// streamed parse, a `jobs` worker's chunk, the coordinator's cuts and a
/// corpus build hold nothing else of their input, so this sets what of
/// it they hold; a smaller one costs more reads.
const WINDOW: usize = 1 << 20;

/// One `read` of `reader` into `buf`, `Interrupted` retried.
fn read_some(reader: &mut (impl Read + ?Sized), buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            result => return result,
        }
    }
}

/// Reads `reader` to its end into one buffer of `window` bytes, doubled
/// only while a single line fills it, and hands `region` every run of
/// whole lines as it arrives, the last run ending where the input does
/// (perhaps in an unterminated line): each byte is read and scanned
/// once, and only the partial line at the buffer's end moves, to its
/// front, when the buffer is full. `region` returns whether to read on;
/// the walk ends at its first `false`.
fn walk_reader(
    reader: &mut (impl Read + ?Sized),
    window: usize,
    mut region: impl FnMut(&[u8]) -> Result<bool, ParseError>,
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
        let read = read_some(reader, &mut buf[end..])?;
        if read == 0 {
            region(&buf[start..end])?;
            return Ok(());
        }
        let filled = end + read;
        if let Some(last) = buf[end..filled].iter().rposition(|&b| b == b'\n') {
            let cut = end + last + 1;
            if !region(&buf[start..cut])? {
                return Ok(());
            }
            start = cut;
        }
        end = filled;
    }
}

/// The `InvalidData` error `BufRead::lines` produces for non-UTF-8
/// input; the loader reports byte-identical failures.
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
/// generic parameter of the build and the walk, so the unmasked ones
/// carry no trace of it.
trait Masker: Copy + Send + Sync {
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

/// The token rows under construction — mask-or-intern each token into
/// the open arena row — and what a build, of a whole input or of one
/// chunk of it, hands back.
struct Rows<M> {
    masker: M,
    interner: Interner,
    arena: TokenArena,
    /// Tokens each of the masker's rules replaced.
    masked: Vec<u64>,
    /// The scan's staging vector for a line's token spans; reused.
    staged: Vec<TokenSpan>,
}

impl<M: Masker> Rows<M> {
    fn new(masker: M) -> Rows<M> {
        Rows {
            masker,
            interner: Interner::new(),
            arena: TokenArena::new(),
            masked: vec![0; masker.rules().len()],
            staged: Vec::new(),
        }
    }

    /// Seals the kept lines of `region` — whole lines, the last one
    /// perhaps unterminated — as rows, through [`scan_kept`].
    fn region(&mut self, region: &[u8]) -> Result<(), ParseError> {
        let mut staged = std::mem::take(&mut self.staged);
        let scanned = scan_kept(region, &mut staged, |text, spans| {
            self.push_line(text, spans)
        });
        self.staged = staged;
        scanned
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

    /// Seals one kept line of [`scan_kept`] as a row: its tokens cut by
    /// its spans where it has them, by `split_whitespace` otherwise.
    #[inline(always)]
    fn push_line(&mut self, text: &str, spans: Option<&[TokenSpan]>) -> Result<(), ParseError> {
        // Inlined, and plain loops, so that a line's tokens are interned
        // in the one call the scan makes per line (behind an iterator
        // adapter's closure `push_token` stayed a call per token); cut
        // without a char-boundary check, as `scan_kept` gives spans to
        // ASCII lines only. Each of the three slowed the masked build.
        match spans {
            Some(spans) => {
                let bytes = text.as_bytes();
                for &(start, end) in spans {
                    self.push_token(ascii_str(&bytes[usize::from(start)..usize::from(end)]));
                }
            }
            None => {
                for token in text.split_whitespace() {
                    self.push_token(token);
                }
            }
        }
        self.arena.try_finish_row().ok_or_else(too_many_tokens)
    }
}

/// Builds the kept lines `reader` holds, to its end, read `window` bytes
/// at a time through [`walk_reader`]. Regions hold whole lines and a
/// line is interned before the buffer moves on, so the rows are the
/// one-region scan's whatever `window`.
fn build_reader<M: Masker>(
    reader: &mut (impl Read + ?Sized),
    masker: M,
    window: usize,
) -> Result<Rows<M>, ParseError> {
    let mut rows = Rows::new(masker);
    walk_reader(reader, window, |region| rows.region(region).map(|()| true))?;
    Ok(rows)
}

/// An input read by offset — a file, or bytes in memory — so that the
/// threads building ranges of one file share the handle it was opened
/// with: none reopens the path, and a log renamed away and replaced
/// under the build is still read whole, from the file first opened.
trait ReadAt {
    /// Reads into `buf` from offset `at`; 0 at or past the input's end.
    fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<usize>;
}

#[cfg(unix)]
impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(self, buf, at)
    }
}

#[cfg(windows)]
impl ReadAt for File {
    fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<usize> {
        std::os::windows::fs::FileExt::seek_read(self, buf, at)
    }
}

impl ReadAt for &[u8] {
    fn read_at(&self, buf: &mut [u8], at: u64) -> std::io::Result<usize> {
        let rest = usize::try_from(at)
            .ok()
            .and_then(|at| self.get(at..))
            .unwrap_or(&[]);
        let read = rest.len().min(buf.len());
        buf[..read].copy_from_slice(&rest[..read]);
        Ok(read)
    }
}

/// Bytes `at..end` of a [`ReadAt`] input, read in order.
struct RangeReader<'a, I: ?Sized> {
    input: &'a I,
    at: u64,
    end: u64,
}

impl<'a, I: ReadAt + ?Sized> RangeReader<'a, I> {
    fn new(input: &'a I, range: Range<usize>) -> Self {
        RangeReader {
            input,
            at: range.start as u64,
            end: range.end as u64,
        }
    }
}

impl<I: ReadAt + ?Sized> Read for RangeReader<'_, I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = usize::try_from(self.end.saturating_sub(self.at)).unwrap_or(usize::MAX);
        let want = left.min(buf.len());
        if want == 0 {
            return Ok(0);
        }
        let read = self.input.read_at(&mut buf[..want], self.at)?;
        self.at += read as u64;
        Ok(read)
    }
}

/// The `UnexpectedEof` error for an input that ends before a range a
/// build reads — a file truncated under the build: the build fails
/// rather than drop the lines it lost.
fn shrank() -> ParseError {
    ParseError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "input ended inside the bytes a corpus build was reading: it shrank during the build",
    ))
}

/// [`build_reader`] over bytes `range` of `input`, read no further than
/// the range and to its end ([`shrank`] otherwise).
fn build_range<M: Masker>(
    input: &(impl ReadAt + ?Sized),
    range: Range<usize>,
    masker: M,
    window: usize,
) -> Result<Rows<M>, ParseError> {
    let mut reader = RangeReader::new(input, range);
    let rows = build_reader(&mut reader, masker, window)?;
    if reader.at < reader.end {
        return Err(shrank());
    }
    Ok(rows)
}

/// Splits an input of `len` bytes into up to `threads` ranges, each
/// starting at a line start: every cut but the last moves forward to
/// just past the first newline at or after the byte before it, found by
/// reading `input` from there ([`next_line_start`]).
fn chunk_byte_ranges(
    input: &(impl ReadAt + ?Sized),
    len: usize,
    threads: usize,
) -> Result<Vec<Range<usize>>, ParseError> {
    // Below ~64 KiB the thread spawn/merge overhead dominates.
    if threads <= 1 || len < 1 << 16 {
        return Ok(std::iter::once(0..len).collect());
    }
    let ideal = ParallelDriver::chunk_ranges(len, threads);
    let mut ranges = Vec::with_capacity(ideal.len());
    let mut start = 0usize;
    for r in &ideal[..ideal.len() - 1] {
        // Searching from `r.end - 1` keeps a boundary already sitting
        // just past a newline where it is.
        let end = next_line_start(input, r.end - 1, len)?.unwrap_or(len);
        if end > start && end < len {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges.push(start..len);
    Ok(ranges)
}

/// The offset just past the first `\n` in bytes `from..len` of `input`,
/// or `None` when there is none: read a few KiB at a time, as far as
/// that newline.
fn next_line_start(
    input: &(impl ReadAt + ?Sized),
    from: usize,
    len: usize,
) -> Result<Option<usize>, ParseError> {
    let mut reader = RangeReader::new(input, from..len);
    let mut buf = [0; 4096];
    let mut at = from;
    loop {
        let read = read_some(&mut reader, &mut buf)?;
        if read == 0 {
            return Ok(None);
        }
        if let Some(nl) = find_newline(&buf[..read], 0) {
            return Ok(Some(at + nl + 1));
        }
        at += read;
    }
}

/// Runs `build` over each of `ranges` on its own scoped thread and
/// merges the outputs in range order. `None` means a worker died
/// (panicked): the caller falls back to the sequential build rather
/// than guessing at partial output.
fn build_parallel<M: Masker>(
    ranges: &[Range<usize>],
    masker: M,
    build: impl Fn(Range<usize>) -> Result<Rows<M>, ParseError> + Sync,
) -> Option<Result<Rows<M>, ParseError>> {
    let build = &build;
    let mut slots: Vec<Option<Result<Rows<M>, ParseError>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let range = r.clone();
                scope.spawn(move || build(range))
            })
            .collect();
        for (slot, handle) in slots.iter_mut().zip(handles) {
            *slot = handle.join().ok();
        }
    });

    let mut merged = Rows::new(masker);
    let mut remap: Vec<Symbol> = Vec::new();
    for slot in slots {
        let chunk = match slot {
            Some(Ok(chunk)) => chunk,
            // Chunks merge in corpus order, so the first error seen is
            // the one the sequential build would have hit first.
            Some(Err(e)) => return Some(Err(e)),
            None => return None,
        };
        if row_end(merged.arena.token_count() + chunk.arena.token_count()).is_none() {
            return Some(Err(too_many_tokens()));
        }
        remap.clear();
        remap.extend((0..chunk.interner.len()).map(|id| {
            // Interning each chunk's vocabulary in local-id order is
            // what makes the merged table identical to the sequential
            // build's: local ids are first-occurrence-ordered, and
            // earlier chunks have already claimed every token that
            // first occurred before this chunk.
            merged
                .interner
                .intern(chunk.interner.resolve(Symbol::from_id(id as u32)))
        }));
        merged.arena.append_remapped(&chunk.arena, &remap);
        for (total, hits) in merged.masked.iter_mut().zip(chunk.masked) {
            *total += hits;
        }
    }
    Some(Ok(merged))
}

/// What a corpus build reads.
enum Input<'a> {
    /// The first `len` bytes of an input read by offset, split among the
    /// build's threads, all reading through this one handle.
    At(&'a (dyn ReadAt + Sync + 'a), usize),
    /// A stream (stdin, a pipe), read to its end on one thread.
    Stream(&'a mut (dyn Read + 'a)),
}

/// Builds `input`, `window` bytes at a time: an [`Input::At`]
/// chunk-parallel when it splits, sequentially otherwise (and when a
/// worker died).
fn build_input<M: Masker>(
    input: Input<'_>,
    masker: M,
    threads: usize,
    window: usize,
) -> Result<Rows<M>, ParseError> {
    let (input, len) = match input {
        Input::At(input, len) => (input, len),
        Input::Stream(reader) => return build_reader(reader, masker, window),
    };
    let ranges = chunk_byte_ranges(input, len, threads)?;
    if ranges.len() > 1 {
        let read = |range| build_range(input, range, masker, window);
        if let Some(result) = build_parallel(&ranges, masker, read) {
            return result;
        }
    }
    build_range(input, 0..len, masker, window)
}

/// Resolves the corpus-build metric handles (one registry probe per
/// build; builds are rare relative to the lines they process).
fn build_metrics(registry: &Registry) -> (Histogram, Counter) {
    (
        registry.histogram(
            "core_corpus_build_seconds",
            "Time for a corpus build (read + scan + intern)",
            &Buckets::durations(),
            &[],
        ),
        registry.counter(
            "core_corpus_build_lines_total",
            "Log lines materialized as records by corpus builds",
            &[],
        ),
    )
}

/// Runs `build` under the corpus-build span and counters and wraps the
/// rows it returns into a corpus whose lines are numbered from
/// `lines_before + 1`; `preprocessor` names the rules whose masked
/// counts it publishes.
fn measured_build<M: Masker>(
    preprocessor: &Preprocessor,
    lines_before: usize,
    build: impl FnOnce() -> Result<Rows<M>, ParseError>,
) -> Result<Corpus, ParseError> {
    let registry = logparse_obs::global();
    let (time_hist, lines_total) = build_metrics(registry);
    let span = registry.span_into(time_hist, "core_corpus_build", &[]);
    let rows = build()?;
    span.finish();
    lines_total.inc_by(rows.arena.rows() as u64);
    preprocessor.publish_masked(registry, &rows.masked);
    Ok(Corpus::assemble(
        lines_before + 1,
        rows.arena,
        Arc::new(rows.interner),
    ))
}

/// [`build_input`] under the masker `preprocessor` needs — [`Identity`]
/// when it has no rules — as a corpus numbered from 1. Every build of a
/// whole input, from a path, bytes or a reader, goes through here.
fn corpus_from_input(
    input: Input<'_>,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    if preprocessor.rules().is_empty() {
        measured_build(preprocessor, 0, || {
            build_input(input, Identity, threads, WINDOW)
        })
    } else {
        measured_build(preprocessor, 0, || {
            build_input(input, preprocessor, threads, WINDOW)
        })
    }
}

/// Implementation behind [`Corpus::from_path`] and its parallel and
/// masked variants.
pub(crate) fn corpus_from_path(
    path: &Path,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    corpus_from_file(&mut File::open(path)?, preprocessor, threads)
}

/// The build of an open file: the bytes it held when the build began,
/// read by offset through this one handle on every thread. A file of no
/// length — a pipe, a device, a procfs file, or an empty file — is read
/// to its end on one thread.
fn corpus_from_file(
    file: &mut File,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    let meta = file.metadata()?;
    if !meta.is_file() || meta.len() == 0 {
        return corpus_from_input(Input::Stream(file), preprocessor, threads);
    }
    let len = usize::try_from(meta.len()).unwrap_or(usize::MAX);
    corpus_from_input(Input::At(&*file, len), preprocessor, threads)
}

/// Implementation behind [`Corpus::from_bytes`].
pub(crate) fn corpus_from_bytes(
    bytes: &[u8],
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, ParseError> {
    corpus_from_input(Input::At(&bytes, bytes.len()), preprocessor, threads)
}

/// Implementation behind [`Corpus::from_reader`]: one thread, reading to
/// the end.
pub(crate) fn corpus_from_reader(
    reader: &mut dyn Read,
    preprocessor: &Preprocessor,
) -> Result<Corpus, ParseError> {
    corpus_from_input(Input::Stream(reader), preprocessor, 1)
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

/// Refuses a byte range whose ends were not both found at line starts.
fn check_line_starts(range: &Range<usize>, at_line_starts: bool) -> Result<(), ParseError> {
    if at_line_starts {
        return Ok(());
    }
    Err(ParseError::InvalidConfig {
        parameter: "bytes",
        reason: format!(
            "range {}..{} does not start and end at a line start",
            range.start, range.end
        ),
    })
}

/// Whether offset `at` of a seekable input is a line start: 0, or just
/// past a `\n`, read as the one byte before it.
fn is_line_start(reader: &mut (impl Read + Seek), at: usize) -> Result<bool, ParseError> {
    if at == 0 {
        return Ok(true);
    }
    let mut byte = [0];
    reader.seek(SeekFrom::Start(at as u64 - 1))?;
    reader.read_exact(&mut byte)?;
    Ok(byte[0] == b'\n')
}

/// Refuses bytes `range` of a seekable input when they are not inside
/// it or do not start at a line start — the end is the caller's to
/// check — and returns the input's length.
fn check_range_start(
    reader: &mut (impl Read + Seek),
    range: &Range<usize>,
) -> Result<usize, ParseError> {
    let file_len = usize::try_from(reader.seek(SeekFrom::End(0))?).unwrap_or(usize::MAX);
    check_range(range, file_len)?;
    let starts = is_line_start(reader, range.start)?;
    check_line_starts(range, starts)?;
    Ok(file_len)
}

/// Implementation behind [`Corpus::from_path_range`].
pub(crate) fn corpus_from_path_range(
    path: &Path,
    range: Range<usize>,
    lines_before: usize,
) -> Result<Corpus, ParseError> {
    corpus_from_reader_range(File::open(path)?, range, lines_before, WINDOW)
}

/// The corpus of the kept lines of bytes `range` of a seekable input,
/// numbered from `lines_before + 1`, read `window` bytes at a time: the
/// range, and the byte before its start, never the rest of the input. A
/// range that is not inside the input or does not start and end at a
/// line start is refused as [`walk_reader_range`] refuses it. A build
/// hands on nothing before it ends, so the byte before the range's end
/// is checked as the build reads it, not by a read of its own; only a
/// build that fails before reaching the end reads that byte again, so
/// that a range off the line grid is refused before the build's error.
pub(crate) fn corpus_from_reader_range(
    mut reader: impl Read + Seek,
    range: Range<usize>,
    lines_before: usize,
    window: usize,
) -> Result<Corpus, ParseError> {
    let file_len = check_range_start(&mut reader, &range)?;
    let unmasked = &Preprocessor::identity();
    measured_build(unmasked, lines_before, || {
        reader.seek(SeekFrom::Start(range.start as u64))?;
        let mut rows = Rows::new(Identity);
        // The last byte read and bytes read in all; an empty range reads
        // none and ends where it starts, at a line start.
        let (mut last, mut read) = (b'\n', 0);
        let built = walk_reader(
            &mut (&mut reader).take(range.len() as u64),
            window,
            |region| {
                if let Some(&byte) = region.last() {
                    last = byte;
                }
                read += region.len();
                rows.region(region).map(|()| true)
            },
        );
        if built.is_ok() && read < range.len() {
            return Err(shrank());
        }
        let ends = range.end == file_len
            || match built {
                Ok(()) => last == b'\n',
                Err(_) => is_line_start(&mut reader, range.end)?,
            };
        check_line_starts(&range, ends)?;
        built?;
        Ok(rows)
    })
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
/// one read pass and one short, sought read per cut: no interning, no
/// record materialization, no UTF-8 check.
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the file cannot be opened or read.
pub fn corpus_cuts(path: impl AsRef<Path>, chunks: usize) -> Result<CorpusCuts, ParseError> {
    cuts_through_index(File::open(path.as_ref())?, chunks, CUT_INDEX_STRIDE, WINDOW)
}

/// [`corpus_cuts`] of a seekable input. The one pass, read `window`
/// bytes at a time, counts the kept lines and records where every
/// `stride`-th begins; each chunk's first kept line is then found by
/// seeking to the index entry at or before it and reading on, fewer than
/// `stride` lines.
pub(crate) fn cuts_through_index(
    mut input: impl Read + Seek,
    chunks: usize,
    stride: usize,
    window: usize,
) -> Result<CorpusCuts, ParseError> {
    let stride = stride.max(1);
    let mut index = Vec::new();
    let (mut lines, mut len, mut until_entry) = (0usize, 0usize, 0usize);
    walk_reader(&mut input, window, |region| {
        for start in kept_line_starts(region, 0) {
            if until_entry == 0 {
                index.push(len + start);
                until_entry = stride;
            }
            until_entry -= 1;
            lines += 1;
        }
        len += region.len();
        Ok(true)
    })?;
    let mut cuts = vec![0];
    for chunk in ParallelDriver::chunk_ranges(lines, chunks)
        .into_iter()
        .skip(1)
    {
        let first = match index.get(chunk.start / stride) {
            Some(&entry) => nth_kept_line_start(&mut input, entry, chunk.start % stride, window)?,
            None => None,
        };
        cuts.push(first.unwrap_or(len));
    }
    cuts.push(len);
    Ok(CorpusCuts { lines, cuts })
}

/// Where the kept line `n` lines past the one at offset `from` begins,
/// read from `input` no further than that line's region.
fn nth_kept_line_start(
    input: &mut (impl Read + Seek),
    from: usize,
    n: usize,
    window: usize,
) -> Result<Option<usize>, ParseError> {
    input.seek(SeekFrom::Start(from as u64))?;
    let (mut at, mut left, mut found) = (from, n, None);
    walk_reader(input, window, |region| {
        for start in kept_line_starts(region, 0) {
            if left == 0 {
                found = Some(at + start);
                return Ok(false);
            }
            left -= 1;
        }
        at += region.len();
        Ok(true)
    })?;
    Ok(found)
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

/// Where [`walk_kept_lines`] reads a log from. Every source is read
/// through the corpus build's read loop, one reused buffer of 1 MiB grown
/// only for a line longer than it, so a walk holds that buffer of its
/// input and nothing else.
pub enum LineSource<'a> {
    /// A file.
    Path(&'a Path),
    /// Bytes `range` of a file, as [`Corpus::from_path_range`] builds
    /// them (a `jobs` worker's chunk): sought, and read no further than
    /// the range. The walk refuses, before it hands on any line, a range
    /// that is not inside the file or does not start and end at a line
    /// start, with the error the range build gives.
    PathRange(&'a Path, Range<usize>),
    /// Any reader — stdin.
    Reader(&'a mut dyn Read),
}

/// Hands each line a corpus build of `source` would keep to `each`, in
/// order, and returns how many — without building the corpus: the
/// corpus build's own read loop and line scan, and nothing held per
/// line. The batch column of DESIGN.md's *Line contract* holds: blank
/// lines are skipped and not counted, one `\r` before `\n` is stripped,
/// and a line with invalid UTF-8 fails the walk with the error a corpus
/// build gives, after `each` has seen the lines before it.
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
/// or holds a line that is not valid UTF-8, and
/// [`ParseError::InvalidConfig`] for a [`LineSource::PathRange`] that is
/// not inside its file or does not start and end at a line start.
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
    let mut kept = KeptLines::new(masker, each);
    let mut region = |region: &[u8]| kept.region(region).map(|()| true);
    match source {
        LineSource::Path(path) => walk_reader(&mut File::open(path)?, window, &mut region)?,
        LineSource::PathRange(path, range) => {
            walk_reader_range(File::open(path)?, range, window, &mut region)?
        }
        LineSource::Reader(reader) => walk_reader(reader, window, &mut region)?,
    }
    Ok((kept.lines, kept.masked))
}

/// Walks bytes `range` of a seekable input: refuses a range that is not
/// inside the input or does not start and end at a line start, reading
/// the byte before each end of it — before any line is handed on — then
/// seeks to it and reads it through [`walk_reader`]'s one window — never
/// the whole input, nor the whole range at once.
fn walk_reader_range(
    mut reader: impl Read + Seek,
    range: Range<usize>,
    window: usize,
    region: impl FnMut(&[u8]) -> Result<bool, ParseError>,
) -> Result<(), ParseError> {
    let file_len = check_range_start(&mut reader, &range)?;
    if range.end != file_len {
        let ends = is_line_start(&mut reader, range.end)?;
        check_line_starts(&range, ends)?;
    }
    reader.seek(SeekFrom::Start(range.start as u64))?;
    walk_reader(&mut reader.take(range.len() as u64), window, region)
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
    fn new(masker: M, each: F) -> Self {
        KeptLines {
            masked: vec![0; masker.rules().len()],
            masker,
            each,
            line: String::new(),
            line_spans: Vec::new(),
            lines: 0,
        }
    }

    /// Scans `region` — whole lines, the last one perhaps unterminated —
    /// once, handing on each kept line.
    fn region(&mut self, region: &[u8]) -> Result<(), ParseError> {
        scan_kept(region, &mut Vec::new(), |text, spans| {
            self.hand_on(text, spans);
            Ok(())
        })
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

/// The one scan sink behind every line cutter, the batch build and walk
/// ([`scan_kept`]) and the stream framer ([`deliver`]) alike: it tracks
/// where each line of `region` begins, stages the line's tokens as
/// [`TokenSpan`]s relative to that start, and hands the line — its
/// content range in `region`, whether it is blank, whether it holds a
/// byte ≥ 0x80, and its spans — to `each`. A token ending
/// [`MAX_SPANNED_LINE_BYTES`] or more into its line is not staged: such a
/// line's spans are dropped anyway.
struct SpanSink<'r, F> {
    region: &'r [u8],
    /// Where the current line begins in `region`.
    line_start: usize,
    /// Owned, not borrowed, for the scan: a push through a `&mut Vec`
    /// per token slowed the corpus build.
    spans: Vec<TokenSpan>,
    each: F,
}

impl<F> ScanSink for SpanSink<'_, F>
where
    F: FnMut(Range<usize>, bool, bool, &[TokenSpan]) -> Result<(), ParseError>,
{
    #[inline]
    fn token(&mut self, start: usize, end: usize) {
        if end - self.line_start < MAX_SPANNED_LINE_BYTES {
            self.spans.push((
                (start - self.line_start) as u16,
                (end - self.line_start) as u16,
            ));
        }
    }

    // Inlined into the scan's block walk, so that a line costs one call,
    // into `each`: a second call per line slowed the corpus build.
    #[inline(always)]
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
        let handed = (self.each)(start..content_end, blank, has_high, &self.spans);
        self.spans.clear();
        handed
    }
}

/// Scans `region` — whole lines, the last one perhaps unterminated —
/// once through a [`SpanSink`], `spans` its staging vector.
fn scan_lines(
    region: &[u8],
    spans: &mut Vec<TokenSpan>,
    each: impl FnMut(Range<usize>, bool, bool, &[TokenSpan]) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut sink = SpanSink {
        region,
        line_start: 0,
        spans: std::mem::take(spans),
        each,
    };
    let scanned = scan(region, &mut sink);
    *spans = sink.spans;
    scanned
}

/// [`scan_lines`] under the batch column of DESIGN.md's *Line contract*,
/// the one place the corpus build and the kept-line walk apply it: blank
/// lines are skipped, and a line with invalid UTF-8 fails the scan with
/// the error `BufRead::lines` gives. Each kept line goes to `each` with
/// its text and its spans where they are the token rule's: `None` for a
/// line with a byte ≥ 0x80 or of [`MAX_SPANNED_LINE_BYTES`] or more,
/// which is split by `split_whitespace` instead.
fn scan_kept(
    region: &[u8],
    spans: &mut Vec<TokenSpan>,
    mut each: impl FnMut(&str, Option<&[TokenSpan]>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    scan_lines(region, spans, |line, blank, has_high, spans| {
        let bytes = &region[line];
        if blank {
            Ok(())
        } else if has_high {
            let text = std::str::from_utf8(bytes).map_err(|_| invalid_utf8())?;
            each(text, None)
        } else {
            let whole = bytes.len() < MAX_SPANNED_LINE_BYTES;
            each(ascii_str(bytes), whole.then_some(spans))
        }
    })
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
        let read = read_some(reader, &mut self.buf[self.end..])?;
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
/// once, handing each line to `each` under the stream column of the
/// *Line contract*: blank lines kept, and a line repaired rather than
/// refused. The region is UTF-8-checked once; a line is checked on its
/// own only when that fails, and copied only to be repaired.
fn deliver(
    region: &[u8],
    spans: &mut Vec<TokenSpan>,
    damage: &mut LineDamage,
    mut each: impl FnMut(FramedLine<'_>),
) -> usize {
    let whole = std::str::from_utf8(region).ok();
    let mut lines = 0;
    // No line fails, so neither does the scan.
    let _ = scan_lines(region, spans, |line, _blank, has_high, spans| {
        lines += 1;
        let bytes = &region[line.clone()];
        let text = match whole {
            Some(whole) => whole.get(line),
            None => std::str::from_utf8(bytes).ok(),
        };
        match text {
            Some(text) if bytes.len() < MAX_SPANNED_LINE_BYTES => {
                let first = spans.first().map_or("", |&(from, to)| {
                    text.get(usize::from(from)..usize::from(to))
                        .unwrap_or_default()
                });
                each(FramedLine {
                    text,
                    first_token: first,
                    tokens: spans.len(),
                    spans: (!has_high).then_some(spans),
                });
            }
            Some(text) if bytes.len() <= MAX_LINE_BYTES => each(Shape::of(text).line(text)),
            _ => {
                let repaired = decode(bytes, damage);
                each(Shape::of(&repaired).line(&repaired));
            }
        }
        Ok(())
    });
    lines
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
    use std::io::Cursor;

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
        let ranges_of =
            |bytes: &[u8], threads| chunk_byte_ranges(&bytes, bytes.len(), threads).unwrap();
        for threads in [2, 3, 7] {
            let ranges = ranges_of(&corpus, threads);
            assert!(ranges.len() >= 2, "expected a real split at {threads}");
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, corpus.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(corpus[pair[0].end - 1], b'\n', "boundary mid-line");
            }
        }
        // Tiny inputs never split.
        assert_eq!(ranges_of(b"a\nb\n", 8), vec![0..4]);
    }

    /// Lines enough for a build to split at four threads.
    fn splittable_log() -> Vec<u8> {
        (0..9000)
            .flat_map(|i| format!("opened line {i} of the log\n").into_bytes())
            .collect()
    }

    #[test]
    fn a_build_reads_the_file_it_opened() {
        // A log rotated by rename-and-create between the open and the
        // build: every thread reads the file first opened, not the one
        // now at its path.
        let bytes = splittable_log();
        let path = write_temp("opened.log", &bytes);
        let mut file = File::open(&path).unwrap();
        let rotated = write_temp(
            "rotated-in.log",
            &bytes.to_ascii_uppercase()[..bytes.len() / 2],
        );
        std::fs::rename(&rotated, &path).unwrap();
        let identity = Preprocessor::identity();
        let expected = corpus_from_bytes(&bytes, &identity, 1).unwrap();
        for threads in [1, 4] {
            let built = corpus_from_file(&mut file, &identity, threads).unwrap();
            assert!(built == expected, "{threads} thread(s)");
        }
    }

    /// A seekable input that claims `len` bytes and holds fewer: a file
    /// truncated after a build took its length.
    struct Shrunk<'a> {
        inner: Cursor<&'a [u8]>,
        len: u64,
    }

    impl Read for Shrunk<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl Seek for Shrunk<'_> {
        fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
            match to {
                SeekFrom::End(0) => Ok(self.len),
                to => self.inner.seek(to),
            }
        }
    }

    fn ended_early<T>(built: Result<T, ParseError>) -> bool {
        matches!(built, Err(ParseError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof)
    }

    #[test]
    fn an_input_that_ends_inside_a_build_fails_it() {
        // Lines lost to a truncation under the build fail it; none is
        // dropped in silence.
        let bytes = splittable_log();
        let short = &bytes[..bytes.len() / 3];
        for threads in [1, 4] {
            let built = build_input(Input::At(&short, bytes.len()), Identity, threads, WINDOW);
            assert!(ended_early(built), "{threads} thread(s)");
        }
        let len = bytes.len() as u64;
        let shrunk = Shrunk {
            inner: Cursor::new(short),
            len,
        };
        assert!(ended_early(corpus_from_reader_range(
            shrunk,
            0..bytes.len(),
            0,
            WINDOW
        )));
    }

    #[test]
    fn a_range_build_refuses_an_end_off_the_line_grid_first() {
        // The build checks its end from the bytes it read; a range that
        // ends inside a line is refused as the walk refuses it, also when
        // the build failed first on a `\xff` byte of the range.
        let bytes = &b"send pkt 7\nsend \xff 8\nsend pkt 9\n"[..];
        for range in [0..13, 0..17, 11..17] {
            let walked = walk_reader_range(Cursor::new(bytes), range.clone(), WINDOW, |_| Ok(true));
            let built = corpus_from_reader_range(Cursor::new(bytes), range.clone(), 0, WINDOW);
            let built = built.map(|_| ()).map_err(|e| e.to_string());
            assert!(
                built.as_ref().is_err_and(|e| e.contains("line start")),
                "{range:?}: {built:?}"
            );
            assert_eq!(walked.map_err(|e| e.to_string()), built, "{range:?}");
        }
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

    /// The cuts the mapped walk gave on the `jobs_v1` fixture's corpus
    /// (300 `hdfs` lines) at 1 to 8 chunks, which a resumed job measures
    /// again: the read walk gives them too, whatever its window and
    /// index stride.
    #[test]
    fn cuts_of_the_jobs_v1_corpus_are_the_mapped_walks() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../jobs/tests/fixtures/jobs_v1/corpus.log"
        );
        let pinned: [&[usize]; 8] = [
            &[0, 26412],
            &[0, 13354, 26412],
            &[0, 8789, 17804, 26412],
            &[0, 6708, 13354, 19872, 26412],
            &[0, 5425, 10585, 15942, 21093, 26412],
            &[0, 4542, 8789, 13354, 17804, 21944, 26412],
            &[0, 3826, 7630, 11433, 15241, 19127, 22627, 26412],
            &[0, 3398, 6834, 10074, 13528, 16786, 19949, 23088, 26412],
        ];
        for (chunks, cuts) in (1..).zip(pinned) {
            let measured = corpus_cuts(path, chunks).unwrap();
            assert_eq!((measured.lines, &measured.cuts[..]), (300, cuts));
            for (stride, window) in [(1, 1), (7, 100), (64, 4096)] {
                let file = File::open(path).unwrap();
                let walked = cuts_through_index(file, chunks, stride, window).unwrap();
                assert_eq!(walked, measured, "stride {stride}, window {window}");
            }
        }
    }

    /// A seekable input that records which of its bytes were read, and
    /// hands over at most `step` bytes a read.
    struct Watched {
        inner: std::io::Cursor<Vec<u8>>,
        step: usize,
        /// Lowest and one past the highest offset read, and bytes in all.
        touched: Option<(usize, usize)>,
        read: usize,
    }

    impl Watched {
        fn new(bytes: &[u8], step: usize) -> Watched {
            Watched {
                inner: std::io::Cursor::new(bytes.to_vec()),
                step,
                touched: None,
                read: 0,
            }
        }
    }

    impl Read for Watched {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.inner.position() as usize;
            let n = buf.len().min(self.step);
            let n = self.inner.read(&mut buf[..n])?;
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

        /// What a range build costs: a chunk's range and the byte before
        /// it, nothing else of the input — and the corpus
        /// read from there is the chunk's slice of the whole build. The
        /// text is dense in what a cut can get wrong: blank runs, CRLF, a
        /// lone `\r`, multi-byte characters, and often no final newline.
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
            let whole = corpus_from_bytes(&bytes, &Preprocessor::identity(), 1).unwrap();
            let measured = corpus_cuts(write_temp("reader-range.log", &bytes), shards).unwrap();
            let ranges = ParallelDriver::chunk_ranges(whole.len(), shards);
            for (k, range) in ranges.into_iter().enumerate() {
                let cut = measured.cuts[k]..measured.cuts[k + 1];
                let mut input = Watched::new(&bytes, usize::MAX);
                let sought =
                    corpus_from_reader_range(&mut input, cut.clone(), range.start, WINDOW).unwrap();
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
                cuts_through_index(Cursor::new(&bytes), chunks, stride, WINDOW).unwrap(),
                two_pass_cuts(&bytes, chunks)
            );
        }
    }

    /// A build's output in the terms two builds of one input must agree
    /// on: the vocabulary in id order, the token rows and the masked
    /// counts — or the first error.
    type Parts = Result<(Vec<String>, TokenArena, Vec<u64>), String>;

    fn parts<M>(rows: Result<Rows<M>, ParseError>) -> Parts {
        let rows = rows.map_err(|e| e.to_string())?;
        Ok((vocabulary(&rows.interner), rows.arena, rows.masked))
    }

    /// The same, for a corpus: its line numbers stand where a build's
    /// masked counts do.
    type CorpusParts = Result<(Vec<String>, TokenArena, Vec<usize>), String>;

    fn corpus_parts(corpus: Result<Corpus, ParseError>) -> CorpusParts {
        let corpus = corpus.map_err(|e| e.to_string())?;
        Ok((
            vocabulary(corpus.interner()),
            corpus.arena().clone(),
            corpus.line_numbers().collect(),
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

        /// A jobs worker's range build and a coordinator's cuts do not
        /// depend on the read buffer either: each chunk of the cuts
        /// builds to the one-window corpus, and the windowed cut walk
        /// cuts where the one-window walk does.
        #[test]
        fn windowed_ranges_and_cuts_equal_the_one_window_ones(
            bytes in window_soup(),
            window in 1usize..=300,
            chunks in 1usize..=4,
            stride in 1usize..6,
        ) {
            let path = write_temp("window-ranges.log", &bytes);
            let file = || File::open(&path).unwrap();
            let one = bytes.len() + 1;
            let whole = cuts_through_index(file(), chunks, stride, one).unwrap();
            prop_assert_eq!(&cuts_through_index(file(), chunks, stride, window).unwrap(), &whole);
            prop_assert_eq!(
                corpus_cuts(&path, chunks).unwrap(),
                cuts_through_index(file(), chunks, CUT_INDEX_STRIDE, one).unwrap()
            );
            let mut lines_before = 0;
            for cut in whole.cuts.windows(2) {
                let range = cut[0]..cut[1];
                let build = |window| {
                    corpus_from_reader_range(file(), range.clone(), lines_before, window)
                };
                let whole = corpus_parts(build(one));
                prop_assert_eq!(&corpus_parts(build(window)), &whole);
                lines_before += whole.map_or(0, |(_, _, lines)| lines.len());
            }
        }

        /// The read build of a file — sequential, or on 1 to 8 threads
        /// each reading its own range through the one handle — is the build
        /// of the same bytes in memory ([`Corpus::from_bytes`]), masked
        /// or not: same vocabulary order, rows and line numbers, or the
        /// same error (a `\xff` line is refused alike). So is the build
        /// of a reader handing over 1 to 300 bytes a read, and, masked
        /// counts included, a build through a read buffer of 1 to 300
        /// bytes, so that regions of one line, of blank lines only, and
        /// lines longer than the buffer all occur. The soup holds CRLF,
        /// blank lines, lines of 65 530–70 000 bytes, and often no final
        /// newline; an input past 64 KiB splits at the threads' cuts, and
        /// any input at line starts by hand.
        #[test]
        fn read_builds_equal_the_in_memory_build(
            bytes in walk_soup(),
            terminated in prop_oneof![Just(false), Just(true)],
            window in 1usize..=300,
            threads in 1usize..=8,
        ) {
            let mut bytes = bytes;
            if terminated {
                bytes.push(b'\n');
            }
            let path = write_temp("read-build.log", &bytes);
            let all = Preprocessor::new(MaskRule::ALL.to_vec());
            for preprocessor in [&Preprocessor::identity(), &all] {
                let reference = corpus_parts(corpus_from_bytes(&bytes, preprocessor, 1));
                let read = corpus_from_path(&path, preprocessor, threads);
                prop_assert_eq!(&corpus_parts(read), &reference);
                let mut reader = Trickle { bytes: &bytes, step: window };
                let read = corpus_from_reader(&mut reader, preprocessor);
                prop_assert_eq!(&corpus_parts(read), &reference);
            }
            let masker = &all;
            let whole = parts(build_reader(&mut &bytes[..], masker, bytes.len() + 1));
            let file = File::open(&path).unwrap();
            let read = build_input(Input::At(&file, bytes.len()), masker, threads, window);
            prop_assert_eq!(&parts(read), &whole);
            let ranges = line_ranges(&bytes, threads);
            let split = build_parallel(&ranges, masker, |range| {
                build_range(&file, range, masker, window)
            });
            prop_assert_eq!(&parts(split.unwrap()), &whole);
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
    /// walk, a corpus build and the buffered reference of one input must
    /// agree on.
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

    /// The rows of the corpus build of `reader`, `window` bytes at a time.
    fn built_rows<M: Masker>(reader: &mut impl Read, masker: M, window: usize) -> Rowed {
        let out = build_reader(reader, masker, window).map_err(|e| e.to_string())?;
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

    /// The rows of `bytes` by the buffered reference, which shares no
    /// scan with the loader: the non-blank lines of `BufRead::lines` into
    /// [`Corpus::from_lines`], then [`Preprocessor::apply`], each rule's
    /// hits counted over the unmasked tokens — or the first line's error.
    fn reference_rows(bytes: &[u8], preprocessor: &Preprocessor) -> Rowed {
        let mut kept = Vec::new();
        for line in bytes.lines() {
            let line = line.map_err(|e| ParseError::from(e).to_string())?;
            if !line.bytes().all(|b| matches!(b, b'\t'..=b'\r' | b' ')) {
                kept.push(line);
            }
        }
        let corpus = Corpus::from_lines(&kept);
        let mut masked = vec![0; preprocessor.rules().len()];
        for i in 0..corpus.len() {
            for token in corpus.tokens(i) {
                if let Some(rule) = preprocessor.classify(token.as_bytes()) {
                    masked[rule] += 1;
                }
            }
        }
        let corpus = preprocessor.apply(&corpus);
        let rows = (0..corpus.len())
            .map(|i| corpus.tokens(i).into_iter().map(str::to_owned).collect())
            .collect();
        Ok((rows, masked))
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
                    let mut line = b"\n".to_vec();
                    line.extend(b"long ".iter().cycle().take(len));
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

        /// A kept-line walk and a corpus build both hand over the lines the
        /// buffered reference keeps, each with the reference's tokens —
        /// placeholders where masked — and its masked counts, or fail with
        /// its first error: the walk from a file through a window of 1 to
        /// 300 bytes and of [`WINDOW`], and from a reader of 1 to 300 bytes
        /// a read into a buffer of 1 to 300 bytes, grown for longer lines;
        /// the build from the file through a buffer of 1 to 300 bytes.
        #[test]
        fn kept_line_walks_and_builds_hand_over_the_line_readers_rows(
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
            let all = Preprocessor::new(MaskRule::ALL.to_vec());
            for preprocessor in [&Preprocessor::identity(), &all] {
                let reference = reference_rows(&bytes, preprocessor);
                let masked = !preprocessor.rules().is_empty();
                let walked = |source: LineSource<'_>, window| match masked {
                    true => walked_rows(source, preprocessor, window),
                    false => walked_rows(source, Identity, window),
                };
                prop_assert_eq!(&walked(LineSource::Path(&path), window), &reference);
                prop_assert_eq!(&walked(LineSource::Path(&path), WINDOW), &reference);
                let mut reader = Trickle { bytes: &bytes, step };
                prop_assert_eq!(&walked(LineSource::Reader(&mut reader), window), &reference);
                let file = &mut File::open(&path).unwrap();
                let built = match masked {
                    true => built_rows(file, preprocessor, window),
                    false => built_rows(file, Identity, window),
                };
                prop_assert_eq!(&built, &reference);
            }
        }
    }

    /// The rows of a corpus, for [`Rowed`]: no rule masked anything.
    fn corpus_rows(corpus: Result<Corpus, ParseError>) -> Rowed {
        let corpus = corpus.map_err(|e| e.to_string())?;
        let rows = (0..corpus.len())
            .map(|i| corpus.tokens(i).into_iter().map(str::to_owned).collect())
            .collect();
        Ok((rows, Vec::new()))
    }

    /// The rows a range walk of `input` hands over.
    fn reader_range_rows(input: &mut Watched, range: Range<usize>, window: usize) -> Rowed {
        let mut rows = Vec::new();
        let mut kept = KeptLines::new(Identity, |line: &str, _: Option<&[TokenSpan]>| {
            rows.push(line.split_whitespace().map(str::to_owned).collect());
        });
        walk_reader_range(input, range, window, |region| {
            kept.region(region).map(|()| true)
        })
        .map_err(|e| e.to_string())?;
        assert_eq!(kept.lines, rows.len());
        Ok((rows, Vec::new()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A range walk — what a `jobs` worker streams — hands over the
        /// rows of the range builds of the same bytes (from the file, and
        /// from a reader), or fails with their error: from a file read
        /// through a window of 1 to 300 bytes and of [`WINDOW`], and from
        /// a reader of 1 to 300 bytes a read, which it reads no further
        /// than the range and the byte before each end. The ranges are a
        /// job's cuts at 1 to 5 shards (blank runs at a cut, CRLF, `\xff`
        /// lines, lines of 65 530–70 000 bytes, often no final newline),
        /// each with its start moved by up to 4 KiB, most often off the
        /// line grid, and one range past the file's end.
        #[test]
        fn range_walks_hand_over_the_range_builds_rows(
            soups in (walk_soup(), walk_soup(), walk_soup()),
            terminated in prop_oneof![Just(false), Just(true)],
            shards in 1usize..6,
            nudge in 0usize..4096,
            window in 1usize..=300,
            step in 1usize..=300,
        ) {
            let (a, b, c) = soups;
            let mut bytes = [a, b, c].join(&b"\n \n\r\n\n"[..]);
            if terminated {
                bytes.push(b'\n');
            }
            let path = write_temp("range-walk.log", &bytes);
            let cuts = corpus_cuts(&path, shards).unwrap().cuts;
            let mut ranges: Vec<Range<usize>> = cuts.windows(2).map(|cut| cut[0]..cut[1]).collect();
            let moved: Vec<_> = ranges
                .iter()
                .map(|range| (range.start + nudge).min(range.end)..range.end)
                .collect();
            ranges.extend(moved);
            ranges.push(bytes.len().saturating_sub(3)..bytes.len() + 1);
            for range in ranges {
                let source = || LineSource::PathRange(&path, range.clone());
                let built = corpus_rows(corpus_from_path_range(&path, range.clone(), 0));
                prop_assert_eq!(&walked_rows(source(), Identity, window), &built, "{:?}", range);
                prop_assert_eq!(&walked_rows(source(), Identity, WINDOW), &built, "{:?}", range);
                let mut input = Watched::new(&bytes, step);
                let read =
                    corpus_rows(corpus_from_reader_range(&mut input, range.clone(), 0, window));
                prop_assert_eq!(&read, &built, "{:?}", range);
                let mut input = Watched::new(&bytes, step);
                prop_assert_eq!(&reader_range_rows(&mut input, range.clone(), window), &built);
                if let Some((low, high)) = input.touched {
                    let near = range.start.saturating_sub(1)..range.end;
                    prop_assert!(near.start <= low && high <= near.end, "read {low}..{high} for {range:?}");
                    prop_assert!(input.read <= range.len() + 2);
                }
            }
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
