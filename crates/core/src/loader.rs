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
//!    boundaries in one SWAR pass, flagging blank lines (all ASCII
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
//!    produces) and the char-level [`Tokenizer`], for which U+00A0 or
//!    U+3000 separates tokens as a space does — and mask per token the
//!    same way.
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
use crate::tokenizer::Tokenizer;

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
            for token in Tokenizer::new().token_slices(content) {
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

/// Implementation behind [`Corpus::from_bytes`] and its parallel and
/// masked variants.
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

/// Implementation behind [`Corpus::from_reader_range`]: one seek and one
/// read of the range (and the byte before it), never the whole input.
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

/// Counts the kept lines of `path` and cuts it into `chunks` chunks in
/// two SWAR passes over one mmap/read: no interning, no record
/// materialization, no UTF-8 check.
///
/// # Errors
///
/// Returns [`ParseError::Io`] when the file cannot be opened or read.
pub fn corpus_cuts(path: impl AsRef<Path>, chunks: usize) -> Result<CorpusCuts, ParseError> {
    let buffer = map_or_read(File::open(path.as_ref())?)?;
    let lines = count_non_blank_lines(&buffer);
    let mut firsts = ParallelDriver::chunk_ranges(lines, chunks)
        .into_iter()
        .skip(1)
        .map(|range| range.start)
        .peekable();
    let mut cuts = vec![0];
    let mut line = 0usize;
    kept_line_starts(&buffer, |start| {
        if firsts.next_if_eq(&line).is_some() {
            cuts.push(start);
        }
        line += 1;
    });
    cuts.push(buffer.len());
    Ok(CorpusCuts { lines, cuts })
}

/// Counts the lines of `path` a corpus build would keep (non-blank
/// lines, per the skip-blank contract in [`crate::simd`]) without
/// building anything: one mmap/read plus one SWAR pass, no interning, no
/// record materialization. ([`corpus_cuts`] is this plus the byte
/// offsets a job coordinator shards by.)
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

/// The streaming line cutter: bytes in as they arrive, lines out. Every
/// `logmine serve` entry point cuts its lines here and nowhere else,
/// under the stream column of DESIGN.md's *Line contract* table: blank
/// lines kept, one `\r` stripped before `\n`, a line decoded only once
/// complete, invalid UTF-8 and over-long lines repaired and counted,
/// never refused.
///
/// Callers [`pop`](LineFramer::pop) until `None`, then
/// [`fill_from`](LineFramer::fill_from) their reader; read that way the
/// framer holds one capped line plus one chunk at most, whatever it is
/// sent.
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

    /// The next complete line, or `None` until more bytes arrive.
    pub fn pop(&mut self, damage: &mut LineDamage) -> Option<String> {
        let Some(nl) = find_newline(&self.buf[..self.end], self.scanned) else {
            // Of a line already over the cap, only enough is kept for
            // `decode` to see that it is: two bytes, as the coming `\n`
            // may strip a `\r`.
            self.end = self.end.min(self.head + MAX_LINE_BYTES + 2);
            self.scanned = self.end;
            return None;
        };
        let line = &self.buf[self.head..nl];
        self.head = nl + 1;
        self.scanned = self.head;
        Some(decode(line.strip_suffix(b"\r").unwrap_or(line), damage))
    }

    /// The unterminated tail at end of stream (EOF, connection close,
    /// rotation), trailing `\r` kept, if there is one; the framer is
    /// empty afterwards. Call once [`pop`](LineFramer::pop) has returned
    /// `None`.
    pub fn finish(&mut self, damage: &mut LineDamage) -> Option<String> {
        let LineFramer { buf, head, end, .. } = std::mem::take(self);
        (head < end).then(|| decode(&buf[head..end], damage))
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

    /// Reads `bytes` into `framer` the way every source does — a chunk
    /// once no complete line is held — popping the lines onto `out`.
    fn feed(framer: &mut LineFramer, bytes: &[u8], damage: &mut LineDamage, out: &mut Vec<String>) {
        let mut rest = bytes;
        while !rest.is_empty() {
            framer.fill_from(&mut rest).unwrap();
            out.extend(std::iter::from_fn(|| framer.pop(damage)));
        }
    }

    /// The lines of `pieces` fed one after another, tail included.
    fn lines_of(pieces: &[&[u8]]) -> (Vec<String>, LineDamage) {
        let (mut framer, mut damage, mut lines) = Default::default();
        for piece in pieces {
            feed(&mut framer, piece, &mut damage, &mut lines);
        }
        lines.extend(framer.finish(&mut damage));
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
        let capped = framer.finish(&mut damage).unwrap();
        assert_eq!((capped.len(), damage.too_long), (MAX_LINE_BYTES, 1));

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

    /// The one-shot statement of the contract: split at `\n`, strip one
    /// `\r` from terminated lines, keep a non-empty tail as it is,
    /// decode lossily.
    fn reference_lines(bytes: &[u8]) -> Vec<String> {
        let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let tail = pieces.pop().filter(|tail| !tail.is_empty());
        pieces
            .into_iter()
            .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
            .chain(tail)
            .map(|line| String::from_utf8_lossy(line).into_owned())
            .collect()
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
        /// a character, between `\r` and `\n` — the lines are the ones
        /// the whole buffer holds.
        #[test]
        fn framer_lines_do_not_depend_on_chunking(
            bytes in hostile_bytes(),
            cuts in proptest::collection::vec(1usize..9, 0..400),
        ) {
            let mut pieces = Vec::new();
            let mut rest = &bytes[..];
            // Past the last cut, the remainder goes in whole.
            for cut in cuts.into_iter().chain([usize::MAX]) {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                pieces.push(piece);
                rest = after;
            }
            let (lines, damage) = lines_of(&pieces);
            prop_assert_eq!(&lines, &reference_lines(&bytes));
            let repaired = lines.iter().filter(|l| l.contains('\u{fffd}')).count();
            prop_assert_eq!(damage, LineDamage { invalid_utf8: repaired as u64, too_long: 0 });
            if std::str::from_utf8(&bytes).is_ok() {
                let buffered: Vec<String> = bytes.lines().map(Result::unwrap).collect();
                prop_assert_eq!(&lines, &buffered);
            }
        }
    }
}
