//! Differential suite for the zero-copy corpus loader.
//!
//! `Corpus::from_path` (mmap + SWAR scanner + arena-direct interning)
//! replaced `BufRead::lines` + skip-blank + `Corpus::from_lines` on
//! every batch path, so its contract is *bit-identity*, not mere
//! equivalence: the corpus it builds must have the same records, the
//! same symbol ids in the same arena rows, and the same interner
//! contents as that pipeline — kept here as `legacy_corpus`, the
//! reference — and therefore every parser must produce byte-identical
//! events and structured output from either.
//!
//! The fixtures target the places a scanner can silently diverge from
//! `BufRead::lines` + skip-blank semantics:
//!
//! * CRLF line endings (the `\r` strip happens only before a `\n`);
//! * a missing trailing newline (the EOF line still counts — and keeps
//!   a bare trailing `\r`);
//! * empty files and whitespace-only lines (the skip-blank contract:
//!   a line is dropped iff every byte is ASCII whitespace);
//! * lines straddling the parallel loader's chunk boundaries (the
//!   chunk splitter must cut only at newlines, and the chunk-order
//!   interner merge must reproduce sequential symbol ids exactly);
//! * the cuts a job coordinator shards a file by (`corpus_cuts`) and the
//!   byte-range builds its workers run on them (`from_path_range`): no
//!   cut inside a line, and each range the slice of the whole build.

use std::io::{BufRead as _, Cursor, Read, Seek, SeekFrom, Write as _};
use std::path::PathBuf;

use logmine::core::{
    corpus_cuts, count_corpus_lines, write_events_file, write_structured_file, Corpus, LogParser,
    ParallelDriver, ParseError, Tokenizer,
};
use logmine::parsers::{Ael, Drain, Iplom, LenMa, Lke, LogMine, LogSig, Slct, Spell};
use proptest::prelude::*;

/// Writes `bytes` to a unique temp file and returns its path.
fn fixture_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "loader-diff-{tag}-{}-{:p}",
        std::process::id(),
        bytes as *const [u8]
    ));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(bytes).unwrap();
    f.flush().unwrap();
    path
}

/// The legacy pipeline: buffered line reading, lines of nothing but
/// ASCII whitespace dropped, char-level tokenization.
fn legacy_corpus(bytes: &[u8]) -> Corpus {
    let lines = bytes
        .lines()
        .map(|line| line.expect("fixtures are valid UTF-8"))
        .filter(|line| !line.bytes().all(|b| matches!(b, 0x09..=0x0d | b' ')));
    Corpus::from_lines(lines, &Tokenizer::default())
}

/// Asserts two corpora are bit-identical: same records (line numbers,
/// content), same symbol ids row by row, same vocabulary.
fn assert_bit_identical(a: &Corpus, b: &Corpus, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: corpus length");
    for i in 0..a.len() {
        assert_eq!(a.record(i), b.record(i), "{context}: record {i}");
        assert_eq!(
            a.symbols(i),
            b.symbols(i),
            "{context}: symbol ids of row {i}"
        );
    }
    assert_eq!(
        a.interner().len(),
        b.interner().len(),
        "{context}: interner vocabulary size"
    );
}

fn parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(2).seed(1).build()),
        Box::new(Drain::default()),
        Box::new(Spell::default()),
        Box::new(Ael::default()),
        Box::new(LenMa::default()),
        Box::new(LogMine::default()),
    ]
}

/// The edge-case fixtures, each a (tag, raw bytes) pair.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "plain",
            b"alpha beta 1\nalpha beta 2\ngamma delta\n".to_vec(),
        ),
        (
            "crlf",
            b"alpha beta 1\r\nalpha beta 2\r\ngamma delta\r\n".to_vec(),
        ),
        ("no-trailing-nl", b"alpha beta 1\nalpha beta 2".to_vec()),
        // A bare \r at EOF is *content* (BufRead::lines strips \r only
        // before \n), so this line is not blank and must be kept.
        ("eof-cr", b"alpha beta 1\nalpha beta 2\r".to_vec()),
        ("empty", Vec::new()),
        ("only-newlines", b"\n\n\n".to_vec()),
        (
            "whitespace-only-lines",
            b"alpha 1\n   \t \n\x0b\x0c\r\nalpha 2\n \n".to_vec(),
        ),
        (
            "mixed-endings",
            b"a 1\r\nb 2\nc 3\r\n\r\nd 4\ne 5\r".to_vec(),
        ),
        // Non-ASCII whitespace (U+00A0) is content, not blank.
        (
            "nbsp-line",
            "alpha 1\n\u{00a0}\nalpha 2\n".as_bytes().to_vec(),
        ),
        (
            "unicode",
            "näme=värt blk_42\nnäme=övrig blk_43\n".as_bytes().to_vec(),
        ),
    ]
}

/// A corpus whose lines straddle every chunk boundary the parallel
/// splitter can pick: long and short lines interleaved so no byte
/// offset is "safe" to cut at without the newline scan.
fn chunk_straddle_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..257usize {
        if i % 3 == 0 {
            out.extend_from_slice(
                format!(
                    "evt {} payload {} {} {}\n",
                    i % 5,
                    i,
                    "x".repeat(i % 41),
                    i * 7
                )
                .as_bytes(),
            );
        } else {
            out.extend_from_slice(format!("evt {} s\n", i % 5).as_bytes());
        }
        if i % 17 == 0 {
            out.extend_from_slice(b"   \n"); // blank amid the chunks
        }
    }
    out
}

/// Tentpole bit-identity: for every fixture, `from_path`,
/// `from_path_parallel`, `from_bytes`, and `from_bytes_parallel` all
/// reproduce the legacy `BufRead::lines` + `from_lines` corpus exactly.
#[test]
fn every_loader_entry_point_is_bit_identical_to_the_legacy_pipeline() {
    let tok = Tokenizer::default();
    for (tag, bytes) in fixtures() {
        let legacy = legacy_corpus(&bytes);
        let path = fixture_file(tag, &bytes);

        let mapped = Corpus::from_path(&path, &tok).unwrap();
        assert_bit_identical(&mapped, &legacy, &format!("{tag}: from_path"));

        let owned = Corpus::from_bytes(bytes.clone(), &tok).unwrap();
        assert_bit_identical(&owned, &legacy, &format!("{tag}: from_bytes"));

        for threads in [1usize, 2, 3, 8] {
            let par = Corpus::from_path_parallel(&path, &tok, threads).unwrap();
            assert_bit_identical(
                &par,
                &legacy,
                &format!("{tag}: from_path_parallel({threads})"),
            );
            let par_owned = Corpus::from_bytes_parallel(bytes.clone(), &tok, threads).unwrap();
            assert_bit_identical(
                &par_owned,
                &legacy,
                &format!("{tag}: from_bytes_parallel({threads})"),
            );
        }

        assert_eq!(
            count_corpus_lines(&path).unwrap(),
            legacy.len(),
            "{tag}: count_corpus_lines"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// End-to-end differential: each parser's events file and structured
/// file are byte-identical whether the corpus came from the legacy
/// reader or the zero-copy loader.
#[test]
fn parser_output_files_are_byte_identical_across_loaders() {
    let tok = Tokenizer::default();
    for (tag, bytes) in fixtures() {
        let legacy = legacy_corpus(&bytes);
        let path = fixture_file(&format!("e2e-{tag}"), &bytes);
        let mapped = Corpus::from_path(&path, &tok).unwrap();
        for parser in parsers() {
            let (old, new) = match (parser.parse(&legacy), parser.parse(&mapped)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(_), Err(_)) => continue, // same rejection either way
                _ => panic!(
                    "{tag}/{}: error behavior depends on the loader",
                    parser.name()
                ),
            };
            let (mut ev_old, mut ev_new) = (Vec::new(), Vec::new());
            write_events_file(&old, &mut ev_old).unwrap();
            write_events_file(&new, &mut ev_new).unwrap();
            assert_eq!(ev_old, ev_new, "{tag}/{}: events file", parser.name());

            let (mut st_old, mut st_new) = (Vec::new(), Vec::new());
            write_structured_file(&legacy, &old, &mut st_old).unwrap();
            write_structured_file(&mapped, &new, &mut st_new).unwrap();
            assert_eq!(st_old, st_new, "{tag}/{}: structured file", parser.name());
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Chunk-boundary stress: a corpus sized and shaped so parallel chunk
/// splits land mid-line at every thread count. The chunk-order interner
/// merge must make the parallel build bit-identical to sequential.
#[test]
fn chunk_straddling_lines_survive_the_parallel_build() {
    let tok = Tokenizer::default();
    let bytes = chunk_straddle_bytes();
    let legacy = legacy_corpus(&bytes);
    let path = fixture_file("straddle", &bytes);
    for threads in [1usize, 2, 3, 4, 7, 16, 64] {
        let par = Corpus::from_path_parallel(&path, &tok, threads).unwrap();
        assert_bit_identical(&par, &legacy, &format!("straddle at {threads} threads"));
    }
    assert_eq!(count_corpus_lines(&path).unwrap(), legacy.len());
    std::fs::remove_file(&path).ok();
}

/// A seekable input that records which of its bytes were read.
struct Watched {
    inner: Cursor<Vec<u8>>,
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

/// Text dense in what a cut can get wrong: blank runs, CRLF, a lone
/// `\r`, multi-byte characters (the checked slow path), and often no
/// final newline.
fn cuttable_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            Just("\n".to_owned()),
            Just("\n".to_owned()),
            Just("\r\n".to_owned()),
            Just("\r".to_owned()),
            Just(" \t".to_owned()),
            Just("é=€ ".to_owned()),
            "[ -~]{1,12}",
        ],
        0..80,
    )
    .prop_map(|pieces| pieces.concat().into_bytes())
}

/// A range a worker must never be handed is an error, not a corpus of
/// torn lines; an empty file (which cannot be mapped) has one range.
#[test]
fn a_byte_range_off_the_line_grid_is_refused() {
    let tok = Tokenizer::default();
    let path = fixture_file("grid", b"one 1\ntwo 2\r\n\nthree 3");
    for (range, lines) in [(0..6, 1), (6..13, 1), (6..14, 1), (14..21, 1), (0..21, 3)] {
        let built = Corpus::from_path_range(&path, &tok, range.clone(), 0).unwrap();
        assert_eq!(built.len(), lines, "{range:?}");
    }
    let backwards = std::ops::Range { start: 6, end: 0 };
    for range in [1..6, 0..5, 6..12, 15..21, 0..22, 22..22, backwards] {
        let refused = Corpus::from_path_range(&path, &tok, range.clone(), 0);
        assert!(
            matches!(refused, Err(ParseError::InvalidConfig { .. })),
            "{range:?}"
        );
    }
    let empty = fixture_file("grid-empty", b"");
    assert!(Corpus::from_path_range(&empty, &tok, 0..0, 0)
        .unwrap()
        .is_empty());
    assert!(Corpus::from_path_range(&empty, &tok, 0..1, 0).is_err());
    for path in [path, empty] {
        std::fs::remove_file(path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cuts a job is sharded by, and the builds its workers run on
    /// them: every cut a line start, chunk `k` of the line split exactly
    /// the kept lines between cuts `k` and `k + 1`, and a corpus built
    /// from those bytes alone — mapped, or sought and read — the slice
    /// of the whole-file build: records, line numbers, resolved tokens.
    #[test]
    fn byte_range_builds_are_slices_of_the_whole_build(
        bytes in cuttable_bytes(),
        shards in 1usize..10,
    ) {
        let tok = Tokenizer::default();
        let path = fixture_file("cuts", &bytes);
        let whole = Corpus::from_path(&path, &tok).unwrap();
        let measured = corpus_cuts(&path, shards).unwrap();
        let ranges = ParallelDriver::chunk_ranges(whole.len(), shards);
        prop_assert_eq!(measured.lines, whole.len());
        prop_assert_eq!(measured.cuts.len(), ranges.len() + 1);
        prop_assert_eq!(measured.cuts[0], 0);
        prop_assert_eq!(measured.cuts[ranges.len()], bytes.len());

        for (k, range) in ranges.iter().enumerate() {
            let cut = measured.cuts[k]..measured.cuts[k + 1];
            prop_assert!(cut.start == 0 || bytes[cut.start - 1] == b'\n', "cut {} splits a line", cut.start);
            prop_assert!(k == 0 || cut.start > measured.cuts[k - 1]);
            prop_assert_eq!(legacy_corpus(&bytes[cut.clone()]).len(), range.len());

            let expected = whole.slice(range.clone());
            let mapped = Corpus::from_path_range(&path, &tok, cut.clone(), range.start).unwrap();
            prop_assert_eq!(&mapped, &expected);

            // What a file that cannot be mapped costs: its range and the
            // byte before it, nothing else of the file.
            let mut input = Watched { inner: Cursor::new(bytes.clone()), touched: None, read: 0 };
            let sought = Corpus::from_reader_range(&mut input, &tok, cut.clone(), range.start).unwrap();
            prop_assert_eq!(&sought, &expected);
            let (low, high) = input.touched.unwrap_or((cut.start, cut.end));
            prop_assert!(low + 1 >= cut.start && high <= cut.end, "read {low}..{high} for {cut:?}");
            prop_assert!(input.read <= cut.len() + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Random printable-ASCII + whitespace soup — all six ASCII
    /// whitespace bytes (`\n` and `\r` through the separator too), and
    /// U+00A0 and U+3000, which send a line down the char-level path:
    /// `from_bytes` (and its parallel variant at an adversarial thread
    /// count) always reproduces the legacy pipeline bit-for-bit, and a
    /// kept line's tokens are its `split_whitespace`, whichever scanner
    /// path it took. (The class holds the characters themselves; the
    /// word ranges keep about half of a line token text.)
    #[test]
    fn from_bytes_matches_the_legacy_pipeline_on_arbitrary_text(
        lines in prop::collection::vec("[ -~a-zA-Z0-9_\t\x0b\x0c\r\u{a0}\u{3000}]{0,40}", 0..60),
        crlf in prop_oneof![Just(false), Just(true)],
        trailing in prop_oneof![Just(false), Just(true)],
        threads in 1usize..9,
    ) {
        let sep = if crlf { "\r\n" } else { "\n" };
        let mut text = lines.join(sep);
        if trailing && !text.is_empty() {
            text.push_str(sep);
        }
        let bytes = text.into_bytes();
        let legacy = legacy_corpus(&bytes);
        let tok = Tokenizer::default();

        let owned = Corpus::from_bytes(bytes.clone(), &tok).unwrap();
        prop_assert_eq!(&owned, &legacy);
        for i in 0..legacy.len() {
            let line = legacy.record(i).content;
            prop_assert_eq!(owned.tokens(i), line.split_whitespace().collect::<Vec<_>>(), "line {:?}", line);
        }

        let par = Corpus::from_bytes_parallel(bytes, &tok, threads).unwrap();
        prop_assert_eq!(&par, &legacy);
        prop_assert_eq!(par.interner().len(), legacy.interner().len());
    }
}
