//! Differential suite for the fused Drain path of `logmine parse
//! --parser drain -j 1` and of a `jobs` worker's Drain chunk.
//!
//! That path builds no corpus: `stream_drain` walks the input once
//! (`walk_kept_lines`) and hands each kept line, with its token spans, to
//! a `StreamingDrain`, and the parse is the ids it returns. The corpus
//! path — `Corpus::from_bytes` / `from_path_masked` / `from_path_range`,
//! then `Drain::parse` — is the reference: the events file and the
//! structured log written from either must be equal byte for byte, and
//! input one refuses the other refuses with the same error. Inputs come
//! from a file, from a reader, whose reads are cut anywhere, as a pipe
//! cuts them, and from byte ranges of a file, as a job cuts it.

use std::io::Read;
use std::path::PathBuf;

use logmine::core::{
    corpus_cuts, write_events_file, write_structured_file, write_structured_lines, Corpus,
    LineSource, LogParser, MaskRule, Preprocessor,
};
use logmine::datasets::hdfs;
use logmine::parsers::{stream_drain, Drain};
use proptest::prelude::*;

/// The events file and the structured log of one parse, or its error.
type Written = Result<(Vec<u8>, Vec<u8>), String>;

/// The corpus path: a corpus of `bytes`, Drain's batch parse of it.
fn corpus_path(bytes: &[u8], preprocessor: &Preprocessor) -> Written {
    let corpus = Corpus::from_bytes(bytes.to_vec(), preprocessor, 1).map_err(|e| e.to_string())?;
    let parse = Drain::default().parse(&corpus).map_err(|e| e.to_string())?;
    let (mut events, mut structured) = (Vec::new(), Vec::new());
    write_events_file(&parse, &mut events).unwrap();
    write_structured_file(&corpus, &parse, &mut structured).unwrap();
    Ok((events, structured))
}

/// The fused path, as `logmine parse` runs it: `stream_drain` of
/// `source`, the structured log numbered from 1.
fn fused_path(source: LineSource<'_>, preprocessor: &Preprocessor) -> Written {
    let parse = stream_drain(source, preprocessor).map_err(|e| e.to_string())?;
    let (mut events, mut structured) = (Vec::new(), Vec::new());
    write_events_file(&parse, &mut events).unwrap();
    write_structured_lines(1..=parse.len(), &parse, &mut structured).unwrap();
    Ok((events, structured))
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

/// Writes `bytes` to a temp file named for `tag` and this process.
fn fixture_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fused-diff-{tag}-{}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Asserts the fused path from a file and from a reader of `step` bytes
/// a read writes what the corpus path writes for `bytes`.
fn assert_paths_agree(tag: &str, bytes: &[u8], preprocessor: &Preprocessor, step: usize) {
    let expected = corpus_path(bytes, preprocessor);
    let path = fixture_file(tag, bytes);
    assert_eq!(
        fused_path(LineSource::Path(&path), preprocessor),
        expected,
        "{tag}: file"
    );
    let mut reader = Trickle { bytes, step };
    assert_eq!(
        fused_path(LineSource::Reader(&mut reader), preprocessor),
        expected,
        "{tag}: reader, {step} bytes a read"
    );
    let _ = std::fs::remove_file(path);
}

fn masked() -> Preprocessor {
    Preprocessor::new(vec![
        MaskRule::IpAddress,
        MaskRule::BlockId,
        MaskRule::Number,
    ])
}

/// Lines dense in what the fused path can get wrong: VT, FF, CR, CRLF,
/// U+00A0, U+0085, blank and whitespace-only lines, maskable tokens,
/// lines of 65 530–70 000 bytes (about the `u16` span limit) and, one
/// draw in 40 of its variant, a `\xff`.
fn hostile_soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b"\n".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\r".to_vec()),
            Just(b"\x0b".to_vec()),
            Just(b"\x0c".to_vec()),
            Just(b" \t \n".to_vec()),
            Just(" \u{a0}".as_bytes().to_vec()),
            Just("\u{85} ".as_bytes().to_vec()),
            Just(b"send pkt 7 to 10.0.0.1 blk_-42 ".to_vec()),
            "[a-d]{1,3} ".prop_map(String::into_bytes),
            "[ -~]{1,12}".prop_map(String::into_bytes),
            (65_530usize..70_000).prop_map(|len| {
                let mut line = b"\nlong ".repeat(len / 5);
                line.push(b'\n');
                line
            }),
            (0u8..40).prop_map(|roll| match roll {
                0 => b"\xff\n".to_vec(),
                _ => b"send pkt 9\n".to_vec(),
            }),
        ],
        0..40,
    )
    .prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On hostile bytes, with or without a final newline, masked or not,
    /// and whatever the reads are cut to (1 to 300 bytes), the fused path
    /// writes the corpus path's events and structured bytes, or fails
    /// with its error.
    #[test]
    fn fused_drain_writes_the_corpus_paths_bytes(
        bytes in hostile_soup(),
        terminated in prop_oneof![Just(false), Just(true)],
        mask in prop_oneof![Just(false), Just(true)],
        step in 1usize..=300,
    ) {
        let mut bytes = bytes;
        if terminated {
            bytes.push(b'\n');
        }
        let preprocessor = if mask { masked() } else { Preprocessor::identity() };
        assert_paths_agree("soup", &bytes, &preprocessor, step);
    }
}

/// `steady`-shaped lines: 32 templates of 5–14 tokens with parameters
/// from closed sets, so the vocabulary stays small and no compaction
/// runs.
fn steady(lines: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..lines {
        let template = (i * 7 + i / 3) % 32;
        let words = 5 + template % 10;
        let mut line = format!("svc{template} op{}", template % 5);
        for w in 2..words {
            if w % 3 == 0 {
                line.push_str(&format!(" v{}", (i + w) % 13));
            } else {
                line.push_str(&format!(" k{template}_{w}"));
            }
        }
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// `hdfs` lines: a fresh block id and addresses in most lines, so the
/// streaming table compacts many times over unmasked.
fn hdfs_lines(lines: usize) -> Vec<u8> {
    hdfs::generate(lines, 11).text().as_bytes().to_vec()
}

#[test]
fn fused_drain_matches_on_steady_and_hdfs() {
    assert_paths_agree("steady", &steady(30_000), &Preprocessor::identity(), 4096);
    let hdfs = hdfs_lines(20_000);
    assert_paths_agree("hdfs", &hdfs, &Preprocessor::identity(), 65_536);
    assert_paths_agree("hdfs-masked", &hdfs, &masked(), 1_000);
}

/// A file with invalid UTF-8 in its last line fails both paths, from a
/// file and from a reader, with one error.
#[test]
fn fused_and_corpus_paths_refuse_invalid_utf8_alike() {
    let bytes = b"send pkt 7\nsend pkt 8\n\xff".to_vec();
    let expected = corpus_path(&bytes, &Preprocessor::identity());
    assert!(
        expected.as_ref().is_err_and(|e| e.contains("valid UTF-8")),
        "{expected:?}"
    );
    assert_paths_agree("invalid", &bytes, &Preprocessor::identity(), 3);
}

/// What a `jobs` worker's Drain chunk of bytes `range` publishes, by the
/// range build and by the range walk: the events file and the per-line
/// event ids (the structured log of a chunk is its ids), or the error.
fn range_paths(path: &std::path::Path, range: std::ops::Range<usize>) -> [Written; 2] {
    let ids = |parse: &logmine::core::Parse| {
        let (mut events, mut structured) = (Vec::new(), Vec::new());
        write_events_file(parse, &mut events).unwrap();
        write_structured_lines(1..=parse.len(), parse, &mut structured).unwrap();
        (events, structured)
    };
    let built = Corpus::from_path_range(path, range.clone(), 0)
        .and_then(|corpus| Drain::default().parse(&corpus))
        .map(|parse| ids(&parse))
        .map_err(|e| e.to_string());
    let source = LineSource::PathRange(path, range);
    let walked = stream_drain(source, &Preprocessor::identity())
        .map(|parse| ids(&parse))
        .map_err(|e| e.to_string());
    [built, walked]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A worker's streamed Drain chunk writes what Drain's parse of the
    /// chunk's corpus writes, at a job's cuts into 1 to 6 shards of
    /// hostile soup (blank runs at a cut among them), and with a start
    /// moved off the line grid, which both refuse alike, as they refuse a
    /// chunk holding a `\xff` line.
    #[test]
    fn a_streamed_chunk_writes_the_chunk_corpus_paths_bytes(
        soups in (hostile_soup(), hostile_soup()),
        terminated in prop_oneof![Just(false), Just(true)],
        shards in 1usize..=6,
        nudge in 1usize..200,
    ) {
        let mut bytes = [soups.0, soups.1].join(&b"\n\n \r\n"[..]);
        if terminated {
            bytes.push(b'\n');
        }
        let path = fixture_file("range", &bytes);
        let cuts = corpus_cuts(&path, shards).unwrap().cuts;
        for cut in cuts.windows(2) {
            let [built, walked] = range_paths(&path, cut[0]..cut[1]);
            prop_assert_eq!(&walked, &built);
            let moved = (cut[0] + nudge).min(cut[1])..cut[1];
            let [built, walked] = range_paths(&path, moved);
            prop_assert_eq!(&walked, &built);
        }
        let _ = std::fs::remove_file(path);
    }
}

/// A chunk off the line grid and a chunk with a `\xff` line are refused
/// by the range walk with the range build's error.
#[test]
fn a_streamed_chunk_is_refused_as_the_chunk_corpus_is() {
    let path = fixture_file("range-refused", b"send pkt 7\nsend \xff 8\nsend pkt 9\n");
    for (range, error) in [
        (1..11, "line start"),
        (11..20, "valid UTF-8"),
        (0..99, "inside"),
    ] {
        let [built, walked] = range_paths(&path, range.clone());
        assert!(
            built.as_ref().is_err_and(|e| e.contains(error)),
            "{range:?}: {built:?}"
        );
        assert_eq!(walked, built, "{range:?}");
    }
    let [built, walked] = range_paths(&path, 20..31);
    assert!(built.is_ok());
    assert_eq!(walked, built);
    let _ = std::fs::remove_file(path);
}
