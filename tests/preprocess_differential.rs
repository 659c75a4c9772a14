//! Differential suite for mask-before-interning.
//!
//! Preprocessing used to run *after* corpus construction:
//! `Preprocessor::apply` resolved every symbol to a string, masked it,
//! joined a fresh line per record and re-tokenized the lot. It now runs
//! in two places that must agree to the bit — fused into the zero-copy
//! loader (`Corpus::from_path_masked` / `from_bytes`: classify
//! each token before interning it) and at symbol level in
//! `Preprocessor::apply` (classify each distinct symbol once, remap the
//! rows). The goldens under `tests/fixtures/preprocess/` were written by
//! the string-rebuild implementation, on the commit before it was
//! deleted: the masked vocabulary in symbol-id order, then every
//! parser's events file and structured file. Both current paths must
//! reproduce them byte for byte.
//!
//! Regenerate (only when an *intentional* output change lands) with:
//!
//! ```text
//! cargo test --test preprocess_differential -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use logmine::core::{
    write_events_file, write_structured_file, Corpus, LogParser, MaskRule, Preprocessor, Symbol,
};
use logmine::datasets::{bgl, hdfs};
use logmine::parsers::{Drain, Iplom, Lke, LogSig, Slct};
use proptest::prelude::*;

/// What a scanner-level masker can silently get wrong: CRLF, a bare
/// `\r` at EOF, a whitespace-only line, lines with high bytes (the
/// checked slow path masks too), punctuation-wrapped variables (the
/// punctuation is part of the token a rule sees), and a raw token that
/// already equals a placeholder (it must share the placeholder's
/// symbol).
const EDGE: &[u8] = b"Receiving block blk_-562 src: (10.0.0.1): dest: /10.0.0.2:50010\r\n\
Receiving block blk_77 src: (10.0.0.3): dest: /10.0.0.4:50010\r\n\
 \t \r\n\
served $IP in 42 ms count (42), ok\n\
served 10.9.9.9 in 7 ms count (7), ok\n\
\n\
gr\xc3\xb6\xc3\x9fe 0xDEADBEEF core.2275 /var/log/app.log 3.5 blk_1\n\
gr\xc3\xb6\xc3\x9fe 0xFEED core.1 /usr/lib/x.so -1 blk_2\n\
deadbeefcafe [core.12], \"/a/b\"; 'blk_9' $NUM\n\
feedface defaced 1.2.3.4567 blk_ core. /tmp\n\
last 10.0.0.9\r";

/// The input files.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("hdfs300", hdfs::generate(300, 9).text().as_bytes().to_vec()),
        ("bgl300", bgl::generate(300, 9).text().as_bytes().to_vec()),
        ("edge", EDGE.to_vec()),
    ]
}

fn rule_sets() -> Vec<(&'static str, Preprocessor)> {
    vec![
        (
            "ip_blk",
            Preprocessor::new(vec![MaskRule::IpAddress, MaskRule::BlockId]),
        ),
        (
            "core_num",
            Preprocessor::new(vec![MaskRule::CoreId, MaskRule::Number]),
        ),
        ("all", Preprocessor::new(MaskRule::ALL.to_vec())),
    ]
}

fn parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(4).seed(1).build()),
        Box::new(Drain::default()),
    ]
}

/// The golden text of one masked corpus: its vocabulary in symbol-id
/// order (which pins first-occurrence numbering over the masked
/// stream), then each parser's two output files verbatim.
fn render(masked: &Corpus) -> String {
    let mut out = String::new();
    let vocabulary = masked.interner();
    let _ = writeln!(out, "# vocabulary {}", vocabulary.len());
    for id in 0..vocabulary.len() as u32 {
        let _ = writeln!(out, "{id}\t{}", vocabulary.resolve(Symbol::from_id(id)));
    }
    for parser in parsers() {
        match parser.parse(masked) {
            Ok(parse) => {
                let (mut events, mut structured) = (Vec::new(), Vec::new());
                write_events_file(&parse, &mut events).unwrap();
                write_structured_file(masked, &parse, &mut structured).unwrap();
                let _ = writeln!(out, "# {} events", parser.name());
                out.push_str(std::str::from_utf8(&events).unwrap());
                let _ = writeln!(out, "# {} structured", parser.name());
                out.push_str(std::str::from_utf8(&structured).unwrap());
            }
            Err(e) => {
                let _ = writeln!(out, "# {} error {e}", parser.name());
            }
        }
    }
    out
}

fn golden_path(fixture: &str, rules: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("preprocess")
        .join(format!("{fixture}__{rules}.txt"))
}

/// Asserts two corpora are bit-identical: same line numbers, same
/// symbol ids row by row, same vocabulary in the same order.
fn assert_bit_identical(a: &Corpus, b: &Corpus, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: corpus length");
    for i in 0..a.len() {
        assert_eq!(a.line_no(i), b.line_no(i), "{context}: line number {i}");
        assert_eq!(a.symbols(i), b.symbols(i), "{context}: symbols of row {i}");
    }
    assert!(a.interner() == b.interner(), "{context}: interner contents");
}

#[test]
fn fused_build_and_symbol_level_apply_match_the_goldens() {
    let dir = std::env::temp_dir().join(format!("preprocess-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut missing = Vec::new();
    for (fixture, bytes) in fixtures() {
        let raw = Corpus::from_bytes(bytes.clone(), &Preprocessor::identity(), 1).unwrap();
        let path = dir.join(fixture);
        std::fs::write(&path, &bytes).unwrap();
        for (rules, pre) in rule_sets() {
            let context = format!("{fixture}/{rules}");
            let applied = pre.apply(&raw);
            let fused = Corpus::from_bytes(bytes.clone(), &pre, 1).unwrap();
            assert_bit_identical(&fused, &applied, &context);
            let read = Corpus::from_path_masked(&path, &pre, 1).unwrap();
            assert_bit_identical(&read, &applied, &format!("{context} (file)"));
            // Only the token rows are masked.
            assert!(fused.line_numbers().eq(raw.line_numbers()), "{context}");

            let Ok(golden) = std::fs::read_to_string(golden_path(fixture, rules)) else {
                missing.push(context);
                continue;
            };
            assert_eq!(render(&fused), golden, "{context}: fused build vs golden");
            assert_eq!(render(&applied), golden, "{context}: apply vs golden");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(missing.is_empty(), "goldens missing for {missing:?}");
}

/// Writes the goldens from `apply(from_bytes(..))`. They were frozen
/// from the string-rebuild `apply`; rerun only for an intended change.
#[test]
#[ignore = "writes tests/fixtures/preprocess; run explicitly"]
fn regenerate() {
    for (fixture, bytes) in fixtures() {
        let raw = Corpus::from_bytes(bytes, &Preprocessor::identity(), 1).unwrap();
        for (rules, pre) in rule_sets() {
            let path = golden_path(fixture, rules);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, render(&pre.apply(&raw))).unwrap();
        }
    }
}

/// A corpus big enough to split (the parallel build stays sequential
/// under 64 KiB) whose variable-heavy lines straddle every chunk
/// boundary, with the edge lines sprinkled through so CRLF, blank and
/// high-byte lines land in every chunk.
fn chunk_straddle_bytes() -> Vec<u8> {
    let hdfs = hdfs::generate(2500, 21);
    let edge_lines: Vec<&[u8]> = EDGE.split(|&b| b == b'\n').collect();
    let mut out = Vec::new();
    for (i, line) in hdfs.text().lines().enumerate() {
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(if i % 5 == 0 { b"\r\n" } else { b"\n" });
        if i % 97 == 0 {
            out.extend_from_slice(edge_lines[(i / 97) % edge_lines.len()]);
            out.push(b'\n');
        }
    }
    assert!(out.len() > 1 << 17, "fixture too small to split");
    out
}

#[test]
fn fused_build_is_identical_at_any_thread_count() {
    let bytes = chunk_straddle_bytes();
    let raw = Corpus::from_bytes(bytes.clone(), &Preprocessor::identity(), 1).unwrap();
    for (rules, pre) in rule_sets() {
        let applied = pre.apply(&raw);
        for threads in [1usize, 2, 7] {
            let fused = Corpus::from_bytes(bytes.clone(), &pre, threads).unwrap();
            assert_bit_identical(&fused, &applied, &format!("{rules} at {threads} threads"));
        }
    }
}

/// Tokens shaped like what the rules look for, near-misses of those
/// shapes, placeholders occurring raw, and non-ASCII words.
fn arbitrary_token() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("block"),
            Just("src:"),
            Just("deadbeef"),
            Just("defaced"),
            Just("$IP"),
            Just("$NUM"),
            Just("blk_"),
            Just("core."),
            Just("/tmp"),
            Just("größe"),
            Just("naïve/ü/x"),
            Just("\u{a0}"),
            Just("::"),
        ]
        .prop_map(str::to_owned),
        (0u32..2000).prop_map(|n| n.to_string()),
        (-50i32..50).prop_map(|n| format!("{n}.5")),
        (0u32..300, 0u32..300).prop_map(|(a, b)| format!("/10.{a}.0.{b}:50010")),
        (0u32..300).prop_map(|a| format!("(10.0.{a}.1):")),
        (-9i64..9).prop_map(|n| format!("blk_{n}")),
        (0u32..40).prop_map(|n| format!("[core.{n}],")),
        (0u32..1000).prop_map(|n| format!("0x{n:X}")),
        (0u64..1 << 40).prop_map(|n| format!("{n:010x}")),
        (0u32..9).prop_map(|n| format!("/var/log/app{n}.log")),
        (0u32..9).prop_map(|n| format!("ü{n}")),
    ]
}

fn arbitrary_text() -> impl Strategy<Value = Vec<u8>> {
    let line = prop::collection::vec(arbitrary_token(), 0..7).prop_map(|tokens| tokens.join(" "));
    (
        prop::collection::vec(line, 0..30),
        prop_oneof![Just("\n"), Just("\r\n")],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(lines, sep, trailing)| {
            let mut text = lines.join(sep);
            if trailing {
                text.push_str(sep);
            }
            text.into_bytes()
        })
}

fn arbitrary_rules() -> impl Strategy<Value = Preprocessor> {
    prop::collection::vec(0usize..MaskRule::ALL.len(), 1..5)
        .prop_map(|picks| Preprocessor::new(picks.into_iter().map(|i| MaskRule::ALL[i]).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary log-like text, ASCII and UTF-8, under any rule
    /// order and any thread count: masking while building equals
    /// masking what was built.
    #[test]
    fn fused_build_equals_apply_on_arbitrary_text(
        bytes in arbitrary_text(),
        pre in arbitrary_rules(),
        threads in 1usize..5,
    ) {
        let applied = pre.apply(&Corpus::from_bytes(bytes.clone(), &Preprocessor::identity(), 1).unwrap());
        let fused = Corpus::from_bytes(bytes, &pre, threads).unwrap();
        prop_assert_eq!(&fused, &applied);
        prop_assert!(fused.interner() == applied.interner(), "symbol numbering differs");
    }

    /// Arbitrary bytes: where the unmasked build rejects a line as
    /// invalid UTF-8 the masked build reports the same `InvalidData`,
    /// and where it succeeds the two corpora are equal.
    #[test]
    fn invalid_utf8_is_the_same_error_with_or_without_masking(
        bytes in prop::collection::vec(
            prop_oneof![Just(b' '), Just(b'\n'), Just(b'1'), Just(b'.'), Just(0xc3u8), Just(0xb6u8), 0u8..=255],
            0..120,
        ),
        pre in arbitrary_rules(),
    ) {
        let fused = Corpus::from_bytes(bytes.clone(), &pre, 1);
        match Corpus::from_bytes(bytes, &Preprocessor::identity(), 1) {
            Ok(raw) => prop_assert_eq!(&fused.unwrap(), &pre.apply(&raw)),
            Err(unmasked) => {
                let masked = fused.expect_err("masking must not hide invalid UTF-8");
                prop_assert_eq!(masked.to_string(), unmasked.to_string());
                prop_assert!(masked.to_string().contains("valid UTF-8"));
            }
        }
    }
}
