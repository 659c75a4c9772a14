//! Differential goldens for the token-interning refactor.
//!
//! The symbol-arena representation in `logparse-core` must be purely an
//! implementation change: every parser's `Parse` — rendered templates
//! *and* per-message assignments — has to come out byte-identical to
//! the string-token implementation. These tests pin that down with
//! golden files generated from the pre-interning code on deterministic
//! corpora (seeded generators, no wall-clock anywhere), covering the
//! empty-corpus and single-token edges the arena's offset arithmetic
//! is most likely to get wrong.
//!
//! Regenerate (only when an *intentional* output change lands) with:
//!
//! ```text
//! cargo test --test interning_differential -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use logmine::core::{Corpus, LogParser, Template};
use logmine::datasets::hdfs;
use logmine::parsers::{Ael, Drain, Iplom, LenMa, Lke, LogMine, LogSig, Oracle, Slct, Spell};

/// The deterministic corpora the goldens cover, keyed by a stable name.
fn corpora() -> Vec<(&'static str, Corpus)> {
    let hdfs_corpus = hdfs::generate(300, 9).corpus;
    let edges = Corpus::from_lines([
        "Receiving block blk_-562725280853087685 src: /10.251.91.84:54106",
        "Receiving block blk_-562725280853087685 src: /10.251.43.21:45830",
        "PacketResponder 1 for block blk_38865049064139660 terminating",
        "PacketResponder 0 for block blk_38865049064139660 terminating",
        "verify",
        "verify",
        "",
        "a",
        "42",
        "x y z",
        "x y 9",
        "unmittelbar daß größer",
        "unmittelbar daß kleiner",
    ]);
    let single = Corpus::from_lines(["lonely"]);
    vec![
        ("hdfs300", hdfs_corpus),
        ("edges", edges),
        ("empty", Corpus::new()),
        ("single", single),
    ]
}

fn parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(4).seed(1).build()),
        Box::new(Drain::default()),
        Box::new(Spell::default()),
        Box::new(Ael::default()),
        Box::new(LenMa::default()),
        Box::new(LogMine::default()),
        Box::new(Oracle::new(vec![
            Template::from_pattern("Receiving block * src: *"),
            Template::from_pattern("PacketResponder * for block * terminating"),
            Template::from_pattern("verify"),
        ])),
    ]
}

/// Renders a parse (or its absence) into the canonical golden text:
/// templates one per line, then the assignment vector.
fn render(parser: &dyn LogParser, corpus: &Corpus) -> String {
    let mut out = String::new();
    match parser.parse(corpus) {
        Ok(parse) => {
            let _ = writeln!(out, "templates {}", parse.templates().len());
            for t in parse.templates() {
                let _ = writeln!(out, "T {t}");
            }
            let assigned: Vec<String> = parse
                .assignments()
                .iter()
                .map(|a| match a {
                    Some(e) => e.index().to_string(),
                    None => "-".to_string(),
                })
                .collect();
            let _ = writeln!(out, "assignments {}", assigned.join(" "));
        }
        Err(e) => {
            let _ = writeln!(out, "error {e}");
        }
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("interning")
}

fn golden_path(parser: &str, corpus: &str) -> PathBuf {
    golden_dir().join(format!("{parser}__{corpus}.txt"))
}

/// Every parser × corpus output must match its committed golden
/// byte-for-byte. This is the string-path ≡ interned-path proof: the
/// goldens were generated by the `Vec<Vec<String>>` implementation.
#[test]
fn parser_outputs_match_pre_interning_goldens() {
    let corpora = corpora();
    let mut missing = Vec::new();
    for parser in parsers() {
        for (corpus_name, corpus) in &corpora {
            let path = golden_path(parser.name(), corpus_name);
            let Ok(expected) = std::fs::read_to_string(&path) else {
                missing.push(path.display().to_string());
                continue;
            };
            let actual = render(parser.as_ref(), corpus);
            assert_eq!(
                actual,
                expected,
                "{} on `{corpus_name}` diverged from the string-token golden",
                parser.name()
            );
        }
    }
    assert!(missing.is_empty(), "goldens missing: {missing:?}");
}

/// Writes the goldens. Ignored by default; run explicitly after an
/// intentional output change and review the diff.
#[test]
#[ignore = "regenerates the committed goldens"]
fn regenerate() {
    std::fs::create_dir_all(golden_dir()).expect("create fixture dir");
    for parser in parsers() {
        for (corpus_name, corpus) in &corpora() {
            let text = render(parser.as_ref(), corpus);
            std::fs::write(golden_path(parser.name(), corpus_name), text).expect("write golden");
        }
    }
}
