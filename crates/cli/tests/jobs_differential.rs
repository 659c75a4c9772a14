//! Differential acceptance test: for every batch parser, `logmine jobs
//! run -j N` (shards fanned out across worker *processes*, each built
//! from its own byte range of the file, reduced through the template
//! merge) must produce events and structured-log files byte-identical to
//! `logmine parse -j N` (in-process threads over one whole-file corpus).
//! The job layer is a deployment change, never a semantic one.

use std::path::{Path, PathBuf};
use std::process::Command;

use logparse_parsers::{extension_parsers, study_parsers};

const BIN: &str = env!("CARGO_BIN_EXE_logmine");

fn line(i: usize) -> String {
    match i % 5 {
        0 => format!("block blk_{i} replicated to node {}", i % 7),
        1 => format!("received packet {} from 10.0.0.{}", i * 3, i % 250),
        2 => format!("session {} closed after {} ms", i, i % 997),
        3 => format!("cache miss for key user-{} shard {}", i % 53, i % 5),
        _ => format!("worker {} heartbeat ok seq {}", i % 9, i),
    }
}

/// 1 500 kept lines, cut three ways at lines 500 and 1 000, with every
/// cut in an awkward place: CRLF on the line before it, a blank run
/// across it, a non-ASCII line (the loader's checked slow path) right
/// after it — and blank lines elsewhere, trailing ones after the last
/// kept line, no final newline.
fn hostile_text() -> String {
    let mut text = String::from("\n \t\n");
    for i in 0..1_500 {
        match i % 500 {
            0 if i > 0 => text += &format!("übertragung blk_{i} läuft auf knoten {}\n", i % 7),
            499 => text += &format!("{}\r\n\r\n   \n\n\t\r\n", line(i)),
            _ => text += &format!("{}\n", line(i)),
        }
        if i % 97 == 0 {
            text += "  \n";
        }
    }
    text + "\n\n \t\n  "
}

/// Every name `batch_parser` answers to.
fn roster() -> Vec<String> {
    let parsers = study_parsers().into_iter().chain(extension_parsers());
    parsers.map(|p| p.name().to_lowercase()).collect()
}

fn scratch(tag: &str, text: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("logmine-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.log");
    std::fs::write(&corpus, text).unwrap();
    (dir, corpus)
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `parse -j shards` and `jobs run -j shards` with `parser` over
/// `corpus` and holds the two pairs of output files to each other.
fn assert_jobs_match_parse(dir: &Path, corpus: &Path, parser: &str, shards: &str) {
    let p_events = dir.join(format!("{parser}-parse.events"));
    let p_logs = dir.join(format!("{parser}-parse.structured"));
    let out = Command::new(BIN)
        .arg("parse")
        .args(["--parser", parser, "-j", shards])
        .arg("--events-out")
        .arg(&p_events)
        .arg("--structured-out")
        .arg(&p_logs)
        .arg(corpus)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "parse --parser {parser} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let j_events = dir.join(format!("{parser}-jobs.events"));
    let j_logs = dir.join(format!("{parser}-jobs.structured"));
    let job_dir = dir.join(format!("{parser}-job"));
    let out = Command::new(BIN)
        .args(["jobs", "run"])
        .arg(corpus)
        .arg("--job-dir")
        .arg(&job_dir)
        .args(["--parser", parser, "-j", shards])
        .arg("--events-out")
        .arg(&j_events)
        .arg("--structured-out")
        .arg(&j_logs)
        .env_remove("LOGPARSE_FAULT")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "jobs run --parser {parser} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert!(
        read(&p_events) == read(&j_events),
        "{parser}: events diverge between parse -j {shards} and jobs run -j {shards}"
    );
    assert!(
        read(&p_logs) == read(&j_logs),
        "{parser}: structured logs diverge between parse -j {shards} and jobs run -j {shards}"
    );
}

#[test]
fn jobs_run_matches_parse_for_every_parser() {
    let text: String = (0..1_500).map(|i| line(i) + "\n").collect();
    let (dir, corpus) = scratch("plain", &text);
    let roster = roster();
    assert_eq!(roster.len(), 9, "{roster:?}");
    for parser in &roster {
        assert_jobs_match_parse(&dir, &corpus, parser, "3");
    }
}

#[test]
fn jobs_run_matches_parse_where_the_cuts_are_awkward() {
    let (dir, corpus) = scratch("hostile", &hostile_text());
    for parser in &roster() {
        assert_jobs_match_parse(&dir, &corpus, parser, "3");
    }
    // Fewer kept lines than shards: two one-line tasks, not five.
    let (dir, corpus) = scratch("sparse", "\n\nalpha beta 1\r\n \n\nalpha beta 2");
    assert_jobs_match_parse(&dir, &corpus, "drain", "5");
    let tasks = std::fs::read_dir(dir.join("drain-job/out"))
        .unwrap()
        .count();
    assert_eq!(tasks, 2);
}
