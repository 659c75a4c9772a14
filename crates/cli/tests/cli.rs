//! End-to-end tests of the `logmine` binary, spawning the real
//! executable.

use std::io::Write;
use std::process::{Command, Stdio};

fn logmine() -> Command {
    Command::new(env!("CARGO_BIN_EXE_logmine"))
}

#[test]
fn help_prints_usage() {
    let out = logmine().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("logmine parse"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = logmine().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown command"));
}

#[test]
fn generate_emits_requested_count() {
    let out = logmine()
        .args([
            "generate",
            "--dataset",
            "proxifier",
            "--count",
            "25",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 25);
}

#[test]
fn generate_with_labels_prefixes_event_ids() {
    let out = logmine()
        .args(["generate", "--dataset", "hdfs", "--count", "10", "--labels"])
        .output()
        .unwrap();
    assert!(out.status.success());
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let (label, rest) = line.split_once('\t').expect("label TAB content");
        label.parse::<usize>().expect("numeric label");
        assert!(!rest.is_empty());
    }
}

#[test]
fn parse_reads_stdin_and_prints_events() {
    let mut child = logmine()
        .args(["parse", "--parser", "iplom"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"job 1 done\njob 2 done\nrestart now\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let events = String::from_utf8(out.stdout).unwrap();
    assert!(events.contains("job * done"), "{events}");
    assert!(events.contains("restart now"), "{events}");
}

#[test]
fn parse_generate_pipeline_recovers_templates() {
    let generated = logmine()
        .args([
            "generate",
            "--dataset",
            "proxifier",
            "--count",
            "300",
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    let mut child = logmine()
        .args(["parse", "--parser", "drain"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(&generated.stdout)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let events = String::from_utf8(out.stdout).unwrap();
    let count = events.lines().count();
    assert!(
        (4..=20).contains(&count),
        "expected close to 8 proxifier events, got {count}:\n{events}"
    );
}

#[test]
fn evaluate_reports_metrics() {
    let out = logmine()
        .args([
            "evaluate",
            "--dataset",
            "proxifier",
            "--parser",
            "slct",
            "--sample",
            "300",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("f-measure"));
    assert!(text.contains("SLCT"));
}

#[test]
fn detect_reports_confusion() {
    let out = logmine()
        .args(["detect", "--blocks", "300", "--rate", "0.05", "--seed", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("reported"));
    assert!(text.contains("false alarms"));
}

#[test]
fn invalid_option_value_fails_cleanly() {
    let out = logmine()
        .args(["generate", "--count", "not-a-number"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("invalid value"));

    // Every option names the value it could not parse.
    let out = logmine()
        .args(["serve", "--max-lines", "x"])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("invalid value `x` for --max-lines"), "{text}");
}

#[test]
fn unknown_option_fails_naming_it() {
    let out = logmine()
        .args(["parse", "--loader", "legacy", "input.log"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown option --loader"), "{text}");
}

/// `parse` and `jobs run` fail, naming the error, when an output file
/// cannot take the bytes: each writer is flushed, not dropped, so the
/// last buffered write's error reaches the exit code. `serve` fails the
/// same way when its event journal cannot, once the run has drained,
/// naming the journal's file.
#[test]
fn a_full_output_device_fails_parse_and_jobs_run() {
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        eprintln!("skipped: this system has no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join(format!("logmine-dev-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.log");
    std::fs::write(&corpus, "open file a\nopen file b\nclose file a\n").unwrap();
    let spare = dir.join("spare");
    for command in ["parse", "jobs run"] {
        for (full_side, spare_side) in [
            ("--events-out", "--structured-out"),
            ("--structured-out", "--events-out"),
        ] {
            let mut run = logmine();
            run.args(command.split(' '))
                .arg(&corpus)
                .args(["--parser", "drain", "-j", "1"])
                .arg(full_side)
                .arg(full)
                .arg(spare_side)
                .arg(&spare)
                .env_remove("LOGPARSE_FAULT");
            if command == "jobs run" {
                run.arg("--job-dir")
                    .arg(dir.join(format!("job{full_side}")));
            }
            let out = run.output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "{command} {full_side} /dev/full exited 0"
            );
            assert!(
                stderr.contains("error:") && stderr.contains("No space left on device"),
                "{command} {full_side} /dev/full: {stderr}"
            );
        }
    }
    for shards in ["1", "2"] {
        let out = logmine()
            .arg("serve")
            .arg(&corpus)
            .args(["--shards", shards, "--events-out"])
            .arg(full)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "serve --events-out /dev/full exited 0"
        );
        assert!(
            stderr.contains("error:")
                && stderr.contains("/dev/full")
                && stderr.contains("No space left on device"),
            "serve --events-out /dev/full: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `parse` over `fixtures/loader_v1/corpus.log` (300 generated hdfs
/// lines, a UTF-8 high-byte line, a CRLF run, a whitespace-only line, no
/// final newline) writes, from a file and from stdin, the bytes the
/// `BufRead::lines` + `Corpus::from_lines` loader of the commit before
/// its removal wrote.
#[test]
fn loader_v1_goldens_hold_from_file_and_stdin() {
    let fixtures =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/loader_v1");
    let corpus = fixtures.join("corpus.log");
    let out_dir = std::env::temp_dir().join(format!("logmine-loader-v1-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let cases: [(&str, &[&str]); 2] = [
        ("drain.j4", &["--parser", "drain", "-j", "4"]),
        (
            "iplom.masked",
            &["--parser", "iplom", "--preprocess", "ip,blk,num"],
        ),
    ];
    for (golden, options) in cases {
        for from_stdin in [false, true] {
            let events = out_dir.join("events");
            let structured = out_dir.join("structured");
            let mut command = logmine();
            command
                .arg("parse")
                .args(options)
                .arg("--events-out")
                .arg(&events)
                .arg("--structured-out")
                .arg(&structured);
            if from_stdin {
                command.stdin(std::fs::File::open(&corpus).unwrap());
            } else {
                command.arg(&corpus);
            }
            let out = command.output().unwrap();
            assert!(out.status.success(), "{golden} (stdin: {from_stdin})");
            for (written, kind) in [(&events, "events"), (&structured, "structured")] {
                assert_eq!(
                    std::fs::read(written).unwrap(),
                    std::fs::read(fixtures.join(format!("{golden}.{kind}"))).unwrap(),
                    "{golden}.{kind} (stdin: {from_stdin})"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `parse --parser drain -j 1` streams its input into Drain's tree and
/// builds no corpus, and so does `-j 0`, which is one thread; from a file
/// and from stdin, unmasked and masked, either writes the bytes of
/// Drain's batch parse of the corpus, and prints the same summary line.
#[test]
fn parse_drain_streams_to_the_corpus_paths_bytes() {
    use logparse_core::{
        write_events_file, write_structured_file, Corpus, LogParser, MaskRule, Preprocessor,
    };

    let dir = std::env::temp_dir().join(format!("logmine-fused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = logparse_datasets::hdfs::generate(5_000, 5);
    let mut log = b"\n  \r\n".to_vec();
    for i in 0..data.len() {
        log.extend_from_slice(data.line(i).as_bytes());
        log.extend_from_slice(if i % 7 == 0 { b"\r\n" } else { b"\n" });
    }
    log.extend_from_slice("na\u{ef}ve \u{a0}caf\u{e9} 7".as_bytes());
    let input = dir.join("input.log");
    std::fs::write(&input, &log).unwrap();
    let masks = [
        (None, Preprocessor::identity()),
        (
            Some("ip,blk,num"),
            Preprocessor::new(vec![
                MaskRule::IpAddress,
                MaskRule::BlockId,
                MaskRule::Number,
            ]),
        ),
    ];
    for (rules, preprocessor) in masks {
        let corpus = Corpus::from_path_masked(&input, &preprocessor, 1).unwrap();
        let parse = logparse_parsers::Drain::default().parse(&corpus).unwrap();
        let (mut events, mut structured) = (Vec::new(), Vec::new());
        write_events_file(&parse, &mut events).unwrap();
        write_structured_file(&corpus, &parse, &mut structured).unwrap();
        let summary = format!(
            "Drain: {} messages -> {} events, 0 outliers\n",
            parse.len(),
            parse.event_count()
        );
        for (threads, from_stdin) in [("1", false), ("1", true), ("0", false), ("0", true)] {
            let (events_out, structured_out) = (dir.join("events"), dir.join("structured"));
            let mut command = logmine();
            command.args(["parse", "--parser", "drain", "-j", threads]);
            if let Some(rules) = rules {
                command.args(["--preprocess", rules]);
            }
            command
                .arg("--events-out")
                .arg(&events_out)
                .arg("--structured-out")
                .arg(&structured_out);
            if from_stdin {
                command.stdin(std::fs::File::open(&input).unwrap());
            } else {
                command.arg(&input);
            }
            let out = command.output().unwrap();
            let case = format!("{rules:?} -j {threads} (stdin: {from_stdin})");
            assert!(out.status.success(), "{case}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), summary, "{case}");
            assert!(
                std::fs::read(&events_out).unwrap() == events,
                "{case}: events"
            );
            assert!(
                std::fs::read(&structured_out).unwrap() == structured,
                "{case}: structured"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Input that the batch line contract refuses — a last line that is not
/// UTF-8 — fails `parse` whether the parser streams (Drain at `-j 1`) or
/// parses a corpus (IPLoM), with one error, and before any output file
/// is created or truncated: a structured file already at that path keeps
/// its bytes.
#[test]
fn refused_input_fails_parse_and_leaves_the_outputs_alone() {
    let dir = std::env::temp_dir().join(format!("logmine-refused-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.log");
    std::fs::write(&input, b"open file a\nopen file b\n\xff").unwrap();
    let (events, structured) = (dir.join("events"), dir.join("structured"));
    let mut errors = Vec::new();
    for parser in ["drain", "iplom"] {
        for existing in [false, true] {
            let _ = std::fs::remove_file(&events);
            let _ = std::fs::remove_file(&structured);
            if existing {
                std::fs::write(&structured, b"1\t-\tEvent1\n").unwrap();
            }
            let out = logmine()
                .args(["parse", "--parser", parser, "-j", "1", "--events-out"])
                .arg(&events)
                .arg("--structured-out")
                .arg(&structured)
                .arg(&input)
                .output()
                .unwrap();
            assert!(!out.status.success(), "{parser} exited 0");
            assert!(!events.exists(), "{parser} created the events file");
            if existing {
                assert_eq!(std::fs::read(&structured).unwrap(), b"1\t-\tEvent1\n");
            } else {
                assert!(!structured.exists(), "{parser} created the structured file");
            }
            errors.push(String::from_utf8(out.stderr).unwrap());
        }
    }
    assert!(errors[0].contains("valid UTF-8"), "{}", errors[0]);
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `store inspect|verify` over the committed parent-written store
/// (see `crates/store/tests/format_frozen.rs`) print what the commit
/// that wrote it printed, byte for byte.
#[test]
fn store_inspect_and_verify_read_the_frozen_v1_store() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures");
    let run = |action: &str| {
        let out = logmine()
            .current_dir(&fixtures)
            .args(["store", action, "store_v1"])
            .output()
            .unwrap();
        assert!(out.status.success(), "store {action} failed");
        String::from_utf8(out.stdout).unwrap()
    };
    let frozen = std::fs::read_to_string(fixtures.join("store_v1.inspect.txt")).unwrap();
    assert_eq!(run("inspect"), frozen);
    assert_eq!(
        run("verify"),
        "ok: 8 shard(s), 30 global template id(s), 72 record(s) replayed\n"
    );
}

/// `store compact` over a copy of the same store folds it into one new
/// generation that `store verify` accepts and that holds the id space
/// and canonical templates the frozen inspection reports.
#[test]
fn store_compact_keeps_the_frozen_v1_store_verifiable_and_whole() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures");
    let dir = std::env::temp_dir().join(format!("logmine-store-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let copied = Command::new("cp")
        .arg("-r")
        .arg(fixtures.join("store_v1"))
        .arg(&dir)
        .status()
        .unwrap();
    assert!(copied.success());
    let run = |action: &str| {
        let out = logmine()
            .current_dir(&dir)
            .args(["store", action, "store_v1"])
            .output()
            .unwrap();
        let said = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "store {action} failed: {said}");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run("compact"),
        "compacted 8 shard(s) at generation 2: 72 log record(s) folded into snapshots\n"
    );
    run("verify");
    let totals = |inspection: &str| -> Vec<String> {
        let totals = inspection
            .lines()
            .filter(|line| line.starts_with("id space") || line.starts_with("canonical"));
        totals.map(str::to_owned).collect()
    };
    let frozen = std::fs::read_to_string(fixtures.join("store_v1.inspect.txt")).unwrap();
    assert_eq!(totals(&run("inspect")), totals(&frozen));
    assert_eq!(totals(&frozen).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parser is resolved before the corpus is loaded: a mistyped name
/// is reported as such, at once, even when the input cannot be read.
#[test]
fn unknown_parser_fails_before_the_corpus_is_loaded() {
    let out = logmine()
        .args(["parse", "--parser", "nope", "/nonexistent/big.log"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("unknown parser `nope`"), "{text}");
}

/// `serve` cuts lines in one place, so its four entry points — a file,
/// stdin, `--follow` and `--listen` — make the same lines of the same
/// hostile bytes: a CRLF run, a blank and a whitespace-only line,
/// multi-byte characters, invalid UTF-8 and a line over the length cap.
/// Everything printed after the `source` line and every event after
/// `ingest_started`, journal header fields aside, is identical.
#[test]
fn serve_entry_points_agree_on_hostile_bytes() {
    use std::io::{BufRead, BufReader, Read};

    let dir = std::env::temp_dir().join(format!("logmine-line-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut fixture = b"alpha 1\r\nalpha 2\r\n\n  \t \n".to_vec();
    fixture.extend_from_slice("naïve café\n".as_bytes());
    fixture.extend_from_slice(b"bad \xff\xfe bytes\n");
    fixture.extend_from_slice(&vec![b'x'; logparse_core::MAX_LINE_BYTES + 10]);
    fixture.push(b'\n');
    let log = dir.join("hostile.log");
    std::fs::write(&log, &fixture).unwrap();

    // One shard, and a flush interval no run reaches: one batch, so the
    // event sequence does not depend on how the bytes arrived.
    let serve = |entry: &str| {
        let events = dir.join(format!("{entry}.jsonl"));
        let mut command = logmine();
        command
            .args([
                "serve",
                "--shards",
                "1",
                "--window",
                "4",
                "--max-lines",
                "7",
            ])
            .args(["--flush-ms", "600000", "--events-out"])
            .arg(&events)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        match entry {
            "file" => command.arg(&log),
            "stdin" => command.stdin(std::fs::File::open(&log).unwrap()),
            "follow" => command.arg(&log).arg("--follow"),
            _ => command.args(["--listen", "127.0.0.1:0"]),
        };
        let mut child = command.spawn().unwrap();
        if entry == "listen" {
            let mut line = String::new();
            BufReader::new(child.stderr.take().unwrap())
                .read_line(&mut line)
                .unwrap();
            let addr = line.trim().strip_prefix("listening on ").expect(&line);
            let mut peer = std::net::TcpStream::connect(addr).unwrap();
            peer.write_all(&fixture).unwrap();
        }
        let mut stdout = String::new();
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut stdout)
            .unwrap();
        assert!(child.wait().unwrap().success(), "{entry}");
        let (source, summary) = stdout.split_once('\n').unwrap();
        assert!(source.starts_with("source "), "{entry}: {source}");
        let journal = std::fs::read_to_string(&events).unwrap();
        let events: Vec<String> = journal
            .lines()
            .filter(|event| !event.contains(r#""event":"ingest_started""#))
            .map(|event| {
                let (name, rest) = event.split_once(r#","seq":"#).unwrap();
                let (_, rest) = rest.split_once(r#","rot":"#).unwrap();
                format!(
                    "{name}{}",
                    rest.trim_start_matches(|c: char| c.is_ascii_digit())
                )
            })
            .collect();
        (summary.to_owned(), events)
    };

    let (summary, events) = serve("file");
    assert!(summary.starts_with("lines             7\n"), "{summary}");
    assert!(events[0].starts_with(r#"{"event":"batch_parsed""#));
    assert!(events
        .iter()
        .any(|e| e.contains(r#""line":"bad �� bytes""#)));
    assert!(events.last().unwrap().contains("shutdown_complete"));
    for entry in ["stdin", "follow", "listen"] {
        let (other_summary, other_events) = serve(entry);
        assert_eq!(other_summary, summary, "{entry}");
        assert_eq!(other_events, events, "{entry}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Out of file descriptors, `serve --listen` stops accepting until a
/// connection closes instead of ending the run with "Too many open
/// files": under a limit of 20 descriptors, 40 clients that each send
/// one line and close are all served.
#[cfg(unix)]
#[test]
fn serve_listen_outlives_running_out_of_file_descriptors() {
    use std::io::{BufRead, BufReader};

    // The limit applies to the child shell, and through `exec` to
    // `serve`, only.
    let mut child = Command::new("sh")
        .args(["-c", r#"ulimit -n 20 && exec "$0" "$@""#])
        .arg(env!("CARGO_BIN_EXE_logmine"))
        .args(["serve", "--listen", "127.0.0.1:0", "--max-lines", "40"])
        .args(["--shards", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect(&line);
    let clients: Vec<std::net::TcpStream> = (0..40)
        .map(|i| {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            writeln!(client, "client {i} says hello").unwrap();
            client
        })
        .collect();
    drop(clients);
    let out = child.wait_with_output().unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(out.status.success(), "{rest}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout
            .lines()
            .any(|l| l.split_whitespace().eq(["lines", "40"])),
        "{stdout}"
    );
}
