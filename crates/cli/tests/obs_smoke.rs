//! Observability smoke test: runs `logmine serve` with a live metrics
//! endpoint over a fixture log, scrapes it mid-run, and checks both the
//! exposition (family coverage, histogram invariants) and the graceful
//! SIGTERM drain (complete, run-id-stamped event log).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FIXTURE_LINES: usize = 4_000;

fn logmine() -> Command {
    Command::new(env!("CARGO_BIN_EXE_logmine"))
}

fn fixture_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("logmine-obs-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_fixture(path: &std::path::Path) {
    let mut text = String::new();
    for i in 0..FIXTURE_LINES {
        match i % 3 {
            0 => text.push_str(&format!("send pkt {i} ok\n")),
            1 => text.push_str(&format!("recv ack {i}\n")),
            _ => text.push_str(&format!("conn from 10.0.0.{} established\n", i % 200)),
        }
    }
    std::fs::write(path, text).unwrap();
}

/// One HTTP GET against the metrics endpoint; returns the body.
fn scrape(addr: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "unexpected status: {head}"
    );
    Some(body.to_owned())
}

/// Extracts the first sample value of `series` (exact name + label match
/// up to the space) from an exposition body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.split(' ').next() == Some(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn terminate(child: &mut Child) {
    let pid = child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM {pid} failed");
}

#[test]
fn serve_exposes_pipeline_metrics_and_drains_on_sigterm() {
    let dir = fixture_dir();
    let log = dir.join("input.log");
    let events = dir.join("events.jsonl");
    write_fixture(&log);

    // --follow keeps the source alive after EOF so the endpoint can be
    // scraped at leisure; SIGTERM is the only way the run ends.
    let mut child = logmine()
        .args([
            "serve",
            log.to_str().unwrap(),
            "--follow",
            "--metrics-addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--window",
            "500",
            "--warmup",
            "2",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address is the first stderr line.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("metrics listening on ")
        .unwrap_or_else(|| panic!("expected metrics address line, got: {line}"))
        .to_owned();

    // Poll until every stage has digested the whole fixture: the router
    // leads and the workers/aggregator lag, so wait on the downstream
    // counters, not just `ingest_lines_total`.
    let deadline = Instant::now() + Duration::from_secs(30);
    let body = loop {
        let body = scrape(&addr).unwrap_or_default();
        let routed = sample(&body, "ingest_lines_total").unwrap_or(0.0);
        let parsed: f64 = (0..2)
            .filter_map(|s| {
                sample(
                    &body,
                    &format!("ingest_parsed_lines_total{{shard=\"{s}\"}}"),
                )
            })
            .sum();
        let scored = sample(&body, "ingest_windows_scored_total").unwrap_or(0.0);
        if routed >= FIXTURE_LINES as f64 && parsed >= FIXTURE_LINES as f64 && scored >= 8.0 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "pipeline never digested the fixture; last scrape:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    // The issue's bar: at least 12 distinct families spanning every
    // pipeline stage (source, workers, aggregator, scoring, checkpoint).
    let expected = [
        "ingest_lines_total",
        "ingest_source_idle_polls_total",
        "ingest_batches_routed_total",
        "ingest_backpressure_stalls_total",
        "ingest_queue_depth",
        "ingest_parsed_lines_total",
        "ingest_parse_duration_seconds",
        "ingest_shard_groups",
        "ingest_shard_vocabulary",
        "ingest_template_merges_total",
        "ingest_global_templates",
        "ingest_windows_scored_total",
        "ingest_anomalies_total",
        "ingest_window_score_duration_seconds",
        "ingest_checkpoints_total",
        "ingest_checkpoint_write_duration_seconds",
        "obs_dropped_labels_total",
    ];
    for family in expected {
        assert!(
            body.contains(&format!("# TYPE {family} ")),
            "family {family} missing from scrape:\n{body}"
        );
    }
    let families = body.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(families >= 12, "only {families} families exposed");

    // Live pipeline state made it into the exposition.
    assert_eq!(sample(&body, "ingest_global_templates"), Some(3.0));
    let parsed: f64 = (0..2)
        .map(|s| {
            sample(
                &body,
                &format!("ingest_parsed_lines_total{{shard=\"{s}\"}}"),
            )
            .unwrap()
        })
        .sum();
    assert_eq!(parsed, FIXTURE_LINES as f64);
    assert!(sample(&body, "ingest_windows_scored_total").is_some_and(|v| v >= 8.0));

    // Histogram invariants: per series, cumulative bucket counts are
    // nondecreasing, end at +Inf, and the +Inf count equals _count.
    let mut run: Vec<f64> = Vec::new();
    let mut bucket_series = 0;
    for line in body.lines() {
        if line.contains("_bucket{") {
            let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            if let Some(&previous) = run.last() {
                assert!(
                    value >= previous,
                    "bucket counts regressed within a series: {line}"
                );
            }
            run.push(value);
            if line.contains("le=\"+Inf\"") {
                bucket_series += 1;
                run.clear();
            }
        } else {
            assert!(
                run.is_empty(),
                "bucket run not closed by +Inf before: {line}"
            );
        }
    }
    assert!(bucket_series > 0, "no histogram series rendered");
    let inf = sample(
        &body,
        "ingest_parse_duration_seconds_bucket{parser=\"drain\",shard=\"0\",le=\"+Inf\"}",
    );
    let count = sample(
        &body,
        "ingest_parse_duration_seconds_count{parser=\"drain\",shard=\"0\"}",
    );
    assert!(inf.is_some(), "shard 0 parse histogram missing:\n{body}");
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    assert!(
        sample(
            &body,
            "ingest_parse_duration_seconds_sum{parser=\"drain\",shard=\"0\"}"
        )
        .is_some_and(|s| s >= 0.0),
        "parse histogram sum missing"
    );

    // SIGTERM: graceful drain, exit 0, and — because the event journal
    // buffers — the explicit shutdown flush must leave a complete log.
    terminate(&mut child);
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");

    let text = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines
        .first()
        .unwrap()
        .contains("\"event\":\"ingest_started\""));
    assert!(
        lines
            .last()
            .unwrap()
            .contains("\"event\":\"shutdown_complete\""),
        "event log truncated; last line: {}",
        lines.last().unwrap()
    );
    // Every event carries the same run id and a monotonic timestamp.
    let run_id = lines[0]
        .split("\"run_id\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("run_id on first event");
    assert_eq!(run_id.len(), 16);
    let mut last_ts = 0u128;
    for line in &lines {
        assert!(
            line.contains(&format!("\"run_id\":\"{run_id}\"")),
            "run_id missing or changed: {line}"
        );
        let ts: u128 = line
            .split("\"ts_mono_ns\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .expect("ts_mono_ns present")
            .parse()
            .unwrap();
        assert!(ts >= last_ts, "timestamps regressed: {line}");
        last_ts = ts;
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_dump_scrapes_a_running_serve() {
    let dir = fixture_dir().join("dump");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("input.log");
    write_fixture(&log);

    let mut child = logmine()
        .args([
            "serve",
            log.to_str().unwrap(),
            "--follow",
            "--metrics-addr",
            "127.0.0.1:0",
            "--events-out",
            dir.join("events.jsonl").to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("metrics listening on ")
        .expect("metrics address line")
        .to_owned();

    // Wait for some ingestion, then scrape through the CLI itself.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = scrape(&addr).unwrap_or_default();
        if sample(&body, "ingest_lines_total").is_some_and(|v| v > 0.0) {
            break;
        }
        assert!(Instant::now() < deadline, "no ingestion observed");
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = logmine()
        .args(["metrics", "dump", "--scrape", &addr])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# TYPE ingest_lines_total counter"), "{text}");
    assert!(text.contains("ingest_parse_duration_seconds_bucket"));

    terminate(&mut child);
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
