//! Crash-recovery acceptance test: SIGKILL a `logmine serve` run
//! mid-stream and prove the template store survives — `store verify`
//! passes, a resumed run picks up the recovered global ids (replaying
//! the store exactly once), and every pre-kill (shard, local) → gid
//! binding is preserved byte-for-byte.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use logparse_store::{Recovery, TemplateStore};

const BIN: &str = env!("CARGO_BIN_EXE_logmine");

fn line(i: usize) -> String {
    match i % 4 {
        0 => format!("block blk_{i} replicated to node {}", i % 7),
        1 => format!("received packet {} from 10.0.0.{}", i * 3, i % 250),
        2 => format!("session {} closed after {} ms", i, i % 997),
        _ => format!("cache miss for key user-{} shard {}", i % 53, i % 5),
    }
}

fn serve_command(store: &std::path::Path, events: &std::path::Path, resume: bool) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .args(["--shards", "4", "--window", "250", "--warmup", "2"])
        .args(["--batch-size", "64", "--flush-ms", "25"])
        .arg("--checkpoint")
        .arg(store)
        .args(["--checkpoint-every", "500"])
        .arg("--events-out")
        .arg(events)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

/// Feeds lines one write per line (each ends in `\n`) so the child sees
/// complete records, returning how many were accepted before the pipe
/// broke (which it will, after the SIGKILL).
fn feed(child: &mut Child, range: std::ops::Range<usize>) -> usize {
    let stdin = child.stdin.as_mut().expect("piped stdin");
    let mut sent = 0;
    for i in range {
        if stdin.write_all((line(i) + "\n").as_bytes()).is_err() {
            break;
        }
        sent += 1;
    }
    let _ = stdin.flush();
    sent
}

fn wait_for_checkpoint(events: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if std::fs::read_to_string(events)
            .map(|text| text.contains("snapshot_written"))
            .unwrap_or(false)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no snapshot_written event within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn verify(store: &std::path::Path) -> bool {
    Command::new(BIN)
        .args(["store", "verify"])
        .arg(store)
        .output()
        .expect("run logmine store verify")
        .status
        .success()
}

fn recover(store: &std::path::Path) -> Recovery {
    TemplateStore::recover(store).expect("recover store")
}

/// The first sample of `series` on the child's metrics endpoint.
fn scrape(addr: &str, series: &str) -> Option<f64> {
    let out = Command::new(BIN)
        .args(["metrics", "dump", "--scrape", addr])
        .output()
        .expect("run logmine metrics dump");
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .find(|l| l.split(' ').next() == Some(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn sigkill_mid_stream_preserves_the_template_store() {
    let dir = std::env::temp_dir().join(format!("logmine-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let events = dir.join("events.jsonl");

    // Phase 1: stream lines until at least one checkpoint lands, then
    // SIGKILL the server mid-stream (no shutdown path runs at all).
    let mut child = serve_command(&store, &events, false).spawn().unwrap();
    let sent = feed(&mut child, 0..2_000);
    assert!(sent >= 500, "only {sent} lines accepted before checkpoint");
    wait_for_checkpoint(&events);
    feed(&mut child, 2_000..2_400); // keep deltas flowing past the snapshot
    child.kill().unwrap(); // SIGKILL on unix
    child.wait().unwrap();

    // The store survives the kill: verify tolerates a torn log tail but
    // must find zero shards in need of quarantine.
    assert!(verify(&store), "store verify failed after SIGKILL");
    let killed = recover(&store);
    assert!(
        killed.state.id_space() > 0,
        "no templates recovered after SIGKILL"
    );
    assert!(
        !killed.state.canonical_templates().is_empty(),
        "recovered store has no canonical templates"
    );

    // Phase 2: resume from the store and stream the rest; a clean EOF
    // shuts the pipeline down through the final checkpoint.
    let mut child = serve_command(&store, &dir.join("events2.jsonl"), true)
        .args(["--metrics-addr", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "resumed serve never printed its metrics address"
        );
        if let Some(addr) = line.trim().strip_prefix("metrics listening on ") {
            break addr.to_owned();
        }
    };
    let resumed_sent = feed(&mut child, 2_400..4_000);
    assert_eq!(resumed_sent, 1_600);

    // The resumed run reads its store once: by the time lines flow the
    // store is open, and the replay counter holds exactly the records
    // the store held — not twice that.
    let deadline = Instant::now() + Duration::from_secs(30);
    while scrape(&addr, "ingest_lines_total").unwrap_or(0.0) < 1.0 {
        assert!(Instant::now() < deadline, "resumed serve routed no line");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        scrape(&addr, "store_replay_records_total"),
        Some(killed.replayed_records as f64),
        "the resumed run did not replay its store exactly once"
    );
    drop(child.stdin.take()); // EOF
    let status = child.wait().unwrap();
    assert!(status.success(), "resumed serve exited with {status}");

    // Global ids are stable across the crash: the id space only grew,
    // and every pre-kill (shard, local) binding still points at the
    // same global id.
    assert!(verify(&store), "store verify failed after resumed run");
    let finished = recover(&store);
    assert!(
        finished.state.id_space() >= killed.state.id_space(),
        "id space shrank across restart: {} -> {}",
        killed.state.id_space(),
        finished.state.id_space()
    );
    let finished_bindings: BTreeMap<_, _> = finished.state.assignments().collect();
    for (slot, gid) in killed.state.assignments() {
        assert_eq!(
            finished_bindings.get(&slot),
            Some(&gid),
            "binding {slot:?} moved across the restart"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
