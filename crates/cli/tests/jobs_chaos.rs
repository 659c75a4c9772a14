//! Fault-injection acceptance tests for the distributed job layer:
//! SIGKILL a worker mid-shard and prove the retry converges on output
//! byte-identical to a clean `logmine parse` run; SIGKILL the
//! coordinator and prove the resumed run completes every shard exactly
//! once; poison a shard and prove it lands in the dead-letter queue
//! after exactly its attempt budget, with a replayable record that
//! `jobs dlq retry` turns back into the clean-run output. Workers build
//! only their own bytes of the corpus, so a corpus that changed under a
//! job is refused before anything is spawned, and a line that cannot be
//! loaded costs its own shard alone. Last, the same crash and poison
//! plans (and `serve`) against the bytes the parent binary wrote for
//! them — the parent-frozen wire goldens.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use logparse_core::corpus_cuts;
use logparse_jobs::protocol::JobManifest;

const BIN: &str = env!("CARGO_BIN_EXE_logmine");

fn line(i: usize) -> String {
    match i % 4 {
        0 => format!("block blk_{i} replicated to node {}", i % 7),
        1 => format!("received packet {} from 10.0.0.{}", i * 3, i % 250),
        2 => format!("session {} closed after {} ms", i, i % 997),
        _ => format!("cache miss for key user-{} shard {}", i % 53, i % 5),
    }
}

/// A fresh scratch directory holding the shared corpus, unique per
/// test so `cargo test`'s parallel runners never collide.
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("logmine-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.log");
    let text: String = (0..1_200).map(|i| line(i) + "\n").collect();
    std::fs::write(&corpus, text).unwrap();
    (dir, corpus)
}

/// Runs `logmine parse` as the ground truth the job layer must match
/// byte-for-byte, returning the events-file path.
fn parse_ground_truth(dir: &Path, corpus: &Path) -> PathBuf {
    let events = dir.join("parse.events");
    let out = Command::new(BIN)
        .arg("parse")
        .args(["--parser", "drain", "-j", "4"])
        .arg("--events-out")
        .arg(&events)
        .arg(corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "parse failed: {}", stderr(&out));
    events
}

/// Builds a `jobs run` command against `job_dir`; the caller decides
/// the fault plan. `LOGPARSE_FAULT` is always scrubbed first so a
/// clean run never inherits the harness's own environment.
fn jobs_run(dir: &Path, corpus: &Path, job_dir: &Path, events: &Path) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(["jobs", "run"])
        .arg(corpus)
        .arg("--job-dir")
        .arg(job_dir)
        .args(["--parser", "drain", "-j", "4"])
        .args(["--max-retries", "3", "--backoff-ms", "5"])
        .arg("--events-out")
        .arg(events)
        .current_dir(dir)
        .env_remove("LOGPARSE_FAULT");
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn lifecycle(job_dir: &Path) -> String {
    std::fs::read_to_string(job_dir.join("events.jsonl")).expect("job lifecycle journal")
}

/// Lines of the lifecycle journal whose `event` field is `kind`.
fn events_of(journal: &str, kind: &str) -> Vec<String> {
    let needle = format!("\"event\":\"{kind}\"");
    journal
        .lines()
        .filter(|l| l.contains(&needle))
        .map(str::to_owned)
        .collect()
}

fn assert_identical(left: &Path, right: &Path) {
    let a = std::fs::read(left).unwrap();
    let b = std::fs::read(right).unwrap();
    assert!(
        a == b,
        "{} and {} differ ({} vs {} bytes)",
        left.display(),
        right.display(),
        a.len(),
        b.len()
    );
}

/// SIGKILL worker 1 on its first attempt: the retry must succeed and
/// the merged output must be byte-identical to the clean parse.
#[test]
fn worker_sigkill_retries_to_identical_output() {
    let (dir, corpus) = scratch("worker");
    let truth = parse_ground_truth(&dir, &corpus);
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let out = jobs_run(&dir, &corpus, &job_dir, &events)
        .env("LOGPARSE_FAULT", "worker:1@1:crash_after:0")
        .output()
        .unwrap();
    assert!(out.status.success(), "jobs run failed: {}", stderr(&out));
    assert_identical(&truth, &events);

    let journal = lifecycle(&job_dir);
    assert_eq!(
        events_of(&journal, "agent_retrying").len(),
        1,
        "exactly one retry expected:\n{journal}"
    );
    assert_eq!(events_of(&journal, "task_dead_lettered").len(), 0);
    // Each of the four shards completes exactly once despite the crash.
    for task in 0..4 {
        let needle = format!("\"task\":{task}");
        let completions = events_of(&journal, "task_completed")
            .iter()
            .filter(|l| l.contains(&needle))
            .count();
        assert_eq!(completions, 1, "task {task} completions:\n{journal}");
    }
}

/// A job's `state/` holds its blobs and nothing else: the manifest and
/// one attempt counter per task. A temp file left there by a write
/// killed before its rename is swept by the next run before it writes.
#[test]
fn job_state_holds_only_blobs_and_a_resume_sweeps_stale_temps() {
    let (dir, corpus) = scratch("state");
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(job_dir.join("state"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let blobs = [
        "attempts-0",
        "attempts-1",
        "attempts-2",
        "attempts-3",
        "job",
    ]
    .map(|name| format!("{name}.blob"));
    let out = jobs_run(&dir, &corpus, &job_dir, &events).output().unwrap();
    assert!(out.status.success(), "jobs run failed: {}", stderr(&out));
    assert_eq!(listing(), blobs);

    let stale = job_dir.join("state/.attempts-1.blob.4242.tmp");
    std::fs::write(stale, b"half a write").unwrap();
    let resumed = jobs_run(&dir, &corpus, &job_dir, &events).output().unwrap();
    let said = stderr(&resumed);
    assert!(
        resumed.status.success() && said.contains("(resumed)"),
        "{said}"
    );
    assert_eq!(listing(), blobs);
}

/// A shard that crashes on every attempt consumes exactly its attempt
/// budget, then lands in the DLQ with a replayable record, and the
/// whole trail carries the job's correlation id.
#[test]
fn poison_shard_dead_letters_after_exact_budget() {
    let (dir, corpus) = scratch("poison");
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let out = jobs_run(&dir, &corpus, &job_dir, &events)
        .env("LOGPARSE_FAULT", "worker:2:crash_after:0")
        .output()
        .unwrap();
    assert!(!out.status.success(), "poison run must fail");
    assert!(
        stderr(&out).contains("dlq"),
        "failure must point at the DLQ: {}",
        stderr(&out)
    );

    let journal = lifecycle(&job_dir);
    let job_id = events_of(&journal, "job_started")[0]
        .split("\"job_id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("job_started carries job_id")
        .to_owned();
    let failures = events_of(&journal, "agent_failed");
    assert_eq!(failures.len(), 3, "budget is 3 attempts:\n{journal}");
    let dead = events_of(&journal, "task_dead_lettered");
    assert_eq!(dead.len(), 1, "one poison shard:\n{journal}");
    for event in failures.iter().chain(dead.iter()) {
        assert!(
            event.contains(&format!("\"job_id\":\"{job_id}\"")),
            "event missing correlation id {job_id}: {event}"
        );
    }

    // The DLQ record is on disk, replayable, and names the poison task.
    let record = std::fs::read_to_string(job_dir.join("dlq").join("task-2.json")).unwrap();
    assert!(record.contains("\"task\":2"), "record: {record}");
    assert!(record.contains("\"attempts\":3"), "record: {record}");
    assert!(record.contains(&job_id), "record: {record}");
    let list = Command::new(BIN)
        .args(["jobs", "dlq", "list", "--job-dir"])
        .arg(&job_dir)
        .output()
        .unwrap();
    assert!(list.status.success());
    let listing = String::from_utf8_lossy(&list.stdout).into_owned();
    assert!(
        listing.contains('2'),
        "dlq list must show task 2: {listing}"
    );

    // With the fault gone, `jobs dlq retry` requeues the shard and the
    // job converges on output byte-identical to the clean parse.
    let truth = parse_ground_truth(&dir, &corpus);
    let retry = Command::new(BIN)
        .args(["jobs", "dlq", "retry", "--job-dir"])
        .arg(&job_dir)
        .arg("--events-out")
        .arg(&events)
        .env_remove("LOGPARSE_FAULT")
        .output()
        .unwrap();
    assert!(
        retry.status.success(),
        "dlq retry failed: {}",
        stderr(&retry)
    );
    assert_identical(&truth, &events);
    assert!(
        !job_dir.join("dlq").join("task-2.json").exists(),
        "replayed record must leave the DLQ"
    );
}

/// SIGKILL the coordinator after two task completions: a rerun resumes
/// from the same job-dir, never re-completes a finished shard, and
/// still produces output byte-identical to the clean parse.
#[test]
fn coordinator_sigkill_resumes_without_duplicates() {
    let (dir, corpus) = scratch("coord");
    let truth = parse_ground_truth(&dir, &corpus);
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let out = jobs_run(&dir, &corpus, &job_dir, &events)
        .env("LOGPARSE_FAULT", "coordinator:exit_after:2")
        .output()
        .unwrap();
    assert!(!out.status.success(), "coordinator was SIGKILLed");

    let resumed = jobs_run(&dir, &corpus, &job_dir, &events).output().unwrap();
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        stderr(&resumed)
    );
    assert!(
        stderr(&resumed).contains("(resumed)"),
        "second run must resume, not restart: {}",
        stderr(&resumed)
    );
    assert_identical(&truth, &events);

    // The appended journal spans both incarnations under one job id,
    // and no task completes more than once across the two runs.
    let journal = lifecycle(&job_dir);
    assert_eq!(events_of(&journal, "job_started").len(), 2);
    let ids: std::collections::BTreeSet<&str> = journal
        .lines()
        .filter_map(|l| l.split("\"job_id\":\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(ids.len(), 1, "one correlation id across incarnations");
    for task in 0..4 {
        let needle = format!("\"task\":{task}");
        let completions = events_of(&journal, "task_completed")
            .iter()
            .filter(|l| l.contains(&needle))
            .count();
        let recoveries = events_of(&journal, "task_recovered")
            .iter()
            .filter(|l| l.contains(&needle))
            .count();
        assert!(
            completions + recoveries >= 1,
            "task {task} never finished:\n{journal}"
        );
        assert!(
            completions <= 1,
            "task {task} completed {completions} times:\n{journal}"
        );
    }
}

/// A mistyped `--parser` fails before anything binds the job directory
/// to it — no manifest, no worker — and the directory then takes a
/// correct run. (It used to spawn a worker per attempt, dead-letter
/// every shard and leave the directory answering only for the typo.)
#[test]
fn unknown_parser_fails_before_the_job_dir_is_bound() {
    let (dir, corpus) = scratch("typo");
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let out = Command::new(BIN)
        .args(["jobs", "run", "--parser", "nope", "-j", "2", "--job-dir"])
        .args([&job_dir, &corpus])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a typo must fail the run");
    assert!(stderr(&out).contains("unknown batch parser `nope`"));
    assert!(!job_dir.exists(), "nothing started, nothing written");

    let truth = parse_ground_truth(&dir, &corpus);
    let out = jobs_run(&dir, &corpus, &job_dir, &events).output().unwrap();
    assert!(out.status.success(), "jobs run failed: {}", stderr(&out));
    assert_identical(&truth, &events);
}

/// A corpus appended to since the job began fails the resume with one
/// message, before any event is journalled or attempt counted. (Every
/// worker used to load it, refuse it, and burn its task's whole budget
/// into the DLQ.)
#[test]
fn resume_refuses_a_corpus_that_grew_before_spawning_anything() {
    let (dir, corpus) = scratch("grew");
    let job_dir = dir.join("job");
    let events = dir.join("jobs.events");
    let out = jobs_run(&dir, &corpus, &job_dir, &events)
        .env("LOGPARSE_FAULT", "coordinator:exit_after:2")
        .output()
        .unwrap();
    assert!(!out.status.success(), "coordinator was SIGKILLed");
    let attempts =
        |task: usize| std::fs::read(job_dir.join(format!("state/attempts-{task}.blob"))).unwrap();
    let before: Vec<_> = (0..4).map(attempts).collect();
    let journal = lifecycle(&job_dir);
    let grown = read(&corpus) + "one more line\n";
    std::fs::write(&corpus, &grown).unwrap();

    let resumed = jobs_run(&dir, &corpus, &job_dir, &events).output().unwrap();
    assert!(!resumed.status.success(), "a grown corpus must fail");
    let said = stderr(&resumed);
    let lengths = format!(
        "is {} byte(s) long, manifest says {}",
        grown.len(),
        grown.len() - "one more line\n".len()
    );
    assert!(said.contains(&lengths), "{said}");
    assert_eq!(lifecycle(&job_dir), journal, "nothing journalled");
    assert_eq!((0..4).map(attempts).collect::<Vec<_>>(), before);
    assert!(!job_dir.join("dlq/task-0.json").exists());
}

/// A line the loader refuses fails the shard that holds it — its
/// attempts, its dead letter, the loader's own words — while the other
/// shards complete. (Every worker used to build the whole file, so one
/// bad line failed every shard on every attempt.)
#[test]
fn a_bad_line_poisons_its_own_shard_only() {
    let (dir, corpus) = scratch("badline");
    let mut bytes = std::fs::read(&corpus).unwrap();
    // Line 702 of 1 200 is in shard 2 of 4; same length, one bad byte.
    let at = bytes.windows(11).position(|w| w == b"session 702").unwrap();
    bytes[at] = 0xff;
    std::fs::write(&corpus, bytes).unwrap();
    let job_dir = dir.join("job");
    let out = jobs_run(&dir, &corpus, &job_dir, &dir.join("jobs.events"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "one shard cannot be loaded");

    let journal = lifecycle(&job_dir);
    assert_eq!(events_of(&journal, "task_completed").len(), 3, "{journal}");
    let failures = events_of(&journal, "agent_failed");
    assert_eq!(failures.len(), 3, "one shard's budget:\n{journal}");
    assert!(failures.iter().all(|event| event.contains("\"task\":2")));
    let record = read(job_dir.join("dlq/task-2.json"));
    assert!(
        record.contains("stream did not contain valid UTF-8"),
        "{record}"
    );
    let status = Command::new(BIN)
        .args(["jobs", "status", "--job-dir"])
        .arg(&job_dir)
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(
        table.contains("3 completed, 1 dead-lettered, 0 pending"),
        "{table}"
    );
}

// Wire goldens: what the PR 17 binary (816653f — the last with a journal
// `Value` type, a second number formatter, a hand-mirrored `reduce` and
// the protocol inside `logparse-ingest`) wrote into
// `crates/jobs/tests/fixtures/jobs_v1`, run beside the corpus so the
// recorded paths are relative:
//
//   logmine generate --dataset hdfs --count 300 --seed 42 > corpus.log
//   LOGPARSE_FAULT=worker:1@1:crash_after:0 logmine jobs run corpus.log \
//       --job-dir job --parser drain -j 4 --backoff-ms 5 --events-out jobs.events
//   (again, over a copy of job/: what it appended)  > resume.events.jsonl
//   LOGPARSE_FAULT=worker:2:corrupt (same command) --job-dir poisoned
//   logmine serve corpus.log --shards 1 --window 25 --events-out events_v1.jsonl
//
// (`events_v1.jsonl` lives in `crates/ingest/tests/fixtures`.) This
// binary must write the same bytes for the same commands; blanked first
// is only what two runs of one binary disagree on.

/// Minted or measured per run.
const PER_RUN: [&str; 3] = ["run_id", "ts_mono_ns", "elapsed_ms"];

fn golden(file: &str) -> PathBuf {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    crates.join("jobs/tests/fixtures/jobs_v1").join(file)
}

/// A scratch directory holding copies of the parent's corpus and the
/// job directory it finished.
fn golden_copy(tag: &str) -> PathBuf {
    let (dir, _) = scratch(tag);
    let mut copy = Command::new("cp");
    copy.arg("-r")
        .args([golden("corpus.log"), golden("job")])
        .arg(&dir);
    assert!(copy.status().unwrap().success());
    dir
}

fn read(path: impl AsRef<Path>) -> String {
    let path = path.as_ref();
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Where the text of `key`'s value sits in one journal line, if the line
/// has one.
fn value_span(line: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let len = line[start..].find([',', '}']).expect("value ends");
    Some(start..start + len)
}

/// Replaces the value of each of `keys` with `_`, textually — the
/// fixture's bytes are never re-serialised by the code under test.
fn blank(text: &str, keys: &[&str]) -> Vec<String> {
    let blank_line = |line: &str| {
        let mut line = line.to_owned();
        for key in keys {
            if let Some(span) = value_span(&line, key) {
                line.replace_range(span, "_");
            }
        }
        line
    };
    text.lines().map(blank_line).collect()
}

/// A fresh four-worker job's journal (or DLQ record) as an order-free
/// set of lines: its events interleave by timing, and its retry jitter
/// (`agent_retrying`'s `backoff_ms`) is drawn from the fresh `job_id`.
fn job_events(path: PathBuf) -> Vec<String> {
    let per_job = [&PER_RUN[..], &["job_id", "pid", "seq", "backoff_ms"]].concat();
    let mut lines = blank(&read(path), &per_job);
    lines.sort();
    lines
}

#[test]
fn jobs_v1_job_dirs_resume_and_are_rewritten_byte_for_byte() {
    let dir = golden_copy("golden");
    let run = |job_dir: &str, fault: &str| {
        let [corpus, events] = ["corpus.log", "jobs.events"].map(Path::new);
        jobs_run(&dir, corpus, Path::new(job_dir), events)
            .env("LOGPARSE_FAULT", fault)
            .output()
            .unwrap()
    };
    // The parent-written directory resumes as a no-op: the parent's
    // reduce, its incarnation of the journal kept byte for byte, and
    // appended to it what the parent's own resume appended.
    let out = run("job", "");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("(resumed): 4/4 task(s)"));
    assert_identical(&dir.join("jobs.events"), &golden("jobs.events"));
    let journal = lifecycle(&dir.join("job"));
    let appended = journal.strip_prefix(read(golden("job/events.jsonl")).as_str());
    assert_eq!(
        blank(appended.expect("appended"), &PER_RUN),
        blank(&read(golden("resume.events.jsonl")), &PER_RUN)
    );

    // A fresh run under the same fault, then one whose shard 2 publishes
    // garbage on every attempt: the dead-letter record and trail.
    std::fs::remove_file(dir.join("jobs.events")).unwrap();
    assert!(run("fresh", "worker:1@1:crash_after:0").status.success());
    assert_identical(&dir.join("jobs.events"), &golden("jobs.events"));
    assert!(!run("poisoned", "worker:2:corrupt").status.success());
    for task in 0..4 {
        let file = format!("out/task-{task}.json");
        assert_identical(&dir.join("fresh").join(&file), &golden("job").join(&file));
    }
    for (ours, parents) in [
        ("fresh/events.jsonl", "job/events.jsonl"),
        ("poisoned/events.jsonl", "poisoned/events.jsonl"),
        ("poisoned/dlq/task-2.json", "poisoned/dlq/task-2.json"),
    ] {
        assert_eq!(
            job_events(dir.join(ours)),
            job_events(golden(parents)),
            "{ours}"
        );
    }
}

/// The same parent-written directory with one task still to run: its
/// `job` blob has no cuts, so the coordinator completes it from the
/// corpus and saves it once, before the worker it spawns reads it; the
/// shard built from its bytes alone is the one the parent's worker
/// sliced out of the whole file.
#[test]
fn jobs_v1_job_dir_with_a_pending_task_runs_it_to_completion() {
    let dir = golden_copy("golden-pending");
    std::fs::remove_file(dir.join("job/out/task-2.json")).unwrap();
    let cuts = || {
        let manifest = JobManifest::load(&dir.join("job")).unwrap();
        manifest.expect("job blob").cuts
    };
    assert!(cuts().is_empty(), "the fixture predates the cuts");

    let [corpus, events] = ["corpus.log", "jobs.events"].map(Path::new);
    let out = jobs_run(&dir, corpus, Path::new("job"), events)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("(resumed): 4/4 task(s)"));
    assert_identical(&dir.join("jobs.events"), &golden("jobs.events"));
    assert_identical(
        &dir.join("job/out/task-2.json"),
        &golden("job/out/task-2.json"),
    );
    let journal = lifecycle(&dir.join("job"));
    let appended = journal.strip_prefix(read(golden("job/events.jsonl")).as_str());
    let appended = appended.expect("appended");
    assert_eq!(events_of(appended, "task_recovered").len(), 3);
    assert_eq!(events_of(appended, "task_completed").len(), 1);
    let measured = corpus_cuts(dir.join("corpus.log"), 4).unwrap();
    assert_eq!(
        cuts(),
        measured.cuts,
        "the rewritten job blob carries the cuts"
    );
}

/// One shard: every event but the first and last comes from the
/// aggregator thread, and a file source never idles into a timed flush,
/// so order and batch boundaries are reproducible.
///
/// Window scores are the exception to byte equality. The journal prints
/// `spe` and `threshold` at full `{}` precision, and the eigensolver
/// behind them is not the one that wrote the fixture (cyclic Jacobi then,
/// Householder tridiagonalisation plus implicit QL now): the spectra
/// agree to rounding, and 8 of the values moved past their 12th
/// significant digit (0.01305707749907621 → 0.013057077499079547). Those
/// two keys are compared within 1e-9 relative; every other value, key
/// order included, byte for byte. Float formatting stays pinned by the
/// drift floats (`churn`, `singleton_fraction`).
#[test]
fn events_v1_serve_reproduces_the_parents_journal() {
    let (dir, _) = scratch("serve");
    let out = Command::new(BIN)
        .args(["serve", "corpus.log", "--shards", "1", "--window", "25"])
        .arg("--events-out")
        .arg(dir.join("events.jsonl"))
        .current_dir(golden(""))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let parents = golden("../../../../ingest/tests/fixtures/events_v1.jsonl");
    let ours = blank(&read(dir.join("events.jsonl")), &PER_RUN);
    let theirs = blank(&read(parents), &PER_RUN);
    assert_eq!(ours.len(), theirs.len());
    const SCORES: [&str; 2] = ["spe", "threshold"];
    for (a, b) in ours.iter().zip(&theirs) {
        for key in SCORES {
            let x = value_span(a, key).map(|span| &a[span]);
            let y = value_span(b, key).map(|span| &b[span]);
            let close = match (x.map(str::parse::<f64>), y.map(str::parse::<f64>)) {
                (Some(Ok(x)), Some(Ok(y))) => (x - y).abs() <= 1e-9 * y.abs(),
                _ => x == y,
            };
            assert!(close, "{key}:\n{a}\n{b}");
        }
        assert_eq!(blank(a, &SCORES), blank(b, &SCORES));
    }
}
