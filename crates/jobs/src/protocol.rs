//! Work-dir protocol for distributed map-reduce parse jobs.
//!
//! The coordinator drives N worker **processes** over a shared job
//! directory instead of a wire protocol: every hand-off is a file whose
//! visibility is governed by atomic rename, so a SIGKILL on either side
//! of the hand-off leaves the directory in a state the next coordinator
//! incarnation can interpret unambiguously. This module is what both
//! sides agree on — the directory layout, the job manifest, the
//! per-shard result format, the deterministic fault injector — and the
//! worker entry point the `logmine worker` subcommand calls. Scheduling,
//! retries, the dead-letter queue and the reduce are the
//! [coordinator](crate::run_job)'s.
//!
//! # Directory layout
//!
//! ```text
//! job-dir/
//!   state/            CRC-framed blobs: `job.blob`, the manifest
//!                     (parser, corpus, its line count and byte cuts),
//!                     and the `attempts-<task>.blob` counters
//!   out/task-<i>.json completed shard results (atomic rename)
//!   dlq/task-<i>.json dead-letter records for poison shards
//!   events.jsonl      appended journal of job lifecycle events
//! ```
//!
//! A task is **complete** iff `out/task-<i>.json` exists and validates;
//! it is **dead-lettered** iff `dlq/task-<i>.json` exists. Workers write
//! results through [`write_atomic`]'s pid-suffixed temp file plus
//! rename, so an orphan worker (its coordinator killed mid-job) racing
//! a retried attempt of the same task cannot tear the result — both
//! write identical bytes (the parse is deterministic) and the last
//! rename wins.
//!
//! # Shards are byte ranges
//!
//! Task `k` is chunk `k` of `ParallelDriver::chunk_ranges(lines,
//! shards)` — and, so that a worker need not build the file to find it,
//! the manifest also carries where each chunk's bytes begin
//! ([`JobManifest::cuts`], from [`logparse_core::corpus_cuts`]). A worker
//! reads `cuts[k]..cuts[k + 1]` and nothing else — a Drain worker streams
//! it, any other builds its corpus — and checks what it can see of the
//! corpus against the manifest: the file's length, that its range starts
//! and ends at a line start, the range's kept-line count.
//!
//! # Fault injection
//!
//! The chaos test suite drives real process failures through the
//! [`FaultPlan`] in the `LOGPARSE_FAULT` environment variable, e.g.
//! `worker:2:crash_after:1000` (SIGKILL worker task 2 mid-shard on
//! every attempt), `worker:1@1:crash_after:0` (only attempt 1, so the
//! retry succeeds), `worker:0:corrupt` (write garbage output),
//! `worker:3:hang:5000` (stall five seconds), or
//! `coordinator:exit_after:2` (the coordinator SIGKILLs itself after
//! two task completions). Faults are deterministic functions of
//! `(task, attempt)` — the same plan always fails the same way.

use std::path::{Path, PathBuf};
use std::time::Duration;

use logparse_core::{
    corpus_cuts, Corpus, EventId, LineSource, LogParser, ParallelDriver, ParseError, Preprocessor,
    Template, TemplateToken,
};
use logparse_obs::{decimal, Json};
use logparse_parsers::{batch_parser, stream_drain, Drain};
use logparse_store::{read_blob, sweep_temps, sync_dir, write_atomic, write_blob, BlobRead};

use crate::JobError;

/// Environment variable holding the [`FaultPlan`] for chaos tests.
pub const FAULT_ENV: &str = "LOGPARSE_FAULT";

/// The job's durable state: the manifest and attempt-counter blobs.
pub fn state_dir(job_dir: &Path) -> PathBuf {
    job_dir.join("state")
}

/// Creates `state/`, pins its entry in `job_dir`, and removes the temp
/// files a blob write killed before its rename left there. For the
/// directory's one writer — the coordinator, or `jobs dlq retry` before
/// it starts one — before it writes.
pub fn prepare_state_dir(job_dir: &Path) -> Result<(), JobError> {
    let dir = state_dir(job_dir);
    std::fs::create_dir_all(&dir)?;
    sync_dir(job_dir)?;
    Ok(sweep_temps(&dir)?)
}

/// Persists how many attempts of `task` have been started, as the
/// `attempts-<task>` blob.
pub fn save_attempts(job_dir: &Path, task: usize, attempts: u32) -> Result<(), JobError> {
    let (name, count) = (format!("attempts-{task}"), attempts.to_string());
    Ok(write_blob(&state_dir(job_dir), &name, count.as_bytes())?)
}

/// Reads how many attempts of `task` earlier coordinator incarnations
/// started. Missing or corrupt counters read as 0 — the benign
/// direction (a lost counter grants attempts, it never steals them).
pub fn load_attempts(job_dir: &Path, task: usize) -> Result<u32, JobError> {
    Ok(
        match read_blob(&state_dir(job_dir), &format!("attempts-{task}"))? {
            BlobRead::Ok(bytes) => String::from_utf8(bytes)
                .ok()
                .and_then(|text| text.trim().parse().ok())
                .unwrap_or(0),
            BlobRead::Missing | BlobRead::Corrupt => 0,
        },
    )
}

/// Where completed shard results land.
pub fn out_dir(job_dir: &Path) -> PathBuf {
    job_dir.join("out")
}

/// The dead-letter queue directory.
pub fn dlq_dir(job_dir: &Path) -> PathBuf {
    job_dir.join("dlq")
}

/// The appended JSONL lifecycle-event journal.
pub fn events_path(job_dir: &Path) -> PathBuf {
    job_dir.join("events.jsonl")
}

/// The completed-result file for `task`.
pub fn result_path(job_dir: &Path, task: usize) -> PathBuf {
    out_dir(job_dir).join(format!("task-{task}.json"))
}

/// The dead-letter record for `task`.
pub fn dlq_record_path(job_dir: &Path, task: usize) -> PathBuf {
    dlq_dir(job_dir).join(format!("task-{task}.json"))
}

/// Atomically publishes `bytes` as `path`, a file in one of the job's
/// sub-directories, which is created and pinned first: the rename
/// fsyncs inside that directory, not its own entry in `job_dir`, and a
/// result or dead letter must not vanish with it on power loss.
fn publish(job_dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), JobError> {
    std::fs::create_dir_all(path.parent().unwrap_or(job_dir))?;
    sync_dir(job_dir)?;
    Ok(write_atomic(path, bytes)?)
}

/// The immutable description of a job, persisted as the `job` blob in
/// `state/` before any worker is spawned. Resume validates the
/// stored manifest against the requested configuration — a job
/// directory answers for exactly one `(corpus, parser, shards)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobManifest {
    /// Correlation id carried by every lifecycle event of this job,
    /// stable across coordinator restarts.
    pub job_id: String,
    /// Batch parser name (`drain`, `iplom`, `slct`, …).
    pub parser: String,
    /// The corpus file; each worker builds its own byte range of it.
    pub corpus: PathBuf,
    /// Line count of the corpus when the job was created.
    pub lines: usize,
    /// Task `k` is the lines of bytes `cuts[k]..cuts[k + 1]` of the
    /// corpus ([`logparse_core::CorpusCuts::cuts`]): every cut a line
    /// start, the last one the corpus's length in bytes when the job was
    /// created. Empty in a manifest written before workers built byte
    /// ranges, until [`against_corpus`](JobManifest::against_corpus)
    /// fills it; the coordinator then saves the completed manifest, so
    /// its workers read the cuts.
    pub cuts: Vec<usize>,
    /// Number of map tasks (= chunk count; determines the result).
    pub shards: usize,
    /// Attempt budget per task, first try included: a task whose
    /// `max_retries`-th attempt fails is dead-lettered.
    pub max_retries: u32,
    /// Base backoff delay before the first retry; doubles per attempt.
    pub backoff_ms: u64,
}

impl JobManifest {
    /// Serializes to the canonical JSON object form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("job_id".into(), Json::str(self.job_id.clone())),
            ("parser".into(), Json::str(self.parser.clone())),
            (
                "corpus".into(),
                Json::str(self.corpus.to_string_lossy().into_owned()),
            ),
            ("lines".into(), Json::usize(self.lines)),
            (
                "cuts".into(),
                Json::Arr(self.cuts.iter().copied().map(Json::usize).collect()),
            ),
            ("shards".into(), Json::usize(self.shards)),
            ("max_retries".into(), Json::usize(self.max_retries as usize)),
            ("backoff_ms".into(), Json::usize(self.backoff_ms as usize)),
        ])
    }

    /// Deserializes the object form, rejecting missing fields; only
    /// `cuts` may be absent (see
    /// [`against_corpus`](JobManifest::against_corpus)).
    pub fn from_json(doc: &Json) -> Result<JobManifest, String> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("manifest missing `{key}`"))
        };
        let cuts = match doc.get("cuts") {
            None => Vec::new(),
            Some(cuts) => cuts
                .as_arr()
                .and_then(|cuts| cuts.iter().map(Json::as_usize).collect())
                .ok_or("manifest `cuts` not an array of integers")?,
        };
        let manifest = JobManifest {
            job_id: field("job_id")?
                .as_str()
                .ok_or("manifest `job_id` not a string")?
                .to_owned(),
            parser: field("parser")?
                .as_str()
                .ok_or("manifest `parser` not a string")?
                .to_owned(),
            corpus: PathBuf::from(
                field("corpus")?
                    .as_str()
                    .ok_or("manifest `corpus` not a string")?,
            ),
            lines: field("lines")?
                .as_usize()
                .ok_or("manifest `lines` not an integer")?,
            cuts,
            shards: field("shards")?
                .as_usize()
                .ok_or("manifest `shards` not an integer")?,
            max_retries: field("max_retries")?
                .as_usize()
                .ok_or("manifest `max_retries` not an integer")? as u32,
            backoff_ms: field("backoff_ms")?
                .as_usize()
                .ok_or("manifest `backoff_ms` not an integer")? as u64,
        };
        let (cuts, tasks) = (&manifest.cuts, manifest.ranges().len());
        let well_formed = cuts.len() == tasks + 1 && cuts.first() == Some(&0) && cuts.is_sorted();
        if !cuts.is_empty() && !well_formed {
            return Err(format!(
                "manifest `cuts` {cuts:?} do not bound {tasks} task(s)"
            ));
        }
        Ok(manifest)
    }

    /// Persists the manifest as `job_dir`'s `job` blob.
    pub fn save(&self, job_dir: &Path) -> Result<(), JobError> {
        let bytes = self.to_json().to_string();
        Ok(write_blob(&state_dir(job_dir), "job", bytes.as_bytes())?)
    }

    /// Loads the manifest from a job directory; `Ok(None)` when
    /// `state/` holds no manifest blob yet.
    pub fn load(job_dir: &Path) -> Result<Option<JobManifest>, JobError> {
        match read_blob(&state_dir(job_dir), "job")? {
            BlobRead::Ok(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| JobError::Protocol("job manifest is not UTF-8".into()))?;
                let doc = Json::parse(&text)
                    .map_err(|e| JobError::Protocol(format!("job manifest: {e}")))?;
                JobManifest::from_json(&doc)
                    .map(Some)
                    .map_err(JobError::Protocol)
            }
            BlobRead::Missing => Ok(None),
            BlobRead::Corrupt => Err(JobError::Protocol("job manifest blob is corrupt".into())),
        }
    }

    /// The contiguous chunk ranges of this job — identical to the split
    /// `ParallelDriver` would use in-process, which is what makes the
    /// distributed result byte-identical to `parse_parallel`.
    pub fn ranges(&self) -> Vec<std::ops::Range<usize>> {
        ParallelDriver::chunk_ranges(self.lines, self.shards)
    }

    /// The manifest checked against the corpus as it is now, which both
    /// the coordinator and a worker do before they rely on it. A manifest
    /// read from a job directory older than the cuts is completed by the
    /// pass that writes them into a new one, over a corpus that must
    /// still have the line count it was sharded by; then the corpus must
    /// be as long as the last cut says — not appended to, truncated or
    /// replaced since the job was created.
    pub fn against_corpus(mut self) -> Result<JobManifest, JobError> {
        let corpus = self.corpus.display();
        if self.cuts.is_empty() {
            let measured = corpus_cuts(&self.corpus, self.shards)?;
            if measured.lines != self.lines {
                return Err(JobError::Config(format!(
                    "corpus {corpus} has {} line(s), manifest says {}",
                    measured.lines, self.lines
                )));
            }
            self.cuts = measured.cuts;
        }
        let bytes = std::fs::metadata(&self.corpus)?.len();
        let expected = self.cuts.last().copied().unwrap_or(0);
        if bytes != expected as u64 {
            return Err(JobError::Config(format!(
                "corpus {corpus} is {bytes} byte(s) long, manifest says {expected}"
            )));
        }
        Ok(self)
    }
}

/// One completed map task: the shard's templates and per-line
/// assignments, exactly as the in-process parallel driver would hold
/// them before the merge.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The task index (= chunk index).
    pub task: usize,
    /// First corpus line of the chunk.
    pub start: usize,
    /// The shard parser's templates, local ids = positions.
    pub templates: Vec<Template>,
    /// Per-line local template id (`None` = outlier), chunk-relative.
    pub assignments: Vec<Option<usize>>,
}

fn template_to_json(template: &Template) -> Json {
    let tokens = template
        .tokens()
        .iter()
        .map(|token| match token {
            TemplateToken::Wildcard => Json::Null,
            TemplateToken::Literal(text) => Json::str(text.clone()),
        })
        .collect();
    Json::Obj(vec![
        ("tokens".into(), Json::Arr(tokens)),
        ("open".into(), Json::Bool(template.has_open_tail())),
    ])
}

fn template_from_json(doc: &Json) -> Result<Template, String> {
    let tokens: Vec<TemplateToken> = doc
        .get("tokens")
        .and_then(Json::as_arr)
        .ok_or("template missing `tokens` array")?
        .iter()
        .map(|token| match token {
            Json::Null => Ok(TemplateToken::Wildcard),
            Json::Str(text) => Ok(TemplateToken::literal(text.clone())),
            other => Err(format!(
                "template token is neither null nor string: {other}"
            )),
        })
        .collect::<Result<_, _>>()?;
    let open = doc.get("open").and_then(Json::as_bool).unwrap_or(false);
    Ok(if open {
        Template::with_open_tail(tokens)
    } else {
        Template::new(tokens)
    })
}

/// The canonical JSON text of a shard result: what
/// `ShardResult::to_json().to_string()` gives for these fields, written
/// straight from them — one JSON value per template, none per line.
fn result_text(
    task: usize,
    start: usize,
    templates: &[Template],
    assignments: impl ExactSizeIterator<Item = Option<usize>>,
) -> String {
    let mut digits = [0; 20];
    // Ids below 100 000 take at most six bytes with their comma.
    let mut out = String::with_capacity(64 + 6 * assignments.len());
    out.push_str("{\"task\":");
    out.push_str(decimal(task as u64, &mut digits));
    out.push_str(",\"start\":");
    out.push_str(decimal(start as u64, &mut digits));
    out.push_str(",\"templates\":[");
    for (i, template) in templates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&template_to_json(template).to_string());
    }
    out.push_str("],\"assignments\":[");
    for (i, slot) in assignments.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slot {
            Some(id) => out.push_str(decimal(id as u64, &mut digits)),
            None => out.push_str("null"),
        }
    }
    out.push_str("]}");
    out
}

/// Atomically publishes the result of `task` — its first line `start`,
/// its parser's `templates` and each line's template id — as
/// `out/task-<i>.json`.
fn publish_result(
    job_dir: &Path,
    task: usize,
    start: usize,
    templates: &[Template],
    assignments: impl ExactSizeIterator<Item = Option<usize>>,
) -> Result<(), JobError> {
    let text = result_text(task, start, templates, assignments);
    publish(job_dir, &result_path(job_dir, task), text.as_bytes())
}

/// What reading a task's result file found.
#[derive(Debug)]
pub enum ResultRead {
    /// No result file — the task has not completed.
    Missing,
    /// A file exists but does not validate; the reason names the check
    /// that failed. Treated as a task failure (retryable).
    Corrupt(String),
    /// A validated result.
    Ok(ShardResult),
}

impl ShardResult {
    /// Serializes to the canonical JSON object form: the tree
    /// [`result_text`] writes without building.
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("task".into(), Json::usize(self.task)),
            ("start".into(), Json::usize(self.start)),
            (
                "templates".into(),
                Json::Arr(self.templates.iter().map(template_to_json).collect()),
            ),
            (
                "assignments".into(),
                Json::Arr(
                    self.assignments
                        .iter()
                        .map(|slot| slot.map_or(Json::Null, Json::usize))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes the object form. Every assignment must name one of
    /// the result's own templates, so [`reduce`](crate::reduce) can
    /// rebuild the worker's [`Parse`](logparse_core::Parse) from it.
    pub fn from_json(doc: &Json) -> Result<ShardResult, String> {
        let task = doc
            .get("task")
            .and_then(Json::as_usize)
            .ok_or("result missing `task`")?;
        let start = doc
            .get("start")
            .and_then(Json::as_usize)
            .ok_or("result missing `start`")?;
        let templates = doc
            .get("templates")
            .and_then(Json::as_arr)
            .ok_or("result missing `templates`")?
            .iter()
            .map(template_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let assignments = doc
            .get("assignments")
            .and_then(Json::as_arr)
            .ok_or("result missing `assignments`")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                value => value
                    .as_usize()
                    .map(Some)
                    .ok_or("assignment is neither null nor an index".to_owned()),
            })
            .collect::<Result<Vec<Option<usize>>, _>>()?;
        if let Some(id) = assignments
            .iter()
            .flatten()
            .find(|&&id| id >= templates.len())
        {
            return Err(format!(
                "assignment {id} names none of {} template(s)",
                templates.len()
            ));
        }
        Ok(ShardResult {
            task,
            start,
            templates,
            assignments,
        })
    }

    /// Atomically publishes the result as `out/task-<i>.json`.
    pub fn write(&self, job_dir: &Path) -> Result<(), JobError> {
        let assignments = self.assignments.iter().copied();
        publish_result(job_dir, self.task, self.start, &self.templates, assignments)
    }

    /// Reads and validates `task`'s result against the manifest: the
    /// stored task/start must match and the assignment count must equal
    /// the chunk length, so a result from a stale or corrupted write
    /// can never be mistaken for a completion.
    pub fn load(job_dir: &Path, manifest: &JobManifest, task: usize) -> ResultRead {
        let path = result_path(job_dir, task);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return ResultRead::Missing,
            Err(err) => return ResultRead::Corrupt(format!("unreadable result file: {err}")),
        };
        let doc = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(err) => return ResultRead::Corrupt(format!("invalid JSON: {err}")),
        };
        let result = match ShardResult::from_json(&doc) {
            Ok(result) => result,
            Err(err) => return ResultRead::Corrupt(err),
        };
        let Some(range) = manifest.ranges().get(task).cloned() else {
            return ResultRead::Corrupt(format!("task {task} out of range"));
        };
        if result.task != task {
            return ResultRead::Corrupt(format!(
                "result claims task {} in file for task {task}",
                result.task
            ));
        }
        if result.start != range.start || result.assignments.len() != range.len() {
            return ResultRead::Corrupt(format!(
                "result covers {} line(s) at {}, chunk is {} at {}",
                result.assignments.len(),
                result.start,
                range.len(),
                range.start
            ));
        }
        ResultRead::Ok(result)
    }
}

/// A dead-letter record: enough to explain the failure and replay the
/// shard later (`logmine jobs dlq retry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlqRecord {
    /// The poisoned task.
    pub task: usize,
    /// The job it belongs to (correlation id).
    pub job_id: String,
    /// Attempts consumed before dead-lettering (first try included).
    pub attempts: u32,
    /// The last failure reason observed.
    pub failure: String,
}

impl DlqRecord {
    /// Serializes to the canonical JSON object form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("task".into(), Json::usize(self.task)),
            ("job_id".into(), Json::str(self.job_id.clone())),
            ("attempts".into(), Json::usize(self.attempts as usize)),
            ("failure".into(), Json::str(self.failure.clone())),
        ])
    }

    /// Deserializes the object form.
    pub fn from_json(doc: &Json) -> Result<DlqRecord, String> {
        Ok(DlqRecord {
            task: doc
                .get("task")
                .and_then(Json::as_usize)
                .ok_or("dlq record missing `task`")?,
            job_id: doc
                .get("job_id")
                .and_then(Json::as_str)
                .ok_or("dlq record missing `job_id`")?
                .to_owned(),
            attempts: doc
                .get("attempts")
                .and_then(Json::as_usize)
                .ok_or("dlq record missing `attempts`")? as u32,
            failure: doc
                .get("failure")
                .and_then(Json::as_str)
                .ok_or("dlq record missing `failure`")?
                .to_owned(),
        })
    }

    /// Atomically publishes the record as `dlq/task-<i>.json`.
    pub fn write(&self, job_dir: &Path) -> Result<(), JobError> {
        let bytes = self.to_json().to_string();
        publish(
            job_dir,
            &dlq_record_path(job_dir, self.task),
            bytes.as_bytes(),
        )
    }

    /// Loads `task`'s dead-letter record, `Ok(None)` when absent.
    pub fn load(job_dir: &Path, task: usize) -> Result<Option<DlqRecord>, JobError> {
        let path = dlq_record_path(job_dir, task);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        Json::parse(&text)
            .and_then(|doc| DlqRecord::from_json(&doc))
            .map(Some)
            .map_err(|e| JobError::Protocol(format!("dlq record {}: {e}", path.display())))
    }
}

/// The batch parser a job names, at `logmine parse`'s defaults — workers
/// must agree with the in-process reference run for the differential
/// byte-identity contract to hold.
pub(crate) fn job_parser(name: &str) -> Result<Box<dyn LogParser>, JobError> {
    batch_parser(name).ok_or_else(|| JobError::Config(format!("unknown batch parser `{name}`")))
}

/// What a matched fault makes the process do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// SIGKILL self once the shard would have processed this many
    /// lines; a bound at or past the chunk length never fires.
    CrashAfter(usize),
    /// Stall this long before doing the work (exercises task timeouts).
    HangMs(u64),
    /// Write an invalid result file and exit 0 (exercises validation).
    Corrupt,
    /// Coordinator only: SIGKILL self after this many task completions.
    ExitAfter(usize),
}

/// Who a fault entry applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultScope {
    /// A worker, by task index, optionally only on one attempt
    /// (`worker:2@1:…`); without the filter the fault is a poison —
    /// every attempt fails.
    Worker { task: usize, attempt: Option<u32> },
    /// The coordinator process.
    Coordinator,
}

/// A deterministic fault-injection plan: `;`-separated entries of
/// `worker:<task>[@<attempt>]:<action>[:<arg>]` or
/// `coordinator:exit_after:<n>`. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(FaultScope, FaultAction)>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses a plan string. An empty string is the empty plan.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut entries = Vec::new();
        for raw in text.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = raw.split(':').collect();
            let entry = match parts.as_slice() {
                ["worker", target, action @ ..] => {
                    let (task, attempt) = match target.split_once('@') {
                        Some((task, attempt)) => (
                            task.parse()
                                .map_err(|_| format!("bad task in fault `{raw}`"))?,
                            Some(
                                attempt
                                    .parse()
                                    .map_err(|_| format!("bad attempt in fault `{raw}`"))?,
                            ),
                        ),
                        None => (
                            target
                                .parse()
                                .map_err(|_| format!("bad task in fault `{raw}`"))?,
                            None,
                        ),
                    };
                    let action = match action {
                        ["crash_after", n] => FaultAction::CrashAfter(
                            n.parse().map_err(|_| format!("bad count in `{raw}`"))?,
                        ),
                        ["hang", ms] => FaultAction::HangMs(
                            ms.parse().map_err(|_| format!("bad delay in `{raw}`"))?,
                        ),
                        ["corrupt"] => FaultAction::Corrupt,
                        _ => return Err(format!("unknown worker fault `{raw}`")),
                    };
                    (FaultScope::Worker { task, attempt }, action)
                }
                ["coordinator", "exit_after", n] => (
                    FaultScope::Coordinator,
                    FaultAction::ExitAfter(n.parse().map_err(|_| format!("bad count in `{raw}`"))?),
                ),
                _ => return Err(format!("unknown fault entry `{raw}`")),
            };
            entries.push(entry);
        }
        Ok(FaultPlan { entries })
    }

    /// Reads the plan from [`FAULT_ENV`]; unset means no faults, an
    /// unparsable value is a configuration error (a chaos test with a
    /// typo must fail loudly, not run clean).
    pub fn from_env() -> Result<FaultPlan, JobError> {
        match std::env::var(FAULT_ENV) {
            Ok(text) => FaultPlan::parse(&text).map_err(JobError::Config),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    /// The first fault matching this worker `(task, attempt)`.
    pub fn worker_fault(&self, task: usize, attempt: u32) -> Option<FaultAction> {
        self.entries.iter().find_map(|(scope, action)| match scope {
            FaultScope::Worker {
                task: t,
                attempt: filter,
            } if *t == task && filter.is_none_or(|a| a == attempt) => Some(*action),
            _ => None,
        })
    }

    /// The coordinator's `exit_after` bound, if the plan has one.
    pub fn coordinator_exit_after(&self) -> Option<usize> {
        self.entries
            .iter()
            .find_map(|(scope, action)| match (scope, action) {
                (FaultScope::Coordinator, FaultAction::ExitAfter(n)) => Some(*n),
                _ => None,
            })
    }
}

/// SIGKILLs the calling process — the real signal, not a clean exit, so
/// crash faults die exactly like an OOM-killed or operator-killed
/// worker: no destructors, no flush, no exit code. Falls back to
/// `abort` if the `kill` utility is unavailable.
pub fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::abort();
}

/// The `logmine worker` entry point: parses one chunk of the job's
/// corpus from its bytes alone and atomically publishes the
/// [`ShardResult`]. A Drain chunk streams through [`stream_drain`] and
/// builds no corpus; every other parser parses the chunk's corpus. The
/// lines parsed and the parser are exactly those of the in-process
/// [`ParallelDriver`], so the published result is byte-equivalent to the
/// corresponding chunk of `parse_parallel`.
///
/// Faults from [`FAULT_ENV`] matching `(task, attempt)` are applied
/// here: a crash bound inside the chunk SIGKILLs the process before
/// the result is published, a hang stalls before parsing, a corrupt
/// fault publishes garbage and exits cleanly.
pub fn run_job_worker(job_dir: &Path, task: usize, attempt: u32) -> Result<(), JobError> {
    let manifest = JobManifest::load(job_dir)?
        .ok_or_else(|| JobError::Config(format!("no job manifest under {}", job_dir.display())))?
        // A corpus that is not the one the manifest cut is refused: by
        // its length here, then by a cut that is no longer a line start
        // or a range that no longer holds its lines.
        .against_corpus()?;
    let fault = FaultPlan::from_env()?.worker_fault(task, attempt);
    let ranges = manifest.ranges();
    let range = ranges.get(task).cloned().ok_or_else(|| {
        JobError::Config(format!(
            "task {task} out of range for {} shard(s)",
            manifest.shards
        ))
    })?;
    if let Some(FaultAction::HangMs(ms)) = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if let Some(FaultAction::Corrupt) = fault {
        return publish(job_dir, &result_path(job_dir, task), b"{ not json");
    }
    if let Some(FaultAction::CrashAfter(bound)) = fault {
        if bound < range.len() {
            kill_self();
        }
    }
    let parser = job_parser(&manifest.parser)?;
    let corpus = &manifest.corpus;
    let bytes = manifest.cuts[task]..manifest.cuts[task + 1];
    let refused = |err| match err {
        ParseError::InvalidConfig { reason, .. } => {
            JobError::Config(format!("corpus {}: {reason}", corpus.display()))
        }
        other => other.into(),
    };
    let parse = if parser.name() == Drain::default().name() {
        let source = LineSource::PathRange(corpus, bytes.clone());
        stream_drain(source, &Preprocessor::identity()).map_err(refused)?
    } else {
        // The chunk's corpus (mapping, arena, token table) drops with
        // this block, before the result is written.
        let piece = Corpus::from_path_range(corpus, bytes.clone(), range.start).map_err(refused)?;
        parser.parse(&piece)?
    };
    if parse.len() != range.len() {
        return Err(JobError::Config(format!(
            "bytes {}..{} of corpus {} hold {} line(s), manifest says {}",
            bytes.start,
            bytes.end,
            corpus.display(),
            parse.len(),
            range.len()
        )));
    }
    let assignments = parse
        .assignments()
        .iter()
        .map(|slot| slot.map(EventId::index));
    publish_result(job_dir, task, range.start, parse.templates(), assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_job(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jobs-proto-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A manifest as a directory older than the cuts holds it.
    fn manifest(dir: &Path, lines: usize, shards: usize) -> JobManifest {
        parsed_by("drain", dir, lines, shards)
    }

    /// [`manifest`] of a job parsed by `parser`.
    fn parsed_by(parser: &str, dir: &Path, lines: usize, shards: usize) -> JobManifest {
        JobManifest {
            job_id: "cafe0123cafe0123".into(),
            parser: parser.into(),
            corpus: dir.join("corpus.log"),
            lines,
            cuts: Vec::new(),
            shards,
            max_retries: 2,
            backoff_ms: 50,
        }
    }

    /// Saves `m` as `dir`'s `job` blob.
    fn persist(dir: &Path, m: &JobManifest) {
        prepare_state_dir(dir).unwrap();
        m.save(dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_through_the_state_blob() {
        let dir = temp_job("manifest");
        let m = JobManifest {
            cuts: vec![0, 700, 1400, 2100, 2800],
            ..manifest(&dir, 100, 4)
        };
        assert!(JobManifest::load(&dir).unwrap().is_none());
        persist(&dir, &m);
        assert_eq!(JobManifest::load(&dir).unwrap(), Some(m));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_cuts_may_be_absent_but_not_malformed() {
        let dir = temp_job("cuts");
        let cut = JobManifest {
            cuts: vec![0, 10, 25],
            ..manifest(&dir, 9, 2)
        };
        let doc = cut.to_json().to_string();
        let with = |cuts: &str| Json::parse(&doc.replace("\"cuts\":[0,10,25]", cuts)).unwrap();
        assert_eq!(JobManifest::from_json(&with("\"cuts\":[0,10,25]")), Ok(cut));
        // What every binary before the cuts wrote.
        let old = JobManifest::from_json(&with("\"x\":0")).unwrap();
        assert_eq!(old, manifest(&dir, 9, 2));
        for bad in ["[0,10]", "[1,10,25]", "[0,30,25]", "[0,10,-1]", "7"] {
            let err = JobManifest::from_json(&with(&format!("\"cuts\":{bad}")));
            assert!(err.is_err(), "{bad} must not load");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_result_round_trips_and_validates() {
        let dir = temp_job("result");
        let m = manifest(&dir, 10, 2);
        let result = ShardResult {
            task: 1,
            start: 5,
            templates: vec![
                Template::from_pattern("send * ok"),
                Template::with_open_tail(vec![TemplateToken::literal("boot")]),
            ],
            assignments: vec![Some(0), None, Some(1), Some(0), Some(0)],
        };
        result.write(&dir).unwrap();
        match ShardResult::load(&dir, &m, 1) {
            ResultRead::Ok(loaded) => assert_eq!(loaded, result),
            other => panic!("expected Ok, got {other:?}"),
        }
        assert!(matches!(
            ShardResult::load(&dir, &m, 0),
            ResultRead::Missing
        ));

        // A result whose coverage disagrees with the chunk, or with an
        // assignment that names no template (which `reduce` would trip
        // over), is Corrupt.
        let past_the_end = vec![Some(0), None, Some(2), Some(0), Some(0)];
        for assignments in [vec![Some(0)], past_the_end] {
            let wrong = ShardResult {
                assignments,
                ..result.clone()
            };
            wrong.write(&dir).unwrap();
            assert!(matches!(
                ShardResult::load(&dir, &m, 1),
                ResultRead::Corrupt(_)
            ));
        }
        // Damage costs a retry, never the coordinator: 200 000 open
        // brackets used to recurse `Json::parse` off the stack.
        for damaged in ["{ not json".to_owned(), "[".repeat(200_000)] {
            std::fs::write(result_path(&dir, 1), &damaged).unwrap();
            assert!(matches!(
                ShardResult::load(&dir, &m, 1),
                ResultRead::Corrupt(_)
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The direct writer gives the bytes of the `Json` tree it
        /// replaced: literals with quotes, backslashes, control and
        /// multi-byte characters, wildcards, open tails, outliers, ids
        /// of any width.
        #[test]
        fn the_result_writer_writes_the_json_trees_bytes(
            templates in prop::collection::vec(
                (
                    prop::collection::vec(
                        prop_oneof![
                            Just(None),
                            "[ -~\t\n\r\u{1}\u{1f}\u{7f}é€\u{10348}]{0,8}".prop_map(Some),
                        ],
                        0..6,
                    ),
                    prop_oneof![Just(false), Just(true)],
                ),
                0..5,
            ),
            assignments in prop::collection::vec(
                prop_oneof![
                    Just(None),
                    (0usize..10).prop_map(Some),
                    (0usize..usize::MAX >> 12).prop_map(Some),
                ],
                0..60,
            ),
            task in 0usize..1_000_000,
            start in 0usize..usize::MAX >> 12,
        ) {
            let templates: Vec<Template> = templates
                .into_iter()
                .map(|(tokens, open)| {
                    let tokens = tokens
                        .into_iter()
                        .map(|token| token.map_or(TemplateToken::Wildcard, TemplateToken::literal))
                        .collect();
                    match open {
                        true => Template::with_open_tail(tokens),
                        false => Template::new(tokens),
                    }
                })
                .collect();
            let result = ShardResult { task, start, templates, assignments };
            prop_assert_eq!(
                result_text(task, start, &result.templates, result.assignments.iter().copied()),
                result.to_json().to_string()
            );
        }
    }

    #[test]
    fn templates_round_trip_with_literal_star_and_open_tail() {
        let original = vec![
            Template::new(vec![
                TemplateToken::literal("a"),
                TemplateToken::Wildcard,
                TemplateToken::literal("*"),
            ]),
            Template::with_open_tail(vec![TemplateToken::literal("a")]),
        ];
        for template in &original {
            let doc = template_to_json(template);
            let back = template_from_json(&doc).unwrap();
            assert_eq!(&back, template);
            assert_eq!(back.structural_key(), template.structural_key());
        }
        // The two shapes render identically but must not collide.
        assert_ne!(
            template_from_json(&template_to_json(&original[0]))
                .unwrap()
                .structural_key(),
            Template::new(vec![
                TemplateToken::literal("a"),
                TemplateToken::Wildcard,
                TemplateToken::Wildcard,
            ])
            .structural_key()
        );
    }

    #[test]
    fn dlq_record_round_trips() {
        let dir = temp_job("dlq");
        let record = DlqRecord {
            task: 3,
            job_id: "cafe0123cafe0123".into(),
            attempts: 4,
            failure: "worker exited with signal".into(),
        };
        assert_eq!(DlqRecord::load(&dir, 3).unwrap(), None);
        record.write(&dir).unwrap();
        assert_eq!(DlqRecord::load(&dir, 3).unwrap(), Some(record));
        std::fs::write(dlq_record_path(&dir, 3), "[".repeat(200_000)).unwrap();
        assert!(matches!(
            DlqRecord::load(&dir, 3),
            Err(JobError::Protocol(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_grammar_and_matching() {
        let plan = FaultPlan::parse(
            "worker:2:crash_after:1000; worker:1@1:corrupt;coordinator:exit_after:3",
        )
        .unwrap();
        assert_eq!(plan.worker_fault(2, 1), Some(FaultAction::CrashAfter(1000)));
        assert_eq!(
            plan.worker_fault(2, 7),
            Some(FaultAction::CrashAfter(1000)),
            "no attempt filter = poison"
        );
        assert_eq!(plan.worker_fault(1, 1), Some(FaultAction::Corrupt));
        assert_eq!(plan.worker_fault(1, 2), None, "attempt filter releases");
        assert_eq!(plan.worker_fault(0, 1), None);
        assert_eq!(plan.coordinator_exit_after(), Some(3));
        assert!(FaultPlan::parse("").unwrap().is_empty());
        for bad in [
            "worker:x:corrupt",
            "worker:1:explode",
            "coordinator:exit_after:x",
            "gibberish",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    /// Drain streams its chunk, IPLoM parses the chunk's corpus: each
    /// worker publishes what its parser gives for its slice of the
    /// whole corpus. The two parsers group these lines apart (Drain by
    /// the first token, IPLoM by the least varied position), so a worker
    /// that ran the wrong one fails.
    #[test]
    fn worker_parses_its_chunk_like_the_parallel_driver() {
        let lines: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "{} pkt {i} to node {}",
                    ["send", "recv", "drop"][i % 3],
                    i % 2
                )
            })
            .collect();
        let corpus = Corpus::from_lines(&lines);
        let ranges = ParallelDriver::chunk_ranges(40, 4);
        let slice = corpus.slice(ranges[0].clone());
        let [drain, iplom] = ["drain", "iplom"].map(|name| job_parser(name).unwrap().parse(&slice));
        assert_ne!(drain.unwrap().templates(), iplom.unwrap().templates());
        for parser in ["drain", "iplom"] {
            let dir = temp_job(&format!("worker-{parser}"));
            std::fs::write(dir.join("corpus.log"), lines.join("\n") + "\n").unwrap();
            // Cut, and as a directory older than the cuts left it.
            let m = parsed_by(parser, &dir, 40, 4).against_corpus().unwrap();
            assert_eq!((m.cuts.len(), m.cuts[0]), (5, 0));
            persist(&dir, &m);
            for task in 0..3 {
                run_job_worker(&dir, task, 1).unwrap();
            }
            persist(&dir, &parsed_by(parser, &dir, 40, 4));
            run_job_worker(&dir, 3, 1).unwrap();
            let reference = job_parser(parser).unwrap();
            for (task, range) in ranges.iter().enumerate() {
                let ResultRead::Ok(result) = ShardResult::load(&dir, &m, task) else {
                    panic!("{parser}: task {task} did not complete");
                };
                let expected = reference.parse(&corpus.slice(range.clone())).unwrap();
                assert_eq!(result.templates, expected.templates(), "{parser}");
                assert_eq!(
                    result.assignments,
                    expected
                        .assignments()
                        .iter()
                        .map(|slot| slot.map(|e| e.index()))
                        .collect::<Vec<_>>(),
                    "{parser}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Drain's streamed chunk and IPLoM's chunk corpus are refused
    /// alike.
    #[test]
    fn worker_refuses_a_corpus_that_is_not_the_manifests() {
        for parser in ["drain", "iplom"] {
            refuses_a_corpus_that_is_not_the_manifests(parser);
        }
    }

    fn refuses_a_corpus_that_is_not_the_manifests(parser: &str) {
        let dir = temp_job(&format!("refuse-{parser}"));
        let corpus = dir.join("corpus.log");
        let text: String = (0..8).map(|i| format!("send pkt {i} ok\n")).collect();
        std::fs::write(&corpus, &text).unwrap();
        let m = parsed_by(parser, &dir, 8, 2).against_corpus().unwrap();
        assert_eq!(m.cuts, [0, text.len() / 2, text.len()]);
        persist(&dir, &m);
        let refusal = |text: &str, task: usize| {
            std::fs::write(&corpus, text).unwrap();
            match run_job_worker(&dir, task, 1) {
                Err(JobError::Config(reason)) => reason,
                other => panic!("{parser}: expected a refusal, got {other:?}"),
            }
        };

        // Appended to: both lengths named, by either worker.
        let longer = text.clone() + "one more\n";
        for task in 0..2 {
            let reason = refusal(&longer, task);
            assert!(reason.contains(&format!("is {} byte(s) long", longer.len())));
            assert!(reason.contains(&format!("manifest says {}", text.len())));
        }
        // As long as it was, but the second cut is inside a line now...
        let shifted = text.replacen("send pkt 3 ok\nsend pkt", "send pkt 3 ok send\npkt", 1);
        for task in 0..2 {
            let reason = refusal(&shifted, task);
            assert!(
                reason.contains("does not start and end at a line start"),
                "{parser}: {reason}"
            );
        }
        // ...or the cuts hold and a line between them went blank.
        let blanked = text.replacen("send pkt 1 ok", "             ", 1);
        let reason = refusal(&blanked, 0);
        assert!(
            reason.contains("hold 3 line(s), manifest says 4"),
            "{parser}: {reason}"
        );
        run_job_worker(&dir, 1, 1).expect("the other shard is as it was");
        // A byte that is not UTF-8 fails its shard with the read error.
        let mut bytes = text.clone().into_bytes();
        bytes[text.find("pkt 6").unwrap()] = 0xff;
        std::fs::write(&corpus, &bytes).unwrap();
        match run_job_worker(&dir, 1, 1) {
            Err(JobError::Protocol(reason)) => {
                assert!(reason.contains("valid UTF-8"), "{parser}: {reason}")
            }
            other => panic!("{parser}: expected the UTF-8 error, got {other:?}"),
        }

        // An older directory is held to the line count it recorded.
        persist(&dir, &parsed_by(parser, &dir, 8, 2));
        let reason = refusal(&longer, 0);
        assert!(
            reason.contains("has 9 line(s), manifest says 8"),
            "{parser}: {reason}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
