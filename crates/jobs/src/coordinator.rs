//! The job coordinator: spawns worker processes, reaps them, retries
//! failures, dead-letters poison shards, and reduces the surviving
//! shard results into one [`Parse`].
//!
//! All decisions live in the pure [`Scheduler`]; this module is the
//! effectful shell around it — process spawning, the work-dir
//! [`protocol`](crate::protocol), journal events, and metrics. Crash
//! safety comes entirely from the protocol's durable artifacts:
//!
//! * the manifest and per-task attempt counters are CRC-framed blobs
//!   in `state/`, published by atomic rename;
//! * a task counts as complete **iff** its `out/task-<i>.json`
//!   validates against the manifest, and as dead **iff** its
//!   `dlq/task-<i>.json` exists;
//! * the attempt counter is persisted *before* each spawn, so an
//!   attempt in flight when the coordinator is SIGKILLed is counted as
//!   consumed (conservative: a poison shard can never exceed its
//!   budget across restarts).
//!
//! A restarted coordinator rebuilds the scheduler from those artifacts
//! and continues; completed shards are never re-run, so resume neither
//! loses nor duplicates work.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use logparse_core::{corpus_cuts, merge_chunks, EventId, Parse};
use logparse_obs::journal::mint_run_id;
use logparse_obs::{Journal, Json};
use logparse_store::sync_dir;

use crate::metrics::JobMetrics;
use crate::protocol::{
    dlq_dir, events_path, job_parser, kill_self, load_attempts, out_dir, prepare_state_dir,
    save_attempts, DlqRecord, FaultPlan, JobManifest, ResultRead, ShardResult,
};
use crate::scheduler::{Action, FailureDisposition, Scheduler, TaskSeed};
use crate::JobError;

/// How often the coordinator polls its worker pool between reaps.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Everything [`run_job`] needs. The manifest-determining fields
/// (`corpus`, `parser`, `shards`, `max_retries`, `backoff_ms`) are
/// validated against a stored manifest on resume — a job directory
/// answers for exactly one job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The job directory (created if absent; resumed if populated).
    pub job_dir: PathBuf,
    /// The corpus file; each worker builds its own byte range of it.
    pub corpus: PathBuf,
    /// Batch parser name (`drain`, `iplom`, `slct`, …).
    pub parser: String,
    /// Number of map tasks; determines the result exactly as the chunk
    /// count of `ParallelDriver` does.
    pub shards: usize,
    /// Maximum concurrently running worker processes (≥ 1).
    pub workers: usize,
    /// Attempt budget per task, first try included.
    pub max_retries: u32,
    /// Base retry backoff; doubles per attempt, plus deterministic
    /// jitter.
    pub backoff_ms: u64,
    /// Kill a worker attempt that runs longer than this (hung-worker
    /// protection); `None` = no timeout.
    pub task_timeout_ms: Option<u64>,
    /// The binary spawned as `<worker_exe> worker --job-dir … --task …
    /// --attempt …` — normally the running `logmine` executable itself.
    pub worker_exe: PathBuf,
}

/// What a finished [`run_job`] call reports.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's correlation id (stable across restarts).
    pub job_id: String,
    /// Whether an existing job directory was resumed.
    pub resumed: bool,
    /// Corpus line count from the manifest.
    pub lines: usize,
    /// Tasks with a validated result, ascending.
    pub completed: Vec<usize>,
    /// Tasks in the dead-letter queue, ascending.
    pub dead_lettered: Vec<usize>,
    /// Failed attempts absorbed by retries during *this* run.
    pub retries: u64,
    /// The reduced parse — present iff no task was dead-lettered.
    pub parse: Option<Parse>,
}

/// One spawned worker attempt awaiting reap.
struct RunningWorker {
    task: usize,
    attempt: u32,
    child: Child,
    started: Instant,
    spawned_at_ms: u64,
}

/// Drains whatever the worker wrote to its piped stderr (bounded by the
/// pipe buffer; workers print at most one error line).
fn drain_stderr(child: &mut Child) -> String {
    let mut text = String::new();
    if let Some(mut stderr) = child.stderr.take() {
        let _ = stderr.read_to_string(&mut text);
    }
    text.trim().replace('\n', " | ")
}

/// Emits the failure events for one failed attempt, updates the
/// scheduler, and writes the DLQ record when the budget is exhausted.
#[allow(clippy::too_many_arguments)]
fn absorb_failure(
    sched: &mut Scheduler,
    journal: &Journal,
    metrics: &JobMetrics,
    manifest: &JobManifest,
    job_dir: &Path,
    task: usize,
    attempt: u32,
    now_ms: u64,
    reason: &str,
    retries: &mut u64,
) -> Result<(), JobError> {
    let disposition = sched
        .failed(task, now_ms)
        .ok_or_else(|| JobError::Config(format!("scheduler lost track of task {task}")))?;
    let retry_eligible = matches!(disposition, FailureDisposition::Retry { .. });
    journal.emit(
        "agent_failed",
        &[
            ("job_id", Json::str(manifest.job_id.clone())),
            ("task", Json::usize(task)),
            ("attempt", Json::num(attempt)),
            ("failure_reason", Json::str(reason)),
            ("retry_eligible", Json::Bool(retry_eligible)),
        ],
    );
    match disposition {
        FailureDisposition::Retry {
            next_attempt,
            backoff_ms,
        } => {
            journal.emit(
                "agent_retrying",
                &[
                    ("job_id", Json::str(manifest.job_id.clone())),
                    ("task", Json::usize(task)),
                    ("attempt", Json::num(next_attempt)),
                    ("backoff_ms", Json::Num(backoff_ms as f64)),
                ],
            );
            metrics.task_retries.inc();
            *retries += 1;
        }
        FailureDisposition::DeadLetter { attempts } => {
            DlqRecord {
                task,
                job_id: manifest.job_id.clone(),
                attempts,
                failure: reason.to_owned(),
            }
            .write(job_dir)?;
            journal.emit(
                "task_dead_lettered",
                &[
                    ("job_id", Json::str(manifest.job_id.clone())),
                    ("task", Json::usize(task)),
                    ("attempts", Json::num(attempts)),
                    ("failure_reason", Json::str(reason)),
                ],
            );
            metrics.tasks_dead_lettered.inc();
        }
    }
    Ok(())
}

/// Validates a resumed manifest against the requested configuration.
fn validate_manifest(manifest: &JobManifest, config: &JobConfig) -> Result<(), JobError> {
    if manifest.parser != config.parser {
        return Err(JobError::Config(format!(
            "job directory already holds a `{}` job, requested `{}`",
            manifest.parser, config.parser
        )));
    }
    if manifest.shards != config.shards {
        return Err(JobError::Config(format!(
            "job directory already split into {} shard(s), requested {}",
            manifest.shards, config.shards
        )));
    }
    if manifest.corpus != config.corpus {
        return Err(JobError::Config(format!(
            "job directory already bound to corpus {}, requested {}",
            manifest.corpus.display(),
            config.corpus.display()
        )));
    }
    Ok(())
}

/// Runs (or resumes) the job described by `config` to completion: every
/// task ends either completed or dead-lettered. Returns the reduced
/// [`Parse`] when the whole corpus was covered; a job with dead
/// letters returns `parse: None` and the caller decides how loudly to
/// fail. See the [module docs](self) for the crash-safety contract.
pub fn run_job(config: &JobConfig) -> Result<JobOutcome, JobError> {
    if config.shards == 0 {
        return Err(JobError::Config("shards must be at least 1".into()));
    }
    if config.max_retries == 0 {
        return Err(JobError::Config("max-retries must be at least 1".into()));
    }
    // Before the manifest binds the directory to the name: a typo must
    // not cost a worker per attempt and leave an unusable job behind.
    job_parser(&config.parser)?;
    std::fs::create_dir_all(out_dir(&config.job_dir))?;
    std::fs::create_dir_all(dlq_dir(&config.job_dir))?;
    // Every publish below (results, DLQ records, state blobs) renames
    // into these directories; fsync their entries now so a power loss
    // cannot erase the job layout the durable publishes rely on.
    // `prepare_state_dir` adds `state/` and syncs `job_dir` itself.
    if let Some(parent) = config
        .job_dir
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        sync_dir(parent)?;
    }
    prepare_state_dir(&config.job_dir)?;

    let (manifest, resumed) = match JobManifest::load(&config.job_dir)? {
        Some(existing) => {
            validate_manifest(&existing, config)?;
            let had_cuts = !existing.cuts.is_empty();
            // Before anything is spawned or journalled: against a corpus
            // that changed since the job began, every attempt of every
            // open task would fail the same way.
            let manifest = existing.against_corpus()?;
            if !had_cuts {
                // A directory older than the cuts: saved once completed,
                // so each worker reads the cuts instead of repeating the
                // pass.
                manifest.save(&config.job_dir)?;
            }
            (manifest, true)
        }
        None => {
            // One pass over one mapping sizes the manifest and cuts it —
            // no record materialization, here or (past its own shard) in
            // any worker.
            let measured = corpus_cuts(&config.corpus, config.shards)?;
            if measured.lines == 0 {
                return Err(JobError::Config(format!(
                    "corpus {} is empty",
                    config.corpus.display()
                )));
            }
            let manifest = JobManifest {
                job_id: mint_run_id(),
                parser: config.parser.clone(),
                corpus: config.corpus.clone(),
                lines: measured.lines,
                cuts: measured.cuts,
                shards: config.shards,
                max_retries: config.max_retries,
                backoff_ms: config.backoff_ms,
            };
            manifest.save(&config.job_dir)?;
            (manifest, false)
        }
    };

    let journal = Journal::appending(&events_path(&config.job_dir))?;
    let metrics = JobMetrics::new(&manifest.parser);
    let fault = FaultPlan::from_env()?;
    let ranges = manifest.ranges();
    let tasks = ranges.len();
    // The job id is 16 hex chars minted by the journal; reusing it as
    // the jitter seed keeps every retry delay a pure function of the
    // job identity.
    let seed = u64::from_str_radix(&manifest.job_id, 16).unwrap_or(0x9e37_79b9_7f4a_7c15);
    let mut sched = Scheduler::new(
        tasks,
        config.workers,
        manifest.max_retries,
        manifest.backoff_ms,
        seed,
    );
    journal.emit(
        "job_started",
        &[
            ("job_id", Json::str(manifest.job_id.clone())),
            ("parser", Json::str(manifest.parser.clone())),
            (
                "corpus",
                Json::str(manifest.corpus.to_string_lossy().into_owned()),
            ),
            ("lines", Json::usize(manifest.lines)),
            ("tasks", Json::usize(tasks)),
            ("workers", Json::usize(config.workers)),
            ("max_retries", Json::num(manifest.max_retries)),
            ("backoff_ms", Json::Num(manifest.backoff_ms as f64)),
            ("resumed", Json::Bool(resumed)),
        ],
    );

    // Rebuild the scheduler from the durable artifacts (no-op for a
    // fresh directory: everything stays Fresh). A result is read and
    // validated once, here or on reap, and kept for the reduce.
    let mut results: Vec<Option<ShardResult>> = vec![None; tasks];
    for (task, kept) in results.iter_mut().enumerate() {
        if let ResultRead::Ok(result) = ShardResult::load(&config.job_dir, &manifest, task) {
            *kept = Some(result);
            sched.restore(task, TaskSeed::Completed);
            if resumed {
                journal.emit(
                    "task_recovered",
                    &[
                        ("job_id", Json::str(manifest.job_id.clone())),
                        ("task", Json::usize(task)),
                    ],
                );
            }
            continue;
        }
        if DlqRecord::load(&config.job_dir, task)?.is_some() {
            sched.restore(task, TaskSeed::DeadLettered);
            continue;
        }
        let used = load_attempts(&config.job_dir, task)?;
        if used == 0 {
            continue;
        }
        if used >= manifest.max_retries {
            // The budget was consumed by earlier incarnations (the
            // last attempt was in flight when the coordinator died and
            // counts as failed) — dead-letter now, never over-spend.
            let reason = "attempt budget exhausted before coordinator restart";
            DlqRecord {
                task,
                job_id: manifest.job_id.clone(),
                attempts: used,
                failure: reason.into(),
            }
            .write(&config.job_dir)?;
            journal.emit(
                "task_dead_lettered",
                &[
                    ("job_id", Json::str(manifest.job_id.clone())),
                    ("task", Json::usize(task)),
                    ("attempts", Json::num(used)),
                    ("failure_reason", Json::str(reason)),
                ],
            );
            metrics.tasks_dead_lettered.inc();
            sched.restore(task, TaskSeed::DeadLettered);
        } else {
            sched.restore(
                task,
                TaskSeed::Resumed {
                    next_attempt: used + 1,
                },
            );
        }
    }

    // lint:allow(timing-discipline): the scheduler clock; feeds backoff
    // ready-times and the task timeout, not a metric
    let clock = Instant::now();
    let now_ms = |clock: &Instant| clock.elapsed().as_millis() as u64;
    let exit_after = fault.coordinator_exit_after();
    let mut completions_this_run = 0usize;
    let mut retries_this_run = 0u64;
    let mut running: Vec<RunningWorker> = Vec::new();

    loop {
        // Reap exited (and kill timed-out) workers.
        let now = now_ms(&clock);
        let mut still = Vec::with_capacity(running.len());
        for mut worker in running.drain(..) {
            let status = match worker.child.try_wait() {
                Ok(Some(status)) => Some(Ok(status)),
                Ok(None) => {
                    let timed_out = config
                        .task_timeout_ms
                        .is_some_and(|t| now.saturating_sub(worker.spawned_at_ms) >= t);
                    if timed_out {
                        let _ = worker.child.kill();
                        let _ = worker.child.wait();
                        Some(Err(format!(
                            "attempt exceeded task timeout ({} ms)",
                            config.task_timeout_ms.unwrap_or(0)
                        )))
                    } else {
                        None
                    }
                }
                Err(err) => Some(Err(format!("could not reap worker: {err}"))),
            };
            let Some(status) = status else {
                still.push(worker);
                continue;
            };
            metrics
                .attempt_seconds
                .observe_duration(worker.started.elapsed());
            let failure = match status {
                Ok(status) if status.success() => {
                    match ShardResult::load(&config.job_dir, &manifest, worker.task) {
                        ResultRead::Ok(result) => {
                            results[worker.task] = Some(result);
                            None
                        }
                        ResultRead::Missing => {
                            Some("worker exited cleanly without publishing a result".to_owned())
                        }
                        ResultRead::Corrupt(reason) => {
                            Some(format!("published result rejected: {reason}"))
                        }
                    }
                }
                Ok(status) => {
                    let stderr = drain_stderr(&mut worker.child);
                    Some(if stderr.is_empty() {
                        format!("worker died: {status}")
                    } else {
                        format!("worker died: {status}: {stderr}")
                    })
                }
                Err(reason) => Some(reason),
            };
            match failure {
                None => {
                    sched.completed(worker.task);
                    journal.emit(
                        "task_completed",
                        &[
                            ("job_id", Json::str(manifest.job_id.clone())),
                            ("task", Json::usize(worker.task)),
                            ("attempt", Json::num(worker.attempt)),
                        ],
                    );
                    metrics.tasks_completed.inc();
                    completions_this_run += 1;
                    if exit_after.is_some_and(|n| completions_this_run >= n) {
                        // Injected coordinator crash: die like SIGKILL,
                        // after flushing the journal so the chaos tests
                        // can assert on the event trail so far.
                        let _ = journal.flush();
                        kill_self();
                    }
                }
                Some(reason) => absorb_failure(
                    &mut sched,
                    &journal,
                    &metrics,
                    &manifest,
                    &config.job_dir,
                    worker.task,
                    worker.attempt,
                    now,
                    &reason,
                    &mut retries_this_run,
                )?,
            }
        }
        running = still;

        // Spawn everything that is ready while worker slots are free.
        let mut done = false;
        loop {
            let now = now_ms(&clock);
            match sched.next_action(now) {
                Action::Spawn { task, attempt } => {
                    // Durable *before* the process exists: a coordinator
                    // SIGKILL between here and the spawn costs at most
                    // one attempt, never grants an extra one.
                    save_attempts(&config.job_dir, task, attempt)?;
                    journal.emit(
                        "task_assigned",
                        &[
                            ("job_id", Json::str(manifest.job_id.clone())),
                            ("task", Json::usize(task)),
                            ("attempt", Json::num(attempt)),
                        ],
                    );
                    let spawned = Command::new(&config.worker_exe)
                        .arg("worker")
                        .arg("--job-dir")
                        .arg(&config.job_dir)
                        .arg("--task")
                        .arg(task.to_string())
                        .arg("--attempt")
                        .arg(attempt.to_string())
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .stderr(Stdio::piped())
                        .spawn();
                    match spawned {
                        Ok(child) => {
                            journal.emit(
                                "agent_started",
                                &[
                                    ("job_id", Json::str(manifest.job_id.clone())),
                                    ("task", Json::usize(task)),
                                    ("attempt", Json::num(attempt)),
                                    ("pid", Json::num(child.id())),
                                ],
                            );
                            running.push(RunningWorker {
                                task,
                                attempt,
                                child,
                                // lint:allow(timing-discipline): feeds the
                                // jobs_task_attempt_seconds histogram on reap
                                started: Instant::now(),
                                spawned_at_ms: now,
                            });
                        }
                        Err(err) => absorb_failure(
                            &mut sched,
                            &journal,
                            &metrics,
                            &manifest,
                            &config.job_dir,
                            task,
                            attempt,
                            now,
                            &format!("spawn failed: {err}"),
                            &mut retries_this_run,
                        )?,
                    }
                }
                Action::Wait { .. } => break,
                Action::Done => {
                    done = true;
                    break;
                }
            }
        }
        metrics.workers_active.set(running.len() as f64);
        if done {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }

    let (completed, dead_lettered) = sched.terminal();
    let parse = if dead_lettered.is_empty() {
        let results = results.into_iter().enumerate().map(|(task, result)| {
            result.ok_or_else(|| JobError::Config(format!("scheduler lost track of task {task}")))
        });
        Some(reduce(manifest.lines, results.collect::<Result<_, _>>()?))
    } else {
        None
    };
    journal.emit(
        "job_finished",
        &[
            ("job_id", Json::str(manifest.job_id.clone())),
            ("completed", Json::usize(completed.len())),
            ("dead_lettered", Json::usize(dead_lettered.len())),
            (
                "templates",
                parse
                    .as_ref()
                    .map_or(Json::Null, |p| Json::usize(p.event_count())),
            ),
            ("retries", Json::Num(retries_this_run as f64)),
        ],
    );
    journal.flush()?;
    Ok(JobOutcome {
        job_id: manifest.job_id,
        resumed,
        lines: manifest.lines,
        completed,
        dead_lettered,
        retries: retries_this_run,
        parse,
    })
}

/// Folds shard results (sorted by task) into one global [`Parse`] —
/// the reduce step: each result becomes the chunk [`Parse`] its worker
/// held, and [`merge_chunks`] — the in-process parallel driver's own
/// merge — does the rest, so `jobs run` with N shards is byte-identical
/// to `parse_parallel` with N chunks by construction.
pub fn reduce(lines: usize, results: Vec<ShardResult>) -> Parse {
    let ranges: Vec<_> = results
        .iter()
        .map(|result| result.start..result.start + result.assignments.len())
        .collect();
    let chunk_parses = results
        .into_iter()
        .map(|result| {
            let assignments = result
                .assignments
                .into_iter()
                .map(|slot| slot.map(EventId::new));
            Parse::new(result.templates, assignments.collect())
        })
        .collect();
    merge_chunks(chunk_parses, &ranges, lines)
}
