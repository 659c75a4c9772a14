//! Distributed map-reduce parse jobs: a coordinator that shards a
//! corpus across worker **processes**, retries failed shards with
//! exponential backoff, dead-letters poison shards, and survives
//! SIGKILL of any participant.
//!
//! The paper's efficiency study (§V) runs every parser single-threaded;
//! the in-process [`logparse_core::ParallelDriver`] lifts that to
//! threads, and this crate lifts the same map/merge pipeline to
//! processes — the unit of failure an operator actually loses (OOM
//! kills, node reboots, `kill -9`). The split of responsibilities:
//!
//! * **[`protocol`]** — the work-dir *protocol*: the manifest (line
//!   count, and the newline-aligned byte cuts the corpus is sharded
//!   by), shard results, DLQ records, the fault injector, and the worker
//!   entry point (`logmine worker`), which builds only its own byte
//!   range of the corpus.
//! * **[`Scheduler`]** — the pure state machine: who runs next,
//!   retry-vs-dead-letter, exponential backoff with deterministic
//!   jitter. Property-tested without spawning a single process.
//! * **[`run_job`]** — the effectful shell: spawn/reap workers, emit
//!   JSONL lifecycle events (`job_started`, `task_assigned`,
//!   `agent_started`, `agent_failed`, `agent_retrying`,
//!   `task_completed`, `task_dead_lettered`, `job_finished` — all
//!   correlated by `job_id`), publish `jobs_*` metrics, and [`reduce`]
//!   the shard results — each read and validated once, on reap or on
//!   resume recovery — through the merge `ParallelDriver` itself calls
//!   ([`logparse_core::merge_chunks`]), so the distributed answer is
//!   byte-identical to the in-process one.
//!
//! # Crash safety
//!
//! Every hand-off is a file made visible by atomic rename; attempt
//! counters are persisted *before* each spawn. A coordinator restarted
//! over an existing job directory re-seats completed shards without
//! re-running them, grants poison shards only their remaining attempt
//! budget, and finishes the rest — no shard is lost, none is reduced
//! twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod metrics;
pub mod protocol;
mod scheduler;

pub use coordinator::{reduce, run_job, JobConfig, JobOutcome};
pub use metrics::JobMetrics;
pub use scheduler::{Action, FailureDisposition, Scheduler, TaskSeed, TaskState};

/// Errors the coordinator and the worker can surface.
#[derive(Debug)]
pub enum JobError {
    /// An I/O failure spawning, reaping, or reading job artifacts.
    Io(std::io::Error),
    /// An invalid configuration (bad shard count, unknown parser,
    /// manifest mismatch, malformed fault plan, scheduler bookkeeping
    /// violation).
    Config(String),
    /// A work-dir protocol failure: a corrupt manifest, state blob or
    /// dead-letter record, a vanished result, a shard that no longer
    /// parses.
    Protocol(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Io(e) => write!(f, "I/O error: {e}"),
            JobError::Config(msg) => write!(f, "job configuration error: {msg}"),
            JobError::Protocol(msg) => write!(f, "job protocol error: {msg}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Io(e) => Some(e),
            JobError::Config(_) | JobError::Protocol(_) => None,
        }
    }
}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io(e)
    }
}

impl From<logparse_core::ParseError> for JobError {
    fn from(e: logparse_core::ParseError) -> Self {
        JobError::Protocol(format!("parser error: {e}"))
    }
}
