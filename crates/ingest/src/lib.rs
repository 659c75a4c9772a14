//! Streaming log ingestion with online anomaly scoring.
//!
//! The batch crates of this workspace reproduce the DSN'16 evaluation on
//! closed corpora; this crate is the *deployment* half the paper
//! motivates: a long-running pipeline that parses logs online
//! ([`logparse_parsers::StreamingDrain`] / `StreamingSpell`), maintains
//! a live template inventory, and scores tumbling event-count windows
//! with the same PCA detector ([`logparse_mining::PcaDetector`]) the
//! study uses for its log-mining case study.
//!
//! # Architecture
//!
//! * **Sources** ([`source`]) — stdin, whole files, `tail -F`-style file
//!   following with rotation detection, and a TCP line protocol.
//! * **Sharded workers** ([`IngestConfig::shards`]) — each shard owns a
//!   streaming parser; batches travel over *bounded* channels, so a slow
//!   shard exerts blocking backpressure on the source instead of
//!   buffering without limit.
//! * **Aggregator** — merges per-shard template snapshots under stable
//!   global group ids, closes sequence-numbered tumbling windows, and
//!   scores each against recent history.
//! * **Durable checkpoints** ([`Checkpoint`] over `logparse-store`) —
//!   parser state (member-free, so size scales with templates, not
//!   stream length) persists as store blobs while every global-id
//!   mutation streams into per-shard delta logs; a restored pipeline
//!   groups future lines exactly as the original would have, and
//!   global template ids survive restarts byte-for-byte.
//! * **Event log** — JSONL operational events (`ingest_started` …
//!   `shutdown_complete`, the quality family `drift_window` …
//!   `alert_resolved`) appended to the [`logparse_obs::Journal`] handed
//!   to [`run_pipeline`], which documents the vocabulary.
//! * **Quality & drift telemetry** ([`IngestConfig::drift`]) — per
//!   window the aggregator publishes template birth rate, churn,
//!   singleton fraction, parameter-cardinality and merge-conflict
//!   gauges, records them into a bounded [`logparse_obs::History`]
//!   ring, and evaluates declarative [`logparse_obs::AlertRule`]s
//!   (`template_churn > 0.3 for 3`) with journaled fire/resolve edges.
//!
//! # Example
//!
//! ```
//! use logparse_ingest::{run_pipeline, IngestConfig, MemorySource};
//! use logparse_obs::Journal;
//!
//! let lines: Vec<String> = (0..2_000)
//!     .map(|i| format!("block {} replicated to node {}", i, i % 7))
//!     .collect();
//! let mut source = MemorySource::new(lines);
//! let config = IngestConfig { window_size: 200, warmup: 3, ..IngestConfig::default() };
//! let summary = run_pipeline(&mut source, &config, Journal::disabled(), None).unwrap();
//! assert_eq!(summary.lines, 2_000);
//! assert_eq!(summary.templates.len(), 1); // "block * replicated to node *"
//! ```

#![deny(unsafe_code)] // `signal` opts out locally for the signal(2) FFI
#![warn(missing_docs)]

mod aggregate;
pub mod checkpoint;
mod metrics;
mod pipeline;
mod router;
pub mod signal;
pub mod source;
mod worker;

pub use checkpoint::{Checkpoint, ParserSnapshot};
pub use pipeline::{run_pipeline, IngestConfig, IngestSummary, WindowScore};
pub use signal::StopFlag;
pub use source::{
    file_source, stdin_source, FileTailSource, LogSource, MemorySource, ReaderSource, SourceItem,
    TcpSource,
};

use logparse_core::ParseError;

/// Which streaming parser the shards run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParserChoice {
    /// [`logparse_parsers::StreamingDrain`] — fixed-depth parse tree.
    Drain,
    /// [`logparse_parsers::StreamingSpell`] — LCS objects.
    Spell,
}

impl ParserChoice {
    /// The lowercase name used in checkpoints and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ParserChoice::Drain => "drain",
            ParserChoice::Spell => "spell",
        }
    }
}

impl std::str::FromStr for ParserChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "drain" => Ok(ParserChoice::Drain),
            "spell" => Ok(ParserChoice::Spell),
            other => Err(format!(
                "unknown streaming parser `{other}` (expected drain|spell)"
            )),
        }
    }
}

/// Errors the pipeline can surface.
#[derive(Debug)]
pub enum IngestError {
    /// An I/O failure in a source, sink, or checkpoint file.
    Io(std::io::Error),
    /// An invalid configuration or broken pipeline invariant.
    Config(String),
    /// A missing, corrupt, or incompatible checkpoint.
    Checkpoint(String),
    /// A parser error (invalid restored state).
    Parse(ParseError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "I/O error: {e}"),
            IngestError::Config(msg) => write!(f, "configuration error: {msg}"),
            IngestError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            IngestError::Parse(e) => write!(f, "parser error: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<ParseError> for IngestError {
    fn from(e: ParseError) -> Self {
        IngestError::Parse(e)
    }
}

impl From<logparse_store::StoreError> for IngestError {
    fn from(e: logparse_store::StoreError) -> Self {
        match e {
            logparse_store::StoreError::Io(e) => IngestError::Io(e),
            logparse_store::StoreError::Corrupt(msg) => IngestError::Checkpoint(msg),
            logparse_store::StoreError::Config(msg) => IngestError::Config(msg),
        }
    }
}
