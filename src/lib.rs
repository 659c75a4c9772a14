//! `logmine` — a log parsing toolkit and log-mining evaluation harness.
//!
//! This facade crate re-exports the whole workspace behind one name:
//!
//! * [`core`] — tokens, templates, the [`core::LogParser`] trait, and
//!   domain-knowledge preprocessing;
//! * [`parsers`] — the four parsers of the DSN'16 study (SLCT, IPLoM,
//!   LKE, LogSig) plus Drain as an extension;
//! * [`datasets`] — seeded synthetic generators modeled on the study's
//!   five corpora (BGL, HPC, HDFS, Zookeeper, Proxifier);
//! * [`linalg`] — the minimal dense linear algebra behind PCA;
//! * [`mining`] — downstream log-mining tasks (PCA anomaly detection,
//!   deployment verification, FSM model construction);
//! * [`eval`] — accuracy metrics and the experiment runners that
//!   regenerate every table and figure of the paper;
//! * [`ingest`] — a long-running streaming ingestion pipeline that
//!   parses logs online across sharded workers and scores tumbling
//!   windows with the PCA detector;
//! * [`obs`] — the zero-dependency metrics + tracing layer behind
//!   `logmine serve --metrics-addr` (counters, gauges, histograms,
//!   spans, Prometheus text exposition, JSONL journal).
//!
//! # Quickstart
//!
//! ```
//! use logmine::core::{Corpus, LogParser};
//! use logmine::parsers::Iplom;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = Corpus::from_lines([
//!     "Receiving block blk_1 src: /10.0.0.1:5000 dest: /10.0.0.2:5001",
//!     "Receiving block blk_2 src: /10.0.0.3:5000 dest: /10.0.0.4:5001",
//!     "PacketResponder 1 for block blk_1 terminating",
//!     "PacketResponder 0 for block blk_2 terminating",
//! ]);
//! let parse = Iplom::default().parse(&corpus)?;
//! assert_eq!(parse.event_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

/// Core data model (re-export of [`logparse_core`]).
pub use logparse_core as core;
/// Synthetic dataset generators (re-export of [`logparse_datasets`]).
pub use logparse_datasets as datasets;
/// Evaluation harness (re-export of [`logparse_eval`]).
pub use logparse_eval as eval;
/// Streaming ingestion pipeline (re-export of [`logparse_ingest`]).
pub use logparse_ingest as ingest;
/// Dense linear algebra (re-export of [`logparse_linalg`]).
pub use logparse_linalg as linalg;
/// Log-mining tasks (re-export of [`logparse_mining`]).
pub use logparse_mining as mining;
/// Observability layer (re-export of [`logparse_obs`]).
pub use logparse_obs as obs;
/// Log parsers (re-export of [`logparse_parsers`]).
pub use logparse_parsers as parsers;
