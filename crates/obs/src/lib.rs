//! Zero-dependency metrics and tracing for the `logmine` workspace.
//!
//! The DSN'16 study's efficiency findings (Table 3 / Fig. 2) rest on
//! systematic timing, and the streaming pipeline the ROADMAP grows
//! toward cannot be operated without per-stage visibility. This crate is
//! the one instrumentation substrate both sides share, built — like the
//! workspace's vendored `rand`/`proptest` shims — entirely on `std`, so
//! the offline build needs nothing from a registry:
//!
//! * **[`Registry`]** — a lock-sharded store of named metric families:
//!   [`Counter`]s, [`Gauge`]s and log-linear-bucket [`Histogram`]s, all
//!   label-aware, with a per-family label-cardinality cap that turns a
//!   would-be series explosion into an `obs_dropped_labels_total` bump
//!   instead of unbounded memory growth.
//! * **[`Span`]s** — scoped timers ([`span!`]) that record duration
//!   histograms and feed a bounded in-process [`TraceEvent`] ring.
//! * **Exposition** — [`Registry::render`] produces Prometheus text
//!   format (0.0.4); [`serve_metrics`] serves it over a tiny TCP/HTTP
//!   endpoint (`logmine serve --metrics-addr`), and `logmine metrics
//!   dump` prints it one-shot.
//! * **[`Journal`]** — a buffered JSONL event log with `run_id` and
//!   monotonic timestamps, flushed on drop so drained shutdowns never
//!   truncate the event stream.
//! * **[`Json`], [`Fnv1a`] and [`word_fold`]** — the one JSON (journal
//!   fields, checkpoint blobs, the jobs protocol), the one persistent
//!   hash (shard routing, store placement, retry jitter) and the one
//!   in-process word-at-a-time fold (token interning, line fingerprints)
//!   every layer above shares.
//!
//! # Example
//!
//! ```
//! use logparse_obs::{Buckets, Registry};
//!
//! let registry = Registry::new();
//! let lines = registry.counter("lines_total", "Lines seen", &[("source", "file")]);
//! lines.inc_by(128);
//!
//! let latency = registry.histogram(
//!     "parse_duration_seconds",
//!     "Batch parse latency",
//!     &Buckets::durations(),
//!     &[("parser", "drain")],
//! );
//! latency.observe(350e-6);
//!
//! registry.span("merge", &[]).finish();
//!
//! let text = registry.render();
//! assert!(text.contains("lines_total{source=\"file\"} 128"));
//! assert!(text.contains("parse_duration_seconds_bucket"));
//! assert!(text.contains("obs_span_duration_seconds_count{span=\"merge\"} 1"));
//! ```
//!
//! Hot-path discipline: resolve handles once (registry lookups take a
//! shard lock), then record through the handle — counters and gauges are
//! single atomic ops, histogram observations a binary search plus two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alerts;
mod fnv;
mod histogram;
mod history;
mod http;
pub mod journal;
mod json;
mod metrics;
mod registry;
pub mod rules;
mod span;

pub use alerts::{AlertEngine, AlertTransition};
pub use fnv::{word_fold, Fnv1a};
pub use histogram::{Buckets, Histogram, HistogramSnapshot};
pub use history::{History, HistorySampler};
pub use http::{serve_metrics, MetricsServer};
pub use journal::{Journal, RotatingFile};
pub use json::{decimal, Json};
pub use metrics::{Counter, Gauge};
pub use registry::{global, MetricKind, Registry};
pub use rules::{default_rules, default_rules_text, parse_rules, AlertRule};
pub use span::{Span, TraceEvent};
