//! The ingestion pipeline: source → sharded parse workers → aggregator.
//!
//! ```text
//!                         bounded sync_channel (backpressure)
//!   ┌──────────────┐  LineBatch  ┌──────────┐
//!   │ source:      │ text+spans  │ shard 0  │ ─┐
//!   │ framer, one  │ ──────────► │ shard 1  │ ─┤  unbounded    ┌────────────┐
//!   │ scan a block │     ...     │   ...    │ ─┼─────────────► │ aggregator │
//!   │ router (this │ ──────────► │ shard N  │ ─┘   results     │  (thread)  │
//!   │ thread)      │             └──────────┘                  └────────────┘
//!   └──────────────┘             intern the                   ids resolved per
//!                                framer's spans →             batch, dense window
//!                                StreamingDrain /             counts, PCA scores,
//!                                StreamingSpell per shard     checkpoints
//! ```
//!
//! The router ([`crate::router`]) runs on the calling thread. A source
//! hands it every complete line its framer holds, borrowed from the
//! framer's buffer and scanned once as one block; the router gives each
//! line a global sequence number, takes its shard from the scan's first
//! token and token count (one event shape lands on one shard, and
//! routing is deterministic), and copies it into that shard's batch —
//! one `String` of line text and one `Vec` of the scan's token spans per
//! batch, plus a `(sequence, text end, spans end)` entry per line, so a
//! worker interns the tokens the scan found instead of splitting the
//! line again. Batches go on either when full or when the flush interval
//! expires. Shard input channels are *bounded*: a slow shard blocks the
//! router, which stops pulling from the source — backpressure instead of
//! unbounded buffering.
//!
//! Shutdown is cooperative: on source EOF, a stop-flag request (SIGINT/
//! SIGTERM) or reaching `max_lines`, the router flushes partial batches,
//! sends `Shutdown` down every shard channel (FIFO order guarantees all
//! queued batches are parsed first), and the aggregator finishes once
//! every shard reports done — draining in-flight work, scoring partial
//! windows, and writing the final checkpoint.

use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use logparse_core::{LineDamage, TemplateMerge};
use logparse_mining::{PcaDetector, PcaDetectorConfig};
use logparse_obs::{default_rules, AlertEngine, AlertRule, History, HistorySampler, Journal, Json};
use logparse_store::{StoreConfig, TemplateStore};

use crate::aggregate::{run_aggregator, AggregatorConfig, QualityTelemetry};
use crate::checkpoint::Checkpoint;
use crate::metrics::StageMetrics;
use crate::router::Router;
use crate::signal::StopFlag;
use crate::source::{LogSource, SourceItem};
use crate::worker::{run_worker, ShardInput};
use crate::{IngestError, ParserChoice};

/// Pipeline configuration. `Default` is sized for interactive use;
/// benchmarks and tests override freely.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Which streaming parser each shard runs.
    pub parser: ParserChoice,
    /// Number of parse workers (≥ 1).
    pub shards: usize,
    /// Lines per batch handed to a shard.
    pub batch_size: usize,
    /// Maximum time a partial batch may wait before being flushed.
    pub flush_interval: Duration,
    /// Lines per tumbling window fed to the detector.
    pub window_size: usize,
    /// Closed windows kept as scoring history (the detector's matrix).
    pub history: usize,
    /// Closed windows required before scoring starts (≥ 2).
    pub warmup: usize,
    /// Directory of the durable template store checkpoints are written
    /// into (created on first use); `None` disables checkpointing.
    pub store_dir: Option<std::path::PathBuf>,
    /// Routed lines between periodic checkpoints; 0 = final only.
    pub checkpoint_every: u64,
    /// Stop after this many lines (useful for bounded serves); `None`
    /// runs until EOF or a stop request.
    pub max_lines: Option<u64>,
    /// PCA detector settings.
    pub detector: PcaDetectorConfig,
    /// Cooperative stop flag (signal handlers set a process-global one).
    pub stop: StopFlag,
    /// Per-window quality & drift telemetry: the history ring, the
    /// `ingest_drift_*` family, exemplar capture and alert evaluation.
    /// Cheap (a few hashes per line, a few hundred samples of memory);
    /// on by default, `--no-drift` turns it off.
    pub drift: bool,
    /// Alert rules evaluated once per closed window while `drift` is
    /// on. Defaults to [`logparse_obs::default_rules`].
    pub alert_rules: Vec<AlertRule>,
}

/// Samples kept per history series: at one tick per closed window this
/// is a few hours of drift context for typical window sizes, in at most
/// `series × 256 × 8` bytes.
const HISTORY_CAPACITY: usize = 256;

/// Bounded depth (in batches) of each shard's input channel.
const QUEUE_DEPTH: usize = 8;

/// Sleep between polls when the source is idle.
const IDLE_SLEEP: Duration = Duration::from_millis(5);

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            parser: ParserChoice::Drain,
            shards: 2,
            batch_size: 64,
            flush_interval: Duration::from_millis(200),
            window_size: 1_000,
            history: 64,
            warmup: 8,
            store_dir: None,
            checkpoint_every: 0,
            max_lines: None,
            detector: PcaDetectorConfig::default(),
            stop: StopFlag::new(),
            drift: true,
            alert_rules: default_rules(),
        }
    }
}

impl IngestConfig {
    fn validate(&self) -> Result<(), IngestError> {
        let bad = |what: &str| Err(IngestError::Config(what.into()));
        if self.shards == 0 {
            return bad("shards must be >= 1");
        }
        if self.batch_size == 0 {
            return bad("batch_size must be >= 1");
        }
        if self.window_size == 0 {
            return bad("window_size must be >= 1");
        }
        if self.warmup < 2 {
            return bad("warmup must be >= 2 (PCA needs multiple windows)");
        }
        if self.history < self.warmup {
            return bad("history must be >= warmup");
        }
        Ok(())
    }
}

/// One scored tumbling window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowScore {
    /// Window number (`sequence / window_size`, continuous across
    /// checkpoint restarts).
    pub window: u64,
    /// Lines in the window (only the final window may be partial).
    pub lines: usize,
    /// Squared prediction error, `None` during detector warmup.
    pub spe: Option<f64>,
    /// The detector's `Q_α` threshold for this window's scoring matrix.
    pub threshold: Option<f64>,
    /// Whether the window was flagged anomalous.
    pub anomalous: bool,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct IngestSummary {
    /// The source description (e.g. `tail:/var/log/app.log`).
    pub source: String,
    /// Lines ingested by this run (excludes any resumed prefix).
    pub lines: u64,
    /// Batches parsed across all shards.
    pub batches: u64,
    /// Lines parsed per shard.
    pub shard_lines: Vec<usize>,
    /// Canonical `(global id, template)` pairs at shutdown.
    pub templates: Vec<(usize, String)>,
    /// Every window scored, in close order.
    pub windows: Vec<WindowScore>,
    /// Window ids flagged anomalous.
    pub anomalies: Vec<u64>,
    /// Checkpoints written (periodic + final).
    pub checkpoints_written: u64,
    /// Each shard's final parser state, as its checkpoint blob document.
    pub final_snapshots: Vec<Json>,
}

/// Runs the pipeline to completion on the calling thread.
///
/// Returns when the source reaches EOF, `config.max_lines` is hit, or
/// `config.stop` (or a signal, if [`crate::signal::install_handlers`]
/// was called) requests shutdown — in every case after draining all
/// in-flight batches. `resume` restarts from a checkpoint written by a
/// previous run with the same parser and shard count; a shard whose
/// blob does not restore starts empty.
///
/// Every operational transition is appended to `events` as one JSON
/// object per line, after the journal's own header fields (`event`,
/// `seq`, `run_id`, `ts_mono_ns`, `elapsed_ms`, `rot`), so a run can be
/// monitored — and replayed in tests — with ordinary line tools:
///
/// | `event`             | emitted when                                       |
/// |---------------------|----------------------------------------------------|
/// | `ingest_started`    | the pipeline finished setup and starts reading     |
/// | `batch_parsed`      | a shard worker finished one batch                  |
/// | `window_scored`     | a tumbling window closed and was scored            |
/// | `anomaly_flagged`   | a scored window exceeded the detector threshold    |
/// | `drift_window`      | per-window quality stats (births, churn, …)        |
/// | `drift_exemplar`    | a raw line evidencing a window's template births   |
/// | `window_top`        | the window's top-K templates by arrival count      |
/// | `alert_firing`      | an alert rule crossed its `for N windows` breach   |
/// | `alert_resolved`    | a firing rule saw N consecutive clear windows      |
/// | `snapshot_written`  | a checkpoint was persisted to disk                 |
/// | `shutdown_complete` | all shards drained and the pipeline exited         |
///
/// The journal is flushed after `shutdown_complete`, so a
/// SIGTERM-drained run always ends with a complete log on disk; a
/// journal that failed to write (a full disk, `/dev/full`) fails the run
/// there, once everything is drained, with an error naming its file.
pub fn run_pipeline(
    source: &mut dyn LogSource,
    config: &IngestConfig,
    events: Journal,
    resume: Option<&Checkpoint>,
) -> Result<IngestSummary, IngestError> {
    config.validate()?;
    if let Some(checkpoint) = resume {
        if checkpoint.parser != config.parser {
            return Err(IngestError::Config(format!(
                "checkpoint was written by parser `{}`, config asks for `{}`",
                checkpoint.parser.name(),
                config.parser.name()
            )));
        }
        if checkpoint.shards.len() != config.shards {
            return Err(IngestError::Config(format!(
                "checkpoint has {} shards, config asks for {}",
                checkpoint.shards.len(),
                config.shards
            )));
        }
        if config.store_dir.is_none() {
            return Err(IngestError::Config(
                "resuming needs store_dir: the global template map is replayed from the store"
                    .into(),
            ));
        }
    }
    let parsers = match resume {
        Some(checkpoint) => checkpoint.parsers(),
        None => (0..config.shards).map(|_| config.parser.build()).collect(),
    };
    let resumed_groups: Option<Vec<usize>> =
        resume.map(|_| parsers.iter().map(|parser| parser.group_count()).collect());
    let (store, map) = match &config.store_dir {
        Some(dir) => {
            let (store, map) = open_store(dir, resumed_groups.as_deref())?;
            (Some(store), map)
        }
        None => (None, TemplateMerge::new()),
    };
    let events = Arc::new(events);
    let seq_base = resume.map_or(0, |c| c.lines);
    // Resolve (and pre-register) every stage's metric handles up front so
    // an early scrape of `--metrics-addr` already shows all families.
    let StageMetrics {
        router: router_metrics,
        workers: worker_metrics,
        aggregator: aggregator_metrics,
    } = StageMetrics::new(config.shards, config.parser.name());
    // The quality telemetry bundle: a bounded history ring fed once per
    // closed window from the live metric handles, plus the alert engine
    // evaluated over it. Series names here are the vocabulary alert
    // rules reference.
    let quality = if config.drift {
        let history = Arc::new(History::new(HISTORY_CAPACITY));
        let mut sampler = HistorySampler::new(Arc::clone(&history));
        sampler.track_counter("lines_total", router_metrics.lines.clone());
        sampler.track_gauge(
            "global_templates",
            aggregator_metrics.global_templates.clone(),
        );
        sampler.track_quantile(
            "window_score_p95",
            aggregator_metrics.score_seconds.clone(),
            0.95,
        );
        let engine = AlertEngine::new(logparse_obs::global(), config.alert_rules.clone());
        Some(QualityTelemetry {
            history,
            sampler,
            engine,
        })
    } else {
        None
    };
    events.emit(
        "ingest_started",
        &[
            ("source", Json::str(source.describe())),
            ("parser", Json::str(config.parser.name())),
            ("shards", Json::usize(config.shards)),
            ("batch_size", Json::usize(config.batch_size)),
            ("window_size", Json::usize(config.window_size)),
            ("resumed_lines", Json::num(seq_base as f64)),
        ],
    );

    // Spawn shards.
    let mut shard_txs: Vec<SyncSender<ShardInput>> = Vec::with_capacity(config.shards);
    let mut shard_handles = Vec::with_capacity(config.shards);
    let (result_tx, result_rx) = mpsc::channel();
    for (shard, (metrics, parser)) in worker_metrics.into_iter().zip(parsers).enumerate() {
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        shard_txs.push(tx);
        let out = result_tx.clone();
        let drift = config.drift;
        shard_handles.push(
            std::thread::Builder::new()
                .name(format!("ingest-shard-{shard}"))
                .spawn(move || run_worker(shard, parser, drift, metrics, rx, out))
                .map_err(IngestError::Io)?,
        );
    }
    drop(result_tx); // aggregator sees disconnect if every worker dies

    // Spawn the aggregator.
    let aggregator = {
        let agg_config = AggregatorConfig {
            shards: config.shards,
            parser: config.parser,
            window_size: config.window_size,
            history: config.history,
            warmup: config.warmup,
            detector: PcaDetector::new(config.detector.clone()),
            store,
            events: Arc::clone(&events),
            metrics: aggregator_metrics,
            quality,
            map,
            seq_base,
        };
        std::thread::Builder::new()
            .name("ingest-aggregator".into())
            .spawn(move || run_aggregator(agg_config, result_rx))
            .map_err(IngestError::Io)?
    };

    // The router loop (this thread).
    let mut router = Router::new(config, &router_metrics, shard_txs, seq_base);
    let mut source_error: Option<IngestError> = None;
    while !config.stop.is_set() && !router.closed() {
        let before = router.next_seq();
        let pulled = source.pull(&mut |line| router.route(line));
        router_metrics.lines.inc_by(router.next_seq() - before);
        let damage = source.take_damage();
        if damage != LineDamage::default() {
            router_metrics
                .invalid_utf8_lines
                .inc_by(damage.invalid_utf8);
            router_metrics.too_long_lines.inc_by(damage.too_long);
        }
        match pulled {
            Ok(SourceItem::Lines(_)) => {}
            Ok(SourceItem::Idle) => {
                router_metrics.idle_polls.inc();
                router.flush_aged();
                std::thread::sleep(IDLE_SLEEP);
            }
            Ok(SourceItem::Eof) => break,
            Err(e) => {
                source_error = Some(IngestError::Io(e));
                break;
            }
        }
    }

    // Graceful shutdown: flush partial batches, then Shutdown markers.
    let (seq, router_error) = router.shutdown();
    let source_error = router_error.or(source_error);
    for handle in shard_handles {
        let _ = handle.join();
    }
    let outcome = aggregator
        .join()
        .map_err(|_| IngestError::Config("aggregator thread panicked".into()))??;

    if let Some(e) = source_error {
        return Err(e);
    }

    let lines = seq - seq_base;
    events.emit(
        "shutdown_complete",
        &[
            ("lines", Json::num(lines as f64)),
            ("batches", Json::num(outcome.batches as f64)),
            ("windows", Json::usize(outcome.windows.len())),
            ("templates", Json::usize(outcome.templates.len())),
            ("anomalies", Json::usize(outcome.anomalies.len())),
            ("checkpoints", Json::num(outcome.checkpoints_written as f64)),
        ],
    );
    // The journal buffers; push the tail out so a drained shutdown
    // (including the SIGTERM path) leaves a complete event log on disk
    // even though callers may hold the log alive past this return. A
    // journal that could not write fails the run here, after the drain,
    // naming its file: events lost are an error, not a silent gap.
    if let Err(e) = events.flush() {
        let sink = events
            .path()
            .map_or_else(|| "sink".to_owned(), |path| path.display().to_string());
        return Err(IngestError::Io(std::io::Error::new(
            e.kind(),
            format!("event journal {sink}: {e}"),
        )));
    }

    Ok(IngestSummary {
        source: source.describe(),
        lines,
        batches: outcome.batches,
        shard_lines: outcome.shard_observed,
        templates: outcome.templates,
        windows: outcome.windows,
        anomalies: outcome.anomalies,
        checkpoints_written: outcome.checkpoints_written,
        final_snapshots: outcome.final_snapshots,
    })
}

/// Opens (or creates) the durable template store under `dir` and
/// returns it with the template map its snapshots and delta logs
/// replayed — the map the aggregator keeps merging on, so a run reads
/// its store exactly once.
///
/// * fresh run, non-empty store — refused: silently appending a new
///   run's ids onto another run's template history would corrupt both.
/// * resumed run — `resumed_groups` holds each restored shard parser's
///   group count, and bindings are pruned to the local ids below it;
///   anything beyond (a shard restored empty, or groups learned after
///   the last blob write) is re-learned and re-unified by key onto its
///   old global id.
pub(crate) fn open_store(
    dir: &std::path::Path,
    resumed_groups: Option<&[usize]>,
) -> Result<(TemplateStore, TemplateMerge), IngestError> {
    let (store, recovery) = TemplateStore::open(dir, &StoreConfig::default())?;
    let mut map = recovery.state;
    match resumed_groups {
        Some(groups) => map.retain_bindings(|shard, local| {
            groups.get(shard).is_some_and(|&groups| local < groups)
        }),
        None if map.id_space() > 0 => {
            return Err(IngestError::Config(format!(
                "template store at {} already holds {} global id(s); resume from it \
                 (logmine serve --resume) or point --checkpoint at a fresh directory",
                dir.display(),
                map.id_space(),
            )))
        }
        None => {}
    }
    Ok((store, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use logparse_core::FramedLine;

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 3 {
                0 => format!("send pkt {i} ok"),
                1 => format!("recv ack {i}"),
                _ => format!("conn from 10.0.0.{} established", i % 250),
            })
            .collect()
    }

    #[test]
    fn pipeline_parses_a_memory_stream_end_to_end() {
        let mut source = MemorySource::new(lines(5_000));
        let config = IngestConfig {
            shards: 3,
            window_size: 500,
            warmup: 3,
            ..IngestConfig::default()
        };
        let summary = run_pipeline(&mut source, &config, Journal::disabled(), None).unwrap();
        assert_eq!(summary.lines, 5_000);
        assert_eq!(summary.shard_lines.iter().sum::<usize>(), 5_000);
        assert_eq!(summary.windows.len(), 10);
        assert!(summary.windows.iter().all(|w| w.lines == 500));
        // Three synthetic event shapes → three canonical templates.
        assert_eq!(summary.templates.len(), 3, "{:?}", summary.templates);
        assert!(summary.windows.iter().filter(|w| w.spe.is_some()).count() >= 7);
    }

    #[test]
    fn constant_workload_never_flags_despite_zero_residual_history() {
        // Every window has identical event counts, so the PCA
        // reproduces the history exactly and the in-fit residuals
        // collapse to numerical dust (~1e-31 squared rounding error).
        // Margins scaled from dust are still dust: any real sampling
        // noise would "exceed" the threshold. With no residual scale to
        // judge against, nothing may be flagged — previously every
        // post-warmup window in such a run was reported anomalous.
        let sample: Vec<String> = (0..4_000)
            .map(|i| match i % 8 {
                0 => format!(
                    "Received block blk_{i} of size 67108864 from 10.0.0.{}",
                    i % 8
                ),
                1 => format!("Verification succeeded for blk_{i}"),
                2 => format!("Deleting block blk_{i} file /hadoop/dfs/data"),
                3 => format!("PacketResponder 1 for block blk_{i} terminating"),
                4 => format!("Served block blk_{i} to /10.0.1.{}", i % 9),
                5 => format!("Starting thread to transfer block blk_{i}"),
                6 => format!("BLOCK NameSystem allocateBlock blk_{i}"),
                _ => format!("writeBlock blk_{i} received exception"),
            })
            .collect();
        let mut source = MemorySource::new(sample);
        let config = IngestConfig {
            shards: 2,
            window_size: 200,
            warmup: 2,
            ..IngestConfig::default()
        };
        let summary = run_pipeline(&mut source, &config, Journal::disabled(), None).unwrap();
        assert!(summary.windows.iter().any(|w| w.spe.is_some()));
        assert!(
            summary.anomalies.is_empty(),
            "flagged {:?} on a constant workload",
            summary.anomalies
        );
    }

    #[test]
    fn one_wobbling_column_among_forty_templates_never_flags() {
        // The sibling of the test above on the short-and-wide side: 40
        // templates over 20 windows, so the detector fits fewer rows than
        // columns. 38 templates log 5 lines in every window; one logs 0,
        // 1 or 2 and a partner makes the window up to 200 lines. The
        // history has rank one, the fit reproduces it exactly, and a
        // threshold scaled from its (zero or dust) residuals is no
        // threshold: nothing may be flagged, with TF-IDF (only the
        // wobbling column survives the weighting) or without.
        let name = |t: usize| {
            let letter = |i: usize| (b'a' + i as u8) as char;
            format!("unit{}{}", letter(t / 8), letter(t % 8))
        };
        let mut sample = Vec::new();
        for window in 0..20usize {
            let wobble = [1, 2, 1, 0, 1, 1, 2, 0, 1][window % 9];
            for t in 0..40 {
                let lines = match t {
                    0 => wobble,
                    1 => 10 - wobble,
                    _ => 5,
                };
                for i in 0..lines {
                    sample.push(format!("{} heartbeat seq {}", name(t), window * 200 + i));
                }
            }
        }
        assert_eq!(sample.len(), 4_000);
        for tfidf in [false, true] {
            let mut source = MemorySource::new(sample.clone());
            let mut config = IngestConfig {
                shards: 2,
                window_size: 200,
                warmup: 2,
                ..IngestConfig::default()
            };
            config.detector.tfidf = tfidf;
            let summary = run_pipeline(&mut source, &config, Journal::disabled(), None).unwrap();
            assert_eq!(summary.templates.len(), 40, "{:?}", summary.templates);
            let scored: Vec<f64> = summary.windows.iter().filter_map(|w| w.spe).collect();
            assert!(scored.len() >= 17);
            // Exact zeros with TF-IDF, ~1e-31 without: squared rounding
            // error, twenty orders under the aggregator's dust floor.
            assert!(scored.iter().all(|&spe| spe < 1e-20), "{scored:?}");
            assert!(
                summary.anomalies.is_empty(),
                "tfidf {tfidf}: flagged {:?} on a one-column wobble",
                summary.anomalies
            );
        }
    }

    #[test]
    fn max_lines_bounds_the_run() {
        let mut source = MemorySource::new(lines(10_000));
        let config = IngestConfig {
            max_lines: Some(1_234),
            ..IngestConfig::default()
        };
        let summary = run_pipeline(&mut source, &config, Journal::disabled(), None).unwrap();
        assert_eq!(summary.lines, 1_234);
    }

    #[test]
    fn stop_flag_requests_graceful_shutdown() {
        // A source that never ends: the stop flag is the only way out.
        struct Endless(u64);
        impl crate::source::LogSource for Endless {
            fn pull(
                &mut self,
                each: &mut dyn FnMut(FramedLine<'_>),
            ) -> std::io::Result<SourceItem> {
                self.0 += 1;
                let text = format!("tick {}", self.0);
                each(FramedLine {
                    text: &text,
                    first_token: "tick",
                    tokens: 2,
                    spans: None,
                });
                Ok(SourceItem::Lines(1))
            }
            fn describe(&self) -> String {
                "endless".into()
            }
        }
        let config = IngestConfig::default();
        let stop = config.stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            stop.request();
        });
        let summary = run_pipeline(&mut Endless(0), &config, Journal::disabled(), None).unwrap();
        assert!(
            summary.lines > 0,
            "ingested nothing before the stop request"
        );
        assert_eq!(summary.templates.len(), 1); // "tick *"
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut source = MemorySource::new(vec![]);
        for config in [
            IngestConfig {
                shards: 0,
                ..IngestConfig::default()
            },
            IngestConfig {
                batch_size: 0,
                ..IngestConfig::default()
            },
            IngestConfig {
                warmup: 1,
                ..IngestConfig::default()
            },
            IngestConfig {
                history: 2,
                warmup: 8,
                ..IngestConfig::default()
            },
        ] {
            assert!(run_pipeline(&mut source, &config, Journal::disabled(), None).is_err());
        }
    }
}
