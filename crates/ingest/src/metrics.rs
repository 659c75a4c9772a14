//! Per-stage metric handles for the ingest pipeline.
//!
//! All handles are resolved once, at pipeline startup, against the
//! process-global [`logparse_obs`] registry — the same registry the
//! `logmine serve --metrics-addr` endpoint and `logmine metrics dump`
//! expose — and then threaded into the router loop, the shard workers
//! and the aggregator. The hot paths only touch lock-free atomics.
//!
//! Registering everything up front (rather than lazily on first use)
//! means a scrape taken seconds into a run already shows every stage's
//! families, with zero values where nothing has happened yet.

use logparse_obs::{global, Buckets, Counter, Gauge, Histogram};

/// Metrics owned by the router (source-reading) loop.
#[derive(Debug)]
pub(crate) struct RouterMetrics {
    /// `ingest_lines_total` — lines pulled from the source.
    pub lines: Counter,
    /// `ingest_source_idle_polls_total` — polls that found no data.
    pub idle_polls: Counter,
    /// `ingest_source_damaged_lines_total{reason="invalid_utf8"}`.
    pub invalid_utf8_lines: Counter,
    /// `ingest_source_damaged_lines_total{reason="too_long"}`.
    pub too_long_lines: Counter,
    /// `ingest_batches_routed_total{shard}`.
    pub batches_routed: Vec<Counter>,
    /// `ingest_backpressure_stalls_total{shard}` — sends that found the
    /// shard's bounded queue full and had to block.
    pub backpressure_stalls: Vec<Counter>,
    /// `ingest_queue_depth{shard}` — batches currently queued (router
    /// increments, worker decrements).
    pub queue_depth: Vec<Gauge>,
}

/// Metrics owned by one shard worker.
#[derive(Debug)]
pub(crate) struct WorkerMetrics {
    /// `ingest_parsed_lines_total{shard}`.
    pub parsed_lines: Counter,
    /// `ingest_parse_duration_seconds{shard,parser}` — per batch.
    pub parse_seconds: Histogram,
    /// `ingest_shard_groups{shard}` — the parser's current group count.
    pub groups: Gauge,
    /// `ingest_shard_vocabulary{shard}` — distinct tokens the parser's
    /// interner holds; it never shrinks, and the shard's memory follows it.
    pub vocabulary: Gauge,
    /// Shared with the router's `ingest_queue_depth{shard}`.
    pub queue_depth: Gauge,
}

impl WorkerMetrics {
    /// Resolves one shard's worker handles.
    pub fn new(shard: usize, parser: &str) -> Self {
        let registry = global();
        let shard_label = shard.to_string();
        WorkerMetrics {
            parsed_lines: registry.counter(
                "ingest_parsed_lines_total",
                "Lines parsed by each shard worker",
                &[("shard", &shard_label)],
            ),
            parse_seconds: registry.histogram(
                "ingest_parse_duration_seconds",
                "Per-batch parse latency of each shard worker",
                &Buckets::durations(),
                &[("shard", &shard_label), ("parser", parser)],
            ),
            groups: registry.gauge(
                "ingest_shard_groups",
                "Template groups currently held by each shard's parser",
                &[("shard", &shard_label)],
            ),
            vocabulary: registry.gauge(
                "ingest_shard_vocabulary",
                "Distinct tokens interned by each shard's parser since it started",
                &[("shard", &shard_label)],
            ),
            queue_depth: registry.gauge(
                "ingest_queue_depth",
                "Batches queued on each shard's bounded input channel",
                &[("shard", &shard_label)],
            ),
        }
    }
}

/// Number of top-templates-by-arrival-rate series exported per window
/// (`ingest_top_template_lines{rank}` / `ingest_top_template_gid{rank}`).
/// Rank labels keep the family's cardinality fixed no matter how the
/// template population churns.
pub(crate) const TOP_K: usize = 5;

/// The quality & drift telemetry family, computed by the aggregator
/// once per closed window. These are the operational counterparts of
/// the paper's offline finding that parsing quality silently decays:
/// each one is a leading indicator that the parser is fragmenting or
/// the stream changed shape under it.
#[derive(Debug)]
pub(crate) struct DriftMetrics {
    /// `ingest_drift_template_births_total` — global ids first seen.
    pub births: Counter,
    /// `ingest_drift_template_churn` — new-vs-seen template ratio in
    /// the last closed window.
    pub churn: Gauge,
    /// `ingest_drift_singleton_fraction` — fraction of the window's
    /// templates that matched exactly one line.
    pub singleton_fraction: Gauge,
    /// `ingest_drift_param_cardinality_max` — the largest per-template
    /// distinct-parameter estimate any shard reports.
    pub param_cardinality: Gauge,
    /// `ingest_drift_merge_conflicts_total` — union-find merges
    /// (refinement collisions) in the global map.
    pub merge_conflicts: Counter,
    /// `ingest_top_template_lines{rank}` — line count of the rank-th
    /// busiest template in the last closed window.
    pub top_lines: Vec<Gauge>,
    /// `ingest_top_template_gid{rank}` — its global id (-1 = unused).
    pub top_gids: Vec<Gauge>,
}

impl DriftMetrics {
    fn new() -> Self {
        let registry = global();
        DriftMetrics {
            births: registry.counter(
                "ingest_drift_template_births_total",
                "Global template ids first seen in a closed window",
                &[],
            ),
            churn: registry.gauge(
                "ingest_drift_template_churn",
                "New-vs-seen template ratio of the last closed window",
                &[],
            ),
            singleton_fraction: registry.gauge(
                "ingest_drift_singleton_fraction",
                "Fraction of last window's templates matching exactly one line",
                &[],
            ),
            param_cardinality: registry.gauge(
                "ingest_drift_param_cardinality_max",
                "Largest per-template distinct-parameter estimate across shards",
                &[],
            ),
            merge_conflicts: registry.counter(
                "ingest_drift_merge_conflicts_total",
                "Union-find merges from template refinement collisions",
                &[],
            ),
            top_lines: (0..TOP_K)
                .map(|rank| {
                    registry.gauge(
                        "ingest_top_template_lines",
                        "Line count of the rank-th busiest template in the last window",
                        &[("rank", &rank.to_string())],
                    )
                })
                .collect(),
            top_gids: (0..TOP_K)
                .map(|rank| {
                    registry.gauge(
                        "ingest_top_template_gid",
                        "Global id of the rank-th busiest template (-1 when unused)",
                        &[("rank", &rank.to_string())],
                    )
                })
                .collect(),
        }
    }
}

/// Metrics owned by the aggregator thread.
#[derive(Debug)]
pub(crate) struct AggregatorMetrics {
    /// `ingest_template_merges_total` — shard template lists folded into
    /// the global map.
    pub merges: Counter,
    /// `ingest_global_templates` — canonical global template count.
    pub global_templates: Gauge,
    /// `ingest_windows_scored_total`.
    pub windows_scored: Counter,
    /// `ingest_anomalies_total` — windows flagged anomalous.
    pub anomalies: Counter,
    /// `ingest_window_score_duration_seconds` — close-to-scored latency
    /// of one window (row rebuild + PCA + thresholding).
    pub score_seconds: Histogram,
    /// `ingest_score_train_rows` — unflagged history windows the last
    /// scored window's detector was fitted on.
    pub score_train_rows: Gauge,
    /// `ingest_score_cols` — width of the last scoring matrix (the
    /// global id space).
    pub score_cols: Gauge,
    /// `ingest_checkpoints_total` — checkpoints persisted.
    pub checkpoints: Counter,
    /// `ingest_checkpoint_write_duration_seconds`.
    pub checkpoint_seconds: Histogram,
    /// The per-window quality & drift family.
    pub drift: DriftMetrics,
}

impl AggregatorMetrics {
    fn new() -> Self {
        let registry = global();
        AggregatorMetrics {
            merges: registry.counter(
                "ingest_template_merges_total",
                "Shard template snapshots merged into the global id map",
                &[],
            ),
            global_templates: registry.gauge(
                "ingest_global_templates",
                "Canonical templates in the global id map",
                &[],
            ),
            windows_scored: registry.counter(
                "ingest_windows_scored_total",
                "Tumbling windows closed and scored",
                &[],
            ),
            anomalies: registry.counter(
                "ingest_anomalies_total",
                "Windows flagged anomalous by the detector",
                &[],
            ),
            score_seconds: registry.histogram(
                "ingest_window_score_duration_seconds",
                "Latency of scoring one closed window",
                &Buckets::durations(),
                &[],
            ),
            score_train_rows: registry.gauge(
                "ingest_score_train_rows",
                "Unflagged history windows the last window's detector was fitted on",
                &[],
            ),
            score_cols: registry.gauge(
                "ingest_score_cols",
                "Columns (global template ids) of the last scoring matrix",
                &[],
            ),
            checkpoints: registry.counter(
                "ingest_checkpoints_total",
                "Checkpoints written (periodic and final)",
                &[],
            ),
            checkpoint_seconds: registry.histogram(
                "ingest_checkpoint_write_duration_seconds",
                "Latency of persisting one checkpoint",
                &Buckets::durations(),
                &[],
            ),
            drift: DriftMetrics::new(),
        }
    }
}

/// Every stage's handles, resolved together at pipeline startup.
#[derive(Debug)]
pub(crate) struct StageMetrics {
    pub router: RouterMetrics,
    pub workers: Vec<WorkerMetrics>,
    pub aggregator: AggregatorMetrics,
}

impl StageMetrics {
    /// Resolves (and thereby pre-registers) all pipeline families.
    pub fn new(shards: usize, parser: &str) -> Self {
        let registry = global();
        let workers: Vec<WorkerMetrics> =
            (0..shards).map(|s| WorkerMetrics::new(s, parser)).collect();
        // Family names stay string literals at their registration call
        // so the obs-metric-hygiene lint can cross-check them against
        // DESIGN.md's Observability table.
        let damaged_lines = |reason| {
            registry.counter(
                "ingest_source_damaged_lines_total",
                "Lines the source delivered repaired: invalid UTF-8 replaced, or cut at the length cap",
                &[("reason", reason)],
            )
        };
        StageMetrics {
            router: RouterMetrics {
                lines: registry.counter(
                    "ingest_lines_total",
                    "Lines pulled from the source and routed to shards",
                    &[],
                ),
                idle_polls: registry.counter(
                    "ingest_source_idle_polls_total",
                    "Source polls that found no data available",
                    &[],
                ),
                invalid_utf8_lines: damaged_lines("invalid_utf8"),
                too_long_lines: damaged_lines("too_long"),
                batches_routed: (0..shards)
                    .map(|s| {
                        registry.counter(
                            "ingest_batches_routed_total",
                            "Batches handed to each shard's input channel",
                            &[("shard", &s.to_string())],
                        )
                    })
                    .collect(),
                backpressure_stalls: (0..shards)
                    .map(|s| {
                        registry.counter(
                            "ingest_backpressure_stalls_total",
                            "Batch sends that blocked on a full shard queue",
                            &[("shard", &s.to_string())],
                        )
                    })
                    .collect(),
                queue_depth: workers.iter().map(|w| w.queue_depth.clone()).collect(),
            },
            workers,
            aggregator: AggregatorMetrics::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metrics_pre_register_every_family() {
        let _metrics = StageMetrics::new(2, "drain");
        let text = global().render();
        for family in [
            "ingest_lines_total",
            "ingest_source_idle_polls_total",
            "ingest_source_damaged_lines_total",
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
            "ingest_score_train_rows",
            "ingest_score_cols",
            "ingest_checkpoints_total",
            "ingest_checkpoint_write_duration_seconds",
            "ingest_drift_template_births_total",
            "ingest_drift_template_churn",
            "ingest_drift_singleton_fraction",
            "ingest_drift_param_cardinality_max",
            "ingest_drift_merge_conflicts_total",
            "ingest_top_template_lines",
            "ingest_top_template_gid",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} not pre-registered"
            );
        }
    }

    #[test]
    fn router_and_worker_share_the_queue_depth_series() {
        let metrics = StageMetrics::new(1, "drain");
        let before = metrics.workers[0].queue_depth.get();
        metrics.router.queue_depth[0].add(1.0);
        assert_eq!(metrics.workers[0].queue_depth.get(), before + 1.0);
        metrics.workers[0].queue_depth.sub(1.0);
        assert_eq!(metrics.router.queue_depth[0].get(), before);
    }
}
