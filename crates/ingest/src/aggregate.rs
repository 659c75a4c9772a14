//! The aggregator thread: merges shard template snapshots into a global
//! id space, maintains tumbling event-count windows, and scores each
//! closed window online with the PCA detector from `logparse-mining`.
//!
//! ## Stable global group ids
//!
//! Shards learn templates independently, so the same event shape can get
//! different local ids on different shards (and, with round-robin
//! sharding, the *same* shape on two shards). The aggregator maintains a
//! `(shard, local_id) → global_id` map built from the template lists
//! shards attach to their batches. Identical template strings unify to
//! one global id; when a template later *refines* (gains a wildcard) and
//! collides with another global id's string, the two ids are merged with
//! a union-find — the smaller (older) id stays canonical, so global ids
//! are stable for the life of the pipeline and across checkpoints.
//!
//! The map is a [`logparse_core::TemplateMerge`], shared with the batch
//! parallel-parsing driver. A resumed run starts on the one the store
//! replayed, and compaction snapshots it.
//!
//! ## Windows
//!
//! Windows are keyed by line sequence number (`window = seq /
//! window_size`), not by arrival time, so the window contents are
//! deterministic no matter how shard threads interleave. A window closes
//! when all of its lines have been parsed; closed windows form the row
//! history the detector scores against.

use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use logparse_core::{MergeDelta, TemplateMerge};
use logparse_linalg::Matrix;
use logparse_mining::PcaDetector;
use logparse_obs::{AlertEngine, History, HistorySampler, Journal, Json};
use logparse_store::{write_blob, TemplateStore};

use crate::checkpoint::ParserSnapshot;
use crate::metrics::{AggregatorMetrics, DriftMetrics, TOP_K};
use crate::worker::ShardOutput;
use crate::{IngestError, ParserChoice, WindowScore};

/// The canonical template string behind a global id.
fn template_of(map: &mut TemplateMerge, gid: usize) -> Option<String> {
    let root = map.resolve_root(gid);
    map.raw_templates().get(root).cloned()
}

/// The quality & drift telemetry bundle: the sample [`History`] ring,
/// the registry [`HistorySampler`] feeding it, and the [`AlertEngine`]
/// evaluated over it. Built by the pipeline when drift telemetry is on
/// and owned by the aggregator thread, which ticks all three once per
/// closed window.
pub(crate) struct QualityTelemetry {
    pub history: Arc<History>,
    pub sampler: HistorySampler,
    pub engine: AlertEngine,
}

/// Exemplar raw lines buffered between window closes (all shards).
const EXEMPLAR_BUFFER: usize = 64;

/// Exemplars journaled per window that saw template births.
const EXEMPLARS_PER_WINDOW: usize = 4;

/// Per-window drift statistics, computed from the closing window's
/// per-root counts before they move into the scoring history.
struct WindowDriftStats {
    births: usize,
    churn: f64,
    singleton_fraction: f64,
    param_cardinality_max: usize,
    new_conflicts: u64,
    /// `(root gid, lines)` pairs, busiest first, at most [`TOP_K`].
    top: Vec<(usize, u32)>,
}

/// Aggregator-side drift state: which templates have ever been seen,
/// the exemplar buffer, and the per-shard cardinality highs.
struct DriftTracker {
    quality: Option<QualityTelemetry>,
    /// Canonical roots observed in any closed window (birth detection).
    seen_roots: HashSet<usize>,
    /// `(shard, local id, raw line)` captured since the last close.
    exemplars: Vec<(usize, usize, String)>,
    /// Latest distinct-line maximum each shard reported.
    shard_param_card: Vec<usize>,
    /// Union count already charged to the conflicts counter.
    last_unions: u64,
}

impl DriftTracker {
    fn new(quality: Option<QualityTelemetry>, shards: usize) -> Self {
        DriftTracker {
            quality,
            seen_roots: HashSet::new(),
            exemplars: Vec::new(),
            shard_param_card: vec![0; shards],
            last_unions: 0,
        }
    }

    fn enabled(&self) -> bool {
        self.quality.is_some()
    }

    /// Folds one parsed batch's drift payload into the tracker.
    fn absorb_batch(&mut self, shard: usize, param_cardinality_max: usize) {
        if self.enabled() {
            let high = &mut self.shard_param_card[shard];
            *high = (*high).max(param_cardinality_max);
        }
    }

    fn absorb_exemplars(&mut self, shard: usize, exemplars: Vec<(usize, String)>) {
        if !self.enabled() {
            return;
        }
        for (local, line) in exemplars {
            if self.exemplars.len() >= EXEMPLAR_BUFFER {
                break;
            }
            self.exemplars.push((shard, local, line));
        }
    }

    /// Computes the closing window's drift statistics and marks its
    /// templates seen. `None` when drift telemetry is off.
    fn window_stats(
        &mut self,
        counts: &[(usize, u32)],
        map: &mut TemplateMerge,
    ) -> Option<WindowDriftStats> {
        self.quality.as_ref()?;
        // Id merges can alias several gids to one root; drift speaks in
        // canonical templates, so aggregate by root first.
        let mut root_counts: HashMap<usize, u32> = HashMap::new();
        for &(gid, n) in counts {
            *root_counts.entry(map.resolve_root(gid)).or_insert(0) += n;
        }
        let total = root_counts.len();
        let births = root_counts
            .keys()
            .filter(|root| !self.seen_roots.contains(root))
            .count();
        self.seen_roots.extend(root_counts.keys().copied());
        let singletons = root_counts.values().filter(|&&n| n == 1).count();
        let (churn, singleton_fraction) = if total > 0 {
            (
                births as f64 / total as f64,
                singletons as f64 / total as f64,
            )
        } else {
            (0.0, 0.0)
        };
        let unions = map.union_count();
        let new_conflicts = unions.saturating_sub(self.last_unions);
        self.last_unions = unions;
        let mut top: Vec<(usize, u32)> = root_counts.into_iter().collect();
        top.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(TOP_K);
        Some(WindowDriftStats {
            births,
            churn,
            singleton_fraction,
            param_cardinality_max: self.shard_param_card.iter().copied().max().unwrap_or(0),
            new_conflicts,
            top,
        })
    }

    /// Publishes one window's drift stats: gauges, history samples, the
    /// journal's drift events, and an alert-engine step whose fire and
    /// resolve edges become `alert_firing`/`alert_resolved` events.
    fn publish(
        &mut self,
        window_id: u64,
        stats: &WindowDriftStats,
        map: &mut TemplateMerge,
        drift_metrics: &DriftMetrics,
        events: &Journal,
    ) {
        let Some(quality) = self.quality.as_mut() else {
            return;
        };
        drift_metrics.births.inc_by(stats.births as u64);
        drift_metrics.churn.set(stats.churn);
        drift_metrics
            .singleton_fraction
            .set(stats.singleton_fraction);
        drift_metrics
            .param_cardinality
            .set(stats.param_cardinality_max as f64);
        drift_metrics.merge_conflicts.inc_by(stats.new_conflicts);
        for rank in 0..TOP_K {
            match stats.top.get(rank) {
                Some(&(gid, n)) => {
                    drift_metrics.top_lines[rank].set(n as f64);
                    drift_metrics.top_gids[rank].set(gid as f64);
                }
                None => {
                    drift_metrics.top_lines[rank].set(0.0);
                    drift_metrics.top_gids[rank].set(-1.0);
                }
            }
        }

        let history = &quality.history;
        history.record_sample("template_births", stats.births as f64);
        history.record_sample("template_churn", stats.churn);
        history.record_sample("singleton_fraction", stats.singleton_fraction);
        history.record_sample("param_cardinality_max", stats.param_cardinality_max as f64);
        // Cumulative, so `delta(merge_conflicts)` rules see per-window
        // conflict arrivals.
        history.record_sample(
            "merge_conflicts",
            drift_metrics.merge_conflicts.get() as f64,
        );
        quality.sampler.tick();

        events.emit(
            "drift_window",
            &[
                ("window", Json::num(window_id as f64)),
                ("births", Json::usize(stats.births)),
                ("churn", Json::num(stats.churn)),
                ("singleton_fraction", Json::num(stats.singleton_fraction)),
                (
                    "param_cardinality_max",
                    Json::usize(stats.param_cardinality_max),
                ),
                ("merge_conflicts", Json::num(stats.new_conflicts as f64)),
            ],
        );
        let top_json = Json::Arr(
            stats
                .top
                .iter()
                .map(|&(gid, n)| {
                    Json::Obj(vec![
                        ("gid".into(), Json::usize(gid)),
                        ("lines".into(), Json::num(n as f64)),
                        (
                            "template".into(),
                            template_of(map, gid).map_or(Json::Null, Json::str),
                        ),
                    ])
                })
                .collect(),
        );
        events.emit(
            "window_top",
            &[("window", Json::num(window_id as f64)), ("top", top_json)],
        );
        let exemplars = std::mem::take(&mut self.exemplars);
        if stats.births > 0 {
            for (shard, local, line) in exemplars.into_iter().take(EXEMPLARS_PER_WINDOW) {
                let gid = map.resolve(shard, local);
                events.emit(
                    "drift_exemplar",
                    &[
                        ("window", Json::num(window_id as f64)),
                        ("shard", Json::usize(shard)),
                        ("gid", gid.map_or(Json::Null, Json::usize)),
                        ("line", Json::str(line)),
                    ],
                );
            }
        }

        for transition in quality.engine.step(&quality.history) {
            events.emit(
                if transition.firing {
                    "alert_firing"
                } else {
                    "alert_resolved"
                },
                &[
                    ("rule", Json::str(transition.rule)),
                    ("series", Json::str(transition.series)),
                    // Non-finite (a series with no sample yet) prints `null`.
                    ("value", Json::num(transition.value)),
                    ("threshold", Json::num(transition.threshold)),
                    ("window", Json::num(window_id as f64)),
                ],
            );
        }
    }
}

/// Everything the aggregator needs besides the result channel.
pub(crate) struct AggregatorConfig {
    pub shards: usize,
    pub parser: ParserChoice,
    pub window_size: usize,
    pub history: usize,
    pub warmup: usize,
    pub detector: PcaDetector,
    /// The opened durable template store, when the run checkpoints.
    /// Owned by the aggregator thread: it appends merge deltas, writes
    /// checkpoint blobs, triggers compaction and closes it at shutdown.
    pub store: Option<TemplateStore>,
    pub events: Arc<Journal>,
    pub metrics: AggregatorMetrics,
    /// Drift history + alert engine; `None` when `--no-drift`.
    pub quality: Option<QualityTelemetry>,
    /// The map to start merging on: what the store replayed (a resumed
    /// run) or an empty one.
    pub map: TemplateMerge,
    /// Sequence number the router starts at (the resumed checkpoint's
    /// `lines`, or 0 for fresh runs) — keeps window numbering and final
    /// checkpoint line counts continuous across restarts.
    pub seq_base: u64,
}

/// What the aggregator learned, merged into the run summary.
#[derive(Debug)]
pub(crate) struct AggregatorOutcome {
    pub templates: Vec<(usize, String)>,
    pub windows: Vec<WindowScore>,
    pub anomalies: Vec<u64>,
    pub checkpoints_written: u64,
    pub final_snapshots: Vec<ParserSnapshot>,
    pub shard_observed: Vec<usize>,
    pub batches: u64,
}

#[derive(Debug, Default)]
struct WindowAcc {
    counts: HashMap<usize, u32>,
    seen: usize,
}

/// A closed window: id, sorted `(global id, count)` pairs, and whether
/// it was flagged anomalous. Flagged windows stay in the history deque
/// for bookkeeping but are excluded from future training rows, so one
/// burst cannot teach the detector that bursts are normal.
type ClosedWindow = (u64, Vec<(usize, u32)>, bool);

/// A window is anomalous only if its residual clears the Q-statistic
/// *and* both of these multiples of the training residuals. In-fit
/// residuals run lower than held-out ones, hence the generous margins;
/// genuine bursts clear them by another order of magnitude.
const MEDIAN_MARGIN: f64 = 100.0;
const PEAK_MARGIN: f64 = 10.0;

/// Training residuals below this are numerical dust: when the history
/// windows are (near-)identical the PCA reconstructs them exactly and
/// the in-fit SPEs come out around 1e-31 — squared f64 rounding error,
/// not evidence of real window-to-window variance. Scaling dust by the
/// margins above still yields a threshold any genuine sampling noise
/// "exceeds", so until the history's own peak residual clears this
/// floor there is no scale to judge a candidate against and nothing is
/// flagged.
const RESIDUAL_FLOOR: f64 = 1e-9;

/// The aggregator loop: runs on its own thread until every shard has
/// reported `Done`, then flushes partial windows and writes the final
/// checkpoint.
pub(crate) fn run_aggregator(
    config: AggregatorConfig,
    results: Receiver<ShardOutput>,
) -> Result<AggregatorOutcome, IngestError> {
    let AggregatorConfig {
        shards,
        parser,
        window_size,
        history,
        warmup,
        detector,
        mut store,
        events,
        metrics,
        quality,
        mut map,
        seq_base,
    } = config;

    let mut deltas: Vec<MergeDelta> = Vec::new();
    let mut open: HashMap<u64, WindowAcc> = HashMap::new();
    let mut closed: VecDeque<ClosedWindow> = VecDeque::new();
    let mut windows: Vec<WindowScore> = Vec::new();
    let mut anomalies: Vec<u64> = Vec::new();
    let mut pending_checkpoints: HashMap<u64, (u64, Vec<Option<ParserSnapshot>>)> = HashMap::new();
    let mut checkpoints_written = 0u64;
    let mut final_snapshots: Vec<Option<ParserSnapshot>> = (0..shards).map(|_| None).collect();
    let mut shard_observed = vec![0usize; shards];
    let mut batches = 0u64;
    let mut done = 0usize;
    let mut drift = DriftTracker::new(quality, shards);

    let mut score_window = |window_id: u64,
                            acc: WindowAcc,
                            map: &mut TemplateMerge,
                            closed: &mut VecDeque<ClosedWindow>,
                            drift: &mut DriftTracker| {
        // The span records close-to-scored latency (row rebuild + PCA +
        // thresholding) into `ingest_window_score_duration_seconds` and
        // the trace ring when it drops at the end of this closure.
        let _span =
            logparse_obs::global().span_into(metrics.score_seconds.clone(), "window_score", &[]);
        let mut counts: Vec<(usize, u32)> = acc.counts.into_iter().collect();
        counts.sort_unstable();
        // Drift stats come from the raw counts, before they move into
        // the scoring history below.
        let drift_stats = drift.window_stats(&counts, map);
        // Rows are rebuilt per window because id merges can re-root a
        // gid between closings. The candidate goes in *last* and is held
        // out of the PCA fit: fitting on a matrix that contains the very
        // window under test lets an extreme burst drag the principal
        // components toward itself and score near zero (self-masking).
        let cols = map.id_space().max(1);
        let to_row = |counts: &[(usize, u32)], map: &mut TemplateMerge| {
            let mut row = vec![0.0; cols];
            for &(gid, n) in counts {
                row[map.resolve_root(gid)] += n as f64;
            }
            row
        };
        let mut rows: Vec<Vec<f64>> = closed
            .iter()
            .filter(|(_, _, flagged)| !flagged)
            .map(|(_, counts, _)| to_row(counts, map))
            .collect();
        metrics.score_train_rows.set(rows.len() as f64);
        metrics.score_cols.set(cols as f64);
        let score = if rows.len() >= warmup {
            rows.push(to_row(&counts, map));
            let newest = rows.len() - 1;
            let report = detector.detect_with_holdout(&Matrix::from_rows(&rows), 1);
            let spe = report.spe[newest];
            // The Q-statistic assumes Gaussian residuals, but sparse
            // per-window event counts are heavier-tailed: with a short
            // history its threshold sits *inside* ordinary sampling
            // noise and everything gets flagged. A real burst window
            // scores orders of magnitude beyond history (the injected
            // e2e anomaly lands ~800× above the worst normal window),
            // so additionally require — control-chart style — that the
            // candidate's residual dwarf the history's own residuals.
            let mut train: Vec<f64> = report.spe[..newest].to_vec();
            train.sort_by(f64::total_cmp);
            let median = train[train.len() / 2];
            let peak = train[train.len() - 1];
            let threshold = report
                .threshold
                .max(MEDIAN_MARGIN * median)
                .max(PEAK_MARGIN * peak);
            let anomalous = peak > RESIDUAL_FLOOR && spe > threshold;
            WindowScore {
                window: window_id,
                lines: acc.seen,
                spe: Some(spe),
                threshold: Some(threshold),
                anomalous,
            }
        } else {
            WindowScore {
                window: window_id,
                lines: acc.seen,
                spe: None,
                threshold: None,
                anomalous: false,
            }
        };
        closed.push_back((window_id, counts, score.anomalous));
        while closed.len() > history {
            closed.pop_front();
        }
        metrics.windows_scored.inc();
        if score.anomalous {
            metrics.anomalies.inc();
        }
        events.emit(
            "window_scored",
            &[
                ("window", Json::num(score.window as f64)),
                ("lines", Json::usize(score.lines)),
                ("spe", score.spe.map_or(Json::Null, Json::num)),
                ("threshold", score.threshold.map_or(Json::Null, Json::num)),
                ("anomalous", Json::Bool(score.anomalous)),
            ],
        );
        if score.anomalous {
            events.emit(
                "anomaly_flagged",
                &[
                    ("window", Json::num(score.window as f64)),
                    ("spe", score.spe.map_or(Json::Null, Json::num)),
                    ("threshold", score.threshold.map_or(Json::Null, Json::num)),
                ],
            );
            anomalies.push(score.window);
        }
        if let Some(stats) = drift_stats {
            drift.publish(window_id, &stats, map, &metrics.drift, &events);
        }
        windows.push(score);
    };

    while done < shards {
        let message = results.recv().map_err(|_| {
            IngestError::Config("all shard workers disconnected unexpectedly".into())
        })?;
        match message {
            ShardOutput::Parsed(batch) => {
                batches += 1;
                if let Some(templates) = &batch.templates {
                    merge_durably(&mut map, batch.shard, templates, &mut store, &mut deltas)?;
                    metrics.merges.inc();
                }
                drift.absorb_batch(batch.shard, batch.param_cardinality_max);
                drift.absorb_exemplars(batch.shard, batch.exemplars);
                shard_observed[batch.shard] += batch.entries.len();
                let canonical = map.canonical_count();
                metrics.global_templates.set(canonical as f64);
                events.emit(
                    "batch_parsed",
                    &[
                        ("shard", Json::usize(batch.shard)),
                        ("lines", Json::usize(batch.entries.len())),
                        ("groups", Json::usize(canonical)),
                    ],
                );
                for (seq, local) in batch.entries {
                    let Some(gid) = map.resolve(batch.shard, local) else {
                        // Cannot happen with well-behaved workers (they
                        // always announce new groups with the batch),
                        // but an unknown id must not sink the pipeline.
                        continue;
                    };
                    let window_id = seq / window_size as u64;
                    let acc = open.entry(window_id).or_default();
                    *acc.counts.entry(gid).or_insert(0) += 1;
                    acc.seen += 1;
                    if acc.seen == window_size {
                        if let Some(acc) = open.remove(&window_id) {
                            score_window(window_id, acc, &mut map, &mut closed, &mut drift);
                        }
                    }
                }
            }
            ShardOutput::Snapshot {
                shard,
                generation,
                lines_routed,
                state,
            } => {
                let entry = pending_checkpoints
                    .entry(generation)
                    .or_insert_with(|| (lines_routed, (0..shards).map(|_| None).collect()));
                entry.1[shard] = Some(state);
                if entry.1.iter().all(Option::is_some) {
                    let Some((lines, slots)) = pending_checkpoints.remove(&generation) else {
                        continue;
                    };
                    // All slots were just verified Some; flatten drops
                    // nothing.
                    let snapshots: Vec<ParserSnapshot> = slots.into_iter().flatten().collect();
                    if let Some(store) = store.as_mut() {
                        write_checkpoint(
                            store, parser, generation, lines, &snapshots, &map, &events, &metrics,
                        )?;
                        checkpoints_written += 1;
                    }
                }
            }
            ShardOutput::Done {
                shard,
                state,
                templates,
                observed,
            } => {
                merge_durably(&mut map, shard, &templates, &mut store, &mut deltas)?;
                metrics.merges.inc();
                metrics.global_templates.set(map.canonical_count() as f64);
                final_snapshots[shard] = Some(state);
                shard_observed[shard] = observed;
                done += 1;
            }
        }
    }

    // Flush partial windows (stream ended mid-window), oldest first.
    let mut partial: Vec<u64> = open.keys().copied().collect();
    partial.sort_unstable();
    for window_id in partial {
        if let Some(acc) = open.remove(&window_id) {
            score_window(window_id, acc, &mut map, &mut closed, &mut drift);
        }
    }

    // The loop above exits only after every shard reported Done, so
    // every slot is Some and flatten preserves the shard count.
    let final_snapshots: Vec<ParserSnapshot> = final_snapshots.into_iter().flatten().collect();

    // Final checkpoint at shutdown, generation after any periodic ones.
    if let Some(store) = store.as_mut() {
        let lines = seq_base + shard_observed.iter().map(|&n| n as u64).sum::<u64>();
        write_checkpoint(
            store,
            parser,
            checkpoints_written,
            lines,
            &final_snapshots,
            &map,
            &events,
            &metrics,
        )?;
        checkpoints_written += 1;
    }
    // The consuming close: fsyncs every delta log, upgrading the run's
    // tail from SIGKILL-durable to power-loss-durable.
    if let Some(store) = store {
        store.finish()?;
    }

    Ok(AggregatorOutcome {
        templates: map.canonical_templates(),
        windows,
        anomalies,
        checkpoints_written,
        final_snapshots,
        shard_observed,
        batches,
    })
}

/// Folds a shard's templates into the map and, when a store is
/// attached, logs the exact mutation set durably: appended to the
/// store's delta logs and flushed, so the merge survives SIGKILL the
/// moment this returns. (Power-loss durability is upgraded at every
/// checkpoint's `sync` and at the final `finish`.)
fn merge_durably(
    map: &mut TemplateMerge,
    shard: usize,
    templates: &[String],
    store: &mut Option<TemplateStore>,
    deltas: &mut Vec<MergeDelta>,
) -> Result<(), IngestError> {
    match store.as_mut() {
        Some(store) => {
            deltas.clear();
            map.merge_shard_with(shard, templates, |delta| deltas.push(delta));
            store.append(deltas)?;
            store.flush()?;
        }
        None => map.merge_shard(shard, templates),
    }
    Ok(())
}

/// Persists one checkpoint into the store: parser snapshots and run
/// metadata as blobs, then an fsync of every delta log so everything
/// the checkpoint describes is power-loss-durable. When a shard log
/// has outgrown [`logparse_store::COMPACT_LOG_BYTES`], the store then
/// folds the current map into fresh snapshots before this returns.
#[allow(clippy::too_many_arguments)] // internal helper mirroring checkpoint state
fn write_checkpoint(
    store: &mut TemplateStore,
    parser: ParserChoice,
    generation: u64,
    lines: u64,
    shards: &[ParserSnapshot],
    map: &TemplateMerge,
    events: &Journal,
    metrics: &AggregatorMetrics,
) -> Result<(), IngestError> {
    {
        let _span = logparse_obs::global().span_into(
            metrics.checkpoint_seconds.clone(),
            "checkpoint_write",
            &[],
        );
        for (shard, snapshot) in shards.iter().enumerate() {
            write_blob(
                store.dir(),
                &format!("parser-{shard}"),
                snapshot.to_json().to_string().as_bytes(),
            )?;
        }
        let meta = Json::Obj(vec![
            ("version".into(), Json::usize(1)),
            ("parser".into(), Json::str(parser.name())),
            ("generation".into(), Json::num(generation as f64)),
            ("lines".into(), Json::num(lines as f64)),
            ("shards".into(), Json::usize(shards.len())),
        ]);
        write_blob(store.dir(), "meta", meta.to_string().as_bytes())?;
        store.sync()?;
    }
    metrics.checkpoints.inc();
    events.emit(
        "snapshot_written",
        &[
            ("path", Json::str(store.dir().display().to_string())),
            ("generation", Json::num(generation as f64)),
            ("lines", Json::num(lines as f64)),
            ("templates", Json::usize(map.id_space())),
        ],
    );
    if store.should_compact() {
        store.compact(map)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::metrics::StageMetrics;
    use crate::pipeline::open_store;
    use logparse_parsers::StreamingDrain;
    use logparse_store::COMPACT_LOG_BYTES;

    /// `store_compaction_runs_total` in the process registry.
    fn compaction_runs() -> u64 {
        logparse_obs::global()
            .counter("store_compaction_runs_total", "", &[])
            .get()
    }

    /// Sorted `((shard, local), gid)` bindings.
    fn bindings(map: &TemplateMerge) -> Vec<((usize, usize), usize)> {
        let mut bindings: Vec<_> = map.assignments().collect();
        bindings.sort_unstable();
        bindings
    }

    #[test]
    fn a_checkpoint_past_the_log_threshold_compacts_and_resumes_identically() {
        let dir = std::env::temp_dir().join(format!("ingest-agg-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, mut map) = open_store(&dir, None).unwrap();
        let mut store = Some(store);
        // Worker shard 0 announces templates 32 at a time until one store
        // shard's log has passed the threshold.
        let padding = "x".repeat((COMPACT_LOG_BYTES / 64) as usize);
        let (mut keys, mut deltas) = (Vec::new(), Vec::new());
        while !store.as_ref().is_some_and(TemplateStore::should_compact) {
            let next = keys.len();
            keys.extend((next..next + 32).map(|i| format!("event {i} {padding}")));
            merge_durably(&mut map, 0, &keys, &mut store, &mut deltas).unwrap();
        }
        let mut store = store.unwrap();

        // A parser snapshot that knows every local id, so a resume keeps
        // every binding.
        let mut drain = StreamingDrain::default().snapshot();
        drain.groups = vec![Vec::new(); keys.len()];
        let snapshots = vec![ParserSnapshot::Drain(drain)];
        let metrics = StageMetrics::new(1, "drain").aggregator;
        let (generation, runs) = (store.generation(), compaction_runs());
        write_checkpoint(
            &mut store,
            ParserChoice::Drain,
            0,
            keys.len() as u64,
            &snapshots,
            &map,
            &Journal::disabled(),
            &metrics,
        )
        .unwrap();
        assert_eq!(store.generation(), generation + 1);
        assert_eq!(compaction_runs(), runs + 1);
        assert!(!store.should_compact(), "the logs restarted empty");
        store.finish().unwrap();

        let checkpoint = Checkpoint::recover(&dir, ParserChoice::Drain, 1)
            .unwrap()
            .expect("the store holds a checkpoint");
        assert_eq!(checkpoint.shards, snapshots);
        let (store, resumed) = open_store(&dir, Some(&checkpoint)).unwrap();
        store.finish().unwrap();
        assert_eq!(resumed.canonical_templates(), map.canonical_templates());
        assert_eq!(bindings(&resumed), bindings(&map));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
