//! Metric handles for the template store.
//!
//! Resolved once per open store against the process-global
//! [`logparse_obs`] registry, so `logmine serve --metrics-addr`
//! scrapes show store activity alongside the pipeline stages. Family
//! names stay string literals at their registration call so the
//! obs-metric-hygiene lint can cross-check them against DESIGN.md's
//! Observability table.

use logparse_obs::{global, Buckets, Counter, Gauge, Histogram};

/// Store-wide metric handles.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    /// `store_snapshot_seconds` — latency of writing one full
    /// snapshot generation (all shards).
    pub snapshot_seconds: Histogram,
    /// `store_replay_records_total` — records replayed during
    /// recovery (snapshot slots, assigns and log deltas).
    pub replay_records: Counter,
    /// `store_compaction_runs_total` — completed compactions.
    pub compaction_runs: Counter,
    /// `store_quarantined_shards_total` — shards moved aside because
    /// recovery could not reconstruct a consistent state.
    pub quarantined_shards: Counter,
    /// `store_shard_disk_bytes{shard,kind="snapshot"}` — on-disk size
    /// of each shard's snapshot files; refreshed at open and after
    /// every compaction.
    pub disk_snapshot: Vec<Gauge>,
    /// `store_shard_disk_bytes{shard,kind="log"}` — size of each
    /// shard's live delta log; refreshed on flush and rotation.
    pub disk_log: Vec<Gauge>,
}

impl StoreMetrics {
    /// Resolves (and thereby pre-registers) every store family for a
    /// store with `shards` shards.
    pub fn new(shards: usize) -> Self {
        let registry = global();
        let disk = |kind: &str, help: &str| -> Vec<Gauge> {
            (0..shards)
                .map(|shard| {
                    registry.gauge(
                        "store_shard_disk_bytes",
                        help,
                        &[("shard", &shard.to_string()), ("kind", kind)],
                    )
                })
                .collect()
        };
        StoreMetrics {
            snapshot_seconds: registry.histogram(
                "store_snapshot_seconds",
                "Latency of writing one snapshot generation across all store shards",
                &Buckets::durations(),
                &[],
            ),
            replay_records: registry.counter(
                "store_replay_records_total",
                "Records replayed while recovering store state at open",
                &[],
            ),
            compaction_runs: registry.counter(
                "store_compaction_runs_total",
                "Delta-log compactions folded into fresh snapshots",
                &[],
            ),
            quarantined_shards: registry.counter(
                "store_quarantined_shards_total",
                "Store shards quarantined because recovery found them inconsistent",
                &[],
            ),
            disk_snapshot: disk(
                "snapshot",
                "On-disk bytes per store shard by file kind (snapshot|log)",
            ),
            disk_log: disk(
                "log",
                "On-disk bytes per store shard by file kind (snapshot|log)",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_metrics_pre_register_every_family() {
        let metrics = StoreMetrics::new(2);
        let text = global().render();
        for family in [
            "store_snapshot_seconds",
            "store_replay_records_total",
            "store_compaction_runs_total",
            "store_quarantined_shards_total",
            "store_shard_disk_bytes",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} not pre-registered"
            );
        }
        assert_eq!(metrics.disk_snapshot.len(), 2);
        assert_eq!(metrics.disk_log.len(), 2);
        metrics.disk_log[1].set(128.0);
        let text = global().render();
        assert!(
            text.contains("store_shard_disk_bytes{kind=\"log\",shard=\"1\"} 128")
                || text.contains("store_shard_disk_bytes{shard=\"1\",kind=\"log\"} 128"),
            "{text}"
        );
    }
}
