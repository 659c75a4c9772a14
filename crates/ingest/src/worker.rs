//! Shard workers: each owns one streaming parser and processes batches
//! from its bounded input channel.
//!
//! The input channel is a `sync_channel` with a small depth, so a slow
//! shard applies blocking backpressure all the way to the source instead
//! of letting queues grow without bound. Results flow to the aggregator
//! over a shared unbounded channel — the aggregator never blocks
//! workers.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use logparse_obs::{word_fold, Fnv1a};
use logparse_parsers::{StreamingDrain, StreamingParser, StreamingSpell};

use crate::checkpoint::ParserSnapshot;
use crate::metrics::WorkerMetrics;
use crate::{IngestError, ParserChoice};

/// Messages a shard worker consumes, in channel order.
#[derive(Debug)]
pub(crate) enum ShardInput {
    /// Parse these `(sequence, raw line)` pairs.
    Batch(Vec<(u64, String)>),
    /// Export parser state for checkpoint `generation`.
    Checkpoint { generation: u64, lines_routed: u64 },
    /// Drain and exit; everything already queued is still processed.
    Shutdown,
}

/// Messages a shard worker produces.
#[derive(Debug)]
pub(crate) enum ShardOutput {
    Parsed(ParsedBatch),
    Snapshot {
        shard: usize,
        generation: u64,
        lines_routed: u64,
        state: ParserSnapshot,
    },
    Done {
        shard: usize,
        state: ParserSnapshot,
        templates: Vec<String>,
        observed: usize,
    },
}

/// Raw lines kept as drift evidence per batch: one exemplar per newborn
/// group, capped so a template storm cannot bloat the channel.
const EXEMPLAR_CAP: usize = 16;

/// Per-group distinct-line estimates saturate here. The cap bounds the
/// tracking set at ~64 KiB per parameter-heavy group while sitting well
/// above the default `param-cardinality-blowup` alert threshold, so the
/// alert always has room to fire before the estimate pins.
const PARAM_CARD_CAP: usize = 8_192;

/// Lines a shard parses between full template-list refreshes to the
/// aggregator when no group was born (snapshot merging cadence).
const REFRESH_EVERY: usize = 5_000;

/// One parsed batch: sequence numbers mapped to shard-local group ids.
#[derive(Debug)]
pub(crate) struct ParsedBatch {
    pub shard: usize,
    pub entries: Vec<(u64, usize)>,
    /// The shard's full current template list, included whenever groups
    /// appeared during this batch and refreshed periodically so the
    /// aggregator also sees templates *refine* (gain wildcards). `None`
    /// means "no change since the last list you got".
    pub templates: Option<Vec<String>>,
    /// `(local id, raw line)` for groups born in this batch (capped at
    /// [`EXEMPLAR_CAP`]) — the journal's evidence of *which* lines
    /// caused a drift spike. Empty when drift telemetry is off.
    pub exemplars: Vec<(usize, String)>,
    /// Largest distinct-line estimate across this shard's groups — the
    /// per-template parameter-cardinality proxy (distinct raw lines per
    /// template, saturating at [`PARAM_CARD_CAP`]). 0 when drift
    /// telemetry is off.
    pub param_cardinality_max: usize,
}

/// A shard's streaming parser, behind the configured algorithm.
#[derive(Debug)]
pub(crate) enum ShardParser {
    Drain(StreamingDrain),
    Spell(StreamingSpell),
}

impl ShardParser {
    pub fn new(choice: ParserChoice) -> Self {
        match choice {
            ParserChoice::Drain => ShardParser::Drain(StreamingDrain::default()),
            ParserChoice::Spell => ShardParser::Spell(StreamingSpell::default()),
        }
    }

    pub fn restore(snapshot: &ParserSnapshot) -> Result<Self, IngestError> {
        Ok(match snapshot {
            ParserSnapshot::Drain(s) => ShardParser::Drain(StreamingDrain::restore(s)?),
            ParserSnapshot::Spell(s) => ShardParser::Spell(StreamingSpell::restore(s)?),
        })
    }

    pub fn observe(&mut self, line: &str) -> usize {
        match self {
            ShardParser::Drain(p) => p.observe(line),
            ShardParser::Spell(p) => p.observe(line),
        }
    }

    pub fn group_count(&self) -> usize {
        match self {
            ShardParser::Drain(p) => p.group_count(),
            ShardParser::Spell(p) => p.group_count(),
        }
    }

    pub fn vocabulary(&self) -> usize {
        match self {
            ShardParser::Drain(p) => p.vocabulary(),
            ShardParser::Spell(p) => p.vocabulary(),
        }
    }

    pub fn template_strings(&self) -> Vec<String> {
        match self {
            ShardParser::Drain(p) => p.templates().iter().map(|t| t.to_string()).collect(),
            ShardParser::Spell(p) => p.templates().iter().map(|t| t.to_string()).collect(),
        }
    }

    pub fn snapshot(&self) -> ParserSnapshot {
        match self {
            ShardParser::Drain(p) => ParserSnapshot::Drain(p.snapshot()),
            ShardParser::Spell(p) => ParserSnapshot::Spell(p.snapshot()),
        }
    }
}

/// Pass-through hasher for [`FingerprintSet`]: the keys are already
/// 64-bit line fingerprints from [`word_fold`] (eight bytes a round, not
/// byte-at-a-time FNV: it runs once per line on the parse hot path, and
/// that keeps the drift family's throughput cost inside the ≤5% budget,
/// `obs.drift_overhead_pct` on `serve_file_churn` in
/// `benchmark/run.sh`), so running them through SipHash again would
/// double the per-line hashing cost for no dispersion gain.
#[derive(Debug, Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }

    // Only u64 fingerprints are ever hashed, but stay total: fold any
    // other input through FNV-1a rather than panicking on a contract slip.
    fn write(&mut self, bytes: &[u8]) {
        self.0 = Fnv1a::seeded(self.0).bytes(bytes).finish();
    }
}

/// Distinct-fingerprint set with identity hashing.
type FingerprintSet = HashSet<u64, BuildHasherDefault<FingerprintHasher>>;

/// The worker loop. Exits when it sees `Shutdown` or the input channel
/// disconnects. With `drift` enabled the worker additionally tracks a
/// distinct-line set per group (parameter-cardinality proxy) and captures
/// one exemplar raw line per newborn group for the journal.
pub(crate) fn run_worker(
    shard: usize,
    mut parser: ShardParser,
    drift: bool,
    metrics: WorkerMetrics,
    input: Receiver<ShardInput>,
    output: Sender<ShardOutput>,
) {
    let mut observed = 0usize;
    let mut sent_groups = 0usize;
    let mut lines_since_refresh = 0usize;
    // Per-group distinct-line fingerprints; index = shard-local group id.
    let mut param_seen: Vec<FingerprintSet> = Vec::new();

    while let Ok(message) = input.recv() {
        match message {
            ShardInput::Batch(batch) => {
                metrics.queue_depth.sub(1.0);
                // lint:allow(timing-discipline): measures directly into ingest_parse_duration_seconds below; a ring-recording span per batch would break the rare-events-only trace budget
                let parse_started = Instant::now();
                let mut entries = Vec::with_capacity(batch.len());
                let mut exemplars = Vec::new();
                for (seq, line) in &batch {
                    let before = parser.group_count();
                    let local = parser.observe(line);
                    entries.push((*seq, local));
                    if drift {
                        if parser.group_count() > before && exemplars.len() < EXEMPLAR_CAP {
                            exemplars.push((local, line.clone()));
                        }
                        if param_seen.len() <= local {
                            param_seen.resize_with(local + 1, FingerprintSet::default);
                        }
                        let seen = &mut param_seen[local];
                        if seen.len() < PARAM_CARD_CAP {
                            seen.insert(word_fold(line.as_bytes()));
                        }
                    }
                }
                metrics
                    .parse_seconds
                    .observe_duration(parse_started.elapsed());
                metrics.parsed_lines.inc_by(batch.len() as u64);
                metrics.groups.set(parser.group_count() as f64);
                metrics.vocabulary.set(parser.vocabulary() as f64);
                observed += batch.len();
                lines_since_refresh += batch.len();
                let grew = parser.group_count() > sent_groups;
                let templates = if grew || lines_since_refresh >= REFRESH_EVERY {
                    sent_groups = parser.group_count();
                    lines_since_refresh = 0;
                    Some(parser.template_strings())
                } else {
                    None
                };
                let param_cardinality_max = param_seen.iter().map(HashSet::len).max().unwrap_or(0);
                if output
                    .send(ShardOutput::Parsed(ParsedBatch {
                        shard,
                        entries,
                        templates,
                        exemplars,
                        param_cardinality_max,
                    }))
                    .is_err()
                {
                    return; // aggregator is gone; nothing left to do
                }
            }
            ShardInput::Checkpoint {
                generation,
                lines_routed,
            } => {
                let state = parser.snapshot();
                if output
                    .send(ShardOutput::Snapshot {
                        shard,
                        generation,
                        lines_routed,
                        state,
                    })
                    .is_err()
                {
                    return;
                }
            }
            ShardInput::Shutdown => break,
        }
    }

    let _ = output.send(ShardOutput::Done {
        shard,
        state: parser.snapshot(),
        templates: parser.template_strings(),
        observed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn worker_parses_batches_and_reports_templates() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                1,
                ShardParser::new(ParserChoice::Drain),
                true,
                WorkerMetrics::new(1, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx
            .send(ShardInput::Batch(vec![
                (0, "send pkt 1 ok".into()),
                (1, "send pkt 2 ok".into()),
            ]))
            .unwrap();
        in_tx
            .send(ShardInput::Checkpoint {
                generation: 0,
                lines_routed: 2,
            })
            .unwrap();
        in_tx.send(ShardInput::Shutdown).unwrap();
        handle.join().unwrap();

        match out_rx.recv().unwrap() {
            ShardOutput::Parsed(batch) => {
                assert_eq!(batch.shard, 1);
                assert_eq!(batch.entries, vec![(0, 0), (1, 0)]);
                assert_eq!(batch.templates, Some(vec!["send pkt * ok".to_string()]));
                // One group was born: one exemplar, and the two distinct
                // raw lines feed the cardinality estimate.
                assert_eq!(batch.exemplars, vec![(0, "send pkt 1 ok".to_string())]);
                assert_eq!(batch.param_cardinality_max, 2);
            }
            other => panic!("expected Parsed, got {other:?}"),
        }
        match out_rx.recv().unwrap() {
            ShardOutput::Snapshot {
                shard,
                generation,
                state,
                ..
            } => {
                assert_eq!((shard, generation), (1, 0));
                assert_eq!(state.group_count(), 1);
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
        match out_rx.recv().unwrap() {
            ShardOutput::Done {
                observed,
                templates,
                ..
            } => {
                assert_eq!(observed, 2);
                assert_eq!(templates, vec!["send pkt * ok".to_string()]);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn worker_omits_templates_when_nothing_changed() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                0,
                ShardParser::new(ParserChoice::Drain),
                true,
                WorkerMetrics::new(0, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx
            .send(ShardInput::Batch(vec![(0, "a b c".into())]))
            .unwrap();
        in_tx
            .send(ShardInput::Batch(vec![(1, "a b d".into())]))
            .unwrap(); // same group, refined
        in_tx.send(ShardInput::Shutdown).unwrap();
        handle.join().unwrap();
        let first = match out_rx.recv().unwrap() {
            ShardOutput::Parsed(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(first.templates.is_some());
        let second = match out_rx.recv().unwrap() {
            ShardOutput::Parsed(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(
            second.templates.is_none(),
            "no new group, refresh interval not reached"
        );
    }

    #[test]
    fn drift_tracking_is_skipped_when_disabled() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                0,
                ShardParser::new(ParserChoice::Drain),
                false,
                WorkerMetrics::new(0, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx
            .send(ShardInput::Batch(vec![
                (0, "conn from 10.0.0.1".into()),
                (1, "conn from 10.0.0.2".into()),
            ]))
            .unwrap();
        in_tx.send(ShardInput::Shutdown).unwrap();
        handle.join().unwrap();
        match out_rx.recv().unwrap() {
            ShardOutput::Parsed(batch) => {
                assert!(batch.exemplars.is_empty());
                assert_eq!(batch.param_cardinality_max, 0);
            }
            other => panic!("expected Parsed, got {other:?}"),
        }
    }
}
