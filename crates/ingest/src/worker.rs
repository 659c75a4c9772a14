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

use logparse_core::TokenSpan;
use logparse_obs::{word_fold, Fnv1a, Json};
use logparse_parsers::StreamingParser;

use crate::metrics::WorkerMetrics;

/// Lines bound for one shard: their text back to back in one `String`,
/// their token spans back to back in one `Vec`, and per line its
/// sequence number, where its text ends and where its spans end (`None`
/// for a line the framer gave none). A batch is three allocations,
/// whatever its size.
#[derive(Debug, Default)]
pub(crate) struct LineBatch {
    text: String,
    spans: Vec<TokenSpan>,
    lines: Vec<(u64, usize, Option<usize>)>,
}

impl LineBatch {
    /// An empty batch with room for `lines` lines of `bytes` and `spans`
    /// token spans in all.
    pub fn with_capacity(lines: usize, bytes: usize, spans: usize) -> LineBatch {
        LineBatch {
            text: String::with_capacity(bytes),
            spans: Vec::with_capacity(spans),
            lines: Vec::with_capacity(lines),
        }
    }

    /// Appends line `seq` with the token spans its scan found, if any.
    pub fn push(&mut self, seq: u64, line: &str, spans: Option<&[TokenSpan]>) {
        self.text.push_str(line);
        let spans_end = spans.map(|spans| {
            self.spans.extend_from_slice(spans);
            self.spans.len()
        });
        self.lines.push((seq, self.text.len(), spans_end));
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Bytes of text held.
    pub fn bytes(&self) -> usize {
        self.text.len()
    }

    /// Token spans held.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// `(sequence, line, spans)` triples, in the order pushed.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str, Option<&[TokenSpan]>)> {
        let (mut start, mut spans_start) = (0, 0);
        self.lines.iter().map(move |&(seq, end, spans_end)| {
            let line = self.text.get(start..end).unwrap_or_default();
            start = end;
            let spans = spans_end.map(|spans_end| {
                let spans = self.spans.get(spans_start..spans_end).unwrap_or_default();
                spans_start = spans_end;
                spans
            });
            (seq, line, spans)
        })
    }
}

/// Messages a shard worker consumes, in channel order.
#[derive(Debug)]
pub(crate) enum ShardInput {
    /// Parse these lines.
    Batch(LineBatch),
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
        state: Json,
    },
    Done {
        shard: usize,
        state: Json,
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

/// The parser's current templates, rendered, in group-id order.
fn template_strings(parser: &dyn StreamingParser) -> Vec<String> {
    parser.templates().iter().map(|t| t.to_string()).collect()
}

/// Pass-through hasher for [`FingerprintSet`]: the keys are already
/// 64-bit line fingerprints from [`word_fold`] (eight bytes a round, not
/// byte-at-a-time FNV: it runs once per line on the parse hot path), so
/// running them through SipHash again would double the per-line hashing
/// cost for no dispersion gain.
///
/// The drift family is still not inside its 5 % budget:
/// `obs.drift_overhead_pct` on `serve_file_churn` in `benchmark/run.sh`
/// reads 5–16 %, and the sets (up to [`PARAM_CARD_CAP`] × 8 B per group)
/// cost ~0.8–1.1 MiB of the peak on that workload's first half (7.3 MiB
/// with drift, 6.2–6.5 with `--no-drift`).
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
    mut parser: Box<dyn StreamingParser + Send>,
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
    // The largest of those sets: they only grow, so a running maximum is
    // the maximum over every group without a scan per batch.
    let mut param_cardinality_max = 0usize;

    while let Ok(message) = input.recv() {
        match message {
            ShardInput::Batch(batch) => {
                metrics.queue_depth.sub(1.0);
                // lint:allow(timing-discipline): measures directly into ingest_parse_duration_seconds below; a ring-recording span per batch would break the rare-events-only trace budget
                let parse_started = Instant::now();
                let mut entries = Vec::with_capacity(batch.len());
                let mut exemplars = Vec::new();
                for (seq, line, spans) in batch.iter() {
                    let before = parser.group_count();
                    let local = parser.observe_spans(line, spans);
                    entries.push((seq, local));
                    if drift {
                        if parser.group_count() > before && exemplars.len() < EXEMPLAR_CAP {
                            exemplars.push((local, line.to_owned()));
                        }
                        if param_seen.len() <= local {
                            param_seen.resize_with(local + 1, FingerprintSet::default);
                        }
                        let seen = &mut param_seen[local];
                        if seen.len() < PARAM_CARD_CAP && seen.insert(word_fold(line.as_bytes())) {
                            param_cardinality_max = param_cardinality_max.max(seen.len());
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
                    Some(template_strings(parser.as_ref()))
                } else {
                    None
                };
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
        templates: template_strings(parser.as_ref()),
        observed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParserChoice;
    use std::sync::mpsc;

    /// A batch of `lines`, numbered from `first`, with the spans a
    /// framer would give them.
    fn batch(first: u64, lines: &[&str]) -> ShardInput {
        let mut batch = LineBatch::default();
        let mut spans = Vec::new();
        for (seq, line) in (first..).zip(lines) {
            batch.push(seq, line, logparse_core::line_spans(line, &mut spans));
        }
        ShardInput::Batch(batch)
    }

    #[test]
    fn batch_hands_back_what_was_pushed() {
        let mut batch = LineBatch::default();
        let pushed: [(u64, &str, Option<&[TokenSpan]>); 4] = [
            (7, "a b", Some(&[(0, 1), (2, 3)])),
            (9, "", Some(&[])),
            (12, "é \u{b}x", None),
            (13, "cd", Some(&[(0, 2)])),
        ];
        for (seq, line, spans) in pushed {
            batch.push(seq, line, spans);
        }
        let lines: Vec<_> = batch.iter().collect();
        assert_eq!(lines, pushed);
        assert_eq!((batch.len(), batch.bytes(), batch.span_count()), (4, 10, 3));
    }

    #[test]
    fn worker_parses_batches_and_reports_templates() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                1,
                ParserChoice::Drain.build(),
                true,
                WorkerMetrics::new(1, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx
            .send(batch(0, &["send pkt 1 ok", "send pkt 2 ok"]))
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
                let restored = ParserChoice::Drain.restore(&state).unwrap();
                assert_eq!(restored.group_count(), 1);
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

    /// The running maximum the worker reports is the maximum over every
    /// group's distinct-line set, recounted here after every batch of a
    /// churn stream: groups born all the way through, some lines
    /// repeated, and one group past [`PARAM_CARD_CAP`].
    #[test]
    fn the_running_cardinality_maximum_is_the_full_scan_after_every_batch() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                0,
                ParserChoice::Drain.build(),
                true,
                WorkerMetrics::new(0, "drain"),
                in_rx,
                out_tx,
            );
        });
        // Letters only: a digit would make Drain route every shape alike.
        let name = |round: usize| {
            format!(
                "{}{}",
                (b'a' + (round / 26) as u8) as char,
                (b'a' + (round % 26) as u8) as char
            )
        };
        let mut sent: Vec<Vec<String>> = Vec::new();
        let mut seq = 0;
        for round in 0..72usize {
            let lines: Vec<String> = (0..256usize)
                .map(|i| match i % 4 {
                    // One shape whose parameter never repeats: it
                    // reaches the cap in the 65th batch.
                    0 | 2 => format!("flood token {}", round * 128 + i / 2),
                    // A new shape every batch, its lines repeated.
                    1 => format!("shape{} seen {} times", name(round), i % 3),
                    // A shape with few distinct lines.
                    _ => format!("tick {} of {}", i % 5, i % 2),
                })
                .collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            in_tx.send(batch(seq, &refs)).unwrap();
            seq += refs.len() as u64;
            sent.push(lines);
        }
        in_tx.send(ShardInput::Shutdown).unwrap();
        handle.join().unwrap();

        let mut sets: Vec<HashSet<u64>> = Vec::new();
        let mut reported = Vec::new();
        let mut scanned = Vec::new();
        for lines in &sent {
            let ShardOutput::Parsed(parsed) = out_rx.recv().unwrap() else {
                panic!("expected Parsed");
            };
            for (line, &(_, local)) in lines.iter().zip(&parsed.entries) {
                if sets.len() <= local {
                    sets.resize_with(local + 1, HashSet::new);
                }
                if sets[local].len() < PARAM_CARD_CAP {
                    sets[local].insert(word_fold(line.as_bytes()));
                }
            }
            reported.push(parsed.param_cardinality_max);
            scanned.push(sets.iter().map(HashSet::len).max().unwrap_or(0));
        }
        assert_eq!(reported, scanned);
        assert_eq!(scanned.last(), Some(&PARAM_CARD_CAP));
        assert!(sets.len() > 72, "{} groups", sets.len());
    }

    #[test]
    fn worker_omits_templates_when_nothing_changed() {
        let (in_tx, in_rx) = mpsc::sync_channel(4);
        let (out_tx, out_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_worker(
                0,
                ParserChoice::Drain.build(),
                true,
                WorkerMetrics::new(0, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx.send(batch(0, &["a b c"])).unwrap();
        in_tx.send(batch(1, &["a b d"])).unwrap(); // same group, refined
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
                ParserChoice::Drain.build(),
                false,
                WorkerMetrics::new(0, "drain"),
                in_rx,
                out_tx,
            );
        });
        in_tx
            .send(batch(0, &["conn from 10.0.0.1", "conn from 10.0.0.2"]))
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
