//! The router: the calling thread's half of the pipeline. It numbers
//! each line the source hands over, copies it into the batch of the
//! shard its shape routes it to, and sends batches on when full, when
//! they have waited past the flush interval, or ahead of a checkpoint.

use std::sync::mpsc::{SyncSender, TrySendError};
use std::time::Instant;

use logparse_core::FramedLine;
use logparse_obs::Fnv1a;

use crate::metrics::RouterMetrics;
use crate::pipeline::IngestConfig;
use crate::worker::{LineBatch, ShardInput};
use crate::IngestError;

/// The router's state: a batch being filled per shard, the sequence
/// counter, the checkpoint cadence, and the first send that failed.
pub(crate) struct Router<'a> {
    config: &'a IngestConfig,
    metrics: &'a RouterMetrics,
    txs: Vec<SyncSender<ShardInput>>,
    pending: Vec<LineBatch>,
    batch_started: Vec<Option<Instant>>,
    seq_base: u64,
    seq: u64,
    last_checkpoint_at: u64,
    generation: u64,
    error: Option<IngestError>,
}

impl<'a> Router<'a> {
    /// A router over the shard channels `txs` whose first line is
    /// sequence number `seq_base`.
    pub fn new(
        config: &'a IngestConfig,
        metrics: &'a RouterMetrics,
        txs: Vec<SyncSender<ShardInput>>,
        seq_base: u64,
    ) -> Router<'a> {
        Router {
            config,
            metrics,
            pending: txs.iter().map(|_| LineBatch::default()).collect(),
            batch_started: vec![None; txs.len()],
            txs,
            seq_base,
            seq: seq_base,
            last_checkpoint_at: seq_base,
            generation: 0,
            error: None,
        }
    }

    /// The sequence number the next line gets.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Whether the router takes no more lines: `max_lines` reached, or a
    /// shard is gone.
    pub fn closed(&self) -> bool {
        self.error.is_some()
            || self
                .config
                .max_lines
                .is_some_and(|max| self.seq - self.seq_base >= max)
    }

    /// Numbers `line` and copies it into its shard's batch — the one
    /// copy a line gets between the source's buffer and its parser. A
    /// line that arrives once the router is closed is dropped.
    pub fn route(&mut self, line: FramedLine<'_>) {
        if self.closed() {
            return;
        }
        if let Err(e) = self.push(line) {
            self.error = Some(e);
        }
    }

    fn push(&mut self, line: FramedLine<'_>) -> Result<(), IngestError> {
        let shard = shard_of(&line, self.config.shards);
        if self.pending[shard].is_empty() {
            // lint:allow(timing-discipline): flush-interval bookkeeping for batch aging, not a measurement — nothing is recorded from this clock
            self.batch_started[shard] = Some(Instant::now());
        }
        self.pending[shard].push(self.seq, line.text);
        self.seq += 1;
        if self.pending[shard].len() >= self.config.batch_size {
            self.flush(shard)?;
        }
        let every = self.config.checkpoint_every;
        if every > 0 && self.seq - self.last_checkpoint_at >= every {
            self.last_checkpoint_at = self.seq;
            // Flush partials first so the checkpoint covers every line
            // routed so far.
            for shard in 0..self.config.shards {
                self.flush(shard)?;
                self.send(
                    shard,
                    ShardInput::Checkpoint {
                        generation: self.generation,
                        lines_routed: self.seq,
                    },
                )?;
            }
            self.generation += 1;
        }
        Ok(())
    }

    /// Sends shard `shard`'s batch on, if it holds a line.
    fn flush(&mut self, shard: usize) -> Result<(), IngestError> {
        if self.pending[shard].is_empty() {
            return Ok(());
        }
        let room = LineBatch::with_capacity(self.config.batch_size, self.pending[shard].bytes());
        let batch = std::mem::replace(&mut self.pending[shard], room);
        self.batch_started[shard] = None;
        self.send(shard, ShardInput::Batch(batch))
    }

    /// Flushes the batches that have waited past the flush interval.
    pub fn flush_aged(&mut self) {
        for shard in 0..self.config.shards {
            let aged = self.batch_started[shard]
                .is_some_and(|started| started.elapsed() >= self.config.flush_interval);
            if aged && self.error.is_none() {
                if let Err(e) = self.flush(shard) {
                    self.error = Some(e);
                }
            }
        }
    }

    /// Sends try a non-blocking path first so a full shard queue is
    /// observable as a backpressure stall before the router blocks on
    /// it. Queue depth is incremented here and decremented by the worker
    /// when it picks the batch up, so the gauge reads batches in flight.
    fn send(&self, shard: usize, input: ShardInput) -> Result<(), IngestError> {
        if matches!(input, ShardInput::Batch(_)) {
            self.metrics.queue_depth[shard].add(1.0);
            self.metrics.batches_routed[shard].inc();
        }
        let gone = || IngestError::Config(format!("shard {shard} worker exited early"));
        match self.txs[shard].try_send(input) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(input)) => {
                self.metrics.backpressure_stalls[shard].inc();
                self.txs[shard].send(input).map_err(|_| gone())
            }
            Err(TrySendError::Disconnected(_)) => Err(gone()),
        }
    }

    /// Flushes every partial batch and sends `Shutdown` down every shard
    /// channel (FIFO: queued batches are parsed first), then hangs up.
    /// Returns the next sequence number and the first failed send.
    pub fn shutdown(mut self) -> (u64, Option<IngestError>) {
        for shard in 0..self.config.shards {
            let _ = self.flush(shard);
            let _ = self.send(shard, ShardInput::Shutdown);
        }
        (self.seq, self.error)
    }
}

/// Routes a line to a shard by event shape: FNV-1a of its first token
/// and its token count, so one event type lands on one shard — parsers
/// see coherent streams, and routing is a pure function of content,
/// which makes per-shard parser state deterministic and lets the
/// checkpoint round-trip tests compare runs exactly.
///
/// The shape is the framer's scan's, but routing is pinned to the split
/// the router made before it, `split_ascii_whitespace`, which keeps
/// `\v` inside tokens where the scan splits at it: a line holding one
/// is split again that way (checkpoints written under the old split
/// stay valid).
fn shard_of(line: &FramedLine<'_>, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    if !line.text.as_bytes().contains(&0x0b) {
        return shape_shard(line.first_token.as_bytes(), line.tokens, shards);
    }
    let mut words = line
        .text
        .as_bytes()
        .split(u8::is_ascii_whitespace)
        .filter(|word| !word.is_empty());
    let first = words.next().unwrap_or_default();
    let count = usize::from(!first.is_empty()) + words.count();
    shape_shard(first, count, shards)
}

fn shape_shard(first: &[u8], tokens: usize, shards: usize) -> usize {
    let hash = Fnv1a::new().bytes(first).word(tokens as u64).finish();
    (hash % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_core::{LineDamage, LineFramer};
    use proptest::prelude::*;

    /// The router's split before lines came as scanned blocks, and the
    /// oracle [`shard_of`] is held to.
    fn route(line: &str, shards: usize) -> usize {
        if shards == 1 {
            return 0;
        }
        let mut words = line.split_ascii_whitespace();
        let first = words.next().unwrap_or("");
        let count = if first.is_empty() {
            0
        } else {
            1 + words.count()
        };
        let hash = Fnv1a::new()
            .bytes(first.as_bytes())
            .word(count as u64)
            .finish();
        (hash % shards as u64) as usize
    }

    /// Lines dense in what the scan and `split_ascii_whitespace` read
    /// differently or might: every ASCII whitespace byte, U+00A0, U+0085,
    /// invalid bytes, blank and leading-whitespace lines.
    fn routing_soup() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b"\n".to_vec()),
                Just(b"\r\n".to_vec()),
                Just(b"\r".to_vec()),
                Just(b"\x0b".to_vec()),
                Just(b"\x0c".to_vec()),
                Just(b"\t".to_vec()),
                Just(b" ".to_vec()),
                Just("\u{a0}".as_bytes().to_vec()),
                Just("\u{85}".as_bytes().to_vec()),
                Just(b"\xff".to_vec()),
                "[a-d]{1,3}".prop_map(String::into_bytes),
            ],
            0..48,
        )
        .prop_map(|pieces| pieces.concat())
    }

    proptest! {
        /// Routing from the framer's scan is the routing of the line's
        /// text through `split_ascii_whitespace`, at every shard count.
        #[test]
        fn block_routing_equals_the_line_split(bytes in routing_soup()) {
            let mut framer = LineFramer::default();
            let mut damage = LineDamage::default();
            let mut routed = Vec::new();
            let mut check = |line: FramedLine<'_>| {
                for shards in 2..=8 {
                    routed.push((shard_of(&line, shards), route(line.text, shards)));
                }
            };
            framer.fill_from(&mut &bytes[..]).unwrap();
            framer.pop_lines(&mut damage, &mut check);
            framer.finish(&mut damage, &mut check);
            for (block, oracle) in routed {
                prop_assert_eq!(block, oracle);
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_covers_shards() {
        let sample: Vec<String> = (0..300)
            .map(|i| format!("{} {i}", ["send pkt", "recv", "conn from host"][i % 3]))
            .collect();
        for line in &sample {
            assert_eq!(route(line, 4), route(line, 4));
        }
        let mut hit = [false; 4];
        for line in &sample {
            hit[route(line, 4)] = true;
        }
        assert!(
            hit.iter().filter(|&&h| h).count() >= 2,
            "shape routing collapsed to one shard"
        );
        // A checkpoint's per-shard parser state is only valid under the
        // routing that built it. Values from the hand-rolled loop
        // `Fnv1a` replaced.
        let line = "Receiving block blk_1 src: /10.0.0.1";
        let placed = [2, 3, 4, 5, 7, 8, 16].map(|shards| route(line, shards));
        assert_eq!(placed, [0, 1, 0, 4, 2, 0, 0]);
        assert_eq!((route("", 8), route("   ", 8)), (7, 7));
    }
}
