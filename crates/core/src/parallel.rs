//! Data-parallel chunked parsing for any [`LogParser`].
//!
//! The paper's efficiency study (§V) shows all four methods are
//! single-threaded batch algorithms; [`ParallelDriver`] wraps any of
//! them in a map/merge pipeline:
//!
//! 1. **Chunk** — the corpus is split into `chunks` contiguous,
//!    near-equal slices.
//! 2. **Map** — a scoped pool of `workers` std threads parses chunks
//!    independently; an atomic cursor hands out chunk indices, so
//!    threads that finish early steal the remaining chunks
//!    (work-stealing without a dependency).
//! 3. **Merge** — per-chunk templates are folded, *in chunk order*,
//!    into globally stable event ids via the shared
//!    [`TemplateMerge`](crate::TemplateMerge) union-find (the same
//!    implementation the streaming ingest aggregator uses), and chunk
//!    assignments are rewritten onto the global ids.
//!
//! # Determinism and equivalence
//!
//! The merge happens after all chunks complete and is applied in chunk
//! order, so the output is a pure function of `(parser, corpus,
//! chunks)`: the number of worker threads and their scheduling **cannot**
//! change the result. With `chunks == 1` the driver is exactly
//! `parser.parse(corpus)`.
//!
//! For `chunks > 1` the result is grouping-equivalent to a sequential
//! execution of the same chunked pipeline — *not*, in general, to the
//! unchunked parse: support-threshold methods (SLCT's word frequencies,
//! LogSig's potentials) count within each chunk, so a template whose
//! members straddle a chunk boundary can fall below a per-chunk
//! threshold that the global corpus clears. `tests/parallel_equivalence.rs`
//! pins both sides of this contract (exact equivalence at one chunk,
//! schedule-independence and merge invariants at many). DESIGN.md
//! ("Parallel parsing") records a minimal SLCT counterexample showing
//! why full chunked≡unchunked equivalence is unattainable for this
//! class of parsers.
//!
//! A chunk that fails to parse (e.g. LogSig requiring more messages
//! than a small chunk holds) triggers a **sequential fallback**: the
//! driver re-parses the whole corpus unchunked, so `parse_parallel`
//! succeeds whenever `parse` does.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::merge::TemplateMerge;
use crate::{Corpus, EventId, LogParser, Parse, ParseError, Template};

/// How a [`ParallelDriver::run`] call executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelReport {
    /// Chunks the corpus was actually split into (≤ requested: clamped
    /// to the corpus length, and 1 for empty corpora).
    pub chunks: usize,
    /// Worker threads used (≤ chunks).
    pub workers: usize,
    /// Global events after the merge.
    pub merged_events: usize,
    /// `true` when a chunk parse failed and the whole corpus was
    /// re-parsed sequentially instead.
    pub sequential_fallback: bool,
}

/// A generic data-parallel executor for [`LogParser`] implementations.
/// See the [module docs](self) for the pipeline and its equivalence
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelDriver {
    chunks: usize,
    workers: usize,
}

impl ParallelDriver {
    /// A driver that splits into `threads` chunks and parses them on
    /// `threads` workers — the common "use N cores" configuration
    /// behind [`LogParser::parse_parallel`]. `threads == 0` is treated
    /// as 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelDriver {
            chunks: threads,
            workers: threads,
        }
    }

    /// A driver with the chunk count (which determines the *result*)
    /// decoupled from the worker count (which only determines the
    /// *schedule*). The differential test harness uses this to prove
    /// worker count cannot affect output.
    pub fn with_workers(chunks: usize, workers: usize) -> Self {
        ParallelDriver {
            chunks: chunks.max(1),
            workers: workers.max(1),
        }
    }

    /// The contiguous near-equal chunk ranges this driver would split a
    /// corpus of `len` messages into. The first `len % chunks` ranges
    /// are one longer; a `len` smaller than the chunk count yields
    /// `len` single-message ranges.
    pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
        let chunks = chunks.clamp(1, len.max(1));
        let base = len / chunks;
        let extra = len % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for i in 0..chunks {
            let size = base + usize::from(i < extra);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }

    /// Parses `corpus` with `parser` across this driver's chunk/worker
    /// configuration and merges the result into one [`Parse`].
    ///
    /// # Errors
    ///
    /// Returns whatever the sequential `parser.parse(corpus)` returns
    /// when a single chunk is used or when the sequential fallback
    /// engages; with multiple healthy chunks the call only fails if the
    /// fallback itself fails.
    pub fn run<P: LogParser + ?Sized>(
        &self,
        parser: &P,
        corpus: &Corpus,
    ) -> Result<(Parse, ParallelReport), ParseError> {
        let ranges = Self::chunk_ranges(corpus.len(), self.chunks);
        let chunks = ranges.len();
        if chunks <= 1 {
            let parse = parser.parse(corpus)?;
            let merged_events = parse.event_count();
            return Ok((
                parse,
                ParallelReport {
                    chunks: 1,
                    workers: 1,
                    merged_events,
                    sequential_fallback: false,
                },
            ));
        }

        let workers = self.workers.min(chunks);
        let chunk_parses = parse_chunks(parser, corpus, &ranges, workers);

        // Any failed chunk (e.g. a method that rejects corpora smaller
        // than its cluster count) falls back to one sequential parse:
        // parse_parallel is total wherever parse is. A missing slot
        // (a worker died before storing its result) takes the same
        // path, so the driver never panics on a sick pool.
        let healthy: Vec<Parse> = chunk_parses
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .collect();
        if healthy.len() != chunks {
            let parse = parser.parse(corpus)?;
            let merged_events = parse.event_count();
            return Ok((
                parse,
                ParallelReport {
                    chunks,
                    workers,
                    merged_events,
                    sequential_fallback: true,
                },
            ));
        }

        let merge_hist = logparse_obs::global().histogram(
            "parallel_merge_seconds",
            "Duration of the chunk template merge",
            &logparse_obs::Buckets::durations(),
            &[("parser", parser.name())],
        );
        let span = logparse_obs::global().span_into(merge_hist, "parallel_merge", &[]);
        let parse = merge_chunks(healthy, &ranges, corpus.len());
        span.finish();

        let merged_events = parse.event_count();
        Ok((
            parse,
            ParallelReport {
                chunks,
                workers,
                merged_events,
                sequential_fallback: false,
            },
        ))
    }
}

/// Parses every chunk range on a scoped worker pool fed by an atomic
/// cursor; slot `i` of the result holds chunk `i`'s parse, or `None`
/// if its worker never stored one.
fn parse_chunks<P: LogParser + ?Sized>(
    parser: &P,
    corpus: &Corpus,
    ranges: &[Range<usize>],
    workers: usize,
) -> Vec<Option<Result<Parse, ParseError>>> {
    let registry = logparse_obs::global();
    let chunk_hist = registry.histogram(
        "parallel_chunk_parse_seconds",
        "Duration of one chunk parse inside the parallel driver",
        &logparse_obs::Buckets::durations(),
        &[("parser", parser.name())],
    );
    let slots: Vec<Mutex<Option<Result<Parse, ParseError>>>> =
        ranges.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let slots = &slots;
            let cursor = &cursor;
            let chunk_hist = &chunk_hist;
            let chunk_counter = registry.counter(
                "parallel_chunks_parsed_total",
                "Chunks parsed by each parallel worker thread",
                // lint:allow(hot-path-string-alloc): one label per spawned worker, not per chunk or line
                &[("worker", &worker.to_string())],
            );
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(range) = ranges.get(i) else {
                    break;
                };
                let piece = corpus.slice(range.clone());
                // lint:allow(timing-discipline): measures directly into
                // parallel_chunk_parse_seconds; a ring-recording span per
                // chunk would break the rare-events-only trace budget
                let start = std::time::Instant::now();
                let result = parser.parse(&piece);
                chunk_hist.observe_duration(start.elapsed());
                chunk_counter.inc();
                // A poisoned slot still carries its value; take it.
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

/// Folds per-chunk parses into one global parse, merging templates by
/// [`Template::structural_key`] in chunk order; chunk `i` covers corpus
/// range `ranges[i]` of `len` lines. A lone chunk is returned unmerged:
/// one chunk is exactly the sequential parse. The distributed job
/// reducer (`logparse-jobs`) calls this too, over shard results read
/// back from disk, which is what makes `jobs run -j N` byte-identical
/// to `parse_parallel(corpus, N)`.
pub fn merge_chunks(mut chunk_parses: Vec<Parse>, ranges: &[Range<usize>], len: usize) -> Parse {
    if chunk_parses.len() == 1 {
        return chunk_parses.swap_remove(0);
    }
    let mut merge = TemplateMerge::new();
    // Batch chunks announce each (chunk, local) exactly once, so the
    // merge never takes the refinement path, global ids come out dense
    // in 0..id_space(), and resolve() succeeds for every announced
    // (chunk, local) — an unannounced id simply stays unassigned.
    let mut templates: Vec<Template> = Vec::new();
    for (chunk, parse) in chunk_parses.iter().enumerate() {
        let keys: Vec<String> = parse
            .templates()
            .iter()
            .map(Template::structural_key)
            .collect();
        merge.merge_shard(chunk, &keys);
        for (local, template) in parse.templates().iter().enumerate() {
            let Some(gid) = merge.resolve(chunk, local) else {
                continue;
            };
            if gid == templates.len() {
                templates.push(template.clone());
            }
        }
    }
    debug_assert_eq!(templates.len(), merge.id_space());
    let mut assignments: Vec<Option<EventId>> = vec![None; len];
    for ((chunk, parse), range) in chunk_parses.iter().enumerate().zip(ranges) {
        for (offset, assigned) in parse.assignments().iter().enumerate() {
            // Checked: a shard result read back from disk may claim a
            // range the corpus does not have.
            if let Some(slot) = assignments.get_mut(range.start + offset) {
                *slot = assigned
                    .and_then(|event| merge.resolve(chunk, event.index()).map(EventId::new));
            }
        }
    }
    Parse::new(templates, assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParseBuilder, TemplateToken};

    /// Groups messages by their first token; templates are positionwise
    /// intersections. Simple, deterministic, chunk-friendly.
    struct FirstToken;
    impl LogParser for FirstToken {
        fn name(&self) -> &'static str {
            "first-token-test"
        }
        fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
            let mut builder = ParseBuilder::new(corpus.len());
            let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
            for i in 0..corpus.len() {
                let tokens = corpus.tokens(i);
                let Some(&head) = tokens.first() else {
                    continue; // empty message stays an outlier
                };
                match groups.iter_mut().find(|(h, _)| h == head) {
                    Some((_, members)) => members.push(i),
                    None => groups.push((head.to_owned(), vec![i])),
                }
            }
            for (_, members) in groups {
                builder.add_cluster(corpus, &members);
            }
            Ok(builder.build())
        }
    }

    /// Errors on any corpus smaller than 3 messages.
    struct NeedsThree;
    impl LogParser for NeedsThree {
        fn name(&self) -> &'static str {
            "needs-three-test"
        }
        fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
            if corpus.len() < 3 {
                return Err(ParseError::EmptyCorpus);
            }
            Ok(ParseBuilder::new(corpus.len()).build())
        }
    }

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    #[test]
    fn chunk_ranges_cover_contiguously() {
        for (len, chunks) in [(10, 3), (3, 3), (2, 7), (1, 1), (0, 4), (100, 8)] {
            let ranges = ParallelDriver::chunk_ranges(len, chunks);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[1].is_empty());
            }
            assert!(ranges.len() <= len.max(1));
        }
    }

    #[test]
    fn one_chunk_is_exactly_sequential() {
        let c = corpus(&["open a", "open b", "close a"]);
        let sequential = FirstToken.parse(&c).unwrap();
        let (parallel, report) = ParallelDriver::new(1).run(&FirstToken, &c).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(report.chunks, 1);
        assert!(!report.sequential_fallback);
    }

    #[test]
    fn chunked_parse_merges_identical_templates_across_chunks() {
        let c = corpus(&["open 1", "open 2", "open 3", "open 4", "shut 5", "shut 6"]);
        let (parse, report) = ParallelDriver::new(3).run(&FirstToken, &c).unwrap();
        // Chunks: [open 1, open 2][open 3, open 4][shut 5, shut 6] — the
        // two "open *" chunk templates are identical and must unify.
        assert_eq!(report.chunks, 3);
        assert_eq!(parse.event_count(), 2);
        assert_eq!(parse.assignments()[0], parse.assignments()[3]);
        assert_ne!(parse.assignments()[0], parse.assignments()[4]);
        let texts: Vec<String> = parse.templates().iter().map(Template::to_string).collect();
        assert_eq!(texts, vec!["open *".to_string(), "shut *".to_string()]);
    }

    #[test]
    fn worker_count_cannot_change_the_result() {
        let lines: Vec<String> = (0..37).map(|i| format!("w{} value {i}", i % 5)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let c = corpus(&refs);
        let reference = ParallelDriver::with_workers(4, 1)
            .run(&FirstToken, &c)
            .unwrap()
            .0;
        for workers in [2, 3, 4, 9] {
            let (parse, report) = ParallelDriver::with_workers(4, workers)
                .run(&FirstToken, &c)
                .unwrap();
            assert_eq!(parse, reference, "workers={workers}");
            assert_eq!(report.workers, workers.min(4));
        }
    }

    #[test]
    fn failing_chunk_falls_back_to_sequential() {
        // 5 messages over 2 chunks -> chunk sizes 3 and 2; the 2-message
        // chunk errors, so the driver re-parses sequentially (5 >= 3).
        let c = corpus(&["a", "b", "c", "d", "e"]);
        let (parse, report) = ParallelDriver::new(2).run(&NeedsThree, &c).unwrap();
        assert!(report.sequential_fallback);
        assert_eq!(parse.len(), 5);
        // When even the fallback cannot parse, the error surfaces.
        let tiny = corpus(&["a", "b"]);
        assert!(ParallelDriver::new(2).run(&NeedsThree, &tiny).is_err());
    }

    #[test]
    fn empty_corpus_delegates_to_sequential() {
        let c = Corpus::new();
        let (parse, report) = ParallelDriver::new(8).run(&FirstToken, &c).unwrap();
        assert!(parse.is_empty());
        assert_eq!(report.chunks, 1);
    }

    #[test]
    fn parse_parallel_is_callable_on_trait_objects() {
        let c = corpus(&["x 1", "x 2", "y 3"]);
        let boxed: Box<dyn LogParser> = Box::new(FirstToken);
        let parse = boxed.parse_parallel(&c, 2).unwrap();
        assert_eq!(parse.len(), 3);
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn structural_key_distinguishes_literal_star_from_wildcard() {
        let wildcard = Template::new(vec![TemplateToken::literal("a"), TemplateToken::Wildcard]);
        let literal_star = Template::new(vec![
            TemplateToken::literal("a"),
            TemplateToken::literal("*"),
        ]);
        assert_eq!(wildcard.to_string(), literal_star.to_string());
        assert_ne!(wildcard.structural_key(), literal_star.structural_key());
        let open = Template::with_open_tail(vec![TemplateToken::literal("a")]);
        let closed = Template::new(vec![TemplateToken::literal("a")]);
        assert_ne!(open.structural_key(), closed.structural_key());
    }

    #[test]
    fn chunk_parse_records_obs_families() {
        let c = corpus(&["m 1", "m 2", "m 3", "m 4"]);
        ParallelDriver::new(2).run(&FirstToken, &c).unwrap();
        let text = logparse_obs::global().render();
        assert!(
            text.contains("parallel_chunk_parse_seconds"),
            "chunk histogram missing:\n{text}"
        );
        assert!(
            text.contains("parallel_merge_seconds"),
            "merge histogram missing:\n{text}"
        );
        assert!(
            text.contains("parallel_chunks_parsed_total"),
            "worker counters missing:\n{text}"
        );
    }
}
