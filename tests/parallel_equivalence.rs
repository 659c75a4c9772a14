//! Differential sequential≡parallel harness for the chunked parsing
//! driver.
//!
//! The driver's contract (see `logparse_core::parallel`) has three
//! legs, and each leg gets property coverage here, for every parser in
//! the workspace across thread counts {1, 2, 4, 7}:
//!
//! 1. **One chunk is the sequential parse** — `parse_parallel(c, 1)`
//!    equals `parse(c)` exactly, including event-id numbering and the
//!    error case.
//! 2. **Scheduling cannot change the result** — for a fixed chunk
//!    count, any worker count (fewer, equal, more than chunks) produces
//!    the identical `Parse`. This is the "parallel execution ≡
//!    sequential execution of the same pipeline" guarantee; it is what
//!    makes the driver trustworthy.
//! 3. **The merge is sound** — per chunk, the parallel output never
//!    *splits* a group the chunk parse formed, keeps the same outlier
//!    set, and its template list is exactly the in-order structural
//!    dedup of the chunk template lists.
//!
//! Equivalence for several properties is **grouping-equivalence** (same
//! partition of messages, same outliers) rather than id-equality: the
//! merge renumbers events by first appearance across chunks, so ids are
//! representation, not semantics. Full chunked≡unchunked equality at
//! k > 1 is *not* asserted for support-threshold parsers — it provably
//! cannot hold (DESIGN.md "Parallel parsing" carries the SLCT
//! counterexample) — but it is asserted where it does hold: single
//! chunks, uniform corpora, and the a-priori-template Oracle.

use std::collections::HashMap;

use logmine::core::{Corpus, LogParser, ParallelDriver, Parse, Template};
use logmine::parsers::{Ael, Drain, Iplom, LenMa, Lke, LogMine, LogSig, Oracle, Slct, Spell};
use proptest::prelude::*;

/// The thread counts the differential suite sweeps (an odd one included
/// so chunk boundaries fall unevenly).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Log-like adversarial corpora, mirroring `parser_contracts.rs`.
fn arbitrary_corpus() -> impl Strategy<Value = Corpus> {
    let word = prop_oneof![
        Just("alpha"),
        Just("beta"),
        Just("gamma"),
        Just("delta"),
        Just("start"),
        Just("stop"),
        Just("error"),
        Just("ok"),
    ];
    let line = prop::collection::vec(
        prop_oneof![
            word.prop_map(str::to_owned),
            (0u32..100).prop_map(|n| n.to_string()),
        ],
        1..8,
    )
    .prop_map(|tokens| tokens.join(" "));
    prop::collection::vec(line, 1..40).prop_map(|lines| Corpus::from_lines(&lines))
}

fn parsers() -> Vec<Box<dyn LogParser>> {
    vec![
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(4).seed(1).build()),
        Box::new(Drain::default()),
        Box::new(Spell::default()),
        Box::new(Ael::default()),
        Box::new(LenMa::default()),
        Box::new(LogMine::default()),
        Box::new(Oracle::new(vec![
            Template::from_pattern("alpha * gamma"),
            Template::from_pattern("start *"),
        ])),
    ]
}

/// Rebuilds `corpus` with every token on a different symbol id (decoy
/// line interned first, then sliced off) — mirrors
/// `parser_contracts.rs`. Each line is its tokens one space apart, so
/// the tokens are unchanged; only their integer representation moved
/// (and the line numbers, one on, which no `Parse` holds).
fn id_shifted(corpus: &Corpus) -> Corpus {
    let decoy = "qq0 qq1 qq2 qq3 qq4 qq5 qq6 qq7 qq8 qq9".to_owned();
    let lines = (0..corpus.len()).map(|i| corpus.tokens(i).join(" "));
    let rebuilt = Corpus::from_lines(std::iter::once(decoy).chain(lines));
    rebuilt.slice(1..rebuilt.len())
}

/// Relabels assignments by first appearance, turning event ids into a
/// canonical partition representation (outliers stay `None`).
fn canonical_partition(parse: &Parse) -> Vec<Option<usize>> {
    let mut next = 0usize;
    let mut relabel: HashMap<usize, usize> = HashMap::new();
    parse
        .assignments()
        .iter()
        .map(|a| {
            a.map(|event| {
                *relabel.entry(event.index()).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
        })
        .collect()
}

/// Same grouping of messages (partition + outlier set), ignoring event
/// id numbering and template representation.
fn grouping_equivalent(a: &Parse, b: &Parse) -> bool {
    a.len() == b.len() && canonical_partition(a) == canonical_partition(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Leg 1: one chunk (or one thread) *is* the sequential parse —
    /// byte-for-byte, ids included, errors included.
    #[test]
    fn one_thread_is_exactly_the_sequential_parse(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            let sequential = parser.parse(&corpus);
            let parallel = parser.parse_parallel(&corpus, 1);
            match (&sequential, &parallel) {
                (Ok(s), Ok(p)) => prop_assert_eq!(s, p, "{} diverged at 1 thread", parser.name()),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{}: one side errored", parser.name()),
            }
        }
    }

    /// Leg 2: with the chunk count pinned, the worker count — fewer
    /// than, equal to, or more than the chunks — cannot change the
    /// output. The w=1 reference is literally a sequential execution of
    /// the chunked pipeline, so this is sequential≡parallel.
    #[test]
    fn worker_schedule_cannot_change_the_result(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            for chunks in [2usize, 4, 7] {
                let reference = ParallelDriver::with_workers(chunks, 1)
                    .run(parser.as_ref(), &corpus);
                for workers in [2usize, 5] {
                    let racy = ParallelDriver::with_workers(chunks, workers)
                        .run(parser.as_ref(), &corpus);
                    match (&reference, &racy) {
                        (Ok((a, ra)), Ok((b, rb))) => {
                            prop_assert_eq!(a, b,
                                "{} chunks={} workers={}", parser.name(), chunks, workers);
                            prop_assert_eq!(ra.chunks, rb.chunks);
                            prop_assert_eq!(
                                ra.sequential_fallback, rb.sequential_fallback,
                                "fallback must not depend on scheduling"
                            );
                        }
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(false, "{}: one schedule errored", parser.name()),
                    }
                }
            }
        }
    }

    /// The parallel output satisfies the parser I/O contract at every
    /// thread count: total assignment, in-range ids (checked by
    /// `Parse::new`), templates that match their members, and
    /// determinism across repeated runs.
    #[test]
    fn parallel_output_satisfies_the_parse_contract(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            for &threads in &THREADS {
                let Ok(parse) = parser.parse_parallel(&corpus, threads) else { continue };
                prop_assert_eq!(parse.len(), corpus.len());
                let again = parser.parse_parallel(&corpus, threads)
                    .expect("second run of a successful configuration");
                prop_assert_eq!(&parse, &again, "{} not deterministic", parser.name());
                if parser.name() == "Spell" {
                    // Spell templates are LCS skeletons with subsequence
                    // semantics; positionwise `matches` does not apply.
                    continue;
                }
                for i in 0..parse.len() {
                    if let Some(template) = parse.template_of(i) {
                        prop_assert!(
                            template.matches(&corpus.tokens(i)),
                            "{} thread {}: template `{}` vs {:?}",
                            parser.name(), threads, template, corpus.tokens(i)
                        );
                    }
                }
            }
        }
    }

    /// Leg 3: the merge never splits a chunk's groups, never flips
    /// outlier status, and emits exactly the in-order structural dedup
    /// of the chunk template lists.
    #[test]
    fn merge_preserves_chunk_grouping_and_templates(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            for chunks in [2usize, 4, 7] {
                let driver = ParallelDriver::with_workers(chunks, 2);
                let Ok((merged, report)) = driver.run(parser.as_ref(), &corpus) else { continue };
                if report.sequential_fallback {
                    continue; // output is the sequential parse, merge unused
                }
                let ranges = ParallelDriver::chunk_ranges(corpus.len(), chunks);
                let mut expected_templates: Vec<Template> = Vec::new();
                for range in &ranges {
                    let chunk = parser.parse(&corpus.slice(range.clone()))
                        .expect("no fallback, so every chunk parsed");
                    for t in chunk.templates() {
                        if !expected_templates.contains(t) {
                            expected_templates.push(t.clone());
                        }
                    }
                    let merged_part = &merged.assignments()[range.clone()];
                    for (i, chunk_assigned) in chunk.assignments().iter().enumerate() {
                        prop_assert_eq!(
                            chunk_assigned.is_none(), merged_part[i].is_none(),
                            "{}: outlier status flipped at {}", parser.name(), range.start + i
                        );
                        for (j, other) in chunk.assignments().iter().enumerate().skip(i + 1) {
                            if chunk_assigned.is_some() && chunk_assigned == other {
                                prop_assert_eq!(
                                    merged_part[i], merged_part[j],
                                    "{}: merge split a chunk group", parser.name()
                                );
                            }
                        }
                    }
                }
                prop_assert_eq!(
                    merged.templates(), expected_templates.as_slice(),
                    "{}: template set is not the ordered dedup of chunks", parser.name()
                );
            }
        }
    }

    /// Where full chunked≡unchunked equivalence *does* hold, assert it.
    /// A uniform corpus (one shape repeated) must come out as one group
    /// for every parser and thread count — provided every chunk is big
    /// enough to meet support thresholds (14 copies over at most 7
    /// chunks keeps every chunk at >= 2 messages, SLCT's support).
    /// LogSig is exempt because it genuinely splits identical messages
    /// (its potential is indifferent), as in `parser_contracts.rs`.
    #[test]
    fn uniform_corpora_group_identically_at_every_thread_count(
        line in "[a-z]{2,6}( [a-z]{2,6}){2,5}",
        copies in 14usize..40,
    ) {
        let lines: Vec<&str> = std::iter::repeat_n(line.as_str(), copies).collect();
        let corpus = Corpus::from_lines(&lines);
        for parser in parsers() {
            if parser.name() == "LogSig" {
                continue;
            }
            let Ok(sequential) = parser.parse(&corpus) else { continue };
            for &threads in &THREADS {
                let parallel = parser.parse_parallel(&corpus, threads)
                    .expect("uniform corpus parses at any chunking");
                prop_assert!(
                    grouping_equivalent(&sequential, &parallel),
                    "{} at {} threads: {:?} vs {:?}",
                    parser.name(), threads,
                    canonical_partition(&sequential), canonical_partition(&parallel)
                );
                prop_assert_eq!(
                    parallel.templates().len(), sequential.templates().len(),
                    "{} at {} threads grew templates", parser.name(), threads
                );
            }
        }
    }

    /// The Oracle matches against an a-priori template library, so for
    /// it chunked≡unchunked holds exactly — grouping *and* templates —
    /// at every thread count.
    #[test]
    fn oracle_is_fully_chunk_invariant(corpus in arbitrary_corpus()) {
        let oracle = Oracle::new(vec![
            Template::from_pattern("alpha * gamma"),
            Template::from_pattern("start *"),
            Template::from_pattern("error *"),
        ]);
        let sequential = oracle.parse(&corpus).expect("oracle is total");
        for &threads in &THREADS {
            let parallel = oracle.parse_parallel(&corpus, threads).expect("oracle is total");
            prop_assert!(grouping_equivalent(&sequential, &parallel), "threads={}", threads);
            prop_assert_eq!(
                parallel.cluster_labels(), sequential.cluster_labels(),
                "oracle grouping must be chunk-invariant"
            );
        }
    }

    /// String-vs-interned differential through the chunked driver:
    /// chunk slices share the input corpus's interner, so the shifted
    /// ids flow into every worker — and must still be invisible at
    /// every thread count: the merged `Parse` stays byte-identical.
    #[test]
    fn symbol_id_shifts_are_invisible_through_the_parallel_driver(
        corpus in arbitrary_corpus(),
    ) {
        let shifted = id_shifted(&corpus);
        for parser in parsers() {
            for &threads in &THREADS {
                match (
                    parser.parse_parallel(&corpus, threads),
                    parser.parse_parallel(&shifted, threads),
                ) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b,
                        "{} at {} threads: symbol ids leaked", parser.name(), threads
                    ),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(
                        false,
                        "{} at {} threads: error behavior changed under id shift",
                        parser.name(), threads
                    ),
                }
            }
        }
    }
}

/// Empty corpus: the driver must delegate, reproducing the sequential
/// behavior (Ok or Err) for every parser and thread count.
#[test]
fn empty_corpus_behaves_exactly_like_sequential() {
    let corpus = Corpus::new();
    for parser in parsers() {
        let sequential = parser.parse(&corpus);
        for &threads in &THREADS {
            let parallel = parser.parse_parallel(&corpus, threads);
            match (&sequential, &parallel) {
                (Ok(s), Ok(p)) => assert_eq!(s, p, "{}", parser.name()),
                (Err(_), Err(_)) => {}
                _ => panic!("{}: empty-corpus behavior diverged", parser.name()),
            }
        }
    }
}

/// Single-line corpus: chunking degenerates to one chunk regardless of
/// the requested thread count.
#[test]
fn single_line_corpus_is_sequential_at_any_thread_count() {
    let corpus = Corpus::from_lines(["start alpha 7"]);
    for parser in parsers() {
        let sequential = parser.parse(&corpus);
        for &threads in &THREADS {
            let parallel = parser.parse_parallel(&corpus, threads);
            match (&sequential, &parallel) {
                (Ok(s), Ok(p)) => assert_eq!(s, p, "{}", parser.name()),
                (Err(_), Err(_)) => {}
                _ => panic!("{}: single-line behavior diverged", parser.name()),
            }
        }
    }
}

/// Chunk-boundary-sized corpora: lengths straddling the chunk count
/// (k-1, k, k+1, 2k, 2k+1) exercise the uneven-split arithmetic.
#[test]
fn chunk_boundary_sized_corpora_stay_total_and_deterministic() {
    for &k in &[2usize, 4, 7] {
        for len in [k - 1, k, k + 1, 2 * k, 2 * k + 1] {
            let lines: Vec<String> = (0..len).map(|i| format!("evt {} val {i}", i % 3)).collect();
            let corpus = Corpus::from_lines(&lines);
            for parser in parsers() {
                let Ok(parse) = parser.parse_parallel(&corpus, k) else {
                    // Only legitimate when the sequential parse also
                    // rejects this corpus (fallback semantics).
                    assert!(
                        parser.parse(&corpus).is_err(),
                        "{}: parallel failed where sequential succeeds",
                        parser.name()
                    );
                    continue;
                };
                assert_eq!(parse.len(), len, "{} k={k} len={len}", parser.name());
                let again = parser.parse_parallel(&corpus, k).unwrap();
                assert_eq!(parse, again, "{} k={k} len={len}", parser.name());
            }
        }
    }
}

/// When a chunk is too small for the method (LogSig wants at least k
/// messages per parse), the driver falls back to one sequential parse
/// rather than erroring — parse_parallel is total wherever parse is.
#[test]
fn undersized_chunks_fall_back_to_the_sequential_parse() {
    let lines: Vec<String> = (0..6).map(|i| format!("evt {i} ok")).collect();
    let corpus = Corpus::from_lines(&lines);
    let logsig = LogSig::builder().clusters(4).seed(1).build();
    // 6 messages over 4 chunks -> chunks of 1-2 messages, all below the
    // 4-cluster minimum; sequential handles 6 >= 4 fine.
    let (parse, report) = ParallelDriver::new(4).run(&logsig, &corpus).unwrap();
    assert!(report.sequential_fallback);
    assert_eq!(parse, logsig.parse(&corpus).unwrap());
}
