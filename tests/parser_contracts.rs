//! Property-based contracts every parser must satisfy, on arbitrary
//! corpora: full coverage of the input, valid event ids, deterministic
//! output, and templates that really match their members.

use logmine::core::{
    Corpus, LogParser, MaskRule, Parse, ParseBuilder, ParseError, Preprocessor, Template,
};
use logmine::parsers::{
    Ael, Drain, Iplom, LenMa, Lke, LogMine, LogSig, Oracle, Slct, Spell, StreamingDrain,
    StreamingParser, StreamingSpell,
};
use proptest::prelude::*;

/// Batch adapter over the online parsers: replays the corpus through a
/// fresh streaming instance and materializes its final groups as a
/// [`Parse`], so the streaming mode is held to the same contracts as the
/// batch parsers.
struct StreamingBatch {
    which: &'static str,
}

impl LogParser for StreamingBatch {
    fn name(&self) -> &'static str {
        self.which
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        let mut parser: Box<dyn StreamingParser> = match self.which {
            "StreamingDrain" => Box::new(StreamingDrain::default()),
            _ => Box::new(StreamingSpell::default()),
        };
        let groups: Vec<usize> = (0..corpus.len())
            .map(|i| parser.observe(&corpus.tokens(i).join(" ")))
            .collect();
        let mut builder = ParseBuilder::new(corpus.len());
        let mut events = std::collections::HashMap::new();
        for (i, &group) in groups.iter().enumerate() {
            let event = *events.entry(group).or_insert_with(|| {
                builder.add_template(parser.template(group).expect("observed group"))
            });
            builder.assign(i, event);
        }
        Ok(builder.build())
    }
}

/// Arbitrary small log corpora: a handful of synthetic "templates"
/// (word sequences) instantiated with numeric parameters, so inputs are
/// log-like but adversarially varied.
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
        // The study's four...
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Lke::default()),
        Box::new(LogSig::builder().clusters(4).seed(1).build()),
        // ...the follow-on LogPAI set...
        Box::new(Drain::default()),
        Box::new(Spell::default()),
        Box::new(Ael::default()),
        Box::new(LenMa::default()),
        Box::new(LogMine::default()),
        // ...the source-code-style template matcher...
        Box::new(Oracle::new(vec![
            Template::from_pattern("alpha * gamma"),
            Template::from_pattern("start *"),
        ])),
        // ...and the online parsers, replayed in batch via the adapter
        // above so their output meets the same I/O contract.
        Box::new(StreamingBatch {
            which: "StreamingDrain",
        }),
        Box::new(StreamingBatch {
            which: "StreamingSpell",
        }),
    ]
}

/// Rebuilds `corpus` so every token lands on a *different* symbol id:
/// a decoy line of fresh vocabulary is interned first (claiming the
/// low ids), then sliced back off. Each line is its tokens one space
/// apart, so the tokens are identical to the input's; only their integer
/// representation moved (and the line numbers, one on, which no `Parse`
/// holds). Any parser whose output changes under this map has let
/// symbol ids leak from representation into semantics.
fn id_shifted(corpus: &Corpus) -> Corpus {
    id_shifted_masked(corpus, &Preprocessor::identity())
}

/// [`id_shifted`] for a masked corpus: the decoy is masked along with
/// the lines (masking renumbers symbols by first occurrence, so the
/// decoy has to go through it to keep the low ids) and sliced off
/// afterwards. Compare against `preprocessor.apply(corpus)`.
fn id_shifted_masked(corpus: &Corpus, preprocessor: &Preprocessor) -> Corpus {
    let decoy = "qq0 qq1 qq2 qq3 qq4 qq5 qq6 qq7 qq8 qq9".to_owned();
    let lines = (0..corpus.len()).map(|i| corpus.tokens(i).join(" "));
    let rebuilt = preprocessor.apply(&Corpus::from_lines(std::iter::once(decoy).chain(lines)));
    rebuilt.slice(1..rebuilt.len())
}

/// Equal token rows, resolved: what an id shift keeps.
fn same_tokens(a: &Corpus, b: &Corpus) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a.tokens(i) == b.tokens(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_covers_every_message(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            match parser.parse(&corpus) {
                Ok(parse) => {
                    prop_assert_eq!(parse.len(), corpus.len());
                    prop_assert_eq!(parse.assignments().len(), corpus.len());
                }
                // LogSig may legitimately reject k > n.
                Err(_) => prop_assert!(parser.name() == "LogSig" && corpus.len() < 4),
            }
        }
    }

    #[test]
    fn assigned_templates_match_their_messages(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            if parser.name() == "StreamingSpell" {
                // Spell's streaming templates are LCS skeletons with
                // subsequence (not positionwise) match semantics, so
                // `Template::matches` does not apply to them.
                continue;
            }
            let Ok(parse) = parser.parse(&corpus) else { continue };
            for i in 0..parse.len() {
                if let Some(template) = parse.template_of(i) {
                    prop_assert!(
                        template.matches(&corpus.tokens(i)),
                        "{}: template `{}` vs message {:?}",
                        parser.name(), template, corpus.tokens(i)
                    );
                }
            }
        }
    }

    #[test]
    fn parsing_is_deterministic(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            let a = parser.parse(&corpus).ok();
            let b = parser.parse(&corpus).ok();
            prop_assert_eq!(a, b, "{} must be deterministic", parser.name());
        }
    }

    #[test]
    fn cluster_labels_are_dense_and_bounded(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            let Ok(parse) = parser.parse(&corpus) else { continue };
            let labels = parse.cluster_labels();
            prop_assert_eq!(labels.len(), corpus.len());
            for &l in &labels {
                prop_assert!(l <= parse.event_count());
            }
        }
    }

    #[test]
    fn event_count_never_exceeds_message_count(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            if parser.name() == "Oracle" {
                // The oracle's event list is its a-priori template
                // library, independent of the corpus size.
                continue;
            }
            let Ok(parse) = parser.parse(&corpus) else { continue };
            prop_assert!(
                parse.event_count() <= corpus.len(),
                "{}: {} events for {} messages",
                parser.name(), parse.event_count(), corpus.len()
            );
        }
    }

    #[test]
    fn used_templates_are_nonempty(corpus in arbitrary_corpus()) {
        for parser in parsers() {
            let Ok(parse) = parser.parse(&corpus) else { continue };
            for i in 0..parse.len() {
                if let Some(template) = parse.template_of(i) {
                    prop_assert!(
                        !template.is_empty(),
                        "{}: message {} assigned an empty template",
                        parser.name(), i
                    );
                }
            }
        }
    }

    #[test]
    fn identical_messages_share_an_event(
        line in "[a-z]{2,6}( [a-z]{2,6}){2,5}",
        copies in 2usize..20,
    ) {
        let lines: Vec<&str> = std::iter::repeat_n(line.as_str(), copies).collect();
        let corpus = Corpus::from_lines(&lines);
        for parser in parsers() {
            if parser.name() == "LogSig" {
                // LogSig partitions into exactly k clusters and its
                // potential Σ N(p,C)²/|C| is indifferent between one
                // cluster of n identical messages and any split of them
                // (both score n·|pairs|), so this property genuinely
                // does not hold for it.
                continue;
            }
            let Ok(parse) = parser.parse(&corpus) else { continue };
            let first = parse.assignments()[0];
            for a in parse.assignments() {
                prop_assert_eq!(*a, first, "{}: identical messages split", parser.name());
            }
        }
    }

    /// Differential string-vs-interned leg: symbol ids are
    /// representation, not semantics. Parsing an id-shifted rebuild of
    /// the corpus (same text, every token on a different `Symbol`)
    /// must yield a byte-identical `Parse` — templates, event ids, and
    /// assignments — from every parser, streaming adapters included.
    #[test]
    fn symbol_ids_are_invisible_in_parser_output(corpus in arbitrary_corpus()) {
        let shifted = id_shifted(&corpus);
        for parser in parsers() {
            match (parser.parse(&corpus), parser.parse(&shifted)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a, b, "{}: symbol ids leaked into output", parser.name())
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{}: error behavior changed under id shift", parser.name()),
            }
        }
    }

    /// The same on a masked corpus, where the placeholder symbols are
    /// the ones that move: every number of the corpus is `$NUM`, on
    /// symbol 10-and-up in the shifted build.
    #[test]
    fn symbol_ids_are_invisible_in_parser_output_under_masking(corpus in arbitrary_corpus()) {
        let numbers = Preprocessor::new(vec![MaskRule::Number]);
        let masked = numbers.apply(&corpus);
        let shifted = id_shifted_masked(&corpus, &numbers);
        prop_assert!(same_tokens(&shifted, &masked));
        prop_assert!(masked.symbols(0).iter().zip(shifted.symbols(0)).all(|(a, b)| a != b));
        for parser in parsers() {
            match (parser.parse(&masked), parser.parse(&shifted)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a, b, "{}: symbol ids leaked into output", parser.name())
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{}: error behavior changed under id shift", parser.name()),
            }
        }
    }
}

/// Interning edge: an empty slice still carries its parent's interner
/// (here holding the ten decoy symbols), and every parser must treat it
/// exactly like the truly empty `Corpus::new()` — empty arena, empty
/// symbol table and all.
#[test]
fn empty_corpus_parses_identically_with_and_without_interned_vocabulary() {
    let empty = Corpus::new();
    let shifted = id_shifted(&empty);
    assert!(shifted.is_empty(), "slicing the decoy off left residue");
    assert!(
        !shifted.interner().is_empty(),
        "decoy vocabulary should survive in the shared interner"
    );
    for parser in parsers() {
        match (parser.parse(&empty), parser.parse(&shifted)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: empty-corpus parses diverged", parser.name()),
            (Err(_), Err(_)) => {}
            _ => panic!("{}: empty-corpus error behavior diverged", parser.name()),
        }
    }
}

/// Interning edge: a one-message, one-token corpus — the smallest
/// non-degenerate arena (one row, one symbol). The decoy shift is
/// verified to have actually moved the token's id before comparing.
#[test]
fn single_token_corpus_is_id_independent() {
    let corpus = Corpus::from_lines(["alpha"]);
    let shifted = id_shifted(&corpus);
    assert_eq!(shifted.len(), 1);
    assert_eq!(shifted.tokens(0), ["alpha"]);
    assert_ne!(
        corpus.symbols(0)[0],
        shifted.symbols(0)[0],
        "decoy prefix failed to shift the symbol id"
    );
    for parser in parsers() {
        match (parser.parse(&corpus), parser.parse(&shifted)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{}: single-token parses diverged", parser.name()),
            (Err(_), Err(_)) => {}
            _ => panic!("{}: single-token error behavior diverged", parser.name()),
        }
    }
}
