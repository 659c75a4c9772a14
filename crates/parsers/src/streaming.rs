//! Online (streaming) log parsing.
//!
//! The batch [`logparse_core::LogParser`] contract parses a closed
//! corpus, but Drain and Spell are inherently *online* algorithms: they
//! process one message at a time and maintain their group state
//! incrementally, which is how production log pipelines deploy them.
//! [`StreamingParser`] exposes that mode: feed messages as they arrive,
//! get a stable group id back immediately, and snapshot the templates at
//! any point.
//!
//! A streaming parser's state has two forms: the live one (Drain's tree,
//! Spell's LCS objects, on interned symbols) and its checkpoint blob, a
//! [`Json`] document of resolved strings. [`StreamingParser::snapshot`]
//! writes the blob; each parser's `from_json` ([`StreamingDrain::from_json`],
//! [`StreamingSpell::from_json`]) is the one decoder that reads it back.
//! Neither form keeps anything per message, so a blob follows the
//! templates, not the length of the stream.
//!
//! # Example
//!
//! ```
//! use logparse_parsers::{StreamingDrain, StreamingParser};
//!
//! let mut parser = StreamingDrain::default();
//! let a = parser.observe("send pkt 7");
//! let b = parser.observe("send pkt 9");
//! assert_eq!(a, b); // same event, recognized online
//! assert_eq!(parser.group_count(), 1);
//! assert_eq!(parser.template(a).unwrap().to_string(), "send pkt *");
//!
//! // Checkpoint and restore: the restored parser carries on alike.
//! let blob = parser.snapshot().to_string();
//! let doc = logparse_core::Json::parse(&blob).unwrap();
//! let mut restored = StreamingDrain::from_json(&doc).unwrap();
//! assert_eq!(restored.observe("send pkt 11"), a);
//! ```

use logparse_core::{line_spans, Json, ParseError, Symbol, Template, TemplateToken, TokenSpan};

use crate::drain::DrainTree;
use crate::spell::SpellState;
use crate::{Drain, Spell};

/// An online log parser: messages stream in, group ids stream out.
///
/// Group ids are dense (`0..group_count()`) and **stable**: once a
/// message is assigned id `g`, later observations never change that
/// id's identity (its template may gain wildcards as the group absorbs
/// more variety).
pub trait StreamingParser {
    /// Assigns the next message to a group, creating one if needed.
    ///
    /// `line` is the message content; the parser splits it by the
    /// corpus's token rule — one scan of the line for its token spans
    /// ([`line_spans`]), then [`Interner::intern_spans`] — and interns
    /// the tokens, so a caller carries nothing but the line.
    ///
    /// [`line_spans`]: logparse_core::line_spans
    /// [`Interner::intern_spans`]: logparse_core::Interner::intern_spans
    fn observe(&mut self, line: &str) -> usize;

    /// [`observe`](StreamingParser::observe) of a line whose token spans
    /// a scan already found — a [`FramedLine`]'s: the same group as
    /// `observe(line)`, without scanning the line again. `None` splits
    /// the line by `split_whitespace`, as for a framed line without
    /// spans.
    ///
    /// [`FramedLine`]: logparse_core::FramedLine
    fn observe_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>) -> usize;

    /// Number of groups discovered so far.
    fn group_count(&self) -> usize;

    /// Distinct tokens the parser has interned so far. Nothing is ever
    /// forgotten, so on a stream with fresh parameters in every line
    /// this — not the group count — is what the parser's memory follows.
    fn vocabulary(&self) -> usize;

    /// The current template of group `id`, or `None` if out of range.
    fn template(&self, id: usize) -> Option<Template>;

    /// All current templates in group-id order.
    ///
    /// Total for any implementation: ids the implementation cannot
    /// produce a template for (a `group_count()` that over-reports, or a
    /// sparse id space) are skipped rather than panicking, so snapshots
    /// taken mid-stream are always safe.
    fn templates(&self) -> Vec<Template> {
        (0..self.group_count())
            .filter_map(|id| self.template(id))
            .collect()
    }

    /// The parser's complete state as its checkpoint blob document.
    /// Deterministic: equal states write equal documents, and the
    /// parser's `from_json` restores one that groups future messages
    /// exactly as this parser would.
    fn snapshot(&self) -> Json;
}

/// A snapshot document's field `key`, read by `read`.
pub(crate) fn blob_field<'a, T>(
    doc: &'a Json,
    key: &'static str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ParseError> {
    doc.get(key).and_then(read).ok_or_else(|| malformed(key))
}

/// A snapshot document whose `what` is missing or of the wrong shape.
pub(crate) fn malformed(what: &str) -> ParseError {
    ParseError::InvalidConfig {
        parameter: "snapshot",
        reason: format!("missing or malformed {what}"),
    }
}

/// Streaming version of [`Drain`] (fixed-depth parse tree).
#[derive(Debug)]
pub struct StreamingDrain {
    tree: DrainTree,
    /// The current line's symbols; reused, so a line allocates nothing.
    row: Vec<Symbol>,
    /// The current line's token spans when [`observe`] scans it; reused.
    ///
    /// [`observe`]: StreamingParser::observe
    spans: Vec<TokenSpan>,
}

impl Default for StreamingDrain {
    fn default() -> Self {
        StreamingDrain::new(Drain::default())
    }
}

impl StreamingDrain {
    /// Creates a streaming parser with the given Drain configuration.
    ///
    /// The tree keeps nothing per message (a caller that wants
    /// per-message ids keeps what `observe` returns, as the batch parser
    /// does), so memory follows the templates and the vocabulary, never
    /// the length of the stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`similarity` outside
    /// `[0, 1]` or `depth < 2`) — the batch API reports the same
    /// conditions as [`logparse_core::ParseError`].
    pub fn new(config: Drain) -> Self {
        // lint:allow(panic-freedom): documented constructor contract — invalid configuration panics here, the streaming twin of the batch API's ParseError
        StreamingDrain::with_tree(DrainTree::new(config).expect("valid Drain configuration"))
    }

    /// Restores a parser from its [`snapshot`](StreamingParser::snapshot)
    /// document; the restored parser groups future messages exactly as
    /// the original would have.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidConfig`] when the document carries
    /// an invalid configuration, misses a field or has one of the wrong
    /// shape, or names a group it does not hold.
    pub fn from_json(doc: &Json) -> Result<Self, ParseError> {
        DrainTree::from_json(doc).map(StreamingDrain::with_tree)
    }

    fn with_tree(tree: DrainTree) -> Self {
        StreamingDrain {
            tree,
            row: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl StreamingParser for StreamingDrain {
    fn observe(&mut self, line: &str) -> usize {
        let spans = line_spans(line, &mut self.spans);
        self.tree
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.tree.observe_symbols(&self.row)
    }

    fn observe_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>) -> usize {
        self.tree
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.tree.observe_symbols(&self.row)
    }

    fn group_count(&self) -> usize {
        self.tree.group_count()
    }

    fn vocabulary(&self) -> usize {
        self.tree.interner().len()
    }

    fn template(&self, id: usize) -> Option<Template> {
        self.tree.template(id)
    }

    fn snapshot(&self) -> Json {
        self.tree.to_json()
    }
}

/// Streaming version of [`Spell`] (LCS objects).
#[derive(Debug)]
pub struct StreamingSpell {
    state: SpellState,
    /// The current line's symbols; reused, so a line allocates nothing.
    row: Vec<Symbol>,
    /// The current line's token spans when [`observe`] scans it; reused.
    ///
    /// [`observe`]: StreamingParser::observe
    spans: Vec<TokenSpan>,
}

impl Default for StreamingSpell {
    fn default() -> Self {
        StreamingSpell::new(Spell::default())
    }
}

impl StreamingSpell {
    /// Creates a streaming parser with the given Spell configuration.
    ///
    /// The state keeps nothing per message (a caller that wants
    /// per-message ids keeps what `observe` returns, as the batch parser
    /// does), so memory follows the templates and the vocabulary, never
    /// the length of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `tau` lies outside `[0, 1]`.
    pub fn new(config: Spell) -> Self {
        // lint:allow(panic-freedom): documented constructor contract — invalid configuration panics here, the streaming twin of the batch API's ParseError
        StreamingSpell::with_state(SpellState::new(config).expect("valid Spell configuration"))
    }

    /// Restores a parser from its [`snapshot`](StreamingParser::snapshot)
    /// document; the restored parser groups future messages exactly as
    /// the original would have.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidConfig`] when the document carries
    /// an invalid `tau`, or misses a field or has one of the wrong shape.
    pub fn from_json(doc: &Json) -> Result<Self, ParseError> {
        SpellState::from_json(doc).map(StreamingSpell::with_state)
    }

    fn with_state(state: SpellState) -> Self {
        StreamingSpell {
            state,
            row: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl StreamingParser for StreamingSpell {
    fn observe(&mut self, line: &str) -> usize {
        let spans = line_spans(line, &mut self.spans);
        self.state
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.state.observe_symbols(&self.row)
    }

    fn observe_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>) -> usize {
        self.state
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.state.observe_symbols(&self.row)
    }

    fn group_count(&self) -> usize {
        self.state.group_count()
    }

    fn vocabulary(&self) -> usize {
        self.state.interner().len()
    }

    fn template(&self, id: usize) -> Option<Template> {
        self.state.group_skeleton(id).map(|skeleton| {
            let interner = self.state.interner();
            Template::with_open_tail(
                skeleton
                    .iter()
                    .map(|&t| TemplateToken::literal(interner.resolve(t).to_owned()))
                    .collect(),
            )
        })
    }

    fn snapshot(&self) -> Json {
        self.state.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_core::{EventId, FramedLine, LineDamage, LineFramer};
    use proptest::prelude::*;

    /// Cuts `bytes` into lines as `serve` does, a framer read at a time,
    /// and hands each line to `each` with its spans.
    fn framed(bytes: &[u8], mut each: impl FnMut(&str, Option<&[TokenSpan]>)) {
        let (mut framer, mut damage) = (LineFramer::default(), LineDamage::default());
        let mut hand = |line: FramedLine<'_>| each(line.text, line.spans);
        let mut rest = bytes;
        while !rest.is_empty() {
            framer.fill_from(&mut rest).unwrap();
            while framer.pop_lines(&mut damage, &mut hand) > 0 {}
        }
        framer.finish(&mut damage, &mut hand);
    }

    /// Three parsers of each kind over the lines of `bytes`: fed the
    /// framer's spans, fed the line (`observe` scans it), and fed no
    /// spans (`split_whitespace`, the corpus's rule): same id for every
    /// line, and the same templates and snapshot at the end.
    fn spans_observe_like_the_line(bytes: &[u8]) {
        let mut drains: [StreamingDrain; 3] = Default::default();
        let mut spells: [StreamingSpell; 3] = Default::default();
        let mut lines = 0;
        framed(bytes, |line, spans| {
            lines += 1;
            let drain = [
                drains[0].observe_spans(line, spans),
                drains[1].observe(line),
                drains[2].observe_spans(line, None),
            ];
            assert_eq!([drain[0]; 3], drain, "{line:?}");
            let spell = [
                spells[0].observe_spans(line, spans),
                spells[1].observe(line),
                spells[2].observe_spans(line, None),
            ];
            assert_eq!([spell[0]; 3], spell, "{line:?}");
        });
        assert!(bytes.is_empty() || lines > 0);
        for other in &drains[1..] {
            assert_eq!(drains[0].templates(), other.templates());
            assert_eq!(drains[0].snapshot(), other.snapshot());
        }
        for other in &spells[1..] {
            assert_eq!(spells[0].templates(), other.templates());
            assert_eq!(spells[0].snapshot(), other.snapshot());
        }
    }

    #[test]
    fn spans_observe_like_the_line_on_hdfs() {
        let corpus = logparse_datasets::hdfs::generate(2_000, 7).corpus;
        let mut bytes = Vec::new();
        for i in 0..corpus.len() {
            bytes.extend_from_slice(corpus.record(i).content.as_bytes());
            bytes.push(b'\n');
        }
        spans_observe_like_the_line(&bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lines of few words in many spellings of whitespace: every
        /// ASCII one, CRLF, U+00A0 and U+0085 (which only the char rule
        /// splits at), an invalid byte, and now and then a line past the
        /// spans' 64 KiB.
        #[test]
        fn spans_observe_like_the_line_on_hostile_bytes(
            pieces in proptest::collection::vec(
                prop_oneof![
                    Just(b"\n".to_vec()),
                    Just(b"\r\n".to_vec()),
                    Just(b"\x0b".to_vec()),
                    Just(b"\x0c".to_vec()),
                    Just(b"\r".to_vec()),
                    Just(b" ".to_vec()),
                    Just(b"  \t".to_vec()),
                    Just("\u{a0}".as_bytes().to_vec()),
                    Just("\u{85}".as_bytes().to_vec()),
                    Just(b"\xff".to_vec()),
                    Just(b"open file".to_vec()),
                    Just(b"close".to_vec()),
                    "[0-9]{1,2}".prop_map(String::into_bytes),
                    "blk_[a-c]".prop_map(String::into_bytes),
                    (65_528usize..65_534).prop_map(|n| {
                        // Just under to just over the spans' limit, in
                        // few tokens (Spell's LCS is quadratic in them).
                        let mut long = b"long ".to_vec();
                        long.resize(n, b'q');
                        long.extend_from_slice(b" tail");
                        long
                    }),
                ],
                0..60,
            ),
        ) {
            spans_observe_like_the_line(&pieces.concat());
        }
    }

    #[test]
    fn drain_streams_consistent_ids() {
        let mut p = StreamingDrain::default();
        let a = p.observe("conn from 10.0.0.1 ok");
        let b = p.observe("conn from 10.0.0.2 ok");
        let c = p.observe("disk full on sda1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.group_count(), 2);
    }

    #[test]
    fn drain_templates_refine_over_time() {
        let mut p = StreamingDrain::default();
        let g = p.observe("send pkt 1 ok");
        assert_eq!(p.template(g).unwrap().to_string(), "send pkt 1 ok");
        p.observe("send pkt 2 ok");
        assert_eq!(p.template(g).unwrap().to_string(), "send pkt * ok");
    }

    #[test]
    fn spell_streams_lcs_groups() {
        let mut p = StreamingSpell::default();
        let a = p.observe("job 17 finished ok");
        let b = p.observe("job 23 finished ok");
        assert_eq!(a, b);
        let t = p.template(a).unwrap().to_string();
        assert!(t.contains("job") && t.contains("finished"), "{t}");
    }

    #[test]
    fn streaming_drain_matches_batch_drain() {
        use logparse_core::LogParser;
        let corpus = logparse_datasets::hdfs::generate(300, 7).corpus;
        let batch = Drain::default().parse(&corpus).unwrap();
        let mut stream = StreamingDrain::default();
        // Both count ids in creation order, so they agree id for id.
        for (i, assigned) in batch.assignments().iter().enumerate() {
            let id = stream.observe(corpus.record(i).content);
            assert_eq!(assigned.map(EventId::index), Some(id), "message {i}");
        }
        assert_eq!(batch.event_count(), stream.group_count());
        assert_eq!(batch.templates(), stream.templates());
    }

    #[test]
    fn streaming_spell_matches_batch_spell() {
        use logparse_core::LogParser;
        let corpus = logparse_datasets::hdfs::generate(300, 7).corpus;
        let batch = Spell::default().parse(&corpus).unwrap();
        let mut stream = StreamingSpell::default();
        // No generated line is empty, so batch leaves no outlier and
        // both count ids in creation order.
        for (i, assigned) in batch.assignments().iter().enumerate() {
            let id = stream.observe(corpus.record(i).content);
            assert_eq!(assigned.map(EventId::index), Some(id), "message {i}");
        }
        assert_eq!(batch.event_count(), stream.group_count());
    }

    #[test]
    fn templates_snapshot_is_dense() {
        let mut p = StreamingDrain::default();
        p.observe("a b");
        p.observe("c d e");
        assert_eq!(p.templates().len(), 2);
        assert!(p.template(5).is_none());
    }

    #[test]
    fn empty_message_gets_its_own_group() {
        let mut p = StreamingDrain::default();
        let g = p.observe("");
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.template(g).unwrap().len(), 0);
    }

    /// Regression: the default `templates()` used to
    /// `expect("dense group ids")` and panicked on any implementation
    /// whose `group_count` over-reports. It must be total.
    #[test]
    fn templates_tolerates_sparse_implementations() {
        struct Sparse;
        impl StreamingParser for Sparse {
            fn observe(&mut self, _line: &str) -> usize {
                0
            }
            fn observe_spans(&mut self, _line: &str, _spans: Option<&[TokenSpan]>) -> usize {
                0
            }
            fn group_count(&self) -> usize {
                3 // over-reported: only id 1 actually has a template
            }
            fn vocabulary(&self) -> usize {
                0
            }
            fn template(&self, id: usize) -> Option<Template> {
                (id == 1).then(|| Template::from_pattern("only *"))
            }
            fn snapshot(&self) -> Json {
                Json::Null
            }
        }
        let templates = Sparse.templates();
        assert_eq!(templates.len(), 1);
        assert_eq!(templates[0].to_string(), "only *");
    }

    /// `parser`'s blob through its text form, as a checkpoint stores it.
    fn blob(parser: &dyn StreamingParser) -> Json {
        let text = parser.snapshot().to_string();
        // Deterministic: a second encode is byte-identical.
        assert_eq!(parser.snapshot().to_string(), text);
        Json::parse(&text).unwrap()
    }

    /// `doc` with its top-level field `key` replaced by `value`.
    fn with_field(doc: Json, key: &str, value: &str) -> Json {
        let Json::Obj(mut fields) = doc else {
            panic!("a snapshot is an object");
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::parse(value).unwrap();
        Json::Obj(fields)
    }

    #[test]
    fn drain_snapshot_restore_round_trips() {
        let mut p = StreamingDrain::default();
        for line in [
            "conn from 10.0.0.1 ok",
            "conn from 10.0.0.2 ok",
            "disk full on sda1",
            "conn from 10.0.0.3 failed",
        ] {
            p.observe(line);
        }
        let snap = blob(&p);
        let mut q = StreamingDrain::from_json(&snap).unwrap();
        assert_eq!(p.templates(), q.templates());
        assert_eq!(q.snapshot(), snap);
        // The restored parser routes future messages identically.
        for line in ["conn from 10.9.9.9 ok", "totally new event shape"] {
            assert_eq!(p.observe(line), q.observe(line), "{line}");
        }
        assert_eq!(p.templates(), q.templates());
        assert_eq!(p.snapshot(), q.snapshot());
    }

    #[test]
    fn drain_restore_rejects_corrupt_snapshots() {
        let mut p = StreamingDrain::default();
        p.observe("a b c");
        let snap = blob(&p);
        assert!(StreamingDrain::from_json(&snap).is_ok());
        let dangling = with_field(snap.clone(), "leaves", r#"[[3,["a","b"],[0,99]]]"#);
        assert_eq!(
            StreamingDrain::from_json(&dangling)
                .unwrap_err()
                .to_string(),
            "invalid configuration for `snapshot`: leaf references group 99 of 1"
        );
        let bad_config = with_field(snap.clone(), "similarity", "7");
        assert!(StreamingDrain::from_json(&bad_config).is_err());
        for (key, value) in [
            ("groups", r#"[["a",7,"c"]]"#),
            ("leaves", r#"[[3,["a"]]]"#),
            ("paths", "[[3]]"),
            ("observed", "-1"),
            ("depth", r#""4""#),
        ] {
            let broken = with_field(snap.clone(), key, value);
            assert!(
                StreamingDrain::from_json(&broken).is_err(),
                "{key}: {value}"
            );
        }
    }

    #[test]
    fn spell_snapshot_restore_round_trips() {
        let mut p = StreamingSpell::default();
        for line in ["job 17 finished ok", "job 23 finished ok", "mount sda1 ro"] {
            p.observe(line);
        }
        let snap = blob(&p);
        let mut q = StreamingSpell::from_json(&snap).unwrap();
        assert_eq!(p.templates(), q.templates());
        assert_eq!(q.snapshot(), snap);
        for line in ["job 31 finished ok", "umount sda1"] {
            assert_eq!(p.observe(line), q.observe(line), "{line}");
        }
        assert_eq!(p.snapshot(), q.snapshot());
        let bad_tau = with_field(snap.clone(), "tau", "1.5");
        assert!(StreamingSpell::from_json(&bad_tau).is_err());
        let bad_token = with_field(snap, "skeletons", r#"[["job",null]]"#);
        assert!(StreamingSpell::from_json(&bad_token).is_err());
    }

    /// A blob of one parser's shape is refused by the other, not misread.
    #[test]
    fn each_parser_refuses_the_others_blob() {
        let (mut drain, mut spell) = (StreamingDrain::default(), StreamingSpell::default());
        for line in ["job 1 done", "job 2 done", "link up"] {
            drain.observe(line);
            spell.observe(line);
        }
        assert!(StreamingDrain::from_json(&spell.snapshot()).is_err());
        assert!(StreamingSpell::from_json(&drain.snapshot()).is_err());
    }

    #[test]
    fn streaming_memory_is_bounded_by_group_state() {
        // 100k observations of one event shape: the streaming tree keeps
        // one group and no member list, so the snapshot stays tiny.
        let mut p = StreamingDrain::default();
        for i in 0..100_000 {
            p.observe(&format!("send pkt {i} ok"));
        }
        assert_eq!(p.group_count(), 1);
        let snap = p.snapshot();
        assert_eq!(snap.get("observed").and_then(Json::as_usize), Some(100_000));
        assert_eq!(
            snap.get("groups").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}
