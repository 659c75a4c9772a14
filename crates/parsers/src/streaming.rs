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
//! Nor does the live symbol table follow the stream. A template keeps
//! literals, not parameters, so most tokens a parser interns are never
//! stored: once the table holds more than twice the tokens its last
//! compaction kept plus a fixed slack of 4 096, the parser rebuilds it
//! with only the tokens its state retains (Drain: `*`, template literals
//! and leaf-path tokens; Spell: skeleton tokens) through
//! [`Interner::compaction`], and remaps every stored symbol. Groupings
//! cannot change — the state compares a line's symbols only with
//! retained ones, and a dropped token seen again gets a fresh id that
//! matches none of them, as an unseen token does — and blobs, written
//! as strings, are byte-identical with or without compactions. On a
//! closed vocabulary the table never reaches the slack and no
//! compaction runs.
//!
//! [`Interner::compaction`]: logparse_core::Interner::compaction
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

use logparse_core::{
    line_spans, walk_kept_lines, EventId, Json, LineSource, Parse, ParseError, Preprocessor,
    Symbol, Template, TemplateToken, TokenSpan,
};

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

    /// Distinct tokens in the parser's symbol table: those its state
    /// retains (template literals and path tokens, or skeletons) plus
    /// those seen since its last compaction. Drain and Spell compact once
    /// this passes twice what the last compaction kept plus a fixed
    /// slack (see the module docs), so on a stream with fresh parameters
    /// in every line it follows the templates, not the stream.
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

/// Tokens a streaming parser's symbol table may hold beyond twice what
/// its last compaction kept before it compacts again. It keeps a parser
/// whose state retains few tokens from compacting every few lines; on a
/// closed vocabulary (a few hundred tokens) the table never reaches it.
const COMPACTION_SLACK: usize = 4_096;

/// When a streaming parser rebuilds its symbol table: once the table
/// holds more than twice the tokens the last compaction kept (or the
/// parser started with) plus [`COMPACTION_SLACK`]. Each rebuild walks
/// the state once, so its cost is paid for by the tokens interned since
/// the last one, and the table stays within `2 × kept + slack`.
#[derive(Debug)]
struct Budget {
    kept: usize,
    /// [`COMPACTION_SLACK`]; the equivalence tests set a few tokens, to
    /// compact every few lines, or `usize::MAX`, never to compact.
    slack: usize,
}

impl Budget {
    fn new(kept: usize) -> Self {
        Budget {
            kept,
            slack: COMPACTION_SLACK,
        }
    }

    fn exceeded_by(&self, vocabulary: usize) -> bool {
        vocabulary > self.kept.saturating_mul(2).saturating_add(self.slack)
    }
}

/// Streaming version of [`Drain`] (fixed-depth parse tree).
#[derive(Debug)]
pub struct StreamingDrain {
    tree: DrainTree,
    budget: Budget,
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
    /// does), and its symbol table is compacted to the tokens the tree
    /// retains, so memory follows the templates, never the length of the
    /// stream.
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
            budget: Budget::new(tree.interner().len()),
            tree,
            row: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Routes the interned row, then compacts the table if it is over
    /// budget; the row's symbols are dead by then.
    fn observe_row(&mut self) -> usize {
        let id = self.tree.observe_symbols(&self.row);
        if self.budget.exceeded_by(self.tree.interner().len()) {
            self.budget.kept = self.tree.compact();
        }
        id
    }
}

impl StreamingParser for StreamingDrain {
    fn observe(&mut self, line: &str) -> usize {
        let spans = line_spans(line, &mut self.spans);
        self.tree
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.observe_row()
    }

    fn observe_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>) -> usize {
        self.tree
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.observe_row()
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

/// Drain's parse of the kept lines of `source`, each token masked by
/// `preprocessor`, without a corpus: each line goes from the walk's one
/// scan ([`walk_kept_lines`]) straight into a [`StreamingDrain`] at
/// [`Drain::default`], whose group ids are the batch parse's event ids
/// (both count in creation order). The parse equals `Drain::default()`'s
/// of the corpus a build of `source` gives, and the run holds the tree,
/// one read window and 4 bytes a line. `logmine parse --parser drain` at
/// `-j 1` and a `jobs` worker's Drain chunk both parse this way.
///
/// # Errors
///
/// As [`walk_kept_lines`]: the source cannot be read, holds a line that
/// is not valid UTF-8, or is a byte range the range build refuses.
pub fn stream_drain(
    source: LineSource<'_>,
    preprocessor: &Preprocessor,
) -> Result<Parse, ParseError> {
    let mut drain = StreamingDrain::default();
    let mut assignments = Vec::new();
    walk_kept_lines(source, preprocessor, |line, spans| {
        assignments.push(Some(EventId::new(drain.observe_spans(line, spans))));
    })?;
    Ok(Parse::new(drain.templates(), assignments))
}

/// Streaming version of [`Spell`] (LCS objects).
#[derive(Debug)]
pub struct StreamingSpell {
    state: SpellState,
    budget: Budget,
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
    /// does), and its symbol table is compacted to the skeleton tokens,
    /// so memory follows the templates, never the length of the stream.
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
            budget: Budget::new(state.interner().len()),
            state,
            row: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Assigns the interned row, then compacts the table if it is over
    /// budget; the row's symbols are dead by then.
    fn observe_row(&mut self) -> usize {
        let id = self.state.observe_symbols(&self.row);
        if self.budget.exceeded_by(self.state.interner().len()) {
            self.budget.kept = self.state.compact();
        }
        id
    }
}

impl StreamingParser for StreamingSpell {
    fn observe(&mut self, line: &str) -> usize {
        let spans = line_spans(line, &mut self.spans);
        self.state
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.observe_row()
    }

    fn observe_spans(&mut self, line: &str, spans: Option<&[TokenSpan]>) -> usize {
        self.state
            .interner_mut()
            .intern_spans(line, spans, &mut self.row);
        self.observe_row()
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
    use logparse_core::{FramedLine, LineDamage, LineFramer};
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
        let data = logparse_datasets::hdfs::generate(2_000, 7);
        spans_observe_like_the_line(data.text().as_bytes());
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

    /// Enough `hdfs` lines (fresh block ids and addresses in most) for
    /// the streaming table to compact at its default budget several
    /// times, while the batch table never does.
    const MATCH_LINES: usize = 20_000;

    #[test]
    fn streaming_drain_matches_batch_drain() {
        use logparse_core::LogParser;
        let data = logparse_datasets::hdfs::generate(MATCH_LINES, 7);
        let corpus = &data.corpus;
        let batch = Drain::default().parse(corpus).unwrap();
        let mut stream = StreamingDrain::default();
        // Both count ids in creation order, so they agree id for id.
        for (i, assigned) in batch.assignments().iter().enumerate() {
            let id = stream.observe(data.line(i));
            assert_eq!(assigned.map(EventId::index), Some(id), "message {i}");
        }
        assert_eq!(batch.event_count(), stream.group_count());
        assert_eq!(batch.templates(), stream.templates());
        assert!(corpus.interner().len() > 2 * COMPACTION_SLACK + stream.vocabulary());
    }

    #[test]
    fn streaming_spell_matches_batch_spell() {
        use logparse_core::LogParser;
        let data = logparse_datasets::hdfs::generate(MATCH_LINES, 7);
        let corpus = &data.corpus;
        let batch = Spell::default().parse(corpus).unwrap();
        let mut stream = StreamingSpell::default();
        // No generated line is empty, so batch leaves no outlier and
        // both count ids in creation order.
        for (i, assigned) in batch.assignments().iter().enumerate() {
            let id = stream.observe(data.line(i));
            assert_eq!(assigned.map(EventId::index), Some(id), "message {i}");
        }
        assert_eq!(batch.event_count(), stream.group_count());
        assert!(corpus.interner().len() > 2 * COMPACTION_SLACK + stream.vocabulary());
    }

    /// One line of a compaction stream; its fresh tokens are numbered
    /// when the stream is written out.
    #[derive(Debug, Clone)]
    enum Piece {
        /// A line of a small `hdfs` corpus (fresh block ids in most).
        Hdfs(usize),
        /// A fixed shape with a fresh digit-bearing id in the middle.
        FreshId,
        /// A fresh digit-free head token: a new Drain path per line until
        /// `max_children` sends the rest down the `*` branch.
        FreshHead,
        /// A literal `*`, which shares the wildcard's path symbol.
        Star,
        /// Whitespace and bytes the framer repairs or splits oddly.
        Hostile(&'static [u8]),
    }

    fn piece() -> impl Strategy<Value = Piece> {
        prop_oneof![
            (0usize..200).prop_map(Piece::Hdfs),
            Just(Piece::FreshId),
            Just(Piece::FreshHead),
            Just(Piece::Star),
            prop_oneof![
                Just(&b"\xff open \xfe"[..]),
                Just("a\u{a0}b c\u{85}d".as_bytes()),
                Just(&b"\r"[..]),
                Just(&b" \x0b\x0c "[..]),
                Just(&b""[..]),
                Just(&b"* * *"[..]),
            ]
            .prop_map(Piece::Hostile),
        ]
    }

    /// The lines of `pieces`, newline-terminated, each fresh token new.
    fn compaction_stream(pieces: &[Piece]) -> Vec<u8> {
        let hdfs = logparse_datasets::hdfs::generate(200, 11);
        let mut bytes = Vec::new();
        for (n, piece) in pieces.iter().enumerate() {
            match piece {
                Piece::Hdfs(i) => bytes.extend_from_slice(hdfs.line(*i).as_bytes()),
                Piece::FreshId => bytes.extend(format!("req id={n:x} served ok").bytes()),
                Piece::FreshHead => {
                    // `n` in base 26, as letters: digit-free, so Drain
                    // keeps it as a path token.
                    let mut head = vec![b'h'];
                    let mut rest = n;
                    while rest > 0 {
                        head.push(b'a' + (rest % 26) as u8);
                        rest /= 26;
                    }
                    bytes.extend_from_slice(&head);
                    bytes.extend_from_slice(b" opened a session");
                }
                Piece::Star => bytes.extend_from_slice(b"* fixed tail here"),
                Piece::Hostile(raw) => bytes.extend_from_slice(raw),
            }
            bytes.push(b'\n');
        }
        bytes
    }

    /// A parser with a budget slack of `slack` tokens against one that
    /// never compacts, over `bytes` as `serve` frames them: the same id
    /// for every line, and the same templates and snapshot bytes at the
    /// end. Returns the compacting parser's vocabulary.
    fn compacts_like_it_never_does<P: StreamingParser>(
        bytes: &[u8],
        new: impl Fn(usize) -> P,
        slack: usize,
    ) -> usize {
        let (mut compacting, mut keeping) = (new(slack), new(usize::MAX));
        framed(bytes, |line, spans| {
            assert_eq!(
                compacting.observe_spans(line, spans),
                keeping.observe_spans(line, spans),
                "{line:?}"
            );
        });
        assert_eq!(compacting.templates(), keeping.templates());
        assert_eq!(
            compacting.snapshot().to_string(),
            keeping.snapshot().to_string()
        );
        compacting.vocabulary()
    }

    fn drain_with_slack(config: Drain) -> impl Fn(usize) -> StreamingDrain {
        move |slack| {
            let mut drain = StreamingDrain::new(config.clone());
            drain.budget.slack = slack;
            drain
        }
    }

    fn spell_with_slack(slack: usize) -> StreamingSpell {
        let mut spell = StreamingSpell::default();
        spell.budget.slack = slack;
        spell
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Compacting a few tokens past the budget changes nothing a
        /// caller can see, at Drain's default `max_children` and at one
        /// that fresh head tokens exceed within a few lines.
        #[test]
        fn compaction_is_invisible(
            pieces in proptest::collection::vec(piece(), 0..300),
            slack in 0usize..6,
        ) {
            let bytes = compaction_stream(&pieces);
            for config in [Drain::default(), Drain::builder().max_children(3).build()] {
                compacts_like_it_never_does(&bytes, drain_with_slack(config), slack);
            }
            compacts_like_it_never_does(&bytes, spell_with_slack, slack);
        }
    }

    /// The distinct literal tokens of `parser`'s templates.
    fn literals(parser: &dyn StreamingParser) -> std::collections::BTreeSet<String> {
        let mut literals = std::collections::BTreeSet::new();
        for template in parser.templates() {
            for token in template.tokens() {
                if let TemplateToken::Literal(text) = token {
                    literals.insert(text.clone());
                }
            }
        }
        literals
    }

    /// 100 000 lines with a fresh token each: the table stays within
    /// twice what the state retains plus the slack (without compaction
    /// it would hold more than 100 000 tokens).
    #[test]
    fn the_vocabulary_follows_the_templates_not_the_stream() {
        let shapes = [
            "session id={} opened",
            "worker started job {} on node-3",
            "request {} served from cache",
        ];
        let mut drain = StreamingDrain::default();
        let mut spell = StreamingSpell::default();
        for n in 0..100_000usize {
            let line = shapes[n % shapes.len()].replace("{}", &n.to_string());
            drain.observe(&line);
            spell.observe(&line);
        }
        // Drain retains `*` besides its literals.
        let retained = [literals(&drain).len() + 1, literals(&spell).len()];
        for (vocabulary, retained) in [drain.vocabulary(), spell.vocabulary()]
            .into_iter()
            .zip(retained)
        {
            assert!(retained < 20, "{retained} retained");
            assert!(
                vocabulary <= 2 * retained + COMPACTION_SLACK,
                "{vocabulary} tokens for {retained} retained"
            );
        }
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
