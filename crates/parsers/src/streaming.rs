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
//! ```

use logparse_core::{ParseError, Symbol, Template, TemplateToken, Tokenizer};

use crate::drain::{DrainTree, DrainTreeState};
use crate::spell::{SpellState, SpellStateSnapshot};
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
    /// `line` is the message content; the parser splits it by the one
    /// token rule ([`Tokenizer`]) and interns the tokens, so a caller
    /// carries nothing but the line.
    fn observe(&mut self, line: &str) -> usize;

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
}

/// Streaming version of [`Drain`] (fixed-depth parse tree).
#[derive(Debug)]
pub struct StreamingDrain {
    tree: DrainTree,
    /// The current line's symbols; reused, so a line allocates nothing.
    row: Vec<Symbol>,
}

impl Default for StreamingDrain {
    fn default() -> Self {
        StreamingDrain::new(Drain::default())
    }
}

impl StreamingDrain {
    /// Creates a streaming parser with the given Drain configuration.
    ///
    /// Unlike the batch parser, the streaming tree does **not** record
    /// member message indices: memory stays proportional to the number
    /// of discovered templates, never to the length of the stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`similarity` outside
    /// `[0, 1]` or `depth < 2`) — the batch API reports the same
    /// conditions as [`logparse_core::ParseError`].
    pub fn new(config: Drain) -> Self {
        StreamingDrain {
            // lint:allow(panic-freedom): documented constructor contract — invalid configuration panics here, the streaming twin of the batch API's ParseError
            tree: DrainTree::new_untracked(config).expect("valid Drain configuration"),
            row: Vec::new(),
        }
    }

    /// Exports the parser's complete incremental state for
    /// checkpointing. Deterministic: equal states produce equal
    /// snapshots.
    pub fn snapshot(&self) -> DrainTreeState {
        self.tree.export_state()
    }

    /// Rebuilds a parser from a snapshot; the restored parser groups
    /// future messages exactly as the original would have.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidConfig`] when the snapshot carries
    /// an invalid configuration or internally inconsistent group ids.
    pub fn restore(state: &DrainTreeState) -> Result<Self, ParseError> {
        Ok(StreamingDrain {
            tree: DrainTree::from_state(state)?,
            row: Vec::new(),
        })
    }
}

impl StreamingParser for StreamingDrain {
    fn observe(&mut self, line: &str) -> usize {
        Tokenizer::new().tokenize_interned(line, self.tree.interner_mut(), &mut self.row);
        self.tree.observe_symbols(&self.row)
    }

    fn group_count(&self) -> usize {
        self.tree.group_count()
    }

    fn vocabulary(&self) -> usize {
        self.tree.interner().len()
    }

    fn template(&self, id: usize) -> Option<Template> {
        self.tree.group_template(id).map(|slots| {
            let interner = self.tree.interner();
            Template::new(
                slots
                    .iter()
                    .map(|slot| match slot {
                        Some(sym) => TemplateToken::literal(interner.resolve(*sym).to_owned()),
                        None => TemplateToken::Wildcard,
                    })
                    .collect(),
            )
        })
    }
}

/// Streaming version of [`Spell`] (LCS objects).
#[derive(Debug)]
pub struct StreamingSpell {
    state: SpellState,
    /// The current line's symbols; reused, so a line allocates nothing.
    row: Vec<Symbol>,
}

impl Default for StreamingSpell {
    fn default() -> Self {
        StreamingSpell::new(Spell::default())
    }
}

impl StreamingSpell {
    /// Creates a streaming parser with the given Spell configuration.
    ///
    /// Unlike the batch parser, the streaming state does **not** record
    /// member message indices: memory stays proportional to the number
    /// of discovered templates, never to the length of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `tau` lies outside `[0, 1]`.
    pub fn new(config: Spell) -> Self {
        StreamingSpell {
            // lint:allow(panic-freedom): documented constructor contract — invalid configuration panics here, the streaming twin of the batch API's ParseError
            state: SpellState::new_untracked(config).expect("valid Spell configuration"),
            row: Vec::new(),
        }
    }

    /// Exports the parser's complete incremental state for
    /// checkpointing.
    pub fn snapshot(&self) -> SpellStateSnapshot {
        self.state.export_state()
    }

    /// Rebuilds a parser from a snapshot; the restored parser groups
    /// future messages exactly as the original would have.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidConfig`] when the snapshot carries
    /// an invalid `tau`.
    pub fn restore(state: &SpellStateSnapshot) -> Result<Self, ParseError> {
        Ok(StreamingSpell {
            state: SpellState::from_state(state)?,
            row: Vec::new(),
        })
    }
}

impl StreamingParser for StreamingSpell {
    fn observe(&mut self, line: &str) -> usize {
        Tokenizer::new().tokenize_interned(line, self.state.interner_mut(), &mut self.row);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ids: Vec<usize> = (0..corpus.len())
            .map(|i| stream.observe(corpus.record(i).content))
            .collect();
        // Same grouping structure (up to id naming).
        for i in 0..corpus.len() {
            for j in 0..corpus.len() {
                assert_eq!(
                    batch.assignments()[i] == batch.assignments()[j],
                    ids[i] == ids[j],
                    "messages {i} and {j} grouped differently"
                );
            }
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
            fn group_count(&self) -> usize {
                3 // over-reported: only id 1 actually has a template
            }
            fn vocabulary(&self) -> usize {
                0
            }
            fn template(&self, id: usize) -> Option<Template> {
                (id == 1).then(|| Template::from_pattern("only *"))
            }
        }
        let templates = Sparse.templates();
        assert_eq!(templates.len(), 1);
        assert_eq!(templates[0].to_string(), "only *");
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
        let snap = p.snapshot();
        let mut q = StreamingDrain::restore(&snap).unwrap();
        assert_eq!(p.templates(), q.templates());
        assert_eq!(q.snapshot(), snap);
        // The restored parser routes future messages identically.
        for line in ["conn from 10.9.9.9 ok", "totally new event shape"] {
            assert_eq!(p.observe(line), q.observe(line), "{line}");
        }
        assert_eq!(p.templates(), q.templates());
    }

    #[test]
    fn drain_restore_rejects_corrupt_snapshots() {
        let mut p = StreamingDrain::default();
        p.observe("a b c");
        let mut snap = p.snapshot();
        snap.leaves[0].2.push(99); // dangling group id
        assert!(StreamingDrain::restore(&snap).is_err());
        let mut bad_config = p.snapshot();
        bad_config.similarity = 7.0;
        assert!(StreamingDrain::restore(&bad_config).is_err());
    }

    #[test]
    fn spell_snapshot_restore_round_trips() {
        let mut p = StreamingSpell::default();
        for line in ["job 17 finished ok", "job 23 finished ok", "mount sda1 ro"] {
            p.observe(line);
        }
        let snap = p.snapshot();
        let mut q = StreamingSpell::restore(&snap).unwrap();
        assert_eq!(p.templates(), q.templates());
        assert_eq!(q.snapshot(), snap);
        for line in ["job 31 finished ok", "umount sda1"] {
            assert_eq!(p.observe(line), q.observe(line), "{line}");
        }
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
        assert_eq!(snap.observed, 100_000);
        assert_eq!(snap.groups.len(), 1);
    }
}
