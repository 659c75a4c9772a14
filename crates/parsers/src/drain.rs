//! Drain — fixed-depth parse tree log parser (He, Zhu, Zheng, Lyu;
//! ICWS 2017).
//!
//! Drain is **not** one of the four methods the DSN'16 study evaluates;
//! it is the parser the authors' follow-on LogPAI toolkit added next, and
//! is included here as an extension baseline for the ablation
//! experiments. It routes each message through a fixed-depth prefix tree
//! (first by token count, then by the first few tokens, with any token
//! containing digits generalized to `*`), then joins the most similar
//! leaf group if the positionwise similarity exceeds a threshold.
//!
//! Drain is an online algorithm; the batch [`LogParser`] impl here and
//! the incremental [`crate::StreamingDrain`] share the same
//! [`DrainTree`] state machine. The tree works on interned
//! [`Symbol`]s throughout: leaf paths are symbol vectors, group
//! templates are `Option<Symbol>` slots, and similarity is integer
//! compares. The batch parser clones the corpus interner (corpus
//! symbols stay valid in the clone), so its hot loop never hashes a
//! token string; the streaming path interns each incoming token once.

use std::collections::HashMap;

use logparse_core::{
    Corpus, EventId, Interner, LogParser, Parse, ParseBuilder, ParseError, Symbol,
};

/// The Drain parser configuration. Construct via [`Drain::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser, Tokenizer};
/// use logparse_parsers::Drain;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines(
///     ["send packet 1 to host7", "send packet 2 to host9"],
///     &Tokenizer::default(),
/// );
/// let parse = Drain::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Drain {
    depth: usize,
    similarity: f64,
    max_children: usize,
}

impl Default for Drain {
    fn default() -> Self {
        Drain {
            depth: 4,
            similarity: 0.5,
            max_children: 100,
        }
    }
}

impl Drain {
    /// Starts building a Drain configuration.
    pub fn builder() -> DrainBuilder {
        DrainBuilder::default()
    }
}

/// Builder for [`Drain`].
#[derive(Debug, Clone, Default)]
pub struct DrainBuilder {
    depth: Option<usize>,
    similarity: Option<f64>,
    max_children: Option<usize>,
}

impl DrainBuilder {
    /// Tree depth, counting the length layer and token layers (default 4,
    /// i.e. two leading token layers).
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Similarity threshold for joining an existing leaf group
    /// (default 0.5).
    #[must_use]
    pub fn similarity(mut self, similarity: f64) -> Self {
        self.similarity = Some(similarity);
        self
    }

    /// Maximum children per internal node before new token values fall
    /// through to a `*` branch (default 100).
    #[must_use]
    pub fn max_children(mut self, max_children: usize) -> Self {
        self.max_children = Some(max_children);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Drain {
        let d = Drain::default();
        Drain {
            depth: self.depth.unwrap_or(d.depth),
            similarity: self.similarity.unwrap_or(d.similarity),
            max_children: self.max_children.unwrap_or(d.max_children),
        }
    }
}

/// A leaf group: the running template (`None` = wildcard) plus member
/// observation indices.
#[derive(Debug)]
struct Group {
    template: Vec<Option<Symbol>>,
    members: Vec<usize>,
}

/// A complete, deterministic serialization of a Drain tree: the
/// configuration plus every leaf path and group template (`None` slots
/// are wildcards). Produced by [`crate::StreamingDrain::snapshot`] and
/// consumed by [`crate::StreamingDrain::restore`]; member indices are
/// deliberately not part of the state (checkpoints stay proportional to
/// the number of templates, not the length of the stream). Snapshots
/// carry resolved strings, not symbols — symbols are interner-local and
/// must not cross a checkpoint boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainTreeState {
    /// Tree depth (length layer + token layers).
    pub depth: usize,
    /// Leaf-join similarity threshold.
    pub similarity: f64,
    /// `max_children` cap per internal node.
    pub max_children: usize,
    /// Messages observed so far.
    pub observed: usize,
    /// Group templates indexed by dense group id.
    pub groups: Vec<Vec<Option<String>>>,
    /// Leaves as `(message length, generalized prefix, group ids)`,
    /// sorted by `(length, prefix)`.
    pub leaves: Vec<(usize, Vec<String>, Vec<usize>)>,
    /// Distinct prefix paths opened per message length, sorted.
    pub paths_per_length: Vec<(usize, usize)>,
}

/// Positionwise similarity between a group template and a message of the
/// same length: wildcards count as half a match, mirroring Drain's
/// `seqDist` treatment that discourages all-wildcard templates.
fn similarity(template: &[Option<Symbol>], tokens: &[Symbol]) -> f64 {
    if template.is_empty() {
        return 1.0;
    }
    let mut score = 0.0;
    for (slot, &token) in template.iter().zip(tokens) {
        match slot {
            Some(sym) if *sym == token => score += 1.0,
            Some(_) => {}
            None => score += 0.5,
        }
    }
    score / template.len() as f64
}

/// Drain's incremental state: the fixed-depth tree plus the dense group
/// list. Shared by the batch parser and [`crate::StreamingDrain`].
#[derive(Debug)]
pub(crate) struct DrainTree {
    config: Drain,
    /// The token table behind every symbol in the tree. Batch parsing
    /// lays it over the corpus interner; streaming grows it one token
    /// at a time.
    interner: Interner,
    /// Cached "contains an ASCII digit" flag per symbol id; extended
    /// lazily as the interner grows, so the digit scan runs once per
    /// distinct token, not once per occurrence.
    digit_flags: Vec<bool>,
    /// The symbol of the `"*"` wildcard path token.
    star: Symbol,
    /// Internal path `(length, generalized prefix)` → group ids.
    leaves: HashMap<(usize, Vec<Symbol>), Vec<usize>>,
    /// Distinct prefix paths per message length, for the `max_children`
    /// cap: once a length bucket has that many paths, unseen token
    /// values fall through to the `*` branch instead of minting new
    /// paths (Drain's defence against parameter-led head tokens).
    paths_per_length: HashMap<usize, usize>,
    groups: Vec<Group>,
    observed: usize,
    /// Whether groups record their member message indices. Batch parsing
    /// needs them to build a [`Parse`]; long-running streaming must not
    /// accumulate them (memory would grow with the stream, not with the
    /// number of templates).
    track_members: bool,
}

impl DrainTree {
    /// Validates the configuration and creates an empty tree.
    pub(crate) fn new(config: Drain) -> Result<Self, ParseError> {
        DrainTree::with_interner(config, Interner::new())
    }

    /// Validates the configuration and creates a tree whose symbol table
    /// starts as `interner` — the batch entry point, laid over the
    /// corpus table so corpus symbols are directly routable.
    pub(crate) fn with_interner(config: Drain, mut interner: Interner) -> Result<Self, ParseError> {
        if !(0.0..=1.0).contains(&config.similarity) {
            return Err(ParseError::InvalidConfig {
                parameter: "similarity",
                reason: format!("{} must lie in [0, 1]", config.similarity),
            });
        }
        if config.depth < 2 {
            return Err(ParseError::InvalidConfig {
                parameter: "depth",
                reason: "depth counts the length layer and must be at least 2".into(),
            });
        }
        let star = interner.intern("*");
        let mut tree = DrainTree {
            config,
            interner,
            digit_flags: Vec::new(),
            star,
            leaves: HashMap::new(),
            paths_per_length: HashMap::new(),
            groups: Vec::new(),
            observed: 0,
            track_members: true,
        };
        tree.refresh_digit_flags();
        Ok(tree)
    }

    /// A tree that does not record member indices — bounded memory for
    /// unbounded streams (group state only).
    pub(crate) fn new_untracked(config: Drain) -> Result<Self, ParseError> {
        let mut tree = DrainTree::new(config)?;
        tree.track_members = false;
        Ok(tree)
    }

    /// Extends the per-symbol digit-flag cache to cover every symbol the
    /// interner currently holds.
    fn refresh_digit_flags(&mut self) {
        for id in self.digit_flags.len()..self.interner.len() {
            let token = self.interner.resolve(Symbol::from_id(id as u32));
            self.digit_flags
                .push(token.bytes().any(|b| b.is_ascii_digit()));
        }
    }

    /// The symbol table backing this tree's templates.
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The same table, for a streaming caller to intern a line's tokens
    /// into before [`observe_symbols`](DrainTree::observe_symbols).
    pub(crate) fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Exports the complete incremental state, deterministically ordered
    /// (leaves sorted by `(length, path)`), for checkpointing.
    pub(crate) fn export_state(&self) -> DrainTreeState {
        let resolve_path = |path: &[Symbol]| -> Vec<String> {
            path.iter()
                .map(|&s| self.interner.resolve(s).to_owned())
                .collect()
        };
        let mut leaves: Vec<(usize, Vec<String>, Vec<usize>)> = self
            .leaves
            .iter()
            .map(|((len, path), ids)| (*len, resolve_path(path), ids.clone()))
            .collect();
        leaves.sort();
        let mut paths_per_length: Vec<(usize, usize)> = self
            .paths_per_length
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        paths_per_length.sort_unstable();
        DrainTreeState {
            depth: self.config.depth,
            similarity: self.config.similarity,
            max_children: self.config.max_children,
            observed: self.observed,
            groups: self
                .groups
                .iter()
                .map(|g| {
                    g.template
                        .iter()
                        .map(|slot| slot.map(|s| self.interner.resolve(s).to_owned()))
                        .collect()
                })
                .collect(),
            leaves,
            paths_per_length,
        }
    }

    /// Rebuilds a (member-untracked) tree from an exported state,
    /// re-interning the snapshot's strings into a fresh symbol table.
    pub(crate) fn from_state(state: &DrainTreeState) -> Result<Self, ParseError> {
        let config = Drain {
            depth: state.depth,
            similarity: state.similarity,
            max_children: state.max_children,
        };
        let mut tree = DrainTree::new_untracked(config)?;
        for (len, path, ids) in &state.leaves {
            if let Some(&bad) = ids.iter().find(|&&id| id >= state.groups.len()) {
                return Err(ParseError::InvalidConfig {
                    parameter: "snapshot",
                    // lint:allow(hot-path-string-alloc): snapshot-restore error path, never the parse loop
                    reason: format!("leaf references group {bad} of {}", state.groups.len()),
                });
            }
            let path: Vec<Symbol> = path.iter().map(|t| tree.interner.intern(t)).collect();
            tree.leaves.insert((*len, path), ids.clone());
        }
        tree.paths_per_length = state.paths_per_length.iter().copied().collect();
        tree.groups = state
            .groups
            .iter()
            .map(|template| Group {
                template: template
                    .iter()
                    .map(|slot| slot.as_deref().map(|t| tree.interner.intern(t)))
                    .collect(),
                members: Vec::new(),
            })
            .collect();
        tree.refresh_digit_flags();
        tree.observed = state.observed;
        Ok(tree)
    }

    /// Routes one message through the tree, joining or creating a group.
    /// Returns the group id (dense, stable, in creation order). The
    /// symbols must come from this tree's interner (or the interner it
    /// was seeded with).
    pub(crate) fn observe_symbols(&mut self, tokens: &[Symbol]) -> usize {
        let message_index = self.observed;
        self.observed += 1;
        self.refresh_digit_flags();
        let token_layers = self.config.depth - 2;
        let mut path = Vec::with_capacity(token_layers);
        for &token in tokens.iter().take(token_layers) {
            path.push(if self.digit_flags[token.id() as usize] {
                self.star
            } else {
                token
            });
        }
        // max_children cap: a new path only opens while the length
        // bucket has room; otherwise the message falls through to the
        // all-wildcard branch.
        let mut key = (tokens.len(), path);
        if !self.leaves.contains_key(&key) {
            let opened = self.paths_per_length.entry(key.0).or_insert(0);
            if *opened >= self.config.max_children {
                for slot in &mut key.1 {
                    *slot = self.star;
                }
            } else {
                *opened += 1;
            }
        }
        let leaf = self.leaves.entry(key).or_default();
        let best = leaf
            .iter()
            .map(|&id| (similarity(&self.groups[id].template, tokens), id))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        match best {
            Some((score, id)) if score >= self.config.similarity => {
                let group = &mut self.groups[id];
                for (slot, &token) in group.template.iter_mut().zip(tokens) {
                    if *slot != Some(token) {
                        *slot = None;
                    }
                }
                if self.track_members {
                    group.members.push(message_index);
                }
                id
            }
            _ => {
                let id = self.groups.len();
                self.groups.push(Group {
                    template: tokens.iter().map(|&t| Some(t)).collect(),
                    members: if self.track_members {
                        vec![message_index]
                    } else {
                        Vec::new()
                    },
                });
                leaf.push(id);
                id
            }
        }
    }

    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    pub(crate) fn group_template(&self, id: usize) -> Option<&[Option<Symbol>]> {
        self.groups.get(id).map(|g| g.template.as_slice())
    }
}

impl LogParser for Drain {
    fn name(&self) -> &'static str {
        "Drain"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        // Lay the tree's table over the corpus's: routing then runs on
        // the corpus's own symbols with zero per-token hashing.
        let interner = Interner::over(corpus.shared_interner());
        let mut tree = DrainTree::with_interner(self.clone(), interner)?;
        for idx in 0..corpus.len() {
            tree.observe_symbols(corpus.symbols(idx));
        }
        let mut builder = ParseBuilder::new(corpus.len());
        for group in tree.groups {
            let template = logparse_core::Template::new(
                group
                    .template
                    .into_iter()
                    .map(|slot| match slot {
                        Some(sym) => logparse_core::TemplateToken::literal(
                            tree.interner.resolve(sym).to_owned(),
                        ),
                        None => logparse_core::TemplateToken::Wildcard,
                    })
                    .collect(),
            );
            let event: EventId = builder.add_template(template);
            builder.assign_cluster(&group.members, event);
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_core::Tokenizer;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines, &Tokenizer::default())
    }

    #[test]
    fn digit_bearing_tokens_share_a_tree_branch() {
        let c = corpus(&["send packet 1 now", "send packet 2 now"]);
        let parse = Drain::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "send packet * now");
    }

    #[test]
    fn different_lengths_split() {
        let c = corpus(&["a b c", "a b c d"]);
        let parse = Drain::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn dissimilar_messages_with_same_prefix_split() {
        let c = corpus(&[
            "server worker spawned ok fine",
            "server worker crashed with error",
        ]);
        let parse = Drain::builder().similarity(0.7).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn template_updates_accumulate_wildcards() {
        let c = corpus(&[
            "conn from 10.0.0.1 port 80",
            "conn from 10.0.0.2 port 80",
            "conn from 10.0.0.3 port 443",
        ]);
        let parse = Drain::builder().similarity(0.5).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "conn from * port *");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let c = corpus(&["a"]);
        assert!(Drain::builder().similarity(2.0).build().parse(&c).is_err());
        assert!(Drain::builder().depth(1).build().parse(&c).is_err());
    }

    #[test]
    fn empty_corpus_parses_to_empty() {
        let parse = Drain::default().parse(&corpus(&[])).unwrap();
        assert!(parse.is_empty());
    }

    #[test]
    fn no_outliers_ever() {
        let c = corpus(&["x", "completely different message", "x y z"]);
        let parse = Drain::default().parse(&c).unwrap();
        assert_eq!(parse.outlier_count(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a 1 b", "a 2 b", "c d e", "c d f"]);
        let p = Drain::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }

    #[test]
    fn max_children_folds_excess_paths_to_wildcard() {
        // With one path allowed per length, the second distinct head
        // falls through to the "*" branch; similarity then decides
        // whether the messages merge.
        let c = corpus(&["alpha x y z", "beta x y z", "gamma x y z"]);
        let capped = Drain::builder().max_children(1).build().parse(&c).unwrap();
        // All three share 3 of 4 tokens, so the wildcard branch merges
        // the two fallthrough messages with similarity 0.75 >= 0.5 —
        // while the uncapped tree keeps three separate paths.
        let uncapped = Drain::default().parse(&c).unwrap();
        assert!(capped.event_count() < uncapped.event_count());
    }

    #[test]
    fn group_ids_are_creation_ordered() {
        let mut tree = DrainTree::new(Drain::default()).unwrap();
        let mut observe = |line: &str| {
            let row: Vec<Symbol> = line
                .split_whitespace()
                .map(|t| tree.interner_mut().intern(t))
                .collect();
            tree.observe_symbols(&row)
        };
        assert_eq!(observe("a b"), 0);
        assert_eq!(observe("c d e"), 1);
        assert_eq!(observe("a b"), 0);
        assert_eq!(tree.group_count(), 2);
        assert!(tree.group_template(0).is_some());
        assert!(tree.group_template(9).is_none());
    }

    #[test]
    fn literal_star_token_collides_with_wildcard_branch_as_before() {
        // A message whose first token is a literal "*" routes to the same
        // path as a digit-generalized one — the historical behaviour of
        // the string-keyed tree, preserved by interning "*" up front.
        let c = corpus(&["* fixed tail here", "9 fixed tail here"]);
        let parse = Drain::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
    }
}
