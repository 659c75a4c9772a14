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
//! compares. The batch parser lays its table over the corpus interner
//! (corpus symbols stay valid in it), so its hot loop never hashes a
//! token string; the streaming path interns each incoming token once
//! and compacts the table to the tokens the tree retains —
//! [`DrainTree::compact`] — whenever [`crate::StreamingDrain`]'s budget
//! runs out. The batch table never compacts.

use std::collections::HashMap;

use logparse_core::{
    Corpus, EventId, Interner, Json, LogParser, Parse, ParseError, Symbol, Template, TemplateToken,
};

use crate::streaming::{blob_field, malformed};

/// The Drain parser configuration. Construct via [`Drain::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Drain;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines(["send packet 1 to host7", "send packet 2 to host9"]);
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

/// A message length as the first element of a `leaves` key. A line
/// holds far fewer than `u32::MAX` tokens; saturating keeps this total.
fn length_id(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// Drain's incremental state: the fixed-depth tree plus the dense group
/// list. Shared by the batch parser and [`crate::StreamingDrain`], which
/// run it the same way: one [`DrainTree::observe_symbols`] per message.
#[derive(Debug)]
pub(crate) struct DrainTree {
    config: Drain,
    /// The token table behind every symbol in the tree. Batch parsing
    /// lays it over the corpus interner; streaming grows it one token
    /// at a time and compacts it to the tokens the tree retains.
    interner: Interner,
    /// Cached "contains an ASCII digit" flag per symbol id; extended
    /// lazily as the interner grows, so the digit scan runs once per
    /// distinct token, not once per occurrence.
    digit_flags: Vec<bool>,
    /// The symbol of the `"*"` wildcard path token.
    star: Symbol,
    /// Internal path → group ids. A path is the message length, then
    /// the symbol ids of its generalized prefix (see
    /// [`DrainTree::observe_symbols`]).
    leaves: HashMap<Vec<u32>, Vec<usize>>,
    /// Distinct prefix paths per message length, for the `max_children`
    /// cap: once a length bucket has that many paths, unseen token
    /// values fall through to the `*` branch instead of minting new
    /// paths (Drain's defence against parameter-led head tokens).
    paths_per_length: HashMap<usize, usize>,
    /// Group templates (`None` = wildcard), indexed by group id.
    groups: Vec<Vec<Option<Symbol>>>,
    observed: usize,
    /// The current message's path, reused so a message allocates a key
    /// only when it opens a path.
    key: Vec<u32>,
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
            key: Vec::new(),
        };
        tree.refresh_digit_flags();
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

    /// Rebuilds the symbol table down to the tokens the tree retains —
    /// `*`, then the group templates' literals in group and slot order,
    /// then the leaf path tokens in path order — and remaps every stored
    /// symbol. Returns the tokens kept.
    ///
    /// Groupings cannot change: a message's symbols are only compared
    /// with retained ones (template slots, path keys, `*`), and a dropped
    /// token seen again gets a fresh id that matches none of them, as an
    /// unseen token does.
    pub(crate) fn compact(&mut self) -> usize {
        let mut keep = self.interner.compaction();
        self.star = keep.keep(self.star);
        for literal in self.groups.iter_mut().flatten().flatten() {
            *literal = keep.keep(*literal);
        }
        let mut leaves: Vec<(Vec<u32>, Vec<usize>)> = self.leaves.drain().collect();
        leaves.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, _) in &mut leaves {
            for step in &mut key[1..] {
                *step = keep.keep(Symbol::from_id(*step)).id();
            }
        }
        self.leaves = leaves.into_iter().collect();
        self.interner = keep.finish();
        self.digit_flags.clear();
        self.refresh_digit_flags();
        self.interner.len()
    }

    /// The tree as its checkpoint blob document: the configuration,
    /// the messages observed, every group template (`null` slots are
    /// wildcards), every leaf as `[length, path, group ids]` sorted by
    /// `(length, path)`, and the paths opened per length, sorted. Tokens
    /// are written as strings — symbols are interner-local and never
    /// cross a checkpoint — and nothing is kept per message, so a blob
    /// follows the templates, not the length of the stream.
    pub(crate) fn to_json(&self) -> Json {
        let mut leaves: Vec<(u32, Vec<&str>, &[usize])> = self
            .leaves
            .iter()
            .map(|(key, ids)| {
                let (len, path) = key.split_first().unwrap_or((&0, &[]));
                let path = path
                    .iter()
                    .map(|&id| self.interner.resolve(Symbol::from_id(id)));
                (*len, path.collect(), &ids[..])
            })
            .collect();
        leaves.sort_unstable();
        let mut paths: Vec<(usize, usize)> = self
            .paths_per_length
            .iter()
            .map(|(&len, &opened)| (len, opened))
            .collect();
        paths.sort_unstable();
        let numbers = |ns: &[usize]| Json::Arr(ns.iter().map(|&n| Json::usize(n)).collect());
        let groups = self.groups.iter().map(|slots| {
            Json::Arr(
                slots
                    .iter()
                    .map(|slot| slot.map_or(Json::Null, |s| Json::str(self.interner.resolve(s))))
                    .collect(),
            )
        });
        let leaves = leaves.into_iter().map(|(len, path, ids)| {
            let path = Json::Arr(path.into_iter().map(Json::str).collect());
            Json::Arr(vec![Json::usize(len as usize), path, numbers(ids)])
        });
        Json::Obj(vec![
            ("depth".into(), Json::usize(self.config.depth)),
            ("similarity".into(), Json::num(self.config.similarity)),
            ("max_children".into(), Json::usize(self.config.max_children)),
            ("observed".into(), Json::usize(self.observed)),
            ("groups".into(), Json::Arr(groups.collect())),
            ("leaves".into(), Json::Arr(leaves.collect())),
            (
                "paths".into(),
                Json::Arr(paths.iter().map(|&(len, n)| numbers(&[len, n])).collect()),
            ),
        ])
    }

    /// Rebuilds a tree from its [`to_json`](DrainTree::to_json) document,
    /// interning its tokens into a fresh symbol table, leaf paths first.
    ///
    /// # Errors
    ///
    /// [`ParseError::InvalidConfig`] when the configuration is invalid,
    /// a field is missing or malformed, or a leaf names a group the
    /// document does not hold.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, ParseError> {
        let mut tree = DrainTree::new(Drain {
            depth: blob_field(doc, "depth", Json::as_usize)?,
            similarity: blob_field(doc, "similarity", Json::as_f64)?,
            max_children: blob_field(doc, "max_children", Json::as_usize)?,
        })?;
        let groups = blob_field(doc, "groups", Json::as_arr)?;
        for leaf in blob_field(doc, "leaves", Json::as_arr)? {
            let Some([len, path, ids]) = leaf.as_arr() else {
                return Err(malformed("leaf"));
            };
            let len = len.as_usize().ok_or_else(|| malformed("leaf length"))?;
            let ids = ids
                .as_arr()
                .ok_or_else(|| malformed("leaf groups"))?
                .iter()
                .map(|id| match id.as_usize() {
                    Some(id) if id < groups.len() => Ok(id),
                    Some(id) => Err(ParseError::InvalidConfig {
                        parameter: "snapshot",
                        // lint:allow(hot-path-string-alloc): snapshot-restore error path, never the parse loop
                        reason: format!("leaf references group {id} of {}", groups.len()),
                    }),
                    None => Err(malformed("leaf group id")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut key = vec![length_id(len)];
            for token in path.as_arr().ok_or_else(|| malformed("leaf path"))? {
                let token = token.as_str().ok_or_else(|| malformed("leaf token"))?;
                key.push(tree.interner.intern(token).id());
            }
            tree.leaves.insert(key, ids);
        }
        for pair in blob_field(doc, "paths", Json::as_arr)? {
            let (len, opened) = match pair.as_arr() {
                Some([len, opened]) => len.as_usize().zip(opened.as_usize()),
                _ => None,
            }
            .ok_or_else(|| malformed("path pair"))?;
            tree.paths_per_length.insert(len, opened);
        }
        let interner = &mut tree.interner;
        tree.groups = groups
            .iter()
            .map(|slots| {
                let slots = slots.as_arr().ok_or_else(|| malformed("group"))?;
                slots
                    .iter()
                    .map(|slot| match slot {
                        Json::Null => Ok(None),
                        Json::Str(token) => Ok(Some(interner.intern(token))),
                        _ => Err(malformed("group token")),
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        tree.observed = blob_field(doc, "observed", Json::as_usize)?;
        tree.refresh_digit_flags();
        Ok(tree)
    }

    /// Routes one message through the tree, joining or creating a group.
    /// Returns the group id (dense, stable, in creation order). The
    /// symbols must come from this tree's interner (or the interner it
    /// was seeded with).
    pub(crate) fn observe_symbols(&mut self, tokens: &[Symbol]) -> usize {
        self.observed += 1;
        self.refresh_digit_flags();
        let token_layers = self.config.depth - 2;
        self.key.clear();
        self.key.push(length_id(tokens.len()));
        for &token in tokens.iter().take(token_layers) {
            let step = if self.digit_flags[token.id() as usize] {
                self.star
            } else {
                token
            };
            self.key.push(step.id());
        }
        let leaf = match self.leaves.get_mut(self.key.as_slice()) {
            Some(leaf) => leaf,
            None => {
                // max_children cap: a new path only opens while the
                // length bucket has room; otherwise the message falls
                // through to the all-wildcard branch.
                let opened = self.paths_per_length.entry(tokens.len()).or_insert(0);
                if *opened >= self.config.max_children {
                    for step in &mut self.key[1..] {
                        *step = self.star.id();
                    }
                } else {
                    *opened += 1;
                }
                self.leaves.entry(self.key.clone()).or_default()
            }
        };
        let best = leaf
            .iter()
            .map(|&id| (similarity(&self.groups[id], tokens), id))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        match best {
            Some((score, id)) if score >= self.config.similarity => {
                for (slot, &token) in self.groups[id].iter_mut().zip(tokens) {
                    if *slot != Some(token) {
                        *slot = None;
                    }
                }
                id
            }
            _ => {
                let id = self.groups.len();
                self.groups.push(tokens.iter().map(|&t| Some(t)).collect());
                leaf.push(id);
                id
            }
        }
    }

    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The current template of group `id`, or `None` if out of range.
    pub(crate) fn template(&self, id: usize) -> Option<Template> {
        self.groups.get(id).map(|slots| {
            Template::new(
                slots
                    .iter()
                    .map(|slot| match slot {
                        Some(sym) => TemplateToken::literal(self.interner.resolve(*sym)),
                        None => TemplateToken::Wildcard,
                    })
                    .collect(),
            )
        })
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
        // Group ids and event ids both count in creation order, so a
        // message's group id is its event's index.
        let assignments = (0..corpus.len())
            .map(|idx| Some(EventId::new(tree.observe_symbols(corpus.symbols(idx)))))
            .collect();
        let templates = (0..tree.group_count())
            .filter_map(|id| tree.template(id))
            .collect();
        Ok(Parse::new(templates, assignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
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
        assert!(tree.template(0).is_some());
        assert!(tree.template(9).is_none());
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
