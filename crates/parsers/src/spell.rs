//! Spell — Streaming Parser for Event Logs using LCS (Du & Li,
//! ICDM 2016).
//!
//! **Extension parser** (not part of the DSN'16 study): Spell is one of
//! the parsers the authors' follow-on LogPAI toolkit added next, and the
//! first streaming method in it. Each known event is an *LCS object*
//! holding the current template; a new message joins the object whose
//! longest common subsequence with it is at least `tau ×` the message
//! length, and the object's template is refined to that LCS (dropped
//! positions become wildcards). Messages matching nothing seed a new
//! object.
//!
//! Skeletons are interned [`Symbol`] sequences, so the LCS dynamic
//! programs compare `u32`s instead of token bytes. The batch parser
//! clones the corpus interner (corpus symbols stay valid in the clone);
//! the streaming path interns each incoming token once.

use logparse_core::{
    Corpus, Interner, LogParser, Parse, ParseBuilder, ParseError, Symbol, Template, TemplateToken,
};

/// The Spell parser. Construct via [`Spell::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser, Tokenizer};
/// use logparse_parsers::Spell;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines(
///     [
///         "Command Failed on: node-127",
///         "Command Failed on: node-234",
///         "Boot complete in 372 ms",
///     ],
///     &Tokenizer::default(),
/// );
/// let parse = Spell::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 2);
/// assert_eq!(parse.templates()[0].to_string(), "Command Failed on: *");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spell {
    tau: f64,
}

impl Default for Spell {
    fn default() -> Self {
        Spell { tau: 0.5 }
    }
}

impl Spell {
    /// Starts building a Spell configuration.
    pub fn builder() -> SpellBuilder {
        SpellBuilder::default()
    }
}

/// Builder for [`Spell`].
#[derive(Debug, Clone, Default)]
pub struct SpellBuilder {
    tau: Option<f64>,
}

impl SpellBuilder {
    /// Sets the LCS acceptance threshold `tau` (fraction of the message
    /// length, default 0.5).
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = Some(tau);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Spell {
        Spell {
            tau: self.tau.unwrap_or(Spell::default().tau),
        }
    }
}

/// Length of the longest common subsequence of two token slices.
#[cfg(test)]
fn lcs_length<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    lcs_length_into(a, b, &mut Vec::new(), &mut Vec::new())
}

/// [`lcs_length`] writing its two DP rows into caller-owned scratch —
/// the match loop calls this once per candidate object per message, so
/// the rows must not be reallocated per call.
fn lcs_length_into<T: PartialEq>(
    a: &[T],
    b: &[T],
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> usize {
    let m = b.len();
    prev.clear();
    prev.resize(m + 1, 0);
    curr.clear();
    curr.resize(m + 1, 0);
    for x in a {
        for j in 1..=m {
            curr[j] = if *x == b[j - 1] {
                prev[j - 1] + 1
            } else {
                prev[j].max(curr[j - 1])
            };
        }
        std::mem::swap(prev, curr);
    }
    prev[m]
}

/// One LCS sequence of two token slices (ties resolved towards matching
/// earlier in `a`).
fn lcs_sequence<T: PartialEq + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let (n, m) = (a.len(), b.len());
    let mut table = vec![vec![0usize; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            table[i][j] = if a[i - 1] == b[j - 1] {
                table[i - 1][j - 1] + 1
            } else {
                table[i - 1][j].max(table[i][j - 1])
            };
        }
    }
    let mut out = Vec::with_capacity(table[n][m]);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        if a[i - 1] == b[j - 1] {
            out.push(a[i - 1]);
            i -= 1;
            j -= 1;
        } else if table[i - 1][j] >= table[i][j - 1] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    out.reverse();
    out
}

/// A streaming LCS object: the event's constant-token skeleton plus its
/// member message indices.
#[derive(Debug)]
struct LcsObject {
    /// Constant tokens in order (wildcard positions are implicit gaps).
    skeleton: Vec<Symbol>,
    members: Vec<usize>,
}

/// A complete, deterministic serialization of Spell's incremental state:
/// the configuration plus every LCS object's skeleton. Produced by
/// [`crate::StreamingSpell::snapshot`] and consumed by
/// [`crate::StreamingSpell::restore`]; member indices are deliberately
/// not part of the state (checkpoints stay proportional to the number of
/// templates, not the length of the stream). Snapshots carry resolved
/// strings — symbols are interner-local and never cross a checkpoint
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SpellStateSnapshot {
    /// LCS acceptance threshold.
    pub tau: f64,
    /// Messages observed so far.
    pub observed: usize,
    /// Object skeletons indexed by dense object id.
    pub skeletons: Vec<Vec<String>>,
}

/// Spell's incremental state: the LCS object list. Shared by the batch
/// parser and [`crate::StreamingSpell`].
#[derive(Debug)]
pub(crate) struct SpellState {
    tau: f64,
    /// The token table behind every skeleton symbol.
    interner: Interner,
    objects: Vec<LcsObject>,
    observed: usize,
    /// Whether objects record their member message indices (batch mode
    /// only; streaming keeps memory bounded by dropping them).
    track_members: bool,
    /// Reused DP rows for the per-message LCS scan.
    scratch: (Vec<usize>, Vec<usize>),
}

impl SpellState {
    /// Validates the configuration and creates an empty state.
    pub(crate) fn new(config: Spell) -> Result<Self, ParseError> {
        SpellState::with_interner(config, Interner::new())
    }

    /// Validates the configuration and creates a state whose symbol
    /// table starts as `interner` — the batch entry point, laid over the
    /// corpus table so corpus symbols are directly usable.
    pub(crate) fn with_interner(config: Spell, interner: Interner) -> Result<Self, ParseError> {
        if !(0.0..=1.0).contains(&config.tau) {
            return Err(ParseError::InvalidConfig {
                parameter: "tau",
                reason: format!("{} must lie in [0, 1]", config.tau),
            });
        }
        Ok(SpellState {
            tau: config.tau,
            interner,
            objects: Vec::new(),
            observed: 0,
            track_members: true,
            scratch: (Vec::new(), Vec::new()),
        })
    }

    /// A state that does not record member indices — bounded memory for
    /// unbounded streams.
    pub(crate) fn new_untracked(config: Spell) -> Result<Self, ParseError> {
        let mut state = SpellState::new(config)?;
        state.track_members = false;
        Ok(state)
    }

    /// The symbol table backing this state's skeletons.
    pub(crate) fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The same table, for a streaming caller to intern a line's tokens
    /// into before [`observe_symbols`](SpellState::observe_symbols).
    pub(crate) fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Exports the complete incremental state for checkpointing.
    pub(crate) fn export_state(&self) -> SpellStateSnapshot {
        SpellStateSnapshot {
            tau: self.tau,
            observed: self.observed,
            skeletons: self
                .objects
                .iter()
                .map(|o| {
                    o.skeleton
                        .iter()
                        .map(|&s| self.interner.resolve(s).to_owned())
                        .collect()
                })
                .collect(),
        }
    }

    /// Rebuilds a (member-untracked) state from an exported snapshot,
    /// re-interning the snapshot's strings into a fresh symbol table.
    pub(crate) fn from_state(state: &SpellStateSnapshot) -> Result<Self, ParseError> {
        let mut rebuilt = SpellState::new_untracked(Spell { tau: state.tau })?;
        rebuilt.objects = state
            .skeletons
            .iter()
            .map(|skeleton| LcsObject {
                skeleton: skeleton
                    .iter()
                    .map(|t| rebuilt.interner.intern(t))
                    .collect(),
                members: Vec::new(),
            })
            .collect();
        rebuilt.observed = state.observed;
        Ok(rebuilt)
    }

    /// Assigns the next message to an LCS object (creating one if
    /// nothing clears the `tau` bar) and returns its id — dense, stable,
    /// in creation order. The symbols must come from this state's
    /// interner (or the interner it was seeded with).
    pub(crate) fn observe_symbols(&mut self, tokens: &[Symbol]) -> usize {
        let message_index = self.observed;
        self.observed += 1;
        // Find the object with the longest LCS that clears the `tau`
        // bar. `best_len` starts just under the bar, so one comparison
        // both enforces the threshold and prunes by the exact upper
        // bound LCS ≤ min(|skeleton|, |message|); ties keep the
        // earliest object, exactly as an unpruned max would.
        let needed = ((self.tau * tokens.len() as f64).ceil() as usize).max(1);
        let mut best_len = needed - 1;
        let mut best_id: Option<usize> = None;
        let (prev, curr) = &mut self.scratch;
        for (id, o) in self.objects.iter().enumerate() {
            if o.skeleton.len().min(tokens.len()) <= best_len {
                continue;
            }
            let len = lcs_length_into(&o.skeleton, tokens, prev, curr);
            if len > best_len {
                best_len = len;
                best_id = Some(id);
            }
        }
        match best_id {
            Some(id) => {
                let object = &mut self.objects[id];
                if best_len < object.skeleton.len() {
                    object.skeleton = lcs_sequence(&object.skeleton, tokens);
                }
                if self.track_members {
                    object.members.push(message_index);
                }
                id
            }
            None => {
                let id = self.objects.len();
                self.objects.push(LcsObject {
                    skeleton: tokens.to_vec(),
                    members: if self.track_members {
                        vec![message_index]
                    } else {
                        Vec::new()
                    },
                });
                id
            }
        }
    }

    pub(crate) fn group_count(&self) -> usize {
        self.objects.len()
    }

    pub(crate) fn group_skeleton(&self, id: usize) -> Option<&[Symbol]> {
        self.objects.get(id).map(|o| o.skeleton.as_slice())
    }
}

impl LogParser for Spell {
    fn name(&self) -> &'static str {
        "Spell"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        // Lay the state's table over the corpus's: the LCS loops then
        // run on the corpus's own symbols with zero token hashing.
        let interner = Interner::over(corpus.shared_interner());
        let mut state = SpellState::with_interner(self.clone(), interner)?;
        let mut assignment: Vec<Option<usize>> = Vec::with_capacity(corpus.len());
        for idx in 0..corpus.len() {
            let tokens = corpus.symbols(idx);
            if tokens.is_empty() {
                assignment.push(None); // empty messages stay outliers
            } else {
                assignment.push(Some(state.observe_symbols(tokens)));
            }
        }
        // Collect per-object members in corpus index space.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); state.group_count()];
        for (idx, a) in assignment.iter().enumerate() {
            if let Some(id) = a {
                members[*id].push(idx);
            }
        }
        let mut builder = ParseBuilder::new(corpus.len());
        for (id, m) in members.iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            let Some(skeleton) = state.group_skeleton(id) else {
                continue;
            };
            let template = skeleton_template(skeleton, state.interner(), m, corpus);
            let event = builder.add_template(template);
            builder.assign_cluster(m, event);
        }
        Ok(builder.build())
    }
}

/// Renders an object's template: the positionwise template over its
/// members (which agrees with the skeleton on constants but places the
/// wildcards at concrete positions, matching the toolkit contract).
fn skeleton_template(
    skeleton: &[Symbol],
    interner: &Interner,
    members: &[usize],
    corpus: &Corpus,
) -> Template {
    let positionwise = Template::from_symbol_cluster(
        corpus.interner(),
        members.iter().map(|&i| corpus.symbols(i)),
    );
    if !positionwise.tokens().is_empty() {
        return positionwise;
    }
    // Unequal lengths collapsed to an empty open template: fall back to
    // the skeleton with an open tail.
    Template::with_open_tail(
        skeleton
            .iter()
            .map(|&t| TemplateToken::literal(interner.resolve(t).to_owned()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_core::Tokenizer;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines, &Tokenizer::default())
    }

    fn sym(interner: &mut Interner, s: &str) -> Vec<Symbol> {
        s.split_whitespace().map(|t| interner.intern(t)).collect()
    }

    #[test]
    fn lcs_length_matches_classic_example() {
        let mut i = Interner::new();
        assert_eq!(
            lcs_length(&sym(&mut i, "a b c d"), &sym(&mut i, "a x c y")),
            2
        );
        assert_eq!(lcs_length(&sym(&mut i, "a b c"), &sym(&mut i, "a b c")), 3);
        assert_eq!(lcs_length(&sym(&mut i, "a b"), &sym(&mut i, "x y")), 0);
    }

    #[test]
    fn lcs_sequence_is_a_common_subsequence() {
        let mut i = Interner::new();
        let a = sym(&mut i, "send pkt 7 to host alpha");
        let b = sym(&mut i, "send pkt 9 to host beta");
        let lcs = lcs_sequence(&a, &b);
        assert_eq!(lcs, sym(&mut i, "send pkt to host"));
    }

    #[test]
    fn similar_messages_share_an_object() {
        let c = corpus(&[
            "Command Failed on: node-1",
            "Command Failed on: node-2",
            "Command Failed on: node-3",
        ]);
        let parse = Spell::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "Command Failed on: *");
    }

    #[test]
    fn dissimilar_messages_get_new_objects() {
        let c = corpus(&["alpha beta gamma delta", "one two three four"]);
        let parse = Spell::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn streaming_refines_the_skeleton() {
        // Third message shares only the head with the first two; tau 0.5
        // over 4 tokens needs LCS >= 2.
        let c = corpus(&[
            "job 17 finished ok",
            "job 23 finished ok",
            "job 31 finished late",
        ]);
        let parse = Spell::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "job * finished *");
    }

    #[test]
    fn tau_one_requires_exact_match() {
        let c = corpus(&["a b c", "a b d"]);
        let parse = Spell::builder().tau(1.0).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn invalid_tau_is_rejected() {
        let err = Spell::builder().tau(1.5).build().parse(&corpus(&["a"]));
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_corpus_and_empty_lines() {
        assert!(Spell::default().parse(&corpus(&[])).unwrap().is_empty());
        let parse = Spell::default().parse(&corpus(&["", "a b"])).unwrap();
        assert_eq!(parse.assignments()[0], None);
        assert!(parse.assignments()[1].is_some());
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a b 1", "a b 2", "x y z", "x y w"]);
        let p = Spell::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }

    #[test]
    fn streaming_observe_interns_and_matches_batch_grouping() {
        let mut state = SpellState::new(Spell::default()).unwrap();
        let mut observe = |line: &str| {
            let row = sym(state.interner_mut(), line);
            state.observe_symbols(&row)
        };
        let a = observe("job 17 finished ok");
        let b = observe("job 23 finished ok");
        assert_eq!(a, b);
        let skel = state.group_skeleton(a).unwrap().to_vec();
        let resolved: Vec<&str> = skel.iter().map(|&s| state.interner().resolve(s)).collect();
        assert_eq!(resolved, ["job", "finished", "ok"]);
    }
}
