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
//! lays its table over the corpus interner (corpus symbols stay valid
//! in it) and never compacts it; the streaming path interns each
//! incoming token once and compacts the table to the skeleton tokens —
//! [`SpellState::compact`] — whenever [`crate::StreamingSpell`]'s budget
//! runs out.

use logparse_core::{
    Corpus, EventId, Interner, Json, LogParser, Parse, ParseError, Symbol, Template, TemplateToken,
};

use crate::streaming::{blob_field, malformed};

/// The Spell parser. Construct via [`Spell::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Spell;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "Command Failed on: node-127",
///     "Command Failed on: node-234",
///     "Boot complete in 372 ms",
/// ]);
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

/// Length of the longest common subsequence of two token slices, its two
/// DP rows written into caller-owned scratch — the match loop calls this
/// once per candidate object per message, so the rows must not be
/// reallocated per call.
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

/// A streaming LCS object: the event's constant-token skeleton.
#[derive(Debug)]
struct LcsObject {
    /// Constant tokens in order (wildcard positions are implicit gaps).
    skeleton: Vec<Symbol>,
}

/// Spell's incremental state: the LCS object list. Shared by the batch
/// parser and [`crate::StreamingSpell`], which run it the same way: one
/// [`SpellState::observe_symbols`] per message.
#[derive(Debug)]
pub(crate) struct SpellState {
    tau: f64,
    /// The token table behind every skeleton symbol.
    interner: Interner,
    objects: Vec<LcsObject>,
    observed: usize,
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
            scratch: (Vec::new(), Vec::new()),
        })
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

    /// Rebuilds the symbol table down to the skeleton tokens, in object
    /// and skeleton order, and remaps every skeleton. Returns the tokens
    /// kept. Groupings cannot change: the LCS compares a message only
    /// with skeletons, and a dropped token seen again gets a fresh id
    /// that matches none of them, as an unseen token does.
    pub(crate) fn compact(&mut self) -> usize {
        let mut keep = self.interner.compaction();
        for symbol in self.objects.iter_mut().flat_map(|o| &mut o.skeleton) {
            *symbol = keep.keep(*symbol);
        }
        self.interner = keep.finish();
        self.interner.len()
    }

    /// The state as its checkpoint blob document: `tau`, the messages
    /// observed and every object's skeleton in id order. Tokens are
    /// written as strings — symbols are interner-local and never cross a
    /// checkpoint — and nothing is kept per message.
    pub(crate) fn to_json(&self) -> Json {
        let skeletons = self.objects.iter().map(|o| {
            Json::Arr(
                o.skeleton
                    .iter()
                    .map(|&s| Json::str(self.interner.resolve(s)))
                    .collect(),
            )
        });
        Json::Obj(vec![
            ("tau".into(), Json::num(self.tau)),
            ("observed".into(), Json::usize(self.observed)),
            ("skeletons".into(), Json::Arr(skeletons.collect())),
        ])
    }

    /// Rebuilds a state from its [`to_json`](SpellState::to_json)
    /// document, interning its tokens into a fresh symbol table.
    ///
    /// # Errors
    ///
    /// [`ParseError::InvalidConfig`] when `tau` is invalid or a field is
    /// missing or malformed.
    pub(crate) fn from_json(doc: &Json) -> Result<Self, ParseError> {
        let mut state = SpellState::new(Spell {
            tau: blob_field(doc, "tau", Json::as_f64)?,
        })?;
        let interner = &mut state.interner;
        state.objects = blob_field(doc, "skeletons", Json::as_arr)?
            .iter()
            .map(|skeleton| {
                let tokens = skeleton.as_arr().ok_or_else(|| malformed("skeleton"))?;
                let skeleton = tokens
                    .iter()
                    .map(|t| t.as_str().map(|t| interner.intern(t)))
                    .collect::<Option<_>>()
                    .ok_or_else(|| malformed("skeleton token"))?;
                Ok(LcsObject { skeleton })
            })
            .collect::<Result<_, ParseError>>()?;
        state.observed = blob_field(doc, "observed", Json::as_usize)?;
        Ok(state)
    }

    /// Assigns the next message to an LCS object (creating one if
    /// nothing clears the `tau` bar) and returns its id — dense, stable,
    /// in creation order. The symbols must come from this state's
    /// interner (or the interner it was seeded with).
    pub(crate) fn observe_symbols(&mut self, tokens: &[Symbol]) -> usize {
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
                id
            }
            None => {
                let id = self.objects.len();
                self.objects.push(LcsObject {
                    skeleton: tokens.to_vec(),
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
        // Object ids and event ids both count in creation order, so a
        // message's object id is its event's index. Empty messages stay
        // outliers.
        let assignments: Vec<Option<EventId>> = (0..corpus.len())
            .map(|idx| {
                let tokens = corpus.symbols(idx);
                (!tokens.is_empty()).then(|| EventId::new(state.observe_symbols(tokens)))
            })
            .collect();
        // Every object has a member: the message that created it.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); state.group_count()];
        for (idx, event) in assignments.iter().enumerate() {
            if let Some(event) = event {
                members[event.index()].push(idx);
            }
        }
        let templates = state
            .objects
            .iter()
            .zip(&members)
            .map(|(object, m)| skeleton_template(&object.skeleton, state.interner(), m, corpus))
            .collect();
        Ok(Parse::new(templates, assignments))
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

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
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
