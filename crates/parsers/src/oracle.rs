//! Oracle — template-library matching, the "source code based" parser of
//! the study's related work (§VI: "Xu et al. implement a log parser with
//! very high accuracy based on source code analysis to infer log message
//! templates").
//!
//! When the template library is known — extracted from the source code's
//! print statements, or, in this workspace, taken from a synthetic
//! dataset's generator — parsing reduces to matching each message
//! against the library. The study excludes such parsers from its
//! evaluation ("source code is often unavailable"), but they are the
//! gold standard its *Ground truth* rows represent; this implementation
//! makes that standard a first-class [`LogParser`] so harnesses can run
//! it through the same pipeline as the data-driven methods.

use logparse_core::{
    Corpus, EventId, Interner, LogParser, Parse, ParseError, Symbol, Template, TemplateToken,
};

/// A parser that matches messages against a known template library.
///
/// Messages matching several templates go to the most *specific* one
/// (most literal positions, ties to the earlier template); messages
/// matching none are outliers — exactly how an out-of-date source-code
/// parser degrades when the system evolves (§I's motivation).
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser, Template};
/// use logparse_parsers::Oracle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let oracle = Oracle::new(vec![
///     Template::from_pattern("job * started"),
///     Template::from_pattern("job * failed with *"),
/// ]);
/// let corpus = Corpus::from_lines(["job 7 started", "job 9 failed with ENOSPC", "unrelated noise"]);
/// let parse = oracle.parse(&corpus)?;
/// assert_eq!(parse.cluster_labels(), vec![0, 1, 2]); // 2 = outlier
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    templates: Vec<Template>,
}

impl Oracle {
    /// Creates an oracle over the given template library.
    pub fn new(templates: Vec<Template>) -> Self {
        Oracle { templates }
    }

    /// The library this oracle matches against.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Matches a single token sequence, returning the index of the most
    /// specific matching template.
    pub fn match_tokens<S: AsRef<str>>(&self, tokens: &[S]) -> Option<usize> {
        self.templates
            .iter()
            .enumerate()
            .filter(|(_, t)| t.matches(tokens))
            // Most literal positions wins; earlier template on ties.
            .max_by(|a, b| {
                a.1.literal_count()
                    .cmp(&b.1.literal_count())
                    .then(b.0.cmp(&a.0))
            })
            .map(|(i, _)| i)
    }
}

/// A template compiled against a corpus vocabulary: literals resolved to
/// symbols (`None` slots are wildcards). Compilation happens once per
/// template per parse; matching a message is then pure integer compares.
struct CompiledTemplate {
    slots: Vec<Option<Symbol>>,
    open_tail: bool,
    literal_count: usize,
}

impl CompiledTemplate {
    /// `None` when some literal never occurs in the corpus — such a
    /// template cannot match any message and is skipped wholesale.
    fn compile(template: &Template, interner: &Interner) -> Option<CompiledTemplate> {
        let mut slots = Vec::with_capacity(template.tokens().len());
        for token in template.tokens() {
            match token {
                TemplateToken::Literal(text) => slots.push(Some(interner.get(text)?)),
                TemplateToken::Wildcard => slots.push(None),
            }
        }
        Some(CompiledTemplate {
            slots,
            open_tail: template.has_open_tail(),
            literal_count: template.literal_count(),
        })
    }

    fn matches(&self, tokens: &[Symbol]) -> bool {
        let length_ok = if self.open_tail {
            tokens.len() >= self.slots.len()
        } else {
            tokens.len() == self.slots.len()
        };
        length_ok
            && self
                .slots
                .iter()
                .zip(tokens)
                .all(|(slot, token)| slot.is_none_or(|s| s == *token))
    }
}

impl LogParser for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        let interner = corpus.interner();
        let compiled: Vec<(usize, CompiledTemplate)> = self
            .templates
            .iter()
            .enumerate()
            .filter_map(|(i, t)| CompiledTemplate::compile(t, interner).map(|c| (i, c)))
            .collect();
        let assignments: Vec<Option<EventId>> = (0..corpus.len())
            .map(|idx| {
                let tokens = corpus.symbols(idx);
                compiled
                    .iter()
                    .filter(|(_, c)| c.matches(tokens))
                    // Most literal positions wins; earlier template on ties.
                    .max_by(|a, b| {
                        a.1.literal_count
                            .cmp(&b.1.literal_count)
                            .then(b.0.cmp(&a.0))
                    })
                    .map(|&(i, _)| EventId::new(i))
            })
            .collect();
        Ok(Parse::new(self.templates.clone(), assignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    fn oracle(patterns: &[&str]) -> Oracle {
        Oracle::new(patterns.iter().map(|p| Template::from_pattern(p)).collect())
    }

    #[test]
    fn matches_route_to_their_templates() {
        let o = oracle(&["open *", "close *"]);
        let parse = o.parse(&corpus(&["open a", "close b", "open c"])).unwrap();
        assert_eq!(parse.cluster_labels(), vec![0, 1, 0]);
        assert_eq!(parse.outlier_count(), 0);
    }

    #[test]
    fn unmatched_messages_are_outliers() {
        let o = oracle(&["tick *"]);
        let parse = o.parse(&corpus(&["tick 1", "boom"])).unwrap();
        assert_eq!(parse.assignments()[1], None);
    }

    #[test]
    fn specificity_breaks_overlapping_matches() {
        // Both templates match "job 7 done"; the more literal one wins.
        let o = oracle(&["job * *", "job * done"]);
        assert_eq!(o.match_tokens(&toks("job 7 done")), Some(1));
        assert_eq!(o.match_tokens(&toks("job 7 crashed")), Some(0));
    }

    #[test]
    fn equal_specificity_prefers_earlier_template() {
        let o = oracle(&["a * c", "* b c"]);
        assert_eq!(o.match_tokens(&toks("a b c")), Some(0));
    }

    #[test]
    fn oracle_on_generated_data_recovers_ground_truth() {
        use logparse_datasets::hdfs;
        let data = hdfs::generate(400, 9);
        let o = Oracle::new(data.truth_templates.clone());
        let parse = o.parse(&data.corpus).unwrap();
        // Every message must land on its generating template (templates
        // in the HDFS library are mutually exclusive by construction).
        let correct = (0..data.len())
            .filter(|&i| parse.assignments()[i] == Some(EventId::new(data.labels[i])))
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.99,
            "{correct}/{} matched the generating template",
            data.len()
        );
    }

    #[test]
    fn stale_library_degrades_like_an_evolving_system() {
        // Drop half the library: the "new" events become outliers — the
        // maintenance problem §I uses to motivate data-driven parsing.
        let o = oracle(&["open *"]);
        let parse = o.parse(&corpus(&["open a", "close a", "close b"])).unwrap();
        assert_eq!(parse.outlier_count(), 2);
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }
}
