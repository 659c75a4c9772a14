use crate::{Corpus, ParseError, Template};

/// Identifier of a log event within one [`Parse`].
///
/// Event ids are dense indices into [`Parse::templates`]; they are only
/// meaningful relative to the parse that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub usize);

impl EventId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event{}", self.0 + 1)
    }
}

/// The output of a log parser: the paper's two files in memory.
///
/// * the **events file** — [`Parse::templates`], one [`Template`] per
///   discovered event type;
/// * the **structured log** — [`Parse::assignments`], one entry per input
///   message giving its event (or `None` for outliers, which some parsers
///   such as SLCT produce).
///
/// For evaluation purposes all outliers are considered to form one
/// implicit cluster, matching the reference toolkit's behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parse {
    templates: Vec<Template>,
    assignments: Vec<Option<EventId>>,
}

impl Parse {
    /// Assembles a parse from templates and per-message assignments.
    ///
    /// # Panics
    ///
    /// Panics if any assignment refers to a template index out of range.
    pub fn new(templates: Vec<Template>, assignments: Vec<Option<EventId>>) -> Self {
        for a in assignments.iter().flatten() {
            assert!(
                a.index() < templates.len(),
                "assignment {a:?} out of range for {} templates",
                templates.len()
            );
        }
        Parse {
            templates,
            assignments,
        }
    }

    /// The discovered event templates (the events file).
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Per-message event assignments (the structured log), aligned with
    /// the input corpus. `None` marks an outlier message.
    pub fn assignments(&self) -> &[Option<EventId>] {
        &self.assignments
    }

    /// Number of messages covered by this parse.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` when the parse covers no messages.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of discovered event types.
    pub fn event_count(&self) -> usize {
        self.templates.len()
    }

    /// Number of messages not assigned to any event.
    pub fn outlier_count(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_none()).count()
    }

    /// The template assigned to message `index`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn template_of(&self, index: usize) -> Option<&Template> {
        self.assignments[index].map(|e| &self.templates[e.index()])
    }

    /// Converts assignments into dense cluster labels suitable for
    /// clustering metrics: every outlier is mapped to one extra label
    /// (`event_count()`), mirroring the reference toolkit's evaluation.
    pub fn cluster_labels(&self) -> Vec<usize> {
        let outlier = self.templates.len();
        self.assignments
            .iter()
            .map(|a| a.map_or(outlier, EventId::index))
            .collect()
    }

    /// Sizes of each event cluster, indexed by event id (outliers not
    /// included).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.templates.len()];
        for a in self.assignments.iter().flatten() {
            sizes[a.index()] += 1;
        }
        sizes
    }
}

/// Incremental builder for a [`Parse`].
///
/// Parsers discover clusters in arbitrary order; the builder lets them
/// register templates as they are found and label messages independently.
///
/// # Example
///
/// ```
/// use logparse_core::{ParseBuilder, Template};
///
/// let mut b = ParseBuilder::new(3);
/// let ev = b.add_template(Template::from_pattern("connected to *"));
/// b.assign(0, ev);
/// b.assign(2, ev);
/// let parse = b.build();
/// assert_eq!(parse.event_count(), 1);
/// assert_eq!(parse.outlier_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ParseBuilder {
    templates: Vec<Template>,
    assignments: Vec<Option<EventId>>,
}

impl ParseBuilder {
    /// Creates a builder for a corpus of `message_count` messages, all
    /// initially outliers.
    pub fn new(message_count: usize) -> Self {
        ParseBuilder {
            templates: Vec::new(),
            assignments: vec![None; message_count],
        }
    }

    /// Registers a template and returns its event id.
    pub fn add_template(&mut self, template: Template) -> EventId {
        self.templates.push(template);
        EventId(self.templates.len() - 1)
    }

    /// Assigns message `index` to `event`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `event` was not returned by
    /// [`ParseBuilder::add_template`] on this builder.
    pub fn assign(&mut self, index: usize, event: EventId) {
        assert!(event.index() < self.templates.len(), "unknown event id");
        self.assignments[index] = Some(event);
    }

    /// Assigns a whole cluster of message indices to `event`.
    pub fn assign_cluster(&mut self, indices: &[usize], event: EventId) {
        for &i in indices {
            self.assign(i, event);
        }
    }

    /// Registers the positionwise template of `indices` drawn from
    /// `corpus` and assigns all of them to it in one step. Agreement is
    /// computed over interned symbols; literals are resolved to strings
    /// only when the template is materialized.
    pub fn add_cluster(&mut self, corpus: &Corpus, indices: &[usize]) -> EventId {
        let template = Template::from_symbol_cluster(
            corpus.interner(),
            indices.iter().map(|&i| corpus.symbols(i)),
        );
        let event = self.add_template(template);
        self.assign_cluster(indices, event);
        event
    }

    /// Finalizes the parse.
    pub fn build(self) -> Parse {
        Parse::new(self.templates, self.assignments)
    }
}

/// A log parsing method.
///
/// The trait captures the paper's standard contract: a corpus of raw log
/// messages in, an events file plus structured log out. Implementations
/// must be deterministic for a fixed configuration; methods with inherent
/// randomness (LKE's and LogSig's clustering) expose an explicit seed in
/// their configuration instead of drawing from global entropy, so that
/// every evaluation run is reproducible.
///
/// `Sync` is a supertrait so that any parser — including a boxed
/// `dyn LogParser` — can be shared by reference across the scoped worker
/// threads of [`LogParser::parse_parallel`]. Parsers are immutable
/// configuration structs, so this costs implementations nothing.
pub trait LogParser: Sync {
    /// Human-readable method name (e.g. `"SLCT"`), used in reports.
    fn name(&self) -> &'static str;

    /// Parses the corpus into events and assignments.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the corpus is empty where the method
    /// cannot handle it, or if the configuration is invalid for this
    /// input (e.g. more clusters requested than messages).
    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError>;

    /// Parses the corpus under an observability span and returns the
    /// wall-clock duration alongside the parse.
    ///
    /// The duration lands in the process-global
    /// `obs_span_duration_seconds{span="parser_parse",parser=<name>}`
    /// histogram (and the trace ring), so the efficiency experiments, the
    /// benches and a served pipeline all report parser timings from the
    /// same series. Failed parses are timed too — a method that errors
    /// after minutes of work is exactly what the histogram should show.
    ///
    /// # Errors
    ///
    /// Propagates whatever [`LogParser::parse`] returns.
    fn timed_parse(&self, corpus: &Corpus) -> Result<(Parse, std::time::Duration), ParseError> {
        let span = logparse_obs::global().span("parser_parse", &[("parser", self.name())]);
        match self.parse(corpus) {
            Ok(parse) => Ok((parse, span.finish())),
            Err(e) => Err(e),
        }
    }

    /// Parses the corpus split across `threads` contiguous chunks on a
    /// scoped thread pool, merging per-chunk templates into globally
    /// stable event ids. `threads <= 1` is exactly [`LogParser::parse`].
    ///
    /// See [`crate::parallel`] for the chunking strategy, the
    /// determinism guarantee (worker scheduling cannot change the
    /// result) and the sequential fallback that makes this total
    /// wherever `parse` is.
    ///
    /// # Errors
    ///
    /// Propagates the sequential parse's error when single-chunked or
    /// when the fallback engages; see [`crate::ParallelDriver::run`].
    fn parse_parallel(&self, corpus: &Corpus, threads: usize) -> Result<Parse, ParseError> {
        crate::parallel::ParallelDriver::new(threads)
            .run(self, corpus)
            .map(|(parse, _)| parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::from_lines(["open file a", "open file b", "close file a"])
    }

    #[test]
    fn builder_starts_all_outliers() {
        let parse = ParseBuilder::new(4).build();
        assert_eq!(parse.outlier_count(), 4);
        assert_eq!(parse.event_count(), 0);
    }

    #[test]
    fn add_cluster_builds_template_and_assigns() {
        let c = corpus();
        let mut b = ParseBuilder::new(c.len());
        b.add_cluster(&c, &[0, 1]);
        let parse = b.build();
        assert_eq!(parse.templates()[0].to_string(), "open file *");
        assert_eq!(parse.assignments()[0], Some(EventId(0)));
        assert_eq!(parse.assignments()[2], None);
    }

    #[test]
    fn cluster_labels_group_outliers_into_one_label() {
        let c = corpus();
        let mut b = ParseBuilder::new(c.len());
        b.add_cluster(&c, &[0]);
        let parse = b.build();
        assert_eq!(parse.cluster_labels(), vec![0, 1, 1]);
    }

    #[test]
    fn cluster_sizes_exclude_outliers() {
        let c = corpus();
        let mut b = ParseBuilder::new(c.len());
        let e = b.add_cluster(&c, &[0, 1]);
        assert_eq!(e, EventId(0));
        let parse = b.build();
        assert_eq!(parse.cluster_sizes(), vec![2]);
        assert_eq!(parse.outlier_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown event id")]
    fn assigning_foreign_event_id_panics() {
        let mut b = ParseBuilder::new(1);
        b.assign(0, EventId(3));
    }

    #[test]
    fn timed_parse_returns_duration_and_records_a_span() {
        struct Echo;
        impl LogParser for Echo {
            fn name(&self) -> &'static str {
                "echo-test"
            }
            fn parse(&self, corpus: &Corpus) -> Result<Parse, crate::ParseError> {
                Ok(ParseBuilder::new(corpus.len()).build())
            }
        }
        let c = corpus();
        let (parse, duration) = Echo.timed_parse(&c).unwrap();
        assert_eq!(parse.len(), c.len());
        assert!(duration.as_nanos() > 0);
        let text = logparse_obs::global().render();
        assert!(
            text.contains("obs_span_duration_seconds_count")
                && text.contains("parser=\"echo-test\""),
            "span histogram missing from registry:\n{text}"
        );
    }

    #[test]
    fn event_id_displays_one_based() {
        assert_eq!(EventId(0).to_string(), "Event1");
        assert_eq!(EventId(28).to_string(), "Event29");
    }
}
