//! The dataset generator: turns a library of [`TemplateSpec`]s plus a
//! frequency skew into a labeled corpus.

use logparse_core::{Corpus, Preprocessor, Template};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::TemplateSpec;

/// A corpus with ground-truth event labels, as produced by a generator,
/// and the generated lines themselves.
///
/// `labels[i]` is the index (into [`LabeledCorpus::truth_templates`]) of
/// the event that produced message `i` — the synthetic equivalent of the
/// hand-labeled ground truth the study built for its five datasets. A
/// [`Corpus`] keeps no text, so the lines are kept here, as one byte
/// buffer: [`line`](LabeledCorpus::line) reads message `i`, and
/// [`text`](LabeledCorpus::text) is the log file they make.
#[derive(Debug, Clone)]
pub struct LabeledCorpus {
    /// The generated messages, tokenized.
    pub corpus: Corpus,
    /// Ground-truth event index per message.
    pub labels: Vec<usize>,
    /// The ground-truth templates, indexed by label.
    pub truth_templates: Vec<Template>,
    /// The messages, each followed by `\n`, back to back.
    text: String,
    /// `ends[i]` is where message `i` ends in `text`, at its `\n`.
    ends: Vec<usize>,
}

impl LabeledCorpus {
    /// Labels the messages of `text`, each followed by `\n`: message `i`
    /// was produced by event `labels[i]` of `truth_templates`.
    ///
    /// # Panics
    ///
    /// Panics unless `text` holds one message per label.
    pub fn new(text: String, labels: Vec<usize>, truth_templates: Vec<Template>) -> Self {
        let ends: Vec<usize> = text.match_indices('\n').map(|(at, _)| at).collect();
        assert!(
            ends.len() == labels.len() && text.len() == ends.last().map_or(0, |end| end + 1),
            "{} label(s) for {} line(s)",
            labels.len(),
            ends.len()
        );
        LabeledCorpus {
            corpus: Corpus::from_lines(text.split_terminator('\n')),
            labels,
            truth_templates,
            text,
            ends,
        }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// Returns `true` when the corpus holds no messages.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Message `index`'s text.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn line(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |prev| self.ends[prev] + 1);
        &self.text[start..self.ends[index]]
    }

    /// Every message, each followed by `\n`: the log file they make.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The same messages and labels over the corpus `preprocessor`
    /// masks ([`Preprocessor::apply`]); the text is the raw lines.
    pub fn preprocessed(&self, preprocessor: &Preprocessor) -> LabeledCorpus {
        LabeledCorpus {
            corpus: preprocessor.apply(&self.corpus),
            ..self.clone()
        }
    }

    /// Number of *distinct* events that actually occur in the corpus
    /// (small samples may not exercise every template).
    pub fn distinct_events(&self) -> usize {
        let mut seen = vec![false; self.truth_templates.len()];
        for &l in &self.labels {
            seen[l] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// A new labeled corpus truncated to the first `n` messages.
    pub fn take(&self, n: usize) -> LabeledCorpus {
        let n = n.min(self.len());
        let end = n.checked_sub(1).map_or(0, |last| self.ends[last] + 1);
        LabeledCorpus {
            corpus: self.corpus.take(n),
            labels: self.labels[..n].to_vec(),
            truth_templates: self.truth_templates.clone(),
            text: self.text[..end].to_owned(),
            ends: self.ends[..n].to_vec(),
        }
    }

    /// A uniform random sample of `n` messages (without replacement),
    /// matching the paper's "randomly sample 2k log messages" protocol.
    pub fn sample(&self, n: usize, seed: u64) -> LabeledCorpus {
        let n = n.min(self.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..self.len()).collect();
        // Partial Fisher-Yates: the first n positions end up a uniform
        // sample.
        for i in 0..n {
            let j = rand::Rng::gen_range(&mut rng, i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(n);
        let mut text = String::new();
        let mut ends = Vec::with_capacity(n);
        for &i in &indices {
            text.push_str(self.line(i));
            ends.push(text.len());
            text.push('\n');
        }
        LabeledCorpus {
            corpus: self.corpus.select(&indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            truth_templates: self.truth_templates.clone(),
            text,
            ends,
        }
    }
}

/// A complete dataset description: named template library plus event
/// frequency weights.
///
/// # Example
///
/// ```
/// use logparse_datasets::{DatasetSpec, TemplateSpec};
///
/// let spec = DatasetSpec::new(
///     "demo",
///     vec![
///         TemplateSpec::parse("job <int> started"),
///         TemplateSpec::parse("job <int> finished in <ms>"),
///     ],
/// );
/// let data = spec.generate(100, 42);
/// assert_eq!(data.len(), 100);
/// assert_eq!(data.truth_templates.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    name: &'static str,
    templates: Vec<TemplateSpec>,
    weights: Vec<f64>,
}

impl DatasetSpec {
    /// Creates a dataset with Zipf-distributed event frequencies
    /// (exponent 1.2), the skew shape observed in production logs where a
    /// few events dominate the volume.
    ///
    /// # Panics
    ///
    /// Panics if `templates` is empty.
    pub fn new(name: &'static str, templates: Vec<TemplateSpec>) -> Self {
        assert!(!templates.is_empty(), "dataset needs at least one template");
        let weights = (0..templates.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.2))
            .collect();
        DatasetSpec {
            name,
            templates,
            weights,
        }
    }

    /// Creates a dataset with explicit per-template weights.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, `templates` is empty, or any weight is
    /// non-positive.
    pub fn with_weights(
        name: &'static str,
        templates: Vec<TemplateSpec>,
        weights: Vec<f64>,
    ) -> Self {
        assert!(!templates.is_empty(), "dataset needs at least one template");
        assert_eq!(templates.len(), weights.len(), "one weight per template");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        DatasetSpec {
            name,
            templates,
            weights,
        }
    }

    /// The dataset's name (e.g. `"BGL"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The template library.
    pub fn templates(&self) -> &[TemplateSpec] {
        &self.templates
    }

    /// Number of event types.
    pub fn event_count(&self) -> usize {
        self.templates.len()
    }

    /// The range of template lengths (min, max) in tokens.
    pub fn length_range(&self) -> (usize, usize) {
        let lens = self.templates.iter().map(TemplateSpec::len);
        (lens.clone().min().unwrap_or(0), lens.max().unwrap_or(0))
    }

    /// Generates `n` messages with the configured frequency skew,
    /// reproducibly from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> LabeledCorpus {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = WeightedIndex::new(&self.weights).expect("validated positive weights");
        let mut text = String::new();
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let event = dist.sample(&mut rng);
            text.push_str(&self.templates[event].render(&mut rng));
            text.push('\n');
            labels.push(event);
        }
        let truth = self.templates.iter().map(TemplateSpec::ground_truth);
        LabeledCorpus::new(text, labels, truth.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> DatasetSpec {
        DatasetSpec::new(
            "demo",
            vec![
                TemplateSpec::parse("alpha <int> beta"),
                TemplateSpec::parse("gamma delta <ip>"),
                TemplateSpec::parse("epsilon <blk> zeta <int>"),
            ],
        )
    }

    #[test]
    fn generation_is_reproducible() {
        let spec = demo_spec();
        let a = spec.generate(50, 7);
        let b = spec.generate(50, 7);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = demo_spec();
        assert_ne!(spec.generate(50, 1).corpus, spec.generate(50, 2).corpus);
    }

    #[test]
    fn labels_match_ground_truth_templates() {
        let data = demo_spec().generate(100, 3);
        for i in 0..data.len() {
            let template = &data.truth_templates[data.labels[i]];
            assert!(
                template.matches(&data.corpus.tokens(i)),
                "message {i} does not match its label"
            );
        }
    }

    #[test]
    fn zipf_weights_skew_the_distribution() {
        let data = demo_spec().generate(3000, 5);
        let mut counts = [0usize; 3];
        for &l in &data.labels {
            counts[l] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn sample_is_without_replacement() {
        let data = demo_spec().generate(200, 9);
        let sample = data.sample(50, 1);
        assert_eq!(sample.len(), 50);
        let mut lines: Vec<usize> = sample.corpus.line_numbers().collect();
        for (i, &line) in lines.iter().enumerate() {
            assert_eq!(
                sample.line(i),
                data.line(line - 1),
                "sample {i} is line {line}"
            );
        }
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 50, "line numbers must be unique");
    }

    #[test]
    fn sample_larger_than_corpus_clamps() {
        let data = demo_spec().generate(10, 4);
        assert_eq!(data.sample(100, 0).len(), 10);
    }

    #[test]
    fn take_preserves_prefix() {
        let data = demo_spec().generate(30, 8);
        let head = data.take(5);
        assert_eq!(head.len(), 5);
        assert_eq!(head.line(0), data.line(0));
        assert_eq!(head.line(4), data.line(4));
        assert_eq!(head.corpus, data.corpus.take(5));
        assert!(data.text().starts_with(head.text()));
        assert_eq!(head.text().lines().count(), 5);
        assert_eq!(head.labels[..], data.labels[..5]);
    }

    #[test]
    fn distinct_events_counts_only_occurring() {
        let spec = DatasetSpec::with_weights(
            "skew",
            vec![
                TemplateSpec::parse("common event <int>"),
                TemplateSpec::parse("practically never <int>"),
            ],
            vec![1e9, 1e-9],
        );
        let data = spec.generate(20, 2);
        assert_eq!(data.distinct_events(), 1);
    }

    #[test]
    fn length_range_reflects_templates() {
        assert_eq!(demo_spec().length_range(), (3, 4));
    }
}
