//! SLCT — Simple Logfile Clustering Tool (Vaarandi, IPOM 2003).
//!
//! SLCT treats log parsing as frequent-itemset mining over `(position,
//! word)` pairs. It makes two passes over the data:
//!
//! 1. **Word vocabulary construction** — count how often every word occurs
//!    at every token position.
//! 2. **Cluster candidate construction** — each message is described by
//!    the set of its *frequent* `(position, word)` pairs; identical
//!    descriptions form a cluster candidate.
//!
//! Candidates supported by at least the threshold number of messages
//! become clusters; all remaining messages are placed into the outlier
//! cluster (reported as unassigned here).

use std::collections::HashMap;

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError};

/// Support threshold for SLCT's frequent words and clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Support {
    /// An absolute number of occurrences (the `-s` flag of the original
    /// C tool).
    Count(usize),
    /// A fraction of the corpus size, rounded up; scale-free, which makes
    /// it the right choice for the paper's Fig. 3 size sweeps.
    Fraction(f64),
}

impl Support {
    /// Resolves the threshold against a corpus of `n` messages (≥ 1).
    fn resolve(self, n: usize) -> usize {
        match self {
            Support::Count(c) => c.max(1),
            Support::Fraction(f) => ((f * n as f64).ceil() as usize).max(1),
        }
    }
}

/// The SLCT parser. Construct via [`Slct::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Slct;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines(["job 1 done", "job 2 done", "job 3 done", "unique failure"]);
/// let parse = Slct::builder().support_count(3).build().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 1);
/// assert_eq!(parse.outlier_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Slct {
    support: Support,
}

impl Default for Slct {
    /// Default support is 0.1% of the corpus (minimum 2 messages), a
    /// reasonable operating point across the study's datasets.
    fn default() -> Self {
        Slct {
            support: Support::Fraction(0.001),
        }
    }
}

impl Slct {
    /// Starts building an SLCT configuration.
    pub fn builder() -> SlctBuilder {
        SlctBuilder::default()
    }

    /// The configured support threshold.
    pub fn support(&self) -> Support {
        self.support
    }
}

/// Builder for [`Slct`].
#[derive(Debug, Clone, Default)]
pub struct SlctBuilder {
    support: Option<Support>,
}

impl SlctBuilder {
    /// Sets an absolute support count (original `-s`).
    #[must_use]
    pub fn support_count(mut self, count: usize) -> Self {
        self.support = Some(Support::Count(count));
        self
    }

    /// Sets a relative support threshold as a fraction of the corpus.
    #[must_use]
    pub fn support_fraction(mut self, fraction: f64) -> Self {
        self.support = Some(Support::Fraction(fraction));
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Slct {
        Slct {
            support: self.support.unwrap_or(Slct::default().support),
        }
    }
}

impl LogParser for Slct {
    fn name(&self) -> &'static str {
        "SLCT"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        if let Support::Fraction(f) = self.support {
            if !(0.0..=1.0).contains(&f) {
                return Err(ParseError::InvalidConfig {
                    parameter: "support",
                    reason: format!("fraction {f} must lie in [0, 1]"),
                });
            }
        }
        let n = corpus.len();
        let mut builder = ParseBuilder::new(n);
        if n == 0 {
            return Ok(builder.build());
        }
        let support = self.support.resolve(n);

        // Pass 1: word vocabulary — occurrence counts of (position, word),
        // with each pair packed as `pos << 32 | symbol`. Counting is a
        // sort + run-length scan over one flat `Vec<u64>` instead of a
        // string-keyed hash map: every token costs an integer pack here
        // and a binary search in pass 2, never a byte-string hash.
        let arena = corpus.arena();
        let mut packed: Vec<u64> = Vec::with_capacity(arena.token_count());
        for tokens in arena.iter() {
            for (pos, sym) in tokens.iter().enumerate() {
                packed.push((pos as u64) << 32 | u64::from(sym.id()));
            }
        }
        packed.sort_unstable();
        // Frequent (position, word) pairs, sorted — pass 2 probes by
        // binary search.
        let mut frequent: Vec<u64> = Vec::new();
        let mut i = 0;
        while i < packed.len() {
            let mut j = i + 1;
            while j < packed.len() && packed[j] == packed[i] {
                j += 1;
            }
            if j - i >= support {
                frequent.push(packed[i]);
            }
            i = j;
        }

        // Pass 2: cluster candidates — the sorted set of frequent
        // (position, word) pairs of each message. The message length is
        // part of the key so that positionwise templates stay well formed.
        let mut candidates: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
        for (idx, tokens) in arena.iter().enumerate() {
            let mut key: Vec<u64> = tokens
                .iter()
                .enumerate()
                .map(|(pos, sym)| (pos as u64) << 32 | u64::from(sym.id()))
                .filter(|pair| frequent.binary_search(pair).is_ok())
                .collect();
            if key.is_empty() {
                continue; // no frequent word: outlier
            }
            // Length marker: the all-ones symbol half cannot collide with
            // a real symbol (the interner caps ids below u32::MAX).
            key.push((tokens.len() as u64) << 32 | u64::from(u32::MAX));
            candidates.entry(key).or_default().push(idx);
        }

        // Select candidates with enough support; deterministic order by
        // first member so repeated runs produce identical event ids.
        let mut clusters: Vec<Vec<usize>> = candidates
            .into_values()
            .filter(|members| members.len() >= support)
            .collect();
        clusters.sort_by_key(|members| members.first().copied());
        for members in clusters {
            builder.add_cluster(corpus, &members);
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    #[test]
    fn frequent_pattern_forms_cluster_with_wildcard() {
        let c = corpus(&[
            "Receiving block blk_1 src: 10.0.0.1",
            "Receiving block blk_2 src: 10.0.0.2",
            "Receiving block blk_3 src: 10.0.0.3",
        ]);
        let parse = Slct::builder().support_count(3).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "Receiving block * src: *");
        assert_eq!(parse.outlier_count(), 0);
    }

    #[test]
    fn rare_messages_become_outliers() {
        let c = corpus(&["a b", "a b", "a b", "x y"]);
        let parse = Slct::builder().support_count(2).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.assignments()[3], None);
    }

    #[test]
    fn length_disambiguates_candidates() {
        // Same frequent prefix but different lengths must not merge into
        // a single positionwise template. Job ids are unique, hence
        // infrequent, so the candidates are {start, job} at two lengths.
        let c = corpus(&[
            "start job 17",
            "start job 23",
            "start job 31 extra",
            "start job 45 extra",
        ]);
        let parse = Slct::builder().support_count(2).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
        let t: Vec<String> = parse.templates().iter().map(|t| t.to_string()).collect();
        assert!(t.contains(&"start job *".to_string()), "{t:?}");
        assert!(t.contains(&"start job * extra".to_string()), "{t:?}");
    }

    #[test]
    fn fraction_support_scales_with_corpus() {
        let lines: Vec<String> = (0..100).map(|i| format!("tick {i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let c = corpus(&refs);
        // 5% of 100 = 5: "tick" is frequent (100 occurrences), ids are not.
        let parse = Slct::builder()
            .support_fraction(0.05)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "tick *");
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        let c = corpus(&["a"]);
        let err = Slct::builder().support_fraction(1.5).build().parse(&c);
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_corpus_parses_to_empty() {
        let parse = Slct::default().parse(&corpus(&[])).unwrap();
        assert!(parse.is_empty());
        assert_eq!(parse.event_count(), 0);
    }

    #[test]
    fn support_one_puts_every_message_in_a_cluster() {
        let c = corpus(&["a b", "c d", "a b"]);
        let parse = Slct::builder().support_count(1).build().parse(&c).unwrap();
        assert_eq!(parse.outlier_count(), 0);
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn parse_is_deterministic() {
        let c = corpus(&["a 1", "a 2", "b 1", "b 2", "a 3", "b 3"]);
        let p = Slct::builder().support_count(2).build();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }
}
