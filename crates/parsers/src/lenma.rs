//! LenMa — Length Matters clustering (Shima, 2016).
//!
//! **Extension parser** (not part of the DSN'16 study; included in the
//! follow-on LogPAI toolkit). LenMa's insight is that the *character
//! lengths* of a template's variable tokens vary while its constant
//! tokens keep fixed lengths: each message becomes a vector of token
//! lengths, and a message joins the cluster (of equal token count) whose
//! length vector has the highest cosine similarity — with exact token
//! matches taken into account — above a threshold.

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError, Symbol};

/// The LenMa parser. Construct via [`LenMa::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::LenMa;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "accepted connection from 10.0.0.17",
///     "accepted connection from 10.0.0.94",
/// ]);
/// let parse = LenMa::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LenMa {
    threshold: f64,
}

impl Default for LenMa {
    fn default() -> Self {
        LenMa { threshold: 0.85 }
    }
}

impl LenMa {
    /// Starts building a LenMa configuration.
    pub fn builder() -> LenMaBuilder {
        LenMaBuilder::default()
    }
}

/// Builder for [`LenMa`].
#[derive(Debug, Clone, Default)]
pub struct LenMaBuilder {
    threshold: Option<f64>,
}

impl LenMaBuilder {
    /// Sets the similarity acceptance threshold (default 0.85).
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> LenMa {
        LenMa {
            threshold: self.threshold.unwrap_or(LenMa::default().threshold),
        }
    }
}

/// A LenMa cluster: the running length vector (averaged over members),
/// the token sequence of the first member (for exact-match credit), and
/// member indices.
#[derive(Debug)]
struct Cluster {
    lengths: Vec<f64>,
    representative: Vec<Symbol>,
    members: Vec<usize>,
}

/// Cosine similarity of two equal-length vectors (0 when either is 0).
fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl LogParser for LenMa {
    fn name(&self) -> &'static str {
        "LenMa"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(ParseError::InvalidConfig {
                parameter: "threshold",
                reason: format!("{} must lie in [0, 1]", self.threshold),
            });
        }
        // Per-symbol byte lengths, computed once over the vocabulary —
        // the per-message length vector then never touches token bytes.
        let interner = corpus.interner();
        let sym_len: Vec<f64> = (0..interner.len())
            .map(|id| interner.resolve(Symbol::from_id(id as u32)).len() as f64)
            .collect();
        // Clusters bucketed by token count.
        let mut buckets: std::collections::HashMap<usize, Vec<Cluster>> =
            std::collections::HashMap::new();
        for idx in 0..corpus.len() {
            let tokens = corpus.symbols(idx);
            if tokens.is_empty() {
                continue;
            }
            let lengths: Vec<f64> = tokens.iter().map(|t| sym_len[t.id() as usize]).collect();
            let clusters = buckets.entry(tokens.len()).or_default();
            let best = clusters
                .iter_mut()
                .map(|c| {
                    // Positions whose tokens match exactly contribute
                    // their exact length; the similarity blends the
                    // length-vector cosine with the exact-match ratio.
                    let exact = c
                        .representative
                        .iter()
                        .zip(tokens)
                        .filter(|(a, b)| *a == *b)
                        .count() as f64
                        / tokens.len() as f64;
                    let score = 0.5 * cosine(&c.lengths, &lengths) + 0.5 * exact;
                    (score, c)
                })
                .max_by(|a, b| a.0.total_cmp(&b.0));
            match best {
                Some((score, cluster)) if score >= self.threshold => {
                    // Running mean of the length vectors.
                    let n = cluster.members.len() as f64;
                    for (m, l) in cluster.lengths.iter_mut().zip(&lengths) {
                        *m = (*m * n + l) / (n + 1.0);
                    }
                    cluster.members.push(idx);
                }
                _ => clusters.push(Cluster {
                    lengths,
                    representative: tokens.to_vec(),
                    members: vec![idx],
                }),
            }
        }

        let mut clusters: Vec<Cluster> = buckets.into_values().flatten().collect();
        clusters.sort_by_key(|c| c.members.first().copied());
        let mut builder = ParseBuilder::new(corpus.len());
        for cluster in clusters {
            builder.add_cluster(corpus, &cluster.members);
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
    fn cosine_of_parallel_vectors_is_one() {
        assert!((cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn same_template_messages_cluster() {
        let c = corpus(&[
            "accepted connection from 10.0.0.17",
            "accepted connection from 10.0.0.94",
            "accepted connection from 10.0.0.3",
        ]);
        let parse = LenMa::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(
            parse.templates()[0].to_string(),
            "accepted connection from *"
        );
    }

    #[test]
    fn different_token_counts_never_merge() {
        let c = corpus(&["a b c", "a b c d"]);
        let parse = LenMa::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn dissimilar_same_length_messages_split() {
        let c = corpus(&[
            "connection accepted from host",
            "segmentation fault at 0xdeadbeef",
        ]);
        let parse = LenMa::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn threshold_zero_merges_all_equal_lengths() {
        let c = corpus(&["a b", "x y", "p q"]);
        let parse = LenMa::builder().threshold(0.0).build().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        let err = LenMa::builder()
            .threshold(2.0)
            .build()
            .parse(&corpus(&["a"]));
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_lines_are_outliers() {
        let parse = LenMa::default().parse(&corpus(&["", "a b"])).unwrap();
        assert_eq!(parse.assignments()[0], None);
        assert_eq!(parse.outlier_count(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a 12 b", "a 34 b", "x yz w", "x qr w"]);
        let p = LenMa::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }
}
