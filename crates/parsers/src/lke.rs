//! LKE — Log Key Extraction (Fu, Lou, Wang, Li; ICDM 2009).
//!
//! LKE combines clustering and heuristics:
//!
//! 1. **Log clustering** — single-linkage hierarchical clustering of raw
//!    messages under a *weighted token edit distance*: edits near the
//!    front of a message (where the constant text usually lives) cost
//!    more than edits near the back. Two messages join the same cluster
//!    whenever their distance is below a threshold, which matches the
//!    aggressive strategy the study calls out in Finding 1's analysis
//!    ("groups two clusters if any two log messages between them has a
//!    distance smaller than a specified threshold").
//! 2. **Cluster splitting** — inside each cluster, token columns with a
//!    small number of distinct values are assumed to be constants of
//!    different events and the cluster is split by them, recursively.
//! 3. **Template generation** — positionwise, like the other methods.
//!
//! The distance threshold can be fixed or estimated from the data by
//! 2-means over the observed pairwise distances (the original paper
//! derives its threshold from the data distribution too).

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError, Symbol};
use std::collections::HashMap;

/// How LKE obtains its clustering distance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistanceThreshold {
    /// Use the given threshold directly.
    Fixed(f64),
    /// Estimate by running 2-means on all pairwise distances and placing
    /// the threshold at the midpoint of the two centroids. Deterministic:
    /// centroids are seeded with the minimum and maximum distance.
    Auto,
}

/// The LKE parser. Construct via [`Lke::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Lke;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "Connection established to node 1",
///     "Connection established to node 2",
///     "Heartbeat missed on rack 7",
///     "Heartbeat missed on rack 9",
/// ]);
/// let parse = Lke::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lke {
    threshold: DistanceThreshold,
    /// Sigmoid midpoint of the positional weight curve.
    weight_midpoint: f64,
    /// Maximum number of distinct column values that still triggers a
    /// split in step 2.
    split_threshold: usize,
}

impl Default for Lke {
    fn default() -> Self {
        Lke {
            threshold: DistanceThreshold::Auto,
            weight_midpoint: 10.0,
            split_threshold: 8,
        }
    }
}

impl Lke {
    /// Starts building an LKE configuration.
    pub fn builder() -> LkeBuilder {
        LkeBuilder::default()
    }

    /// The clustering threshold this parser would use on `corpus`: the
    /// fixed value if one was configured, otherwise the 2-means estimate
    /// over all pairwise distances. `None` for corpora with fewer than
    /// two messages (no distances to estimate from).
    ///
    /// Exposed so evaluation harnesses can freeze a data-driven
    /// threshold from a sample and reuse it at other corpus sizes, as
    /// the study's Fig. 3 protocol requires.
    pub fn estimate_threshold(&self, corpus: &Corpus) -> Option<f64> {
        if let DistanceThreshold::Fixed(t) = self.threshold {
            return Some(t);
        }
        let n = corpus.len();
        if n < 2 {
            return None;
        }
        let mut distances = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                distances.push(weighted_edit_distance(
                    corpus.symbols(i),
                    corpus.symbols(j),
                    self.weight_midpoint,
                ));
            }
        }
        Some(two_means_threshold(&distances))
    }
}

/// Builder for [`Lke`].
#[derive(Debug, Clone, Default)]
pub struct LkeBuilder {
    threshold: Option<DistanceThreshold>,
    weight_midpoint: Option<f64>,
    split_threshold: Option<usize>,
}

impl LkeBuilder {
    /// Uses a fixed clustering distance threshold.
    #[must_use]
    pub fn fixed_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(DistanceThreshold::Fixed(threshold));
        self
    }

    /// Estimates the threshold from the data (default).
    #[must_use]
    pub fn auto_threshold(mut self) -> Self {
        self.threshold = Some(DistanceThreshold::Auto);
        self
    }

    /// Sets the sigmoid midpoint of the positional edit weight: edits at
    /// token positions beyond the midpoint cost progressively less
    /// (default 10).
    #[must_use]
    pub fn weight_midpoint(mut self, midpoint: f64) -> Self {
        self.weight_midpoint = Some(midpoint);
        self
    }

    /// Sets the maximum column cardinality that still triggers a step-2
    /// split (default 8).
    #[must_use]
    pub fn split_threshold(mut self, threshold: usize) -> Self {
        self.split_threshold = Some(threshold);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Lke {
        let d = Lke::default();
        Lke {
            threshold: self.threshold.unwrap_or(d.threshold),
            weight_midpoint: self.weight_midpoint.unwrap_or(d.weight_midpoint),
            split_threshold: self.split_threshold.unwrap_or(d.split_threshold),
        }
    }
}

/// Positional weight of an edit at token index `i`: a logistic curve that
/// is ≈1 for early positions and decays past the midpoint, encoding the
/// observation that the head of a log message is usually constant text.
fn positional_weight(i: usize, midpoint: f64) -> f64 {
    1.0 / (1.0 + ((i as f64 - midpoint) * 0.5).exp())
}

/// Weighted token edit distance between two messages, normalized by the
/// maximum possible cost so that values are comparable across lengths.
///
/// Note: common-prefix/suffix trimming — the classic Levenshtein speedup
/// — is deliberately **not** applied: with position-dependent weights an
/// optimal alignment may cross the trimmed boundary (match a suffix
/// token against an earlier occurrence), so trimming changes the result.
fn weighted_edit_distance<T: PartialEq>(a: &[T], b: &[T], midpoint: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 && m == 0 {
        return 0.0;
    }
    let max_cost: f64 = (0..n.max(m)).map(|k| positional_weight(k, midpoint)).sum();
    if max_cost == 0.0 {
        return 0.0;
    }
    // dp[j] holds the cost of transforming a[..i] into b[..j].
    let mut prev: Vec<f64> = (0..=m)
        .map(|j| (0..j).map(|k| positional_weight(k, midpoint)).sum())
        .collect();
    let mut curr = vec![0.0f64; m + 1];
    for i in 1..=n {
        // lint:allow(panic-freedom): both dp rows are allocated with fixed length m + 1 >= 1 just above, so index 0 is always in bounds
        curr[0] = prev[0] + positional_weight(i - 1, midpoint);
        for j in 1..=m {
            let w = positional_weight(usize::max(i, j) - 1, midpoint);
            let sub = if a[i - 1] == b[j - 1] {
                prev[j - 1]
            } else {
                prev[j - 1] + w
            };
            curr[j] = sub.min(prev[j] + w).min(curr[j - 1] + w);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m] / max_cost
}

/// Deterministic 2-means over scalar values; returns the midpoint of the
/// two centroids. Falls back to the mean when all values are equal.
fn two_means_threshold(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max <= min {
        return min;
    }
    let (mut c0, mut c1) = (min, max);
    for _ in 0..50 {
        let (mut s0, mut n0, mut s1, mut n1) = (0.0, 0usize, 0.0, 0usize);
        for &v in values {
            if (v - c0).abs() <= (v - c1).abs() {
                s0 += v;
                n0 += 1;
            } else {
                s1 += v;
                n1 += 1;
            }
        }
        let new_c0 = if n0 > 0 { s0 / n0 as f64 } else { c0 };
        let new_c1 = if n1 > 0 { s1 / n1 as f64 } else { c1 };
        if (new_c0 - c0).abs() < 1e-12 && (new_c1 - c1).abs() < 1e-12 {
            break;
        }
        c0 = new_c0;
        c1 = new_c1;
    }
    (c0 + c1) / 2.0
}

/// Union-find over message indices (single-linkage connected components).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

impl LogParser for Lke {
    fn name(&self) -> &'static str {
        "LKE"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        if let DistanceThreshold::Fixed(t) = self.threshold {
            if !(0.0..=1.0).contains(&t) {
                return Err(ParseError::InvalidConfig {
                    parameter: "threshold",
                    reason: format!("{t} must lie in [0, 1] (distances are normalized)"),
                });
            }
        }
        let n = corpus.len();
        let mut builder = ParseBuilder::new(n);
        if n == 0 {
            return Ok(builder.build());
        }

        // Step 1: all pairwise distances (this is the O(n²) the study's
        // Finding 3 measures) + single-linkage threshold clustering.
        // Distances run over interned symbol rows: the inner DP compares
        // `u32`s, never token bytes.
        let mut distances = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                distances.push(weighted_edit_distance(
                    corpus.symbols(i),
                    corpus.symbols(j),
                    self.weight_midpoint,
                ));
            }
        }
        let threshold = match self.threshold {
            DistanceThreshold::Fixed(t) => t,
            DistanceThreshold::Auto => two_means_threshold(&distances),
        };
        let mut uf = UnionFind::new(n);
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if distances[k] <= threshold {
                    uf.union(i, j);
                }
                k += 1;
            }
        }
        let mut clusters: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            clusters.entry(uf.find(i)).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = clusters.into_values().collect();
        clusters.sort_by_key(|c| c.first().copied());

        // Step 2: recursive heuristic splitting.
        let mut leaves = Vec::new();
        for cluster in clusters {
            self.split_cluster(corpus, cluster, &mut leaves);
        }
        leaves.sort_by_key(|c| c.first().copied());
        for leaf in leaves {
            builder.add_cluster(corpus, &leaf);
        }
        Ok(builder.build())
    }
}

impl Lke {
    /// Step 2: if some token column has more than one but at most
    /// `split_threshold` distinct values — and fewer than the cluster size,
    /// so it does not look like a free parameter — split on the column
    /// with the fewest such values and recurse.
    fn split_cluster(&self, corpus: &Corpus, cluster: Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cluster.len() <= 1 {
            out.push(cluster);
            return;
        }
        let min_len = cluster
            .iter()
            .map(|&i| corpus.symbols(i).len())
            .min()
            .unwrap_or(0);
        let mut best: Option<(usize, usize)> = None; // (cardinality, column)
        for col in 0..min_len {
            let mut values: Vec<Symbol> = cluster.iter().map(|&i| corpus.symbols(i)[col]).collect();
            values.sort_unstable();
            values.dedup();
            let card = values.len();
            if card > 1 && card <= self.split_threshold && card < cluster.len() {
                match best {
                    Some((c, _)) if c <= card => {}
                    _ => best = Some((card, col)),
                }
            }
        }
        match best {
            Some((_, col)) => {
                let mut groups: HashMap<Symbol, Vec<usize>> = HashMap::new();
                for &i in &cluster {
                    groups.entry(corpus.symbols(i)[col]).or_default().push(i);
                }
                let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
                groups.sort_by_key(|g| g.first().copied());
                for group in groups {
                    self.split_cluster(corpus, group, out);
                }
            }
            None => out.push(cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn identical_messages_have_zero_distance() {
        let a = toks("alpha beta gamma");
        assert_eq!(weighted_edit_distance(&a, &a, 10.0), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_normalized() {
        let a = toks("connection from 10.0.0.1 accepted");
        let b = toks("connection from 10.0.0.2 refused with error");
        let d1 = weighted_edit_distance(&a, &b, 10.0);
        let d2 = weighted_edit_distance(&b, &a, 10.0);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn early_edits_cost_more_than_late_edits() {
        let base = toks("a b c d e f g h i j");
        let mut early = base.clone();
        early[0] = "X".into();
        let mut late = base.clone();
        late[9] = "X".into();
        let d_early = weighted_edit_distance(&base, &early, 4.0);
        let d_late = weighted_edit_distance(&base, &late, 4.0);
        assert!(d_early > d_late, "{d_early} vs {d_late}");
    }

    #[test]
    fn disjoint_messages_have_distance_one() {
        let a = toks("p q r");
        let b = toks("x y z");
        let d = weighted_edit_distance(&a, &b, 10.0);
        assert!((d - 1.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn two_means_splits_bimodal_distances() {
        let values = [0.05, 0.06, 0.04, 0.91, 0.93, 0.9];
        let t = two_means_threshold(&values);
        assert!(t > 0.06 && t < 0.9, "{t}");
    }

    #[test]
    fn two_means_on_constant_values_returns_value() {
        assert_eq!(two_means_threshold(&[0.4, 0.4, 0.4]), 0.4);
    }

    #[test]
    fn clusters_similar_messages_and_separates_dissimilar() {
        let c = corpus(&[
            "Receiving block blk_1 src 10.0.0.1 dest 10.0.0.9",
            "Receiving block blk_2 src 10.0.0.2 dest 10.0.0.8",
            "Receiving block blk_3 src 10.0.0.3 dest 10.0.0.7",
            "Starting checkpoint thread immediately",
            "Starting checkpoint thread immediately",
        ]);
        let parse = Lke::builder()
            .fixed_threshold(0.5)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 2);
        assert_eq!(parse.assignments()[0], parse.assignments()[1]);
        assert_ne!(parse.assignments()[0], parse.assignments()[3]);
    }

    #[test]
    fn splitting_separates_low_cardinality_columns() {
        // One distance-cluster, but column 1 has two values (start/stop)
        // that denote different events.
        let c = corpus(&[
            "service start on node1",
            "service start on node2",
            "service stop on node1",
            "service stop on node2",
        ]);
        let parse = Lke::builder()
            .fixed_threshold(0.9)
            .split_threshold(2)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn free_parameter_columns_do_not_trigger_splits() {
        // Column 2 has 4 distinct values over 4 messages: a parameter,
        // not an event discriminator.
        let c = corpus(&[
            "request took 17 ms",
            "request took 23 ms",
            "request took 31 ms",
            "request took 47 ms",
        ]);
        let parse = Lke::builder()
            .fixed_threshold(0.5)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "request took * ms");
    }

    #[test]
    fn empty_corpus_parses_to_empty() {
        let parse = Lke::default().parse(&corpus(&[])).unwrap();
        assert!(parse.is_empty());
    }

    #[test]
    fn invalid_fixed_threshold_is_rejected() {
        let err = Lke::builder()
            .fixed_threshold(1.5)
            .build()
            .parse(&corpus(&["a"]));
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a b 1", "a b 2", "c d 1", "c d 2", "e f g"]);
        let p = Lke::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }
}
