//! LogSig — generating system events from raw textual logs (Tang, Li,
//! Perng; CIKM 2011).
//!
//! LogSig searches for `k` message groups guided by a *potential* value
//! computed from word pairs:
//!
//! 1. **Word pair generation** — every message is converted to the set of
//!    ordered token pairs `(tᵢ, tⱼ)`, `i < j`, which encodes both the
//!    words and their relative order.
//! 2. **Log clustering** — messages start in `k` random groups (seeded,
//!    hence reproducible); in each sweep a message moves to the group it
//!    is most *attracted* to — the group whose members share the most
//!    word pairs with it on average, `Σₚ N(p,C)⁄|C|` — until no message
//!    moves or the iteration cap is reached. A message whose pairs occur
//!    nowhere else feels no attraction and stays wherever the random
//!    initialization put it, which is why the study observes LogSig
//!    scattering BGL's `generating core.*` family ("LogSig tends to
//!    separate these log messages into different clusters").
//! 3. **Template generation** — each group's *signature* is the ordered
//!    sequence of tokens appearing in at least half of its messages;
//!    groups with identical signatures describe the same event and are
//!    merged before the final positionwise templates are emitted. (This
//!    is what reunites a scattered family once preprocessing makes its
//!    messages identical — the paper's BGL 0.26 → 0.98 jump.)
//!
//! The paper's RQ1 experiments run LogSig 10 times and average; do the
//! same by constructing parsers with 10 different seeds.

use std::collections::HashMap;

use logparse_core::{Corpus, Interner, LogParser, Parse, ParseBuilder, ParseError, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The LogSig parser. Construct via [`LogSig::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::LogSig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "user alice logged in",
///     "user bob logged in",
///     "disk sda1 is full",
///     "disk sdb2 is full",
/// ]);
/// let parse = LogSig::builder().clusters(2).seed(7).build().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSig {
    clusters: usize,
    seed: u64,
    max_iterations: usize,
}

impl Default for LogSig {
    /// Defaults to 16 clusters — a placeholder that real evaluations
    /// override with the dataset's tuned event count, as the paper does.
    fn default() -> Self {
        LogSig {
            clusters: 16,
            seed: 0,
            max_iterations: 100,
        }
    }
}

impl LogSig {
    /// Starts building a LogSig configuration.
    pub fn builder() -> LogSigBuilder {
        LogSigBuilder::default()
    }

    /// The configured number of clusters `k`.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }
}

/// Builder for [`LogSig`].
#[derive(Debug, Clone, Default)]
pub struct LogSigBuilder {
    clusters: Option<usize>,
    seed: Option<u64>,
    max_iterations: Option<usize>,
}

impl LogSigBuilder {
    /// Sets the number of clusters `k` (the paper tunes this per dataset;
    /// it directly determines the number of reported events).
    #[must_use]
    pub fn clusters(mut self, k: usize) -> Self {
        self.clusters = Some(k);
        self
    }

    /// Sets the RNG seed controlling the initial random assignment.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Caps the number of local-search sweeps (default 100).
    #[must_use]
    pub fn max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = Some(iterations);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> LogSig {
        let d = LogSig::default();
        LogSig {
            clusters: self.clusters.unwrap_or(d.clusters),
            seed: self.seed.unwrap_or(d.seed),
            max_iterations: self.max_iterations.unwrap_or(d.max_iterations),
        }
    }
}

/// Interned word-pair key: two dense token ids packed into a u64.
type PairKey = u64;

/// Word-pair statistics for the whole clustering, kept **pair-major**:
/// for every pair, the per-cluster occurrence counts. Evaluating a move
/// of message `x` then costs `O(Σ_p nnz(p))` instead of `O(k·|P|)` —
/// pairs concentrate in few clusters, so this is what makes LogSig's
/// local search tractable at the study's event counts (BGL has 376).
#[derive(Debug, Default)]
struct PairIndex {
    /// pair → (cluster → count); inner maps stay small.
    clusters_of: HashMap<PairKey, HashMap<u32, u32>>,
    /// Per-cluster Σₚ N(p,C)², kept incrementally.
    sum_sq: Vec<f64>,
    /// Per-cluster member count.
    size: Vec<usize>,
}

impl PairIndex {
    fn new(k: usize) -> Self {
        PairIndex {
            clusters_of: HashMap::new(),
            sum_sq: vec![0.0; k],
            size: vec![0; k],
        }
    }

    /// The cluster's potential Φ(C) = Σₚ N(p,C)² ⁄ |C|.
    fn potential(&self, c: usize) -> f64 {
        if self.size[c] == 0 {
            0.0
        } else {
            self.sum_sq[c] / self.size[c] as f64
        }
    }

    /// Σₚ N(p, c) over the message's pairs, for every cluster the pairs
    /// touch. Returned as a sparse (cluster → overlap) map; clusters
    /// sharing no pair with the message are absent — they are not move
    /// candidates, which is what leaves messages with globally unique
    /// pairs (BGL's `generating core.*` family) scattered across their
    /// random initial clusters, the behaviour the study describes.
    fn overlaps(&self, pairs: &[PairKey]) -> HashMap<u32, f64> {
        let mut overlap: HashMap<u32, f64> = HashMap::new();
        for p in pairs {
            if let Some(clusters) = self.clusters_of.get(p) {
                for (&c, &n) in clusters {
                    *overlap.entry(c).or_insert(0.0) += f64::from(n);
                }
            }
        }
        overlap
    }

    /// Potential of cluster `c` after adding a message with `n_pairs`
    /// pairs of which `overlap = Σₚ N(p,c)` already occur there.
    fn potential_with(&self, c: usize, n_pairs: usize, overlap: f64) -> f64 {
        (self.sum_sq[c] + 2.0 * overlap + n_pairs as f64) / (self.size[c] + 1) as f64
    }

    /// Potential of cluster `c` after removing one of its messages with
    /// `n_pairs` pairs and `overlap = Σₚ N(p,c)` (counted with the
    /// message still present).
    fn potential_without(&self, c: usize, n_pairs: usize, overlap: f64) -> f64 {
        if self.size[c] <= 1 {
            return 0.0;
        }
        (self.sum_sq[c] - 2.0 * overlap + n_pairs as f64) / (self.size[c] - 1) as f64
    }

    fn add(&mut self, c: usize, pairs: &[PairKey]) {
        for &p in pairs {
            let n = self
                .clusters_of
                .entry(p)
                .or_default()
                .entry(c as u32)
                .or_insert(0);
            self.sum_sq[c] += f64::from(2 * *n + 1);
            *n += 1;
        }
        self.size[c] += 1;
    }

    fn remove(&mut self, c: usize, pairs: &[PairKey]) {
        for &p in pairs {
            // Every pair was registered by a prior add(); a missing entry
            // means the bookkeeping is already wrong, and skipping keeps
            // the potential-energy estimate approximate instead of
            // panicking mid-search.
            let Some(clusters) = self.clusters_of.get_mut(&p) else {
                continue;
            };
            let Some(n) = clusters.get_mut(&(c as u32)) else {
                continue;
            };
            self.sum_sq[c] -= f64::from(2 * *n - 1);
            *n -= 1;
            if *n == 0 {
                clusters.remove(&(c as u32));
            }
        }
        self.size[c] -= 1;
    }
}

/// Converts each message into its sorted, deduplicated word-pair set.
/// The corpus interner already provides dense first-occurrence token
/// ids, so pair keys are two symbol ids packed into a u64 — no local
/// hash map, no string hashing.
fn word_pairs(corpus: &Corpus) -> Vec<Vec<PairKey>> {
    let mut all = Vec::with_capacity(corpus.len());
    for ids in corpus.arena().iter() {
        let mut pairs: Vec<PairKey> =
            Vec::with_capacity(ids.len() * (ids.len().saturating_sub(1)) / 2);
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                pairs.push((u64::from(ids[i].id()) << 32) | u64::from(ids[j].id()));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        all.push(pairs);
    }
    all
}

impl LogParser for LogSig {
    fn name(&self) -> &'static str {
        "LogSig"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        if self.clusters == 0 {
            return Err(ParseError::InvalidConfig {
                parameter: "clusters",
                reason: "must be at least 1".into(),
            });
        }
        let n = corpus.len();
        if n == 0 {
            return Ok(ParseBuilder::new(0).build());
        }
        if self.clusters > n {
            return Err(ParseError::TooManyClusters {
                requested: self.clusters,
                available: n,
            });
        }

        let pairs = word_pairs(corpus);
        let k = self.clusters;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut assignment: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
        // Guarantee no cluster starts empty so k is respected.
        for c in 0..k {
            assignment[c % n] = c;
        }
        let mut index = PairIndex::new(k);
        for (msg, &c) in assignment.iter().enumerate() {
            index.add(c, &pairs[msg]);
        }

        // Greedy local search: each message moves to the candidate
        // cluster that maximizes the global potential gain. Candidates
        // are the clusters sharing at least one word pair with the
        // message — a cluster with nothing in common can only dilute.
        for _sweep in 0..self.max_iterations {
            let mut moved = false;
            for msg in 0..n {
                let current = assignment[msg];
                if index.size[current] == 1 {
                    continue; // keep every cluster non-empty
                }
                let n_pairs = pairs[msg].len();
                let overlap = index.overlaps(&pairs[msg]);
                let own_overlap = overlap.get(&(current as u32)).copied().unwrap_or(0.0);
                let loss = index.potential(current)
                    - index.potential_without(current, n_pairs, own_overlap);
                // Candidates in cluster-id order: the hash map's
                // iteration order is randomized per process, and ties
                // between equal gains must break deterministically.
                let mut candidates: Vec<(u32, f64)> = overlap.into_iter().collect();
                candidates.sort_unstable_by_key(|&(c, _)| c);
                let mut best_gain = 0.0f64;
                let mut best_cluster = current;
                for (c, shared) in candidates {
                    let c = c as usize;
                    if c == current {
                        continue;
                    }
                    let gain = index.potential_with(c, n_pairs, shared) - index.potential(c);
                    if gain - loss > best_gain + 1e-12 {
                        best_gain = gain - loss;
                        best_cluster = c;
                    }
                }
                if best_cluster != current {
                    index.remove(current, &pairs[msg]);
                    index.add(best_cluster, &pairs[msg]);
                    assignment[msg] = best_cluster;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (msg, &c) in assignment.iter().enumerate() {
            members[c].push(msg);
        }
        members.retain(|m| !m.is_empty());

        // Step 3: signature generation. Clusters whose signatures agree
        // describe the same event and merge (symbol equality is token
        // equality, so symbol signatures group exactly like strings).
        let mut by_signature: HashMap<Vec<Symbol>, Vec<usize>> = HashMap::new();
        for m in members {
            let signature = cluster_signature(corpus, &m, 0.5);
            by_signature.entry(signature).or_default().extend(m);
        }
        let mut merged: Vec<Vec<usize>> = by_signature.into_values().collect();
        for m in &mut merged {
            m.sort_unstable();
        }
        merged.sort_by_key(|m| m.first().copied());

        let mut builder = ParseBuilder::new(n);
        for m in merged {
            builder.add_cluster(corpus, &m);
        }
        Ok(builder.build())
    }
}

/// The signature of a cluster: tokens occurring in at least
/// `threshold` of its messages, ordered by their average first
/// occurrence position. An all-parameter cluster yields an empty
/// signature. Position ties break on the *resolved* token string, not
/// the symbol id, so signatures are byte-identical to the string path.
fn cluster_signature(corpus: &Corpus, members: &[usize], threshold: f64) -> Vec<Symbol> {
    let interner: &Interner = corpus.interner();
    let mut stats: HashMap<Symbol, (usize, f64)> = HashMap::new(); // token → (msgs, Σ first-pos)
    for &i in members {
        let tokens = corpus.symbols(i);
        let mut seen: HashMap<Symbol, usize> = HashMap::new();
        for (pos, &t) in tokens.iter().enumerate() {
            seen.entry(t).or_insert(pos);
        }
        for (t, pos) in seen {
            let entry = stats.entry(t).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += pos as f64;
        }
    }
    let needed = (threshold * members.len() as f64).ceil().max(1.0) as usize;
    let mut selected: Vec<(Symbol, f64)> = stats
        .into_iter()
        .filter(|&(_, (count, _))| count >= needed)
        .map(|(t, (count, pos_sum))| (t, pos_sum / count as f64))
        .collect();
    selected.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then_with(|| interner.resolve(a.0).cmp(interner.resolve(b.0)))
    });
    selected.into_iter().map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    #[test]
    fn separates_two_obvious_groups() {
        let c = corpus(&[
            "user alice logged in from 10.0.0.1",
            "user bob logged in from 10.0.0.2",
            "user carol logged in from 10.0.0.3",
            "disk sda1 usage at 91 percent",
            "disk sdb2 usage at 87 percent",
            "disk sdc3 usage at 99 percent",
        ]);
        let parse = LogSig::builder()
            .clusters(2)
            .seed(42)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 2);
        let labels = parse.cluster_labels();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let c = corpus(&["a b c", "a b d", "x y z", "x y w", "p q r"]);
        let p = LogSig::builder().clusters(3).seed(9).build();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let c = corpus(&["a b c", "a b d", "x y z", "x y w"]);
        for seed in 0..5 {
            let parse = LogSig::builder()
                .clusters(2)
                .seed(seed)
                .build()
                .parse(&c)
                .unwrap();
            assert_eq!(parse.len(), 4);
            assert_eq!(parse.outlier_count(), 0);
            assert!(parse.event_count() <= 2);
        }
    }

    #[test]
    fn k_equal_to_n_gives_singletons() {
        let c = corpus(&["a b", "c d", "e f"]);
        let parse = LogSig::builder()
            .clusters(3)
            .seed(0)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.event_count(), 3);
    }

    #[test]
    fn too_many_clusters_is_an_error() {
        let c = corpus(&["a b"]);
        let err = LogSig::builder().clusters(5).seed(0).build().parse(&c);
        assert!(matches!(err, Err(ParseError::TooManyClusters { .. })));
    }

    #[test]
    fn zero_clusters_is_an_error() {
        let c = corpus(&["a b"]);
        let err = LogSig::builder().clusters(0).build().parse(&c);
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_corpus_parses_to_empty() {
        let parse = LogSig::default().parse(&corpus(&[])).unwrap();
        assert!(parse.is_empty());
    }

    #[test]
    fn pair_index_incremental_updates_match_recomputation() {
        let mut index = PairIndex::new(2);
        let a = vec![1u64, 2, 3];
        let b = vec![2u64, 3, 4];
        index.add(0, &a);
        index.add(0, &b);
        // pairs in cluster 0: 1:1, 2:2, 3:2, 4:1 → sum_sq = 1+4+4+1 = 10
        assert_eq!(index.sum_sq[0], 10.0);
        assert_eq!(index.size[0], 2);
        // Overlap of `a` with cluster 0: N(1)=1, N(2)=2, N(3)=2 → 5.
        let overlap = index.overlaps(&a)[&0];
        assert_eq!(overlap, 5.0);
        // Hypothetical add matches an actual add.
        let with = index.potential_with(0, a.len(), overlap);
        index.add(0, &a);
        assert!((index.potential(0) - with).abs() < 1e-9);
        // Hypothetical remove matches an actual remove.
        let overlap = index.overlaps(&a)[&0];
        let without = index.potential_without(0, a.len(), overlap);
        index.remove(0, &a);
        assert!((index.potential(0) - without).abs() < 1e-9);
        // The untouched cluster stays empty.
        assert_eq!(index.size[1], 0);
        assert_eq!(index.potential(1), 0.0);
    }

    #[test]
    fn unique_pair_messages_stay_scattered() {
        // Ten messages, each with pairs nobody else has (the `generating
        // core.*` shape): no attraction signal, so the random initial
        // scatter across k=5 clusters persists.
        let lines: Vec<String> = (0..10).map(|i| format!("generating core.{i}")).collect();
        let c = Corpus::from_lines(&lines);
        let parse = LogSig::builder()
            .clusters(5)
            .seed(3)
            .build()
            .parse(&c)
            .unwrap();
        assert!(
            parse.event_count() >= 4,
            "expected scatter, got {} events",
            parse.event_count()
        );
    }

    #[test]
    fn single_message_per_pairless_input_is_handled() {
        // Single-token messages generate no pairs at all.
        let c = corpus(&["a", "b", "c"]);
        let parse = LogSig::builder()
            .clusters(2)
            .seed(1)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.len(), 3);
    }
}
