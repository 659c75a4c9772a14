//! LogMine — fast pattern recognition for log analytics (Hamooni,
//! Debnath, Xu, Zhang, Jiang, Mueen; CIKM 2016).
//!
//! **Extension parser** (not part of the DSN'16 study; included in the
//! follow-on LogPAI toolkit, and the namesake of this workspace).
//! LogMine clusters messages with a *max-distance* one-pass friends-of-
//! friends scheme: a message joins the first cluster whose
//! representative is within `max_distance` under a positionwise token
//! distance, with early abandoning. Clusters are then merged bottom-up
//! while their representatives stay within the (relaxed) distance — the
//! simplified single-level variant of the paper's hierarchy.

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError, Symbol};

/// The LogMine parser. Construct via [`LogMine::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::LogMine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "fetch page 1 of 30",
///     "fetch page 2 of 30",
///     "cache invalidated fully now done",
/// ]);
/// let parse = LogMine::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogMine {
    max_distance: f64,
    merge_levels: usize,
}

impl Default for LogMine {
    fn default() -> Self {
        LogMine {
            max_distance: 0.5,
            merge_levels: 1,
        }
    }
}

impl LogMine {
    /// Starts building a LogMine configuration.
    pub fn builder() -> LogMineBuilder {
        LogMineBuilder::default()
    }
}

/// Builder for [`LogMine`].
#[derive(Debug, Clone, Default)]
pub struct LogMineBuilder {
    max_distance: Option<f64>,
    merge_levels: Option<usize>,
}

impl LogMineBuilder {
    /// Sets the level-0 max distance (fraction of differing positions,
    /// default 0.5).
    #[must_use]
    pub fn max_distance(mut self, distance: f64) -> Self {
        self.max_distance = Some(distance);
        self
    }

    /// Sets the number of bottom-up merge levels; each level relaxes the
    /// distance by ×1.3 (default 1).
    #[must_use]
    pub fn merge_levels(mut self, levels: usize) -> Self {
        self.merge_levels = Some(levels);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> LogMine {
        let d = LogMine::default();
        LogMine {
            max_distance: self.max_distance.unwrap_or(d.max_distance),
            merge_levels: self.merge_levels.unwrap_or(d.merge_levels),
        }
    }
}

/// Positionwise distance between two token sequences: fraction of
/// positions (over the longer length) whose tokens differ. Early-abandons
/// once `limit` is exceeded, returning `f64::INFINITY`.
fn distance<T: PartialEq>(a: &[T], b: &[T], limit: f64) -> f64 {
    let longer = a.len().max(b.len());
    if longer == 0 {
        return 0.0;
    }
    let budget = (limit * longer as f64).floor() as usize;
    let mut mismatches = a.len().abs_diff(b.len());
    if mismatches > budget {
        return f64::INFINITY;
    }
    for (x, y) in a.iter().zip(b) {
        if x != y {
            mismatches += 1;
            if mismatches > budget {
                return f64::INFINITY;
            }
        }
    }
    mismatches as f64 / longer as f64
}

#[derive(Debug)]
struct Cluster {
    representative: Vec<Symbol>,
    members: Vec<usize>,
}

impl LogParser for LogMine {
    fn name(&self) -> &'static str {
        "LogMine"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        if !(0.0..=1.0).contains(&self.max_distance) {
            return Err(ParseError::InvalidConfig {
                parameter: "max_distance",
                reason: format!("{} must lie in [0, 1]", self.max_distance),
            });
        }
        // Level 0: one-pass max-distance clustering over symbol rows —
        // the distance loop compares `u32`s, never token bytes.
        let mut clusters: Vec<Cluster> = Vec::new();
        for idx in 0..corpus.len() {
            let tokens = corpus.symbols(idx);
            if tokens.is_empty() {
                continue;
            }
            let home = clusters
                .iter_mut()
                .find(|c| distance(&c.representative, tokens, self.max_distance).is_finite());
            match home {
                Some(cluster) => cluster.members.push(idx),
                None => clusters.push(Cluster {
                    representative: tokens.to_vec(),
                    members: vec![idx],
                }),
            }
        }

        // Higher levels: merge clusters whose representatives are within
        // the relaxed distance (the paper's hierarchy, flattened to the
        // requested depth).
        let mut level_distance = self.max_distance;
        for _ in 0..self.merge_levels {
            level_distance = (level_distance * 1.3).min(1.0);
            let mut merged: Vec<Cluster> = Vec::new();
            for cluster in clusters {
                match merged.iter_mut().find(|m| {
                    distance(&m.representative, &cluster.representative, level_distance).is_finite()
                }) {
                    Some(target) => target.members.extend(cluster.members),
                    None => merged.push(cluster),
                }
            }
            clusters = merged;
        }

        for cluster in &mut clusters {
            cluster.members.sort_unstable();
        }
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

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn distance_counts_differing_positions() {
        assert_eq!(distance(&toks("a b c d"), &toks("a x c d"), 1.0), 0.25);
        assert_eq!(distance(&toks("a b"), &toks("a b"), 1.0), 0.0);
    }

    #[test]
    fn distance_penalizes_length_difference() {
        // 1 trailing token + 0 mismatches over longer=3.
        assert!((distance(&toks("a b"), &toks("a b c"), 1.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn early_abandon_returns_infinity() {
        assert!(distance(&toks("a b c d"), &toks("x y z w"), 0.5).is_infinite());
    }

    #[test]
    fn same_template_messages_cluster() {
        let c = corpus(&[
            "fetch page 1 of 30",
            "fetch page 2 of 30",
            "fetch page 9 of 31",
        ]);
        let parse = LogMine::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "fetch page * of *");
    }

    #[test]
    fn distant_messages_stay_apart() {
        let c = corpus(&["alpha beta gamma delta", "one two three four"]);
        let parse = LogMine::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn merge_levels_coarsen_the_clustering() {
        let c = corpus(&[
            "task started on node alpha",
            "task started on node beta",
            "task stopped on node alpha",
        ]);
        let fine = LogMine::builder()
            .max_distance(0.25)
            .merge_levels(0)
            .build()
            .parse(&c)
            .unwrap();
        let coarse = LogMine::builder()
            .max_distance(0.25)
            .merge_levels(3)
            .build()
            .parse(&c)
            .unwrap();
        assert!(coarse.event_count() <= fine.event_count());
    }

    #[test]
    fn invalid_distance_is_rejected() {
        let err = LogMine::builder()
            .max_distance(1.5)
            .build()
            .parse(&corpus(&["a"]));
        assert!(matches!(err, Err(ParseError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_lines_are_outliers() {
        let parse = LogMine::default().parse(&corpus(&["", "a b"])).unwrap();
        assert_eq!(parse.outlier_count(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a 1 b", "a 2 b", "x y", "x z"]);
        let p = LogMine::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }
}
