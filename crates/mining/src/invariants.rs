//! Invariant mining over session event counts (Lou, Fu, Yang, Xu, Li —
//! USENIX ATC 2010), the study's reference \[25\] and the natural
//! companion to the PCA detector: instead of a subspace, it learns
//! *linear invariants* between event counts — e.g. every block should
//! see `count(Receiving) = count(Received) = count(PacketResponder)` —
//! and flags sessions that violate them.
//!
//! This implementation mines the two invariant forms that dominate real
//! log workflows:
//!
//! * **pairwise equality** `cᵢ = cⱼ` (an open/close, send/ack pairing);
//! * **pairwise ratio** `cᵢ = k·cⱼ` for small integer `k` (a per-replica
//!   fan-out).
//!
//! An invariant is accepted when it holds in at least `support` of the
//! training sessions that exercise either event; a session is anomalous
//! when it violates any mined invariant.

use logparse_linalg::Matrix;

/// One mined invariant between two event columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    /// Left event (column index).
    pub left: usize,
    /// Right event (column index).
    pub right: usize,
    /// The mined relation: `count(left) = factor × count(right)`.
    pub factor: u32,
    /// Fraction of exercising training sessions that satisfied it.
    pub confidence: f64,
}

impl Invariant {
    /// Does `row` satisfy this invariant?
    pub fn holds(&self, row: &[f64]) -> bool {
        (row[self.left] - f64::from(self.factor) * row[self.right]).abs() < 1e-9
    }
}

/// Configuration for the miner.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantMinerConfig {
    /// Minimum fraction of exercising sessions that must satisfy a
    /// candidate (default 0.98 — invariants are near-universal laws).
    pub support: f64,
    /// Largest integer ratio considered (default 5; HDFS replication
    /// factors are small).
    pub max_factor: u32,
    /// Minimum number of sessions that must exercise the event pair for
    /// the candidate to be considered at all (default 10).
    pub min_exercised: usize,
}

impl Default for InvariantMinerConfig {
    fn default() -> Self {
        InvariantMinerConfig {
            support: 0.98,
            max_factor: 5,
            min_exercised: 10,
        }
    }
}

/// Mines count invariants from a session × event matrix and applies them.
///
/// # Example
///
/// ```
/// use logparse_linalg::Matrix;
/// use logparse_mining::{InvariantMiner, InvariantMinerConfig};
///
/// // Sessions where event0 == event1 always, except the last session.
/// let mut rows: Vec<Vec<f64>> = (1..=20).map(|i| vec![i as f64, i as f64]).collect();
/// rows.push(vec![3.0, 1.0]);
/// let counts = Matrix::from_rows(&rows);
/// let miner = InvariantMiner::new(InvariantMinerConfig { support: 0.95, ..Default::default() });
/// let model = miner.mine(&counts);
/// assert_eq!(model.invariants().len(), 1);
/// assert_eq!(model.violations(&counts), vec![20]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvariantMiner {
    config: InvariantMinerConfig,
}

/// The mined invariant set, ready to score sessions.
#[derive(Debug, Clone)]
pub struct InvariantModel {
    invariants: Vec<Invariant>,
}

impl InvariantMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: InvariantMinerConfig) -> Self {
        InvariantMiner { config }
    }

    /// Mines invariants from the training matrix.
    ///
    /// # Panics
    ///
    /// Panics if `support` is not within `(0, 1]`.
    pub fn mine(&self, counts: &Matrix) -> InvariantModel {
        assert!(
            self.config.support > 0.0 && self.config.support <= 1.0,
            "support must lie in (0, 1]"
        );
        let d = counts.cols();
        let n = counts.rows();
        let mut invariants = Vec::new();
        for i in 0..d {
            for j in 0..d {
                if i == j {
                    continue;
                }
                // Find the best factor k with count(i) = k·count(j).
                let mut best: Option<Invariant> = None;
                for factor in 1..=self.config.max_factor {
                    // Skip the symmetric duplicate of an equality.
                    if factor == 1 && i > j {
                        continue;
                    }
                    let mut exercised = 0usize;
                    let mut satisfied = 0usize;
                    for r in 0..n {
                        let row = counts.row(r);
                        if row[i] > 0.0 || row[j] > 0.0 {
                            exercised += 1;
                            if (row[i] - f64::from(factor) * row[j]).abs() < 1e-9 {
                                satisfied += 1;
                            }
                        }
                    }
                    if exercised < self.config.min_exercised {
                        continue;
                    }
                    let confidence = satisfied as f64 / exercised as f64;
                    if confidence >= self.config.support
                        && best.as_ref().is_none_or(|b| confidence > b.confidence)
                    {
                        best = Some(Invariant {
                            left: i,
                            right: j,
                            factor,
                            confidence,
                        });
                    }
                }
                invariants.extend(best);
            }
        }
        InvariantModel { invariants }
    }
}

impl InvariantModel {
    /// The mined invariants.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Indices of sessions violating at least one invariant.
    pub fn violations(&self, counts: &Matrix) -> Vec<usize> {
        (0..counts.rows())
            .filter(|&r| {
                let row = counts.row(r);
                self.invariants.iter().any(|inv| !inv.holds(row))
            })
            .collect()
    }

    /// Number of invariants a given session violates.
    pub fn violation_count(&self, row: &[f64]) -> usize {
        self.invariants.iter().filter(|inv| !inv.holds(row)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with_law(n: usize, factor: f64, anomalies: &[(usize, f64, f64)]) -> Matrix {
        // col0 = factor × col1, col2 = noise.
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let base = (i % 5 + 1) as f64;
                vec![factor * base, base, (i % 3) as f64]
            })
            .collect();
        for &(idx, a, b) in anomalies {
            rows[idx] = vec![a, b, 0.0];
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn equality_invariant_is_mined() {
        let counts = matrix_with_law(50, 1.0, &[]);
        let model = InvariantMiner::default().mine(&counts);
        assert!(model
            .invariants()
            .iter()
            .any(|inv| inv.left == 0 && inv.right == 1 && inv.factor == 1));
    }

    #[test]
    fn ratio_invariant_is_mined() {
        let counts = matrix_with_law(50, 3.0, &[]);
        let model = InvariantMiner::default().mine(&counts);
        assert!(model
            .invariants()
            .iter()
            .any(|inv| inv.left == 0 && inv.right == 1 && inv.factor == 3));
    }

    #[test]
    fn violating_sessions_are_flagged() {
        let counts = matrix_with_law(50, 1.0, &[(7, 4.0, 1.0), (23, 0.0, 2.0)]);
        let miner = InvariantMiner::new(InvariantMinerConfig {
            support: 0.9,
            ..Default::default()
        });
        let model = miner.mine(&counts);
        let violations = model.violations(&counts);
        assert!(violations.contains(&7));
        assert!(violations.contains(&23));
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn noise_columns_produce_no_invariants() {
        let counts = matrix_with_law(50, 1.0, &[]);
        let model = InvariantMiner::default().mine(&counts);
        // No invariant may tie the noise column (2) to the law columns.
        assert!(model
            .invariants()
            .iter()
            .all(|inv| inv.left != 2 && inv.right != 2));
    }

    #[test]
    fn insufficiently_exercised_pairs_are_skipped() {
        // Only 5 sessions exercise the pair; min_exercised = 10.
        let counts = matrix_with_law(5, 1.0, &[]);
        let model = InvariantMiner::default().mine(&counts);
        assert!(model.invariants().is_empty());
    }

    #[test]
    fn violation_count_counts_each_broken_law() {
        let counts = matrix_with_law(40, 2.0, &[]);
        let model = InvariantMiner::new(InvariantMinerConfig {
            support: 0.9,
            ..Default::default()
        })
        .mine(&counts);
        assert!(model.violation_count(&[2.0, 1.0, 0.0]) == 0);
        assert!(model.violation_count(&[5.0, 1.0, 0.0]) > 0);
    }

    #[test]
    #[should_panic(expected = "support must lie in (0, 1]")]
    fn invalid_support_panics() {
        InvariantMiner::new(InvariantMinerConfig {
            support: 0.0,
            ..Default::default()
        })
        .mine(&Matrix::zeros(1, 1));
    }
}
