//! PCA-based anomaly detection over session event-count vectors,
//! reproducing Xu et al. (SOSP'09) as described in §III-B of the study.
//!
//! The detector:
//!
//! 1. TF-IDF-weights the event-count matrix ([`crate::tfidf_weight`]);
//! 2. fits PCA, keeping the leading components that capture 95 % of the
//!    variance — the *normal space* `S_d`;
//! 3. computes each session's squared prediction error
//!    `SPE = ‖y_a‖² = ‖(I − PPᵀ) y‖²` against the *anomaly space* `S_a`;
//! 4. flags sessions with `SPE > Q_α`, the Jackson–Mudholkar threshold at
//!    confidence `1 − α` (the paper uses `α = 0.001`).
//!
//! Cost: [`Pca`] eigendecomposes the smaller of the data's two Gram
//! matrices, so one detection is `O(m³ + n·d·m)` with `m = min(n, d)` for
//! `n` fitted rows of `d` event types — `d³` on the paper's batch matrix
//! (575 k sessions × ~30 events), `n³` on a streaming window history (at
//! most 64 windows × hundreds of templates). The verdicts do not depend
//! on which one it was.

use logparse_linalg::{q_statistic_threshold, Matrix, Pca};

use crate::tfidf_weight;

/// Configuration of the PCA anomaly detector.
#[derive(Debug, Clone, PartialEq)]
pub struct PcaDetectorConfig {
    /// Confidence parameter of the `Q_α` threshold (paper: 0.001).
    pub alpha: f64,
    /// Fraction of variance the normal space must capture (Xu et al.
    /// use 95 %). Ignored when [`PcaDetectorConfig::components`] is set.
    pub variance_fraction: f64,
    /// Fixed normal-space dimension `k`. Xu et al. note that in practice
    /// the variance rule lands at k ≈ 3–4 on HDFS; fixing `k` reproduces
    /// that operating point directly and guards against anomaly
    /// directions leaking into the normal space on smaller corpora.
    pub components: Option<usize>,
    /// Whether to TF-IDF-weight the matrix before PCA (the study does).
    pub tfidf: bool,
}

impl Default for PcaDetectorConfig {
    fn default() -> Self {
        PcaDetectorConfig {
            alpha: 0.001,
            variance_fraction: 0.95,
            components: None,
            tfidf: true,
        }
    }
}

/// Result of running the detector on a matrix.
#[derive(Debug, Clone)]
pub struct AnomalyReport {
    /// Per-session squared prediction error.
    pub spe: Vec<f64>,
    /// The decision threshold `Q_α`.
    pub threshold: f64,
    /// Indices of sessions flagged anomalous (`spe > threshold`).
    pub flagged: Vec<usize>,
    /// Number of principal components kept (dimension of `S_d`).
    pub kept_components: usize,
}

impl AnomalyReport {
    /// Number of flagged sessions — the paper's *Reported Anomaly*.
    pub fn reported(&self) -> usize {
        self.flagged.len()
    }

    /// Splits the flags against ground truth into the paper's Table III
    /// columns: `(detected, false_alarms)`, where *detected* counts
    /// flagged sessions that are truly anomalous and *false alarms*
    /// counts flagged sessions that are not.
    ///
    /// # Panics
    ///
    /// Panics if `truth.len()` differs from `spe.len()`.
    pub fn confusion(&self, truth: &[bool]) -> (usize, usize) {
        assert_eq!(truth.len(), self.spe.len(), "one truth label per session");
        let detected = self.flagged.iter().filter(|&&i| truth[i]).count();
        (detected, self.flagged.len() - detected)
    }
}

/// The PCA anomaly detector.
///
/// # Example
///
/// ```
/// use logparse_linalg::Matrix;
/// use logparse_mining::{PcaDetector, PcaDetectorConfig};
///
/// // 200 normal sessions whose two event counts move together, then one
/// // session that breaks the correlation. Detection needs anomalies to
/// // be rare relative to normal variance, as in the paper's corpus.
/// let mut rows: Vec<Vec<f64>> = (0..200)
///     .map(|i| {
///         let c = 1.0 + (i * 17 % 10) as f64;
///         vec![c, c, 0.0]
///     })
///     .collect();
/// rows.push(vec![5.0, 0.0, 6.0]);
/// let counts = Matrix::from_rows(&rows);
/// let report = PcaDetector::new(PcaDetectorConfig { tfidf: false, ..Default::default() })
///     .detect(&counts);
/// assert!(report.flagged.contains(&200));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PcaDetector {
    config: PcaDetectorConfig,
}

impl PcaDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: PcaDetectorConfig) -> Self {
        PcaDetector { config }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &PcaDetectorConfig {
        &self.config
    }

    /// Runs detection on a session × event count matrix.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` or `variance_fraction` are outside `(0, 1)`.
    pub fn detect(&self, counts: &Matrix) -> AnomalyReport {
        self.detect_with_holdout(counts, 0)
    }

    /// Like [`PcaDetector::detect`], but fits the normal space on all
    /// rows *except the last `holdout`*, then scores every row against
    /// that fit.
    ///
    /// This is the online formulation: when scoring the newest window of
    /// a stream against its history, including the window in its own fit
    /// lets a single extreme observation dominate the covariance — the
    /// anomaly direction becomes a leading principal component, lands in
    /// the normal space, and the anomaly scores a *near-zero* residual.
    /// Holding the candidate rows out of the fit (but not out of TF-IDF
    /// weighting, which is per-column and robust) removes that
    /// self-masking.
    ///
    /// A stream's history is short and wide (fewer fitted rows than
    /// columns); the fit then runs in sample space and costs
    /// `O(rows³ + rows²·cols)` — linear, not cubic, in the number of
    /// templates.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)` or `holdout >=
    /// counts.rows()` (the fit needs at least one row).
    pub fn detect_with_holdout(&self, counts: &Matrix, holdout: usize) -> AnomalyReport {
        assert!(
            self.config.alpha > 0.0 && self.config.alpha < 1.0,
            "alpha must lie in (0, 1)"
        );
        if counts.rows() == 0 {
            return AnomalyReport {
                spe: Vec::new(),
                threshold: 0.0,
                flagged: Vec::new(),
                kept_components: 0,
            };
        }
        assert!(
            holdout < counts.rows(),
            "holdout ({holdout}) must leave at least one row to fit on ({})",
            counts.rows()
        );
        let weighted;
        let data: &Matrix = if self.config.tfidf {
            weighted = tfidf_weight(counts);
            &weighted
        } else {
            counts
        };
        let fit_data;
        let fit_on: &Matrix = if holdout == 0 {
            data
        } else {
            let train: Vec<Vec<f64>> = (0..data.rows() - holdout)
                .map(|i| data.row(i).to_vec())
                .collect();
            fit_data = Matrix::from_rows(&train);
            &fit_data
        };
        let pca = match self.config.components {
            Some(k) => Pca::fit_fixed(fit_on, k),
            None => Pca::fit(fit_on, self.config.variance_fraction),
        };
        let spe: Vec<f64> = (0..data.rows())
            .map(|i| pca.squared_prediction_error(data.row(i)))
            .collect();
        let threshold = q_statistic_threshold(pca.residual_eigenvalues(), self.config.alpha);
        let flagged = spe
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > threshold)
            .map(|(i, _)| i)
            .collect();
        AnomalyReport {
            spe,
            threshold,
            flagged,
            kept_components: pca.kept_components(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions whose counts live on a high-variance correlated subspace
    /// (`e1 ≈ e0`, plus a small independent jitter column), with a few
    /// injected sessions that break the correlation. PCA detection relies
    /// on anomalies being *rare* relative to normal variance — the regime
    /// of the paper's HDFS corpus (≈2.9 % anomalies) — so the test uses
    /// 100:1 proportions.
    fn mixed_matrix(normal: usize, anomalies: usize) -> (Matrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..normal {
            let c = 1.0 + (i * 17 % 10) as f64; // counts 1..=10
            let jitter = (i * 7 % 4) as f64 * 0.1;
            rows.push(vec![c, c + jitter, (i % 3) as f64 * 0.2]);
            truth.push(false);
        }
        for i in 0..anomalies {
            // Correlation broken: e0 present, e1 missing, e2 inflated.
            rows.push(vec![5.0, 0.0, 6.0 + i as f64]);
            truth.push(true);
        }
        (Matrix::from_rows(&rows), truth)
    }

    fn raw_detector() -> PcaDetector {
        PcaDetector::new(PcaDetectorConfig {
            tfidf: false,
            ..Default::default()
        })
    }

    #[test]
    fn detects_injected_anomalies() {
        let (m, truth) = mixed_matrix(500, 5);
        let report = raw_detector().detect(&m);
        let (detected, false_alarms) = report.confusion(&truth);
        assert_eq!(detected, 5, "flagged {:?}", report.flagged);
        assert!(false_alarms <= 10, "{false_alarms} false alarms");
    }

    #[test]
    fn clean_data_produces_few_flags() {
        let (m, _) = mixed_matrix(500, 0);
        let report = raw_detector().detect(&m);
        assert!(report.reported() <= 10, "{}", report.reported());
    }

    /// One extreme row in a *small* matrix dominates the covariance, so
    /// an in-fit detection absorbs its direction into the normal space
    /// and gives the anomaly a near-zero residual (self-masking). The
    /// holdout fit scores it against clean history and catches it.
    #[test]
    fn holdout_fit_defeats_self_masking() {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let c = 10.0 + (i * 17 % 10) as f64;
                vec![c, c + (i * 7 % 4) as f64 * 0.1, 0.0]
            })
            .collect();
        rows.push(vec![0.0, 0.0, 1000.0]); // the burst window
        let m = Matrix::from_rows(&rows);
        let last = m.rows() - 1;

        let in_fit = raw_detector().detect(&m);
        assert!(
            !in_fit.flagged.contains(&last),
            "expected self-masking in-fit; flagged {:?}",
            in_fit.flagged
        );

        let held_out = raw_detector().detect_with_holdout(&m, 1);
        assert!(
            held_out.flagged.contains(&last),
            "flagged {:?}",
            held_out.flagged
        );
        assert!(held_out.spe[last] > held_out.threshold);
    }

    /// What `detect_with_holdout` did while `Pca` knew only the `d × d`
    /// covariance, rebuilt from public linalg pieces: the reference the
    /// sample-space fit must agree with. Returns `(spe, threshold)`.
    fn covariance_side_reference(
        config: &PcaDetectorConfig,
        counts: &Matrix,
        holdout: usize,
    ) -> (Vec<f64>, f64) {
        let data = if config.tfidf {
            tfidf_weight(counts)
        } else {
            counts.clone()
        };
        let train: Vec<Vec<f64>> = (0..data.rows() - holdout)
            .map(|i| data.row(i).to_vec())
            .collect();
        let train = Matrix::from_rows(&train);
        let mean = train.column_means();
        let eigen = logparse_linalg::symmetric_eigen(&train.covariance());
        let total: f64 = eigen.values.iter().filter(|&&v| v > 0.0).sum();
        let mut kept = 0;
        let mut acc = 0.0;
        while total > 0.0 && acc / total < config.variance_fraction {
            acc += eigen.values[kept].max(0.0);
            kept += 1;
        }
        let spe = (0..data.rows())
            .map(|i| {
                let centred: Vec<f64> = data.row(i).iter().zip(&mean).map(|(y, m)| y - m).collect();
                let mut residual = centred.clone();
                for v in &eigen.vectors[..kept] {
                    let projection: f64 = centred.iter().zip(v).map(|(a, b)| a * b).sum();
                    for (r, c) in residual.iter_mut().zip(v) {
                        *r -= projection * c;
                    }
                }
                residual.iter().map(|v| v * v).sum()
            })
            .collect();
        (
            spe,
            q_statistic_threshold(&eigen.values[kept..], config.alpha),
        )
    }

    /// A window history as `serve` sees it: 16 windows × 48 templates
    /// (fewer rows than columns), a few templates that only occur in
    /// some windows so TF-IDF has something to weigh, and a last window
    /// that is either ordinary or a burst on a template never seen.
    fn window_history(burst: bool) -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..16usize)
            .map(|r| {
                (0..48usize)
                    .map(|c| {
                        if c == 47 || (c % 6 == 5 && (r + c) % 3 == 0) {
                            0.0
                        } else {
                            (3 + c % 9 + (r * 7 + c * 13) % 5) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        if burst {
            rows[15] = vec![0.0; 48];
            rows[15][47] = 400.0;
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn sample_space_fit_flags_what_the_covariance_fit_flagged() {
        for tfidf in [true, false] {
            for burst in [true, false] {
                let config = PcaDetectorConfig {
                    tfidf,
                    ..Default::default()
                };
                let counts = window_history(burst);
                assert!(counts.rows() - 1 < counts.cols());
                let report = PcaDetector::new(config.clone()).detect_with_holdout(&counts, 1);
                let (spe, threshold) = covariance_side_reference(&config, &counts, 1);
                let flagged: Vec<usize> = (0..spe.len()).filter(|&i| spe[i] > threshold).collect();
                assert_eq!(report.flagged, flagged, "tfidf {tfidf} burst {burst}");
                assert_eq!(report.flagged.contains(&15), burst, "tfidf {tfidf}");
                assert!((report.threshold - threshold).abs() <= 1e-9 * threshold);
                for (a, b) in report.spe.iter().zip(&spe) {
                    assert!((a - b).abs() <= 1e-9 * (1.0 + b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn zero_holdout_matches_detect() {
        let (m, _) = mixed_matrix(200, 3);
        let a = raw_detector().detect(&m);
        let b = raw_detector().detect_with_holdout(&m, 0);
        assert_eq!(a.spe, b.spe);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.threshold, b.threshold);
    }

    #[test]
    #[should_panic(expected = "holdout")]
    fn holdout_must_leave_training_rows() {
        let (m, _) = mixed_matrix(3, 0);
        raw_detector().detect_with_holdout(&m, 3);
    }

    #[test]
    fn spe_is_larger_for_anomalies() {
        let (m, truth) = mixed_matrix(400, 4);
        let report = raw_detector().detect(&m);
        let max_normal = report
            .spe
            .iter()
            .zip(&truth)
            .filter(|&(_, &t)| !t)
            .map(|(s, _)| *s)
            .fold(0.0f64, f64::max);
        let min_anomaly = report
            .spe
            .iter()
            .zip(&truth)
            .filter(|&(_, &t)| t)
            .map(|(s, _)| *s)
            .fold(f64::INFINITY, f64::min);
        assert!(min_anomaly > max_normal);
    }

    #[test]
    fn confusion_counts_split_correctly() {
        let report = AnomalyReport {
            spe: vec![0.0; 4],
            threshold: 0.0,
            flagged: vec![1, 3],
            kept_components: 1,
        };
        let (detected, fa) = report.confusion(&[false, true, true, false]);
        assert_eq!(detected, 1);
        assert_eq!(fa, 1);
    }

    #[test]
    fn tfidf_toggle_changes_the_input_space() {
        let (m, _) = mixed_matrix(30, 1);
        let with = PcaDetector::new(PcaDetectorConfig {
            tfidf: true,
            ..Default::default()
        })
        .detect(&m);
        let without = PcaDetector::new(PcaDetectorConfig {
            tfidf: false,
            ..Default::default()
        })
        .detect(&m);
        assert_ne!(with.spe, without.spe);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1)")]
    fn invalid_alpha_panics() {
        let (m, _) = mixed_matrix(5, 0);
        PcaDetector::new(PcaDetectorConfig {
            alpha: 0.0,
            ..Default::default()
        })
        .detect(&m);
    }

    #[test]
    fn empty_matrix_reports_nothing() {
        let report = PcaDetector::default().detect(&Matrix::zeros(0, 4));
        assert_eq!(report.reported(), 0);
    }
}
