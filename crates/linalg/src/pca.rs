use crate::{symmetric_eigen, Matrix};

/// Gram-side eigenvalues at or below this fraction of the largest are
/// rounding error of an exactly singular matrix, not variance: they are
/// reported as zero, never kept and never mapped back to a component.
const RANK_TOLERANCE: f64 = 1e-12;

/// Principal component analysis of row-vector data.
///
/// Fitting centers the data, eigendecomposes its second-moment matrix
/// and keeps the leading components whose cumulative variance reaches
/// the requested fraction — the construction of the *normal space* `S_d`
/// in Xu et al.'s anomaly detector, with the discarded components
/// spanning the *anomaly space* `S_a`.
///
/// # Which matrix is decomposed
///
/// `n` centred observations of dimension `d` have two Gram matrices with
/// the same non-zero spectrum: the `d × d` covariance `XᵀX / (n−1)` and
/// the `n × n` sample-space matrix `XXᵀ / (n−1)`. The fit diagonalises
/// whichever is smaller, chosen from the shape of the input alone:
///
/// * `rows ≥ cols` (a batch session matrix: hundreds of thousands of
///   sessions, tens of event types) — the covariance, directly.
/// * `rows < cols` (a streaming window history: at most a few dozen
///   windows, hundreds of templates) — the sample-space matrix (dual
///   PCA). Eigenvalues at or below `1e-12 · λ₁` are set to zero; each
///   kept eigenvector `u_k` is mapped back to the component
///   `v_k = Xᵀu_k / ‖Xᵀu_k‖`. At most `rows − 1` eigenvalues can be
///   non-zero, so [`Pca::eigenvalues`] is zero-padded to length `cols`
///   and [`Pca::fit_fixed`] cannot keep more components than the
///   numerical rank.
///
/// Either way the cost is `O(min(n,d)³ + n·d·min(n,d))`, and the kept
/// components, residual eigenvalues and prediction errors are the same
/// numbers up to rounding.
///
/// # Example
///
/// ```
/// use logparse_linalg::{Matrix, Pca};
///
/// let data = Matrix::from_rows(&[
///     vec![0.0, 0.0],
///     vec![1.0, 1.0],
///     vec![2.0, 2.0],
///     vec![3.0, 3.0],
/// ]);
/// let pca = Pca::fit(&data, 0.95);
/// // Points on the diagonal have no residual...
/// assert!(pca.squared_prediction_error(&[4.0, 4.0]) < 1e-9);
/// // ...points off it do.
/// assert!(pca.squared_prediction_error(&[4.0, 0.0]) > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// The kept components only.
    components: Vec<Vec<f64>>,
    /// Always `mean.len()` values, descending.
    eigenvalues: Vec<f64>,
}

/// The cumulative-variance rule: the smallest number of leading
/// eigenvalues whose sum reaches `variance_fraction` of the total.
fn components_for_variance(eigenvalues: &[f64], variance_fraction: f64) -> usize {
    let total: f64 = eigenvalues.iter().filter(|&&v| v > 0.0).sum();
    let mut kept = 0;
    if total > 0.0 {
        let mut acc = 0.0;
        for &value in eigenvalues {
            acc += value.max(0.0);
            kept += 1;
            if acc / total >= variance_fraction {
                break;
            }
        }
    }
    kept
}

/// The `n × n` sample-space matrix `XXᵀ / (n−1)` of centred rows (zero
/// when fewer than two rows).
fn sample_gram(centred: &Matrix) -> Matrix {
    let n = centred.rows();
    let mut gram = Matrix::zeros(n, n);
    if n >= 2 {
        let denom = (n - 1) as f64;
        for i in 0..n {
            for j in i..n {
                let dot: f64 = centred
                    .row(i)
                    .iter()
                    .zip(centred.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                gram[(i, j)] = dot / denom;
                gram[(j, i)] = gram[(i, j)];
            }
        }
    }
    gram
}

impl Pca {
    /// Fits a PCA on `data` (rows are observations), keeping the smallest
    /// number of leading components whose cumulative variance is at least
    /// `variance_fraction` of the total. At least one component is always
    /// kept when any variance exists; a zero-variance dataset keeps none.
    ///
    /// # Panics
    ///
    /// Panics if `variance_fraction` is not within `(0, 1]`.
    pub fn fit(data: &Matrix, variance_fraction: f64) -> Self {
        assert!(
            variance_fraction > 0.0 && variance_fraction <= 1.0,
            "variance fraction must lie in (0, 1], got {variance_fraction}"
        );
        Self::decompose(data, |eigenvalues| {
            components_for_variance(eigenvalues, variance_fraction)
        })
    }

    /// Fits a PCA keeping exactly `k` components, clamped to the data
    /// dimensionality — and, when `data` has fewer rows than columns, to
    /// its numerical rank (at most `rows − 1`): the directions beyond it
    /// carry no variance and are not computed. Used for the
    /// paper-faithful configuration where Xu et al. fix the normal-space
    /// dimension.
    pub fn fit_fixed(data: &Matrix, k: usize) -> Self {
        Self::decompose(data, |_| k)
    }

    /// Fits on the smaller Gram matrix; `keep` maps the eigenvalues to
    /// the number of components wanted.
    fn decompose(data: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> Self {
        if data.rows() < data.cols() {
            Self::decompose_samples(data, keep)
        } else {
            Self::decompose_covariance(data, keep)
        }
    }

    /// Primal side: eigenvectors of the `d × d` covariance are the
    /// components.
    fn decompose_covariance(data: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> Self {
        let eigen = symmetric_eigen(&data.covariance());
        let mut components = eigen.vectors;
        components.truncate(keep(&eigen.values));
        Pca {
            mean: data.column_means(),
            components,
            eigenvalues: eigen.values,
        }
    }

    /// Dual side: eigenvectors of the `n × n` matrix of centred-row inner
    /// products, mapped back through the centred rows.
    fn decompose_samples(data: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> Self {
        let (n, d) = (data.rows(), data.cols());
        let mean = data.column_means();
        // Centred once, explicitly: the Gram matrix of near-identical rows
        // must come out as exact zeros plus rounding error relative to the
        // *deviations*. `XXᵀ − n·μμᵀ` would leave error relative to the
        // counts themselves, which downstream dust guards would read as
        // variance.
        let mut centred = data.clone();
        for r in 0..n {
            for (v, m) in centred.row_mut(r).iter_mut().zip(&mean) {
                *v -= m;
            }
        }
        let eigen = symmetric_eigen(&sample_gram(&centred));
        let floor = RANK_TOLERANCE * eigen.values.first().map_or(0.0, |&top| top.max(0.0));
        let rank = eigen
            .values
            .iter()
            .take(d)
            .take_while(|&&v| v > floor)
            .count();
        let mut eigenvalues = eigen.values;
        eigenvalues.truncate(rank);
        eigenvalues.resize(d, 0.0);
        let features = centred.transpose();
        let components = eigen
            .vectors
            .iter()
            .take(keep(&eigenvalues).min(rank))
            .map(|u| {
                let mut v = features.multiply_vec(u);
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                for x in &mut v {
                    *x /= norm;
                }
                v
            })
            .collect();
        Pca {
            mean,
            components,
            eigenvalues,
        }
    }

    /// The kept principal components (unit vectors, descending variance).
    pub fn components(&self) -> &[Vec<f64>] {
        &self.components
    }

    /// All `cols` eigenvalues of the covariance matrix, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvalues of the residual (anomaly) space — the input to the
    /// Q-statistic threshold.
    pub fn residual_eigenvalues(&self) -> &[f64] {
        &self.eigenvalues[self.components.len()..]
    }

    /// Number of kept components (the normal-space dimension).
    pub fn kept_components(&self) -> usize {
        self.components.len()
    }

    /// The squared prediction error of one observation: `‖(I − PPᵀ)(y −
    /// μ)‖²`, the squared distance from the normal space.
    ///
    /// Computed by deflating the centred row against each kept component,
    /// so a row inside the normal space scores squared rounding error
    /// (~1e-31 relative), not the ~1e-16 relative that the cheaper
    /// `‖y − μ‖² − Σ projections²` would leave.
    ///
    /// # Panics
    ///
    /// Panics if `row` has a different dimensionality than the fitted
    /// data.
    pub fn squared_prediction_error(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.mean.len(), "dimensionality mismatch");
        let centered: Vec<f64> = row.iter().zip(&self.mean).map(|(y, m)| y - m).collect();
        // residual = centered − Σ_k (centered · v_k) v_k
        let mut residual = centered.clone();
        for component in &self.components {
            let projection: f64 = centered.iter().zip(component).map(|(a, b)| a * b).sum();
            for (r, c) in residual.iter_mut().zip(component) {
                *r -= projection * c;
            }
        }
        residual.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::cyclic_jacobi;
    use crate::q_statistic_threshold;

    fn line_data() -> Matrix {
        // Points close to the line y = 2x.
        Matrix::from_rows(&[
            vec![1.0, 2.01],
            vec![2.0, 3.98],
            vec![3.0, 6.02],
            vec![4.0, 7.99],
            vec![5.0, 10.01],
        ])
    }

    #[test]
    fn one_dominant_direction_keeps_one_component() {
        let pca = Pca::fit(&line_data(), 0.95);
        assert_eq!(pca.kept_components(), 1);
        // Component aligns with (1, 2)/√5 up to sign.
        let c = &pca.components()[0];
        let expected = (1.0f64, 2.0f64);
        let norm = (expected.0 * expected.0 + expected.1 * expected.1).sqrt();
        let align = (c[0] * expected.0 / norm + c[1] * expected.1 / norm).abs();
        assert!(align > 0.999, "{align}");
    }

    #[test]
    fn points_on_subspace_have_tiny_spe() {
        let pca = Pca::fit(&line_data(), 0.95);
        assert!(pca.squared_prediction_error(&[6.0, 12.0]) < 1e-3);
    }

    #[test]
    fn points_off_subspace_have_large_spe() {
        let pca = Pca::fit(&line_data(), 0.95);
        let spe = pca.squared_prediction_error(&[6.0, 0.0]);
        assert!(spe > 10.0, "{spe}");
    }

    #[test]
    fn full_variance_keeps_all_informative_components() {
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0, 5.0],
            vec![0.0, 1.0, 5.0],
            vec![1.0, 1.0, 5.0],
            vec![0.0, 0.0, 5.0],
        ]);
        let pca = Pca::fit(&data, 1.0);
        // Third column is constant: only two directions carry variance,
        // but cumulative-variance selection may stop once 100% reached.
        assert!(pca.kept_components() >= 2);
        assert!(pca.squared_prediction_error(&[0.5, 0.5, 5.0]) < 1e-9);
    }

    #[test]
    fn fit_fixed_respects_k() {
        let pca = Pca::fit_fixed(&line_data(), 2);
        assert_eq!(pca.kept_components(), 2);
        // With all components kept, every point reconstructs exactly.
        assert!(pca.squared_prediction_error(&[100.0, -3.0]) < 1e-9);
    }

    #[test]
    fn fit_fixed_clamps_to_dimension() {
        let pca = Pca::fit_fixed(&line_data(), 10);
        assert_eq!(pca.kept_components(), 2);
    }

    #[test]
    fn zero_variance_data_keeps_no_components() {
        let data = Matrix::from_rows(&[vec![3.0, 3.0], vec![3.0, 3.0]]);
        let pca = Pca::fit(&data, 0.95);
        assert_eq!(pca.kept_components(), 0);
        assert_eq!(pca.squared_prediction_error(&[3.0, 3.0]), 0.0);
        assert!(pca.squared_prediction_error(&[4.0, 3.0]) > 0.9);
    }

    #[test]
    fn residual_eigenvalues_complement_kept() {
        let pca = Pca::fit(&line_data(), 0.95);
        assert_eq!(
            pca.kept_components() + pca.residual_eigenvalues().len(),
            pca.eigenvalues().len()
        );
    }

    #[test]
    fn fewer_rows_than_columns_pads_eigenvalues_and_clamps_fixed_k() {
        // Three observations of five features: at most two directions.
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0, 0.0, 7.0],
            vec![2.0, 1.0, 0.0, 0.0, 7.0],
            vec![4.0, 3.0, 1.0, 0.0, 7.0],
        ]);
        let pca = Pca::fit_fixed(&data, 5);
        assert_eq!(pca.kept_components(), 2);
        assert_eq!(pca.eigenvalues().len(), 5);
        assert_eq!(pca.eigenvalues()[2..], [0.0; 3]);
        assert_eq!(pca.residual_eigenvalues(), [0.0; 3]);
        for r in 0..3 {
            assert!(pca.squared_prediction_error(data.row(r)) < 1e-24);
        }
        // Mass on a column the fit never saw move is all residual.
        let spe = pca.squared_prediction_error(&[1.0, 0.0, 2.0, 3.0, 7.0]);
        assert!((spe - 9.0).abs() < 1e-12, "{spe}");
    }

    /// `aggregate.rs` refuses to flag anything while the history's peak
    /// in-fit residual is below 1e-9, on the grounds that such residuals
    /// are rounding dust. That only works while a row inside the normal
    /// space scores *squared* rounding error. `‖x_c‖² − Σ projections²`
    /// is the same quantity on paper and leaves ~1e-16·‖x_c‖² instead —
    /// above the guard for any realistic window size.
    #[test]
    fn in_fit_spe_of_an_exactly_low_rank_history_is_squared_rounding_dust() {
        let profiles: Vec<Vec<f64>> = (0..3)
            .map(|p| (0..200).map(|c| ((c * 7 + p * 13) % 11) as f64).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|r| {
                let weights = [1 + r % 4, (r * 5) % 7, (r * r) % 5];
                (0..200)
                    .map(|c| (0..3).map(|p| weights[p] as f64 * profiles[p][c]).sum())
                    .collect()
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit_fixed(&data, 3);
        assert_eq!(pca.kept_components(), 3);
        let mean = data.column_means();
        let norm_sq =
            |row: &[f64]| -> f64 { row.iter().zip(&mean).map(|(x, m)| (x - m) * (x - m)).sum() };
        let largest = (0..20).map(|r| norm_sq(data.row(r))).fold(0.0, f64::max);
        for r in 0..20 {
            let spe = pca.squared_prediction_error(data.row(r));
            assert!(spe < 1e-18 * largest, "row {r}: {spe} vs {largest}");
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn spe_rejects_wrong_dimension() {
        Pca::fit(&line_data(), 0.95).squared_prediction_error(&[1.0]);
    }

    use proptest::prelude::*;
    use std::ops::Range;

    /// A non-negative count matrix of rank at most `rank` after centring,
    /// with the shapes window histories actually take — duplicate rows, a
    /// column nothing ever lands in, a column that never varies — plus one
    /// further row with mass on that untouched column.
    fn count_matrix() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        count_matrix_sized(3..10, 0..4)
    }

    /// [`count_matrix`] with `d` columns drawn from `columns` and `rank`
    /// from `ranks`.
    fn count_matrix_sized(
        columns: Range<usize>,
        ranks: Range<usize>,
    ) -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        (columns, 0usize..3, ranks, 0usize..64).prop_flat_map(|(d, shape, rank, extra)| {
            let n = match shape {
                0 => 2 + extra % (d - 2), // n < d
                1 => d,
                _ => d + 1,
            };
            (
                prop::collection::vec(0u32..30, d..=d),
                prop::collection::vec(0u32..20, rank * d..=rank * d),
                prop::collection::vec(0u32..6, n * rank..=n * rank),
                prop::collection::vec(0u32..40, d..=d),
            )
                .prop_map(move |(base, profiles, weights, mut held_out)| {
                    let mut rows: Vec<Vec<f64>> = (0..n)
                        .map(|r| {
                            (0..d)
                                .map(|c| match c {
                                    0 => 0.0,
                                    1 => 7.0,
                                    _ => (0..rank).fold(base[c], |acc, p| {
                                        acc + weights[r * rank + p] * profiles[p * d + c]
                                    }) as f64,
                                })
                                .collect()
                        })
                        .collect();
                    rows[1] = rows[0].clone();
                    held_out[0] += 5;
                    let held_out = held_out.into_iter().map(f64::from).collect();
                    (Matrix::from_rows(&rows), held_out)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both sides are fitted on every shape, including the ones
        /// `Pca::fit` would never send there (dual at n ≥ d, primal at
        /// n < d): the choice between them may only ever change the cost.
        #[test]
        fn dual_matches_primal((data, held_out) in count_matrix()) {
            let keep = |values: &[f64]| components_for_variance(values, 0.95);
            let primal = Pca::decompose_covariance(&data, keep);
            let dual = Pca::decompose_samples(&data, keep);
            prop_assert_eq!(primal.kept_components(), dual.kept_components());
            prop_assert_eq!(primal.eigenvalues().len(), dual.eigenvalues().len());

            // 1e-9 relative, down to a floor at 1e-12 of the trace: the
            // solver is backward stable, so it returns each eigenvalue to a
            // small multiple of ε·‖A‖ absolute, and an eigenvalue far below
            // the trace is known to no better than that, on either side.
            let trace: f64 = dual.eigenvalues().iter().sum();
            for (p, q) in primal.eigenvalues().iter().zip(dual.eigenvalues()) {
                prop_assert!(
                    (p - q).abs() <= 1e-9 * q + 1e-12 * trace,
                    "eigenvalue {p} vs {q} (trace {trace})"
                );
            }
            // Q_α is homogeneous in the spectrum, so "relative" is to its
            // scale: where the dual side has exact zeros the primal side
            // has ±1e-16·λ₁ and a threshold of the same order.
            let q_primal = q_statistic_threshold(primal.residual_eigenvalues(), 0.001);
            let q_dual = q_statistic_threshold(dual.residual_eigenvalues(), 0.001);
            prop_assert!(
                (q_primal - q_dual).abs() <= 1e-9 * (q_dual + trace),
                "Q {q_primal} vs {q_dual}"
            );

            // A fixed k selects the same subspace too, inside the
            // well-separated part of the spectrum: a component is only
            // determined to about ε·‖A‖ over its gap to the next
            // eigenvalue, and the two sides decompose different matrices.
            let top = dual.eigenvalues()[0];
            let k = dual.eigenvalues().iter().filter(|&&v| v > 0.01 * top).count().min(2);
            let fixed = (
                Pca::decompose_covariance(&data, |_| k),
                Pca::decompose_samples(&data, |_| k),
            );
            prop_assert_eq!(fixed.1.kept_components(), k);

            let mean = data.column_means();
            let rows = (0..data.rows()).map(|r| data.row(r)).chain([held_out.as_slice()]);
            for row in rows {
                let norm_sq: f64 = row.iter().zip(&mean).map(|(x, m)| (x - m) * (x - m)).sum();
                for (a, b) in [(&primal, &dual), (&fixed.0, &fixed.1)] {
                    let (p, q) = (a.squared_prediction_error(row), b.squared_prediction_error(row));
                    prop_assert!((p - q).abs() <= 1e-9 * (1.0 + norm_sq), "SPE {p} vs {q}; kept {} eig {:?}", a.kept_components(), dual.eigenvalues());
                }
            }
        }
    }

    /// `Σ_{i<k} v_i v_iᵀ`, the projector onto the leading `k` eigenvectors.
    fn projector(vectors: &[Vec<f64>], k: usize) -> Matrix {
        let n = vectors.first().map_or(0, Vec::len);
        let mut p = Matrix::zeros(n, n);
        for v in &vectors[..k] {
            for i in 0..n {
                for j in 0..n {
                    p[(i, j)] += v[i] * v[j];
                }
            }
        }
        p
    }

    fn distance(a: &Matrix, b: &Matrix) -> f64 {
        let mut diff = a.clone();
        for r in 0..a.rows() {
            for (x, y) in diff.row_mut(r).iter_mut().zip(b.row(r)) {
                *x -= y;
            }
        }
        diff.frobenius_norm()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The Householder–QL solver against the cyclic Jacobi it
        /// replaced, on both Gram matrices `Pca` would decompose for a
        /// count history of up to 70 windows or templates. Eigenvectors
        /// are compared only through the projectors onto leading
        /// eigenspaces set apart by a gap: single vectors carry an
        /// arbitrary sign, and within a tied eigenvalue an arbitrary basis.
        #[test]
        fn symmetric_eigen_matches_jacobi_on_count_grams((data, _) in count_matrix_sized(3..71, 0..24)) {
            let mean = data.column_means();
            let mut centred = data.clone();
            for r in 0..data.rows() {
                for (v, m) in centred.row_mut(r).iter_mut().zip(&mean) {
                    *v -= m;
                }
            }
            for a in [data.covariance(), sample_gram(&centred)] {
                let n = a.rows();
                let norm = a.frobenius_norm();
                let (new, old) = (symmetric_eigen(&a), cyclic_jacobi(&a));
                for (p, q) in new.values.iter().zip(&old.values) {
                    prop_assert!((p - q).abs() <= 1e-10 * norm, "eigenvalue {p} vs {q} (‖A‖ {norm})");
                }

                let mut residual = 0.0;
                for (value, vector) in new.values.iter().zip(&new.vectors) {
                    let av = a.multiply_vec(vector);
                    residual += av.iter().zip(vector).map(|(x, v)| (x - value * v).powi(2)).sum::<f64>();
                }
                prop_assert!(residual.sqrt() <= 1e-10 * norm, "‖AV − VΛ‖ {} (‖A‖ {norm})", residual.sqrt());

                for i in 0..n {
                    for j in 0..n {
                        let want = if i == j { 1.0 } else { 0.0 };
                        let got: f64 = new.vectors[i].iter().zip(&new.vectors[j]).map(|(x, y)| x * y).sum();
                        prop_assert!((got - want).abs() <= 1e-12 * n as f64, "VᵀV[{i}][{j}] = {got}");
                    }
                }

                // Jacobi stops with off-diagonals of up to 1e-12·‖A‖ left,
                // n² of them: a perturbation of up to ~1e-10·‖A‖ at n = 70,
                // which turns an eigenspace by at most that over its gap.
                // (Seen over 2 000 cases: 5.3e-12·‖A‖/gap at most.)
                let top = new.values[0];
                for k in 1..n {
                    let gap = new.values[k - 1] - new.values[k];
                    if gap > 1e-6 * top {
                        let d = distance(&projector(&new.vectors, k), &projector(&old.vectors, k));
                        prop_assert!(d <= 1e-9 * norm / gap, "projector {k} of {n}: {d:e} (gap {gap:e}, ‖A‖ {norm})");
                    }
                }
            }
        }
    }
}
