//! Property-based tests of the linear-algebra substrate: symmetric
//! eigendecomposition invariants and PCA residual behaviour.

use logmine::linalg::{symmetric_eigen, Matrix, Pca};
use proptest::prelude::*;

/// Arbitrary symmetric matrices of order 1 to 70 (past `serve`'s default
/// 64-window history) with entries in [-10, 10].
fn symmetric_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=70).prop_flat_map(|n| {
        prop::collection::vec(-10.0f64..10.0, n * (n + 1) / 2).prop_map(move |upper| {
            let mut m = Matrix::zeros(n, n);
            let mut k = 0;
            for i in 0..n {
                for j in i..n {
                    m[(i, j)] = upper[k];
                    m[(j, i)] = upper[k];
                    k += 1;
                }
            }
            m
        })
    })
}

/// Arbitrary data matrices (rows ≥ 2), wide enough that some have fewer
/// rows than columns and `Pca` fits them in sample space.
fn data_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..12, 1usize..24).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(-100.0f64..100.0, rows * cols).prop_map(move |data| {
            let rows_vec: Vec<Vec<f64>> = data.chunks(cols).map(<[f64]>::to_vec).collect();
            Matrix::from_rows(&rows_vec)
        })
    })
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_trace_equals_value_sum(m in symmetric_matrix()) {
        let eig = symmetric_eigen(&m);
        let trace: f64 = (0..m.rows()).map(|i| m[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * (1.0 + trace.abs()));
    }

    #[test]
    fn eigenvectors_are_orthonormal(m in symmetric_matrix()) {
        let eig = symmetric_eigen(&m);
        let n = m.rows();
        for i in 0..n {
            prop_assert!((dot(&eig.vectors[i], &eig.vectors[i]) - 1.0).abs() < 1e-7);
            for j in (i + 1)..n {
                prop_assert!(dot(&eig.vectors[i], &eig.vectors[j]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn eigenpairs_satisfy_definition(m in symmetric_matrix()) {
        let eig = symmetric_eigen(&m);
        for (value, vector) in eig.values.iter().zip(&eig.vectors) {
            let mv = m.multiply_vec(vector);
            for (a, b) in mv.iter().zip(vector) {
                prop_assert!((a - value * b).abs() < 1e-6 * (1.0 + value.abs()),
                    "A·v != λ·v: {a} vs {}", value * b);
            }
        }
    }

    #[test]
    fn eigenvalues_are_sorted_descending(m in symmetric_matrix()) {
        let eig = symmetric_eigen(&m);
        for w in eig.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn covariance_is_positive_semidefinite(data in data_matrix()) {
        let eig = symmetric_eigen(&data.covariance());
        for &v in &eig.values {
            prop_assert!(v > -1e-6, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn spe_is_nonnegative_and_zero_with_all_components(data in data_matrix()) {
        let full = Pca::fit_fixed(&data, data.cols());
        let partial = Pca::fit(&data, 0.5);
        for r in 0..data.rows() {
            let row = data.row(r);
            prop_assert!(partial.squared_prediction_error(row) >= 0.0);
            // Keeping every component reconstructs training rows exactly.
            let full_spe = full.squared_prediction_error(row);
            prop_assert!(full_spe < 1e-5, "full-rank SPE {full_spe}");
        }
    }

    #[test]
    fn keeping_more_components_never_increases_spe(data in data_matrix()) {
        let k1 = Pca::fit_fixed(&data, 1);
        let k2 = Pca::fit_fixed(&data, 2.min(data.cols()));
        for r in 0..data.rows() {
            let row = data.row(r);
            prop_assert!(
                k2.squared_prediction_error(row) <= k1.squared_prediction_error(row) + 1e-6
            );
        }
    }
}
