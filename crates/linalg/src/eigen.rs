use crate::Matrix;

/// Eigendecomposition of a real symmetric matrix.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Corresponding unit eigenvectors, `vectors[k]` pairing with
    /// `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Computes the eigendecomposition of a symmetric matrix with the cyclic
/// Jacobi rotation method.
///
/// Jacobi is the right tool here: the Gram matrices [`crate::Pca`] hands
/// it are small (the *smaller* side of the event-count matrix: one
/// row/column per event type for a batch session matrix, one per window
/// for a streaming history — ≤ a few hundred either way), symmetric and
/// dense, and Jacobi's unconditional numerical stability beats the
/// faster-but-trickier QR variants at this size. It is cubic, so the
/// caller picking the smaller side is what keeps it cheap.
///
/// The sweep stops when every off-diagonal element falls below `1e-12 ×`
/// the Frobenius norm, or after 100 sweeps.
///
/// # Panics
///
/// Panics if the matrix is not square. Symmetry is assumed; only the
/// upper triangle drives the rotations.
///
/// # Example
///
/// ```
/// use logparse_linalg::{jacobi_eigen, Matrix};
///
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = jacobi_eigen(&m);
/// assert!((eig.values[0] - 3.0).abs() < 1e-9);
/// assert!((eig.values[1] - 1.0).abs() < 1e-9);
/// ```
pub fn jacobi_eigen(matrix: &Matrix) -> Eigen {
    assert_eq!(matrix.rows(), matrix.cols(), "matrix must be square");
    let n = matrix.rows();
    if n == 0 {
        return Eigen {
            values: Vec::new(),
            vectors: Vec::new(),
        };
    }
    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);
    let tolerance = 1e-12 * matrix.frobenius_norm().max(f64::MIN_POSITIVE);

    for _sweep in 0..100 {
        if a.max_off_diagonal() <= tolerance {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tolerance {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // A <- Jᵀ A J, touching only rows/cols p and q.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a[(j, j)]
            .partial_cmp(&a[(i, i)])
            .expect("finite eigenvalues")
    });
    let values = order.iter().map(|&i| a[(i, i)]).collect();
    let vectors = order
        .iter()
        .map(|&col| (0..n).map(|row| v[(row, col)]).collect())
        .collect();
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ]);
        let eig = jacobi_eigen(&m);
        assert_eq!(eig.values, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn two_by_two_known_answer() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = jacobi_eigen(&m);
        assert!((eig.values[0] - 3.0).abs() < 1e-10);
        assert!((eig.values[1] - 1.0).abs() < 1e-10);
        // Leading eigenvector is (1,1)/√2 up to sign.
        let v = &eig.vectors[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((v[0] - v[1]).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]);
        let eig = jacobi_eigen(&m);
        for i in 0..3 {
            assert!((dot(&eig.vectors[i], &eig.vectors[i]) - 1.0).abs() < 1e-9);
            for j in (i + 1)..3 {
                assert!(dot(&eig.vectors[i], &eig.vectors[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reconstruction_from_eigenpairs_matches_original() {
        let m = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let eig = jacobi_eigen(&m);
        let n = 3;
        let mut rec = Matrix::zeros(n, n);
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    rec[(i, j)] += eig.values[k] * eig.vectors[k][i] * eig.vectors[k][j];
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert!((rec[(i, j)] - m[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 7.0]]);
        let eig = jacobi_eigen(&m);
        assert!((eig.values.iter().sum::<f64>() - 10.0).abs() < 1e-10);
    }

    #[test]
    fn zero_sized_matrix_is_fine() {
        let eig = jacobi_eigen(&Matrix::zeros(0, 0));
        assert!(eig.values.is_empty());
    }

    #[test]
    fn already_diagonal_converges_immediately() {
        let m = Matrix::identity(4);
        let eig = jacobi_eigen(&m);
        assert_eq!(eig.values, vec![1.0; 4]);
    }
}
