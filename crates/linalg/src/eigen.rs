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

/// QL iterations allowed per eigenvalue before the solver gives up:
/// EISPACK `tql2`'s budget. Two or three are the norm.
const MAX_QL_ITERATIONS: usize = 30;

/// Computes the eigendecomposition of a symmetric matrix: Householder
/// reduction to tridiagonal form, then the implicit QL method with the
/// eigenvectors accumulated (EISPACK `tred2` and `tql2`, in the
/// public-domain form JAMA uses).
///
/// The matrices [`crate::Pca`] hands it are the *smaller* Gram side of an
/// event-count matrix — one row/column per event type for a batch
/// session matrix, one per window for a streaming history — so at most a
/// few hundred rows, symmetric and dense. The solver costs about 9n³
/// flops against cyclic Jacobi's ~70n³. Against the Jacobi it replaced,
/// best of 50 runs pinned to one core of a 2-vCPU x86-64 VM: 0.757 →
/// 0.076 ms on the Gram matrix of a 34 × 291 count history, 4.71 →
/// 0.29 ms at 64 × 291 (`serve`'s default history), 823 → 20 ms on a
/// dense 300 × 300 count matrix (best of 10); eigenvalues agreed within
/// 9.4e-14·λ₁. It is still cubic, so the caller picking the smaller
/// side is what keeps it cheap.
///
/// # Panics
///
/// Panics if the matrix is not square, if an entry is NaN or infinite
/// (refused up front: no spectrum of such a matrix is meaningful), or if
/// an eigenvalue has not converged after 30 QL iterations. Symmetry is
/// assumed, not checked; only the upper triangle is read.
///
/// # Example
///
/// ```
/// use logparse_linalg::{symmetric_eigen, Matrix};
///
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = symmetric_eigen(&m);
/// assert!((eig.values[0] - 3.0).abs() < 1e-9);
/// assert!((eig.values[1] - 1.0).abs() < 1e-9);
/// ```
pub fn symmetric_eigen(matrix: &Matrix) -> Eigen {
    assert_eq!(matrix.rows(), matrix.cols(), "matrix must be square");
    let n = matrix.rows();
    // The working matrix V, column by column: V[r][c] is v[c * n + r],
    // so column c (eigenvector c at the end) is one contiguous slice.
    // Copying A's rows in stores Aᵀ, which is A.
    let mut v = Vec::with_capacity(n * n);
    for r in 0..n {
        let row = matrix.row(r);
        if let Some(c) = row.iter().position(|x| !x.is_finite()) {
            panic!("symmetric_eigen: non-finite entry {} at ({r}, {c})", row[c]);
        }
        v.extend_from_slice(row);
    }
    if n == 0 {
        return Eigen {
            values: Vec::new(),
            vectors: Vec::new(),
        };
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(n, &mut v, &mut d, &mut e);
    diagonalize(n, &mut v, &mut d, &mut e, MAX_QL_ITERATIONS);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    Eigen {
        values: order.iter().map(|&k| d[k]).collect(),
        vectors: order
            .iter()
            .map(|&k| v[k * n..(k + 1) * n].to_vec())
            .collect(),
    }
}

/// Householder reduction of the symmetric matrix in `v` to tridiagonal
/// form (`tred2`). On return `d` is the diagonal, `e[1..]` the
/// subdiagonal, `e[0]` zero, and `v` the orthogonal transformation.
fn tridiagonalize(n: usize, v: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = v[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under- and overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[j * n + i - 1];
                v[j * n + i] = 0.0;
                v[i * n + j] = 0.0;
            }
        } else {
            // The Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // The similarity transformation, applied to the remaining
            // columns.
            for j in 0..i {
                let f = d[j];
                v[i * n + j] = f;
                let col = &v[j * n..j * n + i];
                let mut g = e[j] + col[j] * f;
                let below = col[j + 1..].iter().zip(&d[j + 1..i]);
                for ((&vkj, &dk), ek) in below.zip(&mut e[j + 1..i]) {
                    g += vkj * dk;
                    *ek += vkj * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let col = &mut v[j * n..(j + 1) * n];
                for ((vkj, &ek), &dk) in col[j..i].iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *vkj -= f * ek + g * dk;
                }
                d[j] = col[i - 1];
                col[i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for i in 0..n - 1 {
        v[i * n + n - 1] = v[i * n + i];
        v[i * n + i] = 1.0;
        let (done, rest) = v.split_at_mut((i + 1) * n);
        let u = &mut rest[..=i];
        let h = d[i + 1];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let col = &mut done[j * n..=j * n + i];
                let g: f64 = u.iter().zip(col.iter()).map(|(a, b)| a * b).sum();
                for (vkj, &dk) in col.iter_mut().zip(&d[..=i]) {
                    *vkj -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = v[j * n + n - 1];
        v[j * n + n - 1] = 0.0;
    }
    v[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalises the tridiagonal matrix `(d, e)` by the implicit QL
/// method (`tql2`), rotating the columns of `v` along. On return `d`
/// holds the eigenvalues (unsorted) and column `k` of `v` the unit
/// eigenvector of `d[k]`.
///
/// # Panics
///
/// Panics if an eigenvalue takes more than `budget` iterations.
fn diagonalize(n: usize, v: &mut [f64], d: &mut [f64], e: &mut [f64], budget: usize) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut shift = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Split off at the first negligible subdiagonal element;
        // `e[n - 1]` is zero, so `m` stops there at the latest. (Written
        // so that a NaN is never negligible: it exhausts the budget.)
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = |x: f64| x.abs() <= f64::EPSILON * tst1;
        let m = (l..n - 1).find(|&m| small(e[m])).unwrap_or(n - 1);
        let mut iterations = 0;
        while m > l && !small(e[l]) {
            assert!(
                iterations < budget,
                "symmetric_eigen: eigenvalue {l} of {n} did not converge in {budget} QL iterations"
            );
            iterations += 1;
            // The implicit shift.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            shift += h;

            // The implicit QL transformation.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // Rotate columns i and i + 1 of V.
                let (left, right) = v.split_at_mut((i + 1) * n);
                for (vi, vi1) in left[i * n..].iter_mut().zip(&mut right[..n]) {
                    let h = *vi1;
                    *vi1 = s * *vi + c * h;
                    *vi = c * *vi - s * h;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
}

/// Cyclic Jacobi, the solver [`symmetric_eigen`] replaced: the oracle
/// the Householder–QL solver is held to. Sweeps until every off-diagonal
/// element is at most `1e-12 ×` the Frobenius norm, or 100 sweeps.
#[cfg(test)]
pub(crate) fn cyclic_jacobi(matrix: &Matrix) -> Eigen {
    assert_eq!(matrix.rows(), matrix.cols(), "matrix must be square");
    let n = matrix.rows();
    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);
    let tolerance = 1e-12 * matrix.frobenius_norm().max(f64::MIN_POSITIVE);
    let max_off_diagonal = |a: &Matrix| {
        let mut max = 0.0f64;
        for p in 0..n {
            for q in (0..n).filter(|&q| q != p) {
                max = max.max(a[(p, q)].abs());
            }
        }
        max
    };

    for _sweep in 0..100 {
        if max_off_diagonal(&a) <= tolerance {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= tolerance {
                    continue;
                }
                let theta = (a[(q, q)] - a[(p, p)]) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = {
                    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                    sign / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // A <- Jᵀ A J, touching only rows/cols p and q.
                for k in 0..n {
                    let (akp, akq) = (a[(k, p)], a[(k, q)]);
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let (apk, aqk) = (a[(p, k)], a[(q, k)]);
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[(j, j)].total_cmp(&a[(i, i)]));
    Eigen {
        values: order.iter().map(|&i| a[(i, i)]).collect(),
        vectors: order
            .iter()
            .map(|&col| (0..n).map(|row| v[(row, col)]).collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// `Σ λ_k v_k v_kᵀ`.
    fn reconstruct(eig: &Eigen) -> Matrix {
        let vt = Matrix::from_rows(&eig.vectors);
        let scaled: Vec<Vec<f64>> = eig
            .values
            .iter()
            .zip(&eig.vectors)
            .map(|(l, v)| v.iter().map(|x| l * x).collect())
            .collect();
        vt.transpose().multiply(&Matrix::from_rows(&scaled))
    }

    /// Largest entry of `|A − VΛVᵀ|` and of `|VᵀV − I|`.
    fn errors(m: &Matrix, eig: &Eigen) -> (f64, f64) {
        let n = m.rows();
        let rec = reconstruct(eig);
        let mut reconstruction = 0.0f64;
        let mut orthogonality = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                reconstruction = reconstruction.max((rec[(i, j)] - m[(i, j)]).abs());
                let want = if i == j { 1.0 } else { 0.0 };
                let got = dot(&eig.vectors[i], &eig.vectors[j]);
                orthogonality = orthogonality.max((got - want).abs());
            }
        }
        (reconstruction, orthogonality)
    }

    fn assert_decomposes(m: &Matrix, eig: &Eigen, tolerance: f64) {
        let (reconstruction, orthogonality) = errors(m, eig);
        assert!(
            reconstruction <= tolerance,
            "reconstruction {reconstruction:e}"
        );
        assert!(orthogonality <= 1e-13, "orthogonality {orthogonality:e}");
        assert!(
            eig.values.windows(2).all(|w| w[0] >= w[1]),
            "{:?}",
            eig.values
        );
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ]);
        let eig = symmetric_eigen(&m);
        assert_eq!(eig.values, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn two_by_two_known_answer() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = symmetric_eigen(&m);
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
        let eig = symmetric_eigen(&m);
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
        assert_decomposes(&m, &symmetric_eigen(&m), 1e-12);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 7.0]]);
        let eig = symmetric_eigen(&m);
        assert!((eig.values.iter().sum::<f64>() - 10.0).abs() < 1e-10);
    }

    #[test]
    fn zero_sized_matrix_is_fine() {
        let eig = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(eig.values.is_empty());
        assert!(eig.vectors.is_empty());
    }

    #[test]
    fn one_by_one_is_its_own_eigenvalue() {
        let eig = symmetric_eigen(&Matrix::from_rows(&[vec![-2.5]]));
        assert_eq!(eig.values, vec![-2.5]);
        assert_eq!(eig.vectors, vec![vec![1.0]]);
    }

    #[test]
    fn already_diagonal_converges_immediately() {
        let eig = symmetric_eigen(&Matrix::identity(4));
        assert_eq!(eig.values, vec![1.0; 4]);
        assert_decomposes(&Matrix::identity(4), &eig, 0.0);
    }

    #[test]
    fn zero_matrix_has_zero_spectrum_and_a_basis() {
        let m = Matrix::zeros(5, 5);
        let eig = symmetric_eigen(&m);
        assert_eq!(eig.values, vec![0.0; 5]);
        assert_decomposes(&m, &eig, 0.0);
    }

    #[test]
    fn repeated_diagonal_values_stay_exact() {
        let diagonal = [3.0, 1.0, 3.0, 2.0, 1.0, 3.0];
        let mut m = Matrix::zeros(6, 6);
        for (i, &x) in diagonal.iter().enumerate() {
            m[(i, i)] = x;
        }
        let eig = symmetric_eigen(&m);
        assert_eq!(eig.values, vec![3.0, 3.0, 3.0, 2.0, 1.0, 1.0]);
        assert_decomposes(&m, &eig, 0.0);
    }

    #[test]
    fn tiny_off_diagonal_neither_underflows_nor_stalls() {
        let m = Matrix::from_rows(&[vec![1.0, 1e-300], vec![1e-300, 2.0]]);
        let eig = symmetric_eigen(&m);
        assert_eq!(eig.values, vec![2.0, 1.0]);
        assert_decomposes(&m, &eig, 1e-300);
    }

    /// Wilkinson's W₂₁⁺: diagonal `|10 − i|`, unit off-diagonal. Its
    /// largest eigenvalues come in pairs that agree to ~1e-14, the classic
    /// trap for a solver's eigenvector orthogonality.
    #[test]
    fn wilkinson_w21_plus_reconstructs() {
        let n = 21;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = (10.0 - i as f64).abs();
            if i + 1 < n {
                m[(i, i + 1)] = 1.0;
                m[(i + 1, i)] = 1.0;
            }
        }
        let eig = symmetric_eigen(&m);
        let norm = m.frobenius_norm();
        assert_decomposes(&m, &eig, 1e-12 * norm);
        assert!((eig.values[0] - 10.746_194_182_903_4).abs() < 1e-12 * norm);
        assert!((eig.values[0] - eig.values[1]).abs() < 1e-12);
        for (new, old) in eig.values.iter().zip(&cyclic_jacobi(&m).values) {
            assert!((new - old).abs() <= 1e-12 * norm, "{new} vs {old}");
        }
    }

    /// The lower triangle is never read: garbage there changes nothing.
    #[test]
    fn only_the_upper_triangle_is_read() {
        let upper = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5, 2.0],
            vec![0.0, 3.0, 0.2, 1.0],
            vec![0.0, 0.0, 2.0, 0.7],
            vec![0.0, 0.0, 0.0, 1.0],
        ]);
        let mut symmetric = upper.clone();
        let mut garbage = upper.clone();
        for i in 0..4 {
            for j in 0..i {
                symmetric[(i, j)] = upper[(j, i)];
                garbage[(i, j)] = 99.0 * (i + 2 * j) as f64;
            }
        }
        let (a, b) = (symmetric_eigen(&symmetric), symmetric_eigen(&garbage));
        assert_eq!(a.values, b.values);
        assert_eq!(a.vectors, b.vectors);
    }

    /// Cyclic Jacobi returned `[1, 1, 1]` for these: `f64::max` drops a
    /// NaN from its convergence measure, and an infinite pair stopped the
    /// sweep as well. The solver refuses them by name instead.
    #[test]
    #[should_panic(expected = "symmetric_eigen: non-finite entry NaN at (0, 1)")]
    fn nan_off_diagonal_is_refused() {
        let mut m = Matrix::identity(3);
        m[(0, 1)] = f64::NAN;
        m[(1, 0)] = f64::NAN;
        symmetric_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "symmetric_eigen: non-finite entry inf at (1, 2)")]
    fn infinite_off_diagonal_is_refused() {
        let mut m = Matrix::identity(3);
        m[(1, 2)] = f64::INFINITY;
        m[(2, 1)] = f64::INFINITY;
        symmetric_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "symmetric_eigen: non-finite entry -inf at (2, 2)")]
    fn negative_infinite_diagonal_is_refused() {
        let mut m = Matrix::identity(3);
        m[(2, 2)] = f64::NEG_INFINITY;
        symmetric_eigen(&m);
    }

    /// A QL sweep that does not converge ends in a named panic, never a
    /// hang: one iteration is not enough for a dense 3 × 3.
    #[test]
    #[should_panic(
        expected = "symmetric_eigen: eigenvalue 0 of 3 did not converge in 1 QL iterations"
    )]
    fn exhausted_iteration_budget_panics_by_name() {
        let mut v = vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0];
        let (mut d, mut e) = (vec![0.0; 3], vec![0.0; 3]);
        tridiagonalize(3, &mut v, &mut d, &mut e);
        diagonalize(3, &mut v, &mut d, &mut e, 1);
    }
}
