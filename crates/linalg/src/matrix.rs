use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
///
/// Sized for the workloads of this workspace: event-count matrices with
/// hundreds of columns and up to hundreds of thousands of rows, and the
/// small square covariance matrices derived from them.
///
/// # Example
///
/// ```
/// use logparse_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self × other` (tests only: the eigensolver's
    /// reconstruction checks).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    #[cfg(test)]
    pub(crate) fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self × v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn multiply_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Column means, the centering vector used before PCA.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for r in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// The `cols × cols` sample covariance matrix of the rows
    /// (denominator `rows - 1`; zero matrix when fewer than two rows).
    pub fn covariance(&self) -> Matrix {
        let d = self.cols;
        let mut cov = Matrix::zeros(d, d);
        if self.rows < 2 {
            return cov;
        }
        let means = self.column_means();
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                let di = row[i] - means[i];
                if di == 0.0 {
                    continue;
                }
                for j in i..d {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        let denom = (self.rows - 1) as f64;
        for i in 0..d {
            for j in i..d {
                cov[(i, j)] /= denom;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        cov
    }

    /// Frobenius norm (tests only: the Jacobi oracle's stopping rule and
    /// the eigensolver's error bounds).
    #[cfg(test)]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.multiply(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).multiply(&m), m);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 3);
    }

    #[test]
    fn multiply_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.multiply(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn multiply_vec_matches_matrix_multiply() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.multiply_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn column_means_are_per_column() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.column_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let cov = m.covariance();
        // var(x) = 1, var(y) = 4, cov(x,y) = 2
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn covariance_of_single_row_is_zero() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(m.covariance(), Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "all rows must have equal length")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_multiply_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.multiply(&b);
    }

    #[test]
    fn display_is_nonempty_even_for_zero_sized() {
        let m = Matrix::zeros(0, 0);
        assert!(!format!("{m}").is_empty());
    }
}
