//! Minimal dense linear algebra for the `logmine` workspace.
//!
//! The PCA-based anomaly detector of Xu et al. (SOSP'09) — the log-mining
//! task reproduced in the DSN'16 study — needs only small dense symmetric
//! eigenproblems, and two pieces of Gaussian statistics (the inverse
//! normal CDF and the Jackson–Mudholkar Q-statistic threshold). "Small"
//! is a property of the *smaller* side of the event-count matrix, and
//! [`Pca`] decomposes that side: a batch session matrix is hundreds of
//! thousands of rows by tens of event types, a streaming window history
//! is at most a few dozen rows by hundreds of templates, and either way
//! the matrix handed to [`symmetric_eigen`] (Householder tridiagonalisation
//! plus implicit QL) has at most a few hundred rows. This crate
//! implements exactly that, with no external dependencies.
//!
//! # Example
//!
//! ```
//! use logparse_linalg::{Matrix, Pca};
//!
//! // Two obvious directions of variance.
//! let data = Matrix::from_rows(&[
//!     vec![1.0, 0.1],
//!     vec![2.0, 0.2],
//!     vec![3.0, 0.1],
//!     vec![4.0, 0.2],
//! ]);
//! let pca = Pca::fit(&data, 0.95);
//! assert_eq!(pca.components().len(), 1); // one component captures ≥95%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eigen;
mod matrix;
mod pca;
mod stats;

/// The solver's name from when it was cyclic Jacobi; `benchmark/` still
/// calls it by this name.
pub use eigen::symmetric_eigen as jacobi_eigen;
pub use eigen::{symmetric_eigen, Eigen};
pub use matrix::Matrix;
pub use pca::Pca;
pub use stats::{inverse_normal_cdf, q_statistic_threshold};
