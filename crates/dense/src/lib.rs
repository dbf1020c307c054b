//! # ca-dense — dense linear-algebra substrate
//!
//! A small, self-contained dense linear-algebra library written for the
//! CA-GMRES reproduction. It provides everything the paper's CPU side needs
//! and everything the simulated GPU kernels compute with:
//!
//! * a column-major matrix type ([`Mat`]) matching LAPACK storage conventions,
//! * BLAS level 1/2/3 routines ([`blas1`], [`blas2`], [`blas3`]), the
//!   tall-skinny ones built on two register-tiled micro-kernels ([`tile`])
//!   that keep the level-1 summation order bit for bit,
//! * Cholesky factorization with definiteness-failure reporting ([`chol`]) —
//!   CholQR relies on observing exactly where the factorization breaks down,
//! * Householder QR ([`qr`]) used by CAQR's local factorizations,
//! * a symmetric Jacobi eigensolver ([`jacobi`]) providing the SVD of the
//!   Gram matrix for SVQR (including the diagonal-scaling stabilization),
//! * Hessenberg utilities ([`hessenberg`]): Givens-rotation least squares
//!   (the GMRES update) and eigenvalues of small upper-Hessenberg matrices
//!   via the shifted QR algorithm (the Newton-basis shifts),
//! * Leja ordering of shifts ([`leja`]),
//! * norm and orthogonality-error helpers ([`norms`]).
//!
//! All routines are written in safe Rust — but for [`tile`]'s three calls
//! into the AVX2 instantiation of its kernels, made only after the CPU
//! reported the feature — and validated against naive reference
//! implementations in the test suite.
//!
//! ```
//! use ca_dense::{blas3, chol, qr, Mat};
//!
//! // a tall-skinny block, its Gram matrix, and both QR routes
//! let v = Mat::from_fn(100, 4, |i, j| ((i * (j + 2)) as f64 * 0.01).sin());
//! let mut gram = Mat::zeros(4, 4);
//! blas3::syrk_tn(1.0, &v, 0.0, &mut gram);
//! let r_chol = chol::cholesky_upper(&gram).unwrap();   // CholQR's R
//! let r_house = qr::householder_qr(&v).r;              // Householder R
//! for j in 0..4 {
//!     assert!((r_chol[(j, j)] - r_house[(j, j)]).abs() < 1e-8);
//! }
//! ```

// Numeric kernels index several parallel slices at once; iterator
// rewrites would obscure the stride arithmetic the cost model mirrors.
#![allow(clippy::needless_range_loop)]

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod chol;
pub mod hessenberg;
pub mod jacobi;
pub mod leja;
pub mod mat;
pub mod norms;
pub mod qr;
#[cfg(test)]
mod reference;
pub mod tile;

pub use mat::{Cols, Mat};

/// Errors reported by dense factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum DenseError {
    /// Cholesky hit a non-positive pivot at the given index (0-based).
    /// The value is the offending pivot so callers can decide whether the
    /// matrix was merely semi-definite or badly indefinite.
    NotPositiveDefinite { index: usize, pivot: f64 },
    /// An iterative eigensolver/QR algorithm failed to converge within its
    /// iteration budget.
    NoConvergence { iterations: usize },
    /// A triangular solve encountered an exactly-zero diagonal entry.
    SingularTriangular { index: usize },
    /// Mismatched dimensions were passed to a routine.
    DimensionMismatch { expected: String, got: String },
}

impl std::fmt::Display for DenseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenseError::NotPositiveDefinite { index, pivot } => {
                write!(f, "matrix not positive definite: pivot {pivot:e} at index {index}")
            }
            DenseError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            DenseError::SingularTriangular { index } => {
                write!(f, "singular triangular factor: zero diagonal at index {index}")
            }
            DenseError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for DenseError {}

/// Convenient result alias for dense routines.
pub type Result<T> = std::result::Result<T, DenseError>;
