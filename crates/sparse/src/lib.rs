//! # ca-sparse — sparse-matrix substrate
//!
//! Sparse-matrix infrastructure for the CA-GMRES reproduction:
//!
//! * [`coo`]/[`csr`]/[`ell`] — matrix formats. The paper's GPUs use
//!   ELLPACK for SpMV (Fig. 3 caption); the CPU reference uses CSR.
//! * [`io`] — Matrix Market reader/writer so the real UF-collection
//!   matrices can be used when available.
//! * [`gen`] — synthetic analogs of the paper's four test matrices
//!   (`cant`, `G3_circuit`, `dielFilterV2real`, `nlpkkt120`) plus generic
//!   PDE/random generators.
//! * [`graph`], [`rcm`], [`partition`] — adjacency utilities, reverse
//!   Cuthill-McKee reordering (the HSL MC60 stand-in) and a k-way graph
//!   partitioner (the METIS stand-in), the two orderings of Fig. 6.
//! * [`perm`] — permutation application.
//! * [`balance`] — the row-then-column norm scaling the paper applies
//!   before iterating (§VI).
//! * [`spmv`] — CSR SpMV and its transpose.
//!
//! ```
//! use ca_sparse::{gen, spmv, Ell, Hyb};
//!
//! let a = gen::laplace2d(16, 16);
//! let x = vec![1.0; a.nrows()];
//! let mut y1 = vec![0.0; a.nrows()];
//! let mut y2 = vec![0.0; a.nrows()];
//! spmv::spmv(&a, &x, &mut y1);                  // CSR
//! Ell::from_csr(&a).spmv(&x, &mut y2);          // ELLPACK
//! assert!(y1.iter().zip(&y2).all(|(a, b)| (a - b).abs() < 1e-12));
//!
//! // preprocessing: balancing and a k-way partition
//! let (balanced, _scales) = ca_sparse::balance::balance(&a);
//! let part = ca_sparse::partition::kway_partition(&balanced, 3, 4);
//! assert_eq!(part.sizes().iter().sum::<usize>(), a.nrows());
//! ```

// Numeric kernels index several parallel slices at once; iterator
// rewrites would obscure the stride arithmetic the cost model mirrors.
#![allow(clippy::needless_range_loop)]

pub mod balance;
pub mod coo;
pub mod csr;
pub mod ell;
pub mod gen;
pub mod graph;
pub mod hyb;
pub mod hypergraph;
pub mod io;
pub mod partition;
pub mod perm;
pub mod rcm;
pub mod spmv;

pub use coo::Coo;
pub use csr::Csr;
pub use ell::Ell;
pub use hyb::Hyb;

/// Errors surfaced by sparse-matrix construction and I/O.
#[derive(Debug)]
pub enum SparseError {
    /// An entry lies outside the declared dimensions.
    IndexOutOfBounds { row: usize, col: usize, nrows: usize, ncols: usize },
    /// Matrix Market parsing failure with a human-readable reason.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, nrows, ncols } => {
                write!(f, "entry ({row},{col}) outside {nrows}x{ncols} matrix")
            }
            SparseError::Parse(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}

/// Result alias for sparse routines.
pub type Result<T> = std::result::Result<T, SparseError>;
