//! Cyclic Jacobi eigensolver for small symmetric matrices, and the SVD of
//! symmetric positive-semidefinite Gram matrices built on top of it.
//!
//! SVQR (paper §V-D) factors the Gram matrix `B = U Sigma U^T` and then QRs
//! `Sigma^{1/2} U^T`. `B` is tiny (`(s+1) x (s+1)`, s ~ 10-30), so the
//! quadratically-convergent Jacobi sweep is both fast and — important for
//! the paper's error study — the most element-wise accurate method
//! available. The diagonal-scaling stabilization of Stathopoulos & Wu \[20\]
//! (scale `B` so its diagonal is 1 before the SVD) is provided as
//! [`sym_svd_scaled`].

use crate::Mat;

/// Eigendecomposition `B = V diag(vals) V^T` of a symmetric matrix using
/// cyclic Jacobi rotations. Returns `(vals, V)` with eigenvalues in
/// descending order and eigenvectors in the matching columns of `V`.
///
/// `max_sweeps` bounds the number of full cyclic sweeps; 30 is ample for
/// the matrix orders used here (convergence is quadratic).
pub fn sym_eig(b: &Mat, max_sweeps: usize) -> (Vec<f64>, Mat) {
    let n = b.ncols();
    assert_eq!(b.nrows(), n);
    let mut a = b.clone();
    // Symmetrize defensively: callers hand us Gram matrices that are
    // symmetric up to rounding.
    for j in 0..n {
        for i in 0..j {
            let s = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = s;
            a[(j, i)] = s;
        }
    }
    let mut v = Mat::identity(n);
    let tol = 1e-15 * a.fro_norm().max(f64::MIN_POSITIVE);

    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for j in 0..n {
            for i in 0..j {
                off = off.max(a[(i, j)].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation J(p, q, theta) on both sides of A.
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
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut vals: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    // Sort descending, permuting eigenvector columns along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| vals[y].total_cmp(&vals[x]));
    let sorted_vals: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    let mut sorted_v = Mat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        sorted_v.set_col(dst, v.col(src));
    }
    vals = sorted_vals;
    (vals, sorted_v)
}

/// Result of the Gram-matrix SVD used by SVQR.
#[derive(Debug, Clone)]
pub struct GramSvd {
    /// Singular values (eigenvalues of `B` clamped at zero), descending.
    pub sigma: Vec<f64>,
    /// Left/right singular vectors of the symmetric `B` (`U` in `B = U S U^T`).
    pub u: Mat,
}

/// SVD of a symmetric positive-semidefinite matrix: `B = U diag(sigma) U^T`.
/// Negative rounding-noise eigenvalues are clamped to zero.
pub fn sym_svd(b: &Mat) -> GramSvd {
    let (vals, u) = sym_eig(b, 60);
    let sigma = vals.into_iter().map(|v| v.max(0.0)).collect();
    GramSvd { sigma, u }
}

/// SVD of a Gram matrix with the diagonal-scaling stabilization: factor
/// `B = D C D` with `D = diag(sqrt(b_ii))`, take the SVD of the
/// correlation-like `C` (unit diagonal), and return factors of the original
/// `B` reconstructed through `D`. The paper observes (§V-D) that this
/// scaling resolves SVQR's element-wise error growth on graded Gram
/// matrices. Returns `(d, svd_of_C)`; the SVQR caller forms
/// `R := qr(Sigma_C^{1/2} U_C^T D)`.
pub fn sym_svd_scaled(b: &Mat) -> (Vec<f64>, GramSvd) {
    let n = b.ncols();
    let d: Vec<f64> = (0..n).map(|i| b[(i, i)].max(0.0).sqrt()).collect();
    let mut c = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let dij = d[i] * d[j];
            c[(i, j)] = if dij > 0.0 { b[(i, j)] / dij } else { 0.0 };
        }
    }
    (d, sym_svd(&c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_nn, gemm_tn};
    use ca_scalar::rng::SplitMix64;

    fn sym(n: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::new(seed);
        let raw = Mat::from_fn(n, n, |_, _| rng.in_range(-0.5, 0.5));
        let mut s = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s[(i, j)] = 0.5 * (raw[(i, j)] + raw[(j, i)]);
            }
        }
        s
    }

    fn reconstruct(vals: &[f64], v: &Mat) -> Mat {
        let n = vals.len();
        let mut vs = v.clone();
        for (j, &l) in vals.iter().enumerate() {
            crate::blas1::scal(l, vs.col_mut(j));
        }
        let vt = v.transpose();
        let mut out = Mat::zeros(n, n);
        gemm_nn(1.0, &vs, &vt, 0.0, &mut out);
        out
    }

    #[test]
    fn eig_reconstructs_symmetric() {
        let b = sym(7, 42);
        let (vals, v) = sym_eig(&b, 60);
        let rec = reconstruct(&vals, &v);
        for i in 0..7 {
            for j in 0..7 {
                assert!((rec[(i, j)] - b[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
        // descending order
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
    }

    #[test]
    fn eigvectors_orthonormal() {
        let b = sym(9, 7);
        let (_, v) = sym_eig(&b, 60);
        let mut g = Mat::zeros(9, 9);
        gemm_tn(1.0, &v, &v, 0.0, &mut g);
        for i in 0..9 {
            for j in 0..9 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut b = Mat::zeros(3, 3);
        b[(0, 0)] = 3.0;
        b[(1, 1)] = -1.0;
        b[(2, 2)] = 2.0;
        let (vals, _) = sym_eig(&b, 10);
        assert!((vals[0] - 3.0).abs() < 1e-14);
        assert!((vals[1] - 2.0).abs() < 1e-14);
        assert!((vals[2] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1
        let mut b = Mat::zeros(2, 2);
        b[(0, 0)] = 2.0;
        b[(0, 1)] = 1.0;
        b[(1, 0)] = 1.0;
        b[(1, 1)] = 2.0;
        let (vals, _) = sym_eig(&b, 10);
        assert!((vals[0] - 3.0).abs() < 1e-14);
        assert!((vals[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn svd_clamps_negatives() {
        let mut b = Mat::identity(2);
        b[(1, 1)] = -1e-17; // rounding-noise negative eigenvalue
        let svd = sym_svd(&b);
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn scaled_svd_unit_diagonal() {
        let a = Mat::from_fn(20, 4, |i, j| ((i + 2 * j) as f64).cos() * 10f64.powi(j as i32));
        let mut b = Mat::zeros(4, 4);
        gemm_tn(1.0, &a, &a, 0.0, &mut b);
        let (d, svd) = sym_svd_scaled(&b);
        // d recovers the diagonal scale
        for (i, &di) in d.iter().enumerate() {
            assert!((di * di - b[(i, i)]).abs() < 1e-9 * b[(i, i)]);
        }
        // the scaled matrix's eigenvalues sum to n (trace of unit-diagonal C)
        let trace: f64 = svd.sigma.iter().sum();
        assert!((trace - 4.0).abs() < 1e-10);
    }
}
