//! Error norms used by the paper's Figure 13 TSQR study.
//!
//! Three quantities are reported there for each orthogonalization procedure:
//! the orthogonality error `||I - Q^T Q||`, the relative factorization
//! error `||QR - V|| / ||V||`, and the element-wise error
//! `||(V - QR) ./ V||` (entry-wise quotient, see Fig. 13 caption).

use crate::blas3::{gemm_nn, gemm_tn};
use crate::Mat;

/// Orthogonality error `||I - Q^T Q||_F`.
pub fn orthogonality_error(q: &Mat) -> f64 {
    let k = q.ncols();
    let mut g = Mat::zeros(k, k);
    gemm_tn(1.0, q, q, 0.0, &mut g);
    for i in 0..k {
        g[(i, i)] -= 1.0;
    }
    g.fro_norm()
}

/// Relative factorization error `||V - Q R||_F / ||V||_F`.
pub fn factorization_error(v: &Mat, q: &Mat, r: &Mat) -> f64 {
    let mut qr = Mat::zeros(v.nrows(), v.ncols());
    gemm_nn(1.0, q, r, 0.0, &mut qr);
    qr.axpy(-1.0, v);
    let denom = v.fro_norm();
    if denom == 0.0 {
        qr.fro_norm()
    } else {
        qr.fro_norm() / denom
    }
}

/// Element-wise factorization error `max_ij |(v_ij - (QR)_ij) / v_ij|`,
/// skipping exactly-zero entries of `V` (the paper's `||(A - QR)./A||`).
pub fn elementwise_error(v: &Mat, q: &Mat, r: &Mat) -> f64 {
    let mut qr = Mat::zeros(v.nrows(), v.ncols());
    gemm_nn(1.0, q, r, 0.0, &mut qr);
    let mut worst = 0.0f64;
    for j in 0..v.ncols() {
        for i in 0..v.nrows() {
            let vij = v[(i, j)];
            if vij != 0.0 {
                worst = worst.max(((vij - qr[(i, j)]) / vij).abs());
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::householder_qr;

    #[test]
    fn identity_has_zero_orth_error() {
        assert_eq!(orthogonality_error(&Mat::identity(5)), 0.0);
    }

    #[test]
    fn scaled_identity_has_known_error() {
        let mut q = Mat::identity(3);
        q.scale(2.0); // Q^T Q = 4I, I - Q^T Q = -3I, frob = 3*sqrt(3)
        assert!((orthogonality_error(&q) - 3.0 * 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exact_qr_has_tiny_errors() {
        let v = Mat::from_fn(30, 4, |i, j| ((i * 3 + j) as f64).sin());
        let f = householder_qr(&v);
        assert!(factorization_error(&v, &f.q, &f.r) < 1e-14);
        assert!(orthogonality_error(&f.q) < 1e-13);
        assert!(elementwise_error(&v, &f.q, &f.r) < 1e-9);
    }

    #[test]
    fn factorization_error_detects_mismatch() {
        let v = Mat::identity(3);
        let q = Mat::identity(3);
        let mut r = Mat::identity(3);
        r[(0, 0)] = 2.0; // QR = diag(2,1,1) != I
        assert!(factorization_error(&v, &q, &r) > 0.3);
    }

    #[test]
    fn elementwise_skips_zeros() {
        let mut v = Mat::zeros(2, 1);
        v[(0, 0)] = 1.0; // v[(1,0)] stays 0 and must be skipped
        let q = Mat::from_fn(2, 1, |i, _| if i == 0 { 1.0 } else { 0.5 });
        let r = Mat::identity(1);
        let e = elementwise_error(&v, &q, &r);
        assert!(e.is_finite());
        assert!(e.abs() < 1e-12); // only the (0,0) entry is compared
    }
}
