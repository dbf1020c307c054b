//! Sparse matrix-vector products.
//!
//! [`spmv`] is the CSR kernel; it also stands in for the paper's
//! threaded-MKL CPU baseline (Fig. 3's "CPU" line), whose time comes from
//! the host side of the performance model, not from this loop.

use crate::Csr;
use ca_scalar::Scalar;

/// `y := A x` from CSR.
pub fn spmv<T: Scalar>(a: &Csr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols());
    assert_eq!(y.len(), a.nrows());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let mut s = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            s += v * x[c as usize];
        }
        y[i] = s;
    }
}

/// `y := A^T x` (sequential; used by tests and the KKT generator).
pub fn spmv_transpose<T: Scalar>(a: &Csr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows());
    assert_eq!(y.len(), a.ncols());
    y.iter_mut().for_each(|v| *v = T::ZERO);
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let xi = x[i];
        if xi != T::ZERO {
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        let mut c = Coo::new(3, 3);
        c.add(0, 0, 2.0);
        c.add(0, 2, 1.0);
        c.add(1, 1, -1.0);
        c.add(2, 0, 3.0);
        c.add(2, 2, 4.0);
        c.to_csr()
    }

    #[test]
    fn spmv_known_result() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        spmv(&a, &x, &mut y);
        assert_eq!(y, [5.0, -2.0, 15.0]);
    }

    #[test]
    fn transpose_spmv_matches_explicit_transpose() {
        let a = sample();
        let at = a.transpose();
        let x = [1.0, -1.0, 0.5];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        spmv_transpose(&a, &x, &mut y1);
        spmv(&at, &x, &mut y2);
        for i in 0..3 {
            assert!((y1[i] - y2[i]).abs() < 1e-14);
        }
    }
}
