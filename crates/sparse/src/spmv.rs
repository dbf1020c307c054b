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
        let at = sample().transpose();
        let mut y = [0.0; 3];
        spmv(&at, &[1.0, -1.0, 0.5], &mut y);
        assert_eq!(y, [3.5, 1.0, 3.0]);
    }
}
