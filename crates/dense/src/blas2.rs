//! BLAS level-2: matrix-vector operations.
//!
//! `gemv_t` on a tall-skinny matrix is the workhorse of the paper's CGS
//! orthogonalization (`xGEMV` in Fig. 10); `gemv_n` applies the projection
//! update `v -= V r`.

use crate::mat::Cols;
use crate::Mat;
use ca_scalar::Scalar;

/// `y := alpha * A x + beta * y` (no transpose). `A` is `m x n`, `x` has
/// length `n`, `y` has length `m`.
pub fn gemv_n<T: Scalar>(alpha: T, a: &Mat<T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.ncols(), x.len());
    assert_eq!(a.nrows(), y.len());
    if beta == T::ZERO {
        y.iter_mut().for_each(|v| *v = T::ZERO);
    } else if beta != T::ONE {
        y.iter_mut().for_each(|v| *v *= beta);
    }
    // column-major: stream each column once, rank-1 update of y.
    for j in 0..a.ncols() {
        let axj = alpha * x[j];
        if axj != T::ZERO {
            let col = a.col(j);
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += axj * aij;
            }
        }
    }
}

/// `y := alpha * A^T x + beta * y`. `A` is `m x n`, `x` has length `m`,
/// `y` has length `n`. Each output entry is a dot product with a column —
/// this is exactly the "one thread block per column" decomposition the paper
/// uses for its optimized tall-skinny MAGMA DGEMV (§V-F); four columns
/// share each load of `x` ([`tile::dots_tn`](crate::tile::dots_tn)).
pub fn gemv_t<T: Scalar>(alpha: T, a: &Mat<T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.nrows(), x.len());
    assert_eq!(a.ncols(), y.len());
    crate::tile::dots_tn(a.cols(0, a.ncols()), Cols::single(x), false, |j, _, d| {
        y[j] = alpha * d + if beta == T::ZERO { T::ZERO } else { beta * y[j] };
    });
}

/// Triangular solve `x := R^{-1} x` with `R` upper triangular (`n x n`),
/// i.e. back substitution. Returns the index of a zero diagonal on failure.
pub fn trsv_upper<T: Scalar>(r: &Mat<T>, x: &mut [T]) -> crate::Result<()> {
    let n = r.ncols();
    assert_eq!(r.nrows(), n);
    assert_eq!(x.len(), n);
    for i in (0..n).rev() {
        let d = r[(i, i)];
        if d == T::ZERO {
            return Err(crate::DenseError::SingularTriangular { index: i });
        }
        let mut s = x[i];
        for j in i + 1..n {
            s -= r[(i, j)] * x[j];
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Triangular solve `x := L^{-1} x` with `L` lower triangular, forward
/// substitution.
pub fn trsv_lower<T: Scalar>(l: &Mat<T>, x: &mut [T]) -> crate::Result<()> {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(x.len(), n);
    for i in 0..n {
        let d = l[(i, i)];
        if d == T::ZERO {
            return Err(crate::DenseError::SingularTriangular { index: i });
        }
        let mut s = x[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        x[i] = s / d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mat() -> Mat {
        Mat::from_fn(4, 3, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0) + 0.25 * i as f64)
    }

    #[test]
    fn gemv_n_matches_naive() {
        let a = sample_mat();
        let x = [1.0, -2.0, 0.5];
        let mut y = [1.0; 4];
        gemv_n(2.0, &a, &x, 3.0, &mut y);
        for i in 0..4 {
            let naive: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((y[i] - (2.0 * naive + 3.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_t_matches_naive() {
        let a = sample_mat();
        let x = [1.0, 0.0, -1.0, 2.0];
        let mut y = [0.0; 3];
        gemv_t(1.0, &a, &x, 0.0, &mut y);
        for j in 0..3 {
            let naive: f64 = (0..4).map(|i| a[(i, j)] * x[i]).sum();
            assert!((y[j] - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_beta_zero_ignores_garbage() {
        let a = Mat::identity(2);
        let mut y = [f64::NAN, f64::NAN];
        gemv_n(1.0, &a, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn trsv_upper_solves() {
        // R = [2 1; 0 4], b = [4, 8] -> x = [1, 2]
        let mut r = Mat::zeros(2, 2);
        r[(0, 0)] = 2.0;
        r[(0, 1)] = 1.0;
        r[(1, 1)] = 4.0;
        let mut x = [4.0, 8.0];
        trsv_upper(&r, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn trsv_reports_singularity() {
        let r = Mat::zeros(2, 2);
        let mut x = [1.0, 1.0];
        assert!(matches!(
            trsv_upper(&r, &mut x),
            Err(crate::DenseError::SingularTriangular { .. })
        ));
    }

    #[test]
    fn trsv_lower_solves() {
        let mut l = Mat::zeros(2, 2);
        l[(0, 0)] = 2.0;
        l[(1, 0)] = 1.0;
        l[(1, 1)] = 4.0;
        let mut x = [2.0, 9.0];
        trsv_lower(&l, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }
}
