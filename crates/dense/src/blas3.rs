//! BLAS level-3: matrix-matrix operations.
//!
//! `syrk_tn`/`gemm_tn` on tall-skinny operands form the Gram matrix in
//! CholQR/SVQR (`xGEMM` in Fig. 10); `trsm_right_upper` applies `R^{-1}`
//! to the basis block; `update_cols` is BOrth's block update. The
//! panelled product ([`gemm_tn_rows`] with `Some(h)`) mirrors the paper's
//! batched-DGEMM optimization (§V-F): the tall matrix is cut into
//! `h`-row panels, each panel's small product is formed on its own, and
//! the partial results are summed in panel order — numerically distinct
//! from the flat product, as on the GPU, and the structure the GPU
//! simulator's cost model prices.
//!
//! Every routine here is a thin driver over the micro-kernels of
//! [`tile`](crate::tile) and keeps, per output scalar, the operation
//! sequence of the `blas1::dot` / `blas1::axpy` loops it replaced (see
//! DESIGN.md, "Host kernels and the summation-order contract").
//! `update_cols` works in place on column ranges of one matrix; it and the
//! `*_rows` routines, which take the same rows of several columns, are what
//! the simulated device's kernels delegate to.

use crate::mat::Cols;
use crate::tile::{
    dots_tn, dots_tn_with, fused_axpy, fused_axpy_pair_with, fused_axpy_with, Isa, UPDATE_ROWS,
};
use crate::Mat;
use ca_scalar::Scalar;

/// `alpha * d + beta * c`, never reading `c` when `beta` is zero.
#[inline]
fn axpby<T: Scalar>(alpha: T, d: T, beta: T, c: T) -> T {
    alpha * d + if beta == T::ZERO { T::ZERO } else { beta * c }
}

/// Row chunks `(r0, r1)` of [`UPDATE_ROWS`] covering `0..rows`.
fn row_chunks(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows).step_by(UPDATE_ROWS).map(move |r0| (r0, (r0 + UPDATE_ROWS).min(rows)))
}

/// `C := alpha * A^T B + beta * C`, with `A` `m x k`, `B` `m x n`,
/// `C` `k x n`. This is the tall-skinny Gram-forming product.
pub fn gemm_tn<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(c.nrows(), a.ncols());
    assert_eq!(c.ncols(), b.ncols());
    dots_tn(a.cols(0, a.ncols()), b.cols(0, b.ncols()), false, |i, j, d| {
        c[(i, j)] = axpby(alpha, d, beta, c[(i, j)]);
    });
}

/// Rows `i0..i0 + ct.len() / b.ncols()` of `C := A^T B` on column views,
/// transposed: `ct[j + (i - i0) * b.ncols()]` receives `C(i, j)`, flat
/// (`panel_rows == None`: one full-length dot) or panelled (`Some(h)`: the
/// dots of the `h`-row panels added in panel order from zero; the panel
/// loop is outermost, so each panel is streamed from memory once). With
/// `upper` (`a` and `b` the same columns) only `j >= i` is written. Every output is computed whole by the one call
/// that writes it, so disjoint row blocks of one `C` may be computed on
/// different threads.
pub fn gemm_tn_rows<T: Scalar>(
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    i0: usize,
    panel_rows: Option<usize>,
    upper: bool,
    ct: &mut [T],
) {
    gemm_tn_rows_with(Isa::detect(), a, b, i0, panel_rows, upper, ct);
}

/// [`gemm_tn_rows`] on a given kernel instantiation.
pub(crate) fn gemm_tn_rows_with<T: Scalar>(
    isa: Isa,
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    i0: usize,
    panel_rows: Option<usize>,
    upper: bool,
    ct: &mut [T],
) {
    assert_eq!(a.nrows(), b.nrows());
    let kb = b.ncols();
    let i1 = i0 + ct.len().checked_div(kb).unwrap_or(0);
    // with `upper`, the columns before `i0` hold no wanted output, and
    // local indices then compare as global ones
    let j0 = if upper { i0 } else { 0 };
    let (a, b) = (a.cols(i0, i1), b.cols(j0, kb));
    match panel_rows {
        None => dots_tn_with(isa, a, b, upper, |i, j, d| ct[j0 + j + i * kb] = d),
        Some(h) => {
            assert!(h > 0);
            ct.fill(T::ZERO);
            let rows = a.nrows();
            for r0 in (0..rows).step_by(h) {
                let r1 = (r0 + h).min(rows);
                let (pa, pb) = (a.rows(r0, r1), b.rows(r0, r1));
                dots_tn_with(isa, pa, pb, upper, |i, j, d| ct[j0 + j + i * kb] += d);
            }
        }
    }
}

/// `C := alpha * A B + beta * C`, with `A` `m x k`, `B` `k x n`, `C` `m x n`.
pub fn gemm_nn<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    assert_eq!(a.ncols(), b.nrows());
    assert_eq!(c.nrows(), a.nrows());
    assert_eq!(c.ncols(), b.ncols());
    for (r0, r1) in row_chunks(a.nrows()) {
        for j in 0..b.ncols() {
            // c[r0..r1, j] = alpha * A[r0..r1, :] * b[:, j] + beta * c[r0..r1, j]
            let cj = &mut c.col_mut(j)[r0..r1];
            if beta == T::ZERO {
                cj.iter_mut().for_each(|v| *v = T::ZERO);
            } else if beta != T::ONE {
                cj.iter_mut().for_each(|v| *v *= beta);
            }
            fused_axpy(cj, (0..a.ncols()).map(|l| (alpha * b[(l, j)], &a.col(l)[r0..r1])));
        }
    }
}

/// Symmetric rank-k update `C := alpha * A^T A + beta * C` storing the full
/// (symmetric) matrix. `A` is `m x k`, `C` is `k x k`. Only the upper
/// triangle is computed; the lower triangle is mirrored.
pub fn syrk_tn<T: Scalar>(alpha: T, a: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let k = a.ncols();
    assert_eq!(c.nrows(), k);
    assert_eq!(c.ncols(), k);
    dots_tn(a.cols(0, k), a.cols(0, k), true, |i, j, d| {
        let v = axpby(alpha, d, beta, c[(i, j)]);
        c[(i, j)] = v;
        c[(j, i)] = v;
    });
}

/// In place in one matrix: `V[:, d] += sum_l factor(l - s0, d - d0) * V[:, l]`
/// for every destination `d` in `d0..d1` over the sources `l` in `s0..s1`
/// — the tall update `V_b -= V_a C` of BOrth and Gram-Schmidt with
/// `factor = -C`. Per destination the sources are applied in increasing
/// `l`, a zero factor skips its source, and a column is never its own
/// source (that term is skipped). Rows are processed in L1-sized chunks;
/// every operation is row-local, so this equals one `blas1::axpy` per
/// (destination, source) pair, destinations in increasing order. When no
/// source lies among the destinations, no destination depends on another
/// and they are updated two at a time, sharing each load of a source.
pub fn update_cols<T: Scalar>(
    v: &mut Mat<T>,
    src: (usize, usize),
    dst: (usize, usize),
    factor: impl Fn(usize, usize) -> T,
) {
    update_cols_with(Isa::detect(), v, src, dst, factor);
}

/// [`update_cols`] on a given kernel instantiation.
pub(crate) fn update_cols_with<T: Scalar>(
    isa: Isa,
    v: &mut Mat<T>,
    (s0, s1): (usize, usize),
    (d0, d1): (usize, usize),
    factor: impl Fn(usize, usize) -> T,
) {
    assert!(s0 <= s1 && s1 <= v.ncols());
    assert!(d0 <= d1 && d1 <= v.ncols());
    let (rows, ld) = (v.nrows(), v.ld());
    if s1 <= d0 || d1 <= s0 {
        let (left, dst, right) = v.split_cols_mut(d0, d1);
        // the sources lie wholly on one side of the destinations
        let src = if s1 <= d0 { left.cols(s0, s1) } else { right.cols(s0 - d1, s1 - d1) };
        for (r0, r1) in row_chunks(rows) {
            for (pair, cols) in dst.chunks_mut(2 * ld).enumerate() {
                let (c0, c1) = cols.split_at_mut(ld.min(cols.len()));
                let c1 = (!c1.is_empty()).then(|| &mut c1[r0..r1]);
                update_pair_with(isa, src.rows(r0, r1), 2 * pair, (&mut c0[r0..r1], c1), &factor);
            }
        }
        return;
    }
    for (r0, r1) in row_chunks(rows) {
        for d in d0..d1 {
            let (left, dst, right) = v.split_col_mut(d);
            let (left, right) = (left.rows(r0, r1), right.rows(r0, r1));
            let terms = (s0..s1).filter(|&l| l != d).map(|l| {
                let src = if l < d { left.col(l) } else { right.col(l - d - 1) };
                (factor(l - s0, d - d0), src)
            });
            fused_axpy_with(isa, &mut dst[r0..r1], terms);
        }
    }
}

/// [`update_cols`] when no source is a destination, on rows of the
/// columns: `dst[d] += sum_l factor(l, d) * src.col(l)` for every
/// destination `d`, the sources in increasing `l` and a zero factor
/// skipping its source; `src` and every `dst[d]` are the same rows of their
/// columns. Every operation is row-local, so disjoint row windows of one
/// update may run on different threads and give the bits of the whole.
pub fn update_rows<T: Scalar>(
    src: Cols<'_, T>,
    dst: &mut [&mut [T]],
    factor: impl Fn(usize, usize) -> T,
) {
    update_rows_with(Isa::detect(), src, dst, factor);
}

/// [`update_rows`] on a given kernel instantiation.
pub(crate) fn update_rows_with<T: Scalar>(
    isa: Isa,
    src: Cols<'_, T>,
    dst: &mut [&mut [T]],
    factor: impl Fn(usize, usize) -> T,
) {
    for (r0, r1) in row_chunks(src.nrows()) {
        for (pair, cols) in dst.chunks_mut(2).enumerate() {
            let (c0, c1) = cols.split_at_mut(1);
            let c1 = c1.first_mut().map(|c| &mut c[r0..r1]);
            update_pair_with(isa, src.rows(r0, r1), 2 * pair, (&mut c0[0][r0..r1], c1), &factor);
        }
    }
}

/// The disjoint update of destinations `d` and `d + 1` (when there is a
/// second) on one L1-sized chunk of rows: each source chunk is loaded once
/// and feeds both.
fn update_pair_with<T: Scalar>(
    isa: Isa,
    src: Cols<'_, T>,
    d: usize,
    (c0, c1): (&mut [T], Option<&mut [T]>),
    factor: &impl Fn(usize, usize) -> T,
) {
    let sources = (0..src.ncols()).map(|l| (l, src.col(l)));
    match c1 {
        None => fused_axpy_with(isa, c0, sources.map(|(l, s)| (factor(l, d), s))),
        Some(c1) => {
            let terms = sources.map(|(l, s)| (factor(l, d), factor(l, d + 1), s));
            fused_axpy_pair_with(isa, (c0, c1), terms);
        }
    }
}

/// Right triangular solve `B := B R^{-1}` in place, with `R` upper
/// triangular (`k x k`) and `B` tall (`m x k`) — the DTRSM that CholQR/SVQR
/// apply to orthonormalize the basis block. Column-oriented forward sweep,
/// row-chunked. On a zero pivot at column `j` the columns before `j` are
/// solved, column `j` has its updates but not its scaling, the rest are
/// untouched, and the error names `j`.
pub fn trsm_right_upper<T: Scalar>(b: &mut Mat<T>, r: &Mat<T>) -> crate::Result<()> {
    trsm_right_upper_with(Isa::detect(), b, r)
}

/// [`trsm_right_upper`] on a given kernel instantiation.
pub(crate) fn trsm_right_upper_with<T: Scalar>(
    isa: Isa,
    b: &mut Mat<T>,
    r: &Mat<T>,
) -> crate::Result<()> {
    let k = r.ncols();
    assert_eq!(b.ncols(), k);
    let (rows, ld) = (b.nrows(), b.ld());
    let (_, block, _) = b.split_cols_mut(0, k);
    let mut cols: Vec<&mut [T]> = block.chunks_mut(ld).map(|c| &mut c[..rows]).collect();
    trsm_rows_with(isa, &mut cols, r);
    trsm_pivots(r)
}

/// What [`trsm_right_upper`] reports for `R`: the first zero pivot.
pub fn trsm_pivots<T: Scalar>(r: &Mat<T>) -> crate::Result<()> {
    match (0..r.ncols()).find(|&j| r[(j, j)] == T::ZERO) {
        Some(index) => Err(crate::DenseError::SingularTriangular { index }),
        None => Ok(()),
    }
}

/// [`trsm_right_upper`] on rows of the block: `cols[j]` are the same
/// rows of its `k` columns; [`trsm_pivots`] tells what a zero pivot left
/// undone. Every operation is row-local, so disjoint row windows of one
/// solve may run on different threads and give the bits of the whole.
pub fn trsm_rows<T: Scalar>(cols: &mut [&mut [T]], r: &Mat<T>) {
    trsm_rows_with(Isa::detect(), cols, r);
}

/// [`trsm_rows`] on a given kernel instantiation.
pub(crate) fn trsm_rows_with<T: Scalar>(isa: Isa, cols: &mut [&mut [T]], r: &Mat<T>) {
    let k = r.ncols();
    assert_eq!(r.nrows(), k);
    assert_eq!(cols.len(), k);
    let singular = (0..k).find(|&j| r[(j, j)] == T::ZERO);
    let swept = singular.map_or(k, |j| j + 1);
    let rows = cols.first().map_or(0, |c| c.len());
    for (r0, r1) in row_chunks(rows) {
        for j in 0..swept {
            // v[:, j] = (v[:, j] - sum_{l<j} v[:, l] * r[l, j]) / r[j, j]
            let (left, rest) = cols.split_at_mut(j);
            let dst = &mut rest[0][r0..r1];
            fused_axpy_with(isa, dst, (0..j).map(|l| (-r[(l, j)], &left[l][r0..r1])));
            if singular != Some(j) {
                crate::blas1::scal(T::ONE / r[(j, j)], dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall(m: usize, k: usize) -> Mat {
        Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0 + 0.1 * j as f64)
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let a = tall(13, 3);
        let b = tall(13, 4);
        let mut c = Mat::zeros(3, 4);
        gemm_tn(1.0, &a, &b, 0.0, &mut c);
        for i in 0..3 {
            for j in 0..4 {
                let naive: f64 = (0..13).map(|l| a[(l, i)] * b[(l, j)]).sum();
                assert!((c[(i, j)] - naive).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let a = tall(5, 3);
        let b = tall(3, 4);
        let mut c = Mat::zeros(5, 4);
        gemm_nn(2.0, &a, &b, 0.0, &mut c);
        for i in 0..5 {
            for j in 0..4 {
                let naive: f64 = (0..3).map(|l| a[(i, l)] * b[(l, j)]).sum();
                assert!((c[(i, j)] - 2.0 * naive).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_beta_accumulates() {
        let a = Mat::identity(2);
        let b = Mat::identity(2);
        let mut c = Mat::from_fn(2, 2, |_, _| 1.0);
        gemm_nn(1.0, &a, &b, 2.0, &mut c);
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 2.0);
    }

    #[test]
    fn syrk_is_gram() {
        let a = tall(17, 4);
        let mut c = Mat::zeros(4, 4);
        syrk_tn(1.0, &a, 0.0, &mut c);
        let mut g = Mat::zeros(4, 4);
        gemm_tn(1.0, &a, &a, 0.0, &mut g);
        for i in 0..4 {
            for j in 0..4 {
                assert!((c[(i, j)] - g[(i, j)]).abs() < 1e-10);
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn trsm_inverts_r() {
        // Build B = Q R with known R; then B R^{-1} should equal Q.
        let q = tall(9, 3);
        let mut r = Mat::zeros(3, 3);
        r[(0, 0)] = 2.0;
        r[(0, 1)] = 1.0;
        r[(0, 2)] = -1.0;
        r[(1, 1)] = 3.0;
        r[(1, 2)] = 0.5;
        r[(2, 2)] = 1.5;
        let mut b = Mat::zeros(9, 3);
        gemm_nn(1.0, &q, &r, 0.0, &mut b);
        trsm_right_upper(&mut b, &r).unwrap();
        for i in 0..9 {
            for j in 0..3 {
                assert!((b[(i, j)] - q[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_singular_detected() {
        let r: Mat = Mat::zeros(2, 2);
        let mut b = Mat::zeros(4, 2);
        assert!(trsm_right_upper(&mut b, &r).is_err());
    }
}
