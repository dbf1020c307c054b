//! Householder QR factorization (LAPACK `xGEQRF`/`xORGQR` equivalents).
//!
//! CAQR (paper §V-E) computes a local Householder QR of each device's block
//! and a second QR of the stacked R-factors on the CPU ([`tsqr_root`]); SVQR
//! needs the QR of the small matrix `Sigma^{1/2} U^T`. All are served by
//! [`householder_qr`].
//! Like the paper's implementation, we explicitly form the thin `Q`
//! (`xORGQR`), which doubles the flops but keeps the downstream interfaces
//! simple (the paper notes the same trade-off in §V-E footnote 6).

use crate::Mat;

/// Result of a thin QR factorization: `A = Q R` with `Q` (`m x k`) having
/// orthonormal columns and `R` (`k x k`) upper triangular, `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Orthonormal factor, `m x min(m, n)`.
    pub q: Mat,
    /// Upper-triangular factor, `min(m, n) x n`.
    pub r: Mat,
}

/// Householder thin QR of `a` (`m x n`, `m >= n` typical but not required).
///
/// Deterministic, BLAS-1/2 bound — which is exactly why the paper finds
/// CAQR slower than the BLAS-3 CholQR on GPUs (Fig. 11c).
pub fn householder_qr(a: &Mat) -> QrFactors {
    let mut work = a.clone();
    let taus: Vec<f64> = (0..a.nrows().min(a.ncols())).map(|j| reflect(&mut work, j)).collect();
    thin_factors(&work, &taus)
}

/// One reduction of a TSQR tree (CAQR's root step, §V-E), over devices or
/// over one device's panels: QR the stack of the parts' `k`-column R
/// factors and cut its Q into one `k x k` block per part. A short R (a part
/// with fewer rows than columns) is zero-padded, and the block rows of its
/// padding — zero in exact arithmetic — are returned as zero, so a part
/// may apply its block whole. Returns the root R and the blocks.
pub fn tsqr_root(rs: &[Mat]) -> (Mat, Vec<Mat>) {
    let k = rs[0].ncols();
    let mut stacked = Mat::zeros(rs.len() * k, k);
    for (p, r) in rs.iter().enumerate() {
        assert!(r.nrows() <= k && r.ncols() == k, "a {}x{} R factor", r.nrows(), r.ncols());
        for j in 0..k {
            stacked.col_mut(j)[p * k..p * k + r.nrows()].copy_from_slice(r.col(j));
        }
    }
    let root = householder_qr(&stacked);
    let block = |(p, r): (usize, &Mat)| {
        Mat::from_fn(k, k, |i, j| if i < r.nrows() { root.q[(p * k + i, j)] } else { 0.0 })
    };
    (root.r, rs.iter().enumerate().map(block).collect())
}

/// Step `j` of a Householder QR in place: build the reflector of
/// `work[j.., j]`, storing `v`'s tail below the diagonal (`v_j` has an
/// implicit 1 at position `j`) and `beta` on it, apply `I - tau v v^T` to
/// the trailing columns, and return `tau`.
fn reflect(work: &mut Mat, j: usize) -> f64 {
    let (x0, xnorm) = {
        let col = &work.col(j)[j..];
        (col[0], crate::blas1::nrm2(&col[1..]))
    };
    if xnorm == 0.0 {
        return 0.0;
    }
    let beta = -(x0.signum()) * (x0 * x0 + xnorm * xnorm).sqrt();
    let tau = (beta - x0) / beta;
    // scale the tail so v = [1; tail]
    crate::blas1::scal(1.0 / (x0 - beta), &mut work.col_mut(j)[j + 1..]);
    for c in j + 1..work.ncols() {
        let (v, wc) = work.two_cols_mut(j, c);
        // w = v^T work[j.., c]
        let w = wc[j] + crate::blas1::dot(&v[j + 1..], &wc[j + 1..]);
        let tw = tau * w;
        wc[j] -= tw;
        crate::blas1::axpy(-tw, &v[j + 1..], &mut wc[j + 1..]);
    }
    work[(j, j)] = beta;
    tau
}

/// `(Q, R)` from the reflectors [`reflect`] left in `work`: R is the upper
/// triangle, the thin Q applies the reflectors to the `k` leading identity
/// columns back to front (`xORGQR`), and R's diagonal is made non-negative
/// (flipping Q's columns to match) — a unique factorization, convenient
/// for tests and for comparing TSQR variants.
fn thin_factors(work: &Mat, taus: &[f64]) -> QrFactors {
    let (m, n, k) = (work.nrows(), work.ncols(), taus.len());
    let mut r = Mat::zeros(k, n);
    for j in 0..n {
        for i in 0..k.min(j + 1) {
            r[(i, j)] = work[(i, j)];
        }
    }
    let mut q = Mat::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for j in (0..k).rev() {
        let tau = taus[j];
        if tau == 0.0 {
            continue;
        }
        let mut v = vec![0.0; m - j];
        v[0] = 1.0;
        v[1..].copy_from_slice(&work.col(j)[j + 1..]);
        for c in 0..k {
            let qc = &mut q.col_mut(c)[j..];
            let tw = tau * crate::blas1::dot(&v, qc);
            crate::blas1::axpy(-tw, &v, qc);
        }
    }
    for j in 0..k {
        if r[(j, j)] < 0.0 {
            for c in j..n {
                r[(j, c)] = -r[(j, c)];
            }
            crate::blas1::scal(-1.0, q.col_mut(j));
        }
    }
    QrFactors { q, r }
}

/// Result of a column-pivoted (rank-revealing) QR: `A P = Q R` with `P`
/// the column permutation `perm` (`perm[j]` = original index of the j-th
/// factored column) and `R`'s diagonal non-increasing in magnitude.
#[derive(Debug, Clone)]
pub struct QrcpFactors {
    /// Orthonormal factor, `m x k`.
    pub q: Mat,
    /// Upper-triangular factor with |diag| non-increasing, `k x n`.
    pub r: Mat,
    /// Column permutation: factored column `j` is original column
    /// `perm[j]`.
    pub perm: Vec<usize>,
}

impl QrcpFactors {
    /// Numerical rank: the number of diagonal entries of `R` above
    /// `tol * |r_00|`.
    pub fn rank(&self, tol: f64) -> usize {
        let k = self.r.nrows().min(self.r.ncols());
        if k == 0 {
            return 0;
        }
        let r00 = self.r[(0, 0)].abs();
        if r00 == 0.0 {
            return 0;
        }
        (0..k).take_while(|&j| self.r[(j, j)].abs() > tol * r00).count()
    }
}

/// Householder QR with column pivoting (LAPACK `xGEQP3`-style, classic
/// Businger–Golub column-norm pivoting) — the rank-revealing
/// factorization the paper lists as future work for the orthogonalization
/// strategies (\[10\]). At each step the remaining column of largest
/// residual norm is swapped to the front; partial column norms are
/// downdated and refreshed when cancellation is detected.
pub fn householder_qrcp(a: &Mat) -> QrcpFactors {
    let n = a.ncols();
    let mut work = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();

    // residual column norms (squared) with downdating
    let mut colnorm: Vec<f64> = (0..n).map(|j| crate::blas1::dot(a.col(j), a.col(j))).collect();
    let orig_norm = colnorm.clone();
    let k = a.nrows().min(n);
    let mut taus = vec![0.0f64; k];

    for j in 0..k {
        // pivot: remaining column with the largest residual norm
        let (pvt, _) = colnorm[j..]
            .iter()
            .enumerate()
            .fold((0usize, f64::MIN), |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) });
        let pvt = j + pvt;
        if pvt != j {
            let (cj, cp) = work.two_cols_mut(j, pvt);
            cj.swap_with_slice(cp);
            perm.swap(j, pvt);
            colnorm.swap(j, pvt);
        }
        taus[j] = reflect(&mut work, j);

        // downdate residual norms; refresh on cancellation (Businger-Golub)
        for c in j + 1..n {
            let rjc = work[(j, c)];
            colnorm[c] -= rjc * rjc;
            if colnorm[c] < 1e-12 * orig_norm[c].max(f64::MIN_POSITIVE) {
                let tail = &work.col(c)[j + 1..];
                colnorm[c] = crate::blas1::dot(tail, tail);
            }
        }
    }
    let QrFactors { q, r } = thin_factors(&work, &taus);
    QrcpFactors { q, r, perm }
}

/// Dense inverse of a small square matrix via Householder QR
/// (`A^{-1} = R^{-1} Q^T`). Returns an error on numerical singularity.
/// Used by the block-Jacobi preconditioner's diagonal-block inversion.
pub fn invert_via_qr(a: &Mat) -> crate::Result<Mat> {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "inverse needs a square matrix");
    let f = householder_qr(a);
    let mut inv = Mat::zeros(n, n);
    let qt = f.q.transpose();
    for j in 0..n {
        let mut x = qt.col_to_vec(j).to_vec();
        // x currently holds row j of Q^T? careful: col j of Q^T = row j of Q.
        // We want column j of A^{-1} = R^{-1} (Q^T e_j) = R^{-1} * (Q^T)[:, j]
        // (Q^T)[:, j] is the j-th column of Q^T = j-th row of Q.
        crate::blas2::trsv_upper(&f.r, &mut x)?;
        inv.set_col(j, &x);
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_nn, gemm_tn};
    use crate::norms::orthogonality_error;

    fn tall(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn check_qr(a: &Mat) {
        let QrFactors { q, r } = householder_qr(a);
        // Q orthonormal
        assert!(orthogonality_error(&q) < 1e-13, "orth err {}", orthogonality_error(&q));
        // QR = A
        let mut qr = Mat::zeros(a.nrows(), a.ncols());
        gemm_nn(1.0, &q, &r, 0.0, &mut qr);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-12 * a.max_abs().max(1.0));
            }
        }
        // R upper triangular with non-negative diagonal
        for j in 0..r.ncols() {
            for i in j + 1..r.nrows() {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        for d in 0..r.nrows().min(r.ncols()) {
            assert!(r[(d, d)] >= 0.0);
        }
    }

    #[test]
    fn qr_tall_random() {
        check_qr(&tall(40, 7, 1));
        check_qr(&tall(100, 12, 2));
    }

    #[test]
    fn qr_square() {
        check_qr(&tall(8, 8, 3));
    }

    #[test]
    fn qr_single_column() {
        let a = tall(20, 1, 4);
        let f = householder_qr(&a);
        let norm = crate::blas1::nrm2(a.col(0));
        assert!((f.r[(0, 0)] - norm).abs() < 1e-13);
    }

    #[test]
    fn qr_of_orthogonal_is_identity_r() {
        let a = tall(30, 5, 5);
        let f1 = householder_qr(&a);
        let f2 = householder_qr(&f1.q);
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((f2.r[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_rank_deficient_column() {
        // second column is 2x the first: R[1,1] ~ 0, factorization still valid
        let mut a = tall(15, 2, 6);
        let c0 = a.col_to_vec(0);
        for (i, v) in c0.iter().enumerate() {
            a[(i, 1)] = 2.0 * v;
        }
        let QrFactors { q, r } = householder_qr(&a);
        assert!(r[(1, 1)].abs() < 1e-12);
        let mut qr = Mat::zeros(15, 2);
        gemm_nn(1.0, &q, &r, 0.0, &mut qr);
        for i in 0..15 {
            for j in 0..2 {
                assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invert_via_qr_roundtrip() {
        let a = Mat::from_fn(5, 5, |i, j| {
            if i == j {
                4.0 + i as f64
            } else {
                ((i * 3 + j * 7) % 5) as f64 * 0.3
            }
        });
        let inv = invert_via_qr(&a).unwrap();
        let mut prod = Mat::zeros(5, 5);
        gemm_nn(1.0, &a, &inv, 0.0, &mut prod);
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-11, "({i},{j}) = {}", prod[(i, j)]);
            }
        }
    }

    #[test]
    fn invert_singular_fails() {
        let a = Mat::zeros(3, 3);
        assert!(invert_via_qr(&a).is_err());
    }

    #[test]
    fn qrcp_reconstructs_with_permutation() {
        let a = tall(40, 6, 17);
        let f = householder_qrcp(&a);
        assert!(orthogonality_error(&f.q) < 1e-12);
        // A[:, perm[j]] == (Q R)[:, j]
        let mut qr = Mat::zeros(40, 6);
        gemm_nn(1.0, &f.q, &f.r, 0.0, &mut qr);
        for j in 0..6 {
            for i in 0..40 {
                assert!((qr[(i, j)] - a[(i, f.perm[j])]).abs() < 1e-11);
            }
        }
        // diagonal magnitudes non-increasing
        for j in 1..6 {
            assert!(f.r[(j, j)].abs() <= f.r[(j - 1, j - 1)].abs() + 1e-10);
        }
        assert_eq!(f.rank(1e-10), 6);
    }

    #[test]
    fn qrcp_reveals_rank_deficiency() {
        // 3 independent columns + 2 linear combinations: rank 3
        let base = tall(30, 3, 5);
        let mut a = Mat::zeros(30, 5);
        for j in 0..3 {
            a.set_col(j, base.col(j));
        }
        for i in 0..30 {
            a[(i, 3)] = base[(i, 0)] + 2.0 * base[(i, 1)];
            a[(i, 4)] = base[(i, 2)] - base[(i, 0)];
        }
        let f = householder_qrcp(&a);
        assert_eq!(f.rank(1e-10), 3, "diag: {:?}", (0..5).map(|j| f.r[(j, j)]).collect::<Vec<_>>());
    }

    #[test]
    fn qrcp_pivots_large_column_first() {
        let mut a = tall(20, 3, 9);
        crate::blas1::scal(100.0, a.col_mut(2));
        let f = householder_qrcp(&a);
        assert_eq!(f.perm[0], 2, "largest column must be pivoted first");
    }

    #[test]
    fn qr_without_rows_is_empty_and_wide_qr_reconstructs() {
        let f = householder_qr(&Mat::zeros(0, 3));
        assert_eq!((f.q.nrows(), f.q.ncols()), (0, 0));
        assert_eq!((f.r.nrows(), f.r.ncols()), (0, 3));
        check_qr(&tall(3, 7, 4));
        check_qr(&tall(1, 5, 5));
    }

    /// Parts of 25, 2 and 0 rows under a 4-column tree: each part's
    /// `Q_local · block` stacks to the Q of the whole, and the block rows
    /// of a short R's padding are zero.
    #[test]
    fn tsqr_root_pads_short_parts() {
        let parts = [tall(25, 4, 11), tall(2, 4, 12), Mat::zeros(0, 4)];
        let local: Vec<QrFactors> = parts.iter().map(householder_qr).collect();
        let rs: Vec<Mat> = local.iter().map(|f| f.r.clone()).collect();
        let (r, blocks) = tsqr_root(&rs);
        let padding = (0..4).flat_map(|j| &blocks[1].col(j)[2..]);
        assert!(padding.chain(blocks[2].as_slice()).all(|&x| x == 0.0));
        let mut q = Mat::zeros(27, 4);
        let mut a = Mat::zeros(27, 4);
        let mut row = 0;
        for ((f, block), part) in local.iter().zip(&blocks).zip(&parts) {
            let rows = part.nrows();
            let mut qd = Mat::zeros(rows, 4);
            gemm_nn(1.0, &f.q, &block.top_left(f.q.ncols(), 4), 0.0, &mut qd);
            for j in 0..4 {
                q.col_mut(j)[row..row + rows].copy_from_slice(qd.col(j));
                a.col_mut(j)[row..row + rows].copy_from_slice(part.col(j));
            }
            row += rows;
        }
        assert!(orthogonality_error(&q) < 1e-13, "orth err {}", orthogonality_error(&q));
        let mut qr = Mat::zeros(27, 4);
        gemm_nn(1.0, &q, &r, 0.0, &mut qr);
        qr.axpy(-1.0, &a);
        assert!(qr.max_abs() < 1e-12, "residual {}", qr.max_abs());
    }

    #[test]
    fn stacked_r_qr_matches_direct_gram() {
        // CAQR identity check: QR of [R1; R2] where Ri are local R-factors
        // gives the same R (up to sign, fixed by our convention) as QR of
        // the stacked matrix.
        let a1 = tall(25, 4, 7);
        let a2 = tall(31, 4, 8);
        let mut stacked = Mat::zeros(56, 4);
        for j in 0..4 {
            stacked.col_mut(j)[..25].copy_from_slice(a1.col(j));
            stacked.col_mut(j)[25..].copy_from_slice(a2.col(j));
        }
        let r_direct = householder_qr(&stacked).r;

        let f1 = householder_qr(&a1);
        let f2 = householder_qr(&a2);
        let mut rr = Mat::zeros(8, 4);
        for j in 0..4 {
            rr.col_mut(j)[..4].copy_from_slice(f1.r.col(j));
            rr.col_mut(j)[4..].copy_from_slice(f2.r.col(j));
        }
        let r_tree = householder_qr(&rr).r;
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (r_direct[(i, j)] - r_tree[(i, j)]).abs() < 1e-11,
                    "mismatch at ({i},{j}): {} vs {}",
                    r_direct[(i, j)],
                    r_tree[(i, j)]
                );
            }
        }
        // silence unused warning for gemm_tn import in this test module
        let mut g = Mat::zeros(4, 4);
        gemm_tn(1.0, &a1, &a1, 0.0, &mut g);
    }
}
