//! Hessenberg reconstruction for CA-GMRES (the small host-side algebra of
//! Fig. 2's "assemble H" step).
//!
//! After MPK generates a block `W` with `A W_{:,0:s} = W B` (B the
//! change-of-basis matrix from [`crate::newton::BasisSpec`]) and
//! BOrth+TSQR express `W = Q_prev C + Q_new R`, the new Hessenberg columns
//! follow from
//!
//! ```text
//!   A Q S = Q P,   S = G[:, 0:s],  P = G B,
//!   G = [ e_j | C ; 0 | R ]  (block 0: G = R_full)
//! ```
//!
//! splitting `S` into old/new rows, lifting the known `A Q_old = Q H_prev`,
//! and right-solving by the invertible upper-triangular top block of
//! `S_new`. All operations are on `(m+s) x s` host matrices — the same
//! O(m^2 s) CPU-side cost the paper folds into its least-squares step.

use ca_dense::{blas3, Mat};

/// Running Arnoldi state for one restart cycle: the Hessenberg columns
/// reconstructed so far (column `i` holds the `i + 2` leading entries of
/// `H e_i`).
#[derive(Debug, Clone, Default)]
pub struct BlockArnoldi {
    cols: Vec<Vec<f64>>,
}

impl BlockArnoldi {
    /// Fresh state (start of a restart cycle).
    pub fn new() -> Self {
        Self { cols: Vec::new() }
    }

    /// Number of Hessenberg columns so far (= Krylov dimension built).
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// The reconstructed columns (column `i` has `i + 2` entries).
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Dense `(k+1) x k` Hessenberg matrix snapshot.
    pub fn to_mat(&self) -> Mat {
        let k = self.cols.len();
        let mut h = Mat::zeros(k + 1, k);
        for (j, col) in self.cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                h[(i, j)] = v;
            }
        }
        h
    }

    /// Append a column obtained directly from standard Arnoldi
    /// (used when the first restart cycle runs plain GMRES).
    pub fn push_arnoldi_column(&mut self, col: Vec<f64>) {
        assert_eq!(col.len(), self.cols.len() + 2);
        self.cols.push(col);
    }

    /// Extend with one CA block and return the `s` new Hessenberg columns.
    ///
    /// * `c` — BOrth coefficients, `(j+1) x s` where `j + 1` is the number
    ///   of orthonormal vectors before the block. For the *first* block
    ///   pass an empty `0 x 0` matrix.
    /// * `r` — TSQR factor: `s x s` for continuation blocks,
    ///   `(s+1) x (s+1)` for the first block (which orthonormalizes the
    ///   start vector too).
    /// * `bmat` — change-of-basis `B`, `(s+1) x s`.
    pub fn extend_block(&mut self, c: &Mat, r: &Mat, bmat: &Mat) -> Vec<Vec<f64>> {
        let s = bmat.ncols();
        assert_eq!(bmat.nrows(), s + 1);
        let first = c.nrows() == 0 && c.ncols() == 0;
        let nprev = if first { 0 } else { c.nrows() }; // j + 1
        let jglob = self.cols.len();
        if first {
            assert_eq!(r.nrows(), s + 1, "first block: R must cover s+1 columns");
            assert_eq!(jglob, 0, "first block must start an empty cycle");
        } else {
            assert_eq!(r.nrows(), s, "continuation block: R is s x s");
            assert_eq!(c.ncols(), s);
            assert_eq!(nprev, jglob + 1, "BOrth C must cover all previous vectors");
        }

        let nq_new = if first { s + 1 } else { nprev + s };
        // Build G ((nq_new) x (s+1)).
        let mut g = Mat::zeros(nq_new, s + 1);
        if first {
            for jj in 0..s + 1 {
                for ii in 0..=jj {
                    g[(ii, jj)] = r[(ii, jj)];
                }
            }
        } else {
            let j = nprev - 1;
            g[(j, 0)] = 1.0; // w_0 = q_j
            for l in 0..s {
                for i in 0..nprev {
                    g[(i, l + 1)] = c[(i, l)];
                }
                for i in 0..s {
                    g[(nprev + i, l + 1)] = r[(i, l)];
                }
            }
        }

        // P = G B.
        let mut p = Mat::zeros(nq_new, s);
        blas3::gemm_nn(1.0, &g, bmat, 0.0, &mut p);

        // Subtract the lifted known part A Q_old S_old = Q H_prev S_old.
        let row0_new = if first { 0 } else { nprev - 1 };
        if row0_new > 0 {
            let j = row0_new; // number of "old" rows
            let s_old = Mat::from_fn(j, s, |i, l| g[(i, l)]);
            let mut lift = Mat::zeros(j + 1, s);
            blas3::gemm_nn(1.0, &self.to_mat(), &s_old, 0.0, &mut lift);
            for l in 0..s {
                for i in 0..j + 1 {
                    p[(i, l)] -= lift[(i, l)];
                }
            }
        }

        // S_new's invertible top block.
        let stilde = Mat::from_fn(s, s, |i, l| g[(row0_new + i, l)]);
        blas3::trsm_right_upper(&mut p, &stilde)
            .expect("TSQR returned a singular R; callers must catch OrthError earlier");

        // Columns of P are the new Hessenberg columns; truncate below the
        // structural subdiagonal (exact zeros up to rounding).
        let mut out = Vec::with_capacity(s);
        for l in 0..s {
            let len = jglob + l + 2;
            let mut col = vec![0.0; len];
            for (i, cv) in col.iter_mut().enumerate().take(len.min(nq_new)) {
                *cv = p[(i, l)];
            }
            self.cols.push(col.clone());
            out.push(col);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newton::BasisSpec;
    use ca_dense::qr::householder_qr;

    /// Dense reference Arnoldi: returns (Q, H) for `steps` iterations.
    fn arnoldi_dense(a: &Mat, v0: &[f64], steps: usize) -> (Mat, Mat) {
        let n = v0.len();
        let mut q = Mat::zeros(n, steps + 1);
        let beta = ca_dense::blas1::nrm2(v0);
        for (i, &v) in v0.iter().enumerate() {
            q[(i, 0)] = v / beta;
        }
        let mut h = Mat::zeros(steps + 1, steps);
        for j in 0..steps {
            let mut w = vec![0.0; n];
            ca_dense::blas2::gemv_n(1.0, a, q.col(j), 0.0, &mut w);
            for i in 0..=j {
                let hij = ca_dense::blas1::dot(q.col(i), &w);
                h[(i, j)] = hij;
                ca_dense::blas1::axpy(-hij, q.col(i), &mut w);
            }
            let nn = ca_dense::blas1::nrm2(&w);
            h[(j + 1, j)] = nn;
            for (i, &v) in w.iter().enumerate() {
                q[(i, j + 1)] = v / nn;
            }
        }
        (q, h)
    }

    /// CA reference on the host: generate the monomial/Newton block with
    /// dense ops, orthogonalize with Householder QR, reconstruct H, and
    /// compare with classic Arnoldi.
    fn run_ca_blocks(a: &Mat, v0: &[f64], s: usize, nblocks: usize) -> (Mat, Mat) {
        let n = v0.len();
        let total = s * nblocks;
        let mut qall = Mat::zeros(n, total + 1);
        let beta = ca_dense::blas1::nrm2(v0);
        for (i, &v) in v0.iter().enumerate() {
            qall[(i, 0)] = v / beta;
        }
        let spec = BasisSpec::monomial(s);
        let bmat = spec.change_matrix();
        let mut arn = BlockArnoldi::new();

        for blk in 0..nblocks {
            let j = blk * s; // index of start vector
                             // W: s+1 columns, w_0 = q_j
            let mut w = Mat::zeros(n, s + 1);
            w.set_col(0, qall.col(j));
            for k in 0..s {
                let mut y = vec![0.0; n];
                ca_dense::blas2::gemv_n(1.0, a, w.col(k), 0.0, &mut y);
                w.set_col(k + 1, &y);
            }
            if blk == 0 {
                let f = householder_qr(&w);
                for k in 0..=s {
                    qall.set_col(k, f.q.col(k));
                }
                arn.extend_block(&Mat::zeros(0, 0), &f.r, &bmat);
            } else {
                // BOrth: project w_1..w_s against q_0..q_j
                let nprev = j + 1;
                let mut c = Mat::zeros(nprev, s);
                let mut wnew = w.cols_copy(1, s + 1);
                for l in 0..s {
                    for i in 0..nprev {
                        let d = ca_dense::blas1::dot(qall.col(i), wnew.col(l));
                        c[(i, l)] = d;
                        let qi = qall.col_to_vec(i);
                        ca_dense::blas1::axpy(-d, &qi, wnew.col_mut(l));
                    }
                    // second pass for accuracy of the reference
                    for i in 0..nprev {
                        let d = ca_dense::blas1::dot(qall.col(i), wnew.col(l));
                        c[(i, l)] += d;
                        let qi = qall.col_to_vec(i);
                        ca_dense::blas1::axpy(-d, &qi, wnew.col_mut(l));
                    }
                }
                let f = householder_qr(&wnew);
                for k in 0..s {
                    qall.set_col(j + 1 + k, f.q.col(k));
                }
                arn.extend_block(&c, &f.r, &bmat);
            }
        }
        (qall, arn.to_mat())
    }

    fn dense_test_matrix(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i as f64) * 0.1
            } else {
                0.3 * ((i * 7 + j * 13) % 5) as f64 / (1.0 + i.abs_diff(j) as f64)
            }
        })
    }

    #[test]
    fn first_block_matches_arnoldi() {
        let n = 24;
        let a = dense_test_matrix(n);
        let v0: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let s = 5;
        let (q_ca, h_ca) = run_ca_blocks(&a, &v0, s, 1);
        let (_q_ar, h_ar) = arnoldi_dense(&a, &v0, s);
        for j in 0..s {
            for i in 0..=j + 1 {
                assert!(
                    (h_ca[(i, j)] - h_ar[(i, j)]).abs() < 1e-9 * h_ar[(i, j)].abs().max(1.0),
                    "H({i},{j}): {} vs {}",
                    h_ca[(i, j)],
                    h_ar[(i, j)]
                );
            }
        }
        // Arnoldi residual identity: A Q_s = Q_{s+1} H
        let mut aq = Mat::zeros(n, s);
        blas3::gemm_nn(1.0, &a, &q_ca.cols_copy(0, s), 0.0, &mut aq);
        let mut qh = Mat::zeros(n, s);
        blas3::gemm_nn(1.0, &q_ca.cols_copy(0, s + 1), &h_ca, 0.0, &mut qh);
        for j in 0..s {
            for i in 0..n {
                assert!((aq[(i, j)] - qh[(i, j)]).abs() < 1e-9, "AQ=QH fails at ({i},{j})");
            }
        }
    }

    #[test]
    fn multi_block_satisfies_arnoldi_identity() {
        let n = 30;
        let a = dense_test_matrix(n);
        let v0: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let (s, nblocks) = (4, 3);
        let (q, h) = run_ca_blocks(&a, &v0, s, nblocks);
        let k = s * nblocks;
        // orthonormality of the assembled basis
        let qk = q.cols_copy(0, k + 1);
        assert!(ca_dense::norms::orthogonality_error(&qk) < 1e-10);
        // A Q_k = Q_{k+1} H
        let mut aq = Mat::zeros(n, k);
        blas3::gemm_nn(1.0, &a, &q.cols_copy(0, k), 0.0, &mut aq);
        let mut qh = Mat::zeros(n, k);
        blas3::gemm_nn(1.0, &qk, &h, 0.0, &mut qh);
        for j in 0..k {
            for i in 0..n {
                assert!(
                    (aq[(i, j)] - qh[(i, j)]).abs() < 1e-8,
                    "AQ=QH fails at ({i},{j}): {} vs {}",
                    aq[(i, j)],
                    qh[(i, j)]
                );
            }
        }
        // H is numerically upper Hessenberg (entries below subdiag ~ 0)
        for j in 0..k {
            for i in j + 2..k + 1 {
                assert!(h[(i, j)].abs() < 1e-9, "H({i},{j}) = {}", h[(i, j)]);
            }
        }
    }

    #[test]
    fn push_arnoldi_column_roundtrip() {
        let mut arn = BlockArnoldi::new();
        arn.push_arnoldi_column(vec![1.0, 2.0]);
        arn.push_arnoldi_column(vec![3.0, 4.0, 5.0]);
        let h = arn.to_mat();
        assert_eq!(h.nrows(), 3);
        assert_eq!(h[(1, 0)], 2.0);
        assert_eq!(h[(2, 1)], 5.0);
        assert_eq!(h[(2, 0)], 0.0);
    }
}
