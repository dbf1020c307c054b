//! Restarted Arnoldi eigensolver on the CA substrate — the paper's closing
//! claim made concrete: "both SpMV and Orth are needed in many solvers
//! (e.g., subspace projection methods for linear and eigenvalue problems).
//! Hence, our studies may have greater impact beyond GMRES."
//!
//! [`arnoldi_eigs`] finds the dominant eigenvalues of `A` with explicitly
//! restarted Arnoldi: each cycle builds an `m`-dimensional Krylov basis
//! with the *same* communication-avoiding machinery as CA-GMRES (MPK
//! blocks + BOrth + TSQR, Newton shifts harvested from the first cycle),
//! extracts Ritz pairs from the reconstructed Hessenberg matrix, and
//! restarts from the dominant Ritz vector.

use crate::hess::BlockArnoldi;
use crate::mpk::{dist_spmv, mpk, spmv_block};
use crate::newton::{newton_shifts_from_hessenberg, BasisSpec};
use crate::orth::{borth, orth_column, tsqr, OrthConfig, OrthError};
use crate::system::System;
use ca_dense::hessenberg::{hessenberg_eigenvalues, Complex};
use ca_dense::{blas2, qr, Mat};
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;

/// Configuration for the restarted Arnoldi eigensolver.
#[derive(Debug, Clone, Copy)]
pub struct ArnoldiConfig {
    /// Krylov dimension per restart cycle.
    pub m: usize,
    /// MPK step size (1 = plain SpMV path).
    pub s: usize,
    /// Number of dominant eigenvalues wanted.
    pub nev: usize,
    /// Relative Ritz-residual target `|r| <= tol * |theta|`.
    pub tol: f64,
    /// Restart budget.
    pub max_restarts: usize,
    /// Orthogonalization strategy for the CA cycles.
    pub orth: OrthConfig,
}

impl Default for ArnoldiConfig {
    fn default() -> Self {
        Self { m: 30, s: 10, nev: 1, tol: 1e-8, max_restarts: 200, orth: OrthConfig::default() }
    }
}

/// One converged (or best-effort) Ritz pair.
#[derive(Debug, Clone)]
pub struct RitzPair {
    /// Eigenvalue estimate as `(re, im)`.
    pub value: Complex,
    /// Ritz residual estimate `|h_{m+1,m}| |e_m^T y|` relative to `|theta|`.
    pub rel_residual: f64,
}

/// Outcome of an eigensolve.
#[derive(Debug)]
pub struct EigsOutcome {
    /// The `nev` dominant Ritz pairs, by descending modulus.
    pub pairs: Vec<RitzPair>,
    /// Whether all requested pairs met the tolerance.
    pub converged: bool,
    /// Restart cycles executed.
    pub restarts: usize,
    /// Simulated solve time, seconds.
    pub t_total: f64,
}

/// Ritz vector of `h` (square, `mm x mm`) for the eigenvalue closest to
/// `theta` via one-shot inverse iteration on the (real-shifted) matrix.
fn ritz_vector(h: &Mat, theta_re: f64) -> Vec<f64> {
    let mm = h.ncols();
    let mut shifted = h.clone();
    // small diagonal perturbation keeps the shifted matrix invertible
    let eps = 1e-10 * (1.0 + theta_re.abs());
    for i in 0..mm {
        shifted[(i, i)] -= theta_re + eps;
    }
    let f = qr::householder_qr(&shifted);
    // two steps of inverse iteration from a deterministic start (non-normal
    // H can need the second step)
    let mut y: Vec<f64> = (0..mm).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    for _ in 0..2 {
        let mut rhs = vec![0.0; mm];
        blas2::gemv_t(1.0, &f.q, &y, 0.0, &mut rhs);
        if blas2::trsv_upper(&f.r, &mut rhs).is_err() {
            rhs = vec![0.0; mm];
            rhs[mm - 1] = 1.0;
        }
        let nrm = ca_dense::blas1::nrm2(&rhs).max(f64::MIN_POSITIVE);
        y = rhs.iter().map(|v| v / nrm).collect();
    }
    y
}

/// Find the `cfg.nev` dominant eigenvalues of the operator held by `sys`
/// (the matrix loaded into its SpMV/MPK plans). The start vector is
/// whatever `b` was loaded via [`System::load_rhs`].
/// # Errors
/// Propagates simulated hardware faults ([`ca_gpusim::GpuSimError`]).
pub fn arnoldi_eigs(
    mg: &mut MultiGpu,
    sys: &System,
    cfg: &ArnoldiConfig,
) -> GpuResult<EigsOutcome> {
    assert!(cfg.m >= 2 && cfg.m <= sys.m && cfg.nev >= 1 && cfg.nev < cfg.m);
    let use_mpk = cfg.s > 1 && sys.mpk.is_some();
    mg.sync();
    let t_begin = mg.time();

    // seed: b / ||b||
    let bc = sys.b_col();
    let parts = mg.run_map(|d, dev| dev.dot_cols(sys.v[d], bc, bc));
    mg.to_host(&vec![8; parts.len()])?;
    let nb = parts.iter().sum::<f64>().sqrt().max(f64::MIN_POSITIVE);
    mg.broadcast(8)?;
    mg.run(|d, dev| {
        dev.copy_col(sys.v[d], bc, 0);
        dev.scal_col(sys.v[d], 0, 1.0 / nb);
    });

    let mut spec: Option<BasisSpec> = None;
    let mut restarts = 0usize;
    let mut best: Vec<RitzPair> = Vec::new();
    let mut converged = false;

    while restarts < cfg.max_restarts {
        // --- build an m-step Arnoldi factorization ---
        let mut arn = BlockArnoldi::new();
        let mut failed = false;
        match &spec {
            None => {
                // standard Arnoldi (also harvests Newton shifts)
                for j in 0..cfg.m {
                    dist_spmv(mg, &sys.spmv, &sys.v, j, j + 1)?;
                    match orth_column(mg, &sys.v, 0, j + 1, cfg.orth.borth) {
                        Ok(h) => arn.push_arnoldi_column(h),
                        Err(OrthError::Gpu(e)) => return Err(e),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            Some(sp) => {
                let mut ncols = 1usize;
                let mut first = true;
                while ncols - 1 < cfg.m && !failed {
                    let s_blk = sp.s().min(cfg.m + 1 - ncols);
                    let blk = sp.truncate(s_blk);
                    let bmat = blk.change_matrix();
                    let start = ncols - 1;
                    if use_mpk {
                        mpk(mg, sys.mpk.as_ref().unwrap(), &sys.v, start, &blk)?;
                    } else {
                        spmv_block(mg, &sys.spmv, &sys.v, start, &blk)?;
                    }
                    let (c0, c1) = if first { (0, s_blk + 1) } else { (ncols, ncols + s_blk) };
                    let c = match borth(mg, &sys.v, c0, c1, cfg.orth.borth) {
                        Ok(c) => c,
                        Err(OrthError::Gpu(e)) => return Err(e),
                        Err(_) => unreachable!("plain borth only fails on GPU faults"),
                    };
                    match tsqr(mg, &sys.v, c0, c1, cfg.orth.tsqr, cfg.orth.svqr_scaled) {
                        Ok(r) => {
                            let c_eff = if first { Mat::zeros(0, 0) } else { c };
                            arn.extend_block(&c_eff, &r, &bmat);
                        }
                        Err(OrthError::Gpu(e)) => return Err(e),
                        Err(_) => {
                            failed = true;
                        }
                    }
                    ncols += s_blk;
                    first = false;
                }
            }
        }
        restarts += 1;
        if failed || arn.ncols() < 2 {
            // degrade to the plain-SpMV monomial path and retry
            spec = Some(BasisSpec::monomial(cfg.s.max(1)));
            continue;
        }

        // --- Ritz extraction ---
        let h = arn.to_mat();
        let mm = arn.ncols();
        let hsq = h.top_left(mm, mm);
        let h_sub = h[(mm, mm - 1)];
        let mut eigs = match hessenberg_eigenvalues(&hsq) {
            Ok(e) => e,
            Err(_) => {
                spec = Some(BasisSpec::monomial(cfg.s.max(1)));
                continue;
            }
        };
        eigs.sort_by(|a, b| {
            let (ma, mb) = (a.0 * a.0 + a.1 * a.1, b.0 * b.0 + b.1 * b.1);
            mb.total_cmp(&ma)
        });

        best.clear();
        let mut all_ok = true;
        let mut restart_combo = vec![0.0f64; mm];
        for (i, &(re, im)) in eigs.iter().take(cfg.nev).enumerate() {
            let y = ritz_vector(&hsq, re);
            let modulus = (re * re + im * im).sqrt().max(f64::MIN_POSITIVE);
            let rel = (h_sub * y[mm - 1]).abs() / modulus;
            best.push(RitzPair { value: (re, im), rel_residual: rel });
            if rel > cfg.tol {
                all_ok = false;
            }
            // restart direction: weight unconverged pairs heavily so the
            // explicit restart keeps refining the laggards, with a floor
            // that preserves the converged components (they must stay in
            // the space or their Ritz values drift away again)
            let w = (rel / cfg.tol).clamp(0.3, 100.0) / (1.0 + i as f64).sqrt();
            for (rc, &yv) in restart_combo.iter_mut().zip(&y) {
                *rc += w * yv;
            }
        }
        if all_ok {
            converged = true;
            break;
        }

        // harvest Newton shifts once from the first full factorization
        if spec.is_none() {
            spec = match newton_shifts_from_hessenberg(&h, cfg.s.max(1)) {
                Ok(sh) if cfg.s > 1 => Some(BasisSpec::newton(&sh, cfg.s)),
                _ => Some(BasisSpec::monomial(cfg.s.max(1))),
            };
        }

        // --- restart: v0 := normalize(V y_combo) ---
        let nrm = ca_dense::blas1::nrm2(&restart_combo).max(f64::MIN_POSITIVE);
        let neg: Vec<f64> = restart_combo.iter().map(|v| -v / nrm).collect();
        let xc = sys.x_col();
        mg.broadcast(8 * mm)?;
        mg.run(|d, dev| {
            dev.scal_col(sys.v[d], xc, 0.0); // zero the scratch
            dev.gemv_n_update(sys.v[d], 0, mm, &neg, xc); // x = V y / ||y||
            dev.copy_col(sys.v[d], xc, 0);
        });
        // re-normalize exactly (the combo of orthonormal columns already
        // has unit norm up to rounding, but be safe)
        let parts = mg.run_map(|d, dev| dev.norm2_sq_col(sys.v[d], 0));
        mg.to_host(&vec![8; parts.len()])?;
        let n0 = parts.iter().sum::<f64>().sqrt().max(f64::MIN_POSITIVE);
        mg.broadcast(8)?;
        mg.run(|d, dev| dev.scal_col(sys.v[d], 0, 1.0 / n0));
    }

    mg.sync();
    Ok(EigsOutcome { pairs: best, converged, restarts, t_total: mg.time() - t_begin })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use ca_sparse::gen;

    fn dominant_eig_reference(a: &ca_sparse::Csr, iters: usize) -> f64 {
        // host power iteration
        let n = a.nrows();
        let mut x: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
        let mut lambda = 0.0;
        for _ in 0..iters {
            let mut y = vec![0.0; n];
            ca_sparse::spmv::spmv(a, &x, &mut y);
            lambda = ca_dense::blas1::dot(&x, &y) / ca_dense::blas1::dot(&x, &x);
            let nrm = ca_dense::blas1::nrm2(&y);
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi = yi / nrm;
            }
        }
        lambda
    }

    fn run_eigs(a: &ca_sparse::Csr, ndev: usize, cfg: &ArnoldiConfig) -> EigsOutcome {
        let n = a.nrows();
        let layout = Layout::even(n, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let sys = System::new(&mut mg, a, layout, cfg.m, Some(cfg.s)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 7) as f64 * 0.3).collect();
        sys.load_rhs(&mut mg, &b).unwrap();
        arnoldi_eigs(&mut mg, &sys, cfg).unwrap()
    }

    #[test]
    fn finds_laplacian_dominant_eigenvalue_exactly() {
        // 2-D Laplacian eigenvalues are known in closed form
        let (nx, ny) = (12usize, 12usize);
        let a = gen::laplace2d(nx, ny);
        let exact = 4.0
            - 2.0 * (std::f64::consts::PI * nx as f64 / (nx as f64 + 1.0)).cos()
            - 2.0 * (std::f64::consts::PI * ny as f64 / (ny as f64 + 1.0)).cos();
        let out = run_eigs(&a, 2, &ArnoldiConfig { m: 24, s: 6, ..Default::default() });
        assert!(out.converged, "restarts {}", out.restarts);
        let (re, im) = out.pairs[0].value;
        assert!(im.abs() < 1e-8);
        assert!((re - exact).abs() < 1e-6 * exact, "{re} vs exact {exact}");
    }

    #[test]
    fn matches_power_iteration_on_nonsymmetric() {
        let a = gen::convection_diffusion(12, 12, 2.0);
        let reference = dominant_eig_reference(&a, 3000);
        let out = run_eigs(&a, 3, &ArnoldiConfig { m: 20, s: 5, tol: 1e-7, ..Default::default() });
        assert!(out.converged);
        let (re, _) = out.pairs[0].value;
        assert!(
            (re - reference).abs() < 1e-5 * reference.abs(),
            "{re} vs power-iteration {reference}"
        );
    }

    #[test]
    fn multiple_eigenvalues_ordered_by_modulus() {
        let a = gen::laplace2d(10, 10);
        let out = run_eigs(
            &a,
            2,
            &ArnoldiConfig { m: 30, s: 6, nev: 3, tol: 1e-7, ..Default::default() },
        );
        assert!(out.converged);
        assert_eq!(out.pairs.len(), 3);
        let mods: Vec<f64> = out
            .pairs
            .iter()
            .map(|p| (p.value.0 * p.value.0 + p.value.1 * p.value.1).sqrt())
            .collect();
        assert!(mods[0] >= mods[1] && mods[1] >= mods[2]);
        // top-3 eigenvalues of the 10x10 grid Laplacian, exact
        let lam = |p: usize, q: usize| {
            4.0 - 2.0 * (std::f64::consts::PI * p as f64 / 11.0).cos()
                - 2.0 * (std::f64::consts::PI * q as f64 / 11.0).cos()
        };
        let mut exact = [lam(10, 10), lam(10, 9), lam(9, 10)];
        exact.sort_by(|a, b| b.total_cmp(a));
        // degenerate pair lam(10,9) = lam(9,10): compare the distinct values
        assert!((mods[0] - exact[0]).abs() < 1e-5);
        assert!((mods[1] - exact[1]).abs() < 1e-4);
    }

    #[test]
    fn spmv_path_matches_mpk_path() {
        let a = gen::laplace2d(9, 9);
        let o1 = run_eigs(&a, 2, &ArnoldiConfig { m: 18, s: 6, ..Default::default() });
        let o2 = run_eigs(&a, 2, &ArnoldiConfig { m: 18, s: 1, ..Default::default() });
        assert!(o1.converged && o2.converged);
        assert!((o1.pairs[0].value.0 - o2.pairs[0].value.0).abs() < 1e-7);
    }
}
