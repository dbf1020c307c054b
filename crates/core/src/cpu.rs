//! CPU reference GMRES — the paper's threaded-MKL baseline (the "CPU" line
//! of Fig. 3).
//!
//! Runs entirely on the host, on the calling thread; what stands for the
//! threads is the simulated time it charges from the host side of the
//! [`PerfModel`] (threaded-MKL-class SpMV bandwidth and GEMV/DOT
//! throughput).

use crate::orth::BorthKind;
use crate::stats::SolveStats;
use ca_dense::hessenberg::GivensLsq;
use ca_dense::{blas1, Mat};
use ca_gpusim::PerfModel;
use ca_sparse::{spmv::spmv, Csr};

/// Solve `A x = b` with restarted GMRES(m) on the CPU model. Returns the
/// solution and simulated-time statistics.
pub fn gmres_cpu(
    a: &Csr,
    b: &[f64],
    m: usize,
    orth: BorthKind,
    rtol: f64,
    max_restarts: usize,
    model: &PerfModel,
) -> (Vec<f64>, SolveStats) {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    let mut stats = SolveStats::default();
    let mut x = vec![0.0; n];
    let mut q = Mat::zeros(n, m + 1);
    let mut w = vec![0.0; n];

    let spmv_t = model.host_spmv_time(a.nnz(), n);
    let dot_t = |len: usize| 16.0 * len as f64 / model.host_mem_bw;
    let gemv_t = |rows: usize, cols: usize| {
        let flops = 2.0 * rows as f64 * cols as f64;
        let bytes = 8.0 * rows as f64 * (cols as f64 + 2.0);
        flops / model.host_gemm_flops + bytes / model.host_mem_bw
    };

    // r0 = b - A x0 (x0 = 0)
    let beta0 = blas1::nrm2(b);
    stats.t_spmv += spmv_t + dot_t(n);
    let target = rtol * beta0;
    let mut beta = beta0;
    let mut r = b.to_vec();

    while stats.restarts < max_restarts {
        if beta <= target || beta == 0.0 {
            stats.converged = true;
            break;
        }
        for (i, qv) in q.col_mut(0).iter_mut().enumerate() {
            *qv = r[i] / beta;
        }
        stats.t_orth += dot_t(n);
        let mut lsq = GivensLsq::new(beta);
        let mut k_used = 0usize;

        for j in 0..m {
            spmv(a, q.col(j), &mut w);
            stats.t_spmv += spmv_t;
            let mut h = Vec::with_capacity(j + 2);
            match orth {
                BorthKind::Mgs => {
                    for l in 0..=j {
                        let rho = blas1::dot(q.col(l), &w);
                        blas1::axpy(-rho, q.col(l), &mut w);
                        h.push(rho);
                        stats.t_orth += dot_t(2 * n);
                    }
                }
                BorthKind::Cgs => {
                    let mut coeffs = vec![0.0; j + 1];
                    for (l, c) in coeffs.iter_mut().enumerate() {
                        *c = blas1::dot(q.col(l), &w);
                    }
                    for (l, &c) in coeffs.iter().enumerate() {
                        blas1::axpy(-c, q.col(l), &mut w);
                    }
                    h.extend_from_slice(&coeffs);
                    stats.t_orth += 2.0 * gemv_t(n, j + 1);
                }
            }
            let norm = blas1::nrm2(&w);
            stats.t_orth += dot_t(n);
            if norm == 0.0 || !norm.is_finite() {
                break;
            }
            h.push(norm);
            for (i, qv) in q.col_mut(j + 1).iter_mut().enumerate() {
                *qv = w[i] / norm;
            }
            stats.t_orth += dot_t(n);
            lsq.push_column(&h);
            k_used = j + 1;
            stats.total_iters += 1;
            if lsq.residual_norm() <= target {
                break;
            }
        }

        if k_used == 0 {
            break;
        }
        let y = lsq.solve();
        stats.t_small += (3 * (k_used + 1) * (k_used + 1)) as f64 / model.host_flops;
        for (l, &yl) in y.iter().enumerate() {
            blas1::axpy(yl, q.col(l), &mut x);
        }
        stats.t_orth += gemv_t(n, k_used);
        stats.restarts += 1;

        // explicit residual
        spmv(a, &x, &mut w);
        for i in 0..n {
            r[i] = b[i] - w[i];
        }
        beta = blas1::nrm2(&r);
        stats.t_spmv += spmv_t + dot_t(2 * n);
    }
    if beta <= target {
        stats.converged = true;
    }
    stats.t_total = stats.t_spmv + stats.t_orth + stats.t_small;
    stats.final_relres = if beta0 > 0.0 { beta / beta0 } else { 0.0 };
    (x, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_sparse::gen::{convection_diffusion, laplace2d};

    #[test]
    fn cpu_gmres_solves_laplace() {
        let a = laplace2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut b = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x_true, &mut b);
        let (x, stats) = gmres_cpu(&a, &b, 30, BorthKind::Mgs, 1e-8, 200, &PerfModel::default());
        assert!(stats.converged);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-5);
        }
        assert!(stats.t_total > 0.0);
    }

    #[test]
    fn cpu_gmres_cgs_nonsymmetric() {
        let a = convection_diffusion(10, 10, 2.0);
        let n = a.nrows();
        let b = vec![1.0; n];
        let (_, stats) = gmres_cpu(&a, &b, 25, BorthKind::Cgs, 1e-6, 200, &PerfModel::default());
        assert!(stats.converged);
    }

    #[test]
    fn cpu_matches_device_iteration_counts() {
        // The device path and CPU path implement the same MGS Arnoldi;
        // iteration counts should agree.
        let a = laplace2d(9, 9);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 2) as f64).collect();
        let (_, cpu_stats) =
            gmres_cpu(&a, &b, 20, BorthKind::Mgs, 1e-6, 100, &PerfModel::default());

        let layout = crate::layout::Layout::even(n, 2);
        let mut mg = ca_gpusim::MultiGpu::with_defaults(2);
        let sys = crate::system::System::new(&mut mg, &a, layout, 20, None).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        let out = crate::gmres::gmres(
            &mut mg,
            &sys,
            &crate::gmres::GmresConfig {
                m: 20,
                orth: BorthKind::Mgs,
                rtol: 1e-6,
                max_restarts: 100,
            },
        );
        assert_eq!(cpu_stats.total_iters, out.stats.total_iters);
    }
}
