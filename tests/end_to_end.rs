#![allow(clippy::needless_range_loop)]

//! End-to-end solver correctness across the whole stack: every TSQR
//! algorithm x basis x kernel mode x device count must produce the same
//! solution as a dense direct solve.

use ca_gmres_repro::dense::{blas2, chol, Mat};
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::MultiGpu;
use ca_gmres_repro::sparse::{gen, perm, spmv, Csr};

/// Dense direct reference solve (via normal equations on SPD test
/// matrices: A is SPD here, so Cholesky applies directly).
fn direct_solve(a: &Csr, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut dense = Mat::zeros(n, n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            dense[(i, c as usize)] = v;
        }
    }
    // A SPD: solve via Cholesky
    chol::solve_spd(&dense, b).expect("test matrix must be SPD")
}

fn residual_of(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    spmv::spmv(a, x, &mut r);
    for i in 0..b.len() {
        r[i] = b[i] - r[i];
    }
    ca_gmres_repro::dense::blas1::nrm2(&r) / ca_gmres_repro::dense::blas1::nrm2(b)
}

fn test_problem() -> (Csr, Vec<f64>, Vec<f64>) {
    let a = gen::laplace2d(9, 9);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
    let x_direct = direct_solve(&a, &b);
    (a, b, x_direct)
}

#[test]
fn ca_gmres_matches_direct_solve_all_tsqr_kinds() {
    let (a, b, x_direct) = test_problem();
    for kind in [TsqrKind::Mgs, TsqrKind::Cgs, TsqrKind::CholQr, TsqrKind::SvQr, TsqrKind::Caqr] {
        for ndev in [1usize, 2, 3] {
            let (a_ord, p, layout) = prepare(&a, Ordering::Natural, ndev);
            let mut mg = MultiGpu::with_defaults(ndev);
            let cfg = CaGmresConfig {
                s: 5,
                m: 20,
                orth: OrthConfig { tsqr: kind, ..Default::default() },
                rtol: 1e-10,
                max_restarts: 400,
                ..Default::default()
            };
            let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
            sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
            let out = ca_gmres(&mut mg, &sys, &cfg);
            assert!(out.stats.converged, "{kind} x {ndev} devs: {:?}", out.stats.breakdown);
            let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
            for i in 0..x.len() {
                assert!(
                    (x[i] - x_direct[i]).abs() < 1e-6,
                    "{kind} x {ndev}: x[{i}] = {} vs direct {}",
                    x[i],
                    x_direct[i]
                );
            }
        }
    }
}

#[test]
fn gmres_and_ca_gmres_agree_on_nonsymmetric() {
    let a = gen::convection_diffusion(11, 11, 3.0);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
    let ndev = 2;
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, ndev);
    let bp = perm::permute_vec(&b, &p);

    let mut mg1 = MultiGpu::with_defaults(ndev);
    let sys1 = System::new(&mut mg1, &a_ord, layout.clone(), 25, None).unwrap();
    sys1.load_rhs(&mut mg1, &bp).unwrap();
    let g = gmres(
        &mut mg1,
        &sys1,
        &GmresConfig { m: 25, orth: BorthKind::Cgs, rtol: 1e-9, max_restarts: 400 },
    );

    let mut mg2 = MultiGpu::with_defaults(ndev);
    let cfg = CaGmresConfig { s: 5, m: 25, rtol: 1e-9, max_restarts: 400, ..Default::default() };
    let sys2 = System::new(&mut mg2, &a_ord, layout, 25, Some(5)).unwrap();
    sys2.load_rhs(&mut mg2, &bp).unwrap();
    let c = ca_gmres(&mut mg2, &sys2, &cfg);

    assert!(g.stats.converged && c.stats.converged);
    let xg = perm::unpermute_vec(&sys1.download_x(&mut mg1).unwrap(), &p);
    let xc = perm::unpermute_vec(&sys2.download_x(&mut mg2).unwrap(), &p);
    assert!(residual_of(&a, &xg, &b) <= 1e-9 * 1.01);
    assert!(residual_of(&a, &xc, &b) <= 1e-9 * 1.01);
    for i in 0..n {
        assert!((xg[i] - xc[i]).abs() < 1e-6);
    }
}

#[test]
fn cpu_reference_matches_device_solution() {
    let (a, b, x_direct) = test_problem();
    let (x, stats) = gmres_cpu(
        &a,
        &b,
        20,
        BorthKind::Mgs,
        1e-10,
        300,
        &ca_gmres_repro::gpusim::PerfModel::default(),
    );
    assert!(stats.converged);
    for i in 0..x.len() {
        assert!((x[i] - x_direct[i]).abs() < 1e-6);
    }
}

#[test]
fn every_ordering_gives_same_solution() {
    let (a, b, x_direct) = test_problem();
    for ord in [Ordering::Natural, Ordering::Rcm, Ordering::Kway] {
        let (a_ord, p, layout) = prepare(&a, ord, 3);
        let mut mg = MultiGpu::with_defaults(3);
        let cfg =
            CaGmresConfig { s: 4, m: 16, rtol: 1e-10, max_restarts: 400, ..Default::default() };
        let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
        sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
        let out = ca_gmres(&mut mg, &sys, &cfg);
        assert!(out.stats.converged, "{ord}");
        let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
        for i in 0..x.len() {
            assert!((x[i] - x_direct[i]).abs() < 1e-6, "{ord}: x[{i}]");
        }
    }
}

#[test]
fn balanced_system_solution_maps_back() {
    // full paper §VI pipeline: balance -> partition -> solve -> unscale
    let a = gen::circuit(800, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| if i % 97 == 0 { 1.0 } else { 0.0 }).collect();
    let (ab, bal) = ca_gmres_repro::sparse::balance::balance(&a);
    let bb = bal.scale_rhs(&b);
    let (a_ord, p, layout) = prepare(&ab, Ordering::Kway, 2);
    let mut mg = MultiGpu::with_defaults(2);
    let cfg = CaGmresConfig { s: 5, m: 30, rtol: 1e-10, max_restarts: 600, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&bb, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let y = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    let x = bal.unscale_solution(&y);
    assert!(residual_of(&a, &x, &b) < 1e-7, "relres {}", residual_of(&a, &x, &b));
}

#[test]
fn hessenberg_least_squares_reduces_residual_monotonically() {
    // end-to-end: the Givens LSQ residual estimate must match the true
    // residual of the iterate at each restart boundary
    let (a, b, _) = test_problem();
    let (a_ord, p, layout) = prepare(&a, Ordering::Natural, 2);
    let mut mg = MultiGpu::with_defaults(2);
    let sys = System::new(&mut mg, &a_ord, layout, 8, None).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let mut prev = f64::INFINITY;
    for cycle in 0..6 {
        let out = gmres(
            &mut mg,
            &sys,
            &GmresConfig { m: 8, orth: BorthKind::Mgs, rtol: 1e-30, max_restarts: 1 },
        );
        let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
        let r = residual_of(&a, &x, &b);
        assert!(r <= prev * (1.0 + 1e-10), "residual increased: {r} > {prev}");
        if cycle == 0 {
            // first call starts from x = 0, so its reported relative
            // residual is relative to ||b|| and must match ours
            assert!((r - out.stats.final_relres).abs() < 1e-8 + 1e-3 * r);
        }
        prev = r;
    }
}

#[test]
fn preconditioned_ca_gmres_full_pipeline() {
    // precondition -> balance -> partition -> CA-GMRES -> recover, with
    // the residual verified against the ORIGINAL system
    use ca_gmres_repro::gmres::precond::{Applied, Precond};
    let a = gen::cantilever(5, 5, 5);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 11 % 19) as f64) - 9.0).collect();

    for kind in [Precond::Jacobi, Precond::BlockJacobi { block: 3 }] {
        let prec = Applied::build(&a, kind);
        let (ab, bal) = ca_gmres_repro::sparse::balance::balance(&prec.a_precond);
        let bb = bal.scale_rhs(&b);
        let (a_ord, p, layout) = prepare(&ab, Ordering::Kway, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let cfg =
            CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 400, ..Default::default() };
        let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
        sys.load_rhs(&mut mg, &perm::permute_vec(&bb, &p)).unwrap();
        let out = ca_gmres(&mut mg, &sys, &cfg);
        assert!(out.stats.converged, "{kind:?}: {:?}", out.stats.breakdown);
        let y = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
        let y = bal.unscale_solution(&y);
        let x = prec.recover(&y);
        let r = residual_of(&a, &x, &b);
        assert!(r < 1e-7, "{kind:?}: original-system relres {r}");
    }
}

#[test]
fn hyb_format_same_solution_as_ellpack() {
    use ca_gmres_repro::gmres::mpk::SpmvFormat;
    let a = gen::circuit_hubbed(3000, 4);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let (ab, _) = ca_gmres_repro::sparse::balance::balance(&a);
    let (a_ord, p, layout) = prepare(&ab, Ordering::Kway, 2);
    let bp = perm::permute_vec(&b, &p);
    let solve = |format| {
        let mut mg = MultiGpu::with_defaults(2);
        let (m, s) = (30, Some(10));
        let sys =
            System::with_format(&mut mg, &a_ord, layout.clone(), m, s, format, Precision::F64)
                .unwrap();
        sys.load_rhs(&mut mg, &bp).unwrap();
        let cfg =
            CaGmresConfig { s: 10, m: 30, rtol: 1e-8, max_restarts: 400, ..Default::default() };
        let out = ca_gmres(&mut mg, &sys, &cfg);
        assert!(out.stats.converged);
        (sys.download_x(&mut mg).unwrap(), out.stats.t_total)
    };
    let (x_ell, t_ell) = solve(SpmvFormat::Ell);
    let (x_hyb, t_hyb) = solve(SpmvFormat::Hyb { quantile: 0.97 });
    for i in 0..n {
        assert!((x_ell[i] - x_hyb[i]).abs() < 1e-8, "row {i}");
    }
    assert!(t_hyb < t_ell, "HYB {t_hyb} should beat ELL {t_ell} on the hubbed matrix");
}

#[test]
fn matrix_market_pipeline_roundtrip() {
    // generate -> write .mtx -> read -> solve; the CLI's file path
    let a = gen::convection_diffusion(9, 9, 1.0);
    let path = std::env::temp_dir().join("ca_gmres_e2e_roundtrip.mtx");
    ca_gmres_repro::sparse::io::write_matrix_market(&a, &path).unwrap();
    let a2 = ca_gmres_repro::sparse::io::read_matrix_market(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(a.nnz(), a2.nnz());

    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let solve = |m: &Csr| {
        let (a_ord, p, layout) = prepare(m, Ordering::Kway, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let cfg =
            CaGmresConfig { s: 5, m: 20, rtol: 1e-10, max_restarts: 300, ..Default::default() };
        let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
        sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
        let out = ca_gmres(&mut mg, &sys, &cfg);
        assert!(out.stats.converged);
        perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p)
    };
    let x1 = solve(&a);
    let x2 = solve(&a2);
    for i in 0..n {
        assert!((x1[i] - x2[i]).abs() < 1e-10, "row {i}");
    }
}

#[test]
fn gmres_respects_restart_budget() {
    let a = gen::laplace2d(10, 10);
    let (a_ord, p, layout) = prepare(&a, Ordering::Natural, 2);
    let mut mg = MultiGpu::with_defaults(2);
    let sys = System::new(&mut mg, &a_ord, layout, 10, None).unwrap();
    let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.31).sin()).collect();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    // rtol 0 can never be met: exactly max_restarts cycles, not converged
    let out = gmres(
        &mut mg,
        &sys,
        &GmresConfig { m: 10, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 4 },
    );
    assert!(!out.stats.converged);
    assert_eq!(out.stats.restarts, 4);
    assert_eq!(out.stats.total_iters, 40);
}

#[test]
fn ca_gmres_respects_restart_budget() {
    let a = gen::laplace2d(10, 10);
    let (a_ord, p, layout) = prepare(&a, Ordering::Natural, 2);
    let mut mg = MultiGpu::with_defaults(2);
    let sys = System::new(&mut mg, &a_ord, layout, 12, Some(4)).unwrap();
    let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.31).sin()).collect();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let cfg = CaGmresConfig { s: 4, m: 12, rtol: 0.0, max_restarts: 5, ..Default::default() };
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(!out.stats.converged);
    assert_eq!(out.stats.restarts, 5);
    // 1 standard harvest cycle + 4 CA cycles
    assert_eq!(out.ca_stats.restarts, 4);
}

#[test]
fn dense_gemv_consistency_with_sparse() {
    // cross-crate sanity: dense gemv of the densified matrix equals spmv
    let a = gen::laplace2d(5, 5);
    let n = a.nrows();
    let mut dense = Mat::zeros(n, n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            dense[(i, c as usize)] = v;
        }
    }
    let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let mut y1 = vec![0.0; n];
    let mut y2 = vec![0.0; n];
    spmv::spmv(&a, &x, &mut y1);
    blas2::gemv_n(1.0, &dense, &x, 0.0, &mut y2);
    for i in 0..n {
        assert!((y1[i] - y2[i]).abs() < 1e-13);
    }
}

#[test]
fn an_invariant_krylov_space_ends_every_entry_at_the_exact_answer() {
    // b = 1 spans an invariant Krylov space of A = 2I (one dimension) and
    // of A = diag(1, 3, 1, 3, ...) (two): an Arnoldi step within the first
    // cycle is a lucky breakdown (a zero subdiagonal). Every solver entry
    // returns x = A⁻¹b converged, and the eigensolver the dominant
    // eigenvalue exactly, with residual 0
    let n = 64;
    let (ndev, m, s) = (2, 8, 4);
    let cfg = CaGmresConfig { s, m, ..Default::default() };
    for (diag, lambda) in [([2.0, 2.0], 2.0), ([1.0, 3.0], 3.0)] {
        let mut a = Csr::identity(n);
        a.values_mut().iter_mut().enumerate().for_each(|(i, v)| *v = diag[i % 2]);
        let b = vec![1.0; n];
        let loaded = || {
            let mut mg = MultiGpu::with_defaults(ndev);
            let sys = System::new(&mut mg, &a, Layout::even(n, ndev), m, Some(s)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            (mg, sys)
        };
        let solved = |entry: &str, stats: &SolveStats, x: &[f64]| {
            assert!(stats.converged && stats.breakdown.is_none(), "{entry} {diag:?}: {stats:?}");
            assert!(stats.final_relres <= cfg.rtol, "{entry} {diag:?}: {}", stats.final_relres);
            let exact = |i: usize| 1.0 / diag[i % 2];
            let err = x.iter().enumerate().map(|(i, xi)| (xi - exact(i)).abs()).fold(0.0, f64::max);
            assert!(err <= 1e-14, "{entry} {diag:?}: error {err}");
        };
        let (mut mg, sys) = loaded();
        let stats = gmres(&mut mg, &sys, &GmresConfig { m, ..Default::default() }).stats;
        solved("gmres", &stats, &sys.download_x(&mut mg).unwrap());
        let (mut mg, sys) = loaded();
        let stats = ca_gmres(&mut mg, &sys, &cfg).stats;
        solved("ca_gmres", &stats, &sys.download_x(&mut mg).unwrap());
        let ft = FtConfig { solver: cfg, ..Default::default() };
        let out = ca_gmres_ft(MultiGpu::with_defaults(ndev), &a, &b, &ft);
        solved("ca_gmres_ft", &out.stats, &out.x);
        let (mut mg, sys) = loaded();
        let eigs = ArnoldiConfig { m, s, ..Default::default() };
        let out = arnoldi_eigs(&mut mg, &sys, &eigs).unwrap();
        assert!(out.stats.converged && out.stats.breakdown.is_none(), "{:?}", out.stats);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].value, (lambda, 0.0));
        assert_eq!(out.pairs[0].rel_residual, 0.0);
    }
}
