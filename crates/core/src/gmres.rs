//! Standard restarted GMRES(m) on the multi-GPU substrate (the paper's
//! baseline, Fig. 3/14) — one SpMV and one single-column orthogonalization
//! per iteration. Its restart loop is the crate's one (`cycle::Solve::run`):
//! [`gmres`] runs the standard cycle (`gmres_cycle`) in every restart, where
//! the CA entries run it once, to harvest the Ritz values (`harvest_cycle`).

use crate::cagmres::CaGmresConfig;
use crate::cycle::{invalid, lsq_solution, CycleGuard, NoGuard, Phase, Solve, SolveCtx, Sys};
use crate::ft::PollPoint;
use crate::hess::BlockArnoldi;
use crate::mpk::dist_spmv;
use crate::newton::{newton_shifts_from_hessenberg, BasisSpec};
use crate::orth::{orth_column, BorthKind, OrthConfig, OrthError};
use crate::stats::{BreakdownKind, SolveStats};
use crate::system::System;
use ca_dense::hessenberg::{Complex, GivensLsq};
use ca_dense::Mat;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;
use ca_obs as obs;
use obs::Track::Host as HOST;

/// Configuration for standard GMRES(m).
#[derive(Debug, Clone, Copy)]
pub struct GmresConfig {
    /// Restart length.
    pub m: usize,
    /// Orthogonalization of each new basis vector (MGS or CGS, §V-A/B).
    pub orth: BorthKind,
    /// Convergence: stop when `||r|| <= rtol * ||r_0||` (the paper uses
    /// 1e-4, §VI).
    pub rtol: f64,
    /// Safety bound on restart cycles.
    pub max_restarts: usize,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self { m: 30, orth: BorthKind::Cgs, rtol: 1e-4, max_restarts: 500 }
    }
}

/// Outcome of a GMRES solve: statistics plus (optionally) the first
/// restart cycle's Hessenberg matrix, which CA-GMRES harvests for Newton
/// shifts.
#[derive(Debug)]
pub struct GmresOutcome {
    /// Solve statistics.
    pub stats: SolveStats,
    /// `(k+1) x k` Hessenberg of the first restart cycle.
    pub first_hessenberg: Option<Mat>,
}

/// Result of one standard GMRES restart cycle.
pub(crate) struct CycleOutcome {
    /// The update `x += V y` the cycle applied; its length is the Krylov
    /// dimensions it used.
    pub y: Vec<f64>,
    /// The cycle's Hessenberg matrix `(k+1) x k`.
    pub hessenberg: Mat,
    /// Implicit (least-squares) residual norm at the end of the cycle.
    pub implied: f64,
}

/// Run one restart cycle of standard GMRES: seed the basis from the
/// residual (norm `beta`), iterate up to `m` Arnoldi steps (stopping early
/// once the implicit residual reaches `target`), and apply the update to
/// `x`. Phase timings accumulate into `stats`; `stats.breakdown` is set on
/// an orthogonalization failure. The guard is polled once per SpMV step.
pub(crate) fn gmres_cycle<G: CycleGuard>(
    cx: &mut SolveCtx<'_>,
    m: usize,
    orth: BorthKind,
    beta: f64,
    target: f64,
    guard: &mut G,
) -> GpuResult<CycleOutcome> {
    let (mg, sys, stats) = (&mut *cx.mg, cx.sys, &mut *cx.stats);
    let sp_cycle = obs::span_begin("cycle", HOST, mg.time());
    sys.seed_basis(mg, beta)?;
    let mut lsq = GivensLsq::new(beta);
    let mut arn = BlockArnoldi::new();

    for j in 0..m {
        let ph = Phase::begin(mg, "spmv", true);
        dist_spmv(mg, &sys.spmv, &sys.v, j, j + 1)?;
        stats.t_spmv += ph.end(mg);
        guard.poll(mg, PollPoint::SpmvBlock)?;

        let ph = Phase::begin(mg, "orth", true);
        match orth_column(mg, &sys.v, 0, j + 1, orth) {
            Ok(h) => {
                stats.t_orth += ph.end(mg);
                // a zero subdiagonal is the lucky breakdown: the Krylov
                // space is invariant and holds the exact solution
                let invariant = h[j + 1] == 0.0;
                lsq.push_column(&h);
                arn.push_arnoldi_column(h);
                stats.total_iters += 1;
                if invariant || lsq.residual_norm() <= target {
                    break;
                }
            }
            Err(OrthError::ZeroNorm { .. }) => {
                // a norm that is not a number: stop with the columns so
                // far; the restart's explicit residual reports the rest
                stats.t_orth += ph.end(mg);
                break;
            }
            Err(OrthError::Gpu(e)) => return Err(e),
            Err(e) => {
                stats.breakdown =
                    Some(BreakdownKind::Orthogonalization { column: j + 1, reason: e.to_string() });
                stats.t_orth += ph.end(mg);
                break;
            }
        }
    }

    let y = lsq_solution(cx, &lsq, true);
    cx.finish_cycle(&y)?;
    obs::span_end(sp_cycle, cx.mg.time());
    let implied = if y.is_empty() { beta } else { lsq.residual_norm() };
    Ok(CycleOutcome { y, hessenberg: arn.to_mat(), implied })
}

/// The first restart cycle of a CA solve, for every driver: one standard
/// GMRES(`cfg.m`) cycle, then every Ritz value of its Hessenberg matrix in
/// Leja order (`None` when the harvest fails), and the `s`-step schedule of
/// `cfg.basis` over them (monomial when there is nothing to shift by). A
/// Newton schedule reads the first `s` of them, exactly the shifts an
/// `s`-value harvest returns. The eigensolve is charged to the "small"
/// phase whatever it returned.
pub(crate) fn harvest_cycle<G: CycleGuard>(
    cx: &mut SolveCtx<'_>,
    cfg: &CaGmresConfig,
    s: usize,
    (beta, target): (f64, f64),
    guard: &mut G,
) -> GpuResult<(CycleOutcome, Option<Vec<Complex>>, BasisSpec)> {
    let cycle = gmres_cycle(cx, cfg.m, cfg.orth.borth, beta, target, guard)?;
    let ph = Phase::begin(cx.mg, "small", G::FLATTEN);
    let shifts = newton_shifts_from_hessenberg(&cycle.hessenberg, cfg.m).ok();
    let spec = BasisSpec::from_shifts(shifts.as_deref(), cfg.basis, s);
    cx.mg.host_compute(30.0 * (cfg.m * cfg.m * cfg.m) as f64, 0.0);
    cx.stats.t_small += ph.end(cx.mg);
    Ok((cycle, shifts, spec))
}

/// Run GMRES(m) on a loaded [`System`]: the crate's one restart loop
/// (`cycle::Solve::run`) with a standard cycle in every restart. The iterate
/// starts from whatever `x` currently holds (zero after
/// [`System::load_rhs`]). An `m` outside `1..=sys.m` or an `rtol` that is
/// not a number `>= 0` runs nothing and returns
/// [`BreakdownKind::InvalidInput`].
pub fn gmres(mg: &mut MultiGpu, sys: &System, cfg: &GmresConfig) -> GmresOutcome {
    let GmresConfig { m, orth: borth, rtol, max_restarts } = *cfg;
    let orth = OrthConfig { borth, ..OrthConfig::default() };
    let solver = CaGmresConfig { s: 1, m, orth, rtol, max_restarts, ..CaGmresConfig::default() };
    if let Some(reason) = invalid(&solver, Some(sys)) {
        return GmresOutcome { stats: SolveStats::invalid(reason), first_hessenberg: None };
    }

    mg.sync();
    mg.reset_counters();
    let t_begin = mg.time();
    let mut sv = Solve::new(mg, Sys::Borrowed(sys), &solver, 1);
    sv.standard = true;
    let ran = sv.run(&mut NoGuard);
    let Solve { mg, mut stats, first_hessenberg, .. } = sv;
    if let Err(e) = ran {
        // a simulated hardware fault aborted the solve: report it as a
        // breakdown so every caller sees a well-formed outcome
        stats.breakdown = Some(BreakdownKind::from(e));
    }

    mg.sync();
    stats.t_total = mg.time() - t_begin;
    let c = mg.counters();
    stats.comm_msgs = c.total_msgs();
    stats.comm_bytes = c.total_bytes();
    stats.debug_check_phases();
    GmresOutcome { stats, first_hessenberg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{prepare, Layout, Ordering};
    use ca_sparse::gen::{convection_diffusion, laplace2d};
    use ca_sparse::perm::unpermute_vec;
    use ca_sparse::Csr;

    fn solve_and_check(a: &Csr, ndev: usize, cfg: &GmresConfig) -> (Vec<f64>, SolveStats) {
        let n = a.nrows();
        let layout = Layout::even(n, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let sys = System::new(&mut mg, a, layout, cfg.m, None).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; n];
        ca_sparse::spmv::spmv(a, &x_true, &mut b);
        sys.load_rhs(&mut mg, &b).unwrap();
        let out = gmres(&mut mg, &sys, cfg);
        let x = sys.download_x(&mut mg).unwrap();
        // verify the residual claim independently on the host
        let mut r = vec![0.0; n];
        ca_sparse::spmv::spmv(a, &x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let relres = ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(&b);
        assert!(relres <= cfg.rtol * 1.01, "host-verified relres {relres} exceeds {}", cfg.rtol);
        (x, out.stats)
    }

    #[test]
    fn converges_on_laplace_mgs() {
        let a = laplace2d(12, 12);
        let cfg = GmresConfig { m: 30, orth: BorthKind::Mgs, rtol: 1e-6, max_restarts: 200 };
        let (_, stats) = solve_and_check(&a, 2, &cfg);
        assert!(stats.converged);
        assert!(stats.total_iters > 0);
    }

    #[test]
    fn converges_on_laplace_cgs_three_devices() {
        let a = laplace2d(12, 12);
        let cfg = GmresConfig { m: 30, orth: BorthKind::Cgs, rtol: 1e-6, max_restarts: 200 };
        let (_, stats) = solve_and_check(&a, 3, &cfg);
        assert!(stats.converged);
    }

    #[test]
    fn converges_on_nonsymmetric() {
        let a = convection_diffusion(10, 10, 3.0);
        let cfg = GmresConfig { m: 25, orth: BorthKind::Cgs, rtol: 1e-8, max_restarts: 300 };
        let (_, stats) = solve_and_check(&a, 2, &cfg);
        assert!(stats.converged);
    }

    #[test]
    fn device_count_does_not_change_iteration_path_much() {
        // identical arithmetic order per row => identical convergence
        let a = laplace2d(10, 10);
        let cfg = GmresConfig { m: 20, orth: BorthKind::Mgs, rtol: 1e-6, max_restarts: 100 };
        let (x1, s1) = solve_and_check(&a, 1, &cfg);
        let (x2, s2) = solve_and_check(&a, 3, &cfg);
        assert_eq!(s1.total_iters, s2.total_iters);
        for i in 0..x1.len() {
            assert!((x1[i] - x2[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn works_with_reordered_matrix() {
        let a = laplace2d(9, 9);
        let (b_mat, perm, layout) = prepare(&a, Ordering::Kway, 2);
        let n = a.nrows();
        let mut mg = MultiGpu::with_defaults(2);
        let sys = System::new(&mut mg, &b_mat, layout, 30, None).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut b = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x_true, &mut b);
        let bp = ca_sparse::perm::permute_vec(&b, &perm);
        sys.load_rhs(&mut mg, &bp).unwrap();
        let cfg = GmresConfig { m: 30, orth: BorthKind::Cgs, rtol: 1e-8, max_restarts: 200 };
        let out = gmres(&mut mg, &sys, &cfg);
        assert!(out.stats.converged);
        let xp = sys.download_x(&mut mg).unwrap();
        let x = unpermute_vec(&xp, &perm);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-5, "x[{i}] = {} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn first_hessenberg_captured_with_correct_shape() {
        let a = laplace2d(8, 8);
        let layout = Layout::even(64, 1);
        let mut mg = MultiGpu::with_defaults(1);
        let sys = System::new(&mut mg, &a, layout, 10, None).unwrap();
        let b = vec![1.0; 64];
        sys.load_rhs(&mut mg, &b).unwrap();
        let cfg = GmresConfig { m: 10, orth: BorthKind::Mgs, rtol: 1e-12, max_restarts: 3 };
        let out = gmres(&mut mg, &sys, &cfg);
        let h = out.first_hessenberg.unwrap();
        assert_eq!(h.nrows(), h.ncols() + 1);
        assert!(h.ncols() >= 1);
        // Hessenberg: subdiagonal positive (norms)
        for j in 0..h.ncols() {
            assert!(h[(j + 1, j)] > 0.0);
        }
    }

    #[test]
    fn residual_norm_monotone_within_cycle() {
        // GMRES guarantee: the LSQ residual never increases inside a cycle.
        // (Checked implicitly by GivensLsq tests; here end-to-end: final
        // relres <= 1.)
        let a = laplace2d(7, 7);
        let cfg = GmresConfig { m: 49, orth: BorthKind::Mgs, rtol: 1e-10, max_restarts: 5 };
        let (_, stats) = solve_and_check(&a, 2, &cfg);
        assert!(stats.final_relres <= 1.0);
        assert!(stats.converged);
    }

    #[test]
    fn stats_phases_sum_below_total() {
        let a = laplace2d(10, 10);
        let cfg = GmresConfig::default();
        let (_, stats) = solve_and_check(&a, 2, &cfg);
        assert!(stats.t_spmv > 0.0);
        assert!(stats.t_orth > 0.0);
        assert!(stats.t_spmv + stats.t_orth + stats.t_small <= stats.t_total * 1.0001);
    }
}
