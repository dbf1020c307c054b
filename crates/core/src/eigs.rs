//! Restarted Arnoldi eigensolver on the CA substrate — the paper's closing
//! claim made concrete: "both SpMV and Orth are needed in many solvers
//! (e.g., subspace projection methods for linear and eigenvalue problems).
//! Hence, our studies may have greater impact beyond GMRES."
//!
//! [`arnoldi_eigs`] finds the dominant eigenvalues of `A` with explicitly
//! restarted Arnoldi on the solvers' restart loop (`cycle::Solve::run`):
//! the first cycle is the standard one that harvests the Newton shifts
//! (`gmres::harvest_cycle`), every later one a CA cycle whose Hessenberg
//! matrix the eigensolver's guard takes back before the least-squares
//! solve, so no update is applied. Ritz pairs come from that matrix, and
//! the next cycle restarts from the dominant Ritz vectors, seeded from the
//! residual column as a GMRES cycle seeds from its residual.

use crate::cagmres::{BasisChoice, CaGmresConfig, KernelMode};
use crate::cycle::{invalid, Block, CycleGuard, CycleState, Redo, Solve, SolveCtx, Sys};
use crate::newton::BasisSpec;
use crate::orth::{OrthConfig, OrthError};
use crate::stats::{BreakdownKind, SolveStats};
use crate::system::System;
use ca_dense::hessenberg::{hessenberg_eigenvalues, Complex};
use ca_dense::{blas1, blas2, qr, Mat};
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;
use ca_obs as obs;

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
    /// The `nev` dominant Ritz pairs, by descending modulus (fewer when the
    /// start vector's Krylov space has fewer dimensions).
    pub pairs: Vec<RitzPair>,
    /// `converged` when all requested pairs met the tolerance, `restarts`
    /// the cycles that ran to their end or were retried; the clock and
    /// traffic cover the whole eigensolve. `breakdown` is `InvalidInput`
    /// when no cycle ran, or `Orthogonalization` when a cycle on the
    /// monomial basis failed, which no retry from the same start can change.
    pub stats: SolveStats,
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
        let nrm = blas1::nrm2(&rhs).max(f64::MIN_POSITIVE);
        y = rhs.iter().map(|v| v / nrm).collect();
    }
    y
}

/// The `cfg.nev` dominant Ritz pairs of the `(k+1) x k` Hessenberg matrix
/// `h` (fewer when `k < nev`: an invariant Krylov space), whether `nev` of
/// them were found and all met the tolerance, and the coefficients of the
/// basis columns the next cycle restarts from; `None` when `h` has no
/// column or its eigensolve fails.
fn ritz_pairs(h: &Mat, cfg: &ArnoldiConfig) -> Option<(Vec<RitzPair>, bool, Vec<f64>)> {
    let mm = h.ncols();
    if mm == 0 {
        return None;
    }
    let hsq = h.top_left(mm, mm);
    let h_sub = h[(mm, mm - 1)];
    let mut eigs = hessenberg_eigenvalues(&hsq).ok()?;
    eigs.sort_by(|a, b| {
        let (ma, mb) = (a.0 * a.0 + a.1 * a.1, b.0 * b.0 + b.1 * b.1);
        mb.total_cmp(&ma)
    });

    let (mut pairs, mut converged, mut restart) = (Vec::new(), true, vec![0.0; mm]);
    for (i, &(re, im)) in eigs.iter().take(cfg.nev).enumerate() {
        let y = ritz_vector(&hsq, re);
        let modulus = (re * re + im * im).sqrt().max(f64::MIN_POSITIVE);
        let rel = (h_sub * y[mm - 1]).abs() / modulus;
        pairs.push(RitzPair { value: (re, im), rel_residual: rel });
        converged &= rel <= cfg.tol;
        // restart direction: weight unconverged pairs heavily so the
        // explicit restart keeps refining the laggards, with a floor that
        // preserves the converged components (they must stay in the space
        // or their Ritz values drift away again)
        let w = (rel / cfg.tol).clamp(0.3, 100.0) / (1.0 + i as f64).sqrt();
        for (rc, &yv) in restart.iter_mut().zip(&y) {
            *rc += w * yv;
        }
    }
    converged &= pairs.len() == cfg.nev;
    Some((pairs, converged, restart))
}

/// The eigensolver's guard: every cycle closes on its Ritz pairs
/// ([`RitzGuard::restart`]) instead of a residual — a CA cycle hands its
/// Hessenberg matrix back before the least-squares solve, the harvest
/// cycle's is read at the boundary.
struct RitzGuard<'c> {
    cfg: &'c ArnoldiConfig,
    /// The last Ritz pairs extracted.
    pairs: Vec<RitzPair>,
}

impl RitzGuard<'_> {
    /// The norm the next cycle starts from, given the Hessenberg matrix `h`
    /// of a usable Arnoldi relation: 0 once its Ritz pairs converged (the
    /// loop's target), else that of the restart vector written into the
    /// residual column. A failed extraction retries on the monomial basis.
    fn restart(&mut self, sv: &mut Solve<'_>, h: Option<Mat>) -> GpuResult<f64> {
        let Some((found, converged, c)) = h.and_then(|h| ritz_pairs(&h, self.cfg)) else {
            sv.spec_full = BasisSpec::monomial(self.cfg.s);
            return Ok(sv.beta);
        };
        self.pairs = found;
        if converged {
            return Ok(0.0);
        }
        restart_vector(sv.mg, &sv.sys, &c)
    }
}

impl CycleGuard for RitzGuard<'_> {
    /// The CA cycle's Hessenberg matrix (`None`: a numerical failure).
    type HandBack = Option<Mat>;
    const FLATTEN: bool = true;

    fn on_block_error(
        &mut self,
        _: &mut SolveCtx<'_>,
        blk: &Block<'_>,
        err: &OrthError,
    ) -> Option<Redo<Option<Mat>>> {
        // retry the cycle on the monomial basis; on it already, a retry
        // from the same start changes nothing and the loop types the failure
        let retry = !matches!(err, OrthError::Gpu(_)) && *blk.spec != BasisSpec::monomial(blk.s);
        retry.then_some(Redo::HandBack(None))
    }

    fn block_done(
        &mut self,
        _: &mut SolveCtx<'_>,
        st: &CycleState,
        more: bool,
    ) -> Option<Option<Mat>> {
        (!more).then(|| Some(st.arn.to_mat()))
    }

    fn close(&mut self, sv: &mut Solve<'_>, _: obs::SpanId) -> GpuResult<f64> {
        // the harvest cycle: a breakdown cut its Arnoldi relation short
        let h = sv.first_hessenberg.take();
        let h = if sv.stats.breakdown.take().is_none() { h } else { None };
        self.restart(sv, h)
    }

    fn hand_back(&mut self, sv: &mut Solve<'_>, h: Option<Mat>) -> GpuResult<()> {
        sv.stats.restarts += 1;
        sv.beta = self.restart(sv, h)?;
        Ok(())
    }
}

/// Write the restart vector `V c / ||c||` into the residual column, which
/// the next cycle seeds its basis from, and return its norm (one up to
/// rounding; the seed normalizes it exactly).
fn restart_vector(mg: &mut MultiGpu, sys: &System, c: &[f64]) -> GpuResult<f64> {
    let (rc, mm) = (sys.r_col(), c.len());
    let nrm = blas1::nrm2(c).max(f64::MIN_POSITIVE);
    let neg: Vec<f64> = c.iter().map(|v| -v / nrm).collect();
    mg.broadcast(8 * mm)?;
    mg.run(|d, dev| {
        dev.scal_col(sys.v[d], rc, 0.0);
        dev.gemv_n_update(sys.v[d], 0, mm, &neg, rc);
    });
    let parts = mg.run_map(|d, dev| dev.norm2_sq_col(sys.v[d], rc));
    mg.to_host(&vec![8; parts.len()])?;
    Ok(parts.iter().sum::<f64>().sqrt().max(f64::MIN_POSITIVE))
}

/// Find the `cfg.nev` dominant eigenvalues of the operator held by `sys`
/// (the matrix loaded into its SpMV/MPK plans), starting from the residual
/// `b - A x`: the `b` of [`System::load_rhs`], which zeroes `x`. The
/// iterate is scratch afterwards. What [`crate::cagmres::ca_gmres`] cannot
/// run on `sys` (with the MPK plan it carries, if any), `nev` outside
/// `1..m`, or a start residual that is zero (it spans no Krylov space) or
/// not finite runs no cycle: `breakdown` is `InvalidInput` and
/// `final_relres` NaN. A cycle whose orthogonalization or Ritz extraction
/// fails is retried from the same start on the monomial basis, and the
/// budget counts the retry; an orthogonalization failure on the monomial
/// basis, which no retry can change, ends the eigensolve with an
/// `Orthogonalization` breakdown.
/// # Errors
/// Propagates simulated hardware faults ([`ca_gpusim::GpuSimError`]).
pub fn arnoldi_eigs(
    mg: &mut MultiGpu,
    sys: &System,
    cfg: &ArnoldiConfig,
) -> GpuResult<EigsOutcome> {
    let solver = CaGmresConfig {
        s: cfg.s,
        m: cfg.m,
        orth: cfg.orth,
        // at s = 1 Newton shifts cost restarts and save nothing
        basis: if cfg.s > 1 { BasisChoice::Newton } else { BasisChoice::Monomial },
        kernel: if sys.mpk.is_some() { KernelMode::Mpk } else { KernelMode::Spmv },
        // a Ritz test ends the loop: `restart` closes a converged cycle at 0
        rtol: 0.0,
        max_restarts: cfg.max_restarts,
        ..CaGmresConfig::default()
    };
    let nev_invalid = (cfg.nev == 0 || cfg.nev >= cfg.m)
        .then(|| format!("need 1 <= nev < m, got nev = {}, m = {}", cfg.nev, cfg.m));
    if let Some(reason) = invalid(&solver, Some(sys)).or(nev_invalid) {
        return Ok(EigsOutcome { pairs: Vec::new(), stats: SolveStats::invalid(reason) });
    }
    mg.sync();
    mg.reset_counters();
    let t_begin = mg.time();
    let mut guard = RitzGuard { cfg, pairs: Vec::new() };
    let mut sv = Solve::new(mg, Sys::Borrowed(sys), &solver, cfg.s);
    sv.run(&mut guard)?;
    let Solve { mg, mut stats, beta0, .. } = sv;
    if beta0 == 0.0 {
        let reason = "the start vector is zero".into();
        (stats.converged, stats.breakdown) = (false, Some(BreakdownKind::InvalidInput { reason }));
    }
    // a refused start ran no cycle; a Ritz test, not a residual, ends the rest
    stats.final_relres = if beta0 == 0.0 || !beta0.is_finite() { f64::NAN } else { 0.0 };
    stats.close(mg, t_begin);
    stats.debug_check_phases();
    Ok(EigsOutcome { pairs: guard.pairs, stats })
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
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i * 3) % 7) as f64 * 0.3).collect();
        run_eigs_from(a, ndev, cfg, &b)
    }

    fn run_eigs_from(
        a: &ca_sparse::Csr,
        ndev: usize,
        cfg: &ArnoldiConfig,
        b: &[f64],
    ) -> EigsOutcome {
        run_eigs_on(MultiGpu::with_defaults(ndev), a, cfg, b)
    }

    fn run_eigs_on(
        mut mg: MultiGpu,
        a: &ca_sparse::Csr,
        cfg: &ArnoldiConfig,
        b: &[f64],
    ) -> EigsOutcome {
        let layout = Layout::even(a.nrows(), mg.n_gpus());
        let sys = System::new(&mut mg, a, layout, cfg.m, Some(cfg.s)).unwrap();
        sys.load_rhs(&mut mg, b).unwrap();
        arnoldi_eigs(&mut mg, &sys, cfg).unwrap()
    }

    #[test]
    fn eigensolves_keep_their_bits() {
        // the dominant Ritz value and residual, restarts, iterations and
        // traffic of two solves, pinned to the bit
        let d = ArnoldiConfig::default();
        let cases = [
            (
                gen::laplace2d(12, 12),
                2,
                ArnoldiConfig { m: 24, s: 6, ..d },
                (0x401f88fa49829e6e, 0x3db17047b85d09c8, 3, 72, 398, 64_672),
            ),
            (
                gen::convection_diffusion(12, 12, 2.0),
                3,
                ArnoldiConfig { m: 20, s: 5, tol: 1e-7, ..d },
                (0x402a3827de862480, 0x3e3f4ac1a1882529, 5, 100, 675, 128_880),
            ),
        ];
        for (a, ndev, cfg, want) in cases {
            let out = run_eigs(&a, ndev, &cfg);
            let (st, p) = (&out.stats, &out.pairs[0]);
            let got = (p.value.0.to_bits(), p.rel_residual.to_bits());
            let got = (got.0, got.1, st.restarts, st.total_iters, st.comm_msgs, st.comm_bytes);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_two_dimensional_krylov_space_gives_its_exact_eigenvalue() {
        // diag(1, 3, 1, 3, ...) from b = 1: the Krylov space has two
        // dimensions, so the harvest cycle's third Arnoldi step is a lucky
        // breakdown and its Hessenberg matrix holds λ = 3 exactly
        let n = 64;
        let mut a = ca_sparse::Csr::identity(n);
        for (i, v) in a.values_mut().iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0 } else { 3.0 };
        }
        let cfg = ArnoldiConfig { m: 8, s: 4, max_restarts: 20, ..Default::default() };
        let out = run_eigs_from(&a, 2, &cfg, &vec![1.0; n]);
        let st = &out.stats;
        assert!(st.converged && st.breakdown.is_none(), "{st:?}");
        assert_eq!(st.restarts, 1, "the harvest cycle converges");
        assert_eq!(out.pairs[0].value, (3.0, 0.0));
        assert_eq!(out.pairs[0].rel_residual, 0.0);
    }

    #[test]
    fn a_failure_on_the_monomial_basis_ends_in_a_typed_breakdown() {
        // every Gram matrix pulled exactly singular: the Newton cycle fails,
        // its retry on the monomial basis fails the same way, and a retry
        // from the same start could change nothing
        let a = gen::laplace2d(12, 12);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i * 3) % 7) as f64 * 0.3).collect();
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(ca_gpusim::FaultPlan::new(1).with_gram_nudge(1.0, 1.0));
        let out = run_eigs_on(mg, &a, &ArnoldiConfig { m: 24, s: 6, ..Default::default() }, &b);
        let st = &out.stats;
        assert!(
            matches!(st.breakdown, Some(BreakdownKind::Orthogonalization { column: 0, .. })),
            "{:?}",
            st.breakdown
        );
        assert!(!st.converged);
        assert_eq!(st.restarts, 2, "the harvest cycle and the Newton cycle, then no retry");
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
        assert!(out.stats.converged, "restarts {}", out.stats.restarts);
        let (re, im) = out.pairs[0].value;
        assert!(im.abs() < 1e-8);
        assert!((re - exact).abs() < 1e-6 * exact, "{re} vs exact {exact}");
    }

    #[test]
    fn matches_power_iteration_on_nonsymmetric() {
        let a = gen::convection_diffusion(12, 12, 2.0);
        let reference = dominant_eig_reference(&a, 3000);
        let out = run_eigs(&a, 3, &ArnoldiConfig { m: 20, s: 5, tol: 1e-7, ..Default::default() });
        assert!(out.stats.converged);
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
        assert!(out.stats.converged);
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
        assert!(o1.stats.converged && o2.stats.converged);
        assert!((o1.pairs[0].value.0 - o2.pairs[0].value.0).abs() < 1e-7);
    }

    #[test]
    fn reorth_adds_a_second_orthogonalization_pass_to_every_block() {
        // a fixed budget (the tolerance is never met): the harvest cycle
        // and two CA cycles of three blocks each
        let a = gen::laplace2d(9, 9);
        let tol = f64::MIN_POSITIVE;
        let cfg = ArnoldiConfig { m: 18, s: 6, tol, max_restarts: 3, ..Default::default() };
        let once = run_eigs(&a, 2, &cfg);
        let orth = OrthConfig { reorth: true, ..cfg.orth };
        let twice = run_eigs(&a, 2, &ArnoldiConfig { orth, ..cfg });
        assert_eq!((once.stats.restarts, twice.stats.restarts), (3, 3));
        assert!(
            twice.stats.comm_msgs > once.stats.comm_msgs,
            "reorth {} msgs, single pass {}",
            twice.stats.comm_msgs,
            once.stats.comm_msgs
        );
        assert!((once.pairs[0].value.0 - twice.pairs[0].value.0).abs() < 1e-8);
    }
}
