//! CA-GMRES(s, m) — the paper's Fig. 2 driver.
//!
//! One restart cycle builds the `m`-dimensional Krylov space in
//! `ceil(m/s)` blocks: each block calls MPK to generate `s` new basis
//! vectors (one inter-device exchange instead of `s`), orthogonalizes them
//! against the previous ones with *BOrth*, orthonormalizes them with
//! *TSQR*, and reconstructs the corresponding Hessenberg columns on the
//! host so the Givens least-squares update proceeds exactly as in standard
//! GMRES. The first restart cycle runs standard GMRES to harvest Ritz
//! values for the Newton-basis shifts (§IV-A). [`ca_gmres`] is the crate's
//! one restart loop (`cycle.rs`) on the caller's system under the plain
//! guard, defined here.

use crate::cycle::{
    gather_block, invalid, Block, Books, CycleEnd, CycleGuard, Redo, Solve, SolveCtx, Sys, Verdict,
};
use crate::health::{throttled, EscalationEvent, EscalationRung};
use crate::mpk::{mpk, spmv_block};
use crate::newton::BasisSpec;
use crate::orth::{OrthConfig, OrthError};
use crate::stats::SolveStats;
use crate::system::System;
use ca_dense::{blas3, Mat};
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;
use ca_obs as obs;
use ca_scalar::Precision;
use obs::Track::Host as HOST;

/// Basis generated by the matrix powers kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisChoice {
    /// `v_{k+1} = A v_k` — unstable for larger `s` (§IV-A); kept for the
    /// conditioning ablation.
    Monomial,
    /// Newton basis with Leja-ordered Ritz shifts from the first restart.
    Newton,
    /// Chebyshev basis on the Ritz-value interval from the first restart
    /// (Hoemmen ch. 7's other stable choice; real spectra).
    Chebyshev,
}

/// Which kernel generates the basis vectors. The Fig. 15 choice — "if SpMV
/// is faster than MPK, then CA-GMRES uses SpMV" — is made before the solve,
/// where the matrix lives: [`crate::mpk::fastest_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The matrix powers kernel.
    Mpk,
    /// `s` plain SpMVs (still blocked orthogonalization).
    Spmv,
}

/// CA-GMRES configuration.
#[derive(Debug, Clone, Copy)]
pub struct CaGmresConfig {
    /// MPK step count (basis vectors per block).
    pub s: usize,
    /// Restart length.
    pub m: usize,
    /// Orthogonalization strategy (TSQR kind, BOrth kind, "2x").
    pub orth: OrthConfig,
    /// Basis choice.
    pub basis: BasisChoice,
    /// Basis generator.
    pub kernel: KernelMode,
    /// Stop when `||r|| <= rtol * ||r_0||` (paper: 1e-4).
    pub rtol: f64,
    /// Bound on restart cycles.
    pub max_restarts: usize,
    /// Record TSQR error norms (Fig. 13 instrumentation) into
    /// [`CaGmresOutcome::tsqr_errors`]; the other entries return none.
    pub capture_tsqr_errors: bool,
    /// Adaptive step size (the \[23\] follow-up the paper cites): when a
    /// block's orthogonalization breaks down, regenerate it at half the
    /// step size and finish the cycle there (the numerical-health ladder's
    /// throttle rung with a floor of 1; the next cycle starts at `s`
    /// again). The fault-tolerant driver throttles through its
    /// [`crate::health::Ladder`] instead.
    pub adaptive_s: bool,
    /// Precision the MPK operator slices (and their halo exchanges) run
    /// at. [`ca_gmres`] does not read this — the [`System`] carries the
    /// precision its MPK state was built with — but the drivers that build
    /// their own system ([`crate::mixed::ca_gmres_mixed`], the
    /// fault-tolerant driver) and the `ca-tune` planner use it to request
    /// the f32 basis + f64 refinement scheme. Everything outside MPK
    /// (residuals, orthogonalization, Hessenberg, the iterate) is always
    /// f64.
    pub mpk_prec: Precision,
}

impl Default for CaGmresConfig {
    fn default() -> Self {
        Self {
            s: 10,
            m: 60,
            orth: OrthConfig::default(),
            basis: BasisChoice::Newton,
            kernel: KernelMode::Mpk,
            rtol: 1e-4,
            max_restarts: 500,
            capture_tsqr_errors: false,
            adaptive_s: false,
            mpk_prec: Precision::F64,
        }
    }
}

/// One TSQR error sample (Fig. 13's three norms).
#[derive(Debug, Clone)]
pub struct TsqrErrorSample {
    /// `||I - Q^T Q||_F`.
    pub orth_err: f64,
    /// `||QR - V||_F / ||V||_F` (V = the TSQR input block).
    pub fact_err: f64,
    /// `max |(V - QR) ./ V|`.
    pub elem_err: f64,
    /// 1 for the first orthogonalization pass, 2 for the "2x" pass.
    pub pass: u8,
    /// Columns in the block.
    pub block_cols: usize,
}

/// CA-GMRES outcome: statistics plus optional Fig. 13 error samples.
#[derive(Debug)]
pub struct CaGmresOutcome {
    /// Solve statistics (Fig. 14 columns), whole solve including the
    /// standard-GMRES first cycle that harvests the Newton shifts.
    pub stats: SolveStats,
    /// Statistics restricted to the CA restart cycles (first cycle
    /// excluded). With few restarts the mandatory standard first cycle
    /// would otherwise dominate the per-restart averages; the paper's
    /// many-restart runs amortize it away, so this is the comparable
    /// quantity. Equal to `stats` when no CA cycle ran.
    pub ca_stats: SolveStats,
    /// TSQR error samples when capture was requested.
    pub tsqr_errors: Vec<TsqrErrorSample>,
    /// Step size of the solve's last basis block (smaller than the
    /// configured `s` when `adaptive_s` throttled the last cycle).
    pub s_final: usize,
}

/// Run CA-GMRES(s, m) on a loaded [`System`], which must have room for
/// `m` basis vectors and carry an MPK state of at least `s` steps unless
/// `kernel == Spmv` or `s == 1`; otherwise nothing runs and
/// `stats.breakdown` is [`BreakdownKind::InvalidInput`](crate::stats::BreakdownKind::InvalidInput).
///
/// The executor's schedule is what times the solve: under the default
/// `Schedule::Barrier` the phase `sync()` calls flatten clocks (clean
/// per-phase attribution), while under `Schedule::EventDriven` they are
/// no-ops and timing follows the stream/event dependency graph — basis
/// generation on one device overlaps reductions and host-side small
/// solves, and the next MPK block's halo exchange is prefetched from
/// inside the current block's TSQR (the Fig. 14 compute–transfer overlap):
/// once TSQR has finalized the block's last basis column — the next
/// block's start vector — the exchange is issued asynchronously and hides
/// under the remaining column updates and the Hessenberg reconstruction.
/// The prefetch needs [`KernelMode::Mpk`], a CAQR-family
/// [`crate::orth::TsqrKind`] (the only TSQR whose final update can reorder
/// columns bitwise-identically) and no orthogonalization checksums; it is
/// speculative, so a solve that converges mid-cycle wastes the exchange it
/// already issued (runs that compare communication counters across the
/// schedules use a fixed iteration budget, `rtol: 0.0`). Arithmetic is
/// issued eagerly in program order either way, so residual histories and
/// iterates are bit-identical between the two schedules; only simulated
/// clocks differ.
pub fn ca_gmres(mg: &mut MultiGpu, sys: &System, cfg: &CaGmresConfig) -> CaGmresOutcome {
    if let Some(reason) = invalid(cfg, Some(sys)) {
        let stats = SolveStats::invalid(reason);
        return CaGmresOutcome {
            ca_stats: stats.clone(),
            stats,
            tsqr_errors: vec![],
            s_final: cfg.s,
        };
    }
    plain_solve(mg, Sys::Borrowed(sys), cfg).0
}

/// The restart loop under the plain guard on `sys`, books closed: the body
/// of [`ca_gmres`] and of [`crate::mixed::ca_gmres_mixed`] (whose owned
/// f32 system may be promoted). Returns the system the solve ended on, when
/// it owns it, and the escalations it took.
pub(crate) fn plain_solve(
    mg: &mut MultiGpu,
    sys: Sys<'_>,
    cfg: &CaGmresConfig,
) -> (CaGmresOutcome, Option<System>, Vec<EscalationEvent>) {
    mg.reset_counters();
    let books = Books::open(mg);
    let mut guard = PlainGuard::new(cfg, matches!(sys, Sys::Owned(..)), books);
    let mut sv = Solve::new(mg, sys, cfg, cfg.s);
    let ran = sv.run(&mut guard);
    let Solve { mg, sys, mut stats, tsqr_errors, .. } = sv;
    if ran.is_err() {
        guard.first = None; // a fault ended the solve: no CA-only split
    }
    books.close(mg, &mut stats, ran);
    let ca_stats = match &guard.first {
        Some(first) if stats.restarts > first.restarts => stats.since(first),
        _ => stats.clone(),
    };
    let tsqr_errors = tsqr_errors.unwrap_or_default();
    let out = CaGmresOutcome { stats, ca_stats, tsqr_errors, s_final: guard.s_last };
    (out, sys.into_owned(), guard.escalations)
}

/// The guard of the plain and mixed-precision solves. In a cycle it acts
/// only on a numerical orthogonalization breakdown: with `adaptive_s` it
/// finishes the cycle at half the block size (the ladder's throttle rung,
/// floor 1); on an f32 basis the solve owns it hands back for promotion
/// (the ladder's Promote rung). At restart boundaries it samples the
/// relative residual and keeps the first cycle's numbers for `ca_stats`.
struct PlainGuard {
    adaptive: bool,
    /// The solve owns its system, so an f32 basis may be promoted.
    may_promote: bool,
    books: Books,
    /// Statistics after the shift-harvest cycle.
    first: Option<SolveStats>,
    /// Block size of the last generated block.
    s_last: usize,
    escalations: Vec<EscalationEvent>,
}

impl PlainGuard {
    fn new(cfg: &CaGmresConfig, may_promote: bool, books: Books) -> Self {
        let (adaptive, s_last) = (cfg.adaptive_s, cfg.s);
        Self { adaptive, may_promote, books, first: None, s_last, escalations: Vec::new() }
    }
}

impl CycleGuard for PlainGuard {
    /// The one hand-back: promote the basis to f64.
    type HandBack = ();

    fn after_generate(&mut self, _: &mut SolveCtx<'_>, blk: &Block<'_>) -> GpuResult<Verdict<()>> {
        self.s_last = blk.s_cycle;
        Ok(Verdict::Accept { reorth: false })
    }

    fn on_block_error(
        &mut self,
        cx: &mut SolveCtx<'_>,
        blk: &Block<'_>,
        err: &OrthError,
    ) -> Option<Redo<()>> {
        if matches!(err, OrthError::Gpu(_)) {
            return None;
        }
        if self.adaptive && blk.s_cycle > 1 {
            let s = throttled(blk.s_cycle, 1);
            let why = format!("{err}; finishing the cycle at s = {s}");
            obs::instant_cause("adaptive_s.halve", HOST, cx.mg.time(), &why);
            return Some(Redo::Throttle(s));
        }
        let f32_basis = cx.sys.mpk.as_ref().is_some_and(|st| st.prec == Precision::F32);
        if !(self.may_promote && f32_basis) {
            return None;
        }
        let (rung, cycle, column, s) = (EscalationRung::Promote, cx.stats.restarts, blk.c0, blk.s);
        // the breakdown is the trigger: no estimate to attach
        let event = EscalationEvent { rung, cycle, column, s, cond_est: f64::INFINITY };
        event.record(&mut self.escalations, cx.mg.time());
        Some(Redo::HandBack(()))
    }

    fn cycle_done(&mut self, sv: &mut Solve<'_>, beta: f64, _implied: f64) -> GpuResult<bool> {
        let relres = if sv.beta0 > 0.0 { beta / sv.beta0 } else { 0.0 };
        obs::sample(obs::names::RELRES, sv.mg.time(), relres);
        if self.first.is_none() {
            self.first = Some(self.books.so_far(sv.mg, &sv.stats));
        }
        Ok(true)
    }

    fn hand_back(&mut self, sv: &mut Solve<'_>, (): ()) -> GpuResult<()> {
        // the iterate on the devices is the last accepted one: a cycle
        // updates `x` only once it is complete
        sv.x_ckpt = sv.sys.download_x(sv.mg)?;
        sv.promote(None, self)
    }
}

/// One CA restart cycle from a residual of norm `beta`, and the explicit
/// residual that closes it: the step [`ca_gmres`]'s restart loop takes
/// after its first cycle — so timing this call times exactly what
/// [`CaGmresOutcome::ca_stats`] averages. The block size is `spec.s()`;
/// `cfg` supplies `m`, the orthogonalization, the generator and
/// `adaptive_s`; blocks stop early once the implicit
/// residual reaches `target`. Returns the Krylov dimensions the update
/// used (0: no progress possible); restarts, iterations and phase seconds
/// accumulate into `stats`. A single cycle opens no books.
///
/// On a cost-only machine this charges the cycle without computing it:
/// pass a positive `beta` and a negative `target`, and all `cfg.m` columns
/// run whatever the neutral kernel values are.
///
/// # Errors
/// The orthogonalization failure that ended the cycle, `x` untouched; a
/// simulated fault as [`OrthError::Gpu`].
pub fn ca_cycle(
    mg: &mut MultiGpu,
    sys: &System,
    cfg: &CaGmresConfig,
    spec: &BasisSpec,
    (beta, target): (f64, f64),
    stats: &mut SolveStats,
) -> Result<usize, OrthError> {
    let mut sv = Solve::new(mg, Sys::Borrowed(sys), cfg, spec.s());
    (sv.spec_full, sv.harvested, sv.beta) = (spec.clone(), true, beta);
    sv.stats = std::mem::take(stats);
    let mut guard = PlainGuard::new(cfg, false, Books::default());
    let end = sv.cycle(target, &mut guard).map_err(OrthError::Gpu).and_then(|end| match end {
        CycleEnd::Done { y, span, .. } => {
            sv.end_cycle(span).map(|_| y.len()).map_err(OrthError::Gpu)
        }
        CycleEnd::OrthFailed { err, .. } => Err(err),
        CycleEnd::HandBack(()) => unreachable!("a borrowed system is never promoted"),
    });
    *stats = sv.stats;
    end
}

/// Instrumentation probe for Fig. 12's kappa(B) column and the
/// monomial-vs-Newton ablation: seed the basis from the residual, run one
/// full MPK block, and return the 2-norm condition number of the block's
/// Gram matrix (computed on the host; the device state is left dirty, so
/// probe before solving or on a scratch system). The block starts from
/// `b / ||b||` only when `x = 0`, as right after [`System::load_rhs`].
///
/// # Errors
/// Propagates simulated faults ([`ca_gpusim::GpuSimError`]).
pub fn probe_gram_condition(mg: &mut MultiGpu, sys: &System, spec: &BasisSpec) -> GpuResult<f64> {
    let beta = sys.residual_norm(mg)?;
    sys.seed_basis(mg, beta)?;
    match (&sys.mpk, spec.s()) {
        (Some(st), s) if s > 1 => {
            mpk(mg, st, &sys.v, 0, spec)?;
        }
        _ => spmv_block(mg, &sys.spmv, &sys.v, 0, spec)?,
    }
    let s = spec.s();
    let v = gather_block(mg, sys, 0, s + 1);
    let mut gram = Mat::zeros(s + 1, s + 1);
    blas3::gemm_tn(1.0, &v, &v, 0.0, &mut gram);
    Ok(ca_dense::chol::condition_number_sym(&gram))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::newton::newton_shifts_from_hessenberg;
    use crate::orth::{BorthKind, TsqrKind};
    use ca_sparse::gen::{convection_diffusion, laplace2d};
    use ca_sparse::Csr;

    fn run(a: &Csr, ndev: usize, cfg: &CaGmresConfig) -> (Vec<f64>, CaGmresOutcome, Vec<f64>) {
        let n = a.nrows();
        let layout = Layout::even(n, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let sys = System::new(&mut mg, a, layout, cfg.m, Some(cfg.s)).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
        let mut b = vec![0.0; n];
        ca_sparse::spmv::spmv(a, &x_true, &mut b);
        sys.load_rhs(&mut mg, &b).unwrap();
        let out = ca_gmres(&mut mg, &sys, cfg);
        let x = sys.download_x(&mut mg).unwrap();
        (x, out, b)
    }

    fn verify_residual(a: &Csr, x: &[f64], b: &[f64], rtol: f64) {
        let mut r = vec![0.0; b.len()];
        ca_sparse::spmv::spmv(a, x, &mut r);
        for i in 0..b.len() {
            r[i] = b[i] - r[i];
        }
        let relres = ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(b);
        assert!(relres <= rtol * 1.01, "relres {relres} > {rtol}");
    }

    fn base_cfg() -> CaGmresConfig {
        CaGmresConfig { s: 5, m: 20, rtol: 1e-6, max_restarts: 300, ..Default::default() }
    }

    #[test]
    fn converges_with_cholqr_newton() {
        let a = laplace2d(12, 12);
        let cfg = base_cfg();
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged, "breakdown: {:?}", out.stats.breakdown);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn converges_with_every_tsqr_kind() {
        let a = laplace2d(10, 10);
        for kind in [TsqrKind::Mgs, TsqrKind::Cgs, TsqrKind::CholQr, TsqrKind::SvQr, TsqrKind::Caqr]
        {
            let mut cfg = base_cfg();
            cfg.orth.tsqr = kind;
            cfg.orth.reorth = matches!(kind, TsqrKind::Cgs);
            let (x, out, b) = run(&a, 3, &cfg);
            assert!(out.stats.converged, "{kind}: {:?}", out.stats.breakdown);
            verify_residual(&a, &x, &b, cfg.rtol);
        }
    }

    #[test]
    fn converges_with_mgs_borth() {
        let a = laplace2d(10, 10);
        let mut cfg = base_cfg();
        cfg.orth.borth = BorthKind::Mgs;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn converges_on_nonsymmetric_with_complex_shifts() {
        // convection-dominated => complex Ritz values => exercises the
        // fused conjugate-pair steps end to end
        let a = convection_diffusion(12, 12, 4.0);
        let mut cfg = base_cfg();
        cfg.s = 6;
        cfg.m = 24;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn spmv_kernel_mode_matches_mpk_solution() {
        let a = laplace2d(9, 9);
        let mut cfg = base_cfg();
        cfg.kernel = KernelMode::Mpk;
        let (x1, o1, _) = run(&a, 2, &cfg);
        cfg.kernel = KernelMode::Spmv;
        let (x2, o2, _) = run(&a, 2, &cfg);
        assert!(o1.stats.converged && o2.stats.converged);
        assert_eq!(o1.stats.total_iters, o2.stats.total_iters, "same arithmetic path");
        for i in 0..x1.len() {
            assert!((x1[i] - x2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn s_equal_one_runs_block_kernels() {
        let a = laplace2d(8, 8);
        let mut cfg = base_cfg();
        cfg.s = 1;
        cfg.m = 16;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn m_not_multiple_of_s_short_final_block() {
        // (s, m) = (8, 20): blocks of 8, 8, 4 — mirrors the paper's
        // (20, 30) remark about a short second block
        let a = laplace2d(10, 10);
        let mut cfg = base_cfg();
        cfg.s = 8;
        cfg.m = 20;
        let (x, out, b) = run(&a, 3, &cfg);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn adaptive_s_survives_monomial_cholqr() {
        // same distress setup as below, but adaptive_s halves s on
        // breakdown instead of aborting — the [23] adaptive scheme
        let a = laplace2d(16, 16);
        let mut cfg = base_cfg();
        cfg.s = 20;
        cfg.m = 40;
        cfg.basis = BasisChoice::Monomial;
        cfg.orth.tsqr = TsqrKind::CholQr;
        cfg.adaptive_s = true;
        cfg.rtol = 1e-8;
        cfg.max_restarts = 100;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.breakdown.is_none(), "{:?}", out.stats.breakdown);
        assert!(out.stats.converged);
        assert!(out.s_final < 20, "s should have been reduced, got {}", out.s_final);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn chebyshev_basis_converges_and_conditions_well() {
        let a = laplace2d(12, 12);
        let mut cfg = base_cfg();
        cfg.basis = BasisChoice::Chebyshev;
        cfg.s = 8;
        cfg.m = 24;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        verify_residual(&a, &x, &b, cfg.rtol);
        // conditioning probe: Chebyshev far better than monomial for SPD
        let n = a.nrows();
        let layout = Layout::even(n, 1);
        let mut mg = MultiGpu::with_defaults(1);
        let sys = System::new(&mut mg, &a, layout, 24, Some(12)).unwrap();
        let bb = vec![1.0; n];
        sys.load_rhs(&mut mg, &bb).unwrap();
        let k_mono = probe_gram_condition(&mut mg, &sys, &BasisSpec::monomial(12)).unwrap();
        sys.load_rhs(&mut mg, &bb).unwrap();
        // laplace2d spectrum is in (0, 8)
        let k_cheb =
            probe_gram_condition(&mut mg, &sys, &BasisSpec::chebyshev(4.0, 4.0, 12)).unwrap();
        assert!(
            k_cheb < k_mono / 1e3,
            "Chebyshev kappa {k_cheb:e} not well below monomial {k_mono:e}"
        );
    }

    #[test]
    fn fused_cgs_converges_like_cgs() {
        let a = laplace2d(10, 10);
        let mut cfg = base_cfg();
        cfg.orth.tsqr = TsqrKind::CgsFused;
        cfg.orth.reorth = true;
        let (x, out, b) = run(&a, 2, &cfg);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        verify_residual(&a, &x, &b, cfg.rtol);
    }

    #[test]
    fn monomial_cholqr_breaks_down_at_large_s() {
        // the §V-C failure mode: monomial basis conditioning squares in
        // the Gram matrix and CholQR's Cholesky hits a negative pivot
        let a = laplace2d(16, 16);
        let mut cfg = base_cfg();
        cfg.s = 20;
        cfg.m = 40;
        cfg.basis = BasisChoice::Monomial;
        cfg.orth.tsqr = TsqrKind::CholQr;
        cfg.rtol = 1e-10; // force many cycles
        cfg.max_restarts = 50;
        let (_, out, _) = run(&a, 1, &cfg);
        assert!(
            out.stats.breakdown.is_some() || !out.stats.converged,
            "expected monomial+CholQR distress at s=20"
        );
    }

    #[test]
    fn newton_basis_better_conditioned_than_monomial() {
        let a = laplace2d(14, 14);
        let n = a.nrows();
        let s = 12;
        let layout = Layout::even(n, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let sys = System::new(&mut mg, &a, layout, 24, Some(s)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        sys.load_rhs(&mut mg, &b).unwrap();
        let kappa_mono = probe_gram_condition(&mut mg, &sys, &BasisSpec::monomial(s)).unwrap();
        // get actual Ritz shifts by running a quick GMRES cycle
        let out = crate::gmres::gmres(
            &mut mg,
            &sys,
            &crate::gmres::GmresConfig {
                m: 24,
                rtol: 1e-30,
                max_restarts: 1,
                ..Default::default()
            },
        );
        let h = out.first_hessenberg.unwrap();
        let shifts = newton_shifts_from_hessenberg(&h, s).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        let kappa_newton =
            probe_gram_condition(&mut mg, &sys, &BasisSpec::newton(&shifts, s)).unwrap();
        assert!(
            kappa_newton < kappa_mono / 10.0,
            "Newton kappa {kappa_newton:e} not ≪ monomial kappa {kappa_mono:e}"
        );
    }

    #[test]
    fn tsqr_error_capture_populates() {
        let a = laplace2d(8, 8);
        let mut cfg = base_cfg();
        cfg.capture_tsqr_errors = true;
        cfg.orth.reorth = true;
        let (_, out, _) = run(&a, 2, &cfg);
        assert!(!out.tsqr_errors.is_empty());
        assert!(out.tsqr_errors.iter().any(|e| e.pass == 2));
        for e in &out.tsqr_errors {
            assert!(e.orth_err < 1e-8, "orth err {}", e.orth_err);
            assert!(e.fact_err < 1e-10, "fact err {}", e.fact_err);
        }
    }

    #[test]
    fn ca_gmres_uses_fewer_messages_than_gmres() {
        let a = laplace2d(24, 24);
        let n = a.nrows();
        let mk = |s: Option<usize>| {
            let layout = Layout::even(n, 3);
            let mut mg = MultiGpu::with_defaults(3);
            let sys = System::new(&mut mg, &a, layout, 20, s).unwrap();
            let b = vec![1.0; n];
            sys.load_rhs(&mut mg, &b).unwrap();
            (mg, sys)
        };
        let (mut mg1, sys1) = mk(None);
        let g = crate::gmres::gmres(
            &mut mg1,
            &sys1,
            &crate::gmres::GmresConfig {
                m: 20,
                rtol: 1e-8,
                max_restarts: 200,
                ..Default::default()
            },
        );
        let (mut mg2, sys2) = mk(Some(10));
        let cfg =
            CaGmresConfig { s: 10, m: 20, rtol: 1e-8, max_restarts: 200, ..Default::default() };
        let c = ca_gmres(&mut mg2, &sys2, &cfg);
        assert!(g.stats.converged && c.stats.converged);
        assert!(c.stats.restarts > 2, "need CA cycles beyond the standard first one");
        let g_per_iter = g.stats.comm_msgs as f64 / g.stats.total_iters as f64;
        let c_per_iter = c.stats.comm_msgs as f64 / c.stats.total_iters as f64;
        assert!(c_per_iter < g_per_iter, "CA {c_per_iter:.1} msgs/iter vs GMRES {g_per_iter:.1}");
    }
}
