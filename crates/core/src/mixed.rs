//! Mixed-precision CA-GMRES: f32 basis generation, f64 refinement.
//!
//! The expensive part of a CA-GMRES cycle — the matrix powers kernel and
//! its halo exchange — runs in single precision: the operator slices are
//! stored as f32, the MPK steps compute genuine f32 arithmetic, and every
//! halo element crosses PCIe as 4 bytes instead of 8 (half the bandwidth
//! bill on the solver's dominant traffic). Everything that decides
//! *convergence* stays in double precision: Gram matrices, BOrth, TSQR,
//! the Hessenberg least-squares recurrence, the iterate update, and the
//! explicit residual `b - A x` recomputed with the f64 s = 1 plan at every
//! restart boundary. The restart loop is therefore iterative refinement:
//! each cycle solves a correction equation with an f32-accurate Krylov
//! basis but anchors the next cycle at the true f64 residual, so the
//! attainable accuracy is set by the f64 anchor, not the f32 basis — the
//! basis precision only bounds how much one cycle can reduce the residual.
//!
//! The failure mode f32 adds is *conditioning*: the Gram matrix of an
//! f32-generated block carries `O(eps_f32)` noise, so a basis whose
//! condition number squares into that noise floor makes CholQR/SVQR break
//! down cycles earlier than it would in f64. The driver leans on the
//! existing breakdown machinery to monitor exactly this: when the f32
//! solve aborts with [`BreakdownKind::Orthogonalization`] (CholQR pivot,
//! singular R, ABFT checksum mismatch), [`ca_gmres_mixed`] *escalates*
//! through the numerical-health ladder's precision-promotion rung (the
//! fault-tolerant driver takes the same one mid-flight): rebuild the MPK
//! state at f64 (charged),
//! re-anchor at the last accepted iterate, and finish the solve in full
//! precision. Escalation is the safety net, not the plan; the `ca-tune`
//! planner's stability caps are tightened for f32 so that planned
//! configurations rarely trip it.

use crate::cagmres::{ca_gmres, CaGmresConfig, CaGmresOutcome};
use crate::health::{EscalationEvent, EscalationRung};
use crate::layout::Layout;
use crate::mpk::SpmvFormat;
use crate::stats::{BreakdownKind, SolveStats};
use crate::system::System;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;
use ca_obs as obs;
use ca_scalar::Precision;
use ca_sparse::Csr;

/// Outcome of a mixed-precision solve.
#[derive(Debug)]
pub struct MixedOutcome {
    /// Whole-solve statistics. When the solve escalated this merges the
    /// f32 leg and the f64 leg: counts and phase times sum, `t_total`
    /// spans entry to exit (including the rebuild), and `final_relres`
    /// is relative to the original right-hand side.
    pub stats: SolveStats,
    /// CA-cycle statistics of the f32 leg (`CaGmresOutcome::ca_stats`):
    /// the per-cycle MPK + halo numbers the Fig. 12 comparison wants,
    /// without the standard-GMRES shift-harvest cycle.
    pub ca_stats_f32: SolveStats,
    /// The final iterate.
    pub x: Vec<f64>,
    /// Whether an f32-induced orthogonalization breakdown forced the
    /// basis back to f64 mid-solve.
    pub escalated: bool,
    /// Precision the basis ran at when the solve finished.
    pub prec_final: Precision,
    /// Restart cycles executed with the f32 basis (all of them, unless
    /// the solve escalated).
    pub f32_restarts: usize,
    /// Escalation-ladder events, in the shape the fault-tolerant driver
    /// reports them: for this one-shot driver, at most a single
    /// [`EscalationRung::Promote`] entry (the f32 -> f64 rebuild).
    pub escalations: Vec<EscalationEvent>,
}

/// Solve `A x = b` with the f32-basis + f64-refinement scheme. `a` must
/// already be reordered to match `layout` (see [`crate::layout::prepare`]).
///
/// `cfg.mpk_prec` selects the starting basis precision — with
/// [`Precision::F64`] this is exactly [`System::with_format`] +
/// [`ca_gmres`], bit for bit. With [`Precision::F32`] the MPK slices and
/// halos are single precision and the driver escalates to f64 if (and
/// only if) the orthogonalization breaks down on the f32 basis.
///
/// # Errors
/// Propagates simulated allocation/transfer failures and device loss
/// ([`ca_gpusim::GpuSimError`]).
pub fn ca_gmres_mixed(
    mg: &mut MultiGpu,
    a: &Csr,
    b: &[f64],
    layout: Layout,
    cfg: &CaGmresConfig,
    format: SpmvFormat,
) -> GpuResult<MixedOutcome> {
    assert_eq!(a.nrows(), b.len());
    let s_opt = (cfg.s > 1).then_some(cfg.s);
    mg.sync();
    let t_begin = mg.time();
    let sys = System::with_format(mg, a, layout.clone(), cfg.m, s_opt, format, cfg.mpk_prec)?;
    sys.load_rhs(mg, b)?;
    let out = ca_gmres(mg, &sys, cfg);

    let f32_broke = cfg.mpk_prec == Precision::F32
        && matches!(out.stats.breakdown, Some(BreakdownKind::Orthogonalization { .. }));
    if !f32_broke {
        let x = sys.download_x(mg)?;
        let f32_restarts = if cfg.mpk_prec == Precision::F32 { out.stats.restarts } else { 0 };
        return Ok(MixedOutcome {
            ca_stats_f32: out.ca_stats.clone(),
            stats: out.stats,
            x,
            escalated: false,
            prec_final: cfg.mpk_prec,
            f32_restarts,
            escalations: Vec::new(),
        });
    }

    // --- escalate: the f32 basis conditioned itself into a CholQR/SVQR
    // breakdown. This is the ladder's precision-promotion rung (shared
    // with the fault-tolerant driver): rebuild at f64 — slice re-upload
    // charged — re-anchor at the last accepted iterate, and finish in
    // full precision. ---
    let x_ckpt = sys.download_x(mg)?;
    let breakdown_column = match &out.stats.breakdown {
        Some(BreakdownKind::Orthogonalization { column, .. }) => *column,
        _ => 0,
    };
    let why = format!(
        "f32 basis breakdown ({}); rebuilding MPK state at f64 and resuming \
         from the last accepted iterate",
        out.stats.breakdown.as_ref().map_or_else(String::new, ToString::to_string)
    );
    let escalations = vec![EscalationEvent {
        rung: EscalationRung::Promote,
        cycle: out.stats.restarts,
        column: breakdown_column,
        s: cfg.s,
        // one-shot driver: the breakdown is the trigger, no estimate
        // trajectory exists to attach
        cond_est: f64::INFINITY,
    }];
    if obs::enabled() {
        obs::instant_cause("ft.escalate", obs::Track::Host, mg.time(), &why);
        obs::counter_add(obs::names::HEALTH_ESCALATIONS, 1);
        obs::counter_add(&obs::names::health_escalations_rung("promote"), 1);
    }
    let sys64 = System::with_format(mg, a, layout, cfg.m, s_opt, format, Precision::F64)?;
    sys64.load_rhs(mg, b)?;
    sys64.upload_x(mg, &x_ckpt)?;
    let mut cfg64 = *cfg;
    cfg64.mpk_prec = Precision::F64;
    cfg64.max_restarts = cfg.max_restarts.saturating_sub(out.stats.restarts).max(1);
    // keep the original absolute target: the f64 leg's entry residual is
    // `final_relres * beta0`, so dividing rtol by the progress made so
    // far re-expresses `rtol * beta0` in the new leg's relative terms
    if out.stats.final_relres > 0.0 {
        cfg64.rtol = (cfg.rtol / out.stats.final_relres).min(1.0);
    }
    let out64 = ca_gmres(mg, &sys64, &cfg64);
    let x = sys64.download_x(mg)?;
    let stats = merge_legs(&out, &out64, mg.time() - t_begin);
    stats.debug_check_phases();
    Ok(MixedOutcome {
        stats,
        ca_stats_f32: out.ca_stats,
        x,
        escalated: true,
        prec_final: Precision::F64,
        f32_restarts: out.stats.restarts,
        escalations,
    })
}

/// Fold the f32 leg and the post-escalation f64 leg into one record.
/// Counts and phase times sum; `t_total` is the caller-measured span
/// (it also covers the rebuild between the legs, which neither leg's
/// own clock saw); convergence, the breakdown verdict and the device busy
/// times come from the f64 leg; `final_relres` chains the two legs'
/// relative reductions.
fn merge_legs(f32_leg: &CaGmresOutcome, f64_leg: &CaGmresOutcome, t_total: f64) -> SolveStats {
    let (a, b) = (&f32_leg.stats, &f64_leg.stats);
    SolveStats {
        restarts: a.restarts + b.restarts,
        total_iters: a.total_iters + b.total_iters,
        t_total,
        t_spmv: a.t_spmv + b.t_spmv,
        t_orth: a.t_orth + b.t_orth,
        t_tsqr: a.t_tsqr + b.t_tsqr,
        t_small: a.t_small + b.t_small,
        t_reclaimed: a.t_reclaimed + b.t_reclaimed,
        final_relres: a.final_relres * b.final_relres,
        prefetches: a.prefetches + b.prefetches,
        comm_msgs: a.comm_msgs + b.comm_msgs,
        comm_bytes: a.comm_bytes + b.comm_bytes,
        ..b.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cagmres::BasisChoice;
    use crate::layout::{prepare, Ordering};
    use ca_sparse::gen::{convection_diffusion, laplace2d};

    fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        ca_sparse::spmv::spmv(a, x, &mut r);
        for i in 0..b.len() {
            r[i] = b[i] - r[i];
        }
        ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(b)
    }

    fn solve(
        a: &Csr,
        ndev: usize,
        cfg: &CaGmresConfig,
    ) -> (MixedOutcome, Vec<f64>, ca_gpusim::CommCounters) {
        let (a_ord, p, layout) = prepare(a, Ordering::Natural, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 7) as f64 * 0.3).collect();
        let bp = ca_sparse::perm::permute_vec(&b, &p);
        let out = ca_gmres_mixed(&mut mg, &a_ord, &bp, layout, cfg, SpmvFormat::Ell).unwrap();
        let r = residual(&a_ord, &out.x, &bp);
        (out, vec![r], mg.counters())
    }

    #[test]
    fn f64_config_is_plain_ca_gmres_bitwise() {
        let a = convection_diffusion(10, 10, 3.0);
        let cfg =
            CaGmresConfig { s: 5, m: 20, rtol: 1e-8, max_restarts: 300, ..Default::default() };
        let (mixed, _, _) = solve(&a, 2, &cfg);
        // reference: hand-built f64 System + plain driver
        let (a_ord, p, layout) = prepare(&a, Ordering::Natural, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 7) as f64 * 0.3).collect();
        sys.load_rhs(&mut mg, &ca_sparse::perm::permute_vec(&b, &p)).unwrap();
        let plain = ca_gmres(&mut mg, &sys, &cfg);
        let x_plain = sys.download_x(&mut mg).unwrap();
        assert!(!mixed.escalated);
        assert_eq!(mixed.prec_final, Precision::F64);
        assert_eq!(mixed.stats.total_iters, plain.stats.total_iters);
        assert_eq!(mixed.stats.t_total.to_bits(), plain.stats.t_total.to_bits());
        for (xm, xp) in mixed.x.iter().zip(&x_plain) {
            assert_eq!(xm.to_bits(), xp.to_bits(), "f64 mixed path must be bit-identical");
        }
    }

    #[test]
    fn f32_basis_converges_to_f64_tolerance_with_half_halo_bytes() {
        let a = laplace2d(14, 14);
        let base =
            CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
        let (o64, r64, _) = solve(&a, 3, &base);
        let cfg32 = CaGmresConfig { mpk_prec: Precision::F32, ..base };
        let (o32, r32, counters) = solve(&a, 3, &cfg32);
        assert!(o64.stats.converged && o32.stats.converged);
        assert!(!o32.escalated, "well-conditioned Newton basis must not escalate");
        assert!(r64[0] <= base.rtol * 1.01 && r32[0] <= base.rtol * 1.01);
        // the refinement anchor is f64, so the extra-cycle cost of the f32
        // basis is bounded (the ISSUE's "≤ 1 extra restart" criterion)
        assert!(
            o32.stats.restarts <= o64.stats.restarts + 1,
            "f32 basis took {} restarts vs {} for f64",
            o32.stats.restarts,
            o64.stats.restarts
        );
        // every MPK halo byte was tagged f32
        assert!(counters.total_bytes_f32() > 0, "f32 halos must hit the tagged counters");
        assert_eq!(
            counters.bytes_to_host_f32 + counters.bytes_to_dev_f32,
            counters.total_bytes_f32()
        );
    }

    #[test]
    fn f32_breakdown_escalates_to_f64_and_still_converges() {
        // a tiny-norm operator: the 8-step monomial block decays by
        // ~||A|| = 8e-7 per step, so its last columns underflow f32's
        // subnormal range and CholQR hits an exactly-zero pivot — an
        // f32-induced breakdown that cannot happen in f64 (the same
        // columns are ~1e-45, far inside f64's range, and the *directions*
        // are as well-conditioned as the unscaled monomial basis)
        let mut a = laplace2d(12, 12);
        for v in a.values_mut() {
            *v *= 1e-7;
        }
        let cfg = CaGmresConfig {
            s: 8,
            m: 32,
            basis: BasisChoice::Monomial,
            rtol: 1e-8,
            max_restarts: 300,
            mpk_prec: Precision::F32,
            ..Default::default()
        };
        let (out, r, _) = solve(&a, 2, &cfg);
        assert!(out.escalated, "expected an f32-induced CholQR breakdown");
        assert_eq!(out.prec_final, Precision::F64);
        assert_eq!(out.escalations.len(), 1, "one promotion event expected");
        assert_eq!(out.escalations[0].rung, EscalationRung::Promote);
        assert_eq!(out.escalations[0].cycle, out.f32_restarts);
        assert!(
            out.stats.converged,
            "escalated solve must still converge: {:?}",
            out.stats.breakdown
        );
        assert!(r[0] <= cfg.rtol * 1.01, "relres {} after escalation", r[0]);
        assert!(out.f32_restarts < out.stats.restarts);
    }
}
