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
//! down cycles earlier than it would in f64. [`ca_gmres_mixed`] is the
//! plain restart loop on a system it builds itself, so it may take the
//! numerical-health ladder's Promote rung — the same arm the
//! fault-tolerant driver takes: when a block's orthogonalization breaks
//! down on the f32 basis (CholQR pivot, singular R), the MPK state is
//! rebuilt at f64 on the same layout (charged), the last accepted iterate
//! is restored, and the solve goes on in full precision toward the same
//! target. Escalation is the safety net, not the plan; the `ca-tune`
//! planner's stability caps are tightened for f32 so that planned
//! configurations rarely trip it.

use crate::cagmres::{plain_solve, CaGmresConfig};
use crate::cycle::{invalid, NoGuard, Operator, Sys};
use crate::health::EscalationEvent;
use crate::layout::Layout;
use crate::stats::SolveStats;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::MultiGpu;
use ca_sparse::Csr;

/// Outcome of a mixed-precision solve.
#[derive(Debug)]
pub struct MixedOutcome {
    /// Whole-solve statistics; an escalated solve's include the f64
    /// rebuild and every cycle on either side of it.
    pub stats: SolveStats,
    /// The final iterate.
    pub x: Vec<f64>,
    /// Whether an f32-induced orthogonalization breakdown promoted the
    /// basis to f64 mid-solve.
    pub escalated: bool,
    /// Escalation-ladder events, in the shape the fault-tolerant driver
    /// reports them: at most one [`crate::health::EscalationRung::Promote`].
    pub escalations: Vec<EscalationEvent>,
}

/// Solve `A x = b` with the f32-basis + f64-refinement scheme, on ELLPACK
/// slices. `a` must already be reordered to match `layout` (see
/// [`crate::layout::prepare`]).
///
/// `cfg.mpk_prec` selects the starting basis precision — with
/// [`ca_scalar::Precision::F64`] this is exactly
/// [`crate::system::System::new`] + [`crate::cagmres::ca_gmres`],
/// bit for bit. With [`ca_scalar::Precision::F32`] the MPK slices and
/// halos are single precision and the solve is promoted to f64 if (and
/// only if) a block's orthogonalization breaks down on the f32 basis. A
/// configuration that cannot run returns `stats.breakdown` =
/// [`crate::stats::BreakdownKind::InvalidInput`] without building anything.
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
) -> GpuResult<MixedOutcome> {
    let n = a.nrows();
    let rhs = (b.len() != n).then(|| format!("b has {} rows, A has {n}", b.len()));
    if let Some(reason) = invalid(cfg, None).or(rhs) {
        let (stats, x) = (SolveStats::invalid(reason), vec![0.0; n]);
        return Ok(MixedOutcome { stats, x, escalated: false, escalations: Vec::new() });
    }
    let op = Operator { a, b };
    let sys = op.build(mg, layout, cfg, (cfg.s, cfg.mpk_prec), &mut NoGuard)?;
    let (out, sys, escalations) = plain_solve(mg, Sys::Owned(sys, op), cfg);
    let x = sys.expect("the solve owns the system it was handed").download_x(mg)?;
    Ok(MixedOutcome { stats: out.stats, x, escalated: !escalations.is_empty(), escalations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cagmres::{ca_gmres, BasisChoice};
    use crate::health::EscalationRung;
    use crate::layout::{prepare, Ordering};
    use crate::system::System;
    use ca_scalar::Precision;
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
        let out = ca_gmres_mixed(&mut mg, &a_ord, &bp, layout, cfg).unwrap();
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
        assert_eq!(out.escalations.len(), 1, "one promotion event expected");
        assert_eq!(out.escalations[0].rung, EscalationRung::Promote);
        assert!(
            out.stats.converged,
            "escalated solve must still converge: {:?}",
            out.stats.breakdown
        );
        assert!(r[0] <= cfg.rtol * 1.01, "relres {} after escalation", r[0]);
        // cycles ran at f64 after the promotion
        assert!(out.escalations[0].cycle < out.stats.restarts);
    }
}
