//! Execute one chaos schedule and check the run invariants.
//!
//! The runner is where "never panic, never hang, never lie" becomes
//! checkable: the solve runs under `catch_unwind`, the returned iterate
//! is re-verified against the matrix on the host, the simulated clock is
//! checked for monotonicity and a hang budget, and zero-rate schedules
//! are replayed without any fault plan and compared bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ca_gmres::prelude::{
    ca_gmres_ft, BasisChoice, BasisMonitor, FtConfig, FtOutcome, HealthProbe, Ladder, Precision,
};
use ca_gpusim::MultiGpu;
use ca_sparse::gen::{convection_diffusion, laplace2d};
use ca_sparse::Csr;

use crate::schedule::{ChaosSchedule, MatrixFamily};

/// Simulated-seconds ceiling on any single solve. The problems are tiny
/// (≤ 196 rows) and even a heavily faulted solve finishes in well under
/// a simulated second; a clock past this is a runaway, i.e. a hang.
pub const TIME_BUDGET_S: f64 = 1.0e6;

/// Relative tolerance the campaign solves to.
pub const RTOL: f64 = 1e-6;

/// Slack factor on the host-side residual re-verification (the solver's
/// convergence test is on the implicit residual; the explicit one may
/// sit slightly above it).
pub const RELRES_SLACK: f64 = 10.0;

/// Result of driving one schedule through the FT driver.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The schedule that was run.
    pub schedule: ChaosSchedule,
    /// Panic payload, if the solve panicked (itself a violation).
    pub panicked: Option<String>,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// Typed breakdown reason, if any (`Debug`-rendered).
    pub breakdown: Option<String>,
    /// Host-recomputed `||b - Ax|| / ||b||` of the returned iterate.
    pub relres: f64,
    /// Simulated end-to-end time.
    pub t_total: f64,
    /// Krylov dimensions built / restart cycles executed.
    pub total_iters: usize,
    pub restarts: usize,
    /// In-cycle probe activity (0 when the probe was disarmed).
    pub in_cycle_polls: u64,
    pub in_cycle_escalations: usize,
    pub block_resumes: usize,
    pub mid_cycle_rebalances: usize,
    /// Numerical-health ladder activity: rung labels of every escalation,
    /// in firing order, plus the monitor's condition-check count.
    pub ladder_rungs: Vec<String>,
    pub cond_checks: u64,
    /// Detection latencies recorded by probe or boundary watchdog.
    pub detection_latency_s: Vec<f64>,
    /// FNV-1a fingerprint over the iterate bits, the total-time bits,
    /// and the iteration/restart counts — the replay-identity token.
    pub fingerprint: u64,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
}

impl RunOutcome {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Materialize the schedule's linear system: a closed-form matrix and a
/// right-hand side manufactured from a known solution (no RNG, so the
/// problem is identical across toolchains).
#[must_use]
pub fn build_problem(sch: &ChaosSchedule) -> (Csr, Vec<f64>) {
    let a = match sch.family {
        MatrixFamily::Laplace2d => laplace2d(sch.nx, sch.ny),
        MatrixFamily::ConvectionDiffusion => convection_diffusion(sch.nx, sch.ny, 1.5),
    };
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
    let mut b = vec![0.0; n];
    ca_sparse::spmv::spmv(&a, &x_true, &mut b);
    (a, b)
}

/// FT configuration for a schedule: watchdog always armed (hangs must be
/// detected, not waited out), in-cycle probe per the schedule draw, with
/// a straggler threshold so mid-cycle rebalancing gets exercised too.
/// The numerical-health ladder is always armed, with a hair-trigger
/// monitor: the campaign problems are tiny (≤ 196 rows, small `s`), so
/// the production thresholds of [`BasisMonitor::default`] would never
/// trip and the ladder's rungs would go untested. The throttle floor is
/// pinned at the schedule's own `s` for the same reason — the throttle
/// rung then only unwinds forced-s overrides, instead of soaking up
/// every trigger on its way down to 2 and starving the costlier rungs
/// (basis switch, promote) the campaign must also exercise. Both solves
/// of a zero-rate replay share this config, so the bit-identity check
/// still pins the armed machinery to determinism.
#[must_use]
pub fn ft_config(sch: &ChaosSchedule) -> FtConfig {
    let mut cfg = FtConfig {
        watchdog_timeout_s: Some(0.5),
        rebalance: true,
        ladder: Some(Ladder {
            monitor: BasisMonitor { cond_warn: 1e2, cond_fail: 1e6, growth_fail: 4.0 },
            s_floor: sch.s,
            ..Ladder::default()
        }),
        ..FtConfig::default()
    };
    cfg.solver.s = sch.s;
    cfg.solver.m = sch.m;
    cfg.solver.rtol = RTOL;
    cfg.solver.max_restarts = 400;
    if sch.monomial {
        cfg.solver.basis = BasisChoice::Monomial;
    }
    if sch.f32_mpk {
        cfg.solver.mpk_prec = Precision::F32;
    }
    if sch.probe {
        cfg.probe =
            Some(HealthProbe { watchdog_timeout_s: Some(0.5), straggler_threshold: Some(2.0) });
    }
    cfg
}

fn fingerprint(out: &FtOutcome) -> u64 {
    let mut h = ca_obs::Fnv1a::default();
    for v in &out.x {
        h.word(v.to_bits());
    }
    h.word(out.stats.t_total.to_bits());
    h.word(out.stats.total_iters as u64);
    h.word(out.stats.restarts as u64);
    h.finish()
}

/// The relative residual `||b - A x|| / ||b||` of `x`, computed on the host
/// from the original operator: a check independent of the solver's own
/// residual.
pub fn host_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    ca_sparse::spmv::spmv(a, x, &mut ax);
    let rr: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let bb: f64 = b.iter().map(|bi| bi * bi).sum();
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
}

/// One faulted (or plan-free, when `with_plan` is false) solve of the
/// schedule's problem. Panics are caught and reported, never propagated.
fn solve(sch: &ChaosSchedule, a: &Csr, b: &[f64], with_plan: bool) -> Result<FtOutcome, String> {
    let cfg = ft_config(sch);
    let mut mg = MultiGpu::with_defaults(sch.ndev);
    mg.set_schedule(sch.exec_schedule());
    if with_plan {
        mg.set_fault_plan(sch.plan());
    }
    // probe and monitor state live in the solve itself, so a panic takes
    // them down with it: the next schedule on this worker starts clean
    catch_unwind(AssertUnwindSafe(|| ca_gmres_ft(mg, a, b, &cfg))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Drive one schedule through the FT driver and check every invariant.
#[must_use]
pub fn run_schedule(sch: &ChaosSchedule) -> RunOutcome {
    let (a, b) = build_problem(sch);
    let mut violations = Vec::new();

    let out = match solve(sch, &a, &b, true) {
        Ok(out) => out,
        Err(panic_msg) => {
            violations.push(format!("panic: {panic_msg}"));
            return RunOutcome {
                schedule: sch.clone(),
                panicked: Some(panic_msg),
                converged: false,
                breakdown: None,
                relres: f64::NAN,
                t_total: f64::NAN,
                total_iters: 0,
                restarts: 0,
                in_cycle_polls: 0,
                in_cycle_escalations: 0,
                block_resumes: 0,
                mid_cycle_rebalances: 0,
                ladder_rungs: Vec::new(),
                cond_checks: 0,
                detection_latency_s: Vec::new(),
                fingerprint: 0,
                violations,
            };
        }
    };

    let relres = host_relres(&a, &b, &out.x);

    // typed outcome: converged (and truly converged), or a typed
    // breakdown, or honest restart exhaustion — nothing in between
    if out.stats.converged {
        // NaN must count as a violation, hence the explicit is_nan arm
        if relres.is_nan() || relres > RTOL * RELRES_SLACK {
            violations.push(format!(
                "claimed convergence but host relres {relres:.3e} > {:.3e}",
                RTOL * RELRES_SLACK
            ));
        }
    } else if out.stats.breakdown.is_none()
        && out.stats.restarts < ft_config(sch).solver.max_restarts
    {
        violations.push(format!(
            "non-convergence with no typed breakdown after {} restarts",
            out.stats.restarts
        ));
    }

    // clock monotonicity + hang budget
    if !out.stats.t_total.is_finite() || out.stats.t_total < 0.0 {
        violations.push(format!("non-monotone clock: t_total = {}", out.stats.t_total));
    } else if out.stats.t_total > TIME_BUDGET_S {
        violations.push(format!(
            "simulated-time budget blown: t_total = {:.3e} s > {TIME_BUDGET_S:.1e} s (hang?)",
            out.stats.t_total
        ));
    }
    for &lat in &out.report.detection_latency_s {
        if !lat.is_finite() || lat < 0.0 {
            violations.push(format!("negative/non-finite detection latency {lat}"));
        }
    }

    let fp = fingerprint(&out);

    // zero-rate invisibility: replay without any fault plan — the armed
    // machinery must be bit-invisible when nothing fires. The replay is
    // a second solve with its own simulated clock, so keep it out of
    // any ambient obs recording (span begins must stay monotone).
    if sch.is_zero_rate() {
        match ca_obs::unobserved(|| solve(sch, &a, &b, false)) {
            Ok(base) => {
                if fingerprint(&base) != fp {
                    violations.push(
                        "zero-rate schedule diverged from plan-free baseline (bit-identity broken)"
                            .to_string(),
                    );
                }
            }
            Err(panic_msg) => violations.push(format!("baseline panic: {panic_msg}")),
        }
    }

    RunOutcome {
        schedule: sch.clone(),
        panicked: None,
        converged: out.stats.converged,
        breakdown: out.stats.breakdown.as_ref().map(|b| format!("{b:?}")),
        relres,
        t_total: out.stats.t_total,
        total_iters: out.stats.total_iters,
        restarts: out.stats.restarts,
        in_cycle_polls: out.report.in_cycle_polls,
        in_cycle_escalations: out.report.in_cycle_escalations,
        block_resumes: out.report.block_resumes,
        mid_cycle_rebalances: out.report.mid_cycle_rebalances,
        ladder_rungs: out.report.escalations.iter().map(|e| e.rung.label().to_string()).collect(),
        cond_checks: out.report.cond_checks,
        detection_latency_s: out.report.detection_latency_s.clone(),
        fingerprint: fp,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;

    #[test]
    fn zero_rate_run_passes_and_is_reproducible() {
        // find a zero-rate schedule and run it twice
        let sch = (0..200)
            .map(|i| ChaosSchedule::generate(11, i))
            .find(ChaosSchedule::is_zero_rate)
            .expect("a zero-rate schedule in 200 draws");
        let a = run_schedule(&sch);
        let b = run_schedule(&sch);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(a.converged, "healthy run must converge");
        assert_eq!(a.fingerprint, b.fingerprint, "replay must be bit-identical");
    }

    #[test]
    fn faulted_run_is_reproducible() {
        let sch = (0..200)
            .map(|i| ChaosSchedule::generate(13, i))
            .find(|s| !s.is_zero_rate())
            .expect("a faulted schedule in 200 draws");
        let a = run_schedule(&sch);
        let b = run_schedule(&sch);
        assert_eq!(a.fingerprint, b.fingerprint, "same schedule, same bits");
        assert_eq!(a.violations, b.violations);
    }
}
