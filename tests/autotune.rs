//! Restart-boundary autotuning end to end: the `ca-tune` Retuner driving
//! the fault-tolerant driver's `AutoTune` hook.
//!
//! Two contracts are pinned here. Armed-but-idle autotuning must be
//! *invisible*: with a zero-rate fault plan the tuned run replays the
//! untuned run bit for bit (iterates, clocks, message counters). And
//! under a sustained fail-slow straggler the retuner must actually
//! re-plan — selecting a different `(s, layout)` than the healthy run
//! uses — and the solve must still converge to the same solution the
//! arithmetic-only path produces.

use ca_gmres_repro::gmres::cagmres::KernelMode;
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{FaultPlan, KernelConfig, MultiGpu, PerfModel};
use ca_gmres_repro::sparse::gen;
use ca_gmres_repro::tune::{Candidate, Retuner};

const NDEV: usize = 3;

fn problem() -> (ca_gmres_repro::sparse::Csr, Vec<f64>) {
    let a = gen::laplace2d(14, 14);
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i * 13) % 7) as f64).collect();
    (a, b)
}

fn solver_cfg() -> CaGmresConfig {
    CaGmresConfig {
        s: 5,
        m: 20,
        kernel: KernelMode::Spmv,
        rtol: 1e-8,
        max_restarts: 300,
        ..Default::default()
    }
}

fn base_candidate(cfg: &CaGmresConfig) -> Candidate {
    Candidate {
        s: cfg.s,
        basis: cfg.basis,
        tsqr: cfg.orth.tsqr,
        borth: cfg.orth.borth,
        kernel: cfg.kernel,
        ndev: NDEV,
        ordering: Ordering::Natural,
        reorth: cfg.orth.reorth,
        prec: cfg.mpk_prec,
    }
}

fn run(
    a: &ca_gmres_repro::sparse::Csr,
    b: &[f64],
    plan: Option<FaultPlan>,
    tune: bool,
) -> FtOutcome {
    let mut mg = MultiGpu::with_defaults(NDEV);
    if let Some(p) = plan {
        mg.set_fault_plan(p);
    }
    let cfg = FtConfig { solver: solver_cfg(), verify: false, ..Default::default() };
    let (model, kernels) = (PerfModel::default(), KernelConfig::default());
    let mut tuner =
        tune.then(|| Retuner::new(a, cfg.solver.m, model, kernels, base_candidate(&cfg.solver)));
    let tuner = tuner.as_mut().map(|t| t as &mut dyn RestartTuner);
    ca_gmres_ft_session(&mut mg, a, b, &cfg, tuner, None, false).0
}

#[test]
fn armed_autotune_is_bit_invisible_on_a_healthy_machine() {
    // zero-rate plan: every health EWMA stays exactly 1.0, the Retuner's
    // fast path returns None, and the tuned run must replay the untuned
    // run bit for bit
    let (a, b) = problem();
    let plain = run(&a, &b, Some(FaultPlan::new(5)), false);
    let tuned = run(&a, &b, Some(FaultPlan::new(5)), true);
    assert!(plain.stats.converged && tuned.stats.converged);
    assert_eq!(tuned.report.retunes, 0, "healthy machine must never re-plan");
    assert_eq!(tuned.report.s_final, 5);
    assert_eq!(plain.stats.total_iters, tuned.stats.total_iters);
    assert_eq!(plain.stats.restarts, tuned.stats.restarts);
    assert_eq!(plain.stats.t_total.to_bits(), tuned.stats.t_total.to_bits());
    assert_eq!(plain.stats.comm_msgs, tuned.stats.comm_msgs);
    assert_eq!(plain.stats.comm_bytes, tuned.stats.comm_bytes);
    for (u, v) in plain.x.iter().zip(&tuned.x) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

#[test]
fn straggler_triggers_a_different_plan() {
    // a sustained 4x straggler: the retuner must select a different
    // (s, layout) than the healthy configuration and the solve must
    // still converge
    let (a, b) = problem();
    let plan = FaultPlan::new(9).with_slowdown(2, 4.0, 0);
    let healthy = run(&a, &b, None, true);
    let degraded = run(&a, &b, Some(plan), true);
    assert!(healthy.stats.converged && degraded.stats.converged);
    assert_eq!(healthy.report.retunes, 0);
    assert!(degraded.report.retunes > 0, "4x straggler must trigger a re-plan");
    // the new plan differs from the healthy one in s and/or layout; the
    // final layout must shrink the straggler's share below an even split
    let even = a.nrows() / NDEV;
    let changed_s = degraded.report.s_final != healthy.report.s_final;
    let starts = &degraded.report.layout_final;
    let straggler_rows = starts[3] - starts[2];
    assert!(
        changed_s || straggler_rows < even,
        "re-plan changed nothing: s {} rows {}",
        degraded.report.s_final,
        straggler_rows
    );
    // fail-slow is clock-only, so the tuned degraded run still reaches
    // the same tolerance
    let mut r = vec![0.0; a.nrows()];
    ca_gmres_repro::sparse::spmv::spmv(&a, &degraded.x, &mut r);
    let nrm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    for i in 0..a.nrows() {
        r[i] = b[i] - r[i];
    }
    assert!(nrm(&r) / nrm(&b) <= 1e-8 * 1.01);
}

#[test]
fn retuned_run_beats_the_static_run_under_a_straggler() {
    // time-to-solution: re-planning must recover part of what the
    // straggler costs a static run
    let (a, b) = problem();
    let plan = FaultPlan::new(9).with_slowdown(2, 4.0, 0);
    let stat = run(&a, &b, Some(plan.clone()), false);
    let tuned = run(&a, &b, Some(plan), true);
    assert!(stat.stats.converged && tuned.stats.converged);
    assert!(tuned.report.retunes > 0);
    assert!(
        tuned.stats.t_total < stat.stats.t_total,
        "re-planned {:.3e}s vs static {:.3e}s",
        tuned.stats.t_total,
        stat.stats.t_total
    );
}
