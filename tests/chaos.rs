//! Chaos-harness integration tests: the fault-tolerant driver survives
//! an enumerated single-fault grid (fault kind × injection phase) and a
//! small seeded campaign of composed adversarial schedules, panicking
//! never, converging or failing typed, inside a simulated-time budget.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ca_gmres_repro::chaos::{run_campaign, CampaignConfig, ChaosSchedule};
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{FaultPlan, MultiGpu, SdcTargets};
use ca_gmres_repro::sparse::{gen, spmv};

const NDEV: usize = 3;
const FAULT_DEV: usize = 1;
const TIME_BUDGET_S: f64 = 1.0e6;

fn problem() -> (ca_gmres_repro::sparse::Csr, Vec<f64>) {
    let a = gen::laplace2d(12, 12);
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
    let mut b = vec![0.0; n];
    spmv::spmv(&a, &x_true, &mut b);
    (a, b)
}

fn ft_cfg() -> FtConfig {
    let mut cfg = FtConfig {
        watchdog_timeout_s: Some(0.5),
        probe: Some(HealthProbe { watchdog_timeout_s: Some(0.5), straggler_threshold: Some(2.0) }),
        ..Default::default()
    };
    cfg.solver.s = 5;
    cfg.solver.m = 20;
    cfg.solver.rtol = 1e-6;
    cfg.solver.max_restarts = 300;
    cfg
}

/// One fault kind at one injection phase. `after_op` staggers when the
/// persistent faults (loss, slowdown, stalls) bite; the rate faults use
/// `seed` to decorrelate which ops get hit across phases.
fn single_fault_plan(kind: &str, after_op: u64, seed: u64) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match kind {
        "sdc" => p.with_sdc(2e-3, SdcTargets::all()),
        "transfer" => p.with_transfer_faults(1e-2),
        "loss" => p.with_device_loss(FAULT_DEV, after_op),
        "slowdown" => p.with_slowdown(FAULT_DEV, 4.0, after_op),
        "stalls" => p.with_stalls(FAULT_DEV, 1e-3, 0.8),
        "hang" => p.with_stalls(FAULT_DEV, 1.0, 30.0),
        "link" => p.with_link_degrade(FAULT_DEV, 3.0),
        "alloc" => p.with_alloc_fault(FAULT_DEV, 2 + after_op / 50),
        other => panic!("unknown fault kind {other}"),
    }
}

/// One grid cell: the driver must converge (host-verified) or fail with
/// a typed breakdown (or honest restart exhaustion) — never panic, never
/// run past the simulated-time budget. Returns the outcome for further
/// cell-specific assertions.
fn check_cell(
    cfg: &FtConfig,
    a: &ca_gmres_repro::sparse::Csr,
    b: &[f64],
    plan: FaultPlan,
    cell: &str,
) -> FtOutcome {
    let res = catch_unwind(AssertUnwindSafe(|| {
        let mut mg = MultiGpu::with_defaults(NDEV);
        mg.set_fault_plan(plan);
        ca_gmres_ft(mg, a, b, cfg)
    }));
    let out = res.unwrap_or_else(|_| panic!("{cell}: driver panicked"));
    assert!(
        out.stats.t_total.is_finite()
            && out.stats.t_total >= 0.0
            && out.stats.t_total <= TIME_BUDGET_S,
        "{cell}: simulated time {} out of budget",
        out.stats.t_total
    );
    if out.stats.converged {
        let mut ax = vec![0.0; b.len()];
        spmv::spmv(a, &out.x, &mut ax);
        let rr: f64 = b.iter().zip(&ax).map(|(x, y)| (x - y) * (x - y)).sum();
        let bb: f64 = b.iter().map(|x| x * x).sum();
        let relres = (rr / bb).sqrt();
        assert!(
            relres <= cfg.solver.rtol * 10.0,
            "{cell}: claimed convergence but relres = {relres:.3e}"
        );
    } else {
        assert!(
            out.stats.breakdown.is_some() || out.stats.restarts >= cfg.solver.max_restarts,
            "{cell}: non-convergence with no typed breakdown"
        );
    }
    out
}

/// Every (fault kind × injection phase) cell of the hardware-fault grid.
fn run_single_fault_grid(cfg: &FtConfig) {
    let (a, b) = problem();
    let kinds = ["sdc", "transfer", "loss", "slowdown", "stalls", "hang", "link", "alloc"];
    let phases: [(u64, u64); 3] = [(0, 101), (300, 202), (1500, 303)];
    for kind in kinds {
        for (after_op, seed) in phases {
            let plan = single_fault_plan(kind, after_op, seed);
            let cell = format!("{kind}@{after_op}/seed{seed}");
            check_cell(cfg, &a, &b, plan, &cell);
        }
    }
}

#[test]
fn single_fault_grid_converges_or_fails_typed() {
    run_single_fault_grid(&ft_cfg());
}

/// The same grid with the f32-basis mixed-precision configuration: fault
/// handling and precision demotion must compose — no panic in any cell,
/// convergence is still host-verified at the f64 tolerance, and any
/// f32-conditioning breakdown the faults provoke surfaces typed.
#[test]
fn single_fault_grid_mixed_precision_converges_or_fails_typed() {
    let mut cfg = ft_cfg();
    cfg.solver.mpk_prec = ca_gmres_repro::scalar::Precision::F32;
    run_single_fault_grid(&cfg);
}

/// A small composed-fault campaign end to end: every invariant green,
/// no panics, zero-rate schedules verified bit-identical, and the
/// campaign digest reproducible run to run.
#[test]
fn composed_campaign_is_green_and_reproducible() {
    let cfg = CampaignConfig { seed: 77, schedules: 48, obs_checked: 4, ..Default::default() };
    let a = run_campaign(&cfg);
    assert!(a.ok(), "violations: {:#?} span nesting: {:?}", a.violations, a.span_nesting_error);
    assert_eq!(a.passed, 48);
    assert_eq!(a.panics, 0);
    assert!(a.converged > 0, "nothing converged in 48 schedules");
    assert!(a.probe_armed > 0, "probe never armed in 48 schedules");
    let b = run_campaign(&cfg);
    assert_eq!(a.digest, b.digest, "campaign digest must be reproducible");
}

/// Numerical single-fault kinds: deterministic ill-conditioning basis
/// perturbations, near-singular Gram nudges, and a forced cap-violating
/// step size.
fn numerical_fault_plan(kind: &str, seed: u64) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match kind {
        "perturb" => p.with_basis_perturb(0.25, 0.85),
        "nudge" => p.with_gram_nudge(0.05, 0.95),
        "force-s" => p.with_s_override(16),
        other => panic!("unknown numerical fault kind {other}"),
    }
}

fn run_numerical_grid(cfg: &FtConfig) {
    let (a, b) = problem();
    for kind in ["perturb", "nudge", "force-s"] {
        for seed in [101u64, 202, 303] {
            let cell = format!("{kind}/seed{seed}");
            check_cell(cfg, &a, &b, numerical_fault_plan(kind, seed), &cell);
        }
    }
}

/// The unguarded (ladder-off) driver under every numerical fault kind:
/// it may break down, but it must break down *typed* — never panic,
/// never claim convergence it cannot host-verify.
#[test]
fn numerical_fault_grid_unguarded_converges_or_fails_typed() {
    run_numerical_grid(&ft_cfg());
}

/// The same grid with the full escalation ladder armed.
#[test]
fn numerical_fault_grid_with_ladder_converges_or_fails_typed() {
    let mut cfg = ft_cfg();
    cfg.ladder = Some(Ladder::default());
    run_numerical_grid(&cfg);
}

/// A ladder with exactly one rung enabled and a hair-trigger monitor, so
/// the natural conditioning of the unscaled monomial basis is enough to
/// fire it — each rung's mechanics get exercised in isolation without
/// depending on a fault magnitude landing in a window.
fn one_rung_ladder(rung: EscalationRung) -> Ladder {
    let mut l = Ladder {
        monitor: BasisMonitor { cond_warn: 10.0, cond_fail: 1e2, growth_fail: 1e12 },
        reorth: false,
        throttle: false,
        basis_switch: false,
        promote: false,
        max_escalations: 1000,
        s_floor: 2,
    };
    match rung {
        EscalationRung::Reorth => l.reorth = true,
        EscalationRung::Throttle => l.throttle = true,
        EscalationRung::BasisSwitch => l.basis_switch = true,
        EscalationRung::Promote => l.promote = true,
    }
    l
}

fn run_one_rung(cfg: &FtConfig, rung: EscalationRung) -> FtOutcome {
    let (a, b) = problem();
    let out = check_cell(cfg, &a, &b, FaultPlan::new(0), &format!("rung {rung:?}"));
    assert!(
        out.report.escalations.iter().any(|e| e.rung == rung),
        "{rung:?} rung never fired; escalations: {:?}",
        out.report.escalations
    );
    assert!(out.stats.converged, "{rung:?}-guarded solve must still converge");
    out
}

#[test]
fn ladder_reorth_rung_fires_and_converges() {
    let mut cfg = ft_cfg();
    cfg.ladder = Some(one_rung_ladder(EscalationRung::Reorth));
    run_one_rung(&cfg, EscalationRung::Reorth);
}

#[test]
fn ladder_throttle_rung_fires_and_converges() {
    let mut cfg = ft_cfg();
    cfg.ladder = Some(one_rung_ladder(EscalationRung::Throttle));
    run_one_rung(&cfg, EscalationRung::Throttle);
}

#[test]
fn ladder_basis_switch_rung_fires_and_converges() {
    let mut cfg = ft_cfg();
    cfg.solver.basis = BasisChoice::Monomial; // the switch is monomial -> Newton
    cfg.ladder = Some(one_rung_ladder(EscalationRung::BasisSwitch));
    let out = run_one_rung(&cfg, EscalationRung::BasisSwitch);
    // monomial -> Newton is one-way: at most one switch per solve
    let switches =
        out.report.escalations.iter().filter(|e| e.rung == EscalationRung::BasisSwitch).count();
    assert_eq!(switches, 1, "basis switch must fire exactly once");
}

#[test]
fn ladder_promote_rung_fires_and_converges() {
    let mut cfg = ft_cfg();
    cfg.solver.mpk_prec = ca_gmres_repro::scalar::Precision::F32;
    cfg.ladder = Some(one_rung_ladder(EscalationRung::Promote));
    let out = run_one_rung(&cfg, EscalationRung::Promote);
    let promotions =
        out.report.escalations.iter().filter(|e| e.rung == EscalationRung::Promote).count();
    assert_eq!(promotions, 1, "f32 -> f64 promotion must fire exactly once");
}

/// Schedules synthesize deterministically and their fault plans honor
/// the zero-rate contract (no component armed when `is_zero_rate`).
#[test]
fn schedules_are_deterministic_and_zero_rate_honest() {
    let mut saw_zero = false;
    for i in 0..300 {
        let s1 = ChaosSchedule::generate(9, i);
        let s2 = ChaosSchedule::generate(9, i);
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"), "schedule #{i} not deterministic");
        if s1.is_zero_rate() {
            saw_zero = true;
            let p = s1.plan();
            assert_eq!(p.sdc_rate, 0.0);
            assert!(p.device_loss.is_none());
        }
    }
    assert!(saw_zero, "no zero-rate schedule in 300 draws");
}

/// A guarded solve that panics mid-flight leaves nothing behind on its
/// thread: probe and monitor state are fields of the solve and unwind with
/// it. The canary is a *plain* solve on a machine with a hung device —
/// nothing may watch its clocks, so it has to grind through the stalls
/// exactly as it does on a thread that never ran a guarded solve.
#[test]
fn panicked_guarded_solve_leaves_nothing_behind_on_its_thread() {
    struct Bomb;
    impl RestartTuner for Bomb {
        fn replan(
            &mut self,
            _health: &ca_gmres_repro::gpusim::HealthReport,
            _s_cur: usize,
            _layout: &Layout,
        ) -> Option<RetuneDecision> {
            panic!("tuner bug at the first restart boundary");
        }
    }
    let (a, b) = problem();
    let mut cfg = ft_cfg();
    cfg.ladder = Some(Ladder::default());
    let guarded = catch_unwind(AssertUnwindSafe(|| {
        let mut mg = MultiGpu::with_defaults(NDEV);
        ca_gmres_ft_session(&mut mg, &a, &b, &cfg, Some(&mut Bomb), None, false)
    }));
    assert!(guarded.is_err(), "the probe- and ladder-armed solve must have panicked");

    let plain = move || {
        let (a, b) = problem();
        let mut mg = MultiGpu::with_defaults(NDEV);
        mg.set_fault_plan(single_fault_plan("hang", 0, 101));
        let cfg = ft_cfg().solver;
        let sys = System::new(&mut mg, &a, Layout::even(a.nrows(), NDEV), cfg.m, Some(cfg.s));
        let sys = sys.unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        let out = ca_gmres(&mut mg, &sys, &cfg);
        let x: Vec<u64> = sys.download_x(&mut mg).unwrap().iter().map(|v| v.to_bits()).collect();
        (
            x,
            out.stats.t_total.to_bits(),
            out.stats.total_iters,
            format!("{:?}", out.stats.breakdown),
        )
    };
    let here = plain();
    let elsewhere = std::thread::spawn(plain).join().expect("plain solve panicked");
    assert_eq!(here.3, "None", "an unguarded solve has no watchdog to lose a device to");
    assert_eq!(here, elsewhere);
}
