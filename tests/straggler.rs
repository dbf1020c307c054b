//! Fail-slow fault model properties: performance faults perturb *clocks*,
//! never arithmetic; neutral plans are bit-invisible; the health-driven
//! rebalancer is exactly inert when the machine is healthy; and the probe's
//! mid-cycle rebalance under a passed tuner is pinned to its digest.

use ca_gmres_repro::gmres::cagmres::KernelMode;
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{FaultPlan, KernelConfig, MultiGpu, PerfModel};
use ca_gmres_repro::obs::fnv1a_words;
use ca_gmres_repro::sparse::{gen, perm};
use ca_gmres_repro::tune::{Candidate, Retuner};

fn solve_with_plan(plan: Option<FaultPlan>) -> (Vec<f64>, SolveStats) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    if let Some(plan) = plan {
        mg.set_fault_plan(plan);
    }
    let cfg = CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    (x, out.stats)
}

#[test]
fn zero_rate_perf_plan_is_bit_invisible() {
    // unit-factor slowdown, unit-factor link degrade, zero-rate stalls:
    // iterates, residuals, clocks, and PCIe counters must all match the
    // no-plan run bit for bit
    let neutral = FaultPlan::new(42)
        .with_slowdown(1, 1.0, 0)
        .with_link_degrade(2, 1.0)
        .with_stalls(0, 0.0, 5.0);
    let (x0, s0) = solve_with_plan(None);
    let (x1, s1) = solve_with_plan(Some(neutral));
    for (u, v) in x0.iter().zip(&x1) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
    assert_eq!(s0.final_relres.to_bits(), s1.final_relres.to_bits());
    assert_eq!(s0.t_total.to_bits(), s1.t_total.to_bits());
    assert_eq!(s0.comm_msgs, s1.comm_msgs);
    assert_eq!(s0.comm_bytes, s1.comm_bytes);
    assert_eq!(s0.total_iters, s1.total_iters);
    for (u, v) in s0.device_busy_s.iter().zip(&s1.device_busy_s) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

#[test]
fn slowdown_stretches_clock_without_touching_iterates() {
    let (x0, s0) = solve_with_plan(None);
    let (x1, s1) = solve_with_plan(Some(FaultPlan::new(7).with_slowdown(1, 4.0, 0)));
    for (u, v) in x0.iter().zip(&x1) {
        assert_eq!(u.to_bits(), v.to_bits(), "slowdown must be clock-only");
    }
    assert_eq!(s0.total_iters, s1.total_iters);
    assert!(s1.t_total > s0.t_total, "a 4x straggler must cost simulated time");
    assert!(s1.device_imbalance > 2.0, "busy-time imbalance must expose the straggler");
    assert!(s0.device_imbalance < 1.5);
}

#[test]
fn rebalancing_is_identical_to_static_without_faults() {
    // with a zero-fault plan the health imbalance is exactly 1.0, so the
    // rebalanced solve must replay the static one bit for bit
    let a = gen::laplace2d(13, 13);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
    let solver = CaGmresConfig { s: 5, m: 20, rtol: 1e-8, max_restarts: 300, ..Default::default() };
    let run = |rebalance: bool| {
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(3)); // all rates zero
        let cfg =
            FtConfig { solver, rebalance, watchdog_timeout_s: Some(1.0), ..Default::default() };
        ca_gmres_ft(mg, &a, &b, &cfg)
    };
    let stat = run(false);
    let reb = run(true);
    assert!(stat.stats.converged && reb.stats.converged);
    assert_eq!(reb.report.rebalances, 0);
    assert_eq!(reb.report.hung_device, None);
    assert_eq!(stat.stats.total_iters, reb.stats.total_iters);
    assert_eq!(stat.stats.restarts, reb.stats.restarts);
    assert_eq!(stat.stats.t_total.to_bits(), reb.stats.t_total.to_bits());
    for (u, v) in stat.x.iter().zip(&reb.x) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

#[test]
fn watchdog_plus_rebalance_survive_a_stalling_device() {
    // intermittent long stalls: the watchdog declares the device hung,
    // the solve degrades onto the survivors and still converges
    let a = gen::laplace2d(13, 13);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 5) as f64).collect();
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_fault_plan(FaultPlan::new(17).with_stalls(2, 1.0, 10.0));
    let cfg = FtConfig {
        solver: CaGmresConfig { s: 5, m: 20, rtol: 1e-8, max_restarts: 300, ..Default::default() },
        rebalance: true,
        watchdog_timeout_s: Some(0.5),
        ..Default::default()
    };
    let out = ca_gmres_ft(mg, &a, &b, &cfg);
    assert!(out.stats.converged, "{:?}", out.stats.breakdown);
    assert_eq!(out.report.hung_device, Some(2));
    assert!(out.report.degraded);
    assert_eq!(out.report.ndev_final, 2);
    let mut r = vec![0.0; n];
    ca_gmres_repro::sparse::spmv::spmv(&a, &out.x, &mut r);
    let nrm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    assert!(nrm(&r) / nrm(&b) <= 1e-8 * 1.01);
}

#[test]
fn mid_cycle_rebalance_with_a_tuner_is_pinned() {
    // a Retuner is passed and device 2 turns 4x slow after 200 ops, past
    // the first restart boundary: the probe catches it between blocks of a
    // CA cycle and the remaining rows are split by measured throughput
    let a = gen::laplace2d(14, 14);
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i * 13) % 7) as f64).collect();
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_fault_plan(FaultPlan::new(9).with_slowdown(2, 4.0, 200));
    let solver = CaGmresConfig {
        s: 5,
        m: 20,
        kernel: KernelMode::Spmv,
        rtol: 1e-8,
        max_restarts: 300,
        ..Default::default()
    };
    let probe = HealthProbe { watchdog_timeout_s: None, straggler_threshold: Some(1.5) };
    let cfg = FtConfig { solver, verify: false, probe: Some(probe), ..Default::default() };
    let base = Candidate {
        s: solver.s,
        basis: solver.basis,
        tsqr: solver.orth.tsqr,
        borth: solver.orth.borth,
        kernel: solver.kernel,
        ndev: 3,
        ordering: Ordering::Natural,
        reorth: solver.orth.reorth,
        prec: solver.mpk_prec,
    };
    let mut tuner = Retuner::new(&a, solver.m, PerfModel::default(), KernelConfig::default(), base);
    let out = ca_gmres_ft_session(&mut mg, &a, &b, &cfg, Some(&mut tuner), None, false).0;
    assert!(out.stats.converged);
    assert!(out.report.mid_cycle_rebalances >= 1);
    let (s, r) = (&out.stats, &out.report);
    let got = format!(
        "x={:016x} t={:016x} relres={:016x} iters={} restarts={} midreb={} retunes={} s={} \
         layout={:?}",
        fnv1a_words(out.x.iter().map(|v| v.to_bits())),
        s.t_total.to_bits(),
        s.final_relres.to_bits(),
        s.total_iters,
        s.restarts,
        r.mid_cycle_rebalances,
        r.retunes,
        r.s_final,
        r.layout_final,
    );
    let want = "x=7d9b0c4e92765f3d t=3f7a489b277534a7 relres=3e4461b167b7b175 iters=56 restarts=3 \
                midreb=1 retunes=0 s=5 layout=[0, 87, 171, 196]";
    assert_eq!(got, want);
}
