//! Extension study: in-cycle fault detection and the chaos campaign.
//!
//! Two questions, one binary.
//!
//! **Detection latency** — when a device hangs (every queued op stalls)
//! or turns into a sustained 4x straggler mid-solve, how long until the
//! driver *notices*? The restart-boundary watchdog ([`FtConfig::
//! watchdog_timeout_s`] alone) only looks at health between cycles, so
//! its detection latency is the remainder of the stalled cycle. The
//! in-cycle probe ([`FtConfig::probe`]) polls at every MPK/SpMV block
//! boundary and BOrth stage, escalating (or mid-cycle rebalancing) at
//! the first boundary after the fault bites. Every suite matrix is
//! solved both ways per scenario and the study reports detection
//! latency and recovered time-to-solution; the probe's latency is
//! asserted to be a small fraction of the boundary watchdog's, and its
//! TTS no worse.
//!
//! **Chaos campaign** — a seeded, deterministic sweep of adversarial
//! fault schedules (SDC + transfer faults + device loss + slowdown +
//! link degradation + stalls, composed concurrently) driven through
//! [`ca_gmres_ft`] by [`ca_chaos::run_campaign`]. Invariants per run:
//! typed outcome (converged-and-verified, typed breakdown, or honest
//! restart exhaustion), no panics, bounded monotone simulated time,
//! zero-rate schedules bit-identical to the plan-free baseline, span
//! forest well-nested under recording. The campaign digest folds every
//! run fingerprint in index order and every run is self-seeded, so it is
//! reproducible.
//!
//! Flags: `--large` near-paper sizes; `--matrix <name>` one suite
//! entry; `--schedules <n>` campaign size (default 1200); `--smoke`
//! first matrix + 64-schedule campaign, canonical DIGEST lines, no
//! files written (CI pins the output to `bench_results/smoke/ext_chaos.txt`).

use ca_bench::{balanced_problem, table, xhash, Study, TestMatrix};
use ca_chaos::{run_campaign, CampaignConfig, CampaignReport};
use ca_gmres::prelude::*;
use ca_gpusim::{FaultPlan, MultiGpu};

const NDEV: usize = 3;
const FAULT_DEV: usize = 1;
const WATCHDOG_S: f64 = 0.5;

/// A cell that is `-` where the scenario has no such value.
fn dash(v: f64, cell: String) -> String {
    if v > 0.0 {
        cell
    } else {
        "-".into()
    }
}

ca_bench::row!(Row {
    matrix: String ["matrix"],
    scenario: String ["scenario"],
    t_static_ms: f64 ["static ms" |r| dash(r.t_static_ms, format!("{:.3}", r.t_static_ms))],
    t_base_ms: f64 ["base ms" "{:.3}"],
    t_probe_ms: f64 ["probe ms" "{:.3}"],
    lat_base_ms: f64 ["lat(base)" |r| dash(r.lat_base_ms, format!("{:.3}", r.lat_base_ms))],
    lat_probe_ms: f64 ["lat(probe)" |r| dash(r.lat_probe_ms, format!("{:.3}", r.lat_probe_ms))],
    lat_ratio: f64 ["ratio" |r| dash(r.lat_ratio, format!("{:.3}", r.lat_ratio))],
    recovered_frac: f64
        ["recovered" |r| dash(r.recovered_frac, format!("{:.0}%", r.recovered_frac * 100.0))],
    in_cycle_polls: u64 ["polls"],
    block_resumes: usize ["resumes"],
    mid_cycle_rebalances: usize ["midreb"],
});

ca_bench::row!(Output { rows: Vec<Row>, campaign: CampaignReport });

fn ft_cfg(m: usize, probe: bool, straggler: bool, rebalance: bool) -> FtConfig {
    // straggler scenario: the boundary baseline rebalances at restarts,
    // the probe run mid-cycle only — arming both would let the boundary
    // rebalancer fix the layout first and reduce the probe to a no-op
    let mut cfg =
        FtConfig { watchdog_timeout_s: Some(WATCHDOG_S), rebalance, ..Default::default() };
    cfg.solver.s = 6;
    cfg.solver.m = m;
    if straggler {
        // fixed 12-cycle work budget (as in ext_straggler) so all four
        // straggler runs execute the identical iteration path and the
        // comparison is pure time-to-solution; SpMV kernel because row
        // rebalancing can only shed load the rows carry — MPK's
        // redundant ghost computation is a fixed per-device cost
        cfg.solver.rtol = 0.0;
        cfg.solver.max_restarts = 12;
        cfg.solver.kernel = ca_gmres::cagmres::KernelMode::Spmv;
    } else {
        cfg.solver.rtol = 1e-8;
        cfg.solver.max_restarts = 500;
    }
    if probe {
        cfg.probe = Some(HealthProbe {
            watchdog_timeout_s: Some(WATCHDOG_S),
            straggler_threshold: straggler.then_some(1.5),
        });
    }
    cfg
}

fn solve(
    a: &ca_sparse::Csr,
    b: &[f64],
    m: usize,
    plan: FaultPlan,
    probe: bool,
    straggler: bool,
    rebalance: bool,
) -> FtOutcome {
    let mut mg = MultiGpu::with_defaults(NDEV);
    mg.set_fault_plan(plan);
    let out = ca_gmres_ft(mg, a, b, &ft_cfg(m, probe, straggler, rebalance));
    assert!(out.stats.breakdown.is_none(), "solve broke down: {:?}", out.stats.breakdown);
    out
}

fn first_latency(out: &FtOutcome) -> f64 {
    out.report.detection_latency_s.first().copied().unwrap_or(0.0)
}

fn digest(study: &Study, label: &str, out: &FtOutcome) {
    study.digest(format_args!(
        "{label} iters={} restarts={} polls={} esc={} resumes={} midreb={} xhash={:016x} t_bits={:016x}",
        out.stats.total_iters,
        out.stats.restarts,
        out.report.in_cycle_polls,
        out.report.in_cycle_escalations,
        out.report.block_resumes,
        out.report.mid_cycle_rebalances,
        xhash(&out.x),
        out.stats.t_total.to_bits()
    ));
}

/// Hung device: every op on the fault device stalls far past the
/// watchdog threshold. Boundary watchdog eats the whole stalled cycle
/// before escalating; the probe escalates at the first block boundary.
fn study_hung(study: &Study, t: &TestMatrix, rows: &mut Vec<Row>) {
    let (a, b) = balanced_problem(&t.a);
    let plan = FaultPlan::new(1).with_stalls(FAULT_DEV, 1.0, 30.0);
    let base = solve(&a, &b, t.m, plan.clone(), false, false, false);
    let probe = solve(&a, &b, t.m, plan, true, false, false);

    assert!(
        base.stats.converged && probe.stats.converged,
        "{}: hung runs did not converge",
        t.name
    );
    assert_eq!(base.report.hung_device, Some(FAULT_DEV), "{}: baseline missed the hang", t.name);
    assert_eq!(probe.report.hung_device, Some(FAULT_DEV), "{}: probe missed the hang", t.name);
    let (lb, lp) = (first_latency(&base), first_latency(&probe));
    assert!(lb > 0.0 && lp > 0.0, "{}: no detection latency recorded", t.name);
    assert!(
        lp <= 0.5 * lb,
        "{}: probe latency {lp:.3}s not well under boundary latency {lb:.3}s",
        t.name
    );
    assert!(
        probe.stats.t_total <= base.stats.t_total,
        "{}: probe TTS {:.3}s worse than boundary TTS {:.3}s",
        t.name,
        probe.stats.t_total,
        base.stats.t_total
    );
    digest(study, &format!("{} hung/base", t.name), &base);
    digest(study, &format!("{} hung/probe", t.name), &probe);
    rows.push(Row {
        matrix: t.name.to_string(),
        scenario: "hung".into(),
        t_static_ms: 0.0,
        t_base_ms: base.stats.t_total * 1e3,
        t_probe_ms: probe.stats.t_total * 1e3,
        lat_base_ms: lb * 1e3,
        lat_probe_ms: lp * 1e3,
        lat_ratio: lp / lb,
        recovered_frac: 0.0,
        in_cycle_polls: probe.report.in_cycle_polls,
        block_resumes: probe.report.block_resumes,
        mid_cycle_rebalances: probe.report.mid_cycle_rebalances,
    });
}

/// Sustained 4x straggler, four ways: no fault (ideal), fault with no
/// rebalancing (static), boundary rebalancing, and the probe's
/// mid-cycle repartition (boundary rebalancer off, so the in-cycle
/// path is the only responder). The probe must recover a solid
/// fraction of the straggler loss and stay close to the boundary
/// strategy — it acts one block into the first protected cycle and
/// pays a checkpoint restore, where the boundary rebalancer already
/// acted at the end of the (unprotected) first cycle.
fn study_straggler(study: &Study, t: &TestMatrix, rows: &mut Vec<Row>) {
    let (a, b) = balanced_problem(&t.a);
    let plan = FaultPlan::new(1).with_slowdown(FAULT_DEV, 4.0, 0);
    let ideal = solve(&a, &b, t.m, FaultPlan::new(1), false, true, false);
    let stat = solve(&a, &b, t.m, plan.clone(), false, true, false);
    let base = solve(&a, &b, t.m, plan.clone(), false, true, true);
    let probe = solve(&a, &b, t.m, plan, true, true, false);

    assert!(
        probe.report.mid_cycle_rebalances >= 1,
        "{}: probe never rebalanced mid-cycle ({} boundary rebalances)",
        t.name,
        probe.report.rebalances
    );
    let recovered = (stat.stats.t_total - probe.stats.t_total)
        / (stat.stats.t_total - ideal.stats.t_total).max(f64::MIN_POSITIVE);
    assert!(
        recovered >= 0.25,
        "{}: mid-cycle rebalancing recovered only {:.0}% of the 4x straggler loss",
        t.name,
        recovered * 100.0
    );
    assert!(
        probe.stats.t_total <= base.stats.t_total * 1.25,
        "{}: mid-cycle TTS {:.3}s far past boundary TTS {:.3}s",
        t.name,
        probe.stats.t_total,
        base.stats.t_total
    );
    for (arm, out) in [("static", &stat), ("base", &base), ("probe", &probe)] {
        digest(study, &format!("{} strag/{arm}", t.name), out);
    }
    rows.push(Row {
        matrix: t.name.to_string(),
        scenario: "straggler".into(),
        t_static_ms: stat.stats.t_total * 1e3,
        t_base_ms: base.stats.t_total * 1e3,
        t_probe_ms: probe.stats.t_total * 1e3,
        lat_base_ms: 0.0,
        lat_probe_ms: 0.0,
        lat_ratio: 0.0,
        recovered_frac: recovered,
        in_cycle_polls: probe.report.in_cycle_polls,
        block_resumes: probe.report.block_resumes,
        mid_cycle_rebalances: probe.report.mid_cycle_rebalances,
    });
}

fn main() {
    let study =
        Study::new("ext_chaos", &["--large", "--smoke", "--matrix <name>", "--schedules <n>"]);
    let schedules: u64 = study.value("--schedules").unwrap_or(1200);

    let mut rows: Vec<Row> = Vec::new();
    for t in study.suite() {
        study_hung(&study, &t, &mut rows);
        study_straggler(&study, &t, &mut rows);
    }

    println!(
        "Extension — in-cycle detection: CA-GMRES(6, m) on {NDEV} GPUs, device {FAULT_DEV} faulted"
    );
    println!(
        "(latency = fault detection time; base = restart-boundary watchdog, probe = in-cycle)\n"
    );
    println!("{}", table(&rows));

    // chaos campaign: every invariant must hold on every schedule
    let schedules = if study.smoke { 64 } else { schedules };
    let report = run_campaign(&CampaignConfig { schedules, ..Default::default() });
    println!(
        "\nChaos campaign: seed={} schedules={} passed={} panics={} converged={} breakdowns={} \
         zero_rate={} probe_armed={} escalations={} resumes={} midreb={} detections={}",
        report.seed,
        report.schedules,
        report.passed,
        report.panics,
        report.converged,
        report.typed_breakdowns,
        report.zero_rate_checked,
        report.probe_armed,
        report.in_cycle_escalations,
        report.block_resumes,
        report.mid_cycle_rebalances,
        report.detections
    );
    for v in &report.violations {
        println!("VIOLATION #{}: {:?}\n  schedule: {}", v.index, v.problems, v.schedule);
        if let Some(s) = &v.shrunk {
            println!("  shrunk:   {s}");
        }
    }
    study.digest(format_args!(
        "campaign seed={} n={} digest={:016x} passed={} panics={} converged={} zero_rate={}",
        report.seed,
        report.schedules,
        report.digest,
        report.passed,
        report.panics,
        report.converged,
        report.zero_rate_checked
    ));
    assert!(
        report.ok(),
        "chaos campaign found {} violation(s) (span nesting: {:?})",
        report.violation_count,
        report.span_nesting_error
    );
    assert_eq!(report.panics, 0, "campaign caught panics");
    assert!(report.zero_rate_checked > 0, "campaign drew no zero-rate schedules");

    if !study.smoke {
        study.write_json(&Output { rows, campaign: report });
    }
}
