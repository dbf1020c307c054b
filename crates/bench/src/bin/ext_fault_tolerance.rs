//! Extension study: fault-tolerant CA-GMRES under injected faults.
//!
//! Three scenarios on a convection–diffusion problem, all with the
//! deterministic [`FaultPlan`] substrate so every row reproduces exactly:
//!
//! A. **Zero-rate sanity** — a fault plan with every rate at zero must be
//!    bit-identical to the unprotected baseline (clock, counters,
//!    solution), and the ABFT machinery itself must carry a bounded,
//!    visible time overhead.
//! B. **SpMV SDC sweep** — silent bit-flips in MPK/SpMV outputs at
//!    increasing rates, solved (i) unprotected and (ii) with ABFT
//!    detection + bounded block recompute. The protected solver should
//!    converge to the same tolerance with overhead that scales with the
//!    fault rate; the unprotected one wastes iterations or stalls.
//! C. **Device loss** — a GPU dies mid-solve; the driver redistributes
//!    onto the survivors and completes, paying the re-upload and the
//!    slower post-loss rate.

use ca_bench::{format_table, write_json};
use ca_gmres::cagmres::CaGmresConfig;
use ca_gmres::ft::{ca_gmres_ft, FtConfig};
use ca_gpusim::{FaultPlan, MultiGpu, SdcTargets};

const NDEV: usize = 3;

fn problem() -> (ca_sparse::Csr, Vec<f64>) {
    let a = ca_sparse::gen::convection_diffusion(48, 48, 1.5);
    let n = a.nrows();
    let mut st = 0x9E3779B97F4A7C15u64;
    let b: Vec<f64> = (0..n)
        .map(|_| {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((st >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    (a, b)
}

fn solver_cfg() -> CaGmresConfig {
    CaGmresConfig { s: 6, m: 30, rtol: 1e-8, max_restarts: 400, ..Default::default() }
}

fn true_relres(a: &ca_sparse::Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    ca_sparse::spmv::spmv(a, x, &mut r);
    for i in 0..b.len() {
        r[i] = b[i] - r[i];
    }
    ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(b)
}

struct Row {
    scenario: String,
    protection: String,
    converged: bool,
    iters: usize,
    restarts: usize,
    time_ms: f64,
    overhead_pct: f64,
    true_relres: f64,
    sdc_detected: usize,
    blocks_recomputed: usize,
    cycles_redone: usize,
    transfer_retries: u64,
    ndev_final: usize,
}

ca_bench::jv_struct!(Row {
    scenario,
    protection,
    converged,
    iters,
    restarts,
    time_ms,
    overhead_pct,
    true_relres,
    sdc_detected,
    blocks_recomputed,
    cycles_redone,
    transfer_retries,
    ndev_final,
});

#[allow(clippy::too_many_arguments)]
fn run(
    scenario: &str,
    protection: &str,
    plan: Option<FaultPlan>,
    ft: &FtConfig,
    a: &ca_sparse::Csr,
    b: &[f64],
    t_ref_ms: Option<f64>,
    rows: &mut Vec<Row>,
) -> f64 {
    let mut mg = MultiGpu::with_defaults(NDEV);
    if let Some(p) = plan {
        mg.set_fault_plan(p);
    }
    let out = ca_gmres_ft(mg, a, b, ft);
    let t_ms = 1e3 * out.stats.t_total;
    rows.push(Row {
        scenario: scenario.into(),
        protection: protection.into(),
        converged: out.stats.converged,
        iters: out.stats.total_iters,
        restarts: out.stats.restarts,
        time_ms: t_ms,
        overhead_pct: t_ref_ms.map_or(0.0, |t0| 100.0 * (t_ms / t0 - 1.0)),
        true_relres: true_relres(a, b, &out.x),
        sdc_detected: out.report.sdc_detected,
        blocks_recomputed: out.report.blocks_recomputed,
        cycles_redone: out.report.cycles_redone,
        transfer_retries: out.report.transfer_retries,
        ndev_final: out.report.ndev_final,
    });
    t_ms
}

fn unprotected(cfg: &CaGmresConfig) -> FtConfig {
    FtConfig {
        solver: *cfg,
        abft_spmv: false,
        abft_orth: false,
        residual_check: false,
        ..Default::default()
    }
}

fn protected(cfg: &CaGmresConfig) -> FtConfig {
    FtConfig { solver: *cfg, ..Default::default() }
}

fn main() {
    let (a, b) = problem();
    let cfg = solver_cfg();
    let mut rows: Vec<Row> = Vec::new();

    // --- A: no faults — baseline, zero-rate plan, and ABFT-on overhead ---
    let t0 = run("A clean", "none", None, &unprotected(&cfg), &a, &b, None, &mut rows);
    run(
        "A clean",
        "none+plan0",
        Some(FaultPlan::new(1)),
        &unprotected(&cfg),
        &a,
        &b,
        Some(t0),
        &mut rows,
    );
    run("A clean", "abft", None, &protected(&cfg), &a, &b, Some(t0), &mut rows);
    {
        let r = &rows[..];
        assert_eq!(
            r[0].time_ms.to_bits(),
            r[1].time_ms.to_bits(),
            "zero-rate plan must be bit-identical to the baseline"
        );
        assert!(r[2].converged && r[2].sdc_detected == 0);
    }

    // --- B: SpMV SDC sweep, unprotected vs ABFT + recompute ---
    for rate in [1e-3f64, 5e-3, 2e-2] {
        let plan = || Some(FaultPlan::new(52).with_sdc(rate, SdcTargets::spmv_only()));
        let name = format!("B sdc {rate:.0e}");
        run(&name, "none", plan(), &unprotected(&cfg), &a, &b, Some(t0), &mut rows);
        run(&name, "abft", plan(), &protected(&cfg), &a, &b, Some(t0), &mut rows);
    }

    // --- C: device loss mid-solve, with and without transfer faults ---
    run(
        "C dev loss",
        "ft",
        Some(FaultPlan::new(5).with_device_loss(1, 326)),
        &protected(&cfg),
        &a,
        &b,
        Some(t0),
        &mut rows,
    );
    run(
        "C loss+xfer",
        "ft",
        Some(FaultPlan::new(5).with_device_loss(1, 326).with_transfer_faults(5e-3)),
        &protected(&cfg),
        &a,
        &b,
        Some(t0),
        &mut rows,
    );

    println!(
        "Extension — fault-tolerant CA-GMRES(s={}, m={}) on {} GPUs, rtol {:.0e}\n",
        cfg.s, cfg.m, NDEV, cfg.rtol
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.protection.clone(),
                if r.converged { "yes".into() } else { "NO".into() },
                r.iters.to_string(),
                r.restarts.to_string(),
                format!("{:.2}", r.time_ms),
                format!("{:+.1}%", r.overhead_pct),
                format!("{:.1e}", r.true_relres),
                r.sdc_detected.to_string(),
                r.blocks_recomputed.to_string(),
                r.cycles_redone.to_string(),
                r.transfer_retries.to_string(),
                r.ndev_final.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "scenario", "protect", "conv", "iters", "rest", "ms", "overhead", "relres", "det",
                "recomp", "redo", "retries", "gpus",
            ],
            &table
        )
    );
    println!(
        "A: zero-rate plan bit-identical; ABFT overhead on a clean run is the detection price.\n\
         B: with ABFT every detected block is recomputed and the solve reaches the same\n\
         tolerance; unprotected runs burn extra restarts (or miss the tolerance) silently.\n\
         C: after losing GPU 1 the solve finishes on the survivors at the same tolerance."
    );
    write_json("ext_fault_tolerance", &rows);
}
