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

use ca_bench::{lcg_vec, table, true_relres, Study};
use ca_gmres::cagmres::CaGmresConfig;
use ca_gmres::ft::{ca_gmres_ft, FtConfig};
use ca_gpusim::{FaultPlan, MultiGpu, SdcTargets};

const NDEV: usize = 3;

ca_bench::row!(Row {
    scenario: String ["scenario"],
    protection: String ["protect"],
    converged: bool ["conv" |r| if r.converged { "yes".into() } else { "NO".into() }],
    iters: usize ["iters"],
    restarts: usize ["rest"],
    time_ms: f64 ["ms" "{:.2}"],
    overhead_pct: f64 ["overhead" "{:+.1}%"],
    true_relres: f64 ["relres" "{:.1e}"],
    sdc_detected: usize ["det"],
    blocks_recomputed: usize ["recomp"],
    cycles_redone: usize ["redo"],
    transfer_retries: u64 ["retries"],
    ndev_final: usize ["gpus"],
});

fn main() {
    let study = Study::new("ext_fault_tolerance", &[]);
    let a = ca_sparse::gen::convection_diffusion(48, 48, 1.5);
    let b = lcg_vec(0x9E3779B97F4A7C15, 1, a.nrows());
    let cfg = CaGmresConfig { s: 6, m: 30, rtol: 1e-8, max_restarts: 400, ..Default::default() };
    let unprotected = FtConfig { solver: cfg, verify: false, ..Default::default() };
    let protected = FtConfig { solver: cfg, ..Default::default() };
    let mut rows: Vec<Row> = Vec::new();
    // one solve under `plan`; overhead against the clean baseline `t_ref_ms`
    let mut run = |scenario: &str, protection: &str, plan: Option<FaultPlan>, ft: &FtConfig| {
        let mut mg = MultiGpu::with_defaults(NDEV);
        if let Some(p) = plan {
            mg.set_fault_plan(p);
        }
        let out = ca_gmres_ft(mg, &a, &b, ft);
        let t_ms = 1e3 * out.stats.t_total;
        let t_ref_ms = rows.first().map(|r: &Row| r.time_ms);
        rows.push(Row {
            scenario: scenario.into(),
            protection: protection.into(),
            converged: out.stats.converged,
            iters: out.stats.total_iters,
            restarts: out.stats.restarts,
            time_ms: t_ms,
            overhead_pct: t_ref_ms.map_or(0.0, |t0| 100.0 * (t_ms / t0 - 1.0)),
            true_relres: true_relres(&a, &b, &out.x),
            sdc_detected: out.report.sdc_detected,
            blocks_recomputed: out.report.blocks_recomputed,
            cycles_redone: out.report.cycles_redone,
            transfer_retries: out.report.transfer_retries,
            ndev_final: out.report.ndev_final,
        });
    };

    // --- A: no faults — baseline, zero-rate plan, and ABFT-on overhead ---
    run("A clean", "none", None, &unprotected);
    run("A clean", "none+plan0", Some(FaultPlan::new(1)), &unprotected);
    run("A clean", "abft", None, &protected);

    // --- B: SpMV SDC sweep, unprotected vs ABFT + recompute ---
    for rate in [1e-3f64, 5e-3, 2e-2] {
        let plan = || Some(FaultPlan::new(52).with_sdc(rate, SdcTargets::spmv_only()));
        let name = format!("B sdc {rate:.0e}");
        run(&name, "none", plan(), &unprotected);
        run(&name, "abft", plan(), &protected);
    }

    // --- C: device loss mid-solve, with and without transfer faults ---
    let loss = FaultPlan::new(5).with_device_loss(1, 326);
    run("C dev loss", "ft", Some(loss.clone()), &protected);
    run("C loss+xfer", "ft", Some(loss.with_transfer_faults(5e-3)), &protected);

    assert_eq!(
        rows[0].time_ms.to_bits(),
        rows[1].time_ms.to_bits(),
        "zero-rate plan must be bit-identical to the baseline"
    );
    assert!(rows[2].converged && rows[2].sdc_detected == 0);

    println!(
        "Extension — fault-tolerant CA-GMRES(s={}, m={}) on {} GPUs, rtol {:.0e}\n",
        cfg.s, cfg.m, NDEV, cfg.rtol
    );
    println!("{}", table(&rows));
    println!(
        "A: zero-rate plan bit-identical; ABFT overhead on a clean run is the detection price.\n\
         B: with ABFT every detected block is recomputed and the solve reaches the same\n\
         tolerance; unprotected runs burn extra restarts (or miss the tolerance) silently.\n\
         C: after losing GPU 1 the solve finishes on the survivors at the same tolerance."
    );
    study.write_json(&rows);
}
