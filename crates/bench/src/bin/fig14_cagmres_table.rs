//! Figure 14 (the paper's main table): GMRES vs CA-GMRES(1, m) vs
//! CA-GMRES(15, m) on `cant` (natural ordering), `G3_circuit` (k-way) and
//! `dielFilterV2real` (k-way), on 1–3 GPUs.
//!
//! Columns follow the paper: restart count, average orthogonalization /
//! TSQR / SpMV / total time per restart loop (simulated ms), and the
//! speedup of CA-GMRES(15) over GMRES-CGS on the same device count.
//!
//! Expected shape: GMRES-MGS ≫ GMRES-CGS in orthogonalization time;
//! CA-GMRES(1) much slower than GMRES (block kernels at width 1);
//! CA-GMRES(15) with CholQR cuts orthogonalization by 2-4x and wins
//! overall by ~1.3-2x.

use ca_bench::{cant, diel_filter, g3_circuit, table, Problem, Study, TestMatrix};
use ca_gmres::prelude::*;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    solver: String ["solver"],
    ngpus: usize ["g"],
    restarts: usize ["Rest."],
    ortho_per_res_ms: f64 ["Ortho/Res" "{:.3}"],
    tsqr_per_res_ms: f64 ["TSQR/Res" |r| if r.tsqr_per_res_ms > 0.0 {
        format!("{:.3}", r.tsqr_per_res_ms)
    } else {
        "-".into()
    }],
    spmv_per_res_ms: f64 ["SpMV/Res" "{:.3}"],
    total_per_res_ms: f64 ["Total/Res" "{:.3}"],
    speedup: Option<f64> ["SpdUp" |r| speedup(r.speedup)],
    converged: bool ["conv" |r| if r.converged { "yes".into() } else { "NO".into() }],
});

fn speedup(s: Option<f64>) -> String {
    s.map_or_else(|| "-".into(), |s| format!("{s:.2}"))
}

/// Record a finished row and stream it at once (long `--large` runs
/// should not buffer everything until the end).
fn emit(rows: &mut Vec<Row>, r: Row) {
    use std::io::Write;
    println!(
        "{:>16}  {:>28}  {}  {:>5}  {:>9.3}  {:>8.3}  {:>8.3}  {:>9.3}  {:>5}  {}",
        r.matrix,
        r.solver,
        r.ngpus,
        r.restarts,
        r.ortho_per_res_ms,
        r.tsqr_per_res_ms,
        r.spmv_per_res_ms,
        r.total_per_res_ms,
        speedup(r.speedup),
        if r.converged { "yes" } else { "NO" },
    );
    let _ = std::io::stdout().flush();
    rows.push(r);
}

/// GMRES(m) on `p`: restarts to a 1e-8 reduction, per-restart times from
/// three full cycles (the paper's per-restart averages come from long
/// steady-state runs). Returns the total time per restart.
fn run_gmres(t: &TestMatrix, p: &Problem, orth: BorthKind, rows: &mut Vec<Row>) -> f64 {
    let conv = p.gmres(&GmresConfig { m: t.m, orth, rtol: 1e-8, max_restarts: 300 });
    let out = p.gmres(&GmresConfig { m: t.m, orth, rtol: 0.0, max_restarts: 3 });
    let s = &out.stats;
    let name = if orth == BorthKind::Mgs { "MGS" } else { "CGS" };
    emit(
        rows,
        Row {
            matrix: t.name.into(),
            solver: format!("GMRES({}) {name}", t.m),
            ngpus: p.layout.ndev(),
            restarts: conv.stats.restarts,
            ortho_per_res_ms: s.orth_per_restart_ms(),
            tsqr_per_res_ms: 0.0,
            spmv_per_res_ms: s.spmv_per_restart_ms(),
            total_per_res_ms: s.total_per_restart_ms(),
            speedup: None,
            converged: conv.stats.converged,
        },
    );
    s.total_per_restart_ms()
}

/// CA-GMRES(s, m) on `p`: restarts to a 1e-8 reduction, per-restart times
/// of the CA cycles of a shift-harvest cycle + three full CA cycles (the
/// harvest is amortized away in the paper's long runs).
fn run_ca(
    t: &TestMatrix,
    p: &Problem,
    (s, tsqr, reorth): (usize, TsqrKind, bool),
    baseline_ms: Option<f64>,
    rows: &mut Vec<Row>,
) {
    let cfg = CaGmresConfig {
        s,
        m: t.m,
        orth: OrthConfig { tsqr, reorth, ..Default::default() },
        kernel: p.fastest_kernel(s),
        rtol: 1e-8,
        max_restarts: 300,
        ..Default::default()
    };
    let conv = p.ca_gmres(&cfg);
    let st = p.ca_gmres(&CaGmresConfig { rtol: 0.0, max_restarts: 4, ..cfg }).ca_stats;
    emit(
        rows,
        Row {
            matrix: t.name.into(),
            solver: format!("CA-GMRES({s},{}) {}{tsqr}", t.m, if reorth { "2x" } else { "" }),
            ngpus: p.layout.ndev(),
            restarts: conv.stats.restarts,
            ortho_per_res_ms: st.orth_per_restart_ms(),
            tsqr_per_res_ms: st.tsqr_per_restart_ms(),
            spmv_per_res_ms: st.spmv_per_restart_ms(),
            total_per_res_ms: st.total_per_restart_ms(),
            speedup: baseline_ms.map(|b| b / st.total_per_restart_ms()),
            converged: conv.stats.converged,
        },
    );
}

fn main() {
    let study = Study::new("fig14_cagmres_table", &["--large", "--matrix <name>"]);
    let mut rows: Vec<Row> = Vec::new();
    let cases = [
        (cant(study.scale), Ordering::Natural, true),
        (g3_circuit(study.scale), Ordering::Kway, false),
        (diel_filter(study.scale), Ordering::Kway, true),
    ];

    println!("(streaming rows: matrix, solver, gpus, restarts, ortho/res, tsqr/res, spmv/res, total/res, speedup, converged)");
    for (t, ord, reorth_chol) in cases.iter().filter(|(t, ..)| study.selects(t.name)) {
        let p: Vec<Problem> = (1..=3).map(|ng| Problem::new(&t.a, *ord, ng)).collect();
        // GMRES rows: MGS on 1 GPU, CGS on 1-3 (matching the table layout)
        run_gmres(t, &p[0], BorthKind::Mgs, &mut rows);
        let cgs: Vec<f64> = p.iter().map(|p| run_gmres(t, p, BorthKind::Cgs, &mut rows)).collect();
        // CA-GMRES(1, m) on 1 GPU
        run_ca(t, &p[0], (1, TsqrKind::CholQr, false), None, &mut rows);
        // CA-GMRES(15, m): CGS row (1 GPU) then CholQR rows (1-3 GPUs)
        run_ca(t, &p[0], (15, TsqrKind::Cgs, true), None, &mut rows);
        for (p, cgs_ms) in p.iter().zip(cgs) {
            run_ca(t, p, (15, TsqrKind::CholQr, *reorth_chol), Some(cgs_ms), &mut rows);
        }
    }

    println!("Figure 14 — GMRES vs CA-GMRES, per-restart simulated times (ms)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
