//! Figure 15: summary — time per restart loop of CA-GMRES (s = 10,
//! SpMV/MPK auto-selected) normalized by GMRES on the same device count,
//! for all four matrices on 1–3 GPUs, with speedup labels.
//!
//! Expected shape: CA-GMRES wins by ~1.3-2x everywhere, with the largest
//! gains where orthogonalization dominated (G3_circuit with its small
//! nnz/n) and the kernel auto-selection falling back to SpMV when MPK's
//! boundary overhead exceeds its latency saving.

use ca_bench::{table, Problem, Study};
use ca_gmres::prelude::*;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    ngpus: usize ["g"],
    gmres_total_per_res_ms: f64 ["GMRES ms/res" "{:.3}"],
    gmres_orth_per_res_ms: f64,
    gmres_spmv_per_res_ms: f64,
    ca_total_per_res_ms: f64 ["CA ms/res" "{:.3}"],
    ca_orth_per_res_ms: f64,
    ca_spmv_per_res_ms: f64,
    kernel_used: String ["kernel"],
    speedup: f64 ["speedup" "{:.2}"],
    normalized_vs_1gpu_gmres: f64 ["norm. vs 1-GPU GMRES" "{:.3}"],
});

fn main() {
    let study = Study::new("fig15_summary", &["--large"]);
    let s = 10usize;
    let mut rows: Vec<Row> = Vec::new();

    for t in study.suite() {
        let ord = if t.name == "cant" { Ordering::Natural } else { Ordering::Kway };
        let mut gmres_1gpu_ms = 1.0;
        for ng in 1..=3usize {
            let p = Problem::new(&t.a, ord, ng);
            // GMRES baseline (CGS): 3 full cycles, steady-state timing
            let g = p
                .gmres(&GmresConfig { m: t.m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 3 })
                .stats;
            if ng == 1 {
                gmres_1gpu_ms = g.total_per_restart_ms();
            }

            // CA-GMRES with auto kernel selection; per-restart view of the
            // CA cycles only (the shift-harvest first cycle is amortized away
            // in the paper's long runs)
            let kernel = p.fastest_kernel(s);
            let cfg = CaGmresConfig {
                s,
                m: t.m,
                kernel,
                rtol: 0.0,
                max_restarts: 4, // shift harvest + 3 full CA cycles
                ..Default::default()
            };
            let c_out = p.ca_gmres(&cfg);
            let c = &c_out.ca_stats;

            rows.push(Row {
                matrix: t.name.into(),
                ngpus: ng,
                gmres_total_per_res_ms: g.total_per_restart_ms(),
                gmres_orth_per_res_ms: g.orth_per_restart_ms(),
                gmres_spmv_per_res_ms: g.spmv_per_restart_ms(),
                ca_total_per_res_ms: c.total_per_restart_ms(),
                ca_orth_per_res_ms: c.orth_per_restart_ms(),
                ca_spmv_per_res_ms: c.spmv_per_restart_ms(),
                kernel_used: format!("{kernel:?}"),
                speedup: g.total_per_restart_ms() / c.total_per_restart_ms(),
                normalized_vs_1gpu_gmres: c.total_per_restart_ms() / gmres_1gpu_ms,
            });
        }
    }

    println!("Figure 15 — GMRES vs CA-GMRES(10, m), time per restart loop (simulated)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
