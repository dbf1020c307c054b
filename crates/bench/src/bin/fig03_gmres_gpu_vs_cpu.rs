//! Figure 3: performance of standard GMRES on the 16-core CPU reference
//! vs 1–3 (simulated) GPUs, for the four test matrices.
//!
//! Reports effective Gflop/s (total GMRES flops / simulated solve time),
//! the same metric as the paper's bar chart. Expected shape: GPUs beat the
//! CPU on every matrix and scale with device count, with the sparsest
//! matrix (G3_circuit) scaling worst because communication dominates.

use ca_bench::{gmres_flops, rhs_for, table, Study};
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    config: String ["config"],
    iters: usize ["iters"],
    restarts: usize ["restarts"],
    time_s: f64 ["sim time (s)" "{:.4}"],
    gflops: f64 ["Gflop/s" "{:.2}"],
});

fn main() {
    let study = Study::new("fig03_gmres_gpu_vs_cpu", &["--large"]);
    let mut rows: Vec<Row> = Vec::new();

    for t in study.suite() {
        let b = rhs_for(&t.a);
        let (n, nnz, m) = (t.a.nrows(), t.a.nnz(), t.m);
        let mut row = |config: String, st: &SolveStats| {
            rows.push(Row {
                matrix: t.name.into(),
                config,
                iters: st.total_iters,
                restarts: st.restarts,
                time_s: st.t_total,
                gflops: gmres_flops(nnz, n, m, st.total_iters) / st.t_total / 1e9,
            })
        };

        // CPU reference (threaded-MKL stand-in), CGS orthogonalization.
        let (_, cpu) =
            gmres_cpu(&t.a, &b, m, BorthKind::Cgs, 1e-8, 1000, &ca_gpusim::PerfModel::default());
        row("CPU (16 cores)".into(), &cpu);

        // 1-3 simulated GPUs.
        for ng in 1..=3usize {
            let (a_ord, _, layout) = prepare(&t.a, Ordering::Natural, ng);
            let mut mg = MultiGpu::with_defaults(ng);
            let sys = System::new(&mut mg, &a_ord, layout, m, None).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            let cfg = GmresConfig { m, orth: BorthKind::Cgs, rtol: 1e-8, max_restarts: 1000 };
            let out = gmres(&mut mg, &sys, &cfg);
            row(format!("{ng} GPU{}", if ng > 1 { "s" } else { "" }), &out.stats);
        }
    }

    println!("Figure 3 — GMRES on CPUs vs 1-3 GPUs (effective Gflop/s, simulated time)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
