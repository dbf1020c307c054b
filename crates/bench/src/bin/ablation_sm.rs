//! Ablation: CA-GMRES speedup over GMRES as a function of the step size
//! `s` and the restart length `m` — the parameter landscape behind the
//! paper's closing remark about "adaptive schemes ... to adjust input
//! parameters (e.g., m and s)".
//!
//! Expected shape: speedup rises with `s` (fewer reductions per vector)
//! until the block kernels' s^2 Gram work and the MPK/SpMV overhead eat
//! the gain; larger `m` amortizes the fixed per-cycle costs and shifts
//! the optimum to larger `s`.

use ca_bench::{g3_circuit, table, Problem, Study};
use ca_gmres::prelude::*;

ca_bench::row!(Row {
    m: usize ["m"],
    s: usize ["s"],
    gmres_ms_per_res: f64 ["GMRES ms/res" "{:.3}"],
    ca_ms_per_res: f64 ["CA ms/res" "{:.3}"],
    speedup: f64 ["speedup" "{:.2}"],
});

fn main() {
    let study = Study::new("ablation_sm", &["--large"]);
    let ndev = 3usize;
    let p = Problem::new(&g3_circuit(study.scale).a, Ordering::Kway, ndev);
    let mut rows: Vec<Row> = Vec::new();

    for m in [30usize, 60, 120] {
        let gmres_cfg = GmresConfig { m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 3 };
        let g_ms = p.gmres(&gmres_cfg).stats.total_per_restart_ms();
        for s in [2usize, 5, 10, 15, 20, 30].into_iter().filter(|&s| s <= m) {
            let cfg = CaGmresConfig {
                s,
                m,
                kernel: p.fastest_kernel(s),
                rtol: 0.0,
                max_restarts: 4,
                ..Default::default()
            };
            let c_ms = p.ca_gmres(&cfg).ca_stats.total_per_restart_ms();
            rows.push(Row {
                m,
                s,
                gmres_ms_per_res: g_ms,
                ca_ms_per_res: c_ms,
                speedup: g_ms / c_ms,
            });
        }
    }

    println!("Ablation — CA-GMRES speedup over the (s, m) grid (G3_circuit analog, {ndev} GPUs)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
