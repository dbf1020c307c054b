#![allow(clippy::needless_range_loop)]

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

use ca_bench::{balanced_problem, cant, diel_filter, format_table, g3_circuit, write_json, Scale};
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;

struct Row {
    matrix: String,
    solver: String,
    ngpus: usize,
    restarts: usize,
    ortho_per_res_ms: f64,
    tsqr_per_res_ms: f64,
    spmv_per_res_ms: f64,
    total_per_res_ms: f64,
    speedup: Option<f64>,
    converged: bool,
}

ca_bench::jv_struct!(Row {
    matrix,
    solver,
    ngpus,
    restarts,
    ortho_per_res_ms,
    tsqr_per_res_ms,
    spmv_per_res_ms,
    total_per_res_ms,
    speedup,
    converged,
});

fn run_gmres(
    t: &ca_bench::TestMatrix,
    ord: Ordering,
    ng: usize,
    orth: BorthKind,
    rows: &mut Vec<Row>,
) -> f64 {
    let (a_bal, b_bal) = balanced_problem(&t.a);
    let (a_ord, perm, layout) = prepare(&a_bal, ord, ng);
    let b_perm = ca_sparse::perm::permute_vec(&b_bal, &perm);
    // convergence run: how many restarts to 1e-8 reduction
    let mut mg = MultiGpu::with_defaults(ng);
    let sys = System::new(&mut mg, &a_ord, layout.clone(), t.m, None).unwrap();
    sys.load_rhs(&mut mg, &b_perm).unwrap();
    let cfg = GmresConfig { m: t.m, orth, rtol: 1e-8, max_restarts: 300 };
    let conv = gmres(&mut mg, &sys, &cfg);
    // timing run: 3 full restart cycles, no early exit (the paper's
    // per-restart averages come from long steady-state runs)
    let mut mg = MultiGpu::with_defaults(ng);
    let sys = System::new(&mut mg, &a_ord, layout, t.m, None).unwrap();
    sys.load_rhs(&mut mg, &b_perm).unwrap();
    let out = gmres(&mut mg, &sys, &GmresConfig { m: t.m, orth, rtol: 0.0, max_restarts: 3 });
    let s = &out.stats;
    rows.push(Row {
        matrix: t.name.into(),
        solver: format!("GMRES({}) {}", t.m, if orth == BorthKind::Mgs { "MGS" } else { "CGS" }),
        ngpus: ng,
        restarts: conv.stats.restarts,
        ortho_per_res_ms: s.orth_per_restart_ms(),
        tsqr_per_res_ms: 0.0,
        spmv_per_res_ms: s.spmv_per_restart_ms(),
        total_per_res_ms: s.total_per_restart_ms(),
        speedup: None,
        converged: conv.stats.converged,
    });
    print_row(rows.last().unwrap());
    s.total_per_restart_ms()
}

#[allow(clippy::too_many_arguments)]
fn run_ca(
    t: &ca_bench::TestMatrix,
    ord: Ordering,
    ng: usize,
    s_steps: usize,
    tsqr: TsqrKind,
    reorth: bool,
    baseline_ms: Option<f64>,
    rows: &mut Vec<Row>,
) {
    let (a_bal, b_bal) = balanced_problem(&t.a);
    let (a_ord, perm, layout) = prepare(&a_bal, ord, ng);
    let b_perm = ca_sparse::perm::permute_vec(&b_bal, &perm);
    // convergence run
    let mut mg = MultiGpu::with_defaults(ng);
    let sys = System::new(&mut mg, &a_ord, layout.clone(), t.m, Some(s_steps)).unwrap();
    sys.load_rhs(&mut mg, &b_perm).unwrap();
    let cfg = CaGmresConfig {
        s: s_steps,
        m: t.m,
        orth: OrthConfig { tsqr, reorth, ..Default::default() },
        kernel: ca_gmres::cagmres::KernelMode::Auto,
        rtol: 1e-8,
        max_restarts: 300,
        ..Default::default()
    };
    let conv = ca_gmres(&mut mg, &sys, &cfg);
    // timing run: shift-harvest cycle + 3 full CA cycles, no early exit
    let mut mg = MultiGpu::with_defaults(ng);
    let sys = System::new(&mut mg, &a_ord, layout, t.m, Some(s_steps)).unwrap();
    sys.load_rhs(&mut mg, &b_perm).unwrap();
    let out = ca_gmres(&mut mg, &sys, &CaGmresConfig { rtol: 0.0, max_restarts: 4, ..cfg });
    let st = &out.ca_stats; // CA cycles only; the shift-harvest cycle is
                            // amortized away in the paper's long runs
    let label = format!("CA-GMRES({s_steps},{}) {}{}", t.m, if reorth { "2x" } else { "" }, tsqr);
    rows.push(Row {
        matrix: t.name.into(),
        solver: label,
        ngpus: ng,
        restarts: conv.stats.restarts,
        ortho_per_res_ms: st.orth_per_restart_ms(),
        tsqr_per_res_ms: st.tsqr_per_restart_ms(),
        spmv_per_res_ms: st.spmv_per_restart_ms(),
        total_per_res_ms: st.total_per_restart_ms(),
        speedup: baseline_ms.map(|b| b / st.total_per_restart_ms()),
        converged: conv.stats.converged,
    });
    print_row(rows.last().unwrap());
}

/// Stream one finished row immediately (long `--large` runs should not
/// buffer everything until the end).
fn print_row(r: &Row) {
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
        r.speedup.map(|s| format!("{s:.2}")).unwrap_or_else(|| "-".into()),
        if r.converged { "yes" } else { "NO" },
    );
    let _ = std::io::stdout().flush();
}

fn main() {
    let scale = Scale::from_args();
    // optional filter: --only <matrix-name-substring>
    let args: Vec<String> = std::env::args().collect();
    let only: Option<String> = ca_bench::flag_value(&args, "--only");
    let mut rows: Vec<Row> = Vec::new();
    let cases = [
        (cant(scale), Ordering::Natural, true),
        (g3_circuit(scale), Ordering::Kway, false),
        (diel_filter(scale), Ordering::Kway, true),
    ];

    println!("(streaming rows: matrix, solver, gpus, restarts, ortho/res, tsqr/res, spmv/res, total/res, speedup, converged)");
    for (t, ord, reorth_chol) in cases {
        if let Some(f) = &only {
            if !t.name.contains(f.as_str()) {
                continue;
            }
        }
        // GMRES rows: MGS on 1 GPU, CGS on 1-3 (matching the table layout)
        run_gmres(&t, ord, 1, BorthKind::Mgs, &mut rows);
        let mut cgs_baseline = [0.0f64; 4];
        for ng in 1..=3 {
            cgs_baseline[ng] = run_gmres(&t, ord, ng, BorthKind::Cgs, &mut rows);
        }
        // CA-GMRES(1, m) on 1 GPU
        run_ca(&t, ord, 1, 1, TsqrKind::CholQr, false, None, &mut rows);
        // CA-GMRES(15, m): CGS row (1 GPU) then CholQR rows (1-3 GPUs)
        run_ca(&t, ord, 1, 15, TsqrKind::Cgs, true, None, &mut rows);
        for ng in 1..=3 {
            run_ca(
                &t,
                ord,
                ng,
                15,
                TsqrKind::CholQr,
                reorth_chol,
                Some(cgs_baseline[ng]),
                &mut rows,
            );
        }
    }

    println!("Figure 14 — GMRES vs CA-GMRES, per-restart simulated times (ms)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                r.solver.clone(),
                r.ngpus.to_string(),
                r.restarts.to_string(),
                format!("{:.3}", r.ortho_per_res_ms),
                if r.tsqr_per_res_ms > 0.0 {
                    format!("{:.3}", r.tsqr_per_res_ms)
                } else {
                    "-".into()
                },
                format!("{:.3}", r.spmv_per_res_ms),
                format!("{:.3}", r.total_per_res_ms),
                r.speedup.map(|s| format!("{s:.2}")).unwrap_or_else(|| "-".into()),
                if r.converged { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "matrix",
                "solver",
                "g",
                "Rest.",
                "Ortho/Res",
                "TSQR/Res",
                "SpMV/Res",
                "Total/Res",
                "SpdUp",
                "conv"
            ],
            &table
        )
    );
    write_json("fig14_cagmres_table", &rows);
}
