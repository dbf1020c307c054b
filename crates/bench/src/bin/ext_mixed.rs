//! Extension study: mixed-precision CA-GMRES — f32 basis + f64 refinement.
//!
//! The paper's Figure 12/13 machine spends most of its PCIe budget on the
//! matrix powers kernel and its halo exchange. [`ca_gmres_mixed`] runs
//! exactly that traffic in single precision (f32 operator slices, f32 MPK
//! arithmetic, 4-byte halo elements) while everything that decides
//! convergence — Gram, BOrth, TSQR, the Hessenberg recurrence, and the
//! restart-boundary residual — stays f64, turning the restart loop into
//! iterative refinement. This study measures both halves of that bargain
//! on the Figure 12 suite:
//!
//! 1. **Fixed-budget leg** (`rtol = 0`, [`COMM_RESTARTS`] cycles): the f64
//!    and mixed runs execute the identical message schedule, so the
//!    counter deltas are pure precision. Asserted exactly:
//!    * message counts are identical (same plan, narrower payloads);
//!    * the f64 run moves zero f32-tagged bytes, the mixed run moves a
//!      nonzero amount;
//!    * `bytes_f64_run - bytes_mixed_run == bytes_f32_tagged`, i.e. every
//!      f32-tagged byte used to be 8 bytes wide — the halo volume is
//!      *exactly* halved, not approximately;
//!    * per-cycle MPK + halo time is strictly lower for mixed.
//! 2. **Convergence leg** (`rtol = 1e-8`): both precisions must reach the
//!    same f64 tolerance (verified against an explicitly recomputed
//!    residual, not the solver's own estimate) with the mixed run taking
//!    at most one extra restart — the ISSUE's acceptance bar for the
//!    refinement anchor.
//!
//! The **oracle** row is the per-matrix best-of-both with hindsight: mixed
//! when it converged without escalating and was faster, f64 otherwise.
//! A planner that picks precision per matrix (see `ca-tune`'s
//! `CandidateSpace::mixed`) is chasing this row.
//!
//! Flags: `--large` near-paper sizes; `--matrix <name>` one suite entry;
//! `--smoke` first matrix only, canonical DIGEST lines, no files written
//! (CI pins the output to `bench_results/smoke/ext_mixed.txt`).

use ca_bench::{table, true_relres, xhash, Problem, Study, TestMatrix};
use ca_gmres::prelude::*;
use ca_gpusim::{CommCounters, MultiGpu};
use ca_scalar::Precision;

const NDEV: usize = 3;
/// Basis length for both precisions (a Newton basis: within the planner's
/// tightened f32 stability caps).
const S: usize = 6;
/// Restart cycles in the fixed-budget leg.
const COMM_RESTARTS: usize = 2;
/// Convergence target of the accuracy leg — well below f32's unit
/// roundoff, so the mixed run only reaches it through f64 refinement.
const RTOL: f64 = 1e-8;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    config: String ["config"],
    // fixed-budget leg: per-cycle speed and exact byte accounting
    cycle_spmv_ms: f64 ["spmv ms/cyc" "{:.3}"],
    cycle_total_ms: f64 ["total ms/cyc" "{:.3}"],
    comm_msgs: u64 ["msgs"],
    comm_bytes: u64 ["bytes"],
    comm_bytes_f32: u64 ["bytes f32"],
    // convergence leg
    restarts: usize ["restarts/iters" |r| format!("{}/{}", r.restarts, r.total_iters)],
    total_iters: usize,
    tts_ms: f64 ["tts ms" "{:.3}"],
    relres: f64 ["relres" "{:.2e}"],
    converged: bool ["" |r| match (r.converged, r.escalated) {
        (false, _) => "FAIL".into(),
        (true, true) => "esc".into(),
        (true, false) => String::new(),
    }],
    escalated: bool,
});

fn solve(p: &Problem, cfg: &CaGmresConfig) -> (MixedOutcome, CommCounters) {
    let mut mg = MultiGpu::with_defaults(NDEV);
    let out =
        ca_gmres_mixed(&mut mg, &p.a, &p.b, p.layout.clone(), cfg).expect("simulated solve failed");
    (out, mg.counters())
}

fn cfg(m: usize, prec: Precision, rtol: f64, max_restarts: usize) -> CaGmresConfig {
    CaGmresConfig { s: S, m, rtol, max_restarts, mpk_prec: prec, ..Default::default() }
}

fn compare(study: &Study, t: &TestMatrix, rows: &mut Vec<Row>) {
    let p = Problem::new(&t.a, Ordering::Natural, NDEV);

    // --- fixed-budget leg: identical message schedule, counters compare ---
    let (c64, k64) = solve(&p, &cfg(t.m, Precision::F64, 0.0, COMM_RESTARTS));
    let (c32, k32) = solve(&p, &cfg(t.m, Precision::F32, 0.0, COMM_RESTARTS));
    assert!(!c32.escalated, "{}: f32 basis broke down inside the fixed budget", t.name);
    assert_eq!(
        (c64.stats.restarts, c64.stats.total_iters),
        (c32.stats.restarts, c32.stats.total_iters),
        "{}: fixed-budget legs must execute the same schedule",
        t.name
    );
    assert_eq!(
        k32.total_msgs(),
        k64.total_msgs(),
        "{}: precision must not change the message count",
        t.name
    );
    assert_eq!(k64.total_bytes_f32(), 0, "{}: f64 run moved f32-tagged bytes", t.name);
    assert!(k32.total_bytes_f32() > 0, "{}: mixed run moved no f32-tagged bytes", t.name);
    assert_eq!(
        k64.total_bytes() - k32.total_bytes(),
        k32.total_bytes_f32(),
        "{}: halo bytes not exactly halved (f64 {} vs mixed {}, tagged {})",
        t.name,
        k64.total_bytes(),
        k32.total_bytes(),
        k32.total_bytes_f32()
    );
    assert!(
        c32.stats.t_spmv < c64.stats.t_spmv,
        "{}: mixed MPK+halo {:.6e}s not below f64 {:.6e}s",
        t.name,
        c32.stats.t_spmv,
        c64.stats.t_spmv
    );
    let cycles = c64.stats.restarts as f64;

    // --- convergence leg: same f64 tolerance, bounded extra restarts ---
    let (v64, _) = solve(&p, &cfg(t.m, Precision::F64, RTOL, 500));
    let (v32, _) = solve(&p, &cfg(t.m, Precision::F32, RTOL, 500));
    let r64 = true_relres(&p.a, &p.b, &v64.x);
    let r32 = true_relres(&p.a, &p.b, &v32.x);
    assert!(
        v64.stats.converged && v32.stats.converged,
        "{}: convergence leg failed (f64 {}, mixed {})",
        t.name,
        v64.stats.converged,
        v32.stats.converged
    );
    assert!(
        r64 <= RTOL * 1.01 && r32 <= RTOL * 1.01,
        "{}: explicit residuals f64 {r64:.3e} / mixed {r32:.3e} exceed rtol {RTOL:.0e}",
        t.name
    );
    assert!(
        v32.stats.restarts <= v64.stats.restarts + 1,
        "{}: mixed took {} restarts vs {} for f64 (> +1)",
        t.name,
        v32.stats.restarts,
        v64.stats.restarts
    );

    // oracle: best-of-both with hindsight
    let mixed_wins = !v32.escalated && v32.stats.t_total < v64.stats.t_total;

    study.digest(format_args!(
        "{} comm msgs={} bytes64={} bytes32={} tagged32={} spmv64_bits={:016x} spmv32_bits={:016x}",
        t.name,
        k64.total_msgs(),
        k64.total_bytes(),
        k32.total_bytes(),
        k32.total_bytes_f32(),
        c64.stats.t_spmv.to_bits(),
        c32.stats.t_spmv.to_bits()
    ));
    for (label, out) in [("f64", &v64), ("mixed", &v32)] {
        study.digest(format_args!(
            "{} conv {label} restarts={} iters={} esc={} xhash={:016x} t_bits={:016x}",
            t.name,
            out.stats.restarts,
            out.stats.total_iters,
            out.escalated,
            xhash(&out.x),
            out.stats.t_total.to_bits()
        ));
    }

    let legs: [(&str, &MixedOutcome, &CommCounters, &MixedOutcome, f64); 3] = [
        ("f64", &c64, &k64, &v64, r64),
        ("mixed", &c32, &k32, &v32, r32),
        if mixed_wins {
            ("oracle=mixed", &c32, &k32, &v32, r32)
        } else {
            ("oracle=f64", &c64, &k64, &v64, r64)
        },
    ];
    for (config, comm, k, conv, r) in legs {
        rows.push(Row {
            matrix: t.name.to_string(),
            config: config.to_string(),
            cycle_spmv_ms: comm.stats.t_spmv / cycles * 1e3,
            cycle_total_ms: comm.stats.t_total / cycles * 1e3,
            comm_msgs: k.total_msgs(),
            comm_bytes: k.total_bytes(),
            comm_bytes_f32: k.total_bytes_f32(),
            restarts: conv.stats.restarts,
            total_iters: conv.stats.total_iters,
            tts_ms: conv.stats.t_total * 1e3,
            relres: r,
            converged: conv.stats.converged,
            escalated: conv.escalated,
        });
    }
    eprintln!(
        "[ext_mixed] {}: per-cycle MPK+halo {:.3} -> {:.3} ms, tts {:.3} -> {:.3} ms ({})",
        t.name,
        c64.stats.t_spmv / cycles * 1e3,
        c32.stats.t_spmv / cycles * 1e3,
        v64.stats.t_total * 1e3,
        v32.stats.t_total * 1e3,
        if mixed_wins { "mixed wins" } else { "f64 wins" }
    );
}

fn main() {
    let study = Study::new("ext_mixed", &["--large", "--smoke", "--matrix <name>"]);
    let mut rows: Vec<Row> = Vec::new();
    for t in study.suite() {
        compare(&study, &t, &mut rows);
    }

    println!(
        "\nExtension — mixed precision: f32 basis + f64 refinement vs full f64 \
         ({NDEV} GPUs, s = {S}, rtol = {RTOL:.0e}; per-cycle columns from a fixed \
         {COMM_RESTARTS}-cycle budget)"
    );
    println!("{}", table(&rows));

    if !study.smoke {
        study.write_json(&rows);
    }
}
