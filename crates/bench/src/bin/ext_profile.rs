//! Extension study: unified observability profile of CA-GMRES on the
//! Fig. 12 suite.
//!
//! Every solve runs under a `ca-obs` recording session with device command
//! tracing on: host phase spans come from the instrumented drivers, device
//! kernel and copy-engine spans from post-hoc ingestion of the command
//! queues, and the typed metric registry accumulates communication and
//! solver counters. The study then
//!
//! 1. validates the recording (`check_well_nested`) and cross-checks the
//!    span-derived phase breakdown against the `PhaseTimer` buckets in
//!    `SolveStats` to within 1e-9 simulated seconds — the two attribution
//!    paths are independent, so agreement pins both;
//! 2. prints a Fig. 15-style per-matrix phase table derived *purely* from
//!    spans (plus the standard-GMRES baseline, same validation);
//! 3. writes the profiling artifacts for the first suite matrix under
//!    `bench_results/`: a Perfetto trace (`ext_profile_trace.json`), the
//!    deterministic metrics snapshot (`ext_profile_metrics.json`), and
//!    folded stacks for flamegraph tools (`ext_profile.folded`).
//!
//! `--smoke` restricts the suite to `cant` with a short solve for CI; all
//! stdout is simulated-time-only, so it diffs clean between runs.
//! Recording never perturbs the solve: the determinism suite asserts an
//! instrumented run is bit-identical to an uninstrumented one.

use ca_bench::{balanced_problem, format_table, set_run_meta, write_json, RunMeta, Scale};
use ca_gmres::cagmres::KernelMode;
use ca_gmres::prelude::*;
use ca_gmres::stats::SpanBreakdown;
use ca_gpusim::{obs_ingest_traces, MultiGpu};
use ca_obs as obs;

/// Simulated-time tolerance for span-vs-PhaseTimer agreement (seconds).
const TOL_S: f64 = 1e-9;

struct Row {
    matrix: String,
    solver: String,
    ngpus: usize,
    cycles: usize,
    spmv_ms: f64,
    orth_ms: f64,
    tsqr_ms: f64,
    small_ms: f64,
    total_ms: f64,
    span_timer_max_diff_s: f64,
    kernel_spans: usize,
    copy_spans: usize,
    metrics_hash: String,
}

ca_bench::jv_struct!(Row {
    matrix,
    solver,
    ngpus,
    cycles,
    spmv_ms,
    orth_ms,
    tsqr_ms,
    small_ms,
    total_ms,
    span_timer_max_diff_s,
    kernel_spans,
    copy_spans,
    metrics_hash,
});

struct Profiled {
    stats: SolveStats,
    rec: obs::Recording,
}

/// Run `solve` under a fresh obs session with device tracing enabled,
/// ingest the command queues, and validate the recording.
fn profiled(mg: &mut MultiGpu, solve: impl FnOnce(&mut MultiGpu) -> SolveStats) -> Profiled {
    obs::start();
    mg.enable_trace();
    let stats = solve(mg);
    obs_ingest_traces(&mg.take_traces());
    let rec = obs::finish();
    rec.check_well_nested().unwrap_or_else(|e| panic!("recording not well-nested: {e}"));
    Profiled { stats, rec }
}

fn row_from(matrix: &str, solver: &str, ngpus: usize, p: &Profiled) -> Row {
    let breakdown = SpanBreakdown::from_recording(&p.rec);
    let diff = breakdown.max_abs_diff(&p.stats);
    assert!(
        diff <= TOL_S,
        "{matrix}/{solver}: span breakdown deviates from PhaseTimer by {diff:.3e} s \
         (spans {breakdown:?} vs stats spmv={} orth={} tsqr={} small={})",
        p.stats.t_spmv,
        p.stats.t_orth,
        p.stats.t_tsqr,
        p.stats.t_small
    );
    let on = |t: obs::Track| p.rec.spans.iter().filter(|s| s.track == t).count();
    let kernel_spans: usize = (0..ngpus).map(|d| on(obs::Track::Device(d as u32))).sum();
    let copy_spans: usize = (0..ngpus).map(|d| on(obs::Track::Link(d as u32))).sum();
    Row {
        matrix: matrix.to_string(),
        solver: solver.to_string(),
        ngpus,
        cycles: breakdown.cycles,
        spmv_ms: breakdown.spmv * 1e3,
        orth_ms: breakdown.orth * 1e3,
        tsqr_ms: breakdown.tsqr * 1e3,
        small_ms: breakdown.small * 1e3,
        total_ms: p.stats.t_total * 1e3,
        span_timer_max_diff_s: diff,
        kernel_spans,
        copy_spans,
        metrics_hash: p.rec.metrics.hash_hex(),
    }
}

fn write_artifacts(rec: &obs::Recording) {
    let dir = ca_bench::bench_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    for (name, content) in [
        ("ext_profile_trace.json", obs::export::chrome_trace(rec)),
        ("ext_profile_metrics.json", rec.metrics.to_json()),
        ("ext_profile.folded", obs::export::folded_stacks(rec)),
    ] {
        let path = dir.join(name);
        let _ = std::fs::write(&path, content);
        eprintln!("[ca-bench] wrote {}", path.display());
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::from_args();
    let s = 10usize;
    let ngpus = 3usize;
    let suite = if smoke { vec![ca_bench::cant(scale)] } else { ca_bench::suite(scale) };
    let ca_restarts = if smoke { 2 } else { 4 };

    let mut rows: Vec<Row> = Vec::new();
    let mut first_rec: Option<obs::Recording> = None;

    for t in &suite {
        let ord = if t.name == "cant" { Ordering::Natural } else { Ordering::Kway };
        let (a_bal, b_bal) = balanced_problem(&t.a);
        let (a_ord, perm, layout) = prepare(&a_bal, ord, ngpus);
        let b_perm = ca_sparse::perm::permute_vec(&b_bal, &perm);

        // standard GMRES baseline under the same instrumentation
        let mut mg = MultiGpu::with_defaults(ngpus);
        let sys = System::new(&mut mg, &a_ord, layout.clone(), t.m, None).unwrap();
        sys.load_rhs(&mut mg, &b_perm).unwrap();
        let cfg_g = GmresConfig { m: t.m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 2 };
        let pg = profiled(&mut mg, |mg| gmres(mg, &sys, &cfg_g).stats);
        rows.push(row_from(t.name, "GMRES", ngpus, &pg));

        // CA-GMRES with auto kernel selection (exercises the dry-run pause)
        let mut mg2 = MultiGpu::with_defaults(ngpus);
        let sys2 = System::new(&mut mg2, &a_ord, layout, t.m, Some(s)).unwrap();
        sys2.load_rhs(&mut mg2, &b_perm).unwrap();
        let cfg_ca = CaGmresConfig {
            s,
            m: t.m,
            kernel: KernelMode::Auto,
            rtol: 0.0,
            max_restarts: ca_restarts,
            ..Default::default()
        };
        let pca = profiled(&mut mg2, |mg| ca_gmres(mg, &sys2, &cfg_ca).stats);
        rows.push(row_from(t.name, "CA-GMRES", ngpus, &pca));
        if first_rec.is_none() {
            first_rec = Some(pca.rec);
        }
    }

    println!(
        "ext_profile — span-derived phase breakdown (simulated ms on {ngpus} GPUs), \
         validated against PhaseTimer to {TOL_S:.0e} s\n"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                r.solver.clone(),
                r.ngpus.to_string(),
                r.cycles.to_string(),
                format!("{:.3}", r.spmv_ms),
                format!("{:.3}", r.orth_ms),
                format!("{:.3}", r.tsqr_ms),
                format!("{:.3}", r.small_ms),
                format!("{:.3}", r.total_ms),
                r.kernel_spans.to_string(),
                r.copy_spans.to_string(),
                format!("{:.1e}", r.span_timer_max_diff_s),
                r.metrics_hash.clone(),
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
                "cycles",
                "SpMV ms",
                "Orth ms",
                "TSQR ms",
                "small ms",
                "total ms",
                "kernels",
                "copies",
                "diff s",
                "metrics hash"
            ],
            &table
        )
    );

    let rec = first_rec.expect("suite is non-empty");
    set_run_meta(RunMeta { metrics_hash: Some(rec.metrics.hash_hex()), ..RunMeta::default() });
    write_artifacts(&rec);
    if smoke {
        // committed baseline for the bench-trend gate (CI reruns this
        // with CA_BENCH_DIR set and diffs against it)
        write_json("ext_profile_smoke", &rows);
    } else {
        write_json("ext_profile", &rows);
    }
}
