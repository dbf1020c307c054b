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
//! `--smoke` restricts the suite to `cant` with a short solve for CI, which
//! pins its output to `bench_results/smoke/ext_profile.txt` and its
//! envelope to the committed `ext_profile_smoke.json`; all stdout is
//! simulated-time-only.
//! Recording never perturbs the solve: the determinism suite asserts an
//! instrumented run is bit-identical to an uninstrumented one.

use ca_bench::{table, Problem, Study};
use ca_gmres::mpk::fastest_kernel;
use ca_gmres::prelude::*;
use ca_gmres::stats::SpanBreakdown;
use ca_gpusim::{obs_ingest_traces, MultiGpu};
use ca_obs as obs;

/// Simulated-time tolerance for span-vs-PhaseTimer agreement (seconds).
const TOL_S: f64 = 1e-9;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    solver: String ["solver"],
    ngpus: usize ["g"],
    cycles: usize ["cycles"],
    spmv_ms: f64 ["SpMV ms" "{:.3}"],
    orth_ms: f64 ["Orth ms" "{:.3}"],
    tsqr_ms: f64 ["TSQR ms" "{:.3}"],
    small_ms: f64 ["small ms" "{:.3}"],
    total_ms: f64 ["total ms" "{:.3}"],
    span_timer_max_diff_s: f64,
    kernel_spans: usize ["kernels"],
    copy_spans: usize ["copies"] ["diff s" |r| format!("{:.1e}", r.span_timer_max_diff_s)],
    metrics_hash: String ["metrics hash"],
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

fn main() {
    let mut study = Study::new("ext_profile", &["--large", "--smoke"]);
    let s = 10usize;
    let ngpus = 3usize;
    let ca_restarts = if study.smoke { 2 } else { 4 };

    let mut rows: Vec<Row> = Vec::new();
    let mut first_rec: Option<obs::Recording> = None;

    for t in &study.suite() {
        let ord = if t.name == "cant" { Ordering::Natural } else { Ordering::Kway };
        let p = Problem::new(&t.a, ord, ngpus);

        // standard GMRES baseline under the same instrumentation
        let mut mg = MultiGpu::with_defaults(ngpus);
        let sys = p.load(&mut mg, t.m, None);
        let cfg_g = GmresConfig { m: t.m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 2 };
        let pg = profiled(&mut mg, |mg| gmres(mg, &sys, &cfg_g).stats);
        rows.push(row_from(t.name, "GMRES", ngpus, &pg));

        // CA-GMRES on the faster generator, priced off the recording
        let mut mg = MultiGpu::with_defaults(ngpus);
        let sys = p.load(&mut mg, t.m, Some(s));
        let cfg_ca = CaGmresConfig {
            s,
            m: t.m,
            kernel: fastest_kernel(&mg, &p.a, &p.layout, s),
            rtol: 0.0,
            max_restarts: ca_restarts,
            ..Default::default()
        };
        mg.reset_time(); // as `Problem::ca_gmres` times it
        let pca = profiled(&mut mg, |mg| ca_gmres(mg, &sys, &cfg_ca).stats);
        rows.push(row_from(t.name, "CA-GMRES", ngpus, &pca));
        first_rec.get_or_insert(pca.rec);
    }

    println!(
        "ext_profile — span-derived phase breakdown (simulated ms on {ngpus} GPUs), \
         validated against PhaseTimer to {TOL_S:.0e} s\n"
    );
    println!("{}", table(&rows));

    let rec = first_rec.expect("suite is non-empty");
    study.meta.metrics_hash = Some(rec.metrics.hash_hex());
    study.write("ext_profile_trace.json", &obs::export::chrome_trace(&rec));
    study.write("ext_profile_metrics.json", &rec.metrics.to_json());
    study.write("ext_profile.folded", &obs::export::folded_stacks(&rec));
    study.write_json(&rows);
}
